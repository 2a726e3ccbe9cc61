"""Independent reference answers, computed with sympy.

Nothing here imports sqrat.  Square-class data comes from sympy's
factorization over Q: the parity of each irreducible factor's exponent,
a GF(2) rank and Riemann-Hurwitz give the genus, the rank and the branch
count; the subset criterion is re-derived from the class degrees of the
subset products.  Witnesses are checked by testing that f(phi) / root^2
is the stated constant in sympy's field Q(t).  Minimal polynomials are
compared with chains of sympy resultants at enough specializations
x = x0 to fix every coefficient.

check(item, record) returns (ok, witness_found), where witness_found is
None unless the item asked for a verdict on a genus-0 family.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from math import comb, gcd

from sympy import QQ, ZZ, Poly, factor_list, fraction, symbols, sympify
from sympy.polys.fields import field
from sympy.polys.rings import ring

X = symbols("x")
_NUMBER = re.compile(r"\^(\d+)|(\d+)")
_QX, _qx = ring("x", QQ)
_QXZ, _xz_x, _xz_z = ring("x,z", QQ)
_QYZ, _yz_y, _yz_z = ring("y,z", QQ)
_ZYZ, _zy_y, _zy_z = ring("y,z", ZZ)
_QT, _qt = field("t", QQ)


def to_domain(text: str, const, names: dict):
    """Evaluate sqrat expression syntax (integers, + - * / ^, parentheses)
    with integers mapped through `const` and names bound from `names`."""
    code = _NUMBER.sub(lambda m: f"**{m.group(1)}" if m.group(1)
                       else f"_c({m.group(2)})", text)
    return eval(code, {"__builtins__": {}}, {"_c": const, **names})


# -- square-class data from a factorization over Q -----------------------------


def _irreducibles(poly_expr) -> tuple[dict, dict]:
    """{monic irreducible key: exponent}, {key: degree} of a sympy polynomial."""
    _, factors = factor_list(poly_expr, X)
    exps, degs = {}, {}
    for fac, mult in factors:
        p = Poly(fac, X, domain=QQ).monic()
        key = tuple(p.all_coeffs())
        exps[key] = exps.get(key, 0) + mult
        degs[key] = p.degree()
    return exps, degs


def radicand_factors(text: str) -> tuple[dict, dict, int]:
    """Factor a radicand text: (exponents, degrees, deg num - deg den)."""
    return _factor_expr(sympify(text.replace("^", "**")))


def _factor_expr(expr) -> tuple[dict, dict, int]:
    num, den = fraction(expr)
    exps, degs = _irreducibles(num)
    den_exps, den_degs = _irreducibles(den)
    for key, e in den_exps.items():
        exps[key] = exps.get(key, 0) - e
    degs.update(den_degs)
    total = sum(degs[k] * e for k, e in exps.items())
    return exps, degs, total


class FactorCache:
    """Factorizations of the scan workload's monic factors, done once each."""

    def __init__(self):
        self._done: dict[tuple, tuple[dict, dict]] = {}

    def product(self, factors: list) -> tuple[dict, dict, int]:
        exps, degs = {}, {}
        for coeffs in factors:
            coeffs = tuple(coeffs)
            if coeffs not in self._done:
                expr = sum(c * X ** k for k, c in enumerate(coeffs))
                self._done[coeffs] = _irreducibles(expr)
            f_exps, f_degs = self._done[coeffs]
            for key, e in f_exps.items():
                exps[key] = exps.get(key, 0) + e
            degs.update(f_degs)
        total = sum(degs[k] * e for k, e in exps.items())
        return exps, degs, total


def _gf2_rank(rows: list[int]) -> int:
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def family_invariants(family: list[tuple[dict, dict, int]]) -> dict:
    """Verdict data of a family of square roots from its factorizations.

    The (Z/2)^r cover of the line ramifies with index 2 over every complex
    root of an odd-exponent factor and over infinity when some radicand has
    odd degree; Riemann-Hurwitz gives 2g - 2 = -2^(r+1) + B * 2^(r-1).
    """
    degs: dict = {}
    for _, d, _ in family:
        degs.update(d)
    keys = sorted(degs)
    col = {k: j for j, k in enumerate(keys)}
    inf_bit = 1 << len(keys)
    rows = []
    for exps, _, total in family:
        mask = 0
        for k, e in exps.items():
            if e % 2:
                mask |= 1 << col[k]
        if total % 2:
            mask |= inf_bit
        rows.append(mask)
    rank = _gf2_rank(rows)
    union = 0
    for row in rows:
        union |= row
    branch = sum(degs[k] for k in keys if union >> col[k] & 1)
    branch += 1 if union & inf_bit else 0
    genus = 0
    if rank:
        twice = 2 - 2 ** (rank + 1) + branch * 2 ** (rank - 1)
        genus = twice // 2
    passes, failing = True, None
    finite = inf_bit - 1
    for size in range(1, len(rows) + 1):
        for combo in itertools.combinations(range(len(rows)), size):
            mask = 0
            for i in combo:
                mask ^= rows[i]
            mask &= finite
            if sum(degs[k] for k in keys if mask >> col[k] & 1) > 2:
                passes, failing = False, list(combo)
                break
        if not passes:
            break
    return {"rank": rank, "branch_count": branch, "genus": genus,
            "verdict": "rationalizable" if genus == 0 else "not_rationalizable",
            "subset_pass": passes, "failing_subset": failing}


def cyclic_genus(factored: tuple[dict, dict, int], e: int) -> int:
    """Genus of z^e = f by Riemann-Hurwitz over every place of P^1."""
    exps, degs, total = factored
    places = [(degs[k], v) for k, v in exps.items() if v]
    places.append((1, -total))
    twice = -2 * e + sum(n * (e - gcd(e, v % e)) for n, v in places)
    return (twice + 2) // 2


# -- witnesses ----------------------------------------------------------------


def witness_holds(radicands: list[str], witness: dict) -> bool:
    """True iff phi is nonconstant and f_i(phi) = defect_i * root_i^2."""
    const = lambda n: _QT(int(n))  # noqa: E731
    phi = to_domain(witness["phi"], const, {"t": _qt})
    if phi.numer.degree() <= 0 and phi.denom.degree() <= 0:
        return False
    if len(witness["roots"]) != len(radicands):
        return False
    for text, root_text, defect in zip(radicands, witness["roots"],
                                       witness["defects"]):
        image = to_domain(text, const, {"x": phi})
        root = to_domain(root_text, const, {"t": _qt})
        d = Fraction(defect)
        if image != _QT(d.numerator) / d.denominator * root ** 2:
            return False
    return True


# -- minimal polynomials -----------------------------------------------------


def _resultant_chain(values: list) -> dict:
    """Coefficients {k: c} of prod over signs of (z - sum(+-sqrt(c_i)))
    built with sympy resultants: r <- Res_y(r(z - y), y^2 - c).  Runs over
    ZZ when every c_i is an integer, which is many times faster than QQ."""
    if all(QQ.to_sympy(c).is_integer for c in values):
        values = [ZZ(int(QQ.to_sympy(c))) for c in values]
        ring_yz, y = _ZYZ, _zy_y
    else:
        ring_yz, y = _QYZ, _yz_y
    coeffs = {2: 1, 0: -values[0]}
    for c in values[1:]:
        shifted = {}
        for k, a in coeffs.items():
            for j in range(k + 1):
                key = (j, k - j)
                shifted[key] = shifted.get(key, 0) + a * comb(k, j) * (-1) ** j
        res = (y ** 2 - c).resultant(ring_yz.from_dict(shifted))
        coeffs = {mon[-1]: a for mon, a in res.terms()}
    return {k: QQ(int(a)) if ring_yz is _ZYZ else a
            for k, a in coeffs.items() if a}


def _parse_x(text: str):
    return to_domain(text, lambda n: _QX(int(n)), {"x": _qx})


def minpoly_holds(meta: dict, report: dict) -> bool:
    inputs = [_parse_x(t) for t in meta["radicands"]]
    gens = [_parse_x(t) for t in report["generators"]]
    m = meta["rank"]
    if len(gens) != m or report["reduced"] != meta["reduce"]:
        return False
    if meta["reduce"]:
        # the generators must be a basis of the inputs' square-class lattice
        rows_in = [_factor_expr(p.as_expr()) for p in inputs]
        rows_gen = [_factor_expr(p.as_expr()) for p in gens]
        if not (family_invariants(rows_in)["rank"] == m
                and family_invariants(rows_gen)["rank"] == m
                and family_invariants(rows_in + rows_gen)["rank"] == m):
            return False
    elif gens != inputs:
        return False
    const = lambda n: _QXZ(int(n))  # noqa: E731
    claimed = to_domain(report["minpoly"], const, {"x": _xz_x, "z": _xz_z})
    n = 2 ** m
    if claimed.degree(_xz_z) != n:
        return False
    if [(mon, c) for mon, c in claimed.terms() if mon[1] == n] != [((0, n), 1)]:
        return False
    bound = max(n * max(g.degree() for g in gens) // 2, claimed.degree(_xz_x))
    for x0 in range(bound + 1):
        expected = _resultant_chain([g(x0) for g in gens])
        at_x0 = claimed.evaluate(_xz_x, x0)
        got = {mon[-1]: a for mon, a in at_x0.terms()}
        if got != expected:
            return False
    return True


# -- per-item check ----------------------------------------------------------


class Checker:
    """Checks outputs of one workload; caches the reference per item."""

    def __init__(self):
        self._factors = FactorCache()
        self._expected: dict[int, dict] = {}

    def expected(self, index: int, item: dict) -> dict:
        if index not in self._expected:
            self._expected[index] = self._reference(item)
        return self._expected[index]

    def _reference(self, item: dict) -> dict:
        meta = item["meta"]
        if item["call"] == "scan":
            return family_invariants(
                [self._factors.product(f) for f in meta["factors"]])
        if item["argv"][0] == "decide":
            return family_invariants(
                [radicand_factors(t) for t in meta["radicands"]])
        if item["argv"][0] == "genus":
            factored = radicand_factors(meta["radicand"])
            if meta["order"] != 2:
                return {"genus": cyclic_genus(factored, meta["order"])}
            return family_invariants([factored])
        return {}

    def check(self, index: int, item: dict, record: dict):
        """(output correct, witness found or None) for one call record.

        An output that cannot be read (missing keys, text that does not
        parse) is a wrong output, not a failure of the benchmark."""
        if record["err"] is not None and record["rc"] is None:
            return False, None
        want = self.expected(index, item)
        try:
            return self._compare(item, record, want)
        except (KeyError, TypeError, ValueError, SyntaxError, NameError,
                ZeroDivisionError, AttributeError):
            return False, None

    def _compare(self, item: dict, record: dict, want: dict):
        if item["call"] == "scan":
            out = record["out"]
            ok = (out["genus"] == want["genus"]
                  and out["verdict"] == want["verdict"]
                  and out["subset_pass"] == want["subset_pass"]
                  and out["failing_subset"] == want["failing_subset"]
                  and out["agreement"] == (want["subset_pass"]
                                           == (want["genus"] == 0)))
            return ok, None
        command = item["argv"][0]
        report = json.loads(record["out"])
        if command == "decide":
            rc = 0 if want["genus"] == 0 else 1
            ok = record["rc"] == rc and all(
                report[k] == want[k] for k in
                ("verdict", "genus", "rank", "branch_count", "failing_subset"))
            ok = ok and report["subset_criterion"] == want["subset_pass"]
            found = None
            if want["genus"] == 0:
                found = report["witness"] is not None
                if found:
                    ok = ok and witness_holds(item["meta"]["radicands"],
                                              report["witness"])
            return ok, found
        if record["rc"] != 0:
            return False, None
        if command == "genus":
            return all(report.get(k) == v for k, v in want.items()
                       if k in ("genus", "rank", "branch_count")), None
        return minpoly_holds(item["meta"], report), None
