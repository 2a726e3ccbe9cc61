"""Fraction-based references for the integer front end.

The library runs Yun's algorithm and the coprime basis on primitive
integer coefficient lists, and its parser evaluates with UPoly, whose
arithmetic runs on integer numerators.  The straightforward versions over Q below, with
gcd_cofactors on UPoly values and a parser that evaluates every node as
a RatFunc, are what the tests compare those against; the parser shares
only the library's cost budget.  euclid_gcd_cofactors is gcd_cofactors
by the Euclidean algorithm over Q, and zp_gcd_degree_over_field the same
algorithm over Q(x) on polynomials in z: the library's heuristic GCD and
squarefree certificate stop at proven bounds and need neither.  radical and expand are test helpers
built on the library's own squarefree decomposition.  enumerated_subset_criterion is
the 2^m subset enumeration that the library's criterion, which checks at
most three distinct parity rows, replaced.  fraction_resultant_with_quadratic
and fraction_is_squarefree_in_z are the Fraction versions of the minimal
polynomial kernels, which the library runs on packed integers.
chained_resultant_tower is the minimal polynomial tower as the chain of
resultant_with_quadratic steps in z that the library's resultant_tower
replaced.
fraction_to_str prints a UPoly with Fraction comparisons on each
coefficient, the form UPoly.to_str replaced.  FractionPoly is a polynomial
as a tuple of Fraction coefficients, the representation UPoly had before
it kept integer numerators over one denominator, with schoolbook
arithmetic.  squaring_int_pow raises an
integer list to a power by repeated squaring, as the library did before
it took powers of short bases by Miller's recurrence.  horner_substitute
is substitution by Horner's rule over RatFunc, a gcd at every step, which
the library's gcd-free homogeneous images computed by halves replaced.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Optional, Sequence

from sqrat.errors import (
    DivisionByZeroExpressionError,
    ExprSyntaxError,
    NegativeExponentError,
    UnsupportedVariableError,
    ZeroInputError,
)
from sqrat.lattice import BranchTable
from sqrat.parsing import (
    _X_BOUND,
    MAX_COEFF_BITS,
    MAX_EXPONENT,
    MAX_NESTING,
    Token,
    _Bound,
    _check_budget,
    _SumBound,
)
from sqrat.poly import (
    RatFunc,
    SqfDecomp,
    UPoly,
    _int_mul,
    gcd_cofactors,
    poly_gcd,
    squarefree_decompose,
)
from sqrat.resultants import (
    ZP_ONE,
    ZP_ZERO,
    ZPoly,
    resultant_with_quadratic,
    zp_degree,
    zp_mul,
    zpoly,
)
from sylvester import zp_add, zp_sub


def fraction_squarefree_decompose(f: UPoly) -> SqfDecomp:
    """Yun's algorithm over Q on monic UPoly values."""
    if f.is_zero:
        raise ZeroInputError("squarefree decomposition of zero")
    unit = f.leading
    w = f.monic()
    parts: list[tuple[UPoly, int]] = []
    _, b, c = gcd_cofactors(w, w.derivative())
    d = c - b.derivative()
    i = 1
    while not b.is_constant:
        p, b, c = gcd_cofactors(b, d)
        if not p.is_constant:
            parts.append((p, i))
        d = c - b.derivative()
        i += 1
    return SqfDecomp(unit=unit, parts=tuple(parts))


def fraction_coprime_basis(fs: Sequence[UPoly]) -> tuple[list[UPoly], list[list[int]]]:
    """coprime_basis refined on monic UPoly values, checked by division over Q."""
    polys = list(fs)
    for f in polys:
        if f is None or f.is_zero:
            raise ZeroInputError("coprime basis of a family containing zero")
    basis: list[tuple[UPoly, list[int]]] = []
    for k, f in enumerate(polys):
        if f.is_constant:
            continue
        for part, i in fraction_squarefree_decompose(f).parts:
            rest = part
            refined: list[tuple[UPoly, list[int]]] = []
            for b, row in basis:
                d, b_left, rest_left = gcd_cofactors(b, rest)
                if d.is_constant:
                    refined.append((b, row))
                    continue
                if not b_left.is_constant:
                    refined.append((b_left, row))
                d_row = row.copy()
                d_row[k] += i
                refined.append((d, d_row))
                rest = rest_left
            if not rest.is_constant:
                row = [0] * len(polys)
                row[k] = i
                refined.append((rest, row))
            basis = refined
    basis.sort(key=lambda element: element[0].sort_key())
    exponents = [[row[k] for _, row in basis] for k in range(len(polys))]
    for f, exps in zip(polys, exponents):
        prod = UPoly.one()
        for (b, _), e in zip(basis, exps):
            prod = prod * b ** e
        q, r = divmod(f, prod)
        if r or not q.is_constant or q.is_zero:
            raise RuntimeError("coprime basis reconstruction failed")
    return [b for b, _ in basis], exponents


def expand(decomp: SqfDecomp) -> UPoly:
    """unit * prod(factor^multiplicity) of a squarefree decomposition."""
    out = UPoly.constant(decomp.unit)
    for factor, mult in decomp.parts:
        out = out * factor ** mult
    return out


def radical(f: UPoly) -> UPoly:
    """Monic product of the distinct squarefree factors of f."""
    out = UPoly.one()
    for factor, _ in squarefree_decompose(f).parts:
        out = out * factor
    return out


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|([()+\-*/^]))")


def tokenize(text: str) -> list[Token]:
    """The tokens of text, matched one at a time from the left."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}",
                                  position=bad)
        if match.group(1) is not None:
            tokens.append(Token("int", match.group(1), match.start(1)))
        elif match.group(2) is not None:
            tokens.append(Token("name", match.group(2), match.start(2)))
        else:
            op = match.group(3)
            tokens.append(Token(op, op, match.start(3)))
        pos = match.end()
    return tokens


class RatFuncParser:
    """The expression grammar of sqrat.parsing, evaluated node by node in RatFunc.

    Same grammar, nesting limit, errors and cost budget as the library
    parser; tokens are matched one at a time.  Each method returns a value
    and its _Bound, and the budget is checked with the library's own
    _Bound, _SumBound and _check_budget at the same operators, so that
    the budget is defined once while the values are computed separately.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def advance(self):
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input",
                                  position=len(self.text))
        self.index += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok is None or tok.kind != kind:
            pos = tok.position if tok else len(self.text)
            raise ExprSyntaxError(f"expected {kind!r}", position=pos)
        return self.advance()

    def parse(self) -> RatFunc:
        if not self.tokens:
            raise ExprSyntaxError("expected an expression", position=0)
        value, _ = self.expr()
        leftover = self.peek()
        if leftover is not None:
            raise ExprSyntaxError(f"unexpected {leftover.text!r}",
                                  position=leftover.position)
        return value

    def expr(self) -> tuple[RatFunc, _Bound]:
        value, bound = self.term()
        total = None
        while (tok := self.peek()) is not None and tok.kind in "+-":
            self.advance()
            if total is None:
                total = _SumBound(bound)
            rhs, rhs_bound = self.term()
            bound = total.add(rhs_bound)
            _check_budget(bound, tok)
            value = value + rhs if tok.kind == "+" else value - rhs
        return value, bound

    def term(self) -> tuple[RatFunc, _Bound]:
        value, bound = self.unary()
        while (tok := self.peek()) is not None and tok.kind in "*/":
            self.advance()
            rhs, rhs_bound = self.unary()
            if tok.kind == "*":
                bound = bound * rhs_bound
                _check_budget(bound, tok)
                value = value * rhs
            else:
                bound = bound / rhs_bound
                _check_budget(bound, tok)
                if rhs.is_zero:
                    raise DivisionByZeroExpressionError(
                        "denominator is identically zero",
                        position=tok.position)
                value = value / rhs
        return value, bound

    def unary(self) -> tuple[RatFunc, _Bound]:
        tok = self.peek()
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(
                f"expression nested too deeply (limit {MAX_NESTING})",
                position=tok.position if tok else len(self.text))
        self.depth += 1
        if tok is not None and tok.kind == "-":
            self.advance()
            value, bound = self.unary()
            value = -value
        else:
            value, bound = self.power()
        self.depth -= 1
        return value, bound

    def power(self) -> tuple[RatFunc, _Bound]:
        base, bound = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.advance()
            exponent, _ = self.unary()
            if not exponent.is_constant:
                raise ExprSyntaxError("exponent must be a constant",
                                      position=tok.position)
            value = exponent.as_fraction
            if value.denominator != 1:
                raise ExprSyntaxError(
                    "exponent must be a nonnegative integer",
                    position=tok.position)
            if value < 0:
                raise NegativeExponentError(
                    "negative exponents are not allowed",
                    position=tok.position)
            n = int(value)
            if n > MAX_EXPONENT:
                raise ExprSyntaxError(
                    f"exponent too large (limit {MAX_EXPONENT})",
                    position=tok.position)
            bound = bound ** n
            _check_budget(bound, tok)
            return base ** n, bound
        return base, bound

    def atom(self) -> tuple[RatFunc, _Bound]:
        tok = self.advance()
        if tok.kind == "int":
            digits = tok.text.lstrip("0") or "0"
            n = int(digits) if 3 * len(digits) <= MAX_COEFF_BITS else None
            if n is None or n > 1 << MAX_COEFF_BITS:
                raise ExprSyntaxError(
                    f"integer too large (limit 2^{MAX_COEFF_BITS})",
                    position=tok.position)
            return RatFunc(n), _Bound(0, max(n - 1, 0).bit_length(), 0, 0)
        if tok.kind == "name":
            if tok.text == "x":
                return RatFunc(UPoly.x()), _X_BOUND
            raise UnsupportedVariableError(
                f"variable {tok.text!r} not supported: multivariate input "
                "is out of scope (only x)",
                position=tok.position)
        if tok.kind == "(":
            out = self.expr()
            self.expect(")")
            return out
        raise ExprSyntaxError(f"unexpected {tok.text!r}",
                              position=tok.position)


def ratfunc_parse_expr(text: str) -> RatFunc:
    """parse_expr as evaluated entirely in RatFunc."""
    return RatFuncParser(text).parse()


def enumerated_subset_criterion(table: BranchTable
                                ) -> tuple[bool, Optional[list[int]]]:
    """The subset criterion over all 2^m subsets, by size, then
    lexicographically: the first subset whose XOR of finite parity rows has
    class degree above 2, as a 0-based index list."""
    m = table.family_size
    degrees = [b.degree for b in table.basis]
    rows = table.parity_masks(include_infinity=False)
    for size in range(1, m + 1):
        for combo in itertools.combinations(range(m), size):
            mask = 0
            for i in combo:
                mask ^= rows[i]
            class_degree = sum(d for j, d in enumerate(degrees) if mask >> j & 1)
            if class_degree > 2:
                return False, list(combo)
    return True, None


def fraction_resultant_with_quadratic(p: ZPoly, f: UPoly) -> ZPoly:
    """Res_y(p(z - y), y^2 - f) as a^2 - f*b^2 over Q[x], with the powers of
    (z - y) modulo y^2 - f kept as pairs (u, v) meaning u + v*y."""
    f_z = zpoly([f])
    u, v = ZP_ONE, ZP_ZERO
    a, b = ZP_ZERO, ZP_ZERO
    for coeff in p:
        if not coeff.is_zero:
            c = zpoly([coeff])
            a = zp_add(a, zp_mul(c, u))
            b = zp_add(b, zp_mul(c, v))
        shifted_u = zpoly((UPoly.zero(),) + u)  # z * u
        shifted_v = zpoly((UPoly.zero(),) + v)
        u, v = zp_sub(shifted_u, zp_mul(f_z, v)), zp_sub(shifted_v, u)
    return zp_sub(zp_mul(a, a), zp_mul(f_z, zp_mul(b, b)))


def chained_resultant_tower(fs: Sequence[UPoly]) -> ZPoly:
    """p = z^2 - f_1, then p <- Res_y(p(z - y), y^2 - f) for the rest of fs."""
    p = zpoly([-fs[0], 0, 1])
    for f in fs[1:]:
        p = resultant_with_quadratic(p, f)
    return p


def euclid_gcd_cofactors(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly, UPoly]:
    """gcd_cofactors by the Euclidean algorithm over Q."""
    u, v = a, b
    while v:
        r = u % v
        u, v = v, (r.monic() if r else r)
    if not u:
        return UPoly.zero(), UPoly.zero(), UPoly.zero()
    g = u.monic()
    return g, a.exact_div(g), b.exact_div(g)


def zp_derivative(p: ZPoly) -> ZPoly:
    return zpoly(tuple(i * c for i, c in enumerate(p) if i))


def zp_gcd_degree_over_field(a: ZPoly, b: ZPoly) -> int | None:
    """Degree in z of gcd(a, b) taken over the field Q(x)."""
    fa = [RatFunc(c) for c in a]
    fb = [RatFunc(c) for c in b]

    def norm(p: list[RatFunc]) -> list[RatFunc]:
        while p and p[-1].is_zero:
            p.pop()
        return p

    fa, fb = norm(fa), norm(fb)
    while fb:
        # remainder of fa mod fb over Q(x)
        rem = list(fa)
        db = len(fb) - 1
        lead = fb[-1]
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k]
            if c.is_zero:
                continue
            q = c / lead
            for j in range(db + 1):
                rem[k - db + j] = rem[k - db + j] - q * fb[j]
        fa, fb = fb, norm(rem[:db] if db else [])
    return len(fa) - 1 if fa else None


def fraction_is_squarefree_in_z(p: ZPoly) -> bool:
    """zp_is_squarefree_in_z with UPoly evaluation and gcd at -8..8, and
    the gcd over Q(x) when every one of those points degenerates."""
    if zp_degree(p) in (None, 0):
        return True
    dp = zp_derivative(p)
    lead = p[-1]
    for xi in range(-8, 9):
        point = Fraction(xi)
        if lead.evaluate(point) == 0:
            continue
        p_xi = UPoly([c.evaluate(point) for c in p])
        dp_xi = UPoly([c.evaluate(point) for c in dp])
        if dp_xi.is_zero:
            continue
        if poly_gcd(p_xi, dp_xi).is_one:
            return True
    return zp_gcd_degree_over_field(p, dp) == 0


def fraction_to_str(p: UPoly, var: str = "x") -> str:
    """UPoly.to_str with abs() and comparisons on each Fraction coefficient."""
    if not p.coeffs:
        return "0"
    parts: list[str] = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            mon = var if k == 1 else f"{var}^{k}"
            body = mon if abs(c) == 1 else f"{abs(c)}*{mon}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def squaring_int_pow(f: list[int], n: int) -> list[int]:
    """f^n for n >= 1 by repeated squaring with _int_mul."""
    result = None
    while True:
        if n & 1:
            result = f if result is None else _int_mul(result, f)
        n >>= 1
        if not n:
            return result
        f = _int_mul(f, f)


class FractionPoly:
    """Polynomial over Q as a tuple of Fractions, constant term first, with
    no trailing zeros; arithmetic by the schoolbook formulas."""

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __neg__(self):
        return FractionPoly(-c for c in self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        return FractionPoly((a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
                            for k in range(max(len(a), len(b))))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return FractionPoly(out)

    def __pow__(self, n: int):
        out = FractionPoly([1])
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, c):
        return FractionPoly(a / c for a in self.coeffs)

    def __divmod__(self, other):
        rem = list(self.coeffs)
        b = other.coeffs
        quo = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
        for k in range(len(quo) - 1, -1, -1):
            q = rem[k + len(b) - 1] / b[-1]
            quo[k] = q
            for j, c in enumerate(b):
                rem[k + j] -= q * c
        return FractionPoly(quo), FractionPoly(rem)

    def derivative(self):
        return FractionPoly(k * c for k, c in enumerate(self.coeffs) if k)

    def monic(self):
        return self / self.coeffs[-1]


def horner_substitute(f: UPoly | RatFunc, s: RatFunc) -> RatFunc:
    """f(s) by Horner's rule over RatFunc, reduced by a gcd at every step."""
    if isinstance(f, RatFunc):
        den = horner_substitute(f.den, s)
        if den.is_zero:
            raise RuntimeError("nonzero denominator vanished under substitution")
        return horner_substitute(f.num, s) / den
    # Horner on the integer numerators, then one division by the denominator
    acc = RatFunc(0)
    for c in reversed(f._ints):
        acc = acc * s + c
    return acc if f._den == 1 else acc / f._den
