"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of (seed, index): item i of a workload
is drawn from its own random stream, so the same seed always gives the
same inputs, whatever the number of items a run gets through.  An item is
a JSON-ready dict:

    call   "scan" (radicand texts for scan_trial_outcome) or "cli"
           (an argv list for sqrat.cli.main)
    texts / argv
           the only data the program under test receives
    meta   what the reference checker needs to know about how the item
           was built (never sent to the program)

The slower workloads cycle through a fixed schedule of strata (family
kind, number of generators, target degree) and draw only the constants at
random.  That keeps the mix of cheap and expensive items the same from
seed to seed, so the run-to-run spread comes from the program and the
machine rather than from the luck of the draw.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt

WORKLOADS = ("scan", "witness", "minpoly", "bigdeg")

# Items offered per second of run time.  About twenty times the rate the
# seed commit reaches, except on minpoly, where the reference check costs
# more than the call and the cap keeps a run well inside its time limit.
# A program that runs out of items simply ends its loop early: the metrics
# come from the calls made, not from the length of the loop.
MAX_RATE = {"scan": 2500, "witness": 200, "minpoly": 20, "bigdeg": 100}

# Fixed item counts for the traced run, so that two traced runs with the
# same seed make exactly the same calls.
TRACE_ITEMS = {"scan": 300, "witness": 30, "minpoly": 16, "bigdeg": 12}


def poly_text(coeffs) -> str:
    """Text of the polynomial with integer coefficients (ascending) in x."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mon = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        if k == 0:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mon
        else:
            body = f"{abs(c)}*{mon}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts) if parts else "0"


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def _is_square_int(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _irreducible_quadratic(rng: random.Random, bound: int) -> tuple[int, int, int]:
    """Monic x^2 + b x + c with no rational root."""
    while True:
        b, c = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if not _is_square_int(b * b - 4 * c):
            return (c, b, 1)


# -- scan ---------------------------------------------------------------------


def scan_item(seed: int, index: int) -> dict:
    """The conjecture_scan distribution with max_m = 4: m in [2, 4]
    radicands, each a product of 1..3 monic linear or quadratic factors
    with coefficients in [-5, 5]."""
    rng = _rng("scan", seed, index)
    m = rng.randint(2, 4)
    family = []
    for _ in range(m):
        factors = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                factors.append((rng.randint(-5, 5), 1))
            else:
                factors.append((rng.randint(-5, 5), rng.randint(-5, 5), 1))
        family.append(factors)
    texts = ["*".join(f"({poly_text(f)})" for f in factors) for factors in family]
    return {"call": "scan", "texts": texts, "meta": {"factors": family}}


# -- witness ------------------------------------------------------------------

# Every kind is built so that the greedy construction either finds a
# witness (*_point, linear1, conic_square) or ends in the rational point
# search without one (*_none: no real point, so the search runs to its
# height limit).  The share of families without a witness, the defect
# that ROADMAP item 3 removes, is then 2 in 10 on every seed instead of
# varying from run to run; the constants stay random.  Sorted by time:
# linear1 (10-25 ms), seven medium slots (25-70 ms) whose middle holds the
# median, and the two slow ones (150-200 ms) holding p90.
WITNESS_KINDS = ("linear1", "conic_square", "linear2_point", "conic_point",
                 "conic_none", "linear2_point", "conic_square", "conic_point",
                 "linear2_point", "linear2_none")


def _square_factors(rng: random.Random, member: int) -> str:
    """A monic square factor on odd members and a square denominator on
    every third, each with a random root: which members carry them is
    fixed, so that the degrees, and with them the time, vary little."""
    text = ""
    if member % 2:
        text += f"*({poly_text((rng.randint(-6, 6), 1))})^2"
    if member % 3 == 2:
        text += f"/({poly_text((rng.randint(-6, 6), 1))})^2"
    return text


def _linear(rng: random.Random) -> tuple[int, int]:
    """(q, p) for the class q*x - p with root p/q."""
    return rng.randint(1, 3), rng.randint(-6, 6)


def _definite_quadratic(rng: random.Random) -> tuple[int, int, int]:
    """Monic x^2 + b x + c with negative discriminant."""
    while True:
        b, c = rng.randint(-6, 6), rng.randint(-6, 6)
        if b * b - 4 * c < 0:
            return (c, b, 1)


def witness_item(seed: int, index: int) -> dict:
    """A genus-0 family of m radicands c_i * class_i * s_i^2 / d_i^2 for
    `sqrat decide`, m cycling through 2, 3, 4 from one pass over
    WITNESS_KINDS to the next.

    linear1      one linear class (rank 1, two branch points);
    linear2_*    classes u, v and uv of two linear polynomials (rank 2,
                 three branch points); members 0 and 1 have classes u and
                 v.  Greedy first sends u to a square, which turns v into
                 a conic with leading constant c_1 q_v / (c_0 q_u): a
                 square (_point), or negative while the conic's class is
                 positive definite (_none);
    conic_*      one irreducible quadratic class q.  Member 0's constant
                 is a square (conic_square), q(x0) times a square for a
                 small integer x0 (conic_point: the search finds x0), or
                 negative with q positive definite (conic_none).
    """
    rng = _rng("witness", seed, index)
    cycle, slot = divmod(index, len(WITNESS_KINDS))
    kind = WITNESS_KINDS[slot]
    m = 2 + cycle % 3
    if kind == "linear1":
        q, p = _linear(rng)
        classes = [f"({poly_text((-p, q))})"] * m
        consts = [_nonzero(rng, 6) for _ in range(m)]
    elif kind.startswith("linear2"):
        (qu, pu), (qv, pv) = _linear(rng), _linear(rng)
        while Fraction(pu, qu) == Fraction(pv, qv):
            qv, pv = _linear(rng)
        u, v = f"({poly_text((-pu, qu))})", f"({poly_text((-pv, qv))})"
        classes = [u, v] + [rng.choice([u, v, f"{u}*{v}"]) for _ in range(m - 2)]
        consts = [_nonzero(rng, 6) for _ in range(m)]
        if kind == "linear2_point":
            consts[1] = consts[0] * qu * qv * rng.choice([1, 4])
        else:
            # the conic is t^2 + c_0 q_u (r_u - r_v) times c_1 q_v / (c_0 q_u)
            above = Fraction(pu, qu) > Fraction(pv, qv)
            consts[0] = abs(consts[0]) * (1 if above else -1)
            consts[1] = -abs(consts[1]) * (1 if consts[0] > 0 else -1)
    else:
        if kind == "conic_none":
            quad = _definite_quadratic(rng)
        else:
            quad = _irreducible_quadratic(rng, 6)
        classes = [f"({poly_text(quad)})"] * m
        consts = [_nonzero(rng, 6) for _ in range(m)]
        if kind == "conic_square":
            consts[0] = rng.choice([1, 4, 9, 16, 25])
        elif kind == "conic_point":
            x0 = rng.randint(-3, 3)
            consts[0] = (quad[0] + quad[1] * x0 + x0 * x0) * rng.choice([1, 4])
        else:
            consts[0] = -abs(consts[0])
    texts = [f"{c}*{cls}" + _square_factors(rng, i)
             for i, (c, cls) in enumerate(zip(consts, classes))]
    return {"call": "cli", "argv": ["decide", "--json", "--", *texts],
            "meta": {"kind": kind, "radicands": texts}}


# -- minpoly ------------------------------------------------------------------

# (number of independent generators, use --reduce on a dependent family).
# Sorted by time: m = 4 with --reduce, then the two plain m = 5 slots, which
# hold the median, then m = 6, which holds p90.
MINPOLY_SCHEDULE = ((4, True), (5, False), (6, False), (5, False))


def minpoly_item(seed: int, index: int) -> dict:
    """m linear generators a*x + b with distinct roots (independent modulo
    squares); reduce items add the product of two of them at a random
    position and pass --reduce."""
    rng = _rng("minpoly", seed, index)
    m, reduce = MINPOLY_SCHEDULE[index % len(MINPOLY_SCHEDULE)]
    roots = set()
    gens = []
    while len(gens) < m:
        a, b = rng.randint(1, 3), rng.randint(-12, 12)
        if Fraction(-b, a) in roots:
            continue
        roots.add(Fraction(-b, a))
        gens.append(poly_text((b, a)))
    texts = list(gens)
    argv = ["minpoly", "--json"]
    if reduce:
        i, j = rng.sample(range(m), 2)
        texts.insert(rng.randint(0, m), f"({gens[i]})*({gens[j]})")
        argv.append("--reduce")
    return {"call": "cli", "argv": [*argv, "--", *texts],
            "meta": {"radicands": texts, "reduce": reduce, "rank": m}}


# -- bigdeg -------------------------------------------------------------------

# (total degree, root order or None for the square-root genus, whether a
# second linear factor appears).  Sorted by time the slots run 40 < 60 <
# 80 = 80 < 90 with a root order ~ 130, so the median falls inside the
# identical degree-80 pair and the p80 tail inside the top pair, not on a
# boundary between strata.
BIGDEG_SCHEDULE = ((40, None, True), (80, None, False), (130, None, True),
                   (60, None, False), (80, None, False), (90, 3, True))
# irreducible over Q, coefficients in [-2, 2]
BIGDEG_QUADRATICS = ((1, 0, 1), (2, 0, 1), (1, 1, 1), (1, -1, 1), (2, 2, 1),
                     (2, -2, 1), (-2, 0, 1), (2, 1, 1))


def bigdeg_item(seed: int, index: int) -> dict:
    """One radicand (x+a)^k [* (x+b)^l] * (x^2+c x+d)^j of a total degree
    from BIGDEG_SCHEDULE (plus 0 or 1), with j = degree/5 and
    l = (degree - 2j)/4; the
    root-order slot asks for the genus of z^e = f with e cycling through
    3, 4, 5.  The time follows the coefficients' bit length, about
    k*log2|a| for (x+a)^k, so |a| is always 2 and only signs, b and the
    quadratic vary."""
    rng = _rng("bigdeg", seed, index)
    cycle, slot = divmod(index, len(BIGDEG_SCHEDULE))
    degree, order, with_b = BIGDEG_SCHEDULE[slot]
    if order is not None:
        order += cycle % 3
    a = rng.choice((-2, 2))
    b = rng.choice((-3, -1, 1, 3))
    quad = rng.choice(BIGDEG_QUADRATICS)
    j = degree // 5
    l = (degree - 2 * j) // 4 if with_b else 0
    k = degree - 2 * j - l + rng.randint(0, 1)  # odd or even k: genus varies
    if order is not None:
        while gcd(gcd(k, l), gcd(j, order)) != 1:
            k += 1
    text = f"({poly_text((a, 1))})^{k}"
    if l:
        text += f"*({poly_text((b, 1))})^{l}"
    text += f"*({poly_text(quad)})^{j}"
    argv = ["genus", "--json"]
    if order is not None:
        argv += ["--root-order", str(order)]
    return {"call": "cli", "argv": [*argv, "--", text],
            "meta": {"radicand": text, "order": order or 2}}


GENERATORS = {
    "scan": scan_item,
    "witness": witness_item,
    "minpoly": minpoly_item,
    "bigdeg": bigdeg_item,
}


def make_items(workload: str, seed: int, count: int) -> list[dict]:
    gen = GENERATORS[workload]
    return [gen(seed, i) for i in range(count)]
