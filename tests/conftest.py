"""Shared hypothesis strategies and random generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from sqrat.parsing import MAX_NESTING
from sqrat.poly import RatFunc, UPoly

# deeply nested inputs, each with the position of the token at which the
# nesting passes the parser's limit
DEEP_INPUTS = [
    ("(" * 3000 + "x" + ")" * 3000, MAX_NESTING),
    ("-" * 3000 + "x", MAX_NESTING),
    ("x^" * 2000 + "1", 2 * MAX_NESTING),
]
DEEP_INPUT_IDS = ["parentheses", "minus", "powers"]

small_fractions = st.builds(Fraction, st.integers(-9, 9),
                            st.integers(1, 4))


def upolys(max_degree: int = 6, nonzero: bool = False) -> st.SearchStrategy:
    base = st.lists(small_fractions, min_size=0,
                    max_size=max_degree + 1).map(UPoly)
    if nonzero:
        base = base.filter(lambda p: not p.is_zero)
    return base


def ratfuncs(max_degree: int = 5, nonzero: bool = False) -> st.SearchStrategy:
    num = upolys(max_degree, nonzero=nonzero)
    den = upolys(max_degree, nonzero=True)
    return st.builds(RatFunc, num, den)


def random_poly(rng: random.Random, max_degree: int = 6,
                bound: int = 9) -> UPoly:
    """Random nonzero polynomial with integer coefficients in [-bound, bound]."""
    while True:
        degree = rng.randint(0, max_degree)
        coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
        coeffs.append(rng.choice([c for c in range(-bound, bound + 1) if c]))
        p = UPoly(coeffs)
        if not p.is_zero:
            return p


def random_factored_poly(rng: random.Random, max_factors: int = 3,
                         bound: int = 5) -> UPoly:
    """Product of monic linear/quadratic factors, the scan generator's shape."""
    out = UPoly.one()
    for _ in range(rng.randint(1, max_factors)):
        if rng.random() < 0.5:
            out = out * UPoly((rng.randint(-bound, bound), 1))
        else:
            out = out * UPoly((rng.randint(-bound, bound),
                               rng.randint(-bound, bound), 1))
    return out


RADICAND_CONSTANTS = [Fraction(v) for v in (1, 1, -1, 2, 3, 5, 4, -3)] + [
    Fraction(1, 2), Fraction(9, 4), Fraction(-5, 6)]


def random_rational_family(rng: random.Random, max_m: int = 3) -> list[RatFunc]:
    """1 to max_m radicands c * P / Q: P of at most two factors, Q = 1 or
    one factor, and a constant c that is often not a rational square."""
    family = []
    for _ in range(rng.randint(1, max_m)):
        num = random_factored_poly(rng, 2) * rng.choice(RADICAND_CONSTANTS)
        den = random_factored_poly(rng, 1) if rng.random() < 0.5 else UPoly.one()
        family.append(RatFunc(num, den))
    return family
