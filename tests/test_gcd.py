"""gcd_cofactors: heuristic GCD against the Euclidean algorithm over Q and sympy."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import euclid_gcd_cofactors
from sqrat import poly
from sqrat.poly import (
    UPoly,
    _heuristic_gcd,
    _int_gcd_cofactors,
    coprime_basis,
    gcd_cofactors,
    poly_gcd,
    squarefree_decompose,
)

X = UPoly.x()

coefficients = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
    st.integers(-(1 << 3000), 1 << 3000),
)


def polys(max_degree: int = 5) -> st.SearchStrategy:
    return st.lists(coefficients, max_size=max_degree + 1).map(UPoly)


@st.composite
def pairs(draw):
    """Pairs sharing a random factor, with zero, constants and scalings."""
    common = draw(polys(4))
    a = draw(polys()) * common ** draw(st.integers(0, 2))
    b = draw(polys()) * common
    scale = draw(st.sampled_from([1, -6, Fraction(3, 7), 1 << 200]))
    return a * scale, b


POWERS = [
    ((X + 1) ** 130, (X + 1) ** 64 * (X - 2) ** 3),
    ((X + 1) ** 64 * (X + 2) ** 63, ((X + 1) ** 64 * (X + 2) ** 63).derivative()),
    ((X ** 2 + X + 1) ** 65, (3 * X ** 2 + 3 * X + 3) ** 40 * (X - 1)),
    ((X - Fraction(1, 3)) ** 130, (X - Fraction(1, 3)) ** 7 * (2 * X + 5)),
]


def assert_cofactors(a, b, result):
    g, ca, cb = result
    assert g.is_zero or g.leading == 1
    assert g * ca == a and g * cb == b


@given(pairs())
@settings(max_examples=150, deadline=None)
def test_matches_euclid(pair):
    a, b = pair
    result = gcd_cofactors(a, b)
    assert result == euclid_gcd_cofactors(a, b)
    assert_cofactors(a, b, result)
    assert poly_gcd(a, b) == result[0]


@pytest.mark.parametrize("a,b", POWERS)
def test_high_degree_powers(a, b):
    result = gcd_cofactors(a, b)
    assert result == euclid_gcd_cofactors(a, b)
    assert_cofactors(a, b, result)


@pytest.mark.parametrize("a,b,g", [
    (UPoly.zero(), UPoly.zero(), UPoly.zero()),
    (UPoly.zero(), 2 * X + 4, X + 2),
    (3 * X - 1, UPoly.zero(), X - Fraction(1, 3)),
    (UPoly.constant(5), X ** 2 + 1, UPoly.one()),
    (UPoly.constant(Fraction(2, 3)), UPoly.zero(), UPoly.one()),
    (6 * X ** 2 - 6, 4 * X + 4, X + 1),
    # the gcd's value xi - 1 is one digit short of xi, above xi/2
    ((X - 1) * (X + 2), (X - 1) * (X + 3), X - 1),
])
def test_edge_cases(a, b, g):
    result = gcd_cofactors(a, b)
    assert result[0] == g
    assert result == euclid_gcd_cofactors(a, b)
    assert_cofactors(a, b, result)


@given(pairs())
@settings(max_examples=60, deadline=None)
def test_no_polynomial_division(pair):
    # the heuristic GCD completes on its own, so no path divides UPolys
    a, b = pair
    calls = []
    original = UPoly.__divmod__

    def counting(self, other):
        calls.append((self, other))
        return original(self, other)

    nonzero = [f for f in (a, b) if f]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(UPoly, "__divmod__", counting)
        gcd_cofactors(a, b)
        for f in nonzero:
            squarefree_decompose(f)
        coprime_basis(nonzero)
    assert calls == []


@pytest.mark.parametrize("f,g", [
    ([8, 1], [8, 7, 9]),                          # candidate x + 8 divides f only
    ([5, 10, 10, -6, 1], [9, 1]),                 # candidate x + 9 divides g only
    ([6, -4, 10, -9, 8], [6, -3, -10, 4, 8]),     # candidate x + 102 divides neither
])
def test_unlucky_first_point_is_rejected(monkeypatch, f, g):
    # coprime pairs whose first evaluation point yields a false common
    # factor: only the exact checks of both products reject it, and the
    # second point finds the gcd 1; _proven_width runs once a point fails
    calls = []
    original = poly._proven_width
    monkeypatch.setattr(poly, "_proven_width",
                        lambda f, g: calls.append(1) or original(f, g))
    a, b = UPoly(f), UPoly(g)
    assert gcd_cofactors(a, b) == euclid_gcd_cofactors(a, b) == (UPoly.one(), a, b)
    assert len(calls) == 1


def test_heuristic_gcd_stops_at_its_proven_width(monkeypatch):
    # with every product wrong no point passes the checks; the loop must
    # raise at the first width past the proven one instead of growing on
    f = [2, 3, 1]   # (x + 1)(x + 2)
    g = [3, 4, 1]   # (x + 1)(x + 3)
    limit = poly._proven_width(f, g)
    widths = []
    original_pack = poly._pack

    def recording(ints, width):
        widths.append(width)
        return original_pack(ints, width)

    monkeypatch.setattr(poly, "_pack", recording)
    monkeypatch.setattr(poly, "_int_mul", lambda a, b: [])
    with pytest.raises(RuntimeError, match="proven width"):
        _heuristic_gcd(f, g)
    tried = sorted(set(widths))
    assert tried[-1] >= limit > tried[-2]


@given(pairs())
@settings(max_examples=100, deadline=None)
def test_matches_sympy(pair):
    sympy = pytest.importorskip("sympy")
    a, b = pair
    x = sympy.Symbol("x")

    def to_sympy(p):
        return sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator)
                                         for c in p.coeffs])) or [0], x, domain="QQ")

    expected = sympy.gcd(to_sympy(a), to_sympy(b))
    g = gcd_cofactors(a, b)[0]
    assert to_sympy(g) == (expected.monic() if not expected.is_zero else expected)


# -- coprime pairs: the heuristic GCD returns at once ----------------------


@st.composite
def primitive_pairs(draw):
    """Primitive integer lists of degree >= 1, coprime over Q."""
    ints = st.one_of(st.integers(-9, 9), st.integers(-(1 << 300), 1 << 300))
    lists = st.lists(ints, min_size=2, max_size=7).filter(lambda f: f[-1])
    f, g = draw(lists), draw(lists)
    f = [c // poly.gcd(*f) for c in f]
    g = [c // poly.gcd(*g) for c in g]
    assume(euclid_gcd_cofactors(UPoly(f), UPoly(g))[0].is_one)
    return f, g


# pairs whose values gcd(f(xi), g(xi)) are 1 or a small number above 1 at
# the first point, where the heuristic GCD returns at once
FIRST_POINT_PAIRS = [([0, 1], [2, 1]), ([0, 1], [1, 1]), ([0, 2], [3, 2]),
                     ([1, 0, 1], [-1, 0, 1]), ([6, 1], [0, 0, 1])]
# the first point proposes the false factor x + 8, which the checks reject
COPRIME_PAIRS = FIRST_POINT_PAIRS + [([8, 1], [8, 7, 9])]


@given(primitive_pairs())
@settings(max_examples=150, deadline=None)
def test_heuristic_gcd_of_a_coprime_pair_matches_euclid(pair):
    f, g = pair
    assert _heuristic_gcd(f, g) == ([1], f, g)


@pytest.mark.parametrize("f,g", COPRIME_PAIRS)
def test_heuristic_gcd_fixed_coprime_pairs(f, g):
    assert _heuristic_gcd(f, g) == ([1], f, g)
    assert gcd_cofactors(UPoly(f), UPoly(g)) == euclid_gcd_cofactors(
        UPoly(f), UPoly(g))


@pytest.mark.parametrize("f,g", FIRST_POINT_PAIRS + [([4, 0, 6], [0, 3, 9])])
def test_coprime_int_gcd_makes_no_product(monkeypatch, f, g):
    calls = []
    original = poly._int_mul

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(poly, "_int_mul", counting)
    h, cf, cg = _int_gcd_cofactors(f, g)
    assert (h, cf, cg) == ([1], f, g)
    assert calls == []
