"""UPoly as integer numerators over one denominator, against Fraction tuples.

Every operation is checked against oracles.FractionPoly, the tuple of
Fraction coefficients UPoly used to hold, on coefficients with equal,
pairwise coprime and shared large denominators, zero, constants and
negative leading coefficients.  Every result must be in lowest terms:
a positive denominator, an integer list without trailing zeros, and
gcd(_den, *_ints) == 1, which makes equality structural.  The operands
must come out unchanged, since values share their lists.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import FractionPoly, fraction_to_str
from sqrat.poly import UPoly

numerators = st.one_of(st.integers(-9, 9), st.integers(-(1 << 100), 1 << 100))
LARGE = (1 << 89) - 1


@st.composite
def rational_lists(draw):
    """Coefficient lists over equal, coprime or shared large denominators."""
    n = draw(st.integers(0, 6))
    nums = draw(st.lists(numerators, min_size=n, max_size=n))
    mode = draw(st.sampled_from(["equal", "coprime", "large"]))
    if mode == "equal":
        d = draw(st.sampled_from([1, 2, 6, 12, 1 << 64, 3 ** 40]))
        dens = [d] * n
    elif mode == "coprime":
        dens = draw(st.lists(st.sampled_from([1, 2, 3, 5, 7, 11, 13]),
                             min_size=n, max_size=n))
    else:
        dens = draw(st.lists(st.sampled_from([1, 2, 3, 4, 9]).map(
            lambda k: k * LARGE), min_size=n, max_size=n))
    return [Fraction(a, d) for a, d in zip(nums, dens)]


polys = rational_lists()
scalars = st.builds(Fraction, numerators, st.sampled_from([1, 3, 8, LARGE]))


def assert_lowest_terms(p: UPoly):
    assert type(p._den) is int and p._den > 0
    assert type(p._ints) is list and all(type(c) is int for c in p._ints)
    assert not p._ints or p._ints[-1] != 0
    assert gcd(p._den, *p._ints) == 1


def assert_matches(p: UPoly, ref: FractionPoly):
    assert_lowest_terms(p)
    assert p.coeffs == ref.coeffs
    assert p == UPoly(ref.coeffs)
    assert p.to_str() == fraction_to_str(ref)
    assert p.degree == (len(ref.coeffs) - 1 if ref.coeffs else None)
    if ref.coeffs:
        assert p.leading == ref.coeffs[-1]


def snapshot(*ps):
    return [(p._den, list(p._ints)) for p in ps]


@given(polys)
@settings(max_examples=150, deadline=None)
def test_construction_and_printing(cs):
    assert_matches(UPoly(cs), FractionPoly(cs))


@given(polys, polys)
@settings(max_examples=150, deadline=None)
def test_ring_operations(a, b):
    pa, pb = UPoly(a), UPoly(b)
    ra, rb = FractionPoly(a), FractionPoly(b)
    before = snapshot(pa, pb)
    assert_matches(pa + pb, ra + rb)
    assert_matches(pa - pb, ra - rb)
    assert_matches(pa * pb, ra * rb)
    assert_matches(-pa, -ra)
    assert (pa == pb) == (ra == rb)
    assert snapshot(pa, pb) == before


@given(polys, st.integers(0, 5), scalars)
@settings(max_examples=150, deadline=None)
def test_powers_scalars_and_calculus(a, n, c):
    p, ref = UPoly(a), FractionPoly(a)
    before = snapshot(p)
    assert_matches(p ** n, ref ** n)
    assert_matches(p.derivative(), ref.derivative())
    assert_matches(p * c, ref * FractionPoly([c]))
    assert_matches(c + p, FractionPoly([c]) + ref)
    assert_matches(c - p, FractionPoly([c]) - ref)
    if c:
        assert_matches(p / c, ref / c)
    if ref.coeffs:
        assert_matches(p.monic(), ref.monic())
    assert snapshot(p) == before


@given(polys, polys.filter(any))
@settings(max_examples=150, deadline=None)
def test_divmod(a, b):
    q, r = divmod(UPoly(a), UPoly(b))
    rq, rr = divmod(FractionPoly(a), FractionPoly(b))
    assert_matches(q, rq)
    assert_matches(r, rr)


def test_sums_cancel_to_lowest_terms():
    half = UPoly([Fraction(1, 2), Fraction(3, 2)])
    assert (half + half)._den == 1 and (half + half)._ints == [1, 3]
    assert (half - half)._den == 1 and (half - half)._ints == []
    assert UPoly([Fraction(1, 6)]) * 6 == UPoly.one()
    assert (UPoly([0, 0, Fraction(1, 2)]).derivative())._ints == [0, 1]
