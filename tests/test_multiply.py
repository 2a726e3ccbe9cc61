"""UPoly products by Kronecker substitution, checked against schoolbook."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrat import resultants
from sqrat.poly import UPoly
from sqrat.resultants import ZP_ONE, zpoly
from sylvester import zp_pow

X = UPoly.x()


def schoolbook_mul(a: UPoly, b: UPoly) -> UPoly:
    """The direct O(len(a) * len(b)) Fraction product: the reference."""
    if a.is_zero or b.is_zero:
        return UPoly()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return UPoly(out)


# small and 300+ bit numerators, over 1 or over mixed denominators, with
# zeros in between, so slots of every width and both signs appear
numerators = st.one_of(st.just(0), st.integers(-3, 3),
                       st.integers(-2**400, 2**400))
denominators = st.one_of(st.just(1), st.integers(1, 12),
                         st.integers(1, 2**70))
coefficients = st.builds(Fraction, numerators, denominators)
operands = st.lists(coefficients, max_size=14).map(UPoly)


class TestKronecker:
    @given(a=operands, b=operands)
    @settings(max_examples=300, deadline=None)
    def test_matches_schoolbook(self, a, b):
        assert a * b == schoolbook_mul(a, b)

    def test_constants_and_unequal_lengths(self):
        big = UPoly([Fraction(-(2**333) + 1, 7), 0, 0, Fraction(5, 2**310)])
        for a, b in [(UPoly.constant(-3), big), (big, UPoly.constant(Fraction(1, 9))),
                     (UPoly([1, 0, 0, 0, 0, 0, -1]), X - 1),
                     (UPoly([-1, -2, -3]), UPoly([-4, -5])),
                     (big, big), (UPoly(), big)]:
            assert a * b == schoolbook_mul(a, b)
            assert b * a == schoolbook_mul(a, b)
        assert 3 * big == schoolbook_mul(UPoly.constant(3), big)

    @pytest.mark.parametrize("n", [255, 256, 1000])
    def test_binomials(self, n):
        # alternating signs across slot and carry boundaries
        plus = (X + 1) ** n
        minus = (X - 1) ** n
        assert plus.coeffs == tuple(Fraction(comb(n, k)) for k in range(n + 1))
        assert minus.coeffs == tuple(Fraction((-1) ** (n - k) * comb(n, k))
                                     for k in range(n + 1))


POWERS = [1, 2, 3, 64, 130, 4096]


@pytest.mark.parametrize("n", POWERS)
def test_pow_squares_only_what_it_uses(monkeypatch, n):
    calls = []
    original = UPoly.__mul__

    def counting(self, other):
        calls.append(n)
        return original(self, other)

    monkeypatch.setattr(UPoly, "__mul__", counting)
    result = X ** n
    assert len(calls) == n.bit_length() - 1 + bin(n).count("1")
    assert result == UPoly.monomial(n)


@pytest.mark.parametrize("n", POWERS[:5])
def test_zp_pow_squares_only_what_it_uses(monkeypatch, n):
    calls = []
    original = resultants.zp_mul

    def counting(a, b):
        calls.append(n)
        return original(a, b)

    monkeypatch.setattr(resultants, "zp_mul", counting)
    p = zpoly([UPoly.constant(1), UPoly.one()])  # z + 1
    result = zp_pow(p, n)
    assert len(calls) == n.bit_length() - 1 + bin(n).count("1")
    assert [c.coeff(0) for c in result] == [comb(n, k) for k in range(n + 1)]
    assert zp_pow(p, 0) == ZP_ONE
