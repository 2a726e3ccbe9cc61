"""UPoly products by Kronecker substitution, checked against schoolbook.

Also the integer kernels under them: byte packing at the slot limits,
_int_mul with a constant operand, which scales instead of packing, and
_int_pow, which takes powers of short bases by Miller's recurrence and of
long bases by repeated squaring.
"""

import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import squaring_int_pow
from sqrat import poly, resultants
from sqrat.poly import UPoly, _digits, _int_mul, _int_pow, _pack, _unpack
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
    # a power is one call of the integer kernel, never a UPoly product
    calls = []
    original = UPoly.__mul__

    def counting(self, other):
        calls.append(n)
        return original(self, other)

    monkeypatch.setattr(UPoly, "__mul__", counting)
    result = X ** n
    assert calls == []
    assert result == UPoly.monomial(n)


@given(a=st.lists(coefficients, max_size=5).map(UPoly), n=st.integers(0, 9))
@settings(max_examples=150, deadline=None)
def test_pow_matches_repeated_schoolbook_products(a, n):
    expected = UPoly.one()
    for _ in range(n):
        expected = schoolbook_mul(expected, a)
    assert a ** n == expected
    assert a ** 1 is a


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


# -- the integer kernels -------------------------------------------------------


def schoolbook_int_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_pack_round_trip_at_the_slot_limits(width):
    half = 1 << (8 * width - 1)
    xi = 1 << (8 * width)
    limits = [half - 1, -(half - 1), -half, 0, 1, -1]
    for n, shift in itertools.product(range(1, 41), range(len(limits))):
        ints = [limits[(k + shift) % len(limits)] for k in range(n)]
        value = _pack(ints, width)
        assert value == sum(c * xi ** k for k, c in enumerate(ints))
        assert _unpack(value, width, n) == ints
        trimmed = list(ints)
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        assert _digits(value, width) == trimmed


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_pack_rejects_a_coefficient_of_half(width):
    # the precondition |c| < half (or c = -half) is checked by to_bytes
    half = 1 << (8 * width - 1)
    with pytest.raises(OverflowError):
        _pack([1, half, 0], width)
    with pytest.raises(OverflowError):
        _pack([-half - 1], width)


BIG = (1 << 2000) - 12345
CONSTANTS = [0, 1, -1, 7, -BIG, BIG]
LISTS = [[5], [0, 1], [-3, 0, 2], [BIG, -1, 0, -BIG], [1, -1] * 20, [-BIG]]


@pytest.mark.parametrize("c", CONSTANTS, ids=["0", "1", "-1", "7", "-big", "big"])
@pytest.mark.parametrize("other", LISTS, ids=["5", "x", "short", "big", "long", "-big"])
def test_int_mul_by_a_constant(c, other):
    for a, b in ([c], other), (other, [c]):
        before_a, before_b = list(a), list(b)
        product = _int_mul(a, b)
        assert product == schoolbook_int_mul(a, b)
        assert product is not a and product is not b
        product.append(99)
        product[0] += 1
        assert a == before_a and b == before_b


# -- _int_pow against repeated squaring ----------------------------------------

small = st.integers(-3, 3)
huge = st.integers(-2**2000, 2**2000)


@st.composite
def int_powers(draw):
    """(f, n) with f = x^v * q, q(0) != 0: sparse bases of small or
    2,000-bit coefficients, exponents up to 300 on short bases."""
    big = draw(st.booleans())
    n = draw(st.integers(1, 6 if big else 300))
    coeff = huge if big else small
    q = draw(st.lists(st.one_of(st.just(0), coeff),
                      max_size=min(8, 300 // n)))
    q = [draw(coeff.filter(bool))] + q + [draw(coeff.filter(bool))]
    return [0] * draw(st.integers(0, 3)) + q[:draw(st.integers(1, len(q)))], n


@st.composite
def powers_near_the_switch(draw):
    """(f, n) whose base has t = n - 1, n or n + 1 nonzero terms above q(0)."""
    n = draw(st.integers(1, 9))
    t = max(0, n + draw(st.integers(-1, 1)))
    slots = draw(st.lists(st.integers(1, t + 3), min_size=t, max_size=t,
                          unique=True))
    q = [0] * (max(slots, default=0) + 1)
    coeff = st.one_of(small, huge) if n <= 4 else small
    for i in [0] + slots:
        q[i] = draw(coeff.filter(bool))
    return [0] * draw(st.integers(0, 2)) + q, n


@given(st.one_of(int_powers(), powers_near_the_switch()))
@settings(max_examples=100, deadline=None)
def test_int_pow_matches_repeated_squaring(case):
    f, n = case
    assert _int_pow(f, n) == squaring_int_pow(f, n)


@pytest.mark.parametrize("sign", [1, -1])
def test_int_pow_binomials(sign):
    n, c = 4096, 1
    expected = []
    for k in range(n + 1):  # c = comb(n, k)
        expected.append(c if sign > 0 or (n - k) % 2 == 0 else -c)
        c = c * (n - k) // (k + 1)
    assert _int_pow([sign, 1], n) == expected


@pytest.mark.parametrize("f,n,products", [
    ([1, 1], 300, 0), ([0, 0, 5], 7, 0), ([3, 0, -2, 0, 1], 3, 0),
    ([0, -1, 0, 0, 2], 2, 0), ([7], 5, 0),
    # t >= n: long bases and small exponents square instead
    ([1, 1, 1], 2, 1), ([2, 1, 0, 1], 2, 1), ([1, 1], 1, 0),
])
def test_int_pow_multiplies_only_long_bases(monkeypatch, f, n, products):
    calls = []
    monkeypatch.setattr(poly, "_int_mul",
                        lambda a, b: calls.append(1) or _int_mul(a, b))
    result = _int_pow(f, n)
    assert len(calls) == products
    monkeypatch.undo()
    assert result == squaring_int_pow(f, n)
