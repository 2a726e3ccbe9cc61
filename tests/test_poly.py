"""Exact arithmetic: gcd, squarefree structure, square classes, substitution."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_poly, ratfuncs, upolys
from oracles import expand, fraction_to_str, horner_substitute, radical
from sqrat import poly
from sqrat.errors import ConstantSubstitutionError, ZeroInputError
from sqrat.poly import (
    NotSquare,
    PowerTable,
    RatFunc,
    SquareOverC,
    SquareOverQ,
    UPoly,
    coprime_basis,
    is_square,
    multiplicity,
    poly_gcd,
    square_class,
    squarefree_decompose,
    squarefree_part,
    substitute,
)

X = UPoly.x()


class TestUPolyBasics:
    def test_zero_degree_is_sentinel(self):
        assert UPoly.zero().degree is None
        assert UPoly.one().degree == 0
        assert X.degree == 1

    def test_trailing_zeros_stripped(self):
        assert UPoly((1, 2, 0, 0)) == UPoly((1, 2))

    def test_divmod_roundtrip(self):
        a = (X - 1) * (X + 2) + 7
        q, r = divmod(a, X - 1)
        assert q * (X - 1) + r == a
        assert r == UPoly.constant(7)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(X, UPoly.zero())

    def test_str_canonical(self):
        assert str(X**2 - 4 * X) == "x^2 - 4*x"
        assert str(-X**3 + 2) == "-x^3 + 2"
        assert str(UPoly.zero()) == "0"
        assert str(Fraction(3, 2) * X + Fraction(1, 2)) == "3/2*x + 1/2"

    @given(st.lists(st.one_of(st.just(Fraction(0)), st.sampled_from(
        [Fraction(1), Fraction(-1)]), st.builds(
            Fraction, st.integers(-2**70, 2**70), st.integers(1, 2**40))),
        max_size=8).map(UPoly), st.sampled_from(["x", "t"]))
    @settings(max_examples=300, deadline=None)
    def test_str_matches_fraction_printer(self, p, var):
        assert p.to_str(var) == fraction_to_str(p, var)
        if var == "x":
            assert str(p) == fraction_to_str(p)


class TestGcd:
    def test_common_factor(self):
        assert poly_gcd(X**2 - 1, X - 1) == X - 1

    def test_gcd_with_zero(self):
        assert poly_gcd(X, UPoly.zero()) == X
        assert poly_gcd(UPoly.zero(), UPoly.zero()) == UPoly.zero()

    def test_content_stripped_monic(self):
        assert poly_gcd(2 * X**2 - 2, 4 * X + 4) == X + 1

    @given(a=upolys(nonzero=True), b=upolys(nonzero=True))
    @settings(max_examples=60, deadline=None)
    def test_divides_both(self, a, b):
        g = poly_gcd(a, b)
        assert (a % g).is_zero and (b % g).is_zero


class TestSquarefree:
    def test_spec_examples(self):
        d = squarefree_decompose(X**3 * (X - 1) ** 2)
        assert d.unit == 1
        assert list(d.parts) == [(X - 1, 2), (X, 3)]

        d = squarefree_decompose(X**2 - 1)
        assert d.unit == 1 and list(d.parts) == [(X**2 - 1, 1)]

        d = squarefree_decompose(4 * (X**2 + 1) ** 2)
        assert d.unit == 4 and list(d.parts) == [(X**2 + 1, 2)]

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            squarefree_decompose(UPoly.zero())

    def test_reconstruction_random(self):
        # random f of degree <= 12, coefficients in [-9, 9]
        rng = random.Random(101)
        for _ in range(200):
            f = random_poly(rng, max_degree=12)
            assert expand(squarefree_decompose(f)) == f

    def test_radical(self):
        assert radical(X**3 * (X - 1) ** 2) == X * (X - 1)
        assert radical(UPoly.constant(6)).is_one

    def test_factors_pairwise_coprime_and_squarefree(self):
        rng = random.Random(5)
        for _ in range(50):
            f = random_poly(rng, 4) * random_poly(rng, 3) ** 2
            parts = squarefree_decompose(f).parts
            for p, _ in parts:
                assert poly_gcd(p, p.derivative()).is_one
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    assert poly_gcd(parts[i][0], parts[j][0]).is_one


class TestRatFuncPower:
    @given(ratfuncs(4), st.integers(-4, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reduced_constructor(self, f, n):
        if n < 0 and f.is_zero:
            with pytest.raises(ZeroDivisionError):
                f ** n
            return
        num, den = (f.num, f.den) if n >= 0 else (f.den, f.num)
        assert f ** n == RatFunc(num ** abs(n), den ** abs(n))

    def test_takes_no_gcd(self, monkeypatch):
        fs = [RatFunc(3 * X + 3, 2 * (X + 2) ** 2), RatFunc(X**2 + 1, X),
              RatFunc(Fraction(-2, 3)), RatFunc(0)]
        calls = []
        real = poly.gcd_cofactors
        monkeypatch.setattr(poly, "gcd_cofactors",
                            lambda *args: calls.append(args) or real(*args))
        for f in fs:
            for n in (0, 1, 5) if f.is_zero else (-3, -1, 0, 1, 5):
                f ** n
        assert calls == []


class TestRatFuncWithAPolynomial:
    """Arithmetic of N/D with a polynomial or constant operand keeps it reduced
    without a gcd; the references reduce the unreduced result by one."""

    @given(ratfuncs(4), st.one_of(upolys(3), upolys(0)))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_reduced_constructor(self, f, p):
        n, d = f.num, f.den
        for g, q in ((f, RatFunc(p)), (RatFunc(p), f)):
            assert g + q == RatFunc(n + p * d, d)
            assert -g == RatFunc(-g.num, g.den)
        assert f - p == RatFunc(n - p * d, d)
        assert p - f == RatFunc(p * d - n, d)
        assert f * p == RatFunc(n * p, d) == p * f
        if p:
            assert f / p == RatFunc(n, d * p)
        if f:
            assert p / f == RatFunc(p * d, n)

    def test_takes_no_gcd(self, monkeypatch):
        f = RatFunc(3 * X + 3, 2 * (X + 2) ** 2)
        calls = []
        real = poly.gcd_cofactors
        monkeypatch.setattr(poly, "gcd_cofactors",
                            lambda *args: calls.append(args) or real(*args))
        for p in (X**2 - 1, UPoly.zero(), Fraction(-2, 3), 5, 0):
            f + p, p + f, f - p, p - f, -f
        for c in (Fraction(-2, 3), 5, UPoly.constant(7)):
            f * c, c * f, f / c, c / f
        f * 0, 0 * f, 0 / f
        assert calls == []
        assert f - (X**2 - 1) + (X**2 - 1) == f
        assert (f + 1) * 0 == 0 and (-f * 0).den.is_one
        assert f / Fraction(3, 2) * Fraction(3, 2) == f
        assert Fraction(3, 2) / (Fraction(3, 2) / f) == f


class TestSquarefreePart:
    def test_strip_even_powers(self):
        assert squarefree_part(RatFunc(X**2 * (X - 1))) == X - 1

    def test_constants_trivial(self):
        assert squarefree_part(RatFunc(5)).is_one

    def test_even_denominator_power(self):
        assert squarefree_part(RatFunc(X - 1, X**2)) == X - 1

    def test_square_multiplier_invariance(self):
        rng = random.Random(31)
        for _ in range(100):
            f = RatFunc(random_poly(rng, 5), random_poly(rng, 3))
            g = RatFunc(random_poly(rng, 3))
            assert squarefree_part(f * g * g) == squarefree_part(f)

    def test_square_class_reconstructs(self):
        rng = random.Random(13)
        for _ in range(100):
            f = RatFunc(random_poly(rng, 6), random_poly(rng, 4))
            c, g, h = square_class(f)
            assert RatFunc(UPoly.constant(c)) * g * h * h == f
            assert poly_gcd(g, g.derivative()).is_one


class TestCoprimeBasis:
    def test_distinct_linear_factors(self):
        basis, exps = coprime_basis([X**2 - X, X**2 - 2 * X])
        assert sorted(str(b) for b in basis) == ["x", "x - 1", "x - 2"]
        self._check_reconstruction([X**2 - X, X**2 - 2 * X], basis, exps)

    def test_scaled_inputs(self):
        fs = [X, 4 * X + 1, X**2 - 4 * X]
        basis, exps = coprime_basis(fs)
        assert sorted(str(b) for b in basis) == ["x", "x + 1/4", "x - 4"]
        self._check_reconstruction(fs, basis, exps)

    def test_repeated_quadratic(self):
        basis, exps = coprime_basis([(X**2 + 1) ** 2])
        assert basis == [X**2 + 1]
        assert exps == [[2]]

    def test_mixed_multiplicities_split(self):
        basis, exps = coprime_basis([X * (X - 1) ** 2])
        assert sorted(str(b) for b in basis) == ["x", "x - 1"]

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            coprime_basis([X, UPoly.zero()])

    def test_random_families(self):
        rng = random.Random(77)
        for _ in range(100):
            fs = [random_poly(rng, 3) * random_poly(rng, 2) ** rng.randint(1, 2)
                  for _ in range(rng.randint(1, 4))]
            basis, exps = coprime_basis(fs)
            for b in basis:
                assert b.degree >= 1 and b.leading == 1
                assert poly_gcd(b, b.derivative()).is_one
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    assert poly_gcd(basis[i], basis[j]).is_one
            self._check_reconstruction(fs, basis, exps)

    @pytest.mark.parametrize("fs", [
        [(X + 1) ** 60 * (X + 2) ** 3 * (X**2 + 1) ** 5],
        # later members split earlier elements: x^2 - 1, then x^4 - 1
        [X * (X**2 - 1) ** 3, (X - 1) ** 2 * (X + 3), (X + 1) ** 7 * (X + 3) ** 4],
        [(X**4 - 1) ** 2, (X**2 - 1) ** 5, UPoly.constant(7), (X - 1) ** 11],
    ])
    def test_exponents_match_multiplicity(self, fs):
        basis, exps = coprime_basis(fs)
        assert exps == [[multiplicity(f, b) for b in basis] for f in fs]

    def test_exponents_match_multiplicity_random(self):
        rng = random.Random(91)
        pool = [X, X + 1, X - 2, X**2 + 1, X**2 - 3, X**2 + X + 1]
        for _ in range(40):
            fs = []
            for _ in range(rng.randint(1, 4)):
                f = UPoly.constant(rng.choice([1, -2, Fraction(3, 5)]))
                for b in rng.sample(pool, rng.randint(1, 4)):
                    f = f * b ** rng.randint(1, 12)
                fs.append(f)
            basis, exps = coprime_basis(fs)
            assert exps == [[multiplicity(f, b) for b in basis] for f in fs]

    @staticmethod
    def _check_reconstruction(fs, basis, exps):
        for f, row in zip(fs, exps):
            prod = UPoly.one()
            for b, e in zip(basis, row):
                prod = prod * b**e
            q, r = divmod(f, prod)
            assert r.is_zero and q.is_constant and not q.is_zero


class TestSubstitute:
    def test_shift_example(self):
        s = RatFunc(UPoly((1, 0, 1)))  # t^2 + 1
        assert substitute(X - 1, s) == RatFunc(UPoly((0, 0, 1)))

    def test_one_minus_x_under_squared_map(self):
        t = UPoly.x()
        s = RatFunc(2 * t, t * t + 1) ** 2
        image = substitute(RatFunc(1 - X), s)
        assert image == RatFunc(1 - t * t, t * t + 1) ** 2

    def test_identity(self):
        assert substitute(RatFunc(X), RatFunc(X)) == RatFunc(X)

    def test_constant_rejected(self):
        with pytest.raises(ConstantSubstitutionError):
            substitute(X, RatFunc(3))

    @given(f=ratfuncs(3), g=ratfuncs(3),
           s=ratfuncs(2, nonzero=True).filter(lambda r: not r.is_constant))
    @settings(max_examples=40, deadline=None)
    def test_ring_homomorphism(self, f, g, s):
        assert substitute(f + g, s) == substitute(f, s) + substitute(g, s)
        assert substitute(f * g, s) == substitute(f, s) * substitute(g, s)


# images: polynomials (denominator 1) and quotients, with coefficients
# that are not integers; never constant
SUBSTITUTIONS = st.one_of(upolys(3).map(RatFunc), ratfuncs(2)).filter(
    lambda r: not r.is_constant)

# zero, constants, polynomials over a denominator and quotients P/Q with
# deg P below, equal to and above deg Q
SUBSTITUTED = [
    UPoly.zero(), RatFunc(0), UPoly.constant(Fraction(-3, 4)), RatFunc(5),
    X / 3 + Fraction(1, 2), (X + Fraction(1, 3)) ** 9 - 2,
    RatFunc(X + 2, X**3 - X + 1), RatFunc(3 * X**2 - 1, 2 * X**2 + X),
    RatFunc((X - 1) ** 7, X**2 + 1), RatFunc(1, X**12 - 5),
    RatFunc(X**15 + Fraction(7, 5) * X, (2 * X - 1) ** 4),
]


class TestSubstituteByHalves:
    """substitute against Horner's rule over RatFunc (tests/oracles.py)."""

    @given(f=st.one_of(upolys(0), upolys(16), ratfuncs(9)), s=SUBSTITUTIONS)
    @settings(max_examples=200, deadline=None)
    def test_matches_horner(self, f, s):
        image = horner_substitute(f, s)
        assert substitute(f, s) == image
        powers = PowerTable(s)  # one table shared by several images
        assert substitute(f, s, powers) == image
        assert substitute(f, s, powers) == image

    @pytest.mark.parametrize("s", [
        RatFunc(X**2), RatFunc(Fraction(2, 3) * X**2 - Fraction(1, 5)),
        RatFunc(X**2 + 1, X - 3), RatFunc(X / 2, X + Fraction(1, 2)),
        RatFunc(Fraction(-3, 7) * X**2 + 1, X**2 - 2 * X)])
    def test_examples_match_horner(self, s):
        powers = PowerTable(s)
        for f in SUBSTITUTED:
            image = horner_substitute(f, s)
            assert substitute(f, s) == image
            assert substitute(f, s, powers) == image

    def test_takes_no_gcd(self, monkeypatch):
        images = [RatFunc(X**2 + 1, X - 3), RatFunc(X / 2, X + Fraction(1, 2)),
                  RatFunc(Fraction(2, 3) * X**2 - 1)]
        calls = []
        real = poly.gcd_cofactors
        monkeypatch.setattr(poly, "gcd_cofactors",
                            lambda *args: calls.append(args) or real(*args))
        for s in images:
            for f in SUBSTITUTED:
                substitute(f, s)
        assert calls == []

    def test_table_of_another_substitution_rejected(self):
        with pytest.raises(ValueError):
            substitute(X, RatFunc(X**2), PowerTable(RatFunc(X**2)))


class TestIsSquare:
    def test_examples(self):
        assert is_square(RatFunc(X**2)) == SquareOverQ(RatFunc(X))
        assert is_square(RatFunc(2 * X**2)) == SquareOverC(Fraction(2),
                                                           RatFunc(X))
        assert is_square(RatFunc(X**3)) == NotSquare()
        assert is_square(RatFunc(0)) == SquareOverQ(RatFunc(0))

    @given(h=ratfuncs(3, nonzero=True))
    @settings(max_examples=60, deadline=None)
    def test_square_detected(self, h):
        result = is_square(h * h)
        assert isinstance(result, SquareOverQ)
        assert result.root == h or result.root == -h
