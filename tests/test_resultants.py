"""Resultants with quadratics against Sylvester determinants, the Fraction
kernels and sympy; the squarefree certificate; denominator clearing."""

import hashlib
import random
from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_poly
from oracles import (
    chained_resultant_tower,
    fraction_is_squarefree_in_z,
    fraction_resultant_with_quadratic,
)
from sylvester import resultant, shift_by_minus_y
from sqrat import poly, rationalize, resultants
from sqrat.errors import ZeroInputError
from sqrat.lattice import build_branch_table, gf2_eliminate
from sqrat.poly import RatFunc, UPoly
from sqrat.rationalize import minpoly_multiquadratic
from sqrat.resultants import (
    ZP_ONE,
    ZP_ZERO,
    clear_denominators_monic,
    resultant_tower,
    resultant_with_quadratic,
    zp_is_squarefree_in_z,
    zp_mul,
    zp_to_str,
    zpoly,
)

X = UPoly.x()


def quad_modulus(f: UPoly):
    """y^2 - f as a bivariate polynomial in y."""
    return (zpoly([-f]), ZP_ZERO, ZP_ONE)


class TestResultant:
    def test_minpoly_of_sqrt_x(self):
        # Res_y(z - y, y^2 - x) = z^2 - x
        a = (zpoly([UPoly.zero(), UPoly.one()]), zpoly([-1]))
        r = resultant(a, quad_modulus(X))
        assert r == zpoly([-X, UPoly.zero(), UPoly.one()])

    def test_two_square_roots_closed_form(self):
        # Res_y((z-y)^2 - x, y^2 - (1-x)) = z^4 - 2z^2 + (2x-1)^2,
        # the hand expansion of prod(z -+ sqrt(x) -+ sqrt(1-x))
        p = zpoly([-X, UPoly.zero(), UPoly.one()])
        r = resultant(shift_by_minus_y(p), quad_modulus(1 - X))
        expected = zpoly([(2 * X - 1) ** 2, UPoly.zero(), -2,
                          UPoly.zero(), UPoly.one()])
        assert r == expected

    def test_common_root_gives_zero(self):
        y = (ZP_ZERO, ZP_ONE)
        assert resultant(y, y) == ZP_ZERO

    def test_zero_input_rejected(self):
        with pytest.raises(ZeroInputError):
            resultant((), quad_modulus(X))

    def test_degree_doubles_under_quadratic_modulus(self):
        # deg_z Res_y(M(z - y), y^2 - f) = 2 deg_z M for random monic M
        rng = random.Random(11)
        for _ in range(25):
            d = rng.randint(1, 3)
            coeffs = [random_poly(rng, 2, bound=4) for _ in range(d)]
            m = zpoly(coeffs + [UPoly.one()])
            f = random_poly(rng, 2, bound=4)
            r = resultant(shift_by_minus_y(m), quad_modulus(f))
            assert len(r) - 1 == 2 * d
            assert r[-1].is_one

    def test_quadratic_shortcut_matches_sylvester(self):
        # the norm-form evaluation must agree with the Sylvester
        # determinant on the resultants the minpoly iteration takes
        rng = random.Random(37)
        for _ in range(25):
            d = rng.randint(1, 4)
            p = zpoly([random_poly(rng, 2, bound=4) for _ in range(d)]
                      + [UPoly.one()])
            f = random_poly(rng, 2, bound=4)
            fast = resultant_with_quadratic(p, f)
            slow = resultant(shift_by_minus_y(p), quad_modulus(f))
            assert fast == slow

    def test_product_formula_against_evaluation(self):
        # Res_y(A, y^2 - c^2) should equal A(c) * A(-c) for a square constant,
        # checked by substituting numbers
        rng = random.Random(23)
        for _ in range(20):
            d = rng.randint(1, 3)
            m = zpoly([random_poly(rng, 1, bound=3) for _ in range(d)]
                      + [UPoly.one()])
            c = rng.randint(1, 4)
            r = resultant(shift_by_minus_y(m), quad_modulus(UPoly.constant(c * c)))
            # evaluate both sides at z = 0, x = t0 for a few points
            for t0 in (0, 1, 2):
                lhs = r[0].evaluate(t0) if r else 0
                def eval_m(z_val):
                    total = 0
                    for k, ck in enumerate(m):
                        total += ck.evaluate(t0) * z_val**k
                    return total
                assert lhs == eval_m(-c) * eval_m(c)


# zeros, small integers, small fractions, and 2,000-bit numerators over
# small or 40-bit denominators, with both signs
coefficients = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-2**2000, 2**2000),
              st.sampled_from([1, 3, 2**40 + 15])),
)
x_polys = st.lists(coefficients, max_size=4).map(UPoly)
z_polys = st.lists(x_polys, max_size=5).map(zpoly)
# squares go through the exact gcd over Q(x), which is slow on big numbers
moderate_z_polys = st.lists(st.lists(st.builds(
    Fraction, st.integers(-2**64, 2**64), st.sampled_from([1, 3, 12])),
    max_size=4).map(UPoly), max_size=4).map(zpoly)
small_x_polys = st.lists(st.builds(Fraction, st.integers(-6, 6),
                                   st.sampled_from([1, 1, 2, 3])),
                         max_size=3).map(UPoly)


def random_rational_poly(rng: random.Random, max_degree: int) -> UPoly:
    p = random_poly(rng, max_degree, bound=9)
    return UPoly([Fraction(c, rng.choice([1, 2, 3, 4, 12])) for c in p.coeffs])


def to_sympy(p, sympy, x, z):
    """A ZPoly as a sympy expression in x and z."""
    return sum(sympy.Rational(c.numerator, c.denominator) * x**j * z**k
               for k, ck in enumerate(p) for j, c in enumerate(ck.coeffs))


class TestPackedNorm:
    """resultant_with_quadratic against the Fraction kernel it replaced."""

    @given(p=z_polys, f=x_polys)
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_kernel(self, p, f):
        assert resultant_with_quadratic(p, f) == fraction_resultant_with_quadratic(p, f)

    def test_random_rational_pairs(self):
        # f = F/e^2 with e the denominator of f, not F/e: an integer-only
        # check cannot tell the two apart
        rng = random.Random(41)
        for _ in range(300):
            p = zpoly([random_rational_poly(rng, 2)
                       for _ in range(rng.randint(1, 5))])
            f = random_rational_poly(rng, 3)
            assert resultant_with_quadratic(p, f) == \
                fraction_resultant_with_quadratic(p, f)

    @pytest.mark.parametrize("p, f", [
        (zpoly([X, 3, -2 * X]), X - 1),                       # non-monic
        (zpoly([-Fraction(1, 3) * X, 0, Fraction(2, 5)]), X / 4 + Fraction(1, 6)),
        (zpoly([X - 1, 2, 1]), UPoly.zero()),                 # f = 0
        (zpoly([X - 1, 2, 1]), UPoly.constant(Fraction(-9, 8))),  # constant f
        (zpoly([X**2 + 1]), X**3 - 7),                        # z-degree 0
        (zpoly([-X / 3]), UPoly.constant(10**700)),           # z-degree 0, big f
        (zpoly([5, -X, -3]), -X**2 - 2),                      # negative leads
        (zpoly([2**2000 * X + 1, -(2**1999), 3**1260 * X]),
         Fraction(-(2**2001) + 1, 7) * X**2 + 5**861),        # 2,000-bit coefficients
    ], ids=["non-monic", "rational", "f-zero", "f-constant", "z-degree-0",
            "z-degree-0-big-f", "negative-leads", "2000-bits"])
    def test_edge_inputs(self, p, f):
        r = resultant_with_quadratic(p, f)
        assert r == fraction_resultant_with_quadratic(p, f)
        assert len(r) == 2 * len(p) - 1

    def test_zero_polynomial(self):
        assert resultant_with_quadratic(ZP_ZERO, X) == ZP_ZERO

    @given(p=st.lists(small_x_polys, min_size=1, max_size=4).map(zpoly),
           f=small_x_polys)
    @settings(max_examples=40, deadline=None)
    def test_matches_sympy_resultant(self, p, f):
        sympy = pytest.importorskip("sympy")
        x, y, z = sympy.symbols("x y z")
        ours = resultant_with_quadratic(p, f)
        if not p:
            assert ours == ZP_ZERO
            return
        shifted = to_sympy(p, sympy, x, z).subs(z, z - y)
        expected = sympy.resultant(shifted, y**2 - to_sympy(zpoly([f]), sympy, x, z), y)
        assert sympy.expand(expected - to_sympy(ours, sympy, x, z)) == 0

    def test_no_upoly_products(self, monkeypatch):
        p = zpoly([Fraction(1, 3) * X**2 - 1, 2 * X, -X, 0, 1])
        f = X / 4 - Fraction(2, 9)
        calls = []
        for cls, name in [(UPoly, "__mul__"), (UPoly, "__rmul__"),
                          (resultants, "zp_mul")]:
            original = getattr(cls, name)

            def counting(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(cls, name, counting)
        r = resultant_with_quadratic(p, f)
        assert len(r) == 9
        assert calls == []


# generator families for the minimal polynomial: integer or rational
# coefficients, quotients (the clear_denominators_monic path), and pairs
# (i, j) that append gens[i]*gens[j], a dependent member (a square if
# i == j)
int_x_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(UPoly)
rational_x_polys = st.lists(st.builds(Fraction, st.integers(-9, 9),
                                      st.sampled_from([1, 2, 3, 12])),
                            min_size=1, max_size=4).map(UPoly)
nonconstant_x_polys = st.one_of(int_x_polys, rational_x_polys).filter(
    lambda p: p.degree)
generators = st.one_of(
    int_x_polys.filter(lambda p: p.degree).map(RatFunc),
    rational_x_polys.filter(lambda p: p.degree).map(RatFunc),
    st.builds(RatFunc, nonconstant_x_polys,
              st.lists(st.integers(-3, 3), min_size=2, max_size=3)
              .map(UPoly).filter(lambda d: d.degree)),
)
families = st.tuples(st.lists(generators, min_size=1, max_size=6, unique_by=str),
                     st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                              max_size=1))


def minpoly_outcome(gens):
    """(poly, generators) of minpoly_multiquadratic, or (error type, message)."""
    try:
        mp = minpoly_multiquadratic(gens)
    except Exception as error:  # any error is part of the outcome
        return type(error), str(error)
    return mp.poly, mp.generators


class TestResultantTower:
    """resultant_tower in w = z^2 against chains of resultant_with_quadratic."""

    @given(fs=st.lists(x_polys, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_matches_chain(self, fs):
        # zero, constant and 2,000-bit generators too
        assert resultant_tower(fs) == chained_resultant_tower(fs)

    @given(family=families)
    @settings(max_examples=100, deadline=None)
    def test_minpoly_matches_chain(self, family):
        gens, products = family
        gens = gens + [gens[i % len(gens)] * gens[j % len(gens)]
                       for i, j in products]
        with mock.patch.object(rationalize, "resultant_tower",
                               chained_resultant_tower):
            expected = minpoly_outcome(gens)
        assert minpoly_outcome(gens) == expected

    def test_seven_linear_generators(self):
        # the digest of the degree-128 polynomial as the chain in z gave it
        mp = minpoly_multiquadratic([X + k for k in range(7)])
        assert mp.degree == 128
        assert hashlib.sha256(zp_to_str(mp.poly).encode()).hexdigest() == \
            "09d46a3448b9f33a8c1bff839ab1ec1b904dd91bcd56868339947c7645c1edc3"

    def test_one_conversion_at_the_end(self, monkeypatch):
        # no step in z and no UPoly between steps: the tower builds only the
        # final nonzero coefficients (with _scaled) and one zero
        calls = []

        def count(owner, name):
            original = getattr(owner, name)

            def counting(*args, _original=original):
                calls.append(name)
                return _original(*args)

            monkeypatch.setattr(owner, name, counting)

        for owner in (resultants, rationalize):
            if hasattr(owner, "resultant_with_quadratic"):
                count(owner, "resultant_with_quadratic")
        count(resultants, "_scaled")
        count(poly, "_upoly")
        count(UPoly, "__init__")
        during = []
        tower = rationalize.resultant_tower

        def counted_tower(fs):
            start = len(calls)
            out = tower(fs)
            during.extend(calls[start:])
            return out

        monkeypatch.setattr(rationalize, "resultant_tower", counted_tower)
        mp = minpoly_multiquadratic([X, X - 1, X + 2, 3 * X + 1, X - 5])
        nonzero = sum(1 for c in mp.poly if c)
        assert mp.degree == 32 and nonzero == 2 ** 4 + 1
        assert "resultant_with_quadratic" not in calls
        assert during.count("_scaled") == nonzero
        assert during.count("_upoly") == nonzero
        assert during.count("__init__") <= 1


class TestSquarefreeCertificate:
    @given(p=moderate_z_polys, square=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_integer_fast_path_matches_fraction(self, p, square):
        if square:  # a square has repeated roots in z unless it is constant
            p = zp_mul(p, p)
        assert zp_is_squarefree_in_z(p) == fraction_is_squarefree_in_z(p)

    def test_minpoly_chains_match_fraction(self):
        rng = random.Random(43)
        for _ in range(40):
            gens = [random_rational_poly(rng, 2) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.3:
                gens.append(gens[0])
            p = zpoly([-gens[0], 0, 1])
            for f in gens[1:]:
                p = resultant_with_quadratic(p, f)
            assert zp_is_squarefree_in_z(p) == fraction_is_squarefree_in_z(p)

    @staticmethod
    def count_points(monkeypatch):
        """Record the integer gcd taken at each point, and every RatFunc built."""
        calls = []
        original = resultants._int_gcd_cofactors
        monkeypatch.setattr(resultants, "_int_gcd_cofactors",
                            lambda f, g: calls.append(1) or original(f, g))
        init = RatFunc.__init__
        monkeypatch.setattr(RatFunc, "__init__",
                            lambda self, *args: calls.append("RatFunc")
                            or init(self, *args))
        return calls

    # g vanishes at x = -8..8, so p(xi) = z^2 - g(xi) has the double root 0
    # at each of those points
    G17 = prod((X - k for k in range(-8, 9)), start=UPoly.one())

    def test_squarefree_past_the_first_points(self, monkeypatch):
        # z^2 - g: every point of -8..8 degenerates and x = 9 decides
        calls = self.count_points(monkeypatch)
        assert zp_is_squarefree_in_z(zpoly([-self.G17, 0, 1]))
        assert calls == [1] * 18

    def test_every_point_degenerates(self, monkeypatch):
        # (z - g)^2: (2n - 1)*dx + 1 = 3*34 + 1 points, all degenerate, prove
        # the repeated root without a gcd over Q(x)
        g = self.G17
        calls = self.count_points(monkeypatch)
        assert not zp_is_squarefree_in_z(zpoly([g * g, -2 * g, 1]))
        assert calls == [1] * 103

    @given(st.lists(st.tuples(st.sampled_from([X, X - 1, X + 2, X * (X - 1)]),
                              st.sampled_from([1, 4, Fraction(9, 4), -1, 2])),
                    min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_discriminant_against_sympy(self, members):
        # sign sums collide (discriminant 0) only for dependent generators
        sympy = pytest.importorskip("sympy")
        x, z = sympy.symbols("x z")
        gens = [c * b for b, c in members]
        p = zpoly([-gens[0], 0, 1])
        for f in gens[1:]:
            p = resultant_with_quadratic(p, f)
        nonzero = sympy.discriminant(to_sympy(p, sympy, x, z), z) != 0
        assert zp_is_squarefree_in_z(p) == nonzero
        _, dependent = gf2_eliminate(build_branch_table(gens))
        if dependent is None:
            assert nonzero


class TestClearDenominators:
    def test_already_polynomial(self):
        p, u = clear_denominators_monic([RatFunc(-X), RatFunc(0), RatFunc(1)])
        assert p == zpoly([-X, UPoly.zero(), UPoly.one()])
        assert u.is_one

    def test_simple_pole(self):
        p, u = clear_denominators_monic([RatFunc(-1, X), RatFunc(0), RatFunc(1)])
        assert p == zpoly([-X, UPoly.zero(), UPoly.one()])
        assert u == X

    def test_double_pole_needs_single_u(self):
        p, u = clear_denominators_monic(
            [RatFunc(-(X + 1), X**2), RatFunc(0), RatFunc(1)])
        assert p == zpoly([-(X + 1), UPoly.zero(), UPoly.one()])
        assert u == X

    def test_scaled_roots_vanish(self):
        # oracle: if q(alpha) = 0 then p(u * alpha) = 0; verify through the
        # coefficient identity p(u z) = u^n q(z) * (cleared denominators)
        rng = random.Random(3)
        for _ in range(30):
            den1 = random_poly(rng, 2, bound=3)
            den2 = random_poly(rng, 1, bound=3)
            coeffs = [RatFunc(random_poly(rng, 2, bound=3), den1),
                      RatFunc(random_poly(rng, 1, bound=3), den2),
                      RatFunc(1)]
            p, u = clear_denominators_monic(coeffs)
            n = 2
            # p(u*z) and u^n * q(z) must agree as polynomials in z over Q(x)
            u_rf = RatFunc(u)
            for k in range(n + 1):
                lhs = RatFunc(p[k]) * u_rf**k if k < len(p) else RatFunc(0)
                rhs = coeffs[k] * u_rf**n
                assert lhs == rhs

    def test_to_str_signs(self, monkeypatch):
        # a -1 coefficient is found by its coefficient tuple, not by
        # building a constant to compare with
        polys = [zpoly([X, 0, -1]), zpoly([1, -1, 1]), zpoly([-X, 1]),
                 zpoly([-1, Fraction(-1, 2)])]
        monkeypatch.setattr(UPoly, "constant", None)
        assert [zp_to_str(p) for p in polys] == [
            "-z^2 + x", "z^2 - z + 1", "z - x", "-1/2*z - 1"]

    def test_to_str(self):
        p = zpoly([1296 * X**2 + 1800 * X + 625, UPoly.zero(), -2])
        assert zp_to_str(p) == "-2*z^2 + 1296*x^2 + 1800*x + 625"
        assert zp_to_str(zp_mul(ZP_ONE, ZP_ONE)) == "1"
        assert zp_to_str(ZP_ZERO) == "0"
