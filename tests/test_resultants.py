"""Resultants with quadratics against Sylvester determinants, denominator clearing."""

import random

import pytest

from conftest import random_poly
from sylvester import resultant, shift_by_minus_y
from sqrat.errors import ZeroInputError
from sqrat.poly import RatFunc, UPoly
from sqrat.resultants import (
    ZP_ONE,
    ZP_ZERO,
    clear_denominators_monic,
    resultant_with_quadratic,
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

    def test_to_str(self):
        p = zpoly([1296 * X**2 + 1800 * X + 625, UPoly.zero(), -2])
        assert zp_to_str(p) == "-2*z^2 + 1296*x^2 + 1800*x + 625"
        assert zp_to_str(zp_mul(ZP_ONE, ZP_ONE)) == "1"
        assert zp_to_str(ZP_ZERO) == "0"
