"""Witness construction, verification, and minimal polynomials."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_factored_poly, random_poly, random_rational_family
from sqrat import rationalize
from sqrat.decide import RATIONALIZABLE, decide_set
from sqrat.errors import (
    DependentGeneratorsError,
    NoRationalPointFoundError,
    WrongDegreeError,
)
from sqrat.poly import (
    RatFunc,
    SquareOverC,
    SquareOverQ,
    UPoly,
    fraction_sqrt,
    is_square,
    squarefree_part,
    substitute,
)
from sqrat.rationalize import (
    CONIC_SEARCH_HEIGHT,
    Witness,
    _search_rational_point,
    greedy_rationalize,
    minpoly_multiquadratic,
    rationalize_conic,
    rationalize_linear,
    verify_witness,
)
from sqrat.resultants import zpoly

X = UPoly.x()
T = UPoly.x()  # substitution images print in t; same variable internally


class TestRationalizeLinear:
    def test_shift(self):
        assert rationalize_linear(RatFunc(X - 1)) == RatFunc(UPoly((1, 0, 1)))

    def test_plain_x(self):
        assert rationalize_linear(RatFunc(X)) == RatFunc(UPoly((0, 0, 1)))

    def test_scaled(self):
        # 2x + 3 needs x -> (t^2 - 3)/2 to land exactly on t^2
        s = rationalize_linear(RatFunc(2 * X + 3))
        assert s == RatFunc(UPoly((-3, 0, 1)), UPoly.constant(2))
        assert substitute(RatFunc(2 * X + 3), s) == RatFunc(UPoly((0, 0, 1)))

    def test_full_radicand_squares(self):
        rng = random.Random(1)
        for _ in range(40):
            a = Fraction(rng.choice([v for v in range(-9, 10) if v]))
            b = Fraction(rng.randint(-9, 9))
            g = RatFunc(random_poly(rng, 3))
            f = RatFunc(UPoly((b, a))) * g * g
            s = rationalize_linear(f)
            assert isinstance(is_square(substitute(f, s)), SquareOverQ)

    def test_wrong_degree(self):
        with pytest.raises(WrongDegreeError):
            rationalize_linear(RatFunc(X**2 + 1))


class TestRationalizeConic:
    def test_square_leading_coefficient(self):
        f = RatFunc(X**2 - X)
        s = rationalize_conic(f)
        assert isinstance(is_square(substitute(f, s)), SquareOverQ)

    def test_rational_root_tier(self):
        f = RatFunc(1 - X**2)
        s = rationalize_conic(f)
        assert isinstance(is_square(substitute(f, s)), SquareOverQ)

    def test_point_search_tier(self):
        # -x^2 + 5: leading coefficient not a square, roots irrational,
        # but (1, 2) lies on z^2 = 5 - x^2
        f = RatFunc(5 - X**2)
        s = rationalize_conic(f)
        assert isinstance(is_square(substitute(f, s)), SquareOverQ)

    def test_rational_root_is_a_point_of_the_line_formula(self):
        # 6*(x - 1)*(x + 1/2): a = 6 is no square, the roots are r = 1 and
        # r' = -1/2, and the lines through (r, 0) give the substitution
        # (r t^2 - a r') / (t^2 - a), since a*(r + r') = -b
        s = rationalize_conic(RatFunc(6 * (X - 1) * (X + Fraction(1, 2))))
        assert s == RatFunc(UPoly((3, 0, 1)), UPoly((-6, 0, 1)))

    def test_no_rational_point(self):
        with pytest.raises(NoRationalPointFoundError):
            rationalize_conic(RatFunc(3 - X**2))

    def test_wrong_degree(self):
        with pytest.raises(WrongDegreeError):
            rationalize_conic(RatFunc(X - 1))

    def test_random_monic_quadratics(self):
        rng = random.Random(6)
        count = 0
        while count < 40:
            f = RatFunc(UPoly((rng.randint(-9, 9), rng.randint(-9, 9), 1)))
            if squarefree_part(f).degree != 2:
                continue
            count += 1
            s = rationalize_conic(f)
            assert isinstance(is_square(substitute(f, s)), SquareOverQ)


def fraction_point_search(a, b, c, height):
    """The Fraction loop the integer point search replaced: the reference."""
    for h in range(1, height + 1):
        candidates = [(p, h) for p in range(-h, h + 1)]
        candidates += [(h, q) for q in range(1, h)]
        candidates += [(-h, q) for q in range(1, h)]
        for p, q in candidates:
            if gcd(abs(p), q) != 1:
                continue
            x0 = Fraction(p, q)
            z0 = fraction_sqrt(a * x0 * x0 + b * x0 + c)
            if z0 is not None:
                return x0, z0
    return None


conic_coefficients = st.builds(Fraction, st.integers(-60, 60),
                               st.sampled_from([1, 1, 2, 3, 4, 9, 12, 49]))


class TestPointSearch:
    @given(a=conic_coefficients, b=conic_coefficients, c=conic_coefficients)
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_search(self, a, b, c):
        assert (_search_rational_point(a, b, c, height=12)
                == fraction_point_search(a, b, c, 12))

    @pytest.mark.parametrize("abc", [
        (Fraction(-1), Fraction(0), Fraction(-1)),        # definite, no point
        (Fraction(3), Fraction(0), Fraction(3)),          # 3(x^2+1): no point
        (Fraction(2), Fraction(0), Fraction(-1)),         # indefinite: x0 = 1
        (Fraction(-2), Fraction(0), Fraction(3)),         # z0 = 1 at x0 = +-1
        (Fraction(7, 4), Fraction(-5, 6), Fraction(2, 9)),
        (Fraction(-3, 5), Fraction(1, 7), Fraction(11, 3)),
        (Fraction(5, 49), Fraction(0), Fraction(-1, 12)),
    ])
    def test_definite_indefinite_and_denominators(self, abc):
        assert (_search_rational_point(*abc)
                == fraction_point_search(*abc, CONIC_SEARCH_HEIGHT))


class TestGreedy:
    def test_x_and_one_minus_x(self):
        fam = [RatFunc(X), RatFunc(1 - X)]
        w = greedy_rationalize(fam)
        assert w is not None
        ok, defects = verify_witness(fam, w)
        assert ok and not defects

    def test_two_shifts(self):
        fam = [RatFunc(X - 1), RatFunc(X - 2)]
        w = greedy_rationalize(fam)
        assert w is not None and verify_witness(fam, w)[0]

    def test_three_shifts_unknown(self):
        assert greedy_rationalize([RatFunc(X), RatFunc(X - 1),
                                   RatFunc(X - 2)]) is None

    def test_pairwise_products_family(self):
        fam = [RatFunc(X**2 - X), RatFunc(X**2 - 2 * X),
               RatFunc(X**2 - 3 * X + 2)]
        w = greedy_rationalize(fam)
        assert w is not None
        ok, defects = verify_witness(fam, w)
        assert ok and not defects

    def test_reduction_fallback(self):
        # both classes and their product x(x-3)(x-4)(x-5) have degree 4:
        # rank 2, 6 branch points, genus 3, so no class is attackable and
        # no witness exists
        f1 = RatFunc(X * (X - 1) * (X - 2) * (X - 3))
        f2 = RatFunc((X - 1) * (X - 2) * (X - 4) * (X - 5))
        fam = [f1, f2]
        assert decide_set(fam, attach_witness=False).genus == 3
        assert greedy_rationalize(fam) is None

    def test_genus_zero_gives_up_only_at_a_conic(self, monkeypatch):
        # a genus zero family stays genus zero under every step, so all its
        # classes keep degree <= 2: only a failed point search gives up
        failures = []
        conic = rationalize.rationalize_conic

        def counting_conic(f):
            try:
                return conic(f)
            except NoRationalPointFoundError:
                failures.append(f)
                raise

        monkeypatch.setattr(rationalize, "rationalize_conic", counting_conic)
        rng = random.Random(41)
        seen = gave_up = 0
        while seen < 60:
            fam = random_rational_family(rng)
            if decide_set(fam, attach_witness=False).genus != 0:
                continue
            seen += 1
            before = len(failures)
            w = greedy_rationalize(fam)
            if w is None:
                gave_up += 1
                assert len(failures) == before + 1
            else:
                assert len(failures) == before
        assert gave_up > 0

    def test_steps_read_only_the_class(self, monkeypatch):
        # each step gets c*g from its target's square class, a polynomial
        # of degree <= 2, not the transformed target
        seen = []
        for name in ("rationalize_linear", "rationalize_conic"):
            step = getattr(rationalize, name)
            monkeypatch.setattr(rationalize, name,
                                lambda f, _step=step: seen.append(f) or _step(f))
        fam = [RatFunc((X - 1) * (X + 3) ** 2, (X + 5) ** 4),
               RatFunc((X - 2) * (X + 7) ** 2)]
        w = greedy_rationalize(fam)
        assert w is not None and verify_witness(fam, w) == (True, [])
        assert [f.degree for f in seen] == [1, 2]
        assert all(isinstance(f, UPoly) for f in seen)

    def test_constant_defects_recorded(self):
        fam = [RatFunc(5), RatFunc(X)]
        w = greedy_rationalize(fam)
        assert w is not None and w.has_defects
        ok, defects = verify_witness(fam, w)
        assert ok and defects == [(0, Fraction(5))]

    def test_success_implies_genus_zero(self):
        rng = random.Random(33)
        for _ in range(50):
            fam = [RatFunc(random_factored_poly(rng))
                   for _ in range(rng.randint(1, 3))]
            w = greedy_rationalize(fam)
            if w is not None:
                ok, _ = verify_witness(fam, w)
                assert ok
                v = decide_set(fam, attach_witness=False)
                assert v.status == RATIONALIZABLE

    def test_roots_substitute_back_exactly(self):
        # the roots are read off the working family; they are exactly what
        # is_square finds in each radicand substituted into phi
        rng = random.Random(34)
        families = [[RatFunc(random_factored_poly(rng, 2))
                     for _ in range(rng.randint(1, 2))] for _ in range(30)]
        families += [random_rational_family(rng) for _ in range(60)]
        for fam in families:
            w = greedy_rationalize(fam)
            if w is None:
                continue
            for f, root, defect in zip(fam, w.roots, w.defects):
                image = substitute(f, w.phi)
                assert image - RatFunc(UPoly.constant(defect)) * root * root \
                    == RatFunc(0)
                found = is_square(image)
                if defect == 1:
                    assert found == SquareOverQ(root)
                else:
                    assert found == SquareOverC(defect=defect, root=root)


def _no_sum(*args):
    raise AssertionError("a RatFunc sum was computed")


class TestIdentitySubstitution:
    def test_returns_its_input(self):
        f = RatFunc((X + 1) ** 3, X - 2)
        assert substitute(f, RatFunc(X)) is f
        p = (X + 1) ** 5
        assert substitute(p, RatFunc(X)) == RatFunc(p)

    def test_square_radicand_of_high_degree(self, monkeypatch):
        # a square radicand has the witness x -> x; verifying it takes no
        # Horner steps (a RatFunc sum per degree, the old cost)
        monkeypatch.setattr(RatFunc, "__add__", _no_sum)
        monkeypatch.setattr(RatFunc, "__radd__", _no_sum)
        f = RatFunc((X + 1) ** 512)
        w = greedy_rationalize([f])
        assert w.phi == RatFunc(X) and w.roots == (RatFunc((X + 1) ** 256),)
        assert verify_witness([f], w) == (True, [])


class TestVerifyWitness:
    def test_textbook_witness_for_x_and_one_minus_x(self):
        phi = RatFunc(2 * T, T * T + 1) ** 2
        w = Witness(phi=phi,
                    roots=(RatFunc(2 * T, T * T + 1),
                           RatFunc(1 - T * T, T * T + 1)),
                    defects=(Fraction(1), Fraction(1)))
        ok, defects = verify_witness([RatFunc(X), RatFunc(1 - X)], w)
        assert ok and not defects

    def test_shift_witness(self):
        w = Witness(phi=RatFunc(UPoly((1, 0, 1))), roots=(RatFunc(T),),
                    defects=(Fraction(1),))
        ok, defects = verify_witness([RatFunc(X - 1)], w)
        assert ok and not defects

    def test_non_square_rejected(self):
        w = Witness(phi=RatFunc(T), roots=(RatFunc(T),),
                    defects=(Fraction(1),))
        ok, _ = verify_witness([RatFunc(X)], w)
        assert not ok

    @staticmethod
    def _textbook(first_root):
        # the witness above for [x, 1 - x], with its first root replaced
        w = Witness(phi=RatFunc(2 * T, T * T + 1) ** 2,
                    roots=(first_root, RatFunc(1 - T * T, T * T + 1)),
                    defects=(Fraction(1), Fraction(1)))
        return verify_witness([RatFunc(X), RatFunc(1 - X)], w)

    def test_right_numerator_wrong_denominator_rejected(self):
        assert self._textbook(RatFunc(2 * T, T * T + 2)) == (False, [])

    def test_root_off_by_a_factor_of_its_denominator_rejected(self):
        root = RatFunc(2 * T, (T * T + 1) * (T + 3))
        assert self._textbook(root) == (False, [])

    def test_constant_multiple_of_the_root_has_its_defect(self):
        root = RatFunc(6 * T, T * T + 1)
        assert self._textbook(root) == (True, [(0, Fraction(1, 9))])
        root = RatFunc(Fraction(-2, 5) * T, T * T + 1)
        assert self._textbook(root) == (True, [(0, Fraction(25))])

    def test_zero_root_rejected(self):
        assert self._textbook(RatFunc(0)) == (False, [])
        # an image over 1, like the square of a zero root
        w = Witness(phi=RatFunc(UPoly((1, 0, 1))), roots=(RatFunc(0),),
                    defects=(Fraction(1),))
        assert verify_witness([RatFunc(X - 1)], w) == (False, [])

    def test_miscopied_witness_rejected(self):
        # same family, but the first root has an extra factor of t: the
        # commuting condition fails and the verifier must notice
        phi = RatFunc(2 * T * T, T * T + 1) ** 2
        w = Witness(phi=phi,
                    roots=(RatFunc(2 * T * T, T * T + 1),
                           RatFunc(1 - T * T, T * T + 1)),
                    defects=(Fraction(1), Fraction(1)))
        ok, _ = verify_witness([RatFunc(X), RatFunc(1 - X)], w)
        assert not ok


class TestMinPoly:
    def test_single_generator(self):
        mp = minpoly_multiquadratic([RatFunc(X)])
        assert mp.poly == zpoly([-X, UPoly.zero(), UPoly.one()])

    def test_pair_closed_form_random(self):
        # z^4 - 2(f+g) z^2 + (f-g)^2, expanded by hand
        rng = random.Random(25)
        done = 0
        while done < 30:
            f = random_poly(rng, 3)
            g = random_poly(rng, 3)
            try:
                mp = minpoly_multiquadratic([RatFunc(f), RatFunc(g)])
            except DependentGeneratorsError:
                continue
            done += 1
            expected = zpoly([(f - g) * (f - g), UPoly.zero(),
                              -2 * (f + g), UPoly.zero(), UPoly.one()])
            assert mp.poly == expected

    def test_dependent_generators(self):
        with pytest.raises(DependentGeneratorsError) as info:
            minpoly_multiquadratic([RatFunc(X), RatFunc(X * (X - 1) ** 2)])
        assert info.value.relation == [0, 1]

    def test_rational_generator_normalized(self):
        mp = minpoly_multiquadratic([RatFunc(X - 1, X)])
        assert mp.poly == zpoly([-(X - 1) * X, UPoly.zero(), UPoly.one()])
        assert mp.generators == (RatFunc((X - 1) * X),)

    def test_degree_is_power_of_two(self):
        mp = minpoly_multiquadratic([RatFunc(X), RatFunc(X - 1),
                                     RatFunc(X - 2)])
        assert mp.degree == 8
        assert mp.poly[-1].is_one
