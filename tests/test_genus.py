"""Genus computations: multiquadratic, hyperelliptic, cyclic, closed form."""

import random
from fractions import Fraction

import pytest

from conftest import random_factored_poly, random_poly
from sqrat.errors import (
    NormalFormViolationError,
    ReduciblePowerError,
    ZeroRadicandError,
)
from sqrat.genus import (
    CoverSpec,
    cyclic_cover_genus,
    hyperelliptic_genus,
    multiquadratic_genus,
    superelliptic_genus_closed_form,
)
from sqrat.poly import RatFunc, UPoly, squarefree_part, substitute

X = UPoly.x()


class TestMultiquadratic:
    def test_scaled_linear_family_has_genus_one(self):
        assert multiquadratic_genus([X, 4 * X + 1, X**2 - 4 * X]) == 1

    def test_pairwise_products_of_linears_genus_zero(self):
        assert multiquadratic_genus(
            [X**2 - X, X**2 - 2 * X, X**2 - 3 * X + 2]) == 0

    def test_three_distinct_shifts_genus_one(self):
        assert multiquadratic_genus([X - 2, X - 3, X - 7]) == 1

    def test_constants_only(self):
        assert multiquadratic_genus([RatFunc(5)]) == 0

    def test_zero_radicand_rejected(self):
        with pytest.raises(ZeroRadicandError):
            multiquadratic_genus([RatFunc(0)])


class TestHyperelliptic:
    @pytest.mark.parametrize("f,expected", [
        (X - 1, 0),
        ((X - 1) * (X - 2) * (X - 3), 1),
        (X**2 * (X - 1), 0),
        ((X - 1) * (X - 2) * (X - 3) * (X - 4), 1),
        ((X**2 + 1) * (X**2 + 2) * (X**2 + 3), 2),
    ])
    def test_values(self, f, expected):
        assert hyperelliptic_genus(RatFunc(f)) == expected

    def test_degree_formula(self):
        rng = random.Random(9)
        for _ in range(60):
            f = RatFunc(random_poly(rng, 8), random_poly(rng, 4))
            d = squarefree_part(f).degree
            expected = 0 if d == 0 else (d - 1) // 2
            assert hyperelliptic_genus(f) == expected


class TestCyclic:
    def test_cubic_cover(self):
        assert cyclic_cover_genus(CoverSpec(RatFunc(X * (X - 1) * (X - 2)), 3)) == 1

    def test_conic(self):
        assert cyclic_cover_genus(CoverSpec(RatFunc(X * (X - 1)), 2)) == 0

    def test_matches_hyperelliptic(self):
        f = RatFunc((X - 1) * (X - 2) * (X - 3))
        assert cyclic_cover_genus(CoverSpec(f, 2)) == hyperelliptic_genus(f)

    def test_reducible_power_rejected(self):
        with pytest.raises(ReduciblePowerError):
            CoverSpec(RatFunc(X**2), 2)
        with pytest.raises(ReduciblePowerError):
            CoverSpec(RatFunc(X**3 * (X - 1) ** 3), 3)
        with pytest.raises(ReduciblePowerError):
            CoverSpec(RatFunc(7), 5)

    @pytest.mark.parametrize("build", [lambda f: CoverSpec(f, 3), hyperelliptic_genus])
    def test_radicand_checked_by_the_family_validator(self, build):
        with pytest.raises(ZeroRadicandError, match="zero radicand in the family"):
            build(UPoly.zero())
        with pytest.raises(ZeroRadicandError, match="zero radicand in the family"):
            build(RatFunc(0))
        with pytest.raises(TypeError, match="radicands must be RatFunc or UPoly"):
            build("x")

    def test_polynomial_radicand_becomes_a_ratfunc(self):
        cover = CoverSpec(X * (X - 1) * (X - 2), 3)
        assert isinstance(cover.radicand, RatFunc)
        assert cover.radicand == RatFunc(X * (X - 1) * (X - 2))

    def test_rational_radicand(self):
        # valuations 1 at 0, -1 at 1, 0 at infinity: e=3 ramifies twice
        f = RatFunc(X, X - 1)
        assert cyclic_cover_genus(CoverSpec(f, 3)) == 0

    def test_e2_consistency_random(self):
        rng = random.Random(12)
        count = 0
        while count < 80:
            f = RatFunc(random_factored_poly(rng, 4))
            if squarefree_part(f).degree == 0:
                continue
            count += 1
            assert cyclic_cover_genus(CoverSpec(f, 2)) == hyperelliptic_genus(f)


class TestClosedForm:
    def test_stated_values(self):
        assert superelliptic_genus_closed_form((1, 1, 1), 3) == 1
        assert superelliptic_genus_closed_form((1, 1), 2) == 0
        assert superelliptic_genus_closed_form((1, 1, 1, 1), 2) == 1

    def test_normal_form_violations(self):
        with pytest.raises(NormalFormViolationError):
            superelliptic_genus_closed_form((1, 2), 2)  # sum not 0 mod e
        with pytest.raises(NormalFormViolationError):
            superelliptic_genus_closed_form((2, 2), 2)  # exponent 0 mod e
        with pytest.raises(NormalFormViolationError):
            superelliptic_genus_closed_form((3,), 3)  # m = 0

    def test_half_integral_outside_domain(self):
        # the verbatim formula leaves Z where an exponent shares a factor
        # with e; Riemann-Hurwitz is the authority there
        assert superelliptic_genus_closed_form((1, 1, 2), 4) == Fraction(3, 2)

    def test_agreement_when_exponents_coprime_to_e(self):
        rng = random.Random(17)
        agreements = 0
        for _ in range(200):
            e = rng.randint(2, 5)
            m = rng.randint(1, 4)
            exps = [rng.choice([v for v in range(1, e)
                                if _coprime(v, e)]) for _ in range(m)]
            total = sum(exps) % e
            last = (e - total) % e
            if last == 0 or not _coprime(last, e):
                continue
            exps.append(last)
            m = len(exps) - 1
            closed = superelliptic_genus_closed_form(exps, e)
            rh = cyclic_cover_genus(CoverSpec(_radicand_for(rng, exps), e))
            # the m = 0 mod e branch corresponds to a vanishing compensating
            # exponent, which this generator never produces; expect the
            # m + 1 branch to match Riemann-Hurwitz exactly
            if m % e != 0:
                assert closed == rh
                agreements += 1
        assert agreements > 50


def _coprime(a, b):
    from math import gcd
    return gcd(a, b) == 1


def _radicand_for(rng, exps):
    roots = set()
    while len(roots) < len(exps) - 1:
        roots.add(Fraction(rng.randint(1, 30), rng.randint(1, 5)))
    f = UPoly.x() ** exps[0]
    for r, e in zip(sorted(roots), exps[1:]):
        f = f * UPoly((-r, 1)) ** e
    return RatFunc(f)


class TestInvariances:
    def test_singleton_consistency(self):
        rng = random.Random(19)
        for _ in range(100):
            f = RatFunc(random_poly(rng, 6))
            assert multiquadratic_genus([f]) == hyperelliptic_genus(f)

    def test_square_class_invariance(self):
        rng = random.Random(20)
        for _ in range(60):
            fam = [RatFunc(random_factored_poly(rng))
                   for _ in range(rng.randint(1, 3))]
            g = RatFunc(random_poly(rng, 3))
            scaled = [f * g * g for f in fam]
            assert multiquadratic_genus(fam) == multiquadratic_genus(scaled)

    def test_moebius_invariance(self):
        rng = random.Random(21)
        done = 0
        while done < 60:
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            c, d = rng.randint(-4, 4), rng.randint(-4, 4)
            if a * d - b * c == 0:
                continue
            moebius = RatFunc(UPoly((b, a)), UPoly((d, c)))
            fam = [RatFunc(random_factored_poly(rng))
                   for _ in range(rng.randint(1, 3))]
            moved = [substitute(f, moebius) for f in fam]
            assert multiquadratic_genus(fam) == multiquadratic_genus(moved)
            done += 1
