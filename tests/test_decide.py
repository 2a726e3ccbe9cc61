"""Verdicts, the subset criterion, and the conjecture scan."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_factored_poly, random_poly, random_rational_family
from sqrat import decide
from sqrat.decide import (
    NOT_RATIONALIZABLE,
    RATIONALIZABLE,
    ScanParams,
    Verdict,
    conjecture_scan,
    decide_set,
    decide_single_root,
    decide_single_sqrt,
    scan_trial_outcome,
    subset_criterion,
)
from sqrat.errors import (
    EmptyFamilyError,
    FamilyTooLargeError,
    InvalidParamsError,
    ReduciblePowerError,
    ZeroRadicandError,
)
from sqrat.poly import RatFunc, UPoly, squarefree_part

X = UPoly.x()


class TestSingleSqrt:
    def test_linear_is_rationalizable(self):
        v = decide_single_sqrt(RatFunc(X - 1))
        assert v.status == RATIONALIZABLE and v.genus == 0

    def test_cubic_is_not(self):
        v = decide_single_sqrt(RatFunc((X - 1) * (X - 2) * (X - 3)))
        assert v.status == NOT_RATIONALIZABLE and v.genus == 1

    def test_constant_times_quadratic_times_square(self):
        rng = random.Random(2)
        for _ in range(20):
            g = RatFunc(random_poly(rng, 3))
            f = RatFunc(7 * (X**2 + 1)) * g * g
            assert decide_single_sqrt(f).status == RATIONALIZABLE

    def test_zero_rejected(self):
        with pytest.raises(ZeroRadicandError):
            decide_single_sqrt(RatFunc(0))


class TestSingleRoot:
    def test_examples(self):
        assert decide_single_root(RatFunc(X * (X - 1)), 2).status == RATIONALIZABLE
        v = decide_single_root(RatFunc(X * (X - 1) * (X - 2)), 3)
        assert v.status == NOT_RATIONALIZABLE and v.genus == 1
        assert decide_single_root(RatFunc(X - 5), 7).status == RATIONALIZABLE

    def test_reducible(self):
        with pytest.raises(ReduciblePowerError):
            decide_single_root(RatFunc(X**2), 4)


class TestDecideSet:
    def test_two_linear(self):
        v = decide_set([X - 1, X - 2])
        assert v.status == RATIONALIZABLE and v.genus == 0
        assert v.witness is not None

    def test_scaled_family(self):
        v = decide_set([X, 4 * X + 1, X**2 - 4 * X])
        assert v.status == NOT_RATIONALIZABLE
        assert v.genus == 1 and v.rank == 3 and v.branch_count == 4

    def test_pairwise_products(self):
        v = decide_set([X**2 - X, X**2 - 2 * X, X**2 - 3 * X + 2])
        assert v.status == RATIONALIZABLE and v.genus == 0 and v.rank == 2

    def test_consistent_with_singleton(self):
        rng = random.Random(8)
        for _ in range(60):
            f = RatFunc(random_factored_poly(rng))
            assert decide_set([f], attach_witness=False).status == \
                decide_single_sqrt(f).status

    def test_two_random_linear_always_rationalizable(self):
        rng = random.Random(14)
        for _ in range(40):
            a = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
            b = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
            if a == b:
                continue
            v = decide_set([X - a, X - b], attach_witness=False)
            assert v.status == RATIONALIZABLE

    def test_distinct_shifts_iff_m_at_most_two(self):
        rng = random.Random(15)
        for m in range(1, 7):
            shifts = rng.sample(range(-30, 30), m)
            fam = [RatFunc(X - s) for s in shifts]
            v = decide_set(fam, attach_witness=False)
            expected = RATIONALIZABLE if m <= 2 else NOT_RATIONALIZABLE
            assert v.status == expected

    def test_never_unknown(self):
        rng = random.Random(16)
        for _ in range(60):
            fam = [RatFunc(random_factored_poly(rng))
                   for _ in range(rng.randint(1, 3))]
            assert decide_set(fam, attach_witness=False).status in (
                RATIONALIZABLE, NOT_RATIONALIZABLE)

    def test_empty_rejected(self):
        with pytest.raises(EmptyFamilyError):
            decide_set([])


class TestVerdictInvariants:
    def test_status_genus_consistency_enforced(self):
        with pytest.raises(ValueError):
            Verdict(status=RATIONALIZABLE, genus=1)
        with pytest.raises(ValueError):
            Verdict(status=NOT_RATIONALIZABLE, genus=0)
        with pytest.raises(ValueError):
            Verdict(status=RATIONALIZABLE, failing_subset=[0])


class TestSubsetCriterion:
    def test_scaled_family_fails_at_second_and_third(self):
        # hand enumeration: classes of x, 4x+1, x(x-4) have degrees 1, 1, 2;
        # pairs {0,1} -> deg 2, {0,2} -> deg 1, {1,2} -> deg 3 (first fail);
        # the triple has degree 2
        passes, failing = subset_criterion([X, 4 * X + 1, X**2 - 4 * X])
        assert not passes and failing == [1, 2]

    def test_pairwise_products_pass(self):
        passes, failing = subset_criterion(
            [X**2 - X, X**2 - 2 * X, X**2 - 3 * X + 2])
        assert passes and failing is None

    def test_singleton(self):
        assert subset_criterion([X - 1]) == (True, None)

    def test_family_cap(self):
        with pytest.raises(FamilyTooLargeError):
            subset_criterion([RatFunc(X - i) for i in range(21)])

    def test_family_cap_checked_before_the_table(self, monkeypatch):
        built = []
        monkeypatch.setattr(decide, "build_branch_table",
                            lambda rads: built.append(rads))
        family = [RatFunc(X - i) for i in range(21)]
        with pytest.raises(FamilyTooLargeError):
            subset_criterion(family)
        # malformed families are rejected for what is wrong with them first
        with pytest.raises(EmptyFamilyError):
            subset_criterion([])
        with pytest.raises(ZeroRadicandError):
            subset_criterion(family + [RatFunc(0)])
        with pytest.raises(TypeError):
            subset_criterion(family + ["x"])
        assert built == []

    def test_passes_iff_genus_zero(self):
        # the lemma in the decide module: under the criterion every class
        # has 2 branch points, which forces rank <= 2 and B in {0, 2, 3}
        rng = random.Random(40)
        for _ in range(300):
            fam = random_rational_family(rng)
            v = decide_set(fam, attach_witness=False)
            passes, _ = subset_criterion(fam)
            assert passes == (v.genus == 0)
            if v.genus == 0:
                assert v.rank <= 2 and v.branch_count in (0, 2, 3)

    def test_matches_naive_product_enumeration(self):
        rng = random.Random(18)
        for _ in range(40):
            fam = [RatFunc(random_factored_poly(rng))
                   for _ in range(rng.randint(1, 4))]
            passes, failing = subset_criterion(fam)
            naive_failing = None
            for size in range(1, len(fam) + 1):
                if naive_failing is not None:
                    break
                for combo in itertools.combinations(range(len(fam)), size):
                    prod = RatFunc(1)
                    for i in combo:
                        prod = prod * fam[i]
                    if squarefree_part(prod).degree > 2:
                        naive_failing = list(combo)
                        break
            assert passes == (naive_failing is None)
            assert failing == naive_failing


class TestScan:
    def test_deterministic(self):
        r1 = conjecture_scan(seed=7, trials=40)
        r2 = conjecture_scan(seed=7, trials=40)
        assert r1.agreements == r2.agreements
        assert r1.disagreements == r2.disagreements
        assert r1.agreements + len(r1.disagreements) == 40

    def test_different_seeds_differ(self):
        # not a hard requirement, but the streams should not be constant
        outs = set()
        for seed in range(5):
            r = conjecture_scan(seed=seed, trials=5)
            outs.add(tuple(sorted(d["trial"] for d in r.disagreements)))
            outs.add(r.agreements)
        assert len(outs) >= 1  # smoke: runs clean across seeds

    def test_forced_examples(self):
        assert scan_trial_outcome([X - 1, X - 2])["agreement"]
        assert scan_trial_outcome([X, X - 1, X - 2])["agreement"]

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            conjecture_scan(seed=1, trials=0)
        with pytest.raises(InvalidParamsError):
            conjecture_scan(seed=1, trials=5, params=ScanParams(max_m=1))

    def test_proven_direction_on_random_families(self):
        # rationalizable implies the subset criterion passes; asserted on
        # every random instance, a violation fails the build
        rng = random.Random(22)
        for _ in range(80):
            fam = [RatFunc(random_factored_poly(rng))
                   for _ in range(rng.randint(1, 3))]
            v = decide_set(fam, attach_witness=False)
            passes, _ = subset_criterion(fam)
            if v.status == RATIONALIZABLE:
                assert passes
