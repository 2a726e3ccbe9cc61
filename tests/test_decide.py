"""Verdicts, the subset criterion, and the conjecture scan."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_factored_poly, random_poly, random_rational_family
from oracles import enumerated_subset_criterion
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
    subset_criterion_table,
)
from sqrat.errors import (
    EmptyFamilyError,
    InvalidParamsError,
    ReduciblePowerError,
    ZeroRadicandError,
)
from sqrat.lattice import build_branch_table
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

    def test_genus_zero_invariant_checked(self, monkeypatch):
        # genus 0 forces (rank, branch count) into (0, 0), (1, 2), (2, 3);
        # a genus formula that reported 0 for rank 3 and 4 branch points
        # would be a bug
        monkeypatch.setattr(decide, "multiquadratic_genus_summary",
                            lambda summary: 0)
        with pytest.raises(RuntimeError, match="rank 3 and 4 branch points"):
            decide_set([X, 4 * X + 1, X**2 - 4 * X], attach_witness=False)
        assert decide_set([X - 1, X - 2],
                          attach_witness=False).status == RATIONALIZABLE


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

    def test_first_occurrences_of_three_distinct_rows(self):
        # rows a, a, b, a, c: every pair passes, and the first failing
        # triple skips index 1 and 3, whose rows repeat index 0's
        passes, failing = subset_criterion([X, X, X - 1, 4 * X, X - 2])
        assert not passes and failing == [0, 2, 4]

    @pytest.mark.parametrize("m", [21, 200])
    def test_any_family_size_gets_an_answer(self, m):
        # square multiples of x and x - 1 pass (genus 0), of x, x - 1 and
        # x - 2 fail at the first three
        passing = [RatFunc((k + 1) ** 2 * (X - k % 2)) for k in range(m)]
        failing = [RatFunc((k + 1) ** 2 * (X - k % 3)) for k in range(m)]
        assert subset_criterion(passing) == (True, None)
        assert subset_criterion(failing) == (False, [0, 1, 2])

    def test_malformed_families_rejected(self):
        family = [RatFunc(X - i) for i in range(21)]
        with pytest.raises(EmptyFamilyError):
            subset_criterion([])
        with pytest.raises(ZeroRadicandError):
            subset_criterion(family + [RatFunc(0)])
        with pytest.raises(TypeError):
            subset_criterion(family + ["x"])

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
        # RatFunc products as the oracle, on families with repeated
        # classes and square multiples of other members
        rng = random.Random(18)
        for _ in range(60):
            fam = [RatFunc(random_factored_poly(rng))
                   for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.6:
                g = random_factored_poly(rng, 1)
                fam.append(rng.choice(fam) * g * g * rng.choice([1, 4, 3]))
            rng.shuffle(fam)
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

    def test_matches_all_subsets_on_larger_families(self):
        # 6 to 10 radicands against the 2^m enumeration of parity rows;
        # products of the linear factors x, ..., x - 4 with square
        # constants make failing subsets of size 3 common
        rng = random.Random(19)
        linear = [X - k for k in range(5)]
        sizes = set()
        for trial in range(120):
            m = rng.randint(6, 10)
            if trial % 2:
                fam = random_rational_family(rng, m)
                while len(fam) < m:
                    fam.append(rng.choice(fam) * RatFunc(X - rng.randint(-3, 3)) ** 2)
            else:
                fam = []
                for _ in range(m):
                    f = RatFunc(rng.choice([1, 4, Fraction(1, 9)]))
                    for i in rng.sample(range(5), rng.randint(0, 2)):
                        f = f * linear[i]
                    fam.append(f)
            table = build_branch_table(fam)
            result = subset_criterion_table(table)
            assert result == enumerated_subset_criterion(table)
            sizes.add(None if result[1] is None else len(result[1]))
        assert sizes == {None, 1, 2, 3}


class TestScan:
    def test_deterministic(self):
        r1 = conjecture_scan(seed=7, trials=40)
        r2 = conjecture_scan(seed=7, trials=40)
        assert r1.agreements == r2.agreements
        assert r1.disagreements == r2.disagreements
        assert r1.agreements + len(r1.disagreements) == 40

    def test_every_trial_agrees_across_seeds(self):
        # the lemma in the decide module: the criterion and the genus agree
        for seed in range(5):
            r = conjecture_scan(seed=seed, trials=5)
            assert r.agreements == 5 and r.disagreements == []

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
