"""Branch tables, GF(2) rank, branch counting, reduced generators."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_factored_poly, random_poly, small_fractions, upolys
from test_analysis_once import count_calls
from sqrat import poly
from sqrat.cli import main
from sqrat.errors import EmptyFamilyError, ParseError, ZeroRadicandError
from sqrat.genus import CoverSpec, cyclic_cover_genus, multiquadratic_genus_table
from sqrat.lattice import (
    branch_count,
    build_branch_table,
    lattice_rank,
    reduced_generators,
    reduced_generators_scaled,
)
from sqrat.parsing import parse_expr, parse_written
from sqrat.poly import RatFunc, UPoly, multiplicity

X = UPoly.x()


def table_of(*polys):
    return build_branch_table([RatFunc(p) if isinstance(p, UPoly) else p
                               for p in polys])


class TestBuildBranchTable:
    def test_scaled_linear_family(self):
        t = table_of(X, 4 * X + 1, X**2 - 4 * X)
        assert sorted(str(b) for b in t.basis) == ["x", "x + 1/4", "x - 4"]
        # every radicand reconstructs as c * prod basis^exponent
        for f, row in zip(t.radicands, t.exponents):
            prod = RatFunc(1)
            for b, e in zip(t.basis, row):
                prod = prod * RatFunc(b) ** e
            ratio = f / prod
            assert ratio.is_constant and not ratio.is_zero
        # parity = exponents mod 2 plus infinity column
        for f, erow, prow in zip(t.radicands, t.exponents, t.parity):
            assert prow[:-1] == tuple(e % 2 for e in erow)
            assert prow[-1] == (f.num.degree - f.den.degree) % 2

    def test_constant_radicand_all_zero_row(self):
        t = table_of(RatFunc(9))
        assert t.basis == ()
        assert t.parity == ((0,),)

    def test_zero_and_empty_rejected(self):
        with pytest.raises(ZeroRadicandError):
            table_of(RatFunc(0))
        with pytest.raises(EmptyFamilyError):
            build_branch_table([])


@st.composite
def factored_families(draw):
    """Families over a small shared factor pool, with repeated factors,
    nontrivial denominators and constant radicands."""
    pool = draw(st.lists(upolys(2, nonzero=True), min_size=1, max_size=3))
    family = []
    for _ in range(draw(st.integers(1, 4))):
        num = UPoly.constant(draw(small_fractions.filter(bool)))
        den = UPoly.one()
        for _ in range(draw(st.integers(0, 3))):
            factor = pool[draw(st.integers(0, len(pool) - 1))]
            power = factor ** draw(st.integers(1, 3))
            if draw(st.booleans()):
                num = num * power
            else:
                den = den * power
        family.append(RatFunc(num, den))
    return family


class TestExponentRows:
    @given(family=factored_families())
    @settings(max_examples=60, deadline=None)
    def test_rows_match_multiplicities(self, family):
        t = build_branch_table(family)
        for f, row in zip(t.radicands, t.exponents):
            assert row == tuple(multiplicity(f.num, b) - multiplicity(f.den, b)
                                for b in t.basis)


class TestRankAndBranches:
    def test_headline_families(self):
        t = table_of(X, 4 * X + 1, X**2 - 4 * X)
        assert lattice_rank(t) == 3
        s = branch_count(t)
        assert s.branch_count == 4 and s.infinity_ramified

        t = table_of(X**2 - X, X**2 - 2 * X, X**2 - 3 * X + 2)
        assert lattice_rank(t) == 2
        s = branch_count(t)
        assert s.branch_count == 3 and not s.infinity_ramified

    def test_trivial_family(self):
        t = table_of(RatFunc(9))
        assert lattice_rank(t) == 0
        assert branch_count(t).branch_count == 0

    def test_single_linear(self):
        s = branch_count(table_of(X - 1))
        assert s.branch_count == 2 and s.infinity_ramified

    def test_rank_bounds_and_parity(self):
        rng = random.Random(4)
        for _ in range(80):
            fam = [RatFunc(random_factored_poly(rng))
                   for _ in range(rng.randint(1, 4))]
            t = build_branch_table(fam)
            r = lattice_rank(t)
            assert 0 <= r <= min(len(fam), len(t.basis) + 1)
            s = branch_count(t)
            if r == 1:
                assert s.branch_count % 2 == 0

    def test_class_invariance_under_square_multipliers(self):
        rng = random.Random(40)
        for _ in range(60):
            fam = [RatFunc(random_factored_poly(rng))
                   for _ in range(rng.randint(1, 3))]
            g = RatFunc(random_poly(rng, 3))
            scaled = [fam[0] * g * g] + fam[1:]
            t0, t1 = build_branch_table(fam), build_branch_table(scaled)
            assert lattice_rank(t0) == lattice_rank(t1)
            assert branch_count(t0).branch_count == branch_count(t1).branch_count

    def test_dependent_append_collapses(self):
        rng = random.Random(41)
        for _ in range(60):
            fam = [RatFunc(random_factored_poly(rng))
                   for _ in range(rng.randint(1, 3))]
            subset = [f for f in fam if rng.random() < 0.5] or [fam[0]]
            prod = RatFunc(1)
            for f in subset:
                prod = prod * f
            g = RatFunc(random_poly(rng, 2))
            extended = fam + [prod * g * g]
            t0, t1 = build_branch_table(fam), build_branch_table(extended)
            assert lattice_rank(t0) == lattice_rank(t1)
            assert branch_count(t0).branch_count == branch_count(t1).branch_count


class TestReducedGenerators:
    def test_scaled_family_reduces_to_shifted_classes(self):
        t = table_of(X, 4 * X + 1, X**2 - 4 * X)
        assert [str(g) for g in reduced_generators(t)] == \
            ["x", "x + 1/4", "x - 4"]
        assert [str(g) for g in reduced_generators_scaled(t)] == \
            ["x", "4*x + 1", "x - 4"]

    def test_already_reduced(self):
        t = table_of(X**2 - X)
        assert reduced_generators(t) == [X**2 - X]

    def test_dependent_class_collapses(self):
        t = table_of(RatFunc(X), RatFunc(X * (X - 1) ** 2))
        assert reduced_generators(t) == [X]

    def test_generators_span_same_lattice(self):
        rng = random.Random(42)
        for _ in range(40):
            fam = [RatFunc(random_factored_poly(rng))
                   for _ in range(rng.randint(1, 4))]
            t = build_branch_table(fam)
            gens = reduced_generators(t)
            if not gens:
                assert lattice_rank(t) == 0
                continue
            t_gens = build_branch_table([RatFunc(g) for g in gens])
            assert lattice_rank(t_gens) == len(gens) == lattice_rank(t)
            combined = build_branch_table(
                list(fam) + [RatFunc(g) for g in gens])
            assert lattice_rank(combined) == lattice_rank(t)

    def test_scaled_generators_same_classes_as_monic(self):
        rng = random.Random(43)
        for _ in range(40):
            fam = [RatFunc(random_factored_poly(rng))
                   for _ in range(rng.randint(1, 3))]
            t = build_branch_table(fam)
            monic = reduced_generators(t)
            scaled = reduced_generators_scaled(t)
            assert len(monic) == len(scaled)
            for a, b in zip(monic, scaled):
                assert b.monic() == a


# -- radicands as written ----------------------------------------------------

WRITTEN_POOL = ["x", "(x+1)", "(x-1)", "(x^2-1)", "(x^2+1)", "(x^2-4)",
                "(x^2+2*x+1)", "(x^2+2*x+1)^5", "(x-2)^2", "(-3)", "(2/3)",
                "(-1/2)", "(x/x)", "(x/(x+1)+1)"]
WRITTEN_EXPONENTS = ["0", "1", "2", "3", "5", "(4/2)"]
# zero radicands and divisors, and exponents and names the parser refuses
ERROR_LEAVES = ["(x-x)", "0", "y"]
ERROR_EXPONENTS = ["-1", "(1/2)", "x", "(x-x)"]


def written_texts(leaves, exponents):
    def combine(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("**//+"), children).map("".join),
            children.map(lambda c: f"({c})"),
            children.map(lambda c: f"-{c}"),
            st.tuples(children, st.sampled_from(exponents)).map("^".join),
        )

    return st.recursive(st.sampled_from(leaves), combine, max_leaves=8)


valid_texts = written_texts(WRITTEN_POOL, WRITTEN_EXPONENTS)
any_texts = written_texts(WRITTEN_POOL + ERROR_LEAVES,
                          WRITTEN_EXPONENTS + ERROR_EXPONENTS)


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the error class and message, position included
        return type(exc), str(exc)


def points_by_valuation(cover):
    points = Counter()
    for npoints, v in cover.valuations():
        points[v] += npoints
    return points


def table_facts(radicands):
    t = build_branch_table(radicands)
    s = branch_count(t)
    return s.rank, s.branch_count, multiquadratic_genus_table(t)


class TestWrittenRadicands:
    """parse_written + build_branch_table against parse_expr + the same."""

    @given(any_texts)
    @settings(max_examples=200, deadline=None)
    def test_same_errors_zero_test_and_table(self, text):
        expanded, written = outcome(parse_expr, text), outcome(parse_written, text)
        if isinstance(expanded, tuple):
            assert written == expanded
        else:
            assert written.is_zero == expanded.is_zero
            assert outcome(table_facts, [written]) == \
                outcome(table_facts, [expanded])

    @given(st.lists(valid_texts, min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_same_genus_rank_and_branch_count(self, texts):
        try:
            expanded = [parse_expr(t) for t in texts]
        except ParseError:
            return
        written = [parse_written(t) for t in texts]
        assert outcome(table_facts, written) == outcome(table_facts, expanded)

    @given(valid_texts, st.sampled_from([3, 4, 5]))
    @settings(max_examples=150, deadline=None)
    def test_same_cyclic_genus(self, text, e):
        try:
            expanded = parse_expr(text)
        except ParseError:
            return

        def genus(f):
            return cyclic_cover_genus(CoverSpec(f, e))

        assert outcome(genus, parse_written(text)) == outcome(genus, expanded)

    def test_finer_basis_same_valuations(self):
        text = "(x^2-1)^2*(x^2-4)^2/(x+3)"
        written, expanded = parse_written(text), parse_expr(text)
        t_w, t_e = build_branch_table([written]), build_branch_table([expanded])
        assert [b.degree for b in t_w.basis] == [1, 2, 2]
        assert [b.degree for b in t_e.basis] == [1, 4]
        assert table_facts([written]) == table_facts([expanded])
        assert points_by_valuation(CoverSpec(written, 3)) == \
            points_by_valuation(CoverSpec(expanded, 3)) == {-1: 1, 2: 4, -7: 1}

    def test_products_of_powers_are_never_expanded(self, monkeypatch, capsys):
        muls = count_calls(monkeypatch, poly, "_int_mul")
        pows = count_calls(monkeypatch, poly, "_int_pow")
        assert main(["genus", "--json", "--", "(x+1)^2000/(x^2-1)^1000",
                     "x"]) == 0
        assert '"genus": 0,' in capsys.readouterr().out
        sizes = [len(a) for args in muls + pows for a in args
                 if isinstance(a, list)]
        assert sizes and max(sizes) <= 3
