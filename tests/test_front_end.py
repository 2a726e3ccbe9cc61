"""The integer front end against its Fraction-based references.

squarefree_decompose and coprime_basis run on primitive integer
coefficient lists, and parse_expr evaluates with UPoly, whose arithmetic
runs on integer numerators; tests/oracles.py keeps the versions over Q
and the RatFunc evaluator they replaced.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import upolys
import oracles
from oracles import (
    euclid_gcd_cofactors,
    fraction_coprime_basis,
    fraction_squarefree_decompose,
    ratfunc_parse_expr,
)
from sqrat import parsing, poly
from sqrat.errors import ExprSyntaxError, ParseError
from sqrat.parsing import parse_expr
from sqrat.poly import RatFunc, UPoly, coprime_basis, squarefree_decompose

X = UPoly.x()

SCALES = [1, -1, 6, -4, Fraction(3, 7), Fraction(-1, 12), 1 << 80]


@st.composite
def factored(draw):
    """Rational, non-primitive, negative-leading or constant polynomials
    with repeated factors, one of them up to multiplicity 70."""
    f = UPoly.constant(draw(st.sampled_from(SCALES)))
    for _ in range(draw(st.integers(0, 3))):
        f = f * draw(upolys(2, nonzero=True)) ** draw(st.integers(1, 5))
    if draw(st.booleans()):
        f = f * draw(upolys(1, nonzero=True)) ** draw(st.integers(1, 70))
    return f


families = st.lists(factored(), min_size=1, max_size=4)


@given(factored())
@settings(max_examples=120, deadline=None)
def test_squarefree_matches_fraction_yun(f):
    assert squarefree_decompose(f) == fraction_squarefree_decompose(f)


# factors whose derivatives outgrow them (40*x^3 + x + 1), and gaps in the
# multiplicities that Yun's loop steps over on packed integers
GAP_FACTORS = [X + 2, X - 1, 40 * X**3 + X + 1, X**2 + 1, 3 * X**2 - 7 * X + 2]


@pytest.mark.parametrize("mults", [(1, 60), (3, 17, 40), (2, 4), (5,),
                                   (1, 2, 9), (40, 41)])
@pytest.mark.parametrize("scale", [1, Fraction(-3, 7), 1 << 80])
def test_squarefree_with_gapped_multiplicities(mults, scale):
    f = UPoly.constant(scale)
    for factor, m in zip(GAP_FACTORS[len(mults) % 3:], mults):
        f = f * factor ** m
    decomposition = squarefree_decompose(f)
    assert decomposition == fraction_squarefree_decompose(f)
    assert [m for _, m in decomposition.parts] == sorted(mults)


def test_yun_steps_over_absent_multiplicities(monkeypatch):
    # (x+2)^60 * (x-1): gcd(f, f'), the step that finds x - 1 and one
    # empty step; multiplicities 3..59 cost no gcd of polynomials
    calls = []
    original = poly._int_gcd_cofactors
    monkeypatch.setattr(poly, "_int_gcd_cofactors",
                        lambda f, g: calls.append(1) or original(f, g))
    f = poly._primitive((X + 2) ** 60 * (X - 1))[1]
    parts = poly._int_squarefree(f)
    assert len(calls) <= 3
    assert [(poly._monic(p), i) for p, i in parts] == [(X - 1, 1), (X + 2, 60)]


def test_empty_steps_pack_a_derivative_larger_than_b_and_d():
    # b = x*(45x^3 + x + 1), b' = 180x^3 + 2x + 1 and d = 3: d - j*b' is
    # coprime to b for j = 1, 2 and divisible by x at j = 3.  |b'| = 180
    # outgrows the slots that |b| and |d| alone would ask for, so the
    # width must cover d - j*b' up to j = deg
    b, d = [0, 1, 1, 0, 45], [3]
    assert poly._empty_steps(b, d, poly._int_derivative(b), 4) == 2


@given(families)
@settings(max_examples=60, deadline=None)
def test_coprime_basis_matches_fraction_basis(fs):
    assert coprime_basis(fs) == fraction_coprime_basis(fs)


@given(families)
@settings(max_examples=30, deadline=None)
def test_matches_euclid_references(fs):
    # the references with the Euclidean algorithm over Q in place of the
    # library's gcd: the same basis and decompositions
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "gcd_cofactors", euclid_gcd_cofactors)
        assert coprime_basis(fs) == fraction_coprime_basis(fs)
        assert [squarefree_decompose(f) for f in fs] == [
            fraction_squarefree_decompose(f) for f in fs]


@pytest.mark.parametrize("f,g", [
    ([8, 1], [8, 7, 9]),
    ([5, 10, 10, -6, 1], [9, 1]),
    ([6, -4, 10, -9, 8], [6, -3, -10, 4, 8]),
])
def test_unlucky_evaluation_point_in_the_basis(monkeypatch, f, g):
    # the first evaluation point proposes a false common factor; the
    # heuristic GCD goes on to a second point, and the basis is the one
    # the Euclidean algorithm over Q gives
    calls = []
    original = poly._proven_width
    monkeypatch.setattr(poly, "_proven_width",
                        lambda a, b: calls.append(1) or original(a, b))
    monkeypatch.setattr(oracles, "gcd_cofactors", euclid_gcd_cofactors)
    fs = [UPoly(f), UPoly(g) ** 2]
    assert coprime_basis(fs) == fraction_coprime_basis(fs)
    assert calls


@pytest.mark.parametrize("fs", [
    [UPoly.constant(-3)],
    [-(X - 1) ** 70 * (X + 2)],
    [Fraction(-2, 3) * X ** 2, UPoly.constant(5), (X ** 2 - 1) ** 3],
    [-7 * (X ** 4 - 1) ** 2, 6 * (X ** 2 - 1) ** 5, -(X - 1) ** 11],
])
def test_fixed_families(fs):
    assert coprime_basis(fs) == fraction_coprime_basis(fs)
    assert [squarefree_decompose(f) for f in fs] == [
        fraction_squarefree_decompose(f) for f in fs]


@given(families)
@settings(max_examples=20, deadline=None)
def test_coprime_basis_against_sympy_factor_list(fs):
    """Each basis element is a product of distinct irreducible factors that
    all have the element's exponents, and together they are all of them."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(p):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(p.coeffs)], x, domain="QQ")

    def irreducible_factors(p):
        return [(q.monic(), m) for q, m in sympy.factor_list(to_sympy(p))[1]]

    expected = {}
    for k, f in enumerate(fs):
        for q, m in irreducible_factors(f):
            expected.setdefault(q, [0] * len(fs))[k] = m
    basis, exponents = coprime_basis(fs)
    seen = {}
    for j, b in enumerate(basis):
        column = [row[j] for row in exponents]
        for q, m in irreducible_factors(b):
            assert m == 1 and q not in seen
            seen[q] = column
    assert seen == expected


def test_reconstruction_check_rejects_wrong_exponents(monkeypatch):
    # an integer Yun that reports every multiplicity one too high
    original = poly._int_squarefree

    def inflated(f):
        return [(p, i + 1) for p, i in original(f)]

    monkeypatch.setattr(poly, "_int_squarefree", inflated)
    with pytest.raises(RuntimeError, match="reconstruction failed"):
        coprime_basis([(X - 1) ** 2 * (X + 3)])


# -- the parser against the RatFunc evaluator ---------------------------------

leaves = st.sampled_from(["x", "0", "1", "2", "3", "12", "(x-x)", "y"])
exponents = st.sampled_from(["0", "1", "2", "3", "(4/2)", "-1", "(1/2)", "x",
                             "(x-x)", "(2-2)"])


def _combine(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map("".join),
        children.map(lambda c: f"({c})"),
        children.map(lambda c: f"-{c}"),
        st.tuples(children, exponents).map("^".join),
    )


expressions = st.tuples(
    st.recursive(leaves, _combine, max_leaves=10),
    st.sampled_from(["", "", "", "+", ")", "(", "^^2", " 2", "*"]),
).map("".join)


def outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # the error class and message, position included
        return type(exc), str(exc)


@given(expressions)
@settings(max_examples=300, deadline=None)
def test_parser_matches_ratfunc_evaluator(text):
    assert outcome(parse_expr, text) == outcome(ratfunc_parse_expr, text)


@given(expressions)
@settings(max_examples=200, deadline=None)
def test_value_within_its_bound(text):
    try:
        value = parse_expr(text)
    except ParseError:
        return
    bound = parsing._Parser(text).expr().bound
    assert (value.num.degree or 0) <= bound.num_degree
    assert value.den.degree <= bound.den_degree


@given(st.text(alphabet="x0123456789+-*/^() \t\n\u00a0\u00b2\u0663.#$yzé_", max_size=30))
@settings(max_examples=300, deadline=None)
def test_parser_matches_on_junk(text):
    assert outcome(parse_expr, text) == outcome(ratfunc_parse_expr, text)


@pytest.mark.parametrize("text", [
    "x/2", "(x^2-1)/3*x", "6/4", "1/(1/2)", "x^(4/2)", "2^-1", "x/(x-x)",
    "(x+1)/(x+1)", "x/(x+1)*(x+1)", "(1/x)^3*x^3", "(x-1)/x^2 + 1/x",
    "2^3^2", "0^0", "x^0", "(0)^3", "-x^2", "x - - 1", "((x))",
    "3/(x-x+2)", "1/(x^2-1) - 1/(x-1)", "(2*x+1)^5/(4*x+2)^2",
    # zero divisors, found without computing their products and powers
    "1/((x-x)^2)", "1/(0^0)", "1/(x^2-x*x)", "1/(-(x-x)*(x+1))",
    # rational constants and constant divisors
    "x/2*3/4", "(x+1/2)^3/(1/3)", "-(x-1/2)^2", "(x^2-1)/(-2)", "0*x^5",
    "2^3/(x-x+4)", "(1/x+1/2)*(2/3)", "x/(2/x)", "(2/x)^2*x^2/4",
    "x + x/3 - 1/6", "x/4 - x/6 + 1", "(x/2)^3 - x^3/8",
    # a small value over the budget: 5^3000 with an Arabic-Indic 3
    "5^\u0663000",
    # quotients of powers, coprime or not, and quotients scaled by
    # constants or shifted by polynomials
    "x^3/(x+1)^3", "(x+1)^3/(x^2-1)^2", "(x^2-1)^2/(x+1)^3", "(2*x+1)^3/(4*x+2)",
    "(x+1)^3/(x+2)^3/3", "3*((x+1)/(x+2))^2", "((x+1)/(x+2))^2*(-3/2)",
    "2/((x+1)/(3*x+2))", "(x+1)/(x+2)+x^2", "x^2-(2*x+1)/(x+2)",
    "(1/(x+1))^0/(x+2)", "0^0/(x+1)", "0/(x+1)^2", "(x-x)*((x+1)/(x+2))",
    # a RatFunc to the power 0 is the constant 1, so these divisors are zero
    "x/(((x+1)/(x+2))^0-1)", "x/(((x+1)/(x+2))^0*3-3)",
    # nested powers, with and without a factor shared with the other side
    "(x+1)^4/((x^2-1)^2)^1", "((x+1)^2)^3/(x^2-1)", "(x^2-1)/((x+1)^2)^3",
    "((x+2)^2)^3/(x^2-1)", "(x^2-1)^1/(x+1)", "((x+1)^2)^0/(x+1)",
    # nested exponents, folded into one power as the tree is read: zero
    # bases and exponents, zero divisors, and limits at the outer "^"
    "((x+1)^0)^3", "((x-x)^0)^2", "((x-x)^2)^0", "(0^3)^0", "(0^0)^5",
    "x/((x-x)^2)^3", "x/((x-x)^0)^3", "x/((x-x)^3)^0", "x/((0^2)^0-1)",
    "(((x+1)^2)^3)^2", "((x+1)^3)^4/(x+1)^5", "((2*x-1)^2)^(1+1)",
    "((x+1/2)^2)^3", "(((x+1)/(x+2))^2)^3", "((x+1)^64)^65",
    "((x+1)^2)^4097", "(x^2)^-1", "(x^2)^x",
])
def test_parser_fixed_cases(text):
    assert outcome(parse_expr, text) == outcome(ratfunc_parse_expr, text)


def test_divisor_zero_test_computes_no_power(monkeypatch):
    # the divisor (x+1)^2048 is nonzero because x+1 is: the budget error
    # at the last "*" comes before any power is computed (every UPoly power
    # goes through poly._int_pow)
    calls = []
    original = poly._int_pow

    def counting(f, n):
        calls.append(n)
        return original(f, n)

    monkeypatch.setattr(poly, "_int_pow", counting)
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("1/(x+1)^2048*x^4096*x")
    assert info.value.position == 19
    assert str(info.value) == (
        "at position 19: expression too large: degree up to 4097, "
        "coefficients up to 2^2048 (limits 4096 and 2^8192)")
    assert calls == []
    value = parse_expr("1/(x+1)^3")
    assert calls == [3]
    monkeypatch.undo()
    assert value == ratfunc_parse_expr("1/(x+1)^3")


def test_nested_powers_are_one_power(monkeypatch):
    # ((x+1)^8)^8 is raised once, from the short base x + 1, as (x+1)^64 is
    calls = []
    original = poly._int_pow
    monkeypatch.setattr(poly, "_int_pow",
                        lambda f, n: calls.append((f, n)) or original(f, n))
    assert parse_expr("((x+1)^8)^8") == parse_expr("(x+1)^64")
    assert calls == [([1, 1], 64)] * 2


@pytest.mark.parametrize("text", [
    "(x-1)^3*(x^2+2*x-3)*(x+5)", "x^5-3*x+2", "(2*x+1)^9*(x-7)^4*3",
    "-(x^2+1)^2*(x-x+2)/4",
])
def test_polynomial_text_makes_no_ratfunc(monkeypatch, text):
    # values stay UPolys, whose products are integer products: the only
    # RatFunc is the result, and no gcd is taken
    built, gcds = [], []
    original_init = RatFunc.__init__
    original_gcd = poly.gcd_cofactors
    monkeypatch.setattr(RatFunc, "__init__", lambda self, *args: (
        built.append(args) or original_init(self, *args)))
    monkeypatch.setattr(poly, "gcd_cofactors", lambda a, b: (
        gcds.append((a, b)) or original_gcd(a, b)))
    value = parse_expr(text)
    assert len(built) == 1 and gcds == []
    monkeypatch.undo()
    assert value == ratfunc_parse_expr(text)


# -- quotients that are reduced without a gcd of the large operands ------------

POWER_BASES = ["x", "x+1", "x-1", "2*x+1", "x^2-1", "x^2+x+1", "(x+1)*(x-2)",
               "3", "x^2+2*x+1"]


@given(st.sampled_from(POWER_BASES), st.integers(0, 12),
       st.sampled_from(POWER_BASES), st.integers(1, 12),
       st.sampled_from(["{}/{}", "{}*x/{}", "1/{}/{}", "({})^1/{}",
                        "{}/({})^2"]),
       st.sampled_from(["", "/3", "*(-2)", "+1", "-x^2", "*(x+1)"]),
       st.sampled_from(["", "3*", "x-", "2/"]))
@settings(max_examples=200, deadline=None)
def test_quotients_of_powers_match_ratfunc_evaluator(p, a, q, b, form,
                                                     suffix, prefix):
    text = prefix + "(" + form.format(f"({p})^{a}", f"({q})^{b}") + ")" + suffix
    assert outcome(parse_expr, text) == outcome(ratfunc_parse_expr, text)


def test_quotient_of_coprime_powers_takes_only_small_gcds(monkeypatch):
    big = []
    real_cofactors = poly.gcd_cofactors
    real_int = parsing._int_gcd_cofactors

    def cofactors(a, b):
        big.append((a.degree, b.degree))
        return real_cofactors(a, b)

    def int_cofactors(f, g):
        if min(len(f), len(g)) > 2:
            big.append((len(f) - 1, len(g) - 1))
        return real_int(f, g)

    monkeypatch.setattr(poly, "gcd_cofactors", cofactors)
    monkeypatch.setattr(parsing, "_int_gcd_cofactors", int_cofactors)
    value = parse_expr("x^2048/(x+1)^2048")
    assert big == []
    assert value.num == X ** 2048 and value.den == (X + 1) ** 2048


def test_quotient_with_a_shared_factor_takes_one_large_gcd(monkeypatch):
    # the power on the right is ((x^2-1)^20)^1: its base is x^2-1, and the
    # small gcds with x^2-1 and x+1 find the shared factor x+1 before the
    # one gcd of the large operands
    large = []
    small = []
    real_cofactors = poly.gcd_cofactors
    real_int = parsing._int_gcd_cofactors

    def cofactors(a, b):
        large.append((a.degree, b.degree))
        return real_cofactors(a, b)

    def int_cofactors(f, g):
        small.append(min(len(f), len(g)) - 1)
        return real_int(f, g)

    monkeypatch.setattr(poly, "gcd_cofactors", cofactors)
    monkeypatch.setattr(parsing, "_int_gcd_cofactors", int_cofactors)
    value = parse_expr("(x+1)^40/((x^2-1)^20)^1")
    assert large == [(40, 40)]
    assert sorted(small) == [1, 2]
    assert value.num == (X + 1) ** 20 and value.den == (X - 1) ** 20
