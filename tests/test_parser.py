"""Expression grammar, radicand files, robustness on arbitrary input."""

import random
import time
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEEP_INPUT_IDS, DEEP_INPUTS, ratfuncs
from sqrat.errors import (
    DivisionByZeroExpressionError,
    EmptyInputError,
    ExprSyntaxError,
    NegativeExponentError,
    ParseError,
    UnsupportedVariableError,
    ZeroRadicandError,
)
from sqrat.cli import main
from sqrat.parsing import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_NESTING,
    parse_expr,
    parse_radicand_file,
)
from sqrat.poly import RatFunc, UPoly

X = UPoly.x()


class TestGrammar:
    @pytest.mark.parametrize("text,expected", [
        ("x^2 - 4*x", RatFunc(X**2 - 4 * X)),
        ("(x-1)*(x-2)", RatFunc(X**2 - 3 * X + 2)),
        ("1/2", RatFunc(1, 2)),
        ("3/2*x", RatFunc(3 * X, 2)),
        ("-x^2 + 1", RatFunc(1 - X**2)),
        ("x - - 1", RatFunc(X + 1)),
        ("2^3^2", RatFunc(512)),
        ("(x-1)/x^2", RatFunc(X - 1, X**2)),
        ("x*x*x", RatFunc(X**3)),
        ("0", RatFunc(0)),
    ])
    def test_values(self, text, expected):
        assert parse_expr(text) == expected

    def test_precedence(self):
        assert parse_expr("1+2*3") == RatFunc(7)
        assert parse_expr("(1+2)*3") == RatFunc(9)
        assert parse_expr("2*x^2") == RatFunc(2 * X**2)
        assert parse_expr("-x^2") == RatFunc(-(X**2))

    def test_negative_exponent(self):
        with pytest.raises(NegativeExponentError):
            parse_expr("x^(-1)")

    def test_fractional_exponent(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x^(1/2)")

    def test_non_constant_exponent(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x^x")

    def test_foreign_variable(self):
        with pytest.raises(UnsupportedVariableError) as info:
            parse_expr("x*y + 1")
        assert "out of scope" in str(info.value)

    def test_division_by_zero_expression(self):
        with pytest.raises(DivisionByZeroExpressionError):
            parse_expr("1/(x-x)")

    def test_syntax_error_positions(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("x + + 1")
        assert info.value.position == 4

    @given(value=ratfuncs(4))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, value):
        assert parse_expr(value.to_str()) == value


class TestRadicandFile:
    def test_three_lines(self):
        specs = parse_radicand_file("x\n4*x+1\nx^2-4*x")
        assert [s.text for s in specs] == ["x", "4*x+1", "x^2-4*x"]
        assert [s.root_order for s in specs] == [2, 2, 2]
        assert specs[2].expr == RatFunc(X**2 - 4 * X)

    def test_root_order_prefix(self):
        specs = parse_radicand_file("root[3]: x*(x-1)*(x-2)")
        assert len(specs) == 1 and specs[0].root_order == 3

    def test_comments_and_blanks(self):
        specs = parse_radicand_file("# comment\n\nx-1")
        assert len(specs) == 1 and specs[0].expr == RatFunc(X - 1)

    def test_line_number_in_errors(self):
        with pytest.raises(ParseError) as info:
            parse_radicand_file("x\nx^^2")
        assert info.value.line == 2

    def test_empty_file(self):
        with pytest.raises(EmptyInputError):
            parse_radicand_file("# nothing here\n\n")

    def test_zero_radicand(self):
        with pytest.raises(ZeroRadicandError):
            parse_radicand_file("x - x")

    def test_bad_root_order(self):
        with pytest.raises(ParseError):
            parse_radicand_file("root[1]: x")


class TestRobustness:
    @pytest.mark.parametrize("text,position", DEEP_INPUTS, ids=DEEP_INPUT_IDS)
    def test_deep_nesting_is_a_syntax_error(self, text, position):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text)
        assert info.value.position == position
        assert "nested too deeply" in str(info.value)

    def test_nesting_below_the_limit_parses(self):
        depth = MAX_NESTING - 1
        assert parse_expr("(" * depth + "x" + ")" * depth) == RatFunc(X)
        assert parse_expr("-" * depth + "x") == RatFunc(-X)
        assert parse_expr("2^" * 2 + "2") == RatFunc(16)

    def test_structured_errors_on_junk(self):
        rng = random.Random(99)
        alphabet = "x0123456789+-*/^() \t.#$yz\\"
        for _ in range(2000):
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(0, 30)))
            try:
                parse_expr(text)
            except ParseError:
                pass

    def test_arbitrary_bytes(self):
        rng = random.Random(100)
        for _ in range(2000):
            text = rng.randbytes(rng.randint(0, 40)).decode("latin-1")
            try:
                parse_expr(text)
            except ParseError:
                pass


# every base has degree >= 1 or a 1-norm bound of at least 2^2 (for
# numerator or denominator), so a power of it with exponent product above
# MAX_DEGREE is over the budget
BUDGET_BASES = ["x", "3", "(x+1)", "(2*x-3)", "(x^2+x+1)", "12345", "(x/3+1)",
                "(5/7)", "(1/2+1/3)", "(x+1/2)", "(1/x+1)", "(x/(x+1)+1/(x-2))"]
BIG_FACTORS = ["x", "(x+1)", "x^4096", "(x^2+1)^2048", "2^4096", "(3*x-1)^1000",
               "x^5/7", "(x+1)^4096", "1/(x+1)", "(x+1/2)", "(1/x+1/(x+2))",
               "(x-1)^9/(x+3)^7"]


@st.composite
def towers(draw):
    text = draw(st.sampled_from(BUDGET_BASES))
    exps = draw(st.lists(st.integers(2, MAX_EXPONENT), min_size=2, max_size=5)
                .filter(lambda es: prod(es) > MAX_DEGREE))
    if draw(st.booleans()):
        for e in exps:
            text = f"({text})^{e}"
    else:  # right-associative: the exponent itself is a tower
        text += "".join(f"^{e}" for e in exps)
    return text


@st.composite
def long_products(draw):
    # each factor but 2^4096 adds at least 1 to deg N + deg D, so 2*MAX_DEGREE+1
    # of them pass MAX_DEGREE on one side even when numerators and
    # denominators alternate, as in x*1/(x+1)*x*...
    factors = draw(st.lists(st.sampled_from(BIG_FACTORS), min_size=1, max_size=4))
    return "*".join(factors[i % len(factors)] for i in range(2 * MAX_DEGREE + 1))


@st.composite
def fraction_sums(draw):
    # denominators multiply in a sum, so its degree and bits add up
    count = draw(st.integers(2, 40))
    start = draw(st.integers(1, 50))
    if draw(st.booleans()):
        terms = [f"1/(x+{k})" for k in range(start, start + count)]
        exponent = MAX_DEGREE // count + 1
    else:
        terms = ["x"] + [f"1/{k}" for k in range(start + 1, start + count)]
        exponent = MAX_COEFF_BITS // count + 1
    return "(" + "+".join(terms) + f")^{exponent}"


class TestCostBudget:
    @given(st.one_of(towers(), long_products(), fraction_sums()))
    @settings(max_examples=40, deadline=None)
    def test_over_budget_is_a_parse_error_within_a_second(self, text):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_expr(text)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("text", [
        "((x+1)^4096)^4096", "((2^4096)^4096)^4096", "x^4096*x",
        "(x^2+1)^2048*(x^2+1)^2048*(x^2+1)",
    ])
    def test_cli_exits_2(self, capsys, text):
        assert main(["decide", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: at position") and "too large" in err

    def test_error_at_the_operator(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("((x+1)^4096)^2")
        assert info.value.position == 12
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("x^4000 * x^97")
        assert info.value.position == 7

    @pytest.mark.parametrize("text,position", [
        # a sum of rational functions: degree 51,200 once raised to 512
        ("(" + "+".join(f"1/(x+{k})" for k in range(1, 101)) + ")^512", 893),
        # coefficients of about 560k bits once raised to 390; the sum's own
        # denominator passes the budget at the term 1/921
        ("(x+" + "+".join(f"1/{k}" for k in range(2, 1001)) + ")^390", 5410),
    ], ids=["rational-functions", "fractions"])
    def test_sums_of_fractions(self, text, position):
        start = time.perf_counter()
        with pytest.raises(ExprSyntaxError, match="too large") as info:
            parse_expr(text)
        assert time.perf_counter() - start < 1.0
        assert info.value.position == position
        assert text[position] in "^+"

    def test_integer_literals(self):
        assert parse_expr(str(2 ** MAX_COEFF_BITS)) == RatFunc(2 ** MAX_COEFF_BITS)
        assert parse_expr("0" * 5000 + "7") == RatFunc(7)
        for text in [str(2 ** MAX_COEFF_BITS + 1), "9" * 5000, "x+" + "9" * 10**5]:
            with pytest.raises(ExprSyntaxError, match="integer too large"):
                parse_expr(text)

    @pytest.mark.parametrize("text", [
        "(x+1)^4096", "((x+1)^64)^64", "2^4096", "x^4096", "(x^2+1)^2048",
        "(1/(x+1)+1/(x+2))^2048", "(x+1/2+1/3)^1024",
    ])
    def test_budget_admits(self, text):
        # the trailing error is reached only once the budget admitted the
        # power, and no power is computed before the whole text is read
        start = time.perf_counter()
        with pytest.raises(UnsupportedVariableError):
            parse_expr(text + " + y")
        assert time.perf_counter() - start < 1.0

    def test_limits(self):
        assert MAX_DEGREE >= MAX_EXPONENT
        assert parse_expr("x^4096").num.degree == 4096
        assert parse_expr("2^4096") == RatFunc(2 ** 4096)
        assert MAX_COEFF_BITS >= 2 * MAX_EXPONENT  # (x+1/2)^4096: bound 2^(2*4096)
