"""Expression grammar, radicand files, robustness on arbitrary input."""

import random

import pytest
from hypothesis import given, settings

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
from sqrat.parsing import MAX_NESTING, parse_expr, parse_radicand_file
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
