"""Expression and radicand-file parsing.

Grammar (standard precedence, ^ binds tightest and right-associatively):

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := atom ("^" unary)?
    atom    := INTEGER | "x" | "(" expr ")"

Integers are arbitrary precision; rationals are written with "/" (so 1/2
is ordinary division).  The exponent of ^ must evaluate to a nonnegative
integer constant.  Parentheses, unary minus and exponents nest at most
MAX_NESTING deep.  Only the variable x is accepted: any other name is
rejected with an error naming multivariate input as out of scope.  Every
input either parses to a value or raises a structured ParseError carrying
the character position; the parser never dies on arbitrary bytes.

Radicand files hold one radicand per line, UTF-8, with # comments and
blank lines ignored and an optional "root[e]:" prefix selecting the root
order (default 2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    DivisionByZeroExpressionError,
    EmptyInputError,
    ExprSyntaxError,
    NegativeExponentError,
    ParseError,
    UnsupportedVariableError,
    ZeroRadicandError,
)
from .poly import RatFunc, UPoly

MAX_EXPONENT = 4096
MAX_NESTING = 100

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|([()+\-*/^]))")
_ROOT_PREFIX_RE = re.compile(r"^root\[(\d+)\]\s*:\s*(.*)$")


@dataclass(frozen=True)
class Token:
    kind: str  # "int", "name", or the operator/paren character itself
    text: str
    position: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == match.start():
            # skip pure whitespace tail
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}",
                                  position=bad)
        if match.group(1) is not None:
            tokens.append(Token("int", match.group(1), match.start(1)))
        elif match.group(2) is not None:
            tokens.append(Token("name", match.group(2), match.start(2)))
        else:
            op = match.group(3)
            tokens.append(Token(op, op, match.start(3)))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input",
                                  position=len(self.text))
        self.index += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            pos = tok.position if tok else len(self.text)
            raise ExprSyntaxError(f"expected {kind!r}", position=pos)
        return self.advance()

    def parse(self) -> RatFunc:
        if not self.tokens:
            raise ExprSyntaxError("expected an expression", position=0)
        value = self.expr()
        leftover = self.peek()
        if leftover is not None:
            raise ExprSyntaxError(f"unexpected {leftover.text!r}",
                                  position=leftover.position)
        return value

    def expr(self) -> RatFunc:
        value = self.term()
        while (tok := self.peek()) is not None and tok.kind in "+-":
            self.advance()
            rhs = self.term()
            value = value + rhs if tok.kind == "+" else value - rhs
        return value

    def term(self) -> RatFunc:
        value = self.unary()
        while (tok := self.peek()) is not None and tok.kind in "*/":
            self.advance()
            rhs = self.unary()
            if tok.kind == "*":
                value = value * rhs
            else:
                if rhs.is_zero:
                    raise DivisionByZeroExpressionError(
                        "denominator is identically zero",
                        position=tok.position)
                value = value / rhs
        return value

    def unary(self) -> RatFunc:
        # every nested construct ("(", unary "-", the exponent of "^")
        # recurses through here, so this bounds the recursion depth
        tok = self.peek()
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(
                f"expression nested too deeply (limit {MAX_NESTING})",
                position=tok.position if tok else len(self.text))
        self.depth += 1
        if tok is not None and tok.kind == "-":
            self.advance()
            value = -self.unary()
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self) -> RatFunc:
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.advance()
            exponent = self.unary()
            if not exponent.is_constant:
                raise ExprSyntaxError("exponent must be a constant",
                                      position=tok.position)
            value = exponent.as_fraction
            if value.denominator != 1:
                raise ExprSyntaxError(
                    "exponent must be a nonnegative integer",
                    position=tok.position)
            if value < 0:
                raise NegativeExponentError(
                    "negative exponents are not allowed",
                    position=tok.position)
            n = int(value)
            if n > MAX_EXPONENT:
                raise ExprSyntaxError(
                    f"exponent too large (limit {MAX_EXPONENT})",
                    position=tok.position)
            return base ** n
        return base

    def atom(self) -> RatFunc:
        tok = self.advance()
        if tok.kind == "int":
            return RatFunc(int(tok.text))
        if tok.kind == "name":
            if tok.text == "x":
                return RatFunc(UPoly.x())
            raise UnsupportedVariableError(
                f"variable {tok.text!r} not supported: multivariate input "
                "is out of scope (only x)",
                position=tok.position)
        if tok.kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ExprSyntaxError(f"unexpected {tok.text!r}",
                              position=tok.position)


def parse_expr(text: str) -> RatFunc:
    """Parse an expression into an exact rational function of x."""
    if not isinstance(text, str):
        raise TypeError("parse_expr expects a string")
    return _Parser(text).parse()


@dataclass(frozen=True)
class RadicandSpec:
    """One radicand as read from a file: source text, value, root order."""

    text: str
    expr: RatFunc
    root_order: int = 2


def parse_radicand_file(text: str) -> list[RadicandSpec]:
    """Parse a radicand file: one radicand per noncomment line.

    Lines starting with # (after whitespace) and blank lines are skipped;
    a "root[e]:" prefix with e >= 2 selects the root order.  Parse errors
    are re-raised with the 1-based line number; a file with no radicands
    raises EmptyInputError.
    """
    specs: list[RadicandSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        order = 2
        body = line
        prefix = _ROOT_PREFIX_RE.match(line)
        if prefix is not None:
            order = int(prefix.group(1))
            if order < 2:
                raise ParseError("root order must be at least 2", line=lineno)
            body = prefix.group(2)
        try:
            value = parse_expr(body)
        except ParseError as exc:
            raise type(exc)(exc.message, position=exc.position,
                            line=lineno) from None
        if value.is_zero:
            raise ZeroRadicandError(f"line {lineno}: radicand is zero")
        specs.append(RadicandSpec(text=body.strip(), expr=value,
                                  root_order=order))
    if not specs:
        raise EmptyInputError("no radicands found in input")
    return specs
