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

Parsing reads the whole text into a tree first.  Each node carries a
_Bound: the degrees of an integer numerator N and denominator D with
value N/D, and log2 bounds on their 1-norms (sums of absolute
coefficients), which bound every coefficient.  The 1-norm is
submultiplicative, so products, quotients and powers add or multiply the
bounds; a sum is put over the product of its terms' denominators, so
those degrees and bits add up.  Every intermediate value of the
evaluation is a partial sum, product or power of its node's, within the
node's bounds.  A sum, product, quotient or power whose bounds pass
MAX_DEGREE or MAX_COEFF_BITS is an ExprSyntaxError at its operator,
raised before anything is computed; only exponents (which must be
constants) are evaluated while the tree is read, and divisors are tested
for zero, so errors come in text order.  The zero test evaluates only
sums and leaves: a product is zero iff one of its factors is, a power
iff its base is and the exponent is positive, and a negation iff its
operand is.  The tree is then evaluated with the operators of UPoly and
RatFunc.  A value is a UPoly, whose arithmetic runs on integer numerators
over one denominator, or a RatFunc whose denominator is not 1; a RatFunc
result over 1 is demoted to its numerator.  So sums, products, powers and
divisions by constants of polynomials are integer list operations, and a
RatFunc is built only at a "/" whose divisor is not constant, or for the
result.  A power of a power, (p^a)^b, is read as the one node p^(a*b),
with the same bound, and powers of short bases take no product of
polynomials (poly._int_pow).
RatFunc steps reduce by a gcd only when they must: a quotient with a
power p^a as one operand is coprime when p is coprime to the other, a
small gcd in place of the large one, and RatFunc arithmetic with a
constant or polynomial operand keeps N/D reduced without one.

parse_written reads the same tree, with the same errors, into the
radicand as written (lattice.Written): (factor, exponent) pairs whose
factors are the values of the tree's sums and leaves.  Products,
quotients, powers and negations are walked, never multiplied: below a "/"
the exponent is negated, p^0 drops out, and constant factors drop out,
since constants are squares over C.  A zero factor, which can only have a
positive exponent because a zero divisor is an error, makes the radicand
zero.  The genus reads only valuations, and the valuations of a product
of powers are sums of its factors', so the genus command takes its
radicands this way and never expands (x+1)^2000/(x^2-1)^1000.

Radicand files hold one radicand per line, UTF-8, with # comments and
blank lines ignored and an optional "root[e]:" prefix selecting the root
order (default 2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Union

from .errors import (
    DivisionByZeroExpressionError,
    EmptyInputError,
    ExprSyntaxError,
    NegativeExponentError,
    ParseError,
    UnsupportedVariableError,
    ZeroRadicandError,
)
from .lattice import Written
from .poly import RatFunc, UPoly, _coprime_ratfunc, _int_gcd_cofactors, _upoly

MAX_EXPONENT = 4096
MAX_NESTING = 100
# cost budget: bounds on the degrees and coefficient bits of every sum,
# product, quotient and power, checked before it is computed
MAX_DEGREE = 4096
MAX_COEFF_BITS = 8192

# the last group catches any other character, so that it is an error
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|([()+\-*/^])|(\S))")
_ROOT_PREFIX_RE = re.compile(r"^root\[(\d+)\]\s*:\s*(.*)$")


class Token(NamedTuple):
    kind: str  # "int", "name", or the operator/paren character itself
    text: str
    position: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        group = match.lastindex
        token = match.group(group)
        if group == 4:
            raise ExprSyntaxError(f"unexpected character {token!r}",
                                  position=match.start(4))
        kind = "int" if group == 1 else "name" if group == 2 else token
        tokens.append(Token(kind, token, match.start(group)))
    return tokens


class _Bound(NamedTuple):
    """Size of a value N/D with N and D integer polynomials, not reduced.

    The 1-norms of N and D are at most 2^num_bits and 2^den_bits.
    """

    num_degree: int
    num_bits: int
    den_degree: int
    den_bits: int

    def __mul__(self, other: _Bound) -> _Bound:
        return _Bound(self.num_degree + other.num_degree,
                      self.num_bits + other.num_bits,
                      self.den_degree + other.den_degree,
                      self.den_bits + other.den_bits)

    def __truediv__(self, other: _Bound) -> _Bound:
        return self * _Bound(other.den_degree, other.den_bits,
                             other.num_degree, other.num_bits)

    def __pow__(self, n: int) -> _Bound:
        return _Bound(*(b * n for b in self))


class _SumBound:
    """_Bound of a1 ± ... ± am = (sum of ±Ni * prod_{j != i} Dj) / prod Dj."""

    def __init__(self, first: _Bound):
        self.terms = 0
        self.den_degree = self.den_bits = 0
        # max over the terms of deg(Ni) - deg(Di) and of the same for bits
        self.excess_degree = first.num_degree - first.den_degree
        self.excess_bits = first.num_bits - first.den_bits
        self.add(first)

    def add(self, b: _Bound) -> _Bound:
        self.terms += 1
        self.den_degree += b.den_degree
        self.den_bits += b.den_bits
        self.excess_degree = max(self.excess_degree,
                                 b.num_degree - b.den_degree)
        self.excess_bits = max(self.excess_bits, b.num_bits - b.den_bits)
        # |N|_1 <= m * max_i |Ni|_1 * prod_{j != i} |Dj|_1
        return _Bound(self.excess_degree + self.den_degree,
                      self.excess_bits + self.den_bits
                      + (self.terms - 1).bit_length(),
                      self.den_degree, self.den_bits)


class _Node:
    """A parsed subexpression: how to evaluate it, and a _Bound on its value.

    value is set once the node has been evaluated.
    """

    __slots__ = ("op", "args", "bound", "value")

    def __init__(self, op: str, args, bound: _Bound, value=None):
        self.op = op
        self.args = args
        self.bound = bound
        self.value = value


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

    def parse(self) -> _Node:
        if not self.tokens:
            raise ExprSyntaxError("expected an expression", position=0)
        node = self.expr()
        leftover = self.peek()
        if leftover is not None:
            raise ExprSyntaxError(f"unexpected {leftover.text!r}",
                                  position=leftover.position)
        return node

    def expr(self) -> _Node:
        node = self.term()
        terms = None
        while (tok := self.peek()) is not None and tok.kind in "+-":
            self.advance()
            if terms is None:
                terms = [("+", node)]
                bound = _SumBound(node.bound)
            rhs = self.term()
            total = bound.add(rhs.bound)
            _check_budget(total, tok)
            terms.append((tok.kind, rhs))
        if terms is None:
            return node
        return _Node("sum", terms, total)

    def term(self) -> _Node:
        node = self.unary()
        factors = None
        while (tok := self.peek()) is not None and tok.kind in "*/":
            self.advance()
            rhs = self.unary()
            if factors is None:
                factors = [("*", node)]
                bound = node.bound
            if tok.kind == "*":
                bound = bound * rhs.bound
            else:
                bound = bound / rhs.bound
            _check_budget(bound, tok)
            if tok.kind == "/" and _is_zero(rhs):
                raise DivisionByZeroExpressionError(
                    "denominator is identically zero",
                    position=tok.position)
            factors.append((tok.kind, rhs))
        if factors is None:
            return node
        return _Node("product", factors, bound)

    def unary(self) -> _Node:
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
            inner = self.unary()
            node = _Node("neg", inner, inner.bound)
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> _Node:
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.advance()
            exponent = _evaluate(self.unary())
            if not (isinstance(exponent, UPoly) and exponent.is_constant):
                raise ExprSyntaxError("exponent must be a constant",
                                      position=tok.position)
            c = exponent.coeff(0)
            if c.denominator != 1:
                raise ExprSyntaxError(
                    "exponent must be a nonnegative integer",
                    position=tok.position)
            n = c.numerator
            if n < 0:
                raise NegativeExponentError(
                    "negative exponents are not allowed",
                    position=tok.position)
            if n > MAX_EXPONENT:
                raise ExprSyntaxError(
                    f"exponent too large (limit {MAX_EXPONENT})",
                    position=tok.position)
            bound = base.bound ** n
            _check_budget(bound, tok)
            if base.op == "power":  # (p^a)^n = p^(a*n), one node
                base, a = base.args
                n *= a
            return _Node("power", (base, n), bound)
        return base

    def atom(self) -> _Node:
        tok = self.advance()
        if tok.kind == "int":
            digits = tok.text.lstrip("0") or "0"
            # a digit is more than 3 bits, and int() refuses long strings
            n = int(digits) if 3 * len(digits) <= MAX_COEFF_BITS else None
            if n is None or n > 1 << MAX_COEFF_BITS:
                raise ExprSyntaxError(
                    f"integer too large (limit 2^{MAX_COEFF_BITS})",
                    position=tok.position)
            # the least b with n <= 2^b
            bits = (n - 1).bit_length() if n else 0
            return _Node("leaf", None, _Bound(0, bits, 0, 0),
                         _upoly([n] if n else []))
        if tok.kind == "name":
            if tok.text == "x":
                return _Node("leaf", None, _X_BOUND, _X)
            raise UnsupportedVariableError(
                f"variable {tok.text!r} not supported: multivariate input "
                "is out of scope (only x)",
                position=tok.position)
        if tok.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError(f"unexpected {tok.text!r}",
                              position=tok.position)


def _check_budget(bound: _Bound, tok: Token):
    degree = max(bound.num_degree, bound.den_degree)
    bits = max(bound.num_bits, bound.den_bits)
    if degree > MAX_DEGREE or bits > MAX_COEFF_BITS:
        raise ExprSyntaxError(
            f"expression too large: degree up to {degree}, coefficients "
            f"up to 2^{bits} (limits {MAX_DEGREE} and 2^{MAX_COEFF_BITS})",
            position=tok.position)


_X = UPoly.x()
_X_BOUND = _Bound(1, 0, 0, 0)

Value = Union[UPoly, RatFunc]


def _evaluate(node: _Node) -> Value:
    """Value of a node: a UPoly, or a RatFunc whose denominator is not 1."""
    if node.value is None:
        node.value = _EVALUATORS[node.op](node.args)
    return node.value


def _is_zero(node: _Node) -> bool:
    """Whether the value of node is zero; only sums and leaves are evaluated."""
    if node.op == "neg":
        return _is_zero(node.args)
    if node.op == "product":
        return any(op == "*" and _is_zero(factor) for op, factor in node.args)
    if node.op == "power":
        base, n = node.args
        return n > 0 and _is_zero(base)
    return not _evaluate(node)


def _evaluate_neg(inner: _Node) -> Value:
    return -_evaluate(inner)


def _evaluate_sum(terms) -> Value:
    value = _evaluate(terms[0][1])
    for sign, node in terms[1:]:
        rhs = _evaluate(node)
        value = _demoted(value + rhs if sign == "+" else value - rhs)
    return value


def _evaluate_product(factors) -> Value:
    left = factors[0][1]  # the node of value, while value is one factor
    value = _evaluate(left)
    for op, node in factors[1:]:
        rhs = _evaluate(node)
        if op == "*":
            value = value * rhs
        elif isinstance(rhs, UPoly) and rhs.is_constant:
            value = value / rhs.leading
        elif (isinstance(value, UPoly) and isinstance(rhs, UPoly) and value
              and (_power_coprime_to(node, value)
                   or _power_coprime_to(left, rhs))):
            value = _coprime_ratfunc(value, rhs)
        else:
            value = _as_ratfunc(value) / rhs
        value = _demoted(value)
        left = None
    return value


def _power_coprime_to(node: _Node | None, other: UPoly) -> bool:
    """Whether node is a power p^a, a >= 2, of a polynomial p coprime to other.

    gcd(p^a, D) = 1 iff gcd(p, D) = 1, so the gcd taken is the small one.
    The parser folds nested powers, so p is not a power; with a = 1 the
    base is the operand itself and no gcd is taken.
    """
    if node is None or node.op != "power" or node.args[1] < 2:
        return False
    base = _evaluate(node.args[0])
    return (isinstance(base, UPoly) and bool(base)
            and len(_int_gcd_cofactors(base._ints, other._ints)[0]) == 1)


def _evaluate_power(args) -> Value:
    base, n = args
    if not n:
        return UPoly.one()
    return _evaluate(base) ** n


_EVALUATORS = {
    "neg": _evaluate_neg,
    "sum": _evaluate_sum,
    "product": _evaluate_product,
    "power": _evaluate_power,
}


def _as_ratfunc(value: Value) -> RatFunc:
    return value if isinstance(value, RatFunc) else RatFunc(value)


def _demoted(value: Value) -> Value:
    """A RatFunc with denominator 1 as its numerator; anything else as it is."""
    if isinstance(value, RatFunc) and value.den.is_one:
        return value.num
    return value


def parse_expr(text: str) -> RatFunc:
    """Parse an expression into an exact rational function of x."""
    if not isinstance(text, str):
        raise TypeError("parse_expr expects a string")
    return _as_ratfunc(_evaluate(_Parser(text).parse()))


def parse_written(text: str) -> Written:
    """Parse an expression into its written factors, multiplying none of them.

    The text is read, checked and budgeted exactly as by parse_expr, with
    the same errors at the same positions; only the sums and leaves of the
    tree are evaluated.  A zero radicand has a zero factor.
    """
    factors: list[tuple[UPoly, int]] = []
    _collect_factors(_Parser(text).parse(), 1, factors)
    return Written(factors)


def _collect_factors(node: _Node, e: int, out: list[tuple[UPoly, int]]):
    """Append the factors of node^e to out, walking products and powers.

    Below a "/" the exponent is negated, p^0 drops out, and so do nonzero
    constants.  A zero divisor never gets here: the parser raised first.
    """
    if node.op == "neg":
        _collect_factors(node.args, e, out)
    elif node.op == "product":
        for op, factor in node.args:
            _collect_factors(factor, e if op == "*" else -e, out)
    elif node.op == "power":
        base, n = node.args
        if n:
            _collect_factors(base, e * n, out)
    else:
        value = _as_ratfunc(_evaluate(node))
        for p, exponent in ((value.num, e), (value.den, -e)):
            if p.is_zero or not p.is_constant:
                out.append((p, exponent))


@dataclass(frozen=True)
class RadicandSpec:
    """One radicand as read from a file: source text, value, root order.

    The value is a RatFunc, or the Written factors when read by
    parse_written.
    """

    text: str
    expr: RatFunc | Written
    root_order: int = 2


def parse_radicand_file(text: str, parse=None) -> list[RadicandSpec]:
    """Parse a radicand file: one radicand per noncomment line.

    Lines starting with # (after whitespace) and blank lines are skipped;
    a "root[e]:" prefix with e >= 2 selects the root order.  Each line's
    expression is read by parse (parse_expr unless given, or
    parse_written).  Parse errors are re-raised with the 1-based line
    number; a file with no radicands raises EmptyInputError.
    """
    parse = parse or parse_expr
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
            value = parse(body)
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
