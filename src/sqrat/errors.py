"""Exception hierarchy for the library.

Every error raised on purpose derives from SqratError, so callers (and the
CLI) can catch one type.  Parse-time problems carry a character position and,
when reading radicand files, a line number.
"""

from __future__ import annotations


class SqratError(Exception):
    """Base class for all library errors."""


class ZeroInputError(SqratError):
    """An operation that requires a nonzero polynomial received zero."""


class ZeroRadicandError(SqratError):
    """A radicand is zero; its square root generates nothing."""


class EmptyFamilyError(SqratError):
    """A family of radicands must contain at least one element."""


class ConstantSubstitutionError(SqratError):
    """Substitutions must be nonconstant to give injective endomorphisms."""


class WrongDegreeError(SqratError):
    """The square class of the input has the wrong degree for this routine."""


class NoRationalPointFoundError(SqratError):
    """No rational point was found on the conic.

    place says why.  It is "inf" (the real place) or an odd prime p when
    the Hilbert symbol of the conic is -1 there, a proof that the conic
    has no rational point at any height.  It is None when the bounded
    search ran out, so a point may still exist beyond the search height.
    Over an algebraically closed constant field a parametrization always
    exists.
    """

    def __init__(self, message: str, place: str | int | None = None):
        super().__init__(message)
        self.place = place


class ReduciblePowerError(SqratError):
    """z^e - f is reducible: f is an e'-th power for some e' > 1 dividing e."""


class NormalFormViolationError(SqratError):
    """Exponent vector is not in superelliptic normal form."""


class DependentGeneratorsError(SqratError):
    """Generators are multiplicatively dependent modulo squares."""

    def __init__(self, message: str, relation: list[int] | None = None):
        super().__init__(message)
        self.relation = relation


class DegenerateSumError(SqratError):
    """Distinct sign combinations of the square roots collide."""


class InvalidParamsError(SqratError):
    """Scan parameters out of range."""


class ParseError(SqratError):
    """Syntax or semantic error while parsing an expression.

    position is a 0-based character offset into the parsed text; line is a
    1-based line number when parsing a radicand file.
    """

    def __init__(self, message: str, position: int | None = None,
                 line: int | None = None):
        self.position = position
        self.line = line
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if position is not None:
            prefix += f"at position {position}: "
        super().__init__(prefix + message)
        self.message = message


class ExprSyntaxError(ParseError):
    """Malformed expression text."""


class NegativeExponentError(ParseError):
    """`^` requires a nonnegative integer exponent."""


class DivisionByZeroExpressionError(ParseError):
    """The expression divides by something identically zero."""


class UnsupportedVariableError(ParseError):
    """Only the variable x is accepted; multivariate input is out of scope."""


class EmptyInputError(SqratError):
    """A radicand file contained no radicands."""
