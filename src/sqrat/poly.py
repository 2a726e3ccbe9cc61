"""Exact univariate polynomial and rational function arithmetic over Q.

A polynomial is a list of integer numerators over one positive integer
denominator, constant term first: _ints, with no trailing zeros, and _den,
in lowest terms (gcd(_den, *_ints) == 1), so equality is structural.  The
zero polynomial is [] over 1; its degree is the sentinel None, never -1.
Values and kernels share these lists, so no list is changed in place.
Fractions are built only when asked for (coeffs, coeff, leading).  A
rational function keeps numerator and denominator coprime with a monic
denominator (its leading numerator equals its denominator, no Fraction
needed to tell), so its equality is structural too; negation, and sums,
products and quotients with a constant (sums with a polynomial), keep
that form without a gcd.  Products use Kronecker substitution: the
integer numerators of each operand are packed into one Python int, so a
single big-integer product (Karatsuba in CPython) does the work; a
constant operand just scales the other.  Powers of a base with fewer
terms than the exponent come from Miller's recurrence on the integer
coefficients, one coefficient at a time, with no big product; others
square repeatedly.  The gcd works on integers too:
the heuristic GCD of Char, Geddes & Gonnet (1989) evaluates the primitive
integer numerators at a large power of two, takes one integer gcd and
reads the gcd and both cofactors off its digits, accepting them only when
the products check exactly.  It needs no other algorithm: past a width
that Mignotte's and Hadamard's bounds give from the inputs alone, the
digits are the gcd times a divisor of the cofactors' resultant, so the
checks cannot fail there (_heuristic_gcd).

On top of the ring arithmetic this module provides the square-theoretic
toolbox the rest of the library is built on:

  * gcd with cofactors and squarefree decomposition (Yun's algorithm,
    characteristic 0, run on the primitive integer coefficient list,
    stepping over multiplicities that do not occur at one packed point);
  * square classes modulo (Q(x)*)^2: every nonzero f factors uniquely as
    c * g * h^2 with c a rational constant, g monic squarefree and h a
    rational function with monic numerator and denominator;
  * gcd-free (coprime) bases with exact integer exponent matrices, the
    factorization-free substitute for irreducible factorization, refined
    on primitive integer coefficient lists and checked by an exact integer
    reconstruction;
  * substitution x -> s(t) for nonconstant rational s, and exact square
    testing that distinguishes squares over Q from squares over C.

Yun's algorithm and the coprime basis take the primitive part of the
integer numerators on the way in and put a monic UPoly over its leading
coefficient on the way out, so their gcds, cofactors and derivatives are
integer list operations.

Substitution takes no gcd.  With s = a/b reduced and f = P/Q (Q = 1 for a
polynomial), n = max(deg P, deg Q), the homogeneous images
P~ = sum P_k a^k b^(n-k) and Q~ (b^n for a polynomial) are coprime, so
f(s) = P~/Q~ only needs its denominator made monic: a common root with
b != 0 would be a common root of P and Q at the value of s there, and at
a root of b whichever image comes from degree n is its leading
coefficient times a^n, nonzero because a and b are coprime.  An image is
built by halves on integer rows: f = f_lo + x^m f_hi with
m = ceil((n+1)/2) gives N = N_lo b^(n-m+1) + a^m N_hi, O(log n) levels of
balanced Kronecker products, and a PowerTable keeps the powers of a and b
so that the images taken with one s share them.

Decision-level code treats nonzero constants as squares (true over C, the
constant field the geometry lives over); only witness verification cares
about the difference, which is why is_square reports the constant defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence, Union

from .errors import ConstantSubstitutionError, ZeroInputError

Scalar = Union[int, Fraction]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class UPoly:
    """Dense univariate polynomial over Q: integer numerators over one denominator."""

    __slots__ = ("_den", "_ints")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is int else _as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # den is the lcm of reduced denominators: each prime power in den
        # divides some denominator exactly, and not its numerator, so
        # gcd(den, *ints) == 1
        den = lcm(*[c.denominator for c in cs])
        self._den = den
        self._ints = [c.numerator * (den // c.denominator) for c in cs]

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> UPoly:
        return cls()

    @classmethod
    def one(cls) -> UPoly:
        return cls((1,))

    @classmethod
    def constant(cls, c: Scalar) -> UPoly:
        return cls((c,))

    @classmethod
    def x(cls) -> UPoly:
        return cls((0, 1))

    @classmethod
    def monomial(cls, degree: int, coeff: Scalar = 1) -> UPoly:
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * degree + (_as_fraction(coeff),))

    # -- structure --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple([Fraction(c, den) for c in self._ints])

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial (a true sentinel)."""
        return len(self._ints) - 1 if self._ints else None

    @property
    def leading(self) -> Fraction:
        if not self._ints:
            raise ZeroInputError("the zero polynomial has no leading coefficient")
        return Fraction(self._ints[-1], self._den)

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def is_one(self) -> bool:
        return self._ints == [1] and self._den == 1

    @property
    def is_constant(self) -> bool:
        return len(self._ints) <= 1

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x^k (zero beyond the degree)."""
        if 0 <= k < len(self._ints):
            return Fraction(self._ints[k], self._den)
        return Fraction(0)

    def sort_key(self) -> tuple:
        return (len(self._ints), self.coeffs)

    def __bool__(self) -> bool:
        return bool(self._ints)

    def __eq__(self, other: object) -> bool:
        other = _coerce_upoly(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._ints == other._ints

    __hash__ = None  # cross-type equality with scalars; do not use as dict key

    # -- arithmetic -------------------------------------------------------

    def __neg__(self) -> UPoly:
        return _upoly([-c for c in self._ints], self._den)

    def __add__(self, other) -> UPoly:
        other = _coerce_upoly(other)
        if other is None:
            return NotImplemented
        return _add(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> UPoly:
        other = _coerce_upoly(other)
        if other is None:
            return NotImplemented
        return _add(self, other, -1)

    def __rsub__(self, other) -> UPoly:
        other = _coerce_upoly(other)
        if other is None:
            return NotImplemented
        return _add(other, self, -1)

    def __mul__(self, other) -> UPoly:
        other = _coerce_upoly(other)
        if other is None:
            return NotImplemented
        a, b = self._ints, other._ints
        if not a or not b:
            return UPoly()
        return _lowest(_int_mul(a, b), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> UPoly:
        # scalar division only; polynomial division goes through divmod
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            d = other.denominator
            return _lowest([c * d for c in self._ints], self._den * other.numerator)
        return NotImplemented

    def __pow__(self, n: int) -> UPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        if not n:
            return UPoly.one()
        if n == 1 or not self._ints:
            return self
        # the content of f^n is content(f)^n (Gauss), coprime to den^n
        return _upoly(_int_pow(self._ints, n), self._den ** n)

    def __divmod__(self, other) -> tuple[UPoly, UPoly]:
        other = _coerce_upoly(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        divisor = other.coeffs
        dd = len(divisor) - 1
        lead = divisor[-1]
        quo = [Fraction(0)] * max(len(rem) - dd, 0)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if not c:
                continue
            q = c / lead
            quo[k - dd] = q
            for j in range(dd + 1):
                rem[k - dd + j] -= q * divisor[j]
        return UPoly(quo), UPoly(rem)

    def __floordiv__(self, other) -> UPoly:
        return divmod(self, other)[0]

    def __mod__(self, other) -> UPoly:
        return divmod(self, other)[1]

    def exact_div(self, other: UPoly) -> UPoly:
        """Divide by an exact divisor; raises if the division has a remainder."""
        q, r = divmod(self, other)
        if r:
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> UPoly:
        if self.is_zero:
            raise ZeroInputError("cannot normalize the zero polynomial")
        return _monic(self._ints)

    def derivative(self) -> UPoly:
        return _lowest([k * c for k, c in enumerate(self._ints) if k], self._den)

    def evaluate(self, point: Scalar) -> Fraction:
        v = _as_fraction(point)
        acc = Fraction(0)
        for c in reversed(self._ints):
            acc = acc * v + c
        return acc / self._den

    # -- printing ---------------------------------------------------------

    def to_str(self, var: str = "x") -> str:
        """Canonical expression string: descending powers, explicit * and ^."""
        ints, den = self._ints, self._den
        if not ints:
            return "0"
        parts: list[str] = []
        for k in range(len(ints) - 1, -1, -1):
            num = ints[k]
            if not num:
                continue
            negative = num < 0
            if negative:
                num = -num
            d = den
            if d != 1:  # the coefficient num/d in lowest terms
                g = gcd(num, d)
                num, d = num // g, d // g
            size = str(num) if d == 1 else f"{num}/{d}"
            if k == 0:
                body = size
            else:
                mon = var if k == 1 else f"{var}^{k}"
                body = mon if num == 1 and d == 1 else f"{size}*{mon}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"UPoly[{self.to_str()}]"


def _upoly(ints: list[int], den: int = 1) -> UPoly:
    """ints/den, already in lowest terms: ints has no trailing zeros, den > 0."""
    out = UPoly.__new__(UPoly)
    out._den = den
    out._ints = ints
    return out


def _lowest(ints: list[int], den: int) -> UPoly:
    """ints/den in lowest terms, for ints without trailing zeros and den != 0."""
    if den < 0:
        den, ints = -den, [-c for c in ints]
    if den != 1:
        g = gcd(den, *ints)
        if g != 1:
            den //= g
            ints = [c // g for c in ints]
    return _upoly(ints, den)


def _add(a: UPoly, b: UPoly, sign: int) -> UPoly:
    """a + sign*b, sign = 1 or -1, over the least common denominator."""
    da, db = a._den, b._den
    g = gcd(da, db)
    ia = a._ints if db == g else [c * (db // g) for c in a._ints]
    scale = sign * (da // g)
    return _lowest(_int_add(ia, [scale * c for c in b._ints]), da // g * db)


def _pack(ints: list[int], width: int) -> int:
    """Value at xi = 2^(8*width) of the integer polynomial ints, from bytes.

    Every coefficient must satisfy -half <= c < half, half = 2^(8*width-1)
    (the callers size width so that |c| < half).  Adding half to each
    slot makes every slot a nonnegative width-byte number, so the packing
    is one bytes join, linear in the output size, and the offset
    half * (1 + xi + ... + xi^(n-1)) is subtracted once.  A coefficient
    out of range raises OverflowError instead of packing a wrong value.
    """
    half = 1 << (8 * width - 1)
    raw = b"".join([(c + half).to_bytes(width, "little") for c in ints])
    return int.from_bytes(raw, "little") - _offset(width, len(ints))


def _offset(width: int, n: int) -> int:
    """half * (1 + xi + ... + xi^(n-1)): half = 2^(8*width-1) in each of n slots."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _int_mul(ia: list[int], ib: list[int]) -> list[int]:
    """Product of two nonzero integer polynomials, always a new list.

    A constant operand scales the other; otherwise Kronecker substitution
    packs both into Python ints and multiplies once.
    """
    if len(ia) == 1:
        c = ia[0]
        return [c * b for b in ib]
    if len(ib) == 1:
        c = ib[0]
        return [c * a for a in ia]
    # slot bytes: the top bit of a slot holds the sign of the largest
    # possible product coefficient, min(len) * max|ia| * max|ib|, so every
    # coefficient of the product is below half in size
    width = (max(map(abs, ia)).bit_length() + max(map(abs, ib)).bit_length()
             + min(len(ia), len(ib)).bit_length()) // 8 + 1
    pa = _pack(ia, width)
    pb = pa if ib is ia else _pack(ib, width)
    return _unpack(pa * pb, width, len(ia) + len(ib) - 1)


def _unpack(value: int, width: int, n: int) -> list[int]:
    """Inverse of _pack: the n coefficients, each in [-half, half), of value.

    value + offset has the nonnegative slots c + half, so each slot is read
    off its bytes with no carry between them; a value with no such n-slot
    form raises OverflowError.
    """
    raw = (value + _offset(width, n)).to_bytes(n * width, "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(raw[k:k + width], "little") - half
            for k in range(0, n * width, width)]


def _digits(value: int, width: int) -> list[int]:
    """Symmetric base-2^(8*width) digits of value, lowest first, no trailing zeros."""
    out = _unpack(value, width, abs(value).bit_length() // (8 * width) + 2)
    while out and not out[-1]:
        out.pop()
    return out


def _coerce_upoly(value) -> UPoly | None:
    if isinstance(value, UPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return _upoly([value.numerator] if value else [], value.denominator)
    return None


class RatFunc:
    """Reduced rational function: coprime numerator over monic denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=1):
        n = _coerce_upoly(num)
        d = _coerce_upoly(den)
        if n is None or d is None:
            raise TypeError("RatFunc expects polynomials or scalars")
        if d.is_zero:
            raise ZeroDivisionError("zero denominator in rational function")
        if n.is_zero:
            self._num = UPoly.zero()
            self._den = UPoly.one()
            return
        if not d.is_constant:  # a nonzero constant denominator has gcd 1
            _, n, d = gcd_cofactors(n, d)
        self._num, self._den = _monic_den(n, d)

    @classmethod
    def x(cls) -> RatFunc:
        return cls(UPoly.x())

    @property
    def num(self) -> UPoly:
        return self._num

    @property
    def den(self) -> UPoly:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    @property
    def is_constant(self) -> bool:
        return self._num.is_constant and self._den.is_one

    @property
    def as_fraction(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("rational function is not constant")
        return self._num.coeff(0)

    @property
    def degree(self) -> int | None:
        """deg(num) - deg(den), or None for zero (valuation at infinity, negated)."""
        if self._num.is_zero:
            return None
        return self._num.degree - self._den.degree

    def __bool__(self) -> bool:
        return not self._num.is_zero

    def __eq__(self, other: object) -> bool:
        other = _coerce_ratfunc(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    __hash__ = None

    def __neg__(self) -> RatFunc:
        return _coprime_ratfunc(-self._num, self._den)

    def __add__(self, other) -> RatFunc:
        other = _coerce_ratfunc(other)
        if other is None:
            return NotImplemented
        a, p = (other, self) if self._den.is_one else (self, other)
        if p._den.is_one:
            # a polynomial p: a common factor of N + p*D and D divides N,
            # so (N + p*D)/D is reduced because N/D is
            return _coprime_ratfunc(a._num + p._num * a._den, a._den)
        return RatFunc(self._num * other._den + other._num * self._den,
                       self._den * other._den)

    __radd__ = __add__

    def __sub__(self, other) -> RatFunc:
        other = _coerce_ratfunc(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> RatFunc:
        other = _coerce_ratfunc(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> RatFunc:
        other = _coerce_ratfunc(other)
        if other is None:
            return NotImplemented
        a, c = (other, self) if self.is_constant else (self, other)
        if c.is_constant and c:
            # c*N/D is reduced because N/D is
            return _coprime_ratfunc(a._num * c._num, a._den)
        return RatFunc(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFunc:
        other = _coerce_ratfunc(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        # by or into a nonzero constant c: (N/c)/D and c*D/N are reduced
        # because N/D is
        if other.is_constant:
            return _coprime_ratfunc(self._num / other.as_fraction, self._den)
        if self.is_constant and self:
            return _coprime_ratfunc(self._num * other._den, other._num)
        return RatFunc(self._num * other._den, self._den * other._num)

    def __rtruediv__(self, other) -> RatFunc:
        other = _coerce_ratfunc(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> RatFunc:
        if not isinstance(n, int):
            raise ValueError("exponent must be an integer")
        num, den = self._num ** abs(n), self._den ** abs(n)
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            num, den = den, num
        # powers of coprime polynomials are coprime
        return _coprime_ratfunc(num, den)

    def to_str(self, var: str = "x") -> str:
        if self._den.is_one:
            return self._num.to_str(var)
        return f"({self._num.to_str(var)})/({self._den.to_str(var)})"

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"RatFunc[{self.to_str()}]"


def _coprime_ratfunc(num: UPoly, den: UPoly) -> RatFunc:
    """num/den for coprime num and nonzero den, reduced without a gcd.

    Only the denominator is made monic; num must be nonzero unless den is 1.
    """
    out = RatFunc.__new__(RatFunc)
    out._num, out._den = _monic_den(num, den)
    return out


def _monic_den(num: UPoly, den: UPoly) -> tuple[UPoly, UPoly]:
    """(num/l, den/l) for l the leading coefficient of the nonzero den.

    den is monic when its leading numerator equals its denominator; only
    a denominator that is not gets scaled, on the integer rows.
    """
    ints, d = den._ints, den._den
    lead = ints[-1]
    if lead == d:
        return num, den
    return _lowest([c * d for c in num._ints], num._den * lead), _monic(ints)


def _coerce_ratfunc(value) -> RatFunc | None:
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, (int, Fraction, UPoly)):
        return RatFunc(value)
    return None


# -- gcd and squarefree structure ------------------------------------------


def poly_gcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    return gcd_cofactors(a, b)[0]


def gcd_cofactors(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly, UPoly]:
    """(g, a/g, b/g) with g the monic gcd of a and b; gcd(0, 0) = (0, 0, 0).

    A zero operand leaves the other, c, as the gcd up to its leading
    coefficient: c = lead(c) * monic(c).  A nonzero constant operand makes
    the gcd 1.  Otherwise the heuristic GCD (Char, Geddes & Gonnet 1989)
    runs on the primitive integer numerators of a and b; it always ends
    with the gcd (see _heuristic_gcd).
    """
    if not a or not b:
        c = a or b
        if not c:
            return c, c, c
        monic, unit = c.monic(), UPoly.constant(c.leading)
        return (monic, unit, UPoly.zero()) if a else (monic, UPoly.zero(), unit)
    if a.is_constant or b.is_constant:
        return UPoly.one(), a, b
    sa, f = _primitive(a)
    sb, g = _primitive(b)
    h, cf, cg = _int_gcd_cofactors(f, g)
    if len(h) == 1:  # h == [1]: coprime, the cofactors are a and b
        return UPoly.one(), a, b
    lead = h[-1]
    # a = sa*f = sa*h*cf, so a / (h/lead) = sa*lead*cf, and likewise for b
    return _monic(h), _scaled(sa * lead, cf), _scaled(sb * lead, cg)


def _primitive(p: UPoly) -> tuple[Fraction, list[int]]:
    """(s, f) with p = s*f, p nonzero, and f a primitive integer list."""
    ints = p._ints
    content = gcd(*ints)
    return Fraction(content, p._den), (
        ints if content == 1 else [c // content for c in ints])


def _scaled(s: Fraction, ints: list[int]) -> UPoly:
    """s*ints for a nonzero rational s and an integer list without trailing zeros."""
    return _lowest([s.numerator * c for c in ints], s.denominator)


def _heuristic_gcd(f: list[int], g: list[int]):
    """(h, f/h, g/h) with h the primitive gcd of f and g, of positive lead.

    f and g are primitive of degree >= 1.  At xi = 2^(8*width) the integer
    gcd of f(xi) and g(xi) is h(xi) times a factor bounded independently
    of xi, so once xi is large enough its symmetric base-xi digits are h
    times their content, and the digits of f(xi)/h(xi) and g(xi)/h(xi) are
    the cofactors; each failure retries with a larger xi.  A candidate is
    accepted only if h*cf == f and h*cg == g hold exactly, and then h is
    the gcd: xi > 2*max(|f|, |g|) + 2 (max norms), the gcd is h*q with
    q(xi) dividing the content of the digits, at most xi/2, and by
    Cauchy's root bound a nonconstant q dividing f has |q(xi)| > xi/2.
    The same bound keeps every root of f and g below xi, so f(xi) and
    g(xi) are nonzero, and makes f(xi) and g(xi) byte packings.

    When gcd(f(xi), g(xi)) is a single symmetric digit, below xi/2, f and
    g are coprime: the gcd divides it and would otherwise exceed xi/2.
    Then ([1], f, g) is returned at once, the result the checks would
    reach: a candidate they accept is the gcd, here [1] with cofactors f
    and g.

    The retries stop at _proven_width, where the checks cannot fail.
    Write f = h*cf and g = h*cg; then gcd(f(xi), g(xi)) = h(xi)*G with
    G = gcd(cf(xi), cg(xi)), and G divides Res(cf, cg), which is nonzero
    (G = 1 when a cofactor is +-1).  Once xi/2 exceeds |cf|, |cg| and
    |Res(cf, cg)|*|h|, the digits are G*h, their content is G, and both
    products check.  A failure at that width is a broken invariant, and
    raises RuntimeError.
    """
    bound = 2 * max(max(map(abs, f)), max(map(abs, g))) + 29
    width = bound.bit_length() // 8 + 1  # xi > bound
    limit = None
    while True:
        ff, gg = _pack(f, width), _pack(g, width)  # f(xi), g(xi)
        common = gcd(ff, gg)
        if common.bit_length() < 8 * width:  # common < xi/2: one digit
            return [1], f, g
        h = _digits(common, width)
        content = gcd(*h)  # common > 0, so h has a positive leading digit
        h = [c // content for c in h]
        h_xi = common // content
        cf = _digits(ff // h_xi, width)
        cg = _digits(gg // h_xi, width)
        if _int_mul(h, cf) == f and _int_mul(h, cg) == g:
            return h, cf, cg
        if limit is None:  # only after a point fails
            limit = _proven_width(f, g)
        if width >= limit:
            raise RuntimeError("heuristic GCD failed past its proven width")
        width += width // 4 + 1


def _proven_width(f: list[int], g: list[int]) -> int:
    """Slot bytes past which _heuristic_gcd's checks cannot fail on f and g.

    By Mignotte's bound a factor q of f in Z[x] has
    |q|_1 <= 2^deg(f) * |f|_2 < 2^a, with a the bit count below; likewise
    2^b for g.  That bounds cf, cg and h, and, by Hadamard's inequality on
    the Sylvester matrix, |Res(cf, cg)| <= |cf|_2^deg(cg) * |cg|_2^deg(cf)
    < 2^(a*deg(g) + b*deg(f)).  So every quantity _heuristic_gcd needs
    below xi/2 is below 2^bits, and xi/2 = 2^(8*width - 1) >= 2^bits.
    """
    df, dg = len(f) - 1, len(g) - 1
    a = df + (isqrt(sum(c * c for c in f)) + 1).bit_length()
    b = dg + (isqrt(sum(c * c for c in g)) + 1).bit_length()
    bits = a * dg + b * df + min(a, b)
    return (bits + 1) // 8 + 1


def _int_gcd_cofactors(f: list[int], g: list[int]):
    """(h, f/h, g/h) for nonzero integer lists, h primitive with positive lead.

    Constants give h = [1].  Otherwise the heuristic GCD runs on the
    primitive parts, which it always completes at a width their sizes
    bound, and the contents go back onto the cofactors.
    """
    if len(f) == 1 or len(g) == 1:
        return [1], f, g
    cf, cg = gcd(*f), gcd(*g)
    pf = f if cf == 1 else [c // cf for c in f]
    pg = g if cg == 1 else [c // cg for c in g]
    h, qf, qg = _heuristic_gcd(pf, pg)
    if cf != 1:
        qf = [c * cf for c in qf]
    if cg != 1:
        qg = [c * cg for c in qg]
    return h, qf, qg


def multiplicity(f: UPoly, b: UPoly) -> int:
    """Largest k with b^k dividing f; f nonzero, b nonconstant.

    No library path needs it (coprime_basis tracks its exponents); the
    tests use it as the reference for those exponents.
    """
    if f.is_zero:
        raise ZeroInputError("multiplicity in the zero polynomial")
    if b.is_constant:
        raise ValueError("multiplicity of a constant factor is undefined")
    count = 0
    while True:
        q, r = divmod(f, b)
        if r:
            return count
        f = q
        count += 1


@dataclass(frozen=True)
class SqfDecomp:
    """Squarefree decomposition f = unit * prod(factor^multiplicity).

    Factors are monic, squarefree, pairwise coprime, listed by increasing
    multiplicity; multiplicities are strictly positive.
    """

    unit: Fraction
    parts: tuple[tuple[UPoly, int], ...]


def squarefree_decompose(f: UPoly) -> SqfDecomp:
    """Yun's algorithm (valid in characteristic 0) on the primitive integer part."""
    if f.is_zero:
        raise ZeroInputError("squarefree decomposition of zero")
    if f.is_constant:
        return SqfDecomp(unit=f.leading, parts=())
    parts = _int_squarefree(_positive(_primitive(f)[1]))
    return SqfDecomp(unit=f.leading,
                     parts=tuple((_monic(p), i) for p, i in parts))


def _positive(ints: list[int]) -> list[int]:
    """ints or -ints, whichever has a positive leading coefficient."""
    return ints if ints[-1] > 0 else [-c for c in ints]


def _monic(ints: list[int]) -> UPoly:
    """ints over its leading coefficient, for a nonzero integer list."""
    return _lowest(ints, ints[-1])


def _int_squarefree(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's loop on a primitive integer f of degree >= 1 with positive lead.

    Returns [(p_i, i)] with f = prod p_i^i and every p_i primitive,
    nonconstant, squarefree and of positive lead.  With g = gcd(f, f'),
    b = f/g and c = f'/g carry the same constant factor as Yun's monic
    b and c, and so does d = c - b'; each step divides b and d by the
    same p, so the scale stays common and d stays exact.

    A step that finds no factor leaves b as it is and sets c = d, so the
    steps after it use d - b', d - 2b', ... until one finds a factor;
    _empty_steps counts those that do not on packed integers, and the
    loop resumes at the first that may, so multiplicities that do not
    occur cost no gcd of polynomials.
    """
    _, b, c = _int_gcd_cofactors(f, _int_derivative(f))
    parts = []
    i = 1
    while len(b) > 1:
        db = _int_derivative(b)
        d = _int_add(c, [-x for x in db])
        if not d:  # every factor left in b has multiplicity i
            parts.append((b, i))
            break
        p, b, c = _int_gcd_cofactors(b, d)
        if len(p) > 1:
            parts.append((p, i))
        else:  # no factor of multiplicity i: b stays and c = d
            skip = _empty_steps(b, d, db, len(f) - 1)
            if skip:
                c = _int_add(d, [-skip * x for x in db])
            i += skip
        i += 1
    return parts


def _empty_steps(b: list[int], d: list[int], db: list[int], deg: int) -> int:
    """How many steps after an empty step of Yun's loop are empty too.

    That is the k >= 0 with d - j*db nonzero and coprime to b for
    j = 1..k, where j = k + 1 may not be; db = b', b is nonconstant and
    deg is the degree of the f that Yun's loop decomposes.

    b, d and db are packed once at xi = 2^(8*width) with
    xi > 2*max(|b|, |d| + deg*|db|) + 29 (max norms); each step is then
    D -= B1 and one integer gcd.  No multiplicity exceeds deg, so the loop
    ends by j = deg, and every d - j*db up to there has coefficients below
    xi/2 in size: D is its slot packing, and D = 0 iff d - j*db = 0.  A
    gcd(B, D) below xi/2 proves coprimality, as in _heuristic_gcd: a
    nonconstant primitive common factor h divides b in Z[x] (Gauss), its
    roots are below |b| + 1 < xi/2 - 1 in size (Cauchy), so |h(xi)| > xi/2,
    and h(xi) divides both B and D.  A gcd of at least xi/2, or D = 0,
    stops the count; if that was a false alarm, the ordinary step that
    follows finds no factor and calls this again.
    """
    norm = max(max(map(abs, b)), max(map(abs, d)) + deg * max(map(abs, db)))
    width = (2 * norm + 29).bit_length() // 8 + 1
    big, value, step = _pack(b, width), _pack(d, width), _pack(db, width)
    for k in range(deg):
        value -= step
        if not value or gcd(big, value).bit_length() >= 8 * width:
            return k
    raise RuntimeError("Yun's loop passed the degree of its input")


def _int_derivative(f: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(f) if k]


def _int_add(a: list[int], b: list[int]) -> list[int]:
    """a + b without trailing zeros."""
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)] + a[len(b):]
    while out and not out[-1]:
        out.pop()
    return out


def _int_pow(f: list[int], n: int) -> list[int]:
    """f^n for a nonzero integer list f and n >= 1; f itself when n = 1.

    Write f = x^v * q with q_0 = q(0) != 0, and let t be the number of
    nonzero q_i with i >= 1.  When t < n, the coefficients a_k of q^n
    come from J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):
    a_0 = q_0^n and

        k * q_0 * a_k = sum over i = 1..min(d, k), q_i != 0,
                        of ((n + 1)*i - k) * q_i * a_(k-i),

    the coefficient of x^(k-1) in q * (q^n)' = n * q' * q^n.  The a_k are
    the coefficients of the integer polynomial q^n, so every division by
    k * q_0 is exact over Z; the cost is n*d*t products of a coefficient
    by a small integer, and no product of two long polynomials.  When
    t >= n (long bases, small exponents), repeated squaring with _int_mul
    is cheaper.
    """
    if n == 1:
        return f
    v = 0
    while not f[v]:
        v += 1
    q0 = f[v]
    terms = [(i, c) for i, c in enumerate(f[v + 1:], 1) if c]
    if len(terms) < n:
        a = [q0 ** n]
        n1 = n + 1
        for k in range(1, (len(f) - 1 - v) * n + 1):
            s = 0
            for i, c in terms:
                if i > k:
                    break
                s += (n1 * i - k) * c * a[k - i]
            a.append(s // (k * q0))
        return [0] * (v * n) + a if v else a
    result = None
    while True:
        if n & 1:
            result = f if result is None else _int_mul(result, f)
        n >>= 1
        if not n:
            return result
        f = _int_mul(f, f)


def square_class(f: RatFunc | UPoly) -> tuple[Fraction, UPoly, RatFunc]:
    """Canonical factorization f = c * g * h^2.

    c is a nonzero rational, g is monic squarefree (the square class
    representative) and h has monic numerator and denominator.  The triple
    is uniquely determined by this normalization.
    """
    f = _coerce_ratfunc(f)
    if f is None or f.is_zero:
        raise ZeroInputError("square class of zero")
    dn = squarefree_decompose(f.num)
    dd = squarefree_decompose(f.den)
    c = dn.unit / dd.unit
    g = UPoly.one()
    h_num = UPoly.one()
    h_den = UPoly.one()
    for factor, mult in dn.parts:
        if mult % 2:
            g = g * factor
        h_num = h_num * factor ** (mult // 2)
    for factor, mult in dd.parts:
        if mult % 2:
            g = g * factor
        h_den = h_den * factor ** ((mult + 1) // 2)
    return c, g, RatFunc(h_num, h_den)


def squarefree_part(f: RatFunc | UPoly) -> UPoly:
    """Monic squarefree representative of the square class of f.

    Constants have trivial class (they are squares over C), so the part of
    a constant is 1.  For rational f this is the product of the odd
    multiplicity factors of num * den.
    """
    return square_class(f)[1]


# -- coprime (gcd-free) bases ------------------------------------------------


def coprime_basis(fs: Sequence[UPoly]) -> tuple[list[UPoly], list[list[int]]]:
    """Gcd-free basis of a family of nonzero polynomials.

    Returns (basis, exponents) with the basis monic, squarefree, pairwise
    coprime, of degree >= 1, sorted by (degree, coefficients), and
    fs[i] = c_i * prod_j basis[j] ** exponents[i][j] for nonzero rational
    constants c_i.

    The refinement runs on primitive integer coefficient lists of positive
    lead, so every split is an integer gcd with cofactors; the monic basis
    is built once at the end.  Exponents are tracked through the
    refinement rather than recomputed: each element carries its exponent
    in every f, an element that splits passes that row to both halves, the
    gcd with a squarefree part of multiplicity i in f adds i to its entry
    for f, and a leftover part starts a new row.  An exact check verifies
    them: the primitive part of every f equals, up to sign, the product of
    its basis powers, which are primitive by Gauss's lemma.
    """
    polys = list(fs)
    for f in polys:
        if f is None or f.is_zero:
            raise ZeroInputError("coprime basis of a family containing zero")
    primitives = [_primitive(f)[1] for f in polys]
    basis: list[tuple[list[int], list[int]]] = []  # (element, exponent in each f)
    for k, prim in enumerate(primitives):
        if len(prim) == 1:
            continue
        # refine with each squarefree part separately: parts group the
        # factors of f by multiplicity, so every final basis element has a
        # single well-defined multiplicity in f
        for part, i in _int_squarefree(_positive(prim)):
            rest = part
            refined: list[tuple[list[int], list[int]]] = []
            for b, row in basis:
                d, b_left, rest_left = _int_gcd_cofactors(b, rest)
                if len(d) == 1:
                    refined.append((b, row))
                    continue
                if len(b_left) > 1:
                    refined.append((b_left, row))
                d_row = row.copy()
                d_row[k] += i
                refined.append((d, d_row))
                rest = rest_left
            if len(rest) > 1:
                row = [0] * len(polys)
                row[k] = i
                refined.append((rest, row))
            basis = refined
    elements = sorted(((_monic(b), b, row) for b, row in basis),
                      key=lambda element: element[0].sort_key())
    exponents = [[row[k] for _, _, row in elements] for k in range(len(polys))]
    for prim, exps in zip(primitives, exponents):
        prod = [1]
        for (_, b, _), e in zip(elements, exps):
            if e:
                prod = _int_mul(prod, _int_pow(b, e))
        if prod != _positive(prim):
            raise RuntimeError("coprime basis reconstruction failed")
    return [monic for monic, _, _ in elements], exponents


# -- substitution and square testing -----------------------------------------


class PowerTable:
    """A substitution s = a/b as alpha/beta on integer rows, with powers.

    s must be a nonconstant RatFunc.  a/b = (A/da)/(B/db) = alpha/beta for
    alpha = A*db/g and beta = B*da/g, g = gcd(da, db).  Each power is
    computed once, on first use, and shared by every image taken with this
    table.
    """

    __slots__ = ("s", "_alpha", "_beta")

    def __init__(self, s: RatFunc):
        if not isinstance(s, RatFunc):
            raise TypeError("substitution image must be a RatFunc")
        if s.is_constant:
            raise ConstantSubstitutionError("substitution image must be nonconstant")
        a, b = s.num, s.den
        g = gcd(a._den, b._den)
        self.s = s
        self._alpha = {1: [c * (b._den // g) for c in a._ints]}
        self._beta = {1: [c * (a._den // g) for c in b._ints]}

    def alpha(self, k: int) -> list[int]:
        return _cached_pow(self._alpha, k)

    def beta(self, k: int) -> list[int]:
        return _cached_pow(self._beta, k)


def _cached_pow(table: dict[int, list[int]], k: int) -> list[int]:
    """table[1]^k for k >= 1, kept in table."""
    row = table.get(k)
    if row is None:
        row = table[k] = _int_pow(table[1], k)
    return row


def _homogeneous(ints: list[int], powers: PowerTable) -> list[int]:
    """Sum of ints[k] * alpha^k * beta^(n-k), n = len(ints) - 1, by halves.

    With m = ceil((n+1)/2), the low m coefficients give N_lo at degree
    m - 1 and the rest N_hi at degree n - m, and
    N = N_lo * beta^(n-m+1) + alpha^m * N_hi.  ints may end in zeros; a
    zero sum is [].
    """
    if len(ints) == 1:
        return ints if ints[0] else []
    m = (len(ints) + 1) // 2
    lo = _homogeneous(ints[:m], powers)
    hi = _homogeneous(ints[m:], powers)
    if lo:
        lo = _int_mul(lo, powers.beta(len(ints) - m))
    if hi:
        hi = _int_mul(powers.alpha(m), hi)
    return _int_add(lo, hi)


def substitute(f: UPoly | RatFunc, s: RatFunc,
               powers: PowerTable | None = None) -> RatFunc:
    """Compose f with the substitution x -> s(t), reduced to lowest terms.

    s must be nonconstant, so the induced endomorphism of Q(x) is injective.
    powers, a PowerTable of this s, lets several images share its powers.
    No gcd is taken: the image is the quotient of the homogeneous images of
    numerator and denominator, which are coprime (see the module docstring).
    """
    if powers is None:
        powers = PowerTable(s)
    elif powers.s is not s:
        raise ValueError("the power table belongs to another substitution")
    if not isinstance(f, (UPoly, RatFunc)):
        raise TypeError("substitute expects a UPoly or RatFunc")
    if s.den.is_one and s.num._ints == [0, 1] and s.num._den == 1:
        return _coerce_ratfunc(f)  # x -> x leaves f as it is
    p, q = (f, UPoly.one()) if isinstance(f, UPoly) else (f.num, f.den)
    if not p:
        return RatFunc(0)
    size = max(len(p._ints), len(q._ints))  # n + 1
    num = _homogeneous(p._ints, powers)
    den = _homogeneous(q._ints, powers)
    if len(p._ints) < size:
        num = _int_mul(num, powers.beta(size - len(p._ints)))
    elif len(q._ints) < size:
        den = _int_mul(den, powers.beta(size - len(q._ints)))
    if not den:
        raise RuntimeError("nonzero denominator vanished under substitution")
    # f(s) = (num / p._den) / (den / q._den), over a monic denominator
    return _coprime_ratfunc(
        _lowest([c * q._den for c in num], p._den * den[-1]), _monic(den))


def fraction_sqrt(c: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if c is not a square in Q."""
    if c < 0:
        return None
    rn = isqrt(c.numerator)
    rd = isqrt(c.denominator)
    if rn * rn != c.numerator or rd * rd != c.denominator:
        return None
    return Fraction(rn, rd)


@dataclass(frozen=True)
class SquareOverQ:
    """f = root^2 exactly over Q(x)."""
    root: RatFunc


@dataclass(frozen=True)
class SquareOverC:
    """f = defect * root^2 with a non-square rational constant defect.

    Over C the defect is a square, so f is a square there but not over Q.
    """
    defect: Fraction
    root: RatFunc


@dataclass(frozen=True)
class NotSquare:
    """The square class of f is a nonconstant polynomial."""


SquareResult = Union[SquareOverQ, SquareOverC, NotSquare]


def is_square(f: RatFunc | UPoly) -> SquareResult:
    """Exact square test; zero counts as SquareOverQ(0)."""
    f = _coerce_ratfunc(f)
    if f is None:
        raise TypeError("is_square expects a RatFunc or UPoly")
    if f.is_zero:
        return SquareOverQ(RatFunc(0))
    c, g, h = square_class(f)
    if not g.is_one:
        return NotSquare()
    root_c = fraction_sqrt(c)
    if root_c is None:
        return SquareOverC(defect=c, root=h)
    return SquareOverQ(root=root_c * h)
