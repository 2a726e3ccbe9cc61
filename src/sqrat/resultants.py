"""Resultants and eliminations for polynomials with polynomial coefficients.

The objects here are polynomials in an auxiliary variable z whose
coefficients live in Q[x] ("ZPoly", a tuple of UPoly, constant term first).
Minimal polynomials eliminate y from p(z - y) and y^2 - f: the resultant is
the norm p(z - sqrt(f)) * p(z + sqrt(f)), computed from p(z - y) reduced
modulo y^2 - f, so no Sylvester matrix is formed.

The minimal polynomial of sum(sqrt(f_i)) is the tower p_1 = z^2 - f_1,
p_{k+1} = Res_y(p_k(z - y), y^2 - f_{k+1}), and resultant_tower computes it
in w = z^2.  Every p_k is even, p_k(z) = P_k(z^2): its roots are the sign
sums sum(+-sqrt(f_i)), a set closed under negation.  With y^2 = F,
t = z*y (so t^2 = w*F) and u = w + F, p_k(z - y) = P_k(u - 2t) = A + B*t
for polynomials A, B in w, and the norm is P_{k+1} = A^2 - w*F*B^2: half
the length of the same computation in z, whose odd coefficients are zero.
Denominators are cleared once for the whole tower: with c the least common
denominator of every f_i, the tower of the integer F_i = c^2*f_i has the
roots c*sum(+-sqrt(f_i)), so its coefficient of w^j divided by c^(2N - 2j)
(N = 2^(m-1)) is that of z^(2j) in the answer.

The norms run on integers, not on ZPoly values.  Every coefficient in x is
evaluated at one large power of two X = 2^(8*width) (Kronecker
substitution, as in UPoly products), so a norm becomes a computation on
lists of Python ints in w (or z), whose two squarings are themselves
Kronecker products.  width comes from a sound bound: the same computation
on the 1-norms of the coefficients, which bounds every coefficient of the
result.  The tower passes integer rows in x from step to step and sizes
each step's width from the 1-norms of its actual rows: bounds iterated over
the whole tower come out 1.5 to 1.9 times the true bit size, and every
product would pay for the excess.  The squarefree certificate for the
result likewise evaluates x at small integers and takes integer gcds; a
point fails only at a root of Res_z(p, dp/dz), whose degree in x bounds how
many points can fail before the answer is proven.

resultant_with_quadratic takes one such norm for a general p in z, not
necessarily even; the tower needs it no longer, and the tests check the
tower against chains of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import ZeroInputError
from .poly import (
    RatFunc,
    UPoly,
    _digits,
    _int_gcd_cofactors,
    _int_mul,
    _pack,
    _scaled,
    coprime_basis,
)

ZPoly = tuple[UPoly, ...]


def zpoly(coeffs: Iterable[Union[UPoly, int, Fraction]]) -> ZPoly:
    """Normalize a coefficient list (z-ascending) into a ZPoly."""
    cs = []
    for c in coeffs:
        if isinstance(c, (int, Fraction)):
            c = UPoly.constant(c)
        elif not isinstance(c, UPoly):
            raise TypeError("ZPoly coefficients must be UPoly or scalars")
        cs.append(c)
    while cs and cs[-1].is_zero:
        cs.pop()
    return tuple(cs)


ZP_ZERO: ZPoly = ()
ZP_ONE: ZPoly = (UPoly.one(),)


def zp_degree(p: ZPoly) -> int | None:
    return len(p) - 1 if p else None


def zp_mul(a: ZPoly, b: ZPoly) -> ZPoly:
    if not a or not b:
        return ZP_ZERO
    out = [UPoly.zero()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca.is_zero:
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return zpoly(out)


def zp_is_monic(p: ZPoly) -> bool:
    return bool(p) and p[-1].is_one


def zp_to_str(p: ZPoly, zvar: str = "z", var: str = "x") -> str:
    """Canonical string, descending z powers, multi-term coefficients in parens."""
    if not p:
        return "0"
    parts: list[str] = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c.is_zero:
            continue
        if k == 0:
            term = c.to_str(var)
            parts.append(term if not parts else
                         (f"+ {term}" if not term.startswith("-") else f"- {term[1:]}"))
            continue
        mon = zvar if k == 1 else f"{zvar}^{k}"
        if c.is_one:
            body, sign = mon, +1
        elif c._ints == [-1] and c._den == 1:
            body, sign = mon, -1
        elif c.is_constant:
            val = c.coeff(0)
            body, sign = f"{abs(val)}*{mon}", (1 if val > 0 else -1)
        else:
            body, sign = f"({c.to_str(var)})*{mon}", +1
        if not parts:
            parts.append(body if sign > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if sign > 0 else f"- {body}")
    return " ".join(parts)


# -- squarefree certificate --------------------------------------------------


def zp_is_squarefree_in_z(p: ZPoly) -> bool:
    """True iff p has no repeated roots as a polynomial in z over Q(x).

    Evaluate x at the integers -8, -7, ... and take a univariate gcd: a
    point where the leading coefficient does not vanish and (p, dp/dz)
    are coprime certifies a nonvanishing discriminant.  The points are
    evaluated on the integer numerators d*p (d the least common
    denominator), which have the same gcd.

    (2n - 1)*dx + 1 points decide, with n = deg_z p and dx the largest
    degree in x of a coefficient.  Let R = Res_z(p, dp/dz), a polynomial in
    x of degree at most (2n - 1)*dx (the Sylvester matrix has 2n - 1 rows
    of entries of degree <= dx).  A point xi fails exactly when R(xi) = 0:
    if lead(p)(xi) != 0, both degrees survive, so R(xi) is the resultant
    of p(xi) and dp/dz(xi), zero iff they share a root; and lead(p)
    divides R.  So p is squarefree (R != 0) iff one of that many distinct
    points succeeds, and when all fail, R has more roots than its degree
    and is zero.
    """
    if zp_degree(p) in (None, 0):
        return True
    _, ints = _zp_integer_numerators(p)
    n, dx = len(ints) - 1, max(map(len, ints)) - 1
    for xi in range(-8, (2 * n - 1) * dx - 7):
        p_xi = [_evaluate(c, xi) for c in ints]
        if p_xi[-1] == 0:
            continue
        dp_xi = [k * c for k, c in enumerate(p_xi) if k]
        if len(_int_gcd_cofactors(p_xi, dp_xi)[0]) == 1:
            return True
    return False


def _zp_integer_numerators(p: ZPoly) -> tuple[int, list[list[int]]]:
    """(d, d*p as integer lists) with d the least common denominator of p."""
    d = lcm(*[c._den for c in p])
    return d, [c._ints if c._den == d else [a * (d // c._den) for a in c._ints]
               for c in p]


def _evaluate(ints: list[int], xi: int) -> int:
    """Value at the integer xi of the integer polynomial ints (Horner)."""
    value = 0
    for c in reversed(ints):
        value = value * xi + c
    return value


# -- resultants with quadratics ----------------------------------------------


def resultant_with_quadratic(p: ZPoly, f: UPoly) -> ZPoly:
    """Res_y(p(z - y), y^2 - f) as the norm p(z - sqrt(f)) * p(z + sqrt(f)).

    Writing p(z - y) = a + b*y mod (y^2 - f), the resultant is the norm
    a^2 - f*b^2: the Sylvester determinant's value, polynomial in the
    degree of p.  It is computed on integers.  With d and e the least
    common denominators of p and f, F = f*e^2 is integral, sqrt(f) =
    sqrt(F)/e, and q(w) = d*e^n*p(w/e) (n = deg p) has integer
    coefficients with q(e*z - sqrt(F)) = d*e^n*p(z - sqrt(f)); so the
    norm N(w) of q over sqrt(F) gives the result as N(e*z)/(d^2*e^(2n)).
    Every x-coefficient is evaluated at X = 2^(8*width) (Kronecker), which
    turns N into a list of Python ints in z, and the slots hold every
    coefficient of N because width comes from the same computation run on
    1-norms (sums of absolute values, which are submultiplicative) with
    additions in place of subtractions.
    """
    if not p:
        return ZP_ZERO
    n = len(p) - 1
    d, ints = _zp_integer_numerators(p)
    e, ef = f._den, f._ints
    big_f = [c * e for c in ef]
    q = [[c * e ** (n - i) for c in row] for i, row in enumerate(ints)]
    # the slots also hold the coefficients of q and F: q's are below the
    # bound's, and so are F's unless p is constant in z
    bound = max([*_norm_over_sqrt([sum(map(abs, c)) for c in q],
                                  sum(map(abs, big_f)), 1),
                 *map(abs, big_f)])
    width = bound.bit_length() // 8 + 1
    norm = _norm_over_sqrt([_pack(c, width) for c in q], _pack(big_f, width), -1)
    out = []
    scale = Fraction(1, (d * e ** n) ** 2)
    for value in norm:
        out.append(_scaled(scale, _digits(value, width)))
        scale *= e
    return zpoly(out)


def _norm_over_sqrt(coeffs: list[int], big_f: int, sign: int) -> list[int]:
    """a^2 + sign*F*b^2 with a + b*y = sum_i c_i*(z + sign*y)^i mod y^2 - F.

    The c_i are coeffs, z-ascending.  With sign = -1 and the values q_i(X)
    and F(X) this is the norm of q(z - y) at X.  With sign = 1 and the
    1-norms of the q_i and F, every term counts positive, so each entry
    bounds the 1-norm of the matching coefficient of the norm.
    """
    sf = sign * big_f
    a: list[int] = []
    b: list[int] = []
    for c in reversed(coeffs):
        # Horner: (a + b*y)*(z + sign*y) + c, with y^2 = F
        new_a = [c, *a]
        for k, t in enumerate(b):
            new_a[k] += sf * t
        new_b = [sign * t for t in a]
        for k, t in enumerate(b):
            new_b[k + 1] += t
        a, b = new_a, new_b
    out = _int_mul(a, a)
    if b:
        for k, t in enumerate(_int_mul(b, b)):
            out[k] += sf * t
    return out


def resultant_tower(fs: Sequence[UPoly]) -> ZPoly:
    """The chain p = z^2 - f_1, p <- resultant_with_quadratic(p, f) for the
    rest of fs (nonempty), computed in w = z^2 on integer rows.

    The result is prod(z - sum(e_i*sqrt(f_i))) over the 2^m sign vectors
    e, so it is even in z.  With c the least common denominator of all
    coefficients of the f_i, the rows of P_1 = w - F_1, F_i = c^2*f_i, are
    integer lists in x, and each step maps the rows of P_k to those of
    P_{k+1} = A^2 - w*F*B^2 (_tower_step).  Only the last rows become
    UPolys: the coefficient of z^(2j) is row j over c^(2N - 2j), N the
    degree in w, and the odd coefficients are zero.
    """
    c = lcm(*[f._den for f in fs])
    big_fs = [[a * (c // f._den * c) for a in f._ints] for f in fs]
    rows = [[-a for a in big_fs[0]], [1]]
    for big_f in big_fs[1:]:
        rows = _tower_step(rows, big_f)
    n = len(rows) - 1
    out = [UPoly.zero()] * (2 * n + 1)
    for j, row in enumerate(rows):
        if row:
            out[2 * j] = _scaled(Fraction(1, c ** (2 * (n - j))), row)
    return tuple(out)


def _tower_step(rows: list[list[int]], big_f: list[int]) -> list[list[int]]:
    """The rows in x of A^2 - w*F*B^2, with A + B*t = P(w + F - 2t) and P
    given by rows (w-ascending, of positive degree in w), F by big_f.

    The slots also hold the rows and F: the bound's A holds each c_j*w^j,
    so its square bounds every row, and B is nonzero, so F*B^2 bounds F.
    """
    bound = max([*_norm_in_w([sum(map(abs, r)) for r in rows],
                             sum(map(abs, big_f)), 1),
                 *map(abs, big_f)])
    width = bound.bit_length() // 8 + 1
    norm = _norm_in_w([_pack(r, width) for r in rows], _pack(big_f, width), -1)
    return [_digits(value, width) for value in norm]


def _norm_in_w(coeffs: list[int], big_f: int, sign: int) -> list[int]:
    """A^2 + sign*w*F*B^2 with A + B*t = sum_j c_j*(w + F + 2*sign*t)^j
    mod t^2 - w*F.

    The c_j are coeffs, w-ascending.  With sign = -1 and the values P_j(X)
    and F(X) this is the norm P(u - 2t)*P(u + 2t) = A^2 - t^2*B^2 at X.
    With sign = 1 and the 1-norms of the P_j and F, every term counts
    positive, so each entry bounds the 1-norm of the matching coefficient
    of the norm.
    """
    two = 2 * sign
    a: list[int] = []
    b: list[int] = []
    for c in reversed(coeffs):
        # Horner: (a + b*t)*(w + F + 2*sign*t) + c, with t^2 = w*F
        new_a = [c, *a]
        new_b = [two * s for s in a]
        for k, s in enumerate(a):
            new_a[k] += big_f * s
        for k, s in enumerate(b):
            fs = big_f * s
            new_a[k + 1] += two * fs
            new_b[k] += fs
            new_b[k + 1] += s
        a, b = new_a, new_b
    out = _int_mul(a, a)
    if b:
        sf = sign * big_f
        for k, s in enumerate(_int_mul(b, b)):
            out[k + 1] += sf * s
    return out


# -- monic denominator clearing ----------------------------------------------


def clear_denominators_monic(coeffs: Sequence[RatFunc]) -> tuple[ZPoly, UPoly]:
    """Rescale the roots of a monic polynomial to clear coefficient denominators.

    Input is the coefficient list (z-ascending, leading coefficient 1) of a
    monic q in z over Q(x).  Returns (p, u) with p monic over Q[x] and u the
    minimal monic scaling polynomial such that p(u*z) = u^n * q(z) up to the
    cleared denominators; the roots of p are u times the roots of q.

    u is minimal in the sense that den(c_i) divides u^(n-i) for every i,
    computed on a gcd-free basis of the denominators.
    """
    cs = [c if isinstance(c, RatFunc) else RatFunc(c) for c in coeffs]
    while cs and cs[-1].is_zero:
        cs.pop()
    if not cs:
        raise ZeroInputError("clearing denominators of the zero polynomial")
    n = len(cs) - 1
    if not (cs[-1].is_constant and cs[-1].as_fraction == 1):
        raise ValueError("input polynomial must be monic in z")
    cleared = [i for i, c in enumerate(cs[:n]) if not c.den.is_one]
    if not cleared:
        return zpoly([c.num for c in cs]), UPoly.one()
    basis, rows = coprime_basis([cs[i].den for i in cleared])
    u = UPoly.one()
    for j, base in enumerate(basis):
        # smallest k with k*(n-i) >= d_ij for every i, d_ij = v_base(den c_i)
        need = max(-(-row[j] // (n - i)) for i, row in zip(cleared, rows))
        u = u * base ** need
    out = []
    for i, c in enumerate(cs):
        scaled = c * RatFunc(u ** (n - i))
        if not scaled.den.is_one:
            raise RuntimeError("denominator clearing failed")
        out.append(scaled.num)
    return zpoly(out), u
