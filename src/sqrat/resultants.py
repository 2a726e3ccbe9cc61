"""Resultants and eliminations for polynomials with polynomial coefficients.

The objects here are polynomials in an auxiliary variable z whose
coefficients live in Q[x] ("ZPoly", a tuple of UPoly, constant term first).
Minimal polynomials eliminate y from p(z - y) and y^2 - f with
resultant_with_quadratic: the norm a^2 - f*b^2 of p(z - y) reduced modulo
y^2 - f, so no Sylvester matrix is formed.

Degrees in this library stay small (the minimal polynomial of m square
roots has z-degree 2^m), so the dense representation is fine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import ZeroInputError
from .poly import RatFunc, UPoly, coprime_basis, poly_gcd

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


def zp_add(a: ZPoly, b: ZPoly) -> ZPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return zpoly(out)


def zp_neg(a: ZPoly) -> ZPoly:
    return tuple(-c for c in a)


def zp_sub(a: ZPoly, b: ZPoly) -> ZPoly:
    return zp_add(a, zp_neg(b))


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


def zp_derivative(p: ZPoly) -> ZPoly:
    return zpoly(tuple(i * c for i, c in enumerate(p) if i))


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
        elif c == UPoly.constant(-1):
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


# -- gcd over the fraction field Q(x) ----------------------------------------


def zp_gcd_degree_over_field(a: ZPoly, b: ZPoly) -> int | None:
    """Degree in z of gcd(a, b) taken over the field Q(x)."""
    fa = [RatFunc(c) for c in a]
    fb = [RatFunc(c) for c in b]

    def norm(p: list[RatFunc]) -> list[RatFunc]:
        while p and p[-1].is_zero:
            p.pop()
        return p

    fa, fb = norm(fa), norm(fb)
    while fb:
        # remainder of fa mod fb over Q(x)
        rem = list(fa)
        db = len(fb) - 1
        lead = fb[-1]
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k]
            if c.is_zero:
                continue
            q = c / lead
            for j in range(db + 1):
                rem[k - db + j] = rem[k - db + j] - q * fb[j]
        fa, fb = fb, norm(rem[:db] if db else [])
    return len(fa) - 1 if fa else None


def zp_is_squarefree_in_z(p: ZPoly) -> bool:
    """True iff p has no repeated roots as a polynomial in z over Q(x).

    Fast path: evaluate x at small rationals and take a univariate gcd; a
    single point with coprime (p, dp/dz) certifies a nonvanishing
    discriminant.  Only if every sample point degenerates does the exact
    gcd over Q(x) run (expensive, but conclusive).
    """
    if zp_degree(p) in (None, 0):
        return True
    dp = zp_derivative(p)
    lead = p[-1]
    for xi in range(-8, 9):
        point = Fraction(xi)
        if lead.evaluate(point) == 0:
            continue
        p_xi = UPoly([c.evaluate(point) for c in p])
        dp_xi = UPoly([c.evaluate(point) for c in dp])
        if dp_xi.is_zero:
            continue
        if poly_gcd(p_xi, dp_xi).is_one:
            return True
    return zp_gcd_degree_over_field(p, dp) == 0


# -- resultants with quadratics ----------------------------------------------


def resultant_with_quadratic(p: ZPoly, f: UPoly) -> ZPoly:
    """Res_y(p(z - y), y^2 - f) by reduction modulo the quadratic.

    Writing p(z - y) = a + b*y mod (y^2 - f), the resultant is the norm
    a^2 - f*b^2 = p(z - sqrt(f)) * p(z + sqrt(f)).  Same value as the
    Sylvester determinant, but polynomial in the degree of p, which keeps
    iterated minimal polynomials cheap.
    """
    f_z = zpoly([f])
    # powers of (z - y) modulo y^2 - f, as pairs (u, v) with u + v*y
    u, v = ZP_ONE, ZP_ZERO
    a, b = ZP_ZERO, ZP_ZERO
    for coeff in p:
        if not coeff.is_zero:
            c = zpoly([coeff])
            a = zp_add(a, zp_mul(c, u))
            b = zp_add(b, zp_mul(c, v))
        shifted_u = zpoly((UPoly.zero(),) + u)  # z * u
        shifted_v = zpoly((UPoly.zero(),) + v)
        u, v = zp_sub(shifted_u, zp_mul(f_z, v)), zp_sub(shifted_v, u)
    return zp_sub(zp_mul(a, a), zp_mul(f_z, zp_mul(b, b)))


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
