"""Sylvester resultants over Q[x][z]: the oracle for resultant_with_quadratic.

The library computes the resultants its minimal polynomials need as the
norm a^2 - f*b^2 (sqrat.resultants.resultant_with_quadratic).  The general
Sylvester determinant below, by fraction-free Bareiss elimination with
every division checked exact, is the independent reference the tests
compare that shortcut against.  Bivariate polynomials in (z, y) are tuples
over the y-degree of ZPoly coefficients.
"""

from __future__ import annotations

from math import comb

from sqrat import resultants
from sqrat.errors import ZeroInputError
from sqrat.poly import UPoly
from sqrat.resultants import ZP_ONE, ZP_ZERO, ZPoly, zp_degree, zpoly

BiPoly = tuple[ZPoly, ...]


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


def zp_pow(a: ZPoly, n: int) -> ZPoly:
    if n < 0:
        raise ValueError("negative power of a polynomial")
    out = ZP_ONE
    while n:
        if n & 1:
            out = resultants.zp_mul(out, a)
        n >>= 1
        if n:
            a = resultants.zp_mul(a, a)
    return out


def zp_exact_div(a: ZPoly, b: ZPoly) -> ZPoly:
    """Exact division in Q[x][z]; raises ValueError if b does not divide a."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return ZP_ZERO
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    if len(rem) - 1 < db:
        raise ValueError("inexact division: degree too small")
    quo = [UPoly.zero()] * (len(rem) - db)
    for k in range(len(rem) - 1, db - 1, -1):
        c = rem[k]
        if c.is_zero:
            continue
        q, r = divmod(c, lead)
        if r:
            raise ValueError("inexact division in the coefficient ring")
        quo[k - db] = q
        for j in range(db + 1):
            rem[k - db + j] = rem[k - db + j] - q * b[j]
    if any(not c.is_zero for c in rem):
        raise ValueError("inexact division: nonzero remainder")
    return zpoly(quo)


def shift_by_minus_y(p: ZPoly) -> BiPoly:
    """Expand p(z - y) as a polynomial in y with ZPoly coefficients."""
    d = zp_degree(p)
    if d is None:
        return ()
    out: list[list[UPoly]] = [[UPoly.zero()] * (d + 1) for _ in range(d + 1)]
    for i, c in enumerate(p):
        if c.is_zero:
            continue
        for j in range(i + 1):
            # coefficient of y^j z^(i-j) in c * (z - y)^i
            term = comb(i, j) * ((-1) ** j) * c
            out[j][i - j] = out[j][i - j] + term
    rows = [zpoly(row) for row in out]
    while rows and not rows[-1]:
        rows.pop()
    return tuple(rows)


def det_bareiss(m: list[list[ZPoly]]) -> ZPoly:
    """Fraction-free determinant of a square matrix over Q[x][z]."""
    n = len(m)
    if n == 0:
        return ZP_ONE
    sign = 1
    prev = ZP_ONE
    for k in range(n - 1):
        if not m[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot_row is None:
                return ZP_ZERO
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = zp_sub(resultants.zp_mul(m[i][j], m[k][k]),
                             resultants.zp_mul(m[i][k], m[k][j]))
                m[i][j] = zp_exact_div(num, prev) if num else ZP_ZERO
            m[i][k] = ZP_ZERO
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return zp_neg(det) if sign < 0 else det


def resultant(a: BiPoly, b: BiPoly) -> ZPoly:
    """Sylvester determinant resultant eliminating y.

    a and b are polynomials in y (ascending) with ZPoly coefficients; both
    must be nonzero.  The result is a polynomial in z over Q[x].
    """
    a = tuple(zpoly(c) for c in a)
    b = tuple(zpoly(c) for c in b)
    while a and not a[-1]:
        a = a[:-1]
    while b and not b[-1]:
        b = b[:-1]
    if not a or not b:
        raise ZeroInputError("resultant of the zero polynomial")
    da, db = len(a) - 1, len(b) - 1
    if da == 0:
        return zp_pow(a[0], db)
    if db == 0:
        return zp_pow(b[0], da)
    size = da + db
    matrix: list[list[ZPoly]] = []
    for i in range(db):
        row = [ZP_ZERO] * size
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        matrix.append(row)
    for i in range(da):
        row = [ZP_ZERO] * size
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        matrix.append(row)
    return det_bareiss(matrix)
