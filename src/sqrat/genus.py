"""Geometric genus of the covers of the projective line handled here.

All genera come from Riemann-Hurwitz on ramification data, never from
desingularizing a plane model.  Three cover types appear:

  * multiquadratic covers, the smooth models of the compositum field of a
    family of square roots: a (Z/2)^r cover of P^1 with B branch points,
    each with ramification index 2 (characteristic 0, exponent-2 group),
    giving 2g - 2 = -2^(r+1) + B * 2^(r-1);

  * hyperelliptic covers z^2 = f with squarefree class representative of
    degree d: g = floor((d - 1) / 2);

  * cyclic covers z^e = f: 2g - 2 = -2e + sum over places P of
    (e - gcd(e, v_P(f))), the sum running over all places of P^1 including
    infinity, with valuations read off a gcd-free basis.

A closed form for the cyclic case in terms of the exponent pattern alone is
provided for cross-checking; it is reproduced verbatim as stated (see
superelliptic_genus_closed_form) and checked against Riemann-Hurwitz, which
this module treats as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import NormalFormViolationError, ReduciblePowerError
from .lattice import (
    BranchTable,
    LatticeSummary,
    Written,
    _coerce_radicands,
    as_written,
    branch_count,
    build_branch_table,
)
from .poly import RatFunc, UPoly, squarefree_part


@dataclass(frozen=True)
class CoverSpec:
    """A cyclic cover z^e = f of the line.

    f must not be an e'-th power in C(x) for any e' > 1 dividing e, so that
    the cover is irreducible; constants are invisible over C, so the check
    is that the gcd of all valuations of f is coprime to e.  The valuations
    are read once, from one branch table, and kept for cyclic_cover_genus;
    a Written radicand gives them from its factors' rows, unexpanded.
    """

    radicand: RatFunc | Written
    order: int
    _valuations: tuple[tuple[int, int], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        table = build_branch_table([self.radicand])  # validates the radicand
        rad = table.radicands[0]
        object.__setattr__(self, "radicand", rad)
        if not isinstance(self.order, int) or self.order < 2:
            raise ValueError("root order must be an integer >= 2")
        vals = tuple(zip((b.degree for b in table.basis), table.exponents[0]))
        vals += ((1, -as_written(rad).degree),)  # place at infinity
        object.__setattr__(self, "_valuations", vals)
        common = 0
        for _, v in vals:
            common = gcd(common, v)
        if gcd(common, self.order) > 1:
            raise ReduciblePowerError(
                f"radicand is a perfect power; z^{self.order} = f is reducible"
            )

    def valuations(self) -> list[tuple[int, int]]:
        """(number of points, valuation) pairs over all places of P^1."""
        return list(self._valuations)


def multiquadratic_genus(radicands: Sequence[RatFunc | UPoly]) -> int:
    """Genus of the compositum cover of a family of square roots."""
    return multiquadratic_genus_table(build_branch_table(radicands))


def multiquadratic_genus_table(table: BranchTable) -> int:
    """Same as multiquadratic_genus, from a prebuilt branch table."""
    return multiquadratic_genus_summary(branch_count(table))


def multiquadratic_genus_summary(summary: LatticeSummary) -> int:
    """Riemann-Hurwitz for the (Z/2)^rank cover with the summary's branch points."""
    r, b = summary.rank, summary.branch_count
    if r == 0:
        return 0
    # 2g - 2 = -2^(r+1) + B * 2^(r-1); integrality comes from B even at r = 1
    twice = 2 - 2 ** (r + 1) + b * 2 ** (r - 1)
    if twice % 2:
        raise RuntimeError("Riemann-Hurwitz gave an odd doubled genus")
    g = twice // 2
    if g < 0:
        raise RuntimeError("negative genus from Riemann-Hurwitz")
    return g


def hyperelliptic_genus(f: RatFunc | UPoly) -> int:
    """Genus of z^2 = f via the degree of the squarefree class of f."""
    [f] = _coerce_radicands([f])
    d = squarefree_part(f).degree
    if d == 0:
        return 0
    return (d - 1) // 2


def cyclic_cover_genus(cover: CoverSpec) -> int:
    """Genus of the cyclic cover z^e = f by Riemann-Hurwitz.

    A place with valuation v splits into gcd(e, v) points, each with
    ramification index e / gcd(e, v).  For e = 2 this equals
    hyperelliptic_genus of the radicand.
    """
    e = cover.order
    total = -2 * e
    for npoints, v in cover.valuations():
        total += npoints * (e - gcd(e, v % e))
    if total % 2:
        raise RuntimeError("Riemann-Hurwitz gave an odd doubled genus")
    g = (total + 2) // 2
    if g < 0:
        raise RuntimeError("negative genus from Riemann-Hurwitz")
    return g


def superelliptic_genus_closed_form(exponents: Sequence[int], e: int) -> Fraction:
    """Closed-form genus (e-1)(s-2)/2 for z^e = x^l0 * prod (x-a_i)^li.

    Normal form: the exponent list is (l_0, ..., l_m) with m >= 1, every
    l_i nonzero mod e, and sum(l_i) = 0 mod e (so infinity is unramified).
    s is m when m = 0 mod e and m+1 otherwise.

    The value is returned verbatim as a Fraction: on some normal-form
    inputs with exponents sharing a factor with e the formula is not even
    an integer, and cyclic_cover_genus (Riemann-Hurwitz) is the authority.
    Use the cross-check in the test suite to see where the two disagree.
    """
    if not isinstance(e, int) or e < 2:
        raise NormalFormViolationError("root order must be an integer >= 2")
    exps = list(exponents)
    if len(exps) < 2:
        raise NormalFormViolationError("need at least two exponents (m >= 1)")
    if any(l % e == 0 for l in exps):
        raise NormalFormViolationError("every exponent must be nonzero mod e")
    if sum(exps) % e:
        raise NormalFormViolationError("exponent sum must be divisible by e")
    m = len(exps) - 1
    s = m if m % e == 0 else m + 1
    return Fraction((e - 1) * (s - 2), 2)
