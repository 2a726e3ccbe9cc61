"""Square-class data of a radicand family.

A family f_1, ..., f_m of nonzero rational functions generates a subgroup
of Q(x)*/(Q(x)*)^2, a vector space over GF(2).  Working over C, constants
are squares, so the class of each f_i is determined by the parities of its
valuations.  A gcd-free basis b_1, ..., b_k of the numerators and
denominators makes those valuations computable without factoring: every
complex root of a basis element sees the same valuation vector.

The branch table records, for each radicand, its integer exponent vector on
the basis plus a parity row over GF(2) with one extra column for the place
at infinity (parity of deg num - deg den).  Rank of the parity matrix is
log2 of the degree of the compositum field; a basis element is a branch
locus of the compositum cover iff its parity column is nonzero, and the
total number of geometric branch points feeds Riemann-Hurwitz downstream.

A radicand reaches the table as written: c * prod a_j^(e_j), a Written
tuple of (a_j, e_j) pairs with polynomials a_j and nonzero integers e_j
(e_j < 0 for a divisor).  A RatFunc f is the pair list (num f, 1),
(den f, -1).  The basis is taken of the factors a_j, never of their
product, and the radicand's row is sum e_j * row(a_j); its parity at
infinity is that of sum e_j * deg a_j.  For a product of powers such as
(x+1)^2000 / (x^2-1)^1000 the product is never expanded.

The basis of the factors can be finer than that of the expanded values:
(x^2-1)^2 * (x^2-4)^2 gives {x^2-1, x^2-4} where the expanded value gives
their product.  Every element of the coarser basis is a product of finer
elements with the same exponent row, since each complex root has one
valuation per radicand whichever way it is computed, and a root whose
valuations all cancel sits in a zero column.  Splitting a column into
equal columns and adding zero columns changes neither the rank, nor the
branch count (the degrees of the odd columns sum to the same number of
roots), nor the Riemann-Hurwitz sum of a cyclic cover, nor the gcd of
all valuations, so every genus and verdict read from the table is the
same.

A request builds its table once: the same table serves the genus verdict,
the subset criterion and the reduced generators, and one GF(2) elimination
(gf2_eliminate) gives the rank, the reduced rows and the first dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyFamilyError, ZeroRadicandError
from .poly import RatFunc, UPoly, coprime_basis, square_class


class Written(tuple):
    """A nonzero constant times prod a_j^(e_j), as its (a_j, e_j) pairs.

    The a_j are UPolys and the e_j nonzero ints.  The constant is not kept:
    constants are squares over C, so it has no place in the table.
    """

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return any(a.is_zero for a, _ in self)

    @property
    def degree(self) -> int:
        """Degree of the value: sum of e_j * deg a_j (the radicand is nonzero)."""
        return sum(e * a.degree for a, e in self)


def as_written(f: RatFunc | Written) -> Written:
    """f as its written factors; a RatFunc is its numerator over its denominator."""
    return f if isinstance(f, Written) else Written(((f.num, 1), (f.den, -1)))


@dataclass(frozen=True)
class BranchTable:
    """Coprime basis, exponent matrix and GF(2) parity matrix of a family.

    parity rows have k+1 entries: one per basis element (sorted by degree,
    then coefficients) and a final column for the place at infinity.
    """

    radicands: tuple[RatFunc | Written, ...]
    basis: tuple[UPoly, ...]
    exponents: tuple[tuple[int, ...], ...]
    parity: tuple[tuple[int, ...], ...]

    @property
    def family_size(self) -> int:
        return len(self.radicands)

    def parity_masks(self, include_infinity: bool = True) -> list[int]:
        """Parity rows as bitmasks, bit j = column j, highest bit = infinity."""
        width = len(self.basis) + 1 if include_infinity else len(self.basis)
        masks = []
        for row in self.parity:
            mask = 0
            for j in range(width):
                if row[j]:
                    mask |= 1 << j
            masks.append(mask)
        return masks


@dataclass(frozen=True)
class LatticeSummary:
    """Rank and geometric branch data of the square-class lattice."""

    rank: int
    branch_count: int
    ramified_basis_indices: tuple[int, ...]
    infinity_ramified: bool


def _coerce_radicands(radicands: Sequence[RatFunc | UPoly],
                      kinds: type | tuple[type, ...] = RatFunc) -> list:
    if len(radicands) == 0:
        raise EmptyFamilyError("the radicand family is empty")
    out = []
    for f in radicands:
        if isinstance(f, UPoly):
            f = RatFunc(f)
        if not isinstance(f, kinds):
            raise TypeError("radicands must be RatFunc or UPoly values")
        if f.is_zero:
            raise ZeroRadicandError("zero radicand in the family")
        out.append(f)
    return out


def build_branch_table(
        radicands: Sequence[RatFunc | UPoly | Written]) -> BranchTable:
    """Compute the branch table of a nonempty family of nonzero radicands.

    Radicands with trivial square class contribute an all-zero parity row.
    Exponent rows come from the coprime basis's own exponent matrix of the
    written factors: a radicand's row is sum e_j * row(a_j), for a RatFunc
    the numerator's row minus the denominator's row.
    """
    rads = _coerce_radicands(radicands, (RatFunc, Written))
    written = [as_written(f) for f in rads]
    support = [a for w in written for a, _ in w if not a.is_constant]
    basis, support_rows = coprime_basis(support)
    rows = iter(support_rows)
    exponents = []
    parity = []
    zero = (0,) * len(basis)
    for w in written:
        row = zero
        for a, e in w:
            if not a.is_constant:
                row = tuple(r + e * v for r, v in zip(row, next(rows)))
        exponents.append(row)
        parity.append(tuple(v % 2 for v in row) + (w.degree % 2,))
    return BranchTable(
        radicands=tuple(rads),
        basis=tuple(basis),
        exponents=tuple(exponents),
        parity=tuple(parity),
    )


def gf2_eliminate(table: BranchTable) -> tuple[list[tuple[int, int]], int | None]:
    """Row-echelon reduction of the parity matrix over GF(2).

    Rows are processed in input order; each is reduced against the pivots
    found so far, a pivot's column being its lowest set bit (infinity
    column last).  Returns the (input_mask, reduced_row_mask) pairs in the
    order the pivots were found, and the input_mask of the first row that
    reduces to zero (None if the rows are independent); an input_mask
    records which input rows were XORed.
    """
    pivots: list[tuple[int, int, int]] = []  # (pivot_bit, row_mask, input_mask)
    dependent = None
    for i, mask in enumerate(table.parity_masks()):
        combo = 1 << i
        for bit, row, src in pivots:
            if mask & bit:
                mask ^= row
                combo ^= src
        if mask:
            pivots.append((mask & -mask, mask, combo))
        elif dependent is None:
            dependent = combo
    return [(src, row) for _, row, src in pivots], dependent


def lattice_rank(table: BranchTable) -> int:
    """Rank of the parity matrix over GF(2); 2^rank is the compositum degree."""
    return len(gf2_eliminate(table)[0])


def branch_count(table: BranchTable) -> LatticeSummary:
    """Count geometric branch points of the compositum cover.

    Basis element j is a branch locus iff parity column j is nonzero; each
    contributes deg(b_j) complex points.  The place at infinity adds one
    more when its column is nonzero.  When the rank is 1 the count is even
    (a single hyperelliptic class ramifies at an even number of places).
    """
    rank = lattice_rank(table)
    k = len(table.basis)
    ramified = tuple(
        j for j in range(k) if any(row[j] for row in table.parity)
    )
    infinity = any(row[k] for row in table.parity)
    total = sum(table.basis[j].degree for j in ramified) + (1 if infinity else 0)
    if rank == 1 and total % 2:
        raise RuntimeError("odd branch count for a rank-1 lattice")
    summary = LatticeSummary(
        rank=rank,
        branch_count=total,
        ramified_basis_indices=ramified,
        infinity_ramified=infinity,
    )
    m, cols = len(table.radicands), k + 1
    if not (rank <= m and rank <= cols):
        raise RuntimeError("lattice rank exceeds its bounds")
    return summary


def reduced_generators(table: BranchTable) -> list[UPoly]:
    """Monic class representatives of a GF(2) basis of the lattice.

    Each reduced parity row maps to the product of its finite basis
    elements (monic, constants dropped).  Rows are returned in the order
    their pivots were found.
    """
    gens = []
    for _, row_mask in gf2_eliminate(table)[0]:
        g = UPoly.one()
        for j, b in enumerate(table.basis):
            if row_mask & (1 << j):
                g = g * b
        gens.append(g)
    return gens


def reduced_generators_scaled(table: BranchTable) -> list[UPoly]:
    """Constant-preserving representatives of the reduced generators.

    Each reduced row is realized as the subset product of the original
    radicands recorded during elimination, with squares stripped but the
    leading constant kept: the representative of class c * g * h^2 is the
    polynomial c * g.  Feeding these to the minimal polynomial keeps the
    radicands' own scaling (e.g. 4x+1 rather than its monic class x+1/4).
    """
    gens = []
    for input_mask, _ in gf2_eliminate(table)[0]:
        prod = RatFunc(1)
        for i, f in enumerate(table.radicands):
            if input_mask & (1 << i):
                prod = prod * f
        c, g, _ = square_class(prod)
        gens.append(UPoly.constant(c) * g)
    return gens
