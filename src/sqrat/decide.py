"""Rationalizability verdicts and the conjecture scan harness.

A single square root sqrt(f) is rationalizable iff the hyperelliptic curve
z^2 = f has geometric genus zero, iff the squarefree class of f has degree
at most 2.  A set of square roots is rationalizable iff the compositum of
the corresponding quadratic extensions is, iff the multiquadratic cover
has genus zero: a unirational curve is rational (Lueroth), and over an
algebraically closed constant field a genus-zero curve has a point, so
genus zero is both necessary and sufficient.  Higher-order single roots
use the cyclic cover genus the same way.

The subset criterion asks that every nonempty subset product have
squarefree class degree at most 2.  For univariate input it holds exactly
when the genus is zero.  Necessity: each quadratic subcover z^2 = g of a
genus zero curve has genus zero, so deg g <= 2.  Sufficiency, the lemma:
let the classes span a group of rank r and let the cover branch at B
points.  Subset products run over the whole span, so under the criterion
each of its 2^r - 1 nonzero classes g has degree 1 or 2 and hence exactly
2 branch points (its roots, plus infinity when deg g = 1).  A branch point
p ramifies in the class g exactly when g has odd order at p, a nonzero
linear condition on g, so p ramifies in 2^(r-1) of the nonzero classes.
Counting pairs (p, g) gives B * 2^(r-1) = 2 * (2^r - 1).  For r >= 3 the
left side is divisible by 4 and the right side is not, so r <= 2 and
(r, B) is (0, 0), (1, 2) or (2, 3); Riemann-Hurwitz,
2g - 2 = -2^(r+1) + B * 2^(r-1), then gives genus 0 in each case.
conjecture_scan, named for when the converse was open, compares the two
on random families and so serves as a regression oracle: a disagreement
is recorded, not raised, and points at a bug.

The criterion needs no 2^m enumeration.  Subset products multiply classes,
which XORs their finite parity rows; the weight of a row is its class
degree, the sum of the degrees of the basis elements in it.

- Three members are enough.  Let V be the span of the rows: the set of
  XORs of subsets.  If dim V <= 2, a basis of V can be picked among the
  rows, so every element of V is the XOR of at most 2 rows.  If dim V >= 3,
  take 3 independent rows.  Each column in the support of their span is
  set in exactly 4 of the span's 7 nonzero elements, so those 7 weights add
  up to 4 * w, where w >= 3 is the weight of the support.  If every weight
  were at most 2, then 4 * w <= 14 forces w = 3, with three columns of
  weight 1; the span would then be all of GF(2)^3 on those columns and
  would contain an element of weight 3, a contradiction.  So if any subset
  fails, some XOR of at most 3 rows fails.
- First occurrences are enough.  Enumerating by size, then
  lexicographically, every smaller subset has passed by the time a subset
  is reached.  Two equal rows cancel, so the rows of the first failing
  subset are pairwise distinct.  Replacing a member by an earlier index
  with the same row keeps the subset failing and makes it lexicographically
  smaller, so the first failing subset uses only the first index of each
  row, and checking the subsets of first occurrences in the same order
  returns it.
- Cost.  With D distinct rows, the check makes O(m + D^2) steps.  A
  passing family has genus 0, so its rank is at most 2 and D <= 4.  In a
  failing family, any 5 distinct rows span dimension >= 3 (a plane has
  only 4 elements) and so contain a failing subset of size <= 3.  Once
  sizes 1 and 2 have passed, the triples whose least member is among the
  first 3 rows, about 3 * D^2 / 2 of them, contain one.

Both questions are read off the same branch table, so a request that asks
both (a scan trial, the CLI's decide) builds the table once and passes it
to decide_set_table and subset_criterion_table.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import InvalidParamsError
from .genus import (
    CoverSpec,
    cyclic_cover_genus,
    hyperelliptic_genus,
    multiquadratic_genus_summary,
)
from .lattice import (
    BranchTable,
    branch_count,
    build_branch_table,
)
from .poly import RatFunc, UPoly
from .rationalize import Witness, greedy_rationalize

RATIONALIZABLE = "rationalizable"
NOT_RATIONALIZABLE = "not_rationalizable"
UNKNOWN = "unknown"


@dataclass
class Verdict:
    """Decision outcome with the genus data that produced it."""

    status: str
    genus: Optional[int] = None
    rank: Optional[int] = None
    branch_count: Optional[int] = None
    failing_subset: Optional[list[int]] = None
    witness: Optional[Witness] = None

    def __post_init__(self):
        if self.status not in (RATIONALIZABLE, NOT_RATIONALIZABLE, UNKNOWN):
            raise ValueError(f"unknown verdict status {self.status!r}")
        if self.genus is not None:
            if self.status == RATIONALIZABLE and self.genus != 0:
                raise ValueError("rationalizable verdict requires genus 0")
            if self.status == NOT_RATIONALIZABLE and self.genus < 1:
                raise ValueError("negative verdict requires genus >= 1")
        if self.failing_subset is not None and self.status != NOT_RATIONALIZABLE:
            raise ValueError("failing subset only accompanies a negative verdict")


def decide_single_sqrt(f: RatFunc | UPoly) -> Verdict:
    """Rationalizability of a single square root: genus zero test."""
    g = hyperelliptic_genus(f)
    status = RATIONALIZABLE if g == 0 else NOT_RATIONALIZABLE
    return Verdict(status=status, genus=g)


def decide_single_root(f: RatFunc | UPoly, e: int) -> Verdict:
    """Rationalizability of a single e-th root via the cyclic cover genus."""
    g = cyclic_cover_genus(CoverSpec(f, e))
    status = RATIONALIZABLE if g == 0 else NOT_RATIONALIZABLE
    return Verdict(status=status, genus=g)


def decide_set(radicands: Sequence[RatFunc | UPoly],
               attach_witness: bool = True) -> Verdict:
    """Rationalizability of a set of square roots via the compositum genus.

    On a positive verdict a witness is attached when the greedy construction
    succeeds; its absence never changes the verdict.  The procedure is
    total on univariate input: the status is never unknown.
    """
    return decide_set_table(build_branch_table(radicands), attach_witness)


def decide_set_table(table: BranchTable, attach_witness: bool = True) -> Verdict:
    """Same as decide_set, from a prebuilt branch table."""
    summary = branch_count(table)
    g = multiquadratic_genus_summary(summary)
    if g == 0:
        if (summary.rank, summary.branch_count) not in ((0, 0), (1, 2), (2, 3)):
            raise RuntimeError(f"genus 0 with rank {summary.rank} and "
                               f"{summary.branch_count} branch points")
        witness = greedy_rationalize(table.radicands) if attach_witness else None
        return Verdict(status=RATIONALIZABLE, genus=0, rank=summary.rank,
                       branch_count=summary.branch_count, witness=witness)
    return Verdict(status=NOT_RATIONALIZABLE, genus=g, rank=summary.rank,
                   branch_count=summary.branch_count)


def subset_criterion(radicands: Sequence[RatFunc | UPoly]
                     ) -> tuple[bool, Optional[list[int]]]:
    """Check every nonempty subset product for class degree at most 2.

    Subsets are ordered by size, then lexicographically; the first failing
    subset is returned as a 0-based index list.  Square classes multiply
    by XOR of parity rows, so the check runs on the branch table without
    forming any products.  By the module docstring only subsets of at most
    three members with pairwise distinct rows are checked: O(m + D^2) of
    them for D distinct rows, O(m) when the family passes.  Any family
    size is accepted.
    """
    return subset_criterion_table(build_branch_table(radicands))


def subset_criterion_table(table: BranchTable
                           ) -> tuple[bool, Optional[list[int]]]:
    """Same as subset_criterion, from a prebuilt branch table."""
    # one column mask per distinct basis degree: the class degree of a mask
    # is the sum of degree * popcount(mask & columns)
    columns: dict[int, int] = {}
    for j, b in enumerate(table.basis):
        columns[b.degree] = columns.get(b.degree, 0) | 1 << j
    first: dict[int, int] = {}
    for i, row in enumerate(table.parity_masks(include_infinity=False)):
        first.setdefault(row, i)
    for size in range(1, min(len(first), 3) + 1):
        for combo in itertools.combinations(first.items(), size):
            mask = 0
            for row, _ in combo:
                mask ^= row
            class_degree = 0
            for degree, cols in columns.items():
                class_degree += degree * (mask & cols).bit_count()
            if class_degree > 2:
                return False, [i for _, i in combo]
    return True, None


# -- conjecture scan ----------------------------------------------------------


@dataclass(frozen=True)
class ScanParams:
    """Bounds for the random radicand generator."""

    max_m: int = 3
    max_factors: int = 3
    coeff_bound: int = 5

    def validate(self):
        if self.max_m < 2:
            raise InvalidParamsError("max_m must be at least 2")
        if self.max_factors < 1:
            raise InvalidParamsError("max_factors must be at least 1")
        if self.coeff_bound < 1:
            raise InvalidParamsError("coeff_bound must be at least 1")


@dataclass
class ScanReport:
    """Outcome of a deterministic scan of the criterion against the genus."""

    seed: int
    trials: int
    agreements: int
    disagreements: list[dict] = field(default_factory=list)
    params: ScanParams = field(default_factory=ScanParams)

    def __post_init__(self):
        if self.agreements + len(self.disagreements) != self.trials:
            raise ValueError("agreements + disagreements must equal trials")


def _random_radicand(rng: random.Random, params: ScanParams) -> UPoly:
    factors = rng.randint(1, params.max_factors)
    out = UPoly.one()
    bound = params.coeff_bound
    for _ in range(factors):
        if rng.random() < 0.5:
            out = out * UPoly((rng.randint(-bound, bound), 1))
        else:
            out = out * UPoly((rng.randint(-bound, bound),
                               rng.randint(-bound, bound), 1))
    return out


def scan_trial_outcome(radicands: Sequence[RatFunc | UPoly]) -> dict:
    """Compare the subset criterion with the genus decision on one family.

    The proven direction (rationalizable implies the criterion passes) is
    enforced as a hard assertion; a violation would be a bug, not data.
    """
    table = build_branch_table(radicands)
    rads = table.radicands
    verdict = decide_set_table(table, attach_witness=False)
    passes, failing = subset_criterion_table(table)
    if verdict.status == RATIONALIZABLE and not passes:
        raise RuntimeError(
            "proven direction violated: rationalizable family failed the "
            f"subset criterion on {[str(f) for f in rads]}"
        )
    return {
        "radicands": [str(f) for f in rads],
        "subset_pass": passes,
        "failing_subset": failing,
        "verdict": verdict.status,
        "genus": verdict.genus,
        "agreement": passes == (verdict.status == RATIONALIZABLE),
    }


def conjecture_scan(seed: int, trials: int,
                    params: ScanParams | None = None) -> ScanReport:
    """Deterministic random comparison of the subset criterion and the genus.

    Each trial draws m in [2, max_m] radicands, every radicand a product of
    at most max_factors monic linear or quadratic factors with integer
    coefficients in [-coeff_bound, coeff_bound].  Per-trial RNG streams are
    derived from (seed, trial index), so the report is reproducible
    regardless of evaluation order.  Disagreements (criterion passes but
    the genus is positive, or vice versa) are recorded verbatim.  By the
    lemma in the module docstring there are none on univariate input, so
    any entry reports a bug in one of the two computations.
    """
    if params is None:
        params = ScanParams()
    params.validate()
    if not isinstance(trials, int) or trials < 1:
        raise InvalidParamsError("trials must be a positive integer")
    agreements = 0
    disagreements: list[dict] = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        m = rng.randint(2, params.max_m)
        rads = [RatFunc(_random_radicand(rng, params)) for _ in range(m)]
        outcome = scan_trial_outcome(rads)
        if outcome["agreement"]:
            agreements += 1
        else:
            outcome["trial"] = trial
            disagreements.append(outcome)
    return ScanReport(seed=seed, trials=trials, agreements=agreements,
                      disagreements=disagreements, params=params)
