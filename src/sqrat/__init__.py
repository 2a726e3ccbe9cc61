"""Exact decision of rationalizability for square roots over Q(x).

A square root sqrt(f) of a rational function is rationalizable when some
rational substitution x -> phi(t) turns f into a perfect square; a set of
square roots is rationalizable when one substitution works for all of them
at once.  The question reduces to the geometric genus of the cover of the
line generated by the square roots, which this package computes exactly
over arbitrary-precision rationals: no floating point, no factorization
over Q, no external computer algebra system.

Main entry points:

    parse_expr, parse_radicand_file      read radicands
    decide_set, decide_single_sqrt,
    decide_single_root, subset_criterion verdicts
    multiquadratic_genus, hyperelliptic_genus,
    cyclic_cover_genus                   genus computations
    greedy_rationalize, verify_witness   explicit substitutions
    minpoly_multiquadratic               primitive element minimal polynomial
    conjecture_scan                      random check of the subset criterion

The `sqrat` command line exposes the same operations.
"""

__version__ = "0.1.0"

from .decide import (
    NOT_RATIONALIZABLE,
    RATIONALIZABLE,
    UNKNOWN,
    ScanParams,
    ScanReport,
    Verdict,
    conjecture_scan,
    decide_set,
    decide_single_root,
    decide_single_sqrt,
    scan_trial_outcome,
    subset_criterion,
)
from .errors import SqratError
from .genus import (
    CoverSpec,
    cyclic_cover_genus,
    hyperelliptic_genus,
    multiquadratic_genus,
    superelliptic_genus_closed_form,
)
from .lattice import (
    BranchTable,
    LatticeSummary,
    branch_count,
    build_branch_table,
    lattice_rank,
    reduced_generators,
    reduced_generators_scaled,
)
from .parsing import RadicandSpec, parse_expr, parse_radicand_file
from .poly import (
    NotSquare,
    RatFunc,
    SqfDecomp,
    SquareOverC,
    SquareOverQ,
    UPoly,
    coprime_basis,
    gcd_cofactors,
    is_square,
    poly_gcd,
    square_class,
    squarefree_decompose,
    squarefree_part,
    substitute,
)
from .rationalize import (
    MinPoly,
    Witness,
    greedy_rationalize,
    minpoly_multiquadratic,
    rationalize_conic,
    rationalize_linear,
    verify_witness,
)
from .resultants import clear_denominators_monic, zp_to_str, zpoly

__all__ = [
    "BranchTable",
    "CoverSpec",
    "LatticeSummary",
    "MinPoly",
    "NOT_RATIONALIZABLE",
    "NotSquare",
    "RATIONALIZABLE",
    "RadicandSpec",
    "RatFunc",
    "ScanParams",
    "ScanReport",
    "SqfDecomp",
    "SqratError",
    "SquareOverC",
    "SquareOverQ",
    "UNKNOWN",
    "UPoly",
    "Verdict",
    "Witness",
    "branch_count",
    "build_branch_table",
    "clear_denominators_monic",
    "conjecture_scan",
    "coprime_basis",
    "cyclic_cover_genus",
    "decide_set",
    "decide_single_root",
    "decide_single_sqrt",
    "gcd_cofactors",
    "greedy_rationalize",
    "hyperelliptic_genus",
    "is_square",
    "lattice_rank",
    "minpoly_multiquadratic",
    "multiquadratic_genus",
    "parse_expr",
    "parse_radicand_file",
    "poly_gcd",
    "rationalize_conic",
    "rationalize_linear",
    "reduced_generators",
    "reduced_generators_scaled",
    "scan_trial_outcome",
    "square_class",
    "squarefree_decompose",
    "squarefree_part",
    "subset_criterion",
    "substitute",
    "superelliptic_genus_closed_form",
    "verify_witness",
    "zp_to_str",
    "zpoly",
]
