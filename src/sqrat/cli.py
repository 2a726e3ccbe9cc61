"""Command line interface.

Subcommands: decide, genus, minpoly, rationalize, scan.  Radicands come
from positional expressions or a radicand file (--file); reports print
human-readable by default and as canonical JSON with --json (sorted keys,
two-space indent, so identical inputs give byte-identical output).

Exit codes: decide and rationalize use 0 for a positive outcome, 1 for a
negative or unknown one; genus, minpoly and scan use 0 on success; every
error path exits 2 with a message on stderr.  A broken internal invariant
(RuntimeError), a RecursionError or a MemoryError also exits 2, with an
"internal error" message; --debug re-raises it with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .decide import (
    NOT_RATIONALIZABLE,
    RATIONALIZABLE,
    ScanParams,
    conjecture_scan,
    decide_set_table,
    decide_single_root,
    subset_criterion_table,
)
from .errors import SqratError
from .genus import CoverSpec, cyclic_cover_genus, multiquadratic_genus_summary
from .lattice import branch_count, build_branch_table, reduced_generators_scaled
from .parsing import RadicandSpec, parse_expr, parse_radicand_file, parse_written
from .poly import RatFunc
from .rationalize import Witness, greedy_rationalize, minpoly_multiquadratic
from .resultants import zp_to_str

SCAN_DISAGREEMENTS_FILE = "scan-disagreements.json"


def _add_radicand_args(parser: argparse.ArgumentParser):
    parser.add_argument("exprs", nargs="*", metavar="EXPR",
                        help="radicand expressions in x")
    parser.add_argument("--file", metavar="PATH",
                        help="read radicands from a file instead")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as JSON")
    _add_debug_arg(parser)


def _add_debug_arg(parser: argparse.ArgumentParser):
    parser.add_argument("--debug", action="store_true",
                        help="show the traceback of an internal error")


def _load_radicands(args, parse=None) -> list[RadicandSpec]:
    parse = parse or parse_expr  # looked up per call, so it can be patched
    if args.file and args.exprs:
        raise SqratError("give radicands either positionally or via --file")
    if args.file:
        try:
            text = Path(args.file).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:  # read whole, so start is a file offset
            raise SqratError(f"{args.file}: not UTF-8 at byte {exc.start}") from None
        return parse_radicand_file(text, parse)
    if not args.exprs:
        raise SqratError("no radicands given")
    specs = []
    for text in args.exprs:
        value = parse(text)
        if value.is_zero:
            raise SqratError(f"radicand {text!r} is zero")
        specs.append(RadicandSpec(text=text, expr=value, root_order=2))
    return specs


def _require_square_roots(specs: list[RadicandSpec], what: str):
    if any(s.root_order != 2 for s in specs):
        raise SqratError(f"{what} handles square roots only; "
                         "use 'genus --root-order' for a single higher root")


def _witness_json(witness: Witness | None):
    if witness is None:
        return None
    return {
        "phi": witness.phi.to_str("t"),
        "roots": [r.to_str("t") for r in witness.roots],
        "defects": [str(d) for d in witness.defects],
    }


def _emit(report: dict, human: list[str], as_json: bool):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in human:
            print(line)


def cmd_decide(args) -> int:
    specs = _load_radicands(args)
    inputs = [s.text for s in specs]
    report = {"command": "decide", "inputs": inputs, "version": __version__}
    if len(specs) == 1 and specs[0].root_order != 2:
        verdict = decide_single_root(specs[0].expr, specs[0].root_order)
        report.update(verdict=verdict.status, genus=verdict.genus,
                      root_order=specs[0].root_order)
        _emit(report, [
            f"verdict: {verdict.status.replace('_', ' ')}",
            f"genus: {verdict.genus}  (root order {specs[0].root_order})",
        ], args.as_json)
        return 0 if verdict.status == RATIONALIZABLE else 1
    _require_square_roots(specs, "decide on a set")
    table = build_branch_table([s.expr for s in specs])
    verdict = decide_set_table(table)
    passes, failing = subset_criterion_table(table)
    if verdict.status == NOT_RATIONALIZABLE and failing is not None:
        verdict.failing_subset = failing
    report.update(
        verdict=verdict.status,
        genus=verdict.genus,
        rank=verdict.rank,
        branch_count=verdict.branch_count,
        subset_criterion=passes,
        failing_subset=failing,
        witness=_witness_json(verdict.witness),
    )
    human = [
        f"verdict: {verdict.status.replace('_', ' ')}",
        f"genus: {verdict.genus}  rank: {verdict.rank}  "
        f"branch points: {verdict.branch_count}",
        f"subset criterion: {'pass' if passes else 'fail'}"
        + (f"  failing subset: {failing}" if failing is not None else ""),
    ]
    if verdict.witness is not None:
        human.append(f"witness: x -> {verdict.witness.phi.to_str('t')}")
        for text, root in zip(inputs, verdict.witness.roots):
            human.append(f"  sqrt({text}) -> {root.to_str('t')}")
        if verdict.witness.has_defects:
            human.append("  (with constant defects; square over C only)")
    elif verdict.status == RATIONALIZABLE:
        human.append("witness: none found (greedy construction gave up)")
    _emit(report, human, args.as_json)
    return 0 if verdict.status == RATIONALIZABLE else 1


def cmd_genus(args) -> int:
    if args.root_order is not None and args.root_order < 2:
        raise SqratError("root order must be an integer >= 2")
    # the genus reads only valuations, so radicands stay as written
    specs = _load_radicands(args, parse_written)
    inputs = [s.text for s in specs]
    report = {"command": "genus", "inputs": inputs, "version": __version__}
    orders = {s.root_order for s in specs}
    if args.root_order is not None:
        if len(specs) != 1:
            raise SqratError("--root-order needs exactly one radicand")
        if orders != {2} and orders != {args.root_order}:
            raise SqratError("--root-order conflicts with the file's root[e] prefix")
        order = args.root_order
    elif orders != {2}:
        if len(specs) != 1:
            raise SqratError("sets of higher-order roots are out of scope")
        order = specs[0].root_order
    else:
        order = 2 if len(specs) == 1 else None
    if len(specs) == 1 and order is not None and order != 2:
        g = cyclic_cover_genus(CoverSpec(specs[0].expr, order))
        report.update(genus=g, root_order=order)
        _emit(report, [f"genus: {g}  (cyclic cover, root order {order})"],
              args.as_json)
        return 0
    table = build_branch_table([s.expr for s in specs])
    summary = branch_count(table)
    g = multiquadratic_genus_summary(summary)
    report.update(genus=g, rank=summary.rank,
                  branch_count=summary.branch_count)
    _emit(report, [
        f"genus: {g}  rank: {summary.rank}  "
        f"branch points: {summary.branch_count}",
    ], args.as_json)
    return 0


def cmd_minpoly(args) -> int:
    specs = _load_radicands(args)
    _require_square_roots(specs, "minpoly")
    inputs = [s.text for s in specs]
    report = {"command": "minpoly", "inputs": inputs, "version": __version__}
    if args.reduce:
        table = build_branch_table([s.expr for s in specs])
        generators = [RatFunc(g) for g in reduced_generators_scaled(table)]
        if not generators:
            raise SqratError("all radicands have trivial square class; "
                             "nothing to reduce")
    else:
        generators = [s.expr for s in specs]
    result = minpoly_multiquadratic(generators)
    poly_str = zp_to_str(result.poly)
    report.update(minpoly=poly_str, reduced=bool(args.reduce),
                  generators=[str(g) for g in result.generators])
    _emit(report, [
        f"generators: {', '.join(str(g) for g in result.generators)}",
        f"minpoly: {poly_str}",
    ], args.as_json)
    return 0


def cmd_rationalize(args) -> int:
    specs = _load_radicands(args)
    _require_square_roots(specs, "rationalize")
    inputs = [s.text for s in specs]
    report = {"command": "rationalize", "inputs": inputs,
              "version": __version__}
    witness = greedy_rationalize([s.expr for s in specs])
    if witness is None:
        report.update(witness=None, accepted=False)
        _emit(report, ["witness: unknown (greedy construction gave up)"],
              args.as_json)
        return 1
    exact = not witness.has_defects
    accepted = exact or args.allow_constant_defect
    report.update(witness=_witness_json(witness), accepted=accepted)
    human = [f"witness: x -> {witness.phi.to_str('t')}"]
    for text, root, defect in zip(inputs, witness.roots, witness.defects):
        extra = "" if defect == 1 else f"   (defect {defect})"
        human.append(f"  sqrt({text}) -> {root.to_str('t')}{extra}")
    if not exact:
        human.append(
            "constant defects present: valid over C; "
            + ("accepted (--allow-constant-defect)" if accepted
               else "pass --allow-constant-defect to accept")
        )
    _emit(report, human, args.as_json)
    return 0 if accepted else 1


def cmd_scan(args) -> int:
    params = ScanParams(max_m=args.max_m, coeff_bound=args.coeff_bound)
    scan = conjecture_scan(seed=args.seed, trials=args.trials, params=params)
    out_path = None
    if scan.disagreements:
        out_path = args.out or SCAN_DISAGREEMENTS_FILE
        Path(out_path).write_text(
            json.dumps(scan.disagreements, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    report = {
        "command": "scan",
        "inputs": [],
        "version": __version__,
        "scan": {
            "seed": scan.seed,
            "trials": scan.trials,
            "agreements": scan.agreements,
            "disagreement_count": len(scan.disagreements),
            "disagreements": scan.disagreements,
            "disagreements_file": out_path,
            "params": {
                "max_m": scan.params.max_m,
                "max_factors": scan.params.max_factors,
                "coeff_bound": scan.params.coeff_bound,
            },
        },
    }
    human = [
        f"trials: {scan.trials}  agreements: {scan.agreements}  "
        f"disagreements: {len(scan.disagreements)}",
    ]
    if scan.disagreements:
        human.append(f"candidate counterexamples written to {out_path}")
    else:
        human.append("no disagreement between the subset criterion and the "
                     "genus decision")
    _emit(report, human, args.as_json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqrat",
        description="Exact rationalizability of square roots over Q(x)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide rationalizability of a set")
    _add_radicand_args(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("genus", help="genus of the associated cover")
    _add_radicand_args(p)
    p.add_argument("--root-order", type=int, metavar="E", default=None,
                   help="treat the single radicand as an E-th root")
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("minpoly",
                       help="minimal polynomial of the sum of square roots")
    _add_radicand_args(p)
    p.add_argument("--reduce", action="store_true",
                   help="replace the family by reduced lattice generators")
    p.set_defaults(func=cmd_minpoly)

    p = sub.add_parser("rationalize", help="construct an explicit witness")
    _add_radicand_args(p)
    p.add_argument("--allow-constant-defect", action="store_true",
                   help="accept witnesses that are squares over C only")
    p.set_defaults(func=cmd_rationalize)

    p = sub.add_parser("scan",
                       help="scan random families for conjecture counterexamples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-m", type=int, default=3, dest="max_m")
    p.add_argument("--coeff-bound", type=int, default=5, dest="coeff_bound")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="where to write disagreements (default "
                        f"{SCAN_DISAGREEMENTS_FILE})")
    p.add_argument("--json", action="store_true", dest="as_json")
    _add_debug_arg(p)
    p.set_defaults(func=cmd_scan)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of main(), built once: parse_args leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SqratError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as exc:  # RecursionError included
        if args.debug:
            raise
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
