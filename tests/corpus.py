"""Differential corpus: one sha256 per record of what sqrat outputs.

A record pairs an input with everything the program makes of it:

  cli:<workload>:<seed>:<index>
      an item of perfbench/workloads.py (read, never changed): for "cli"
      items the exit code, stdout and stderr of sqrat.cli.main on its
      argv, for "scan" items scan_trial_outcome of its parsed texts;
  parse:<kind>:<seed>:<index>
      a generated text and parse_expr's value (numerator and denominator
      strings) or error (class, message, position).  The kinds are
      grammar (random expressions), junk (random characters), zerodiv
      (divisors that are identically zero) and budget (sizes at and past
      the parser's limits).

Each record is hashed as the JSON of [input, outcome], so a record
changes when the program's output for the same input does.  The digest
file corpus.sha256 in this directory holds one "<key> <sha256>" line per
record, written from the program as it was before the polynomial
representation changed; tests/test_corpus.py recomputes a slice of it.

    python tests/corpus.py write [--out FILE] [--seeds 1 2] [--scale 1]
    python tests/corpus.py check [--digests FILE]

--scale multiplies the item and text counts, for larger comparisons of
two checkouts: write both with the same arguments, each with its own
src on PYTHONPATH, and compare the files.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("corpus.sha256")
sys.path.append(str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)

from sqrat import cli  # noqa: E402
from sqrat.decide import scan_trial_outcome  # noqa: E402
from sqrat.parsing import parse_expr  # noqa: E402

SEEDS = (1, 2)
# items per workload and texts per parser kind, per seed, at scale 1
COUNTS = {"scan": 300, "witness": 60, "minpoly": 16, "bigdeg": 60,
          "grammar": 600, "junk": 400, "zerodiv": 250, "budget": 250}
PARSE_KINDS = ("grammar", "junk", "zerodiv", "budget")


# -- parser texts -------------------------------------------------------------

LEAVES = ("x", "0", "1", "2", "3", "7", "12", "x", "(x-x)", "99999999999")
JUNK = "x0123456789+-*/^() \t\n\u00a0\u00b2\u0663.#$yz\u00e9_"


def _expression(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.25:
        return "y" if rng.random() < 0.01 else rng.choice(LEAVES)
    form = rng.randrange(5)
    a = _expression(rng, depth - 1)
    if form == 0:
        return f"{a}{rng.choice('+-*/')}{_expression(rng, depth - 1)}"
    if form == 1:
        return f"({a})"
    if form == 2:
        return f"-{a}"
    if form == 3:
        exponent = rng.choice(["0", "1", "2", "3", "5", "(4/2)", "-1", "(1/2)",
                               "x", "(x-x)", "(2-2)", "2^2"])
        return f"({a})^{exponent}"
    return f"({a})/({_expression(rng, depth - 1)})"


def parse_text(kind: str, seed: int, index: int) -> str:
    rng = random.Random(f"parse:{kind}:{seed}:{index}")
    if kind == "grammar":
        text = _expression(rng, rng.randint(1, 6))
        if rng.random() < 0.2:
            text += rng.choice(["+", ")", "(", "^^2", " 2", "*"])
        return text
    if kind == "junk":
        return "".join(rng.choice(JUNK) for _ in range(rng.randint(0, 30)))
    a, b = _expression(rng, 3), _expression(rng, 3)
    if kind == "zerodiv":
        zero = rng.choice([f"({b})-({b})", f"(({b})-({b}))^{rng.randint(1, 9)}",
                           f"0*({b})", f"({b})*(x-x)", f"(0^{rng.randint(1, 3)})",
                           f"(({b})^0-1)", f"-(({b})-({b}))"])
        return f"({a})/({zero})"
    # budget: exponents, integers and products of powers near the limits
    d = rng.randint(1, 6)
    base = "+".join(f"{rng.randint(1, 99)}*x^{k}" for k in range(d + 1))
    return rng.choice([
        f"({base})^{4096 // d + rng.randint(-2, 2)}",
        f"({base})^{rng.randint(1000, 4100)}*({a})^{rng.randint(0, 3000)}",
        f"x^{rng.randint(4090, 4100)}*({a})",
        f"({a})/({base})^{rng.randint(500, 5000)}",
        "9" * rng.randint(2460, 2470) + f"*({a})",
        f"(({base})^{rng.randint(2, 70)})^{rng.randint(2, 70)}",
        f"2^{rng.randint(8190, 8194)}*x",
    ])


def parse_outcome(text: str) -> list:
    try:
        value = parse_expr(text)
    except Exception as exc:
        return [type(exc).__name__, str(exc), getattr(exc, "position", None)]
    return ["ok", value.num.to_str(), value.den.to_str()]


# -- workload items ------------------------------------------------------------


def item_outcome(item: dict) -> list:
    """What perfbench/worker.py records of an item: exit code, out, err."""
    if item["call"] == "scan":
        outcome = scan_trial_outcome([parse_expr(t) for t in item["texts"]])
        return [0, json.dumps(outcome, sort_keys=True), None]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(item["argv"])
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code
    return [rc, out.getvalue(), err.getvalue()]


# -- records ----------------------------------------------------------------------


def keys(seeds=SEEDS, scale: int = 1) -> list[str]:
    out = []
    for seed in seeds:
        for name in (*workloads.WORKLOADS, *PARSE_KINDS):
            prefix = "parse" if name in PARSE_KINDS else "cli"
            out += [f"{prefix}:{name}:{seed}:{i}" for i in range(COUNTS[name] * scale)]
    return out


def record(key: str) -> str:
    """sha256 of the JSON of [input, outcome] of the record named key."""
    prefix, name, seed, index = key.split(":")
    if prefix == "cli":
        item = workloads.GENERATORS[name](int(seed), int(index))
        data = [item.get("argv") or item["texts"], item_outcome(item)]
    else:
        text = parse_text(name, int(seed), int(index))
        data = [text, parse_outcome(text)]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def read_digests(path: Path = DIGESTS) -> dict[str, str]:
    with open(path, encoding="ascii") as fh:
        return dict(line.split() for line in fh if line.strip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    write = sub.add_parser("write")
    write.add_argument("--out", type=Path, default=DIGESTS)
    write.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    write.add_argument("--scale", type=int, default=1)
    check = sub.add_parser("check")
    check.add_argument("--digests", type=Path, default=DIGESTS)
    args = ap.parse_args(argv)
    if args.command == "write":
        with open(args.out, "w", encoding="ascii") as fh:
            for key in keys(args.seeds, args.scale):
                fh.write(f"{key} {record(key)}\n")
        return 0
    expected = read_digests(args.digests)
    bad = [key for key, digest in expected.items() if record(key) != digest]
    for key in bad:
        print(f"differs: {key}")
    print(f"{len(expected) - len(bad)} of {len(expected)} records match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
