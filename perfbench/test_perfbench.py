"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q perfbench

The smoke and trace tests start the real benchmark in subprocesses and
take about half a minute together.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from reference import family_invariants, radicand_factors  # noqa: E402


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, seed: int, seconds: float, trace: int,
              cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = json.dumps(workloads.make_items(workload, 7, 40))
    again = json.dumps(workloads.make_items(workload, 7, 40))
    other = json.dumps(workloads.make_items(workload, 8, 40))
    assert first == again
    assert first != other


def test_reference_known_answers():
    # {x, 4x+1, x(x-4)}: three independent classes, branch points 0, -1/4,
    # 4 and infinity, so genus 1 (the acceptance suite states the same)
    ref = family_invariants([radicand_factors(t) for t in ("x", "4*x+1", "x^2-4*x")])
    assert (ref["genus"], ref["rank"], ref["branch_count"]) == (1, 3, 4)
    assert ref["verdict"] == "not_rationalizable"
    assert ref["failing_subset"] == [1, 2]
    ref = family_invariants([radicand_factors(t)
                             for t in ("x^2-x", "x^2-2*x", "x^2-3*x+2")])
    assert (ref["genus"], ref["rank"], ref["branch_count"]) == (0, 2, 3)
    assert ref["subset_pass"] and ref["verdict"] == "rationalizable"


def test_checker_rejects_wrong_and_unreadable_outputs():
    from reference import Checker

    item = workloads.bigdeg_item(1, 1)  # square-root genus of one radicand
    checker = Checker()
    want = checker.expected(1, item)
    good = json.dumps({"genus": want["genus"], "rank": want["rank"],
                       "branch_count": want["branch_count"]})
    record = {"rc": 0, "out": good, "err": None}
    assert checker.check(1, item, record) == (True, None)
    wrong = json.dumps({"genus": want["genus"] + 1, "rank": want["rank"],
                        "branch_count": want["branch_count"]})
    assert checker.check(1, item, dict(record, out=wrong)) == (False, None)
    assert checker.check(1, item, dict(record, rc=2)) == (False, None)
    assert checker.check(1, item, dict(record, out="")) == (False, None)

    item = workloads.minpoly_item(1, 1)
    report = {"minpoly": "z^32 + (x", "reduced": False,
              "generators": item["meta"]["radicands"]}
    record = {"rc": 0, "out": json.dumps(report), "err": None}
    assert checker.check(1, item, record) == (False, None)


def test_witness_check_rejects_a_wrong_defect():
    from reference import witness_holds

    good = {"phi": "t^2", "roots": ["t"], "defects": ["3"]}
    assert witness_holds(["3*x"], good)
    assert not witness_holds(["3*x"], dict(good, defects=["1"]))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_has_no_errors(workload):
    result = last_json(run_bench(workload, 3, 1, 0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_repeat_call_counts():
    first = last_json(run_bench("scan", 5, 1, 1))
    second = last_json(run_bench("scan", 5, 1, 1))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    counts = {k: v["value"] for k, v in first["metrics"].items()
              if k.endswith(".calls")}
    assert counts == {k: v["value"] for k, v in second["metrics"].items()
                      if k.endswith(".calls")}
    # two branch tables per scan trial, both built inside the library
    assert first["metrics"]["lattice.build_branch_table.per_item"]["value"] == 2.0
    assert counts["poly.UPoly.__mul__.calls"] > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("scan", 1, 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
