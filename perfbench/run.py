"""sqrat benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository (the sqrat sources are read from
src/ next to this directory).  The run

  1. times `setup_s`: fresh interpreters up to `import sqrat.cli` and
     build_parser(), median of several;
  2. generates the workload's items from the seed (workloads.py) and hands
     them to a fresh child process (worker.py) that calls sqrat in a
     closed loop, one item at a time, for --seconds (--trace 0), or calls
     a fixed number of items untraced and then traced (--trace 1);
  3. checks every output against an independent sympy reference
     (reference.py), outside the timed region;
  4. prints a readable summary, writes the full record with the machine
     details to .perfbench/results/, and prints as the last line
     {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
     with --trace 0, the per-layer metrics with --trace 1.

See NOTES.md for the workloads, the metrics and their definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from calibrate import NOMINAL_MS, probe_ms  # noqa: E402
from tracer import layer_metric_names  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_RUNS = 9
# Fixed per workload, so that runs of different commits report the same
# percentile; each leaves at least ten samples beyond it at the seed commit
# (scan: about 35 of 1800; p99, with 18 beyond, spread up to 10% between
# seeds).
TAIL_PERCENTILE = {"scan": 98, "witness": 90, "minpoly": 90, "bigdeg": 80}
RUN_LIMIT_S = 170  # the whole run must end well within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def environment() -> dict:
    """Machine and source details recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "sqrat").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure_setup() -> tuple[list[float], list[float]]:
    """Raw and speed-scaled wall times of fresh interpreters that import
    sqrat.cli and build the argument parser.  The first, unmeasured run
    writes the bytecode; each run is scaled by probes taken around it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c",
           "import sqrat.cli; sqrat.cli.build_parser()"]
    raw, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        before = probe_ms()
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError("importing sqrat failed:\n" + proc.stderr.decode())
        if i:
            raw.append(elapsed)
            scaled.append(elapsed * NOMINAL_MS / ((before + probe_ms()) / 2))
    return raw, scaled


def run_worker(items_path: Path, seconds: float, trace_items: int,
               spans_path: Path, timeout: float) -> tuple[list[dict], dict]:
    request = {"src": str(SRC), "items_path": str(items_path),
               "seconds": seconds, "trace_items": trace_items,
               "spans_path": str(spans_path)}
    env = dict(os.environ, PYTHONHASHSEED="0")
    with subprocess.Popen([sys.executable, str(BENCH / "worker.py")],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT) as proc:
        try:
            out, err = proc.communicate(json.dumps(request), timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"worker did not finish within {timeout:.0f} s")
    lines = [json.loads(line) for line in out.splitlines() if line]
    if proc.returncode != 0 or not lines or not lines[-1].get("done"):
        raise RuntimeError(f"worker failed (exit {proc.returncode}):\n{err}")
    return lines[:-1], lines[-1]


def scaled_calls(stream: list[dict]) -> list[tuple[dict, float]]:
    """Pair every call record with its latency at nominal speed, scaled by
    the mean of the speed probes taken just before and just after it.
    Each pass of the worker starts and ends with a probe."""
    out, pending, last = [], [], None
    for rec in stream:
        if "cal" not in rec:
            pending.append(rec)
            continue
        for call in pending:
            out.append((call, call["ms"] * NOMINAL_MS / ((last + rec["cal"]) / 2)))
        pending, last = [], rec["cal"]
    return out


def check_outputs(items: list[dict], stream: list[dict],
                  pass_no: int) -> tuple[int, list[bool]]:
    """Count the calls whose output the reference rejects, and list, for
    each genus-0 witness request of the measured pass, whether a witness
    came back."""
    from reference import Checker  # sympy loads only after the timed child

    checker = Checker()
    failed, found = 0, []
    for rec in stream:
        if "cal" in rec:
            continue
        ok, witness = checker.check(rec["i"], items[rec["i"]], rec)
        failed += not ok
        if witness is not None and rec["pass"] == pass_no:
            found.append(witness)
    return failed, found


def pass_speed(stream: list[dict], pass_no: int) -> float:
    """Median probe time of one pass, in ms."""
    return statistics.median(r["cal"] for r in stream
                             if "cal" in r and r["pass"] == pass_no)


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (statistics 'inclusive')."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sqrat" / "cli.py").is_file():
        print(f"error: no sqrat sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    try:
        return _run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(args) -> int:
    started = time.perf_counter()
    env = environment()
    setup_raw, setup_scaled = measure_setup()

    wl = args.workload
    trace_items = workloads.TRACE_ITEMS[wl] if args.trace else 0
    count = trace_items or int(workloads.MAX_RATE[wl] * args.seconds) + 1
    items = workloads.make_items(wl, args.seed, count)
    tag = f"{wl}-seed{args.seed}-trace{args.trace}"
    for sub in ("items", "results", "spans"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    items_path = OUT / "items" / f"{tag}-{os.getpid()}.jsonl"
    spans_path = OUT / "spans" / f"{wl}-seed{args.seed}.tsv.gz"
    try:
        with open(items_path, "w", encoding="utf-8") as fh:
            for item in items:
                fh.write(json.dumps({k: v for k, v in item.items()
                                     if k != "meta"}) + "\n")
        timeout = RUN_LIMIT_S - (time.perf_counter() - started)
        stream, final = run_worker(items_path, args.seconds, trace_items,
                                   spans_path, timeout)
    finally:
        items_path.unlink(missing_ok=True)

    failed, found = check_outputs(items, stream, args.trace)
    calls = scaled_calls(stream)
    attempted = len(calls)
    found_ratio = sum(found) / len(found) if found else 0.0
    lat = [ms for rec, ms in calls if rec["pass"] == args.trace]
    raw = [rec["ms"] for rec, _ in calls if rec["pass"] == args.trace]
    if not lat:
        raise RuntimeError("no item completed")
    tail_p = TAIL_PERCENTILE[wl]
    tail = percentile(lat, tail_p)
    detail = {
        "setup_raw_s": setup_raw,
        "setup_scaled_s": setup_scaled,
        "items": final["items"],
        "wall_s": final["wall_s"],
        "probe_median_ms": pass_speed(stream, args.trace),
        "raw_throughput_items_per_s": 1000 * len(raw) / sum(raw),
        "raw_latency_p50_ms": percentile(raw, 50),
        "raw_latency_tail_ms": percentile(raw, tail_p),
        "error_ratio": failed / attempted,
        "witness_found_ratio": found_ratio,
        "witness_requests": len(found),
        "latency_tail_percentile": tail_p,
        "latency_samples": len(lat),
        "latency_samples_beyond_tail": sum(v > tail for v in lat),
    }
    if args.trace:
        scale = NOMINAL_MS / pass_speed(stream, 1)
        values = {name: value * scale if name.endswith("_ms") else value
                  for name, value in final["layers"].items()}
        values["trace.overhead_ratio"] = (
            final["wall_s"] / pass_speed(stream, 1)
            / (final["untraced_wall_s"] / pass_speed(stream, 0)))
        values["witness_found_ratio"] = found_ratio
        units = {name: unit for name, unit, _ in layer_metric_names()}
        units["witness_found_ratio"] = "ratio"
        detail["untraced_wall_s"] = final["untraced_wall_s"]
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values = {
            "setup_s": statistics.median(setup_scaled),
            "throughput_items_per_s": 1000 * len(lat) / sum(lat),
            "latency_p50_ms": percentile(lat, 50),
            "latency_tail_ms": tail,
            "peak_rss_mb": final["peak_rss_kb"] / 1024,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    print(f"perfbench {wl} seed={args.seed} trace={args.trace}: python "
          f"{env['python']}, {env['nproc']} cpus, load {env['loadavg_at_start'][0]:.2f}, "
          f"commit {env['git_commit'] or 'unknown'}")
    print(f"  items {final['items']} in {final['wall_s']:.2f} s, "
          f"errors {failed}/{attempted}, speed probe "
          f"{detail['probe_median_ms']:.3f} ms (times below are scaled to "
          f"{NOMINAL_MS} ms)")
    if not args.trace:
        print(f"  latency_tail_ms is p{tail_p} of {len(lat)} samples, "
              f"{detail['latency_samples_beyond_tail']} beyond; raw "
              f"throughput {detail['raw_throughput_items_per_s']:.4g}/s, raw p50 "
              f"{detail['raw_latency_p50_ms']:.4g} ms, raw tail "
              f"{detail['raw_latency_tail_ms']:.4g} ms, raw setup "
              f"{statistics.median(setup_raw):.4g} s")
    if found:
        print(f"  witness_found_ratio {found_ratio:.4f} "
              f"({sum(found)}/{len(found)} genus-0 families)")
    for name, m in metrics.items():
        if not args.trace or m["value"]:
            print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    record = {"workload": wl, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "detail": detail,
              **result}
    (OUT / "results" / f"{tag}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
