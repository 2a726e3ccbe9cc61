"""Child process that drives sqrat in a closed loop.

Reads one JSON request from stdin:

    {"src": path of the sqrat sources, "items_path": a file with one JSON
     item {"call", "texts"|"argv"} per line, "seconds": run length,
     "trace_items": 0 or a fixed item count, "spans_path": where the
     traced run writes its spans}

Items are read from the file one at a time, so neither the item list nor
the outputs (streamed to stdout as they come) add to the peak resident set.

With trace_items = 0 it calls the items in order, one at a time, until
`seconds` have passed or the items run out.  Otherwise it calls the first
trace_items items twice, untraced and then traced, whatever the time.

Writes one JSON line per call to stdout ({"i", "pass", "ms", "rc", "out",
"err"}), a line {"cal", "pass"} per speed probe (calibrate.py), and a final
line {"done": true, ...} with the loop's wall time, the
process's peak resident set and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from calibrate import probe_ms

CAL_INTERVAL_S = 0.1


def _call(sqrat, item: dict):
    """Run one item; return (exit code, output, error text)."""
    if item["call"] == "scan":
        rads = [sqrat.parsing.parse_expr(t) for t in item["texts"]]
        return 0, sqrat.decide.scan_trial_outcome(rads), None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = sqrat.cli.main(item["argv"])
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code
    return rc, out.getvalue(), err.getvalue() or None


def _loop(sqrat, items, deadline, emit, pass_no, tracer=None) -> int:
    """Call the items in order; time a speed probe before the first item,
    at least every CAL_INTERVAL_S between items, and after the last."""
    done = 0
    next_cal = 0.0
    for i, line in enumerate(items):
        now = time.perf_counter()
        if deadline is not None and now >= deadline:
            break
        if now >= next_cal:
            emit({"cal": probe_ms(), "pass": pass_no})
            next_cal = time.perf_counter() + CAL_INTERVAL_S
        item = json.loads(line)
        if tracer is not None:
            tracer.item = i
        start = time.perf_counter_ns()
        try:
            rc, out, err = _call(sqrat, item)
        except Exception:  # one failing item must not end the run
            rc, out, err = None, None, traceback.format_exc()
        ms = (time.perf_counter_ns() - start) / 1e6
        emit({"i": i, "pass": pass_no, "ms": ms, "rc": rc, "out": out,
              "err": err})
        done += 1
    emit({"cal": probe_ms(), "pass": pass_no})
    return done


def peak_rss_kb() -> int:
    """Peak resident set of this process since exec, in KiB.

    ru_maxrss is not used where /proc is available: on Linux it keeps the
    high-water mark of the parent's address space that the child was
    forked from, so it would measure the benchmark's parent as well.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    request = json.load(sys.stdin)
    sys.path.insert(0, request["src"])
    import sqrat.cli  # noqa: F401  (loads every sqrat module)

    sink = sys.stdout

    def emit(record):
        sink.write(json.dumps(record) + "\n")

    final = {"done": True}
    trace_items = request["trace_items"]
    if not trace_items:
        with open(request["items_path"], encoding="utf-8") as items:
            start = time.perf_counter()
            final["items"] = _loop(sqrat, items, start + request["seconds"],
                                   emit, 0)
            final["wall_s"] = time.perf_counter() - start
    else:
        from tracer import Tracer

        with open(request["items_path"], encoding="utf-8") as fh:
            items = [next(fh) for _ in range(trace_items)]
        start = time.perf_counter()
        _loop(sqrat, items, None, emit, 0)
        untraced = time.perf_counter() - start
        tracer = Tracer(sqrat)
        with tracer:
            start = time.perf_counter()
            final["items"] = _loop(sqrat, items, None, emit, 1, tracer)
            traced = time.perf_counter() - start
        final["wall_s"] = traced
        final["untraced_wall_s"] = untraced
        final["layers"] = tracer.metrics(len(items))
        tracer.write_spans(request["spans_path"])
    final["peak_rss_kb"] = peak_rss_kb()
    emit(final)
    sink.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
