"""Outside-in tracer: spans around sqrat's layer functions, from outside.

The library has no instrumentation of its own, so the tracer replaces each
traced function with a wrapper that records a span.  `from .poly import
poly_gcd` gives every importing module its own binding, so the wrapper is
installed on every `sqrat.*` module attribute (and class attribute, for
methods such as UPoly.__rmul__ = __mul__) that refers to the original
function; rebinding only the defining module would miss the calls made
inside the library.

A span is (function, start, end, parent span, item); spans are kept in
flat arrays in memory and written out when the run ends.  From them:

    calls    number of spans of the function
    busy_ms  time inside the function, counting a recursive call once
    self_ms  busy time minus the time of child spans of other traced calls

Wrappers around `poly` functions also read the degree and coefficient size
of the UPoly and RatFunc values passed in and returned.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter_ns

# module -> traced functions; "Class.method" names a method.
TRACED = {
    "parsing": ("parse_expr",),
    "poly": ("poly_gcd", "multiplicity", "squarefree_decompose", "square_class",
             "coprime_basis", "substitute", "is_square", "UPoly.__mul__",
             "UPoly.__divmod__"),
    "lattice": ("build_branch_table", "branch_count", "reduced_generators_scaled"),
    "genus": ("multiquadratic_genus_table", "cyclic_cover_genus"),
    "decide": ("decide_set", "subset_criterion", "scan_trial_outcome"),
    "rationalize": ("greedy_rationalize", "rationalize_linear", "rationalize_conic",
                    "verify_witness", "minpoly_multiquadratic"),
    "resultants": ("resultant_with_quadratic", "zp_mul", "zp_is_squarefree_in_z",
                   "clear_denominators_monic"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in a fixed order."""
    out = []
    for span in SPAN_NAMES:
        out += [(f"{span}.calls", "count", "lower"),
                (f"{span}.busy_ms", "ms", "lower"),
                (f"{span}.self_ms", "ms", "lower")]
    out += [
        ("poly.max_degree", "count", "lower"),
        ("poly.max_coeff_bits", "bits", "lower"),
        ("lattice.build_branch_table.per_item", "calls/item", "lower"),
        ("rationalize.rationalize_conic.failed", "count", "lower"),
        ("rationalize.rationalize_conic.success_ratio", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


class Tracer:
    """Install with `with Tracer(sqrat):`; set `.item` before each item."""

    def __init__(self, sqrat):
        self._sqrat = sqrat
        self._upoly, self._ratfunc = sqrat.poly.UPoly, sqrat.poly.RatFunc
        self._patches: list[tuple[object, str, object]] = []
        self.item = -1
        self.names = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.items = array("i")
        self.outer = array("b")  # 1 unless nested in a span of the same name
        self.failed = [0] * len(SPAN_NAMES)
        self._stack: list[int] = []  # indices of the open spans
        self.max_degree = 0
        self.max_coeff_bits = 0

    # -- installation ------------------------------------------------------

    def __enter__(self):
        modules = [mod for name, mod in sys.modules.items()
                   if name == "sqrat" or name.startswith("sqrat.")]
        for name_id, span in enumerate(SPAN_NAMES):
            mod_name, _, attr = span.partition(".")
            owner = getattr(self._sqrat, mod_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                targets = modules
            original = getattr(owner, attr)
            wrapper = self._wrap(name_id, original, mod_name == "poly")
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, value))
                        setattr(target, key, wrapper)
        return self

    def __exit__(self, *exc):
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches.clear()
        return False

    def _wrap(self, name_id, fn, observe):
        names, starts, ends = self.names, self.starts, self.ends
        parents, items, outer = self.parents, self.items, self.outer
        stack = self._stack
        depth = [0]  # nesting depth of this function
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            items.append(tracer.item)
            outer.append(0 if depth[0] else 1)
            ends.append(0)
            stack.append(idx)
            depth[0] += 1
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[name_id] += 1
                raise
            finally:
                ends[idx] = perf_counter_ns()
                depth[0] -= 1
                stack.pop()
            if observe:
                tracer._observe(args)
                tracer._observe(result)
            return result

        return wrapper

    # -- size observation --------------------------------------------------

    def _observe(self, value, depth: int = 0):
        if isinstance(value, self._ratfunc):
            self._observe(value.num)
            self._observe(value.den)
        elif isinstance(value, self._upoly):
            coeffs = value.coeffs
            if len(coeffs) - 1 > self.max_degree:
                self.max_degree = len(coeffs) - 1
            bits = self.max_coeff_bits
            for c in coeffs:
                n, d = c.numerator.bit_length(), c.denominator.bit_length()
                if n > bits or d > bits:
                    bits = max(n, d)
            self.max_coeff_bits = bits
        elif isinstance(value, (tuple, list)) and depth < 2:
            for v in value:
                self._observe(v, depth + 1)

    # -- results -----------------------------------------------------------

    def metrics(self, n_items: int) -> dict[str, float]:
        """Per-layer metrics of the traced calls, keyed by metric name."""
        k = len(SPAN_NAMES)
        calls = [0] * k
        busy = [0] * k
        self_ns = [0] * k
        child = [0] * len(self.names)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        for idx in range(len(names) - 1, -1, -1):
            dur = ends[idx] - starts[idx]
            name_id = names[idx]
            calls[name_id] += 1
            if self.outer[idx]:
                busy[name_id] += dur
            self_ns[name_id] += dur - child[idx]
            parent = parents[idx]
            if parent >= 0:
                child[parent] += dur
        out: dict[str, float] = {}
        for name_id, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = calls[name_id]
            out[f"{span}.busy_ms"] = busy[name_id] / 1e6
            out[f"{span}.self_ms"] = self_ns[name_id] / 1e6
        out["poly.max_degree"] = self.max_degree
        out["poly.max_coeff_bits"] = self.max_coeff_bits
        out["lattice.build_branch_table.per_item"] = (
            calls[SPAN_NAMES.index("lattice.build_branch_table")] / max(n_items, 1))
        conic = SPAN_NAMES.index("rationalize.rationalize_conic")
        out["rationalize.rationalize_conic.failed"] = self.failed[conic]
        out["rationalize.rationalize_conic.success_ratio"] = (
            (calls[conic] - self.failed[conic]) / calls[conic] if calls[conic] else 0.0)
        return out

    def write_spans(self, path: str):
        """Write the spans as gzipped TSV: name, start_ns, end_ns, parent, item."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\titem\n")
            for idx in range(len(self.names)):
                fh.write(f"{SPAN_NAMES[self.names[idx]]}\t{self.starts[idx]}\t"
                         f"{self.ends[idx]}\t{self.parents[idx]}\t{self.items[idx]}\n")
