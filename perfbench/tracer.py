"""Span tracer installed from outside around each layer's public functions.

The package modules bind each other's functions by name (``from .linalg
import hermitian_eigen``), so a wrapper is written into every loaded module
of the package whose namespace holds the original object.  Spans (name,
start, end, parent, op id) and counts are kept in memory; ``write`` dumps
them when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# The layers and the public functions timed in each (module name -> names).
LAYERS = {
    "linalg": (
        "hermitian_eigen", "normal_eigen", "psd_root", "abs_op", "expi",
        "unitary_log", "polar_normal", "operator_norm", "classify",
    ),
    "roots": (
        "sign_case", "sqrt_signdef", "root_pow2n", "nth_root", "spectral_sqrt",
        "verify_root",
    ),
    "theoremlab": (
        "sylvester_solve", "spectra_disjoint", "numerical_range_contains_zero",
        "classify_root_of_selfadjoint", "check_zero_square",
        "commutator_identities", "normality_equivalence",
        "exp_periodicity_residual",
    ),
    "matio": ("load_matrix", "save_matrix"),
    "cli": ("main",),
}

EIGEN = "linalg.hermitian_eigen"
# Constructions whose eigensolve count per call is a tracked figure.
PER_CALL_EIGEN = (
    "roots.sqrt_signdef", "roots.nth_root", "roots.root_pow2n",
    "theoremlab.numerical_range_contains_zero",
)
SIZE_BUCKETS = ("n_le_8", "n_9_32", "n_gt_32")

# Span fields.
NAME, START, END, PARENT, OP, SIZE, RAISED = range(7)


def _bucket(n: int) -> str:
    return SIZE_BUCKETS[0] if n <= 8 else SIZE_BUCKETS[1] if n <= 32 else SIZE_BUCKETS[2]


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self, package_name: str):
        self.package_name = package_name
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.op_id = -1
        self.ops = 0
        self.raised: Counter = Counter()
        self.exit_nonzero = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- installation -----------------------------------------------------

    def _modules(self) -> list:
        prefix = self.package_name + "."
        return [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == self.package_name or k.startswith(prefix))
        ]

    def install(self) -> None:
        modules = self._modules()
        for layer, fns in LAYERS.items():
            home = sys.modules[f"{self.package_name}.{layer}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(layer, fn, original)
                for mod in modules:
                    if mod.__dict__.get(fn) is original:
                        self._patches.append((mod, fn, original))
                        setattr(mod, fn, wrapper)

    def uninstall(self) -> list[str]:
        """Restore the originals; return the names that are not restored."""
        for mod, fn, original in reversed(self._patches):
            setattr(mod, fn, original)
        wrong = {f"{mod.__name__}.{fn}" for mod, fn, original in self._patches
                 if getattr(mod, fn) is not original}
        self._patches.clear()
        wrong.update(
            f"{mod.__name__}.{name}"
            for mod in self._modules()
            for name, value in vars(mod).items()
            if getattr(value, "__perfbench_span__", None) is not None
        )
        return sorted(wrong)

    # -- recording ----------------------------------------------------------

    def _open(self, name: str, size) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.op_id, size, False])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _wrap(self, layer: str, fn: str, original):
        name = f"{layer}.{fn}"
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            size = None
            if name == EIGEN:
                size = len(args[0]) if args else len(next(iter(kwargs.values())))
            idx = tracer._open(name, size)
            span = tracer.spans[idx]
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                parent = span[PARENT]
                if parent is None or not tracer.spans[parent][NAME].startswith(layer + "."):
                    tracer.raised[layer] += 1
                raise
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if name == "cli.main" and result != 0:
                tracer.exit_nonzero += 1
            elif name == "matio.load_matrix":
                tracer.bytes_read += os.path.getsize(args[0])
            elif name == "matio.save_matrix":
                tracer.bytes_written += os.path.getsize(args[0])
            return result

        wrapper.__perfbench_span__ = name
        return wrapper

    def run_op(self, op_id: int, kind: str, fn):
        """Run one workload op as the root span of its call tree."""
        self.op_id = op_id
        self.ops += 1
        idx = self._open("op." + kind, None)
        span = self.spans[idx]
        span[START] = time.perf_counter()
        try:
            return fn()
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    # -- results --------------------------------------------------------------

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP], "n": s[SIZE],
                    "raised": s[RAISED],
                }) + "\n")

    def metrics(self, overhead_frac: float) -> dict:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] is not None:
                child_time[s[PARENT]] += s[END] - s[START]
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_t: defaultdict = defaultdict(float)
        bucket_calls: Counter = Counter()
        bucket_self: defaultdict = defaultdict(float)
        # Eigensolves beneath each span, counted through every ancestor.
        below = [0] * len(spans)
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            own = dur - child_time[i]
            calls[s[NAME]] += 1
            total[s[NAME]] += dur
            self_t[s[NAME]] += own
            if s[NAME] == EIGEN:
                label = _bucket(s[SIZE])
                bucket_calls[label] += 1
                bucket_self[label] += own
                p = s[PARENT]
                while p is not None:
                    below[p] += 1
                    p = spans[p][PARENT]
        per_call = defaultdict(list)
        for i, s in enumerate(spans):
            if s[NAME] in PER_CALL_EIGEN and not s[RAISED]:
                per_call[s[NAME]].append(below[i])

        out = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = (calls[key], "count")
                out[f"{key}.time_s"] = (total[key], "s")
                out[f"{key}.self_s"] = (self_t[key], "s")
        for label in SIZE_BUCKETS:
            out[f"{EIGEN}.calls.{label}"] = (bucket_calls[label], "count")
            out[f"{EIGEN}.self_s.{label}"] = (bucket_self[label], "s")
        out[f"{EIGEN}.per_op"] = (calls[EIGEN] / max(self.ops, 1), "count/op")
        # Median over calls that returned: a call that raised part-way (the
        # scale slice) did not do a whole construction's worth of solves.
        for fn in PER_CALL_EIGEN:
            vals = per_call[fn]
            out[f"{fn}.eigensolves_per_call"] = (
                float(statistics.median(vals)) if vals else 0.0, "count/call")
        out["matio.bytes_read"] = (self.bytes_read, "B")
        out["matio.bytes_written"] = (self.bytes_written, "B")
        for layer in LAYERS:
            out[f"{layer}.raised"] = (self.raised[layer], "count")
        out["cli.main.exit_nonzero"] = (self.exit_nonzero, "count")
        out["trace_overhead_frac"] = (overhead_frac, "frac")
        return out
