"""Benchmark for normalroots.

    python3 perfbench/run.py --workload roots-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, each in its own process

Run from the root of a checkout; the package is imported from ./src.  One
client drives the library in-process in a closed loop: the next op starts
when the previous one returns.  The timed phase runs whole cycles of the
workload's op mix until --seconds have passed, so every run measures the
same mix.  Each op's output is checked afterwards by an oracle the
benchmark computes itself (see workloads.py).  Times are scaled by a
calibration kernel measured during the run (see CAL_INTERVAL_S).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same cycles
again with span wrappers around each layer's public functions, checks that
the outputs are unchanged and the originals restored, and prints the
per-layer metrics.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()

# Fixed before numpy loads: one client on a 2-core machine, with BLAS work
# only in small products and the d32 Sylvester solve.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("roots-small", "lab-campaign", "eigen-large")
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "correct_frac": "frac",
    "accuracy_digits_p50": "digits",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Input generation and file writing are repeated and the median is kept.
SETUP_REPEATS = 5
# Relative errors at or below one unit roundoff count as exact.
EPS = 2.0 ** -53


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # the config layout differs between numpy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


# On a shared 2-core VM the speed of a core changes by 20-60% between runs,
# and flips between a fast and a slow state within milliseconds, as other
# tenants come and go.  A fixed kernel, the library's hot loop (Jacobi
# rotations on a complex Hermitian matrix of the workload's typical
# dimension), runs CAL_REPEATS times between ops every CAL_INTERVAL_S, and
# after each input build of the set-up.  Every time a run reports is scaled
# by the workload's cal_ref_s over the kernel's mean time: the mean, because
# the fraction of time spent in the slow state is what slows the workload,
# trimmed of its extreme tenths, because a kernel run that is preempted says
# nothing about the speed of the core.  So a scaled second is a second on a
# core that runs the kernel in cal_ref_s.
CAL_INTERVAL_S = 0.25
CAL_REPEATS = 3
CAL_ROTATIONS = 120


def calibration_kernel(n: int) -> float:
    """Apply CAL_ROTATIONS Jacobi rotations, the step of the library's
    eigensolver at the time this benchmark was written, to a fixed n x n
    Hermitian matrix, cycling through its index pairs; return the wall
    time.  The step is copied here so that the kernel does not change when
    the library does."""
    k = np.arange(n * n, dtype=float).reshape(n, n)
    A = np.cos(k) + 1j * np.sin(k)
    A = A + A.conj().T
    V = np.eye(n, dtype=complex)
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    t = time.perf_counter()
    for r in range(CAL_ROTATIONS):
        p, q = pairs[r % len(pairs)]
        apq = A[p, q]
        mag = abs(apq) or 1.0
        u = apq / mag
        theta = 0.5 * np.arctan2(2.0 * mag, float((A[q, q] - A[p, p]).real))
        c = np.cos(theta)
        s = np.sin(theta)
        Ap = A[:, p].copy()
        Aq = A[:, q].copy()
        A[:, p] = c * Ap - s * np.conj(u) * Aq
        A[:, q] = s * u * Ap + c * Aq
        Rp = A[p, :].copy()
        Rq = A[q, :].copy()
        A[p, :] = c * Rp - s * u * Rq
        A[q, :] = s * np.conj(u) * Rp + c * Rq
        Vp = V[:, p].copy()
        Vq = V[:, q].copy()
        V[:, p] = c * Vp - s * np.conj(u) * Vq
        V[:, q] = s * u * Vp + c * Vq
    return time.perf_counter() - t


def trimmed_mean(values) -> float:
    """Mean without the top and bottom tenth, which hold the preempted runs."""
    v = sorted(values)
    cut = len(v) // 10
    return statistics.fmean(v[cut:len(v) - cut])


@dataclasses.dataclass
class Record:
    op: object
    latency: float  # wall seconds
    out: object  # the op's output, or the exception it raised
    cycle: int
    slot: int  # position in the cycle


@dataclasses.dataclass
class Phase:
    records: list
    kernel_times: list
    cycles: int
    wall: float
    cal_ref_s: float

    @property
    def kernel_mean(self) -> float:
        return trimmed_mean(self.kernel_times)

    @property
    def scale(self) -> float:
        """Factor from this run's wall seconds to reference seconds."""
        return self.cal_ref_s / self.kernel_mean


def timed_phase(workload, seconds: float, tracer=None, cycles: int | None = None) -> Phase:
    """Run whole cycles until `seconds` have passed (or exactly `cycles`)."""
    records, kernel_times = [], []
    t0 = last_cal = time.perf_counter()
    done = 0
    while True:
        for slot, op in enumerate(workload.cycles[done % len(workload.cycles)]):
            if time.perf_counter() - last_cal >= CAL_INTERVAL_S or not kernel_times:
                kernel_times += [calibration_kernel(workload.cal_dim) for _ in range(CAL_REPEATS)]
                last_cal = time.perf_counter()
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    out = tracer.run_op(len(records), op.kind, op.run)
            except Exception as exc:  # an op that raises is a failed op
                out = exc
            records.append(Record(op, time.perf_counter() - start, out, done, slot))
        done += 1
        if done == cycles or (cycles is None and time.perf_counter() - t0 >= seconds):
            return Phase(records, kernel_times, done, time.perf_counter() - t0,
                         workload.cal_ref_s)


def outcome(op, out) -> tuple:
    if isinstance(out, Exception):
        return False, None, f"{type(out).__name__}: {out}"
    try:
        return op.check(out)
    except Exception as exc:  # malformed output
        return False, None, f"check raised {type(exc).__name__}: {exc}"


def canonical(x):
    """A comparable form of an op's output, exact to the bit."""
    if hasattr(x, "canonical"):
        return canonical(x.canonical())
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, [canonical(getattr(x, f.name)) for f in dataclasses.fields(x)])
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, dict):
        return sorted((k, canonical(v)) for k, v in x.items())
    if isinstance(x, BaseException):
        return (type(x).__name__, str(x))
    if isinstance(x, float):
        return x.hex()
    return x


def digest(out) -> str:
    return hashlib.sha256(repr(canonical(out)).encode()).hexdigest()


def summarize(phase: Phase) -> dict:
    checks = [outcome(r.op, r.out) for r in phase.records]
    lat = [r.latency * phase.scale for r in phase.records]
    # Each slot's latency is its trimmed mean over the cycles: a mean, like
    # the kernel's, because the core flips between a fast and a slow state
    # faster than an op runs.
    by_slot: dict = {}
    for r, x in zip(phase.records, lat):
        by_slot.setdefault(r.slot, []).append(x)
    slot_s = [trimmed_mean(v) for v in by_slot.values()]
    correct = sum(ok for ok, _, _ in checks)
    digits = [-math.log10(max(err, EPS)) for ok, err, _ in checks if ok and err is not None]
    by_kind: dict = {}
    scale: dict = {}
    failures: Counter = Counter()
    for r, latency, (ok, _, why) in zip(phase.records, lat, checks):
        by_kind.setdefault(r.op.kind, []).append(latency)
        if r.op.scale_exp is not None:
            row = scale.setdefault(f"{r.op.kind}@2^{r.op.scale_exp}", [0, 0])
            row[0] += ok
            row[1] += 1
        elif not ok:
            failures[f"{r.op.kind}: {why}"] += 1
    return {
        "attempted": len(checks),
        "correct": correct,
        "unexpected_failures": sum(failures.values()),
        "failure_reasons": dict(failures.most_common(10)),
        "op_mix": {k: len(v) for k, v in by_kind.items()},
        "median_latency_s": {k: statistics.median(v) for k, v in by_kind.items()},
        "scale_slice": {k: f"{v[0]}/{v[1]} correct" for k, v in sorted(scale.items())},
        "wall_clock": {
            "ops_per_s": correct / phase.wall,
            "op_p50_s": statistics.median(r.latency for r in phase.records),
            "kernel_mean_s": phase.kernel_mean,
            "kernel_samples": len(phase.kernel_times),
            "scale": phase.scale,
        },
        "metrics": {
            "ops_per_s": correct / sum(lat),
            "op_p50_s": statistics.median(slot_s),
            "op_p90_s": statistics.quantiles(slot_s, n=10, method="inclusive")[8],
            "correct_frac": correct / len(checks),
            "accuracy_digits_p50": statistics.median(digits) if digits else 0.0,
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "normalroots", "__init__.py")):
        raise SystemExit(f"perfbench: no package at {SRC}/normalroots; run from a checkout")
    sys.path.insert(0, SRC)
    import normalroots  # noqa: F401  (timed as part of set-up)
    import tracer as tracing
    import workloads

    import_s = time.perf_counter() - T_START
    work = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    os.makedirs(work)
    try:
        builds, setup_kernel = [], []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl = workloads.BUILDERS[name](np.random.default_rng(seed), work)
            builds.append(time.perf_counter() - t)
            setup_kernel += [calibration_kernel(wl.cal_dim) for _ in range(CAL_REPEATS)]
        t = time.perf_counter()
        for op in wl.warmup:
            try:
                op.run()
            except Exception:  # failures show up, and are counted, in the timed phase
                pass
        setup = {"import_s": import_s, "build_s": statistics.median(builds),
                 "warmup_s": time.perf_counter() - t}

        base = timed_phase(wl, seconds)
        summary = summarize(base)
        metrics = summary.pop("metrics")
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["setup_s"] = sum(setup.values()) * wl.cal_ref_s / trimmed_mean(setup_kernel)
        result = {
            "workload": name, "seed": seed, "trace": int(trace),
            "cycles": base.cycles, "wall_s": base.wall,
            "env": environment(), "setup": setup, **summary,
        }
        ok = summary["unexpected_failures"] == 0

        if trace:
            tr = tracing.Tracer("normalroots")
            tr.install()
            try:
                traced = timed_phase(wl, seconds, tracer=tr, cycles=base.cycles)
            finally:
                leftovers = tr.uninstall()
            same = [digest(a.out) == digest(b.out) for a, b in zip(base.records, traced.records)]
            result["trace_check"] = {
                "outputs_identical": all(same) and len(same) == len(traced.records),
                "ops_differing": same.count(False),
                "originals_restored": not leftovers,
                "leftover_wrappers": leftovers,
            }
            ok = ok and all(same) and not leftovers
            tr.write(os.path.join(ROOT, ".perfbench_out", f"trace-{name}-seed{seed}.jsonl"))
            overhead = (sum(r.latency for r in traced.records) * traced.scale
                        / (sum(r.latency for r in base.records) * base.scale) - 1.0)
            layer = tr.metrics(overhead)
            result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        else:
            result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
        declared = declared_metrics("per_layer" if trace else "end_to_end")
        if declared is not None and declared != list(result["metrics"]):
            raise SystemExit("perfbench: metric names differ from BENCHMARK.json")
        result["ok"] = ok
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def declared_metrics(section: str) -> list | None:
    """Metric names BENCHMARK.json declares in `section`, if the file exists."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return [m["name"] for m in json.load(fh)[section]]
    except FileNotFoundError:
        return None


def final_line(result: dict) -> str:
    return json.dumps({
        "correct": result["ok"],
        "attempted": result["attempted"],
        "failed": result["unexpected_failures"],
        "metrics": result["metrics"],
    })


def report(result: dict) -> None:
    for key in ("env", "setup", "op_mix", "median_latency_s", "wall_clock", "scale_slice", "failure_reasons", "trace_check"):
        if key in result:
            print(f"# {key}: {json.dumps(result[key])}")
    print(f"# {result['workload']}: {result['attempted']} ops in {result['cycles']} cycles, "
          f"{result['wall_s']:.2f} s timed, {result['correct']} correct")
    for k, m in result["metrics"].items():
        print(f"{result['workload']:>13} {k:<60} {m['value']:>14.6g} {m['unit']}")


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(ln + "\n" for ln in proc.stdout.splitlines()[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
