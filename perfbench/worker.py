"""One measuring process: set up a workload, run its ops closed-loop, report.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON object
on stdout.  With ``--setup-only`` it stops when the first timed op could
start, so the launcher can time set-up in several fresh processes.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import platform
import random
import re
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

_T_START = time.perf_counter()
import kramers.cli  # noqa: E402  (timed: the whole package loads with it)

IMPORT_S = time.perf_counter() - _T_START

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.integrate import quad  # noqa: E402
from kramers.special_integrals import _t_n_cached  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# at least this many samples must lie above the reported tail percentile
TAIL_BEYOND = 10

# Machine-speed calibration.  On a shared host the same op runs up to ~50%
# slower for minutes at a time, which no run length within the time budget
# averages out, and it drifts within a run too.  A fixed snippet that shares
# no code with kramers is timed before the first block and after every block;
# each block's timings are reported rescaled, by the snippet's median just
# around it, to a machine on which it takes CAL_NOMINAL_S (about its median
# on 2 vCPUs of a 2.1 GHz Xeon).  The raw timings stay in the record.
CAL_NOMINAL_S = 0.008
CAL_REPEATS = 10
_CAL_T = np.linspace(0.0, 8.0, 380)
_CAL_K = np.linspace(0.1, 50.0, 1000)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = set(re.findall(r"(/\S*openblas\S*\.so\S*)", handle.read()))
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def tail(durations: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it: (value, pct).

    With fewer than TAIL_BEYOND + 1 samples no percentile qualifies and the
    maximum is reported, at percentile 100.
    """
    ordered = sorted(durations)
    n = len(ordered)
    j = n - 1 - TAIL_BEYOND
    if j < 0:
        return ordered[-1], 100.0
    return ordered[j], 100.0 * (j + 1) / n


def calibration_s() -> float:
    """Time one fixed mix of interpreter, numpy and QUADPACK work."""
    started = time.perf_counter()
    total = 0
    for j in range(20_000):
        total += j * j
    weights = 1.0 / (1.0 + np.multiply.outer(_CAL_K**2, _CAL_T**2))
    for _ in range(5):
        (weights * _CAL_T).sum(axis=1)  # not ``@``: BLAS thread wake-ups are erratic here
    quad(lambda x: math.exp(-x * x) / (1.0 + x * x), 0.0, 8.0)
    return time.perf_counter() - started


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def setup(name: str, seed: int, scratch: str):
    rng = random.Random(f"{name}:{seed}")
    refs = wl.References(wl.load_reference())
    if name == "series":
        warmup, blocks = wl.series_setup(rng, refs)
    elif name == "profile":
        warmup, blocks = wl.profile_setup(rng, refs)
    else:
        warmup, blocks = wl.verify_setup(rng, refs, scratch)
    reason = warmup.check(warmup.run())
    if reason is not None:
        raise RuntimeError(f"warm-up op failed its gate: {reason}")
    return refs, blocks


def run_op(op: wl.Op, tracer, index: int) -> tuple[float, str | None]:
    """Time one op; return (seconds, None or why it failed)."""
    started = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.root(index):
                out = op.run()
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        elapsed = time.perf_counter() - started
        return elapsed, f"{op.kind}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    reason = op.check(out)
    return elapsed, None if reason is None else f"{op.kind}: {reason}"


def layer_metrics(tracer: tracing.Tracer, ops: int, cache0, cache1) -> dict:
    """Per-op counts and times of the traced ops, per layer."""
    totals = tracer.layer_totals()
    metrics = {key: tracer.counts[key] / ops for key in tracing.COUNTS}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = totals["self_s"].get(layer, 0.0) / ops
    lookups = cache1.hits + cache1.misses - cache0.hits - cache0.misses
    metrics["special_integrals.t_cache_hit_ratio"] = (
        (cache1.hits - cache0.hits) / lookups if lookups else 0.0)
    inclusive = totals["inclusive_s"]
    metrics["kernels.spline_s"] = inclusive.get("kernels.SpectralFunction.__call__", 0.0) / ops
    metrics["oracle.u1_s"] = inclusive.get("oracle.u1_direct", 0.0) / ops
    metrics["cli.import_s"] = IMPORT_S
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("series", "profile", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", required=True, help="directory for spans and scratch")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    results = Path(args.results)
    with tempfile.TemporaryDirectory(dir=results) as scratch:
        refs, blocks = setup(args.workload, args.seed, scratch)
        ready_at = time.time()
        # the machine's slowness just after set-up, which rescales set-up time
        # too; in the measuring process it is also the first block's "before"
        before = [calibration_s() for _ in range(CAL_REPEATS)]
        ready_slowness = statistics.median(before) / CAL_NOMINAL_S
        if args.setup_only:
            print(json.dumps({"ready_at": ready_at, "ready_slowness": ready_slowness}))
            return 0

        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        cache0 = _t_n_cached.cache_info()
        durations: list[float] = []
        op_block: list[int] = []  # index of the block each op ran in
        failures: list[str] = []
        block_rate: list[float] = []  # ops per second of wall time, per block
        block_cpu: list[float] = []  # CPU seconds per op, per block
        block_cal: list[float] = []  # median snippet time just before and after each block
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < args.seconds:
            block = next(blocks)
            b0, c0 = time.perf_counter(), _cpu_s()
            for op in block:
                elapsed, reason = run_op(op, tracer, len(durations))
                durations.append(elapsed)
                op_block.append(len(block_rate))
                if reason is not None:
                    failures.append(reason)
            block_rate.append(len(block) / (time.perf_counter() - b0))
            block_cpu.append((_cpu_s() - c0) / len(block))
            after = [calibration_s() for _ in range(CAL_REPEATS)]
            block_cal.append(statistics.median(before + after))
            before = after
        wall = time.perf_counter() - t0
        cache1 = _t_n_cached.cache_info()
        slowness = [cal / CAL_NOMINAL_S for cal in block_cal]
        scaled = [d / slowness[b] for d, b in zip(durations, op_block)]

        ops = len(durations)
        layers = None
        if tracer is not None:
            layers = layer_metrics(tracer, ops, cache0, cache1)
            layers["trace.ops_per_s"] = statistics.median(
                rate * slow for rate, slow in zip(block_rate, slowness))
            layers["oracle.j_constants_s"] = 0.0
            if args.workload == "verify":
                elapsed, reason = run_op(wl.j_constants_probe(refs), tracer, -1)
                layers["oracle.j_constants_s"] = elapsed
                if reason is not None:
                    failures.append(reason)
            tracer.uninstall()
            tracer.save(results / f"spans-{args.workload}.npz")

        tail_s, tail_pct = tail(durations)
        raw = {
            "ops_per_s": statistics.median(block_rate),
            "op_p50_s": statistics.median(durations),
            "op_tail_s": tail_s,
            "cpu_per_op_s": statistics.median(block_cpu),
        }
        record = {
            "ready_at": ready_at,
            "ready_slowness": ready_slowness,
            "attempted": ops,
            "failed": len(failures),
            "failures": failures[:5],
            "wall_s": wall,
            "block_ops_per_s": block_rate,
            "block_cpu_s": block_cpu,
            "block_calibration_s": block_cal,
            "op_tail_pct": tail_pct,
            "raw": raw,
            "end_to_end": {
                "ops_per_s": statistics.median(
                    rate * slow for rate, slow in zip(block_rate, slowness)),
                "op_p50_s": statistics.median(scaled),
                "op_tail_s": tail(scaled)[0],
                "cpu_per_op_s": statistics.median(
                    cpu / slow for cpu, slow in zip(block_cpu, slowness)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            },
            "layers": layers,
            "spans": None if tracer is None else len(tracer.start),
            "env": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "blas_threads": blas_threads(),
            },
        }
        print(json.dumps(record))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report why the run could not be made
        traceback.print_exc()
        sys.exit(1)
