"""One workload in its own process: timed repetitions, checks and, with
``--trace 1``, the traced per-layer run.  Started by run.py, which reads the
JSON object this prints as its last line.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
    python3 perfbench/child.py --setup --workload NAME --seed N --scratch DIR

``--setup`` stops after the workload's set-up and prints ``time.monotonic()``,
so the parent can time set-up in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Rep:
    seconds: float
    attempted: int
    failed: int
    realizations: int
    errors: list


def one_rep(workload, serial: bool, tracer=None) -> tuple[Rep, object]:
    """Run and check one repetition; an exception from the program fails
    every operation of the repetition."""
    def run_and_check():
        raw = workload.run(serial)
        return raw, workload.check(raw)

    t0 = time.perf_counter()
    try:
        if tracer is None:
            raw, errors = run_and_check()
        else:
            raw, errors = tracer.call(tracing.ROOT, None, run_and_check)
        failed, done = workload.failed(raw), workload.realizations(raw)
    except Exception:
        raw, errors = None, [traceback.format_exc(limit=4)]
        failed, done = workload.attempted(), 0
    seconds = time.perf_counter() - t0
    if errors:
        failed = workload.attempted()
    return Rep(seconds, workload.attempted(), failed, done, errors), raw


def measure(workload, seconds: float) -> list[Rep]:
    """Untraced repetitions until the next one would overrun ``seconds``."""
    reps = []
    start = time.monotonic()
    while True:
        rep, _ = one_rep(workload, serial=False)
        reps.append(rep)
        if rep.errors:
            break
        if (len(reps) >= workload.min_reps
                and time.monotonic() - start + rep.seconds > seconds):
            break
    return reps


def measure_traced(workload, seconds: float):
    """Alternate untraced and traced repetitions.  Spans in pool workers are
    not collected, so a pool workload is traced on a serial replay of the
    same inputs, and its pool wall time is taken alongside for the speedup."""
    tracer = tracing.Tracer()
    pool, untraced, traced = [], [], []
    raw = None
    start = time.monotonic()
    while True:
        t_cycle = time.monotonic()
        if workload.has_pool:
            pool.append(one_rep(workload, serial=False)[0])
        untraced.append(one_rep(workload, serial=True)[0])
        with tracer.installed():
            rep, raw = one_rep(workload, serial=True, tracer=tracer)
        traced.append(rep)
        reps = pool + untraced + traced
        if any(r.errors for r in reps):
            break
        cycle = time.monotonic() - t_cycle
        if time.monotonic() - start + cycle > seconds:
            break
    metrics = tracing.layer_metrics(tracer, len(traced))
    metrics["spectra.pool.speedup"] = (
        statistics.median(r.seconds for r in untraced)
        / statistics.median(r.seconds for r in pool)) if pool else 0.0
    metrics["trace.overhead_frac"] = (
        statistics.fmean(r.seconds for r in traced)
        / statistics.fmean(r.seconds for r in untraced) - 1.0)
    if raw is not None:
        block, held = workload.computed_bytes(raw)
        metrics["operators.block_bytes"] = block
        metrics["spectra.held_spectra_bytes"] = held
    return pool + untraced + traced, metrics, tracer.missing


def environment() -> dict:
    """What changes the numbers without a code change."""
    import numpy
    import randblock
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):     # show_config(mode=...) needs NumPy >= 1.25
        blas = None
    return {
        "backend": randblock.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.seed, args.tiny, ROOT, args.scratch)
    workload.prepare()
    if args.setup:
        print(repr(time.monotonic()))
        return 0

    import randblock
    src = ROOT / "src"
    if not Path(randblock.__file__).resolve().is_relative_to(src.resolve()):
        print(f"randblock imported from {randblock.__file__}, not from {src}", file=sys.stderr)
        return 2

    missing = []
    metrics = None
    if args.trace:
        reps, metrics, missing = measure_traced(workload, args.seconds)
    else:
        reps = measure(workload, args.seconds)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    errors = [e for r in reps for e in r.errors]
    print(json.dumps({
        "seconds": [r.seconds for r in reps],
        "realizations": [r.realizations for r in reps],
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "errors": errors[:5],
        "rss_self_kb": self_kb,
        "rss_children_kb": children_kb,
        "layer_metrics": metrics,
        "missing_hooks": missing,
        "properties": workload.properties() if not errors else None,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
