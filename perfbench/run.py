"""randblock pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src`` directory, never from an installed copy.  The
workloads and metrics are listed in BENCHMARK.json and described in
perfbench/README.md.

With ``--trace 0`` it prints the end-to-end metrics: set-up time in fresh
interpreters, then the workload, repeated in its own process for about
``--seconds``.  With ``--trace 1`` it prints the per-layer metrics of a
traced run instead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--workload all`` each workload's report is printed in turn, and the last
line sums them, each metric name prefixed with its workload.

Exit codes: 0 correct result, 1 a correctness check failed (the result is
still printed), 2 no randblock source in this checkout or bad arguments,
3 the workload process crashed or ran out of time (nothing is printed).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wegner-1d", "ids-2d-pool", "lifshits-1d", "cli-example")
SETUP_SAMPLES = 3          # fresh interpreters before and again after the workload;
                           # setup_s is the median of all six
TIME_LIMIT = 170.0         # seconds for the whole run, under the 180 s allowed


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _child_cmd(workload: str, args, scratch: Path, *extra) -> list[str]:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--scratch", str(scratch), *extra]
    return cmd + (["--tiny"] if args.tiny else [])


def _run(cmd, timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the group (the
    child and any pool workers) and wait for it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=_child_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def measure_setup(workload: str, args, scratch: Path, deadline: float) -> list[float]:
    """Seconds from starting a fresh interpreter until randblock is imported
    and the workload's inputs are built (CLOCK_MONOTONIC is shared by all
    processes, so the child's reading is comparable with the parent's)."""
    cmd = _child_cmd(workload, args, scratch, "--setup")
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = _run(cmd, deadline - time.monotonic())
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("set-up failed")
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return samples


def _summary(values: list[float]) -> str:
    return (f"n={len(values)} min {min(values):.4f} median {statistics.median(values):.4f} "
            f"max {max(values):.4f}")


def source_digest() -> str:
    """sha256 over the package sources and the example config: identifies
    the code measured where ``git rev-parse HEAD`` is unavailable."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "randblock").rglob("*.py"))
    for path in files + [ROOT / "configs" / "example.json"]:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_head() -> str | None:
    """HEAD of the checkout, or None when it is not itself a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def end_to_end(child: dict, setup: list[float]) -> dict:
    """Set-up is the median of its fresh interpreters.  The workload's figures
    average over every repetition but the first, which warms up: on a shared
    host other tenants slow the CPU down for stretches of seconds, and only an
    average over the whole run holds still from run to run."""
    seconds = child["seconds"][1:] or child["seconds"]
    realizations = child["realizations"][-len(seconds):]
    return {
        "setup_s": statistics.median(setup),
        "result_s": statistics.fmean(seconds),
        "realizations_per_s": sum(realizations) / sum(seconds),
        "peak_rss_mb": (child["rss_self_kb"] + child["rss_children_kb"]) / 1024.0,
    }


def report_metrics(listed: list[dict], values: dict) -> dict:
    """Print one line per metric and return them in the result's format.  A
    metric without a value (its trace hook is missing) is flagged, never 0."""
    metrics = {}
    for m in listed:
        value = values.get(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if value is None:
            metrics[m["name"]]["status"] = "missing"
        shown = "MISSING" if value is None else f"{value:.6g}"
        print(f"{m['name']:42s} {shown:>14s} {m['unit']}")
    return metrics


def run_one(workload: str, args, spec: dict) -> tuple[int, dict | None]:
    """Measure one workload and print its report; returns the exit code and
    the result object, which is None when the workload did not complete."""
    deadline = time.monotonic() + TIME_LIMIT
    scratch = ROOT / ".perfbench_out" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else measure_setup(workload, args, scratch, deadline)
        proc = _run(_child_cmd(workload, args, scratch, "--seconds", repr(args.seconds),
                               "--trace", str(args.trace)), deadline - time.monotonic())
        if not args.trace:
            setup += measure_setup(workload, args, scratch, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"workload {workload} did not complete: {exc}", file=sys.stderr)
        return 3, None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):     # still in use by a concurrent run
            scratch.parent.rmdir()
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"workload process exited {proc.returncode}", file=sys.stderr)
        return 3, None
    child = json.loads(proc.stdout.strip().splitlines()[-1])

    correct = not child["errors"] and child["failed"] == 0
    for error in child["errors"]:
        print(f"CHECK FAILED: {error.strip()}")
    n_reps = len(child["seconds"])
    print(f"workload {workload} seed {args.seed} trace {args.trace}: {n_reps} repetitions, "
          f"error_rate = {child['failed'] / child['attempted']:.6g} "
          f"({child['failed']} failed of {child['attempted']} attempted)")

    if args.trace:
        listed = spec["per_layer"]
        values = child["layer_metrics"] or {}
        for hook in child["missing_hooks"]:
            print(f"MISSING hook target {hook}: its metrics are reported as missing")
    else:
        listed = spec["end_to_end"]
        values = end_to_end(child, setup)
        print(f"setup_s over fresh interpreters: {_summary(setup)}")
        print(f"result_s over repetitions: {_summary(child['seconds'])}")
        print("repetition_s " + json.dumps([round(t, 6) for t in child["seconds"]]))
    metrics = report_metrics(listed, values)
    if args.trace and values.get("trace.result_ms") is not None:
        total = sum(values.get(f"{layer}.self_ms") or 0.0 for layer in LAYERS + ("bench",))
        print(f"self times add up to {total:.3f} ms; traced result "
              f"{values['trace.result_ms']:.3f} ms")
    print("inputs " + json.dumps(child["properties"]))
    print("env " + json.dumps({**child["env"], "git_head": git_head(),
                                "source_sha256": source_digest()}))
    result = {"correct": correct, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}
    print(json.dumps(result))
    return (0 if correct else 1), result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="randblock pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test only")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    needed = [ROOT / "src" / "randblock" / "__init__.py", ROOT / "BENCHMARK.json"]
    if "cli-example" in names:
        needed.append(ROOT / "configs" / "example.json")
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"not a randblock checkout, missing: {', '.join(absent)}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63 or args.seconds <= 0:
        print("need 0 <= seed < 2^63 and seconds > 0", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    code, results = 0, {}
    for name in names:
        one_code, results[name] = run_one(name, args, spec)
        if results[name] is None:
            return one_code
        code = max(code, one_code)
    if len(names) > 1:
        # the last line sums the workloads; metric names gain a workload prefix
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()}}))
    return code


if __name__ == "__main__":
    sys.exit(main())
