"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

It checks that every workload prints every metric of BENCHMARK.json by
name and unit, in both modes and under ``--workload all``; that each
workload's correctness check rejects a tampered result; and that a trace
hook whose target is gone reads as missing, not as zero.  It exits
non-zero on the first failure.  Kept out of pytest's default collection on purpose: it times
subprocesses and is not part of the package's test suite.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    printed = {tuple(line.split()[::2]) for line in lines if len(line.split()) == 3}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got == {"value": got["value"], "unit": m["unit"]}, (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
        if not trace:
            assert got["value"] > 0, (workload, m["name"], got)
        assert (m["name"], m["unit"]) in printed, f"{m['name']} not printed with its unit"
    return result


def check_all():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0.3", "--trace", "0", "--tiny"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [f"{w}.{m['name']}" for w in run.WORKLOADS
                                       for m in SPEC["end_to_end"]]
    print("ok   --workload all prints every workload's metrics")


def check_outputs():
    for name in run.WORKLOADS:
        bench(name, 0)
        traced = bench(name, 1)["metrics"]
        layers = sum(traced[f"{layer}.self_ms"]["value"] for layer in tracing.LAYERS + ("bench",))
        total = traced["trace.result_ms"]["value"]
        assert abs(layers - total) <= 1e-6 * total, (name, layers, total)
        print(f"ok   {name}: every metric printed with its unit; self times sum to result")


def tampered(workload, raw, mutate) -> list[str]:
    bad = copy.deepcopy(raw)
    mutate(bad)
    return workload.check(bad)


def check_rejections(scratch: Path):
    def fresh(name):
        w = workloads.make(name, 5, True, ROOT, scratch)
        w.prepare()
        return w

    def flip_sign(result):
        result.spectra[0][0] = -result.spectra[0][0]

    w = fresh("wegner-1d")
    raw = w.run()
    assert w.check(raw) == [], w.check(raw)
    assert tampered(w, raw, lambda r: flip_sign(r[0]))
    assert tampered(w, raw, lambda r: r[0].spectra[1].__setitem__(-1, r[0].spectra[1][-1] + 1e-6))
    assert tampered(w, raw, lambda r: r[1].violations.append((0.0, 9.0, 1.0)))
    assert tampered(w, raw, lambda r: r[0].failures.append(0))

    w = fresh("ids-2d-pool")
    raw = w.run()
    assert w.check(raw) == [], w.check(raw)
    assert tampered(w, raw, flip_sign)
    mid = len(raw.grid) // 2
    assert tampered(w, raw, lambda r: r.ids_mean.__setitem__(mid, r.ids_mean[mid] + 1e-6))
    assert tampered(w, raw, lambda r: r.ids_mean.__setitem__(-1, 0.999))

    w = fresh("lifshits-1d")
    raw = w.run()
    assert w.check(raw) == [], w.check(raw)
    assert tampered(w, raw, lambda r: r[0].p_hat.__setitem__(slice(None), r[0].p_hat[::-1]))
    assert tampered(w, raw, lambda r: setattr(r[1], "alpha_hat", 0.1))

    w = fresh("cli-example")
    assert w.check(w.run()) == []
    codes, out = w.run()
    (out / "ids.csv").write_text("tampered\n")
    assert w.check((codes, out))
    codes, out = w.run()
    assert w.check(({**codes, "verify": 1}, out))
    codes, out = w.run()
    (out / "gap.csv").write_text("different but consistent\n")
    manifest = json.loads((out / "gap_manifest.json").read_text())
    manifest["outputs"]["gap.csv"] = workloads.hashlib.sha256(
        (out / "gap.csv").read_bytes()).hexdigest()
    (out / "gap_manifest.json").write_text(json.dumps(manifest))
    assert w.check((codes, out)), "a digest change between repetitions must fail"
    print("ok   each workload's check rejects tampered results")


def check_missing_hook():
    import randblock.spectra

    original = randblock.spectra.eigvalsh
    hooks = tracing.HOOKS + [("eigen.eigvalsh", "randblock.spectra", "no_such_name")]
    tracer = tracing.Tracer(hooks)
    with tracer.installed():
        assert randblock.spectra.eigvalsh is not original
    assert randblock.spectra.eigvalsh is original, "hooks must be removed after tracing"
    metrics = tracing.layer_metrics(tracer, 1)
    assert tracer.missing == ["randblock.spectra:no_such_name"]
    assert metrics["eigen.eigvalsh.calls"] is None
    assert metrics["eigen.self_ms"] is None
    assert metrics["trace.hooks_missing"] == 1
    with contextlib.redirect_stdout(io.StringIO()):
        reported = run.report_metrics(SPEC["per_layer"], metrics)
    assert reported["eigen.eigvalsh.ms_per_call"]["status"] == "missing"
    assert reported["eigen.eigvalsh.ms_per_call"]["value"] is None
    print("ok   a missing hook target reads as missing")


def main() -> int:
    check_missing_hook()
    with tempfile.TemporaryDirectory() as tmp:
        check_rejections(Path(tmp))
    check_outputs()
    check_all()
    return 0


if __name__ == "__main__":
    sys.exit(main())
