"""Span tracing of randblock's pipeline from outside the package.

The tracer replaces public names that the pipeline calls through (for
example ``randblock.spectra.eigvalsh``) with wrappers that time each call,
and restores them afterwards.  Spans nest: a span's self time is its
duration minus the durations of the spans opened inside it, so the self
times of all spans under one root add up to the root's duration.

Only aggregates are kept (per span name: calls, total and self time,
failures and, for percentiles, the individual durations).
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (span name, module, attribute path).  The first component of a span name
# is the layer it is charged to.  A span name may have several targets when
# the pipeline reaches the same function through different module aliases.
HOOKS = [
    ("eigen.eigvalsh", "randblock.spectra", "eigvalsh"),
    ("eigen.eigvalsh", "randblock.verify", "eigvalsh"),
    ("eigen.min_eig_tridiag", "randblock.analysis", "min_eig_tridiag"),
    ("spectra.run_ensemble", "randblock.spectra", "run_ensemble"),
    ("spectra.run_ensemble", "randblock.cli", "run_ensemble"),
    ("spectra.default_grid", "randblock.spectra", "default_grid"),
    ("operators.base_matrices", "randblock.spectra", "base_matrices"),
    ("operators.laplacian", "randblock.spectra", "laplacian"),
    ("operators.laplacian", "randblock.operators", "laplacian"),
    ("operators.build_block", "randblock.spectra", "build_block"),
    ("lattice.on_cube", "randblock.lattice", "PeriodicPotential.on_cube"),
    ("disorder.realization_fields", "randblock.spectra", "realization_fields"),
    ("disorder.sample_iid", "randblock.spectra", "sample_iid"),
    ("disorder.sample_iid", "randblock.analysis", "sample_iid"),
    ("analysis.lifshits_probe", "randblock.analysis", "lifshits_probe"),
    ("analysis.lifshits_probe", "randblock.cli", "lifshits_probe"),
    ("analysis.wegner_check", "randblock.analysis", "wegner_check"),
    ("analysis.wegner_check", "randblock.cli", "wegner_check"),
    ("analysis.lifshits_exponent_fit", "randblock.analysis", "lifshits_exponent_fit"),
    ("analysis.lifshits_exponent_fit", "randblock.cli", "lifshits_exponent_fit"),
    ("config.load_config", "randblock.cli", "load_config"),
    ("verify.run_all", "randblock.cli", "run_all"),
    ("cli.main", "randblock.cli", "main"),
]

LAYERS = ("lattice", "operators", "disorder", "eigen", "spectra", "analysis",
          "config", "cli", "verify")
ROOT = "bench.result"
CLI_COMMANDS = ("verify", "ids", "dos", "gap", "wegner", "lifshits", "dostransform")


class SpanStats:
    __slots__ = ("calls", "total", "self_total", "failures", "durations", "by_tag")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.failures = 0
        self.durations = []
        self.by_tag = {}


class Tracer:
    """Collects nested spans; hooks are live only inside ``installed()``."""

    def __init__(self, hooks=HOOKS):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list] = []       # per open span: [time in child spans]
        self._targets = []                 # (owner, attr, original, wrapper)
        self.missing: list[str] = []       # "module:attr" of absent targets
        self.missing_spans: set[str] = set()
        for name, module, path in hooks:
            owner, attr = _resolve(module, path)
            if owner is None:
                self.missing.append(f"{module}:{path}")
                self.missing_spans.add(name)
                continue
            original = getattr(owner, attr)
            self._targets.append((owner, attr, original, self._wrap(name, original)))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            # cli.main spans are tagged with the command, argv[0]
            tag = args[0][0] if name == "cli.main" and args and args[0] else None
            return self.call(name, tag, fn, *args, **kwargs)

        return hooked

    def call(self, name, tag, fn, *args, **kwargs):
        frame = [0.0]
        self._stack.append(frame)
        failed = False
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dur
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = SpanStats()
            st.calls += 1
            st.total += dur
            st.self_total += dur - frame[0]
            st.failures += failed
            st.durations.append(dur)
            if tag is not None:
                st.by_tag[tag] = st.by_tag.get(tag, 0.0) + dur

    @contextmanager
    def installed(self):
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._targets:
                setattr(owner, attr, original)


def _resolve(module: str, path: str):
    """(owner object, attribute name) for ``module:path``, or (None, None)
    when the module or any attribute on the path no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr


def _p90(values):
    ordered = sorted(values)
    # nearest-rank percentile
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def layer_metrics(tracer: Tracer, reps: int) -> dict[str, float | None]:
    """Per-layer metrics averaged over ``reps`` traced repetitions.

    Counts and inclusive/self times are per repetition; ``ms_per_call`` and
    ``p90_ms`` are over every call.  A metric whose span has a missing hook
    target is None: it must never read as zero.
    """
    empty = SpanStats()

    def st(name):
        return tracer.stats.get(name, empty)

    def per_rep(x):
        return x / reps

    def per_call_ms(name):
        s = st(name)
        return 1e3 * s.total / s.calls if s.calls else 0.0

    out = {
        "eigen.eigvalsh.calls": per_rep(st("eigen.eigvalsh").calls),
        "eigen.eigvalsh.ms_per_call": per_call_ms("eigen.eigvalsh"),
        "eigen.eigvalsh.p90_ms": 1e3 * _p90(st("eigen.eigvalsh").durations)
        if st("eigen.eigvalsh").calls else 0.0,
        "eigen.eigvalsh.failures": per_rep(st("eigen.eigvalsh").failures),
        "eigen.min_eig_tridiag.calls": per_rep(st("eigen.min_eig_tridiag").calls),
        "eigen.min_eig_tridiag.ms_per_call": per_call_ms("eigen.min_eig_tridiag"),
        "spectra.run_ensemble.self_ms": per_rep(1e3 * st("spectra.run_ensemble").self_total),
        "spectra.default_grid.ms": per_rep(1e3 * st("spectra.default_grid").total),
        "operators.base_matrices.calls": per_rep(st("operators.base_matrices").calls),
        "operators.base_matrices.ms": per_rep(1e3 * st("operators.base_matrices").total),
        "operators.laplacian.calls": per_rep(st("operators.laplacian").calls),
        "lattice.on_cube.ms": per_rep(1e3 * st("lattice.on_cube").total),
        "operators.build_block.ms_per_call": per_call_ms("operators.build_block"),
        "disorder.realization_fields.ms_per_call": per_call_ms("disorder.realization_fields"),
        "disorder.sample_iid.ms_per_call": per_call_ms("disorder.sample_iid"),
        "analysis.lifshits_probe.self_ms": per_rep(1e3 * st("analysis.lifshits_probe").self_total),
        "analysis.wegner_check.ms": per_rep(1e3 * st("analysis.wegner_check").total),
        "analysis.lifshits_exponent_fit.ms":
            per_rep(1e3 * st("analysis.lifshits_exponent_fit").total),
        "config.load_config.ms": per_rep(1e3 * st("config.load_config").total),
        "verify.run_all.ms": per_rep(1e3 * st("verify.run_all").total),
    }
    tags = st("cli.main").by_tag
    for command in CLI_COMMANDS:
        out[f"cli.cmd.{command}_s"] = per_rep(tags.get(command, 0.0))
    for layer in LAYERS:
        self_s = sum(s.self_total for name, s in tracer.stats.items()
                     if name.split(".", 1)[0] == layer)
        out[f"{layer}.self_ms"] = per_rep(1e3 * self_s)
    out["bench.self_ms"] = per_rep(1e3 * st(ROOT).self_total)
    out["trace.result_ms"] = per_rep(1e3 * st(ROOT).total)
    out["trace.hooks_missing"] = len(tracer.missing)

    missing_layers = {name.split(".", 1)[0] for name in tracer.missing_spans}
    for key in out:
        span = "cli.main" if key.startswith("cli.") else key.rsplit(".", 1)[0]
        layer = key.split(".", 1)[0]
        if span in tracer.missing_spans or (key == f"{layer}.self_ms" and layer in missing_layers):
            out[key] = None
    return out
