"""Command-line front end: configs in, CSV/JSON artifacts out.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    DosTransform,
    LifshitsRun,
    WegnerBound,
    certify_wegner_hypothesis,
    const_b_dos_array,
    lifshits_exponent_fit,
    lifshits_probe,
    wegner_bound,
    wegner_check,
)
from .config import ConfigError, config_echo, load_config, parse_density, read_float, read_int
from .disorder import DensitySpec, SeedPolicy, support_bounds
from .eigen import EigenError, backend_name
from .lattice import MemoryLimitError
from .spectra import run_ensemble
from .verify import run_all

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _write_csv(path: Path, header_comment: list[str], names: list[str],
               *columns) -> None:
    """One CSV row per index of the equal-length ``columns``: integer
    columns as ``str(int)``, the rest as ``repr(float)``."""
    cells = []
    for column in columns:
        column = np.asarray(column)
        if column.dtype.kind in "iu":
            cells.append(map(str, column.tolist()))
        else:
            cells.append(map(repr, column.astype(np.float64).tolist()))
    lines = [f"# {c}" for c in header_comment]
    lines.append(",".join(names))
    lines.extend(map(",".join, zip(*cells)))
    path.write_text("\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _blas_identity() -> dict | None:
    """Name and version of the BLAS/LAPACK library that NumPy's solves use."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):     # show_config(mode=...) needs NumPy >= 1.25
        return None
    return {k: blas[k] for k in ("name", "version") if k in blas}


def _write_manifest(out_dir: Path, command: str, config, t0: float,
                    files: list[Path], result=None) -> None:
    """Write ``<command>_manifest.json``: the config echo, the time since
    ``t0`` and the outputs' digests, plus the failures, LAPACK driver and
    half-bandwidth of the ensemble ``result`` for commands that run one."""
    manifest = {
        "tool_version": __version__,
        "backend": backend_name(),
        # LAPACK driver and half-bandwidth of the ensemble's band solves, if any
        "driver": None if result is None else result.driver,
        "half_bandwidth": None if result is None else result.half_bandwidth,
        # spectra depend in the last bits on the BLAS build and its threads
        "blas": _blas_identity(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "command": command,
        "config": config_echo(config),
        "base_seed": config.base_seed,
        "wall_time_seconds": time.monotonic() - t0,
        "failed_realizations": 0 if result is None else len(result.failures),
        "outputs": {f.name: _sha256(f) for f in files},
    }
    (out_dir / f"{command}_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _section(extras: dict, name: str) -> dict:
    """The per-command config section ``name``; a config error if absent."""
    if name not in extras:
        raise ConfigError(f"{name}: section missing from config")
    return extras[name]


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else 0
    try:
        SeedPolicy(seed)              # refuses a seed outside [0, 2^64)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    results = run_all(seed)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            ok = False
        if not args.quiet or not r.passed:
            print(f"[{status}] {r.name}: {r.detail} (replay seed {r.seed})")
    if not ok:
        print("verification FAILED", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    if not args.quiet:
        print(f"all {len(results)} suites passed (backend: {backend_name()})")
    return EXIT_OK


def _run_ensemble_command(args):
    config, _, _ = load_config(args.config, args.seed, args.threads)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    result = run_ensemble(config)
    return config, out_dir, t0, result


def cmd_ids(args) -> int:
    config, out_dir, t0, result = _run_ensemble_command(args)
    path = out_dir / "ids.csv"
    _write_csv(path,
               ["E: energy; N_mean: mean normalized counting function [0,1]; N_stderr: standard error over realizations"],
               ["E", "N_mean", "N_stderr"],
               result.grid, result.ids_mean, result.ids_stderr)
    _write_manifest(out_dir, "ids", config, t0, [path], result)
    return EXIT_OK


def cmd_dos(args) -> int:
    config, out_dir, t0, result = _run_ensemble_command(args)
    path = out_dir / "dos.csv"
    _write_csv(path,
               ["bin_center: energy; density: normalized DOS (integrates to 1); stderr: binomial standard error; count: raw eigenvalue count"],
               ["bin_center", "density", "stderr", "count"],
               result.dos_centers, result.dos_density, result.dos_stderr,
               result.dos_counts)
    _write_manifest(out_dir, "dos", config, t0, [path], result)
    return EXIT_OK


def cmd_gap(args) -> int:
    config, out_dir, t0, result = _run_ensemble_command(args)
    per_real = result.gap_per_realization
    path = out_dir / "gap.csv"
    _write_csv(path,
               [f"min over realizations of min|eigenvalue|: {float(per_real.min())!r}",
                "realization: index; min_abs_eig: smallest |eigenvalue| (energy)"],
               ["realization", "min_abs_eig"],
               result.realization_ids, per_real)
    _write_manifest(out_dir, "gap", config, t0, [path], result)
    return EXIT_OK


def cmd_wegner(args) -> int:
    config, extras, _ = load_config(args.config, args.seed, args.threads)
    rec = _section(extras, "wegner")
    try:
        bound = WegnerBound(str(rec["mode"]),
                            read_float(rec["lower_constant"], "wegner.lower_constant"),
                            _bv_for_mode(config, rec["mode"]))
        certify_wegner_hypothesis(config, bound)
        given = {}                    # wegner_check holds min_count's default
        if "min_count" in rec:
            given["min_count"] = read_int(rec["min_count"], "wegner.min_count")
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    result = run_ensemble(config)
    try:
        report = wegner_check(result, bound, **given)
    except ValueError as exc:
        # uncertified hypothesis is a config problem, not a numerical one
        raise ConfigError(str(exc)) from exc
    path = out_dir / "wegner_report.json"
    doc = {
        "mode": bound.mode,
        "lower_constant": bound.lower_constant,
        "bv_norm": bound.bv,
        "min_count": report.min_count,
        "checked_bins": report.checked_bins,
        "bins": [
            {"center": float(c), "density": float(d), "stderr": float(s),
             "count": int(k), "bound": wegner_bound(bound, float(c))}
            for c, d, s, k in zip(result.dos_centers, result.dos_density,
                                  result.dos_stderr, result.dos_counts)
        ],
        "violations": [
            {"center": c, "density": d, "allowed": a} for c, d, a in report.violations
        ],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    _write_manifest(out_dir, "wegner", config, t0, [path], result)
    if not args.quiet:
        print(f"wegner: {report.checked_bins} bins checked, "
              f"{len(report.violations)} violations")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def _bv_for_mode(config, mode: str) -> float:
    from .disorder import bv_norm
    density = config.disorder.mu_v if mode == "H" else config.disorder.mu_b
    if not isinstance(density, DensitySpec):
        raise ConfigError("wegner: the relevant disorder law must have a density")
    return bv_norm(density)


def cmd_lifshits(args) -> int:
    config, extras, _ = load_config(args.config, args.seed, args.threads)
    rec = _section(extras, "lifshits")
    if not isinstance(config.disorder.mu_v, DensitySpec):
        raise ConfigError("lifshits: V must have a density")
    try:
        # LifshitsRun holds the defaults of the keys the config leaves out
        given = {key: read(rec[key], key) for key, read in
                 (("realizations", read_int), ("c", read_float)) if key in rec}
        run = LifshitsRun(
            epsilons=tuple(read_float(eps, "epsilons") for eps in rec["epsilons"]),
            mu_v=config.disorder.mu_v,
            lam=read_float(rec["lam"], "lam"),
            base_seed=config.base_seed,
            alpha=read_float(rec.get("alpha", config.cube.dim / 2.0), "alpha"),
            dim=config.cube.dim,
            **given,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"lifshits: {exc}") from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    table = lifshits_probe(run)
    with np.errstate(divide="ignore"):
        ln_eps = np.log(table.epsilons)
        lnln = np.where((table.p_hat > 0) & (table.p_hat < 1),
                        np.log(np.abs(np.log(np.where(table.p_hat > 0, table.p_hat, 1.0)))),
                        np.nan)
    path = out_dir / "lifshits.csv"
    _write_csv(path,
               ["epsilon: distance to band edge; L_eps: box side; R: realizations; "
                "p_hat: estimated P[min spec <= lam+eps]; stderr: binomial; "
                "ln_eps, lnln: double-log fit coordinates (nan where p_hat in {0,1})"],
               ["epsilon", "L_eps", "R", "p_hat", "stderr", "ln_eps", "lnln"],
               table.epsilons, table.sides, [table.realizations] * len(table.epsilons),
               table.p_hat, table.stderr, ln_eps, lnln)
    files = [path]
    try:
        fit = lifshits_exponent_fit(table.epsilons, table.p_hat)
        fit_doc = {"alpha_hat": fit.alpha_hat, "jackknife_stderr": fit.stderr,
                   "used_points": fit.used_points}
    except ValueError as exc:
        fit_doc = {"error": str(exc)}
    fit_path = out_dir / "lifshits_fit.json"
    fit_path.write_text(json.dumps(fit_doc, indent=2) + "\n")
    files.append(fit_path)
    _write_manifest(out_dir, "lifshits", config, t0, files)
    if not args.quiet and "alpha_hat" in fit_doc:
        print(f"lifshits: alpha_hat = {fit_doc['alpha_hat']:.4f} "
              f"+/- {fit_doc['jackknife_stderr']:.4f}")
    return EXIT_OK


def cmd_dostransform(args) -> int:
    t0 = time.monotonic()
    config, extras, _ = load_config(args.config, args.seed, args.threads)
    rec = _section(extras, "dos_transform")
    source = parse_density(rec["source"], "dos_transform.source")
    if not isinstance(source, DensitySpec):
        raise ConfigError("dos_transform: source must have a density")
    lo, hi = support_bounds(source)
    amax = max(abs(lo), abs(hi))
    try:
        beta = read_float(rec["beta"], "beta")
        transform = DosTransform(source, beta)
        if "energies" in rec:
            erec = rec["energies"]
            energies = np.linspace(read_float(erec["lo"], "energies.lo"),
                                   read_float(erec["hi"], "energies.hi"),
                                   read_int(erec.get("points", 512), "energies.points"))
        else:
            top = math.sqrt(amax**2 + beta**2) + 0.5
            energies = np.linspace(-top, top, 512)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"dos_transform: {exc}") from exc
    d_h = source.pdf_array(energies)
    d_block = const_b_dos_array(transform, energies)
    # the band-edge singularity is clipped to the largest finite value for CSV
    finite = np.isfinite(d_block)
    if not finite.all():
        cap = d_block[finite].max() if finite.any() else 0.0
        d_block = np.where(finite, d_block, cap)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "dos_transform.csv"
    _write_csv(path,
               [f"constant off-diagonal block beta = {beta!r}",
                "E: energy; D_H: source density of H; D_block: transformed block DOS "
                "(band-edge singularity clipped to last finite value)"],
               ["E", "D_H", "D_block"],
               energies, d_h, d_block)
    _write_manifest(out_dir, "dostransform", config, t0, [path])
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every `main` call can share it."""
    # SUPPRESS keeps subcommand-level flags from clobbering ones given
    # before the subcommand; real defaults are set on the main parser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=argparse.SUPPRESS,
                        help="path to the JSON experiment config")
    common.add_argument("--out", type=str, default=argparse.SUPPRESS,
                        help="output directory")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the config base seed")
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                        help="worker pool size for ensemble runs")
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="randblock",
        description="Spectral simulation and identity checks for random block operators",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_config in (
        ("verify", cmd_verify, False),
        ("ids", cmd_ids, True),
        ("dos", cmd_dos, True),
        ("gap", cmd_gap, True),
        ("wegner", cmd_wegner, True),
        ("lifshits", cmd_lifshits, True),
        ("dostransform", cmd_dostransform, True),
    ):
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(fn=fn, needs_config=needs_config)
    return parser


_COMMON_DEFAULTS = {"config": None, "out": ".", "seed": None, "quiet": False}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # common flags use SUPPRESS so either position wins; fill the gaps here
    for key, value in _COMMON_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    if not hasattr(args, "threads"):
        args.threads = os.cpu_count() or 1
    try:
        if args.needs_config and not args.config:
            raise ConfigError(f"{args.command}: --config is required")
        return args.fn(args)
    except (ConfigError, MemoryLimitError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EigenError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
