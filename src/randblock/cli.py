"""Command-line front end: configs in, CSV/JSON artifacts out.

`main` runs every command but ``verify``: it loads the config, starts the
clock, calls ``fn(args, config, extras, out_dir)`` and writes the manifest
from the files, `EnsembleResult` (or None) and exit code the command
returns; the manifest echoes the config document as read, with the seed the
run used.  `config.load_config` has read the whole document, the command
sections ``extras`` included, so a command only maps its section onto the
constructors of `analysis` and runs: `construct` turns their refusals into
config errors naming the key, and what a command adds to the section is
passed beside the section's keys (`functools.partial`, or the config whose
laws give ``wegner``'s bound, `analysis.certify_wegner_hypothesis`), as it
names no key.  An ``--out`` that cannot be written is refused before the
command runs, and the first write makes the output directory, so a command
refused with exit 2 leaves nothing behind; a write the system refuses exits
2 too, naming the path.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import errno
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
    certify_wegner_hypothesis,
    const_b_dos_array,
    double_log_coordinates,
    lifshits_exponent_fit,
    lifshits_probe,
    wegner_check,
)
from .config import ConfigError, construct, load_config
from .disorder import SeedPolicy, support_bounds
from .eigen import EigenError, backend_name
from .lattice import MemoryLimitError, check_memory
from .spectra import certified_floor, run_ensemble, usable_cpus
from .verify import run_all

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, making its directory first; a write the
    system refuses is a config error naming the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {exc.filename or path}: {exc.strerror}") from exc


def _check_out(out_dir: Path) -> None:
    """Refuse, before any work and creating nothing, an output directory
    that exists and is not a directory, or whose nearest existing ancestor
    is not a writable directory."""
    nearest = next(p for p in (out_dir, *out_dir.parents) if os.path.lexists(p))
    if not nearest.is_dir():
        raise ConfigError(f"--out: cannot write {out_dir}: {os.strerror(errno.ENOTDIR)}")
    if not os.access(nearest, os.W_OK | os.X_OK):
        raise ConfigError(f"--out: cannot write {out_dir}: {os.strerror(errno.EACCES)}")


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
    _write_text(path, "\n".join(lines) + "\n")


def _blas_identity() -> dict | None:
    """Name and version of the LAPACK library NumPy is built with, in which
    every band solve runs (`eigen.band_routine`): its
    ``["Build Dependencies"]["lapack"]`` entry in ``CONFIG`` of NumPy's
    build config, which ``import numpy`` has loaded; None where that entry
    is missing (an older NumPy has no ``CONFIG``)."""
    try:
        lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]
    except (AttributeError, KeyError):
        return None
    return {k: lapack[k] for k in ("name", "version") if k in lapack}


def _write_manifest(out_dir: Path, command: str, echo: dict, t0: float,
                    files: list[Path], result) -> None:
    """Write ``<command>_manifest.json``: the config document ``echo`` as
    read, with the seed the run used, the time since ``t0`` and the outputs'
    digests, plus the failures (their count and sorted indices), LAPACK
    driver, half-bandwidth, worker threads and near-grid eigenvalue count of
    the ensemble ``result`` for commands that run one."""
    manifest = {
        "tool_version": __version__,
        # LAPACK driver and half-bandwidth of the ensemble's band solves, if any
        "driver": None if result is None else result.driver,
        "half_bandwidth": None if result is None else result.half_bandwidth,
        # the pool threads that solved it, 0 on the calling thread
        "workers": None if result is None else result.workers,
        # ids.csv and dos.csv are the same on every driver and BLAS build when 0
        "near_grid_eigenvalues": None if result is None else result.near_grid_eigenvalues,
        # spectra depend in the last bits on the BLAS build and its threads
        "blas": _blas_identity(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "command": command,
        "config": echo,
        "base_seed": echo["seed"],
        "wall_time_seconds": time.monotonic() - t0,
        "failed_realizations": 0 if result is None else len(result.failures),
        "failed_indices": None if result is None else result.failures,
        "outputs": {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files},
    }
    _write_text(out_dir / f"{command}_manifest.json", json.dumps(manifest, indent=2) + "\n")


def _section(extras: dict, name: str) -> dict:
    """The per-command config section ``name``; a config error if absent."""
    if name not in extras:
        raise ConfigError(f"{name}: section missing from config")
    return extras[name]


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else 0
    # refuses a seed outside [0, 2^64), in the words of a config's seed
    construct("", SeedPolicy, base_seed=seed, paths={"base_seed": "seed"})
    results = run_all(seed)
    for r in results:
        if not args.quiet or not r.passed:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail} (replay seed {r.seed})")
    if not all(r.passed for r in results):
        print("verification FAILED", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    if not args.quiet:
        print(f"all {len(results)} suites passed (backend: {backend_name()})")
    return EXIT_OK


# The CSV each ensemble command writes: file name, header comment, column
# names and the `EnsembleResult` fields that fill the columns.  ``{gap_min}``
# in a header stands for the least min|eigenvalue| over the realizations.
_ENSEMBLE_TABLES = {
    "ids": ("ids.csv",
            ["E: energy; N_mean: mean normalized counting function [0,1]; N_stderr: standard error over realizations"],
            ["E", "N_mean", "N_stderr"],
            ("grid", "ids_mean", "ids_stderr")),
    "dos": ("dos.csv",
            ["bin_center: energy; density: normalized DOS (integrates to 1); stderr: binomial standard error; count: raw eigenvalue count"],
            ["bin_center", "density", "stderr", "count"],
            ("dos_centers", "dos_density", "dos_stderr", "dos_counts")),
    "gap": ("gap.csv",
            ["min over realizations of min|eigenvalue|: {gap_min!r}",
             "realization: index; min_abs_eig: smallest |eigenvalue| (energy)"],
            ["realization", "min_abs_eig"],
            ("realization_ids", "gap_per_realization")),
}


def cmd_ensemble(args, config, extras, out_dir):
    """``ids``, ``dos`` and ``gap``: run the ensemble and write the
    command's table of its columns (`_ENSEMBLE_TABLES`)."""
    result = run_ensemble(config)
    name, header, names, fields = _ENSEMBLE_TABLES[args.command]
    gap_min = float(result.gap_per_realization.min())
    path = out_dir / name
    _write_csv(path, [line.format(gap_min=gap_min) for line in header], names,
               *(getattr(result, f) for f in fields))
    return [path], result, EXIT_OK


def cmd_wegner(args, config, extras, out_dir):
    rec = _section(extras, "wegner")
    # the bound the laws certify in the section's mode; refused before the run
    bound = construct("wegner", certify_wegner_hypothesis, config, mode=rec["mode"])
    result = run_ensemble(config)
    # wegner_check holds the default of min_count when the section leaves it out
    report = wegner_check(result, bound, **{k: v for k, v in rec.items() if k == "min_count"})
    path = out_dir / "wegner_report.json"
    doc = {
        "mode": bound.mode,
        "lower_constant": bound.lower_constant,
        "bv_norm": bound.bv,
        "min_count": report.min_count,
        "checked_bins": report.checked_bins,
        "bins": [
            {"center": c, "density": d, "stderr": s, "count": k, "bound": b}
            for c, d, s, k, b in zip(result.dos_centers.tolist(), result.dos_density.tolist(),
                                     result.dos_stderr.tolist(), result.dos_counts.tolist(),
                                     report.bounds.tolist())
        ],
        "violations": [
            {"center": c, "density": d, "allowed": a} for c, d, a in report.violations
        ],
    }
    _write_text(path, json.dumps(doc, indent=2) + "\n")
    if not args.quiet:
        print(f"wegner: {report.checked_bins} bins checked, "
              f"{len(report.violations)} violations")
    return [path], result, EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def cmd_lifshits(args, config, extras, out_dir):
    rec = _section(extras, "lifshits")
    if np.any(config.potential.values != 0):
        raise ConfigError("potential: must be zero for lifshits, whose probe samples "
                          "-lap_N + V only")
    # LifshitsRun holds the defaults of the keys the section leaves out
    make = functools.partial(LifshitsRun, mu_v=config.disorder.mu_v, lam=certified_floor(config),
                             base_seed=config.base_seed, dim=config.cube.dim)
    run = construct("lifshits", make, paths={"dim": "cube.dim"}, **rec)
    table = lifshits_probe(run)
    ln_eps, lnln = double_log_coordinates(table.epsilons, table.p_hat)
    path = out_dir / "lifshits.csv"
    _write_csv(path,
               ["epsilon: distance to band edge; L_eps: box side; R: realizations; "
                "p_hat: estimated P[min spec <= lam+eps]; stderr: binomial; "
                "ln_eps, lnln: double-log fit coordinates (nan where p_hat in {0,1})"],
               ["epsilon", "L_eps", "R", "p_hat", "stderr", "ln_eps", "lnln"],
               table.epsilons, table.sides, [table.realizations] * len(table.epsilons),
               table.p_hat, table.stderr, ln_eps, lnln)
    try:
        fit = lifshits_exponent_fit(table.epsilons, table.p_hat)
        fit_doc = {"alpha_hat": fit.alpha_hat, "jackknife_stderr": fit.stderr,
                   "used_points": fit.used_points}
    except ValueError as exc:
        fit_doc = {"error": str(exc)}
    fit_path = out_dir / "lifshits_fit.json"
    _write_text(fit_path, json.dumps(fit_doc, indent=2) + "\n")
    if not args.quiet and "alpha_hat" in fit_doc:
        print(f"lifshits: alpha_hat = {fit_doc['alpha_hat']:.4f} "
              f"+/- {fit_doc['jackknife_stderr']:.4f}")
    return [path, fit_path], None, EXIT_OK


# float arrays of the energies' length alive at once: the energies, D_H,
# D_block and the temporaries of `const_b_dos_array` and `pdf_array`
_TRANSFORM_ARRAYS = 8
# energies of the transform's table when ``dos_transform.energies`` gives none
_TRANSFORM_POINTS = 512


def cmd_dostransform(args, config, extras, out_dir):
    rec = _section(extras, "dos_transform")
    source, beta = rec["source"], rec["beta"]
    transform = construct("dos_transform", DosTransform, source=source, beta=beta)
    top = math.hypot(max(map(abs, support_bounds(source))), beta) + 0.5
    if "energies" not in rec and not math.isfinite(2 * top):
        raise ConfigError(f"dos_transform: the default energies {-top!r} to {top!r} "
                          "span more than a float holds; give dos_transform.energies")
    given = {"lo": -top, "hi": top, "points": _TRANSFORM_POINTS, **rec.get("energies", {})}
    points = given["points"]
    check_memory(8 * _TRANSFORM_ARRAYS * points, f"the DOS transform at {points} energies")
    energies = np.linspace(given["lo"], given["hi"], points)
    d_h = source.pdf_array(energies)
    d_block = const_b_dos_array(transform, energies)
    # the band-edge singularity is clipped to the largest finite value for CSV
    finite = np.isfinite(d_block)
    if not finite.all():
        cap = d_block[finite].max() if finite.any() else 0.0
        d_block = np.where(finite, d_block, cap)
    path = out_dir / "dos_transform.csv"
    _write_csv(path,
               [f"constant off-diagonal block beta = {beta!r}",
                "E: energy; D_H: source density of H; D_block: transformed block DOS "
                "(band-edge singularity clipped to last finite value)"],
               ["E", "D_H", "D_block"],
               energies, d_h, d_block)
    return [path], None, EXIT_OK


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
                        help="worker threads for ensembles (default: the CPUs "
                             "this process may run on), at most one per such CPU "
                             "and per realization")
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="randblock",
        description="Spectral simulation and identity checks for random block operators",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("verify", cmd_verify), *((n, cmd_ensemble) for n in _ENSEMBLE_TABLES),
                     ("wegner", cmd_wegner), ("lifshits", cmd_lifshits),
                     ("dostransform", cmd_dostransform)):
        sub.add_parser(name, parents=[common]).set_defaults(fn=fn)
    return parser


_COMMON_DEFAULTS = {"config": None, "out": ".", "seed": None, "quiet": False}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # common flags use SUPPRESS so either position wins; fill the gaps here
    for key, value in _COMMON_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    if not hasattr(args, "threads"):
        args.threads = usable_cpus()
    try:
        if args.fn is cmd_verify:     # no config, no manifest
            return cmd_verify(args)
        if not args.config:
            raise ConfigError(f"{args.command}: --config is required")
        config, extras, doc = load_config(args.config, args.seed, args.threads)
        t0 = time.monotonic()
        out_dir = Path(args.out)
        _check_out(out_dir)
        files, result, code = args.fn(args, config, extras, out_dir)
        _write_manifest(out_dir, args.command, {**doc, "seed": config.base_seed}, t0,
                        files, result)
        return code
    except (ConfigError, MemoryLimitError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EigenError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
