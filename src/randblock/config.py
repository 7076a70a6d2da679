"""Experiment configuration files: strict JSON parsing and echo.

A config is one JSON document with a ``schema_version`` field.  Unknown keys
are errors, not warnings: a typo in a disorder parameter silently changes
the physics otherwise.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .disorder import ConstantValue, Density, DensitySpec, DisorderModel
from .lattice import Cube, PeriodicPotential
from .spectra import ExperimentConfig

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or malformed experiment configuration."""


def _check_keys(record: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(record, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(record) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - set(record)
    if missing:
        raise ConfigError(f"{where}: missing key(s) {sorted(missing)}")


def read_int(value, where: str) -> int:
    """A JSON integer as int.  Booleans, fractional numbers and strings are
    refused, never truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def read_float(value, where: str) -> float:
    """A finite JSON number as float.  Booleans, strings, NaN and infinities
    are refused, never coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def read_array(value, where: str, read) -> tuple:
    """A JSON array as the tuple of ``read(entry, where)`` over its entries
    (``read`` is `read_int` or `read_float`); anything else, a bare number or
    a string included, is refused."""
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected an array, got {value!r}")
    return tuple(read(x, where) for x in value)


def _read_floats(value, where: str):
    """`read_float` applied to every entry of a JSON array, nested to any
    depth; a bare number is read as one entry."""
    if isinstance(value, list):
        return [_read_floats(x, where) for x in value]
    return read_float(value, where)


def _optional_float(value, where: str) -> float | None:
    """`read_float`, except that null stays None."""
    return None if value is None else read_float(value, where)


def parse_density(record: dict, where: str) -> Density:
    _check_keys(record, {"type", "lo", "hi", "value", "breakpoints", "heights"},
                {"type"}, where)
    kind = record["type"]
    try:
        if kind == "uniform":
            _check_keys(record, {"type", "lo", "hi"}, {"type", "lo", "hi"}, where)
            return DensitySpec.uniform(read_float(record["lo"], f"{where}.lo"),
                                       read_float(record["hi"], f"{where}.hi"))
        if kind == "piecewise":
            _check_keys(record, {"type", "breakpoints", "heights"},
                        {"type", "breakpoints", "heights"}, where)
            return DensitySpec(*(read_array(record[key], f"{where}.{key}", read_float)
                                 for key in ("breakpoints", "heights")))
        if kind == "constant":
            _check_keys(record, {"type", "value"}, {"type", "value"}, where)
            return ConstantValue(read_float(record["value"], f"{where}.value"))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown density type {kind!r}")


def density_record(density: Density) -> dict:
    if isinstance(density, ConstantValue):
        return {"type": "constant", "value": density.value}
    if len(density.heights) == 1:
        return {"type": "uniform", "lo": density.breakpoints[0], "hi": density.breakpoints[-1]}
    return {"type": "piecewise", "breakpoints": list(density.breakpoints),
            "heights": list(density.heights)}


_TOP_KEYS = {"schema_version", "cube", "boundary", "laplacian_sign", "potential",
             "disorder", "realizations", "seed", "grid", "bin_width",
             "lifshits", "wegner", "dos_transform"}
_TOP_REQUIRED = {"schema_version", "cube", "boundary", "disorder", "realizations", "seed"}


def parse_config(doc: dict, seed_override: int | None = None,
                 threads: int = 1) -> tuple[ExperimentConfig, dict]:
    """Parse the top-level document into an ExperimentConfig.

    Returns (config, extras) where extras holds the per-command sections
    (lifshits / wegner / dos_transform), already key-checked.
    """
    _check_keys(doc, _TOP_KEYS, _TOP_REQUIRED, "config")
    version = read_int(doc["schema_version"], "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config: unsupported schema_version {version!r}")

    cube_rec = doc["cube"]
    _check_keys(cube_rec, {"dim", "side", "centered"}, {"dim", "side"}, "cube")
    centered = cube_rec.get("centered", False)
    if not isinstance(centered, bool):
        raise ConfigError(f"cube.centered: expected true or false, got {centered!r}")
    dim, side = (read_int(cube_rec[k], f"cube.{k}") for k in ("dim", "side"))
    try:
        cube = Cube(dim, side, centered)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cube: {exc}") from exc

    dis_rec = doc["disorder"]
    _check_keys(dis_rec, {"V", "b"}, {"V", "b"}, "disorder")
    disorder = DisorderModel(parse_density(dis_rec["V"], "disorder.V"),
                             parse_density(dis_rec["b"], "disorder.b"))

    if "potential" in doc:
        pot_rec = doc["potential"]
        _check_keys(pot_rec, {"period", "values"}, {"period", "values"}, "potential")
        try:
            potential = PeriodicPotential(
                read_array(pot_rec["period"], "potential.period", read_int),
                _read_floats(pot_rec["values"], "potential.values"))
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"potential: {exc}") from exc
        if len(potential.period) != cube.dim:
            raise ConfigError(f"potential: period {list(potential.period)} needs one entry "
                              f"per axis of the {cube.dim}-d cube")
    else:
        potential = PeriodicPotential.zero(cube.dim)

    grid_lo = grid_hi = None
    grid_points = 512
    if "grid" in doc:
        grid_rec = doc["grid"]
        _check_keys(grid_rec, {"lo", "hi", "points"}, set(), "grid")
        grid_lo, grid_hi = (_optional_float(grid_rec.get(k), f"grid.{k}") for k in ("lo", "hi"))
        grid_points = read_int(grid_rec.get("points", 512), "grid.points")

    seed = read_int(doc["seed"] if seed_override is None else seed_override, "seed")
    try:
        config = ExperimentConfig(
            cube=cube,
            boundary=str(doc["boundary"]),
            disorder=disorder,
            potential=potential,
            realizations=read_int(doc["realizations"], "realizations"),
            base_seed=seed,
            laplacian_sign=read_int(doc.get("laplacian_sign", -1), "laplacian_sign"),
            grid_lo=grid_lo,
            grid_hi=grid_hi,
            grid_points=grid_points,
            bin_width=_optional_float(doc.get("bin_width"), "bin_width"),
            threads=threads,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    extras = {}
    if "lifshits" in doc:
        rec = doc["lifshits"]
        _check_keys(rec, {"epsilons", "lam", "c", "alpha", "realizations"},
                    {"epsilons", "lam"}, "lifshits")
        extras["lifshits"] = rec
    if "wegner" in doc:
        rec = doc["wegner"]
        _check_keys(rec, {"mode", "lower_constant", "min_count"},
                    {"mode", "lower_constant"}, "wegner")
        extras["wegner"] = rec
    if "dos_transform" in doc:
        rec = doc["dos_transform"]
        _check_keys(rec, {"beta", "source", "energies"}, {"beta", "source"}, "dos_transform")
        if "energies" in rec:
            _check_keys(rec["energies"], {"lo", "hi", "points"}, {"lo", "hi"},
                        "dos_transform.energies")
        extras["dos_transform"] = rec
    return config, extras


def load_config(path: str | Path, seed_override: int | None = None,
                threads: int = 1) -> tuple[ExperimentConfig, dict, dict]:
    """Load and validate a config file; returns (config, extras, raw doc)."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    config, extras = parse_config(doc, seed_override, threads)
    return config, extras, doc


def config_echo(config: ExperimentConfig) -> dict:
    """Round-trippable record of an ExperimentConfig (re-parses to an
    equivalent config)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "cube": {"dim": config.cube.dim, "side": config.cube.side,
                 "centered": config.cube.centered},
        "boundary": config.boundary,
        "laplacian_sign": config.laplacian_sign,
        "potential": {"period": list(config.potential.period),
                      "values": config.potential.values.tolist()},
        "disorder": {"V": density_record(config.disorder.mu_v),
                     "b": density_record(config.disorder.mu_b)},
        "realizations": config.realizations,
        "seed": config.base_seed,
        "grid": {"lo": config.grid_lo, "hi": config.grid_hi,
                 "points": config.grid_points},
    }
    if config.bin_width is not None:
        doc["bin_width"] = config.bin_width
    return doc
