"""Experiment configuration files: strict JSON parsing.

A config is one JSON document with a ``schema_version`` field.  Every JSON
object in it, the top level, its nested records, each density and the
command sections (``lifshits``, ``wegner``, ``dos_transform``), is read by
`read_record` through its table of key readers below, whatever the command
runs.  Those tables are the one place the document format, the type and
shape of each key, is written down.  The range of a value is checked once,
by the constructor that owns it, so a command section's ranges are checked
only by the command that builds it.  Unknown keys are errors, not warnings:
a typo in a disorder parameter silently changes the physics otherwise.
Every error names the key path (`construct`), such as ``lifshits.lam`` or
``potential.values[1]``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .disorder import ConstantValue, Density, DensitySpec, DisorderModel
from .lattice import Cube, PeriodicPotential
from .spectra import ExperimentConfig

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or malformed experiment configuration."""


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
    """A JSON array as the tuple of ``read(entry, where[i])`` over its
    entries; anything else, a bare number or a string included, is
    refused, and so is a nested array unless ``read`` reads one."""
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected an array, got {value!r}")
    return tuple(read(x, f"{where}[{i}]") for i, x in enumerate(value))


def read_record(value, where: str, readers: dict, required=()) -> dict:
    """A JSON object as the dict of ``readers[key](value[key], path)`` over
    its keys, in the order of ``readers``; a non-object, a key that
    ``readers`` lacks and a missing ``required`` key are refused.  ``where``
    is the record's key path, empty for the top level."""
    name = where or "config"
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected an object, got {value!r}")
    unknown = set(value) - set(readers)
    if unknown:
        raise ConfigError(f"{name}: unknown key(s) {sorted(unknown)}")
    missing = set(required) - set(value)
    if missing:
        raise ConfigError(f"{name}: missing key(s) {sorted(missing)}")
    return {key: read(value[key], f"{where}.{key}" if where else key)
            for key, read in readers.items() if key in value}


def construct(where: str, make, *args, paths=None, **kwargs):
    """``make(*args, **kwargs)``, with the TypeError or ValueError by which a
    constructor or check refuses its arguments raised as a ConfigError.  A
    refusal whose first word is a keyword argument's name names its key path
    ``where.name``, or ``paths[name]``: "c must be positive" in ``lifshits``
    reads ``lifshits.c: must be positive``.  Any other refusal names
    ``where``, or "config" at the top level (``where`` empty)."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        name, _, rest = str(exc).partition(" ")
        paths = {key: f"{where}.{key}" if where else key for key in kwargs} | (paths or {})
        if name in paths:
            raise ConfigError(f"{paths[name]}: {rest}") from exc
        raise ConfigError(f"{where or 'config'}: {exc}") from exc


@dataclass(frozen=True)
class _Record:
    """The table of a record: the reader of each key, the keys it requires,
    and ``make``, which builds the record's value from the keys read."""

    readers: dict
    required: tuple = ()
    make: Callable = dict

    def __call__(self, value, where: str):
        return construct(where, self.make, **read_record(value, where, self.readers, self.required))


def _one_of(*choices):
    """The reader accepting only the JSON values ``choices``, each of its own
    type (1 is not true and not 1.0)."""
    def read(value, where):
        if not any(type(value) is type(c) and value == c for c in choices):
            raise ConfigError(f"{where}: expected one of {json.dumps(choices)}, got {value!r}")
        return value
    return read


def _as_is(value, where):
    """The reader of a key whose owner checks its value whole (the
    ``boundary`` by `ExperimentConfig`, ``wegner.mode`` by `WegnerBound`)."""
    return value


def _at_least(low: int):
    """`read_int`, refusing integers below ``low``."""
    def read(value, where):
        if read_int(value, where) < low:
            raise ConfigError(f"{where}: expected at least {low}, got {value}")
        return value
    return read


def _or_null(read):
    """``read``, except that null reads as None."""
    return lambda value, where: None if value is None else read(value, where)


def _energy_range(**energies) -> dict:
    """The ``dos_transform.energies`` record, refused unless hi - lo is
    positive and finite."""
    if not 0 < energies["hi"] - energies["lo"] < math.inf:
        raise ValueError(f"hi must exceed lo by a finite span, "
                         f"got {energies['lo']!r} to {energies['hi']!r}")
    return energies


def _floats_nested(value, where):
    """A float, or an array of them nested to any depth (`read_array`)."""
    if isinstance(value, list):
        return read_array(value, where, _floats_nested)
    return read_float(value, where)


_floats = partial(read_array, read=read_float)

# density type -> the table of the keys beside "type"
_DENSITIES = {
    "uniform": _Record({"lo": read_float, "hi": read_float}, ("lo", "hi"), DensitySpec.uniform),
    "piecewise": _Record({"breakpoints": _floats, "heights": _floats},
                         ("breakpoints", "heights"), DensitySpec),
    "constant": _Record({"value": read_float}, ("value",), ConstantValue),
}
_DENSITY_TYPE = _one_of(*_DENSITIES)


def parse_density(value, where: str) -> Density:
    """A density record, read through the table of its ``type``."""
    kind = _DENSITY_TYPE(value.get("type"), f"{where}.type") if isinstance(value, dict) else None
    table = _DENSITIES.get(kind, _Record({}))
    rec = read_record(value, where, {"type": _DENSITY_TYPE, **table.readers},
                      ("type", *table.required))
    del rec["type"]
    return construct(where, table.make, **rec)


# The document: each key's reader, nested records through their own tables.
# The command sections are read into plain dicts keyed like the document;
# keys they leave out take the defaults of the code that runs them.
_DOCUMENT = _Record({
    "schema_version": _one_of(SCHEMA_VERSION),
    "cube": _Record({"dim": read_int, "side": read_int}, ("dim", "side"), Cube),
    "boundary": _as_is,
    "laplacian_sign": read_int,
    "potential": _Record({"period": partial(read_array, read=read_int),
                          "values": partial(read_array, read=_floats_nested)},
                         ("period", "values"), PeriodicPotential),
    "disorder": _Record({"V": parse_density, "b": parse_density}, ("V", "b"),
                        lambda V, b: DisorderModel(V, b)),
    "realizations": read_int,
    "seed": read_int,
    "grid": _Record({"lo": _or_null(read_float), "hi": _or_null(read_float),
                     "points": read_int}),
    "bin_width": _or_null(read_float),
    "lifshits": _Record({"epsilons": _floats, "lam": read_float, "c": read_float,
                         "alpha": read_float, "realizations": read_int}, ("epsilons", "lam")),
    "wegner": _Record({"mode": _as_is, "lower_constant": read_float,
                       "min_count": _at_least(0)}, ("mode", "lower_constant")),
    "dos_transform": _Record({
        "beta": read_float, "source": parse_density,
        "energies": _Record({"lo": read_float, "hi": read_float, "points": _at_least(1)},
                            ("lo", "hi"), _energy_range),
    }, ("beta", "source")),
}, ("schema_version", "cube", "boundary", "disorder", "realizations", "seed"))
_SECTIONS = ("lifshits", "wegner", "dos_transform")
# the `ExperimentConfig` fields whose key path is not their name
_CONFIG_PATHS = {"grid_lo": "grid", "grid_hi": "grid", "grid_points": "grid.points",
                 "base_seed": "seed"}


def parse_config(doc: dict, seed_override: int | None = None,
                 threads: int = 1) -> tuple[ExperimentConfig, dict]:
    """Parse the top-level document into an ExperimentConfig.

    Returns (config, extras) where extras holds the command sections
    (lifshits / wegner / dos_transform) the document has, already read.
    """
    rec = _DOCUMENT(doc, "")
    del rec["schema_version"]
    extras = {name: rec.pop(name) for name in _SECTIONS if name in rec}
    rec.update((f"grid_{key}", value) for key, value in rec.pop("grid", {}).items())
    seed = rec.pop("seed")
    rec.setdefault("potential", PeriodicPotential.zero(rec["cube"].dim))
    config = construct("", ExperimentConfig, threads=threads, paths=_CONFIG_PATHS,
                       base_seed=seed if seed_override is None else seed_override, **rec)
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
