"""Compactly supported disorder densities, i.i.d. sampling, seeding.

Sampling is inverse-CDF over a piecewise-constant density, driven by the
Philox 4x64 counter-based generator from NumPy with one stream per
(realization, field), keyed by `SeedPolicy.key`.  Identical seeds give
bit-identical streams within one build of the package; cross-platform bit
equality of the float arithmetic is not promised.

A Philox stream is fixed by its key alone (counter 0, empty buffer), so
`SeedPolicy.streams` draws many realizations' streams by re-keying one bit
generator instead of building a generator per realization; row r of its draw
is bit for bit the draw of ``Generator(Philox(key=key(indices[r], field)))``.
`sample_iid` draws from such a batch only, one realization's stream being the
one-row batch, and maps it through the inverse CDF at once.  A density is
evaluated on arrays only (`DensitySpec.pdf_array`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-12

# stream tags for the two random fields
_FIELD_TAGS = {"V": 0, "b": 1}
_WORD = 2**64 - 1


@dataclass(frozen=True)
class DensitySpec:
    """Piecewise-constant probability density with compact support.

    ``breakpoints`` are the ascending cell edges (len k+1), ``heights`` the
    density value on each cell (len k).  Must integrate to one.
    """

    breakpoints: tuple[float, ...]
    heights: tuple[float, ...]

    def __post_init__(self):
        bp = tuple(float(x) for x in self.breakpoints)
        hs = tuple(float(h) for h in self.heights)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "heights", hs)
        if len(bp) < 2 or len(hs) != len(bp) - 1:
            raise ValueError("need k+1 breakpoints for k cell heights")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly ascending")
        if any(h < 0 for h in hs):
            raise ValueError("heights must be non-negative")
        total = sum(h * (b2 - b1) for h, b1, b2 in zip(hs, bp, bp[1:]))
        if not abs(total - 1.0) <= _NORM_TOL:      # a NaN total fails too
            raise ValueError(f"density integrates to {total}, not 1")

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "DensitySpec":
        if not hi > lo:
            raise ValueError(f"hi must exceed lo, got {lo!r} to {hi!r}")
        return cls((lo, hi), (1.0 / (hi - lo),))

    def pdf_array(self, x) -> np.ndarray:
        """The density at every point of the array ``x``, in one pass: the
        support is closed, and a breakpoint takes the height of the cell on
        its left; a scalar ``x`` gives a 0-d array."""
        x = np.asarray(x, dtype=np.float64)
        bp = np.asarray(self.breakpoints)
        cell = np.clip(np.searchsorted(bp, x, side="left") - 1, 0, len(self.heights) - 1)
        return np.where((x >= bp[0]) & (x <= bp[-1]), np.asarray(self.heights)[cell], 0.0)


@dataclass(frozen=True)
class ConstantValue:
    """Degenerate point mass; usable wherever only sampling and support
    bounds are needed (e.g. constant off-diagonal b)."""

    value: float


Density = DensitySpec | ConstantValue


def support_bounds(density: Density) -> tuple[float, float]:
    """Exact ends of the support: the start of the first cell of nonzero
    height and the end of the last one, as cells of zero height at either end
    carry no probability; a point mass's value twice."""
    if isinstance(density, ConstantValue):
        return density.value, density.value
    nonzero = [k for k, h in enumerate(density.heights) if h > 0]
    return density.breakpoints[nonzero[0]], density.breakpoints[nonzero[-1] + 1]


def bv_norm(density: DensitySpec) -> float:
    """Total variation of the density on R, including the jumps from and to
    zero at the support edges."""
    if isinstance(density, ConstantValue):
        raise ValueError("point mass has no density of bounded variation")
    levels = (0.0,) + density.heights + (0.0,)
    return sum(abs(b - a) for a, b in zip(levels, levels[1:]))


@dataclass(frozen=True)
class DisorderModel:
    """Laws of the i.i.d. on-site potential V and off-diagonal b,
    independent of each other."""

    mu_v: Density
    mu_b: Density


@dataclass(frozen=True)
class SeedPolicy:
    """Deterministic stream derivation: the Philox key for one field of one
    realization is the 128-bit integer (base_seed << 64) | (2*index + tag),
    tag 0 for V and 1 for b.  Collision-free for index < 2^63."""

    base_seed: int

    def __post_init__(self):
        if not 0 <= self.base_seed < 2**64:
            raise ValueError(f"base_seed must fit in 64 bits, got {self.base_seed}")

    def key(self, realization_index: int, field: str) -> int:
        """The 128-bit Philox key of one field of one realization, whose index
        may be a NumPy integer (`spectra.EnsembleResult.realization_ids`)."""
        if field not in _FIELD_TAGS:
            raise ValueError(f"field must be one of {sorted(_FIELD_TAGS)}")
        if realization_index < 0:
            raise ValueError("realization index must be non-negative")
        return (self.base_seed << 64) | (2 * operator.index(realization_index) + _FIELD_TAGS[field])

    def streams(self, indices, field: str) -> Streams:
        """The streams of ``field`` for several realizations, drawn together."""
        return Streams(tuple(self.key(i, field) for i in indices))


@dataclass(frozen=True)
class Streams:
    """A batch of Philox streams given by their keys; ``random(n)`` returns a
    ``(len(keys), n)`` array whose row r equals
    ``Generator(Philox(key=keys[r])).random(n)``."""

    keys: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.keys)

    def random(self, n: int) -> np.ndarray:
        out = np.empty((len(self.keys), n))
        bitgen = np.random.Philox(key=0)
        draw = np.random.Generator(bitgen)
        # counter 0 and an empty buffer (buffer_pos 4), as in a new Philox(key=k);
        # plain ints, which the state setter reads faster than NumPy arrays
        key = [0, 0]
        state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for row, k in zip(out, self.keys):
            key[0], key[1] = k & _WORD, k >> 64     # Philox's little-endian key words
            bitgen.state = state
            draw.random(out=row)
        return out


def sample_iid(density: Density, n: int, streams: Streams) -> np.ndarray:
    """n i.i.d. draws per stream of ``streams`` via inverse CDF of the
    piecewise-constant density, as a ``(len(streams), n)`` array."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if isinstance(density, ConstantValue):
        return np.full((len(streams), n), density.value)
    u = streams.random(n)
    bp = np.asarray(density.breakpoints)
    hs = np.asarray(density.heights)
    widths = np.diff(bp)
    cum = np.concatenate([[0.0], np.cumsum(hs * widths)])
    cum[-1] = 1.0  # guard round-off at the top
    # zero-height cells carry no probability; searchsorted side='right' skips them
    cell = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(hs) - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(hs[cell] > 0, (u - cum[cell]) / hs[cell], 0.0)
    return bp[cell] + frac
