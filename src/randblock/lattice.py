"""Finite cubes of Z^d: coordinates, neighbours, parity, boundary data.

A cube is {0, ..., L-1}^d, given by its dimension and side alone.  Sites are
ordered row-major over coordinates (last coordinate fastest); the linear
index of a site is fixed once here and used for every matrix layout in the
package.  Lattice data comes in one form only, as arrays over every site at
once, from index arithmetic on `np.indices`: `coordinates`, the
nearest-neighbour pairs (`hops`), the missing-neighbour counts
(`deficiencies`) and the parities as floats (`parities`).  The per-site
definitions they are tested against live in the tests, not here.
`PeriodicPotential` is the background potential, and `check_memory` refuses
a computation that would not fit in `memory_limit`.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class MemoryLimitError(ValueError):
    """A computation would need more memory than this process may use."""


_PROC_CGROUP = Path("/proc/self/cgroup")
_CGROUP_ROOT = Path("/sys/fs/cgroup")


def _cgroup_limits():
    """Memory limits of this process's cgroup and of its ancestors, cgroup v1
    or v2, as far as the cgroup file system shows them."""
    try:
        lines = _PROC_CGROUP.read_text().splitlines()
    except OSError:
        return
    for line in lines:
        fields = line.split(":", 2)
        if len(fields) != 3:
            continue
        _, controllers, path = fields
        if controllers == "":                          # v2 unified hierarchy
            root, name = _CGROUP_ROOT, "memory.max"
        elif "memory" in controllers.split(","):
            root, name = _CGROUP_ROOT / "memory", "memory.limit_in_bytes"
        else:
            continue
        parts = [p for p in path.split("/") if p]
        for k in range(len(parts), -1, -1):
            try:
                yield int((root.joinpath(*parts[:k]) / name).read_text())
            except (OSError, ValueError):              # absent, or "max": no limit
                pass


@functools.cache
def memory_limit() -> int | None:
    """Bytes of memory this process may use: the smaller of physical memory
    and its cgroup memory limit, of those that are known; None when neither
    is (no ``os.sysconf``, as on Windows, and no cgroup).  Read once per
    process: every `Cube` checks against it."""
    limits = list(_cgroup_limits())
    try:
        limits.append(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        pass
    return min((b for b in limits if b > 0), default=None)


def check_memory(needed: int, what: str) -> None:
    """Raise MemoryLimitError, naming both numbers, when ``needed`` bytes
    exceed `memory_limit`; called before anything is allocated.  Without a
    known limit nothing is checked."""
    available = memory_limit()
    if available is not None and needed > available:
        # an integer past the float range does not convert; it prints as inf
        gigabytes = needed / 1e9 if needed <= sys.float_info.max else float("inf")
        raise MemoryLimitError(f"{what} needs an estimated {gigabytes:.3g} GB, more than "
                               f"the {available / 1e9:.3g} GB of memory available")


@dataclass(frozen=True)
class Cube:
    """A finite box Λ = {0, ..., L-1}^d ⊂ Z^d with L^d sites.  Where the box
    sits does not matter to the limits the package estimates, so it always
    starts at the origin."""

    dim: int
    side: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if self.side < 1:
            raise ValueError(f"side must be a positive integer, got {self.side}")
        # one float per site is the least any computation on the cube holds
        check_memory(8 * self.side**self.dim,
                     f"a vector on the cube with {self.side}^{self.dim} sites")

    @property
    def n_sites(self) -> int:
        return self.side**self.dim

    @property
    def strides(self) -> tuple[int, ...]:
        """Index distance of one step along each axis, L^(d-1-axis); empty on
        a single-site cube, which has no neighbouring sites."""
        return tuple(self.side ** (self.dim - 1 - axis) for axis in range(self.dim)) \
            if self.side > 1 else ()

    @property
    def half_bandwidth(self) -> int:
        """Largest index distance between neighbouring sites: the stride of
        axis 0, L^(d-1), or 0 on a single-site cube."""
        return self.strides[0] if self.side > 1 else 0


def coordinates(cube: Cube) -> np.ndarray:
    """Site coordinates as a (dim, n_sites) integer array, in linear-index
    order."""
    return np.indices((cube.side,) * cube.dim).reshape(cube.dim, -1)


def hops(cube: Cube) -> list[tuple[int, np.ndarray]]:
    """Nearest-neighbour pairs, one entry per axis: (stride, sites i whose
    neighbour i + stride along that axis lies in the cube)."""
    if cube.side == 1:
        return []
    coords = coordinates(cube)
    return [(stride, np.flatnonzero(coords[axis] < cube.side - 1))
            for axis, stride in enumerate(cube.strides)]


def deficiencies(cube: Cube) -> np.ndarray:
    """Missing-neighbour count of every site: the number of its 2d nearest
    neighbours that lie outside the cube."""
    coords = coordinates(cube)
    return (coords == 0).sum(axis=0) + (coords == cube.side - 1).sum(axis=0)


def parities(cube: Cube) -> np.ndarray:
    """(-1)^(j_1 + ... + j_d) of every site, as floats."""
    return 1.0 - 2.0 * (coordinates(cube).sum(axis=0) % 2)


@dataclass(frozen=True)
class PeriodicPotential:
    """Periodic background potential on Z^d, evaluated componentwise mod p."""

    period: tuple[int, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "period", tuple(int(p) for p in self.period))
        vals = np.asarray(self.values, dtype=np.float64)
        if any(p < 1 for p in self.period):
            raise ValueError(f"period entries must be positive, got {list(self.period)}")
        if vals.shape != self.period:
            raise ValueError(f"values shape {vals.shape} differs from period {self.period}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zero(cls, dim: int) -> "PeriodicPotential":
        return cls(period=(1,) * dim, values=np.zeros((1,) * dim))

    def check_cube(self, cube: Cube) -> None:
        """Refuse ``cube`` unless the period has one entry per axis of it."""
        if len(self.period) != cube.dim:
            raise ValueError(f"potential period {list(self.period)} needs one entry per axis "
                             f"of the {cube.dim}-d cube")

    def on_cube(self, cube: Cube) -> np.ndarray:
        """Potential evaluated at every site, in linear-index order."""
        self.check_cube(cube)
        return self.values[tuple(c % p for c, p in zip(coordinates(cube), self.period))]
