"""Disorder-ensemble driver: IDS curves, DOS histograms, gap statistics.

Realizations are independent and reproducible from (base_seed, index); the
driver can run them across a process pool, and aggregation does not depend on
completion order.  The block operator is held in interleaved order
(psi1(0), psi2(0), psi1(1), ...), where it is a band matrix
(`operators.block_band`) that LAPACK's ``dsbevd`` solves: the clean part is
built once per run, and each realization only rewrites the diagonal and the b
entries of that band.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .disorder import Density, DisorderModel, SeedPolicy, sample_iid, support_bounds
from .eigen import EigenError, SymmetricBand, eigvalsh
from .lattice import Cube, PeriodicPotential, check_memory
from .operators import (BoundaryMode, block_band, block_band_bytes, block_half_bandwidth,
                        laplacian, write_block_diagonals)

BOUNDARY_CHOICES = ("D", "N", "+", "-")


class ZeroSplitAnomaly(RuntimeError):
    """An eigenvalue sits numerically at zero although a gap is guaranteed."""


@dataclass(frozen=True)
class ExperimentConfig:
    cube: Cube
    boundary: str                     # one of D, N, +, -
    disorder: DisorderModel
    potential: PeriodicPotential
    realizations: int
    base_seed: int
    laplacian_sign: int = -1          # -1: H = -lap + U0 + V (default), +1: H = lap + U0 + V
    grid_lo: float | None = None
    grid_hi: float | None = None
    grid_points: int = 512
    bin_width: float | None = None
    threads: int = 1

    def __post_init__(self):
        if self.boundary not in BOUNDARY_CHOICES:
            raise ValueError(f"boundary must be one of {BOUNDARY_CHOICES}")
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        SeedPolicy(self.base_seed)    # refuses a seed outside [0, 2^64)
        if self.laplacian_sign not in (1, -1):
            raise ValueError("laplacian_sign must be +1 or -1")
        if self.grid_points < 2:
            raise ValueError("need at least two grid points")
        if (self.grid_lo is None) != (self.grid_hi is None):
            raise ValueError("grid_lo and grid_hi must be given together")
        if self.grid_lo is not None and not self.grid_hi > self.grid_lo:
            raise ValueError("grid_hi must exceed grid_lo")
        if self.bin_width is not None and not (np.isfinite(self.bin_width) and self.bin_width > 0):
            raise ValueError("bin_width must be a positive finite number")


@dataclass
class EnsembleResult:
    config: ExperimentConfig
    spectra: list[np.ndarray]         # sorted eigenvalues per surviving realization
    realization_ids: list[int]
    grid: np.ndarray
    ids_mean: np.ndarray
    ids_stderr: np.ndarray
    dos_centers: np.ndarray
    dos_counts: np.ndarray
    dos_density: np.ndarray
    dos_stderr: np.ndarray
    gap_per_realization: np.ndarray   # min |eigenvalue| per realization
    failures: list[int] = field(default_factory=list)


_BOUNDARY_MODES = {   # (top block, bottom block) of [[H_top, B], [B, -H_bot]]
    "D": (BoundaryMode.DIRICHLET, BoundaryMode.DIRICHLET),
    "N": (BoundaryMode.NEUMANN, BoundaryMode.NEUMANN),
    "+": (BoundaryMode.DIRICHLET, BoundaryMode.NEUMANN),
    "-": (BoundaryMode.NEUMANN, BoundaryMode.DIRICHLET),
}


@dataclass
class CleanPart:
    """The realization-independent part of one experiment's block operator.

    ``band`` is the interleaved lower band storage of the block operator
    (`operators.block_band`); its rows 0 and 1 (the diagonal and b) are
    rewritten by every realization.  ``top`` and ``bot`` are the diagonals of
    the Laplacian terms of H_top and H_bot, ``u0`` the background potential.
    """

    band: np.ndarray
    top: np.ndarray
    bot: np.ndarray
    u0: np.ndarray


def base_matrices(config: ExperimentConfig) -> CleanPart:
    """The clean part of the block operator, built from only the Laplacian(s)
    the boundary needs, in band storage (no n x n array is formed)."""
    modes = _BOUNDARY_MODES[config.boundary]
    laps = {mode: laplacian(config.cube, mode, config.laplacian_sign, band=True)
            for mode in dict.fromkeys(modes)}
    top, bot = laps[modes[0]], laps[modes[1]]
    band = block_band(config.cube, top, bot, np.zeros(config.cube.n_sites))
    return CleanPart(band, top[0].copy(), bot[0].copy(), config.potential.on_cube(config.cube))


def realization_band(clean: CleanPart, v: np.ndarray, b: np.ndarray) -> SymmetricBand:
    """One realization's block operator: its diagonal and b are written into
    the clean band in place, and the result shares that storage."""
    h = clean.u0 + v
    write_block_diagonals(clean.band, clean.top + h, clean.bot + h, b)
    return SymmetricBand(clean.band)


def build_block(config: ExperimentConfig, v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 2n x 2n block operator of one disorder realization, dense and in
    natural order [[H_top, B], [B, -H_bot]]; derived from the band that the
    ensemble solves."""
    dense = realization_band(base_matrices(config), v, b).to_dense()
    n2 = dense.shape[0]
    natural = np.concatenate([np.arange(0, n2, 2), np.arange(1, n2, 2)])
    return dense[np.ix_(natural, natural)]


def realization_fields(config: ExperimentConfig, index: int):
    """The (V, b) sample of one realization, from the seeding contract."""
    policy = SeedPolicy(config.base_seed)
    n = config.cube.n_sites
    v = sample_iid(config.disorder.mu_v, n, policy.generator(index, "V"))
    b = sample_iid(config.disorder.mu_b, n, policy.generator(index, "b"))
    return v, b


def pool_workers(config: ExperimentConfig) -> int:
    """Worker processes `run_ensemble` starts: ``threads``, capped at the CPU
    count, or 0 when that leaves one and the ensemble runs in this process."""
    workers = min(config.threads, os.cpu_count() or 1)
    return workers if workers > 1 else 0


def peak_bytes(config: ExperimentConfig) -> int:
    """Estimated peak memory of `run_ensemble`: the clean band and the copy
    ``dsbevd`` solves in each process, the spectra and their pooled copy, and
    the IDS counts with two temporaries of their size.  A process pool adds,
    per worker, the clean band of its current chunk and two pickled chunks
    queued for it."""
    workers = pool_workers(config)
    band = block_band_bytes(config.cube)
    aggregates = 8 * config.realizations * (4 * config.cube.n_sites + 3 * config.grid_points)
    return band * (1 + 3 * workers + max(workers, 1)) + aggregates


def _solve_one(config: ExperimentConfig, clean: CleanPart, index: int):
    v, b = realization_fields(config, index)
    try:
        return index, eigvalsh(realization_band(clean, v, b))
    except EigenError:
        return index, None


def _abs_row_sums(lower: np.ndarray) -> np.ndarray:
    """Row sums of |A| for a symmetric A in lower band storage."""
    n = lower.shape[1]
    sums = np.abs(lower[0])
    for k in range(1, lower.shape[0]):
        a = np.abs(lower[k, :n - k])
        sums[k:] += a
        sums[:n - k] += a
    return sums


def default_grid(config: ExperimentConfig, clean: CleanPart) -> np.ndarray:
    """Symmetric energy grid covering the a priori spectral inclusion with
    margin 0.5 (Gershgorin bound of the run's clean part plus disorder
    supports), unless the config gives the grid."""
    if config.grid_lo is not None:
        return np.linspace(config.grid_lo, config.grid_hi, config.grid_points)
    # H_top's band: its Laplacian diagonal plus U0, then the even rows on even columns
    h_top = np.vstack([clean.top + clean.u0, clean.band[2::2, 0::2]])
    gersh = float(_abs_row_sums(h_top).max())
    v_lo, v_hi = support_bounds(config.disorder.mu_v)
    b_lo, b_hi = support_bounds(config.disorder.mu_b)
    r = gersh + max(abs(v_lo), abs(v_hi)) + max(abs(b_lo), abs(b_hi)) + 0.5
    return np.linspace(-r, r, config.grid_points)


def _freedman_diaconis(pooled: np.ndarray) -> float:
    q75, q25 = np.percentile(pooled, [75, 25])
    iqr = q75 - q25
    width = 2.0 * iqr / len(pooled) ** (1.0 / 3.0)
    if width <= 0:
        width = (pooled.max() - pooled.min()) / 64 or 1.0
    return float(width)


def run_ensemble(config: ExperimentConfig) -> EnsembleResult:
    """Sample, build, diagonalize and aggregate R independent realizations.

    Raises MemoryLimitError before allocating when `peak_bytes` exceeds
    `lattice.memory_limit`."""
    workers = pool_workers(config)
    check_memory(peak_bytes(config),
                 f"the ensemble on a {config.cube.dim}-d cube of side {config.cube.side} "
                 f"(half-bandwidth {block_half_bandwidth(config.cube)}, {config.realizations} "
                 f"realizations, {max(workers, 1)} process(es))")
    clean = base_matrices(config)
    solve = partial(_solve_one, config, clean)
    indices = range(config.realizations)
    if workers:
        # workers rebuild nothing: the clean part ships with each chunk
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(solve, indices, chunksize=4))
    else:
        raw = [solve(r) for r in indices]
    raw.sort(key=lambda item: item[0])

    failures = [idx for idx, ev in raw if ev is None]
    if len(failures) > 0.01 * config.realizations:
        raise EigenError(f"{len(failures)} of {config.realizations} eigensolves failed")
    kept = [(idx, ev) for idx, ev in raw if ev is not None]
    ids = [idx for idx, _ in kept]
    spectra = [ev for _, ev in kept]

    n2 = 2 * config.cube.n_sites
    grid = default_grid(config, clean)
    counts = np.array([np.searchsorted(ev, grid, side="right") for ev in spectra])
    frac = counts / n2
    ids_mean = frac.mean(axis=0)
    ids_stderr = frac.std(axis=0, ddof=1) / np.sqrt(len(spectra)) if len(spectra) > 1 \
        else np.zeros_like(ids_mean)

    pooled = np.concatenate(spectra)
    width = config.bin_width or _freedman_diaconis(pooled)
    lo, hi = pooled.min(), pooled.max()
    nbins = max(1, int(np.ceil((hi - lo) / width)))
    edges = lo + width * np.arange(nbins + 1)
    hist, _ = np.histogram(pooled, bins=edges)
    total = pooled.size
    density = hist / (total * width)
    p = hist / total
    stderr = np.sqrt(p * (1.0 - p) * total) / (total * width)
    centers = 0.5 * (edges[:-1] + edges[1:])

    gaps = np.array([np.abs(ev).min() for ev in spectra])
    return EnsembleResult(config, spectra, ids, grid, ids_mean, ids_stderr,
                          centers, hist, density, stderr, gaps, failures)


def zero_split_check(ev: np.ndarray) -> bool:
    """True iff exactly half of the eigenvalues are negative.

    Meant for gapped configurations; an eigenvalue within 1e-9 of zero is a
    numerical anomaly there and raises ZeroSplitAnomaly.
    """
    ev = np.asarray(ev)
    if ev.size % 2 != 0:
        raise ValueError("block spectra have even length")
    if np.abs(ev).min() < 1e-9:
        raise ZeroSplitAnomaly("eigenvalue at zero despite gap guarantee")
    neg = int((ev < 0).sum())
    return neg == ev.size // 2


def symmetry_residual(ev: np.ndarray, boundary: str = "N") -> float:
    """max_k |λ_k + λ_{2n+1-k}| for a spectrum of [[H, B], [B, -H]].

    Refused for bracketing boundaries, where the symmetry is not guaranteed.
    """
    if boundary in ("+", "-"):
        raise ValueError("spectral symmetry is not guaranteed for bracketing operators")
    ev = np.asarray(ev)
    return float(np.abs(ev + ev[::-1]).max())
