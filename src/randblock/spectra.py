"""Disorder-ensemble driver: IDS curves, DOS histograms, gap statistics.

Realizations are independent and reproducible from (base_seed, index); the
driver can run them across a process pool, and aggregation does not depend on
completion order.  The clean part of the operator (`CleanPart`) is built once
per run and never changed; each realization builds its own band from it
(`realization_band`).  Which band is solved is chosen per run (`band_driver`):

- D/N boundaries with ``laplacian_sign`` -1 and a certified floor
  λ = min U0 + inf supp V with λ > 0 and λ >= ρ/64 (ρ the Gershgorin bound
  of H's clean part plus the largest |V| and |b|, the bound the default
  energy grid is built on): the block [[H, B], [B, -H]] anticommutes with
  iσ_y, so its spectrum is ±√spec(M) with M = (H - iB)(H + iB), and
  M >= λ².  LAPACK's ``zhbevd`` solves the n x n complex Hermitian band of M
  (half-bandwidth 2·L^(d-1)), and each eigenvalue moves by
  |δE| ≲ eps·ρ²/λ.
- every other run (bracketing + and -, no certified gap, ``laplacian_sign``
  +1): the block in interleaved order (psi1(0), psi2(0), psi1(1), ...) is a
  2n x 2n real band matrix (`operators.block_band`) that ``dsbevd`` solves.

`build_block` assembles the dense block from the dense Laplacians, with none
of the band code: it is the tests' oracle for both paths.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .disorder import Density, DisorderModel, SeedPolicy, sample_iid, support_bounds
from .eigen import EigenError, SquaredBand, SymmetricBand, eigvalsh
from .lattice import Cube, PeriodicPotential, check_memory
from .operators import (BoundaryMode, assemble_bracketing, band_square, block_band,
                        block_band_bytes, block_half_bandwidth, laplacian)

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
    driver: str                       # LAPACK driver of the band solves (`band_driver`)
    half_bandwidth: int               # of the band storage that driver solved
    failures: list[int] = field(default_factory=list)


_BOUNDARY_MODES = {   # (top block, bottom block) of [[H_top, B], [B, -H_bot]]
    "D": (BoundaryMode.DIRICHLET, BoundaryMode.DIRICHLET),
    "N": (BoundaryMode.NEUMANN, BoundaryMode.NEUMANN),
    "+": (BoundaryMode.DIRICHLET, BoundaryMode.NEUMANN),
    "-": (BoundaryMode.NEUMANN, BoundaryMode.DIRICHLET),
}


@dataclass(frozen=True)
class CleanPart:
    """The part of one experiment's operator that is the same in every
    realization; its arrays are read-only.

    ``driver`` is the LAPACK driver every realization is solved with
    (`band_driver`).  ``top`` and ``bot`` are the band storages of the
    Laplacian terms of H_top and H_bot, ``u0`` the background potential and
    ``radius`` the bound ρ that `band_driver` and `default_grid` read.
    """

    cube: Cube
    driver: str
    top: np.ndarray
    bot: np.ndarray
    u0: np.ndarray
    radius: float


def certified_floor(config: ExperimentConfig) -> float:
    """λ = min U0 + inf supp V.  With the positive semidefinite Laplacian
    term (``laplacian_sign`` -1), H >= λ in every realization."""
    v_lo, _ = support_bounds(config.disorder.mu_v)
    return float(config.potential.on_cube(config.cube).min()) + v_lo


def _spectral_radius(config: ExperimentConfig, lap_top: np.ndarray, u0: np.ndarray) -> float:
    """ρ: the Gershgorin bound of H_top's clean part (band storage
    ``lap_top`` of its Laplacian term, plus ``u0``) plus the largest |V| and
    |b| the supports allow."""
    h_top = lap_top.copy()
    h_top[0] += u0
    gersh = float(_abs_row_sums(h_top).max())
    v_lo, v_hi = support_bounds(config.disorder.mu_v)
    b_lo, b_hi = support_bounds(config.disorder.mu_b)
    return gersh + max(abs(v_lo), abs(v_hi)) + max(abs(b_lo), abs(b_hi))


# the squared solve moves an eigenvalue by about eps·ρ²/λ (`eigen.eigvalsh`);
# λ >= ρ/64 keeps that within a few dozen times the direct solve's eps·ρ
_SQUARE_FLOOR_RATIO = 64


def band_driver(config: ExperimentConfig, radius: float) -> str:
    """The LAPACK driver of the run's band solves: ``"zhbevd"`` on the n x n
    square M = (H - iB)(H + iB), ``"dsbevd"`` on the 2n x 2n block.

    The square is taken when H_top = H_bot (boundary D or N), so that the
    block's spectrum is symmetric about zero, the Laplacian term is positive
    semidefinite (``laplacian_sign`` -1), and the certified floor
    λ = `certified_floor` satisfies λ > 0 and λ >= ρ/64, ρ = ``radius``.
    Then every |E| >= λ (the robust gap), M >= λ², and the squared solve
    loses at most |δE| ≲ eps·ρ²/λ.  Bracketing (+/-), gapless and
    ``laplacian_sign`` +1 runs stay on ``dsbevd``.
    """
    floor = certified_floor(config)
    squared = (config.boundary in ("D", "N") and config.laplacian_sign == -1
               and floor > 0 and floor >= radius / _SQUARE_FLOOR_RATIO)
    return "zhbevd" if squared else "dsbevd"


def base_matrices(config: ExperimentConfig) -> CleanPart:
    """The clean part of the run's operator, built from only the
    Laplacian(s) the boundary needs, in band storage (no n x n array is
    formed)."""
    cube = config.cube
    modes = _BOUNDARY_MODES[config.boundary]
    laps = {mode: laplacian(cube, mode, config.laplacian_sign, band=True)
            for mode in dict.fromkeys(modes)}
    top, bot = laps[modes[0]], laps[modes[1]]
    u0 = config.potential.on_cube(cube)
    radius = _spectral_radius(config, top, u0)
    for a in (top, bot, u0):
        a.flags.writeable = False
    return CleanPart(cube, band_driver(config, radius), top, bot, u0, radius)


def realization_band(clean: CleanPart, v: np.ndarray,
                     b: np.ndarray) -> SymmetricBand | SquaredBand:
    """One realization's operator in a band storage of its own, built whole
    from ``clean`` with H = Laplacian term + diag(u0 + v) and B = diag(b):
    on the ``zhbevd`` path the square M = conj(A)·A of A = H + iB
    (`operators.band_square`), on the ``dsbevd`` path the block in
    interleaved order (`operators.block_band`)."""
    h = clean.u0 + v
    if clean.driver == "zhbevd":
        a = clean.top.astype(np.complex128)
        a[0] += h + 1j * b
        return SquaredBand(band_square(a))
    return SymmetricBand(block_band(clean.cube, clean.top, clean.bot, b, h))


def build_block(config: ExperimentConfig, v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 2n x 2n block operator of one disorder realization, dense and in
    natural order [[H_top, B], [B, -H_bot]], H = Laplacian term + diag(U0 + V):
    assembled from the dense Laplacians, independently of the band code."""
    cube = config.cube
    h = np.diag(config.potential.on_cube(cube) + v)
    top, bot = (laplacian(cube, mode, config.laplacian_sign) + h
                for mode in _BOUNDARY_MODES[config.boundary])
    return assemble_bracketing(top, bot, np.diag(b))


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
    """Estimated peak memory of `run_ensemble`.  This process holds the clean
    part (two Laplacian bands and u0), the spectra and their pooled copy, and
    the IDS counts with two temporaries of their size.  Each process that
    solves holds one realization's band and the copy LAPACK solves (the
    square's complex band of n columns takes at most the block band's bytes,
    and A = H + iB, freed before the solve, half that).  A process pool adds,
    per worker, the clean part of its current chunk and of two pickled
    chunks queued for it."""
    workers = pool_workers(config)
    n = config.cube.n_sites
    band = block_band_bytes(config.cube)
    clean = 8 * n * (2 * config.cube.half_bandwidth + 3)
    aggregates = 8 * config.realizations * (4 * n + 3 * config.grid_points)
    return clean * (1 + 3 * workers) + 2 * band * max(workers, 1) + aggregates


def _solve_one(config: ExperimentConfig, clean: CleanPart, index: int):
    try:
        return eigvalsh(realization_band(clean, *realization_fields(config, index)))
    except EigenError:
        return None


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
    margin 0.5 (the Gershgorin bound ρ of H_top's clean part plus the
    disorder supports, ``clean.radius``), unless the config gives the grid."""
    if config.grid_lo is not None:
        return np.linspace(config.grid_lo, config.grid_hi, config.grid_points)
    r = clean.radius + 0.5
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

    failures = [r for r, ev in enumerate(raw) if ev is None]
    if len(failures) > 0.01 * config.realizations:
        raise EigenError(f"{len(failures)} of {config.realizations} eigensolves failed")
    ids = [r for r, ev in enumerate(raw) if ev is not None]
    spectra = [ev for ev in raw if ev is not None]

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
    cube = config.cube
    half_bandwidth = (2 * cube.half_bandwidth if clean.driver == "zhbevd"
                      else block_half_bandwidth(cube))
    return EnsembleResult(config, spectra, ids, grid, ids_mean, ids_stderr,
                          centers, hist, density, stderr, gaps, clean.driver,
                          half_bandwidth, failures)


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
