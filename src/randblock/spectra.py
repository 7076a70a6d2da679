"""Disorder-ensemble driver: IDS curves, DOS histograms, gap statistics.

Realizations are independent and reproducible from (base_seed, index).  A
run is cut into chunks of at most 64 consecutive indices, shared evenly
among the processes that solve (`_chunks`); each chunk is drawn in one batch
(`ensemble_fields`) and solved in index order (`_solve_chunk`).  The chunks
run in this process, or over a process pool when ``threads`` asks for one
(`pool_workers`), and are aggregated in index order, so no output depends on
the worker count or on where the chunks are cut.  The clean part of the
operator (`CleanPart`) is built once per run and never changed; each
realization builds its own band from it (`realization_band`).  Which band is
solved is chosen per run (`band_driver`):

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

Both drivers come from SciPy's compiled LAPACK wrappers, which
`eigen.flapack` loads without running ``scipy.linalg``'s package init, the
larger part of a short run's start-up time and memory.

`build_block` assembles the dense block in natural order from the Laplacian
bands made dense (`operators.dense`); it shares no code with `block_band` or
`band_square`, and is the tests' oracle for both paths.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .disorder import DisorderModel, SeedPolicy, sample_iid, support_bounds
from .eigen import EigenError, SquaredBand, SymmetricBand, eigvalsh, flapack
from .lattice import Cube, PeriodicPotential, check_memory
from .operators import (BoundaryMode, assemble_bracketing, band_square, block_band,
                        block_band_bytes, block_half_bandwidth, dense, laplacian)

_BOUNDARY_MODES = {   # (top block, bottom block) of [[H_top, B], [B, -H_bot]]
    "D": (BoundaryMode.DIRICHLET, BoundaryMode.DIRICHLET),
    "N": (BoundaryMode.NEUMANN, BoundaryMode.NEUMANN),
    "+": (BoundaryMode.DIRICHLET, BoundaryMode.NEUMANN),
    "-": (BoundaryMode.NEUMANN, BoundaryMode.DIRICHLET),
}


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
        # each refusal starts with the field it names (see `config.construct`)
        choices = tuple(_BOUNDARY_MODES)   # a tuple, so an unhashable value is refused too
        if self.boundary not in choices:
            raise ValueError(f"boundary must be one of {choices}, got {self.boundary!r}")
        self.potential.check_cube(self.cube)
        if self.realizations < 1:
            raise ValueError(f"realizations must be at least 1, got {self.realizations}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        SeedPolicy(self.base_seed)    # refuses a seed outside [0, 2^64)
        if self.laplacian_sign not in (1, -1):
            raise ValueError(f"laplacian_sign must be +1 or -1, got {self.laplacian_sign}")
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be at least 2, got {self.grid_points}")
        if (self.grid_lo is None) != (self.grid_hi is None):
            raise ValueError("grid_lo needs grid_hi" if self.grid_hi is None
                             else "grid_hi needs grid_lo")
        if self.grid_lo is not None and not 0 < self.grid_hi - self.grid_lo < np.inf:
            raise ValueError(f"grid_hi must exceed grid_lo by a finite span, "
                             f"got {self.grid_lo} to {self.grid_hi}")
        if self.bin_width is not None and not (np.isfinite(self.bin_width) and self.bin_width > 0):
            raise ValueError(f"bin_width must be a positive finite number, got {self.bin_width}")


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


def _spectral_radius(config: ExperimentConfig, top: np.ndarray, bot: np.ndarray,
                     u0: np.ndarray) -> float:
    """ρ: the larger Gershgorin bound of the clean parts of H_top and H_bot
    (band storages ``top`` and ``bot`` of their Laplacian terms, plus
    ``u0``) plus the largest |V| and |b| the supports allow."""
    gersh = max(float(_abs_row_sums(lap, u0).max())
                for lap in ((top,) if top is bot else (top, bot)))
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
    laps = {mode: laplacian(cube, mode, config.laplacian_sign)
            for mode in dict.fromkeys(modes)}
    top, bot = laps[modes[0]], laps[modes[1]]
    u0 = config.potential.on_cube(cube)
    radius = _spectral_radius(config, top, bot, u0)
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
    assembled from the Laplacian bands made dense, independently of the
    block and square band code."""
    cube = config.cube
    h = np.diag(config.potential.on_cube(cube) + v)
    top, bot = (dense(laplacian(cube, mode, config.laplacian_sign)) + h
                for mode in _BOUNDARY_MODES[config.boundary])
    return assemble_bracketing(top, bot, np.diag(b))


# the most realizations drawn in one batch (`ensemble_fields`) and solved as
# one unit of work; the per-row cost of a batch levels off from ~16 rows
_CHUNK = 64


def ensemble_fields(config: ExperimentConfig, indices) -> tuple[np.ndarray, np.ndarray]:
    """The (V, b) samples of the realizations ``indices``, one row each, from
    the seeding contract: one batch of streams (`SeedPolicy.streams`) and one
    `sample_iid` per field."""
    policy = SeedPolicy(config.base_seed)
    n = config.cube.n_sites
    v = sample_iid(config.disorder.mu_v, n, policy.streams(indices, "V"))
    b = sample_iid(config.disorder.mu_b, n, policy.streams(indices, "b"))
    return v, b


def realization_fields(config: ExperimentConfig, index: int) -> tuple[np.ndarray, np.ndarray]:
    """The (V, b) sample of one realization: `ensemble_fields`' one-row case."""
    v, b = ensemble_fields(config, (index,))
    return v[0], b[0]


def pool_workers(config: ExperimentConfig) -> int:
    """Worker processes `run_ensemble` starts: ``threads``, capped at the CPU
    count and at the number of realizations, or 0 when that leaves one and
    the ensemble runs in this process."""
    workers = min(config.threads, os.cpu_count() or 1, config.realizations)
    return workers if workers > 1 else 0


def _chunks(realizations: int, workers: int) -> list[range]:
    """0..R-1 cut into consecutive ranges of at most `_CHUNK` indices, as few
    as ``workers`` processes (this one when 0) can share evenly: their count
    is a multiple of the process count and their lengths differ by at most
    one."""
    procs = max(workers, 1)
    count = procs * -(-realizations // (procs * _CHUNK))
    edges = [realizations * k // count for k in range(count + 1)]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def peak_bytes(config: ExperimentConfig, workers: int) -> int:
    """Estimated peak memory of `run_ensemble` with ``workers`` worker
    processes (`pool_workers`).  This process holds the clean
    part (two Laplacian bands and u0), the spectra and their pooled copy, and
    the IDS counts with two temporaries of their size.  Each process that
    solves holds one chunk of C realizations (C the longest chunk's length):
    while it is drawn, V and `sample_iid`'s temporaries for b, at most
    6·C·n floats (one field's draw peaked at 4.3·C·n on a piecewise
    density), and while it is solved, its fields and spectra (4·C·n floats),
    one realization's band and the copy LAPACK solves (the square's complex
    band of n columns takes at most the block band's bytes, and A = H + iB,
    freed before the solve, half that); the estimate adds the 6·C·n floats
    to the two bands.  A process pool adds, per worker, the clean part of
    its current chunk and of two pickled chunks queued for it."""
    n = config.cube.n_sites
    band = block_band_bytes(config.cube)
    clean = 8 * n * (2 * config.cube.half_bandwidth + 3)
    chunk = 8 * 6 * max(map(len, _chunks(config.realizations, workers))) * n
    aggregates = 8 * config.realizations * (4 * n + 3 * config.grid_points)
    return clean * (1 + 3 * workers) + (2 * band + chunk) * max(workers, 1) + aggregates


def _solve_chunk(config: ExperimentConfig, clean: CleanPart,
                 indices: range) -> tuple[list[np.ndarray], list[int]]:
    """Draw, build and solve the realizations ``indices``: the spectra that
    solved, in index order, and the indices whose solve failed."""
    spectra, failed = [], []
    for index, v, b in zip(indices, *ensemble_fields(config, indices)):
        try:
            spectra.append(eigvalsh(realization_band(clean, v, b)))
        except EigenError:
            failed.append(index)
    return spectra, failed


def _abs_row_sums(lower: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """Row sums of |A| for the symmetric A whose lower band storage is
    ``lower`` with ``diagonal`` added to its diagonal."""
    n = lower.shape[1]
    sums = np.abs(lower[0] + diagonal)
    for k in range(1, lower.shape[0]):
        a = np.abs(lower[k, :n - k])
        sums[k:] += a
        sums[:n - k] += a
    return sums


def default_grid(config: ExperimentConfig, clean: CleanPart) -> np.ndarray:
    """Symmetric energy grid covering the a priori spectral inclusion with
    margin 0.5 (the larger Gershgorin bound ρ of the clean parts of H_top and
    H_bot plus the disorder supports, ``clean.radius``), unless the config
    gives the grid."""
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


# float arrays of the bin count's length alive at once: the edges, the counts,
# the density, the proportions, the standard errors and the centers, and
# `np.histogram`'s temporaries
_HISTOGRAM_ARRAYS = 8


def _histogram_bins(span: float, width: float) -> float:
    """The bin count max(1, ⌈span/width⌉) of a DOS histogram, as a float (inf
    for a subnormal width); MemoryLimitError when its arrays would not fit."""
    with np.errstate(over="ignore"):
        nbins = max(1.0, np.ceil(span / width))
    check_memory(8 * _HISTOGRAM_ARRAYS * (nbins + 1),
                 f"the DOS histogram ({nbins:.3g} bins of width {width!r})")
    return nbins


def run_ensemble(config: ExperimentConfig) -> EnsembleResult:
    """Sample, build, diagonalize and aggregate R independent realizations.

    Raises MemoryLimitError before allocating when `peak_bytes` exceeds
    `lattice.memory_limit`, and when the DOS histogram's arrays do: before
    binning, and for a given ``bin_width`` already before the first solve
    (every |E| <= ρ, so there are at most ⌈2ρ/width⌉ bins)."""
    workers = pool_workers(config)
    check_memory(peak_bytes(config, workers),
                 f"the ensemble on a {config.cube.dim}-d cube of side {config.cube.side} "
                 f"(half-bandwidth {block_half_bandwidth(config.cube)}, {config.realizations} "
                 f"realizations, {max(workers, 1)} process(es))")
    clean = base_matrices(config)
    if config.bin_width is not None:
        _histogram_bins(2 * clean.radius, config.bin_width)
    solve = partial(_solve_chunk, config, clean)
    chunks = _chunks(config.realizations, workers)
    if workers:
        # the pool's import (multiprocessing, socket, logging) is paid only
        # by runs that start one
        from concurrent.futures import ProcessPoolExecutor

        # workers rebuild nothing: the clean part ships with each chunk, and
        # forked workers inherit the loaded LAPACK wrappers (`eigen.flapack`)
        # instead of each loading them
        flapack()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(solve, chunks))
    else:
        done = list(map(solve, chunks))

    spectra = [ev for chunk, _ in done for ev in chunk]
    failures = [r for _, failed in done for r in failed]
    if len(failures) > 0.01 * config.realizations:
        raise EigenError(f"{len(failures)} of {config.realizations} eigensolves failed")
    ids = sorted(set(range(config.realizations)).difference(failures))

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
    nbins = _histogram_bins(hi - lo, width)
    edges = lo + width * np.arange(int(nbins) + 1)
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


def symmetry_residual(ev: np.ndarray) -> float:
    """max_k |λ_k + λ_{2n+1-k}| for a spectrum of [[H, B], [B, -H]]; the
    bracketing operators [[H_top, B], [B, -H_bot]] have no such symmetry."""
    ev = np.asarray(ev)
    return float(np.abs(ev + ev[::-1]).max())
