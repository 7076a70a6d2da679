"""Disorder-ensemble driver: IDS curves, DOS bins, gap statistics.

A run's operator is [[H_top, B], [B, -H_bot]] with H = -Δ_X + U0 + V and
B = diag(b), -Δ_X the positive semidefinite Laplacian (`operators.laplacian`)
of the boundary mode X that `BOUNDARY_MODES` gives each block; `dense_blocks`
builds them dense from that table, for the tests and `verify`.

Realizations are independent and reproducible from (base_seed, index).  A
run is cut into chunks of at most 64 consecutive indices, shared evenly
among the threads that solve (`_chunks`); each chunk is drawn in one batch
(`ensemble_fields`), and its realizations are built one at a time from the
clean part (`CleanPart`, never changed, shared by every thread), solved and
counted on the IDS grid into int64 sums (`_solve_chunk`), on the calling
thread or on a pool of threads whose LAPACK calls release the GIL
(`pool_workers`, `eigen.band_routine`).  Integer sums are exact and chunks are
aggregated in index order, so no output depends on the thread count or cuts.
The DOS is read off the same sums: a bin is m grid cells (E_a, E_b], and
its count is Σk(E_b) − Σk(E_a).  The IDS and the DOS thus depend on the
spectra only through integer counts at fixed energies, and each chunk also
counts the eigenvalues within the solver's error of a grid point, where a
count could differ between drivers or BLAS builds.
Which band is solved is chosen per run (`band_driver`):

- D/N boundaries with a certified floor λ = min U0 + inf supp V with λ > 0
  and λ >= ρ/64 (ρ the Gershgorin bound of H's clean part plus the largest
  |V| and |b|, the bound the default energy grid is built on): the block
  [[H, B], [B, -H]] anticommutes with iσ_y, so its spectrum is ±√spec(M)
  with M = (H - iB)(H + iB), and M >= λ².  LAPACK's ``zhbevd`` solves the
  n x n complex Hermitian band of M (half-bandwidth 2·L^(d-1)), and each
  eigenvalue moves by |δE| ≲ eps·ρ²/λ.
- every other run (bracketing + and -, no certified gap): the block in
  interleaved order (psi1(0), psi2(0), psi1(1), ...) is a 2n x 2n real band
  matrix (`operators.block_band`) that ``dsbevd`` solves.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial

import numpy as np

from .disorder import DisorderModel, SeedPolicy, sample_iid, support_bounds
from .eigen import EigenError, SquaredBand, SymmetricBand, band_routine, eigvalsh
from .lattice import Cube, PeriodicPotential, check_memory
from .operators import (BoundaryMode, assemble_bracketing, band_square, block_band,
                        block_band_bytes, block_half_bandwidth, dense, laplacian)

BOUNDARY_MODES = {   # (top block, bottom block) of [[H_top, B], [B, -H_bot]]
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
    grid_lo: float | None = None
    grid_hi: float | None = None
    grid_points: int = 512
    bin_width: float | None = None
    threads: int = 1

    def __post_init__(self):
        # each refusal starts with the field it names (see `config.construct`)
        choices = tuple(BOUNDARY_MODES)   # a tuple, so an unhashable value is refused too
        if self.boundary not in choices:
            raise ValueError(f"boundary must be one of {choices}, got {self.boundary!r}")
        self.potential.check_cube(self.cube)
        if self.realizations < 1:
            raise ValueError(f"realizations must be at least 1, got {self.realizations}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        SeedPolicy(self.base_seed)    # refuses a seed outside [0, 2^64)
        # |E| <= ρ <= max|U0| + 4d + max|V| + max|b|; the default grid spans ±(ρ + 0.5)
        (v_lo, v_hi), (b_lo, b_hi) = map(support_bounds, (self.disorder.mu_v, self.disorder.mu_b))
        u0 = float(np.abs(self.potential.values).max())
        top = u0 + 4 * self.cube.dim + max(-v_lo, v_hi) + max(-b_lo, b_hi)
        if not np.isfinite(2 * top):
            raise ValueError(f"disorder supports V [{v_lo!r}, {v_hi!r}] and b [{b_lo!r}, {b_hi!r}] "
                             f"with max|U0| {u0!r} bound |E| only by ρ = {top!r}, so the "
                             f"energy span 2ρ overflows")
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
    failures: list[int]               # indices whose solve failed, ascending
    workers: int                      # pool threads that solved it (`pool_workers`), 0 if none
    near_grid_eigenvalues: int        # eigenvalues within the solver's error of a grid point

    @property
    def realization_ids(self) -> np.ndarray:
        """The index of each spectrum: those below R not in ``failures``."""
        return np.delete(np.arange(self.config.realizations, dtype=np.intp), self.failures)


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
    """λ = min U0 + inf supp V.  As the Laplacian term is positive
    semidefinite, H >= λ in every realization."""
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
    """The LAPACK driver of the run's band solves, the one its band type
    names: `SquaredBand`'s ``"zhbevd"`` on the n x n square
    M = (H - iB)(H + iB), `SymmetricBand`'s ``"dsbevd"`` on the 2n x 2n block.

    The square is taken when H_top = H_bot (boundary D or N), so that the
    block's spectrum is symmetric about zero, and the certified floor
    λ = `certified_floor` satisfies λ > 0 and λ >= ρ/64, ρ = ``radius``.
    Then every |E| >= λ (the robust gap), M >= λ², and the squared solve
    loses at most |δE| ≲ eps·ρ²/λ.  Bracketing (+/-) and gapless runs stay
    on ``dsbevd``, and so do runs whose ρ², and so M's entries, overflow.
    """
    floor = certified_floor(config)
    squared = (config.boundary in ("D", "N") and floor > 0
               and floor >= radius / _SQUARE_FLOOR_RATIO and np.isfinite(radius * radius))
    return (SquaredBand if squared else SymmetricBand).driver


def base_matrices(config: ExperimentConfig) -> CleanPart:
    """The clean part of the run's operator, built from only the
    Laplacian(s) the boundary needs, in band storage (no n x n array is
    formed)."""
    cube = config.cube
    modes = BOUNDARY_MODES[config.boundary]
    laps = {mode: laplacian(cube, mode) for mode in dict.fromkeys(modes)}
    top, bot = laps[modes[0]], laps[modes[1]]
    u0 = config.potential.on_cube(cube)
    radius = _spectral_radius(config, top, bot, u0)
    for a in (top, bot, u0):
        a.flags.writeable = False
    return CleanPart(cube, band_driver(config, radius), top, bot, u0, radius)


def dense_blocks(cube: Cube, h: np.ndarray, b: np.ndarray, boundaries) -> list[np.ndarray]:
    """The 2n x 2n [[H_top, B], [B, -H_bot]] of each of ``boundaries``, dense
    and in natural order, H = Laplacian term + diag(h) and B = diag(b): each
    distinct Laplacian band of `BOUNDARY_MODES` made dense (`operators.dense`)
    once, sharing no code with the band builders, whose oracle it is."""
    pairs = [BOUNDARY_MODES[boundary] for boundary in boundaries]
    hs = {mode: dense(laplacian(cube, mode)) + np.diag(h) for mode in dict.fromkeys(sum(pairs, ()))}
    return [assemble_bracketing(hs[top], hs[bot], np.diag(b)) for top, bot in pairs]


def build_block(config: ExperimentConfig, v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`dense_blocks`' one-boundary case: one realization's block, H's
    diagonal U0 + V."""
    h = config.potential.on_cube(config.cube) + v
    return dense_blocks(config.cube, h, b, (config.boundary,))[0]


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
    return tuple(field[0] for field in ensemble_fields(config, (index,)))


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the system
    has one (`os.sched_getaffinity`), else the CPU count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def pool_workers(config: ExperimentConfig) -> int:
    """Worker threads `run_ensemble` starts: ``threads``, capped at the
    usable CPUs (read only when ``threads`` asks for more than one) and at
    the number of realizations, or 0 when that leaves one and the ensemble
    runs on the calling thread."""
    if config.threads < 2:
        return 0
    workers = min(config.threads, usable_cpus(), config.realizations)
    return workers if workers > 1 else 0


def _chunk_count(realizations: int, workers: int) -> int:
    """How many chunks `_chunks` cuts 0..R-1 into, in constant time: the
    fewest of at most `_CHUNK` indices, rounded up to a multiple of the
    thread count.  The longest has ⌈R / count⌉ indices (`peak_bytes`)."""
    threads = max(workers, 1)
    return threads * -(-realizations // (threads * _CHUNK))


def _chunks(realizations: int, workers: int) -> list[range]:
    """0..R-1 cut into `_chunk_count` consecutive ranges, which ``workers``
    threads (the calling one when 0) share evenly: their lengths differ by at
    most one."""
    count = _chunk_count(realizations, workers)
    edges = [realizations * k // count for k in range(count + 1)]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


# grid-length arrays alive as the IDS is formed: the grid, the near-grid windows (two),
# the sums (two), the mean, the variance, its root, the standard error, and ten for the
# variance's lists of Python ints; the DOS bins that follow, at most one per grid cell,
# peak lower: 16 at one bin a cell
_GRID_ARRAYS = 19
_FIXED_BYTES = 1 << 14   # objects of fixed size: a 1-d side-2 cube at R = 1 traced ~9 KB


def peak_bytes(config: ExperimentConfig, workers: int) -> int:
    """Estimated peak memory of `run_ensemble` with ``workers`` worker
    threads (`pool_workers`), in four terms: the clean part, shared by the
    threads; per thread, the larger of the longest chunk's draw (6·C·n floats
    for C realizations: V, and b with `sample_iid`'s temporaries) and its
    solve (2·C·n floats of fields, and two block bands: a realization's and
    LAPACK's copy), plus four grid-length rows (its sums, a count and its
    square); per realization 2n + 1 floats (spectrum, min|E|), an array
    object and two list slots (its own and a growing list's eighth); and
    `_GRID_ARRAYS` grid-length arrays and `_FIXED_BYTES`."""
    n, r = config.cube.n_sites, config.realizations
    chunk = -(-r // _chunk_count(r, workers))
    clean = 8 * n * (2 * config.cube.half_bandwidth + 3)
    draw, solve = 8 * 6 * chunk * n, 8 * 2 * chunk * n + 2 * block_band_bytes(config.cube)
    thread = max(draw, solve) + 8 * 4 * config.grid_points
    per_realization = 8 * (2 * n + 3) + np.empty(0).__sizeof__()
    fixed = 8 * _GRID_ARRAYS * config.grid_points + _FIXED_BYTES
    return clean + thread * max(workers, 1) + r * per_realization + fixed


def _realization_band(clean: CleanPart, v: np.ndarray,
                      b: np.ndarray) -> SquaredBand | SymmetricBand:
    """One realization's band, built whole from ``clean`` with H = Laplacian
    term + diag(u0 + v) and B = diag(b): on ``zhbevd`` the square of
    A = H + iB (`operators.band_square`), else the block in interleaved order
    (`operators.block_band`)."""
    h = clean.u0 + v
    if clean.driver == SquaredBand.driver:
        a = clean.top.astype(np.complex128)
        a[0] += h + 1j * b
        return SquaredBand(band_square(a))
    return SymmetricBand(block_band(clean.cube, clean.top, clean.bot, b, h))


def _grid_tolerance(config: ExperimentConfig, clean: CleanPart) -> float:
    """How far the run's solver may move an eigenvalue (`eigen.eigvalsh`):
    2n·eps·ρ on ``dsbevd`` and 2n·eps·ρ²/λ on ``zhbevd``, ρ = ``clean.radius``
    and λ = `certified_floor`."""
    tol = 2 * config.cube.n_sites * np.finfo(np.float64).eps * clean.radius
    if clean.driver == SquaredBand.driver:
        tol *= clean.radius / certified_floor(config)
    return tol


def _grid_windows(config: ExperimentConfig, clean: CleanPart, grid: np.ndarray) -> np.ndarray:
    """The ascending edges of the windows [g - tol, g + tol) about the grid
    points g, tol = `_grid_tolerance`, one span when they would overlap: an
    eigenvalue lies within tol of a grid point iff an odd number of edges
    are at or below it."""
    tol = _grid_tolerance(config, clean)
    if 2 * tol < np.diff(grid).min():
        return np.column_stack((grid - tol, grid + tol)).ravel()
    return np.array([grid[0] - tol, grid[-1] + tol])


def _solve_chunk(config: ExperimentConfig, clean: CleanPart, grid: np.ndarray,
                 windows: np.ndarray,
                 indices: range) -> tuple[list[np.ndarray], list[int], np.ndarray, int]:
    """Draw, build and solve the realizations ``indices``: the spectra that
    solved, in index order, the indices that failed, the int64 sums (Σk,
    Σk²) over the solved of their count k of eigenvalues at or below ``grid``,
    and how many of their eigenvalues lie in the near-grid ``windows``
    (`_grid_windows`)."""
    spectra, failed, moments, near = [], [], np.zeros((2, grid.size), np.int64), 0
    for index, v, b in zip(indices, *ensemble_fields(config, indices)):
        try:
            ev = eigvalsh(_realization_band(clean, v, b))
        except EigenError:
            failed.append(index)
            continue
        spectra.append(ev)
        k = ev.searchsorted(grid, "right")
        moments += k, k * k
        near += int(np.count_nonzero(windows.searchsorted(ev, "right") & 1))
    return spectra, failed, moments, near


def _ids_from_moments(moments: np.ndarray, r: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The IDS mean Σk/(size·r) over ``r`` spectra of ``size`` eigenvalues and
    its standard error, from the sums (Σk, Σk²) of their counts k
    (`_solve_chunk`), 0 when r = 1; r·Σk² − (Σk)² overflows int64 once r·size
    passes ~3·10⁹, so the variance is formed in Python integers."""
    d = max(r * (r - 1), 1)
    variance = np.fromiter(((r * q - s * s) / d for s, q in zip(*moments.tolist())),
                           np.float64, moments.shape[1])
    return moments[0] / (size * r), np.sqrt(variance) / (size * np.sqrt(r))


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


def run_ensemble(config: ExperimentConfig) -> EnsembleResult:
    """Sample, build, diagonalize and aggregate R independent realizations.

    Raises MemoryLimitError before allocating when `peak_bytes` exceeds
    `lattice.memory_limit`.  The DOS bins are m grid cells each, the last one
    what remains; m is ``bin_width``, or else the Freedman–Diaconis width
    2·IQR/(R'·2n)^(1/3) of the IDS's quartiles (the first grid points where
    Σk reaches a quarter and three quarters of R'·2n), in grid spacings,
    rounded and kept within [1, points − 1].  Bin (E_a, E_b] counts
    Σk(E_b) − Σk(E_a): eigenvalues outside the grid fall in no bin."""
    workers = pool_workers(config)
    check_memory(peak_bytes(config, workers),
                 f"the ensemble on a {config.cube.dim}-d cube of side {config.cube.side} "
                 f"(half-bandwidth {block_half_bandwidth(config.cube)}, {config.realizations} "
                 f"realizations, {max(workers, 1)} thread(s))")
    clean = base_matrices(config)
    grid = default_grid(config, clean)
    solve = partial(_solve_chunk, config, clean, grid, _grid_windows(config, clean, grid))
    spectra, failures, moments, near = [], [], np.zeros((2, grid.size), np.int64), 0
    # the LAPACK routine is built, and its ABI probed, before any thread
    # would build it; a routine that fails the probe fails the run, not
    # each realization
    band_routine(clean.driver)
    with ExitStack() as stack:
        solve_all = map
        if workers:     # the pool's import is paid only by runs that start one
            from concurrent.futures import ThreadPoolExecutor
            solve_all = stack.enter_context(ThreadPoolExecutor(workers)).map
        for solved, failed, sums, close in solve_all(solve, _chunks(config.realizations, workers)):
            spectra += solved    # in index order, as they arrive
            failures += failed
            moments += sums
            near += close
    if len(failures) > 0.01 * config.realizations:
        raise EigenError(f"{len(failures)} of {config.realizations} eigensolves failed")
    size, points = 2 * config.cube.n_sites, grid.size
    total, sums = len(spectra) * size, moments[0]
    ids_mean, ids_stderr = _ids_from_moments(moments, len(spectra), size)

    width = config.bin_width
    if width is None:
        q1, q3 = grid[np.minimum((4 * sums).searchsorted([total, 3 * total]), points - 1)]
        width = 2.0 * float(q3 - q1) / total ** (1.0 / 3.0)
    # in Python floats, whose overflow is inf; the span is positive (`ExperimentConfig`)
    cells = max(1, round(min(width * (points - 1) / float(grid[-1] - grid[0]), points - 1)))
    edges = np.append(np.arange(0, points - 1, cells), points - 1)
    counts = np.diff(sums[edges])
    lo, hi = grid[edges[:-1]], grid[edges[1:]]
    widths = hi - lo
    density = counts / (total * widths)
    p = counts / total
    stderr = np.sqrt(p * (1.0 - p) * total) / (total * widths)
    centers = 0.5 * (lo + hi)

    gaps = np.fromiter((np.abs(ev).min() for ev in spectra), np.float64, len(spectra))
    half_bandwidth = (2 * config.cube.half_bandwidth if clean.driver == SquaredBand.driver
                      else block_half_bandwidth(config.cube))
    return EnsembleResult(config, spectra, grid, ids_mean, ids_stderr,
                          centers, counts, density, stderr, gaps, clean.driver,
                          half_bandwidth, failures, workers, near)


def zero_split_check(ev: np.ndarray) -> bool:
    """True iff exactly half of the eigenvalues are negative.

    Meant for gapped configurations; an eigenvalue within 1e-9 of zero is a
    numerical anomaly there and raises ZeroSplitAnomaly.
    """
    ev = np.asarray(ev)
    if ev.size % 2 != 0:
        raise ValueError(f"a block spectrum has even length, got {ev.size}")
    if np.abs(ev).min() < 1e-9:
        raise ZeroSplitAnomaly("eigenvalue at zero despite gap guarantee")
    return int((ev < 0).sum()) == ev.size // 2


def symmetry_residual(ev: np.ndarray) -> float:
    """max_k |λ_k + λ_{2n+1-k}| for a spectrum of [[H, B], [B, -H]]; the
    bracketing operators [[H_top, B], [B, -H_bot]] have no such symmetry."""
    ev = np.asarray(ev)
    return float(np.abs(ev + ev[::-1]).max())
