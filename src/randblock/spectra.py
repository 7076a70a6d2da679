"""Disorder-ensemble driver: IDS curves, DOS histograms, gap statistics.

Realizations are independent and reproducible from (base_seed, index); the
driver can run them across a process pool, and aggregation does not depend on
completion order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .disorder import Density, DisorderModel, SeedPolicy, sample_iid, support_bounds
from .eigen import EigenError, Spectrum, counting, eigvalsh
from .lattice import Cube, PeriodicPotential
from .operators import BoundaryMode, assemble, assemble_bracketing, laplacian

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


def base_matrices(config: ExperimentConfig):
    """Deterministic parts: (H Laplacian for D, for N, U0 site values).

    For boundary D/N only the matching Laplacian is relevant; both are
    returned so bracketing assemblies can mix them.
    """
    sign = config.laplacian_sign
    lap_d = laplacian(config.cube, BoundaryMode.DIRICHLET, sign)
    lap_n = laplacian(config.cube, BoundaryMode.NEUMANN, sign)
    u0 = config.potential.on_cube(config.cube)
    return lap_d, lap_n, u0


def build_block(config: ExperimentConfig, v: np.ndarray, b: np.ndarray,
                deterministic=None) -> np.ndarray:
    """Assemble the 2n x 2n block operator for one disorder realization."""
    lap_d, lap_n, u0 = deterministic if deterministic is not None else base_matrices(config)
    h_d = lap_d + np.diag(u0 + v)
    h_n = lap_n + np.diag(u0 + v)
    bmat = np.diag(b)
    x = config.boundary
    if x == "D":
        return assemble(h_d, bmat)
    if x == "N":
        return assemble(h_n, bmat)
    if x == "+":
        return assemble_bracketing(h_d, h_n, bmat)
    return assemble_bracketing(h_n, h_d, bmat)


def realization_fields(config: ExperimentConfig, index: int):
    """The (V, b) sample of one realization, from the seeding contract."""
    policy = SeedPolicy(config.base_seed)
    n = config.cube.n_sites
    v = sample_iid(config.disorder.mu_v, n, policy.generator(index, "V"))
    b = sample_iid(config.disorder.mu_b, n, policy.generator(index, "b"))
    return v, b


def _solve_one(args):
    config, index, deterministic = args
    v, b = realization_fields(config, index)
    m = build_block(config, v, b, deterministic)
    try:
        spec = eigvalsh(m)
    except EigenError:
        return index, None
    return index, spec.eigenvalues


def default_grid(config: ExperimentConfig) -> np.ndarray:
    """Symmetric energy grid covering the a priori spectral inclusion with
    margin 0.5 (Gershgorin bound of the clean part plus disorder supports)."""
    if config.grid_lo is not None:
        return np.linspace(config.grid_lo, config.grid_hi, config.grid_points)
    lap_d, lap_n, u0 = base_matrices(config)
    base = (lap_d if config.boundary in ("D", "+") else lap_n) + np.diag(u0)
    gersh = float(np.abs(base).sum(axis=1).max())
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
    """Sample, build, diagonalize and aggregate R independent realizations."""
    deterministic = base_matrices(config)
    tasks = [(config, r, deterministic) for r in range(config.realizations)]
    if config.threads > 1:
        # workers rebuild nothing: deterministic parts ship with the task
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            raw = list(pool.map(_solve_one, tasks, chunksize=4))
    else:
        raw = [_solve_one(t) for t in tasks]
    raw.sort(key=lambda item: item[0])

    failures = [idx for idx, ev in raw if ev is None]
    if len(failures) > 0.01 * config.realizations:
        raise EigenError(f"{len(failures)} of {config.realizations} eigensolves failed")
    kept = [(idx, ev) for idx, ev in raw if ev is not None]
    ids = [idx for idx, _ in kept]
    spectra = [ev for _, ev in kept]

    n2 = 2 * config.cube.n_sites
    grid = default_grid(config)
    counts = np.array([[np.searchsorted(ev, e, side="right") for e in grid] for ev in spectra])
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


def gap_estimate(result: EnsembleResult) -> tuple[float, np.ndarray]:
    """Empirical inner band edge: the smallest |eigenvalue| seen, plus the
    per-realization list."""
    return float(result.gap_per_realization.min()), result.gap_per_realization


def zero_split_check(spec: Spectrum | np.ndarray, zero_tol: float = 1e-9) -> bool:
    """True iff exactly half of the eigenvalues are negative.

    Meant for gapped configurations; an eigenvalue within ``zero_tol`` of
    zero is a numerical anomaly there and raises ZeroSplitAnomaly.
    """
    ev = spec.eigenvalues if isinstance(spec, Spectrum) else np.asarray(spec)
    if ev.size % 2 != 0:
        raise ValueError("block spectra have even length")
    if np.abs(ev).min() < zero_tol:
        raise ZeroSplitAnomaly("eigenvalue at zero despite gap guarantee")
    neg = int((ev < 0).sum())
    return neg == ev.size // 2


def symmetry_residual(spec: Spectrum | np.ndarray, boundary: str = "N") -> float:
    """max_k |λ_k + λ_{2n+1-k}| for a spectrum of [[H, B], [B, -H]].

    Refused for bracketing boundaries, where the symmetry is not guaranteed.
    """
    if boundary in ("+", "-"):
        raise ValueError("spectral symmetry is not guaranteed for bracketing operators")
    ev = spec.eigenvalues if isinstance(spec, Spectrum) else np.asarray(spec)
    return float(np.abs(ev + ev[::-1]).max())


def with_boundary(config: ExperimentConfig, boundary: str) -> ExperimentConfig:
    """Same experiment under a different finite-volume restriction."""
    return replace(config, boundary=boundary)
