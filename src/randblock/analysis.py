"""Closed-form transforms and bound verifiers.

The constant off-diagonal spectral map (`const_b_map`) and DOS transform
(`DosTransform`, `const_b_dos_array`), the Wegner-type density bound and
its check against an ensemble's DOS (`WegnerBound`, `wegner_check`), and
the band-edge tail probe (`LifshitsRun`, `lifshits_probe`) with its
double-log exponent fit (`lifshits_exponent_fit`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import DensitySpec, SeedPolicy, sample_iid, support_bounds
from .eigen import any_eigenvalue_below
from .eigen import min_eig_tridiag  # noqa: F401 -- a trace hook target; see ROADMAP item 9
from .lattice import Cube, check_memory
from .operators import BoundaryMode, laplacian
from .spectra import EnsembleResult, certified_floor


# ---------------------------------------------------------------------------
# constant off-diagonal block: spectral map and DOS transform

def const_b_map(ev_h, beta: float) -> np.ndarray:
    """Sorted multiset {±sqrt(E^2 + beta^2) : E in spec(H)}, from the
    eigenvalues ``ev_h`` of H."""
    mapped = np.sqrt(np.asarray(ev_h, dtype=float)**2 + beta**2)
    return np.sort(np.concatenate([-mapped, mapped]))


@dataclass(frozen=True)
class DosTransform:
    """Density of states of H (analytic spec or empirical callable) pushed
    through the constant-b block structure."""

    source: DensitySpec
    beta: float

    def __post_init__(self):
        if not isinstance(self.source, DensitySpec):
            raise ValueError("source must have a density")
        if self.beta == 0:
            raise ValueError("beta must be nonzero")


def const_b_dos_array(transform: DosTransform, energies) -> np.ndarray:
    """Block DOS at every energy of the array ``energies``, in one pass:
    |E|/sqrt(E^2-b^2) * [D(x) + D(-x)] with x = sqrt(E^2-b^2), zero inside
    the gap.  At the band edge |E| == |beta| exactly it is +inf, an explicit
    singularity marker (0 where the source density vanishes at 0)."""
    beta = abs(transform.beta)
    e = np.abs(np.asarray(energies, dtype=np.float64))
    # x from |E| and beta scaled by a power of two to below 2, so that no
    # square overflows; the scaling is exact, and x has the bits of the
    # unscaled formula wherever that one neither overflows nor underflows
    scale = math.ldexp(1.0, math.frexp(max(beta, float(e.max(initial=0.0))))[1] - 1)
    es, bs = e / scale, beta / scale
    with np.errstate(invalid="ignore", divide="ignore"):
        x = scale * np.sqrt(es * es - bs * bs)          # nan inside the gap
        dos = e / x * (transform.source.pdf_array(x) + transform.source.pdf_array(-x))
    dos[e < beta] = 0.0
    dos[e == beta] = math.inf if transform.source.pdf_array(0.0) > 0 else 0.0
    return dos


# ---------------------------------------------------------------------------
# Wegner-type bound on the density of states

@dataclass(frozen=True)
class WegnerBound:
    """Parameters of the density bound 2(|E|+1)/c * bv, where c is the
    positivity constant of H (mode 'H') or of b (mode 'B')."""

    mode: str                 # 'H' or 'B'
    lower_constant: float     # lambda resp. beta
    bv: float

    def __post_init__(self):
        if self.mode not in ("H", "B"):
            raise ValueError(f"mode must be 'H' or 'B', got {self.mode!r}")
        if not self.lower_constant > 0:
            raise ValueError(f"lower_constant must be positive, got {self.lower_constant}")
        if not self.bv > 0:
            raise ValueError(f"bv must be positive, got {self.bv}")


def wegner_bound(bound: WegnerBound, energy: float) -> float:
    return 2.0 * (abs(energy) + 1.0) / bound.lower_constant * bound.bv


@dataclass
class WegnerReport:
    checked_bins: int
    violations: list[tuple[float, float, float]]  # (bin center, density, allowed)
    min_count: int                                # least count of a checked bin

    @property
    def ok(self) -> bool:
        return not self.violations


def certify_wegner_hypothesis(config, bound: WegnerBound) -> None:
    """Refuse the check unless the support bounds certify the mode's
    positivity hypothesis at finite volume."""
    if bound.mode == "H":
        if config.laplacian_sign != -1:
            raise ValueError("mode 'H' needs the positive semidefinite Laplacian convention")
        floor = certified_floor(config)
        if floor < bound.lower_constant:
            raise ValueError(
                f"potential support floor {floor} does not certify H >= {bound.lower_constant}")
    else:
        b_lo, _ = support_bounds(config.disorder.mu_b)
        if b_lo < bound.lower_constant:
            raise ValueError(
                f"b support floor {b_lo} does not certify b >= {bound.lower_constant}")


def wegner_check(result: EnsembleResult, bound: WegnerBound,
                 min_count: int = 100) -> WegnerReport:
    """Check every well-populated DOS bin against the density bound with a
    3-standard-error statistical slack."""
    certify_wegner_hypothesis(result.config, bound)
    violations = []
    checked = 0
    for center, count, density, stderr in zip(result.dos_centers, result.dos_counts,
                                              result.dos_density, result.dos_stderr):
        if count < min_count:
            continue
        checked += 1
        allowed = wegner_bound(bound, center) + 3.0 * stderr
        if density > allowed:
            violations.append((float(center), float(density), float(allowed)))
    return WegnerReport(checked, violations, min_count)


# ---------------------------------------------------------------------------
# band-edge tail probe and exponent fit

@dataclass(frozen=True)
class LifshitsRun:
    """Ground-state tail probe for H_N = -lap_N + V in one dimension.

    For each epsilon the box side is L = ceil(c * eps^(-alpha/dim)) and the
    probability P[min spec <= lam + eps] is estimated over R realizations.
    """

    epsilons: tuple[float, ...]
    mu_v: DensitySpec
    lam: float                       # certified floor of the potential
    base_seed: int
    realizations: int = 2000
    c: float = 4.0
    alpha: float = 0.5               # target exponent, d/2 by default
    dim: int = 1

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", eps)
        if not eps:
            raise ValueError("epsilons must not be empty")
        if any(e <= 0 for e in eps):
            raise ValueError(f"epsilons must be positive, got {list(eps)}")
        if self.realizations < 1:
            raise ValueError(f"realizations must be at least 1, got {self.realizations}")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.dim != 1:
            raise ValueError("only the one-dimensional tridiagonal probe is implemented")
        if not isinstance(self.mu_v, DensitySpec):
            raise ValueError("V must have a density")
        v_lo, _ = support_bounds(self.mu_v)
        if v_lo < self.lam:
            raise ValueError(f"lam must not exceed the potential support floor {v_lo}, "
                             f"got {self.lam}")
        try:
            self.side_for(min(eps))   # the largest side
        except OverflowError:
            raise ValueError(f"the box side c * eps^(-alpha/dim) at eps {min(eps)} "
                             f"is not finite (c {self.c}, alpha {self.alpha})") from None

    def side_for(self, eps: float) -> int:
        return max(2, math.ceil(self.c * eps ** (-self.alpha / self.dim)))


@dataclass
class LifshitsTable:
    epsilons: np.ndarray
    sides: np.ndarray
    realizations: int
    p_hat: np.ndarray
    stderr: np.ndarray


# (R, L) float arrays alive at once while a batch is drawn: the uniform draw,
# the cell indices and inverse-CDF intermediates of `sample_iid`, the
# potentials and the diagonals
_PROBE_TEMPORARIES = 8


def lifshits_probe(run: LifshitsRun) -> LifshitsTable:
    """Estimate P[min spec(H_N) <= lam + eps] per epsilon, batched over
    realizations: one Sturm pass per epsilon tests each tridiagonal
    realization for an eigenvalue below lam + eps (`any_eigenvalue_below`).
    Raises MemoryLimitError before the first draw when the largest batch
    would not fit in memory."""
    sides = [run.side_for(eps) for eps in run.epsilons]
    largest = max(sides)
    check_memory(_PROBE_TEMPORARIES * 8 * run.realizations * largest,
                 f"the tail probe ({run.realizations} realizations per epsilon, "
                 f"largest side {largest})")
    policy = SeedPolicy(run.base_seed)
    p_hat = np.zeros(len(run.epsilons))
    for k, (eps, side) in enumerate(zip(run.epsilons, sides)):
        # band storage of -lap_N: row 0 the diagonal, row 1 the off-diagonal
        lap = laplacian(Cube(1, side), BoundaryMode.NEUMANN, -1)
        first = k * run.realizations
        v = sample_iid(run.mu_v, side,
                       policy.streams(range(first, first + run.realizations), "V"))
        below = any_eigenvalue_below(lap[0] + v, lap[1, :-1], run.lam + eps)
        p_hat[k] = np.count_nonzero(below) / run.realizations
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / run.realizations)
    return LifshitsTable(np.array(run.epsilons), np.array(sides, dtype=int), run.realizations,
                         p_hat, stderr)


@dataclass
class ExponentFit:
    alpha_hat: float
    stderr: float       # point-deletion jackknife
    used_points: int


def double_log_coordinates(epsilons, p_hat) -> tuple[np.ndarray, np.ndarray]:
    """The fit coordinates (ln eps, ln|ln P|) of each point; ln|ln P| is NaN
    where P is 0 or 1, which carry no double-log information."""
    p = np.asarray(p_hat, dtype=float)
    usable = (p > 0.0) & (p < 1.0)
    lnln = np.full(p.shape, np.nan)
    lnln[usable] = np.log(np.abs(np.log(p[usable])))
    return np.log(np.asarray(epsilons, dtype=float)), lnln


def lifshits_exponent_fit(epsilons, p_hat) -> ExponentFit:
    """Least-squares slope of ln|ln P| against ln eps; alpha = -slope.

    Points with P in {0, 1} are dropped (`double_log_coordinates`); at
    least four usable points are required.
    """
    x, y = double_log_coordinates(epsilons, p_hat)
    usable = ~np.isnan(y)
    if usable.sum() < 4:
        raise ValueError(f"only {int(usable.sum())} usable points, need >= 4")
    x, y = x[usable], y[usable]

    def slope(xs, ys):
        return np.polyfit(xs, ys, 1)[0]

    full = slope(x, y)
    n = x.size
    deleted = np.array([slope(np.delete(x, i), np.delete(y, i)) for i in range(n)])
    jack = np.sqrt((n - 1) / n * np.sum((deleted - deleted.mean()) ** 2))
    return ExponentFit(-full, float(jack), int(n))
