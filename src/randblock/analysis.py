"""Closed-form transforms and bound verifiers.

The constant off-diagonal spectral map (`const_b_map`) and DOS transform
(`DosTransform`, `const_b_dos_array`), the Wegner-type density bound the
laws certify (`certify_wegner_hypothesis`, `WegnerBound`) and its check
against an ensemble's DOS (`wegner_check`, which returns the bound at
every bin, the bounds ``randblock wegner`` writes), and the band-edge tail
probe (`LifshitsRun`, `lifshits_probe`) with its double-log exponent fit
(`lifshits_exponent_fit`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import DensitySpec, SeedPolicy, bv_norm, sample_iid, support_bounds
from .eigen import any_eigenvalue_below
from .eigen import min_eig_tridiag  # noqa: F401 -- a trace hook target; see ROADMAP item 1
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


def wegner_bound(bound: WegnerBound, energy):
    """The density bound at ``energy``, a float or an array of them."""
    return 2.0 * (np.abs(energy) + 1.0) / bound.lower_constant * bound.bv


@dataclass
class WegnerReport:
    checked_bins: int
    violations: list[tuple[float, float, float]]  # (bin center, density, allowed)
    min_count: int                                # least count of a checked bin
    bounds: np.ndarray                            # `wegner_bound` at every bin center

    @property
    def ok(self) -> bool:
        return not self.violations


def certify_wegner_hypothesis(config, mode: str) -> WegnerBound:
    """The bound the laws certify in ``mode``: c the positivity constant the
    supports prove, min U0 + inf supp V (`certified_floor`) in mode 'H' and
    inf supp b in mode 'B', and bv the BV norm of that mode's law.  Refused
    for a floor <= 0, and by `WegnerBound` for any other mode."""
    disorder = config.disorder
    if mode == "H":
        floor, law, what = certified_floor(config), disorder.mu_v, "min U0 + inf supp V"
    elif mode == "B":
        floor, law, what = support_bounds(disorder.mu_b)[0], disorder.mu_b, "inf supp b"
    else:
        return WegnerBound(mode, None, None)
    if not floor > 0:
        raise ValueError(f"mode {mode!r} needs a positive floor, but {what} is {floor!r}")
    return WegnerBound(mode, floor, bv_norm(law))


def wegner_check(result: EnsembleResult, bound: WegnerBound,
                 min_count: int = 100) -> WegnerReport:
    """Check every DOS bin with at least ``min_count`` eigenvalues against
    the density bound with a 3-standard-error statistical slack, in one
    pass over the bins; the report holds the bound at every bin center,
    checked or not.  Refused unless ``bound`` is at most as tight as the one
    the laws certify (`certify_wegner_hypothesis`)."""
    certified = certify_wegner_hypothesis(result.config, bound.mode)
    if bound.lower_constant > certified.lower_constant or bound.bv < certified.bv:
        raise ValueError(f"the laws do not certify {bound}: they give c <= "
                         f"{certified.lower_constant} and bv >= {certified.bv}")
    bounds = wegner_bound(bound, result.dos_centers)
    allowed = bounds + 3.0 * result.dos_stderr
    checked = result.dos_counts >= min_count
    bad = checked & (result.dos_density > allowed)
    violations = list(zip(result.dos_centers[bad].tolist(), result.dos_density[bad].tolist(),
                          allowed[bad].tolist()))
    return WegnerReport(int(checked.sum()), violations, min_count, bounds)


# ---------------------------------------------------------------------------
# band-edge tail probe and exponent fit

@dataclass(frozen=True)
class LifshitsRun:
    """Ground-state tail probe for H_N = -lap_N + V in one dimension.

    For each epsilon the box side is L = ceil(c * eps^(-1/2)), the law
    eps^(-alpha/dim) at the Lifshits exponent alpha = dim/2 (`alpha`), and
    the probability P[min spec <= lam + eps] is estimated over R realizations.
    """

    epsilons: tuple[float, ...]
    mu_v: DensitySpec
    lam: float                       # certified floor of the potential
    base_seed: int
    realizations: int = 2000
    c: float = 4.0
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
        if self.dim != 1:
            raise ValueError(f"dim must be 1, got {self.dim}: only the one-dimensional "
                             "tridiagonal probe is implemented")
        if not isinstance(self.mu_v, DensitySpec):
            raise ValueError("V must have a density")
        v_lo, _ = support_bounds(self.mu_v)
        if v_lo < self.lam:
            raise ValueError(f"lam must not exceed the potential support floor {v_lo}, "
                             f"got {self.lam}")
        try:
            self.side_for(min(eps))   # the largest side
        except OverflowError:
            raise ValueError(f"the box side c * eps^(-1/2) at eps {min(eps)} "
                             f"is not finite (c {self.c})") from None

    @property
    def alpha(self) -> float:
        """The Lifshits exponent d/2 that the box sides follow."""
        return self.dim / 2

    def side_for(self, eps: float) -> int:
        return max(2, math.ceil(self.c * eps ** -0.5))


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
        lap = laplacian(Cube(1, side), BoundaryMode.NEUMANN)
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
