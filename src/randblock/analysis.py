"""Closed-form transforms and bound verifiers.

Constant-off-diagonal spectral map and DOS transform, the Wegner-type
density bound and its Monte Carlo check, the eigenvalue-derivative sum
identity, the bounded-variation integral inequality probe, and the
band-edge tail probe with double-log exponent fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import DensitySpec, SeedPolicy, bv_norm, sample_iid, support_bounds
from .eigen import any_eigenvalue_below, eigvalsh
from .eigen import min_eig_tridiag  # noqa: F401 -- a trace hook target; see ROADMAP "For the next change to the benchmark"
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
        if self.beta == 0:
            raise ValueError("beta must be nonzero")


def const_b_dos(transform: DosTransform, energy: float) -> float:
    """Block DOS at one energy: |E|/sqrt(E^2-b^2) * [D(x) + D(-x)] with
    x = sqrt(E^2-b^2); zero inside the gap.  At the band edge |E| == |beta|
    exactly, returns +inf as an explicit singularity marker (provided the
    source density does not vanish at 0)."""
    beta = abs(transform.beta)
    e = abs(energy)
    if e < beta:
        return 0.0
    if e == beta:
        weight = transform.source.pdf(0.0)
        return math.inf if weight > 0 else 0.0
    x = math.sqrt(e * e - beta * beta)
    return e / x * (transform.source.pdf(x) + transform.source.pdf(-x))


def const_b_dos_array(transform: DosTransform, energies) -> np.ndarray:
    """`const_b_dos` at every energy of the array ``energies``, in one pass;
    bit for bit the scalar's values, +inf at |E| == |beta| included."""
    beta = abs(transform.beta)
    e = np.abs(np.asarray(energies, dtype=np.float64))
    with np.errstate(invalid="ignore", divide="ignore"):
        x = np.sqrt(e * e - beta * beta)          # nan inside the gap
        dos = e / x * (transform.source.pdf_array(x) + transform.source.pdf_array(-x))
    dos[e < beta] = 0.0
    dos[e == beta] = math.inf if transform.source.pdf(0.0) > 0 else 0.0
    return dos


def dos_transform_measure_check(transform: DosTransform, a: float) -> tuple[float, float]:
    """Both sides of the change-of-variables identity
    ∫_beta^sqrt(a²+beta²) block-DOS dE  =  ∫_{-a}^a D dE0, by quadrature to
    absolute error 1e-10 (both ±E0 land on the positive branch)."""
    from scipy.integrate import quad     # only the quadrature checks need it

    if a <= 0:
        raise ValueError("need a > 0")
    beta = abs(transform.beta)
    top = math.sqrt(a * a + beta * beta)
    lhs, _ = quad(lambda e: const_b_dos(transform, e), beta, top,
                  epsabs=1e-10, limit=400, points=[beta])
    rhs, _ = quad(transform.source.pdf, -a, a, epsabs=1e-10, limit=400,
                  points=[p for p in transform.source.breakpoints if -a < p < a])
    return lhs, rhs


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
            raise ValueError("mode must be 'H' or 'B'")
        if self.lower_constant <= 0 or self.bv <= 0:
            raise ValueError("constants must be positive")


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
# eigenvalue-derivative sum identity

def feynman_hellmann_sum(block: np.ndarray, energy: float, psi: np.ndarray,
                         h: np.ndarray):
    """For a normalized eigenpair (E, Psi) of [[H, b], [b, -H]] with diagonal
    b, evaluate both sides of

        E * sum_j (|psi1(j)|^2 - |psi2(j)|^2) = <psi1,H psi1> + <psi2,H psi2>

    (the left side is E times the summed eigenvalue derivatives in the
    on-site potential).  The pair must hold to a residual of 1e-8 times the
    block's largest entry (at least 1e-8).  Returns (lhs, rhs, min_eig_h).
    """
    block = np.asarray(block, dtype=float)
    psi = np.asarray(psi, dtype=float)
    n = block.shape[0] // 2
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError("eigenvector must be normalized")
    scale = max(1.0, float(np.abs(block).max()))
    if np.linalg.norm(block @ psi - energy * psi) > 1e-8 * scale:
        raise ValueError("(E, Psi) is not an eigenpair to the required residual")
    psi1, psi2 = psi[:n], psi[n:]
    lhs = energy * float(np.sum(psi1**2) - np.sum(psi2**2))
    rhs = float(psi1 @ (h @ psi1) + psi2 @ (h @ psi2))
    min_eig_h = float(eigvalsh(h)[0])
    return lhs, rhs, min_eig_h


def is_simple_eigenvalue(eigenvalues: np.ndarray, index: int, scale: float,
                         gap_tol: float = 1e-10) -> bool:
    """Degenerate eigenvalues break the derivative formula; skip them."""
    ev = np.asarray(eigenvalues)
    gap = np.inf
    if index > 0:
        gap = min(gap, ev[index] - ev[index - 1])
    if index < ev.size - 1:
        gap = min(gap, ev[index + 1] - ev[index])
    return gap >= gap_tol * scale


# ---------------------------------------------------------------------------
# bounded-variation integral inequality

def bv_inequality_probe(f_prime, oscillation: float, phi: DensitySpec) -> tuple[float, float]:
    """lhs = |∫ F'(x) phi(x) dx| by adaptive quadrature (absolute error
    1e-10), rhs = a * ||phi||_BV for a C^1 function F with sup-oscillation a."""
    from scipy.integrate import quad

    lo, hi = support_bounds(phi)
    interior = [p for p in phi.breakpoints if lo < p < hi]
    val, err = quad(lambda x: f_prime(x) * phi.pdf(x), lo, hi,
                    epsabs=1e-10, limit=400, points=interior)
    if err > max(1e-6, 1e-6 * abs(val)):
        raise RuntimeError(f"quadrature did not converge (error estimate {err})")
    return abs(val), oscillation * bv_norm(phi)


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
        if any(e <= 0 for e in eps):
            raise ValueError("epsilons must be positive")
        if self.realizations < 1:
            raise ValueError("need at least one realization per epsilon")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.dim != 1:
            raise ValueError("only the one-dimensional tridiagonal probe is implemented")
        v_lo, _ = support_bounds(self.mu_v)
        if v_lo < self.lam:
            raise ValueError(f"potential support floor {v_lo} below lam={self.lam}")

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
    largest = max(sides, default=0)
    check_memory(_PROBE_TEMPORARIES * 8 * run.realizations * largest,
                 f"the tail probe ({run.realizations} realizations per epsilon, "
                 f"largest side {largest})")
    policy = SeedPolicy(run.base_seed)
    p_hat = np.zeros(len(run.epsilons))
    for k, (eps, side) in enumerate(zip(run.epsilons, sides)):
        # band storage of -lap_N: row 0 the diagonal, row 1 the off-diagonal
        lap = laplacian(Cube(1, side), BoundaryMode.NEUMANN, -1, band=True)
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


def lifshits_exponent_fit(epsilons, p_hat) -> ExponentFit:
    """Least-squares slope of ln|ln P| against ln eps; alpha = -slope.

    Points with P in {0, 1} carry no double-log information and are dropped;
    at least four usable points are required.
    """
    eps = np.asarray(epsilons, dtype=float)
    p = np.asarray(p_hat, dtype=float)
    usable = (p > 0.0) & (p < 1.0)
    if usable.sum() < 4:
        raise ValueError(f"only {int(usable.sum())} usable points, need >= 4")
    x = np.log(eps[usable])
    y = np.log(np.abs(np.log(p[usable])))

    def slope(xs, ys):
        return np.polyfit(xs, ys, 1)[0]

    full = slope(x, y)
    n = x.size
    deleted = np.array([slope(np.delete(x, i), np.delete(y, i)) for i in range(n)])
    jack = np.sqrt((n - 1) / n * np.sum((deleted - deleted.mean()) ** 2))
    return ExponentFit(-full, float(jack), int(n))


# ---------------------------------------------------------------------------
# soft spectrum-inclusion check

def spectrum_inclusion_distances(h_eigenvalues, block_eigenvalues,
                                 pairs) -> np.ndarray:
    """Distances from ±sqrt(E^2 + beta^2) to the nearest block eigenvalue,
    for sampled (E, beta) pairs; a soft check that shrinks with box size."""
    block = np.sort(np.asarray(block_eigenvalues, dtype=float))
    out = []
    for e, beta in pairs:
        for target in (math.sqrt(e * e + beta * beta), -math.sqrt(e * e + beta * beta)):
            i = np.searchsorted(block, target)
            cands = block[max(0, i - 1): i + 1]
            out.append(float(np.abs(cands - target).min()))
    return np.array(out)
