"""Reference code that only the tests use.

Each function here checks or restates something that the package computes
another way, and nothing in ``src`` calls it:

- the constant off-diagonal block's DOS at one energy (`const_b_dos`, the
  scalar twin of `analysis.const_b_dos_array`) and the change-of-variables
  measure identity it satisfies (`dos_transform_measure_check`);
- the eigenvalue-derivative (Feynman–Hellmann) sum identity
  (`feynman_hellmann_sum`, `is_simple_eigenvalue`);
- the bounded-variation integral inequality (`bv_inequality_probe`) and the
  soft spectrum-inclusion distances (`spectrum_inclusion_distances`);
- the unitary conjugations U1, U2 and U3 of the block operator
  (`transform_u1`, `transform_u2`, `transform_u3_square`);
- the lattice one site at a time, the definitions the array helpers of
  `lattice` and `operators.laplacian` are tested against: `sites`,
  `contains`, `index_of`, `site_of`, `neighbours`, `boundary_deficiency`
  (twin of `lattice.deficiencies`), `parity` (twin of `lattice.parities`)
  and `potential_at` (twin of `PeriodicPotential.on_cube`);
- a density at one point (`pdf`, twin of `DensitySpec.pdf_array`) and its
  distribution function (`cdf`), and the generator of one realization's
  stream (`generator`, the one-row case of `SeedPolicy.streams`);
- the IDS mean and standard error from the matrix of every spectrum's
  counts on the grid (`ids_from_counts`, twin of the integer moments that
  `spectra.run_ensemble` sums per chunk);
- the in-house symmetric eigensolver kernels in pure NumPy: Householder
  reduction to tridiagonal form (`tridiagonalize`), implicitly shifted QL
  iteration (`tql`) and the Sturm-sequence count (`sturm_count`), the
  independent references for the LAPACK solves, the batched Sturm pass
  `eigen.any_eigenvalue_below` and the bisection `eigen.min_eig_tridiag`;
- SciPy's f2py LAPACK wrappers (`flapack`), the oracle of the band solve's
  ctypes call into NumPy's LAPACK (`eigen.band_routine`).
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from randblock.analysis import DosTransform
from randblock.disorder import DensitySpec, SeedPolicy, bv_norm, support_bounds
from randblock.eigen import eigvalsh
from randblock.lattice import Cube, PeriodicPotential

_EPS = np.finfo(np.float64).eps


# ---------------------------------------------------------------------------
# constant off-diagonal block: DOS at one energy and its measure identity

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
        weight = pdf(transform.source, 0.0)
        return math.inf if weight > 0 else 0.0
    x = math.sqrt(e * e - beta * beta)
    return e / x * (pdf(transform.source, x) + pdf(transform.source, -x))


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
    rhs, _ = quad(lambda x: pdf(transform.source, x), -a, a, epsabs=1e-10, limit=400,
                  points=[p for p in transform.source.breakpoints if -a < p < a])
    return lhs, rhs


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
# bounded-variation integral inequality and soft spectrum inclusion

def bv_inequality_probe(f_prime, oscillation: float, phi: DensitySpec) -> tuple[float, float]:
    """lhs = |∫ F'(x) phi(x) dx| by adaptive quadrature (absolute error
    1e-10), rhs = a * ||phi||_BV for a C^1 function F with sup-oscillation a."""
    from scipy.integrate import quad

    lo, hi = support_bounds(phi)
    interior = [p for p in phi.breakpoints if lo < p < hi]
    val, err = quad(lambda x: f_prime(x) * pdf(phi, x), lo, hi,
                    epsabs=1e-10, limit=400, points=interior)
    if err > max(1e-6, 1e-6 * abs(val)):
        raise RuntimeError(f"quadrature did not converge (error estimate {err})")
    return abs(val), oscillation * bv_norm(phi)


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


# ---------------------------------------------------------------------------
# unitary conjugations of the block operator

def transform_u1(m: np.ndarray) -> np.ndarray:
    """Conjugation by (1/sqrt2) [[1, 1], [1, -1]]: swaps diagonal and
    off-diagonal blocks of [[H, B], [B, -H]]."""
    n = len(m) // 2
    eye = np.eye(n)
    u = np.block([[eye, eye], [eye, -eye]]) / np.sqrt(2.0)
    return u @ m @ u.T


def transform_u2(m: np.ndarray) -> np.ndarray:
    """Particle-hole conjugation by [[0, 1], [-1, 0]]; negates the block
    operator when it has the [[H, B], [B, -H]] shape."""
    n = len(m) // 2
    eye = np.eye(n)
    u = np.block([[np.zeros((n, n)), eye], [-eye, np.zeros((n, n))]])
    return u @ m @ u.T


def transform_u3_square(m: np.ndarray) -> np.ndarray:
    """Conjugation of M^2 by (1/sqrt2) [[1, i], [i, 1]].

    For M = [[H, B], [B, -H]] the result is block-diagonal with blocks
    H^2 + B^2 -/+ i[H, B].  Returns a complex matrix.
    """
    n = len(m) // 2
    eye = np.eye(n)
    u = np.block([[eye, 1j * eye], [1j * eye, eye]]) / np.sqrt(2.0)
    m2 = np.asarray(m, dtype=np.float64) @ np.asarray(m, dtype=np.float64)
    return u @ m2 @ u.conj().T


# ---------------------------------------------------------------------------
# one site at a time: the definitions behind the lattice array helpers

def contains(cube: Cube, j) -> bool:
    return all(0 <= c < cube.side for c in j)


def index_of(cube: Cube, j) -> int:
    """Row-major linear index of site j."""
    if not contains(cube, j):
        raise ValueError(f"site {tuple(j)} outside cube")
    idx = 0
    for c in j:
        idx = idx * cube.side + c
    return idx


def site_of(cube: Cube, idx: int):
    """Inverse of index_of."""
    if not 0 <= idx < cube.n_sites:
        raise ValueError(f"index {idx} out of range")
    coords = []
    for _ in range(cube.dim):
        coords.append(idx % cube.side)
        idx //= cube.side
    return tuple(reversed(coords))


def sites(cube: Cube) -> list[tuple[int, ...]]:
    """All sites of the cube in row-major order."""
    return [tuple(j) for j in product(range(cube.side), repeat=cube.dim)]


def neighbours(cube: Cube, j) -> list[tuple[int, ...]]:
    """Nearest neighbours of j that lie inside the cube."""
    if not contains(cube, j):
        raise ValueError(f"site {tuple(j)} outside cube")
    out = []
    for axis in range(cube.dim):
        for step in (-1, 1):
            k = list(j)
            k[axis] += step
            if contains(cube, k):
                out.append(tuple(k))
    return out


def boundary_deficiency(cube: Cube, j) -> int:
    """Number of nearest neighbours of j missing from the cube (0..2d)."""
    if not contains(cube, j):
        raise ValueError(f"site {tuple(j)} outside cube")
    return 2 * cube.dim - len(neighbours(cube, j))


def parity(j) -> int:
    """(-1)^(j_1 + ... + j_d)."""
    return 1 if sum(j) % 2 == 0 else -1


def potential_at(potential: PeriodicPotential, j) -> float:
    idx = tuple(c % p for c, p in zip(j, potential.period))
    return float(potential.values[idx])


# ---------------------------------------------------------------------------
# one value at a time: the density, its distribution function, one stream

def pdf(density: DensitySpec, x: float) -> float:
    bp = density.breakpoints
    if x < bp[0] or x > bp[-1]:
        return 0.0
    for h, b1, b2 in zip(density.heights, bp, bp[1:]):
        if b1 <= x <= b2:
            return h
    return 0.0


def cdf(density: DensitySpec, x: float) -> float:
    acc = 0.0
    for h, b1, b2 in zip(density.heights, density.breakpoints, density.breakpoints[1:]):
        if x <= b1:
            break
        acc += h * (min(x, b2) - b1)
    return min(acc, 1.0)


def generator(policy: SeedPolicy, realization_index: int, field: str) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=policy.key(realization_index, field)))


def ids_from_counts(spectra, grid) -> tuple[np.ndarray, np.ndarray]:
    """The IDS mean over the spectra of k/2n, k a spectrum's count of
    eigenvalues at or below each grid point, and its standard error
    std(ddof=1)/√R, from the R x len(grid) matrix of counts."""
    counts = np.array([np.searchsorted(ev, grid, side="right") for ev in spectra])
    frac = counts / len(spectra[0])
    mean = frac.mean(axis=0)
    if len(spectra) < 2:
        return mean, np.zeros_like(mean)
    return mean, frac.std(axis=0, ddof=1) / np.sqrt(len(spectra))


# ---------------------------------------------------------------------------
# in-house eigensolver kernels

def tridiagonalize(a, want_q):
    """Reduce a real symmetric matrix to tridiagonal form T = Q^T A Q.

    Returns (d, e, q) where d is the diagonal, e the subdiagonal (length
    n-1) and q the accumulated orthogonal transform (None unless requested).
    The input matrix is not modified.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    reflectors = []
    for k in range(n - 2):
        x = a[k + 1:, k]
        xnorm = np.sqrt(np.dot(x, x))
        if xnorm == 0.0:
            continue
        alpha = -math.copysign(xnorm, x[0]) if x[0] != 0.0 else -xnorm
        v = x.copy()
        v[0] -= alpha
        vnorm = np.sqrt(np.dot(v, v))
        if vnorm == 0.0:
            continue
        v /= vnorm
        # two-sided update of the trailing block: P A22 P with P = 1 - 2vv^T
        a22 = a[k + 1:, k + 1:]
        w = a22 @ v
        tau = np.dot(v, w)
        a22 -= 2.0 * (np.outer(v, w) + np.outer(w, v)) - 4.0 * tau * np.outer(v, v)
        a[k + 1:, k] = 0.0
        a[k, k + 1:] = 0.0
        a[k + 1, k] = alpha
        a[k, k + 1] = alpha
        if want_q:
            reflectors.append((k, v))
    d = np.diagonal(a).copy()
    e = np.diagonal(a, -1).copy() if n > 1 else np.zeros(0)
    q = None
    if want_q:
        q = np.eye(n)
        # Q = P_0 P_1 ... P_{n-3}; apply in reverse onto the identity
        for k, v in reversed(reflectors):
            q[k + 1:, :] -= 2.0 * np.outer(v, v @ q[k + 1:, :])
    return d, e, q


def tql(d, e, q, max_sweeps=50):
    """Eigenvalues (and optionally vectors) of a symmetric tridiagonal matrix.

    Implicitly shifted QL iteration.  ``d`` (diagonal, length n) and ``e``
    (subdiagonal, length n-1) are consumed; ``q`` is updated in place when
    given (columns end up as eigenvectors of the tridiagonal matrix).
    Returns (eigenvalues, total_rotation_sweeps, converged).
    """
    n = d.shape[0]
    d = np.asarray(d, dtype=np.float64).copy()
    if n == 1:
        return d, 0, True
    ee = np.zeros(n)
    ee[: n - 1] = e
    total_iter = 0
    converged = True
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(ee[m]) <= _EPS * dd:
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            total_iter += 1
            if sweeps > max_sweeps:
                converged = False
                break
            g = (d[l + 1] - d[l]) / (2.0 * ee[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + ee[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * ee[i]
                b = c * ee[i]
                r = math.hypot(f, g)
                ee[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    ee[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if q is not None:
                    col = q[:, i + 1].copy()
                    q[:, i + 1] = s * q[:, i] + c * col
                    q[:, i] = c * q[:, i] - s * col
            else:
                d[l] -= p
                ee[l] = g
                ee[m] = 0.0
    return d, total_iter, converged


def sturm_count(d, e, x):
    """Number of eigenvalues of the tridiagonal matrix strictly below x."""
    n = d.shape[0]
    count = 0
    qv = d[0] - x
    if qv < 0.0:
        count += 1
    for i in range(1, n):
        if qv == 0.0:
            qv = _EPS * (abs(e[i - 1]) + _EPS)
        qv = d[i] - x - e[i - 1] * e[i - 1] / qv
        if qv < 0.0:
            count += 1
    return count


# ---------------------------------------------------------------------------
# SciPy's LAPACK wrappers

def flapack():
    """SciPy's f2py LAPACK wrappers, ``scipy.linalg.lapack``: its ``dsbevd``
    and ``zhbevd`` solve what `eigen.band_routine`'s routines solve, through
    SciPy's own LAPACK.  Only the tests import SciPy."""
    from scipy.linalg import lapack
    return lapack
