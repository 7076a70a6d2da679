"""Driver layer over the eigensolver kernels.

Provides full spectra (`eigvalsh`: LAPACK ``dsyevd`` through NumPy for dense
matrices, ``dsbevd`` through SciPy for band matrices), the tridiagonal
Sturm-bisection ground-state probe (`min_eig_tridiag`, batched over stacked
matrices) and the normalized eigenvalue counting function used by the
ensemble statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import _pykernels

_EPS = np.finfo(np.float64).eps


def backend_name() -> str:
    """Identity of the eigensolvers: LAPACK (``dsyevd``, ``dsbevd``)."""
    return "lapack"


class EigenError(RuntimeError):
    """Raised when the eigensolve fails to converge."""


@dataclass
class SolveReport:
    max_residual: float
    orthogonality_defect: float
    converged: bool


@dataclass
class Spectrum:
    """Sorted eigenvalues of one matrix realization."""

    eigenvalues: np.ndarray
    dim: int
    eigenvectors: np.ndarray | None = None
    report: SolveReport = field(default_factory=lambda: SolveReport(0.0, 0.0, True))

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        if self.eigenvalues.shape != (self.dim,):
            raise ValueError("eigenvalue count must equal matrix dimension")
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be ascending")


@dataclass(frozen=True)
class SymmetricBand:
    """A real symmetric matrix in LAPACK lower band storage: ``lower[k, j]``
    holds entry (j + k, j); entries with j + k >= dim are ignored."""

    lower: np.ndarray

    def __post_init__(self):
        if self.lower.ndim != 2 or self.lower.dtype != np.float64:
            raise ValueError("band storage must be a 2-d float64 array")

    @property
    def dim(self) -> int:
        return self.lower.shape[1]

    @property
    def half_bandwidth(self) -> int:
        return self.lower.shape[0] - 1

    def to_dense(self) -> np.ndarray:
        n = self.dim
        m = np.zeros((n, n))
        for k, row in enumerate(self.lower[:n]):
            j = np.arange(n - k)
            m[j + k, j] = m[j, j + k] = row[:n - k]
        return m


def eigvalsh(m, want_vectors: bool = False, check_finite: bool = True) -> Spectrum:
    """Full spectrum of a real symmetric matrix, ascending.

    A dense matrix goes to LAPACK's divide-and-conquer solver (``dsyevd``)
    through ``numpy.linalg.eigvalsh``, or ``numpy.linalg.eigh`` when
    eigenvectors are wanted; it reads the lower triangle only.  A
    `SymmetricBand` goes to the banded divide-and-conquer solver (``dsbevd``,
    ``scipy.linalg.eigvals_banded``), and is expanded to dense only when
    eigenvectors are wanted.  With
    vectors, the report carries the relative residual and the orthogonality
    defect.  Raises EigenError when LAPACK does not converge.
    """
    if isinstance(m, SymmetricBand):
        if check_finite and not np.all(np.isfinite(m.lower)):
            raise ValueError("matrix has non-finite entries")
        if not want_vectors:
            try:
                w = scipy.linalg.eigvals_banded(m.lower, lower=True, check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise EigenError(f"LAPACK banded eigensolve failed (n={m.dim}): {exc}") from exc
            return Spectrum(w, m.dim)
        m = m.to_dense()
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if check_finite and not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    n = m.shape[0]
    try:
        if want_vectors:
            w, vectors = np.linalg.eigh(m)
        else:
            w, vectors = np.linalg.eigvalsh(m), None
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"LAPACK eigensolve failed (n={n}): {exc}") from exc
    max_res = 0.0
    orth = 0.0
    if want_vectors:
        scale = max(abs(w[0]), abs(w[-1]), 1e-300)
        max_res = float(np.abs(m @ vectors - vectors * w).max() / scale)
        orth = float(np.abs(vectors.T @ vectors - np.eye(n)).max())
    return Spectrum(w, n, vectors, SolveReport(max_res, orth, True))


def _tridiag_parts(m):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 2:
        n = m.shape[0]
        if n > 2:
            upper = np.triu(m, 2)
            lower = np.tril(m, -2)
            if np.abs(upper).max() != 0.0 or np.abs(lower).max() != 0.0:
                raise ValueError("matrix is not tridiagonal")
        d = np.diagonal(m).copy()
        e = np.diagonal(m, -1).copy()
        return d, e
    raise ValueError("expected a dense tridiagonal matrix")


def sturm_count_matrix(m, x: float) -> int:
    """Eigenvalues of a tridiagonal symmetric matrix strictly below x."""
    d, e = _tridiag_parts(m)
    return int(_pykernels.sturm_count(d, e, float(x)))


def min_eig_tridiag(m, tol: float = 1e-10):
    """Smallest eigenvalue of a tridiagonal symmetric matrix, by bisection on
    the Sturm-sequence count to absolute tolerance ``tol``.

    ``m`` is either a dense tridiagonal matrix (the result is a float) or a
    pair ``(d, e)`` of stacked diagonals ``d[R, n]`` sharing the off-diagonal
    ``e[n-1]`` (the result holds R values).  All rows are bisected together:
    each step runs the Sturm recurrence over the rows whose bracket is still
    wider than ``tol``, and a converged row stops updating.  A row's result
    is bit for bit the result for that row alone.
    """
    if isinstance(m, tuple):
        d, e = (np.asarray(x, dtype=np.float64) for x in m)
        if d.ndim != 2 or e.shape != (max(d.shape[1] - 1, 0),):
            raise ValueError("expected stacked diagonals d[R, n] and one off-diagonal e[n-1]")
    else:
        d, e = _tridiag_parts(m)
        d = d[np.newaxis]
    radius = np.zeros(d.shape[1])
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    # lo is a strict lower bound (Gershgorin); ensure count(hi+) = n
    lo = (d - radius).min(axis=1)
    hi = np.nextafter((d + radius).max(axis=1), np.inf)
    active = np.flatnonzero(hi - lo > tol)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        below = _any_eigenvalue_below(d[active], e, mid)
        hi[active[below]] = mid[below]
        lo[active[~below]] = mid[~below]
        active = active[hi[active] - lo[active] > tol]
    est = 0.5 * (lo + hi)
    return est if isinstance(m, tuple) else float(est[0])


def _any_eigenvalue_below(d, e, x):
    """Per row r: whether the tridiagonal (d[r], e) has an eigenvalue below
    x[r], i.e. a negative pivot in the Sturm recurrence.  A zero pivot is
    perturbed exactly as in `_pykernels.sturm_count`."""
    q = d[:, 0] - x
    below = q < 0.0
    for i in range(1, d.shape[1]):
        q[q == 0.0] = _EPS * (abs(e[i - 1]) + _EPS)
        q = d[:, i] - x - e[i - 1] * e[i - 1] / q
        below |= q < 0.0
    return below


def counting(spec: Spectrum, energy: float, normalization: float) -> float:
    """Normalized eigenvalue counting function: #{λ <= E} / normalization."""
    if normalization <= 0:
        raise ValueError("normalization must be positive")
    k = int(np.searchsorted(spec.eigenvalues, energy, side="right"))
    return k / normalization
