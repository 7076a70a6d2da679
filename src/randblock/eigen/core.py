"""Driver layer over the eigensolver kernels.

Provides full dense solves (`eigvalsh`, through NumPy's LAPACK), the
tridiagonal Sturm-bisection ground-state probe (`min_eig_tridiag`) and the
normalized eigenvalue counting function used by the ensemble statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _pykernels


def backend_name() -> str:
    """Identity of the dense eigensolver: LAPACK ``dsyevd`` via NumPy."""
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


def eigvalsh(m, want_vectors: bool = False, check_finite: bool = True) -> Spectrum:
    """Full spectrum of a real symmetric matrix, ascending.

    LAPACK's divide-and-conquer solver (``dsyevd``) through
    ``numpy.linalg.eigvalsh``, or ``numpy.linalg.eigh`` when eigenvectors
    are wanted; it reads the lower triangle only.  With vectors, the report
    carries the relative residual and the orthogonality defect.  Raises
    EigenError when LAPACK does not converge.
    """
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


def min_eig_tridiag(m, tol: float = 1e-10) -> float:
    """Smallest eigenvalue of a tridiagonal symmetric matrix.

    Bisection on the Sturm-sequence count, to absolute tolerance ``tol``.
    """
    d, e = _tridiag_parts(m)
    radius = np.zeros_like(d)
    if d.shape[0] > 1:
        radius[:-1] += np.abs(e)
        radius[1:] += np.abs(e)
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    # lo is a strict lower bound (Gershgorin); ensure count(hi+) = n
    hi = np.nextafter(hi, np.inf)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _pykernels.sturm_count(d, e, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def counting(spec: Spectrum, energy: float, normalization: float) -> float:
    """Normalized eigenvalue counting function: #{λ <= E} / normalization."""
    if normalization <= 0:
        raise ValueError("normalization must be positive")
    k = int(np.searchsorted(spec.eigenvalues, energy, side="right"))
    return k / normalization
