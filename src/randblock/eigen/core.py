"""Driver layer over the eigensolver kernels.

Provides full spectra (`eigvalsh`: LAPACK ``dsyevd`` through NumPy for dense
matrices, ``dsbevd`` through SciPy for band matrices, ``zhbevd`` for the
square of a block operator with spectrum symmetric about zero), the tridiagonal
definiteness test (`any_eigenvalue_below`, one Sturm pass batched over stacked
diagonals) and the Sturm-bisection ground state built on it
(`min_eig_tridiag`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = np.finfo(np.float64).eps


def backend_name() -> str:
    """Identity of the eigensolvers: LAPACK (``dsyevd``, ``dsbevd``, ``zhbevd``)."""
    return "lapack"


class EigenError(RuntimeError):
    """Raised when the eigensolve fails to converge or returns a malformed
    result."""


def _band_to_dense(lower: np.ndarray) -> np.ndarray:
    """The Hermitian (for real input: symmetric) matrix whose lower band
    storage is ``lower``."""
    n = lower.shape[1]
    m = np.zeros((n, n), dtype=lower.dtype)
    for k, row in enumerate(lower[:n]):
        j = np.arange(n - k)
        m[j, j + k] = row[:n - k].conj()
        m[j + k, j] = row[:n - k]
    return m


@dataclass(frozen=True)
class SymmetricBand:
    """A real symmetric matrix in LAPACK lower band storage: ``lower[k, j]``
    holds entry (j + k, j); entries with j + k >= dim are ignored."""

    lower: np.ndarray

    def __post_init__(self):
        if self.lower.ndim != 2 or self.lower.dtype != np.float64:
            raise ValueError("band storage must be a 2-d float64 array")

    def to_dense(self) -> np.ndarray:
        return _band_to_dense(self.lower)


@dataclass(frozen=True)
class SquaredBand:
    """A 2n x 2n operator with spectrum symmetric about zero and no
    eigenvalue at zero, given through the complex Hermitian n x n matrix M
    whose eigenvalues are the squares of its n positive eigenvalues.

    ``lower`` is M's LAPACK lower band storage, as in `SymmetricBand`.  For the
    block operator [[H, B], [B, -H]] with diagonal B,
    M = (H - iB)(H + iB) = H² + B² + i[H, B] (`operators.band_square`).
    """

    lower: np.ndarray

    def __post_init__(self):
        if self.lower.ndim != 2 or self.lower.dtype != np.complex128:
            raise ValueError("band storage must be a 2-d complex128 array")

    def to_dense(self) -> np.ndarray:
        """M itself, dense and Hermitian."""
        return _band_to_dense(self.lower)


def eigvalsh(m) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, ascending.

    A dense matrix goes to LAPACK's divide-and-conquer solver (``dsyevd``)
    through ``numpy.linalg.eigvalsh``, which reads the lower triangle only.  A
    `SymmetricBand` goes to the banded divide-and-conquer solver (``dsbevd``,
    ``scipy.linalg.eigvals_banded``).  A `SquaredBand` goes to its complex
    Hermitian twin (``zhbevd``, ``scipy.linalg.lapack``), and its eigenvalues
    μ come back as the 2n values [-√μ[::-1], √μ].  With every |E| >= λ and
    the spectrum inside [-ρ, ρ], squaring moves an eigenvalue by
    |δE| ≲ eps·ρ²/λ instead of the direct solve's eps·ρ.  Raises
    ValueError on non-finite entries and EigenError when LAPACK does not
    converge, returns eigenvalues out of order, or returns a μ of a
    `SquaredBand` that is not finite and positive (nothing is clamped).
    """
    if isinstance(m, SquaredBand):
        w = _signed_roots(_band_solve(m))
    elif isinstance(m, SymmetricBand):
        w = _band_solve(m)
    else:
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite entries")
        try:
            w = np.linalg.eigvalsh(m)
        except np.linalg.LinAlgError as exc:
            raise EigenError(f"LAPACK eigensolve failed (n={m.shape[0]}): {exc}") from exc
    if np.any(np.diff(w) < 0):
        raise EigenError("LAPACK returned eigenvalues out of ascending order")
    return w


def _band_solve(m) -> np.ndarray:
    """Eigenvalues of the band storage ``m.lower``: ``dsbevd`` for a
    `SymmetricBand`, ``zhbevd`` for a `SquaredBand` (which are then M's)."""
    if not np.all(np.isfinite(m.lower)):
        raise ValueError("matrix has non-finite entries")
    import scipy.linalg   # only band solves need SciPy; it slows start-up
    try:
        if isinstance(m, SymmetricBand):
            return scipy.linalg.eigvals_banded(m.lower, lower=True, check_finite=False)
        # LAPACK gets a copy: the caller's band stays as it was
        mu, _, info = scipy.linalg.lapack.zhbevd(m.lower, compute_v=0, lower=1, overwrite_ab=0)
        if info != 0:
            raise np.linalg.LinAlgError(f"zhbevd returned info = {info}")
        return mu
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"LAPACK banded eigensolve failed (n={m.lower.shape[1]}): {exc}") from exc


def _signed_roots(mu: np.ndarray) -> np.ndarray:
    """[-√μ[::-1], √μ]; EigenError unless every μ is finite and positive."""
    if not (np.all(np.isfinite(mu)) and np.all(mu > 0)):
        raise EigenError(f"squared band has an eigenvalue that is not finite and positive: "
                         f"smallest {float(np.min(mu))!r}")
    root = np.sqrt(mu)
    return np.concatenate([-root[::-1], root])


def min_eig_tridiag(d, e, tol: float) -> np.ndarray:
    """Smallest eigenvalue of each tridiagonal symmetric matrix (d[r], e), by
    bisection on the Sturm-sequence count to absolute tolerance ``tol``.

    ``d[R, n]`` holds the stacked diagonals, which share the off-diagonal
    ``e[n-1]``; the result holds R values.  All rows are bisected together:
    each step runs the Sturm recurrence over the rows whose bracket is still
    wider than ``tol``, and a converged row stops updating.  A row's result
    is bit for bit the result for that row alone.
    """
    d, e = np.asarray(d, dtype=np.float64), np.asarray(e, dtype=np.float64)
    if d.ndim != 2 or e.shape != (max(d.shape[1] - 1, 0),):
        raise ValueError("expected stacked diagonals d[R, n] and one off-diagonal e[n-1]")
    radius = np.zeros(d.shape[1])
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    # lo is a strict lower bound (Gershgorin); ensure count(hi+) = n
    lo = (d - radius).min(axis=1)
    hi = np.nextafter((d + radius).max(axis=1), np.inf)
    active = np.flatnonzero(hi - lo > tol)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        below = any_eigenvalue_below(d[active], e, mid)
        hi[active[below]] = mid[below]
        lo[active[~below]] = mid[~below]
        active = active[hi[active] - lo[active] > tol]
    return 0.5 * (lo + hi)


def any_eigenvalue_below(d, e, x) -> np.ndarray:
    """Per row r: whether the tridiagonal symmetric matrix (d[r], e) has an
    eigenvalue below ``x`` (a scalar, or one value per row).

    By Sylvester's law of inertia this holds exactly when T_r - x·I has a
    negative eigenvalue, i.e. when one of its LDLᵀ pivots (the Sturm
    recurrence) is negative: one pass per row, vectorized over the rows.
    ``d[R, n]`` holds the stacked diagonals, which share the off-diagonal
    ``e[n-1]``.
    """
    d, e = np.asarray(d, dtype=np.float64), np.asarray(e, dtype=np.float64)
    if d.ndim != 2 or d.shape[1] == 0 or e.shape != (d.shape[1] - 1,):
        raise ValueError("expected stacked diagonals d[R, n] and one off-diagonal e[n-1]")
    x = np.asarray(x, dtype=np.float64)
    if x.shape not in ((), (d.shape[0],)):
        raise ValueError(f"x must be a scalar or hold one value per row, got shape {x.shape}")
    # a zero pivot is perturbed exactly as in `_pykernels.sturm_count`
    q = d[:, 0] - x
    below = q < 0.0
    for i in range(1, d.shape[1]):
        q[q == 0.0] = _EPS * (abs(e[i - 1]) + _EPS)
        q = d[:, i] - x - e[i - 1] * e[i - 1] / q
        below |= q < 0.0
    return below

