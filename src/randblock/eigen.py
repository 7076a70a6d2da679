"""Real symmetric eigensolvers.

Full spectra come from LAPACK (`eigvalsh`): ``dsyevd`` through NumPy for
dense matrices, one or a stack of them, ``dsbevd`` from SciPy's compiled
LAPACK wrappers (`flapack`) for band matrices (`SymmetricBand`).  A block
operator with spectrum symmetric about zero and a certified gap can instead
be given through its n x n square (`SquaredBand`, complex Hermitian band
storage), which ``zhbevd`` solves at half the dimension; its eigenvalues μ
come back as ±√μ, moved by |δE| ≲ eps·ρ²/λ when the spectrum lies in
[-ρ, ρ] and outside (-λ, λ).  Whether stacked tridiagonal matrices have an
eigenvalue below a threshold comes from one batched Sturm pass
(`any_eigenvalue_below`), their smallest eigenvalues from a bisection on
that test (`min_eig_tridiag`).  A failed solve raises `EigenError`;
`backend_name` names the solvers.  The band types only carry their storage
to the solver: `operators.dense` gives the matrix a band storage stands for.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

_EPS = np.finfo(np.float64).eps


def backend_name() -> str:
    """Identity of the eigensolvers: LAPACK (``dsyevd``, ``dsbevd``, ``zhbevd``)."""
    return "lapack"


class EigenError(RuntimeError):
    """Raised when the eigensolve fails to converge or returns a malformed
    result."""


@dataclass(frozen=True)
class SymmetricBand:
    """A real symmetric matrix in LAPACK lower band storage: ``lower[k, j]``
    holds entry (j + k, j); entries with j + k >= dim are ignored."""

    lower: np.ndarray

    def __post_init__(self):
        if self.lower.ndim != 2 or self.lower.dtype != np.float64:
            raise ValueError("band storage must be a 2-d float64 array")


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


def eigvalsh(m) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, ascending.

    A dense matrix goes to LAPACK's divide-and-conquer solver (``dsyevd``)
    through ``numpy.linalg.eigvalsh``, which reads the lower triangle only;
    so does each matrix of a dense ``(..., n, n)`` stack, whose eigenvalues
    come back ``(..., n)``, bit for bit those of its matrices one by one.  A
    `SymmetricBand` goes to the banded divide-and-conquer solver ``dsbevd``
    and a `SquaredBand` to its complex Hermitian twin ``zhbevd``, both called
    directly from SciPy's compiled wrappers (`flapack`); a `SquaredBand`'s
    eigenvalues μ come back as the 2n values [-√μ[::-1], √μ].  With every
    |E| >= λ and the spectrum inside [-ρ, ρ], squaring moves an eigenvalue
    by |δE| ≲ eps·ρ²/λ instead of the direct solve's eps·ρ.  Raises
    ValueError on non-finite entries and EigenError when LAPACK fails
    (a nonzero ``info``, or no convergence in ``dsyevd``), returns
    eigenvalues out of order, or returns a μ of a `SquaredBand` that is not
    finite and positive (nothing is clamped).
    """
    if isinstance(m, SquaredBand):
        w = _signed_roots(_band_solve(m))
    elif isinstance(m, SymmetricBand):
        w = _band_solve(m)
    else:
        m = np.asarray(m, dtype=np.float64)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise ValueError("matrix must be square")
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite entries")
        try:
            w = np.linalg.eigvalsh(m)
        except np.linalg.LinAlgError as exc:
            raise EigenError(f"LAPACK eigensolve failed (n={m.shape[-1]}): {exc}") from exc
    if (w[..., 1:] < w[..., :-1]).any():
        raise EigenError("LAPACK returned eigenvalues out of ascending order")
    return w


_FLAPACK = "scipy.linalg._flapack"


@functools.cache
def flapack():
    """SciPy's compiled LAPACK wrappers, the module ``scipy.linalg._flapack``
    whose names ``scipy.linalg.lapack`` star-imports: its ``dsbevd`` and
    ``zhbevd`` are the very functions ``scipy.linalg.lapack`` exports.

    Only band solves need SciPy, and of it only this module, so it is loaded
    from its file beside SciPy's package and ``scipy.linalg``'s package init
    (~0.3 s and ~16 MB of imports, ``numpy.f2py`` and ``numpy.testing``
    among them) never runs.  The module is taken from ``sys.modules`` when
    SciPy already loaded it, and registered there when loaded here, so a
    later ``import scipy.linalg`` reuses it.  When the file is not found,
    ``scipy.linalg.lapack`` is imported instead."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    path = _flapack_file()
    if path is None:
        from scipy.linalg import lapack
        return lapack
    spec = importlib.util.spec_from_file_location(_FLAPACK, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


def _flapack_file() -> str | None:
    """The extension file of ``scipy.linalg._flapack``, or None."""
    scipy = importlib.util.find_spec("scipy")
    roots = scipy.submodule_search_locations if scipy else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _band_solve(m) -> np.ndarray:
    """Eigenvalues of the band storage ``m.lower``: ``dsbevd`` for a
    `SymmetricBand`, ``zhbevd`` for a `SquaredBand` (which are then M's)."""
    if not np.all(np.isfinite(m.lower)):
        raise ValueError("matrix has non-finite entries")
    driver = "dsbevd" if isinstance(m, SymmetricBand) else "zhbevd"
    # LAPACK gets a copy: the caller's band stays as it was
    w, _, info = getattr(flapack(), driver)(m.lower, compute_v=0, lower=1, overwrite_ab=0)
    if info != 0:
        reason = "did not converge" if info > 0 else "rejected an argument"
        raise EigenError(f"LAPACK {driver} {reason} (n={m.lower.shape[1]}, info = {info})")
    return w


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
    # a zero pivot is perturbed to eps·(|e| + eps), as in a one-matrix Sturm count
    q = d[:, 0] - x
    below = q < 0.0
    for i in range(1, d.shape[1]):
        q[q == 0.0] = _EPS * (abs(e[i - 1]) + _EPS)
        q = d[:, i] - x - e[i - 1] * e[i - 1] / q
        below |= q < 0.0
    return below

