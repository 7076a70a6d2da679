"""Real symmetric eigensolvers.

Full spectra come from LAPACK (`eigvalsh`): ``dsyevd`` through NumPy for
dense matrices, one or a stack of them, and for a band storage the driver
its type names (``driver``), called through ctypes at the Fortran routine
in the LAPACK NumPy links (`band_routine`) so that it releases the GIL:
``dsbevd`` for a real band matrix (`SymmetricBand`), ``zhbevd`` for the
n x n square (`SquaredBand`, complex Hermitian) of a block operator with
spectrum symmetric about zero and a certified gap, at half the dimension.
The square's eigenvalues μ come back as ±√μ, moved by |δE| ≲ eps·ρ²/λ when
the spectrum lies in [-ρ, ρ] and outside (-λ, λ).
Whether stacked tridiagonal matrices have an eigenvalue below a threshold
comes from one batched Sturm pass (`any_eigenvalue_below`), their smallest
eigenvalues from a bisection on that test (`min_eig_tridiag`).  A failed
solve raises `EigenError`; `backend_name` names the solvers.  The band
types only carry their storage to the solver: `operators.dense` gives the
matrix a band storage stands for.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from typing import ClassVar

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

    driver: ClassVar[str] = "dsbevd"
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

    driver: ClassVar[str] = "zhbevd"
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
    band storage goes to the driver its type names (`band_routine`), on
    other threads too: a `SymmetricBand` to the banded divide-and-conquer
    solver ``dsbevd``, a `SquaredBand` to its complex Hermitian twin
    ``zhbevd``, whose eigenvalues μ come back as the 2n values
    [-√μ[::-1], √μ].  With every |E| >= λ and the spectrum inside [-ρ, ρ],
    squaring moves an eigenvalue by |δE| ≲ eps·ρ²/λ instead of the direct
    solve's eps·ρ.  Raises ValueError on non-finite entries and EigenError
    when LAPACK fails (a nonzero ``info``, or no convergence in ``dsyevd``),
    returns eigenvalues out of order, or returns a μ of a `SquaredBand` that
    is not finite and positive (nothing is clamped).
    """
    if isinstance(m, (SymmetricBand, SquaredBand)):
        if not np.all(np.isfinite(m.lower)):
            raise ValueError("matrix has non-finite entries")
        w, info = _lapack_band(m.driver, m.lower)
        if info != 0:
            reason = "did not converge" if info > 0 else "rejected an argument"
            raise EigenError(f"LAPACK {m.driver} {reason} (n={m.lower.shape[1]}, info = {info})")
        if isinstance(m, SquaredBand):     # w holds M's eigenvalues μ
            if not (np.all(np.isfinite(w)) and np.all(w > 0)):
                raise EigenError(f"squared band has an eigenvalue that is not finite and "
                                 f"positive: smallest {float(np.min(w))!r}")
            root = np.sqrt(w)
            w = np.concatenate([-root[::-1], root])
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


# the names NumPy's ILP64 OpenBLAS may give LAPACK's Fortran routine ``r``,
# tried in order: scipy-openblas wheels prefix theirs with ``scipy_``
_SYMBOLS = ("scipy_{}_64_", "{}_64_")

# per driver, the pointers between UPLO and the strings' hidden lengths: N,
# KD, AB, LDAB, W, Z, LDZ, the workspaces with their lengths, INFO
_POINTERS = {"dsbevd": 12, "zhbevd": 14}

# the ABI probe: a 3 x 3 band of each driver, in lower band storage, whose
# eigenvalues are 2 - √2, 2 and 2 + √2
_PROBE = {"dsbevd": [[2.0, 2.0, 2.0], [-1.0, -1.0, 0.0]],
          "zhbevd": [[2.0, 2.0, 2.0], [-1.0j, 1.0j, 0.0]]}


@functools.cache
def _numpy_lapack() -> ctypes.CDLL:
    """A handle of NumPy's compiled linear-algebra module, whose symbol
    lookups also search the OpenBLAS it links."""
    from numpy.linalg import _umath_linalg
    return ctypes.CDLL(_umath_linalg.__file__)


@functools.cache
def band_routine(driver: str):
    """LAPACK's Fortran routine ``driver`` (``"dsbevd"`` or ``"zhbevd"``) in
    the library NumPy links (`_numpy_lapack`, `_SYMBOLS`), as a ctypes
    function, whose call releases the GIL.  Built once per driver, and
    checked then on `_PROBE`: a missing routine, or one that gets the probe's
    eigenvalues wrong (another INTEGER width or string convention), raises
    EigenError.  A caller that solves on several threads builds it before
    it starts them, as a cache is no lock."""
    library = _numpy_lapack()
    names = [symbol.format(driver) for symbol in _SYMBOLS]
    name = next((name for name in names if hasattr(library, name)), None)
    if name is None:
        raise EigenError(f"NumPy's LAPACK has no {driver}: none of {', '.join(names)} found")
    routine = ctypes.CFUNCTYPE(None, *[ctypes.c_char_p] * 2, *[ctypes.c_void_p] * _POINTERS[driver],
                               ctypes.c_size_t, ctypes.c_size_t)(
        ctypes.cast(getattr(library, name), ctypes.c_void_p).value)
    w, info = _solve(routine, driver, np.array(_PROBE[driver]))
    expected = [2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)]
    if info != 0 or not np.allclose(w, expected, rtol=0, atol=1e-12):
        raise EigenError(f"LAPACK {name} failed its ABI probe: a 3 x 3 band gave "
                         f"{w.tolist()} (info = {info}), not {expected}")
    return routine


def _lapack_band(driver: str, lower: np.ndarray) -> tuple[np.ndarray, int]:
    """The eigenvalues of the lower band storage ``lower`` and the ``info``
    of one call of LAPACK's ``driver`` (`band_routine`, `_solve`)."""
    return _solve(band_routine(driver), driver, lower)


def _solve(routine, driver: str, lower: np.ndarray) -> tuple[np.ndarray, int]:
    """One call of ``routine``, LAPACK's ``driver``, on a Fortran-ordered
    copy of ``lower``, which LAPACK overwrites: the caller's band is left as
    it was.  Eigenvalues only (``jobz='N'``, so Z is never referenced), in
    the least workspaces LAPACK takes: ``dsbevd``'s real one of 2n, or
    ``zhbevd``'s complex and real ones of n (one real buffer holds both),
    then an integer one of 1 (at least 1 each).  Every INTEGER is 64 bits
    wide, and all of them, IWORK and INFO included, sit in one array."""
    rows, n = lower.shape
    ab = np.array(lower, order="F")
    w = np.empty(n)
    if driver == "dsbevd":
        lengths, work = [max(2 * n, 1)], np.empty(max(2 * n, 1))
    else:     # zhbevd's complex WORK, 2 reals an entry, then its real RWORK
        lengths, work = [max(n, 1)] * 2, np.empty(3 * max(n, 1))
    # N, KD, LDAB, LDZ, each workspace's length, IWORK, LIWORK, INFO
    ints = np.array([n, rows - 1, rows, 1, *lengths, 0, 1, 0], np.int64)
    at = ints.ctypes.data
    n_, kd, ldab, ldz, *sizes, iwork, liwork, info = range(at, at + 8 * ints.size, 8)
    real, out = work.ctypes.data, w.ctypes.data
    spaces = (real, real + 16 * lengths[0])      # WORK, then zhbevd's RWORK
    # arrays go by raw address: an array's ``ctypes`` object passed as an
    # argument leaves garbage cycles behind
    routine(b"N", b"L", n_, kd, ab.ctypes.data, ldab, out, out, ldz,
            *(arg for pair in zip(spaces, sizes) for arg in pair), iwork, liwork, info, 1, 1)
    return w, int(ints[-1])


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

