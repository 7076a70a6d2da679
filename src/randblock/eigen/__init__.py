"""Real symmetric eigensolvers.

Full spectra come from LAPACK: ``dsyevd`` through NumPy for dense matrices,
``dsbevd`` through SciPy for band matrices (`SymmetricBand`).  The smallest
eigenvalues of stacked tridiagonal matrices come from a batched Sturm
bisection (`min_eig_tridiag`).  The in-house kernels in ``_pykernels``
(Householder reduction, implicitly shifted QL, Sturm counts) are the
independent reference the tests compare LAPACK and the bisection against.
"""

from .core import (
    EigenError,
    SymmetricBand,
    backend_name,
    eigvalsh,
    min_eig_tridiag,
)

__all__ = [
    "EigenError",
    "SymmetricBand",
    "backend_name",
    "eigvalsh",
    "min_eig_tridiag",
]
