"""Real symmetric eigensolvers.

Full spectra come from LAPACK: ``dsyevd`` through NumPy for dense matrices,
``dsbevd`` through SciPy for band matrices (`SymmetricBand`).  Whether
stacked tridiagonal matrices have an eigenvalue below a threshold comes from
one batched Sturm pass (`any_eigenvalue_below`), their smallest eigenvalues
from a bisection on that test (`min_eig_tridiag`).  The in-house kernels in
``_pykernels`` (Householder reduction, implicitly shifted QL, Sturm counts)
are the independent reference the tests compare LAPACK and the Sturm pass
against.
"""

from .core import (
    EigenError,
    SymmetricBand,
    any_eigenvalue_below,
    backend_name,
    eigvalsh,
    min_eig_tridiag,
)

__all__ = [
    "EigenError",
    "SymmetricBand",
    "any_eigenvalue_below",
    "backend_name",
    "eigvalsh",
    "min_eig_tridiag",
]
