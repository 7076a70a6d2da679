"""Real symmetric eigensolver and eigenvalue-counting utilities.

Full spectra come from LAPACK: ``dsyevd`` through NumPy for dense matrices,
``dsbevd`` through SciPy for band matrices (`SymmetricBand`).  The in-house
kernels in ``_pykernels`` (Householder reduction, implicitly shifted QL,
Sturm counts) are the independent reference the tests compare LAPACK and the
batched Sturm bisection against.
"""

from .core import (
    EigenError,
    SolveReport,
    Spectrum,
    SymmetricBand,
    backend_name,
    counting,
    eigvalsh,
    min_eig_tridiag,
    sturm_count_matrix,
)

__all__ = [
    "EigenError",
    "SolveReport",
    "Spectrum",
    "SymmetricBand",
    "backend_name",
    "counting",
    "eigvalsh",
    "min_eig_tridiag",
    "sturm_count_matrix",
]
