"""Real symmetric eigensolver and eigenvalue-counting utilities.

Dense solves go through NumPy's LAPACK (``dsyevd``).  The in-house kernels in
``_pykernels`` (Householder reduction, implicitly shifted QL, Sturm counts)
serve the tridiagonal Sturm bisection and are the independent reference the
tests compare LAPACK against.
"""

from .core import (
    EigenError,
    SolveReport,
    Spectrum,
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
    "backend_name",
    "counting",
    "eigvalsh",
    "min_eig_tridiag",
    "sturm_count_matrix",
]
