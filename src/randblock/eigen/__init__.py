"""Real symmetric eigensolvers.

Full spectra come from LAPACK: ``dsyevd`` through NumPy for dense matrices,
``dsbevd`` through SciPy for band matrices (`SymmetricBand`).  A block
operator with spectrum symmetric about zero and a certified gap can instead
be given through its n x n square (`SquaredBand`, complex Hermitian band
storage), which ``zhbevd`` solves at half the dimension; its eigenvalues μ
come back as ±√μ, moved by |δE| ≲ eps·ρ²/λ when the spectrum lies in
[-ρ, ρ] and outside (-λ, λ).  Whether stacked tridiagonal matrices have an
eigenvalue below a threshold comes from one batched Sturm pass
(`any_eigenvalue_below`), their smallest eigenvalues from a bisection on
that test (`min_eig_tridiag`).  The in-house kernels in ``_pykernels``
(Householder reduction, implicitly shifted QL, Sturm counts) are the
independent reference the tests compare LAPACK and the Sturm pass against.
"""

from .core import (
    EigenError,
    SquaredBand,
    SymmetricBand,
    any_eigenvalue_below,
    backend_name,
    eigvalsh,
    min_eig_tridiag,
)

__all__ = [
    "EigenError",
    "SquaredBand",
    "SymmetricBand",
    "any_eigenvalue_below",
    "backend_name",
    "eigvalsh",
    "min_eig_tridiag",
]
