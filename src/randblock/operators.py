"""Lattice Hamiltonians and 2n x 2n block operators.

The discrete Laplacian under three boundary modes (`laplacian`) is built in
one way only: in LAPACK lower band storage, from the array helpers of
`lattice`; `dense` gives the matrix of any lower band storage.  The block
operator on the cube comes in band storage too, in interleaved order
(`block_band`) and as the square M = (H - iB)(H + iB) of its D/N form
(`band_square`), which the ensemble solve reads without an n x n
intermediate; each band is built whole from its inputs and shares no
storage with them.  The dense block assemblies [[A, B], [B, -A]]
(`assemble`, and `assemble_bracketing` with different diagonal blocks), the
parity block-split of the hopping operator into its two diagonal blocks
(`transform_parity`) and the closed form of the squared block operator
(`square_identity_residual`) work on dense symmetric matrices.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .lattice import Cube, deficiencies, hops, parities


class BoundaryMode(Enum):
    ADJACENCY = "adjacency"   # plain truncation of the centred Laplacian
    NEUMANN = "neumann"       # graph Laplacian
    DIRICHLET = "dirichlet"   # graph Laplacian + 2*Gamma


class PreconditionError(ValueError):
    """A transform was applied to a matrix violating its hypothesis."""


def laplacian(cube: Cube, mode: BoundaryMode, sign: int = 1) -> np.ndarray:
    """sign times the truncated Laplacian in the given boundary mode, in
    LAPACK lower band storage: shape (cube.half_bandwidth + 1, n), row k
    holding the entries (i + k, i), so row 0 is the diagonal and no n x n
    array is formed (`dense` gives the matrix itself).

    ADJACENCY: hopping only, zero diagonal (sign=+1 gives the centred
    discrete Laplacian restricted to the cube).  NEUMANN: adjacency minus
    degree, so sign=-1 yields the positive semidefinite graph Laplacian.
    DIRICHLET: Neumann shifted by -2*Gamma, i.e. -lap_D = -lap_N + 2*Gamma,
    Gamma the diagonal of missing-neighbour counts.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not isinstance(mode, BoundaryMode):
        raise ValueError(f"unknown boundary mode {mode}")
    lap = np.zeros((cube.half_bandwidth + 1, cube.n_sites))
    for stride, i in hops(cube):
        lap[stride, i] = 1.0
    if mode is not BoundaryMode.ADJACENCY:
        # the degree (row sum of the adjacency) is 2d minus the missing neighbours
        missing = deficiencies(cube)
        lap[0] -= 2 * cube.dim - missing
        if mode is BoundaryMode.DIRICHLET:
            lap[0] -= 2.0 * missing
    return sign * lap


def dense(lower: np.ndarray) -> np.ndarray:
    """The Hermitian (for real input: symmetric) matrix whose LAPACK lower
    band storage is ``lower``."""
    n = lower.shape[1]
    m = np.zeros((n, n), dtype=lower.dtype)
    for k, row in enumerate(lower[:n]):
        j = np.arange(n - k)
        m[j, j + k] = row[:n - k].conj()
        m[j + k, j] = row[:n - k]
    return m


def assemble_bracketing(h_top: np.ndarray, h_bot: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The block operator [[H_top, B], [B, -H_bot]] (bracketing variant)."""
    h_top = np.asarray(h_top, dtype=np.float64)
    h_bot = np.asarray(h_bot, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if (not (h_top.shape == h_bot.shape == b.shape) or h_top.ndim != 2
            or h_top.shape[0] != h_top.shape[1]):
        raise ValueError("blocks must be square matrices of equal dimension")
    n = h_top.shape[0]
    m = np.empty((2 * n, 2 * n))
    m[:n, :n] = h_top
    m[:n, n:] = m[n:, :n] = b
    np.negative(h_bot, out=m[n:, n:])
    return m


def assemble(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The block operator [[H, B], [B, -H]]."""
    return assemble_bracketing(h, h, b)


def block_half_bandwidth(cube: Cube) -> int:
    """Half-bandwidth w = max(2 L^(d-1), 1) of a block operator on the cube
    in interleaved order: interleaving doubles every index distance of the
    Laplacian, and the b entries sit at distance 1."""
    return max(2 * cube.half_bandwidth, 1)


def block_band_bytes(cube: Cube) -> int:
    """Bytes of one `block_band` storage on the cube: (w + 1) x 2n floats."""
    return 8 * (block_half_bandwidth(cube) + 1) * 2 * cube.n_sites


def block_band(cube: Cube, h_top: np.ndarray, h_bot: np.ndarray, b, h=0.0) -> np.ndarray:
    """[[H_top + diag(h), diag(b)], [diag(b), -H_bot - diag(h)]] on the cube in
    interleaved order (psi1(0), psi2(0), psi1(1), ...), in LAPACK lower band
    storage.

    ``h_top`` and ``h_bot`` are lower band storages (s+1, n) of the diagonal
    blocks, s = cube.half_bandwidth, as `laplacian` gives them.  The result
    has shape (w+1, 2n), w = `block_half_bandwidth`; it is Fortran-ordered,
    as LAPACK reads it, and shares no storage with the inputs.
    """
    h_top = np.asarray(h_top, dtype=np.float64)
    h_bot = np.asarray(h_bot, dtype=np.float64)
    n = cube.n_sites
    if h_top.shape != (cube.half_bandwidth + 1, n) or h_bot.shape != h_top.shape:
        raise ValueError("H_top and H_bot must be band storages of the cube's shape")
    ab = np.zeros((block_half_bandwidth(cube) + 1, 2 * n), order="F")
    ab[0, 0::2] = h_top[0] + h
    ab[0, 1::2] = -(h_bot[0] + h)
    ab[1, 0::2] = b
    ab[2::2, 0::2] = h_top[1:]
    ab[2::2, 1::2] = -h_bot[1:]
    return ab


def band_square(lower: np.ndarray) -> np.ndarray:
    """conj(A)·A in lower band storage (2s+1, n) for a complex symmetric
    (A^T = A; for real input: symmetric) A in lower band storage (s+1, n),
    from the products of A's nonzero diagonals: no n x n array is formed.

    For A = H + iB with H, B real symmetric this is M = (H - iB)(H + iB),
    Hermitian, so its lower band storage describes it.  The result is
    Fortran-ordered, as LAPACK reads it.
    """
    s, n = lower.shape[0] - 1, lower.shape[1]
    offsets = [o for o in range(-s, s + 1) if lower[abs(o), :n - abs(o)].any()]

    def diagonal(o, lo, hi):
        # A[j + o, j] for lo <= j < hi; the upper diagonals mirror the lower ones
        return lower[o, lo:hi] if o >= 0 else lower[-o, lo + o:hi + o]

    square = np.zeros((2 * s + 1, n), dtype=np.result_type(lower, np.float64), order="F")
    for p in offsets:
        for q in offsets:
            if p + q < 0:
                continue
            # M[j + p + q, j] gains conj(A[j + p + q, j + p]) · A[j + p, j]
            lo, hi = max(0, -p), min(n - p - q, n - p)
            square[p + q, lo:hi] += diagonal(q, lo + p, hi + p).conj() * diagonal(p, lo, hi)
    return square


def _split_blocks(m: np.ndarray):
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
        raise ValueError("expected a 2n x 2n block matrix")
    n = m.shape[0] // 2
    return m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:], n


# relative tolerance of `transform_parity`'s hypothesis checks
_PARITY_TOL = 1e-12


def transform_parity(m: np.ndarray, cube: Cube):
    """Block-diagonalization via the on-site parity involution.

    Requires that the top-left block anticommutes with U = diag((-1)^j) and
    that the off-diagonal block commutes with U (diagonal B always does);
    otherwise raises PreconditionError.  Returns (H_plus, H_minus) where
    H_pm = A +/- U B, the diagonal blocks of the matrix conjugated by
    [[1, U], [1, -U]] / sqrt(2): its spectrum is their spectra's union.
    """
    a, b, _, d, n = _split_blocks(m)
    if np.abs(d + a).max() > _PARITY_TOL * max(1.0, np.abs(a).max()):
        raise PreconditionError("bottom-right block is not -top-left")
    if cube.n_sites != n:
        raise PreconditionError("cube size does not match block dimension")
    u = np.diag(parities(cube))
    scale = max(1.0, np.abs(a).max(), np.abs(b).max())
    if np.abs(u @ a + a @ u).max() > _PARITY_TOL * scale:
        raise PreconditionError("top-left block does not anticommute with parity")
    if np.abs(b @ u - u @ b).max() > _PARITY_TOL * scale:
        raise PreconditionError("off-diagonal block does not commute with parity")
    ub = u @ b
    return a + ub, a - ub


def square_identity_residual(h: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of M^2 minus its closed-form block expression,
    M = [[H, B], [B, -H]]."""
    h = np.asarray(h, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if h.shape != b.shape:
        raise ValueError("H and B must have equal dimensions")
    m = assemble(h, b)
    m2 = m @ m
    comm = h @ b - b @ h
    diag = h @ h + b @ b
    expected = np.block([[diag, comm], [-comm, diag]])
    return float(np.linalg.norm(m2 - expected))

