"""Lattice Hamiltonians and 2n x 2n block operators.

Builds the discrete Laplacian under three boundary modes, the block
assemblies [[A, B], [B, -A]] (plain and with different diagonal blocks) and
the explicit unitary conjugations used as independent oracles.  Matrices are
dense and symmetric by construction, except that the Laplacian, the lattice
block operator and the square M = (H - iB)(H + iB) of its D/N form also come
in LAPACK lower band storage, which the ensemble solve reads without an
n x n intermediate.  Each band is built whole from its inputs and shares no
storage with them.
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


def adjacency(cube: Cube, band: bool = False) -> np.ndarray:
    """Nearest-neighbour adjacency matrix of the cube (0/1 entries).

    With ``band`` set, the matrix comes in LAPACK lower band storage instead:
    shape (cube.half_bandwidth + 1, n), row k holding the entries (i + k, i),
    so no n x n array is formed.
    """
    n = cube.n_sites
    a = np.zeros((cube.half_bandwidth + 1, n) if band else (n, n))
    for stride, i in hops(cube):
        if band:
            a[stride, i] = 1.0
        else:
            a[i + stride, i] = a[i, i + stride] = 1.0
    return a


def gamma(cube: Cube) -> np.ndarray:
    """Diagonal boundary-deficiency operator (missing-neighbour counts)."""
    return np.diag(deficiencies(cube).astype(np.float64))


def laplacian(cube: Cube, mode: BoundaryMode, sign: int = 1, band: bool = False) -> np.ndarray:
    """sign times the truncated Laplacian in the given boundary mode.

    ADJACENCY: hopping only, zero diagonal (sign=+1 gives the centred
    discrete Laplacian restricted to the cube).  NEUMANN: adjacency minus
    degree, so sign=-1 yields the positive semidefinite graph Laplacian.
    DIRICHLET: Neumann shifted by -2*Gamma, i.e. -lap_D = -lap_N + 2*Gamma.
    With ``band`` set, the result is in the lower band storage of
    `adjacency`; its row 0 is the diagonal.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not isinstance(mode, BoundaryMode):
        raise ValueError(f"unknown boundary mode {mode}")
    lap = adjacency(cube, band)
    if mode is not BoundaryMode.ADJACENCY:
        if band:
            # the degree (row sum of the adjacency) is 2d minus the missing neighbours
            missing = deficiencies(cube)
            lap[0] -= 2 * cube.dim - missing
            if mode is BoundaryMode.DIRICHLET:
                lap[0] -= 2.0 * missing
        else:
            lap = lap - np.diag(lap.sum(axis=1))
            if mode is BoundaryMode.DIRICHLET:
                lap = lap - 2.0 * gamma(cube)
    return sign * lap


def parity_values(cube: Cube) -> np.ndarray:
    """(-1)^(sum of coordinates) per site, in linear-index order."""
    return parities(cube).astype(np.float64)


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


def transform_u1(m: np.ndarray) -> np.ndarray:
    """Conjugation by (1/sqrt2) [[1, 1], [1, -1]]: swaps diagonal and
    off-diagonal blocks of [[H, B], [B, -H]]."""
    _, _, _, _, n = _split_blocks(m)
    eye = np.eye(n)
    u = np.block([[eye, eye], [eye, -eye]]) / np.sqrt(2.0)
    return u @ m @ u.T


def transform_u2(m: np.ndarray) -> np.ndarray:
    """Particle-hole conjugation by [[0, 1], [-1, 0]]; negates the block
    operator when it has the [[H, B], [B, -H]] shape."""
    _, _, _, _, n = _split_blocks(m)
    eye = np.eye(n)
    u = np.block([[np.zeros((n, n)), eye], [-eye, np.zeros((n, n))]])
    return u @ m @ u.T


def transform_u3_square(m: np.ndarray) -> np.ndarray:
    """Conjugation of M^2 by (1/sqrt2) [[1, i], [i, 1]].

    For M = [[H, B], [B, -H]] the result is block-diagonal with blocks
    H^2 + B^2 -/+ i[H, B].  Returns a complex matrix.
    """
    _, _, _, _, n = _split_blocks(m)
    eye = np.eye(n)
    u = np.block([[eye, 1j * eye], [1j * eye, eye]]) / np.sqrt(2.0)
    m2 = np.asarray(m, dtype=np.float64) @ np.asarray(m, dtype=np.float64)
    return u @ m2 @ u.conj().T


def transform_parity(m: np.ndarray, cube: Cube, tol: float = 1e-12):
    """Block-diagonalization via the on-site parity involution.

    Requires that the top-left block anticommutes with U = diag((-1)^j) and
    that the off-diagonal block commutes with U (diagonal B always does);
    otherwise raises PreconditionError.  Returns (conjugated matrix,
    H_plus, H_minus) where H_pm = A +/- U B.
    """
    a, b, _, d, n = _split_blocks(m)
    if np.abs(d + a).max() > tol * max(1.0, np.abs(a).max()):
        raise PreconditionError("bottom-right block is not -top-left")
    if cube.n_sites != n:
        raise PreconditionError("cube size does not match block dimension")
    uvals = parity_values(cube)
    u = np.diag(uvals)
    scale = max(1.0, np.abs(a).max(), np.abs(b).max())
    if np.abs(u @ a + a @ u).max() > tol * scale:
        raise PreconditionError("top-left block does not anticommute with parity")
    if np.abs(b @ u - u @ b).max() > tol * scale:
        raise PreconditionError("off-diagonal block does not commute with parity")
    uu = np.block([[np.eye(n), u], [np.eye(n), -u]]) / np.sqrt(2.0)
    conj = uu @ np.asarray(m, dtype=np.float64) @ uu.T
    h_plus = a + u @ b
    h_minus = a - u @ b
    return conj, h_plus, h_minus


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

