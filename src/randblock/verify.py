"""Exact-identity verification suites over randomized small instances.

Each suite checks one finite-dimensional spectral identity of the block
operators at small randomized sizes and reports pass/fail together with the
seed needed to replay a failure.  Five identities are computed per instance
by one function each: the constant off-diagonal map (`const_b_mismatch`),
the parity split (`parity_split_residuals`), the gap bounds (`gap_margins`),
the bracketing chains of the counting functions (`counting_chains_hold`)
and the closed form of the squared operator (`square_residual`).  A suite
draws its instances and calls that function; the acceptance checks call
the same functions on instances of their own.  Blocks on a cube come from
the boundary table the ensembles run (`spectra.dense_blocks`).  An
instance's matrices of one size are solved together, as one stack
(`eigen.eigvalsh`).  Operators are built afresh in every call: a cache kept
across calls would hide a mutated builder, such as the one
`test_mutated_boundary_term_is_caught` plants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .analysis import const_b_map
from .eigen import eigvalsh
from .lattice import Cube, parities
from .operators import BoundaryMode
from .spectra import dense_blocks, symmetry_residual, zero_split_check


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seed: int


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 64) | tag))


def _random_symmetric(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def _instance_1d(rng: np.random.Generator, sides: tuple[int, int],
                 v_range: tuple[float, float], b_range: tuple[float, float],
                 boundaries: tuple[str, ...]) -> list[np.ndarray]:
    """One random 1-d instance, drawn from ``rng`` in this order: the side of
    a cube (``rng.integers(*sides)``), then V ~ U(v_range) and b ~ U(b_range)
    on its sites.  Returns the dense block of each of ``boundaries``
    (`spectra.dense_blocks`, H = Laplacian term + diag(V), B = diag(b))."""
    side = int(rng.integers(*sides))
    v = rng.uniform(*v_range, side)
    b = rng.uniform(*b_range, side)
    return dense_blocks(Cube(1, side), v, b, boundaries)


def suite_symmetry(seed: int) -> SuiteResult:
    """Spectra of [[H, b], [b, -H]] are symmetric about zero."""
    rng = _rng(seed, 1)
    worst = 0.0
    for _ in range(10):
        (block,) = _instance_1d(rng, (6, 20), (0, 2), (-1, 1), ("N",))
        ev = eigvalsh(block)
        scale = max(1.0, np.abs(ev).max())
        worst = max(worst, symmetry_residual(ev) / scale)
    passed = worst <= 1e-9
    return SuiteResult("symmetry", passed, f"max relative residual {worst:.3e}", seed)


def square_residual(h: np.ndarray, b: np.ndarray) -> float:
    """`operators.square_identity_residual` of (H, B) relative to
    (max|spec H| + max|spec B|)^2."""
    scale = np.abs(eigvalsh(np.stack([h, b]))).max(axis=1).sum() ** 2
    return ops.square_identity_residual(h, b) / max(scale, 1e-30)


def suite_square_identity(seed: int) -> SuiteResult:
    """Closed-form block expression for the squared operator, plus the
    Dirichlet = Neumann + 2*Gamma boundary relation against an independent
    missing-neighbour count: 2d minus the row sums of the adjacency."""
    rng = _rng(seed, 2)
    worst = 0.0
    for t in range(10):
        n = int(rng.integers(2, 17))
        if t % 3 == 0:
            h = np.diag(rng.uniform(-1, 1, n))
            b = np.diag(rng.uniform(-1, 1, n))      # commuting pair
        else:
            h = _random_symmetric(rng, n)
            b = _random_symmetric(rng, n)
        worst = max(worst, square_residual(h, b))
    boundary_ok = True
    for dim, side in ((1, 5), (2, 4)):
        cube = Cube(dim, side)
        diff = (ops.dense(ops.laplacian(cube, BoundaryMode.DIRICHLET))
                - ops.dense(ops.laplacian(cube, BoundaryMode.NEUMANN)))
        # the missing neighbours from the hops, not from the deficiencies the band uses
        degree = ops.dense(ops.laplacian(cube, BoundaryMode.ADJACENCY)).sum(axis=1)
        expected = 2.0 * np.diag(2 * dim - degree)
        if np.abs(diff - expected).max() > 0:
            boundary_ok = False
    passed = worst <= 1e-12 and boundary_ok
    detail = f"max relative residual {worst:.3e}, boundary relation {'ok' if boundary_ok else 'VIOLATED'}"
    return SuiteResult("square-identity", passed, detail, seed)


def parity_split_residuals(cube: Cube, bdiag: np.ndarray) -> tuple[float, float]:
    """For B = diag(bdiag) and U = diag((-1)^j): the largest mismatch between
    spec([[Δ, B], [B, -Δ]]) and spec(Δ + UB) ∪ spec(Δ - UB) for the
    hopping-only Laplacian Δ, relative to max(1, spectral radius), and the
    same mismatch, absolute, for the graph Laplacian, whose diagonal breaks
    the anticommutation (a negative control, far from zero)."""
    b = np.diag(bdiag)
    adj = ops.dense(ops.laplacian(cube, BoundaryMode.ADJACENCY))
    neu = ops.dense(ops.laplacian(cube, BoundaryMode.NEUMANN))
    ub = np.diag(parities(cube)) @ b
    direct, direct_neu = eigvalsh(np.stack([ops.assemble(adj, b), ops.assemble(neu, b)]))
    halves = eigvalsh(np.stack([adj + ub, adj - ub, neu + ub, neu - ub]))
    split, split_neu = np.sort(halves.reshape(2, -1), axis=1)
    mismatch = np.abs(direct - split).max() / max(1.0, np.abs(direct).max())
    control = float(np.abs(direct_neu - split_neu).max())
    return mismatch, control


def suite_parity_equivalence(seed: int) -> SuiteResult:
    """spec([[Δ, b], [b, -Δ]]) equals spec(Δ + Ub) ∪ spec(Δ - Ub) for the
    hopping-only Laplacian; the Neumann variant must fail (negative control,
    its diagonal breaks the anticommutation)."""
    rng = _rng(seed, 3)
    worst = 0.0
    control_gap = np.inf
    for t in range(6):
        dim = 1 if t % 2 == 0 else 2
        side = int(rng.integers(4, 10)) if dim == 1 else int(rng.integers(3, 5))
        cube = Cube(dim, side)
        mismatch, control = parity_split_residuals(cube, rng.uniform(-1, 1, cube.n_sites))
        worst = max(worst, mismatch)
        control_gap = min(control_gap, control)
    passed = worst <= 1e-8 and control_gap > 1e-3
    detail = f"max relative mismatch {worst:.3e}, Neumann control deviation {control_gap:.3e}"
    return SuiteResult("parity-equivalence", passed, detail, seed)


def gap_margins(rng: np.random.Generator, n: int) -> tuple[float, float]:
    """One random instance of the gap bounds at dimension n, drawn from
    ``rng``: H >= lam and B = diag(b) with b >= beta leave (-sqrt(lam^2 +
    beta^2), sqrt(lam^2 + beta^2)) free of eigenvalues of [[H, B], [B, -H]],
    and H, H2 >= lam leave (-lam, lam) free of those of the bracketing
    [[H, B'], [B', -H2]] for any symmetric B'.  Returns both margins
    min|E| - bound, nonnegative up to rounding."""
    lam = rng.uniform(0.1, 2.0)
    beta = rng.uniform(0.0, 2.0)
    h = _random_symmetric(rng, n)
    b = np.diag(beta + rng.uniform(0, 1, n))
    h2 = _random_symmetric(rng, n)
    b_any = _random_symmetric(rng, n)
    low, low2 = eigvalsh(np.stack([h, h2]))[:, 0]
    h += (lam - low) * np.eye(n)
    h2 += (lam - low2) * np.eye(n)
    gap, gap2 = np.abs(eigvalsh(np.stack([ops.assemble(h, b),
                                          ops.assemble_bracketing(h, h2, b_any)]))).min(axis=1)
    return gap - np.sqrt(lam**2 + beta**2), gap2 - lam


def suite_gap_bound(seed: int) -> SuiteResult:
    """No eigenvalue inside (-sqrt(lam^2+beta^2), +sqrt(lam^2+beta^2)) when
    H >= lam and diagonal b >= beta; bracketing variants keep (-lam, lam)
    free when both diagonal blocks are >= lam."""
    rng = _rng(seed, 4)
    worst = np.inf
    for _ in range(25):
        margin, bracketing = gap_margins(rng, int(rng.integers(2, 33)))
        worst = min(worst, margin)
        if bracketing < -1e-9:
            worst = min(worst, bracketing)
    return SuiteResult("gap-bound", bool(worst >= -1e-9), f"worst margin {worst:.3e}", seed)


# the boundaries of the bracketing chains, in the order `counting_chains_hold` reads them
CHAIN = ("+", "-", "D", "N")


def suite_zero_split(seed: int) -> SuiteResult:
    """Gapped realizations have exactly n negative and n positive
    eigenvalues under every boundary restriction."""
    rng = _rng(seed, 5)
    ok = True
    for _ in range(8):
        blocks = _instance_1d(rng, (5, 15), (1, 2), (-0.5, 0.5), CHAIN)
        for ev in eigvalsh(np.stack(blocks)):
            if not zero_split_check(ev):
                ok = False
    return SuiteResult("zero-split", ok, "half-and-half split" if ok else "split violated", seed)


def counting_chains_hold(blocks: list[np.ndarray], points: int) -> bool:
    """Whether N_+ <= N_D <= N_- and N_+ <= N_N <= N_- hold for the counting
    functions of ``blocks``, the blocks of the boundaries `CHAIN` in that
    order (`spectra.dense_blocks`), solved as one stack, at ``points``
    energies spanning the spectra with margin 0.5."""
    ev_plus, ev_minus, ev_d, ev_n = eigvalsh(np.stack(blocks))
    grid = np.linspace(ev_minus.min() - 0.5, ev_plus.max() + 0.5, points)
    c_plus, c_minus, c_d, c_n = (np.searchsorted(ev, grid, side="right")
                                 for ev in (ev_plus, ev_minus, ev_d, ev_n))
    return bool(np.all((c_plus <= c_d) & (c_d <= c_minus) & (c_plus <= c_n) & (c_n <= c_minus)))


def suite_bracketing_sandwich(seed: int) -> SuiteResult:
    """Counting functions are ordered: plus-bracketing counts least, minus
    counts most, with D and N in between, at every probe energy."""
    rng = _rng(seed, 6)
    ok = True
    for _ in range(6):
        ok = counting_chains_hold(_instance_1d(rng, (5, 15), (0, 2), (-1, 1), CHAIN), 32) and ok
    return SuiteResult("bracketing-sandwich", ok,
                       "counting chains hold" if ok else "counting chain violated", seed)


def const_b_mismatch(h: np.ndarray, beta: float) -> float:
    """Largest distance between spec([[H, beta], [beta, -H]]) and the mapped
    multiset {±sqrt(E^2+beta^2) : E in spec(H)} (`const_b_map`), relative to
    max(1, spectral radius)."""
    direct = eigvalsh(ops.assemble(h, beta * np.eye(h.shape[0])))
    mapped = const_b_map(eigvalsh(h), beta)
    return np.abs(direct - mapped).max() / max(1.0, np.abs(direct).max())


def suite_const_b_map(seed: int) -> SuiteResult:
    """spec([[H, beta], [beta, -H]]) equals the mapped multiset
    {±sqrt(E^2+beta^2)}."""
    rng = _rng(seed, 7)
    worst = 0.0
    for _ in range(6):
        n = int(rng.integers(2, 25))
        beta = rng.uniform(0.2, 2.0)
        worst = max(worst, const_b_mismatch(_random_symmetric(rng, n), beta))
    passed = worst <= 1e-8
    return SuiteResult("const-b-map", passed, f"max relative mismatch {worst:.3e}", seed)


ALL_SUITES = (
    suite_symmetry,
    suite_square_identity,
    suite_parity_equivalence,
    suite_gap_bound,
    suite_zero_split,
    suite_bracketing_sandwich,
    suite_const_b_map,
)


def run_all(seed: int = 0) -> list[SuiteResult]:
    return [suite(seed) for suite in ALL_SUITES]
