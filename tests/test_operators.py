import numpy as np
import pytest

from randblock import verify
from randblock.eigen import SquaredBand, eigvalsh
from randblock.lattice import Cube, parities
from randblock.operators import (
    BoundaryMode,
    assemble,
    assemble_bracketing,
    band_square,
    block_band,
    block_band_bytes,
    block_half_bandwidth,
    dense,
    laplacian,
    square_identity_residual,
)
from reference import (boundary_deficiency, index_of, neighbours, parity, sites, transform_u1,
                       transform_u2, transform_u3_square)


class TestLaplacian:
    def test_adjacency_1d(self):
        lap = dense(laplacian(Cube(1, 3), BoundaryMode.ADJACENCY))
        assert np.array_equal(lap, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert np.allclose(eigvalsh(lap), [-np.sqrt(2), 0, np.sqrt(2)])

    def test_neumann_1d(self):
        neg = dense(laplacian(Cube(1, 3), BoundaryMode.NEUMANN))
        assert np.array_equal(neg, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
        assert abs(eigvalsh(neg)[0]) < 1e-12

    def test_dirichlet_minus_neumann_is_2gamma(self):
        c = Cube(1, 3)
        diff = (dense(laplacian(c, BoundaryMode.DIRICHLET))
                - dense(laplacian(c, BoundaryMode.NEUMANN)))
        assert np.array_equal(diff, 2.0 * np.diag([1.0, 0.0, 1.0]))

    def test_takes_no_sign(self):
        # H = -lap + U0 + V is the only convention, so the mode fixes the matrix
        with pytest.raises(TypeError):
            laplacian(Cube(1, 3), BoundaryMode.NEUMANN, -1)

    def test_mode_name_refused(self):
        # a mode's value is not a mode
        with pytest.raises(ValueError, match="^unknown boundary mode neumann$"):
            laplacian(Cube(1, 3), "neumann")


def boundary_term(cube):
    """Γ = (D - N) / 2 read off the dense Dirichlet and Neumann Laplacians."""
    return (dense(laplacian(cube, BoundaryMode.DIRICHLET))
            - dense(laplacian(cube, BoundaryMode.NEUMANN))) / 2


ODD_SIDES = [Cube(1, 7), Cube(2, 5), Cube(3, 3), Cube(3, 1)]


@pytest.mark.parametrize("cube", ODD_SIDES, ids=lambda c: f"d{c.dim}L{c.side}")
class TestVectorizedMatchesPerSite:
    """The index-arithmetic constructions against the per-site definitions."""

    def test_adjacency(self, cube):
        expected = np.zeros((cube.n_sites, cube.n_sites))
        for j in sites(cube):
            for k in neighbours(cube, j):
                expected[index_of(cube, j), index_of(cube, k)] = 1.0
        assert np.array_equal(dense(laplacian(cube, BoundaryMode.ADJACENCY)), expected)

    def test_gamma(self, cube):
        missing = [boundary_deficiency(cube, j) for j in sites(cube)]
        assert np.array_equal(boundary_term(cube), np.diag(missing))
        # the relation verify checks: the degree (row sum of the adjacency) is 2d minus Γ
        degree = dense(laplacian(cube, BoundaryMode.ADJACENCY)).sum(axis=1)
        assert np.array_equal(2 * cube.dim - degree, missing)

    def test_parity_split(self, cube, monkeypatch):
        # verify solves [[Δ, B], [B, -Δ]] and H± = Δ ± UB, with U the per-site
        # parities and B = diag(b)
        adjacency = dense(laplacian(cube, BoundaryMode.ADJACENCY))
        b = np.arange(1.0, cube.n_sites + 1)
        ub = np.diag([parity(j) * x for j, x in zip(sites(cube), b)])
        solved = []
        monkeypatch.setattr(verify, "eigvalsh", lambda stack: solved.append(stack) or eigvalsh(stack))
        verify.parity_split_residuals(cube, b)
        (direct, _), (h_plus, h_minus, _, _) = solved
        assert np.array_equal(direct, assemble(adjacency, np.diag(b)))
        assert np.array_equal(h_plus, adjacency + ub)
        assert np.array_equal(h_minus, adjacency - ub)

    @pytest.mark.parametrize("mode", list(BoundaryMode))
    def test_band_laplacian_is_dense_laplacian(self, cube, mode):
        # the adjacency A; for N and D the negation of A minus the degree,
        # minus (D) twice the missing neighbours
        expected = np.zeros((cube.n_sites, cube.n_sites))
        for j in sites(cube):
            i = index_of(cube, j)
            for k in neighbours(cube, j):
                expected[i, index_of(cube, k)] = 1.0
            if mode is not BoundaryMode.ADJACENCY:
                expected[i, i] -= len(neighbours(cube, j))
            if mode is BoundaryMode.DIRICHLET:
                expected[i, i] -= 2 * boundary_deficiency(cube, j)
        band = laplacian(cube, mode)
        assert band.shape == (cube.half_bandwidth + 1, cube.n_sites)
        sign = 1 if mode is BoundaryMode.ADJACENCY else -1
        assert np.array_equal(dense(band), sign * expected)

    def test_neumann_and_dirichlet_are_positive(self, cube):
        # -lap_N >= 0 with the constants as its kernel, -lap_D > 0: the floor
        # of H that the block's gap rests on; every zero of the band is -0.0,
        # the bits of the negation the bands have always been solved with
        neumann = laplacian(cube, BoundaryMode.NEUMANN)
        dirichlet = laplacian(cube, BoundaryMode.DIRICHLET)
        assert np.array_equal(dense(neumann) @ np.ones(cube.n_sites), np.zeros(cube.n_sites))
        assert eigvalsh(dense(neumann))[0] >= -1e-12
        assert eigvalsh(dense(dirichlet))[0] > 0.1
        for band in (neumann, dirichlet):
            assert np.signbit(band[band == 0]).all()


def interleaving(n):
    """The permutation (psi1(0), psi2(0), psi1(1), ...) of the 2n natural indices."""
    perm = np.empty(2 * n, dtype=int)
    perm[0::2], perm[1::2] = np.arange(n), np.arange(n, 2 * n)
    return perm


def fields(cube):
    """A realization's H-diagonal h and B-diagonal b on the cube."""
    rng = np.random.default_rng(cube.n_sites)
    return rng.uniform(1, 2, cube.n_sites), rng.uniform(-0.5, 0.5, cube.n_sites)


class TestBlockBand:
    @pytest.mark.parametrize("cube", [Cube(1, 7), Cube(2, 4), Cube(3, 3)], ids=repr)
    @pytest.mark.parametrize("modes", ["DD", "NN", "DN", "ND"])
    def test_matches_dense_block(self, cube, modes):
        # the top and bottom blocks' boundary modes, Dirichlet or Neumann
        top, bot = (laplacian(cube, {"D": BoundaryMode.DIRICHLET, "N": BoundaryMode.NEUMANN}[m])
                    for m in modes)
        h, b = fields(cube)
        ab = block_band(cube, top, bot, b, h)
        assert ab.shape == (block_half_bandwidth(cube) + 1, 2 * cube.n_sites)
        assert ab.flags.f_contiguous
        assert not any(np.shares_memory(ab, a) for a in (top, bot, h, b))
        natural = assemble_bracketing(dense(top) + np.diag(h), dense(bot) + np.diag(h),
                                      np.diag(b))
        perm = interleaving(cube.n_sites)
        assert np.array_equal(dense(ab), natural[np.ix_(perm, perm)])

    def test_interleaved_block(self):
        # [[H_top, B], [B, -H_bot]] permuted to (psi1(0), psi2(0), psi1(1), ...)
        cube = Cube(2, 3)
        top = laplacian(cube, BoundaryMode.DIRICHLET)
        bot = laplacian(cube, BoundaryMode.NEUMANN)
        b = np.arange(1.0, 10.0)
        ab = block_band(cube, top, bot, b, 0.0)
        assert ab.shape == (2 * cube.half_bandwidth + 1, 18)
        assert block_band_bytes(cube) == ab.nbytes
        natural = assemble_bracketing(dense(top), dense(bot), np.diag(b))
        perm = interleaving(9)
        assert np.array_equal(dense(ab), natural[np.ix_(perm, perm)])

    def test_single_site(self):
        cube = Cube(1, 1)
        ab = block_band(cube, np.array([[3.0]]), np.array([[2.0]]), [1.0], 0.0)
        assert np.array_equal(dense(ab), [[3.0, 1.0], [1.0, -2.0]])
        assert block_half_bandwidth(cube) == 1

    def test_shape_checked(self):
        cube = Cube(1, 3)
        with pytest.raises(ValueError, match="band storages"):
            block_band(cube, np.zeros((1, 3)), np.zeros((1, 3)), np.zeros(3), 0.0)


class TestSquareBand:
    """M = (H - iB)(H + iB) in band storage against its dense product."""

    @pytest.mark.parametrize("cube", [Cube(1, 1), Cube(1, 2), Cube(1, 7), Cube(2, 4),
                                      Cube(3, 3)], ids=repr)
    @pytest.mark.parametrize("mode", [BoundaryMode.DIRICHLET, BoundaryMode.NEUMANN])
    def test_squares_the_laplacian(self, cube, mode):
        lap = laplacian(cube, mode)
        lap2 = band_square(lap)
        assert lap2.shape == (2 * cube.half_bandwidth + 1, cube.n_sites)
        assert np.array_equal(dense(lap2), dense(lap) @ dense(lap))

    @pytest.mark.parametrize("cube", [Cube(1, 1), Cube(1, 2), Cube(1, 7), Cube(2, 4),
                                      Cube(3, 3)], ids=repr)
    @pytest.mark.parametrize("mode", [BoundaryMode.DIRICHLET, BoundaryMode.NEUMANN])
    def test_matches_dense_product(self, cube, mode):
        lap = laplacian(cube, mode)
        h, b = fields(cube)
        a = lap.astype(np.complex128)
        a[0] += h + 1j * b
        ab = band_square(a)
        assert ab.shape == (2 * cube.half_bandwidth + 1, cube.n_sites) and ab.flags.f_contiguous
        assert not any(np.shares_memory(ab, x) for x in (lap, a, h, b))
        hd, bd = dense(lap) + np.diag(h), np.diag(b)
        m = (hd - 1j * bd) @ (hd + 1j * bd)
        assert np.abs(dense(ab) - m).max() <= 1e-13 * np.abs(m).max()
        # its eigenvalues are the squares of the block operator's positive ones
        block = eigvalsh(assemble(hd, bd))
        assert np.allclose(eigvalsh(SquaredBand(ab)), block, rtol=0, atol=1e-12)


class TestGamma:
    def test_1d(self):
        assert np.array_equal(boundary_term(Cube(1, 3)), np.diag([1.0, 0.0, 1.0]))
        assert np.array_equal(boundary_term(Cube(1, 1)), np.diag([2.0]))

    def test_2d_row_major(self):
        assert np.array_equal(np.diagonal(boundary_term(Cube(2, 3))),
                              [2, 1, 2, 1, 0, 1, 2, 1, 2])


class TestAssemble:
    def test_3_4_5(self):
        m = assemble(np.array([[3.0]]), np.array([[4.0]]))
        assert np.allclose(eigvalsh(m), [-5, 5])

    def test_b_zero_decouples(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((5, 5))
        h = h + h.T
        ev = eigvalsh(assemble(h, np.zeros((5, 5))))
        hh = eigvalsh(h)
        assert np.allclose(ev, np.sort(np.concatenate([hh, -hh])), atol=1e-10)

    def test_h_zero_diag_b(self):
        b = np.diag([1.0, -2.0, 3.0])
        ev = eigvalsh(assemble(np.zeros((3, 3)), b))
        assert np.allclose(ev, [-3, -2, -1, 1, 2, 3], atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            assemble(np.zeros((2, 2)), np.zeros((3, 3)))


class TestAssembleBracketing:
    def test_reduces_to_assemble(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((4, 4))
        h = h + h.T
        b = np.diag(rng.standard_normal(4))
        assert np.array_equal(assemble_bracketing(h, h, b), assemble(h, b))

    def test_toy(self):
        m = assemble_bracketing(np.array([[3.0]]), np.array([[2.0]]), np.array([[1.0]]))
        assert np.array_equal(m, [[3.0, 1.0], [1.0, -2.0]])

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_matches_np_block(self, n):
        # bit for bit the np.block assembly, signed zeros of -H_bot included
        rng = np.random.default_rng(n)
        h_top, h_bot, b = (rng.standard_normal((n, n)) for _ in range(3))
        h_bot[0, 0] = 0.0
        b[-1, 0] = -0.0
        reference = np.block([[h_top, b], [b, -h_bot]])
        assert assemble_bracketing(h_top, h_bot, b).tobytes() == reference.tobytes()

    def test_interlacing_with_plain(self):
        # plus-variant eigenvalues dominate the others pointwise
        rng = np.random.default_rng(2)
        cube = Cube(1, 8)
        v = rng.uniform(0, 2, 8)
        hd = dense(laplacian(cube, BoundaryMode.DIRICHLET)) + np.diag(v)
        hn = dense(laplacian(cube, BoundaryMode.NEUMANN)) + np.diag(v)
        b = np.diag(rng.uniform(-1, 1, 8))
        ev_plus = eigvalsh(assemble_bracketing(hd, hn, b))
        ev_minus = eigvalsh(assemble_bracketing(hn, hd, b))
        for ev_mid in (eigvalsh(assemble(hd, b)), eigvalsh(assemble(hn, b))):
            assert np.all(ev_minus <= ev_mid + 1e-10)
            assert np.all(ev_mid <= ev_plus + 1e-10)


class TestTransforms:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.h = rng.standard_normal((6, 6))
        self.h = self.h + self.h.T
        self.b = rng.standard_normal((6, 6))
        self.b = self.b + self.b.T
        self.m = assemble(self.h, self.b)

    def test_u1_swaps_blocks(self):
        swapped = transform_u1(self.m)
        assert np.allclose(swapped, assemble(self.b, self.h), atol=1e-12)
        assert np.allclose(eigvalsh(swapped), eigvalsh(self.m), atol=1e-10)

    def test_u2_negates(self):
        assert np.allclose(transform_u2(self.m), -self.m, atol=1e-12)
        ev = eigvalsh(self.m)
        assert np.allclose(eigvalsh(transform_u2(self.m)), -ev[::-1], atol=1e-10)

    def test_u3_block_diagonalizes_square(self):
        out = transform_u3_square(self.m)
        n = 6
        assert np.abs(out[:n, n:]).max() < 1e-10
        assert np.abs(out[n:, :n]).max() < 1e-10
        comm = self.h @ self.b - self.b @ self.h
        k_minus = self.h @ self.h + self.b @ self.b - 1j * comm
        assert np.allclose(out[:n, :n], k_minus, atol=1e-10)

    def test_parity_example_from_path_graph(self):
        # 1-d cube, hopping Laplacian, b = 1: blocks are
        # adjacency ± parity; eigenvalues {-√3, -√3, -1, 1, √3, √3}
        cube = Cube(1, 3)
        delta = dense(laplacian(cube, BoundaryMode.ADJACENCY))
        m = assemble(delta, np.eye(3))
        u = np.diag(parities(cube))
        h_plus, h_minus = delta + u, delta - u
        expected = np.sort([-np.sqrt(3), -np.sqrt(3), -1, 1, np.sqrt(3), np.sqrt(3)])
        assert np.allclose(eigvalsh(m), expected, atol=1e-10)
        union = np.sort(np.concatenate([eigvalsh(h_plus), eigvalsh(h_minus)]))
        assert np.allclose(union, expected, atol=1e-10)
        # conjugated by [[1, U], [1, -U]] / √2, the matrix is block diagonal with those blocks
        uu = np.block([[np.eye(3), u], [np.eye(3), -u]]) / np.sqrt(2.0)
        conj = uu @ m @ uu.T
        assert np.abs(conj[:3, 3:]).max() < 1e-12
        assert np.allclose(conj[:3, :3], h_plus, atol=1e-12)
        assert np.allclose(conj[3:, 3:], h_minus, atol=1e-12)


class TestSquareIdentity:
    def test_commuting_pair(self):
        h = np.diag([1.0, 2.0, 3.0])
        b = np.diag([4.0, 5.0, 6.0])
        assert square_identity_residual(h, b) <= 1e-12 * (3 + 6) ** 2
        m = assemble(h, b)
        m2 = m @ m
        assert np.abs(m2[:3, 3:]).max() == 0

    def test_random_pair(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((8, 8))
        h = h + h.T
        b = rng.standard_normal((8, 8))
        b = b + b.T
        scale = (np.abs(eigvalsh(h)).max() + np.abs(eigvalsh(b)).max()) ** 2
        assert square_identity_residual(h, b) <= 1e-12 * scale

    def test_unequal_shapes_refused(self):
        with pytest.raises(ValueError, match="^H and B must have equal dimensions$"):
            square_identity_residual(np.eye(3), np.eye(2))

    def test_b_zero(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((4, 4))
        h = h + h.T
        m = assemble(h, np.zeros((4, 4)))
        assert np.allclose(m @ m, np.block([[h @ h, np.zeros((4, 4))],
                                            [np.zeros((4, 4)), h @ h]]), atol=1e-12)

