import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import randblock
from randblock.cli import main
from randblock.disorder import DensitySpec, DisorderModel
from randblock.eigen import (
    EigenError,
    SquaredBand,
    SymmetricBand,
    any_eigenvalue_below,
    backend_name,
    eigvalsh,
    flapack,
    min_eig_tridiag,
)
from randblock.lattice import Cube, PeriodicPotential
from randblock.operators import assemble, dense
from randblock.spectra import ExperimentConfig, base_matrices, run_ensemble
import reference

# the module the band solves look their drivers up on: where a failure is injected
LAPACK = flapack()


class TestEigvalsh:
    band = SymmetricBand(np.array([[3.0, -1.0, 2.0], [0.5, 0.5, 0.0]]))

    def test_swap_matrix(self):
        assert np.allclose(eigvalsh([[0.0, 1.0], [1.0, 0.0]]), [-1, 1], atol=1e-14)

    def test_diag(self):
        assert np.allclose(eigvalsh(np.diag([3.0, -1.0, 2.0])), [-1, 2, 3], atol=1e-14)

    def test_path_graph_closed_form(self):
        # adjacency of the n-path has eigenvalues 2 cos(k pi / (n+1))
        n = 12
        a = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        expected = np.sort(2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
        assert np.allclose(eigvalsh(a), expected, atol=1e-12)

    def test_3_4_5_block(self):
        m = assemble(np.array([[3.0]]), np.array([[4.0]]))
        assert np.allclose(eigvalsh(m), [-5, 5], atol=1e-13)

    def test_trace_preserved(self):
        rng = np.random.default_rng(1)
        for n in (3, 17, 60):
            m = rng.standard_normal((n, n))
            m = m + m.T
            scale = np.abs(m).max()
            assert abs(eigvalsh(m).sum() - np.trace(m)) < 1e-9 * n * scale

    def test_matches_reference_solver(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 5, 33, 101):
            m = rng.standard_normal((n, n))
            m = m + m.T
            got = eigvalsh(m)
            d, e, _ = reference.tridiagonalize(m, False)
            w, _, ok = reference.tql(d, e, None)
            assert ok
            ref = np.sort(w)
            assert np.abs(got - ref).max() < 1e-11 * max(1.0, np.abs(ref).max())

    def test_non_square(self):
        for shape in ((2, 3), (4, 2, 3), (3,)):
            with pytest.raises(ValueError, match="square"):
                eigvalsh(np.zeros(shape))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            eigvalsh(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            eigvalsh(SymmetricBand(np.array([[1.0, np.inf], [0.0, 0.0]])))

    def test_non_finite_in_one_matrix_of_a_stack(self):
        stack = np.stack([np.eye(3)] * 4)
        stack[2, 1, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            eigvalsh(stack)

    def test_stack_equals_matrices_one_by_one(self):
        rng = np.random.default_rng(5)
        for n in range(1, 65):
            stack = rng.standard_normal((3, n, n))
            stack += stack.transpose(0, 2, 1)
            w = eigvalsh(stack)
            assert w.shape == (3, n)
            for ev, m in zip(w, stack):
                assert ev.tobytes() == eigvalsh(m).tobytes()

    def test_returns_ascending_array_on_both_paths(self):
        for m in (dense(self.band.lower), self.band):
            w = eigvalsh(m)
            assert type(w) is np.ndarray and w.shape == (3,) and w.dtype == np.float64
            assert np.all(np.diff(w) >= 0)
        assert np.allclose(eigvalsh(self.band), eigvalsh(dense(self.band.lower)), atol=1e-14)

    # ids by the public module of each solver, whichever module LAPACK is
    @pytest.mark.parametrize("module, name, banded", [
        (np.linalg, "eigvalsh", False), (LAPACK, "dsbevd", True)],
        ids=["numpy.linalg-eigvalsh-False", "scipy.linalg.lapack-dsbevd-True"])
    def test_unsorted_lapack_result_raises(self, monkeypatch, module, name, banded):
        real = getattr(module, name)

        def reversed_eigenvalues(*args, **kwargs):
            out = real(*args, **kwargs)       # dsbevd returns (w, z, info)
            return (out[0][::-1], *out[1:]) if banded else out[::-1]

        monkeypatch.setattr(module, name, reversed_eigenvalues)
        with pytest.raises(EigenError, match="ascending"):
            eigvalsh(self.band if banded else dense(self.band.lower))

    def test_unsorted_result_in_one_matrix_of_a_stack_raises(self, monkeypatch):
        real = np.linalg.eigvalsh

        def last_reversed(m):
            w = real(m)
            w[-1] = w[-1, ::-1].copy()
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", last_reversed)
        with pytest.raises(EigenError, match="ascending"):
            eigvalsh(np.stack([dense(self.band.lower)] * 3))


class TestLapackFailure:
    """A LAPACK failure surfaces as EigenError, is counted per realization
    by run_ensemble, and is exit code 3 in the CLI.

    With V on [0, 1] no gap is certified, so the ensemble solves the block
    band with ``dsbevd`` (``LAPACK.dsbevd``), which is what these
    tests make fail; `test_dense_raises_eigen_error` covers ``dsyevd`` on
    dense input and the ``test_squared_*`` twins the ``zhbevd`` solve of a
    certified run (V on [1, 2]).  A failing banded driver returns
    ``info`` > 0 (no convergence), as LAPACK does; NumPy's dense solve
    raises LinAlgError."""

    ZHBEVD = (LAPACK, "zhbevd")

    def fail_on(self, monkeypatch, failing_calls, module=LAPACK, name="dsbevd"):
        real = getattr(module, name)
        calls = itertools.count()

        def flaky(a, **kwargs):
            if next(calls) not in failing_calls:
                return real(a, **kwargs)
            if module is np.linalg:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return np.zeros(a.shape[1]), np.zeros((0, 0)), 1

        monkeypatch.setattr(module, name, flaky)

    def config(self, realizations, v_lo=0.0):
        disorder = DisorderModel(DensitySpec.uniform(v_lo, v_lo + 1),
                                 DensitySpec.uniform(-0.5, 0.5))
        config = ExperimentConfig(Cube(1, 5), "N", disorder, PeriodicPotential.zero(1),
                                  realizations, 0)
        assert base_matrices(config).driver == ("zhbevd" if v_lo > 0 else "dsbevd")
        return config

    def write_config(self, tmp_path, v_lo=0.0, realizations=3):
        doc = {"schema_version": 1, "cube": {"dim": 1, "side": 5}, "boundary": "N",
               "disorder": {"V": {"type": "uniform", "lo": v_lo, "hi": v_lo + 1},
                            "b": {"type": "uniform", "lo": -0.5, "hi": 0.5}},
               "realizations": realizations, "seed": 0}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def assert_cli_exits_3(self, path, tmp_path, capsys):
        assert main(["ids", "--config", path, "--out", str(tmp_path), "--threads", "1"]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("numerical failure:")

    def test_eigvalsh_raises_eigen_error(self, monkeypatch):
        self.fail_on(monkeypatch, {0})
        with pytest.raises(EigenError, match="did not converge"):
            eigvalsh(SymmetricBand(np.vstack([np.ones(3), np.zeros((2, 3))])))

    def test_dense_raises_eigen_error(self, monkeypatch):
        self.fail_on(monkeypatch, {0}, np.linalg, "eigvalsh")
        with pytest.raises(EigenError, match="did not converge"):
            eigvalsh(np.eye(3))

    def test_ensemble_records_failed_index(self, monkeypatch):
        self.fail_on(monkeypatch, {7})   # serial runs solve in index order
        result = run_ensemble(self.config(100))
        assert result.failures == [7]
        assert 7 not in result.realization_ids
        assert len(result.spectra) == 99

    def test_ensemble_raises_above_one_percent(self, monkeypatch):
        self.fail_on(monkeypatch, {3, 50})
        with pytest.raises(EigenError, match="2 of 100"):
            run_ensemble(self.config(100))

    @pytest.mark.parametrize("v_lo, name", [(0.0, "dsbevd"), (1.0, "zhbevd")])
    def test_failure_in_second_chunk_recorded(self, monkeypatch, v_lo, name):
        # 131 realizations make chunks of 44, 44 and 43; index 70 is in the second
        self.fail_on(monkeypatch, {70}, LAPACK, name)
        result = run_ensemble(self.config(2 * 64 + 3, v_lo))
        assert result.failures == [70]
        assert result.realization_ids == [r for r in range(2 * 64 + 3) if r != 70]

    def test_manifest_records_failed_indices(self, tmp_path, monkeypatch):
        path = self.write_config(tmp_path, realizations=2 * 64 + 3)
        self.fail_on(monkeypatch, {70})
        assert main(["ids", "--config", path, "--out", str(tmp_path), "--threads", "1"]) == 0
        manifest = json.loads((tmp_path / "ids_manifest.json").read_text())
        assert manifest["failed_realizations"] == 1
        assert manifest["failed_indices"] == [70]

    def test_cli_exits_3_with_one_line(self, tmp_path, monkeypatch, capsys):
        path = self.write_config(tmp_path)
        self.fail_on(monkeypatch, set(range(3)))
        self.assert_cli_exits_3(path, tmp_path, capsys)

    def test_squared_raises_eigen_error(self, monkeypatch):
        self.fail_on(monkeypatch, {0}, *self.ZHBEVD)
        with pytest.raises(EigenError, match="did not converge"):
            eigvalsh(SquaredBand(np.ones((1, 3), dtype=complex)))

    def test_squared_nonzero_info_raises_eigen_error(self, monkeypatch):
        monkeypatch.setattr(LAPACK, "zhbevd",
                            lambda ab, **kwargs: (np.ones(ab.shape[1]), None, 2))
        with pytest.raises(EigenError, match="info = 2"):
            eigvalsh(SquaredBand(np.ones((1, 3), dtype=complex)))

    def test_squared_ensemble_records_failed_index(self, monkeypatch):
        self.fail_on(monkeypatch, {7}, *self.ZHBEVD)
        result = run_ensemble(self.config(100, v_lo=1.0))
        assert result.failures == [7]
        assert 7 not in result.realization_ids
        assert len(result.spectra) == 99

    def test_squared_cli_exits_3_with_one_line(self, tmp_path, monkeypatch, capsys):
        path = self.write_config(tmp_path, v_lo=1.0)
        self.fail_on(monkeypatch, set(range(3)), *self.ZHBEVD)
        self.assert_cli_exits_3(path, tmp_path, capsys)


class TestSquaredBand:
    """The ``zhbevd`` solve of a block operator's square M."""

    def test_spectrum_is_signed_roots(self):
        # M = diag(4, 1, 9) stands for a block operator with spectrum {±1, ±2, ±3}
        band = SquaredBand(np.array([[4.0, 1.0, 9.0]], dtype=complex))
        w = eigvalsh(band)
        assert type(w) is np.ndarray and w.dtype == np.float64
        assert np.array_equal(w, [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])

    def test_hermitian_band_matches_dense(self):
        rng = np.random.default_rng(8)
        n = 9
        lower = np.zeros((3, n), dtype=complex)
        lower[0] = rng.uniform(6, 8, n)
        lower[1:] = rng.uniform(-1, 1, (2, n)) + 1j * rng.uniform(-1, 1, (2, n))
        band = SquaredBand(lower)
        mu = np.linalg.eigvalsh(dense(band.lower))
        assert mu[0] > 0
        root = np.sqrt(mu)
        assert np.allclose(eigvalsh(band), np.concatenate([-root[::-1], root]),
                           rtol=0, atol=1e-13)

    @pytest.mark.parametrize("diagonal", [[4.0, -1.0, 9.0], [4.0, 0.0, 9.0]],
                             ids=["negative", "zero"])
    def test_non_positive_eigenvalue_raises(self, diagonal):
        with pytest.raises(EigenError, match="not finite and positive"):
            eigvalsh(SquaredBand(np.array([diagonal], dtype=complex)))

    def test_non_finite_lapack_result_raises(self, monkeypatch):
        monkeypatch.setattr(LAPACK, "zhbevd",
                            lambda ab, **kwargs: (np.array([1.0, np.nan, 4.0]), None, 0))
        with pytest.raises(EigenError, match="not finite and positive"):
            eigvalsh(SquaredBand(np.ones((1, 3), dtype=complex)))

    def test_storage_checked(self):
        with pytest.raises(ValueError, match="complex128"):
            SquaredBand(np.ones((1, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            eigvalsh(SquaredBand(np.array([[1.0, np.inf]], dtype=complex)))

    def test_storage_left_unchanged(self):
        lower = np.array([[5.0, 6.0, 7.0], [1.0 + 1.0j, 0.5j, 0.0]])
        kept = lower.copy()
        eigvalsh(SquaredBand(lower))
        assert np.array_equal(lower, kept)


class TestSturm:
    def test_counts_match_dense(self):
        # the in-house count, the oracle of the batched bisection, against LAPACK
        rng = np.random.default_rng(3)
        n = 30
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        m = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        ev = eigvalsh(m)
        for x in rng.uniform(ev[0] - 0.5, ev[-1] + 0.5, 20):
            assert reference.sturm_count(d, e, x) == int(np.sum(ev < x))

    def test_min_eig_examples(self):
        got = min_eig_tridiag([[2.0, -3.0, 5.0]], np.zeros(2), 1e-10)
        assert got == pytest.approx([-3.0], abs=1e-9)
        assert min_eig_tridiag([[0.0, 0.0]], [1.0], 1e-10) == pytest.approx([-1.0], abs=1e-9)

    def test_min_eig_matches_full_solve(self):
        rng = np.random.default_rng(4)
        n = 50
        d = rng.uniform(0, 2, n) + 2.0
        e = -np.ones(n - 1)
        m = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        assert min_eig_tridiag(d[None], e, 1e-10) == pytest.approx(
            [eigvalsh(m)[0]], abs=1e-9)


def _scalar_min_eig(d, e, tol, visited):
    """One-matrix Sturm bisection on the in-house count, as a reference."""
    radius = np.zeros_like(d)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lo = float(np.min(d - radius))
    hi = np.nextafter(float(np.max(d + radius)), np.inf)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        visited.append(mid)
        if reference.sturm_count(d, e, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestBatchedBisection:
    def test_rows_equal_scalar_bisection(self):
        rng = np.random.default_rng(8)
        e = np.full(2, 0.5)
        # row 0: the bisection visits x = 2.0, where the first pivot is exactly 0
        d = np.vstack([[2.0, 2.0, 2.0], rng.uniform(-2, 2, (40, 3)), [[-1.0, 0.0, 2.0]]])
        for tol in (1e-8, 1e-10, 0.5):
            batched = min_eig_tridiag(d, e, tol)
            visited = []
            scalar = np.array([_scalar_min_eig(row, e, tol, visited if r == 0 else [])
                               for r, row in enumerate(d)])
            assert np.array_equal(batched, scalar)
        assert 2.0 in visited

    def test_row_equals_row_alone(self):
        # the batch is a pure speed-up: each row converges as it would alone
        rng = np.random.default_rng(9)
        d, e = rng.uniform(0, 3, (5, 12)), -np.ones(11)
        batched = min_eig_tridiag(d, e, 1e-8)
        assert np.array_equal(batched, [min_eig_tridiag(row[None], e, 1e-8)[0] for row in d])

    def test_one_by_one_and_bad_shapes(self):
        got = min_eig_tridiag(np.array([[3.0], [-1.0]]), np.zeros(0), 1e-12)
        assert got == pytest.approx([3.0, -1.0], abs=1e-12)
        with pytest.raises(ValueError):
            min_eig_tridiag(np.zeros((2, 3)), np.zeros(3), 1e-10)
        with pytest.raises(ValueError):
            min_eig_tridiag(np.array([2.0, -3.0, 5.0]), np.zeros(2), 1e-10)


class TestAnyEigenvalueBelow:
    def test_matches_sturm_count_oracle(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 7, 30):
            d = rng.uniform(-2, 2, (40, n))
            e = rng.standard_normal(n - 1)
            for x in rng.uniform(-4, 4, 5):
                expected = [reference.sturm_count(row, e, x) > 0 for row in d]
                assert np.array_equal(any_eigenvalue_below(d, e, x), expected)
            xs = rng.uniform(-4, 4, len(d))
            expected = [reference.sturm_count(row, e, x) > 0 for row, x in zip(d, xs)]
            assert np.array_equal(any_eigenvalue_below(d, e, xs), expected)

    def test_zero_first_pivot(self):
        # at x = 2.0 the first pivot of (2, 2, 2) is exactly 0 and is perturbed
        # as the oracle perturbs it; the smallest eigenvalue is 2 - 0.5·√2
        d, e = np.array([[2.0, 2.0, 2.0]]), np.full(2, 0.5)
        assert reference.sturm_count(d[0], e, 2.0) == 1
        assert np.array_equal(any_eigenvalue_below(d, e, 2.0), [True])
        assert np.array_equal(any_eigenvalue_below(d, e, 2.0 - 0.5 * np.sqrt(2) - 1e-9), [False])

    def test_bad_shapes(self):
        d, e = np.zeros((4, 3)), np.zeros(2)
        for bad_d, bad_e, x in ((np.zeros(3), e, 0.0),          # unstacked diagonal
                                (d, np.zeros(3), 0.0),          # e too long
                                (np.zeros((4, 0)), np.zeros(0), 0.0),   # empty rows
                                (d, e, np.zeros(5)),            # one x too many
                                (d, e, np.zeros((4, 1)))):      # x not flat
            with pytest.raises(ValueError):
                any_eigenvalue_below(bad_d, bad_e, x)


class TestCounting:
    def test_monotone_under_ordering(self):
        # A <= B in quadratic-form order implies pointwise #{λ(A) <= x} >= #{λ(B) <= x},
        # counted as the ensemble counts them
        rng = np.random.default_rng(5)
        n = 10
        a = rng.standard_normal((n, n))
        a = a + a.T
        bump = rng.standard_normal((n, 3))
        b = a + bump @ bump.T
        ea, eb = eigvalsh(a), eigvalsh(b)
        x = np.linspace(-8, 8, 33)
        assert np.all(np.searchsorted(ea, x, side="right") >= np.searchsorted(eb, x, side="right"))


def test_backend_name_valid():
    assert backend_name() == "lapack"


def test_python_kernels_agree_with_active_backend():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((24, 24))
    m = m + m.T
    d, e, q = reference.tridiagonalize(m.copy(), True)
    w, _, ok = reference.tql(d, e, q)
    assert ok
    assert np.allclose(np.sort(w), eigvalsh(m), atol=1e-11)


def _run_child(code, **env_vars):
    # The child inherits the parent's environment and is pointed at the very
    # package imported here, so it runs the same way from a checkout
    # (PYTHONPATH=src), from an install and from any working directory.
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(randblock.__file__).resolve().parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg and the process pool are most of the CLI's start-up, and
    # only band solves and pooled runs need them.  A patch of the loaded
    # module's dsbevd, as TestLapackFailure makes, must reach the band solve.
    # A stale RANDBLOCK_FORCE_PY in the environment must not change the solver.
    _run_child(textwrap.dedent("""
        import sys
        import numpy as np
        import randblock.cli
        for name in ("scipy.linalg", "concurrent.futures.process"):
            assert name not in sys.modules, f"{name} loaded by import randblock.cli"
        from randblock.eigen import EigenError, SymmetricBand, backend_name, eigvalsh, flapack
        assert backend_name() == "lapack"
        assert np.allclose(eigvalsh(np.array([[0., 1.], [1., 0.]])), [-1, 1])
        def fail(ab, **kwargs):
            return np.zeros(ab.shape[1]), np.zeros((0, 0)), 1   # did not converge
        flapack().dsbevd = fail
        try:
            eigvalsh(SymmetricBand(np.ones((1, 3))))
        except EigenError:
            pass
        else:
            raise AssertionError("the patched banded solver was not called")
    """), RANDBLOCK_FORCE_PY="1")


class TestFlapackLoader:
    """`flapack` loads SciPy's compiled LAPACK wrappers without
    ``scipy.linalg``'s package init, each case in a fresh interpreter."""

    def test_ensemble_commands_leave_scipy_linalg_unloaded(self, tmp_path):
        config = Path(__file__).parents[1] / "configs" / "example.json"
        _run_child(textwrap.dedent(f"""
            import sys
            from randblock.cli import main
            args = ["--config", {str(config)!r}, "--out", {str(tmp_path)!r}, "--quiet"]
            for command in ("ids", "dos", "gap", "wegner"):
                assert main([command, *args, "--threads", "1"]) == 0, command
            assert main(["ids", *args, "--threads", "2"]) == 0
            assert "scipy.linalg" not in sys.modules, "scipy.linalg loaded by an ensemble"
            assert "scipy.linalg._flapack" in sys.modules
        """))

    def test_same_drivers_as_scipy_linalg_lapack(self):
        _run_child(textwrap.dedent("""
            from randblock.eigen import flapack
            loaded = flapack()
            import scipy.linalg
            assert loaded.zhbevd is scipy.linalg.lapack.zhbevd
            assert loaded.dsbevd is scipy.linalg.lapack.dsbevd
            assert flapack() is loaded
        """))

    def test_falls_back_to_scipy_linalg_lapack(self):
        rng = np.random.default_rng(3)
        lower = rng.uniform(-1, 1, (3, 9))
        square = lower[:2] + 1j * lower[1:]
        square[0] = 6 + lower[0]
        expected = [eigvalsh(SymmetricBand(lower)).tolist(),
                    eigvalsh(SquaredBand(square)).tolist()]
        _run_child(textwrap.dedent(f"""
            import importlib.machinery
            import numpy as np
            importlib.machinery.EXTENSION_SUFFIXES = []   # the file search finds nothing
            from randblock.eigen import SquaredBand, SymmetricBand, eigvalsh, flapack
            loaded = flapack()
            import scipy.linalg.lapack
            assert loaded is scipy.linalg.lapack
            rng = np.random.default_rng(3)
            lower = rng.uniform(-1, 1, (3, 9))
            square = lower[:2] + 1j * lower[1:]
            square[0] = 6 + lower[0]
            got = [eigvalsh(SymmetricBand(lower)).tolist(), eigvalsh(SquaredBand(square)).tolist()]
            assert got == {expected!r}, got
        """))
