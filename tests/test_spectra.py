import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import randblock
import randblock.spectra
from randblock.disorder import ConstantValue, DensitySpec, DisorderModel
from randblock.eigen import eigvalsh
from randblock.lattice import Cube, PeriodicPotential
from randblock.operators import block_half_bandwidth
from randblock.spectra import (
    ExperimentConfig,
    ZeroSplitAnomaly,
    band_driver,
    base_matrices,
    build_block,
    default_grid,
    peak_bytes,
    pool_workers,
    realization_band,
    realization_fields,
    run_ensemble,
    symmetry_residual,
    zero_split_check,
)


def make_config(side=5, boundary="N", mu_v=None, mu_b=None, realizations=3,
                seed=0, **kw):
    cube = Cube(1, side)
    disorder = DisorderModel(mu_v or DensitySpec.uniform(1, 2),
                             mu_b or DensitySpec.uniform(-0.5, 0.5))
    return ExperimentConfig(cube, boundary, disorder,
                            PeriodicPotential.zero(1), realizations, seed, **kw)


class TestCleanSpectrum:
    def test_free_neumann_l3(self):
        # V = 0, b = 0, L = 3, Neumann: H = -Delta_N has eigenvalues {0, 1, 3},
        # so the block spectrum is {-3, -1, 0, 0, 1, 3}
        cfg = make_config(side=3, mu_v=ConstantValue(0.0), mu_b=ConstantValue(0.0),
                          realizations=1)
        v, b = realization_fields(cfg, 0)
        ev = eigvalsh(build_block(cfg, v, b))
        assert np.allclose(ev, [-3, -1, 0, 0, 1, 3], atol=1e-12)


class TestDeterminism:
    def test_serial_reproducible(self):
        r1 = run_ensemble(make_config())
        r2 = run_ensemble(make_config())
        for a, b in zip(r1.spectra, r2.spectra):
            assert np.array_equal(a, b)
        assert np.array_equal(r1.ids_mean, r2.ids_mean)

    def test_parallel_matches_serial(self):
        # side 201 is the c08 size: the 402 x 402 solve is large enough for
        # OpenBLAS to thread, which side 5 never is
        for side in (5, 201):
            serial = run_ensemble(make_config(side=side, realizations=4))
            parallel = run_ensemble(make_config(side=side, realizations=4, threads=2))
            assert len(serial.spectra) == len(parallel.spectra) == 4
            for a, b in zip(serial.spectra, parallel.spectra):
                assert np.array_equal(a, b)

    def test_fields_independent_of_realization_count(self):
        a = realization_fields(make_config(realizations=2), 1)
        b = realization_fields(make_config(realizations=8), 1)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestPoolWorkers:
    @pytest.mark.parametrize("cpus, threads, workers", [
        (4, 64, 4), (8, 3, 3), (1, 8, 0), (None, 64, 0), (2, 1, 0)])
    def test_capped_at_cpu_count(self, monkeypatch, cpus, threads, workers):
        started = []

        class FakePool:
            # records the pool size and maps in this process: no worker starts
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(randblock.spectra, "ProcessPoolExecutor", FakePool)
        cfg = make_config(realizations=3, threads=threads)
        assert pool_workers(cfg) == workers
        assert peak_bytes(cfg) == peak_bytes(replace(cfg, threads=max(workers, 1)))
        result = run_ensemble(cfg)
        assert started == ([workers] if workers else [])
        assert np.array_equal(result.ids_mean, run_ensemble(replace(cfg, threads=1)).ids_mean)


class TestBandedSolve:
    """The ensemble's banded operator against the natural-order dense block."""

    @pytest.mark.parametrize("dim, side", [(1, 5), (1, 33), (2, 5), (2, 16), (3, 3)])
    @pytest.mark.parametrize("boundary", ["D", "N", "+", "-"])
    def test_matches_dense(self, dim, side, boundary):
        background = PeriodicPotential((2,) * dim, np.linspace(0, 0.7, 2**dim).reshape((2,) * dim))
        cfg = ExperimentConfig(Cube(dim, side, centered=True), boundary,
                               DisorderModel(DensitySpec.uniform(1, 2), DensitySpec.uniform(-0.5, 0.5)),
                               background, 2, 17)
        assert block_half_bandwidth(cfg.cube) == max(2 * side ** (dim - 1), 1)
        result = run_ensemble(cfg)
        for r, ev in zip(result.realization_ids, result.spectra):
            v, b = realization_fields(cfg, r)
            dense = eigvalsh(build_block(cfg, v, b))
            scale = np.abs(dense).max()
            assert np.abs(ev - dense).max() <= 1e-12 * scale
            assert np.array_equal(np.searchsorted(ev, result.grid, side="right"),
                                  np.searchsorted(dense, result.grid, side="right"))

    def test_thread_count_invariant(self):
        # dsbevd gives the same bits with 1 and 2 OpenBLAS threads on the c08 size
        code = (
            "import hashlib, numpy as np;"
            "from randblock.disorder import DensitySpec, DisorderModel;"
            "from randblock.lattice import Cube, PeriodicPotential;"
            "from randblock.spectra import ExperimentConfig, run_ensemble;"
            "cfg = ExperimentConfig(Cube(1, 201), 'N', DisorderModel(DensitySpec.uniform(1, 2),"
            " DensitySpec.uniform(-0.5, 0.5)), PeriodicPotential.zero(1), 3, 5);"
            "print(hashlib.sha256(np.array(run_ensemble(cfg).spectra).tobytes()).hexdigest())"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(randblock.__file__).resolve().parent.parent)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        digests = {threads: subprocess.run([sys.executable, "-c", code], check=True,
                                           capture_output=True, text=True,
                                           env=dict(env, OPENBLAS_NUM_THREADS=threads)).stdout
                   for threads in ("1", "2")}
        assert digests["1"] == digests["2"] != ""

    def test_thread_count_invariant_on_the_block(self):
        # the c08 size above takes the square (zhbevd); bracketing keeps the
        # dsbevd block solve, which must give the same bits too
        code = (
            "import hashlib, numpy as np;"
            "from randblock.disorder import DensitySpec, DisorderModel;"
            "from randblock.lattice import Cube, PeriodicPotential;"
            "from randblock.spectra import ExperimentConfig, run_ensemble;"
            "cfg = ExperimentConfig(Cube(1, 201), '+', DisorderModel(DensitySpec.uniform(1, 2),"
            " DensitySpec.uniform(-0.5, 0.5)), PeriodicPotential.zero(1), 3, 5);"
            "result = run_ensemble(cfg); assert result.driver == 'dsbevd';"
            "print(hashlib.sha256(np.array(result.spectra).tobytes()).hexdigest())"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(randblock.__file__).resolve().parent.parent)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        digests = {threads: subprocess.run([sys.executable, "-c", code], check=True,
                                           capture_output=True, text=True,
                                           env=dict(env, OPENBLAS_NUM_THREADS=threads)).stdout
                   for threads in ("1", "2")}
        assert digests["1"] == digests["2"] != ""


class TestCleanPart:
    """The clean part is built once per run and never written to."""

    @pytest.mark.parametrize("boundary", ["N", "+"], ids=["square", "block"])
    def test_realizations_share_no_storage(self, boundary):
        cfg = make_config(side=9, boundary=boundary)
        clean = base_matrices(cfg)
        first, second = (realization_band(clean, *realization_fields(cfg, r)) for r in (0, 1))
        assert not np.shares_memory(first.lower, second.lower)
        for a in (clean.top, clean.bot, clean.u0):
            assert not np.shares_memory(first.lower, a) and not a.flags.writeable

    @pytest.mark.parametrize("boundary", ["N", "+"], ids=["square", "block"])
    def test_run_leaves_clean_part_unchanged(self, boundary, monkeypatch):
        cfg = make_config(side=9, boundary=boundary)
        used = []

        def recording(config):
            used.append(base_matrices(config))
            return used[-1]

        monkeypatch.setattr(randblock.spectra, "base_matrices", recording)
        run_ensemble(cfg)
        fresh = base_matrices(cfg)
        for name in ("top", "bot", "u0"):
            assert np.array_equal(getattr(used[0], name), getattr(fresh, name))


class TestBandDriver:
    """Which band each run solves: the square M on certified D/N runs, the
    block everywhere else."""

    @pytest.mark.parametrize("boundary", ["D", "N"])
    def test_certified_gap_takes_square(self, boundary):
        cfg = make_config(side=9, boundary=boundary)
        clean = base_matrices(cfg)
        assert clean.driver == "zhbevd" and clean.radius == 6.5
        result = run_ensemble(cfg)
        assert (result.driver, result.half_bandwidth) == ("zhbevd", 2)

    @pytest.mark.parametrize("kw", [
        {"boundary": "+"},
        {"boundary": "-"},
        {"mu_v": DensitySpec.uniform(0, 1)},                # floor 0
        {"mu_v": DensitySpec.uniform(-1, 1)},               # floor -1
        {"mu_v": DensitySpec.uniform(0.05, 0.1)},           # floor 0.05 < rho/64 = 0.072
        {"laplacian_sign": 1},
    ], ids=["plus", "minus", "floor-zero", "floor-negative", "floor-below-rho-64", "sign-plus"])
    def test_others_stay_on_block(self, kw):
        cfg = make_config(side=9, **kw)
        assert base_matrices(cfg).driver == "dsbevd"
        result = run_ensemble(cfg)
        assert (result.driver, result.half_bandwidth) == ("dsbevd", 2)

    def test_threshold_is_rho_over_64(self):
        cfg = make_config(mu_v=DensitySpec.uniform(0.5, 1))
        assert band_driver(cfg, 32.0) == "zhbevd"
        assert band_driver(cfg, np.nextafter(32.0, np.inf)) == "dsbevd"

    @pytest.mark.parametrize("dim, side", [(1, 33), (2, 8)])
    @pytest.mark.parametrize("boundary", ["D", "N"])
    def test_square_accurate_at_the_lowest_floor(self, dim, side, boundary):
        # the least certified floor the square is taken at, lambda = rho/64: its
        # error stays within eps·rho²/lambda of the dense block solve
        mu_b = DensitySpec.uniform(-0.5, 0.5)
        probe = ExperimentConfig(Cube(dim, side), boundary, DisorderModel(
            DensitySpec.uniform(0.0, 0.05), mu_b), PeriodicPotential.zero(dim), 3, 23)
        # shifting V's support to [lam, lam + 0.05] raises rho by lam, so this
        # lam sits just above rho/64
        lam = (base_matrices(probe).radius + 0.05) / 63
        cfg = replace(probe, disorder=DisorderModel(DensitySpec.uniform(lam, lam + 0.05), mu_b))
        clean = base_matrices(cfg)
        assert clean.driver == "zhbevd" and lam < clean.radius / 63
        result = run_ensemble(cfg)
        bound = np.finfo(float).eps * clean.radius**2 / lam
        for r, ev in zip(result.realization_ids, result.spectra):
            dense = eigvalsh(build_block(cfg, *realization_fields(cfg, r)))
            assert np.abs(ev - dense).max() <= bound


class TestEnsembleStatistics:
    def setup_method(self):
        self.result = run_ensemble(make_config(side=9, realizations=10, seed=3))

    def test_ids_monotone_zero_to_one(self):
        ids = self.result.ids_mean
        assert np.all(np.diff(ids) >= 0)
        assert ids[0] == 0.0 and ids[-1] == 1.0

    def test_ids_zero_below_inclusion_bound(self):
        # spec(block) within [-|H|-|B|, |H|+|B|]; grid margin puts zeros outside
        grid = self.result.grid
        lo_mask = grid < -20
        assert np.all(self.result.ids_mean[grid < self.result.grid[0] + 0.1] == 0)
        assert not np.any(lo_mask) or np.all(self.result.ids_mean[lo_mask] == 0)

    def test_dos_integrates_to_one(self):
        width = np.diff(self.result.dos_centers).mean()
        assert self.result.dos_density.sum() * width == pytest.approx(1.0, rel=1e-9)

    def test_dos_roughly_even(self):
        # spectra are exactly symmetric, so mirrored bins agree within noise
        centers, dens, err = (self.result.dos_centers, self.result.dos_density,
                              self.result.dos_stderr)
        for c, d, s in zip(centers, dens, err):
            j = np.argmin(np.abs(centers + c))
            tol = 2 * (s + err[j]) + 1e-12
            if abs(centers[j] + c) < 0.5 * np.diff(centers).mean():
                assert abs(d - dens[j]) <= tol + 0.5 * max(d, dens[j])

    def test_symmetry_residual_small(self):
        for ev in self.result.spectra:
            assert symmetry_residual(ev) < 1e-9 * np.abs(ev).max()


class TestGapEstimate:
    def test_uniform_v_and_b(self):
        # V in [1,2], b in [0.5,1]: gap at least sqrt(1 + 0.25)
        cfg = make_config(side=7, mu_v=DensitySpec.uniform(1, 2),
                          mu_b=DensitySpec.uniform(0.5, 1), realizations=8, seed=1)
        gap = run_ensemble(cfg).gap_per_realization.min()
        assert gap >= np.sqrt(1.25) - 1e-12

    def test_constant_b(self):
        cfg = make_config(side=7, mu_v=DensitySpec.uniform(-1, 1),
                          mu_b=ConstantValue(0.75), realizations=8, seed=2)
        gap = run_ensemble(cfg).gap_per_realization.min()
        assert gap >= 0.75 - 1e-12

    def test_b_zero_positive_h(self):
        cfg = make_config(side=7, mu_v=DensitySpec.uniform(1, 2),
                          mu_b=ConstantValue(0.0), realizations=8, seed=3)
        gap = run_ensemble(cfg).gap_per_realization.min()
        assert gap >= 1.0 - 1e-12


class TestZeroSplit:
    def test_balanced(self):
        assert zero_split_check(np.array([-2.0, -1.0, 1.0, 2.0]))

    def test_toy_bracketing_unbalanced(self):
        # [[3, 1], [1, -2]] has eigenvalues (1 ± sqrt(29))/2: one of each sign,
        # still balanced; shifting makes it unbalanced
        ev = eigvalsh(np.array([[3.0, 1.0], [1.0, -2.0]]))
        assert zero_split_check(ev)
        assert not zero_split_check(ev + 3.0)

    def test_anomaly(self):
        with pytest.raises(ZeroSplitAnomaly):
            zero_split_check(np.array([-1.0, 1e-12, 1e-10, 1.0]))

    def test_odd_length(self):
        with pytest.raises(ValueError):
            zero_split_check(np.array([-1.0, 0.5, 1.0]))


class TestSymmetryResidual:
    def test_exact(self):
        assert symmetry_residual(np.array([-2.0, -1.0, 1.0, 2.0])) == 0.0
        assert symmetry_residual(np.array([-1.0, 1.5])) == 0.5

    def test_refuses_bracketing(self):
        for bnd in ("+", "-"):
            with pytest.raises(ValueError):
                symmetry_residual(np.array([-1.0, 1.0]), boundary=bnd)


class TestBracketingSandwich:
    def test_counting_chain_per_realization(self):
        cfg = make_config(side=6, realizations=5, seed=4)
        results = {b: run_ensemble(replace(cfg, boundary=b)) for b in ("+", "D", "N", "-")}
        grid = np.linspace(-6, 6, 41)
        for r in range(5):
            n_of = {b: np.searchsorted(results[b].spectra[r], grid, side="right")
                    for b in results}
            assert np.all(n_of["+"] <= n_of["D"])
            assert np.all(n_of["+"] <= n_of["N"])
            assert np.all(n_of["D"] <= n_of["-"])
            assert np.all(n_of["N"] <= n_of["-"])


class TestConfigValidation:
    def test_bad_boundary(self):
        with pytest.raises(ValueError):
            make_config(boundary="X")

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            make_config(grid_lo=1.0)
        with pytest.raises(ValueError):
            make_config(grid_lo=1.0, grid_hi=0.0)

    def test_explicit_grid_used(self):
        cfg = make_config(grid_lo=-2.0, grid_hi=2.0, grid_points=5)
        assert np.array_equal(default_grid(cfg, base_matrices(cfg)), np.linspace(-2, 2, 5))
