import concurrent.futures
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import randblock
import randblock.spectra
from randblock.disorder import ConstantValue, DensitySpec, DisorderModel, SeedPolicy, sample_iid
from randblock.eigen import EigenError, eigvalsh
from randblock.lattice import Cube, PeriodicPotential
from randblock.operators import (BoundaryMode, assemble_bracketing, block_half_bandwidth,
                                 dense, laplacian)
from randblock.spectra import (
    ExperimentConfig,
    ZeroSplitAnomaly,
    band_driver,
    base_matrices,
    build_block,
    dense_blocks,
    _chunk_count,
    _chunks,
    _grid_tolerance,
    _grid_windows,
    _ids_from_moments,
    _solve_chunk,
    default_grid,
    ensemble_fields,
    peak_bytes,
    pool_workers,
    realization_fields,
    run_ensemble,
    symmetry_residual,
    usable_cpus,
    zero_split_check,
)
from reference import ids_from_counts


def set_cpus(monkeypatch, cpus: int) -> None:
    """Let this process run on ``cpus`` CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


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


class TestDenseBlocks:
    @pytest.mark.parametrize("dim, side", [(1, 7), (2, 4), (3, 3)])
    def test_each_distinct_laplacian_made_dense_once(self, monkeypatch, dim, side):
        cube = Cube(dim, side)
        rng = np.random.default_rng(dim)
        h, b = rng.uniform(1, 2, cube.n_sites), rng.uniform(-0.5, 0.5, cube.n_sites)
        alone = {bnd: dense_blocks(cube, h, b, (bnd,))[0] for bnd in ("+", "-", "D", "N")}
        made = []
        to_dense = randblock.spectra.dense
        monkeypatch.setattr(randblock.spectra, "dense",
                            lambda lower: made.append(lower) or to_dense(lower))
        blocks = dense_blocks(cube, h, b, tuple(alone))
        assert len(made) == 2       # the Dirichlet and the Neumann Laplacian
        # sharing them changes no bit of any block
        assert [m.tobytes() for m in blocks] == [m.tobytes() for m in alone.values()]
        made.clear()
        dense_blocks(cube, h, b, ("D",))
        assert len(made) == 1


class TestDeterminism:
    def test_serial_reproducible(self):
        r1 = run_ensemble(make_config())
        r2 = run_ensemble(make_config())
        for a, b in zip(r1.spectra, r2.spectra):
            assert np.array_equal(a, b)
        assert np.array_equal(r1.ids_mean, r2.ids_mean)

    def test_parallel_matches_serial(self, monkeypatch):
        # side 201 is the c08 size: the 402 x 402 solve is large enough for
        # OpenBLAS to thread, which side 5 never is.  Two workers start
        # whatever the machine's CPU count, and 131 realizations make four
        # chunks, two for each.
        set_cpus(monkeypatch, 2)
        for side in (5, 201):
            pooled = make_config(side=side, realizations=2 * 64 + 3, threads=2)
            assert pool_workers(pooled) == 2
            serial = run_ensemble(replace(pooled, threads=1))
            parallel = run_ensemble(pooled)
            assert len(serial.spectra) == len(parallel.spectra) == 2 * 64 + 3
            for a, b in zip(serial.spectra, parallel.spectra):
                assert np.array_equal(a, b)

    def test_fields_independent_of_realization_count(self):
        a = realization_fields(make_config(realizations=2), 1)
        b = realization_fields(make_config(realizations=8), 1)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@pytest.fixture
def started_pools(monkeypatch):
    """The sizes of the thread pools `run_ensemble` starts; each pool maps
    on the calling thread, so no worker starts."""
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    # run_ensemble imports the pool class from here when it starts one
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", FakePool)
    return started


class TestPoolWorkers:
    @pytest.mark.parametrize("cpus, threads, workers", [
        (4, 64, 4), (8, 3, 3), (1, 8, 0), (2, 1, 0)])
    def test_capped_at_usable_cpus(self, monkeypatch, started_pools, cpus, threads, workers):
        set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)     # not the CPUs it may use
        # more realizations than any row's workers
        cfg = make_config(realizations=5, threads=threads)
        assert pool_workers(cfg) == workers
        single = replace(cfg, threads=max(workers, 1))
        assert peak_bytes(cfg, pool_workers(cfg)) == peak_bytes(single, pool_workers(single))
        result = run_ensemble(cfg)
        assert started_pools == ([workers] if workers else [])
        assert np.array_equal(result.ids_mean, run_ensemble(replace(cfg, threads=1)).ids_mean)

    @pytest.mark.parametrize("realizations, workers", [(1, 0), (2, 2), (3, 3)])
    def test_capped_at_realization_count(self, monkeypatch, started_pools, realizations,
                                         workers):
        set_cpus(monkeypatch, 8)
        cfg = make_config(realizations=realizations, threads=8)
        assert pool_workers(cfg) == workers
        run_ensemble(cfg)
        assert started_pools == ([workers] if workers else [])

    @pytest.mark.parametrize("cpu_count, cpus", [(3, 3), (None, 1)])
    def test_cpu_count_without_affinity(self, monkeypatch, cpu_count, cpus):
        # where the system has no affinity mask, the CPU count, or one if unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert usable_cpus() == cpus

    @pytest.mark.parametrize("threads, reads", [(1, 0), (4, 1)])
    def test_usable_cpus_read_once_per_run(self, monkeypatch, threads, reads):
        # read once per run, and not at all when one thread is asked for
        calls = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: calls.append(pid) or {0},
                            raising=False)
        run_ensemble(make_config(realizations=2, threads=threads))
        assert len(calls) == reads


class TestChunks:
    """Realizations run in chunks of at most 64, shared evenly among the
    threads that solve; the chunk edges leave no trace."""

    R = 2 * 64 + 3

    @pytest.mark.parametrize("realizations, workers, count", [
        (1, 0, 1), (64, 0, 1), (65, 0, 2), (131, 0, 3), (3, 3, 3), (65, 2, 2),
        (128, 8, 8), (200, 2, 4), (500, 2, 8), (1000, 3, 18)])
    def test_cut_evenly(self, realizations, workers, count):
        chunks = _chunks(realizations, workers)
        assert len(chunks) == count and count % max(workers, 1) == 0
        assert [r for chunk in chunks for r in chunk] == list(range(realizations))
        lengths = [len(chunk) for chunk in chunks]
        assert max(lengths) <= 64 and max(lengths) - min(lengths) <= 1

    @pytest.mark.parametrize("workers", range(5))
    def test_longest_chunk_closed_form(self, workers):
        # the memory estimate's longest chunk, from the chunk count alone
        for realizations in range(1, 2001):
            longest = max(map(len, _chunks(realizations, workers)))
            assert -(-realizations // _chunk_count(realizations, workers)) == longest

    @pytest.mark.parametrize("workers", [0, 2])
    def test_estimate_cuts_no_chunks(self, monkeypatch, workers):
        # constant time in R: at 10**15 realizations, cutting the chunks would
        # itself exhaust memory before the estimate could refuse the run
        def cut(*args):
            raise AssertionError("the estimate cut the chunks")
        monkeypatch.setattr(randblock.spectra, "_chunks", cut)
        small, large = (make_config(side=9, realizations=r) for r in (4096, 10**15))
        # both runs have chunks of 64: R adds only each realization's spectrum,
        # its min|E| and its list slots
        per_realization = 8 * (2 * 9 + 1 + 2) + np.empty(0).__sizeof__()
        assert (peak_bytes(large, workers) - peak_bytes(small, workers)
                == per_realization * (10**15 - 4096))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("boundary, driver", [("N", "zhbevd"), ("+", "dsbevd")])
    def test_spectra_equal_single_realization_solves(self, monkeypatch, boundary, driver,
                                                     threads):
        # serially chunks of 44, 44 and 43; in a pool of two, four of 33 or 32
        set_cpus(monkeypatch, 2)
        cfg = make_config(side=9, boundary=boundary, realizations=self.R, threads=threads)
        clean = base_matrices(cfg)
        assert clean.driver == driver
        result = run_ensemble(cfg)
        assert list(result.realization_ids) == list(range(self.R))
        for r, ev in zip(result.realization_ids, result.spectra):
            (single,), _, _, _ = _solve_chunk(cfg, clean, result.grid,
                                              _grid_windows(cfg, clean, result.grid),
                                              range(r, r + 1))
            assert ev.tobytes() == single.tobytes()

    @pytest.mark.parametrize("start, stop", [(0, 64), (60, 70), (64, 128), (128, 131)])
    def test_field_rows_equal_single_realizations(self, start, stop):
        cfg = make_config(side=9, realizations=self.R, seed=5)
        policy = SeedPolicy(cfg.base_seed)
        fields = ensemble_fields(cfg, range(start, stop))
        assert [f.shape for f in fields] == [(stop - start, 9)] * 2
        for k in range(stop - start):
            single = realization_fields(cfg, start + k)
            for row, one, mu, name in zip(fields, single, (cfg.disorder.mu_v, cfg.disorder.mu_b),
                                          ("V", "b")):
                assert row[k].tobytes() == one.tobytes()
                # the seeding contract: the realization's own Philox stream
                own = sample_iid(mu, 9, policy.streams([start + k], name))[0]
                assert one.tobytes() == own.tobytes()


class TestIdsMoments:
    """The IDS from each chunk's integer sums Σk and Σk² against the matrix
    of every spectrum's counts (`reference.ids_from_counts`)."""

    R = 2 * 64 + 3

    def config(self, **kw):
        # 2n = 16, so every k/2n is dyadic and the oracle's float mean of a grid
        # point where all counts agree is exact; at 2n = 18 it is not, and the
        # oracle's standard error there reads ~1.8e-16 where the exact one is 0
        return make_config(side=8, realizations=self.R, **kw)

    def assert_matches_counts(self, result):
        mean, stderr = ids_from_counts(result.spectra, result.grid)
        np.testing.assert_allclose(result.ids_mean, mean, rtol=1e-13, atol=0)
        np.testing.assert_allclose(result.ids_stderr, stderr, rtol=0, atol=1e-16)

    @pytest.mark.parametrize("threads, workers", [(1, 0), (2, 2)])
    def test_matches_counts(self, monkeypatch, threads, workers):
        set_cpus(monkeypatch, 2)
        cfg = self.config(threads=threads)
        assert pool_workers(cfg) == workers
        self.assert_matches_counts(run_ensemble(cfg))

    def test_failed_solve_adds_nothing(self, monkeypatch):
        # the second chunk's realization 70 fails; the sums hold the other 130
        calls = itertools.count()

        def flaky(band):
            if next(calls) == 70:
                raise EigenError("injected failure")
            return eigvalsh(band)

        monkeypatch.setattr(randblock.spectra, "eigvalsh", flaky)
        result = run_ensemble(self.config())
        assert result.failures == [70] and len(result.spectra) == self.R - 1
        self.assert_matches_counts(result)

    def test_zero_exactly_where_counts_agree(self):
        result = run_ensemble(make_config(side=9, realizations=self.R))
        counts = np.array([ev.searchsorted(result.grid, "right") for ev in result.spectra])
        agree = (counts == counts[0]).all(axis=0)
        assert agree.any() and not agree.all()
        assert (result.ids_stderr[agree] == 0).all() and (result.ids_stderr[~agree] > 0).all()

    def test_variance_exact_past_int64(self):
        # R·Σk² passes 2⁶³ at every grid point, where an int64 product wraps;
        # the last point's R·Σk² − (Σk)² is R − 1, which float64 loses
        r, size = 2 * 10**6, 4000
        pairs = [(4000, 4000), (0, 4000), (3999, 4000), (1234, 3210)]
        total = [r // 2 * (a + b) for a, b in pairs] + [r * 3000 + 1]
        squares = [r // 2 * (a * a + b * b) for a, b in pairs] + [r * 3000**2 + 2 * 3000 + 1]
        assert all(r * q > 2**63 for q in squares)
        mean, stderr = _ids_from_moments(np.array([total, squares], np.int64), r, size)
        for s, q, m, e in zip(total, squares, mean, stderr):
            assert m == float(Fraction(s, size * r))
            variance = Fraction(r * q - s * s, r * (r - 1))
            assert e == pytest.approx(math.sqrt(variance) / (size * math.sqrt(r)),
                                      rel=1e-15, abs=0)


class TestPeakBytes:
    """The memory estimate against what a run allocates, as tracemalloc sees it."""

    ROWS = [*((dim, side, boundary, 64, 512, None, 1)
              for dim, side in ((1, 201), (2, 8), (2, 16), (3, 4)) for boundary in ("N", "+")),
            (3, 8, "N", 16, 512, None, 1),
            # small runs, where the grid-length arrays and NumPy's ufunc buffer count
            (2, 6, "+", 16, 512, None, 1), (1, 3, "N", 2, 4096, None, 1),
            # tiny, long runs, where each realization's list slots count
            (1, 2, "N", 1024, 2, None, 1), (1, 2, "+", 1024, 2, None, 1),
            (1, 2, "N", 1024, 16, None, 1), (1, 2, "N", 4096, 2, None, 1),
            # a long run on a short grid, where the spectra are the largest aggregate
            (1, 201, "N", 256, 2, None, 1),
            # a given bin width of one grid cell: as many bins as cells
            (1, 5, "N", 4, 512, 1e-3, 1), (1, 5, "N", 4, 512, 1e-4, 1),
            # a thread pool of two, whose threads tracemalloc sees
            (2, 8, "N", 64, 512, None, 2)]

    # a row's id names its grid when that is not the default 512 points, its
    # bin width (w) when it gives one, and its threads (t) when more than one
    @pytest.mark.parametrize(
        "dim, side, boundary, realizations, grid_points, bin_width, threads", ROWS,
        ids=["-".join([*map(str, row[:4] if row[4] == 512 else row[:5]),
                       *([] if row[5] is None else [f"w{row[5]}"]),
                       *([] if row[6] == 1 else [f"t{row[6]}"])])
             for row in ROWS])
    def test_bounds_traced_peak(self, monkeypatch, dim, side, boundary, realizations,
                                grid_points, bin_width, threads):
        set_cpus(monkeypatch, threads)
        disorder = DisorderModel(DensitySpec.uniform(1, 2), DensitySpec.uniform(-0.5, 0.5))
        cfg = ExperimentConfig(Cube(dim, side), boundary, disorder, PeriodicPotential.zero(dim),
                               realizations, 0, grid_points=grid_points, bin_width=bin_width,
                               threads=threads)
        workers = pool_workers(cfg)
        assert workers == (threads if threads > 1 else 0)
        # the modules a run loads are loaded before the traced run
        run_ensemble(replace(cfg, cube=Cube(dim, 2), realizations=2))
        tracemalloc.start()
        try:
            run_ensemble(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= peak_bytes(cfg, workers)


class TestBandedSolve:
    """The ensemble's banded operator against the natural-order dense block."""

    @pytest.mark.parametrize("dim, side", [(1, 5), (1, 33), (2, 5), (2, 16), (3, 3)])
    @pytest.mark.parametrize("boundary", ["D", "N", "+", "-"])
    def test_matches_dense(self, dim, side, boundary):
        background = PeriodicPotential((2,) * dim, np.linspace(0, 0.7, 2**dim).reshape((2,) * dim))
        cfg = ExperimentConfig(Cube(dim, side), boundary,
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

    @pytest.mark.parametrize("boundary, driver", [("N", "zhbevd"), ("+", "dsbevd")])
    def test_thread_count_invariant(self, boundary, driver):
        # the c08 size gives the same bits with 1 and 2 OpenBLAS threads, on the
        # square that N takes and on the block that bracketing keeps
        code = (
            "import hashlib, numpy as np;"
            "from randblock.disorder import DensitySpec, DisorderModel;"
            "from randblock.lattice import Cube, PeriodicPotential;"
            "from randblock.spectra import ExperimentConfig, run_ensemble;"
            f"cfg = ExperimentConfig(Cube(1, 201), {boundary!r},"
            " DisorderModel(DensitySpec.uniform(1, 2), DensitySpec.uniform(-0.5, 0.5)),"
            " PeriodicPotential.zero(1), 3, 5);"
            f"result = run_ensemble(cfg); assert result.driver == {driver!r};"
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
    def test_realizations_share_no_storage(self, boundary, monkeypatch):
        # the bands a chunk solves, each an array of its own
        cfg = make_config(side=9, boundary=boundary, realizations=64)
        clean = base_matrices(cfg)
        solved = []
        monkeypatch.setattr(randblock.spectra, "eigvalsh",
                            lambda band: solved.append(band.lower) or eigvalsh(band))
        grid = default_grid(cfg, clean)
        _solve_chunk(cfg, clean, grid, _grid_windows(cfg, clean, grid), range(64))
        assert len(solved) == 64
        for k, band in enumerate(solved):
            assert band.base is None and band.flags.f_contiguous
            assert not any(np.shares_memory(band, other) for other in solved[:k])
            for a in (clean.top, clean.bot, clean.u0):
                assert not np.shares_memory(band, a) and not a.flags.writeable

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


class TestMigrationRecipe:
    """A run of the former convention H = +lap + U0 + V has the spectra of the
    run with U0 and V negated and + and - swapped: J = [[0, I], [I, 0]] maps
    [[H_top, B], [B, -H_bot]] to [[-H_bot, B], [B, H_top]]."""

    # (top, bottom) Laplacian of each boundary, spelled out for the oracle
    MODES = {"D": (BoundaryMode.DIRICHLET, BoundaryMode.DIRICHLET),
             "N": (BoundaryMode.NEUMANN, BoundaryMode.NEUMANN),
             "+": (BoundaryMode.DIRICHLET, BoundaryMode.NEUMANN),
             "-": (BoundaryMode.NEUMANN, BoundaryMode.DIRICHLET)}

    @pytest.mark.parametrize("dim, side", [(1, 9), (2, 5), (3, 3)])
    @pytest.mark.parametrize("boundary", ["D", "N", "+", "-"])
    def test_former_plus_one_is_the_mirrored_run(self, dim, side, boundary):
        values = np.linspace(-0.4, 0.7, 2**dim).reshape((2,) * dim)
        cfg = ExperimentConfig(Cube(dim, side), boundary,
                               DisorderModel(DensitySpec.uniform(1, 2), DensitySpec.uniform(-0.5, 0.5)),
                               PeriodicPotential((2,) * dim, values), 1, 29)
        v, b = realization_fields(cfg, 0)
        h = np.diag(cfg.potential.on_cube(cfg.cube) + v)
        top, bot = (-dense(laplacian(cfg.cube, mode)) + h for mode in self.MODES[boundary])
        former = eigvalsh(assemble_bracketing(top, bot, np.diag(b)))
        mirrored = replace(cfg, boundary={"+": "-", "-": "+"}.get(boundary, boundary),
                           potential=PeriodicPotential((2,) * dim, -values))
        ev = eigvalsh(build_block(mirrored, -v, b))
        assert np.abs(ev - former).max() <= 1e-12 * np.abs(former).max()


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
    ], ids=["plus", "minus", "floor-zero", "floor-negative", "floor-below-rho-64"])
    def test_others_stay_on_block(self, kw):
        cfg = make_config(side=9, **kw)
        assert base_matrices(cfg).driver == "dsbevd"
        result = run_ensemble(cfg)
        assert (result.driver, result.half_bandwidth) == ("dsbevd", 2)

    def test_zero_height_end_cells_left_out(self):
        # every draw of V lies in [1, 2]: the floor is 1, not the 0 where V's
        # first (empty) cell starts, and rho counts |V| <= 2, not 3
        cfg = make_config(side=31, mu_v=DensitySpec((0, 1, 2), (0, 1)))
        assert base_matrices(cfg).driver == "zhbevd"
        cfg = make_config(side=9, mu_v=DensitySpec((1, 2, 3), (1, 0)))
        assert base_matrices(cfg).radius == 6.5

    def test_square_overflow_stays_on_block(self):
        # lambda = 1e154 >= rho/64, but rho² = 2.25e308 overflows, and so would
        # the square's entries: the block is solved, to finite spectra
        cfg = make_config(side=9, mu_v=DensitySpec.uniform(1e154, 1.5e154))
        radius = base_matrices(cfg).radius
        assert 1e154 >= radius / 64 and radius * radius == np.inf
        result = run_ensemble(cfg)
        assert result.driver == "dsbevd" and not result.failures
        assert all(np.isfinite(ev).all() for ev in result.spectra)
        assert np.isfinite(result.grid).all() and np.isfinite(result.dos_centers).all()

    @pytest.mark.parametrize("mu_v, mu_b, u0", [
        (DensitySpec.uniform(1e308, 1.5e308), DensitySpec.uniform(1e308, 1.5e308), 0.0),
        (DensitySpec.uniform(0.9e308, 1e308), DensitySpec.uniform(-0.5, 0.5), 0.0),
        (DensitySpec.uniform(1, 2), DensitySpec.uniform(-0.5, 0.5), 0.9e308),
    ], ids=["rho-infinite", "span-infinite", "u0-past-half-range"])
    def test_energy_span_past_float_range_refused(self, mu_v, mu_b, u0):
        # the default grid and the DOS bins span [-rho, rho], which would read NaN
        with pytest.raises(ValueError, match=r"^disorder supports V \[.*\] and b \[.*\] "
                                             r"with max\|U0\| .* bound \|E\| only by"):
            ExperimentConfig(Cube(1, 9), "N", DisorderModel(mu_v, mu_b),
                             PeriodicPotential((1,), [u0]), 3, 0)

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
        # over each bin's own width: the last bin holds what is left of the grid
        widths = np.diff(run_edges(self.result))
        assert (self.result.dos_density * widths).sum() == pytest.approx(1.0, rel=1e-9)

    def test_dos_roughly_even(self):
        # spectra are exactly symmetric, so mirrored bins agree within noise; the
        # bins on the symmetric grid mirror each other when a bin's cells divide
        # the grid's 511 cells, as 7 do
        grid = self.result.grid
        result = run_ensemble(replace(self.result.config, bin_width=7 * (grid[1] - grid[0])))
        assert result.dos_counts.size == 73
        centers, dens, err = result.dos_centers, result.dos_density, result.dos_stderr
        for c, d, s in zip(centers, dens, err):
            j = np.argmin(np.abs(centers + c))
            tol = 2 * (s + err[j]) + 1e-12
            if abs(centers[j] + c) < 0.5 * np.diff(centers).mean():
                assert abs(d - dens[j]) <= tol + 0.5 * max(d, dens[j])

    def test_symmetry_residual_small(self):
        for ev in self.result.spectra:
            assert symmetry_residual(ev) < 1e-9 * np.abs(ev).max()


def bin_edges(grid, cells):
    """The DOS bin edges on ``grid`` of ``cells`` cells a bin: every
    ``cells``-th grid point from the first, and the last."""
    return grid[np.append(np.arange(0, grid.size - 1, cells), grid.size - 1)]


def pooled_cells(spectra, grid):
    """The Freedman–Diaconis cells of a bin, from the pooled spectra: each
    quartile is the first grid point at or above the ⌈N/4⌉-th and ⌈3N/4⌉-th
    smallest of the N eigenvalues."""
    pooled = np.sort(np.concatenate(spectra))
    total = pooled.size
    q1, q3 = (grid[min(grid.searchsorted(pooled[-(-j * total // 4) - 1]), grid.size - 1)]
              for j in (1, 3))
    width = 2.0 * (q3 - q1) / total ** (1.0 / 3.0)
    spacing = (grid[-1] - grid[0]) / (grid.size - 1)
    return int(min(grid.size - 1, max(1, round(width / spacing))))


def run_edges(result):
    """A run's bin edges, from its grid and its first bin's center."""
    grid = result.grid
    return bin_edges(grid, round(2 * (result.dos_centers[0] - grid[0]) / (grid[1] - grid[0])))


def pooled_counts(spectra, edges):
    """The eigenvalues of the pooled spectra in each bin (E_a, E_b]."""
    return np.diff(np.sort(np.concatenate(spectra)).searchsorted(edges, "right"))


class TestDosBins:
    """The DOS bins are m grid cells each, counted off the IDS's sums; the
    oracle counts the pooled spectra with `searchsorted`."""

    ON_EDGES = [[-1.0, -0.5, -0.5, 0.0, 0.5, 1.0], [-0.75, -0.5, 0.0, 0.0, 0.5, 1.0],
                [-1.0, -0.25, 0.25, 0.5, 0.75, 1.0]]

    @pytest.mark.parametrize("spectra, kw", [
        # every eigenvalue on a grid point of spacing 0.25, ties within and
        # across realizations: one cell a bin, so each point is an edge, and the
        # two at the first grid point fall in no bin
        (ON_EDGES, {"grid_lo": -1.0, "grid_hi": 1.0, "grid_points": 9, "bin_width": 0.25}),
        # two cells a bin: the odd grid points lie inside bins, the even on edges
        (ON_EDGES, {"grid_lo": -1.0, "grid_hi": 1.0, "grid_points": 9, "bin_width": 0.5}),
        # three cells a bin of the grid's eight: the last bin holds the two left
        (ON_EDGES, {"grid_lo": -1.0, "grid_hi": 1.0, "grid_points": 9, "bin_width": 0.75}),
        # one realization, on the Freedman–Diaconis width
        ([[-2.0, -1.1, -0.3, 0.3, 1.1, 2.0]], {}),
        # one value: zero quartile range, one cell a bin
        ([[1.0] * 6] * 2, {}),
    ], ids=["on-edges-1-cell", "on-edges-2-cells", "on-edges-3-cells", "freedman-diaconis",
            "one-value"])
    def test_counts_are_pooled_searchsorted(self, monkeypatch, spectra, kw):
        # 1-d side-3 realizations whose solves return ``spectra``
        solved = iter(map(np.array, spectra))
        monkeypatch.setattr(randblock.spectra, "eigvalsh", lambda band: next(solved))
        zero = ConstantValue(0.0)
        result = run_ensemble(ExperimentConfig(Cube(1, 3), "N", DisorderModel(zero, zero),
                                               PeriodicPotential.zero(1), len(spectra), 0, **kw))
        grid = result.grid
        width = kw.get("bin_width")
        cells = (round(width / (grid[1] - grid[0])) if width else pooled_cells(spectra, grid))
        edges = bin_edges(grid, cells)
        assert np.array_equal(result.dos_centers, 0.5 * (edges[:-1] + edges[1:]))
        assert np.array_equal(result.dos_counts, pooled_counts(spectra, edges))
        # density and binomial standard error over each bin's own width
        total, widths = sum(map(len, spectra)), np.diff(edges)
        p = result.dos_counts / total
        np.testing.assert_allclose(result.dos_density, p / widths, rtol=1e-15)
        np.testing.assert_allclose(result.dos_stderr, np.sqrt(p * (1 - p) / total) / widths,
                                   rtol=1e-14)
        if "grid_lo" in kw:
            # every eigenvalue sits on a grid point; the first point's are in no bin
            assert result.near_grid_eigenvalues == sum(map(len, spectra))
            assert result.dos_counts.sum() == sum(map(len, spectra)) - 2

    def test_counts_of_a_run_are_pooled_searchsorted(self):
        result = run_ensemble(make_config(side=9, realizations=20))
        edges = bin_edges(result.grid, pooled_cells(result.spectra, result.grid))
        assert edges.size > 2
        assert np.array_equal(result.dos_centers, 0.5 * (edges[:-1] + edges[1:]))
        assert np.array_equal(result.dos_counts, pooled_counts(result.spectra, edges))

    def test_quartiles_are_pooled_order_statistics(self, monkeypatch):
        # 8 eigenvalues: 8^(1/3) = 2, so a bin is exactly i3 - i1 cells, the
        # grid distance of the quartiles; eigenvalues on grid points, ties and
        # eigenvalues off the grid included
        grid = np.linspace(-1, 1, 41)
        rng = np.random.default_rng(12)
        seen = set()
        for _ in range(200):
            picks = rng.choice(np.r_[grid, rng.uniform(-1.2, 1.2, 20)], (2, 4))
            spectra = [np.sort(row) for row in picks]
            solved = iter(spectra)
            monkeypatch.setattr(randblock.spectra, "eigvalsh", lambda band: next(solved))
            zero = ConstantValue(0.0)
            cfg = ExperimentConfig(Cube(1, 2), "N", DisorderModel(zero, zero),
                                   PeriodicPotential.zero(1), 2, 0, grid_lo=-1.0, grid_hi=1.0,
                                   grid_points=41)
            result = run_ensemble(cfg)
            pooled = np.sort(np.concatenate(spectra))
            i1, i3 = (min(grid.searchsorted(pooled[j]), 40) for j in (1, 5))
            cells = pooled_cells(spectra, grid)
            assert cells == max(1, i3 - i1)
            edges = bin_edges(grid, cells)
            assert np.array_equal(result.dos_centers, 0.5 * (edges[:-1] + edges[1:]))
            seen.add(cells)
        assert len(seen) > 10

    @pytest.mark.parametrize("bin_width, cells", [
        (2.6, 3), (5e-324, 1), (1e-300, 1), (1e308, 511)])
    def test_bin_width_in_grid_cells(self, bin_width, cells):
        # a given width is rounded to whole grid cells, at least one and at most the grid
        cfg = make_config(side=9, realizations=4)
        spacing = np.diff(run_ensemble(cfg).grid).mean()
        width = bin_width * spacing if bin_width == 2.6 else bin_width
        result = run_ensemble(replace(cfg, bin_width=width))
        edges = bin_edges(result.grid, cells)
        assert result.dos_counts.size == -(-511 // cells)
        assert np.array_equal(result.dos_centers, 0.5 * (edges[:-1] + edges[1:]))
        assert np.array_equal(result.dos_counts, pooled_counts(result.spectra, edges))
        assert result.dos_counts.sum() == 4 * 18

    def test_grid_narrower_than_the_spectrum(self):
        # eigenvalues outside an explicit grid fall in no bin
        result = run_ensemble(make_config(side=9, realizations=4, grid_lo=1.5, grid_hi=3.0))
        sums = np.rint(result.ids_mean * 4 * 18).astype(np.int64)
        assert 0 < sums[0] and sums[-1] < 4 * 18
        assert result.dos_counts.sum() == sums[-1] - sums[0]
        edges = bin_edges(result.grid, pooled_cells(result.spectra, result.grid))
        assert np.array_equal(result.dos_counts, pooled_counts(result.spectra, edges))

    def test_keeps_the_largest_eigenvalues(self):
        # the spectrum is ±0.884 in each realization, inside the default grid:
        # every eigenvalue is counted, and each bin's density over its own
        # width integrates to 1
        zero, v = ConstantValue(0.0), ConstantValue(0.884)
        cfg = ExperimentConfig(Cube(1, 1), "N", DisorderModel(v, zero), PeriodicPotential.zero(1),
                               3, 0, bin_width=0.04312195121951219)
        result = run_ensemble(cfg)
        assert result.dos_counts.sum() == 3 * 2
        widths = np.diff(run_edges(result))
        assert abs((result.dos_density * widths).sum() - 1.0) <= 1e-12


class TestNearGrid:
    """Eigenvalues within the solver's error of a grid point, counted per chunk."""

    @pytest.mark.parametrize("boundary, driver", [("N", "zhbevd"), ("+", "dsbevd")])
    def test_tolerance_is_the_solvers_bound(self, boundary, driver):
        cfg = make_config(side=9, boundary=boundary)
        clean = base_matrices(cfg)
        assert clean.driver == driver
        eps, rho = np.finfo(np.float64).eps, clean.radius
        bound = 18 * eps * rho * (rho / randblock.spectra.certified_floor(cfg)
                                  if driver == "zhbevd" else 1.0)
        assert _grid_tolerance(cfg, clean) == pytest.approx(bound, rel=1e-15)

    # a tolerance of a fifth of the spacing, so that many eigenvalues count, and
    # of 0.6 spacings, whose windows overlap into one span
    @pytest.mark.parametrize("share", [0.2, 0.6])
    # on the narrower grid most eigenvalues lie beyond its ends
    @pytest.mark.parametrize("explicit", [{}, {"grid_lo": 1.5, "grid_hi": 3.0}],
                             ids=["default", "inside-the-spectrum"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_count_is_brute_force(self, monkeypatch, threads, explicit, share):
        set_cpus(monkeypatch, 2)
        cfg = make_config(side=9, realizations=TestChunks.R, threads=threads, **explicit)
        grid = default_grid(cfg, base_matrices(cfg))
        tol = share * (grid[1] - grid[0])
        monkeypatch.setattr(randblock.spectra, "_grid_tolerance", lambda config, clean: tol)
        result = run_ensemble(cfg)
        distance = np.abs(np.concatenate(result.spectra)[:, None] - result.grid).min(axis=1)
        assert result.near_grid_eigenvalues == np.count_nonzero(distance <= tol) > 0


@pytest.mark.parametrize("boundary", ["+", "-"])
@pytest.mark.parametrize("dim, side", [(1, 1), (1, 2), (2, 2)])
def test_default_grid_covers_both_blocks(dim, side, boundary):
    # with V = b = 0 the block's spectrum is spec(H_top) and -spec(H_bot); for
    # boundary - H_bot is the Dirichlet block, whose Gershgorin bound exceeds
    # the Neumann H_top's
    zero = ConstantValue(0.0)
    config = ExperimentConfig(Cube(dim, side), boundary, DisorderModel(zero, zero),
                              PeriodicPotential.zero(dim), 1, 0)
    result = run_ensemble(config)
    ev = result.spectra[0]
    assert result.grid[0] < ev.min() and ev.max() < result.grid[-1]
    assert result.ids_mean[0] == 0.0 and result.ids_mean[-1] == 1.0


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
        with pytest.raises(ValueError, match="^a block spectrum has even length, got 3$"):
            zero_split_check(np.array([-1.0, 0.5, 1.0]))


class TestSymmetryResidual:
    def test_exact(self):
        assert symmetry_residual(np.array([-2.0, -1.0, 1.0, 2.0])) == 0.0
        assert symmetry_residual(np.array([-1.0, 1.5])) == 0.5


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
        with pytest.raises(ValueError, match="^grid_hi must exceed grid_lo by a finite span"):
            make_config(grid_lo=-1e308, grid_hi=1e308)

    @pytest.mark.parametrize("dim, period", [(2, (2,)), (1, (2, 2)), (1, (2, 1))],
                             ids=["fewer-axes", "more-axes", "trivial-surplus-axis"])
    def test_period_needs_one_entry_per_axis(self, dim, period):
        # a shorter period would vary U0 along the first axes only
        background = PeriodicPotential(period, np.zeros(period))
        disorder = DisorderModel(DensitySpec.uniform(1, 2), DensitySpec.uniform(-0.5, 0.5))
        with pytest.raises(ValueError, match="^potential period"):
            ExperimentConfig(Cube(dim, 3), "N", disorder, background, 2, 0)

    def test_explicit_grid_used(self):
        cfg = make_config(grid_lo=-2.0, grid_hi=2.0, grid_points=5)
        assert np.array_equal(default_grid(cfg, base_matrices(cfg)), np.linspace(-2, 2, 5))
