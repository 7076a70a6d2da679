import math
from pathlib import Path

import numpy as np
import pytest

import randblock.analysis
from randblock.analysis import (
    DosTransform,
    ExponentFit,
    LifshitsRun,
    WegnerBound,
    certify_wegner_hypothesis,
    const_b_dos_array,
    const_b_map,
    double_log_coordinates,
    lifshits_exponent_fit,
    lifshits_probe,
    wegner_bound,
    wegner_check,
)
from randblock.config import load_config
from randblock.disorder import ConstantValue, DensitySpec, DisorderModel, SeedPolicy, sample_iid
from randblock.eigen import eigvalsh, min_eig_tridiag
from randblock.lattice import Cube, PeriodicPotential
from randblock.operators import BoundaryMode, assemble, laplacian
from randblock.spectra import ExperimentConfig, run_ensemble
from reference import (
    bv_inequality_probe,
    const_b_dos,
    dos_transform_measure_check,
    feynman_hellmann_sum,
    is_simple_eigenvalue,
    pdf,
    spectrum_inclusion_distances,
)


class TestConstBMap:
    def test_examples(self):
        assert np.allclose(const_b_map(np.array([0.0]), 1.0), [-1, 1])
        assert np.allclose(const_b_map(np.array([3.0]), 4.0), [-5, 5])
        assert np.allclose(const_b_map(np.array([-3.0, 3.0]), 4.0), [-5, -5, 5, 5])

    def test_matches_block_spectrum(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((9, 9))
        h = h + h.T
        beta = 0.8
        block_ev = eigvalsh(assemble(h, beta * np.eye(9)))
        mapped = const_b_map(eigvalsh(h), beta)
        assert np.allclose(block_ev, mapped, atol=1e-10)


class TestConstBDos:
    def setup_method(self):
        self.t = DosTransform(DensitySpec.uniform(-2, 2), 1.0)

    def test_value_above_edge(self):
        # E = sqrt(2), beta = 1: x = 1, |E|/x * (0.25 + 0.25) = sqrt(2)/2
        assert const_b_dos(self.t, math.sqrt(2)) == pytest.approx(math.sqrt(2) / 2)
        assert const_b_dos(self.t, -math.sqrt(2)) == pytest.approx(math.sqrt(2) / 2)

    def test_gap_is_zero(self):
        assert const_b_dos(self.t, 0.0) == 0.0
        assert const_b_dos(self.t, 0.999) == 0.0

    def test_edge_singularity_marker(self):
        assert const_b_dos(self.t, 1.0) == math.inf
        shifted = DosTransform(DensitySpec.uniform(1, 2), 1.0)
        assert const_b_dos(shifted, 1.0) == 0.0

    def test_inverse_sqrt_scaling_near_edge(self):
        # density ~ C / sqrt(E - beta) near the edge: the product stabilizes
        des = np.array([1e-4, 1e-6, 1e-8])
        vals = np.array([const_b_dos(self.t, 1.0 + de) * math.sqrt(de) for de in des])
        assert np.all(np.abs(vals / vals[-1] - 1.0) < 0.01)

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError):
            DosTransform(DensitySpec.uniform(-1, 1), 0.0)

    def test_source_without_density_rejected(self):
        with pytest.raises(ValueError, match="^source must have a density"):
            DosTransform(ConstantValue(0.5), 1.0)


class TestConstBDosArray:
    """The whole-grid evaluation against the scalar, bit for bit."""

    # cells of heights 0.1, 0.3, 0.2, 0.4 on [-2, -1, 0, 1, 2]: a breakpoint at 0
    source = DensitySpec((-2.0, -1.0, 0.0, 1.0, 2.0), (0.1, 0.3, 0.2, 0.4))

    def energies(self, beta):
        edges = [math.sqrt(p * p + beta * beta) for p in self.source.breakpoints]
        points = [beta, 0.0, 0.5 * beta, np.nextafter(beta, 0.0), np.nextafter(beta, 3.0),
                  *edges, *(np.nextafter(e, np.inf) for e in edges), 2.5, 7.0, 50.0]
        return np.array(points + [-p for p in points])

    @pytest.mark.parametrize("beta", [1.0, -0.75, 1e-3])
    def test_matches_scalar(self, beta):
        t = DosTransform(self.source, beta)
        energies = self.energies(abs(beta))
        expected = np.array([const_b_dos(t, e) for e in energies])
        # the singularity marker sits exactly at |E| == |beta|, zeros in the gap
        # and outside the support
        assert np.array_equal(np.isinf(expected), np.abs(energies) == abs(beta))
        assert (expected == 0.0).sum() >= 8
        assert np.array_equal(const_b_dos_array(t, energies), expected)

    def test_scales_past_the_square_range(self):
        # energies, beta and the support scaled by 2^700 (so every square
        # overflows) give the DOS scaled by 2^-700, bit for bit
        big = 2.0**700
        t = DosTransform(self.source, 1.0)
        scaled = DosTransform(DensitySpec(tuple(b * big for b in self.source.breakpoints),
                                          tuple(h / big for h in self.source.heights)), big)
        energies = self.energies(1.0)
        expected = const_b_dos_array(t, energies) / big
        assert np.count_nonzero(np.isfinite(expected) & (expected > 0)) >= 8
        assert np.array_equal(const_b_dos_array(scaled, energies * big), expected)

    def test_edge_is_zero_where_source_vanishes_at_zero(self):
        t = DosTransform(DensitySpec.uniform(1, 2), 1.0)
        energies = np.array([-1.0, 1.0, math.sqrt(2.0), math.sqrt(5.0), 3.0])
        expected = np.array([const_b_dos(t, e) for e in energies])
        assert np.array_equal(const_b_dos_array(t, energies), expected)
        assert expected[0] == expected[1] == 0.0

    def test_pdf_array_matches_pdf(self):
        x = np.array([-3.0, -2.0, -1.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0,
                      np.nextafter(2.0, 3.0), np.nextafter(-2.0, -3.0), np.nan, np.inf])
        expected = np.array([pdf(self.source, v) for v in x])
        # closed support, and each breakpoint takes its left cell's height
        assert list(expected[:9]) == [0.0, 0.1, 0.1, 0.1, 0.3, 0.3, 0.2, 0.2, 0.4]
        assert np.array_equal(self.source.pdf_array(x), expected)


class TestMeasurePreservation:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_uniform_source(self, beta):
        t = DosTransform(DensitySpec.uniform(-2, 2), beta)
        for a in (0.3, 1.0, 1.9):
            lhs, rhs = dos_transform_measure_check(t, a)
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_piecewise_source(self):
        src = DensitySpec((-1.0, 0.0, 0.5, 1.0), (0.25, 1.0, 0.5))
        lhs, rhs = dos_transform_measure_check(DosTransform(src, 0.7), 0.9)
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            dos_transform_measure_check(DosTransform(DensitySpec.uniform(-1, 1), 1.0), 0.0)


def _wegner_config(mu_v, mu_b, side=9, realizations=5, seed=0):
    return ExperimentConfig(Cube(1, side), "N", DisorderModel(mu_v, mu_b),
                            PeriodicPotential.zero(1), realizations, seed)


class TestWegner:
    def test_bound_values(self):
        b = WegnerBound("H", 1.0, 2.0)
        assert wegner_bound(b, 2.0) == pytest.approx(12.0)
        assert wegner_bound(b, 0.0) == pytest.approx(4.0)
        assert wegner_bound(WegnerBound("B", 0.5, 2.0), 1.0) == pytest.approx(16.0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="^mode must be 'H' or 'B', got 'X'$"):
            WegnerBound("X", 1.0, None)     # the mode is refused before bv is read
        with pytest.raises(ValueError):
            WegnerBound("H", 0.0, 1.0)

    def test_certification_accepts(self):
        cfg = _wegner_config(DensitySpec.uniform(1, 2), DensitySpec.uniform(-0.5, 0.5))
        certify_wegner_hypothesis(cfg, WegnerBound("H", 1.0, 2.0))
        cfg_b = _wegner_config(DensitySpec.uniform(-0.5, 0.5), DensitySpec.uniform(0.5, 1.5))
        certify_wegner_hypothesis(cfg_b, WegnerBound("B", 0.5, 1.0))

    def test_certification_refuses(self):
        cfg = _wegner_config(DensitySpec.uniform(0, 1), DensitySpec.uniform(-0.5, 0.5))
        with pytest.raises(ValueError):
            certify_wegner_hypothesis(cfg, WegnerBound("H", 1.0, 2.0))
        with pytest.raises(ValueError):
            certify_wegner_hypothesis(cfg, WegnerBound("B", 0.5, 1.0))

    def test_check_small_ensemble(self):
        cfg = _wegner_config(DensitySpec.uniform(1, 2), DensitySpec.uniform(-0.5, 0.5),
                             side=15, realizations=40, seed=7)
        result = run_ensemble(cfg)
        report = wegner_check(result, WegnerBound("H", 1.0, 2.0), min_count=50)
        assert report.checked_bins > 0
        assert report.ok, report.violations


class TestFeynmanHellmann:
    def test_closed_form_2x2(self):
        block = np.array([[3.0, 4.0], [4.0, -3.0]])
        psi = np.array([2.0, 1.0]) / math.sqrt(5)
        lhs, rhs, min_h = feynman_hellmann_sum(block, 5.0, psi, np.array([[3.0]]))
        assert lhs == pytest.approx(3.0)
        assert rhs == pytest.approx(3.0)
        assert min_h == pytest.approx(3.0)
        assert lhs >= min_h - 1e-12

    def test_decoupled_b_zero(self):
        h = np.diag([1.0, 4.0])
        block = assemble(h, np.zeros((2, 2)))
        psi = np.array([1.0, 0.0, 0.0, 0.0])
        lhs, rhs, min_h = feynman_hellmann_sum(block, 1.0, psi, h)
        assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)
        assert min_h == pytest.approx(1.0)

    def test_random_instance_and_fd_derivative(self):
        rng = np.random.default_rng(1)
        n = 8
        h = np.diag(rng.uniform(1, 2, n))
        h -= np.diag(np.ones(n - 1), 1) * 0 + 0  # keep diagonal toy H
        h = np.diag(rng.uniform(1, 2, n)) + 0.2 * (lambda a: a + a.T)(rng.standard_normal((n, n)))
        b = np.diag(rng.uniform(-0.5, 0.5, n))
        block = assemble(h, b)
        ev, vectors = np.linalg.eigh(block)
        k = n  # smallest positive eigenvalue
        if not is_simple_eigenvalue(ev, k, np.abs(ev).max()):
            k += 1
        e, psi = ev[k], vectors[:, k]
        lhs, rhs, min_h = feynman_hellmann_sum(block, e, psi, h)
        assert lhs == pytest.approx(rhs, abs=1e-9 * max(1, abs(rhs)))
        assert rhs >= min_h - 1e-9
        # cross-check the derivative part with a central difference in a
        # uniform on-site shift of H
        step = 1e-6
        shift = np.block([[np.eye(n), np.zeros((n, n))],
                          [np.zeros((n, n)), -np.eye(n)]])
        e_plus = eigvalsh(block + step * shift)[k]
        e_minus = eigvalsh(block - step * shift)[k]
        deriv = (e_plus - e_minus) / (2 * step)
        assert deriv == pytest.approx(lhs / e, abs=1e-5)

    def test_rejects_non_eigenpair(self):
        block = np.array([[3.0, 4.0], [4.0, -3.0]])
        psi = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            feynman_hellmann_sum(block, 5.0, psi, np.array([[3.0]]))

    def test_rejects_unnormalized(self):
        block = np.array([[3.0, 4.0], [4.0, -3.0]])
        with pytest.raises(ValueError):
            feynman_hellmann_sum(block, 5.0, np.array([2.0, 1.0]), np.array([[3.0]]))

    def test_simple_eigenvalue_detector(self):
        ev = np.array([-1.0, 0.0, 0.0, 2.0])
        assert not is_simple_eigenvalue(ev, 1, 2.0)
        assert is_simple_eigenvalue(ev, 3, 2.0)


class TestBvInequality:
    def test_tanh_example(self):
        phi = DensitySpec.uniform(0, 1)
        osc = math.tanh(1.0)  # oscillation of tanh over the support
        lhs, rhs = bv_inequality_probe(lambda x: 1.0 / math.cosh(x) ** 2, osc, phi)
        assert lhs == pytest.approx(math.tanh(1.0), abs=1e-8)
        assert lhs <= rhs + 1e-12
        assert rhs == pytest.approx(osc * 2.0)

    def test_linear_in_oscillation(self):
        phi = DensitySpec.uniform(-1, 1)
        lhs1, rhs1 = bv_inequality_probe(lambda x: math.cos(x), 2.0, phi)
        lhs3, rhs3 = bv_inequality_probe(lambda x: 3 * math.cos(x), 6.0, phi)
        assert lhs3 == pytest.approx(3 * lhs1, rel=1e-9)
        assert rhs3 == pytest.approx(3 * rhs1, rel=1e-12)


def _example_run() -> LifshitsRun:
    """The tail probe of ``configs/example.json``, as the CLI builds it."""
    config, extras, _ = load_config(Path(__file__).parents[1] / "configs" / "example.json")
    rec = extras["lifshits"]
    return LifshitsRun(tuple(rec["epsilons"]), config.disorder.mu_v, rec["lam"],
                       config.base_seed, realizations=rec["realizations"])


class TestLifshits:
    def test_side_for(self):
        run = LifshitsRun((0.25,), DensitySpec.uniform(1, 2), 1.0, 0)
        assert run.side_for(0.25) == 8          # ceil(4 * 0.25^-0.5)
        assert run.side_for(4.0) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LifshitsRun((0.0,), DensitySpec.uniform(1, 2), 1.0, 0)
        with pytest.raises(ValueError):
            LifshitsRun((0.1,), DensitySpec.uniform(0, 1), 1.0, 0)
        with pytest.raises(ValueError):
            LifshitsRun((0.1,), DensitySpec.uniform(1, 2), 1.0, 0, dim=2)
        with pytest.raises(ValueError, match="^V must have a density"):
            LifshitsRun((0.1,), ConstantValue(1.5), 1.0, 0)

    @pytest.mark.parametrize("c, alpha", [(4.0, 1000.0), (1e308, 0.5)],
                             ids=["power-overflows", "product-overflows"])
    def test_box_side_must_be_finite(self, c, alpha):
        with pytest.raises(ValueError, match="^the box side .* at eps 0.1 is not finite"):
            LifshitsRun((0.4, 0.1), DensitySpec.uniform(1, 2), 1.0, 0, c=c, alpha=alpha)

    def test_probe_small(self):
        run = LifshitsRun((0.4, 0.2), DensitySpec.uniform(1, 2), 1.0, 5,
                          realizations=60)
        table = lifshits_probe(run)
        assert np.array_equal(table.sides, [run.side_for(0.4), run.side_for(0.2)])
        assert np.all((table.p_hat >= 0) & (table.p_hat <= 1))
        assert table.p_hat[1] <= table.p_hat[0] + 0.1

    def test_probe_deterministic(self):
        run = LifshitsRun((0.5,), DensitySpec.uniform(1, 2), 1.0, 5, realizations=30)
        assert lifshits_probe(run).p_hat[0] == lifshits_probe(run).p_hat[0]

    @pytest.mark.parametrize("mu_v, lam", [
        (DensitySpec.uniform(1, 2), 1.0),
        (DensitySpec((0.5, 1.0, 1.5, 2.5), (1.0, 0.0, 0.5)), 0.5),
    ], ids=["uniform", "piecewise-zero-cell"])
    def test_probe_matches_per_realization_generators(self, monkeypatch, mu_v, lam):
        run = LifshitsRun((0.8, 0.6, 0.4), mu_v, lam, 9, realizations=50)   # p_hat in (0, 1)
        drawn = []

        def recording(density, n, rng):
            v = sample_iid(density, n, rng)
            drawn.append(v)
            return v
        monkeypatch.setattr(randblock.analysis, "sample_iid", recording)
        table = lifshits_probe(run)

        # reference: one stream and one draw per realization, stacked
        policy = SeedPolicy(run.base_seed)
        p_ref = []
        assert len(drawn) == len(run.epsilons)
        for k, (eps, v) in enumerate(zip(run.epsilons, drawn)):
            side = run.side_for(eps)
            ref = np.concatenate([sample_iid(mu_v, side,
                                             policy.streams([k * run.realizations + r], "V"))
                                  for r in range(run.realizations)])
            assert np.array_equal(v, ref)
            lap = laplacian(Cube(1, side), BoundaryMode.NEUMANN, -1)
            ground = min_eig_tridiag(lap[0] + ref, lap[1, :-1], 1e-8)
            p_ref.append(np.count_nonzero(ground <= lam + eps) / run.realizations)
        assert np.array_equal(table.p_hat, p_ref)

    @pytest.mark.parametrize("make_run", [
        _example_run,
        lambda: LifshitsRun((0.4, 0.3, 0.2, 0.15, 0.1, 0.07, 0.05),
                            DensitySpec.uniform(0.5, 1.5), 0.5, 20260823, realizations=2000),
    ], ids=["example-config", "c11"])
    def test_probe_equals_bisection_reference(self, make_run):
        # one Sturm pass at lam + eps decides what bisecting the ground state
        # to 1e-8 and comparing it with lam + eps decided
        run = make_run()
        policy = SeedPolicy(run.base_seed)
        p_ref = []
        for k, eps in enumerate(run.epsilons):
            side = run.side_for(eps)
            v = sample_iid(run.mu_v, side, policy.streams(
                range(k * run.realizations, (k + 1) * run.realizations), "V"))
            lap = laplacian(Cube(1, side), BoundaryMode.NEUMANN, -1)
            ground = min_eig_tridiag(lap[0] + v, lap[1, :-1], 1e-8)
            p_ref.append(np.count_nonzero(ground <= run.lam + eps) / run.realizations)
        p_hat = lifshits_probe(run).p_hat
        assert np.array_equal(p_hat, p_ref)
        assert np.any((p_hat > 0) & (p_hat < 1))

    def test_synthetic_exponent_exact(self):
        eps = np.array([0.4, 0.3, 0.2, 0.15, 0.1, 0.07, 0.05])
        p = np.exp(-eps ** -0.5)
        fit = lifshits_exponent_fit(eps, p)
        assert isinstance(fit, ExponentFit)
        assert fit.alpha_hat == pytest.approx(0.5, abs=1e-6)
        assert fit.stderr < 1e-6
        assert fit.used_points == 7

    def test_synthetic_with_prefactor(self):
        eps = np.array([0.1, 0.07, 0.05, 0.03, 0.02, 0.01])
        gamma = 3.0
        p = np.exp(-gamma * eps ** -0.5)
        fit = lifshits_exponent_fit(eps, p)
        assert fit.alpha_hat == pytest.approx(0.5, abs=1e-6)
        # intercept of the double-log line recovers ln(gamma)
        x, y = np.log(eps), np.log(-np.log(p))
        intercept = np.polyfit(x, y, 1)[1]
        assert math.exp(intercept) == pytest.approx(gamma, abs=0.05)

    def test_fit_drops_degenerate_points(self):
        eps = np.array([0.4, 0.3, 0.2, 0.15, 0.1, 0.07])
        p = np.exp(-eps ** -0.5)
        p[0] = 1.0
        p[-1] = 0.0
        fit = lifshits_exponent_fit(eps, p)
        assert fit.used_points == 4
        assert fit.alpha_hat == pytest.approx(0.5, abs=1e-6)
        # the coordinates the CSV writes: ln|ln P| is NaN at P in {0, 1}
        ln_eps, lnln = double_log_coordinates(eps, p)
        assert np.array_equal(ln_eps, np.log(eps))
        assert np.isnan(lnln[[0, -1]]).all()
        assert np.array_equal(lnln[1:-1], np.log(-np.log(p[1:-1])))

    def test_fit_needs_four_points(self):
        with pytest.raises(ValueError):
            lifshits_exponent_fit([0.1, 0.2, 0.3], [0.5, 0.6, 0.7])


def test_spectrum_inclusion_constant_b_is_exact():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((10, 10))
    h = h + h.T
    beta = 0.6
    block_ev = eigvalsh(assemble(h, beta * np.eye(10)))
    h_ev = eigvalsh(h)
    pairs = [(e, beta) for e in h_ev[:4]]
    dists = spectrum_inclusion_distances(h_ev, block_ev, pairs)
    assert dists.max() < 1e-9
