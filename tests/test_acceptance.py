"""End-to-end acceptance gate.

Thirteen checks, each printing one [PASS]/[FAIL] line (run pytest with -s to
see them all).  Exact finite-dimensional identities are checked at tight
tolerances; statistical properties at desk-scale ensemble sizes.  Checks
c02-c04, c06 and c07 test `randblock.verify`'s per-instance identity
functions on instances of their own, larger than the suites'.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from randblock.analysis import (
    DosTransform,
    LifshitsRun,
    WegnerBound,
    lifshits_exponent_fit,
    lifshits_probe,
    wegner_check,
)
from randblock.cli import main as cli_main
from randblock.disorder import DensitySpec, DisorderModel
from randblock.eigen import eigvalsh
from randblock.lattice import Cube, PeriodicPotential, deficiencies
from randblock.operators import BoundaryMode, assemble, dense, laplacian
from randblock.spectra import (
    ExperimentConfig,
    dense_blocks,
    realization_fields,
    run_ensemble,
    symmetry_residual,
)
from randblock.verify import (
    CHAIN,
    const_b_mismatch,
    counting_chains_hold,
    gap_margins,
    parity_split_residuals,
    square_residual,
)
from reference import (
    const_b_dos,
    dos_transform_measure_check,
    feynman_hellmann_sum,
    is_simple_eigenvalue,
)

SEED = 20260823


def report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {num:02d} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _rng(tag):
    return np.random.Generator(np.random.Philox(key=(SEED << 64) | tag))


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


@pytest.fixture(scope="module")
def gapped_ensemble():
    """d=1, L=51, 20 realizations, V ~ U[1,2], b ~ U[-0.5,0.5]: spectra of
    all four boundary variants per realization."""
    cfg = ExperimentConfig(Cube(1, 51), "N",
                           DisorderModel(DensitySpec.uniform(1, 2),
                                         DensitySpec.uniform(-0.5, 0.5)),
                           PeriodicPotential.zero(1), 20, SEED)
    boundaries = ("N", "D", "+", "-")
    t0 = time.monotonic()
    out = []
    for r in range(cfg.realizations):
        v, b = realization_fields(cfg, r)
        out.append(dict(zip(boundaries, map(eigvalsh, dense_blocks(cfg.cube, v, b, boundaries)))))
    return out, time.monotonic() - t0


def test_c01_spectral_symmetry(gapped_ensemble):
    spectra, elapsed = gapped_ensemble
    worst = max(symmetry_residual(s["N"]) / (1e-9 * np.abs(s["N"]).max())
                for s in spectra)
    worst = max(worst, max(symmetry_residual(s["D"]) / (1e-9 * np.abs(s["D"]).max())
                           for s in spectra))
    ok = worst <= 1.0 and elapsed < 10.0
    report(1, "spectral symmetry about zero",
           ok, f"worst residual at {worst:.3f} of tolerance, {elapsed:.1f}s")


def test_c02_constant_offdiagonal_map():
    t0 = time.monotonic()
    cube = Cube(1, 101)
    lap = dense(laplacian(cube, BoundaryMode.NEUMANN))
    worst = 0.0
    for r in range(5):
        h = lap + np.diag(_rng(100 + r).uniform(1, 2, cube.n_sites))
        worst = max([worst] + [const_b_mismatch(h, beta) for beta in (0.5, 1.0, 2.0)])
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(2, "constant off-diagonal spectral map",
           ok, f"max relative mismatch {worst:.3e}, {elapsed:.1f}s")


def test_c03_parity_equivalence():
    worst = 0.0
    control_worst = 0.0
    for dim, side in ((1, 31), (2, 9)):
        cube = Cube(dim, side)
        for r in range(10):
            bdiag = _rng(1000 * dim + r).uniform(-1, 1, cube.n_sites)
            mismatch, control = parity_split_residuals(cube, bdiag)
            worst = max(worst, mismatch)
            control_worst = max(control_worst, control)
    ok = worst <= 1e-8 and control_worst > 1e-3
    report(3, "parity block-split of the hopping operator",
           ok, f"mismatch {worst:.3e}, negative-control deviation {control_worst:.3e}")


def test_c04_gap_bound():
    rng = _rng(4)
    worst_margin = np.inf
    for _ in range(200):
        margin, bracketing = gap_margins(rng, int(rng.integers(2, 65)))
        worst_margin = min(worst_margin, margin)
        if bracketing < -1e-9:
            worst_margin = min(worst_margin, bracketing)
    report(4, "spectral gap lower bound",
           worst_margin >= -1e-9, f"200 instances, worst margin {worst_margin:.3e}")


def test_c05_zero_split(gapped_ensemble):
    spectra, _ = gapped_ensemble
    ok = True
    for s in spectra:
        for bnd, ev in s.items():
            neg = int((ev < 0).sum())
            if neg != 51 or ev.size != 102 or np.abs(ev).min() < 1e-9:
                ok = False
    report(5, "exact half/half eigenvalue split",
           ok, f"{len(spectra)} realizations x 4 boundary variants, "
               "51 negative / 51 positive each" if ok else "split violated")


def test_c06_bracketing_sandwich():
    cube = Cube(1, 31)
    ok = True
    for r in range(20):
        rng = _rng(6000 + r)
        v = rng.uniform(1, 2, 31)
        b = rng.uniform(-0.5, 0.5, 31)
        ok = counting_chains_hold(dense_blocks(cube, v, b, CHAIN), 64) and ok
    report(6, "counting-function bracketing chains",
           ok, "20 realizations x 64 energies, integer chains hold"
           if ok else "chain violated")


def test_c07_square_identity():
    rng = _rng(7)
    worst = 0.0
    for t in range(50):
        n = int(rng.integers(2, 33))
        if t % 5 == 0:
            h = np.diag(rng.uniform(-2, 2, n))
            b = np.diag(rng.uniform(-2, 2, n))
        else:
            h = _random_symmetric(rng, n)
            b = _random_symmetric(rng, n)
        worst = max(worst, square_residual(h, b))
    ok = worst <= 1e-12
    report(7, "closed form of the squared block operator",
           ok, f"50 pairs, max relative residual {worst:.3e}")


def _wegner_case(mode):
    if mode == "H":
        disorder = DisorderModel(DensitySpec.uniform(1, 2),
                                 DensitySpec.uniform(-0.5, 0.5))
        bound = WegnerBound("H", 1.0, 2.0)
    else:
        disorder = DisorderModel(DensitySpec.uniform(-0.5, 0.5),
                                 DensitySpec.uniform(0.5, 1.5))
        bound = WegnerBound("B", 0.5, 2.0)
    cfg = ExperimentConfig(Cube(1, 201), "N", disorder,
                           PeriodicPotential.zero(1), 500, SEED + ord(mode))
    t0 = time.monotonic()
    result = run_ensemble(cfg)
    rep = wegner_check(result, bound, min_count=100)
    return rep, time.monotonic() - t0


def test_c08_wegner_density_bound():
    ok = True
    details = []
    for mode in ("H", "B"):
        rep, elapsed = _wegner_case(mode)
        if not rep.ok or elapsed >= 600:
            ok = False
        details.append(f"{mode}: {rep.checked_bins} bins, "
                       f"{len(rep.violations)} violations, {elapsed:.0f}s")
    report(8, "density-of-states upper bound", ok, "; ".join(details))


def test_c09_eigenvalue_derivative_identity():
    rng = _rng(9)
    ok = True
    worst_id = 0.0
    worst_fd = 0.0
    fd_done = 0
    for t in range(100):
        n = int(rng.integers(2, 33))
        lam = rng.uniform(0.3, 2.0)
        h = _random_symmetric(rng, n)
        h += (lam - eigvalsh(h)[0]) * np.eye(n)
        b = np.diag(rng.uniform(-1, 1, n))
        block = assemble(h, b)
        ev, vectors = np.linalg.eigh(block)
        scale = np.abs(ev).max()
        k = n  # smallest positive eigenvalue of the gapped block
        if not is_simple_eigenvalue(ev, k, scale):
            continue
        e, psi = ev[k], vectors[:, k]
        lhs, rhs, min_h = feynman_hellmann_sum(block, e, psi, h)
        worst_id = max(worst_id, abs(lhs - rhs) / (1e-8 * scale))
        if abs(lhs - rhs) > 1e-8 * scale or rhs < min_h - 1e-8:
            ok = False
        if fd_done < 10:
            # per-site check: dE/dV_j = psi1(j)^2 - psi2(j)^2
            j = int(rng.integers(0, n))
            step = 1e-6
            pert = np.zeros((2 * n, 2 * n))
            pert[j, j] = 1.0
            pert[n + j, n + j] = -1.0
            e_p = eigvalsh(block + step * pert)[k]
            e_m = eigvalsh(block - step * pert)[k]
            fd = (e_p - e_m) / (2 * step)
            diff = abs(fd - (psi[j] ** 2 - psi[n + j] ** 2))
            worst_fd = max(worst_fd, diff)
            if diff > 1e-4:
                ok = False
            fd_done += 1
    report(9, "eigenvalue-derivative sum identity",
           ok, f"identity at {worst_id:.3f} of tolerance, "
               f"{fd_done} finite-difference checks, worst {worst_fd:.2e}")


def test_c10_dos_transform():
    ok = True
    worst_quad = 0.0
    drifts = []
    for beta in (0.5, 1.0):
        t = DosTransform(DensitySpec.uniform(-2, 2), beta)
        for a in (0.5, 1.5, 2.0):
            lhs, rhs = dos_transform_measure_check(t, a)
            worst_quad = max(worst_quad, abs(lhs - rhs))
            if abs(lhs - rhs) > 1e-6:
                ok = False
        # inverse-square-root edge: D(beta(1+delta)) * sqrt(delta) stabilizes
        deltas = 10.0 ** -np.arange(2, 9)
        vals = np.array([const_b_dos(t, beta * (1 + d)) * math.sqrt(d)
                         for d in deltas])
        decade_drift = np.abs(vals[1:] / vals[:-1] - 1.0)
        drifts.append(decade_drift[-3:].max())
        if decade_drift[-3:].max() >= 0.05 or vals[-1] <= 0:
            ok = False
    report(10, "constant off-diagonal DOS transform",
           ok, f"quadrature gap {worst_quad:.2e}, "
               f"edge-scaling drift {max(drifts):.2%} over last three decades")


def test_c11_band_edge_tail_probe():
    t0 = time.monotonic()
    run = LifshitsRun((0.4, 0.3, 0.2, 0.15, 0.1, 0.07, 0.05),
                      DensitySpec.uniform(0.5, 1.5), 0.5, SEED,
                      realizations=2000)
    table = lifshits_probe(run)
    monotone = all(table.p_hat[k + 1] <= table.p_hat[k]
                   + 2 * (table.stderr[k] + table.stderr[k + 1])
                   for k in range(len(table.p_hat) - 1))
    fit = lifshits_exponent_fit(table.epsilons, table.p_hat)
    synth = lifshits_exponent_fit(table.epsilons,
                                  np.exp(-np.asarray(table.epsilons) ** -0.5))
    elapsed = time.monotonic() - t0
    # the theory bounds P from above only, so the finite-budget fit may
    # overshoot the asymptotic exponent 0.5 from above but never undershoot
    ok = (monotone and fit.alpha_hat >= 0.25
          and abs(synth.alpha_hat - 0.5) <= 1e-6 and elapsed < 300)
    report(11, "band-edge tail exponent probe",
           ok, f"alpha_hat {fit.alpha_hat:.3f} +/- {fit.stderr:.3f} "
               f"(synthetic {synth.alpha_hat:.7f}), monotone={monotone}, {elapsed:.0f}s")


def test_c12_deterministic_cli_output(tmp_path):
    doc = {
        "schema_version": 1,
        "cube": {"dim": 1, "side": 21},
        "boundary": "N",
        "disorder": {"V": {"type": "uniform", "lo": 1, "hi": 2},
                     "b": {"type": "uniform", "lo": -0.5, "hi": 0.5}},
        "realizations": 5,
        "seed": SEED,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    ok = True
    mismatch = []
    for command, artifact in (("ids", "ids.csv"), ("dos", "dos.csv"),
                              ("gap", "gap.csv")):
        d1, d2 = tmp_path / f"{command}_a", tmp_path / f"{command}_b"
        r1 = cli_main([command, "--config", str(path), "--out", str(d1)])
        r2 = cli_main([command, "--config", str(path), "--out", str(d2)])
        if r1 != 0 or r2 != 0:
            ok = False
        if (d1 / artifact).read_bytes() != (d2 / artifact).read_bytes():
            ok = False
            mismatch.append(artifact)
    report(12, "byte-identical CLI reruns",
           ok, "ids/dos/gap artifacts identical" if ok else f"mismatch: {mismatch}")


def _bracketing_width(cfg):
    """The widest N_- - N_+ over the realizations and grid points of the
    bracketing ensembles + and - of ``cfg`` (same seed, so the same fields),
    and the number of grid points where it leaves [0, 2·|∂Λ|] with no
    eigenvalue of either block within 1e-12·max|E| of the point."""
    plus = run_ensemble(replace(cfg, boundary="+"))
    minus = run_ensemble(replace(cfg, boundary="-"))
    assert plus.failures == minus.failures == []
    bound = 2 * int(np.count_nonzero(deficiencies(cfg.cube)))
    grid = plus.grid
    widest, violations = 0, 0
    for ev_plus, ev_minus in zip(plus.spectra, minus.spectra):
        width = ev_minus.searchsorted(grid, "right") - ev_plus.searchsorted(grid, "right")
        both = np.concatenate([ev_plus, ev_minus])
        near = np.abs(np.subtract.outer(grid, both)).min(axis=1) <= 1e-12 * np.abs(both).max()
        violations += int((((width < 0) | (width > bound)) & ~near).sum())
        widest = max(widest, int(width.max()))
    return widest, bound, violations


def test_c15_bracketing_width():
    # the - block is the + block plus diag(X, X), X = H_N - H_D <= 0 of rank
    # |∂Λ|, so 0 <= N_-(E) - N_+(E) <= 2·|∂Λ| at every E (Weyl interlacing)
    disorder = DisorderModel(DensitySpec.uniform(-1, 1), DensitySpec.uniform(-0.5, 0.5))
    t0 = time.monotonic()
    violations, details = 0, []
    for dim, side, realizations in ((1, 201, 16), (2, 16, 16), (3, 6, 8)):
        top = 4 * dim + 2.0    # past every |E| <= 4d + max|V| + max|b|
        cfg = ExperimentConfig(Cube(dim, side), "+", disorder, PeriodicPotential.zero(dim),
                               realizations, SEED, grid_lo=-top, grid_hi=top, grid_points=257)
        widest, bound, bad = _bracketing_width(cfg)
        violations += bad
        details.append(f"{dim}-d L={side}: {widest}/{bound}")
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed <= 1.5
    report(15, "bracketing width a boundary term",
           ok, f"widest N_- - N_+ against 2|boundary|: {', '.join(details)}; "
               f"{violations} violations, {elapsed:.2f}s")
