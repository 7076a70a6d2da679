"""The benchmark's workloads: inputs made from a seed, the pipeline call, and
an independent correctness check of the result.

Each workload calls randblock through module attributes (``spectra.run_ensemble``
and so on) so that the tracer's hooks see the calls.  ``prepare`` is the set-up
a user pays on every run (imports, parsing and validating the inputs);
``run`` and ``check`` together make one timed repetition.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

from tracing import CLI_COMMANDS

GAP_TOL = 1e-9          # H >= 1 gives |eigenvalue| >= 1; allowed round-off
SYMMETRY_TOL = 1e-9     # relative symmetry residual of D/N spectra
IDS_TOL = 1e-12         # IDS recomputed from the spectra vs run_ensemble's IDS

EPSILONS = (0.6, 0.5, 0.4, 0.3, 0.25)
TINY_EPSILONS = (0.6, 0.5, 0.4, 0.3, 0.2)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _block_properties(config) -> dict:
    """Block dimension and half-bandwidth of realization 0, in natural order
    and in the interleaved order (psi1(0), psi2(0), psi1(1), ...)."""
    from randblock import spectra

    v, b = spectra.realization_fields(config, 0)
    block = spectra.build_block(config, v, b)
    n = block.shape[0] // 2
    perm = np.empty(2 * n, dtype=int)
    perm[0::2] = np.arange(n)
    perm[1::2] = np.arange(n, 2 * n)

    def half_bw(m):
        rows, cols = np.nonzero(m)
        return int(np.abs(rows - cols).max())

    return {"block_dim": 2 * n, "half_bandwidth_natural": half_bw(block),
            "half_bandwidth_interleaved": half_bw(block[np.ix_(perm, perm)])}


class Workload:
    """One named set of inputs.  Subclasses provide ``prepare()``, ``run(serial)``,
    ``check(raw) -> errors``, ``attempted()``, ``failed(raw)``,
    ``realizations(raw)``, ``computed_bytes(raw)`` and ``properties()``."""

    name = ""
    min_reps = 1
    has_pool = False

    def __init__(self, seed: int, tiny: bool, scratch: Path):
        self.seed = seed
        self.tiny = tiny
        self.scratch = scratch
        self._reference = None      # digest of the first repetition's result

    def _same_as_first(self, digest) -> list[str]:
        if self._reference is None:
            self._reference = digest
            return []
        if digest != self._reference:
            return ["result differs from the first repetition with the same seed"]
        return []


class _EnsembleWorkload(Workload):
    """run_ensemble on a gapped configuration (H >= 1), so every spectrum has
    exactly n negative eigenvalues and min |eigenvalue| >= 1."""

    def prepare(self):
        from randblock import spectra

        self.spectra = spectra
        self.config = self._config()
        self.serial_config = dataclasses.replace(self.config, threads=1)

    def attempted(self) -> int:
        return self.config.realizations

    def _run_ensemble(self, serial: bool):
        config = self.serial_config if serial else self.config
        return self.spectra.run_ensemble(config)

    def _check_spectra(self, result) -> list[str]:
        errors = []
        config = self.config
        n = config.cube.n_sites
        if result.failures:
            errors.append(f"{len(result.failures)} failed solves")
        if list(result.realization_ids) != list(range(config.realizations)):
            errors.append("realization ids are not 0..R-1")
            return errors
        ev = np.asarray(result.spectra, dtype=float)
        if ev.shape != (config.realizations, 2 * n):
            errors.append(f"spectra have shape {ev.shape}")
            return errors
        if not np.isfinite(ev).all():
            errors.append("non-finite eigenvalue")
        if (np.diff(ev, axis=1) < 0).any():
            errors.append("spectrum not ascending")
        negatives = (ev < 0).sum(axis=1)
        if (negatives != n).any():
            errors.append(f"half/half split broken in {(negatives != n).sum()} realizations")
        if np.abs(ev).min() < 1.0 - GAP_TOL:
            errors.append(f"min |eigenvalue| {np.abs(ev).min()!r} inside the gap [-1, 1]")
        return errors

    def computed_bytes(self, result) -> tuple[int, int]:
        dim = 2 * self.config.cube.n_sites
        held = sum(np.asarray(ev).nbytes for ev in result.spectra)
        return dim * dim * 8, held

    def properties(self) -> dict:
        c = self.config
        return {"dim": c.cube.dim, "side": c.cube.side, "boundary": c.boundary,
                "realizations": c.realizations, **_block_properties(c),
                "grid_points": c.grid_points, "workers": c.threads}


class Wegner1D(_EnsembleWorkload):
    """c08 shape: 1-d, L=201, boundary N, V~U[1,2], b~U[-0.5,0.5], mode H.

    Two realizations per repetition (about 0.8 s on a 2-vCPU VM), the fewest
    that leave wegner_check bins with 100 eigenvalues."""

    name = "wegner-1d"

    def _config(self):
        from randblock import analysis
        from randblock.disorder import DensitySpec, DisorderModel, bv_norm
        from randblock.lattice import Cube, PeriodicPotential

        self.analysis = analysis
        side, reps = (21, 4) if self.tiny else (201, 2)
        self.min_count = 10 if self.tiny else 100
        disorder = DisorderModel(DensitySpec.uniform(1.0, 2.0), DensitySpec.uniform(-0.5, 0.5))
        self.bound = analysis.WegnerBound("H", 1.0, bv_norm(disorder.mu_v))
        return self.spectra.ExperimentConfig(
            Cube(1, side), "N", disorder, PeriodicPotential.zero(1), reps, self.seed,
            threads=1)

    def run(self, serial=False):
        result = self._run_ensemble(serial)
        report = self.analysis.wegner_check(result, self.bound, min_count=self.min_count)
        return result, report

    def failed(self, raw) -> int:
        return len(raw[0].failures)

    def realizations(self, raw) -> int:
        return len(raw[0].spectra)

    def check(self, raw) -> list[str]:
        result, report = raw
        errors = self._check_spectra(result)
        if errors:
            return errors
        ev = np.asarray(result.spectra)
        residual = np.abs(ev + ev[:, ::-1]).max(axis=1) / np.abs(ev).max(axis=1)
        if residual.max() > SYMMETRY_TOL:
            errors.append(f"relative symmetry residual {residual.max()!r}")
        if not report.ok:
            errors.append(f"wegner_check reports {len(report.violations)} violations")
        if report.checked_bins < 1:
            errors.append("wegner_check checked no bins")
        return errors + self._same_as_first(_digest(result.spectra))

    def computed_bytes(self, raw):
        return super().computed_bytes(raw[0])


class Ids2DPool(_EnsembleWorkload):
    """Many small bracketing (+) realizations on a 2-d cube through the
    process pool, with a period-(2,2) background and a fine IDS grid."""

    name = "ids-2d-pool"
    has_pool = True

    def _config(self):
        from randblock.disorder import DensitySpec, DisorderModel
        from randblock.lattice import Cube, PeriodicPotential

        side, reps, grid = (3, 6, 256) if self.tiny else (6, 32, 2048)
        disorder = DisorderModel(DensitySpec.uniform(1.0, 2.0), DensitySpec.uniform(-0.5, 0.5))
        # U0 >= 0 and V >= 1 keep both diagonal blocks >= 1: a gap of [-1, 1]
        background = PeriodicPotential((2, 2), np.array([[0.0, 0.25], [0.5, 0.75]]))
        return self.spectra.ExperimentConfig(
            Cube(2, side), "+", disorder, background, reps, self.seed,
            grid_points=grid, threads=2)

    def run(self, serial=False):
        return self._run_ensemble(serial)

    def failed(self, result) -> int:
        return len(result.failures)

    def realizations(self, result) -> int:
        return len(result.spectra)

    def check(self, result) -> list[str]:
        errors = self._check_spectra(result)
        if errors:
            return errors
        ids = np.asarray(result.ids_mean)
        grid = np.asarray(result.grid)
        if ids[0] != 0.0 or ids[-1] != 1.0:
            errors.append(f"IDS runs from {ids[0]!r} to {ids[-1]!r}, not 0 to 1")
        if (np.diff(ids) < 0).any():
            errors.append("IDS decreases")
        in_gap = np.abs(grid) < 1.0 - GAP_TOL
        if not in_gap.any():
            errors.append("no grid point inside the gap")
        elif (ids[in_gap] != 0.5).any():
            errors.append("IDS is not exactly 1/2 inside the gap")
        dim = 2 * self.config.cube.n_sites
        recount = np.mean([np.searchsorted(ev, grid, side="right") for ev in result.spectra],
                          axis=0) / dim
        if np.abs(recount - ids).max() > IDS_TOL:
            errors.append("IDS disagrees with the spectra it was computed from")
        return errors + self._same_as_first(_digest(result.spectra + [ids]))


class Lifshits1D(Workload):
    """c11's probe: tail probe with Sturm bisection, V~U[0.5,1.5], lam=0.5.

    The epsilons stop at 0.25 (P ~ 0.06), so 400 realizations per epsilon
    give every point hits and misses for every seed and the fit uses all
    five; a repetition takes about half a second."""

    name = "lifshits-1d"

    def prepare(self):
        from randblock import analysis
        from randblock.disorder import DensitySpec

        self.analysis = analysis
        eps, reps = (TINY_EPSILONS, 300) if self.tiny else (EPSILONS, 400)
        self.run_spec = analysis.LifshitsRun(eps, DensitySpec.uniform(0.5, 1.5), 0.5,
                                             self.seed, realizations=reps)

    def attempted(self) -> int:
        return len(self.run_spec.epsilons) * self.run_spec.realizations

    def run(self, serial=False):
        table = self.analysis.lifshits_probe(self.run_spec)
        fit = self.analysis.lifshits_exponent_fit(table.epsilons, table.p_hat)
        return table, fit

    def failed(self, raw) -> int:
        return 0

    def realizations(self, raw) -> int:
        return self.attempted()

    def expected_sides(self):
        r = self.run_spec
        return [max(2, math.ceil(r.c * e ** (-r.alpha / r.dim))) for e in r.epsilons]

    def check(self, raw) -> list[str]:
        table, fit = raw
        errors = []
        p, se = np.asarray(table.p_hat), np.asarray(table.stderr)
        if list(table.sides) != self.expected_sides():
            errors.append(f"box sides {list(table.sides)} != {self.expected_sides()}")
        if table.realizations != self.run_spec.realizations:
            errors.append("wrong realization count")
        if not ((p >= 0) & (p <= 1)).all():
            errors.append("probability outside [0, 1]")
        # c11: P may rise with decreasing eps only within two standard errors
        if any(p[k + 1] > p[k] + 2 * (se[k] + se[k + 1]) for k in range(len(p) - 1)):
            errors.append("tail probability not monotone in eps")
        if not (math.isfinite(fit.alpha_hat) and fit.alpha_hat >= 0.25):
            errors.append(f"alpha_hat {fit.alpha_hat!r} < 0.25")
        return errors + self._same_as_first(_digest([p, [fit.alpha_hat]]))

    def computed_bytes(self, raw) -> tuple[int, int]:
        largest = max(self.expected_sides())
        return largest * largest * 8, 0

    def properties(self) -> dict:
        return {
            "dim": 1, "boundary": "N", "realizations_per_eps": self.run_spec.realizations,
            "eps_to_L": {repr(e): s for e, s in zip(self.run_spec.epsilons,
                                                     self.expected_sides())},
            "matrix": "tridiagonal, half-bandwidth 1", "workers": 1,
        }


class CliExample(Workload):
    """Every CLI command in-process on configs/example.json, --threads 1, with
    the ensembles cut to 2 realizations and the tail probe to 200 per epsilon,
    so that a repetition of all seven commands takes about 1.3 seconds."""

    name = "cli-example"
    min_reps = 2        # the determinism check compares two repetitions

    def __init__(self, seed, tiny, scratch, config_path: Path):
        super().__init__(seed, tiny, scratch)
        self.config_path = config_path
        self._rep = 0

    def prepare(self):
        from randblock import cli, config

        self.cli = cli
        doc = json.loads(self.config_path.read_text())
        doc["realizations"] = 2
        doc["lifshits"]["realizations"] = 200
        if self.tiny:
            doc["cube"]["side"] = 11
            doc["wegner"]["min_count"] = 5
            doc["lifshits"]["realizations"] = 40
        path = self.path = self.scratch / "config.json"
        path.write_text(json.dumps(doc))
        self.config, self.extras, _ = config.load_config(path, self.seed, 1)

    def attempted(self) -> int:
        return len(CLI_COMMANDS)

    def run(self, serial=False):
        out = self.scratch / f"rep{self._rep}"
        self._rep += 1
        codes = {}
        for command in CLI_COMMANDS:
            codes[command] = self.cli.main([
                command, "--config", str(self.path), "--out", str(out),
                "--seed", str(self.seed), "--threads", "1", "--quiet"])
        return codes, out

    def failed(self, raw) -> int:
        return sum(code != 0 for code in raw[0].values())

    def realizations(self, raw) -> int:
        lif = self.extras["lifshits"]
        return (4 * self.config.realizations
                + len(lif["epsilons"]) * int(lif.get("realizations", 2000)))

    def check(self, raw) -> list[str]:
        codes, out = raw
        errors = [f"{c} exited {code}" for c, code in codes.items() if code != 0]
        digests = {}
        for command in CLI_COMMANDS[1:]:
            manifest_path = out / f"{command}_manifest.json"
            if not manifest_path.is_file():
                errors.append(f"{command}: no manifest")
                continue
            outputs = json.loads(manifest_path.read_text()).get("outputs", {})
            if not outputs:
                errors.append(f"{command}: manifest lists no outputs")
            for name, digest in outputs.items():
                if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
                    errors.append(f"{command}: digest of {name} does not match its file")
            digests[command] = outputs
        shutil.rmtree(out, ignore_errors=True)
        return errors + self._same_as_first(digests)

    def computed_bytes(self, raw) -> tuple[int, int]:
        dim = 2 * self.config.cube.n_sites
        return dim * dim * 8, self.config.realizations * dim * 8

    def properties(self) -> dict:
        c = self.config
        return {"config": self.config_path.name, "dim": c.cube.dim, "side": c.cube.side,
                "boundary": c.boundary, "realizations": c.realizations,
                **_block_properties(c), "grid_points": c.grid_points, "workers": 1,
                "commands": list(CLI_COMMANDS)}


WORKLOADS = {w.name: w for w in (Wegner1D, Ids2DPool, Lifshits1D, CliExample)}


def make(name: str, seed: int, tiny: bool, root: Path, scratch: Path) -> Workload:
    if name == CliExample.name:
        return CliExample(seed, tiny, scratch, root / "configs" / "example.json")
    return WORKLOADS[name](seed, tiny, scratch)
