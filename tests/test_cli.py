import copy
import json
import math
import os
import time
from inspect import signature
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import randblock.analysis
import randblock.cli
import randblock.eigen
import randblock.lattice
import randblock.operators
import randblock.spectra
from randblock.analysis import LifshitsRun, lifshits_probe, wegner_check
from randblock.cli import build_parser, main
from randblock.config import (
    ConfigError,
    load_config,
    parse_config,
    parse_density,
)
from randblock.disorder import ConstantValue, DensitySpec, bv_norm, support_bounds
from randblock.spectra import certified_floor


EXAMPLE = Path(__file__).parents[1] / "configs" / "example.json"
_V = {"type": "uniform", "lo": 1, "hi": 2}
_B = {"type": "uniform", "lo": -0.5, "hi": 0.5}


def base_doc(**overrides):
    doc = {
        "schema_version": 1,
        "cube": {"dim": 1, "side": 7},
        "boundary": "N",
        "disorder": {"V": _V, "b": _B},
        "realizations": 3,
        "seed": 11,
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestVerifyCommand:
    def test_passes_and_prints_per_suite(self, capsys):
        assert main(["verify", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") >= 7
        assert "[FAIL]" not in out

    def test_deterministic_output(self, capsys):
        main(["verify", "--seed", "7"])
        first = capsys.readouterr().out
        main(["verify", "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_quiet(self, capsys):
        assert main(["--quiet", "verify", "--seed", "1"]) == 0
        assert capsys.readouterr().out == ""

    def test_quiet_flag_after_subcommand(self, capsys):
        assert main(["verify", "--quiet", "--seed", "1"]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exits_2(self, capsys, seed):
        assert main(["verify", "--seed", str(seed)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error:") and "64 bits" in err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_refusal_worded_as_for_ids(self, tmp_path, capsys, seed):
        assert main(["verify", "--seed", str(seed)]) == 2
        err = capsys.readouterr().err
        assert main(["ids", "--config", write_config(tmp_path, base_doc()),
                     "--out", str(tmp_path / "out"), "--seed", str(seed)]) == 2
        assert capsys.readouterr().err == err == \
            f"config error: seed: must fit in 64 bits, got {seed}\n"

    def test_mutated_boundary_term_is_caught(self, capsys, monkeypatch):
        good = randblock.operators.deficiencies
        monkeypatch.setattr(randblock.operators, "deficiencies", lambda cube: -good(cube))
        assert main(["verify", "--seed", "1"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out

    def test_swapped_boundary_table_is_caught(self, capsys, monkeypatch):
        # verify builds its blocks from the table the ensembles run, so + and -
        # swapped there break the counting chains
        table = randblock.spectra.BOUNDARY_MODES
        plus, minus = table["+"], table["-"]
        monkeypatch.setitem(table, "+", minus)
        monkeypatch.setitem(table, "-", plus)
        assert main(["verify", "--seed", "1"]) == 1
        assert "[FAIL] bracketing-sandwich" in capsys.readouterr().out

    def test_gap_bound_failure_reported(self, capsys, monkeypatch):
        # one instance whose bracketing margin falls below -1e-9 fails the suite
        margins = randblock.verify.gap_margins
        calls = []

        def one_below(rng, n):
            margin, bracketing = margins(rng, n)
            calls.append(n)
            return margin, -1e-6 if len(calls) == 1 else bracketing

        monkeypatch.setattr(randblock.verify, "gap_margins", one_below)
        assert main(["verify", "--seed", "1"]) == 1
        assert ("[FAIL] gap-bound: worst margin -1.000e-06 (replay seed 1)\n"
                in capsys.readouterr().out)

    def test_zero_split_failure_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(randblock.verify, "zero_split_check", lambda ev: False)
        assert main(["verify", "--seed", "1"]) == 1
        assert "[FAIL] zero-split: split violated (replay seed 1)\n" in capsys.readouterr().out


class TestConfigErrors:
    def test_missing_config_flag(self, capsys):
        assert main(["ids"]) == 2
        assert "--config is required" in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        path = write_config(tmp_path, base_doc(realisations=3))
        assert main(["ids", "--config", path, "--out", str(tmp_path)]) == 2
        assert "realisations" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        doc = base_doc()
        del doc["seed"]
        assert main(["ids", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_unknown_density_key(self, tmp_path, capsys):
        doc = base_doc()
        doc["disorder"]["V"] = {"type": "uniform", "lo": 1, "hi": 2, "width": 1}
        assert main(["ids", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path)]) == 2
        assert "width" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path, capsys):
        path = write_config(tmp_path, base_doc(schema_version=99))
        assert main(["ids", "--config", path, "--out", str(tmp_path)]) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["ids", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_unreadable_config_path(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["ids", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: cannot read config: ") and str(path) in err

    @pytest.mark.parametrize("overrides, line", [
        ({"cube": 5}, "cube: expected an object, got 5"),
        ({"disorder": {"V": {"type": "piecewise", "breakpoints": [0, 1, 2], "heights": [1]},
                       "b": _B}},
         "disorder.V: need k+1 breakpoints for k cell heights"),
        ({"disorder": {"V": {"type": "piecewise", "breakpoints": [0, 2, 1], "heights": [1, 1]},
                       "b": _B}},
         "disorder.V.breakpoints: must be strictly ascending"),
    ], ids=["record-not-an-object", "breakpoints-count", "breakpoints-descending"])
    def test_refusal_line(self, tmp_path, capsys, overrides, line):
        path = write_config(tmp_path, base_doc(**overrides))
        assert main(["ids", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"

    @pytest.mark.parametrize("mode, disorder, err", [
        ("H", {"V": {"type": "uniform", "lo": 0, "hi": 1}, "b": _B},
         "'H' needs a positive floor, but min U0 + inf supp V is 0.0"),
        ("B", {"V": _V, "b": _B}, "'B' needs a positive floor, but inf supp b is -0.5"),
    ])
    def test_wegner_floor_not_positive_refused_before_run(self, tmp_path, capsys, mode,
                                                         disorder, err):
        # no positive constant is certified, so no bound: the huge run never starts
        doc = base_doc(disorder=disorder, wegner={"mode": mode}, realizations=10_000_000)
        out = tmp_path / "out"
        assert main(["wegner", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: wegner.mode: {err}\n"
        assert not out.exists()

    def test_memory_estimate_constant_time_in_realizations(self, tmp_path, capsys,
                                                            monkeypatch):
        # the estimate refuses 10**15 realizations without cutting them into
        # chunks, which would itself exhaust memory
        def cut(*args):
            raise AssertionError("the estimate cut the chunks")
        monkeypatch.setattr(randblock.spectra, "_chunks", cut)
        path = write_config(tmp_path, base_doc(realizations=10**15))
        out = tmp_path / "out"
        t0 = time.monotonic()
        assert main(["ids", "--config", path, "--out", str(out), "--threads", "1"]) == 2
        assert time.monotonic() - t0 < 1.0
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: the ensemble on a 1-d cube") and "GB" in err
        assert not out.exists()

    @pytest.mark.parametrize("dim", [64, 10**12])
    def test_cube_dim_past_numpy_refused(self, tmp_path, capsys, dim):
        # coordinates add an axis to dim, and NumPy arrays have at most 64:
        # refused before side**dim and the zero potential's dim axes are formed
        path = write_config(tmp_path, base_doc(cube={"dim": dim, "side": 1}))
        out = tmp_path / "out"
        t0 = time.monotonic()
        assert main(["ids", "--config", path, "--out", str(out)]) == 2
        assert dim < 10**12 or time.monotonic() - t0 < 0.1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"config error: cube.dim: must be at most "
                              f"{randblock.lattice._MAX_DIM}, ") and err.endswith(f"got {dim}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ids", "dos"])
    def test_energy_span_past_float_range_refused(self, tmp_path, capsys, command):
        # with V and b on [1e308, 1.5e308] the bound rho on |E| is inf, and the
        # default grid would read NaN
        huge = {"type": "uniform", "lo": 1e308, "hi": 1.5e308}
        path = write_config(tmp_path, base_doc(disorder={"V": huge, "b": huge}))
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: disorder: supports V [1e+308, 1.5e+308] and b [1e+308, 1.5e+308] "
            "with max|U0| 0.0 bound |E| only by ρ = inf, so the energy span 2ρ overflows\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, overrides, named", [
        ("dostransform", {"dos_transform": {
            "beta": 1.0, "source": {"type": "uniform", "lo": -2, "hi": 2},
            "energies": {"pts": 3}}}, "dos_transform.energies"),
        ("dostransform", {"dos_transform": {
            "beta": 1.0, "source": {"type": "uniform", "lo": -2, "hi": 2},
            "energies": {"lo": -1, "hi": 1, "step": 0.1}}}, "dos_transform.energies"),
        ("dos", {"bin_width": -0.1}, "bin_width"),
        ("dos", {"bin_width": 0}, "bin_width"),
        ("dos", {"bin_width": "wide"}, "bin_width"),
        ("lifshits", {"lifshits": {"epsilons": [-0.1, 0.2]}}, "lifshits.epsilons"),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "realizations": 0}}, "lifshits.realizations"),
        ("dostransform", {"dos_transform": {
            "beta": 0, "source": {"type": "uniform", "lo": -2, "hi": 2}}}, "dos_transform.beta"),
        ("ids", {"grid": {"lo": "-1", "hi": "1"}}, "grid.lo"),
        ("ids", {"grid": {"points": "many"}}, "grid.points"),
        ("ids", {"seed": "x"}, "seed"),
        ("ids", {"potential": {"period": [2, 2], "values": [[0, 0], [0, 0.5]]}}, "potential"),
        ("ids", {"cube": {"dim": 2, "side": 4},
                 "potential": {"period": [2], "values": [0, 0.5]}}, "potential"),
        ("ids", {"cube": {"dim": [1], "side": 7}}, "cube.dim"),
        ("ids", {"cube": {"dim": 1, "side": 7, "centered": False}}, "cube"),
        ("ids", {"cube": {"dim": 1, "side": 11.9}, "realizations": 3.7}, "cube.side"),
        ("ids", {"cube": {"dim": True, "side": 7}}, "cube.dim"),
        ("ids", {"realizations": True}, "realizations"),
        ("ids", {"realizations": "3"}, "realizations"),
        ("ids", {"seed": 11.0}, "seed"),
        ("ids", {"seed": -1}, "seed"),
        ("ids", {"seed": 2**64}, "seed"),
        ("ids", {"grid": {"points": 64.5}}, "grid.points"),
        ("wegner", {"wegner": {"mode": "H", "min_count": 50.5}}, "wegner.min_count"),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "realizations": True}},
                     "lifshits.realizations"),
        ("dostransform", {"dos_transform": {
            "beta": 1.0, "source": {"type": "uniform", "lo": -2, "hi": 2},
            "energies": {"lo": -1, "hi": 1, "points": 10.5}}}, "dos_transform.energies.points"),
        ("wegner", {}, "wegner"),
        ("lifshits", {}, "lifshits"),
        ("dostransform", {}, "dos_transform"),
        ("ids", {"disorder": {"V": {"type": "uniform", "lo": "1", "hi": 2}, "b": _B}},
                "disorder.V.lo"),
        ("ids", {"disorder": {"V": {"type": "uniform", "lo": 1, "hi": "2"}, "b": _B}},
                "disorder.V.hi"),
        ("ids", {"disorder": {"V": _V, "b": {"type": "constant", "value": True}}},
                "disorder.b.value"),
        ("ids", {"disorder": {"V": {"type": "piecewise", "breakpoints": ["1", 1.5, 2],
                                    "heights": [1, 1]}, "b": _B}}, "disorder.V.breakpoints[0]"),
        ("ids", {"grid": {"lo": -math.inf, "hi": 1}}, "grid.lo"),
        ("dos", {"bin_width": True}, "bin_width"),
        ("lifshits", {"lifshits": {"epsilons": ["0.2"]}}, "lifshits.epsilons[0]"),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "c": "4"}}, "lifshits.c"),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "c": math.inf}}, "lifshits.c"),
        ("dostransform", {"dos_transform": {
            "beta": "1", "source": {"type": "uniform", "lo": -2, "hi": 2}}}, "dos_transform.beta"),
        ("dostransform", {"dos_transform": {
            "beta": 1.0, "source": {"type": "uniform", "lo": -2, "hi": 2},
            "energies": {"lo": "-1", "hi": 1}}}, "dos_transform.energies.lo"),
        ("dostransform", {"dos_transform": {
            "beta": 1.0, "source": {"type": "uniform", "lo": -2, "hi": 2},
            "energies": {"lo": -1, "hi": math.inf}}}, "dos_transform.energies.hi"),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "c": 0}}, "lifshits.c"),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "c": -4.0}}, "lifshits.c"),
        ("ids", {"potential": {"period": [2], "values": ["0", "0.5"]}}, "potential.values[0]"),
        ("ids", {"potential": {"period": [2], "values": [0, True]}}, "potential.values[1]"),
        ("ids", {"potential": {"period": [2], "values": [0, math.nan]}}, "potential.values[1]"),
        ("ids", {"potential": {"period": ["2"], "values": [0, 0.5]}}, "potential.period[0]"),
        ("dostransform", {"dos_transform": {
            "beta": 1.0, "source": {"type": "uniform", "lo": -2, "hi": 2},
            "energies": {"lo": -1, "hi": 1, "points": 10**12}}}, "the DOS transform"),
        ("dostransform", {"dos_transform": {
            "beta": 1.0, "source": {"type": "uniform", "lo": -2, "hi": 2},
            "energies": {"lo": -1, "hi": 1, "points": 0}}}, "dos_transform.energies.points"),
        ("lifshits", {"lifshits": {"epsilons": []}}, "lifshits.epsilons"),
        ("dostransform", {"dos_transform": {
            "beta": 1.0, "source": {"type": "uniform", "lo": -2, "hi": 2},
            "energies": {"lo": 2, "hi": -2}}}, "dos_transform.energies.hi"),
        ("dostransform", {"dos_transform": {
            "beta": 1.0, "source": {"type": "uniform", "lo": -2, "hi": 2},
            "energies": {"lo": 1, "hi": 1}}}, "dos_transform.energies.hi"),
        ("lifshits", {"lifshits": {"epsilons": 0.1}}, "lifshits.epsilons"),
        ("lifshits", {"lifshits": {"epsilons": "0.1"}}, "lifshits.epsilons"),
        ("ids", {"disorder": {"V": {"type": "piecewise", "breakpoints": 1,
                                    "heights": [1]}, "b": _B}}, "disorder.V.breakpoints"),
        ("ids", {"potential": {"period": 2, "values": [0, 0.5]}}, "potential.period"),
        ("ids", {"potential": {"period": "2", "values": [0, 0.5]}}, "potential.period"),
        ("ids", {"schema_version": True}, "schema_version"),
        ("ids", {"schema_version": 1.0}, "schema_version"),
        ("wegner", {"wegner": {"mode": "H", "min_count": -5}}, "wegner.min_count"),
        ("ids", {"lifshits": {"epsilons": [0.2], "c": "one"}}, "lifshits.c"),
        ("lifshits", {"lifshits": {"epsilons": [[0.2]]}}, "lifshits.epsilons[0]"),
        ("ids", {"grid": {"lo": 1}}, "grid"),
        ("ids", {"realizations": 0}, "realizations"),
        ("ids", {"grid": {"lo": 1, "hi": 1}}, "grid"),
        ("ids", {"grid": {"points": 1}}, "grid.points"),
        ("ids", {"cube": {"dim": 1, "side": 0}}, "cube.side"),
        ("ids", {"cube": {"dim": 0, "side": 7}}, "cube.dim"),
        ("ids", {"potential": {"period": [0], "values": []}}, "potential.period"),
        ("ids", {"potential": {"period": [2], "values": [0, 0.5, 1]}}, "potential.values"),
        ("ids", {"disorder": {"V": {"type": "uniform", "lo": 2, "hi": 1}, "b": _B}},
                "disorder.V.hi"),
        ("ids", {"grid": {"hi": 1}}, "grid"),
        ("lifshits", {"disorder": {"V": {"type": "constant", "value": 1.5}, "b": _B},
                      "lifshits": {"epsilons": [0.2]}}, "lifshits"),
        ("dostransform", {"dos_transform": {
            "beta": 1.0, "source": {"type": "constant", "value": 0.5}}}, "dos_transform.source"),
        ("wegner", {"disorder": {"V": _V, "b": {"type": "constant", "value": 0.5}},
                    "wegner": {"mode": "B"}}, "wegner"),
        ("lifshits", {"lifshits": {"epsilons": [0.1], "c": 1e308}}, "lifshits"),
        ("lifshits", {"lifshits": {"epsilons": [0.4], "c": 1e308}}, "the tail probe"),
        ("ids", {"cube": {"dim": 1, "side": 10**400}}, "cube"),
        ("ids", {"disorder": {"V": {"type": "uniform", "lo": -1e308, "hi": 1e308}, "b": _B}},
                "disorder.V"),
        ("ids", {"grid": {"lo": -1e308, "hi": 1e308}}, "grid"),
        ("dostransform", {"dos_transform": {
            "beta": 1.0, "source": {"type": "uniform", "lo": -2, "hi": 2},
            "energies": {"lo": -1e308, "hi": 1e308}}}, "dos_transform.energies.hi"),
        ("ids", {"boundary": ["N"]}, "boundary"),
        ("wegner", {"wegner": {"mode": ["H"]}}, "wegner.mode"),
    ], ids=["energies-missing-lo-hi", "energies-unknown-key", "bin-width-negative",
            "bin-width-zero", "bin-width-not-a-number", "epsilons-negative",
            "lifshits-realizations-zero", "beta-zero",
            "grid-bounds-not-numbers", "grid-points-not-a-number",
            "seed-not-an-integer", "period-more-axes-than-cube",
            "period-fewer-axes-than-cube", "cube-dim-not-an-integer",
            "centered-unknown-key", "side-and-realizations-fractional",
            "cube-dim-boolean", "realizations-boolean", "realizations-string",
            "seed-fractional", "seed-negative", "seed-above-64-bits",
            "grid-points-fractional", "min-count-fractional",
            "lifshits-realizations-boolean", "energies-points-fractional",
            "wegner-section-missing",
            "lifshits-section-missing", "dos-transform-section-missing",
            "density-lo-string", "density-hi-string", "density-value-boolean",
            "breakpoint-string", "grid-lo-infinite", "bin-width-boolean",
            "epsilons-string",
            "c-string", "c-infinite", "beta-string",
            "energies-lo-string", "energies-hi-infinite", "c-zero", "c-negative",
            "potential-value-string", "potential-value-boolean",
            "potential-value-nan", "potential-period-string",
            "energies-points-too-many-for-memory",
            "energies-points-zero", "epsilons-empty", "energies-hi-below-lo",
            "energies-hi-equal-lo", "epsilons-number", "epsilons-string-not-array",
            "breakpoints-number", "period-number", "period-string",
            "schema-version-boolean", "schema-version-fractional", "min-count-negative",
            "section-read-whatever-the-command", "epsilons-nested", "grid-lo-without-hi",
            "realizations-zero", "grid-hi-equal-lo", "grid-points-one", "cube-side-zero",
            "cube-dim-zero", "potential-period-zero",
            "potential-values-wrong-shape", "density-hi-below-lo",
            "grid-hi-without-lo", "lifshits-v-constant",
            "dos-transform-source-constant", "wegner-mode-b-with-constant-b",
            "c-overflows-side", "side-past-float-range",
            "cube-side-past-float-range", "density-span-infinite",
            "grid-span-infinite", "energies-span-infinite", "boundary-array",
            "wegner-mode-array"])
    def test_malformed_config_one_line_exit_2(self, tmp_path, capsys, command, overrides,
                                              named):
        path = write_config(tmp_path, base_doc(**overrides))
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        # the key path, or what is too large to fit in memory
        assert err.startswith(f"config error: {named if named.startswith('the ') else named + ':'}")
        assert "Traceback" not in err
        assert not out.exists()       # a refused command writes nothing

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        path = write_config(tmp_path, base_doc())
        assert main(["ids", "--config", path, "--out", str(tmp_path), "--threads", threads]) == 2
        assert capsys.readouterr().err == (f"config error: --threads: must be at least 1, "
                                           f"got {threads}\n")

    def test_threads_default_is_usable_cpus(self, tmp_path, monkeypatch):
        # pinned to one of eight CPUs, the default --threads is 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        threads = []
        run = randblock.cli.run_ensemble
        monkeypatch.setattr(randblock.cli, "run_ensemble",
                            lambda config: threads.append(config.threads) or run(config))
        path = write_config(tmp_path, base_doc())
        assert main(["ids", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert threads == [1]

    def test_wegner_min_count_refused_before_run(self, tmp_path, capsys, monkeypatch):
        def never(config):
            raise AssertionError("the ensemble ran before min_count was checked")
        monkeypatch.setattr(randblock.cli, "run_ensemble", never)
        doc = base_doc(wegner={"mode": "H", "min_count": "x"})
        path = write_config(tmp_path, doc)
        assert main(["wegner", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error:")

    def test_memory_guard_before_allocation(self, tmp_path, capsys, monkeypatch):
        # 3-d side 40: half-bandwidth 3200 on a 128000-dimensional block, ~3.3 GB
        # of band storage per copy; two workers hold several copies
        monkeypatch.setattr(randblock.lattice, "memory_limit", lambda: 8 * 2**30)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        path = write_config(tmp_path, base_doc(cube={"dim": 3, "side": 40}))
        t0 = time.monotonic()
        assert main(["ids", "--config", path, "--out", str(tmp_path), "--threads", "2"]) == 2
        assert time.monotonic() - t0 < 1.0
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error:")
        assert "half-bandwidth 3200" in err and "8.59 GB of memory available" in err

    def test_lifshits_memory_guard_before_draw(self, tmp_path, capsys, monkeypatch):
        # 100000 realizations of side 9 need tens of MB; the limit is 1 MiB
        def never(*args):
            raise AssertionError("the tail probe drew before its memory was checked")
        monkeypatch.setattr(randblock.analysis, "sample_iid", never)
        monkeypatch.setattr(randblock.lattice, "memory_limit", lambda: 2**20)
        doc = base_doc(lifshits={"epsilons": [0.4, 0.2],
                                 "realizations": 100_000})
        path = write_config(tmp_path, doc)
        assert main(["lifshits", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: the tail probe")
        assert "0.0576 GB" in err and "0.00105 GB of memory available" in err

    @pytest.mark.parametrize("epsilons", [0.1, "0.1"], ids=["number", "string"])
    def test_epsilons_not_an_array(self, tmp_path, capsys, epsilons):
        path = write_config(tmp_path, base_doc(lifshits={"epsilons": epsilons}))
        assert main(["lifshits", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "epsilons: expected an array" in capsys.readouterr().err

    @pytest.mark.parametrize("period", [2, "2"], ids=["number", "string"])
    def test_period_not_an_array(self, tmp_path, capsys, period):
        path = write_config(tmp_path, base_doc(potential={"period": period, "values": [0, 0.5]}))
        assert main(["ids", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "potential.period: expected an array" in capsys.readouterr().err

    def test_wegner_mode_named(self, tmp_path, capsys):
        doc = base_doc(disorder={"V": _V, "b": {"type": "constant", "value": 0.5}},
                       wegner={"mode": "X"})
        path = write_config(tmp_path, doc)
        assert main(["wegner", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: wegner.mode: must be 'H' or 'B', got 'X'\n"

    def test_every_record_refuses_unknown_key(self, tmp_path, capsys):
        # every object record found by walking the schema tables, each
        # density type at each density key: a record added to a table needs
        # a sample in `full`
        densities = [_V, {"type": "piecewise", "breakpoints": [1, 1.5, 2], "heights": [1, 1]},
                     {"type": "constant", "value": 1.5}]
        assert sorted(d["type"] for d in densities) == sorted(randblock.config._DENSITIES)
        full = base_doc(
            potential={"period": [1], "values": [0]}, grid={"lo": -4, "hi": 4, "points": 64},
            lifshits={"epsilons": [0.2]}, wegner={"mode": "H"},
            dos_transform={"beta": 1.0, "source": _B, "energies": {"lo": -1, "hi": 1}})
        cases = []                    # (key path, record)

        def walk(table, path, record):
            cases.append((path, record))
            for key, read in table.readers.items():
                if isinstance(read, randblock.config._Record):
                    walk(read, path + (key,), record[key])
                elif read is randblock.config.parse_density:
                    cases.extend((path + (key,), density) for density in densities)

        walk(randblock.config._DOCUMENT, (), full)
        assert len(cases) == 9 + 3 * len(densities)
        for path, record in cases:
            doc = parent = copy.deepcopy(full)
            for key in path[:-1]:
                parent = parent[key]
            if path:
                parent[path[-1]] = {**record, "bogus": 1}
            else:
                doc["bogus"] = 1
            assert main(["ids", "--config", write_config(tmp_path, doc),
                         "--out", str(tmp_path / "out")]) == 2, path
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1, path
            assert f"{'.'.join(path) or 'config'}: unknown key(s) ['bogus']" in err, path

    def test_ids_leaves_section_ranges_to_their_commands(self, tmp_path):
        # a section's types are read whatever the command; its ranges only by
        # the command that builds it
        doc = base_doc(wegner={"mode": "X"}, lifshits={"epsilons": [0.2], "c": 0},
                       dos_transform={"beta": 0, "source": _V})
        path = write_config(tmp_path, doc)
        assert main(["ids", "--config", path, "--out", str(tmp_path / "out")]) == 0

    def test_lifshits_needs_section(self, tmp_path, capsys):
        path = write_config(tmp_path, base_doc())
        assert main(["lifshits", "--config", path, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("overrides, line", [
        ({"potential": {"period": [2], "values": [0, 5]}},
         "config error: potential: must be zero for lifshits, whose probe samples "
         "-lap_N + V only\n"),
        ({"cube": {"dim": 2, "side": 4}},
         "config error: cube.dim: must be 1, got 2: only the one-dimensional "
         "tridiagonal probe is implemented\n"),
    ], ids=["nonzero-potential", "two-dimensional"])
    def test_lifshits_refuses_what_its_probe_ignores(self, tmp_path, capsys, overrides, line):
        # the probe samples -lap_N + V on 1-d boxes: a U0 or a cube of another
        # dim is refused, naming its key, not echoed in a manifest unsampled
        path = write_config(tmp_path, base_doc(lifshits={"epsilons": [0.2]}, **overrides))
        out = tmp_path / "out"
        assert main(["lifshits", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == line
        assert not out.exists()

    @pytest.mark.parametrize("command, section", [
        ("ids", {}),
        ("dostransform", {"dos_transform": {"beta": 1.0, "source": _V}}),
        ("lifshits", {"lifshits": {"epsilons": [0.5]}}),
    ])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, monkeypatch, command, section, below):
        # --out naming an existing file, or a directory under one, is refused
        # before anything is drawn or solved
        def never(*args):
            raise AssertionError("the command ran before --out was checked")
        monkeypatch.setattr(randblock.cli, "run_ensemble", never)
        monkeypatch.setattr(randblock.cli, "lifshits_probe", never)
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = blocker / "sub" if below else blocker
        path = write_config(tmp_path, base_doc(**section))
        assert main([command, "--config", path, "--out", str(out), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"config error: --out: cannot write {out}: ")
        assert "Traceback" not in err
        assert blocker.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]

    def test_out_below_unwritable_directory_exit_2(self, tmp_path, capsys, monkeypatch):
        # the nearest existing ancestor of --out must be writable; os.access
        # stands in for the permission bits, which do not bind a superuser
        locked = tmp_path / "locked"
        locked.mkdir()
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode: Path(p) != locked and access(p, mode))
        monkeypatch.setattr(randblock.cli, "run_ensemble", lambda config: pytest.fail("ran"))
        out = locked / "a" / "b"
        path = write_config(tmp_path, base_doc())
        assert main(["ids", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: --out: cannot write {out}: Permission denied\n"
        assert list(locked.iterdir()) == []


class TestCachedParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_independent(self, tmp_path, capsys):
        # flags given to one call must not carry into the next through the
        # shared parser
        assert main(["verify", "--seed", "3", "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "(replay seed 0)" in out and "replay seed 3" not in out
        path = write_config(tmp_path, base_doc())
        for out_dir, extra, seed in (("a", ["--seed", "99"], 99), ("b", [], 11)):
            assert main(["ids", "--config", path, "--out", str(tmp_path / out_dir)] + extra) == 0
            manifest = json.loads((tmp_path / out_dir / "ids_manifest.json").read_text())
            assert manifest["base_seed"] == seed


def test_write_csv_matches_per_value_format(tmp_path):
    # reference: each value formatted on its own, int-like as str(int), the
    # rest as repr(float)
    def fmt(x):
        return str(int(x)) if isinstance(x, (int, np.integer)) else repr(float(x))
    columns = [np.array([0.1, -0.0, 1e-300, np.nan, -np.inf]),
               np.arange(5) * 2**40, [7] * 5, np.array([1, 2, 3, 4, 5], dtype=np.int32),
               np.array([1, 0, 2, 3, 4], dtype=float)]
    randblock.cli._write_csv(tmp_path / "t.csv", ["note"], list("abcde"), *columns)
    rows = [",".join(fmt(x) for x in row) for row in zip(*columns)]
    assert (tmp_path / "t.csv").read_text() == "\n".join(["# note", "a,b,c,d,e"] + rows) + "\n"


class TestBlasIdentity:
    """The manifest's ``blas`` is None where NumPy's build config has no
    ``["Build Dependencies"]["lapack"]`` entry (`test_ids_byte_identical_reruns`
    checks the entry NumPy has)."""

    @pytest.mark.parametrize("config", [SimpleNamespace(), SimpleNamespace(CONFIG={}),
                                        SimpleNamespace(CONFIG={"Build Dependencies": {}})],
                             ids=["no-config", "no-section", "no-lapack"])
    def test_none_without_the_keys(self, monkeypatch, config):
        monkeypatch.setattr(np, "__config__", config)
        assert randblock.cli._blas_identity() is None


class TestEnsembleCommands:
    def test_largest_cube_dim_runs(self, tmp_path):
        doc = base_doc(cube={"dim": randblock.lattice._MAX_DIM, "side": 1})
        path = write_config(tmp_path, doc)
        assert main(["--quiet", "ids", "--config", path, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command, name", [("ids", "ids.csv"), ("dos", "dos.csv")])
    def test_square_overflow_solved_on_block(self, tmp_path, command, name):
        # V on [1e154, 1.5e154] certifies the square's floor, but its entries,
        # of size rho², would overflow: the block is solved instead
        doc = base_doc(disorder={"V": {"type": "uniform", "lo": 1e154, "hi": 1.5e154}, "b": _B})
        path = write_config(tmp_path, doc)
        assert main(["--quiet", command, "--config", path, "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / f"{command}_manifest.json").read_text())
        assert manifest["driver"] == "dsbevd" and manifest["failed_realizations"] == 0
        table = np.loadtxt(tmp_path / name, delimiter=",", comments="#", skiprows=2)
        assert table.size and np.isfinite(table).all()

    def test_ids_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, base_doc())
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["ids", "--config", path, "--out", str(d1)]) == 0
        assert main(["ids", "--config", path, "--out", str(d2)]) == 0
        assert (d1 / "ids.csv").read_bytes() == (d2 / "ids.csv").read_bytes()
        m1 = json.loads((d1 / "ids_manifest.json").read_text())
        m2 = json.loads((d2 / "ids_manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]
        assert "backend" not in m1   # `driver` names the LAPACK routine
        assert (m1["driver"], m1["half_bandwidth"]) == ("zhbevd", 2)   # 1-d, side 7
        # the LAPACK NumPy is built with, in which the band solves run
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        assert m1["blas"] == {"name": lapack["name"], "version": lapack["version"]}
        assert m1["thread_env"] == {k: v for k, v in os.environ.items()
                                    if k.endswith("_NUM_THREADS")}

    def test_ids_csv_contents(self, tmp_path):
        path = write_config(tmp_path, base_doc())
        assert main(["ids", "--config", path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "ids.csv").read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "E,N_mean,N_stderr"
        rows = np.array([[float(x) for x in ln.split(",")]
                         for ln in lines if not ln.startswith("#") and "," in ln
                         and not ln.startswith("E")])
        assert np.all(np.diff(rows[:, 1]) >= 0)
        assert rows[0, 1] == 0.0 and rows[-1, 1] == 1.0

    def test_dos_and_gap(self, tmp_path):
        path = write_config(tmp_path, base_doc())
        assert main(["dos", "--config", path, "--out", str(tmp_path)]) == 0
        assert main(["gap", "--config", path, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "dos.csv").exists()
        gap_lines = (tmp_path / "gap.csv").read_text().splitlines()
        data = [ln for ln in gap_lines if not ln.startswith("#")][1:]
        assert len(data) == 3

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path, base_doc())
        d1, d2 = tmp_path / "a", tmp_path / "b"
        main(["ids", "--config", path, "--out", str(d1)])
        main(["ids", "--config", path, "--out", str(d2), "--seed", "99"])
        assert (d1 / "ids.csv").read_bytes() != (d2 / "ids.csv").read_bytes()

    def test_wegner_prints_one_line(self, tmp_path, capsys):
        assert main(["wegner", "--config", str(EXAMPLE), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "wegner_report.json").read_text())
        assert capsys.readouterr().out == (f"wegner: {report['checked_bins']} bins checked, "
                                           f"{len(report['violations'])} violations\n")

    def test_lifshits_prints_one_line(self, tmp_path, capsys):
        assert main(["lifshits", "--config", str(EXAMPLE), "--out", str(tmp_path)]) == 0
        fit = json.loads((tmp_path / "lifshits_fit.json").read_text())
        assert capsys.readouterr().out == (f"lifshits: alpha_hat = {fit['alpha_hat']:.4f} "
                                           f"+/- {fit['jackknife_stderr']:.4f}\n")

    def test_wegner_report(self, tmp_path):
        doc = base_doc(cube={"dim": 1, "side": 11}, realizations=30,
                       wegner={"mode": "H", "min_count": 50})
        path = write_config(tmp_path, doc)
        assert main(["--quiet", "wegner", "--config", path, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "wegner_report.json").read_text())
        assert report["violations"] == []
        assert report["checked_bins"] > 0
        assert report["bv_norm"] == pytest.approx(2.0)

    @pytest.mark.parametrize("mode, disorder, potential, constant", [
        ("H", {"V": _V, "b": _B}, None, 1.0),
        ("H", {"V": _V, "b": _B}, {"period": [2], "values": [0.25, -0.5]}, 0.5),
        ("H", {"V": {"type": "piecewise", "breakpoints": [0, 1, 2], "heights": [0, 1]},
               "b": _B}, None, 1.0),
        ("B", {"V": _B, "b": {"type": "uniform", "lo": 0.5, "hi": 1.5}}, None, 0.5),
        ("B", {"V": _B, "b": {"type": "piecewise", "breakpoints": [0, 0.25, 1.25],
                              "heights": [0, 1]}}, None, 0.25),
    ], ids=["H", "H-periodic-u0", "H-zero-end-cell", "B", "B-zero-end-cell"])
    def test_wegner_constant_derived(self, tmp_path, mode, disorder, potential, constant):
        # the bound's constant is the largest the supports certify: H's floor
        # min U0 + inf supp V in mode H, inf supp b in mode B
        doc = base_doc(disorder=disorder, wegner={"mode": mode, "min_count": 5},
                       **({"potential": potential} if potential else {}))
        path = write_config(tmp_path, doc)
        assert main(["--quiet", "wegner", "--config", path, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "wegner_report.json").read_text())
        config, _, _ = load_config(path)
        floor = certified_floor(config) if mode == "H" else \
            support_bounds(config.disorder.mu_b)[0]
        assert report["lower_constant"] == floor == constant
        law = config.disorder.mu_v if mode == "H" else config.disorder.mu_b
        assert report["bv_norm"] == bv_norm(law)

    @pytest.mark.parametrize("v", [_V, {"type": "piecewise", "breakpoints": [0, 1, 2],
                                        "heights": [0, 1]}], ids=["uniform", "zero-end-cell"])
    def test_lifshits_edge_derived(self, tmp_path, v):
        # the probe's band edge is inf supp V, here 1 for both laws
        doc = base_doc(disorder={"V": v, "b": _B},
                       lifshits={"epsilons": [0.5, 0.3, 0.2], "realizations": 40})
        path = write_config(tmp_path, doc)
        assert main(["--quiet", "lifshits", "--config", path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "lifshits.csv").read_text().splitlines()[2:]
        p_hat = np.array([float(line.split(",")[3]) for line in lines])
        config, extras, _ = load_config(path)
        run = LifshitsRun(extras["lifshits"]["epsilons"], config.disorder.mu_v, 1.0,
                          config.base_seed, realizations=40)
        assert p_hat.tobytes() == lifshits_probe(run).p_hat.tobytes()

    def test_lifshits_zero_potential_as_none(self, tmp_path):
        # an explicit zero potential samples the same probe as none
        section = {"epsilons": [0.5, 0.3, 0.2], "realizations": 40}
        written = []
        for name, extra in (("none", {}), ("zero", {"potential": {"period": [1],
                                                                  "values": [0.0]}})):
            path = write_config(tmp_path, base_doc(lifshits=section, **extra), f"{name}.json")
            assert main(["--quiet", "lifshits", "--config", path,
                         "--out", str(tmp_path / name)]) == 0
            written.append((tmp_path / name / "lifshits.csv").read_bytes())
        assert written[0] == written[1]

    def test_lifshits_command(self, tmp_path):
        doc = base_doc(lifshits={"epsilons": [0.5, 0.4, 0.3, 0.2], "realizations": 40})
        path = write_config(tmp_path, doc)
        assert main(["--quiet", "lifshits", "--config", path,
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "lifshits.csv").exists()
        fit = json.loads((tmp_path / "lifshits_fit.json").read_text())
        assert ("alpha_hat" in fit) or ("error" in fit)

    def test_section_defaults_come_from_the_library(self, tmp_path, monkeypatch):
        # keys a section leaves out take LifshitsRun's and wegner_check's defaults
        runs = []
        probe = randblock.cli.lifshits_probe
        monkeypatch.setattr(randblock.cli, "lifshits_probe",
                            lambda run: runs.append(run) or probe(run))
        doc = base_doc(cube={"dim": 1, "side": 11}, realizations=30,
                       wegner={"mode": "H"},
                       lifshits={"epsilons": [0.5]})
        path = write_config(tmp_path, doc)
        for command in ("wegner", "lifshits"):
            assert main(["--quiet", command, "--config", path, "--out", str(tmp_path)]) == 0
        assert (runs[0].realizations, runs[0].c) == (LifshitsRun.realizations, LifshitsRun.c)
        report = json.loads((tmp_path / "wegner_report.json").read_text())
        assert report["min_count"] == signature(wegner_check).parameters["min_count"].default

    def test_dostransform_huge_beta(self, tmp_path):
        # beta**2 overflows; the energy range and x are computed without it
        doc = base_doc(dos_transform={"beta": 1e200,
                                      "source": {"type": "uniform", "lo": -2, "hi": 2}})
        path = write_config(tmp_path, doc)
        assert main(["dostransform", "--config", path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "dos_transform.csv").read_text().splitlines()
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[3:]])
        assert rows.shape == (512, 3) and np.isfinite(rows).all()
        assert rows[-1, 0] == 1e200       # hypot(2, 1e200) + 0.5

    def test_dostransform_default_range_skips_zero_end_cells(self, tmp_path):
        # the source is supported on [-2, 2]: its empty cell [-3, -2] does not
        # widen the default energies
        source = {"type": "piecewise", "breakpoints": [-3, -2, 2], "heights": [0, 0.25]}
        doc = base_doc(dos_transform={"beta": 1.0, "source": source})
        assert main(["dostransform", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "dos_transform.csv").read_text().splitlines()
        assert float(lines[-1].split(",")[0]) == math.hypot(2, 1.0) + 0.5

    def test_dostransform_beta_beyond_default_range(self, tmp_path, capsys):
        # 2 * top overflows, so the default energies cannot be spaced: the
        # range must be given
        doc = base_doc(dos_transform={"beta": 1.7e308,
                                      "source": {"type": "uniform", "lo": -2, "hi": 2}})
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["dostransform", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: dos_transform: the default energies -1.7e+308 to "
                       "1.7e+308 span more than a float holds; give dos_transform.energies\n")
        assert not out.exists()
        doc["dos_transform"]["energies"] = {"lo": 1e308, "hi": 1.7e308, "points": 3}
        assert main(["dostransform", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        lines = (out / "dos_transform.csv").read_text().splitlines()
        assert [float(ln.split(",")[0]) for ln in lines[3:]] == [1e308, 1.35e308, 1.7e308]

    def test_dostransform_command(self, tmp_path):
        doc = base_doc(dos_transform={"beta": 1.0,
                                      "source": {"type": "uniform", "lo": -2, "hi": 2}})
        path = write_config(tmp_path, doc)
        assert main(["dostransform", "--config", path, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "dos_transform.csv").read_text()
        assert "inf" not in text  # singularity clipped
        assert "D_block" in text

    @pytest.mark.parametrize("command, sections, outputs, ensemble", [
        ("ids", {}, ["ids.csv"], True),
        ("dos", {}, ["dos.csv"], True),
        ("gap", {}, ["gap.csv"], True),
        ("wegner", {"cube": {"dim": 1, "side": 11}, "realizations": 30,
                    "wegner": {"mode": "H", "min_count": 50}},
         ["wegner_report.json"], True),
        ("lifshits", {"lifshits": {"epsilons": [0.5, 0.4, 0.3, 0.2], "realizations": 40}},
         ["lifshits.csv", "lifshits_fit.json"], False),
        ("dostransform", {"dos_transform": {"beta": 1.0, "source": {
            "type": "uniform", "lo": -2, "hi": 2}}}, ["dos_transform.csv"], False),
        ("ids", {"boundary": "+"}, ["ids.csv"], True),
    ])
    def test_manifest_records_run(self, tmp_path, command, sections, outputs, ensemble):
        # every command's manifest carries the document as read with the seed
        # in force, which leaves out what the document left out (here
        # potential and grid), the outputs' digests, and the
        # band solve of its ensemble if any: the square on the certified D/N
        # runs (V on [1, 2]), the block for bracketing
        doc = base_doc(**sections)
        assert not {"potential", "grid"} & set(doc)
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--quiet", command, "--config", path, "--out", str(out),
                     "--seed", "5"]) == 0
        manifest = json.loads((out / f"{command}_manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["base_seed"] == 5
        assert manifest["config"] == {**doc, "seed": 5}
        config, extras, _ = load_config(path, 5, threads=1)
        assert parse_config(manifest["config"], threads=1) == (config, extras)
        assert sorted(manifest["outputs"]) == sorted(outputs)
        assert all(len(digest) == 64 for digest in manifest["outputs"].values())
        assert manifest["failed_realizations"] == 0
        assert manifest["failed_indices"] == ([] if ensemble else None)
        assert manifest["wall_time_seconds"] >= 0.0
        driver = "dsbevd" if sections.get("boundary") in ("+", "-") else "zhbevd"
        expected = (driver, 2) if ensemble else (None, None)   # 1-d cubes
        assert (manifest["driver"], manifest["half_bandwidth"]) == expected
        assert manifest["near_grid_eigenvalues"] == (0 if ensemble else None)

    def test_ids_and_dos_the_same_on_either_driver(self, tmp_path, monkeypatch):
        # ids.csv and dos.csv read integer counts at fixed energies: with no
        # eigenvalue within the solver's error of a grid point, the square and
        # the block write the same bytes, though their spectra differ in the last bits
        path = write_config(tmp_path, base_doc(cube={"dim": 1, "side": 31}, realizations=20))
        written = {}
        for driver in ("zhbevd", "dsbevd"):
            monkeypatch.setattr(randblock.spectra, "band_driver",
                                lambda config, radius, driver=driver: driver)
            for command, name in (("ids", "ids.csv"), ("dos", "dos.csv"), ("gap", "gap.csv")):
                out = tmp_path / driver / command
                assert main([command, "--config", path, "--out", str(out), "--threads", "1",
                             "--quiet"]) == 0
                manifest = json.loads((out / f"{command}_manifest.json").read_text())
                assert manifest["driver"] == driver
                assert manifest["near_grid_eigenvalues"] == 0
                written[driver, name] = (out / name).read_bytes()
        for name in ("ids.csv", "dos.csv"):
            assert written["zhbevd", name] == written["dsbevd", name]
        assert written["zhbevd", "gap.csv"] != written["dsbevd", "gap.csv"]

    @pytest.mark.parametrize("command, threads, workers", [
        ("ids", "1", 0), ("ids", "2", 2), ("gap", "4", 2), ("dostransform", "2", None)])
    def test_manifest_records_workers(self, tmp_path, monkeypatch, command, threads, workers):
        # the threads that solved the ensemble: 0 on the calling thread, at
        # most one per usable CPU; null for a command without an ensemble
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        path = write_config(tmp_path, base_doc(dos_transform={"beta": 1.0, "source": _V}))
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out), "--threads", threads,
                     "--quiet"]) == 0
        manifest = json.loads((out / f"{command}_manifest.json").read_text())
        assert manifest["workers"] == workers

    def test_manifest_records_workers_the_run_started(self, tmp_path, monkeypatch):
        # the pool size the run started with, even when the CPUs this process
        # may run on drop from two to one after the solve
        reads = []

        def affinity(pid):
            reads.append(pid)
            return {0, 1} if len(reads) == 1 else {0}

        monkeypatch.setattr(os, "sched_getaffinity", affinity, raising=False)
        path = write_config(tmp_path, base_doc())
        out = tmp_path / "out"
        assert main(["ids", "--config", path, "--out", str(out), "--threads", "2",
                     "--quiet"]) == 0
        manifest = json.loads((out / "ids_manifest.json").read_text())
        assert manifest["workers"] == 2
        assert len(reads) == 1

    def test_wegner_report_writes_the_checked_bounds(self, tmp_path, monkeypatch):
        # the bound column is the one wegner_check compared each bin with
        reports = []

        def check(*args, **kwargs):
            reports.append(wegner_check(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(randblock.cli, "wegner_check", check)
        doc = base_doc(cube={"dim": 1, "side": 11}, realizations=30,
                       wegner={"mode": "H", "min_count": 50})
        path = write_config(tmp_path, doc)
        assert main(["--quiet", "wegner", "--config", path, "--out", str(tmp_path)]) == 0
        bins = json.loads((tmp_path / "wegner_report.json").read_text())["bins"]
        [report] = reports
        assert [b["bound"] for b in bins] == report.bounds.tolist()


class TestConfigRoundTrip:
    def test_echo_reparses_equal(self, tmp_path):
        # the manifest keeps each key as written: a one-cell piecewise density
        # stays piecewise, an integer stays an integer
        doc = base_doc(disorder={"V": {"type": "piecewise", "breakpoints": [1, 2],
                                       "heights": [1]}, "b": _B}, grid={"points": 64})
        path = write_config(tmp_path, doc)
        assert main(["ids", "--config", path, "--out", str(tmp_path / "run")]) == 0
        echo = json.loads((tmp_path / "run" / "ids_manifest.json").read_text())["config"]
        assert json.dumps(echo) == json.dumps(doc)
        config, _, _ = load_config(path)
        echoed, _ = parse_config(echo, threads=config.threads)
        assert echoed == config

    @pytest.mark.parametrize("centered", [True, False])
    def test_centered_refused(self, tmp_path, capsys, centered):
        # the cube starts at the origin; a config written for the removed option exits 2
        path = write_config(tmp_path, base_doc())
        assert main(["ids", "--config", path, "--out", str(tmp_path / "run")]) == 0
        manifest = json.loads((tmp_path / "run" / "ids_manifest.json").read_text())
        assert manifest["config"]["cube"] == {"dim": 1, "side": 7}
        doc = base_doc(cube={"dim": 1, "side": 7, "centered": centered})
        out = tmp_path / "out"
        assert main(["ids", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: cube: unknown key(s) ['centered']\n"
        assert not out.exists()

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_laplacian_sign_refused(self, tmp_path, capsys, sign):
        # H = -lap + U0 + V is the only convention; a config written for the
        # removed key exits 2, whichever sign it names
        doc = base_doc(laplacian_sign=sign)
        out = tmp_path / "out"
        assert main(["ids", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: config: unknown key(s) "
                                           "['laplacian_sign']\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, section, key", [
        ("wegner", {"wegner": {"mode": "H", "lower_constant": 1.0}}, "lower_constant"),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "lam": 1.0}}, "lam"),
        ("ids", {"wegner": {"mode": "H", "lower_constant": 0.5}}, "lower_constant"),
        ("ids", {"lifshits": {"epsilons": [0.2], "lam": 0.5}}, "lam"),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "alpha": 0.5}}, "alpha"),
        ("ids", {"lifshits": {"epsilons": [0.2], "alpha": 0.5}}, "alpha"),
    ], ids=["wegner-lower-constant", "lifshits-lam", "ids-lower-constant", "ids-lam",
            "lifshits-alpha", "ids-alpha"])
    def test_removed_section_keys_refused(self, tmp_path, capsys, command, section, key):
        # the Wegner constant, the band edge and the tail exponent are derived;
        # a config written for the removed keys exits 2, whatever the command
        name, = section
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, base_doc(**section)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {name}: unknown key(s) ['{key}']\n"
        assert not out.exists()

    def test_density_parsing(self):
        d = parse_density({"type": "piecewise", "breakpoints": [0, 1],
                           "heights": [1.0]}, "x")
        assert isinstance(d, DensitySpec)
        c = parse_density({"type": "constant", "value": 2.0}, "x")
        assert isinstance(c, ConstantValue)
        with pytest.raises(ConfigError):
            parse_density({"type": "gaussian"}, "x")
