import json
import math
import os
import time
from inspect import signature

import numpy as np
import pytest

import randblock.analysis
import randblock.cli
import randblock.lattice
import randblock.operators
from randblock.analysis import LifshitsRun, wegner_check
from randblock.cli import build_parser, main
from randblock.config import (
    ConfigError,
    config_echo,
    load_config,
    parse_config,
    parse_density,
)
from randblock.disorder import ConstantValue, DensitySpec


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

    def test_mutated_boundary_term_is_caught(self, capsys, monkeypatch):
        good = randblock.operators.gamma
        monkeypatch.setattr(randblock.operators, "gamma", lambda cube: -good(cube))
        assert main(["verify", "--seed", "1"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out


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

    def test_wegner_uncertified_refused_before_run(self, tmp_path, capsys):
        doc = base_doc(wegner={"mode": "H", "lower_constant": 5.0},
                       realizations=10_000_000)  # huge run must never start
        path = write_config(tmp_path, doc)
        assert main(["wegner", "--config", path, "--out", str(tmp_path)]) == 2
        assert "certify" in capsys.readouterr().err

    @pytest.mark.parametrize("command, overrides", [
        ("dostransform", {"dos_transform": {
            "beta": 1.0, "source": {"type": "uniform", "lo": -2, "hi": 2},
            "energies": {"pts": 3}}}),
        ("dostransform", {"dos_transform": {
            "beta": 1.0, "source": {"type": "uniform", "lo": -2, "hi": 2},
            "energies": {"lo": -1, "hi": 1, "step": 0.1}}}),
        ("dos", {"bin_width": -0.1}),
        ("dos", {"bin_width": 0}),
        ("dos", {"bin_width": "wide"}),
        ("lifshits", {"lifshits": {"epsilons": [-0.1, 0.2], "lam": 1.0}}),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "lam": 1.0, "realizations": 0}}),
        ("dostransform", {"dos_transform": {
            "beta": 0, "source": {"type": "uniform", "lo": -2, "hi": 2}}}),
        ("ids", {"grid": {"lo": "-1", "hi": "1"}}),
        ("ids", {"grid": {"points": "many"}}),
        ("ids", {"seed": "x"}),
        ("ids", {"potential": {"period": [2, 2], "values": [[0, 0], [0, 0.5]]}}),
        ("ids", {"cube": {"dim": 2, "side": 4},
                 "potential": {"period": [2], "values": [0, 0.5]}}),
        ("ids", {"cube": {"dim": [1], "side": 7}}),
        ("ids", {"cube": {"dim": 1, "side": 7, "centered": "false"}}),
        ("ids", {"cube": {"dim": 1, "side": 11.9}, "realizations": 3.7}),
        ("ids", {"cube": {"dim": True, "side": 7}}),
        ("ids", {"realizations": True}),
        ("ids", {"realizations": "3"}),
        ("ids", {"seed": 11.0}),
        ("ids", {"seed": -1}),
        ("ids", {"seed": 2**64}),
        ("ids", {"laplacian_sign": True}),
        ("ids", {"grid": {"points": 64.5}}),
        ("wegner", {"wegner": {"mode": "H", "lower_constant": 1.0, "min_count": 50.5}}),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "lam": 1.0, "realizations": True}}),
        ("dostransform", {"dos_transform": {
            "beta": 1.0, "source": {"type": "uniform", "lo": -2, "hi": 2},
            "energies": {"lo": -1, "hi": 1, "points": 10.5}}}),
        ("wegner", {}),
        ("lifshits", {}),
        ("dostransform", {}),
        ("ids", {"disorder": {"V": {"type": "uniform", "lo": "1", "hi": 2}, "b": _B}}),
        ("ids", {"disorder": {"V": {"type": "uniform", "lo": 1, "hi": "2"}, "b": _B}}),
        ("ids", {"disorder": {"V": _V, "b": {"type": "constant", "value": True}}}),
        ("ids", {"disorder": {"V": {"type": "piecewise", "breakpoints": ["1", 1.5, 2],
                                    "heights": [1, 1]}, "b": _B}}),
        ("ids", {"grid": {"lo": -math.inf, "hi": 1}}),
        ("dos", {"bin_width": True}),
        ("wegner", {"wegner": {"mode": "H", "lower_constant": "1"}}),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "lam": True}}),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "lam": math.nan}}),
        ("lifshits", {"lifshits": {"epsilons": ["0.2"], "lam": 1.0}}),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "lam": 1.0, "c": "4"}}),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "lam": 1.0, "c": math.inf}}),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "lam": 1.0, "alpha": True}}),
        ("dostransform", {"dos_transform": {
            "beta": "1", "source": {"type": "uniform", "lo": -2, "hi": 2}}}),
        ("dostransform", {"dos_transform": {
            "beta": 1.0, "source": {"type": "uniform", "lo": -2, "hi": 2},
            "energies": {"lo": "-1", "hi": 1}}}),
        ("dostransform", {"dos_transform": {
            "beta": 1.0, "source": {"type": "uniform", "lo": -2, "hi": 2},
            "energies": {"lo": -1, "hi": math.inf}}}),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "lam": 1.0, "c": 0}}),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "lam": 1.0, "c": -4.0}}),
        ("lifshits", {"lifshits": {"epsilons": [0.2], "lam": 1.0, "alpha": -0.5}}),
        ("ids", {"potential": {"period": [2], "values": ["0", "0.5"]}}),
        ("ids", {"potential": {"period": [2], "values": [0, True]}}),
        ("ids", {"potential": {"period": [2], "values": [0, math.nan]}}),
        ("ids", {"potential": {"period": ["2"], "values": [0, 0.5]}}),
    ], ids=["energies-missing-lo-hi", "energies-unknown-key", "bin-width-negative",
            "bin-width-zero", "bin-width-not-a-number", "epsilons-negative",
            "lifshits-realizations-zero", "beta-zero",
            "grid-bounds-not-numbers", "grid-points-not-a-number",
            "seed-not-an-integer", "period-more-axes-than-cube",
            "period-fewer-axes-than-cube", "cube-dim-not-an-integer",
            "centered-not-a-boolean", "side-and-realizations-fractional",
            "cube-dim-boolean", "realizations-boolean", "realizations-string",
            "seed-fractional", "seed-negative", "seed-above-64-bits",
            "laplacian-sign-boolean", "grid-points-fractional", "min-count-fractional",
            "lifshits-realizations-boolean", "energies-points-fractional",
            "wegner-section-missing",
            "lifshits-section-missing", "dos-transform-section-missing",
            "density-lo-string", "density-hi-string", "density-value-boolean",
            "breakpoint-string", "grid-lo-infinite", "bin-width-boolean",
            "lower-constant-string", "lam-boolean", "lam-nan", "epsilons-string",
            "c-string", "c-infinite", "alpha-boolean", "beta-string",
            "energies-lo-string", "energies-hi-infinite", "c-zero", "c-negative",
            "alpha-negative", "potential-value-string", "potential-value-boolean",
            "potential-value-nan", "potential-period-string"])
    def test_malformed_config_one_line_exit_2(self, tmp_path, capsys, command, overrides):
        path = write_config(tmp_path, base_doc(**overrides))
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        path = write_config(tmp_path, base_doc())
        assert main(["ids", "--config", path, "--out", str(tmp_path), "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error:") and "threads" in err

    def test_wegner_min_count_refused_before_run(self, tmp_path, capsys, monkeypatch):
        def never(config):
            raise AssertionError("the ensemble ran before min_count was checked")
        monkeypatch.setattr(randblock.cli, "run_ensemble", never)
        doc = base_doc(wegner={"mode": "H", "lower_constant": 1.0, "min_count": "x"})
        path = write_config(tmp_path, doc)
        assert main(["wegner", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error:")

    def test_memory_guard_before_allocation(self, tmp_path, capsys, monkeypatch):
        # 3-d side 40: half-bandwidth 3200 on a 128000-dimensional block, ~3.3 GB
        # of band storage per copy; two workers hold several copies
        monkeypatch.setattr(randblock.lattice, "memory_limit", lambda: 8 * 2**30)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
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
        doc = base_doc(lifshits={"epsilons": [0.4, 0.2], "lam": 1.0,
                                 "realizations": 100_000})
        path = write_config(tmp_path, doc)
        assert main(["lifshits", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: the tail probe")
        assert "0.0576 GB" in err and "0.00105 GB of memory available" in err

    def test_lifshits_needs_section(self, tmp_path, capsys):
        path = write_config(tmp_path, base_doc())
        assert main(["lifshits", "--config", path, "--out", str(tmp_path)]) == 2


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


class TestEnsembleCommands:
    def test_ids_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, base_doc())
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["ids", "--config", path, "--out", str(d1)]) == 0
        assert main(["ids", "--config", path, "--out", str(d2)]) == 0
        assert (d1 / "ids.csv").read_bytes() == (d2 / "ids.csv").read_bytes()
        m1 = json.loads((d1 / "ids_manifest.json").read_text())
        m2 = json.loads((d2 / "ids_manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]
        assert m1["backend"] == "lapack"
        assert (m1["driver"], m1["half_bandwidth"]) == ("zhbevd", 2)   # 1-d, side 7
        assert set(m1["blas"]) == {"name", "version"}
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

    def test_wegner_report(self, tmp_path):
        doc = base_doc(cube={"dim": 1, "side": 11}, realizations=30,
                       wegner={"mode": "H", "lower_constant": 1.0, "min_count": 50})
        path = write_config(tmp_path, doc)
        assert main(["--quiet", "wegner", "--config", path, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "wegner_report.json").read_text())
        assert report["violations"] == []
        assert report["checked_bins"] > 0
        assert report["bv_norm"] == pytest.approx(2.0)

    def test_lifshits_command(self, tmp_path):
        doc = base_doc(lifshits={"epsilons": [0.5, 0.4, 0.3, 0.2],
                                 "lam": 1.0, "realizations": 40})
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
                       wegner={"mode": "H", "lower_constant": 1.0},
                       lifshits={"epsilons": [0.5], "lam": 1.0})
        path = write_config(tmp_path, doc)
        for command in ("wegner", "lifshits"):
            assert main(["--quiet", command, "--config", path, "--out", str(tmp_path)]) == 0
        assert (runs[0].realizations, runs[0].c) == (LifshitsRun.realizations, LifshitsRun.c)
        report = json.loads((tmp_path / "wegner_report.json").read_text())
        assert report["min_count"] == signature(wegner_check).parameters["min_count"].default

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
                    "wegner": {"mode": "H", "lower_constant": 1.0, "min_count": 50}},
         ["wegner_report.json"], True),
        ("lifshits", {"lifshits": {"epsilons": [0.5, 0.4, 0.3, 0.2],
                                   "lam": 1.0, "realizations": 40}},
         ["lifshits.csv", "lifshits_fit.json"], False),
        ("dostransform", {"dos_transform": {"beta": 1.0, "source": {
            "type": "uniform", "lo": -2, "hi": 2}}}, ["dos_transform.csv"], False),
        ("ids", {"boundary": "+"}, ["ids.csv"], True),
    ])
    def test_manifest_records_run(self, tmp_path, command, sections, outputs, ensemble):
        # every command's manifest carries the config echo with the seed in
        # force, the outputs' digests, and the band solve of its ensemble if
        # any: the square on the certified D/N runs (V on [1, 2]), the block
        # for bracketing
        path = write_config(tmp_path, base_doc(**sections))
        out = tmp_path / "out"
        assert main(["--quiet", command, "--config", path, "--out", str(out),
                     "--seed", "5"]) == 0
        manifest = json.loads((out / f"{command}_manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["base_seed"] == 5 and manifest["config"]["seed"] == 5
        config, _ = parse_config(manifest["config"], threads=1)
        assert config.base_seed == 5
        assert sorted(manifest["outputs"]) == sorted(outputs)
        assert all(len(digest) == 64 for digest in manifest["outputs"].values())
        assert manifest["failed_realizations"] == 0
        assert manifest["wall_time_seconds"] >= 0.0
        driver = "dsbevd" if sections.get("boundary") in ("+", "-") else "zhbevd"
        expected = (driver, 2) if ensemble else (None, None)   # 1-d cubes
        assert (manifest["driver"], manifest["half_bandwidth"]) == expected


class TestConfigRoundTrip:
    def test_echo_reparses_equal(self, tmp_path):
        config, _, _ = load_config(write_config(tmp_path, base_doc()))
        echoed, _ = parse_config(config_echo(config), threads=config.threads)
        assert echoed == config

    @pytest.mark.parametrize("centered", [True, False])
    def test_centered_boolean_echoed(self, tmp_path, centered):
        doc = base_doc(cube={"dim": 1, "side": 7, "centered": centered})
        config, _, _ = load_config(write_config(tmp_path, doc))
        assert config.cube.centered is centered
        assert main(["ids", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "ids_manifest.json").read_text())
        assert manifest["config"]["cube"]["centered"] is centered

    def test_density_parsing(self):
        d = parse_density({"type": "piecewise", "breakpoints": [0, 1],
                           "heights": [1.0]}, "x")
        assert isinstance(d, DensitySpec)
        c = parse_density({"type": "constant", "value": 2.0}, "x")
        assert isinstance(c, ConstantValue)
        with pytest.raises(ConfigError):
            parse_density({"type": "gaussian"}, "x")
