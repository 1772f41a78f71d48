"""End-to-end command-line tests.

Everything goes through main(argv) with captured stdio, plus one real
subprocess to prove the installed entry point resolves. Commands write
into tmp_path so runs stay hermetic.
"""

import dataclasses
import json
import math
import subprocess
import sys
from xml.etree import ElementTree

import numpy as np
import pytest

from smoothstl.cli import main
from smoothstl.formula import RegionTable
from smoothstl.gradient import load_gradient_csv
from smoothstl.optimizer import RestartRecord
from smoothstl.robustness import Signal, load_signal_csv, save_signal_csv
from smoothstl.scenarios import BenchRecord, ScenarioConfig, save_scenario
from smoothstl.svgplot import scene_svg


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def mono_csv(tmp_path):
    path = tmp_path / "mono.csv"
    save_signal_csv(Signal(np.array([[1.0], [2.0], [0.5]])), path)
    return str(path)


@pytest.fixture
def origin_csv(tmp_path):
    path = tmp_path / "origin.csv"
    save_signal_csv(Signal(np.array([[0.0]])), path)
    return str(path)


@pytest.fixture
def pair_csv(tmp_path):
    path = tmp_path / "pair.csv"
    save_signal_csv(Signal(np.array([[-9.0, 0.0], [5.0, 5.0]])), path)
    return str(path)


def tiny_scenario(tmp_path, **overrides):
    fields = dict(
        name="tiny",
        model="single_integrator_2d",
        T=4,
        regions={"goal": {0: (2.0, 3.0), 1: (3.0, 4.0)}},
        spec="F[0,4] goal",
        x0=(0.0, 0.0),
        control_bounds=((-1.0, 1.0), (-1.0, 1.0)),
        restarts=1,
        max_iters=40,
        k1=10.0,
        k2=10.0,
    )
    fields.update(overrides)
    path = tmp_path / "tiny.json"
    save_scenario(ScenarioConfig(**fields), path)
    return str(path)


class TestEval:
    def test_exit_zero_and_repr_on_satisfaction(self, capsys, mono_csv):
        code, out, _ = run(
            capsys, "eval", "--spec", "G[0,2] (y0 >= 0.2)", "--signal", mono_csv
        )
        assert code == 0
        assert out == "0.3\n"

    def test_exit_one_on_violation(self, capsys, mono_csv):
        code, out, _ = run(
            capsys, "eval", "--spec", "G[0,2] (y0 >= 2)", "--signal", mono_csv
        )
        assert code == 1
        assert float(out) < 0

    def test_json_payload(self, capsys, mono_csv):
        code, out, _ = run(
            capsys, "eval", "--spec", "F[0,2] (y0 >= 0)", "--signal", mono_csv,
            "--semantics", "ef", "--k1", "3", "--k2", "1", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "eval"
        assert payload["semantics"] == "ef"
        assert payload["k1"] == 3.0 and payload["k2"] == 1.0
        assert payload["satisfied"] is True
        assert payload["value"] < 2.0

    def test_spec_can_come_from_a_file(self, capsys, tmp_path, mono_csv):
        spec = tmp_path / "spec.stl"
        spec.write_text("G[0,2] (y0 >= 0.2)\n")
        code, out, _ = run(capsys, "eval", "--spec", str(spec), "--signal", mono_csv)
        assert code == 0 and out == "0.3\n"

    def test_spec_too_long_to_be_a_path_is_formula_text(self, capsys, mono_csv):
        spec = " and ".join(f"G[0,2] y0 >= -{i}" for i in range(90, 110))
        assert len(spec) == 425
        code, out, _ = run(capsys, "eval", "--spec", spec, "--signal", mono_csv)
        assert code == 0 and out == "90.5\n"

    def test_t_offset(self, capsys, mono_csv):
        code, out, _ = run(
            capsys, "eval", "--spec", "G[0,1] (y0 >= 0.2)", "--signal", mono_csv,
            "--t", "1",
        )
        assert code == 0
        assert out == "0.3\n"

    def test_until_anchor_switch(self, capsys, pair_csv):
        spec = "(y0 >= 0) U[1,1] (y1 >= 0)"
        code, out, _ = run(capsys, "eval", "--spec", spec, "--signal", pair_csv)
        assert code == 0 and out == "5.0\n"
        code, out, _ = run(
            capsys, "eval", "--spec", spec, "--signal", pair_csv, "--classic-until"
        )
        assert code == 1 and out == "-9.0\n"

    def test_regions_file(self, capsys, tmp_path, mono_csv):
        regions = tmp_path / "regions.json"
        regions.write_text(json.dumps({"band": {"0": [0.4, 2.5]}}))
        code, out, _ = run(
            capsys, "eval", "--spec", "F[0,2] band", "--signal", mono_csv,
            "--regions", str(regions),
        )
        assert code == 0
        assert out == "0.6\n"

    def test_lse_can_claim_an_unsatisfied_disjunction(self, capsys, origin_csv):
        # over-approximation is visible from the shell: same input, the
        # exact and ef runs report violation while lse reports success
        spec = "(y0 >= 0.1) or (-y0 >= 0.1)"
        code, out, _ = run(
            capsys, "eval", "--spec", spec, "--signal", origin_csv, "--json"
        )
        assert code == 1
        assert json.loads(out)["value"] == pytest.approx(-0.1)
        code, out, _ = run(
            capsys, "eval", "--spec", spec, "--signal", origin_csv,
            "--semantics", "lse", "--k", "1", "--json",
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.log(2) - 0.1)
        code, out, _ = run(
            capsys, "eval", "--spec", spec, "--signal", origin_csv,
            "--semantics", "ef", "--k1", "1", "--k2", "1",
        )
        assert code == 1

    def test_missing_signal_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "eval", "--spec", "y0 >= 0",
            "--signal", str(tmp_path / "nope.csv"),
        )
        assert code == 2
        assert err.startswith("error while reading inputs:")

    def test_regions_file_that_is_not_an_object_exits_two(self, capsys, tmp_path, mono_csv):
        regions = tmp_path / "regions.json"
        regions.write_text(json.dumps([1, 2]))
        code, out, err = run(
            capsys, "eval", "--spec", "F[0,2] (y0 >= 0)", "--signal", mono_csv,
            "--regions", str(regions),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error while reading inputs: regions must map region names")

    def test_regions_file_with_quoted_bounds_exits_two(self, capsys, tmp_path, mono_csv):
        regions = tmp_path / "regions.json"
        regions.write_text(json.dumps({"band": {"0": ["0.4", "2.5"]}}))
        code, out, err = run(
            capsys, "eval", "--spec", "F[0,2] band", "--signal", mono_csv,
            "--regions", str(regions),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error while reading inputs: region 'band': malformed bounds")

    def test_infinite_sharpness_exits_two(self, capsys, mono_csv):
        code, out, err = run(
            capsys, "eval", "--spec", "F[0,2] (y0 >= 0)", "--signal", mono_csv,
            "--semantics", "ef", "--k1", "inf", "--k2", "inf",
        )
        assert code == 2
        assert out == ""
        assert "k1: must be finite" in err

    def test_bad_spec_exits_two(self, capsys, mono_csv):
        code, _, err = run(capsys, "eval", "--spec", "F[0,2", "--signal", mono_csv)
        assert code == 2
        assert err.startswith("error while parsing the spec:")

    def test_unknown_region_exits_two(self, capsys, mono_csv):
        code, _, err = run(capsys, "eval", "--spec", "F[0,2] lava", "--signal", mono_csv)
        assert code == 2
        assert "lava" in err


class TestGrad:
    def test_value_and_gradient(self, capsys, tmp_path):
        sig = tmp_path / "one.csv"
        save_signal_csv(Signal(np.array([[3.0]])), sig)
        code, out, _ = run(
            capsys, "grad", "--spec", "y0 >= 0", "--signal", str(sig), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 3.0
        assert payload["gradient"] == [[1.0]]

    def test_out_file_round_trips(self, capsys, tmp_path, mono_csv):
        out_csv = tmp_path / "grad.csv"
        code, out, _ = run(
            capsys, "grad", "--spec", "F[0,2] (y0 >= 0)", "--signal", mono_csv,
            "--k1", "2", "--k2", "2", "--out", str(out_csv), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        stored = load_gradient_csv(out_csv)
        np.testing.assert_allclose(stored, np.array(payload["gradient"]), rtol=1e-15)
        np.testing.assert_allclose(stored.sum(), 1.0, rtol=1e-12)

    def test_exit_tracks_the_smooth_sign(self, capsys, tmp_path):
        sig = tmp_path / "neg.csv"
        save_signal_csv(Signal(np.array([[-2.0]])), sig)
        code, out, _ = run(capsys, "grad", "--spec", "y0 >= 0", "--signal", str(sig))
        assert code == 1
        assert float(out.splitlines()[0]) == -2.0


class TestSynth:
    def test_builtin_scenario_writes_everything(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run(
            capsys, "synth", "--scenario", "two_target", "--seed", "7",
            "--restarts", "1", "--max-iters", "40", "--out", str(out_dir), "--json",
        )
        payload = json.loads(out)
        result = payload["result"]
        assert (code == 0) == result["satisfied"]
        for name in ("trajectory.csv", "controls.csv", "scene.svg", "report.json"):
            assert (out_dir / name).exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert report["result"] == result
        assert len(result["restarts"]) == 2
        assert result["restart_index"] in (0, 1)
        assert "dwell_steps" in result
        y = load_signal_csv(out_dir / "trajectory.csv")
        assert y.T == 10
        assert "<svg" in (out_dir / "scene.svg").read_text()

    def test_scene_svg_parses_with_markup_in_the_name(self, capsys, tmp_path):
        config = tiny_scenario(tmp_path, name="R&D <lab>")
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "synth", "--config", config, "--out", str(out_dir))
        assert code == 0
        root = ElementTree.parse(out_dir / "scene.svg").getroot()
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[-1] == "R&D <lab>"
        assert "goal" in texts

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_scene_svg_refuses_non_finite_samples(self, bad):
        regions = RegionTable({"goal": {0: (2.0, 3.0), 1: (3.0, 4.0)}})
        with pytest.raises(ValueError, match="^trajectory samples must be finite$"):
            scene_svg(regions, [[(0.0, 0.0), (1.0, bad)]])

    def test_custom_config_solves(self, capsys, tmp_path):
        config = tiny_scenario(tmp_path)
        out_dir = tmp_path / "run"
        code, out, _ = run(
            capsys, "synth", "--config", config, "--out", str(out_dir), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scenario"] == "tiny"
        assert payload["result"]["rho_exact"] > 0.3

    def test_human_summary_mentions_the_outputs(self, capsys, tmp_path):
        config = tiny_scenario(tmp_path)
        out_dir = tmp_path / "run"
        code, out, _ = run(capsys, "synth", "--config", config, "--out", str(out_dir))
        assert code == 0
        assert "dwell steps" in out
        assert "trajectory.csv" in out

    def test_synthesis_is_reproducible(self, capsys, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            code, _, _ = run(
                capsys, "synth", "--scenario", "two_target", "--seed", "7",
                "--restarts", "1", "--max-iters", "40", "--out", str(out_dir),
            )
            blobs.append((out_dir / "trajectory.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_unknown_builtin_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--scenario", "maze"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_scenario_and_config_are_exclusive(self, capsys, tmp_path):
        config = tiny_scenario(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--scenario", "two_target", "--config", config])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_nonpositive_sampling_period_exits_two(self, capsys, tmp_path):
        config = tmp_path / "zero_dt.json"
        with open(tiny_scenario(tmp_path)) as fh:
            config.write_text(json.dumps(dict(json.load(fh), dt=0)))
        code, _, err = run(capsys, "synth", "--config", str(config), "--out", str(tmp_path / "run"))
        assert code == 2
        assert "dt: must be positive" in err

    @pytest.mark.parametrize("key,value", [
        ("control_bounds", [[-1.0, 1.0], [-math.inf, 1.0]]),
        ("x0", [0.0, math.inf]),
    ])
    def test_infinite_config_entries_exit_two(self, capsys, tmp_path, key, value):
        config = tmp_path / "infinite.json"
        with open(tiny_scenario(tmp_path)) as fh:
            config.write_text(json.dumps(dict(json.load(fh), **{key: value})))
        assert "Infinity" in config.read_text()
        code, _, err = run(
            capsys, "synth", "--config", str(config), "--out", str(tmp_path / "run")
        )
        assert code == 2
        assert f"{key}: must be finite" in err

    def test_string_flag_in_config_exits_two(self, capsys, tmp_path):
        # "false" is a non-empty string, so it would have turned clamping on
        config = tmp_path / "quoted.json"
        with open(tiny_scenario(tmp_path)) as fh:
            config.write_text(json.dumps(dict(json.load(fh), hard_clamp="false")))
        code, _, err = run(
            capsys, "synth", "--config", str(config), "--out", str(tmp_path / "run")
        )
        assert code == 2
        assert "hard_clamp: needs true or false, got 'false'" in err

    def test_quoted_x0_in_config_exits_two(self, capsys, tmp_path):
        # float() would run over the characters and start at (1.0, 2.0)
        config = tmp_path / "quoted.json"
        with open(tiny_scenario(tmp_path)) as fh:
            config.write_text(json.dumps(dict(json.load(fh), x0="12")))
        code, _, err = run(
            capsys, "synth", "--config", str(config), "--out", str(tmp_path / "run")
        )
        assert code == 2
        assert "x0: needs a list of numbers, got '12'" in err

    def test_restart_entries_are_restart_records(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "synth", "--config", tiny_scenario(tmp_path),
            "--out", str(tmp_path / "run"), "--json",
        )
        fields = [f.name for f in dataclasses.fields(RestartRecord)]
        restarts = json.loads(out)["result"]["restarts"]
        assert len(restarts) == 2
        assert all(list(entry) == fields for entry in restarts)

    def test_missing_config_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", "--config", str(tmp_path / "ghost.json")
        )
        assert code == 2
        assert err.startswith("error while loading the scenario:")


class TestBench:
    def test_small_bench_run(self, capsys, tmp_path):
        config = tiny_scenario(tmp_path, max_iters=25)
        out_dir = tmp_path / "bench"
        code, out, _ = run(
            capsys, "bench", "--config", config, "--trials", "2",
            "--out", str(out_dir), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trials_requested"] == 2
        assert len(payload["records"]) == 2
        assert payload["aggregate"]["trials"] == 2
        lines = (out_dir / "bench.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("trial,seed,")
        assert (out_dir / "report.json").exists()

    def test_records_are_bench_records(self, capsys, tmp_path):
        config = tiny_scenario(tmp_path, max_iters=5)
        code, out, _ = run(
            capsys, "bench", "--config", config, "--trials", "2",
            "--out", str(tmp_path / "bench"), "--json",
        )
        assert code == 0
        fields = [f.name for f in dataclasses.fields(BenchRecord)]
        records = json.loads(out)["records"]
        assert len(records) == 2
        assert all(list(record) == fields for record in records)

    def test_nan_budget_exits_two(self, capsys, tmp_path):
        config = tiny_scenario(tmp_path, max_iters=5)
        code, _, err = run(
            capsys, "bench", "--config", config, "--budget-s", "nan",
            "--out", str(tmp_path / "bench"),
        )
        assert code == 2
        assert err.startswith("error while benchmarking: time_budget_s: must be nonnegative")
        assert not (tmp_path / "bench").exists()


class TestScale:
    def test_single_point_sweep(self, capsys, tmp_path):
        out_dir = tmp_path / "scale"
        code, out, _ = run(
            capsys, "scale", "--n", "10", "--restarts", "0", "--max-iters", "3",
            "--out", str(out_dir), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n_values"] == [10]
        assert payload["records"][0]["op_count"] == 530.0
        header = (out_dir / "scaling.csv").read_text().splitlines()[0]
        assert header == "sweep,value,wall_ms,op_count,forwards,iterations,rho_exact"

    def test_no_sweep_given(self, capsys):
        code, _, err = run(capsys, "scale")
        assert code == 2
        assert "nothing to sweep" in err


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out, _ = capsys.readouterr()
        assert out.strip() == "smoothstl 0.1.0"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "smoothstl", "--version"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "smoothstl 0.1.0"
