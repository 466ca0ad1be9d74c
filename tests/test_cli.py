"""End-to-end tests for the command-line interface."""
import csv
import json
from collections import Counter

import numpy as np
import pytest

from dualpf import harness
from dualpf.cli import main
from dualpf.harness import RunConfig

FAST = ["--model", "mixed", "--n-particles", "8", "--duration", "40"]


def _stdout_json(capsys):
    out = capsys.readouterr().out
    start = out.index("{")
    return json.loads(out[start:])


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_invalid_estimator_choice(self):
        with pytest.raises(SystemExit):
            main(["estimate", "--estimator", "ekf"])


class TestSimulate:
    def test_writes_trajectory(self, tmp_path, capsys):
        rc = main(["simulate", "--model", "scalar", "--duration", "15",
                   "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 16
        assert "wrote" in capsys.readouterr().out

    def test_flag_overrides_yaml_config(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("model: scalar\nduration: 25\nseed: 3\n")
        rc = main(["simulate", "--config", str(cfg), "--duration", "15",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 16

    def test_trajectory_round_trip(self, tmp_path):
        rc = main(["simulate", "--model", "mixed", "--duration", "5",
                   "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        _, states, ys, thetas, _ = harness.simulate_truth(
            RunConfig(model="mixed", duration=5, seed=1))
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))

        def cols(prefix, n):
            return np.array([[float(r[f"{prefix}_{i + 1}"]) for i in range(n)]
                             for r in rows])
        assert np.array_equal(cols("x", 2), states[1:])
        assert np.array_equal(cols("y", 4), ys)
        assert np.array_equal(cols("theta", 4), thetas)
        assert [int(r["t"]) for r in rows] == list(range(1, 6))

    def test_header_names(self, tmp_path):
        for model, header in [
                ("scalar", "t,x_1,y_1,theta_1"),
                ("gas_turbine", "t,x_1,x_2,x_3,x_4,y_1,y_2,y_3,y_4,y_5,"
                                "theta_1,theta_2,theta_3,theta_4")]:
            rc = main(["simulate", "--model", model, "--duration", "2",
                       "--out", str(tmp_path / model)])
            assert rc == 0
            path = tmp_path / model / "trajectory.csv"
            assert path.read_text().splitlines()[0] == header


class TestEstimate:
    def test_prints_mae_and_writes_report(self, tmp_path, capsys):
        rc = main(["estimate", *FAST, "--seed", "2", "--out", str(tmp_path)])
        assert rc == 0
        mae = _stdout_json(capsys)
        assert set(mae) == {f"theta_{j}" for j in range(1, 5)}
        assert all(v >= 0 for v in mae.values())
        assert (tmp_path / "report.json").exists()

    def test_out_writes_the_three_run_files(self, tmp_path):
        out = tmp_path / "nested" / "est"
        rc = main(["estimate", *FAST, "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == \
            ["report.json", "residuals.csv", "trajectory.csv"]
        lines = (out / "residuals.csv").read_text().splitlines()
        assert lines[0] == "t,r_1,r_2,r_3,r_4"
        assert len(lines) == 41
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["model"] == "mixed"
        assert "output_dir" not in doc["config"]
        assert "diagnosis" not in doc

    def test_yaml_output_dir_is_the_out_default(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"output_dir: {tmp_path / 'yaml'}\n")
        assert main(["estimate", *FAST, "--config", str(cfg)]) == 0
        assert (tmp_path / "yaml" / "report.json").exists()
        assert main(["estimate", *FAST, "--config", str(cfg),
                     "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "report.json").exists()

    def test_yaml_fault_stanza(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "model: mixed\nn_particles: 8\nduration: 40\nseed: 4\n"
            "fault:\n  component: 0\n  magnitude: 0.1\n  start_step: 20\n")
        rc = main(["estimate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["scenario"]["component"] == 0

    def test_scenario_flag_wins_over_a_yaml_fault(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("fault:\n  component: 0\n  magnitude: 0.1\n"
                       "  start_step: 20\n")
        rc = main(["estimate", *FAST, "--config", str(cfg),
                   "--scenario", "healthy", "--out", str(tmp_path / "out")])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["config"]["scenario"] == "healthy"

    def test_yaml_with_scenario_and_fault_exits_2(self, tmp_path, capsys,
                                                  monkeypatch):
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(harness, "run_scenario", no_runs)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: healthy\nfault:\n  component: 0\n"
                       "  magnitude: 0.1\n  start_step: 20\n")
        for flags in ([], ["--scenario", "healthy"]):
            rc = main(["estimate", *FAST, "--config", str(cfg), *flags,
                       "--out", str(tmp_path / "out")])
            assert rc == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ConfigError"
            assert "scenario" in err["message"] and "fault" in err["message"]
            assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("flags, predictor", [
        ([], "one_step"), (["--predictor", "output"], "output")])
    def test_scalar_predictor_in_report(self, tmp_path, flags, predictor):
        rc = main(["estimate", "--model", "scalar", "--n-particles", "8",
                   "--duration", "20", *flags, "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["predictor"] == predictor

    @pytest.mark.parametrize("estimator, step_size", [
        ("dual", harness.RUN_DEFAULTS["step_size_pe"]),
        ("rml", harness.RUN_DEFAULTS["step_size_rml"])])
    def test_resolved_step_size_in_report(self, tmp_path, estimator,
                                          step_size):
        rc = main(["estimate", *FAST, "--estimator", estimator,
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["step_size"] == step_size


class TestCalibrateAndDiagnose:
    def test_calibrate_writes_band(self, tmp_path):
        rc = main(["calibrate", *FAST, "--runs", "5", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "band.json").read_text())
        assert len(doc["lower"]) == len(doc["upper"]) == 4
        assert all(lo < hi for lo, hi in zip(doc["lower"], doc["upper"]))
        assert doc["runs"] == 5

    def test_diagnose_reports_each_component(self, tmp_path, capsys):
        band = tmp_path / "band.json"
        band.write_text(json.dumps({"lower": [-10.0] * 4,
                                    "upper": [10.0] * 4}))
        rc = main(["diagnose", *FAST, "--seed", "5", "--band", str(band),
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        for name in ("eta_c", "m_c", "eta_t", "m_t"):
            assert any(line == f"{name}: no fault" for line in lines)

    def test_diagnose_report_carries_the_diagnosis(self, tmp_path):
        band = tmp_path / "band.json"
        band.write_text(json.dumps({"lower": [-10.0] * 4,
                                    "upper": [10.0] * 4}))
        rc = main(["diagnose", *FAST, "--band", str(band),
                   "--out", str(tmp_path / "diag")])
        assert rc == 0
        doc = json.loads((tmp_path / "diag" / "report.json").read_text())
        assert doc["diagnosis"]["band"]["upper"] == [10.0] * 4
        assert not doc["diagnosis"]["decisions"]["eta_c"]["detected"]

    def test_missing_band_file_exits_3(self, tmp_path, capsys):
        rc = main(["diagnose", *FAST, "--band", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "OSError"


class TestCampaign:
    def test_small_campaign_artifacts(self, tmp_path, capsys):
        rc = main(["campaign", *FAST, "--calibration-runs", "5",
                   "--runs-per-category", "1", "--out", str(tmp_path)])
        assert rc == 0
        metrics = _stdout_json(capsys)
        assert "AC" in metrics and "FP" in metrics
        lines = (tmp_path / "confusion.csv").read_text().splitlines()
        assert len(lines) == 6
        assert lines[0] == ",eta_c,m_c,eta_t,m_t,no_fault"
        agg = json.loads((tmp_path / "aggregate.json").read_text())
        assert len(agg["labels"]) == 5
        assert agg["failures"] == []

    def test_scalar_campaign_plans_only_its_components(self, tmp_path):
        # The scalar model has one health parameter: the design keeps the
        # healthy runs and the component-0 faults only.
        rc = main(["campaign", "--model", "scalar", "--n-particles", "8",
                   "--duration", "150", "--calibration-runs", "3",
                   "--runs-per-category", "2", "--out", str(tmp_path)])
        assert rc == 0
        agg = json.loads((tmp_path / "aggregate.json").read_text())
        assert agg["failures"] == []
        assert Counter(a for a, _ in agg["labels"]) == \
            {"eta_c": 2, "no_fault": 2}


class TestComplexity:
    def test_default_report(self, tmp_path, capsys):
        rc = main(["complexity", "--out", str(tmp_path)])
        assert rc == 0
        doc = _stdout_json(capsys)
        assert doc["flops"]["dual"] == 21_950
        assert (tmp_path / "complexity.json").exists()

    @pytest.mark.parametrize("flag, value", [("--c3", "inf"), ("--c1", "nan"),
                                             ("--c2", "0")])
    def test_unit_cost_not_finite_and_positive_exits_2(self, tmp_path,
                                                        capsys, flag, value):
        rc = main(["complexity", flag, value, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(flag[2:] + " ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--n-dual", "--n-bayesian", "--n-rml"])
    def test_negative_particle_count_names_the_flag(self, tmp_path, capsys,
                                                    flag):
        rc = main(["complexity", flag, "-5", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"] == \
            f"{flag[2:].replace('-', '_')} must be an integer >= 0, got -5"
        assert not (tmp_path / "out").exists()


class TestErrorHandling:
    def test_domain_errors_exit_2_with_json(self, tmp_path, capsys):
        for model in (FAST, ["--model", "gas_turbine"]):
            rc = main(["estimate", *model, "--scenario", "surge",
                       "--out", str(tmp_path)])
            assert rc == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ConfigError"
            assert "surge" in err["message"]

    @pytest.mark.parametrize("coverage", ["1.5", "0"])
    def test_coverage_outside_unit_interval_exits_2(self, tmp_path, capsys,
                                                     coverage):
        rc = main(["calibrate", *FAST, "--coverage", coverage,
                   "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "coverage" in err["message"]
        assert not (tmp_path / "band.json").exists()

    def test_coverage_is_checked_before_any_run(self, monkeypatch, capsys):
        def no_runs(*args, **kwargs):
            raise AssertionError("a calibration run started")
        monkeypatch.setattr(harness, "seeded_runs", no_runs)
        rc = main(["calibrate", "--model", "gas_turbine", "--coverage", "1.5",
                   "--runs", "25"])
        assert rc == 2
        assert "coverage" in json.loads(capsys.readouterr().err)["message"]

    def test_persistence_is_checked_before_any_run(self, tmp_path,
                                                   monkeypatch, capsys):
        def no_runs(*args, **kwargs):
            raise AssertionError("a calibration run started")
        monkeypatch.setattr(harness, "seeded_runs", no_runs)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("persistence: 0\n")
        rc = main(["calibrate", "--model", "gas_turbine", "--config", str(cfg),
                   "--runs", "25"])
        assert rc == 2
        assert "persistence" in json.loads(capsys.readouterr().err)["message"]

    def test_unknown_predictor_is_checked_before_any_run(self, tmp_path,
                                                         monkeypatch, capsys):
        def no_runs(*args, **kwargs):
            raise AssertionError("a calibration run started")
        monkeypatch.setattr(harness, "seeded_runs", no_runs)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("predictor: foo\n")
        rc = main(["calibrate", "--model", "gas_turbine", "--config", str(cfg),
                   "--runs", "25"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "predictor" in err["message"]

    @pytest.mark.parametrize("flags, text, name", [
        (["--seed", "-1"], "", "seed"), ([], "seed: -1\n", "seed"),
        ([], "n_particles: 10.5\n", "n_particles"),
        ([], "duration: 40.5\n", "duration"),
        ([], "duration: true\n", "duration"),
        ([], "persistence: 2.5\n", "persistence"),
        ([], "x0_std: -0.5\n", "x0_std"),
        ([], "theta0_std: .nan\n", "theta0_std"),
        ([], "x0_std: wide\n", "x0_std"),
        ([], "fault: {component: 0, magnitude: 0.1, start_step: 150.5}\n",
         "fault start_step"),
        ([], "fault: {component: 1.0, magnitude: 0.1, start_step: 10}\n",
         "fault component"),
        ([], "step_size: .inf\n", "step_size"),
        # YAML 1.1 reads 1e-4 (no dot) as a string.
        ([], "step_size: 1e-4\n", "step_size"),
        ([], "x0_std: 1.0e+200\n", "x0_std")],
        ids=["seed-flag", "seed-yaml", "n_particles", "duration",
             "duration-bool", "persistence", "x0_std-negative",
             "theta0_std-nan", "x0_std-string", "fault-start-fractional",
             "fault-component-float", "step_size-inf", "step_size-string",
             "x0_std-square-overflows"])
    def test_bad_run_setting_exits_2_before_any_run(
            self, tmp_path, monkeypatch, capsys, flags, text, name):
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(harness, "run_scenario", no_runs)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        rc = main(["estimate", "--model", "mixed", "--config", str(cfg),
                   *flags, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(name + " ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        "duration: 1\n",
        "fault: {component: 0, magnitude: 0.1, start_step: 1}\n"],
        ids=["duration-1", "onset-step-1"])
    def test_run_too_short_for_a_baseline_exits_2_before_simulating(
            self, tmp_path, monkeypatch, capsys, text):
        def no_truth(*args, **kwargs):
            raise AssertionError("the truth was simulated")
        monkeypatch.setattr(harness, "simulate_truth", no_truth)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        rc = main(["estimate", "--model", "mixed", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "at least 2 samples" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["calibrate", "campaign"])
    def test_negative_base_seed_exits_2_before_any_run(
            self, tmp_path, monkeypatch, capsys, command):
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(harness, "run_scenario", no_runs)
        rc = main([command, *FAST, "--base-seed", "-1",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "base_seed" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_empty_campaign_design_exits_2_before_calibration(
            self, tmp_path, monkeypatch, capsys, n):
        def no_runs(*args, **kwargs):
            raise AssertionError("a calibration run started")
        monkeypatch.setattr(harness, "seeded_runs", no_runs)
        rc = main(["campaign", *FAST, "--runs-per-category", n,
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "n_per_category" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [b"- a\n", b"just a string\n",
                                      b"model: [mixed\n", b"model: \xff\n"],
                             ids=["list", "string", "syntax-error",
                                  "not-utf8"])
    def test_config_that_is_not_a_mapping_exits_2(self, tmp_path, capsys,
                                                  text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_bytes(text)
        rc = main(["estimate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("text", [
        "lower: [-1]\n", '{"upper": [1, 1, 1, 1]}',
        '{"lower": ["a", -1, -1, -1], "upper": [1, 1, 1, 1]}',
        '{"lower": [-1, -1, -1, -1], "upper": [1, 1, 1]}',
        '[[-1, -1, -1, -1], [1, 1, 1, 1]]',
        '{"lower": [-Infinity, -1, -1, -1], "upper": [1, 1, 1, Infinity]}'],
        ids=["not-json", "no-lower", "non-numeric", "unequal", "list",
             "infinite"])
    @pytest.mark.parametrize("command", ["diagnose", "campaign"])
    def test_malformed_band_file_exits_2_before_any_run(
            self, tmp_path, monkeypatch, capsys, text, command):
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(harness, "run_scenario", no_runs)
        band = tmp_path / "band.json"
        band.write_text(text)
        rc = main([command, *FAST, "--band", str(band),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model, width", [("scalar", 4), ("mixed", 1)])
    @pytest.mark.parametrize("command", ["diagnose", "campaign"])
    def test_band_width_must_match_the_model(self, tmp_path, monkeypatch,
                                              capsys, model, width, command):
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(harness, "run_scenario", no_runs)
        band = tmp_path / "band.json"
        band.write_text(json.dumps({"lower": [-1.0] * width,
                                    "upper": [1.0] * width}))
        rc = main([command, "--model", model, "--n-particles", "8",
                   "--duration", "30", "--band", str(band),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"{width}-component band" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_invalid_fault_stanza_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        for stanza in ("  component: 0\n  magnitude: 0.7\n",
                       "  component: 0\n  start_time: 4.0\n"):
            cfg.write_text("model: mixed\nduration: 40\nfault:\n" + stanza)
            rc = main(["estimate", "--config", str(cfg),
                       "--out", str(tmp_path)])
            assert rc == 2
            assert json.loads(capsys.readouterr().err)["error"] == \
                "ConfigError"
