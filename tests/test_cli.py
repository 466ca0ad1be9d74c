"""End-to-end tests for the command-line interface."""
import json

import pytest

from dualpf import harness
from dualpf.cli import main

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


class TestEstimate:
    def test_prints_mae_and_writes_report(self, tmp_path, capsys):
        rc = main(["estimate", *FAST, "--seed", "2", "--out", str(tmp_path)])
        assert rc == 0
        mae = _stdout_json(capsys)
        assert set(mae) == {f"theta_{j}" for j in range(1, 5)}
        assert all(v >= 0 for v in mae.values())
        assert (tmp_path / "report.json").exists()

    def test_yaml_fault_stanza(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "model: mixed\nn_particles: 8\nduration: 40\nseed: 4\n"
            "fault:\n  component: 0\n  magnitude: 0.1\n  start_step: 20\n")
        rc = main(["estimate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["scenario"]["component"] == 0


    @pytest.mark.parametrize("flags, predictor", [
        ([], "one_step"), (["--predictor", "output"], "output")])
    def test_scalar_predictor_in_report(self, tmp_path, flags, predictor):
        rc = main(["estimate", "--model", "scalar", "--n-particles", "8",
                   "--duration", "20", *flags, "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["predictor"] == predictor


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


class TestComplexity:
    def test_default_report(self, tmp_path, capsys):
        rc = main(["complexity", "--out", str(tmp_path)])
        assert rc == 0
        doc = _stdout_json(capsys)
        assert doc["flops"]["dual"] == 21_950
        assert (tmp_path / "complexity.json").exists()


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
