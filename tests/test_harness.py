"""Unit tests for scenario execution and Monte-Carlo campaign plumbing."""
import warnings

import numpy as np
import pytest

from dualpf import baselines, diagnosis, dual, gas_turbine, harness
from dualpf.diagnosis import CATEGORIES, ThresholdBand, classify
from dualpf.errors import (CalibrationError, ConfigError,
                           DegenerateWeightsError)
from dualpf.harness import (
    ESTIMATORS,
    RUN_DEFAULTS,
    RunConfig,
    SyntheticFault,
    accuracy_stat,
    bootstrap_comparison,
    build_model,
    calibrate_band,
    campaign_design,
    confusion_campaign,
    fault_start_step,
    fp_stat,
    run_estimator,
    run_scenario,
    seeded_runs,
    simulate_truth,
)
from dualpf.param_filter import ParamFilterConfig, output_jacobian
from dualpf.state_filter import StateFilterConfig

SMALL_MIXED = dict(model="mixed", estimator="dual", n_particles=10,
                   duration=40, theta0_std=0.005, x0_std=0.1)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(duration=0)
        with pytest.raises(ConfigError):
            RunConfig(n_particles=1)
        with pytest.raises(ConfigError):
            RunConfig(estimator="ekf")
        with pytest.raises(ConfigError):
            RunConfig(model="cartpole")

    @pytest.mark.parametrize("key", ["x0_std", "theta0_std"])
    @pytest.mark.parametrize("width", [-0.5, True, "0.1", float("nan"),
                                       float("inf"), 1e200])
    def test_bad_prior_width_rejected(self, key, width):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: width})

    def test_zero_prior_width_runs(self):
        run = run_scenario(RunConfig(model="scalar", n_particles=8,
                                     duration=20, x0_std=0.0,
                                     theta0_std=np.float64(0.0)))
        assert np.all(np.isfinite(run["theta_hat"]))

    @pytest.mark.parametrize("persistence", [0, -1])
    def test_persistence_below_one_rejected(self, persistence):
        with pytest.raises(ConfigError, match="persistence"):
            RunConfig(persistence=persistence)

    @pytest.mark.parametrize("shrinkage", [0.0, -0.5, 1.5, float("nan"),
                                           True])
    def test_shrinkage_outside_unit_interval_rejected(self, shrinkage):
        with pytest.raises(ConfigError, match="shrinkage"):
            RunConfig(estimator="bayesian", shrinkage=shrinkage)

    @pytest.mark.parametrize("estimator", ["dual", "rml"])
    @pytest.mark.parametrize("step_size", [0.0, -0.1, float("inf"), "1e-4"])
    def test_non_positive_step_size_rejected(self, estimator, step_size):
        with pytest.raises(ConfigError, match="step_size"):
            RunConfig(estimator=estimator, step_size=step_size)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize("key", ["predictor", "cov_mode"])
    def test_unknown_predictor_or_cov_mode_rejected(self, estimator, key):
        with pytest.raises(ConfigError, match=key):
            RunConfig(estimator=estimator, **{key: "foo"})

    def test_predictor_default_depends_on_model(self):
        assert RunConfig(model="scalar").predictor == "one_step"
        assert RunConfig(model="mixed").predictor == "output"
        assert RunConfig(model="gas_turbine").predictor == "one_step"
        assert RunConfig(model="scalar", predictor="output").predictor == \
            "output"
        assert RunConfig(model="mixed", predictor="one_step").predictor == \
            "one_step"

    @pytest.mark.parametrize("model", ["scalar", "mixed", "gas_turbine"])
    def test_default_predictor_sees_every_parameter(self, model):
        # No row of dyhat/dtheta at the nominal state is all zero under the
        # model's default predictor; where that default is one_step, the
        # output predictor would leave some row at exactly 0.
        cfg = RunConfig(model=model, duration=1)
        spec, x0 = build_model(cfg)
        _, _, _, theta0, u = simulate_truth(cfg)
        u = None if u is None else u[0]

        def zero_rows(predictor):
            _, jac = output_jacobian(x0, theta0, spec, predictor, u)
            return np.flatnonzero(np.all(jac[0] == 0.0, axis=1)).tolist()

        assert zero_rows(cfg.predictor) == []
        if cfg.predictor == "one_step":
            assert zero_rows("output") == {"scalar": [0],
                                           "gas_turbine": [1, 3]}[model]

    @pytest.mark.parametrize("key, value", [
        ("n_particles", 10.5), ("n_particles", True), ("duration", 40.5),
        ("duration", True), ("seed", 1.0), ("seed", -1),
        ("persistence", 2.5)])
    def test_non_integer_or_negative_count_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: value})

    @pytest.mark.parametrize("estimator, step_size", [
        ("dual", RUN_DEFAULTS["step_size_pe"]),
        ("bayesian", RUN_DEFAULTS["step_size_pe"]),
        ("rml", RUN_DEFAULTS["step_size_rml"])])
    def test_step_size_default_depends_on_estimator(self, estimator,
                                                    step_size):
        assert RunConfig(estimator=estimator).step_size == step_size
        assert RunConfig(estimator=estimator, step_size=0.2).step_size == 0.2

    def test_filter_defaults_come_from_param_filter_config(self):
        # The literals pin the values, so a moved default shows here.
        pfc = ParamFilterConfig(evolution_cov=np.eye(1))
        assert RUN_DEFAULTS["shrinkage"] == pfc.shrinkage == 0.93
        assert RUN_DEFAULTS["step_size_pe"] == pfc.step_size == 0.9
        cfg = RunConfig()
        assert (cfg.shrinkage, cfg.step_size, cfg.cov_mode) == \
            (pfc.shrinkage, pfc.step_size, pfc.cov_mode) == (0.93, 0.9,
                                                              "initial")

    def test_fault_start_step(self):
        assert fault_start_step(RunConfig(scenario="healthy")) is None
        assert fault_start_step(RunConfig(scenario=SyntheticFault())) is None
        cfg = RunConfig(scenario=SyntheticFault(component=2, magnitude=0.1,
                                                start_step=77))
        assert fault_start_step(cfg) == 77
        late = SyntheticFault(component=2, magnitude=0.1, start_step=300)
        assert fault_start_step(RunConfig(duration=300, scenario=late)) is None
        engine = RunConfig(model="gas_turbine", duration=600,
                           scenario="scenario_I_concurrent")
        assert fault_start_step(engine) == 400
        assert fault_start_step(RunConfig(model="gas_turbine")) is None


class TestModelsAndTrajectories:
    def test_build_model_dimensions(self):
        for name, dims in (("scalar", (1, 1, 1)), ("mixed", (2, 4, 4)),
                           ("gas_turbine", (4, 4, 5))):
            model, x0 = build_model(RunConfig(model=name))
            assert (model.n_x, model.n_theta, model.n_y) == dims
            assert x0.shape == (model.n_x,)

    def test_scalar_healthy_trajectory(self):
        cfg = RunConfig(model="scalar", duration=20)
        thetas = simulate_truth(cfg)[3]
        assert thetas.shape == (20, 1)
        assert np.all(thetas == 0.8)

    def test_step_fault_scales_component(self):
        cfg = RunConfig(model="scalar", duration=20,
                        scenario=SyntheticFault(component=0, magnitude=0.05,
                                                start_step=10))
        thetas = simulate_truth(cfg)[3]
        assert np.all(thetas[:10] == 0.8)
        assert np.allclose(thetas[10:], 0.8 * 0.95)

    def test_ramp_fault_midpoint(self):
        cfg = RunConfig(model="mixed", duration=30,
                        scenario=SyntheticFault(component=1, magnitude=0.1,
                                                start_step=10, profile="ramp",
                                                ramp_end_step=20))
        thetas = simulate_truth(cfg)[3]
        assert thetas[15, 1] == pytest.approx(0.95)
        assert np.allclose(thetas[20:, 1], 0.9)
        assert np.all(thetas[:, 0] == 1.0)

    def test_unknown_synthetic_scenario(self):
        for name in ("surge", "scenario_I_concurrent"):
            cfg = RunConfig(model="mixed", scenario=name)
            with pytest.raises(ConfigError, match="unknown scenario"):
                simulate_truth(cfg)

    @pytest.mark.parametrize("model", ["scalar", "mixed", "gas_turbine"])
    def test_truth_inputs(self, model):
        # Only the engine takes an input: the fuel flow with its FUEL_STEP.
        cfg = RunConfig(model=model, duration=150)
        u = simulate_truth(cfg)[4]
        if model != "gas_turbine":
            assert u is None
            return
        constants = gas_turbine.nominal_constants()[0]
        want = gas_turbine.fuel_trajectory(150, constants)
        assert u.tobytes() == want.tobytes()

    def test_fault_on_gas_turbine(self):
        fault = SyntheticFault(component=2, magnitude=0.05, start_step=10)
        cfg = RunConfig(model="gas_turbine", n_particles=10, duration=30,
                        seed=4, scenario=fault)
        run = run_scenario(cfg)
        assert np.all(run["thetas"][:10] == 1.0)
        assert np.all(run["thetas"][10:, 2] == 0.95)
        assert run["report"]["config"]["scenario"]["start_step"] == 10
        assert run["theta_hat"].shape == (30, 4)
        assert np.all(np.isfinite(run["theta_hat"]))


class TestRunScenario:
    def test_writes_no_files(self, tmp_path, monkeypatch):
        # Only the CLI writes files; a run leaves its working directory as
        # it found it.
        monkeypatch.chdir(tmp_path)
        run = run_scenario(RunConfig(**SMALL_MIXED, seed=1))
        assert run["theta_hat"].shape == (40, 4)
        assert run["residuals"].shape == (40, 4)
        assert set(run["report"]["mae_percent"]) == \
            {f"theta_{j}" for j in range(1, 5)}
        assert run["report"]["config"]["model"] == "mixed"
        assert list(tmp_path.iterdir()) == []

    def test_gas_turbine_healthy_run_stays_in_domain(self):
        cfg = RunConfig(model="gas_turbine", estimator="dual",
                        n_particles=25, duration=80, seed=3)
        run = run_scenario(cfg)
        th = run["theta_hat"]
        assert th.shape == (80, 4)
        assert np.all(np.isfinite(th))
        assert np.all((th >= 0.5) & (th <= 1.2))

    def test_gas_turbine_scenario_i_survives_bound_pileup(self):
        # After the eta_c fault the parameter ensemble piles up on the upper
        # bound 1.2, where a shrinkage point can round one ulp past it; the
        # run must still complete with every particle admissible.
        cfg = RunConfig(model="gas_turbine", estimator="dual", duration=600,
                        seed=1, scenario="scenario_I_concurrent",
                        predictor="output")
        th = run_scenario(cfg)["theta_hat"]
        assert th.shape == (600, 4)
        # theta_hat is the ensemble mean, which may round an ulp past 1.2.
        assert np.all((th >= 0.5) & (th <= 1.2 + 1e-12))

    def test_baseline_estimators_run(self):
        for estimator in ("bayesian", "rml"):
            cfg = RunConfig(**{**SMALL_MIXED, "estimator": estimator}, seed=2)
            run = run_scenario(cfg)
            assert np.all(np.isfinite(run["theta_hat"]))


class TestEstimatorLoop:
    STEPS = {"dual": (dual, "step"),
             "bayesian": (baselines, "bayesian_ks_step"),
             "rml": (baselines, "rml_spsa_step")}

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_module_step_called_once_per_step(self, monkeypatch, estimator):
        calls = {name: 0 for name in self.STEPS}
        for name, (module, attr) in self.STEPS.items():
            def counted(*args, _name=name, _step=getattr(module, attr),
                        **kwargs):
                calls[_name] += 1
                return _step(*args, **kwargs)
            monkeypatch.setattr(module, attr, counted)
        run_scenario(RunConfig(**{**SMALL_MIXED, "estimator": estimator}))
        assert calls == {name: (SMALL_MIXED["duration"] if name == estimator
                                else 0) for name in self.STEPS}

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_short_input_trajectory_rejected_before_any_step(
            self, monkeypatch, estimator):
        calls = []
        for module, attr in self.STEPS.values():
            monkeypatch.setattr(module, attr,
                                lambda *args, **kwargs: calls.append(1))
        cfg = RunConfig(**{**SMALL_MIXED, "estimator": estimator})
        model, x0 = build_model(cfg)
        with pytest.raises(ConfigError, match="3 rows.*5 steps"):
            run_estimator(model, np.ones((5, 4)), cfg, 0, x0,
                          u_trajectory=np.zeros(3))
        assert calls == []

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_particle_steps_for_every_estimator(self, estimator):
        cfg = RunConfig(**{**SMALL_MIXED, "estimator": estimator})
        assert run_scenario(cfg)["particle_steps"] == 10 * 40
        band = ThresholdBand(np.full(4, -10.0), np.full(4, 10.0))
        design = campaign_design(n_per_category=1, start_step=20)[:3]
        out = confusion_campaign(cfg, design, band, base_seed=2)
        assert out["failures"] == []
        assert out["particle_steps"] == 3 * 10 * 40

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_matches_a_direct_run(self, estimator):
        cfg = RunConfig(**{**SMALL_MIXED, "estimator": estimator},
                        scenario=SyntheticFault(1, 0.1, 20))
        model, states, ys, _, u = simulate_truth(cfg)
        got = run_estimator(model, ys, cfg, 7, states[0], u_trajectory=u)
        theta0_cov = (cfg.theta0_std ** 2) * np.eye(4)
        x0_cov = (cfg.x0_std ** 2) * np.eye(2)
        if estimator == "dual":
            pc = ParamFilterConfig(
                n_particles=10, shrinkage=cfg.shrinkage,
                step_size=RUN_DEFAULTS["step_size_pe"],
                evolution_cov=theta0_cov.copy(), predictor=cfg.predictor,
                cov_mode=cfg.cov_mode)
            st = dual.init(model, states[0], x0_cov, np.ones(4), theta0_cov,
                           StateFilterConfig(n_particles=10), pc, 7)
            step = dual.step
        elif estimator == "bayesian":
            st = baselines.init_bayesian_ks(model, states[0], x0_cov,
                                            np.ones(4), theta0_cov, 10,
                                            RUN_DEFAULTS["shrinkage"], 7)
            step = baselines.bayesian_ks_step
        else:
            st = baselines.init_rml(model, states[0], x0_cov, np.ones(4), 10,
                                    RUN_DEFAULTS["step_size_rml"], 7)
            step = baselines.rml_spsa_step
        want = {"theta_hat": [], "x_hat": []}
        for t in range(ys.shape[0]):
            st = step(st, ys[t], u=None if u is None else u[t])
            want["theta_hat"].append(st.theta_hat.copy())
            want["x_hat"].append(st.x_hat.copy())
        want = {k: np.vstack(v) for k, v in want.items()}
        assert got["theta_hat"].tobytes() == want["theta_hat"].tobytes()
        assert got["x_hat"].tobytes() == want["x_hat"].tobytes()
        if estimator == "dual":
            history = dual.history_arrays(st.history)["theta_hat"]
            assert history.tobytes() == got["theta_hat"].tobytes()


class TestHealthyBaselineWindow:
    @staticmethod
    def _no_estimator(monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the estimator ran")
        monkeypatch.setattr(harness, "run_estimator", no_run)

    @pytest.mark.parametrize("start", [0, 1])
    def test_fault_before_two_estimates_raises(self, monkeypatch, start):
        self._no_estimator(monkeypatch)
        cfg = RunConfig(model="mixed", n_particles=8, duration=20,
                        scenario=SyntheticFault(0, 0.1, start))
        with pytest.raises(ConfigError, match=f"fault onset at step {start}"
                           ".*at least 2 samples"):
            run_scenario(cfg)

    def test_one_step_run_raises_before_the_estimator(self, monkeypatch):
        self._no_estimator(monkeypatch)
        cfg = RunConfig(model="mixed", n_particles=8, duration=1)
        with pytest.raises(ConfigError,
                           match="duration 1 .*at least 2 samples"):
            run_scenario(cfg)

    def test_campaign_lists_the_run_as_failed(self):
        base = RunConfig(model="mixed", n_particles=8, duration=20)
        band = ThresholdBand(np.full(4, -10.0), np.full(4, 10.0))
        design = [SyntheticFault(), SyntheticFault(0, 0.1, 0)]
        out = confusion_campaign(base, design, band, base_seed=3)
        assert [f["run"] for f in out["failures"]] == [1]
        assert "at least 2 samples" in out["failures"][0]["error"]
        assert len(out["labels"]) == 1

    def test_short_window_is_flagged_and_warnings_pass(self, monkeypatch):
        fit = diagnosis.fit_healthy_baseline

        def noisy_fit(*args, **kwargs):
            warnings.warn("unrelated")
            return fit(*args, **kwargs)
        monkeypatch.setattr(diagnosis, "fit_healthy_baseline", noisy_fit)
        cfg = RunConfig(model="mixed", n_particles=8, duration=20,
                        scenario=SyntheticFault(0, 0.1, 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run = run_scenario(cfg)
        assert [str(w.message) for w in caught] == ["unrelated"]
        assert run["baseline"].window == 2
        assert run["baseline"].short_window

    @pytest.mark.parametrize("horizon, short", [(10, False), (35, True)])
    def test_window_follows_the_convergence_constant(self, monkeypatch,
                                                     horizon, short):
        monkeypatch.setattr(diagnosis, "CONVERGENCE_WINDOW", horizon)
        cfg = RunConfig(**SMALL_MIXED, scenario=SyntheticFault(0, 0.1, 30))
        run = run_scenario(cfg)
        assert run["baseline"].window == min(horizon, 30)
        assert run["baseline"].short_window is short
        tail = slice(-horizon, None)
        want = diagnosis.mae_percent(
            run["theta_hat"][:, 0], run["thetas"][:, 0],
            nominal=float(np.mean(np.abs(run["thetas"][:, 0]))), window=tail)
        assert run["report"]["mae_percent"]["theta_1"] == want


class TestSeededRuns:
    def test_run_i_matches_run_scenario_alone(self):
        # Run i is run_scenario alone at the i-th spawned seed, whatever
        # runs before it.
        cfg = RunConfig(**SMALL_MIXED)
        scenarios = ["healthy", SyntheticFault(1, 0.1, 20)]
        runs, failures = seeded_runs(cfg, scenarios, base_seed=9)
        assert failures == []
        seeds = np.random.SeedSequence(9).spawn(2)
        for (run_cfg, run), scenario, ss in zip(runs, scenarios, seeds):
            seed = int(ss.generate_state(1)[0] % 2 ** 31)
            assert (run_cfg.scenario, run_cfg.seed) == (scenario, seed)
            alone = run_scenario(RunConfig(**SMALL_MIXED, scenario=scenario,
                                           seed=seed))
            assert run["theta_hat"].tobytes() == alone["theta_hat"].tobytes()
            assert run["x_hat"].tobytes() == alone["x_hat"].tobytes()

    def test_module_run_scenario_sees_every_run(self, monkeypatch):
        seen = []

        def counted(config, band=None):
            seen.append(config.scenario)
            return run_scenario(config, band=band)
        monkeypatch.setattr(harness, "run_scenario", counted)
        cfg = RunConfig(**{**SMALL_MIXED, "n_particles": 6, "duration": 30})
        band = calibrate_band(cfg, 3, 0)
        assert seen == ["healthy"] * 3
        design = campaign_design(n_per_category=1, start_step=20)[:2]
        out = confusion_campaign(cfg, design, band, base_seed=1)
        assert seen[3:] == design
        assert len(out["labels"]) == 2

    def test_negative_base_seed_rejected_before_any_run(self, monkeypatch):
        monkeypatch.setattr(harness, "run_scenario", None)
        with pytest.raises(ConfigError, match="base_seed"):
            seeded_runs(RunConfig(**SMALL_MIXED), ["healthy"], base_seed=-1)

    def test_zero_calibration_runs_rejected(self):
        with pytest.raises(ConfigError, match="n_runs"):
            calibrate_band(RunConfig(**SMALL_MIXED), 0, 0)


class TestCalibration:
    def test_band_ordering_and_determinism(self):
        cfg = RunConfig(**SMALL_MIXED)
        a = calibrate_band(cfg, 8, 0)
        b = calibrate_band(cfg, 8, 0)
        assert np.all(a.lower < a.upper)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)

    def test_missed_target_fp_warns(self, monkeypatch):
        # Each run's residuals hold one 5-step excursion: too rare to move
        # the pooled envelope and too tall for every widening to cover.
        def spiked(config, band=None):
            res = np.zeros((2000, 4))
            res[100:105] = 1.0
            return {**run_scenario(config, band=band), "residuals": res}
        monkeypatch.setattr(harness, "run_scenario", spiked)
        with pytest.warns(UserWarning, match="1.000 of the healthy runs"):
            band = calibrate_band(RunConfig(**SMALL_MIXED), 3, 0)
        assert np.all(band.lower < band.upper)

    def test_too_few_runs_left_names_the_failures(self):
        cfg = RunConfig(model="mixed", duration=1, n_particles=8)
        with pytest.raises(CalibrationError,
                           match="3 of 3 calibration runs failed.*"
                                 "at least 2 samples"):
            calibrate_band(cfg, 3, 0)

    def test_dropped_run_is_counted_in_a_warning(self, monkeypatch):
        calls = []

        def second_run_raises(config, band=None):
            calls.append(config.seed)
            if len(calls) == 2:
                raise DegenerateWeightsError("all weights zero")
            return run_scenario(config, band=band)
        monkeypatch.setattr(harness, "run_scenario", second_run_raises)
        with pytest.warns(UserWarning,
                          match="1 of 3 calibration runs failed.*"
                                "all weights zero"):
            band = calibrate_band(RunConfig(**SMALL_MIXED), 3, 0)
        assert len(calls) == 3
        assert np.all(band.lower < band.upper)

    def test_one_finished_run_is_enough(self, monkeypatch):
        calls = []

        def only_last_run_finishes(config, band=None):
            calls.append(config.seed)
            if len(calls) < 3:
                raise DegenerateWeightsError("all weights zero")
            return run_scenario(config, band=band)
        monkeypatch.setattr(harness, "run_scenario", only_last_run_finishes)
        with pytest.warns(UserWarning, match="2 of 3 calibration runs failed"):
            band = calibrate_band(RunConfig(**SMALL_MIXED), 3, 0)
        assert np.all(band.lower < band.upper)

    def test_coverage_is_checked_before_any_run(self, monkeypatch):
        monkeypatch.setattr(harness, "run_scenario", None)
        with pytest.raises(ConfigError, match="coverage"):
            calibrate_band(RunConfig(**SMALL_MIXED), 3, 0, coverage=1.0)

    def test_fault_detected_on_correct_component(self):
        base = RunConfig(model="mixed", estimator="dual", n_particles=30,
                         duration=160, theta0_std=0.005, x0_std=0.1)
        band = calibrate_band(base, 8, 0)
        fault = SyntheticFault(component=0, magnitude=0.12, start_step=100)
        for seed in (1, 2):
            cfg = RunConfig(**{**base.__dict__, "seed": seed,
                               "scenario": fault})
            run = run_scenario(cfg, band=band)
            d = run["decisions"][0]
            assert d.detected
            assert d.t_detect >= 100
            assert d.severity > 0
            assert classify(run["decisions"], band=band) == "eta_c"


class TestCampaigns:
    def test_design_counts(self):
        design = campaign_design(n_per_category=7)
        assert len(design) == 35
        assert sum(f.component is None for f in design) == 7
        for j in range(4):
            assert sum(f.component == j for f in design) == 7
        assert all(f.magnitude > 0 for f in design if f.component is not None)

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_design_rejected(self, n):
        with pytest.raises(ConfigError, match="n_per_category"):
            campaign_design(n_per_category=n)

    def test_confusion_bookkeeping(self):
        base = RunConfig(model="mixed", estimator="dual", n_particles=8,
                         duration=40, theta0_std=0.005, x0_std=0.1)
        band = ThresholdBand(np.full(4, -10.0), np.full(4, 10.0))
        design = campaign_design(n_per_category=1, start_step=20)
        out = confusion_campaign(base, design, band, base_seed=5)
        counts = out["matrix"].counts
        assert counts.sum() == 5
        # An arbitrarily wide band never detects anything.
        assert counts[:, CATEGORIES.index("no_fault")].sum() == 5
        assert len(out["labels"]) == 5
        assert out["particle_steps"] == 5 * 40 * 8
        assert out["metrics"]["FP"] == 0.0
        assert out["failures"] == []

    def test_failed_run_left_out(self):
        base = RunConfig(model="mixed", estimator="dual", n_particles=8,
                         duration=40, theta0_std=0.005, x0_std=0.1)
        band = ThresholdBand(np.full(4, -10.0), np.full(4, 10.0))
        design = campaign_design(n_per_category=1, start_step=20)
        # The mixed model has four health components; index 7 raises.
        design[2] = SyntheticFault(component=7, magnitude=0.1, start_step=20)
        out = confusion_campaign(base, design, band, base_seed=5)
        assert [f["run"] for f in out["failures"]] == [2]
        assert "component 7" in out["failures"][0]["error"]
        assert out["matrix"].counts.sum() == 4
        assert len(out["labels"]) == 4
        assert out["particle_steps"] == 4 * 40 * 8


class TestComparisonStatistics:
    def test_accuracy_and_fp(self):
        labels = [("eta_c", "eta_c"), ("m_t", "eta_t"),
                  ("no_fault", "no_fault"), ("no_fault", "m_c")]
        assert accuracy_stat(labels) == 0.5
        assert fp_stat(labels) == 0.5
        assert accuracy_stat([]) == 0.0
        assert fp_stat([("eta_c", "eta_c")]) == 0.0

    def test_bootstrap_identical_campaigns(self):
        labels = [("eta_c", "eta_c")] * 10
        assert bootstrap_comparison(labels, labels, accuracy_stat) == 1.0

    def test_bootstrap_dominant_campaign(self):
        good = [("eta_c", "eta_c")] * 10
        bad = [("eta_c", "m_c")] * 10
        assert bootstrap_comparison(good, bad, accuracy_stat) == 1.0
        assert bootstrap_comparison(bad, good, accuracy_stat) == 0.0

    def test_bootstrap_length_mismatch(self):
        with pytest.raises(ConfigError):
            bootstrap_comparison([("a", "a")], [], accuracy_stat)

    def test_bootstrap_misaligned_campaigns_rejected(self):
        # Two campaigns of one design that lost different runs: by position
        # the m_c run is paired with an eta_c run and eta_t with m_c.
        a = [("no_fault", "no_fault"), ("eta_c", "eta_c"), ("m_c", "m_c")]
        b = [("no_fault", "no_fault"), ("m_c", "eta_c"), ("eta_t", "eta_t")]
        with pytest.raises(ConfigError, match=r"run 1 is 'eta_c' in one "
                           r"campaign and 'm_c' in the other"):
            bootstrap_comparison(a, b, accuracy_stat)

    def test_bootstrap_empty_campaigns_rejected(self):
        # Every resample of two empty campaigns ties at 0.0 >= 0.0, which
        # would read as full confidence in the ordering.
        with pytest.raises(ConfigError, match="non-empty"):
            bootstrap_comparison([], [], accuracy_stat)
