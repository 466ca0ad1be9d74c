"""Unit tests for residual generation, calibration and confusion analysis."""
import json
import warnings

import numpy as np
import pytest

from dualpf.diagnosis import (
    BAND_MAX_WIDENINGS,
    CATEGORIES,
    ComponentDecision,
    ConfusionMatrix,
    ThresholdBand,
    calibrate_band,
    calibrate_thresholds,
    classify,
    confusion_metrics,
    decide,
    fit_healthy_baseline,
    mae_percent,
    report,
    residual,
)
from dualpf.errors import (
    CalibrationError,
    ConfigError,
    UndefinedMetricError,
)


# Frozen copies of the decision layer as it stood with a per-step loop:
# `decide` and the band widening that called it for every calibration run.
# The shared persistence test must reproduce both bit for bit.
def _ref_decide(residuals, band, persistence):
    residuals = np.atleast_2d(np.asarray(residuals, dtype=float))
    t_len, n_th = residuals.shape
    out = []
    outside = (residuals < band.lower) | (residuals > band.upper)
    for j in range(n_th):
        col = outside[:, j]
        decision = ComponentDecision(detected=False)
        run = 0
        for t in range(t_len):
            run = run + 1 if col[t] else 0
            if run >= persistence:
                start = t - persistence + 1
                tail = residuals[start:start + 100, j]
                decision = ComponentDecision(
                    detected=True, t_detect=start,
                    severity=float(tail.mean()))
                break
        out.append(decision)
    return out


def _ref_calibrate_band(residual_runs, coverage, persistence):
    band = calibrate_thresholds(residual_runs, coverage=coverage)
    mid = 0.5 * (band.lower + band.upper)
    half = 0.5 * (band.upper - band.lower)
    scale = 1.0
    for _ in range(60):
        cand = ThresholdBand(mid - scale * half, mid + scale * half)
        trips = sum(
            any(d.detected for d in _ref_decide(res, cand, persistence))
            for res in residual_runs)
        false_alarms = trips / len(residual_runs)
        if false_alarms <= 0.04:
            return cand
        scale *= 1.1
    warnings.warn(f"target_fp 0.04 missed: {false_alarms:.3f} "
                  f"of the healthy runs still raise a detection after "
                  f"60 band widenings")
    return cand


def _bits(decisions):
    return [(d.detected, d.t_detect, type(d.t_detect),
             None if d.severity is None else d.severity.hex())
            for d in decisions]


def _random_residuals(rng, t_len, n_th):
    """Random walks on a coarse grid, so values land exactly on bounds
    taken from them, with excursions of either sign."""
    res = np.round(np.cumsum(rng.normal(0.0, 0.3, (t_len, n_th)), axis=0), 1)
    for _ in range(rng.integers(0, 3)):
        start, length = rng.integers(0, t_len + 1), rng.integers(1, 12)
        res[start:start + length, rng.integers(n_th)] += rng.choice(
            [-3.0, 3.0])
    return res


def _calibrate(call, runs, persistence):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        band = call(runs, 0.9, persistence)
    return band.lower.tobytes(), band.upper.tobytes(), [
        (w.category, str(w.message)) for w in caught]


class TestBaselineFit:
    def test_constant_estimates(self):
        # A short window is flagged on the baseline, not warned about.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = fit_healthy_baseline(np.full((50, 2), 0.97), 50)
        assert np.allclose(b.theta0, 0.97)
        assert np.allclose(b.fit_cov, 0.0)
        assert b.short_window

    def test_two_sample_mean(self):
        b = fit_healthy_baseline(np.array([[0.9], [1.1]]), 2)
        assert b.theta0 == pytest.approx([1.0])

    def test_large_sample_concentration(self):
        rng = np.random.default_rng(0)
        samples = 1.0 + 0.01 * rng.standard_normal((10_000, 1))
        b = fit_healthy_baseline(samples, 10_000)
        assert abs(b.theta0[0] - 1.0) < 0.001
        assert not b.short_window

    def test_too_few_samples(self):
        with pytest.raises(ConfigError):
            fit_healthy_baseline(np.array([[1.0]]), 1)


class TestResidual:
    BASE = None

    def _baseline(self):
        return fit_healthy_baseline(np.full((10, 2), 1.0), 10)

    def test_zero_at_baseline(self):
        b = self._baseline()
        assert np.allclose(residual(b, np.ones(2)), 0.0)

    def test_loss_of_effectiveness_is_positive(self):
        b = self._baseline()
        assert np.allclose(residual(b, np.array([0.95, 1.0])), [0.05, 0.0])

    def test_trajectory_shape(self):
        b = self._baseline()
        r = residual(b, np.full((7, 2), 0.9))
        assert r.shape == (7, 2)
        assert np.allclose(r, 0.1)

    def test_dimension_mismatch(self):
        b = self._baseline()
        with pytest.raises(ConfigError):
            residual(b, np.ones(3))


class TestCalibration:
    def test_zero_residuals_get_minimum_width(self):
        runs = [np.zeros((100, 2)) for _ in range(30)]
        band = calibrate_thresholds(runs, coverage=0.99)
        assert np.allclose(band.upper - band.lower, 2e-6)

    def test_gaussian_quantile_envelope(self):
        rng = np.random.default_rng(1)
        sigma = 0.02
        runs = [sigma * rng.standard_normal((500, 1)) for _ in range(25)]
        band = calibrate_thresholds(runs, coverage=0.99)
        assert band.upper[0] == pytest.approx(2.576 * sigma, rel=0.05)
        assert band.lower[0] == pytest.approx(-2.576 * sigma, rel=0.05)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        runs = [rng.standard_normal((50, 1)) for _ in range(25)]
        a = calibrate_thresholds(runs, coverage=0.99)
        b = calibrate_thresholds(runs, coverage=0.99)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)

    @pytest.mark.parametrize("coverage", [0.0, 1.0, 1.5, float("nan")])
    def test_coverage_outside_unit_interval_rejected(self, coverage):
        with pytest.raises(ConfigError, match="coverage"):
            calibrate_thresholds([np.zeros((10, 1))], coverage=coverage)

    def test_no_runs_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_thresholds([], coverage=0.99)

    def test_band_widens_until_the_healthy_runs_stop_tripping(self):
        # Each run holds one 5-step excursion to 0.5: too rare to move the
        # pooled 0.99 envelope of the noise, so widening must cover it.
        rng = np.random.default_rng(5)
        runs = [0.01 * rng.standard_normal((2000, 1)) for _ in range(10)]
        for k, r in enumerate(runs):
            r[100 * k:100 * k + 5] = 0.5
        envelope = calibrate_thresholds(runs, coverage=0.99)
        band = calibrate_band(runs, 0.99, persistence=5)
        assert envelope.upper[0] < 0.1
        assert band.upper[0] >= 0.5
        assert band.lower[0] < envelope.lower[0]
        assert not any(decide(r, band, 5)[0].detected for r in runs)

    def test_band_persistence_validated(self):
        with pytest.raises(ConfigError, match="persistence"):
            calibrate_band([np.zeros((10, 1))], 0.99, persistence=0)

    def test_band_without_runs_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_band([], 0.99, persistence=5)

    def test_band_ordering_validated(self):
        with pytest.raises(ConfigError):
            ThresholdBand(np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize("lower, upper", [
        ([-1.0, -1.0], [1.0]), ([[-1.0]], [[1.0]])])
    def test_band_must_be_two_vectors_of_one_length(self, lower, upper):
        with pytest.raises(ConfigError, match="one length"):
            ThresholdBand(lower, upper)


class TestDecide:
    BAND = ThresholdBand(np.array([-0.02]), np.array([0.02]))

    @pytest.mark.parametrize("width", [1, 3])
    def test_band_width_must_match_the_residuals(self, width):
        # A 1-wide band would broadcast over 4 components and a 3-wide one
        # fail to; both are rejected, whatever the residuals hold.
        band = ThresholdBand(-np.ones(width), np.ones(width))
        with pytest.raises(ConfigError, match="band"):
            decide(np.zeros((20, 4)), band, persistence=3)

    def test_inside_band_never_fires(self):
        res = 0.01 * np.ones((50, 1))
        (d,) = decide(res, self.BAND, persistence=5)
        assert not d.detected
        assert d.t_detect is None

    def test_sustained_jump_detected_at_first_step(self):
        res = np.zeros((60, 1))
        res[30:] = 0.05
        (d,) = decide(res, self.BAND, persistence=5)
        assert d.detected
        assert d.t_detect == 30
        assert d.severity == pytest.approx(0.05)

    def test_single_spike_suppressed(self):
        res = np.zeros((60, 1))
        res[30] = 0.05
        (d,) = decide(res, self.BAND, persistence=5)
        assert not d.detected

    def test_negative_excursions_also_fire(self):
        res = np.zeros((20, 1))
        res[5:] = -0.05
        (d,) = decide(res, self.BAND, persistence=3)
        assert d.detected
        assert d.severity == pytest.approx(-0.05)

    def test_persistence_validated(self):
        with pytest.raises(ConfigError):
            decide(np.zeros((5, 1)), self.BAND, persistence=0)


class TestFrozenReference:
    """decide and calibrate_band run one vectorized persistence test; they
    must match the frozen per-step loop above bit for bit."""

    def test_decide_matches_bit_for_bit(self):
        rng = np.random.default_rng(31)
        short = 0
        for _ in range(3000):
            t_len, n_th = int(rng.integers(0, 40)), int(rng.integers(1, 5))
            persistence = int(rng.integers(1, 9))
            res = _random_residuals(rng, t_len, n_th)
            lower = np.round(rng.uniform(-2.0, 0.0, n_th), 1) - 0.1
            upper = np.round(rng.uniform(0.0, 2.0, n_th), 1)
            if rng.random() < 0.3 and t_len:
                # Pin some entries exactly on a bound.
                res[rng.integers(t_len), :] = upper
                res[rng.integers(t_len), :] = lower
            band = ThresholdBand(lower, upper)
            short += t_len < persistence
            assert (_bits(decide(res, band, persistence))
                    == _bits(_ref_decide(res, band, persistence)))
        assert short > 100

    def test_calibrate_band_matches_bit_for_bit(self):
        rng = np.random.default_rng(32)
        missed = 0
        for case in range(300):
            n_th, persistence = int(rng.integers(1, 4)), int(rng.integers(1, 7))
            runs = [_random_residuals(rng, int(rng.integers(1, 60)), n_th)
                    for _ in range(int(rng.integers(1, 9)))]
            if case % 30 == 0:
                # One persistence-long spike per run, too rare for the
                # envelope and too tall for every widening: a missed target.
                for r in runs:
                    r[:] = 0.0
                    r[-persistence:] = 1e6
                runs.append(np.zeros((4000, n_th)))
            got = _calibrate(calibrate_band, runs, persistence)
            assert got == _calibrate(_ref_calibrate_band, runs, persistence)
            missed += bool(got[2])
        assert missed >= 10

    def test_missed_target_names_the_rate(self):
        runs = [np.zeros((4000, 1))] + [np.r_[np.zeros(50), np.full(5, 9.0)]
                                        [:, None] for _ in range(3)]
        with pytest.warns(UserWarning, match=f"0.750 of the healthy runs .* "
                                             f"{BAND_MAX_WIDENINGS} band"):
            calibrate_band(runs, 0.99, persistence=5)


class TestClassify:
    UNIT_BAND = ThresholdBand(-np.ones(4), np.ones(4))

    def test_no_detection_is_no_fault(self):
        decisions = [ComponentDecision(False) for _ in range(4)]
        assert classify(decisions, self.UNIT_BAND) == "no_fault"

    def test_largest_severity_wins(self):
        decisions = [
            ComponentDecision(True, 10, 0.03),
            ComponentDecision(True, 12, -0.08),
            ComponentDecision(False),
            ComponentDecision(False),
        ]
        assert classify(decisions, self.UNIT_BAND) == "m_c"

    def test_band_normalization_changes_winner(self):
        decisions = [
            ComponentDecision(True, 10, 0.03),
            ComponentDecision(True, 12, 0.05),
            ComponentDecision(False),
            ComponentDecision(False),
        ]
        band = ThresholdBand(np.array([-0.01, -0.1, -0.1, -0.1]),
                             np.array([0.01, 0.1, 0.1, 0.1]))
        assert classify(decisions, band=band) == "eta_c"


class TestConfusionMetrics:
    def test_identity_matrix(self):
        m = ConfusionMatrix(10 * np.eye(5, dtype=int))
        got = confusion_metrics(m)
        assert got["AC"] == 100.0
        assert got["FP"] == 0.0
        assert all(got[f"P_{c}"] == 100.0 for c in CATEGORIES[:4])

    def test_empty_matrix_rejected(self):
        with pytest.raises(UndefinedMetricError):
            confusion_metrics(ConfusionMatrix())

    def test_zero_column_precision_is_none(self):
        counts = np.zeros((5, 5), dtype=int)
        counts[4, 4] = 10
        got = confusion_metrics(ConfusionMatrix(counts))
        assert got["P_eta_c"] is None
        assert got["FP"] == 0.0

    def test_add_bookkeeping(self):
        m = ConfusionMatrix()
        m.add("eta_c", "m_t", 1)
        m.add("no_fault", "no_fault", n=3)
        assert m.counts[0, 3] == 1
        assert m.counts[4, 4] == 3

    @pytest.mark.parametrize("actual, decided", [("foo", "no_fault"),
                                                 ("eta_c", "foo")])
    def test_unknown_category_rejected(self, actual, decided):
        m = ConfusionMatrix()
        with pytest.raises(ConfigError, match="'foo'"):
            m.add(actual, decided, 1)
        assert not m.counts.any()


class TestMae:
    def test_exact_estimates(self):
        assert mae_percent(np.ones(10), np.ones(10), 1.0) == 0.0

    def test_constant_offset(self):
        est = np.ones(10) + 0.01
        assert mae_percent(est, np.ones(10), 1.0) == pytest.approx(1.0)

    def test_folded_normal_mean(self):
        rng = np.random.default_rng(3)
        truth = np.ones(10_000)
        est = truth + 0.01 * rng.standard_normal(10_000)
        expect = 100 * 0.01 * np.sqrt(2 / np.pi)
        assert mae_percent(est, truth, 1.0) == pytest.approx(expect, rel=0.03)

    def test_window_slicing(self):
        est = np.concatenate([np.full(5, 2.0), np.ones(5)])
        assert mae_percent(est, np.ones(10), 1.0, window=slice(-5, None)) == 0.0

    def test_zero_nominal_rejected(self):
        with pytest.raises(UndefinedMetricError):
            mae_percent(np.ones(3), np.ones(3), 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            mae_percent(np.ones(3), np.ones(4), 1.0)


class TestReport:
    def test_json_round_trip(self):
        base = fit_healthy_baseline(np.full((10, 4), 1.0), 10)
        band = ThresholdBand(np.full(4, -0.02), np.full(4, 0.02))
        decisions = [ComponentDecision(False) for _ in range(4)]
        decisions[2] = ComponentDecision(True, 40, 0.06)
        doc = json.loads(json.dumps(report(base, band, decisions)))
        assert doc["decisions"]["eta_t"]["detected"]
        assert doc["decisions"]["eta_t"]["t_detect"] == 40
        assert doc["band"]["upper"] == [0.02] * 4
        assert doc["baseline"]["theta0"] == [1.0] * 4
        assert doc["baseline"]["short_window"]
