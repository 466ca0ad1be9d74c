"""Unit tests for the shared count and real-valued setting checks."""
from fractions import Fraction

import numpy as np
import pytest

from dualpf import baselines, diagnosis, harness, smc
from dualpf.errors import ConfigError, check_int, check_real
from dualpf.param_filter import ParamFilterConfig
from dualpf.state_filter import StateFilterConfig

NAN, INF = float("nan"), float("inf")
# Value -> (accepted by check_int with low 0, check_real's float or None).
TABLE = [
    (3, True, 3.0), (np.int64(3), True, 3.0), (0, True, 0.0),
    (-1, False, -1.0), (True, False, None), (np.True_, False, None),
    (2.0, False, 2.0), (np.float64(0.25), False, 0.25),
    (Fraction(1, 4), False, 0.25), (NAN, False, None), (INF, False, None),
    (-INF, False, None), (np.float64(NAN), False, None), ("1e-4", False, None),
    (None, False, None), (10 ** 400, True, None),
]


@pytest.mark.parametrize("val, is_count, real", TABLE)
def test_check_int(val, is_count, real):
    if is_count:
        check_int("n", val, 0)
    else:
        with pytest.raises(ConfigError, match=r"^n must be an integer >= 0, "
                                              r"got "):
            check_int("n", val, 0)


@pytest.mark.parametrize("val, is_count, real", TABLE)
def test_check_real(val, is_count, real):
    if real is not None:
        got = check_real("x", val)
        assert type(got) is float and got == real
    else:
        with pytest.raises(ConfigError, match=r"^x must be a finite number, "
                                              r"got "):
            check_real("x", val)


def test_check_int_low_is_inclusive():
    check_int("n", 2, 2)
    with pytest.raises(ConfigError, match="n must be an integer >= 2, got 1"):
        check_int("n", 1, 2)


_CFG = harness.RunConfig(model="mixed", n_particles=8, duration=30)
_BAND = diagnosis.ThresholdBand(-np.ones(4), np.ones(4))


@pytest.mark.parametrize("bad", [1.5, True])
@pytest.mark.parametrize("name, call", [
    ("n_per_category", lambda v: harness.campaign_design(v)),
    ("n_runs", lambda v: harness.calibrate_band(_CFG, v, 0)),
    ("base_seed", lambda v: harness.seeded_runs(_CFG, ["healthy"], v)),
    ("persistence", lambda v: diagnosis.decide(np.zeros((9, 4)), _BAND, v)),
    ("n_reg", lambda v: smc.RegularizationConfig(n_reg=v)),
    ("n_theta", lambda v: baselines.EFCostModel(4, v, 5, 1.0, 1.0, 1.0)),
    ("N", lambda v: baselines.EFCostModel(4, 4, 5, 1.0, 1.0, 1.0, N=v)),
    ("n_particles", lambda v: ParamFilterConfig(n_particles=v)),
    ("n_particles", lambda v: StateFilterConfig(n_particles=v)),
], ids=["campaign_design", "calibrate_band", "seeded_runs", "decide",
        "RegularizationConfig", "EFCostModel-dims", "EFCostModel-N",
        "ParamFilterConfig", "StateFilterConfig"])
def test_library_counts_reject_floats_and_bools(monkeypatch, name, call, bad):
    monkeypatch.setattr(harness, "run_scenario", None)   # no run may start
    with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
        call(bad)
