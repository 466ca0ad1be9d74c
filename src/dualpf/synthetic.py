"""Small synthetic systems used for desk-scale validation and campaigns."""
from __future__ import annotations

import numpy as np

from .model import ModelSpec, ParamDomain

SCALAR_THETA = 0.8    # healthy dynamics coefficient of the scalar model
SCALAR_DRIVE = 1.0    # its input when none is given
MIXED_A = np.array([[0.9, 0.05], [0.05, 0.85]])   # x' = MIXED_A x + MIXED_B
MIXED_B = np.array([0.05, 0.10])


def scalar_growth_model() -> ModelSpec:
    """x_{t+1} = theta * x_t + w,  y = x + v.

    The parameter only enters the dynamics, so estimating it requires the
    one-step-ahead output predictor on the parameter side.
    """

    def transition(x, eff, w, u=None):
        x = np.asarray(x, dtype=float)
        theta = np.asarray(eff, dtype=float)[..., 0]
        drive = SCALAR_DRIVE if u is None else float(u)
        return np.stack([theta * x[..., 0] + drive], axis=-1) + w

    def output(x, eff, u=None):
        x = np.asarray(x, dtype=float)
        return x[..., :1] + np.zeros_like(np.asarray(eff, dtype=float)[..., :1])

    return ModelSpec(
        n_x=1, n_theta=1, n_y=1,
        transition=transition, output=output,
        process_noise_cov=[[0.3 ** 2]],
        measurement_noise_cov=[[0.1 ** 2]],
        param_domain=ParamDomain([0.5], [1.2]),
    )


# Mixing matrix of the four-parameter observation model; each row defines
# which state combination one parameter scales in the output map.
_MIX = np.array([
    [1.0, 0.0],
    [0.0, 1.0],
    [0.5, 0.5],
    [1.0, -0.3],
])


def mixed_fault_model() -> ModelSpec:
    """Two stable coupled states observed through four parameter-scaled taps.

    Each output channel is one health parameter times a fixed linear
    combination of the states, so every parameter is directly identifiable
    from its own channel — a desk-scale stand-in for component health
    monitoring campaigns.  The drive terms put the healthy equilibrium at
    [1, 1] so outputs, faults and noise all live on an O(1) scale.
    """

    (a11, a12), (a21, a22) = MIXED_A.tolist()

    def transition(x, eff, w, u=None):
        x = np.asarray(x, dtype=float)
        nxt = np.stack([
            a11 * x[..., 0] + a12 * x[..., 1] + MIXED_B[0],
            a21 * x[..., 0] + a22 * x[..., 1] + MIXED_B[1],
        ], axis=-1)
        return nxt + w

    def output(x, eff, u=None):
        x = np.asarray(x, dtype=float)
        eff = np.asarray(eff, dtype=float)
        taps = x @ _MIX.T          # (..., 4)
        return eff * taps

    return ModelSpec(
        n_x=2, n_theta=4, n_y=4,
        transition=transition, output=output,
        process_noise_cov=(0.05 ** 2) * np.eye(2),
        measurement_noise_cov=(0.05 ** 2) * np.eye(4),
        param_domain=ParamDomain(np.full(4, 0.5), np.full(4, 1.2)),
    )


def scalar_equilibrium() -> np.ndarray:
    """Fixed point of the noise-free scalar dynamics at the healthy theta."""
    return np.array([SCALAR_DRIVE / (1.0 - SCALAR_THETA)])


def mixed_equilibrium() -> np.ndarray:
    """Fixed point of the noise-free mixed-model dynamics."""
    return np.linalg.solve(np.eye(2) - MIXED_A, MIXED_B)
