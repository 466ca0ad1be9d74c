"""Shared sequential-Monte-Carlo primitives.

Weighted particle ensembles, weight normalization, bootstrap and residual
resampling, the sample covariance, Gaussian sampling and the kernel-density
regularization step used by the regularized particle filters.  Every
covariance is decomposed once, by `_psd_eigh`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, CovarianceError, DegenerateWeightsError

# Eigenvalues above -PSD_TOL are clamped to zero; below raise CovarianceError.
PSD_TOL = 1e-8
# Max-weight threshold past which the ensemble is flagged as degenerate.
WEIGHT_COLLAPSE_TOL = 1e-12


@dataclass
class ParticleEnsemble:
    """N particles of common dimension d with a weight simplex."""

    particles: np.ndarray  # (N, d)
    weights: np.ndarray    # (N,)

    def __post_init__(self):
        self.particles = np.atleast_2d(np.asarray(self.particles, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.particles.shape[0] != self.weights.shape[0]:
            raise ConfigError("particle/weight count mismatch")
        if self.particles.shape[0] < 1:
            raise ConfigError("ensemble needs at least one particle")
        if not np.all(np.isfinite(self.particles)):
            raise ConfigError("non-finite particle component")

    @property
    def n(self) -> int:
        return self.particles.shape[0]

    @property
    def dim(self) -> int:
        return self.particles.shape[1]

    def ess(self) -> float:
        return 1.0 / float(np.sum(self.weights ** 2))

    def is_collapsed(self) -> bool:
        return bool(np.max(self.weights) > 1.0 - WEIGHT_COLLAPSE_TOL)


@dataclass(frozen=True)
class RegularizationConfig:
    """Grid-based Gaussian-kernel regularization settings."""

    n_reg: int = 100
    bandwidth: float | None = None  # None -> optimal-bandwidth rule

    def __post_init__(self):
        if self.n_reg < 2:
            raise ConfigError("n_reg must be >= 2")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ConfigError("bandwidth must be positive")


# The one setting both regularized filters run with (frozen: it is shared).
DEFAULT_REGULARIZATION = RegularizationConfig()


class RegularizeResult(NamedTuple):
    particles: np.ndarray
    passthrough_dims: tuple[int, ...]


def as_rng(seed) -> np.random.Generator:
    """Accept an int seed, a SeedSequence, or a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def normalize_weights(raw: np.ndarray) -> np.ndarray:
    """Scale nonnegative raw weights onto the simplex.

    Raises DegenerateWeightsError when the total mass is zero; the caller
    must treat that as a likelihood collapse.
    """
    raw = np.asarray(raw, dtype=float)
    if np.any(raw < 0) or not np.all(np.isfinite(raw)):
        raise ConfigError("raw weights must be finite and nonnegative")
    total = raw.sum()
    if total <= 0.0:
        raise DegenerateWeightsError("all weights are zero")
    return raw / total


def resample_bootstrap(ensemble: ParticleEnsemble, seed) -> np.ndarray:
    """Multinomial (bootstrap) resampling: N i.i.d. index draws."""
    rng = as_rng(seed)
    n = ensemble.n
    return rng.choice(n, size=n, p=ensemble.weights)


def resample_residual(ensemble: ParticleEnsemble, seed) -> np.ndarray:
    """Residual resampling: deterministic floor counts + multinomial rest."""
    rng = as_rng(seed)
    n = ensemble.n
    w = ensemble.weights
    floors = np.floor(n * w).astype(int)
    counts = floors.copy()
    remainder = n - int(floors.sum())
    if remainder > 0:
        resid = n * w - floors
        resid_sum = resid.sum()
        if resid_sum <= 0:
            # All mass allocated deterministically; top up uniformly.
            extra = rng.choice(n, size=remainder)
        else:
            extra = rng.choice(n, size=remainder, p=resid / resid_sum)
        np.add.at(counts, extra, 1)
    return np.repeat(np.arange(n), counts)


def sample_cov(particles: np.ndarray) -> np.ndarray:
    """Sample covariance of the rows (divide by N-1; zeros for N = 1)."""
    centered = particles - particles.mean(axis=0)
    return (centered.T @ centered) / max(particles.shape[0] - 1, 1)


def _psd_eigh(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (clamped at zero) and eigenvectors of a PSD covariance."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if not np.allclose(cov, cov.T, atol=1e-10):
        raise CovarianceError("covariance not symmetric")
    vals, vecs = np.linalg.eigh(cov)
    if np.any(vals < -PSD_TOL):
        raise CovarianceError(f"negative eigenvalue {vals.min():.3e}")
    return np.clip(vals, 0.0, None), vecs


def sample_gaussian(cov: np.ndarray, n: int, seed) -> np.ndarray:
    """Draw n zero-mean samples with the given PSD covariance."""
    rng = as_rng(seed)
    vals, vecs = _psd_eigh(cov)
    a = vecs * np.sqrt(vals)
    return rng.standard_normal((n, a.shape[0])) @ a.T


def gaussian_loglik(residuals: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Log density of N(0, cov) at each residual row."""
    residuals = np.atleast_2d(np.asarray(residuals, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = cov.shape[0]
    chol = np.linalg.cholesky(cov)
    sol = np.linalg.solve(chol, residuals.T)
    maha = np.sum(sol ** 2, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (maha + logdet + d * np.log(2.0 * np.pi))


def likelihood_weights(residuals: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Normalized importance weights from Gaussian likelihoods.

    Works in log space with a max shift; a collapse is declared only when
    every log-likelihood is non-finite.
    """
    ll = gaussian_loglik(residuals, cov)
    finite = np.isfinite(ll)
    if not np.any(finite):
        raise DegenerateWeightsError("all particle likelihoods vanished")
    shifted = np.where(finite, ll - ll[finite].max(), -np.inf)
    return normalize_weights(np.exp(shifted))


def optimal_bandwidth(n: int, dim: int) -> float:
    """Standard optimal-bandwidth rule for Gaussian kernels."""
    return (4.0 / (n * (dim + 2))) ** (1.0 / (dim + 4))


def regular_grid(values: np.ndarray, n_reg: int) -> tuple[np.ndarray, float]:
    """Uniform grid spanning [min - std, max + std] of a 1-D particle set.

    std is the population standard deviation (the particle set is treated
    as a complete population).
    """
    values = np.asarray(values, dtype=float)
    s = float(values.std())
    lo = float(values.min()) - s
    hi = float(values.max()) + s
    dx = (hi - lo) / (n_reg - 1)
    return lo + dx * np.arange(n_reg), dx


def _kernel_density_1d(grid: np.ndarray, centers: np.ndarray,
                       weights: np.ndarray, b: float) -> np.ndarray:
    # In-place buffer reuse: this is the hot loop of the regularized filter.
    u = grid[:, None] - centers[None, :]
    u *= 1.0 / b
    np.multiply(u, u, out=u)
    u *= -0.5
    np.exp(u, out=u)
    u *= 1.0 / np.sqrt(2.0 * np.pi)
    return (u @ weights) / b


def regularize(ensemble: ParticleEnsemble, cov: np.ndarray,
               config: RegularizationConfig, seed) -> RegularizeResult:
    """Draw N fresh particles from a kernel-smoothed continuous density.

    The weighted ensemble is whitened on the eigenbasis of `cov` (the prior
    covariance of the ensemble), then each whitened dimension is smoothed
    independently: a uniform grid spanning [min-std, max+std] is built, the
    weighted kernel mixture is evaluated on it, and samples are drawn from
    the resulting density.  Directions with (near-)zero variance stay
    unscaled; dimensions with zero spread pass through unperturbed and are
    reported in `passthrough_dims`.  A `cov` that is not symmetric positive
    semidefinite raises CovarianceError.
    """
    rng = as_rng(seed)
    n, d = ensemble.n, ensemble.dim
    vals, vecs = _psd_eigh(cov)
    live = vals > max(vals.max(initial=0.0), 1.0) * 1e-14
    scale = np.where(live, np.sqrt(np.where(live, vals, 1.0)), 1.0)
    z = (ensemble.particles @ vecs) / scale

    b = config.bandwidth if config.bandwidth is not None else optimal_bandwidth(n, d)
    out = np.empty((n, d))
    passthrough = []
    for j in range(d):
        col = z[:, j]
        if not live[j] or np.ptp(col) == 0.0 or col.std() == 0.0:
            passthrough.append(j)
            if np.ptp(col) == 0.0:
                out[:, j] = col[0]
            else:
                out[:, j] = rng.choice(col, size=n, p=ensemble.weights)
            continue
        grid, dx = regular_grid(col, config.n_reg)
        dens = _kernel_density_1d(grid, col, ensemble.weights, b)
        total = dens.sum()
        if total <= 0.0:
            passthrough.append(j)
            out[:, j] = rng.choice(col, size=n, p=ensemble.weights)
            continue
        idx = rng.choice(config.n_reg, size=n, p=dens / total)
        out[:, j] = grid[idx] + rng.uniform(-0.5 * dx, 0.5 * dx, size=n)

    return RegularizeResult((out * scale) @ vecs.T, tuple(passthrough))
