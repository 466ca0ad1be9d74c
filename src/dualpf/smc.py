"""Shared sequential-Monte-Carlo primitives.

Weighted particle ensembles, weight normalization, bootstrap and residual
resampling, the sample covariance, Gaussian sampling and the kernel-density
regularization step used by the regularized particle filters.  Every
eigendecomposition goes through `_psd_eigh`.  Gaussian sampling and
likelihoods share one eigen-factor per covariance, kept in a bounded cache
keyed on its bytes, so a fixed covariance (process, measurement or
constant evolution noise) is factored once.
"""
from __future__ import annotations

import functools
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

    def __post_init__(self):
        if self.n_reg < 2:
            raise ConfigError("n_reg must be >= 2")


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
    # An exactly symmetric matrix (every sample_cov result) skips allclose;
    # the verdict is the same, NaN and inf included.
    if not (np.array_equal(cov, cov.T)
            or np.allclose(cov, cov.T, atol=1e-10)):
        raise CovarianceError("covariance not symmetric")
    vals, vecs = np.linalg.eigh(cov)
    if np.any(vals < -PSD_TOL):
        raise CovarianceError(f"negative eigenvalue {vals.min():.3e}")
    return np.clip(vals, 0.0, None), vecs


def _cache_key(cov) -> tuple[bytes, tuple[int, ...]]:
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    return cov.tobytes(), cov.shape


# The cache keeps 16 factors: the fixed noise covariances of the models in
# use, with room for the covariances that change every step.
@functools.lru_cache(maxsize=16)
def _cov_factor(data: bytes, shape: tuple[int, ...]) -> tuple:
    """Read-only (A, W, log det) of a PSD covariance from `_psd_eigh`; errors
    are not cached.  A = vecs * sqrt(vals) draws samples.  W = vecs /
    sqrt(vals) whitens residuals; its columns follow the axis each
    eigenvector mostly lies on, so a diagonal cov is whitened axis by axis.
    W and log det are None when cov is singular."""
    vals, vecs = _psd_eigh(np.frombuffer(data).reshape(shape))
    root = np.sqrt(vals)
    sample = vecs * root
    sample.flags.writeable = False
    if not np.all(vals > 0.0):
        return sample, None, None
    order = np.argsort(np.abs(vecs).argmax(axis=0), kind="stable")
    whiten = vecs[:, order] / root[order]
    whiten.flags.writeable = False
    return sample, whiten, 2.0 * float(np.sum(np.log(root[order])))


def sample_gaussian(cov: np.ndarray, n: int, seed) -> np.ndarray:
    """Draw n zero-mean samples with the given PSD covariance."""
    rng = as_rng(seed)
    a = _cov_factor(*_cache_key(cov))[0]
    return rng.standard_normal((n, a.shape[0])) @ a.T


def gaussian_loglik(residuals: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Log density of N(0, cov) at each residual row; cov must be regular."""
    residuals = np.atleast_2d(np.asarray(residuals, dtype=float))
    _, whiten, logdet = _cov_factor(*_cache_key(cov))
    if whiten is None:
        raise CovarianceError("likelihood covariance is singular")
    maha = np.sum((residuals @ whiten) ** 2, axis=1)
    return -0.5 * (maha + logdet + whiten.shape[0] * np.log(2.0 * np.pi))


def likelihood_weights(residuals: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Normalized importance weights from Gaussian likelihoods.

    Works in log space with a max shift; a collapse is declared only when
    every log-likelihood is non-finite.
    """
    ll = gaussian_loglik(residuals, cov)
    finite = np.isfinite(ll)
    if not np.any(finite):
        raise DegenerateWeightsError("all particle likelihoods vanished")
    w = np.exp(np.where(finite, ll - ll[finite].max(), -np.inf))
    return w / w.sum()


def optimal_bandwidth(n: int, dim: int) -> float:
    """Standard optimal-bandwidth rule for Gaussian kernels."""
    return (4.0 / (n * (dim + 2))) ** (1.0 / (dim + 4))


def regular_grid(values: np.ndarray,
                 n_reg: int) -> tuple[np.ndarray, np.ndarray | float]:
    """Uniform grid spanning [min - std, max + std] of a 1-D particle set.

    std is the population standard deviation (the particle set is treated
    as a complete population).  A stack of particle sets (..., N) gives one
    grid per set, (..., n_reg), and one spacing per set.
    """
    values = np.asarray(values, dtype=float)
    s = values.std(axis=-1)
    lo = values.min(axis=-1) - s
    hi = values.max(axis=-1) + s
    dx = (hi - lo) / (n_reg - 1)
    return lo[..., None] + dx[..., None] * np.arange(n_reg), dx


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

    All dimensions are whitened, classified and gridded in one pass; only
    the kernel density is evaluated one dimension at a time.  A smoothed
    dimension takes its grid cells (by inverse CDF) and the offsets within
    them from one `rng.random((2, N))` call: the same uniforms, order and
    arithmetic as `rng.choice(n_reg, p=density)` followed by
    `rng.uniform(-dx/2, dx/2)`, so a seed gives the same particles.
    """
    rng = as_rng(seed)
    n, d = ensemble.n, ensemble.dim
    w = ensemble.weights
    vals, vecs = _psd_eigh(cov)
    live = vals > max(vals.max(initial=0.0), 1.0) * 1e-14
    scale = np.sqrt(np.where(live, vals, 1.0))
    zt = ((ensemble.particles @ vecs) / scale).T.copy()  # (d, N), whitened

    b = optimal_bandwidth(n, d)
    flat = np.ptp(zt, axis=1) == 0.0
    spread = np.flatnonzero(live & ~flat & (zt.std(axis=1) != 0.0)).tolist()
    grids, dx = regular_grid(zt[spread], config.n_reg)
    smoothed = {}  # dimension -> (grid, cdf, half cell width)
    for j, grid, step in zip(spread, grids, dx):
        dens = _kernel_density_1d(grid, zt[j], w, b)
        total = dens.sum()
        if total <= 0.0:
            continue
        cdf = np.cumsum(dens / total)
        cdf /= cdf[-1]
        smoothed[j] = grid, cdf, 0.5 * step

    out = np.empty((n, d))
    for j in range(d):
        if flat[j]:
            out[:, j] = zt[j, 0]
        elif j in smoothed:
            grid, cdf, half = smoothed[j]
            cell, offset = rng.random((2, n))
            out[:, j] = (grid[cdf.searchsorted(cell, side="right")]
                         + (-half + (half - -half) * offset))
        else:
            out[:, j] = rng.choice(zt[j], size=n, p=w)

    passthrough = tuple(j for j in range(d) if j not in smoothed)
    return RegularizeResult((out * scale) @ vecs.T, passthrough)
