"""Shared sequential-Monte-Carlo primitives.

Weighted particle ensembles, weight normalization, bootstrap and residual
resampling, the sample covariance, Gaussian sampling and the kernel-density
regularization step used by the regularized particle filters.  Every
eigendecomposition goes through `_psd_eigh`.  Gaussian sampling and
likelihoods share one eigen-factor per covariance, kept in a bounded cache
keyed on its bytes, so a fixed covariance (process, measurement or
constant evolution noise) is factored once.

At large N every pass runs along long contiguous rows: numpy walks a short
trailing axis (N, d <= 6) one row at a time, paying its loop overhead N
times.  So `_row_sum` adds the d columns in numpy's own order, `regularize`
holds the whitened particles as (d, N), and the kernel-density buffer is
filled in cache-sized blocks; the bits are those of the one-pass forms.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, CovarianceError, DegenerateWeightsError,
                     check_int)

# Eigenvalues above -PSD_TOL are clamped to zero; below raise CovarianceError.
PSD_TOL = 1e-8
# Max-weight threshold past which the ensemble is flagged as degenerate.
WEIGHT_COLLAPSE_TOL = 1e-12
# Largest distance of a weight sum from 1 that still counts as a simplex.
WEIGHT_SUM_TOL = 1e-9
# Kernel evaluations per block of the density buffer: 512 KB of doubles stay
# in L2 through the elementwise passes.  Every block size gives the same bits.
DENSITY_BLOCK = 2 ** 16


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
        if not (self.weights.min() >= 0.0
                and abs(self.weights.sum() - 1.0) <= WEIGHT_SUM_TOL):
            raise ConfigError("weights must be >= 0 and sum to 1")

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
        check_int("n_reg", self.n_reg, 2)


# The one setting both regularized filters run with (frozen: it is shared).
DEFAULT_REGULARIZATION = RegularizationConfig()


class RegularizeResult(NamedTuple):
    particles: np.ndarray
    passthrough_dims: tuple[int, ...]


# A Generator from a seed (an int, a SeedSequence, or a Generator returned
# as it is); called where a run's stream starts and by the two resamplers.
as_rng = np.random.default_rng


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
        # rng.choice(n, size=remainder, p=resid / resid.sum()) without its
        # argument checks: the same uniforms and arithmetic.  A remainder
        # leaves a positive residual mass on a weight simplex.
        cdf = (resid / resid.sum()).cumsum()
        cdf /= cdf[-1]
        extra = cdf.searchsorted(rng.random(remainder), side="right")
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


def sample_gaussian(cov: np.ndarray, n: int, rng) -> np.ndarray:
    """Draw n zero-mean samples with the given PSD covariance."""
    a = _cov_factor(*_cache_key(cov))[0]
    return rng.standard_normal((n, a.shape[0])) @ a.T


def check_cov_shape(name: str, cov, dim: int) -> None:
    """ConfigError naming both shapes unless cov is (dim, dim); added to a
    mean, a (1, 1) one would give every component the same offset."""
    if np.shape(cov) != (dim, dim):
        raise ConfigError(f"{name} shape {np.shape(cov)}, want ({dim}, {dim})")


def gaussian_loglik(residuals: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Log density of N(0, cov) at each residual row; cov must be regular."""
    residuals = np.atleast_2d(np.asarray(residuals, dtype=float))
    _, whiten, logdet = _cov_factor(*_cache_key(cov))
    if whiten is None:
        raise CovarianceError("likelihood covariance is singular")
    maha = _row_sum((residuals @ whiten) ** 2)
    return -0.5 * (maha + logdet + whiten.shape[0] * np.log(2.0 * np.pi))


def _row_sum(a: np.ndarray) -> np.ndarray:
    """`np.sum(a, axis=-1)` with the same bits, summed column by column.
    Below 8 terms numpy's pairwise sum adds in order from +0.0, and so does
    this; wider rows are left to numpy."""
    if a.shape[-1] >= 8:
        return np.sum(a, axis=-1)
    total = a[..., 0] + 0.0
    for k in range(1, a.shape[-1]):
        total += a[..., k]
    return total


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
    check_int("n_reg", n_reg, 2)
    values = np.asarray(values, dtype=float)
    return _span_grid(values.min(axis=-1), values.max(axis=-1),
                      values.std(axis=-1), n_reg)


def _span_grid(vmin: np.ndarray, vmax: np.ndarray, std: np.ndarray,
               n_reg: int) -> tuple[np.ndarray, np.ndarray]:
    """`regular_grid` from each set's min, max and std."""
    lo = vmin - std
    dx = (vmax + std - lo) / (n_reg - 1)
    return lo[..., None] + dx[..., None] * np.arange(n_reg), dx


def _kernel_density_1d(grid: np.ndarray, centers: np.ndarray,
                       weights: np.ndarray, b: float) -> np.ndarray:
    """Weighted Gaussian-kernel density of `centers` at each grid point.
    Each block of the (n_reg, N) buffer takes all its elementwise passes
    while in cache; one matrix-vector product weighs the whole buffer."""
    n = centers.shape[0]
    u = np.empty((grid.shape[0], n))
    rows = max(DENSITY_BLOCK // n, 1)
    for start in range(0, grid.shape[0], rows):
        block = u[start:start + rows]
        np.subtract(grid[start:start + rows, None], centers, out=block)
        block *= 1.0 / b
        np.multiply(block, block, out=block)
        block *= -0.5
        np.exp(block, out=block)
        block *= 1.0 / np.sqrt(2.0 * np.pi)
    return (u @ weights) / b


def regularize(ensemble: ParticleEnsemble, cov: np.ndarray,
               config: RegularizationConfig, rng) -> RegularizeResult:
    """Draw N fresh particles from a kernel-smoothed continuous density.

    The weighted ensemble is whitened on the eigenbasis of `cov` (the prior
    covariance of the ensemble), then each whitened dimension is smoothed
    independently: a uniform grid spanning [min-std, max+std] is built, the
    weighted kernel mixture is evaluated on it, and samples are drawn from
    the resulting density.  Directions with (near-)zero variance stay
    unscaled; dimensions with zero spread pass through unperturbed and are
    reported in `passthrough_dims`.  A `cov` that is not symmetric positive
    semidefinite raises CovarianceError.

    The whitened particles are held as (d, N) rows, each row's min, max and
    std are taken once, and the draws are written row by row.  A smoothed
    dimension takes its grid cells (by inverse CDF) and the offsets within
    them from one `rng.random((2, N))` call: the same uniforms, order and
    arithmetic as `rng.choice(n_reg, p=density)` followed by
    `rng.uniform(-dx/2, dx/2)`, so the same stream gives the same particles.
    """
    n, d = ensemble.n, ensemble.dim
    w = ensemble.weights
    vals, vecs = _psd_eigh(cov)
    live = vals > max(vals.max(initial=0.0), 1.0) * 1e-14
    scale = np.sqrt(np.where(live, vals, 1.0))
    zt = (ensemble.particles @ vecs).T.copy()  # (d, N)
    zt /= scale[:, None]                       # whitened

    lo, hi, std = zt.min(axis=1), zt.max(axis=1), zt.std(axis=1)
    flat = hi - lo == 0.0
    smooth = live & ~flat & (std != 0.0)
    grids, dx = _span_grid(lo, hi, std, config.n_reg)
    b = optimal_bandwidth(n, d)
    out = np.empty((d, n))
    passthrough = []
    for j in range(d):
        if flat[j]:
            out[j] = zt[j, 0]
            passthrough.append(j)
            continue
        if smooth[j]:
            dens = _kernel_density_1d(grids[j], zt[j], w, b)
            total = dens.sum()
            if total > 0.0:
                cdf = np.cumsum(dens / total)
                cdf /= cdf[-1]
                half = 0.5 * dx[j]
                cell, offset = rng.random((2, n))
                out[j] = (grids[j][cdf.searchsorted(cell, side="right")]
                          + (-half + (half - -half) * offset))
                continue
        out[j] = rng.choice(zt[j], size=n, p=w)
        passthrough.append(j)

    out *= scale[:, None]
    return RegularizeResult(out.T @ vecs.T, tuple(passthrough))
