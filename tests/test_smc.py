"""Unit tests for the shared sequential-Monte-Carlo primitives."""
import numpy as np
import pytest
from scipy import stats

from dualpf import gas_turbine, smc, synthetic
from dualpf.errors import ConfigError, CovarianceError, DegenerateWeightsError
from dualpf.smc import (
    ParticleEnsemble,
    RegularizationConfig,
    _psd_eigh,
    as_rng,
    gaussian_loglik,
    likelihood_weights,
    optimal_bandwidth,
    regular_grid,
    regularize,
    resample_bootstrap,
    resample_residual,
    sample_cov,
    sample_gaussian,
)


def _uniform(particles):
    particles = np.atleast_2d(particles)
    return ParticleEnsemble(particles, np.full(len(particles),
                                               1.0 / len(particles)))


class TestParticleEnsemble:
    def test_uniform_weights_and_ess(self):
        ens = _uniform(np.zeros((8, 2)))
        assert np.allclose(ens.weights, 1 / 8)
        assert ens.ess() == pytest.approx(8.0)
        assert not ens.is_collapsed()

    def test_collapse_flag(self):
        ens = ParticleEnsemble(np.zeros((3, 1)), np.array([1.0, 0.0, 0.0]))
        assert ens.is_collapsed()
        assert ens.ess() == pytest.approx(1.0)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            ParticleEnsemble(np.zeros((3, 1)), np.array([0.5, 0.5]))

    def test_nonfinite_particles_rejected(self):
        with pytest.raises(ConfigError):
            ParticleEnsemble(np.array([[np.inf]]), np.array([1.0]))

    @pytest.mark.parametrize("weights", [
        [1.0, 1.0], [1.5, -0.5], [0.5, 0.5 + 2 * smc.WEIGHT_SUM_TOL],
        [np.nan, 1.0], [0.0, 0.0]],
        ids=["sum-2", "negative", "just-past-tolerance", "nan", "zero"])
    def test_weights_off_the_simplex_rejected(self, weights):
        # Unchecked, weights [1, 1] made residual resampling return 4
        # indices for 2 particles.
        with pytest.raises(ConfigError, match="weights"):
            ParticleEnsemble(np.zeros((2, 1)), np.array(weights))

    def test_weights_within_tolerance_accepted(self):
        w = np.array([0.5, 0.5 + 0.5 * smc.WEIGHT_SUM_TOL])
        assert ParticleEnsemble(np.zeros((2, 1)), w).n == 2


class TestAsRng:
    def test_generator_returned_as_is(self):
        rng = np.random.default_rng(3)
        assert as_rng(rng) is rng

    @pytest.mark.parametrize("seed", [0, 7, np.random.SeedSequence(11)],
                             ids=["int-0", "int-7", "seed-sequence"])
    def test_seed_gives_default_rng_stream(self, seed):
        assert as_rng(seed).random(5).tobytes() == \
            np.random.default_rng(seed).random(5).tobytes()


class TestBootstrapResampling:
    def test_point_mass(self):
        ens = ParticleEnsemble(np.arange(3.0)[:, None], np.array([1.0, 0, 0]))
        assert np.all(resample_bootstrap(ens, 0) == 0)

    def test_deterministic_under_seed(self):
        ens = ParticleEnsemble(np.arange(2.0)[:, None], np.array([0.5, 0.5]))
        assert np.array_equal(resample_bootstrap(ens, 9),
                              resample_bootstrap(ens, 9))

    def test_uniform_frequencies(self):
        n = 10_000
        ens = _uniform(np.arange(float(n))[:, None])
        idx = resample_bootstrap(ens, 1)
        # Aggregate into 10 bins; chi-square against the uniform multinomial.
        counts = np.bincount(idx // (n // 10), minlength=10)
        chi2 = np.sum((counts - n / 10) ** 2 / (n / 10))
        assert chi2 < stats.chi2.ppf(0.999, df=9)


class TestResidualResampling:
    def test_even_split_is_deterministic(self):
        ens = ParticleEnsemble(np.arange(2.0)[:, None], np.array([0.5, 0.5]))
        assert sorted(resample_residual(ens, 0)) == [0, 1]

    def test_integral_weights_fully_deterministic(self):
        # Four draws at weights 0.75/0.25: the floor counts exhaust N.
        ens = ParticleEnsemble(np.arange(4.0)[:, None],
                               np.array([0.75, 0.25, 0.0, 0.0]))
        counts = np.bincount(resample_residual(ens, 5), minlength=4)
        assert counts.tolist() == [3, 1, 0, 0]

    def test_expected_counts(self):
        ens = ParticleEnsemble(np.arange(5.0)[:, None],
                               np.array([0.6, 0.4, 0.0, 0.0, 0.0]))
        first = [np.bincount(resample_residual(ens, s), minlength=5)[0]
                 for s in range(200)]
        assert np.mean(first) == pytest.approx(3.0, abs=0.05)

    @pytest.mark.parametrize("n, seed", [(5, 0), (41, 1), (5000, 2),
                                         (5000, 3)])
    def test_remainder_draw_matches_generator_choice(self, n, seed):
        w = as_rng(seed).random(n) ** 4
        ens = ParticleEnsemble(np.zeros((n, 1)), w / w.sum())
        rng_got, rng_ref = as_rng(seed + 10), as_rng(seed + 10)
        got = resample_residual(ens, rng_got)
        floors = np.floor(n * ens.weights).astype(int)
        resid = n * ens.weights - floors
        extra = rng_ref.choice(n, size=n - int(floors.sum()),
                               p=resid / resid.sum())
        np.add.at(floors, extra, 1)
        assert got.tolist() == np.repeat(np.arange(n), floors).tolist()
        assert (rng_got.bit_generator.state
                == rng_ref.bit_generator.state)

    def test_lower_count_variance_than_bootstrap(self):
        w = np.array([0.45, 0.3, 0.15, 0.1])
        ens = ParticleEnsemble(np.arange(4.0)[:, None], w)
        var = {}
        for name, sampler in (("res", resample_residual),
                              ("boot", resample_bootstrap)):
            counts = [np.bincount(sampler(ens, s), minlength=4)[0]
                      for s in range(400)]
            var[name] = np.var(counts)
        assert var["res"] < var["boot"]


class TestGaussianSampling:
    def test_zero_cov(self):
        assert np.all(sample_gaussian(np.zeros((2, 2)), 10, as_rng(0)) == 0)

    def test_large_sample_covariance(self):
        draws = sample_gaussian(np.eye(2), 100_000, as_rng(2))
        assert np.allclose(np.cov(draws.T), np.eye(2), atol=0.05)

    def test_indefinite_cov_rejected(self):
        with pytest.raises(CovarianceError):
            sample_gaussian(np.array([[1.0, 0.0], [0.0, -1.0]]), 5,
                            as_rng(0))

    def test_psd_eigh_reconstructs(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        vals, vecs = _psd_eigh(cov)
        assert np.allclose((vecs * vals) @ vecs.T, cov)


class TestSampleCov:
    def test_matches_numpy(self):
        x = as_rng(3).standard_normal((40, 3)) @ np.array(
            [[1.0, 0.3, 0.0], [0.0, 2.0, 0.5], [0.0, 0.0, 0.1]])
        np.testing.assert_allclose(sample_cov(x), np.cov(x.T),
                                   rtol=1e-12, atol=1e-15)

    def test_single_particle_gives_zeros(self):
        assert np.array_equal(sample_cov(np.array([[1.0, -2.0]])),
                              np.zeros((2, 2)))


def _row_sum_cases(width):
    rng = as_rng(width)
    a = rng.standard_normal((64, width)) * 10.0 ** rng.uniform(-6, 6,
                                                             (64, width))
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2e-308]
    for row in range(8, 64):
        k = rng.integers(0, width, size=rng.integers(1, width + 1))
        a[row, k] = rng.choice(specials, size=k.size)
    a[0] = -0.0
    return a


@pytest.mark.parametrize("width", range(1, 11))
def test_row_sum_matches_numpy_bit_for_bit(width):
    a = _row_sum_cases(width)
    stack = a.reshape(4, 16, width)
    with np.errstate(invalid="ignore"):   # inf + -inf
        assert smc._row_sum(a).tobytes() == np.sum(a, axis=-1).tobytes()
        assert smc._row_sum(stack).tobytes() == \
            np.sum(stack, axis=-1).tobytes()


class TestLikelihoods:
    def test_loglik_matches_scipy(self):
        cov = np.array([[1.5, 0.3], [0.3, 0.8]])
        res = np.array([[0.2, -0.4], [1.0, 0.1]])
        expect = stats.multivariate_normal(np.zeros(2), cov).logpdf(res)
        assert np.allclose(gaussian_loglik(res, cov), expect)

    def test_equal_residuals_give_uniform_weights(self):
        res = np.ones((5, 2))
        assert np.allclose(likelihood_weights(res, np.eye(2)), 0.2)

    def test_scalar_weight_ratio(self):
        # residuals 0 and 1 under unit variance: exp(0) vs exp(-1/2).
        w = likelihood_weights(np.array([[0.0], [1.0]]), np.eye(1))
        assert np.allclose(w, [0.6225, 0.3775], atol=5e-5)

    def test_dominant_likelihood(self):
        w = likelihood_weights(np.array([[0.0], [100.0]]), 1e-4 * np.eye(1))
        assert w[0] == pytest.approx(1.0)
        assert w[1] == pytest.approx(0.0, abs=1e-12)

    def test_non_finite_rows_get_zero_weight(self):
        w = likelihood_weights(np.array([[0.0], [np.nan], [np.inf]]), np.eye(1))
        assert w.tolist() == [1.0, 0.0, 0.0]

    def test_all_rows_non_finite_raises(self):
        with pytest.raises(DegenerateWeightsError):
            likelihood_weights(np.array([[np.nan], [np.inf], [-np.inf]]),
                               np.eye(1))


class TestRegularization:
    def test_optimal_bandwidth_rule(self):
        n, d = 50, 2
        assert optimal_bandwidth(n, d) == pytest.approx(
            (4.0 / (n * (d + 2))) ** (1.0 / (d + 4)))

    def test_grid_example(self):
        grid, dx = regular_grid(np.array([0.0, 1.0]), 3)
        assert np.array_equal(grid, [-0.5, 0.5, 1.5])
        assert dx == 1.0

    def test_grid_strictly_increasing_with_n_points(self):
        rng = as_rng(0)
        grid, _ = regular_grid(rng.standard_normal(40), 17)
        assert grid.shape == (17,)
        assert np.all(np.diff(grid) > 0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RegularizationConfig(n_reg=1)

    def test_degenerate_dimension_passes_through(self):
        particles = np.column_stack([np.full(30, 2.5),
                                     as_rng(1).standard_normal(30)])
        ens = _uniform(particles)
        res = regularize(ens, np.eye(2), RegularizationConfig(), as_rng(1))
        assert 0 in res.passthrough_dims
        assert np.all(res.particles[:, 0] == 2.5)

    def test_single_value_fixed_point(self):
        ens = _uniform(np.full((20, 1), 3.0))
        res = regularize(ens, np.eye(1), RegularizationConfig(), as_rng(4))
        assert np.all(res.particles == 3.0)

    def test_mean_preserved(self):
        rng = as_rng(6)
        ens = _uniform(rng.standard_normal((10_000, 1)))
        res = regularize(ens, np.eye(1), RegularizationConfig(), rng)
        assert abs(res.particles.mean()) < 0.05



def _one_pass_kernel_density(grid, centers, weights, b):
    """Reference: the density buffer filled in one pass per operation."""
    u = grid[:, None] - centers[None, :]
    u *= 1.0 / b
    np.multiply(u, u, out=u)
    u *= -0.5
    np.exp(u, out=u)
    u *= 1.0 / np.sqrt(2.0 * np.pi)
    return (u @ weights) / b


@pytest.mark.parametrize("n_reg", [2, 100, 101])
@pytest.mark.parametrize("n", [41, 655, 656, 5000])
def test_blocked_kernel_density_matches_one_pass(n, n_reg):
    # 655 * 100 evaluations fit one block and 656 * 100 do not, so the
    # block edges fall both inside and outside the grid.
    rng = as_rng(n + n_reg)
    centers = rng.standard_normal(n)
    weights = rng.random(n)
    weights /= weights.sum()
    grid, _ = regular_grid(centers, n_reg)
    b = optimal_bandwidth(n, 2)
    got = smc._kernel_density_1d(grid, centers, weights, b)
    assert got.tobytes() == \
        _one_pass_kernel_density(grid, centers, weights, b).tobytes()


def _factor_rebuild_regularize(ensemble, cov, config, seed):
    """Reference path: factor the covariance as A, rebuild A @ A.T and
    whiten on the eigenbasis of the rebuilt matrix."""
    rng = as_rng(seed)
    n, d = ensemble.n, ensemble.dim
    vals, vecs = np.linalg.eigh(np.atleast_2d(cov))
    a = vecs * np.sqrt(np.clip(vals, 0.0, None))
    rebuilt = a @ a.T
    vals, vecs = np.linalg.eigh(0.5 * (rebuilt + rebuilt.T))
    vals = np.clip(vals, 0.0, None)
    live = vals > max(vals.max(initial=0.0), 1.0) * 1e-14
    scale = np.where(live, np.sqrt(np.where(live, vals, 1.0)), 1.0)
    z = (ensemble.particles @ vecs) / scale
    b = optimal_bandwidth(n, d)
    out = np.empty((n, d))
    for j in range(d):
        col = z[:, j]
        if not live[j] or np.ptp(col) == 0.0 or col.std() == 0.0:
            out[:, j] = (col[0] if np.ptp(col) == 0.0
                         else rng.choice(col, size=n, p=ensemble.weights))
            continue
        grid, dx = regular_grid(col, config.n_reg)
        dens = smc._kernel_density_1d(grid, col, ensemble.weights, b)
        idx = rng.choice(config.n_reg, size=n, p=dens / dens.sum())
        out[:, j] = grid[idx] + rng.uniform(-0.5 * dx, 0.5 * dx, size=n)
    return (out * scale) @ vecs.T


@pytest.mark.parametrize("d", [1, 2, 4, 6])
def test_regularize_matches_factor_rebuild_reference(d):
    rng = as_rng(100 + d)
    mix = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
    particles = rng.standard_normal((50, d)) @ mix + rng.standard_normal(d)
    weights = rng.random(50)
    ens = ParticleEnsemble(particles, weights / weights.sum())
    cov = sample_cov(particles)
    got = regularize(ens, cov, RegularizationConfig(), as_rng(7))
    ref = _factor_rebuild_regularize(ens, cov, RegularizationConfig(), 7)
    assert got.passthrough_dims == ()
    np.testing.assert_allclose(got.particles, ref, rtol=0, atol=1e-9)


def _per_dimension_regularize(ensemble, cov, config, seed):
    """Reference path: one whitened dimension at a time, drawing with
    `Generator.choice` and `Generator.uniform`."""
    rng = as_rng(seed)
    n, d = ensemble.n, ensemble.dim
    vals, vecs = _psd_eigh(cov)
    live = vals > max(vals.max(initial=0.0), 1.0) * 1e-14
    scale = np.where(live, np.sqrt(np.where(live, vals, 1.0)), 1.0)
    z = (ensemble.particles @ vecs) / scale
    b = optimal_bandwidth(n, d)
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
        s = float(col.std())
        lo, hi = float(col.min()) - s, float(col.max()) + s
        dx = (hi - lo) / (config.n_reg - 1)
        grid = lo + dx * np.arange(config.n_reg)
        dens = smc._kernel_density_1d(grid, col, ensemble.weights, b)
        total = dens.sum()
        if total <= 0.0:
            passthrough.append(j)
            out[:, j] = rng.choice(col, size=n, p=ensemble.weights)
            continue
        idx = rng.choice(config.n_reg, size=n, p=dens / total)
        out[:, j] = grid[idx] + rng.uniform(-0.5 * dx, 0.5 * dx, size=n)
    return (out * scale) @ vecs.T, tuple(passthrough)


def _reference_case(d, n, case):
    rng = as_rng(1000 * d + n + len(case))
    mix = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
    particles = rng.standard_normal((n, d)) @ mix + rng.standard_normal(d)
    weights = rng.random(n) ** (30 if case == "skewed" else 1)
    cov = sample_cov(particles)
    if case == "flat":
        particles[:, 0] = 2.5
        cov = np.eye(d)
    elif case == "dead":
        vals, vecs = np.linalg.eigh(cov)
        vals[0] = 0.0
        cov = (vecs * vals) @ vecs.T
        cov = 0.5 * (cov + cov.T)
    return ParticleEnsemble(particles, weights / weights.sum()), cov


@pytest.mark.parametrize("case", ["plain", "flat", "dead", "skewed"])
@pytest.mark.parametrize("n", [41, 150, 5000])
@pytest.mark.parametrize("d", [1, 2, 4, 6])
def test_regularize_matches_per_dimension_reference(d, n, case):
    ens, cov = _reference_case(d, n, case)
    config = RegularizationConfig()
    rng_got, rng_ref = as_rng(11), as_rng(11)
    got = regularize(ens, cov, config, rng_got)
    ref, ref_passthrough = _per_dimension_regularize(ens, cov, config, rng_ref)
    assert got.particles.tobytes() == ref.tobytes()
    assert got.passthrough_dims == ref_passthrough
    if case == "flat":
        assert 0 in got.passthrough_dims
    if case == "dead":
        assert got.passthrough_dims
    # Both paths consumed the same stretch of the random stream.
    assert rng_got.random() == rng_ref.random()


def test_regular_grid_stacks_along_last_axis():
    values = as_rng(2).standard_normal((3, 40))
    grids, dx = regular_grid(values, 17)
    assert grids.shape == (3, 17) and dx.shape == (3,)
    for row, grid, step in zip(values, grids, dx):
        one_grid, one_dx = regular_grid(row, 17)
        assert grid.tobytes() == one_grid.tobytes()
        assert step == one_dx


@pytest.mark.parametrize("n_reg", [1, 0, 2.0])
def test_regular_grid_needs_two_integer_points(n_reg):
    with pytest.raises(ConfigError, match="n_reg"):
        regular_grid(np.array([0.0, 1.0]), n_reg)


_SYMMETRIC = np.array([[2.0, 0.5], [0.5, 1.0]])


@pytest.mark.parametrize("cov", [
    _SYMMETRIC,
    sample_cov(as_rng(4).standard_normal((30, 3))),
    _SYMMETRIC + np.array([[0.0, 1e-12], [0.0, 0.0]]),   # nearly symmetric
    _SYMMETRIC + np.array([[0.0, 1e-6], [0.0, 0.0]]),    # asymmetric
    np.array([[np.nan, 0.5], [0.5, 1.0]]),
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
    np.array([[np.inf, 0.5], [0.5, 1.0]]),
    np.array([[1.0, np.inf], [np.inf, 1.0]]),
    np.array([[1.0, np.inf], [-np.inf, 1.0]]),
    np.array([[1.0, np.inf], [0.5, 1.0]]),
], ids=["symmetric", "sample_cov", "nearly", "asymmetric", "nan-diag",
        "nan-offdiag", "inf-diag", "inf-offdiag", "inf-signs", "inf-one-side"])
def test_symmetry_verdict_matches_allclose(cov):
    expect_symmetric = np.allclose(cov, cov.T, atol=1e-10)
    try:
        with np.errstate(invalid="ignore"):
            _psd_eigh(cov)
        symmetric = True
    except CovarianceError as exc:
        symmetric = "not symmetric" not in str(exc)
    except np.linalg.LinAlgError:
        symmetric = True
    assert symmetric == expect_symmetric


def _cholesky_loglik(residuals, cov):
    """Reference likelihood: Cholesky factor, general solve, log-determinant
    from the factor's diagonal."""
    chol = np.linalg.cholesky(cov)
    maha = np.sum(np.linalg.solve(chol, residuals.T) ** 2, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (maha + logdet + cov.shape[0] * np.log(2.0 * np.pi))


def _measurement_cov(name):
    if name == "scalar":
        return synthetic.scalar_growth_model().measurement_noise_cov
    if name == "mixed":
        return synthetic.mixed_fault_model().measurement_noise_cov
    constants, _ = gas_turbine.nominal_constants()
    return gas_turbine.engine_model(constants).measurement_noise_cov


class TestFactorCache:
    def test_fresh_copy_hits_the_cache(self):
        cov = np.array([[0.3, 0.1], [0.1, 0.2]])
        sample_gaussian(cov, 4, as_rng(0))
        hits = smc._cov_factor.cache_info().hits
        sample_gaussian(cov.copy(), 4, as_rng(0))
        gaussian_loglik(np.zeros((1, 2)), cov.copy())
        assert smc._cov_factor.cache_info().hits == hits + 2

    def test_one_factor_serves_sampling_and_likelihoods(self):
        cov = np.array([[0.7, 0.2], [0.2, 0.4]])
        smc._cov_factor.cache_clear()
        sample_gaussian(cov, 4, as_rng(0))
        gaussian_loglik(np.zeros((1, 2)), cov)
        info = smc._cov_factor.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_results_match_uncached_factors(self):
        cov = np.array([[0.3, 0.1], [0.1, 0.2]])
        vals, vecs = _psd_eigh(cov)
        expect = as_rng(3).standard_normal((9, 2)) @ (vecs * np.sqrt(vals)).T
        for _ in range(2):
            assert sample_gaussian(cov, 9, as_rng(3)).tobytes() == expect.tobytes()
        res = as_rng(4).standard_normal((9, 2))
        expect = _cholesky_loglik(res, cov)
        for _ in range(2):
            np.testing.assert_allclose(gaussian_loglik(res, cov), expect,
                                       rtol=1e-14, atol=0)

    @pytest.mark.parametrize("model", ["scalar", "mixed", "gas_turbine"])
    def test_model_likelihoods_match_cholesky_reference(self, model):
        # The models' measurement covariances are diagonal: whitening axis
        # by axis, in the covariance's own order, reproduces the
        # Cholesky-plus-solve likelihood bit for bit.
        cov = _measurement_cov(model)
        res = 3.0 * np.sqrt(np.diag(cov)) * as_rng(5).standard_normal(
            (2000, cov.shape[0]))
        got = gaussian_loglik(res, cov)
        expect = _cholesky_loglik(res, cov)
        assert np.max(np.abs(got - expect) / np.abs(expect)) <= 1e-15
        assert got.tobytes() == expect.tobytes()

    def test_mutated_covariance_gets_a_new_factor(self):
        cov = np.diag([1.0, 2.0])
        before = sample_gaussian(cov, 5, as_rng(1))
        cov[0, 0] = 4.0
        vals, vecs = _psd_eigh(cov)
        expect = as_rng(1).standard_normal((5, 2)) @ (vecs * np.sqrt(vals)).T
        after = sample_gaussian(cov, 5, as_rng(1))
        assert after.tobytes() == expect.tobytes()
        assert not np.array_equal(after, before)
        ll = gaussian_loglik(np.ones((1, 2)), cov)
        assert ll == pytest.approx(stats.multivariate_normal(
            np.zeros(2), cov).logpdf(np.ones(2)))

    def test_factors_are_read_only(self):
        cov = np.array([[0.5, 0.0], [0.0, 0.25]])
        sample, whiten, _ = smc._cov_factor(cov.tobytes(), cov.shape)
        for factor in (sample, whiten):
            assert not factor.flags.writeable
            with pytest.raises(ValueError):
                factor[0, 0] = 9.0

    @pytest.mark.parametrize("cov", [
        np.array([[1.0, 0.5], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, -1.0]]),
    ], ids=["asymmetric", "negative-eigenvalue"])
    def test_rejected_sampling_covariance_raises_every_call(self, cov):
        for _ in range(3):
            with pytest.raises(CovarianceError):
                sample_gaussian(cov, 5, as_rng(0))

    def test_non_pd_likelihood_covariance_raises_every_call(self):
        cov = np.array([[1.0, 0.0], [0.0, 0.0]])
        for _ in range(3):
            with pytest.raises(CovarianceError, match="singular"):
                gaussian_loglik(np.zeros((1, 2)), cov)
        # The same factor still samples: a singular covariance is PSD.
        draws = sample_gaussian(cov, 5, as_rng(0))
        assert np.all(draws[:, 1] == 0.0)

    def test_cache_stays_bounded(self):
        info = smc._cov_factor.cache_info()
        assert info.maxsize is not None
        for k in range(3 * info.maxsize):
            cov = np.eye(2) * (1.0 + k)
            sample_gaussian(cov, 2, as_rng(0))
            gaussian_loglik(np.zeros((1, 2)), cov)
        info = smc._cov_factor.cache_info()
        assert info.currsize <= info.maxsize
