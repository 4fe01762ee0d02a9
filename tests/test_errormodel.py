import math

import numpy as np
import pytest
from scipy import integrate

from seqcalib.errormodel import (
    ErrorModel,
    InsufficientControlsError,
    fit_error_model,
    leave_one_out_models,
    marginal_log_likelihood,
)
from seqcalib.likelihood import (
    BinomialCounts,
    GridProfile,
    NormalApprox,
    PoissonCounts,
    UninformativeProfileError,
    profile_from_counts,
)


def closed_form_objective(mu, sd, betas, ses):
    var = sd**2 + ses**2
    return float(np.sum(-0.5 * np.log(2 * np.pi * var) - (betas - mu) ** 2 / (2 * var)))


def grid_search_oracle(betas, ses, mu_grid, sd_grid):
    """Brute-force argmax of the closed-form objective on a 2-D grid."""
    var = sd_grid[None, :, None] ** 2 + ses[None, None, :] ** 2
    obj = np.sum(
        -0.5 * np.log(2 * np.pi * var)
        - (betas[None, None, :] - mu_grid[:, None, None]) ** 2 / (2 * var),
        axis=2,
    )
    i, j = np.unravel_index(np.argmax(obj), obj.shape)
    return float(mu_grid[i]), float(sd_grid[j])


def exact_count_ll(data, b):
    """Count log-likelihood of log effect size b, written out independently."""
    if isinstance(data, PoissonCounts):
        return data.observed * (math.log(data.expected) + b) - data.expected * math.exp(b)
    z = math.log(data.null_proportion / (1.0 - data.null_proportion)) + b
    return data.exposed * z - data.total * math.log1p(math.exp(z))


def quad_oracle(data, mu, sd):
    """log of the integral of exp(ll(b)) * phi(b; mu, sd) db by adaptive quadrature."""
    ref = exact_count_ll(data, mu)

    def integrand(b):
        log_phi = -0.5 * ((b - mu) / sd) ** 2 - math.log(sd * math.sqrt(2 * math.pi))
        return math.exp(exact_count_ll(data, b) - ref + log_phi)

    value, _ = integrate.quad(
        integrand, mu - 12 * sd, mu + 12 * sd, epsabs=0, epsrel=1e-12, limit=400
    )
    return ref + math.log(value)


def count_controls(n, mu, sigma, seed, design):
    """Negative-control counts with N(mu, sigma^2) bias."""
    rng = np.random.default_rng(seed)
    bias = rng.normal(mu, sigma, n)
    profiles = []
    for b in bias:
        if design == "poisson":
            expected = float(rng.uniform(10.0, 40.0))
            data = PoissonCounts(max(1, int(rng.poisson(expected * math.exp(b)))), expected)
        else:
            total = int(rng.integers(40, 120))
            p = 0.3
            q = p * math.exp(b) / (1 - p + p * math.exp(b))
            data = BinomialCounts(int(np.clip(rng.binomial(total, q), 1, total - 1)), total, p)
        profiles.append(data)
    return profiles


def synthetic_controls(n, mu, sigma, seed):
    rng = np.random.default_rng(seed)
    ses = rng.uniform(0.05, 0.25, n)
    betas = rng.normal(mu, sigma, n) + rng.normal(0.0, ses)
    return betas, ses, [NormalApprox(float(b), float(s)) for b, s in zip(betas, ses)]


class TestFitErrorModel:
    def test_tight_null_controls_give_zero_model(self):
        profiles = [NormalApprox(0.0, 0.01) for _ in range(50)]
        model = fit_error_model(profiles)
        assert abs(model.mean) <= 0.005
        assert 0.0 <= model.sd <= 0.01
        assert model.n_controls == 50

    def test_symmetric_pair_centers_at_zero(self):
        model = fit_error_model([NormalApprox(0.5, 0.1), NormalApprox(-0.5, 0.1)])
        assert abs(model.mean) <= 5e-3

    def test_matches_grid_search_oracle(self):
        betas, ses, profiles = synthetic_controls(100, 0.2, 0.2, seed=20260809)
        model = fit_error_model(profiles)
        mu_g, sd_g = grid_search_oracle(
            betas, ses, np.arange(-1.0, 1.0 + 1e-9, 0.005), np.arange(0.0, 1.0 + 1e-9, 0.005)
        )
        assert abs(model.mean - mu_g) <= 0.01
        assert abs(model.sd - sd_g) <= 0.01
        assert model.converged

    def test_translation_equivariance(self):
        betas, ses, profiles = synthetic_controls(60, 0.1, 0.15, seed=11)
        base = fit_error_model(profiles)
        shift = 0.3
        shifted = fit_error_model(
            [NormalApprox(p.point_estimate + shift, p.standard_error) for p in profiles]
        )
        assert shifted.mean - base.mean == pytest.approx(shift, abs=0.005)
        assert shifted.sd == pytest.approx(base.sd, abs=0.005)

    def test_sd_never_negative_at_boundary(self):
        profiles = [NormalApprox(0.0, 0.3) for _ in range(40)]
        model = fit_error_model(profiles)
        assert 0.0 <= model.sd <= 0.01

    def test_grid_profiles_accepted(self):
        profiles = [profile_from_counts(PoissonCounts(o, 10.0)) for o in (8, 10, 11, 12, 9)]
        model = fit_error_model(profiles)
        assert model.n_controls == 5
        assert math.isfinite(model.mean)

    @pytest.mark.parametrize("design", ["poisson", "binomial"])
    def test_count_controls_match_grid_search_oracle(self, design):
        profiles = count_controls(40, 0.2, 0.2, seed=303, design=design)
        model = fit_error_model(profiles)

        def argmax(mu_grid, sd_grid):
            values = [
                (marginal_log_likelihood(m, s, profiles), m, s) for m in mu_grid for s in sd_grid
            ]
            _, m, s = max(values)
            return m, s

        # coarse 2-D search of the exact objective, then a fine one around its argmax
        mu_c, sd_c = argmax(np.arange(-0.4, 0.8 + 1e-9, 0.04), np.arange(0.0, 0.6 + 1e-9, 0.04))
        mu_g, sd_g = argmax(
            np.arange(mu_c - 0.04, mu_c + 0.04 + 1e-9, 0.004),
            np.arange(max(0.0, sd_c - 0.04), sd_c + 0.04 + 1e-9, 0.004),
        )
        assert abs(model.mean - mu_g) <= 0.01
        assert abs(model.sd - sd_g) <= 0.01
        assert model.converged

    def test_unusable_profiles_are_dropped_and_counted(self):
        from seqcalib.likelihood import GridProfile

        usable = [NormalApprox(0.0, 0.1) for _ in range(5)]
        boundary_max = GridProfile([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        model = fit_error_model(usable + [boundary_max])
        assert model.n_controls == 5
        assert model.n_excluded == 1

    @pytest.mark.parametrize(
        "data", [PoissonCounts(0, 5.0), BinomialCounts(0, 10, 0.5), BinomialCounts(10, 10, 0.5)]
    )
    def test_uninformative_counts_raise(self, data):
        usable = [PoissonCounts(8, 10.0), PoissonCounts(12, 10.0), PoissonCounts(9, 10.0)]
        with pytest.raises(UninformativeProfileError):
            fit_error_model(usable + [data])

    def test_insufficient_controls(self):
        with pytest.raises(InsufficientControlsError):
            fit_error_model([NormalApprox(0.0, 0.1)])


class TestMarginalLogLikelihood:
    def test_sd_zero_is_direct_evaluation(self):
        # point-mass bias: contribution is the likelihood at mu
        profile = NormalApprox(0.4, 0.1)
        value = marginal_log_likelihood(0.1, 0.0, [profile])
        expected = -0.5 * math.log(2 * math.pi * 0.01) - (0.4 - 0.1) ** 2 / (2 * 0.01)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_normal_profile_is_exact_convolution(self):
        profile = NormalApprox(0.4, 0.1)
        value = marginal_log_likelihood(0.1, 0.3, [profile])
        var = 0.3**2 + 0.1**2
        expected = -0.5 * math.log(2 * math.pi * var) - (0.4 - 0.1) ** 2 / (2 * var)
        assert value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("mu,sd", [(0.0, 0.2), (0.5, 0.1), (-0.3, 0.35)])
    def test_grid_profile_matches_trapezoid_oracle(self, mu, sd):
        profile = profile_from_counts(PoissonCounts(10, 5))
        value = marginal_log_likelihood(mu, sd, [profile])
        x = profile.grid_points
        ll = profile.log_likelihoods
        peak = ll.max()
        phi = np.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        oracle = peak + math.log(integrate.trapezoid(np.exp(ll - peak) * phi, x))
        assert value == pytest.approx(oracle, abs=1e-4)

    @pytest.mark.parametrize(
        "data", [PoissonCounts(10, 5.0), PoissonCounts(231, 200.0), BinomialCounts(12, 30, 0.25)]
    )
    @pytest.mark.parametrize("mu,sd", [(0.0, 0.2), (0.5, 0.1), (-0.3, 0.35), (0.2, 0.02)])
    def test_count_profile_matches_quadrature_oracle(self, data, mu, sd):
        value = marginal_log_likelihood(mu, sd, [data])
        assert value == pytest.approx(quad_oracle(data, mu, sd), abs=1e-8)

    @pytest.mark.parametrize("data", [PoissonCounts(10, 5.0), BinomialCounts(12, 30, 0.25)])
    def test_count_profile_at_sd_zero_is_exact(self, data):
        value = marginal_log_likelihood(0.123, 0.0, [data])
        assert value == pytest.approx(exact_count_ll(data, 0.123), abs=1e-10)

    @pytest.mark.parametrize("mu,sd", [(0.0, 0.2), (0.5, 0.1), (-0.3, 0.35)])
    def test_grid_without_counts_is_interpolated(self, mu, sd):
        data = PoissonCounts(10, 5.0)
        file_grid = profile_from_counts(data)
        interpolated = marginal_log_likelihood(mu, sd, [file_grid])
        exact = quad_oracle(data, mu, sd)
        assert interpolated == pytest.approx(exact, abs=1e-3)
        assert interpolated != pytest.approx(exact, abs=1e-9)

    def test_permutation_invariance(self):
        _, _, profiles = synthetic_controls(20, 0.1, 0.2, seed=3)
        forward = marginal_log_likelihood(0.05, 0.15, profiles)
        backward = marginal_log_likelihood(0.05, 0.15, list(reversed(profiles)))
        assert forward == pytest.approx(backward, abs=1e-9)

    def test_additive_over_profiles(self):
        _, _, profiles = synthetic_controls(6, 0.0, 0.1, seed=5)
        total = marginal_log_likelihood(0.1, 0.2, profiles)
        parts = sum(marginal_log_likelihood(0.1, 0.2, [p]) for p in profiles)
        assert total == pytest.approx(parts, abs=1e-9)

    def test_rejects_negative_sd(self):
        with pytest.raises(ValueError):
            marginal_log_likelihood(0.0, -0.1, [NormalApprox(0.0, 0.1)])


class TestLeaveOneOut:
    def test_identical_profiles_give_identical_models(self):
        profiles = [NormalApprox(0.1, 0.2) for _ in range(3)]
        models = leave_one_out_models(profiles)
        assert len(models) == 3
        assert models[0] == models[1] == models[2]

    def test_each_model_excludes_one_profile(self):
        _, _, profiles = synthetic_controls(8, 0.1, 0.2, seed=4)
        models = leave_one_out_models(profiles)
        assert len(models) == 8
        assert all(m.n_controls == 7 for m in models)

    def test_removing_outlier_shrinks_sd(self):
        rng = np.random.default_rng(12)
        profiles = [NormalApprox(float(b), 0.1) for b in rng.normal(0.0, 0.05, 10)]
        outlier_index = len(profiles)
        profiles.append(NormalApprox(3.0, 0.1))
        full = fit_error_model(profiles)
        models = leave_one_out_models(profiles)
        assert models[outlier_index].sd < full.sd

    @pytest.mark.parametrize("design", ["poisson", "binomial"])
    def test_matches_fit_without_each_count_profile(self, design):
        profiles = count_controls(8, 0.2, 0.2, seed=77, design=design)
        models = leave_one_out_models(profiles)
        for i, model in enumerate(models):
            assert model == fit_error_model(profiles[:i] + profiles[i + 1 :])

    def test_matches_fit_without_each_profile_of_mixed_kinds(self):
        counted = count_controls(3, 0.1, 0.2, seed=78, design="poisson")
        counted += count_controls(2, 0.1, 0.2, seed=79, design="binomial")
        file_grid = profile_from_counts(counted[0])
        unusable = GridProfile([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        normal = [NormalApprox(0.15, 0.1), NormalApprox(0.3, 0.2)]
        profiles = [counted[0], normal[0], unusable, file_grid, *counted[1:], normal[1]]
        models = leave_one_out_models(profiles)
        for i, model in enumerate(models):
            assert model == fit_error_model(profiles[:i] + profiles[i + 1 :])
        assert models[2].n_excluded == 0
        assert all(m.n_excluded == 1 for j, m in enumerate(models) if j != 2)

    def test_requires_three_profiles(self):
        with pytest.raises(InsufficientControlsError):
            leave_one_out_models([NormalApprox(0.0, 0.1), NormalApprox(0.1, 0.1)])


class TestErrorModelType:
    def test_rejects_negative_sd(self):
        with pytest.raises(ValueError):
            ErrorModel(0.0, -0.1)

    def test_null_calibration_model(self):
        model = ErrorModel(0.0, 0.0)
        assert model.mean == 0.0 and model.sd == 0.0
