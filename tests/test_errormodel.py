import math

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq, minimize

from seqcalib import errormodel, simharness
from seqcalib.errormodel import (
    ErrorModel,
    FitError,
    InsufficientControlsError,
    fit_error_model,
    leave_one_out_models,
    marginal_log_likelihood,
)
from seqcalib.likelihood import (
    BinomialCounts,
    CurvatureError,
    GridProfile,
    NormalApprox,
    PoissonCounts,
    UninformativeProfileError,
    mle_and_se,
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


def mixed_controls():
    """Counts of both kinds, a grid tabulated from counts, and normal estimates."""
    counted = count_controls(6, 0.1, 0.2, seed=78, design="poisson")
    counted += count_controls(6, 0.1, 0.2, seed=79, design="binomial")
    normal = synthetic_controls(6, 0.1, 0.2, seed=80)[2]
    return counted + [profile_from_counts(counted[0]), profile_from_counts(counted[7])] + normal


def narrow_grid(mode, se, half_width):
    """A file grid of a normal log-likelihood that stops half_width either side of its mode."""
    x = np.linspace(mode - half_width, mode + half_width, 101)
    return GridProfile(x, -0.5 * ((x - mode) / se) ** 2)


DESK_ROUNDING_STOP = [
    218, 233, 251, 247, 270, 245, 206, 221, 239, 210, 217, 247, 246, 247, 234, 232, 236,
    224, 227, 215, 218, 207, 232, 227, 265, 224, 208, 228, 246, 219, 217, 239, 239, 259,
    234, 240, 220, 225, 209, 247, 237, 225, 238, 259, 255, 224, 251, 212, 213, 227,
]


PROFILE_SETS = {
    "normal": lambda: synthetic_controls(30, 0.1, 0.2, seed=3)[2],
    "file-grid": lambda: [
        profile_from_counts(p) for p in count_controls(8, 0.1, 0.2, seed=5, design="poisson")
    ],
    "poisson": lambda: count_controls(30, 0.2, 0.2, seed=303, design="poisson"),
    "binomial": lambda: count_controls(30, 0.2, 0.2, seed=303, design="binomial"),
    "mixed": mixed_controls,
    # a search bounded at sd >= 0 steps onto sd = 0 here and stays, as the
    # derivative in sd vanishes there; the optimum is at sd = 0.034
    "normal-small-sd": lambda: synthetic_controls(20, 0.0, 0.05, seed=0)[2],
    # were nodes beyond a grid to score -inf, a line search stepping there would
    # find no decrease and end the run at its start point
    "narrow-grids": lambda: [
        narrow_grid(m, s, 3 * s) for m, s in [(-0.3, 0.1), (0.2, 0.3), (0.25, 0.05), (0.8, 0.2)]
    ],
    # one run from the MLEs' mean and sd ends at a local maximum, sd 0.091 and
    # log-likelihood -0.846; the best sd = 0 model reaches -0.565
    "normal-local-maximum": lambda: [
        NormalApprox(b, s)
        for b, s in [
            (-0.4851, 0.1439), (0.0114, 0.1593), (0.1485, 0.5912), (-0.0203, 0.404),
            (-0.0848, 0.0306), (0.1437, 0.3098), (-0.3754, 0.52), (0.0127, 0.4532),
        ]
    ],
    # the controls of one look of a desk scenario (historical-large-mu0-sigma0 at
    # seed 3), where the line search finds no decrease at the optimum: the
    # objective's rounding, 1 ulp of 27, hides the gain left at gradient 1e-6
    "desk-rounding-stop": lambda: [PoissonCounts(o, 231.0) for o in DESK_ROUNDING_STOP],
}


def desk_look_one_controls(name, seed):
    """The informative negative controls' counts at look 1 of one desk scenario's repeat."""
    scenario = next(s for s in simharness.paper_scenarios(1, seed) if s.name == name)
    controls = []
    index = 0
    for rr, count in scenario.effect_sizes:
        for _ in range(count):
            if rr == 1.0:
                data = simharness.generate_outcome_data(scenario, rr, index, 0)[0]
                if data is not None and data.observed > 0:
                    controls.append(data)
            index += 1
    return controls


def nelder_mead_oracle(profiles):
    """Reference fit: Nelder-Mead over (mean, log(sd + 1e-6)) from three starts.

    It maximizes the same objective without derivatives, so it checks the optimizer alone.
    """
    prep = errormodel._prepare(profiles)

    def sd_of(z):
        return max(0.0, math.exp(min(z, 50.0)) - 1e-6)

    def negative(params):
        value = errormodel._evaluate(params[0], sd_of(params[1]), prep)[0]
        return -value if math.isfinite(value) else math.inf

    mles = [mle_and_se(p)[0] for p in profiles]
    starts = [(0.0, 0.1), (0.0, 0.5), (float(np.mean(mles)), float(np.std(mles, ddof=1)))]
    options = {"xatol": 1e-5, "fatol": 1e-6, "maxiter": 4000, "maxfev": 4000}
    runs = [
        minimize(negative, [m0, math.log(s0 + 1e-6)], method="Nelder-Mead", options=options)
        for m0, s0 in starts
    ]
    best = min(runs, key=lambda res: res.fun)
    return float(best.x[0]), sd_of(float(best.x[1]))


class TestFitErrorModel:
    def test_tight_null_controls_give_zero_model(self):
        profiles = [NormalApprox(0.0, 0.01) for _ in range(50)]
        model = fit_error_model(profiles)
        assert model.mean == 0.0 and model.sd == 0.0
        assert model.n_controls == 50

    def test_null_centred_counts_give_exact_zero_model(self):
        model = fit_error_model([PoissonCounts(o, float(o)) for o in range(5, 25)])
        assert model.mean == 0.0 and model.sd == 0.0
        assert model.converged

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
        assert model.mean == 0.0 and model.sd == 0.0

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

    @pytest.mark.parametrize("kind", sorted(PROFILE_SETS))
    def test_at_least_as_good_as_nelder_mead_oracle(self, kind):
        profiles = PROFILE_SETS[kind]()
        model = fit_error_model(profiles)
        mu, sd = nelder_mead_oracle(profiles)
        fitted = marginal_log_likelihood(model.mean, model.sd, profiles)
        assert fitted >= marginal_log_likelihood(mu, sd, profiles) - 1e-9
        assert model.converged

    def test_run_stopped_short_of_the_optimum_is_not_converged(self, monkeypatch):
        monkeypatch.setitem(errormodel._FIT_OPTIONS, "maxiter", 1)
        model = fit_error_model(PROFILE_SETS["poisson"]())
        assert model.sd > 0 and not model.converged

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

    def test_unsupported_profile_raises(self):
        with pytest.raises(TypeError, match="unsupported profile: str"):
            fit_error_model([NormalApprox(0.0, 0.1), "0.1", NormalApprox(0.1, 0.1)])

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

    @pytest.mark.parametrize(
        "profiles,mu",
        [
            ([PoissonCounts(10, 5.0)], 0.2),
            ([BinomialCounts(12, 30, 0.25)], -0.1),
            ([profile_from_counts(PoissonCounts(10, 5.0))], 0.2),
            (desk_look_one_controls("historical-small-mu0-sigma0", seed=1), 0.27575),
        ],
        ids=["poisson", "binomial", "file-grid", "desk-look-1"],
    )
    @pytest.mark.parametrize("sd", [1e-8, 1e-10, 1e-12, 1e-150])
    def test_tends_to_its_sd_zero_value(self, profiles, mu, sd):
        at_zero = marginal_log_likelihood(mu, 0.0, profiles)
        assert abs(marginal_log_likelihood(mu, sd, profiles) - at_zero) <= 1e-9

    def test_grid_continues_its_end_segments(self):
        profile = GridProfile([-1.0, 0.0, 1.0], [-2.0, 0.0, -1.0])
        assert marginal_log_likelihood(2.5, 0.0, [profile]) == pytest.approx(-2.5, abs=1e-12)
        assert marginal_log_likelihood(-3.0, 0.0, [profile]) == pytest.approx(-6.0, abs=1e-12)

    def test_grid_stays_level_beyond_an_end_segment_rising_away(self):
        profile = GridProfile([-2.0, -1.0, 0.0, 1.0, 2.0], [-0.5, -1.0, 0.0, -2.0, -1.5])
        for beta, level in [(2.5, -1.5), (40.0, -1.5), (-2.5, -0.5), (-40.0, -0.5)]:
            assert marginal_log_likelihood(beta, 0.0, [profile]) == pytest.approx(level, abs=1e-12)
        assert marginal_log_likelihood(0.0, 30.0, [profile]) <= -0.5

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


class TestGradient:
    @pytest.mark.parametrize("kind", sorted(PROFILE_SETS))
    def test_matches_central_differences(self, kind):
        prep = errormodel._prepare(PROFILE_SETS[kind]())

        def objective(mu, sd):
            return errormodel._evaluate(mu, sd, prep)[0]

        h = 1e-6
        for mu, sd in [(0.0, 0.05), (0.2, 0.2), (-0.3, 0.5), (0.4, 1.0)]:
            _, grad, _ = errormodel._evaluate(mu, sd, prep)
            d_mu = (objective(mu + h, sd) - objective(mu - h, sd)) / (2 * h)
            d_sd = (objective(mu, sd + h) - objective(mu, sd - h)) / (2 * h)
            assert grad == pytest.approx([d_mu, d_sd], rel=1e-6)

    @pytest.mark.parametrize("kind", sorted(PROFILE_SETS))
    def test_sd_derivative_vanishes_at_zero(self, kind):
        prep = errormodel._prepare(PROFILE_SETS[kind]())
        for mu in (-0.2, 0.0, 0.3):
            assert abs(errormodel._evaluate(mu, 0.0, prep)[1][1]) <= 1e-12

    @pytest.mark.parametrize("kind", sorted(PROFILE_SETS))
    def test_one_point_sd_zero_objective_matches_the_quadrature(self, kind):
        prep = errormodel._prepare(PROFILE_SETS[kind]())
        for mu in (-0.2, 0.0, 0.3):
            value, d_mu, curvature = errormodel._evaluate_at_zero_sd(mu, prep)
            expected, grad, hess = errormodel._evaluate(mu, 0.0, prep)
            tolerance = 1e-12 * max(1.0, abs(expected))
            assert abs(value - expected) <= tolerance
            assert abs(d_mu - grad[0]) <= tolerance
            assert curvature == pytest.approx(hess[0][0], rel=1e-9, abs=1e-9)


def grid_segments(prep, mu, sd):
    """The segment of each file grid that each node of its row lies in at (mu, sd)."""
    s = sd * sd + prep.width2[: len(prep.grid_x)]
    r = sd * sd / s
    step = np.sqrt(2.0 * prep.width2[: len(prep.grid_x)] / s) * sd
    segments = []
    for i, x in enumerate(prep.grid_x):
        mode = prep.mode[i]
        nodes = mu + (mode - mu) * r[i] + step[i] * errormodel._GH_X
        segments.append(np.searchsorted(x, nodes))
    return segments


def analyst_controls(seed):
    """The analyst-cli benchmark's controls: 100 estimates, then 100 count grids."""
    scenario = simharness.SimulationScenario(
        name="analyst-controls", design="historical", sample_size=1_000_000,
        effect_sizes=((1.0, 200),), error_mean=0.2, error_sd=0.2, repeats=1, base_seed=seed,
    )
    grids = [
        profile_from_counts(simharness.generate_outcome_data(scenario, 1.0, i, 0)[-1])
        for i in range(200)
    ]
    return [NormalApprox(*mle_and_se(p)) for p in grids[:100]] + grids[100:]


class TestHessian:
    @pytest.mark.parametrize("kind", ["normal", "poisson", "binomial", "mixed"])
    @pytest.mark.parametrize("sd", [0.0, 0.05, 0.3])
    def test_matches_central_differences_of_the_gradient(self, kind, sd):
        prep = errormodel._prepare(PROFILE_SETS[kind]())
        h = 1e-6
        for mu in (-0.1, 0.15):
            # the differences stay within one segment of every grid: no kink between them
            here = grid_segments(prep, mu, sd)
            for dm, ds in [(h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)]:
                there = grid_segments(prep, mu + dm, sd + ds)
                assert all((a == b).all() for a, b in zip(here, there))
            _, _, hess = errormodel._evaluate(mu, sd, prep)
            columns = []
            for dm, ds in [(h, 0.0), (0.0, h)]:
                up = errormodel._evaluate(mu + dm, sd + ds, prep)[1]
                down = errormodel._evaluate(mu - dm, sd - ds, prep)[1]
                columns.append([(a - b) / (2 * h) for a, b in zip(up, down)])
            numeric = np.array(columns).T
            scale = np.abs(numeric).max()
            assert np.array(hess) == pytest.approx(numeric, rel=1e-6, abs=1e-7 * scale)

    @pytest.mark.parametrize("kind", sorted(PROFILE_SETS))
    def test_symmetric_and_even_in_sd(self, kind):
        prep = errormodel._prepare(PROFILE_SETS[kind]())
        value, grad, hess = errormodel._evaluate(0.1, 0.2, prep)
        mirrored = errormodel._evaluate(0.1, -0.2, prep)
        assert hess[0][1] == hess[1][0]
        assert mirrored[0] == pytest.approx(value, rel=1e-12)
        assert mirrored[1] == pytest.approx((grad[0], -grad[1]), rel=1e-9)
        assert mirrored[2][0][1] == pytest.approx(-hess[0][1], rel=1e-9)


class TestMinimize:
    @staticmethod
    def counted(fun):
        calls = []

        def wrapper(x):
            calls.append(x)
            return fun(x)

        return wrapper, calls

    def test_counts_every_evaluation(self):
        def bowl(x):
            a, b = x[0] - 1.0, x[1] + 2.0
            hess = ((12 * a * a + 2, 0.0), (0.0, 6.0))
            return a**4 + a * a + 3 * b * b, (4 * a**3 + 2 * a, 6 * b), hess

        fun, calls = self.counted(bowl)
        res = errormodel.minimize(fun, (4.0, 3.0))
        assert res.success and res.nfev == len(calls)
        assert res.x == pytest.approx((1.0, -2.0), abs=1e-7)

    def test_leaves_a_saddle_along_its_negative_curvature(self):
        # x^2 - y^2 + y^4/2 has a saddle at the origin and minima at y = +-1
        def saddle(x):
            return (
                x[0] ** 2 - x[1] ** 2 + 0.5 * x[1] ** 4,
                (2 * x[0], -2 * x[1] + 2 * x[1] ** 3),
                ((2.0, 0.0), (0.0, -2.0 + 6 * x[1] ** 2)),
            )

        fun, calls = self.counted(saddle)
        res = errormodel.minimize(fun, (0.5, 0.1))
        assert res.success and res.nfev == len(calls)
        assert res.x == pytest.approx((0.0, 1.0), abs=1e-7)

    def test_kinked_objective_converges_on_the_kink(self):
        # |x - y| + (x + y - 1)^2 / 2: its Hessian misses the kink along x = y
        def kinked(x):
            d, m = x[0] - x[1], x[0] + x[1] - 1.0
            sign = 1.0 if d > 0 else -1.0
            return abs(d) + 0.5 * m * m, (sign + m, -sign + m), ((1.0, 1.0), (1.0, 1.0 + 1e-3))

        res = errormodel.minimize(kinked, (0.9, -0.3))
        assert res.success
        assert res.x == pytest.approx((0.5, 0.5), abs=1e-6)


def search(run, fun):
    """The end of one generator search, sent fun of each point it yields."""
    return errormodel._lockstep({0: run}, lambda points: {0: fun(points[0])})[0]


class TestZeroSdMean:
    @pytest.mark.parametrize(
        "name,profiles,most",
        [
            ("file-grid", PROFILE_SETS["file-grid"], 45),
            ("analyst-grids", lambda: analyst_controls(1)[100:], 45),
            ("analyst-mix", lambda: analyst_controls(1), 10),
            ("poisson", PROFILE_SETS["poisson"], 10),
        ],
    )
    def test_agrees_with_brentq_within_a_stated_number_of_evaluations(self, name, profiles, most):
        # grid scores are piecewise constant, so on grids alone the search bisects:
        # 3 evaluations, then one per halving of the MLEs' range down to 2e-12
        prep = errormodel._prepare(profiles())
        mles = np.concatenate([prep.norm_beta, prep.mode])
        lo, hi = float(mles.min()), float(mles.max())
        one_point = errormodel._evaluate_at_zero_sd
        expected = brentq(lambda m: one_point(m, prep)[1], lo, hi)
        calls = []

        def counted(mu):
            calls.append(mu)
            return one_point(mu, prep)

        for start in (lo, float(mles.mean()), hi):
            calls.clear()
            mean, value = search(errormodel._zero_sd_mean(lo, hi, start), counted)
            assert abs(mean - expected) <= 1e-10
            assert value == one_point(mean, prep)[0]
            assert len(calls) <= most

    def test_start_without_a_sign_change(self):
        prep = errormodel._prepare([NormalApprox(0.0, 0.1), NormalApprox(0.2, 0.1)])
        value = errormodel._evaluate_at_zero_sd(0.4, prep)[0]
        run = errormodel._zero_sd_mean(0.3, 0.5, 0.4)
        assert search(run, lambda mu: errormodel._evaluate_at_zero_sd(mu, prep)) == (0.4, value)


class TestNodeLogLikelihoods:
    @pytest.mark.parametrize("nodes", [64, 1])
    def test_each_kind_of_a_mixed_set_matches_its_own_rows(self, nodes):
        # every kind fills its own slice of one node table in place
        profiles = mixed_controls()
        prep = errormodel._prepare(profiles)
        rows = [profiles[i] for i in prep.position[prep.norm_beta.size :]]
        delta = np.random.default_rng(7).normal(0.0, 0.5, (len(rows), nodes))
        table = errormodel._node_log_likelihoods(prep, delta)
        for kind in (GridProfile, PoissonCounts, BinomialCounts):
            mine = np.array([isinstance(r, kind) for r in rows])
            assert 0 < mine.sum() < len(rows)
            own = errormodel._prepare([r for r, m in zip(rows, mine) if m])
            own_table = errormodel._node_log_likelihoods(own, delta[mine])
            for column, own_column in zip(table, own_table):
                assert column[mine].tobytes() == own_column.tobytes()

    @pytest.mark.parametrize("kind", ["poisson", "binomial"])
    def test_curvature_is_the_derivative_of_the_score(self, kind):
        prep = errormodel._prepare(PROFILE_SETS[kind]())
        delta = np.random.default_rng(8).normal(0.0, 0.5, (prep.mode.size, 16))
        h = 1e-6
        _, _, curvature = errormodel._node_log_likelihoods(prep, delta)
        up = errormodel._node_log_likelihoods(prep, delta + h)[1]
        down = errormodel._node_log_likelihoods(prep, delta - h)[1]
        assert curvature == pytest.approx((up - down) / (2 * h), rel=1e-6, abs=1e-6)

    def test_grid_curvature_is_zero(self):
        prep = errormodel._prepare(PROFILE_SETS["file-grid"]())
        delta = np.random.default_rng(9).normal(0.0, 0.5, (prep.mode.size, 16))
        assert not errormodel._node_log_likelihoods(prep, delta)[2].any()


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

    def test_matches_fit_without_each_profile_over_several_grids(self):
        # grids of 101, 101, 101 and 1000 points between a count and an estimate,
        # so a slope array left with the wrong grid changes the fit or fails it
        count = count_controls(1, 0.1, 0.2, seed=82, design="poisson")[0]
        profiles = [
            narrow_grid(-0.1, 0.15, 0.6),
            count,
            narrow_grid(0.2, 0.3, 1.2),
            NormalApprox(0.15, 0.1),
            narrow_grid(0.35, 0.1, 0.3),
            profile_from_counts(PoissonCounts(14, 10.0)),
        ]
        models = leave_one_out_models(profiles)
        for i, model in enumerate(models):
            assert model is not None
            assert model == fit_error_model(profiles[:i] + profiles[i + 1 :])

    def test_each_profile_is_estimated_once(self, monkeypatch):
        profiles = count_controls(5, 0.1, 0.2, seed=80, design="poisson")
        estimated = []

        def counting_mle_and_se(profile):
            estimated.append(profile)
            return mle_and_se(profile)

        monkeypatch.setattr(errormodel, "mle_and_se", counting_mle_and_se)
        models = leave_one_out_models(profiles)
        assert estimated == profiles
        assert all(m is not None for m in models)

    def test_folds_of_unequal_runs_match_their_own_fits(self, monkeypatch):
        # leaving out the outlier takes more Newton steps and line-search halvings
        profiles = count_controls(6, 0.1, 0.2, seed=82, design="binomial")
        profiles.append(PoissonCounts(60, 10.0))
        newton, values = errormodel._newton, []

        def recording(x0):
            run, mine = newton(x0), []
            values.append(mine)
            point = next(run)
            while True:
                evaluation = yield point
                mine.append(evaluation[0])
                try:
                    point = run.send(evaluation)
                except StopIteration as end:
                    return end.value

        monkeypatch.setattr(errormodel, "_newton", recording)
        models = leave_one_out_models(profiles)
        evaluations = [len(v) for v in values]
        halvings = [sum(f >= min(v[:k]) for k, f in enumerate(v) if k) for v in values]
        assert len(set(evaluations)) > 1 and len(set(halvings)) > 1
        for i, model in enumerate(models):
            assert model == fit_error_model(profiles[:i] + profiles[i + 1 :])

    def test_a_fold_without_a_finite_objective_is_none(self, monkeypatch):
        # one fold of a group fails where it starts; the others run on beside it
        profiles = count_controls(6, 0.1, 0.2, seed=81, design="poisson")
        expected = [fit_error_model(profiles[:i] + profiles[i + 1 :]) for i in range(1, 6)]
        marker, evaluate = mle_and_se(profiles[0])[0], errormodel._evaluate

        def failing_without_the_first(mu, sd, prep):
            value, grad, hess = evaluate(mu, sd, prep)
            return np.where((prep.mode == marker).any(axis=-1), value, -np.inf), grad, hess

        monkeypatch.setattr(errormodel, "_evaluate", failing_without_the_first)
        assert leave_one_out_models(profiles) == [None, *expected]
        with pytest.raises(FitError):
            fit_error_model(profiles[1:])

    def test_zero_mass_in_one_fold_leaves_the_others_exact(self):
        profiles = count_controls(5, 0.1, 0.2, seed=83, design="binomial")
        prep = errormodel._prepare(profiles)
        rows = np.array([np.delete(np.arange(5), i) for i in range(5)])
        group = errormodel._take(prep, rows, (0, 0, 0))
        mu, sd = np.array([0.1, 800.0, -0.2, 0.3, 0.0]), np.array([0.2, 0.01, 0.5, 0.0, 0.1])
        with np.errstate(over="ignore", invalid="ignore"):  # the overflow that zeroes the mass
            value, grad, hess = errormodel._evaluate(mu, sd, group)
        assert value[1] == -np.inf
        for i in (0, 2, 3, 4):
            fold = errormodel._prepare(profiles[:i] + profiles[i + 1 :])
            own = errormodel._evaluate(mu[i], sd[i], fold)
            assert (value[i], grad[0][i], grad[1][i]) == (own[0], *own[1])
            assert np.array(hess)[:, :, i].tolist() == np.array(own[2]).tolist()

    def test_failed_fits_are_none(self):
        unusable = GridProfile([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        profiles = [NormalApprox(0.1, 0.2), NormalApprox(0.3, 0.1), unusable]
        models = leave_one_out_models(profiles)
        assert models == [None, None, fit_error_model(profiles[:2])]

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


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ErrorModel(math.inf, 0.1), ValueError, "mean must be finite"),
        (lambda: marginal_log_likelihood(math.nan, 0.1, [NormalApprox(0.0, 0.1)]), ValueError,
         "mu must be finite"),
        # maximum at the grid's last point
        (lambda: marginal_log_likelihood(0.0, 0.1, [GridProfile([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])]),
         CurvatureError, "1 grid profile(s) have no usable interior maximum"),
        (lambda: marginal_log_likelihood(0.0, 0.1, []), ValueError,
         "at least one profile is required"),
    ],
    ids=["inf-mean", "nan-mu", "excluded-grid", "no-profiles"],
)
def test_input_check_raises_with_its_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message
