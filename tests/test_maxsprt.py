import itertools
import math

import numpy as np
import pytest
from scipy import integrate, stats

from seqcalib import maxsprt
from seqcalib.errormodel import ErrorModel
from seqcalib.likelihood import binomial_llr, poisson_llr, tilted_proportion
from seqcalib.maxsprt import (
    CriticalValueError,
    LookSchedule,
    MonteCarloConfig,
    compute_calibrated_cv,
    compute_cv,
)
from seqcalib.simharness import paper_scenarios, scenario_schedule


def poisson_one_look_oracle_cv(expected, alpha):
    """Exact tail enumeration: smallest LLR value whose exceedance prob <= alpha."""
    o = 0
    while stats.poisson.sf(o, expected) > alpha:
        o += 1
    return poisson_llr(o, expected), float(stats.poisson.sf(o, expected))


def binomial_one_look_oracle_cv(total, p, alpha):
    o = 0
    while stats.binom.sf(o, total, p) > alpha:
        o += 1
    return binomial_llr(o, total, p), float(stats.binom.sf(o, total, p))


def sample_llr_max(schedule, replicates, seed, model=None):
    """Maximum LLR across looks for independently simulated null replicates.

    Each replicate draws one standard-normal bias innovation shared by its
    looks (none without a model) and its counts from the tilted null; the
    LLR is against the unadjusted null. An oracle independent of the
    recursion.
    """
    rng = np.random.default_rng(seed)
    shape = (replicates, schedule.n_looks)
    bias = np.zeros(shape)
    if model is not None:
        bias += model.mean + model.sd * rng.standard_normal((replicates, 1))
    if schedule.model == "poisson":
        counts = rng.poisson(np.asarray(schedule.expected_increments) * np.exp(bias))
        llr = poisson_llr(np.cumsum(counts, axis=1), schedule.cumulative_expected())
    else:
        trials = schedule.binomial_trials()
        p = schedule.exposure_proportion
        counts = rng.binomial(trials, tilted_proportion(p, bias))
        llr = binomial_llr(np.cumsum(counts, axis=1), np.cumsum(trials), p)
    return llr.max(axis=1)


def enumerated_cv(schedule, max_increment, models=None):
    """cv and attained alpha by summing the probability of every count path.

    Increments run to max_increment at every look (the tail beyond it must
    be negligible). With per-look models the path probabilities are
    integrated over the shared bias innovation by adaptive quadrature.
    """
    n_looks = schedule.n_looks
    paths = np.array(list(itertools.product(range(max_increment + 1), repeat=n_looks)))
    cumulative = np.cumsum(paths, axis=1)
    if schedule.model == "poisson":
        increments = np.asarray(schedule.expected_increments)
        path_max = poisson_llr(cumulative, schedule.cumulative_expected()).max(axis=1)

        def path_probability(bias):
            return stats.poisson.pmf(paths, increments * np.exp(bias)).prod(axis=1)

    else:
        trials = schedule.binomial_trials()
        p = schedule.exposure_proportion
        possible = np.all(paths <= trials, axis=1)
        paths, cumulative = paths[possible], cumulative[possible]
        path_max = binomial_llr(cumulative, np.cumsum(trials), p).max(axis=1)

        def path_probability(bias):
            return stats.binom.pmf(paths, trials, tilted_proportion(p, bias)).prod(axis=1)

    if models is None:
        probability = path_probability(np.zeros(n_looks))
    else:
        mean = np.array([m.mean for m in models])
        sd = np.array([m.sd for m in models])
        probability, _ = integrate.quad_vec(
            lambda z: stats.norm.pdf(z) * path_probability(mean + sd * z),
            -12.0,
            12.0,
            epsabs=1e-16,
            epsrel=1e-13,
            norm="max",
        )
    values = np.unique(np.append(path_max, 0.0))
    alphas = np.array([probability[path_max > v].sum() for v in values])
    i = int(np.argmax(alphas <= schedule.alpha))
    return float(values[i]), float(alphas[i])


class TestComputeCv:
    def test_one_look_poisson_matches_exact_oracle(self):
        schedule = LookSchedule((4.0,), alpha=0.05)
        result = compute_cv(schedule)
        oracle_cv, oracle_alpha = poisson_one_look_oracle_cv(4.0, 0.05)
        assert oracle_cv == poisson_llr(8, 4)  # signaling region is o >= 9
        assert result.cv == oracle_cv
        assert result.attained_alpha == pytest.approx(oracle_alpha, abs=0.003)

    def test_one_look_binomial_matches_enumeration(self):
        schedule = LookSchedule((20.0,), alpha=0.05, model="binomial", exposure_proportion=0.5)
        result = compute_cv(schedule)
        oracle_cv, _ = binomial_one_look_oracle_cv(20, 0.5, 0.05)
        assert result.cv == oracle_cv

    def test_alpha_one_gives_zero_cv(self):
        schedule = LookSchedule((4.0,), alpha=1.0)
        result = compute_cv(schedule)
        assert result.cv == 0.0

    def test_cv_monotone_nonincreasing_in_alpha(self):
        cvs = []
        for alpha in (0.01, 0.05, 0.1, 0.25, 0.5):
            schedule = LookSchedule((4.0, 4.0, 4.0), alpha=alpha)
            cvs.append(compute_cv(schedule).cv)
        assert all(b <= a for a, b in zip(cvs, cvs[1:]))

    def test_cv_nondecreasing_in_looks(self):
        # nested schedules: every exceedance path of a prefix is one of the longer schedule
        cvs = []
        for t in (1, 2, 4):
            schedule = LookSchedule((4.0,) * t, alpha=0.05)
            cvs.append(compute_cv(schedule).cv)
        assert cvs[0] <= cvs[1] <= cvs[2]

    def test_attained_alpha_at_most_alpha(self):
        schedule = LookSchedule((2.0, 3.0, 5.0), alpha=0.05)
        result = compute_cv(schedule)
        assert result.attained_alpha <= 0.05

    def test_null_signaling_rate_on_independent_seed(self):
        schedule = LookSchedule((3.0, 3.0, 3.0), alpha=0.05)
        result = compute_cv(schedule)
        fresh = sample_llr_max(schedule, 50_000, seed=2099)
        rate = float(np.mean(fresh > result.cv))
        assert rate <= 0.05
        assert rate >= result.attained_alpha - 3 * math.sqrt(0.05 / 50_000)

    def test_deterministic(self):
        schedule = LookSchedule((4.0, 4.0), alpha=0.05)
        a = compute_cv(schedule)
        b = compute_cv(schedule)
        assert a == b

    def test_monte_carlo_config_is_ignored(self):
        # nothing is sized by the replicate count: 10^12 replicates cost nothing
        schedule = LookSchedule((4.0, 4.0), alpha=0.05)
        huge = MonteCarloConfig(10**12, base_seed=5)
        assert compute_cv(schedule, huge) == compute_cv(schedule)
        model = ErrorModel(0.1, 0.2)
        assert compute_calibrated_cv(schedule, model, huge) == compute_calibrated_cv(schedule, model)

    @pytest.mark.parametrize(
        "schedule, max_increment",
        [
            (LookSchedule((2.0, 2.0, 2.0), alpha=0.05), 30),
            (LookSchedule((1.5, 2.5, 3.0), alpha=0.1), 30),
            (LookSchedule((6.0,) * 3, alpha=0.05, model="binomial", exposure_proportion=0.3), 6),
            (LookSchedule((4.0, 7.0, 5.0), alpha=0.02, model="binomial", exposure_proportion=0.5), 7),
        ],
    )
    def test_matches_path_enumeration(self, schedule, max_increment):
        oracle_cv, oracle_alpha = enumerated_cv(schedule, max_increment)
        result = compute_cv(schedule)
        assert result.cv == oracle_cv
        assert abs(result.attained_alpha - oracle_alpha) <= 1e-12


class TestComputeCalibratedCv:
    def test_null_model_reproduces_uncalibrated_exactly(self):
        for kwargs in (
            {"model": "poisson"},
            {"model": "binomial", "exposure_proportion": 0.3},
        ):
            schedule = LookSchedule((8.0, 8.0, 8.0), alpha=0.05, **kwargs)
            plain = compute_cv(schedule)
            calibrated = compute_calibrated_cv(schedule, ErrorModel(0.0, 0.0))
            assert calibrated.cv == plain.cv
            assert calibrated.attained_alpha == plain.attained_alpha

    def test_one_look_fixed_bias_matches_tilted_oracle(self):
        # bias (0.2, 0): null counts ~ Poisson(10 e^0.2), LLR against expected 10
        schedule = LookSchedule((10.0,), alpha=0.05)
        result = compute_calibrated_cv(schedule, ErrorModel(0.2, 0.0))
        rate = 10.0 * math.exp(0.2)
        o = 0
        while stats.poisson.sf(o, rate) > 0.05:
            o += 1
        assert result.cv == poisson_llr(o, 10.0)

    def test_bias_widens_null_and_raises_cv(self):
        schedule = LookSchedule((10.0,) * 5, alpha=0.05)
        plain = compute_cv(schedule).cv
        biased = compute_calibrated_cv(schedule, ErrorModel(0.0, 0.3)).cv
        assert biased > plain

    def test_model_count_validation(self):
        schedule = LookSchedule((4.0, 4.0, 4.0), alpha=0.05)
        with pytest.raises(ValueError):
            compute_calibrated_cv(schedule, [ErrorModel(0, 0), ErrorModel(0, 0)])

    def test_per_look_models_must_share_sd(self):
        schedule = LookSchedule((4.0, 4.0), alpha=0.05)
        with pytest.raises(ValueError):
            compute_calibrated_cv(schedule, [ErrorModel(0.1, 0.1), ErrorModel(0.1, 0.2)])

    def test_single_model_broadcasts(self):
        schedule = LookSchedule((4.0, 4.0), alpha=0.05)
        one = compute_calibrated_cv(schedule, ErrorModel(0.1, 0.1))
        listed = compute_calibrated_cv(schedule, [ErrorModel(0.1, 0.1)])
        both = compute_calibrated_cv(schedule, [ErrorModel(0.1, 0.1)] * 2)
        assert one == listed == both

    def test_alpha_one_gives_zero_cv(self):
        schedule = LookSchedule((4.0, 4.0), alpha=1.0)
        assert compute_calibrated_cv(schedule, ErrorModel(0.2, 0.3)).cv == 0.0

    @pytest.mark.parametrize(
        "schedule, max_increment, models",
        [
            (LookSchedule((2.0, 2.0, 2.0), alpha=0.05), 30, [ErrorModel(0.2, 0.3)] * 3),
            (
                LookSchedule((2.0, 2.0, 2.0), alpha=0.05),
                30,
                [ErrorModel(0.0, 0.25), ErrorModel(0.1, 0.25), ErrorModel(0.3, 0.25)],
            ),
            (
                LookSchedule((6.0,) * 3, alpha=0.05, model="binomial", exposure_proportion=0.3),
                6,
                [ErrorModel(0.2, 0.4)] * 3,
            ),
        ],
    )
    def test_matches_integrated_path_enumeration(self, schedule, max_increment, models):
        oracle_cv, oracle_alpha = enumerated_cv(schedule, max_increment, models)
        result = compute_calibrated_cv(schedule, models)
        assert result.cv == oracle_cv
        assert abs(result.attained_alpha - oracle_alpha) <= 1e-10

    @pytest.mark.parametrize(
        "schedule",
        [
            LookSchedule((4.0,) * 3, alpha=0.05),
            LookSchedule((12.0,) * 3, alpha=0.05, model="binomial", exposure_proportion=0.2),
        ],
    )
    def test_exceedance_rate_matches_sampled_oracle(self, schedule):
        model = ErrorModel(0.2, 0.2)
        result = compute_calibrated_cv(schedule, model)
        n = 200_000
        rate = float(np.mean(sample_llr_max(schedule, n, seed=77, model=model) > result.cv))
        sigma = math.sqrt(result.attained_alpha * (1.0 - result.attained_alpha) / n)
        assert abs(rate - result.attained_alpha) <= 3.0 * sigma

    def test_node_doubling_changes_no_desk_cv(self, monkeypatch):
        schedules = [
            scenario_schedule(s)
            for s in paper_scenarios(repeats=1)
            if s.error_mean == 0.0 and s.error_sd == 0.0
        ]
        models = (ErrorModel(0.0, 0.2), ErrorModel(0.2, 0.2))
        base = [compute_calibrated_cv(s, m) for s in schedules for m in models]
        doubled_rule = np.polynomial.hermite.hermgauss(2 * maxsprt.GH_POINTS)
        monkeypatch.setattr(maxsprt, "_GH_X", doubled_rule[0])
        monkeypatch.setattr(maxsprt, "_GH_W", doubled_rule[1])
        doubled = [compute_calibrated_cv(s, m) for s in schedules for m in models]
        assert len(base) == 8
        for a, b in zip(base, doubled):
            assert a.cv == b.cv
            assert abs(a.attained_alpha - b.attained_alpha) <= 1e-12

    def test_extra_base_rows_change_nothing(self, monkeypatch):
        # a lower cap on the log weight forces several base rows
        schedule = LookSchedule((20.0,) * 4, alpha=0.05)
        model = ErrorModel(0.2, 0.3)
        one_row = compute_calibrated_cv(schedule, model)
        monkeypatch.setattr(maxsprt, "_MAX_LOG_WEIGHT", 3.0)
        null = maxsprt._NullRecursion(schedule, [model] * 4)
        assert null.rows.size > 1
        rows = compute_calibrated_cv(schedule, model)
        assert rows.cv == one_row.cv
        assert abs(rows.attained_alpha - one_row.attained_alpha) <= 1e-12


def assert_matches_sampled_rate(schedule, result, model=None, n=20_000, seed=5):
    rate = float(np.mean(sample_llr_max(schedule, n, seed=seed, model=model) > result.cv))
    sigma = math.sqrt(result.attained_alpha * (1.0 - result.attained_alpha) / n)
    assert abs(rate - result.attained_alpha) <= 3.0 * sigma


class TestLargeDesigns:
    @pytest.mark.parametrize("model", [None, ErrorModel(0.0, 0.2)])
    def test_weekly_looks_of_a_large_database(self, model):
        # 52 looks of 2,000 expected events: final counts past 100,000
        schedule = LookSchedule((2000.0,) * 52, alpha=0.05)
        result = compute_cv(schedule) if model is None else compute_calibrated_cv(schedule, model)
        assert 0.0499 < result.attained_alpha <= 0.05
        assert_matches_sampled_rate(schedule, result, model)

    @pytest.mark.parametrize(
        "schedule, model",
        [
            (LookSchedule((300.0,) * 10, alpha=0.05), ErrorModel(0.0, 2.0)),
            (
                LookSchedule((157.0,) * 10, alpha=0.05, model="binomial", exposure_proportion=0.115),
                ErrorModel(0.0, 5.0),
            ),
        ],
    )
    def test_wide_models_supported(self, schedule, model):
        result = compute_calibrated_cv(schedule, model)
        assert 0.0 < result.attained_alpha <= 0.05
        assert_matches_sampled_rate(schedule, result, model)

    def test_counts_beyond_the_supported_range_raise(self):
        # 2 million expected events: the count tables stop at 2**20
        with pytest.raises(CriticalValueError, match="beyond the supported"):
            compute_cv(LookSchedule((200_000.0,) * 10, alpha=0.05))

    def test_model_too_wide_for_the_rows_raises(self, monkeypatch):
        # no placement of base rows meets a cap below every count's log weight
        monkeypatch.setattr(maxsprt, "_MAX_LOG_WEIGHT", -1000.0)
        with pytest.raises(CriticalValueError, match="too wide"):
            compute_calibrated_cv(LookSchedule((20.0,) * 4, alpha=0.05), ErrorModel(0.0, 0.3))


class TestScheduleValidation:
    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            LookSchedule((), alpha=0.05)

    def test_nonpositive_increment_rejected(self):
        with pytest.raises(ValueError):
            LookSchedule((4.0, 0.0), alpha=0.05)

    def test_binomial_requires_proportion(self):
        with pytest.raises(ValueError):
            LookSchedule((4.0,), alpha=0.05, model="binomial")

    def test_poisson_rejects_proportion(self):
        with pytest.raises(ValueError):
            LookSchedule((4.0,), alpha=0.05, exposure_proportion=0.5)

    def test_trials_rounded_to_nearest_positive_integer(self):
        schedule = LookSchedule((15.7, 0.4), alpha=0.05, model="binomial", exposure_proportion=0.5)
        assert list(schedule.binomial_trials()) == [16, 1]
