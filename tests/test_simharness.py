import math

import numpy as np
import pytest

from seqcalib import maxsprt
from seqcalib.calibration import uncalibrated_p
from seqcalib.errormodel import ErrorModel
from seqcalib.likelihood import BinomialCounts, PoissonCounts, mle_and_se, poisson_llr
from seqcalib.maxsprt import compute_cv
from seqcalib.simharness import (
    SCCS_NULL_EXPOSURE_PROPORTION,
    ErrorRateReport,
    SimulationScenario,
    confounding_demo,
    generate_outcome_data,
    paper_scenarios,
    run_scenario,
    scenario_schedule,
)


def mini_scenario(**overrides):
    base = dict(
        name="mini",
        design="historical",
        sample_size=100_000,
        effect_sizes=((1.0, 20), (1.5, 8), (2.0, 8), (4.0, 8)),
        error_mean=0.0,
        error_sd=0.0,
        looks=5,
        repeats=4,
        base_seed=314159,
    )
    base.update(overrides)
    return SimulationScenario(**base)


class TestPaperScenarios:
    def test_twelve_scenarios(self):
        assert len(paper_scenarios()) == 12

    def test_unique_names(self):
        names = [s.name for s in paper_scenarios()]
        assert len(set(names)) == 12

    def test_each_has_200_outcomes(self):
        assert all(s.n_outcomes == 200 for s in paper_scenarios())

    def test_effect_size_multiset(self):
        for s in paper_scenarios():
            assert dict(s.effect_sizes) == {1.0: 50, 1.5: 50, 2.0: 50, 4.0: 50}

    def test_looks_alpha_and_sizes(self):
        scenarios = paper_scenarios()
        assert all(s.looks == 10 and scenario_schedule(s).alpha == 0.05 for s in scenarios)
        assert {s.sample_size for s in scenarios if s.design == "historical"} == {100_000, 1_000_000}
        assert {s.sample_size for s in scenarios if s.design == "sccs"} == {100, 1_000}

    def test_error_distributions(self):
        pairs = {(s.error_mean, s.error_sd) for s in paper_scenarios()}
        assert pairs == {(0.0, 0.0), (0.0, 0.2), (0.2, 0.2)}

    def test_requires_negative_controls(self):
        with pytest.raises(ValueError):
            mini_scenario(effect_sizes=((1.5, 10), (2.0, 10)))


class TestScenarioSchedule:
    def test_poisson_small_expected_counts(self):
        s = [x for x in paper_scenarios() if x.name == "historical-small-mu0-sigma0"][0]
        schedule = scenario_schedule(s)
        assert schedule.model == "poisson"
        assert sum(schedule.expected_increments) == pytest.approx(23.1, abs=1e-9)

    def test_sccs_schedule(self):
        s = [x for x in paper_scenarios() if x.name == "sccs-large-mu0-sigma0"][0]
        schedule = scenario_schedule(s)
        assert schedule.model == "binomial"
        assert schedule.exposure_proportion == pytest.approx(28 / 243)
        # expected exposed events: total cases x p0 = 181
        total_cases = sum(schedule.expected_increments)
        assert total_cases * schedule.exposure_proportion == pytest.approx(181.0, abs=1e-9)


class TestGenerateOutcomeData:
    def test_poisson_mean_total_matches_anchor(self):
        s = mini_scenario(design="historical", sample_size=1_000_000, looks=10)
        totals = [
            generate_outcome_data(s, 1.0, i, rep)[-1].observed
            for i in range(10)
            for rep in range(10)
        ]
        assert np.mean(totals) == pytest.approx(231.0, rel=0.10)

    def test_sccs_mean_exposed_matches_anchor(self):
        s = mini_scenario(design="sccs", sample_size=100, looks=10)
        exposed = [
            generate_outcome_data(s, 1.0, i, rep)[-1].exposed
            for i in range(10)
            for rep in range(10)
        ]
        assert np.mean(exposed) == pytest.approx(18.1, rel=0.15)

    def test_fixed_bias_doubles_observed_over_expected(self):
        s = mini_scenario(error_mean=math.log(2.0), error_sd=0.0, sample_size=1_000_000, looks=10)
        ratios = []
        for i in range(20):
            data = generate_outcome_data(s, 1.0, i, 0)
            ratios.append(data[-1].observed / data[-1].expected)
        assert np.mean(ratios) == pytest.approx(2.0, rel=0.05)

    def test_cumulative_and_nondecreasing(self):
        s = mini_scenario()
        data = generate_outcome_data(s, 2.0, 3, 1)
        observed = [d.observed for d in data]
        assert observed == sorted(observed)
        assert all(isinstance(d, PoissonCounts) for d in data)

    def test_sccs_empty_looks_are_none(self):
        s = mini_scenario(design="sccs", sample_size=2, looks=6)
        rows = [generate_outcome_data(s, 1.0, i, 0) for i in range(30)]
        flat = [d for row in rows for d in row]
        assert any(d is None for d in flat)
        for row in rows:
            seen = False
            for d in row:
                if d is not None:
                    seen = True
                    assert isinstance(d, BinomialCounts)
                else:
                    assert not seen  # None only before the first case arrives

    def test_deterministic_per_outcome(self):
        s = mini_scenario()
        a = generate_outcome_data(s, 1.5, 7, 2)
        b = generate_outcome_data(s, 1.5, 7, 2)
        assert a == b

    def test_expected_counts_are_the_schedules(self):
        # a cv is computed for the schedule's design, so the LLR it is compared with must be too
        for s in paper_scenarios(repeats=1):
            if s.design == "historical":
                expected = [d.expected for d in generate_outcome_data(s, 1.0, 0, 0)]
                assert expected == scenario_schedule(s).cumulative_expected().tolist()


def uncal_p_limits(schedule):
    """Per look, the smallest count on which uncal_p signals, by production's estimate and p-value.

    The rule signals on every larger count too, checked up to 500, beyond any
    count a historical-small outcome reaches with a probability that matters.
    """
    def signals(o, expected):
        return o > 0 and uncalibrated_p(*mle_and_se(PoissonCounts(o, expected))) < schedule.alpha

    limits = []
    for expected in schedule.cumulative_expected():
        limit = next(o for o in range(500) if signals(o, expected))
        assert all(signals(o, expected) for o in range(limit, 500))
        limits.append(limit)
    return limits


class TestExactUncalibratedTypeOne:
    """A historical control's counts, given its bias tau ~ N(mu, sigma), follow the
    tilted null of _NullRecursion(schedule, ErrorModel(mu, sigma)) exactly, so the
    type 1 error of each uncalibrated mode is exact: uncal_maxsprt absorbs at the
    cv's LLR limits, uncal_p at the smallest count it signals on per look."""

    @pytest.mark.parametrize(
        "mu, sigma, exact_maxsprt, exact_p",
        [(0.0, 0.0, 0.04941, 0.18752), (0.0, 0.2, 0.11225, 0.25366), (0.2, 0.2, 0.30049, 0.48899)],
    )
    def test_matches_the_harness(self, mu, sigma, exact_maxsprt, exact_p):
        scenario = SimulationScenario(
            "historical-small", "historical", 100_000, error_mean=mu, error_sd=sigma,
            repeats=1, base_seed=271828,
        )
        schedule = scenario_schedule(scenario)
        cv = compute_cv(schedule)
        limits = uncal_p_limits(schedule)
        assert limits[:3] == [5, 9, 12]
        null = maxsprt._NullRecursion(schedule, ErrorModel(mu, sigma))
        exact = {"uncal_maxsprt": null.exceedance(cv.cv), "uncal_p": null.crossing(limits)}
        if (mu, sigma) == (0.0, 0.0):
            assert exact["uncal_maxsprt"] == cv.attained_alpha
        assert exact["uncal_maxsprt"] == pytest.approx(exact_maxsprt, abs=5e-6)
        assert exact["uncal_p"] == pytest.approx(exact_p, abs=5e-6)

        # the signal rules of run_surveillance, on the harness's own draws
        n = 20_000
        signaled = {"uncal_maxsprt": 0, "uncal_p": 0}
        for index in range(n):
            data = generate_outcome_data(scenario, 1.0, index, 0)
            llr = poisson_llr(np.array([d.observed for d in data]), np.array([d.expected for d in data]))
            signaled["uncal_maxsprt"] += bool(llr.max() > cv.cv)
            signaled["uncal_p"] += any(
                d.observed > 0 and uncalibrated_p(*mle_and_se(d)) < schedule.alpha for d in data
            )
        for mode, value in exact.items():
            se = math.sqrt(value * (1.0 - value) / n)
            assert abs(signaled[mode] / n - value) <= 4.0 * se, mode


class TestRunScenario:
    def test_deterministic(self):
        s = mini_scenario(repeats=2)
        a = run_scenario(s)
        b = run_scenario(s)
        assert a.rows == b.rows

    def test_no_systematic_error_calibration_changes_little(self):
        s = mini_scenario(repeats=4, effect_sizes=((1.0, 30), (2.0, 10), (4.0, 10)))
        report = run_scenario(s)
        uncal = report.mean_rate("uncal_p", "type1")
        cal = report.mean_rate("cal_p", "type1")
        assert abs(uncal - cal) < 0.05

    def test_biased_scenario_directions(self):
        s = mini_scenario(error_mean=0.2, error_sd=0.2, repeats=4, looks=5)
        report = run_scenario(s)
        uncal_p = report.mean_rate("uncal_p", "type1")
        cal_p = report.mean_rate("cal_p", "type1")
        uncal_maxsprt = report.mean_rate("uncal_maxsprt", "type1")
        cal_maxsprt = report.mean_rate("cal_maxsprt", "type1")
        assert uncal_p > 3 * 0.05  # unadjusted inflation
        assert cal_maxsprt <= 0.12
        assert uncal_maxsprt <= uncal_p
        assert cal_maxsprt <= cal_p
        # calibration moves type 1 more than the sequential adjustment here
        assert (uncal_p - cal_p) > (uncal_p - uncal_maxsprt)

    def test_type2_monotone_in_effect_size(self):
        s = mini_scenario(repeats=4)
        report = run_scenario(s)
        for mode in ("uncal_maxsprt", "cal_maxsprt", "uncal_p", "cal_p"):
            rates = [report.mean_rate(mode, "type2", rr) for rr in (1.5, 2.0, 4.0)]
            assert rates[0] >= rates[1] >= rates[2]

    def test_larger_sample_does_not_raise_type2(self):
        small = run_scenario(mini_scenario(repeats=3))
        large = run_scenario(mini_scenario(repeats=3, sample_size=1_000_000))
        for mode in ("uncal_maxsprt", "cal_maxsprt"):
            for rr in (2.0, 4.0):
                assert large.mean_rate(mode, "type2", rr) <= small.mean_rate(mode, "type2", rr)

    def test_rows_schema(self):
        s = mini_scenario(repeats=2)
        report = run_scenario(s)
        type1 = [r for r in report.rows if r.rate_type == "type1"]
        type2 = [r for r in report.rows if r.rate_type == "type2"]
        assert {r.mode for r in type1} == {"uncal_p", "uncal_maxsprt", "cal_p", "cal_maxsprt"}
        assert {r.effect_size for r in type1} == {1.0}
        assert {r.effect_size for r in type2} == {1.5, 2.0, 4.0}
        assert all(0.0 <= r.value <= 1.0 for r in report.rows)
        assert {r.repeat for r in report.rows} == {0, 1}


class TestConfoundingDemo:
    def test_confounded_estimates_exceed_one_and_tighten(self):
        rows = confounding_demo([10_000, 100_000], repeats=5, base_seed=11)
        by_size = {}
        for r in rows:
            by_size.setdefault(r.sample_size, []).append(r)
        means = {n: np.mean([r.relative_risk for r in rs]) for n, rs in by_size.items()}
        assert means[10_000] > 1.0
        assert means[100_000] > 1.0
        widths = {
            n: np.mean([r.ci_upper - r.ci_lower for r in rs]) for n, rs in by_size.items()
        }
        assert widths[100_000] < widths[10_000]

    def test_large_sample_ci_excludes_one(self):
        rows = confounding_demo([1_000_000], repeats=3, base_seed=11)
        assert all(r.ci_lower > 1.0 for r in rows)

    def test_no_confounding_recovers_null(self):
        rows = confounding_demo(
            [1_000_000], repeats=3, exposure_coef=0.0, outcome_coef=0.0, base_seed=11
        )
        for r in rows:
            assert r.ci_lower <= 1.0 <= r.ci_upper

    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            confounding_demo([500], repeats=1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mini_scenario(design="cohort"), "design must be 'historical' or 'sccs'"),
        (lambda: mini_scenario(sample_size=0), "sample_size must be positive"),
        (lambda: mini_scenario(looks=0), "looks and repeats must be at least 1"),
        (lambda: mini_scenario(repeats=0), "looks and repeats must be at least 1"),
        (lambda: mini_scenario(error_sd=-0.1), "error_sd must be nonnegative"),
        (lambda: ErrorRateReport("empty").mean_rate("cal_p", "type1"),
         "no rows for mode=cal_p rate_type=type1"),
        (lambda: confounding_demo([1000], repeats=0), "repeats must be at least 1"),
    ],
    ids=["design", "sample-size", "looks", "repeats", "error-sd", "no-rows", "demo-repeats"],
)
def test_input_check_raises_with_its_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message
