import math

import numpy as np
import pytest

from seqcalib.likelihood import BinomialCounts, PoissonCounts
from seqcalib.simharness import (
    SCCS_NULL_EXPOSURE_PROPORTION,
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
        assert all(s.looks == 10 and s.alpha == 0.05 for s in scenarios)
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
