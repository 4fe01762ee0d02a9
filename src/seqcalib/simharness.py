"""Synthetic experiments measuring surveillance operating characteristics.

Scenarios cross two study designs (historical comparator, analyzed with the
Poisson model; self-controlled case series, analyzed with the binomial
model), two sample sizes, and three generating distributions of systematic
error. Each scenario simulates 200 outcomes (50 per true rate ratio in
{1, 1.5, 2, 4}) over 10 equally spaced looks; the rate-ratio-1 outcomes
double as the negative controls used to fit the error model at every look.
Type 1 and type 2 error rates are tabulated per repeat for the four
analysis modes, every scenario at nominal alpha ALPHA (0.05).

Baseline incidence is chosen so that mean event counts over the full
period match fixed anchors (23.1 per 100,000 exposed subjects for the
historical design; 18.1 exposed events per 100 exposed cases for the SCCS
design), which places the simulations in a realistic power regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .likelihood import BinomialCounts, CountData, PoissonCounts, tilted_proportion
from .maxsprt import LookSchedule
from .surveillance import ALL_MODES, LookObservation, run_surveillance, type1_report

__all__ = [
    "ConfoundingEstimate",
    "ErrorRateReport",
    "ErrorRateRow",
    "SimulationScenario",
    "confounding_demo",
    "generate_outcome_data",
    "paper_scenarios",
    "run_scenario",
    "scenario_schedule",
]

_MASK64 = (1 << 64) - 1
_DATA_TAG = 0x64617461
_DEMO_TAG = 0x636F6E66

DEFAULT_BASE_SEED = 424242
DESK_REPEATS = 20
FULL_REPEATS = 100
ALPHA = 0.05  # every scenario's nominal level, for both designs
# unused: critical values are exact; the benchmark scripts under bench/ still
# read these and pass replicates= to run_scenario
DESK_REPLICATES = 10_000
FULL_REPLICATES = 1_000_000

# historical comparator: outcomes per exposed subject over the whole period
POISSON_BASELINE_RATE = 23.1 / 100_000
# SCCS: 28 exposed days within a 273-day observation period minus a 30-day
# pre-exposure exclusion, with events arising uniformly in time
SCCS_NULL_EXPOSURE_PROPORTION = 28.0 / (273.0 - 30.0)
# SCCS: exposed (time-at-risk) events per nominal exposed case under the null
SCCS_NULL_EXPOSED_RATE = 18.1 / 100.0

_EFFECT_SIZES = ((1.0, 50), (1.5, 50), (2.0, 50), (4.0, 50))
_ERROR_DISTRIBUTIONS = ((0.0, 0.0), (0.0, 0.2), (0.2, 0.2))
_SAMPLE_SIZES = {
    "historical": {"small": 100_000, "large": 1_000_000},
    "sccs": {"small": 100, "large": 1_000},
}


@dataclass(frozen=True)
class SimulationScenario:
    """One simulation configuration: design, size, true error, looks, repeats."""

    name: str
    design: str
    sample_size: int
    effect_sizes: tuple[tuple[float, int], ...] = _EFFECT_SIZES
    error_mean: float = 0.0
    error_sd: float = 0.0
    looks: int = 10
    repeats: int = FULL_REPEATS
    base_seed: int = DEFAULT_BASE_SEED

    def __post_init__(self) -> None:
        if self.design not in ("historical", "sccs"):
            raise ValueError("design must be 'historical' or 'sccs'")
        if self.sample_size < 1:
            raise ValueError("sample_size must be positive")
        if self.looks < 1 or self.repeats < 1:
            raise ValueError("looks and repeats must be at least 1")
        if self.error_sd < 0:
            raise ValueError("error_sd must be nonnegative")
        sizes = dict(self.effect_sizes)
        if sizes.get(1.0, 0) < 1:
            raise ValueError("effect size 1 must be present (negative controls)")

    @property
    def n_outcomes(self) -> int:
        return sum(count for _, count in self.effect_sizes)


@dataclass(frozen=True)
class ErrorRateRow:
    repeat: int
    mode: str
    effect_size: float
    rate_type: str  # "type1" or "type2"
    value: float


@dataclass
class ErrorRateReport:
    scenario: str
    rows: list[ErrorRateRow] = field(default_factory=list)

    def mean_rate(self, mode: str, rate_type: str, effect_size: float | None = None) -> float:
        values = [
            r.value
            for r in self.rows
            if r.mode == mode
            and r.rate_type == rate_type
            and (effect_size is None or r.effect_size == effect_size)
        ]
        if not values:
            raise ValueError(f"no rows for mode={mode} rate_type={rate_type}")
        return float(np.mean(values))


@dataclass(frozen=True)
class ConfoundingEstimate:
    sample_size: int
    repeat: int
    relative_risk: float
    ci_lower: float
    ci_upper: float


def paper_scenarios(
    repeats: int = FULL_REPEATS, base_seed: int = DEFAULT_BASE_SEED
) -> list[SimulationScenario]:
    """The 12 standard scenarios: 2 designs x 2 sizes x 3 error distributions."""
    scenarios = []
    for design in ("historical", "sccs"):
        for size_label, sample_size in _SAMPLE_SIZES[design].items():
            for mu, sigma in _ERROR_DISTRIBUTIONS:
                scenarios.append(
                    SimulationScenario(
                        name=f"{design}-{size_label}-mu{mu:g}-sigma{sigma:g}",
                        design=design,
                        sample_size=sample_size,
                        error_mean=mu,
                        error_sd=sigma,
                        repeats=repeats,
                        base_seed=base_seed,
                    )
                )
    return scenarios


def scenario_schedule(scenario: SimulationScenario) -> LookSchedule:
    """Null expected counts per look, uniform across looks."""
    if scenario.design == "historical":
        total = POISSON_BASELINE_RATE * scenario.sample_size
        return LookSchedule(
            expected_increments=(total / scenario.looks,) * scenario.looks,
            alpha=ALPHA,
            model="poisson",
        )
    total_cases = SCCS_NULL_EXPOSED_RATE * scenario.sample_size / SCCS_NULL_EXPOSURE_PROPORTION
    return LookSchedule(
        expected_increments=(total_cases / scenario.looks,) * scenario.looks,
        alpha=ALPHA,
        model="binomial",
        exposure_proportion=SCCS_NULL_EXPOSURE_PROPORTION,
    )


def _outcome_rng(scenario: SimulationScenario, repeat_index: int, outcome_index: int):
    return np.random.default_rng(
        np.random.SeedSequence(
            [_DATA_TAG, scenario.base_seed & _MASK64, repeat_index, outcome_index]
        )
    )


def generate_outcome_data(
    scenario: SimulationScenario,
    effect_size: float,
    outcome_index: int,
    repeat_index: int,
) -> list[CountData | None]:
    """Cumulative counts per look for one outcome of one repeat.

    The outcome's bias term is drawn once from the scenario's error
    distribution and held fixed across looks. Historical-comparator outcomes
    accrue Poisson events at the baseline rate times effect and bias, with
    the reported expected counts left at the unbiased null. SCCS outcomes
    accrue case totals uniformly in time and split them into exposed counts
    with the null exposure odds tilted by effect and bias. Entries are None
    at looks where an SCCS outcome has no cases yet.
    """
    rng = _outcome_rng(scenario, repeat_index, outcome_index)
    tau = rng.normal(scenario.error_mean, scenario.error_sd)
    n_looks = scenario.looks

    if scenario.design == "historical":
        null_total = POISSON_BASELINE_RATE * scenario.sample_size
        true_rate = null_total * effect_size * math.exp(tau)
        increments = rng.poisson(true_rate / n_looks, size=n_looks)
        observed = np.cumsum(increments)
        expected = np.cumsum(np.full(n_looks, null_total / n_looks))  # the cv's, bit for bit
        return [
            PoissonCounts(int(observed[t]), float(expected[t])) for t in range(n_looks)
        ]

    p0 = SCCS_NULL_EXPOSURE_PROPORTION
    total_cases = SCCS_NULL_EXPOSED_RATE * scenario.sample_size / p0
    case_increments = rng.poisson(total_cases / n_looks, size=n_looks)
    p_true = tilted_proportion(p0, math.log(effect_size) + tau)
    exposed_increments = rng.binomial(case_increments, p_true)
    totals = np.cumsum(case_increments)
    exposed = np.cumsum(exposed_increments)
    return [
        BinomialCounts(int(exposed[t]), int(totals[t]), p0) if totals[t] > 0 else None
        for t in range(n_looks)
    ]


def run_scenario(
    scenario: SimulationScenario,
    *,
    replicates: int = DESK_REPLICATES,
) -> ErrorRateReport:
    """Simulate every repeat of a scenario and tabulate per-repeat error rates.

    Type 1 rates are the fraction of rate-ratio-1 outcomes that ever
    signaled; type 2 rates are one minus the signaled fraction per positive
    effect size, among the outcomes informative at some look. Both are read
    from the result's first-look matrix. The error model is fitted on all
    rate-ratio-1 outcomes at each look (no leave-one-out), mirroring a
    prospective study that tracks a dedicated negative-control set.
    replicates is accepted and ignored.
    """
    schedule = scenario_schedule(scenario)

    specs = [(f"rr{rr:g}-{k:02d}", rr) for rr, count in scenario.effect_sizes for k in range(count)]
    control_ids = [oid for oid, rr in specs if rr == 1.0]
    effect_of = dict(specs)
    positive_effects = sorted({rr for _, rr in specs if rr > 1.0})

    report = ErrorRateReport(scenario=scenario.name)
    for rep in range(scenario.repeats):
        looks = [LookObservation(t, {}) for t in range(1, scenario.looks + 1)]
        for outcome_index, (outcome_id, rr) in enumerate(specs):
            for look, counts in zip(looks, generate_outcome_data(scenario, rr, outcome_index, rep)):
                if counts is not None:
                    look.counts[outcome_id] = counts
        result = run_surveillance(schedule, looks, control_ids, leave_one_out=False)

        type1 = type1_report(result)
        report.rows += [ErrorRateRow(rep, mode, 1.0, "type1", type1[mode]) for mode in ALL_MODES]
        effect = np.array([effect_of[outcome_id] for outcome_id in result.ids])
        for rr in positive_effects:
            n, signaled = result.signaled(effect == rr)
            if n:
                for mode, count in zip(ALL_MODES, signaled):
                    report.rows.append(ErrorRateRow(rep, mode, rr, "type2", 1.0 - count / n))
    return report


def confounding_demo(
    sample_sizes: Sequence[int],
    repeats: int = 10,
    *,
    exposure_coef: float = 0.1,
    outcome_coef: float = 0.01,
    base_seed: int = DEFAULT_BASE_SEED,
) -> list[ConfoundingEstimate]:
    """Relative-risk estimates for an exposure with no causal effect.

    A standard-normal confounder shifts both the exposure probability
    (0.3 + exposure_coef * z) and the outcome probability
    (0.03 + outcome_coef * z), probabilities truncated to [0, 1]. The
    estimate converges above 1 as the sample grows whenever both
    coefficients are nonzero; setting them to zero removes the bias.
    CIs use the log-scale normal approximation for a ratio of proportions.
    """
    if any(n < 1000 for n in sample_sizes):
        raise ValueError("sample sizes below 1000 are too unstable for the demo")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    rows: list[ConfoundingEstimate] = []
    for size_index, n in enumerate(sample_sizes):
        for rep in range(repeats):
            rng = np.random.default_rng(
                np.random.SeedSequence([_DEMO_TAG, base_seed & _MASK64, size_index, rep])
            )
            z = rng.standard_normal(n)
            p_x = np.clip(0.3 + exposure_coef * z, 0.0, 1.0)
            p_y = np.clip(0.03 + outcome_coef * z, 0.0, 1.0)
            x = rng.random(n) < p_x
            y = rng.random(n) < p_y
            n1 = int(x.sum())
            n0 = n - n1
            a = int(y[x].sum())
            b = int(y[~x].sum())
            if min(n1, n0, a, b) == 0:
                rows.append(ConfoundingEstimate(n, rep, math.nan, math.nan, math.nan))
                continue
            log_rr = math.log((a / n1) / (b / n0))
            se = math.sqrt(1 / a - 1 / n1 + 1 / b - 1 / n0)
            rows.append(
                ConfoundingEstimate(
                    sample_size=n,
                    repeat=rep,
                    relative_risk=math.exp(log_rr),
                    ci_lower=math.exp(log_rr - 1.96 * se),
                    ci_upper=math.exp(log_rr + 1.96 * se),
                )
            )
    return rows
