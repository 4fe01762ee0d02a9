"""Sequential surveillance over accruing looks for a set of outcomes.

At every look the runner computes each outcome's exact estimate and
standard error from its cumulative counts, refits the systematic-error
distribution on the informative negative controls' counts, and evaluates
four analysis modes per outcome: p-value at nominal alpha versus MaxSPRT,
each with or without calibration. Negative controls themselves are scored
with leave-one-out error models so no control calibrates itself (the
real-data protocol); simulation studies disable that and fit on all
controls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .calibration import calibrated_p, uncalibrated_p
from .errormodel import ErrorModel, FitError, fit_error_model, leave_one_out_models
from .likelihood import (
    CountData,
    PoissonCounts,
    UninformativeProfileError,
    binomial_llr,
    mle_and_se,
    poisson_llr,
    profile_from_counts,  # noqa: F401  unused, but bench/tracing.py rebinds this name here
)
from .maxsprt import NO_REPLICATES, LookSchedule, compute_calibrated_cv, compute_cv

__all__ = [
    "ALL_MODES",
    "LookObservation",
    "LookRecord",
    "OutcomeResult",
    "ProtocolError",
    "SurveillanceResult",
    "run_surveillance",
    "type1_report",
]

# analysis modes: per-look p-value at nominal alpha vs. MaxSPRT threshold,
# each with or without systematic-error calibration
ALL_MODES = ("uncal_p", "uncal_maxsprt", "cal_p", "cal_maxsprt")
_CAL_MODES = ("cal_p", "cal_maxsprt")


class ProtocolError(RuntimeError):
    """Looks arrived out of order or beyond the schedule."""


@dataclass(frozen=True)
class LookObservation:
    """Cumulative counts for every observed outcome at one look (1-based index)."""

    look_index: int
    counts: Mapping[str, CountData]


@dataclass
class LookRecord:
    """Per-outcome statistics and signal states at one look.

    Fields are None where not computable (uninformative counts, outcome not
    yet observed) or not requested (mode not enabled).
    """

    look: int
    informative: bool
    beta_hat: float | None = None
    se: float | None = None
    llr: float | None = None
    p_uncalibrated: float | None = None
    p_calibrated: float | None = None
    cv: float | None = None
    cv_calibrated: float | None = None
    error_model: ErrorModel | None = None
    signals: dict[str, bool] = field(default_factory=dict)


@dataclass
class OutcomeResult:
    outcome_id: str
    is_negative_control: bool
    looks: list[LookRecord] = field(default_factory=list)
    first_signal_look: dict[str, int | None] = field(default_factory=dict)


@dataclass
class SurveillanceResult:
    outcomes: dict[str, OutcomeResult]
    modes: tuple[str, ...]
    alpha: float
    fallback_looks: list[int] = field(default_factory=list)


def _check_nondecreasing(previous: CountData | None, current: CountData, outcome_id: str) -> None:
    if previous is None:
        return
    if type(previous) is not type(current):
        raise ValueError(f"outcome {outcome_id}: count model changed between looks")
    if isinstance(current, PoissonCounts):
        ok = current.observed >= previous.observed and current.expected >= previous.expected
    else:
        ok = (
            current.exposed >= previous.exposed
            and current.total - current.exposed >= previous.total - previous.exposed
            and current.null_proportion == previous.null_proportion
        )
    if not ok:
        raise ValueError(f"outcome {outcome_id}: cumulative counts decreased")


def run_surveillance(
    schedule: LookSchedule,
    looks: Iterable[LookObservation],
    negative_control_ids: Iterable[str],
    modes: Sequence[str] = ALL_MODES,
    *,
    leave_one_out: bool = True,
) -> SurveillanceResult:
    """Process looks in order, updating statistics and signal flags per outcome.

    Looks must arrive with consecutive indices starting at 1; an outcome
    absent from a look keeps its previous cumulative counts, and no count
    may fall (for binomial counts, neither the exposed nor the unexposed
    count). Output for look t never depends on later looks, so truncating
    the stream reproduces a prefix of the results exactly.

    When no error model can be fitted at a look (fewer than two informative
    negative controls, or no finite optimum), the most recent successful fit
    is reused and the look index is recorded in fallback_looks.
    """
    modes = tuple(modes)
    if not modes:
        raise ValueError("at least one analysis mode is required")
    unknown = set(modes) - set(ALL_MODES)
    if unknown:
        raise ValueError(f"unknown modes: {sorted(unknown)}")
    control_ids = frozenset(negative_control_ids)
    calibrate = any(m in modes for m in _CAL_MODES)
    if calibrate and not control_ids:
        raise ValueError("calibrated modes require negative control ids")

    uncal_cv = compute_cv(schedule, NO_REPLICATES).cv if "uncal_maxsprt" in modes else None
    cal_cv_cache: dict[tuple[float, float], float] = {}

    def cal_cv(model: ErrorModel) -> float:
        key = (model.mean, model.sd)
        if key not in cal_cv_cache:
            cal_cv_cache[key] = compute_calibrated_cv(schedule, model, NO_REPLICATES).cv
        return cal_cv_cache[key]

    outcomes: dict[str, OutcomeResult] = {}
    current_counts: dict[str, CountData] = {}
    ids: list[str] = []  # every outcome seen so far, sorted: the rows of each look's columns
    first = np.zeros((len(modes), 0), dtype=int)  # first-signal look per mode and row, 0 = none
    last_full_model: ErrorModel | None = None
    fallback_looks: list[int] = []
    next_look = 1

    for obs in looks:
        if obs.look_index != next_look:
            raise ProtocolError(f"expected look {next_look}, got {obs.look_index}")
        if obs.look_index > schedule.n_looks:
            raise ProtocolError(f"look {obs.look_index} beyond the {schedule.n_looks}-look schedule")
        next_look += 1
        t = obs.look_index

        for outcome_id, counts in obs.counts.items():
            _check_nondecreasing(current_counts.get(outcome_id), counts, outcome_id)
            current_counts[outcome_id] = counts
        if len(current_counts) > len(ids):  # new outcomes: widen the columns
            grown = sorted(current_counts)
            row_of = {outcome_id: i for i, outcome_id in enumerate(grown)}
            widened = np.zeros((len(modes), len(grown)), dtype=int)
            widened[:, [row_of[outcome_id] for outcome_id in ids]] = first
            first, ids = widened, grown
            for outcome_id in (o for o in ids if o not in outcomes):
                # pad looks from before the outcome was first observed
                padding = [LookRecord(k, False, signals=dict.fromkeys(modes, False))
                           for k in range(1, t)]
                outcomes[outcome_id] = OutcomeResult(outcome_id, outcome_id in control_ids, padding)
        rows = [current_counts[outcome_id] for outcome_id in ids]

        estimates: dict[str, tuple[float, float]] = {}
        for outcome_id, counts in zip(ids, rows):
            try:
                estimates[outcome_id] = mle_and_se(counts)
            except UninformativeProfileError:
                pass

        full_model: ErrorModel | None = None
        control_models: dict[str, ErrorModel] = {}
        if calibrate:
            informative_controls = sorted(c for c in control_ids if c in estimates)
            control_profiles = [current_counts[c] for c in informative_controls]
            if len(control_profiles) >= 2:
                try:
                    full_model = fit_error_model(control_profiles)
                except FitError:
                    full_model = None
            if full_model is None:
                if last_full_model is None:
                    raise FitError(f"no systematic-error model available at look {t}")
                full_model = last_full_model
                fallback_looks.append(t)
            else:
                last_full_model = full_model
                if leave_one_out and len(control_profiles) >= 3:
                    loo = leave_one_out_models(control_profiles)
                    control_models = {
                        cid: (m if m is not None else full_model)
                        for cid, m in zip(informative_controls, loo)
                    }

        # score the look as columns over `ids`, with one LLR call per count kind
        n = len(ids)
        llr = np.zeros(n)
        poisson = [(i, c.observed, c.expected)
                   for i, c in enumerate(rows) if isinstance(c, PoissonCounts)]
        binomial = [(i, c.exposed, c.total, c.null_proportion)
                    for i, c in enumerate(rows) if not isinstance(c, PoissonCounts)]
        for columns, count_llr in ((poisson, poisson_llr), (binomial, binomial_llr)):
            if columns:
                kind_rows, *args = zip(*columns)
                llr[list(kind_rows)] = count_llr(*args)
        models = [control_models.get(outcome_id, full_model) for outcome_id in ids]
        # estimates and p-values stay scalar `math`, one outcome at a time: numpy's log and
        # erfc differ from math's in the last bit on some inputs, and outputs print in full
        beta_hat, se, p_unc, p_cal = ([None] * n for _ in range(4))
        for i, outcome_id in enumerate(ids):
            if outcome_id in estimates:
                beta_hat[i], se[i] = b, s = estimates[outcome_id]
                p_unc[i] = uncalibrated_p(b, s)
                if calibrate:
                    p_cal[i] = calibrated_p(b, s, models[i])
        cv_cal = [cal_cv(m) for m in models] if "cal_maxsprt" in modes else [None] * n

        fired = np.empty((len(modes), n), dtype=bool)
        for k, mode in enumerate(modes):
            if mode == "uncal_maxsprt":
                fired[k] = llr > uncal_cv
            elif mode == "cal_maxsprt":
                fired[k] = llr > np.array(cv_cal)
            else:
                p = p_unc if mode == "uncal_p" else p_cal
                fired[k] = [v is not None and v < schedule.alpha for v in p]
        first[fired & (first == 0)] = t

        for i, (outcome_id, llr_i, signals) in enumerate(zip(ids, llr.tolist(), fired.T.tolist())):
            outcomes[outcome_id].looks.append(LookRecord(
                look=t, informative=outcome_id in estimates, beta_hat=beta_hat[i], se=se[i],
                llr=llr_i, p_uncalibrated=p_unc[i], p_calibrated=p_cal[i], cv=uncal_cv,
                cv_calibrated=cv_cal[i], error_model=models[i], signals=dict(zip(modes, signals)),
            ))

    for outcome_id, first_looks in zip(ids, first.T.tolist()):
        outcomes[outcome_id].first_signal_look = {m: k or None for m, k in zip(modes, first_looks)}
    return SurveillanceResult(
        outcomes=outcomes, modes=modes, alpha=schedule.alpha, fallback_looks=fallback_looks
    )


def type1_report(result: SurveillanceResult) -> dict[str, float]:
    """Fraction of negative controls that ever signaled, per analysis mode.

    Controls that never produced an informative look are excluded from the
    denominator.
    """
    controls = [
        o
        for o in result.outcomes.values()
        if o.is_negative_control and any(r.informative for r in o.looks)
    ]
    if not controls:
        raise ValueError("no informative negative controls in the results")
    return {
        mode: sum(1 for o in controls if o.first_signal_look.get(mode) is not None) / len(controls)
        for mode in result.modes
    }
