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

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
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
    "LookColumns",
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


# one look's statistics, an entry per outcome of ids (those seen by that look); cv is the
# look's uncalibrated cv and signals a bool array with a row per mode
LookColumns = namedtuple("LookColumns", "ids beta_hat se llr p_uncalibrated p_calibrated cv "
                                        "cv_calibrated error_model signals")


@dataclass(eq=False)  # compared by identity: the generated == cannot compare arrays
class SurveillanceResult:
    """A surveillance run as columns over ids, the sorted ids of every outcome seen.

    first_look[0] is the first look at which each outcome was informative and first_look[1 + k]
    the first at which modes[k] signaled, 0 for never. looks holds each look's LookColumns;
    `outcomes` builds per-outcome records from them when first read.
    """

    modes: tuple[str, ...]
    alpha: float
    ids: list[str]
    is_control: np.ndarray
    first_look: np.ndarray
    looks: list[LookColumns]
    fallback_looks: list[int] = field(default_factory=list)

    def signaled(self, selected: np.ndarray) -> tuple[int, list[int]]:
        """The selected outcomes ever informative: their number, and per mode how many signaled."""
        first = self.first_look[:, selected & (self.first_look[0] > 0)]
        return first.shape[1], (first[1:] > 0).sum(axis=1).tolist()

    @cached_property
    def outcomes(self) -> dict[str, OutcomeResult]:
        """Each outcome's records, one per look, blank for the looks before it was seen."""
        modes, records = self.modes, {oid: [] for oid in self.ids}
        for t, c in enumerate(self.looks, start=1):
            for oid in records.keys() - c.ids:
                records[oid].append(LookRecord(t, False, signals=dict.fromkeys(modes, False)))
            for oid, b, *values, signals in zip(
                c.ids, c.beta_hat, c.se, c.llr.tolist(), c.p_uncalibrated, c.p_calibrated,
                [c.cv] * len(c.ids), c.cv_calibrated, c.error_model, c.signals.T.tolist(),
            ):
                records[oid].append(
                    LookRecord(t, b is not None, b, *values, dict(zip(modes, signals))))
        firsts = ([k or None for k in row] for row in self.first_look[1:].T.tolist())
        return {oid: OutcomeResult(oid, control, records[oid], dict(zip(modes, first)))
                for oid, control, first in zip(self.ids, self.is_control.tolist(), firsts)}


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

    current_counts: dict[str, CountData] = {}
    ids: list[str] = []  # every outcome seen so far, sorted: the rows of each look's columns
    first = np.zeros((1 + len(modes), 0), dtype=int)  # SurveillanceResult.first_look
    per_look: list[LookColumns] = []
    full_model: ErrorModel | None = None  # the latest fit
    fallback_looks: list[int] = []

    for t, obs in enumerate(looks, start=1):
        if obs.look_index != t:
            raise ProtocolError(f"expected look {t}, got {obs.look_index}")
        if t > schedule.n_looks:
            raise ProtocolError(f"look {t} beyond the {schedule.n_looks}-look schedule")

        for outcome_id, counts in obs.counts.items():
            _check_nondecreasing(current_counts.get(outcome_id), counts, outcome_id)
            current_counts[outcome_id] = counts
        if len(current_counts) > len(ids):  # new outcomes: widen the columns
            grown = sorted(current_counts)
            row_of = {outcome_id: i for i, outcome_id in enumerate(grown)}
            widened = np.zeros((1 + len(modes), len(grown)), dtype=int)
            widened[:, [row_of[outcome_id] for outcome_id in ids]] = first
            first, ids = widened, grown
        rows = [current_counts[outcome_id] for outcome_id in ids]

        # estimates and p-values stay scalar `math`, one outcome at a time: numpy's log and
        # erfc differ from math's in the last bit on some inputs, and outputs print in full
        n = len(ids)
        beta_hat, se, p_unc, p_cal = ([None] * n for _ in range(4))
        for i, counts in enumerate(rows):
            try:
                beta_hat[i], se[i] = b, s = mle_and_se(counts)
            except UninformativeProfileError:
                continue
            p_unc[i] = uncalibrated_p(b, s)

        control_models: dict[str, ErrorModel] = {}
        if calibrate:
            informative_controls = [c for c, b in zip(ids, beta_hat)
                                    if b is not None and c in control_ids]
            control_profiles = [current_counts[c] for c in informative_controls]
            try:
                fitted = fit_error_model(control_profiles) if len(control_profiles) >= 2 else None
            except FitError:
                fitted = None
            if fitted is None:
                if full_model is None:
                    raise FitError(f"no systematic-error model available at look {t}")
                fallback_looks.append(t)
            else:
                full_model = fitted
                if leave_one_out and len(control_profiles) >= 3:
                    loo = leave_one_out_models(control_profiles)
                    control_models = {cid: full_model if m is None else m
                                      for cid, m in zip(informative_controls, loo)}

        # score the look as columns over `ids`, with one LLR call per count kind
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
        if calibrate:
            p_cal = [None if b is None else calibrated_p(b, s, model)
                     for b, s, model in zip(beta_hat, se, models)]
        cv_cal = [cal_cv(m) for m in models] if "cal_maxsprt" in modes else [None] * n

        fired = np.empty((1 + len(modes), n), dtype=bool)
        fired[0] = [b is not None for b in beta_hat]
        for k, mode in enumerate(modes):
            if mode == "uncal_maxsprt":
                fired[1 + k] = llr > uncal_cv
            elif mode == "cal_maxsprt":
                fired[1 + k] = llr > np.array(cv_cal)
            else:
                p = p_unc if mode == "uncal_p" else p_cal
                fired[1 + k] = [v is not None and v < schedule.alpha for v in p]
        first[fired & (first == 0)] = t
        per_look.append(LookColumns(ids, beta_hat, se, llr, p_unc, p_cal, uncal_cv, cv_cal, models,
                                    fired[1:]))

    is_control = np.array([outcome_id in control_ids for outcome_id in ids], dtype=bool)
    return SurveillanceResult(modes, schedule.alpha, ids, is_control, first, per_look,
                              fallback_looks)


def type1_report(result: SurveillanceResult) -> dict[str, float]:
    """Fraction of negative controls that ever signaled, per analysis mode.

    Controls that never produced an informative look are excluded from the
    denominator. Read from result.first_look; no per-outcome record is built.
    """
    n, signaled = result.signaled(result.is_control)
    if not n:
        raise ValueError("no informative negative controls in the results")
    return {mode: count / n for mode, count in zip(result.modes, signaled)}
