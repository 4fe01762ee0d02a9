"""Sequential surveillance over accruing looks for a set of outcomes.

At every look the runner computes each outcome's exact estimate and
standard error from its cumulative counts, refits the systematic-error
distribution on the informative negative controls' counts, and scores
every outcome, on the schedule's count model, in all four analysis modes:
p-value at nominal alpha versus MaxSPRT, each with and without
calibration. All looks are read first, so that their refits run in one
lockstep (errormodel.fit_error_models). Negative controls themselves are
scored with leave-one-out error models (the real-data protocol; simulation
studies fit on all controls), except at a look with fewer than three
informative controls or a fallback look: there a control may be scored
with a model fitted on it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .calibration import calibrated_p, uncalibrated_p
from .errormodel import ErrorModel, FitError, fit_error_models, leave_one_out_models
from .errormodel import fit_error_model  # noqa: F401  unused, but bench/tracing.py rebinds this name here
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

    Fields are None where not computable: uninformative counts, or an outcome
    not yet observed.
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
# look's uncalibrated cv and signals a bool array with a row per mode of ALL_MODES
LookColumns = namedtuple("LookColumns", "ids beta_hat se llr p_uncalibrated p_calibrated cv "
                                        "cv_calibrated error_model signals")


@dataclass(eq=False)  # compared by identity: the generated == cannot compare arrays
class SurveillanceResult:
    """A surveillance run as columns over ids, the sorted ids of every outcome seen.

    first_look[0] is the first look at which each outcome was informative and first_look[1 + k]
    the first at which ALL_MODES[k] signaled, 0 for never. looks holds each look's LookColumns;
    `outcomes` builds per-outcome records from them when first read.
    """

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
        records = {oid: [] for oid in self.ids}
        for t, c in enumerate(self.looks, start=1):
            for oid in records.keys() - c.ids:
                records[oid].append(LookRecord(t, False, signals=dict.fromkeys(ALL_MODES, False)))
            for oid, b, *values, signals in zip(
                c.ids, c.beta_hat, c.se, c.llr.tolist(), c.p_uncalibrated, c.p_calibrated,
                [c.cv] * len(c.ids), c.cv_calibrated, c.error_model, c.signals.T.tolist(),
            ):
                records[oid].append(
                    LookRecord(t, b is not None, b, *values, dict(zip(ALL_MODES, signals))))
        firsts = ([k or None for k in row] for row in self.first_look[1:].T.tolist())
        return {oid: OutcomeResult(oid, control, records[oid], dict(zip(ALL_MODES, first)))
                for oid, control, first in zip(self.ids, self.is_control.tolist(), firsts)}


def _check_nondecreasing(previous: CountData | None, current: CountData, outcome_id: str) -> None:
    if previous is None:
        return
    if isinstance(current, PoissonCounts):
        ok = current.observed >= previous.observed and current.expected >= previous.expected
    else:
        ok = (
            current.exposed >= previous.exposed
            and current.total - current.exposed >= previous.total - previous.exposed
        )
    if not ok:
        raise ValueError(f"outcome {outcome_id}: cumulative counts decreased")


def run_surveillance(
    schedule: LookSchedule,
    looks: Iterable[LookObservation],
    negative_control_ids: Iterable[str],
    *,
    leave_one_out: bool = True,
) -> SurveillanceResult:
    """Process looks in order, scoring every outcome in all four modes of ALL_MODES.

    Looks must arrive with consecutive indices starting at 1; an outcome
    absent from a look keeps its previous cumulative counts, and no count
    may fall (for binomial counts, neither the exposed nor the unexposed
    count). Counts must follow the schedule's model, binomial ones at its
    exposure_proportion, or ValueError is raised. Output for look t never
    depends on later looks, so truncating the stream reproduces a prefix
    of the results exactly.

    Stages: every look is read, checked and estimated; all looks' models are
    fitted in one fit_error_models call; then each look is scored. So a look
    that breaks a rule above raises before any model or cv is computed.

    When no error model can be fitted at a look (fewer than two informative
    negative controls, or no finite optimum), the most recent successful fit
    is reused and the look index is recorded in fallback_looks (FitError at
    look 1). With leave_one_out, each informative control is scored with a
    model fitted without it, except at a fallback look or one with fewer
    than three informative controls: the fit used there includes every
    control that was informative when it was fitted.
    """
    control_ids = frozenset(negative_control_ids)
    if not control_ids:
        raise ValueError("calibrated modes require negative control ids")
    poisson = schedule.model == "poisson"

    current_counts: dict[str, CountData] = {}
    ids: list[str] = []  # every outcome seen so far, sorted: the rows of each look's columns
    staged = []  # per look: ids, counts, estimates, uncalibrated p, informative control rows
    for t, obs in enumerate(looks, start=1):
        if obs.look_index != t:
            raise ProtocolError(f"expected look {t}, got {obs.look_index}")
        if t > schedule.n_looks:
            raise ProtocolError(f"look {t} beyond the {schedule.n_looks}-look schedule")

        for outcome_id, counts in obs.counts.items():
            # a Poisson schedule has exposure_proportion None, and PoissonCounts no proportion
            if (isinstance(counts, PoissonCounts) != poisson
                    or getattr(counts, "null_proportion", None) != schedule.exposure_proportion):
                raise ValueError(f"outcome {outcome_id} look {t}: {counts} does not fit a "
                                 f"{schedule.model} schedule with exposure_proportion "
                                 f"{schedule.exposure_proportion}")
            _check_nondecreasing(current_counts.get(outcome_id), counts, outcome_id)
            current_counts[outcome_id] = counts
        if len(current_counts) > len(ids):
            ids = sorted(current_counts)
        rows = [current_counts[outcome_id] for outcome_id in ids]

        # estimates and p-values stay scalar `math`, one outcome at a time: numpy's log and
        # erfc differ from math's in the last bit on some inputs, and outputs print in full
        n = len(ids)
        beta_hat, se, p_unc = ([None] * n for _ in range(3))
        for i, counts in enumerate(rows):
            try:
                beta_hat[i], se[i] = b, s = mle_and_se(counts)
            except UninformativeProfileError:
                continue
            p_unc[i] = uncalibrated_p(b, s)
        controls = [i for i, (c, b) in enumerate(zip(ids, beta_hat))
                    if b is not None and c in control_ids]
        staged.append((ids, rows, beta_hat, se, p_unc, controls))

    fits = fit_error_models([[rows[i] for i in controls] for _, rows, *_, controls in staged])

    uncal_cv = compute_cv(schedule, NO_REPLICATES).cv
    cal_cv_cache: dict[tuple[float, float], float] = {}

    def cal_cv(model: ErrorModel) -> float:
        key = (model.mean, model.sd)
        if key not in cal_cv_cache:
            cal_cv_cache[key] = compute_calibrated_cv(schedule, model, NO_REPLICATES).cv
        return cal_cv_cache[key]

    seen: list[str] = []  # the previous look's ids
    first = np.zeros((1 + len(ALL_MODES), 0), dtype=int)  # SurveillanceResult.first_look
    per_look: list[LookColumns] = []
    full_model: ErrorModel | None = None  # the latest fit
    fallback_looks: list[int] = []
    for t, ((ids, rows, beta_hat, se, p_unc, controls), fitted) in enumerate(zip(staged, fits),
                                                                             start=1):
        if len(ids) > len(seen):  # new outcomes: widen the columns
            row_of = {outcome_id: i for i, outcome_id in enumerate(ids)}
            widened = np.zeros((1 + len(ALL_MODES), len(ids)), dtype=int)
            widened[:, [row_of[outcome_id] for outcome_id in seen]] = first
            first, seen = widened, ids
        if fitted is None:
            if full_model is None:
                raise FitError(f"no systematic-error model available at look {t}")
            fallback_looks.append(t)
        else:
            full_model = fitted
        models = [full_model] * len(ids)
        if fitted is not None and leave_one_out and len(controls) >= 3:
            loo = leave_one_out_models([rows[i] for i in controls])
            for i, m in zip(controls, loo):
                models[i] = full_model if m is None else m

        if poisson:
            llr = poisson_llr([c.observed for c in rows], [c.expected for c in rows])
        else:
            llr = binomial_llr([c.exposed for c in rows], [c.total for c in rows],
                               schedule.exposure_proportion)
        p_cal = [None if b is None else calibrated_p(b, s, model)
                 for b, s, model in zip(beta_hat, se, models)]
        cv_cal = [cal_cv(m) for m in models]

        # row 0 informative, then one row per mode of ALL_MODES
        fired = np.array([[b is not None for b in beta_hat],
                          [p is not None and p < schedule.alpha for p in p_unc],
                          llr > uncal_cv,
                          [p is not None and p < schedule.alpha for p in p_cal],
                          llr > np.array(cv_cal)], dtype=bool)
        first[fired & (first == 0)] = t
        per_look.append(LookColumns(ids, beta_hat, se, llr, p_unc, p_cal, uncal_cv, cv_cal, models,
                                    fired[1:]))

    is_control = np.array([outcome_id in control_ids for outcome_id in seen], dtype=bool)
    return SurveillanceResult(seen, is_control, first, per_look, fallback_looks)


def type1_report(result: SurveillanceResult) -> dict[str, float]:
    """Fraction of negative controls that ever signaled, per analysis mode.

    Controls that never produced an informative look are excluded from the
    denominator. Read from result.first_look; no per-outcome record is built.
    """
    n, signaled = result.signaled(result.is_control)
    if not n:
        raise ValueError("no informative negative controls in the results")
    return {mode: count / n for mode, count in zip(ALL_MODES, signaled)}
