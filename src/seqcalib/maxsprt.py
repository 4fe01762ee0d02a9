"""Exact critical values for maximum sequential probability ratio tests.

A surveillance run makes T scheduled looks at accruing data and signals as
soon as the log-likelihood ratio at a look exceeds a critical value chosen
so that the probability of any exceedance under the null is at most alpha.

The exceedance probability alpha(c) of a candidate critical value c is
computed exactly by a group-sequential recursion over the cumulative count:
its distribution is carried from look to look by convolving it with that
look's increment pmf, and every count whose LLR at that look exceeds c is
absorbed (zeroed). alpha(c) is one minus the mass that survives the last
look. alpha(c) only changes at attainable LLR values, and the critical value
is the smallest attainable value whose exceedance probability is at most
alpha (Kulldorff et al. 2011, Sequential Analysis 30:58-78).

Each distribution is held as a band of counts: probabilities below 1e-24
(less where the calibrated weights below are large) are dropped from its
ends (each far below the rounding error of alpha), so the work per look
grows with the spread of the counts, not with their size. Pmfs are evaluated
through log-gamma, which limits alpha's accuracy to about 1e-13 at a
thousand counts and 1e-10 at a hundred thousand. Counts are supported up to
_MAX_COUNTS.

The calibrated variant shifts each look's null by a systematic error
b_t = mean_t + sd * z, where the standard-normal innovation z is shared by
all looks of an outcome (rate multiplier exp(b_t) for Poisson, odds
multiplier for binomial), while the LLR is still evaluated against the
unadjusted null. Because the looks share the sd, the likelihood ratio of a
count path under z against z = 0 depends on the path only through its final
count, so the recursion runs once and each final count's surviving mass is
weighted by that ratio integrated over z with Gauss-Hermite quadrature.
With sd 0 the weight is exactly 1, so a (0, 0) model runs the uncalibrated
computation itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit, gammaln, logsumexp, xlog1py, xlogy

from .errormodel import ErrorModel
from .likelihood import binomial_llr, poisson_llr, tilted_proportion

__all__ = [
    "CriticalValueError",
    "CriticalValueResult",
    "LookSchedule",
    "MonteCarloConfig",
    "compute_calibrated_cv",
    "compute_cv",
]

GH_POINTS = 32
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(GH_POINTS)
# the recursion carries each count's mass under its base row, which is its
# mass under the mixture divided by its weight; a row keeps probabilities
# down to 1e-24 over its largest weight, so a lower cap on the log weight
# gives narrower bands but more rows
_MAX_LOG_WEIGHT = 100.0
# the weight tables span every count up to the largest that survives the
# last look: a few hundred MB at this size
_MAX_COUNTS = 1 << 20
_LOG_DROP = math.log(1e-24)


class CriticalValueError(RuntimeError):
    """The exact critical value cannot be computed in double precision."""


@dataclass(frozen=True)
class LookSchedule:
    """Number and size of scheduled looks for one surveillance run.

    expected_increments holds the additional expected event count accrued
    between consecutive looks (not cumulative totals). For the binomial
    model, exposure_proportion is the null probability that an event is
    exposed, and each look's expected count is rounded to the nearest
    positive integer to serve as the binomial trial count.
    """

    expected_increments: tuple[float, ...]
    alpha: float
    model: str = "poisson"
    exposure_proportion: float | None = None

    def __post_init__(self) -> None:
        increments = tuple(float(e) for e in self.expected_increments)
        object.__setattr__(self, "expected_increments", increments)
        if not increments:
            raise ValueError("schedule needs at least one look")
        if any(not (math.isfinite(e) and e > 0) for e in increments):
            raise ValueError("expected increments must be positive and finite")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if self.model not in ("poisson", "binomial"):
            raise ValueError("model must be 'poisson' or 'binomial'")
        if self.model == "binomial":
            p = self.exposure_proportion
            if p is None or not (0.0 < p < 1.0):
                raise ValueError("binomial schedules need exposure_proportion in (0, 1)")
        elif self.exposure_proportion is not None:
            raise ValueError("exposure_proportion only applies to binomial schedules")

    @property
    def n_looks(self) -> int:
        return len(self.expected_increments)

    def cumulative_expected(self) -> np.ndarray:
        return np.cumsum(self.expected_increments)

    def binomial_trials(self) -> np.ndarray:
        """Per-look trial counts: expected increments rounded, floored at 1."""
        return np.maximum(1, np.rint(self.expected_increments)).astype(np.int64)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Accepted and ignored: critical values are exact, so nothing is simulated.

    Kept only for the benchmark scripts under bench/: they construct it and
    pass it to compute_cv and compute_calibrated_cv, and their tracer reads
    `replicates` from the last positional argument of every cv call, so the
    callers in this package pass NO_REPLICATES. Both can go once bench/
    stops using them.
    """

    replicates: int = 0
    base_seed: int = 0


NO_REPLICATES = MonteCarloConfig()


def _support(mean: float, variance: float, log_tol: float) -> tuple[int, int]:
    """Count range outside of which a Poisson or binomial pmf is below exp(log_tol).

    By Bernstein's inequality either tail beyond mean +- d has probability
    at most exp(-d**2 / (2 * (variance + d / 3))), which for this d is below
    exp(log_tol).
    """
    d = math.sqrt(-2.0 * log_tol * variance) - log_tol
    return max(0, math.floor(mean - d)), math.ceil(mean + d)


def _trim(first: int, values: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    """Drop the values below tol at both ends of a band that starts at count first."""
    kept = np.flatnonzero(values >= tol)
    if kept.size == 0:
        return first, values[:0]
    return first + int(kept[0]), values[kept[0] : kept[-1] + 1]


@dataclass(frozen=True)
class CriticalValueResult:
    """Critical value plus the exact null probability of strictly exceeding it."""

    cv: float
    attained_alpha: float


def _normalize_models(
    models: ErrorModel | Sequence[ErrorModel], n_looks: int
) -> list[ErrorModel]:
    if isinstance(models, ErrorModel):
        return [models] * n_looks
    models = list(models)
    if len(models) == 1:
        return models * n_looks
    if len(models) != n_looks:
        raise ValueError(f"need 1 or {n_looks} error models, got {len(models)}")
    return models


class _NullRecursion:
    """Exceedance probability of any candidate cv for one schedule and bias models.

    Looks share one sd, so conditional on the innovation z the null at every
    look is the mean-shifted null tilted by exp(sd * z) on the rate or odds
    scale, and the likelihood ratio of a count path under z against a base
    innovation z_r depends on the path only through its final cumulative
    count x. The recursion therefore runs under a few base innovations
    (rows), and the mass surviving at x is weighted by that ratio integrated
    over z. Each x uses the row nearest the mode of its integrand, so every
    mass that matters stays far from floating-point underflow; an sd of 0
    gives the single row z_r = 0 with weight 1.

    Each row's count distribution is held as a band of counts, trimmed at
    both ends to probabilities of at least 1e-24 over the row's largest
    weight. Looks at which no count of a row can reach the boundary are not
    convolved one by one: their increments are pooled and convolved once,
    at the next look the pooled distribution can cross.
    """

    def __init__(self, schedule: LookSchedule, models: list[ErrorModel]) -> None:
        sds = {m.sd for m in models}
        if len(sds) > 1:
            raise ValueError("per-look error models must share one sd")
        self.sd = sds.pop()
        self.mean = np.array([m.mean for m in models])
        self.poisson = schedule.model == "poisson"
        if self.poisson:
            self.increments = np.asarray(schedule.expected_increments)
            self.cumulative = schedule.cumulative_expected()
            self.rate = float((self.increments * np.exp(self.mean)).sum())
            self.cap = math.inf
            null_mean = self.cumulative
        else:
            p = self.p = schedule.exposure_proportion
            self.increments = schedule.binomial_trials()
            self.cumulative = np.cumsum(self.increments)
            looks = np.stack([self.increments, math.log(p / (1.0 - p)) + self.mean], axis=1)
            groups, multiplicity = np.unique(looks, axis=0, return_counts=True)
            self.trials = (groups[:, 0] * multiplicity)[:, None]  # looks alike share a term
            self.log_odds = groups[:, 1][:, None]
            self.cap = int(self.cumulative[-1]) + 1
            null_mean = self.cumulative * p
        # per look, a count whose LLR is 0, so that every cv keeps it
        self._floor = np.maximum(np.floor(null_mean).astype(np.int64) - 1, 0)
        # looks with equal increments and means share one increment pmf
        keys = list(zip(self.increments.tolist(), self.mean.tolist()))
        self.pmf_of_look = [keys.index(key) for key in keys]
        self._limits: dict[float, np.ndarray] = {}
        self._modes = self._log_weights = np.zeros(0)
        self._resize(min(2 * int(null_mean[-1]) + 16, self.cap, _MAX_COUNTS))

    def _log_ratio(self, x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, ...]:
        """Log likelihood ratio of final count x under innovation z against z = 0,
        with its first and second derivatives in z. x and z are 1-D and equal length."""
        s = self.sd
        if self.poisson:
            rate = self.rate * np.exp(s * z)
            return s * z * x - (rate - self.rate), s * (x - rate), -s * s * rate
        u = self.log_odds + s * z  # looks alike x counts
        q = expit(u)
        survive = self.trials * (np.logaddexp(0.0, u) - np.logaddexp(0.0, self.log_odds))
        return (
            s * z * x - survive.sum(axis=0),
            s * (x - (self.trials * q).sum(axis=0)),
            -s * s * (self.trials * q * (1.0 - q)).sum(axis=0),
        )

    def _log_weight(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mode of z -> ratio(x, z) * phi(z) and the log of its integral, per count x.

        The integral is Gauss-Hermite quadrature centred on the mode and
        scaled by the curvature there.
        """
        # the log integrand is concave in z: Newton steps, bisecting whenever
        # a step leaves the bracket; beyond |z| = 40, phi(z) < exp(-800)
        lo, hi = np.full_like(x, -40.0), np.full_like(x, 40.0)
        mode = np.zeros_like(x)
        for _ in range(100):
            _, slope, curvature = self._log_ratio(x, mode)
            rising = slope > mode
            lo, hi = np.where(rising, mode, lo), np.where(rising, hi, mode)
            newton = mode - (slope - mode) / (curvature - 1.0)
            step = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi)) - mode
            mode += step
            if np.max(np.abs(step)) < 1e-12:
                break
        scale = 1.0 / np.sqrt(1.0 - self._log_ratio(x, mode)[2])
        z = mode + math.sqrt(2.0) * scale * _GH_X[:, None]  # nodes x counts
        terms = self._log_ratio(np.broadcast_to(x, z.shape).ravel(), z.ravel())[0]
        terms = terms.reshape(z.shape) + np.log(_GH_W)[:, None] + _GH_X[:, None] ** 2 - 0.5 * z**2
        return mode, np.log(scale / math.sqrt(math.pi)) + logsumexp(terms, axis=0)

    def _mixture(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Base innovations (rows), each count's row, and its weight:
        E_z of the likelihood ratio of x under z against its row's innovation.

        A count whose mixture probability is below exp(_LOG_DROP) (a
        Chernoff bound: its probability under z = 0 is at most
        exp(-log ratio at any z)) gets weight 0. Rows sit at the modes of
        counts evenly spaced on the variance-stabilising scale of the count
        model (sqrt(x) for Poisson, arcsin(sqrt(x / n)) for binomial), which
        keeps the log weights level, and are added until no log weight
        exceeds _MAX_LOG_WEIGHT.
        """
        if self.sd == 0:
            return np.zeros(1), np.zeros(x.size, dtype=np.intp), np.ones(x.size)
        # counts from an earlier, smaller table keep their modes and log weights
        new = range(self._modes.size, x.size, 4096)
        chunks = [self._log_weight(x[i : i + 4096]) for i in new]
        mode = self._modes = np.concatenate([self._modes, *(m for m, _ in chunks)])
        log_weight = self._log_weights = np.concatenate([self._log_weights, *(w for _, w in chunks)])
        kept = log_weight - self._log_ratio(x, mode)[0] >= _LOG_DROP
        if not kept.any():  # the table ends below every count that matters
            return np.zeros(1), np.zeros(x.size, dtype=np.intp), np.zeros(x.size)
        n = self.cap - 1
        stable = np.sqrt(x[kept]) if self.poisson else np.arcsin(np.sqrt(x[kept] / n))
        for n_rows in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            if n_rows == 1:
                rows = np.zeros(1)
            else:
                spaced = np.linspace(stable[0], stable[-1], n_rows)
                anchors = spaced**2 if self.poisson else n * np.sin(spaced) ** 2
                rows = np.interp(anchors, x[kept], mode[kept])
            row = np.searchsorted(0.5 * (rows[1:] + rows[:-1]), mode)  # nearest row
            relative = log_weight - self._log_ratio(x, rows[row])[0]
            if relative[kept].max() <= _MAX_LOG_WEIGHT:
                return rows, row, np.exp(np.where(kept, relative, -np.inf))
        raise CriticalValueError(
            f"error model sd {self.sd:g} is too wide for an exact critical value "
            f"over final counts up to {x.size - 1}"
        )

    def _resize(self, size: int) -> None:
        self.size = size
        self.rows, self.row_of_count, self.weight = self._mixture(np.arange(size, dtype=float))
        largest = np.zeros(self.rows.size)  # rows that weight no count are never run
        np.maximum.at(largest, self.row_of_count, self.weight)
        self.used = np.flatnonzero(largest > math.exp(_LOG_DROP))
        self.log_tol = _LOG_DROP - np.log(np.maximum(largest, 1.0))
        # mean and variance of the count accrued by each look, per row
        shift = self.mean[:, None] + self.sd * self.rows[None, :]
        if self.poisson:
            mean = variance = self.increments[:, None] * np.exp(shift)
        else:
            q = tilted_proportion(self.p, shift)
            mean = self.increments[:, None] * q
            variance = mean * (1.0 - q)
        start = np.zeros((1, self.rows.size))
        self._accrued = np.cumsum(np.vstack([start, mean]), axis=0)
        self._spread = np.cumsum(np.vstack([start, variance]), axis=0)
        self._pmfs: dict[tuple[int, int], tuple[int, np.ndarray]] = {}

    def _llr(self, looks: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """LLR at each given look of the cumulative count given with it."""
        if self.poisson:
            return np.asarray(poisson_llr(counts, self.cumulative[looks]))
        totals = self.cumulative[looks]
        llr = binomial_llr(np.minimum(counts, totals), totals, self.p)
        return np.where(counts > totals, np.inf, llr)

    def limits(self, c: float) -> np.ndarray:
        """Per look, the number of counts whose LLR is at most c (LLR rises with the count)."""
        if c not in self._limits:
            looks = np.arange(self.cumulative.size)
            lo = self._floor  # LLR <= c
            if self.poisson:  # LLR(x) >= (x - e)^2 / 2x, so LLR > c above this
                e = self.cumulative
                hi = np.ceil(e + c + np.sqrt(c * c + 2.0 * c * e)).astype(np.int64) + 1
                while np.any(stuck := self._llr(looks, hi) <= c):
                    hi = np.where(stuck, 2 * hi, hi)
            else:  # LLR(k) >= 2n (k/n - p)^2 (Pinsker), so LLR > c above this
                n = self.cumulative
                hi = np.minimum(np.ceil(n * self.p + np.sqrt(0.5 * c * n)).astype(np.int64), n) + 1
            if (hi - lo).sum() <= 4096:  # few enough to score every count in between
                counts = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
                kept = self._llr(np.repeat(looks, hi - lo), counts) <= c
                lo = lo + np.add.reduceat(kept, np.cumsum(hi - lo) - (hi - lo)) - 1
                hi = lo + 1
            while np.any(hi - lo > 1):
                mid = (lo + hi) // 2
                above = self._llr(looks, mid) > c
                lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
            self._limits[c] = hi
        return self._limits[c]

    def _pmf(self, row: int, looks: range) -> tuple[int, np.ndarray]:
        """First count and probabilities of the count accrued over looks under a row.

        Probabilities are computed only within Bernstein bounds outside of
        which they fall below the row's drop tolerance, and the values below
        it at either end are trimmed.
        """
        single = len(looks) == 1
        key = (row, self.pmf_of_look[looks.start])
        if single and key in self._pmfs:
            return self._pmfs[key]
        log_tol = self.log_tol[row]
        shift = self.mean[looks.start : looks.stop] + self.sd * self.rows[row]
        increments = self.increments[looks.start : looks.stop]
        if self.poisson:
            rate = float((increments * np.exp(shift)).sum())
            first, last = _support(rate, rate, log_tol)
            k = np.arange(first, last + 1)
            pmf = np.exp(xlogy(k, rate) - rate - gammaln(k + 1))
        else:
            q_of_look = tilted_proportion(self.p, shift)
            first, pmf = 0, np.ones(1)
            for q in np.unique(q_of_look):
                n = int(increments[q_of_look == q].sum())
                lo, hi = _support(n * q, n * q * (1.0 - q), log_tol)
                k = np.arange(lo, min(hi, n) + 1)
                log_pmf = (
                    gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                    + xlogy(k, q) + xlog1py(n - k, -q)
                )
                first, pmf = first + lo, np.convolve(pmf, np.exp(log_pmf))
        first, pmf = _trim(first, pmf, math.exp(log_tol))
        if single and pmf.size <= 4096:
            self._pmfs[key] = first, pmf
        return first, pmf

    def exceedance(self, c: float) -> float:
        """Null probability that the LLR exceeds c at some look."""
        limits = self.limits(c).tolist()
        if self.size < limits[-1]:
            if limits[-1] > _MAX_COUNTS:
                raise CriticalValueError(
                    f"an exact critical value needs counts up to {limits[-1] - 1}, "
                    f"beyond the supported {_MAX_COUNTS - 1}"
                )
            self._resize(min(max(2 * self.size, limits[-1]), self.cap, _MAX_COUNTS))
        last = len(limits) - 1
        survived = 0.0
        for row in self.used.tolist():
            log_tol = self.log_tol[row]
            tol = math.exp(log_tol)
            first, f = 0, np.ones(1)  # counts first, first + 1, ... before the first look
            pooled = 0  # first look not yet convolved into f
            for t, limit in enumerate(limits):
                if t < last:
                    mean = self._accrued[t + 1, row] - self._accrued[pooled, row]
                    variance = self._spread[t + 1, row] - self._spread[pooled, row]
                    if first + f.size - 1 + _support(mean, variance, log_tol)[1] < limit:
                        continue  # no count can cross at this look
                g_first, g = self._pmf(row, range(pooled, t + 1))
                n = limit - first - g_first  # keep counts below the limit
                f = np.convolve(f[:n], g[:n])[:n] if n > 0 else f[:0]
                first, f = _trim(first + g_first, f, tol)
                pooled = t + 1
                if f.size == 0:
                    break
            band = slice(first, first + f.size)
            weight = np.where(self.row_of_count[band] == row, self.weight[band], 0.0)
            survived += float(f @ weight)
        return max(0.0, 1.0 - survived)

    def final_look_floor(self, alpha: float) -> float:
        """An LLR value c with alpha(c) > alpha by the final look alone, or 0.

        Exceeding c at the final look is one way of exceeding it at some
        look, so any c that the final count alone exceeds with probability
        above alpha lies below the cv.
        """
        mass = np.zeros(self.size)
        for row in self.used.tolist():
            first, f = self._pmf(row, range(self.cumulative.size))  # no absorption
            band = slice(first, min(first + f.size, self.size))
            weight = np.where(self.row_of_count[band] == row, self.weight[band], 0.0)
            mass[band] += f[: weight.size] * weight
        above = np.flatnonzero(1.0 - np.cumsum(mass) > alpha)  # P(final count > x) > alpha
        if above.size == 0:
            return 0.0
        last = np.array([self.cumulative.size - 1])
        return float(self._llr(last, np.array([above[-1]]))[0])

    def candidates(self, lo: float, hi: float) -> np.ndarray:
        """Attainable LLR values in (lo, hi], ascending."""
        start, stop = self.limits(lo), self.limits(hi)
        looks = np.repeat(np.arange(start.size), stop - start)
        counts = np.concatenate([np.arange(a, b) for a, b in zip(start, stop)])
        return np.unique(self._llr(looks, counts))


def _exact_cv(schedule: LookSchedule, models: list[ErrorModel]) -> CriticalValueResult:
    """Smallest attainable LLR value c with alpha(c) <= alpha.

    Starts from a value that the final look alone puts below the cv and
    gallops upward, extrapolating log alpha(c) linearly, until alpha(c) <=
    alpha; then searches the attainable values in the bracket by regula
    falsi on log alpha with the Illinois rule (an end kept twice in a row
    has its log-alpha excess halved).
    """
    null = _NullRecursion(schedule, models)
    alpha = schedule.alpha
    target = math.log(alpha)
    lo = null.final_look_floor(alpha)
    a_lo = null.exceedance(lo)
    if a_lo <= alpha and lo > 0.0:  # the floor sits on a rounding tie
        lo, a_lo = 0.0, null.exceedance(0.0)
    if a_lo <= alpha:
        return CriticalValueResult(cv=0.0, attained_alpha=a_lo)

    prev, a_prev = lo, a_lo
    hi = 1.25 * lo + 1.0
    while True:
        a_hi = null.exceedance(hi)
        if a_hi <= alpha:
            break
        prev, a_prev, lo, a_lo = lo, a_lo, hi, a_hi
        step = 2.0 * lo
        if a_lo < a_prev:
            slope = (math.log(a_lo) - math.log(a_prev)) / (lo - prev)
            step = min(step, 1.25 * (target - math.log(a_lo)) / slope)
        hi = lo + max(step, 0.25 * lo)

    def excess(a: float) -> float:
        return math.log(a) - target if a > 0.0 else -math.inf

    values = null.candidates(lo, hi)
    f_lo, f_hi = excess(a_lo), excess(a_hi)
    kept = None
    while values.size > 1:
        if math.isfinite(f_hi):
            i = int(np.searchsorted(values, lo + f_lo * (hi - lo) / (f_lo - f_hi)))
        else:
            i = values.size // 2
        i = min(i, values.size - 2)  # the largest value shares alpha with hi
        a = null.exceedance(float(values[i]))
        if a <= alpha:
            hi, a_hi, f_hi, values = float(values[i]), a, excess(a), values[: i + 1]
            f_lo, kept = (f_lo / 2 if kept == "lo" else f_lo), "lo"
        else:
            lo, f_lo, values = float(values[i]), excess(a), values[i + 1 :]
            f_hi, kept = (f_hi / 2 if kept == "hi" else f_hi), "hi"
    return CriticalValueResult(cv=float(values[0]), attained_alpha=a_hi)


def compute_cv(schedule: LookSchedule, mc: MonteCarloConfig | None = None) -> CriticalValueResult:
    """Exact critical value under the null without systematic error.

    The cv is the smallest attainable LLR value whose null probability of
    being strictly exceeded at some look is at most the schedule's alpha;
    signaling compares LLR > cv. mc is accepted and ignored. Raises
    CriticalValueError when the counts reach beyond _MAX_COUNTS.
    """
    return _exact_cv(schedule, [ErrorModel(0.0, 0.0)] * schedule.n_looks)


def compute_calibrated_cv(
    schedule: LookSchedule,
    models: ErrorModel | Sequence[ErrorModel],
    mc: MonteCarloConfig | None = None,
) -> CriticalValueResult:
    """Exact critical value under a null that includes the fitted systematic error.

    One standard-normal bias innovation is shared by all looks and scaled at
    every look by that look's error model (a single model is broadcast to
    all looks), so the bias is held fixed across an outcome's trajectory.
    Counts follow the tilted null while the LLR is still computed against
    the unadjusted expectations. Per-look models must share one sd, because
    only then does the shared innovation factor out of a count path's
    likelihood ratio: a list whose sds differ raises ValueError. mc is
    accepted and ignored. Raises CriticalValueError when the counts reach
    beyond _MAX_COUNTS or the model is too wide for the base rows.
    """
    return _exact_cv(schedule, _normalize_models(models, schedule.n_looks))
