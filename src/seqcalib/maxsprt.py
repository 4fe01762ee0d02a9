"""Exact critical values for maximum sequential probability ratio tests.

A surveillance run makes T scheduled looks at accruing data and signals as
soon as the log-likelihood ratio at a look exceeds a critical value chosen
so that the probability of any exceedance under the null is at most alpha.

The exceedance probability alpha(c) of a candidate critical value c is
computed exactly by a group-sequential recursion over the cumulative count:
its distribution is carried from look to look by convolving it with that
look's increment pmf, and every count at or above that look's count limit is
absorbed. In the LLR rule a look's limit is the number of counts whose LLR
is at most c. alpha(c), one minus the mass surviving the last look, changes
only at attainable LLR values; the critical value is the smallest one with
alpha(c) <= alpha (Kulldorff et al. 2011, Sequential Analysis 30:58-78).

Each distribution is held as a band of counts: probabilities below 1e-24
(less where the calibrated weights below are large) are dropped from its
ends (each far below the rounding error of alpha), so the work per look
grows with the spread of the counts, not with their size. Pmfs are evaluated
in logs from log-factorials, math.lgamma(k + 1), kept in a table that grows
on demand up to _MAX_COUNTS. The rounding of the log terms grows with their
size: against exact pmfs (a 40-digit decimal recurrence) the largest
relative error over the counts kept is 1.1e-13, 1.5e-12 and 1.8e-11 at
Poisson means of 20, 600 and 5,000. A binomial pmf's error follows its
trial total n through log n!, not its counts: 3.7e-13, 4.6e-12 and 1.7e-11
at 393, 1,572 and 6,000 trials. Counts are supported up to _MAX_COUNTS.
The band after each look depends only on the looks' limits so far, so it is
kept while at most 4,096 counts wide, and a candidate c whose limits share a
prefix with the previous candidate's resumes from the last band of it.

The calibrated variant shifts the null of every look by one systematic
error b = mean + sd * z, where the standard-normal innovation z is shared by
all looks of an outcome (rate multiplier exp(b) for Poisson, odds
multiplier for binomial), while the LLR is still evaluated against the
unadjusted null. The likelihood ratio of a count path under z against
z = 0 then depends on the path only through its final count, so the
recursion runs once and each final count's surviving mass is weighted by
that ratio integrated over z with Gauss-Hermite quadrature. Its binomial
term n log((1 + e^(a + s z)) / (1 + e^a)), a the log odds of the mean-shifted
null proportion q0, is computed as n log1p(q0 expm1(s z)), within about
6e-16 of the terms' size against a 40-digit decimal oracle.
With sd 0 the weight is exactly 1, so a (0, 0) model runs the uncalibrated
computation itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errormodel import ErrorModel
from .likelihood import _logistic, binomial_llr, poisson_llr, tilted_proportion

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
_GH_LOGW = np.log(_GH_W)
_GH_X2 = _GH_X**2
# the recursion carries each count's mass under its base row, which is its
# mass under the mixture divided by its weight; a row keeps probabilities
# down to 1e-24 over its largest weight, exp(_LOG_DROP - log weight), which
# stays a normal double (above exp(-708)) with margin up to this log weight
_MAX_LOG_WEIGHT = 600.0
# the weight tables span every count up to the largest that survives the
# last look: a few hundred MB at this size
_MAX_COUNTS = 1 << 20
# counts per block of an LLR boundary table
_BLOCK = 4096
_LOG_DROP = math.log(1e-24)
# log k! of the counts k below its size, grown by _log_factorial as cvs need it
_log_factorials = np.zeros(0)


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

    @cached_property
    def _boundary(self) -> _Boundary:
        """The LLR boundary of this schedule, shared by every cv computed on it."""
        return _Boundary(self)


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


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """log k! of each count in k, as math.lgamma(k + 1).

    Counts below _MAX_COUNTS are read from a table that starts empty and at
    least doubles whenever a count lies beyond it; larger counts are
    computed one by one. Every value is math.lgamma(k + 1) however the table
    grew, so a pmf does not depend on what the process computed before it.
    """
    global _log_factorials
    table = _log_factorials
    end = int(k.max(initial=-1)) + 1
    if table.size < end <= _MAX_COUNTS:
        size = min(max(end, 2 * table.size), _MAX_COUNTS)
        more = np.fromiter(map(math.lgamma, range(table.size + 1, size + 1)), float, size - table.size)
        table = _log_factorials = np.concatenate([table, more])
    if end <= table.size:
        return table[k]
    return np.fromiter(map(math.lgamma, (k + 1).tolist()), float, k.size)


def _poisson_log_pmf(k: np.ndarray, rate: float) -> np.ndarray:
    """Log Poisson pmf at a rate of each count in k."""
    return k * math.log(rate) - rate - _log_factorial(k)


def _binomial_log_pmf(k: np.ndarray, n: int, q: float) -> np.ndarray:
    """Log binomial pmf of n trials at proportion q of each count in k (0 <= k <= n)."""
    if q == 1.0:  # a tilt so large that the proportion rounds to 1
        return np.where(k == n, 0.0, -math.inf)
    return (
        math.lgamma(n + 1) - _log_factorial(k) - _log_factorial(n - k)
        + k * math.log(q) + (n - k) * math.log1p(-q)
    )


def _trim(first: int, values: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    """Drop the values below tol at both ends of a band that starts at count first."""
    kept = values >= tol
    start = int(kept.argmax()) if kept.size else 0
    if not kept.size or not kept[start]:
        return first, values[:0]
    return first + start, values[start : values.size - int(kept[::-1].argmax())]


class _Boundary:
    """Per look, the LLR of each cumulative count from one whose LLR is 0 upward, in
    blocks of _BLOCK counts: the LLRs of the blocks' first counts locate the block in
    which the LLR, rising with the count, passes a given c, and a block is scored
    once a limit or a candidate range reaches into it."""

    def __init__(self, schedule: LookSchedule) -> None:
        self.p = schedule.exposure_proportion
        if self.p is None:
            self.cumulative = schedule.cumulative_expected()
            null_mean, self.stop = self.cumulative, [math.inf] * self.cumulative.size
        else:  # stop: one past each look's largest count, its trial total
            self.cumulative = np.cumsum(schedule.binomial_trials())
            null_mean, self.stop = self.cumulative * self.p, (self.cumulative + 1).tolist()
        # per look, a count whose LLR is 0, so that every cv keeps it
        self.floor = np.maximum(np.floor(null_mean).astype(np.int64) - 1, 0)
        self.firsts = [np.zeros(1)] * self.floor.size  # LLR of each block's first count
        self.blocks: list[dict[int, np.ndarray]] = [{} for _ in self.stop]
        self.memo: dict[float, np.ndarray] = {}  # limits by c

    def llr(self, look: int, counts: np.ndarray) -> np.ndarray:
        """LLR at a look of each cumulative count (at most the look's total, if binomial)."""
        if self.p is None:
            return poisson_llr(counts, self.cumulative[look])
        return binomial_llr(counts, self.cumulative[look], self.p)

    def _block(self, t: int, k: int) -> np.ndarray:
        """LLR of the counts of block k at look t."""
        if k not in self.blocks[t]:
            first = int(self.floor[t]) + k * _BLOCK
            self.blocks[t][k] = self.llr(t, np.arange(first, min(first + _BLOCK, self.stop[t])))
        return self.blocks[t][k]

    def _limit(self, t: int, c: float) -> int:
        """Number of counts at look t whose LLR is at most c."""
        firsts, floor = self.firsts[t], int(self.floor[t])
        while floor + firsts.size * _BLOCK < self.stop[t] and firsts[-1] <= c:
            more = floor + _BLOCK * np.arange(firsts.size, 2 * firsts.size + 8)
            firsts = self.firsts[t] = np.append(firsts, self.llr(t, more[more < self.stop[t]]))
        k = int(firsts.searchsorted(c, side="right")) - 1
        return floor + k * _BLOCK + int(self._block(t, k).searchsorted(c, side="right"))

    def limits(self, c: float) -> np.ndarray:
        """Per look, the number of counts whose LLR is at most c."""
        if c not in self.memo:
            self.memo[c] = np.array([self._limit(t, c) for t in range(self.floor.size)])
        return self.memo[c]

    def candidates(self, lo: float, hi: float) -> np.ndarray:
        """Attainable LLR values in (lo, hi], ascending."""
        values = []
        for t, (a, b) in enumerate(zip(self.limits(lo) - self.floor, self.limits(hi) - self.floor)):
            for k in range(a // _BLOCK, -(-b // _BLOCK)):
                values.append(self._block(t, k)[max(a - k * _BLOCK, 0) : b - k * _BLOCK])
        return np.unique(np.concatenate(values))


@dataclass(frozen=True)
class CriticalValueResult:
    """Critical value plus the exact null probability of strictly exceeding it."""

    cv: float
    attained_alpha: float


class _NullRecursion:
    """Exceedance probability of any candidate cv for one schedule and bias model.

    Conditional on the innovation z the null at every look is the
    mean-shifted null tilted by exp(sd * z) on the rate or odds scale, and
    the likelihood ratio of a count path under z against a base
    innovation z_r depends on the path only through its final cumulative
    count x. The recursion therefore runs under a few base innovations
    (rows), and the mass surviving at x is weighted by that ratio integrated
    over z. Each x uses the row nearest the mode of its integrand, so every
    mass that matters stays far from floating-point underflow; an sd of 0
    gives the single row z_r = 0 with weight 1.

    Each row's count distribution is held as a band of counts, trimmed at
    both ends to probabilities of at least 1e-24 over the row's largest
    weight. Looks at which no count of a row can reach its limit are not
    convolved one by one: their increments are pooled and convolved once,
    at the next look the pooled distribution can cross.
    """

    def __init__(self, schedule: LookSchedule, model: ErrorModel) -> None:
        self.sd = model.sd
        self.mean = model.mean
        self.poisson = schedule.model == "poisson"
        self.boundary = schedule._boundary
        self.cumulative = self.boundary.cumulative
        if self.poisson:
            self.increments = np.asarray(schedule.expected_increments)
            self.rate = float((self.increments * np.exp(self.mean)).sum())
            self.cap = math.inf
            null_mean = self.cumulative
        else:
            p = self.p = schedule.exposure_proportion
            self.increments = schedule.binomial_trials()
            self.log_odds = math.log(p / (1.0 - p)) + self.mean
            self.q0 = tilted_proportion(p, self.mean)
            self.cap = int(self.cumulative[-1]) + 1
            null_mean = self.cumulative * p
        self._resize(min(2 * int(null_mean[-1]) + 16, self.cap, _MAX_COUNTS))

    def _log_ratio(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Log likelihood ratio of final count x under innovation z against z = 0, broadcast; the
        binomial in the module docstring's log1p form, adding the excess past s z = 700 as is."""
        u = self.sd * z
        ratio = u * x
        if self.poisson:
            ratio -= np.exp(u, out=u) * self.rate - self.rate
            return ratio
        capped = np.minimum(u, 700.0)
        u -= capped  # the excess over 700, else 0
        capped = np.expm1(capped, out=capped)
        capped = np.log1p(np.multiply(capped, self.q0, out=capped), out=capped)
        capped += u
        ratio -= np.multiply(capped, self.cumulative[-1], out=capped)
        return ratio

    def _log_ratio_derivatives(self, x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First and second derivatives in z of the log likelihood ratio."""
        s = self.sd
        if self.poisson:
            rate = self.rate * np.exp(s * z)
            return s * (x - rate), -s * s * rate
        q = _logistic(self.log_odds + s * z)
        exposed = self.cumulative[-1] * q
        return s * (x - exposed), -s * s * (exposed * (1.0 - q))

    def _log_weight(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mode of z -> ratio(x, z) * phi(z) and the log of its integral, per count x.

        The integral is Gauss-Hermite quadrature centred on the mode and
        scaled by the curvature there.
        """
        # the log integrand is concave in z: Newton steps, bisecting whenever
        # a step leaves the bracket; beyond |z| = 40, phi(z) < exp(-800)
        lo, hi, mode = np.full_like(x, -40.0), np.full_like(x, 40.0), np.zeros_like(x)
        for _ in range(100):
            slope, curvature = self._log_ratio_derivatives(x, mode)
            rising = slope > mode
            np.copyto(lo, mode, where=rising)
            np.copyto(hi, mode, where=~rising)
            newton = mode - (slope - mode) / (curvature - 1.0)
            step = np.multiply(np.add(lo, hi, out=curvature), 0.5, out=curvature)
            np.copyto(step, newton, where=(newton >= lo) & (newton <= hi))
            step -= mode
            mode += step
            if np.abs(step).max() < 1e-12:
                break
        scale = 1.0 / np.sqrt(1.0 - self._log_ratio_derivatives(x, mode)[1])
        z = math.sqrt(2.0) * scale * _GH_X[:, None]  # nodes x counts, summed in place
        z += mode
        terms = self._log_ratio(x, z)
        terms += _GH_LOGW[:, None]
        terms += _GH_X2[:, None]
        terms -= np.multiply(np.square(z, out=z), 0.5, out=z)
        peak = terms.max(axis=0)
        terms -= peak
        log_sum = np.log(np.exp(terms, out=terms).sum(axis=0)) + peak
        return mode, np.log(scale / math.sqrt(math.pi)) + log_sum

    def _mixture(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Base innovations (rows), each count's row, and its weight:
        E_z of the likelihood ratio of x under z against its row's innovation.

        A count whose mixture probability is below exp(_LOG_DROP) (a
        Chernoff bound: its probability under z = 0 is at most
        exp(-log ratio at any z)) gets weight 0. Rows sit at the modes of
        counts evenly spaced on the variance-stabilising scale of the count
        model (sqrt(x) for Poisson, arcsin(sqrt(x / n)) for binomial), which
        keeps the log weights level. Of the placements of 1, 2, 4, ... 256
        rows whose largest log weight L is at most _MAX_LOG_WEIGHT, the one
        with the least recursion work is used: each row's bands, and so its
        convolutions, widen with its log tolerance _LOG_DROP - L, so the work
        is taken as rows * (L - _LOG_DROP).
        """
        if self.sd == 0:
            return np.zeros(1), np.zeros(x.size, dtype=np.intp), np.ones(x.size)
        chunks = [self._log_weight(x[i : i + 4096]) for i in range(0, x.size, 4096)]
        mode, log_weight = (np.concatenate(column) for column in zip(*chunks))
        kept = log_weight - self._log_ratio(x, mode) >= _LOG_DROP
        if not kept.any():  # the table ends below every count that matters
            return np.zeros(1), np.zeros(x.size, dtype=np.intp), np.zeros(x.size)
        n = self.cap - 1
        stable = np.sqrt(x[kept]) if self.poisson else np.arcsin(np.sqrt(x[kept] / n))
        best, least = None, math.inf
        for n_rows in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            if n_rows * -_LOG_DROP >= least:  # more rows cost more at any weight
                break
            if n_rows == 1:
                rows = np.zeros(1)
            else:
                spaced = np.linspace(stable[0], stable[-1], n_rows)
                anchors = spaced**2 if self.poisson else n * np.sin(spaced) ** 2
                rows = np.interp(anchors, x[kept], mode[kept])
            row = np.searchsorted(0.5 * (rows[1:] + rows[:-1]), mode)  # nearest row
            relative = log_weight[kept] - self._log_ratio(x[kept], rows[row[kept]])
            largest = relative.max()
            work = n_rows * (max(largest, 0.0) - _LOG_DROP)  # as _resize sets log_tol
            if largest <= _MAX_LOG_WEIGHT and work < least:
                best, least = (rows, row, relative), work
        if best is None:
            raise CriticalValueError(
                f"error model sd {self.sd:g} is too wide for an exact critical value "
                f"over final counts up to {x.size - 1}"
            )
        rows, row, relative = best
        weight = np.zeros(x.size)
        weight[kept] = np.exp(relative)
        return rows, row, weight

    def _resize(self, size: int) -> None:
        self.size = size
        self.rows, self.row_of_count, self.weight = self._mixture(np.arange(size, dtype=float))
        largest = np.zeros(self.rows.size)  # rows that weight no count are never run
        np.maximum.at(largest, self.row_of_count, self.weight)
        self.used = np.flatnonzero(largest > math.exp(_LOG_DROP))
        self.log_tol = _LOG_DROP - np.log(np.maximum(largest, 1.0))
        # mean and variance of the count accrued by each look, per row, as lists read one at a time
        shift = self.mean + self.sd * self.rows
        if self.poisson:
            mean = variance = self.increments[:, None] * np.exp(shift)
        else:
            q = tilted_proportion(self.p, shift)
            mean = self.increments[:, None] * q
            variance = mean * (1.0 - q)
        start = np.zeros((1, self.rows.size))
        self._accrued = np.cumsum(np.vstack([start, mean]), axis=0).tolist()
        self._spread = np.cumsum(np.vstack([start, variance]), axis=0).tolist()
        self._pmfs: dict[tuple, tuple[int, np.ndarray]] = {}
        self._chains: dict[int, list[tuple]] = {}  # per row: (limit, first, f, pooled) per look

    def _pmf(self, row: int, looks: range) -> tuple[int, np.ndarray]:
        """First count and probabilities of the count accrued over looks under a row.

        Probabilities are computed only within Bernstein bounds outside of
        which they fall below the row's drop tolerance, and the values below
        it at either end are trimmed.
        """
        if len(looks) == 1:  # looks alike share a pmf
            key = (row, float(self.increments[looks.start]))
        else:
            key = (row, looks.start, looks.stop)
        if key in self._pmfs:
            return self._pmfs[key]
        log_tol = self.log_tol[row]
        shift = self.mean + self.sd * self.rows[row]
        increments = self.increments[looks.start : looks.stop]
        if self.poisson:
            rate = float((increments * np.exp(shift)).sum())
            first, last = _support(rate, rate, log_tol)
            log_pmf = _poisson_log_pmf(np.arange(first, last + 1), rate)
        else:
            q = tilted_proportion(self.p, shift)
            n = int(increments.sum())
            first, last = _support(n * q, n * q * (1.0 - q), log_tol)
            log_pmf = _binomial_log_pmf(np.arange(first, min(last, n) + 1), n, q)
        first, pmf = _trim(first, np.exp(log_pmf), math.exp(log_tol))
        if pmf.size <= 4096:
            self._pmfs[key] = first, pmf
        return first, pmf

    def _survivors(self, limits: list) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        """Per used row: the band of final counts below every look's limit, their mass and weights."""
        if self.size < limits[-1]:
            if limits[-1] > _MAX_COUNTS:
                raise CriticalValueError(
                    f"an exact critical value needs counts up to {limits[-1] - 1}, "
                    f"beyond the supported {_MAX_COUNTS - 1}"
                )
            self._resize(min(max(2 * self.size, limits[-1]), self.cap, _MAX_COUNTS))
        last = len(limits) - 1
        for row in self.used.tolist():
            log_tol = float(self.log_tol[row])
            tol = math.exp(log_tol)
            chain = self._chains.setdefault(row, [])  # the previous call's state after each look
            del chain[next((t for t, kept in enumerate(chain) if kept[0] != limits[t]), len(chain)) :]
            # counts first, first + 1, ... and the first look not yet convolved into f
            _, first, f, pooled = chain[-1] if chain else (None, 0, np.ones(1), 0)
            for t in range(len(chain), last + 1):
                limit = limits[t]
                mean = self._accrued[t + 1][row] - self._accrued[pooled][row]
                variance = self._spread[t + 1][row] - self._spread[pooled][row]
                reach = first + f.size + _support(mean, variance, log_tol)[1]  # past all reached
                if f.size and (t == last or reach > limit):  # convolve once some count can cross
                    g_first, g = self._pmf(row, range(pooled, t + 1))
                    n = limit - first - g_first  # keep counts below the limit
                    f = np.convolve(f[:n], g[:n])[:n] if n > 0 else f[:0]
                    first, f = _trim(first + g_first, f, tol)
                    pooled = t + 1
                if f.size <= 4096 and len(chain) == t:
                    chain.append((limit, first, f, pooled))
            band = slice(first, first + f.size)
            yield band, f, (self.weight[band] if self.rows.size == 1
                            else np.where(self.row_of_count[band] == row, self.weight[band], 0.0))

    def crossing(self, limits: list) -> float:
        """Null probability that the cumulative count reaches its look's limit at some look."""
        survived = 0.0  # rows added in order: from Python 3.12, sum() of floats is compensated
        for _, f, weight in self._survivors(limits):
            survived += float(f @ weight)
        return max(0.0, 1.0 - survived)

    def exceedance(self, c: float) -> float:
        """Null probability that the LLR exceeds c at some look."""
        return self.crossing(self.boundary.limits(c).tolist())

    def final_look_floor(self, alpha: float) -> float:
        """An LLR value c with alpha(c) > alpha by the final look alone, or 0.

        Exceeding c at the final look is one way of exceeding it at some
        look, so any c that the final count alone exceeds with probability
        above alpha lies below the cv.
        """
        mass = np.zeros(self.size)
        for band, f, w in self._survivors([math.inf] * (self.cumulative.size - 1) + [self.size]):
            mass[band] += f * w
        above = np.flatnonzero(1.0 - np.cumsum(mass) > alpha)  # P(final count > x) > alpha
        if above.size == 0:
            return 0.0
        return float(self.boundary.llr(self.cumulative.size - 1, above[-1:])[0])


def _exact_cv(schedule: LookSchedule, model: ErrorModel) -> CriticalValueResult:
    """Smallest attainable LLR value c with alpha(c) <= alpha.

    Starts from a value that the final look alone puts below the cv and
    gallops upward, extrapolating log alpha(c) linearly, until alpha(c) <=
    alpha; then searches the attainable values in the bracket by regula
    falsi on log alpha with the Illinois rule (an end kept twice in a row
    has its log-alpha excess halved).
    """
    null = _NullRecursion(schedule, model)
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

    values = null.boundary.candidates(lo, hi)
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
    return _exact_cv(schedule, ErrorModel(0.0, 0.0))


def compute_calibrated_cv(
    schedule: LookSchedule, model: ErrorModel, mc: MonteCarloConfig | None = None
) -> CriticalValueResult:
    """Exact critical value under a null that includes the fitted systematic error.

    The bias mean + sd * z, with one standard-normal innovation z shared by
    all looks, is held fixed across an outcome's trajectory. Counts follow
    the tilted null while the LLR is still computed against the unadjusted
    expectations. mc is accepted and ignored. Raises TypeError unless model
    is one ErrorModel, and CriticalValueError when the counts reach beyond
    _MAX_COUNTS or no base rows keep the log weights within _MAX_LOG_WEIGHT.
    """
    if not isinstance(model, ErrorModel):
        raise TypeError(f"expected one ErrorModel, got {type(model).__name__}")
    return _exact_cv(schedule, model)
