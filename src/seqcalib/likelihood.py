"""Count-model likelihoods for sequential safety surveillance.

Two surveillance models are supported: observed-versus-expected event
counts (Poisson) and exposed-versus-total case counts (binomial). Each
outcome's evidence about the log effect size is carried as a normal
approximation (point estimate plus standard error), as its counts, whose
maximum-likelihood estimate and Fisher standard error are exact, or as a
log-likelihood grid read from a file, whose estimate and standard error
come from the grid argmax and its local curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

__all__ = [
    "BinomialCounts",
    "CountData",
    "CurvatureError",
    "GRID_LOWER",
    "GRID_POINTS",
    "GRID_UPPER",
    "GridProfile",
    "LikelihoodProfile",
    "NormalApprox",
    "PoissonCounts",
    "UninformativeProfileError",
    "binomial_llr",
    "count_log_likelihood",
    "mle_and_se",
    "poisson_llr",
    "profile_from_counts",
    "tilted_proportion",
]

GRID_LOWER = -4.0
GRID_UPPER = 4.0
GRID_POINTS = 1000
_GRID_MARGIN = 2.0  # keeps the analytic MLE comfortably interior


class UninformativeProfileError(ValueError):
    """Counts admit no interior maximum for the log effect size (e.g. zero events)."""


class CurvatureError(ValueError):
    """Grid log-likelihood has no usable concave interior maximum."""


@dataclass(frozen=True)
class NormalApprox:
    """Normal approximation to a log effect-size likelihood.

    Attributes:
        point_estimate: Maximum-likelihood log effect size.
        standard_error: Standard error of the estimate, strictly positive.
        outcome_id: Optional identifier of the outcome this profile belongs to.
    """

    point_estimate: float
    standard_error: float
    outcome_id: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.point_estimate):
            raise ValueError("point_estimate must be finite")
        if not (math.isfinite(self.standard_error) and self.standard_error > 0):
            raise ValueError("standard_error must be positive and finite")


@dataclass(frozen=True, eq=False)
class GridProfile:
    """Log-likelihood of the log effect size tabulated on an ascending grid."""

    grid_points: np.ndarray
    log_likelihoods: np.ndarray
    outcome_id: str = ""

    def __post_init__(self) -> None:
        x = np.asarray(self.grid_points, dtype=float)
        ll = np.asarray(self.log_likelihoods, dtype=float)
        if x.ndim != 1 or ll.ndim != 1 or x.size != ll.size:
            raise ValueError("grid_points and log_likelihoods must be 1-D and equal length")
        if x.size < 3:
            raise ValueError("grid needs at least 3 points")
        if not np.all(np.diff(x) > 0):
            raise ValueError("grid_points must be strictly ascending")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(ll))):
            raise ValueError("grid values must be finite")
        x.flags.writeable = False
        ll.flags.writeable = False
        object.__setattr__(self, "grid_points", x)
        object.__setattr__(self, "log_likelihoods", ll)


@dataclass(frozen=True)
class PoissonCounts:
    """Observed event count against a known expected count."""

    observed: int
    expected: float

    def __post_init__(self) -> None:
        if self.observed < 0 or self.observed != int(self.observed):
            raise ValueError("observed must be a nonnegative integer")
        if not (math.isfinite(self.expected) and self.expected > 0):
            raise ValueError("expected must be positive and finite")

    @property
    def offset(self) -> float:
        """Log of the expected count: the log rate at zero log effect size."""
        return math.log(self.expected)


@dataclass(frozen=True)
class BinomialCounts:
    """Exposed event count among a total, against a null exposure proportion."""

    exposed: int
    total: int
    null_proportion: float

    def __post_init__(self) -> None:
        if self.total < 1 or self.total != int(self.total):
            raise ValueError("total must be a positive integer")
        if self.exposed < 0 or self.exposed > self.total or self.exposed != int(self.exposed):
            raise ValueError("exposed must be an integer in [0, total]")
        if not (0.0 < self.null_proportion < 1.0):
            raise ValueError("null_proportion must lie in (0, 1)")

    @property
    def offset(self) -> float:
        """Log odds of the null proportion: the log odds at zero log effect size."""
        p = self.null_proportion
        return math.log(p / (1.0 - p))


CountData = PoissonCounts | BinomialCounts
LikelihoodProfile = NormalApprox | GridProfile | PoissonCounts | BinomialCounts


def _scalar_or_array(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def poisson_llr(observed, expected):
    """One-sided log-likelihood ratio for a Poisson count against its null expectation.

    Returns 0 when the rate MLE does not exceed the null (observed <= expected),
    otherwise the log of the Poisson pmf ratio with the rate set to the MLE.
    Arguments broadcast: scalars give a float, arrays an array of LLRs.
    """
    o = np.asarray(observed, dtype=float)
    e = np.asarray(expected, dtype=float)
    if not (np.all(np.isfinite(o)) and np.all(np.isfinite(e))):
        raise ValueError("observed and expected must be finite")
    if np.any(o < 0):
        raise ValueError("observed must be nonnegative")
    if np.any(e <= 0):
        raise ValueError("expected must be positive")
    ratio = np.maximum(o / e, 1e-300)
    values = o * np.log(ratio) + e - o
    return _scalar_or_array(np.where(o > e, values, 0.0))


def binomial_llr(exposed, total, p):
    """One-sided log-likelihood ratio for an exposed fraction against null proportion p.

    Returns 0 when the observed fraction does not exceed p, otherwise the log of
    the binomial pmf ratio with the success probability set to the observed fraction.
    Arguments broadcast: scalars give a float, arrays an array of LLRs.
    """
    k = np.asarray(exposed)
    n = np.asarray(total)
    p = np.asarray(p, dtype=float)
    if np.any(n < 1):
        raise ValueError("total must be at least 1")
    if np.any(k < 0) or np.any(k > n):
        raise ValueError("exposed must lie in [0, total]")
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("p must lie in (0, 1)")
    q = k / n
    term1 = k * np.log(np.maximum(q, 1e-300) / p)
    term2 = (n - k) * np.log(np.maximum(1.0 - q, 1e-300) / (1.0 - p))
    return _scalar_or_array(np.where(q > p, term1 + term2, 0.0))


def tilted_proportion(p: float, log_odds_shift):
    """Shift a proportion on the log-odds scale.

    Returns the proportion whose odds are exp(log_odds_shift) times the odds
    of p. A zero shift returns p exactly. Accepts scalar or array shifts.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0, 1)")
    logit_p = math.log(p / (1.0 - p))
    shift = np.asarray(log_odds_shift, dtype=float)
    z = np.clip(logit_p + shift, -500.0, 500.0)
    out = np.where(shift == 0.0, p, expit(z))
    if np.isscalar(log_odds_shift) or shift.ndim == 0:
        return float(out)
    return out


def count_log_likelihood(beta, observed, null_value, offset, total=None):
    """Log-likelihood of the log effect size beta given counts, up to a term free of beta.

    Poisson counts (total None): null_value is the expected count e, offset
    its log, and the value is o*(log e + beta) - e*exp(beta). Binomial counts:
    null_value is the null exposure proportion p, offset its log odds, and the
    value is o*log(q) + (n - o)*log(1 - q), where q has log odds
    logit(p) + beta (q = p exactly at beta = 0); this equals
    o*z - n*log(1 + exp(z)) with z = logit(p) + beta.

    The offset is the count's `offset` property, computed once per outcome.
    Arguments broadcast, so columns of counts against a matrix of beta give
    every outcome's log-likelihood at all of its points in one call.
    """
    if total is None:
        return observed * (offset + beta) - null_value * np.exp(beta)
    z = np.clip(offset + beta, -500.0, 500.0)
    q = np.where(beta == 0.0, null_value, expit(z))
    return observed * np.log(q) + (total - observed) * np.log1p(-q)


def profile_from_counts(data: CountData, *, outcome_id: str = "") -> GridProfile:
    """Tabulate the log-likelihood of the log effect size for one outcome's counts.

    The grid has GRID_POINTS points over [GRID_LOWER, GRID_UPPER]; it is widened
    automatically when the MLE falls near or beyond an endpoint, so the
    maximum is always interior. Counts are profiles themselves; the grid is
    for writing them to a grid-profile file.

    Raises:
        UninformativeProfileError: Zero events (Poisson), or all/none of the
            events exposed (binomial), where no interior maximum exists.
    """
    if not isinstance(data, (PoissonCounts, BinomialCounts)):
        raise TypeError(f"unsupported count data: {type(data).__name__}")
    mle, _ = mle_and_se(data)
    beta = np.linspace(min(GRID_LOWER, mle - _GRID_MARGIN), max(GRID_UPPER, mle + _GRID_MARGIN),
                       GRID_POINTS)
    if isinstance(data, PoissonCounts):
        ll = count_log_likelihood(beta, data.observed, data.expected, data.offset)
    else:
        ll = count_log_likelihood(
            beta, data.exposed, data.null_proportion, data.offset, total=data.total
        )
    return GridProfile(beta, ll, outcome_id=outcome_id)


def mle_and_se(profile: LikelihoodProfile) -> tuple[float, float]:
    """Extract the point estimate and standard error from a likelihood profile.

    Normal approximations return their fields verbatim. Counts return the
    exact MLE and the Fisher standard error: log(o / e) and 1 / sqrt(o) for
    Poisson, log(o / (n - o)) - logit(p) and sqrt(1 / o + 1 / (n - o)) for
    binomial. Grid profiles return the grid argmax (ties broken toward the
    smallest log effect size) and a standard error from the local curvature
    of the log-likelihood at the maximum.

    Raises:
        UninformativeProfileError: Zero events (Poisson), or all/none of the
            events exposed (binomial), where no interior maximum exists.
        CurvatureError: Grid maximum on the boundary, or non-concave neighborhood.
    """
    if isinstance(profile, NormalApprox):
        return profile.point_estimate, profile.standard_error
    if isinstance(profile, PoissonCounts):
        o = profile.observed
        if o == 0:
            raise UninformativeProfileError("no events observed; likelihood has no interior maximum")
        return math.log(o / profile.expected), 1.0 / math.sqrt(o)
    if isinstance(profile, BinomialCounts):
        o, unexposed = profile.exposed, profile.total - profile.exposed
        if o == 0 or unexposed == 0:
            raise UninformativeProfileError(
                "exposed count at the boundary; likelihood has no interior maximum"
            )
        return math.log(o / unexposed) - profile.offset, math.sqrt(1.0 / o + 1.0 / unexposed)
    if not isinstance(profile, GridProfile):
        raise TypeError(f"unsupported profile: {type(profile).__name__}")
    x = profile.grid_points
    ll = profile.log_likelihoods
    i = int(np.argmax(ll))
    if i == 0 or i == x.size - 1:
        raise CurvatureError("log-likelihood maximum sits on the grid boundary")
    h1 = x[i] - x[i - 1]
    h2 = x[i + 1] - x[i]
    # second derivative of the parabola through the three points around the max
    d2 = 2.0 * ((ll[i + 1] - ll[i]) / h2 - (ll[i] - ll[i - 1]) / h1) / (h1 + h2)
    if not d2 < 0:
        raise CurvatureError("log-likelihood is not concave at its maximum")
    return float(x[i]), float(1.0 / math.sqrt(-d2))
