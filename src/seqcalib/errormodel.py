"""Estimation of the residual systematic-error distribution.

Negative controls are exposure-outcome pairs with no believed causal relation,
so their true log effect size is zero and any estimated effect reflects
systematic error plus sampling noise. Assuming the per-outcome bias is drawn
from a normal distribution, this module fits that distribution's mean and
standard deviation by maximizing the marginal likelihood of the
negative-control profiles, integrating the bias out of each profile's likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import brentq, minimize

from .likelihood import (
    CurvatureError,
    GridProfile,
    LikelihoodProfile,
    NormalApprox,
    PoissonCounts,
    count_log_likelihood,
    mle_and_se,
)

__all__ = [
    "ErrorModel",
    "FitError",
    "InsufficientControlsError",
    "fit_error_model",
    "leave_one_out_models",
    "marginal_log_likelihood",
]

GH_POINTS = 64
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(GH_POINTS)
_GH_LOGW = np.log(_GH_W)
_GH_X2 = _GH_X**2
_LOG_2PI = math.log(2.0 * math.pi)
# L-BFGS-B stops on a relative decrease <= ftol or a projected gradient <= gtol
_FIT_OPTIONS = {"ftol": 1e-14, "gtol": 1e-6, "maxiter": 500}


class InsufficientControlsError(ValueError):
    """Fewer usable negative-control profiles than the fit requires."""


class FitError(RuntimeError):
    """The systematic-error fit ended without a finite marginal likelihood."""


@dataclass(frozen=True)
class ErrorModel:
    """Fitted normal distribution of systematic error on the log effect scale.

    A model with mean 0 and sd 0 expresses certainty that no systematic error
    exists, which reduces every calibrated statistic to its uncalibrated one.
    """

    mean: float
    sd: float
    n_controls: int = 0
    converged: bool = True
    n_excluded: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError("mean must be finite")
        if not (math.isfinite(self.sd) and self.sd >= 0):
            raise ValueError("sd must be nonnegative and finite")


@dataclass(frozen=True)
class _Prepared:
    """Usable profiles stacked into column arrays, one row per profile.

    Rows run normal approximations, file grids, Poisson counts, binomial counts;
    `position` maps each row to its profile's input index. Each non-normal row's
    MLE (`mode`) and SE (its width, held squared and times sqrt(2)) place its nodes.
    """

    norm_beta: np.ndarray
    norm_var: np.ndarray
    grid_x: tuple[np.ndarray, ...]
    grid_ll: tuple[np.ndarray, ...]  # less the grid's peak
    grid_slope: tuple[np.ndarray, ...]  # per segment, padded with the end continuations
    poisson: np.ndarray  # observed counts, a column
    binomial: tuple[np.ndarray, ...]  # columns: exposed, total, exposed / total, exposed - total
    mode: np.ndarray
    width2: np.ndarray
    root2_width: np.ndarray
    position: np.ndarray
    n_excluded: int

    @property
    def n_profiles(self) -> int:
        return self.position.size


def _prepare(profiles: Sequence[LikelihoodProfile]) -> _Prepared:
    """Stack the profiles, dropping and counting file grids without a usable maximum."""
    # rows are (input index, mode or estimate, width or variance, payload)
    normal, grids, poisson, binomial, excluded = [], [], [], [], 0
    for index, pr in enumerate(profiles):
        if isinstance(pr, NormalApprox):
            normal.append((index, pr.point_estimate, pr.standard_error**2))
            continue
        try:
            mode, width = mle_and_se(pr)
        except CurvatureError:
            excluded += 1
            continue
        if isinstance(pr, GridProfile):
            grids.append((index, mode, width, pr))
        elif isinstance(pr, PoissonCounts):
            poisson.append((index, mode, width, pr.observed))
        else:
            binomial.append((index, mode, width, (pr.exposed, pr.total)))
    rows = grids + poisson + binomial
    width = np.array([r[2] for r in rows])
    exposed, total = np.array([r[3] for r in binomial], dtype=float).reshape(-1, 2).T[:, :, None]
    grid_ll = tuple(r[3].log_likelihoods - r[3].log_likelihoods.max() for r in grids)
    slopes = [np.diff(y) / np.diff(r[3].grid_points) for r, y in zip(grids, grid_ll)]
    return _Prepared(
        np.array([r[1] for r in normal]),
        np.array([r[2] for r in normal]),
        tuple(r[3].grid_points for r in grids),
        grid_ll,
        tuple(np.concatenate(([max(sl[0], 0.0)], sl, [min(sl[-1], 0.0)])) for sl in slopes),
        np.array([r[3] for r in poisson], dtype=float)[:, None],
        (exposed, total, exposed / total, exposed - total),
        np.array([r[1] for r in rows]),
        width * width,
        math.sqrt(2.0) * width,
        np.array([r[0] for r in normal + rows], dtype=int),
        excluded,
    )


def _node_log_likelihoods(prep: _Prepared, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-likelihood and score of each non-normal row at its mode + its row of delta.

    Log-likelihoods are taken less the row's peak, so they stay small and free
    of rounding noise. Counts are exact; file grids are linear between their
    points and, beyond them, continue an end segment falling away or stay level.
    """
    ll, score = np.empty_like(delta), np.empty_like(delta)
    for i, (x, y, slope) in enumerate(zip(prep.grid_x, prep.grid_ll, prep.grid_slope)):
        beta = prep.mode[i] + delta[i]
        j = np.searchsorted(x, beta)  # beta lies in (x[j-1], x[j]]
        score[i] = slope[j]
        anchor = np.maximum(j - 1, 0)
        ll[i] = y[anchor] + score[i] * (beta - x[anchor])
    g, p = len(prep.grid_x), len(prep.grid_x) + len(prep.poisson)
    # with t = e^delta - 1, Poisson o*(delta - t), score o - e*e^beta = -o*t; binomial
    # o*delta - n*log(1 + q*t) with MLE proportion q = o/n, score o - n*q_beta
    if g < p:
        observed, t = prep.poisson, np.expm1(delta[g:p])
        ll[g:p] = observed * (delta[g:p] - t)
        score[g:p] = -observed * t
    if p < len(delta):
        exposed, total, proportion, deficit = prep.binomial
        qt = proportion * np.expm1(delta[p:])
        ll[p:] = exposed * delta[p:] - total * np.log1p(qt)
        score[p:] = deficit * qt / (1.0 + qt)
    return ll, score


def _evaluate(mu: float, sd: float, prep: _Prepared) -> tuple[float, np.ndarray]:
    """The objective at (mu, sd), less the rows' peaks, and its exact derivatives in mu and sd.

    The quadrature nodes move with (mu, sd), so the derivatives need the score at each node.
    """
    v = sd * sd
    value, grad = 0.0, np.zeros(2)
    if prep.norm_beta.size:
        # exact normal-normal convolution: estimate ~ N(mu, sd^2 + s_i^2)
        var = prep.norm_var + v
        dev = prep.norm_beta - mu
        value += float(np.sum(-0.5 * (_LOG_2PI + np.log(var)) - dev**2 / (2.0 * var)))
        grad += (np.sum(dev / var), sd * np.sum((dev / var) ** 2 - 1.0 / var))
    # Gauss-Hermite nodes at each integrand's approximate mode and scale resolve
    # narrow likelihoods: with a = mode - mu and s = sd^2 + width^2, node k lies
    # a*r + step*x_k from mu (r = sd^2/s, step = sqrt(2)*width*sd/sqrt(s)); the
    # normal exponent is expanded, so nothing divides by sd and sd = 0 is exact.
    a = prep.mode - mu
    s = v + prep.width2
    r, u, k = v / s, prep.width2 / s, prep.root2_width / np.sqrt(s)
    step = k * sd
    exponents, score = _node_log_likelihoods(prep, step[:, None] * _GH_X - (a * u)[:, None])
    # log(likelihood * normal density * node weight / Hermite kernel), less row constants
    exponents += _GH_LOGW
    exponents += r[:, None] * _GH_X2 - (a * step / s)[:, None] * _GH_X
    peak = exponents.max(axis=1)
    if not (peak > -np.inf).all():
        return -math.inf, grad  # some profile has zero mass under this (mu, sd)
    exponents -= peak[:, None]
    weights = np.exp(exponents, out=exponents)
    mass = weights.sum(axis=1)
    constant = a * a * r / (2.0 * s) + 0.5 * (math.log(math.pi) + np.log1p(v / prep.width2))
    value += float((peak + np.log(mass) - constant).sum())
    # each exponent's derivative, through its node (the score) and its terms,
    # averaged over the row's normalised weights by their moments in x
    m1, m2 = (weights @ _GH_X) / mass, (weights @ _GH_X2) / mass
    weights *= score
    s0, s1 = weights.sum(axis=1) / mass, (weights @ _GH_X) / mass
    d_mu = u * s0 + (a * r + step * m1) / s
    d_sd = u * (2.0 * a * sd * s0 / s + k * s1) + (
        2.0 * sd * u * m2 - sd - a * a * sd * (u - r) / s - a * k * (1.0 - 3.0 * r) * m1
    ) / s
    grad += (d_mu.sum(), d_sd.sum())
    return value, grad


def _evaluate_at_zero_sd(mu: float, prep: _Prepared) -> tuple[float, float]:
    """_evaluate's value and mu-derivative at sd = 0: each row's likelihood, taken once, at mu."""
    dev, var = prep.norm_beta - mu, prep.norm_var
    ll, score = _node_log_likelihoods(prep, (mu - prep.mode)[:, None])
    value = (-0.5 * (_LOG_2PI + np.log(var)) - dev**2 / (2.0 * var)).sum() + ll.sum()
    return float(value), float((dev / var).sum() + score.sum())


def marginal_log_likelihood(mu: float, sd: float, profiles: Iterable[LikelihoodProfile]) -> float:
    """Log marginal likelihood of (mu, sd) given negative-control profiles.

    Each profile contributes the log of its likelihood integrated against the
    normal bias density; at sd=0 the integral degenerates to the likelihood
    evaluated at mu. Normal-approximation profiles use the exact convolution;
    all other profiles use 64-point Gauss-Hermite quadrature. Counts are
    evaluated exactly at the quadrature nodes; grids read from files are
    linearly interpolated and, beyond their ends, continue an end segment that
    falls away from their maximum or else stay level.

    Raises:
        CurvatureError: A grid profile has no usable interior maximum.
        UninformativeProfileError: Counts without an interior maximum.
    """
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    if not (math.isfinite(sd) and sd >= 0):
        raise ValueError("sd must be nonnegative and finite")
    profiles = list(profiles)
    prep = _prepare(profiles)
    if prep.n_excluded:
        raise CurvatureError(f"{prep.n_excluded} grid profile(s) have no usable interior maximum")
    if prep.n_profiles == 0:
        raise ValueError("at least one profile is required")
    peaks = [_peak(profiles[i], m) for i, m in zip(prep.position[prep.norm_beta.size :], prep.mode)]
    value = _evaluate(mu, sd, prep)[0] if sd > 0 else _evaluate_at_zero_sd(mu, prep)[0]
    return value + float(np.sum(peaks))


def _peak(pr: LikelihoodProfile, mode: float) -> float:
    """A non-normal profile's log-likelihood at its mode."""
    if isinstance(pr, GridProfile):
        return pr.log_likelihoods.max()
    if isinstance(pr, PoissonCounts):
        return count_log_likelihood(mode, pr.observed, pr.expected, pr.offset)
    return count_log_likelihood(mode, pr.exposed, pr.null_proportion, pr.offset, pr.total)


def fit_error_model(profiles: Iterable[LikelihoodProfile]) -> ErrorModel:
    """Fit the systematic-error distribution to negative-control profiles.

    Maximizes the marginal likelihood (see marginal_log_likelihood) with one
    L-BFGS-B run on its exact gradient from the mean and sd of the profiles' MLEs.
    The objective is even in sd, so its derivative in sd is 0 at sd = 0, where a
    bound could stop the run at a saddle: the run is unbounded and the model
    takes |sd|. The run can end at a local maximum with sd > 0, so the best sd = 0
    model (a root of its derivative in the mean) is kept where it is no worse.
    `converged` marks a verified end of the run: it met its tolerances, or a
    Newton step from where it stopped would gain less than its ftol. Grids
    without a usable interior maximum are dropped and counted in n_excluded.

    Raises:
        InsufficientControlsError: Fewer than 2 usable profiles.
        FitError: The fit ended without a finite objective.
        UninformativeProfileError: Counts without an interior maximum.
    """
    prep = _prepare(list(profiles))
    if prep.n_profiles < 2:
        raise InsufficientControlsError(
            f"need at least 2 usable negative-control profiles, got {prep.n_profiles}"
        )
    mles = np.concatenate([prep.norm_beta, prep.mode])

    def negative_objective(params: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = _evaluate(float(params[0]), float(params[1]), prep)
        return (-value, -grad) if math.isfinite(value) else (math.inf, np.zeros(2))

    start = [np.mean(mles), np.std(mles, ddof=1)]
    res = minimize(negative_objective, start, jac=True, method="L-BFGS-B", options=_FIT_OPTIONS)
    if not math.isfinite(res.fun):
        raise FitError("no finite optimum found for the systematic-error distribution")
    mean, sd, converged = float(res.x[0]), abs(float(res.x[1])), bool(res.success)
    if not converged:  # rounding can leave a line search no decrease to find at the optimum
        hess = np.array([negative_objective(res.x + e)[1] - res.jac for e in 1e-6 * np.eye(2)])
        hess = (hess + hess.T) / 2e-6  # from forward differences of the exact gradient
        gain = 0.5 * res.jac @ np.linalg.solve(hess, res.jac) / max(abs(res.fun), 1.0)
        converged = min(np.linalg.eigvalsh(hess)) > 0 and gain <= _FIT_OPTIONS["ftol"]
    try:
        zero_mean = brentq(lambda m: _evaluate_at_zero_sd(m, prep)[1], mles.min(), mles.max())
    except ValueError:  # the derivative keeps its sign over the MLEs' range
        zero_mean = mean
    if _evaluate_at_zero_sd(zero_mean, prep)[0] >= -res.fun:
        mean, sd = zero_mean, 0.0
    return ErrorModel(mean, sd, prep.n_profiles, bool(converged), prep.n_excluded)


def leave_one_out_models(profiles: Sequence[LikelihoodProfile]) -> list[ErrorModel | None]:
    """Fit one model per profile, each excluding that profile from the fit.

    Entry i is fit_error_model of the profiles without profile i, or None where
    that fit failed, without aborting the other fits.
    """
    profiles = list(profiles)
    if len(profiles) < 3:
        raise InsufficientControlsError("leave-one-out requires at least 3 profiles")
    models: list[ErrorModel | None] = []
    for i in range(len(profiles)):
        try:
            models.append(fit_error_model(profiles[:i] + profiles[i + 1 :]))
        except (InsufficientControlsError, FitError):
            models.append(None)
    return models
