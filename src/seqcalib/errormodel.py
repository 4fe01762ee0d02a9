"""Estimation of the residual systematic-error distribution.

Negative controls are exposure-outcome pairs with no believed causal
relation, so their true log effect size is zero and any estimated effect
reflects systematic error plus sampling noise. Assuming the per-outcome
bias is drawn from a normal distribution, this module fits that
distribution's mean and standard deviation by maximizing the marginal
likelihood of the negative-control profiles, integrating the bias out of
each profile's likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import minimize

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
_GH_LOG_KERNEL = _GH_X**2 + _GH_LOGW
_SIGMA_EPS = 1e-6
_LOG_2PI = math.log(2.0 * math.pi)


class InsufficientControlsError(ValueError):
    """Fewer usable negative-control profiles than the fit requires."""


class FitError(RuntimeError):
    """The systematic-error fit failed to produce a finite optimum."""


@dataclass(frozen=True)
class ErrorModel:
    """Fitted normal distribution of systematic error on the log effect scale.

    A model with mean 0 and sd 0 expresses certainty that no systematic
    error exists, which reduces every calibrated statistic to its
    uncalibrated counterpart.
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

    Rows run normal approximations first, then file grids, Poisson counts
    and binomial counts; `position` maps each row to the profile's index in
    the input. `mode` and `width`, the grid MLE and SE of every row after
    the normal ones, place that row's quadrature nodes.
    """

    norm_beta: np.ndarray
    norm_var: np.ndarray
    grid_x: tuple[np.ndarray, ...]
    grid_ll: tuple[np.ndarray, ...]
    poisson: np.ndarray  # columns: observed, expected, offset
    binomial: np.ndarray  # columns: exposed, null proportion, offset, total
    mode: np.ndarray
    width: np.ndarray
    position: np.ndarray
    n_excluded: int

    @property
    def n_profiles(self) -> int:
        return self.position.size

    def without(self, index: int) -> _Prepared:
        """The same rows without the input profile at `index`."""
        if index not in self.position:  # an excluded profile
            return replace(self, n_excluded=self.n_excluded - 1)
        keep = self.position != index
        a = self.norm_beta.size
        b = a + len(self.grid_x)
        c = b + len(self.poisson)
        return _Prepared(
            self.norm_beta[keep[:a]],
            self.norm_var[keep[:a]],
            tuple(x for x, k in zip(self.grid_x, keep[a:b]) if k),
            tuple(ll for ll, k in zip(self.grid_ll, keep[a:b]) if k),
            self.poisson[keep[b:c]],
            self.binomial[keep[c:]],
            self.mode[keep[a:]],
            self.width[keep[a:]],
            self.position[keep],
            self.n_excluded,
        )


def _prepare(profiles: Sequence[LikelihoodProfile]) -> _Prepared:
    """Stack the profiles, dropping and counting grids without a usable maximum."""
    # rows are (input index, mode or estimate, width or variance, payload)
    normal: list[tuple] = []
    grids: list[tuple] = []
    poisson: list[tuple] = []
    binomial: list[tuple] = []
    excluded = 0
    for index, pr in enumerate(profiles):
        if isinstance(pr, NormalApprox):
            normal.append((index, pr.point_estimate, pr.standard_error**2))
            continue
        if not isinstance(pr, GridProfile):
            raise TypeError(f"unsupported profile: {type(pr).__name__}")
        try:
            mode, width = mle_and_se(pr)
        except CurvatureError:
            excluded += 1
            continue
        c = pr.counts
        if c is None:
            grids.append((index, mode, width, pr))
        elif isinstance(c, PoissonCounts):
            poisson.append((index, mode, width, (c.observed, c.expected, c.offset)))
        else:
            binomial.append(
                (index, mode, width, (c.exposed, c.null_proportion, c.offset, c.total))
            )
    rows = grids + poisson + binomial
    return _Prepared(
        np.array([r[1] for r in normal]),
        np.array([r[2] for r in normal]),
        tuple(r[3].grid_points for r in grids),
        tuple(r[3].log_likelihoods for r in grids),
        np.array([r[3] for r in poisson]).reshape(-1, 3),
        np.array([r[3] for r in binomial]).reshape(-1, 4),
        np.array([r[1] for r in rows]),
        np.array([r[2] for r in rows]),
        np.array([r[0] for r in normal + rows], dtype=int),
        excluded,
    )


def _count_log_likelihoods(prep: _Prepared, beta: np.ndarray, *, out: np.ndarray) -> None:
    """Write the exact log-likelihood of each count row at its row of beta into out.

    beta and out have one row per row of prep.mode; file-grid rows are left alone.
    """
    g = len(prep.grid_x)
    p = g + len(prep.poisson)
    if len(prep.poisson):
        out[g:p] = count_log_likelihood(beta[g:p], *prep.poisson.T[:, :, None])
    if len(prep.binomial):
        out[p:] = count_log_likelihood(beta[p:], *prep.binomial.T[:, :, None])


def _evaluate(mu: float, sd: float, prep: _Prepared) -> float:
    total = 0.0
    if prep.norm_beta.size:
        # exact normal-normal convolution: estimate ~ N(mu, sd^2 + s_i^2)
        var = prep.norm_var + sd * sd
        total += float(
            np.sum(-0.5 * (_LOG_2PI + np.log(var)) - (prep.norm_beta - mu) ** 2 / (2.0 * var))
        )
    if prep.mode.size == 0:
        return total
    n_grids = len(prep.grid_x)
    if sd == 0.0:
        for x, ll in zip(prep.grid_x, prep.grid_ll):
            total += float(np.interp(mu, x, ll, left=-np.inf, right=-np.inf))
        if prep.mode.size > n_grids:
            at_mu = np.full((prep.mode.size, 1), mu)
            _count_log_likelihoods(prep, at_mu, out=at_mu)
            total += float(np.sum(at_mu[n_grids:]))
        return total
    # Gauss-Hermite nodes placed at the approximate mode/scale of each
    # integrand product, so narrow likelihoods are still resolved
    sd2 = sd * sd
    prec = 1.0 / sd2 + 1.0 / prep.width**2
    w_star = prec**-0.5
    m_star = (mu / sd2 + prep.mode / prep.width**2) / prec
    nodes = m_star[:, None] + math.sqrt(2.0) * w_star[:, None] * _GH_X[None, :]
    ll_nodes = np.empty_like(nodes)
    for i, (x, ll) in enumerate(zip(prep.grid_x, prep.grid_ll)):
        ll_nodes[i] = np.interp(nodes[i], x, ll, left=-np.inf, right=-np.inf)
    _count_log_likelihoods(prep, nodes, out=ll_nodes)
    # in place, in the order of ll + log_phi + kernel + log(2)/2 + log(w_star)
    exponents = ll_nodes
    exponents += -0.5 * (_LOG_2PI + math.log(sd2)) - (nodes - mu) ** 2 / (2.0 * sd2)
    exponents += _GH_LOG_KERNEL[None, :]
    exponents += 0.5 * math.log(2.0)
    exponents += np.log(w_star)[:, None]
    peak = exponents.max(axis=1)
    if not np.all(peak > -np.inf):
        return -math.inf  # some profile has zero mass under this (mu, sd)
    exponents -= peak[:, None]
    np.exp(exponents, out=exponents)
    total += float(np.sum(peak + np.log(np.sum(exponents, axis=1))))
    return total


def marginal_log_likelihood(
    mu: float, sd: float, profiles: Iterable[LikelihoodProfile]
) -> float:
    """Log marginal likelihood of (mu, sd) given negative-control profiles.

    Each profile contributes the log of its likelihood integrated against the
    normal bias density; at sd=0 the integral degenerates to the likelihood
    evaluated at mu. Normal-approximation profiles use the exact convolution;
    all other profiles use 64-point Gauss-Hermite quadrature. Count-derived
    grids (from profile_from_counts) are evaluated exactly from their counts
    at the quadrature nodes; grids read from files are linearly interpolated.

    Raises:
        CurvatureError: A grid profile has no usable interior maximum.
    """
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    if not (math.isfinite(sd) and sd >= 0):
        raise ValueError("sd must be nonnegative and finite")
    prep = _prepare(list(profiles))
    if prep.n_excluded:
        raise CurvatureError(f"{prep.n_excluded} grid profile(s) have no usable interior maximum")
    if prep.n_profiles == 0:
        raise ValueError("at least one profile is required")
    return _evaluate(mu, sd, prep)


def fit_error_model(profiles: Iterable[LikelihoodProfile]) -> ErrorModel:
    """Fit the systematic-error distribution to negative-control profiles.

    Maximizes the marginal likelihood (see marginal_log_likelihood: exact for
    normal approximations and count-derived grids, interpolated for grids
    read from files) over (mean, log sd) with a Nelder-Mead simplex from
    three starting points; the sd=0 boundary is reachable. Profiles without
    a usable interior maximum are dropped and counted in the returned
    model's n_excluded.

    Raises:
        InsufficientControlsError: Fewer than 2 usable profiles.
        FitError: No starting point reached a finite optimum.
    """
    return _fit(_prepare(list(profiles)))


def _fit(prep: _Prepared) -> ErrorModel:
    if prep.n_profiles < 2:
        raise InsufficientControlsError(
            f"need at least 2 usable negative-control profiles, got {prep.n_profiles}"
        )
    mles = np.concatenate([prep.norm_beta, prep.mode])

    def negative_objective(params: np.ndarray) -> float:
        mu, z = params
        sd = max(0.0, math.exp(min(z, 50.0)) - _SIGMA_EPS)
        value = _evaluate(mu, sd, prep)
        return -value if math.isfinite(value) else math.inf

    starts = [
        (0.0, 0.1),
        (0.0, 0.5),
        (float(np.mean(mles)), float(np.std(mles, ddof=1))),
    ]
    best = None
    for m0, s0 in starts:
        res = minimize(
            negative_objective,
            np.array([m0, math.log(s0 + _SIGMA_EPS)]),
            method="Nelder-Mead",
            options={"xatol": 1e-5, "fatol": 1e-6, "maxiter": 4000, "maxfev": 4000},
        )
        if best is None or res.fun < best.fun:
            best = res
    if best is None or not math.isfinite(best.fun):
        raise FitError("no finite optimum found for the systematic-error distribution")
    sd_hat = max(0.0, math.exp(min(float(best.x[1]), 50.0)) - _SIGMA_EPS)
    return ErrorModel(
        mean=float(best.x[0]),
        sd=sd_hat,
        n_controls=prep.n_profiles,
        converged=bool(best.success),
        n_excluded=prep.n_excluded,
    )


def leave_one_out_models(
    profiles: Sequence[LikelihoodProfile],
) -> list[ErrorModel | None]:
    """Fit one model per profile, each excluding that profile from the fit.

    The profiles are prepared once and each fit runs on the remaining rows,
    so entry i equals fit_error_model of the profiles without profile i.
    Entries are None where the reduced fit failed; failures do not abort the
    remaining fits. Result order matches the input order.
    """
    profiles = list(profiles)
    if len(profiles) < 3:
        raise InsufficientControlsError("leave-one-out requires at least 3 profiles")
    prep = _prepare(profiles)
    models: list[ErrorModel | None] = []
    for i in range(len(profiles)):
        try:
            models.append(_fit(prep.without(i)))
        except (InsufficientControlsError, FitError):
            models.append(None)
    return models
