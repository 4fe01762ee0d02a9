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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

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
_GH_POWERS = _GH_X ** np.arange(5)[:, None]  # x^0 ... x^4 at each node
_LOG_2PI = math.log(2.0 * math.pi)
# minimize succeeds at a positive-definite Hessian where every gradient component
# is <= gtol or a step would gain <= ftol relative, or after a step that gained that
_FIT_OPTIONS = {"ftol": 1e-14, "gtol": 1e-6, "maxiter": 500}
_LINE_SEARCH_TRIES = 30
_ROOT_ITERATIONS = 200


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


def _node_log_likelihoods(
    prep: _Prepared, delta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-likelihood, score and curvature of each non-normal row at its mode + its row of delta.

    Log-likelihoods are taken less the row's peak, so they stay small and free
    of rounding noise. Counts are exact; file grids are linear between their
    points and, beyond them, continue an end segment falling away or stay level,
    so their curvature is 0 away from their points.
    """
    ll, score, curvature = np.empty_like(delta), np.empty_like(delta), np.empty_like(delta)
    for i, (x, y, slope) in enumerate(zip(prep.grid_x, prep.grid_ll, prep.grid_slope)):
        beta = prep.mode[i] + delta[i]
        j = np.searchsorted(x, beta)  # beta lies in (x[j-1], x[j]]
        score[i] = slope[j]
        anchor = np.maximum(j - 1, 0)
        ll[i] = y[anchor] + score[i] * (beta - x[anchor])
    g, p = len(prep.grid_x), len(prep.grid_x) + len(prep.poisson)
    curvature[:g] = 0.0
    # with t = e^delta - 1, Poisson o*(delta - t), score o - e*e^beta = -o*t; binomial
    # o*delta - n*log(1 + q*t) with MLE proportion q = o/n, score o - n*q_beta
    if g < p:
        observed, t = prep.poisson, np.expm1(delta[g:p])
        ll[g:p] = observed * (delta[g:p] - t)
        score[g:p] = -observed * t
        np.subtract(score[g:p], observed, out=curvature[g:p])
    if p < len(delta):
        exposed, total, proportion, deficit = prep.binomial
        qt = proportion * np.expm1(delta[p:])
        ll[p:] = exposed * delta[p:] - total * np.log1p(qt)
        one_qt = 1.0 + qt
        score[p:] = deficit * qt / one_qt
        curvature[p:] = deficit * (proportion + qt) / (one_qt * one_qt)
    return ll, score, curvature


def _evaluate(
    mu: float, sd: float, prep: _Prepared
) -> tuple[float, tuple[float, float], tuple[tuple[float, float], tuple[float, float]]]:
    """The objective at (mu, sd), less the rows' peaks, and its exact first and second
    derivatives in (mu, sd): the value, the gradient and the 2 x 2 Hessian.

    The quadrature nodes move with (mu, sd), so the derivatives need the score
    and the curvature at each node.
    """
    v = sd * sd
    value = g_mu = g_sd = h_mm = h_ms = h_ss = 0.0
    if prep.norm_beta.size:
        # exact normal-normal convolution: estimate ~ N(mu, sd^2 + s_i^2)
        var = prep.norm_var + v
        dev = prep.norm_beta - mu
        value += float(np.sum(-0.5 * (_LOG_2PI + np.log(var)) - dev**2 / (2.0 * var)))
        inv = 1.0 / var
        z = dev * inv
        z2 = z * z
        g_mu, g_sd = float(z.sum()), sd * float((z2 - inv).sum())
        h_mm, h_ms = -float(inv.sum()), -2.0 * sd * float((z * inv).sum())
        h_ss = float((z2 - inv + 2.0 * v * inv * (inv - 2.0 * z2)).sum())
    if not prep.mode.size:
        return value, (g_mu, g_sd), ((h_mm, h_ms), (h_ms, h_ss))
    # Gauss-Hermite nodes at each integrand's approximate mode and scale resolve
    # narrow likelihoods: with a = mode - mu and s = sd^2 + width^2, node k lies
    # a*r + step*x_k from mu (r = sd^2/s, step = sqrt(2)*width*sd/sqrt(s)); the
    # normal exponent is expanded, so nothing divides by sd and sd = 0 is exact.
    a = prep.mode - mu
    s = v + prep.width2
    r, u, k = v / s, prep.width2 / s, prep.root2_width / np.sqrt(s)
    step = k * sd
    h = step / s
    ll, score, curvature = _node_log_likelihoods(prep, step[:, None] * _GH_X - (a * u)[:, None])
    # log(likelihood * normal density * node weight / Hermite kernel), less row constants
    exponents = ll
    exponents += _GH_LOGW
    exponents += r[:, None] * _GH_POWERS[2] - (a * h)[:, None] * _GH_X
    peak = exponents.max(axis=1)
    if not (peak > -np.inf).all():  # some profile has zero mass under this (mu, sd)
        return -math.inf, (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0))
    exponents -= peak[:, None]
    # node weights, weight * score and weight * (score^2 + curvature), which is
    # weight * L''/L at the node, and their moments against x^0..x^4 per row
    table = np.empty((3, *exponents.shape))
    weights = np.exp(exponents, out=table[0])
    np.multiply(weights, score, out=table[1])
    curvature += score * score
    np.multiply(weights, curvature, out=table[2])
    moments = np.einsum("knj,pj->kpn", table, _GH_POWERS)
    mass = moments[0, 0].copy()
    moments /= mass
    constant = a * a * r / (2.0 * s) + 0.5 * (math.log(math.pi) + np.log1p(v / prep.width2))
    value += float((peak + np.log(mass) - constant).sum())
    # Each exponent moves with its node delta = step*x - a*u (through the score and
    # the curvature) and with its terms r*x^2 - a*h*x (h = step/s). Its derivative
    # in mu is u*score + h*x, and in sd k*u*score*x + a*r1*score + r1*x^2 - a*h1*x,
    # with r1, h1 the sd-derivatives of r and h: coefficients `first` on the basis
    # score*x, score, x^2, x. Averaged over the row's normalised weights they give
    # the gradient; the Hessian adds their covariance over the weights (through
    # the basis' second moments `gram`, the curvature joining score^2), the
    # average of the second derivatives through the terms, and, as for the
    # gradient, the row constant's derivatives.
    r1 = 2.0 * sd * u / s
    h1 = k * (1.0 - 3.0 * r) / s
    r2 = 2.0 * u * (1.0 - 4.0 * r) / s
    h2 = k * sd * (15.0 * r - 9.0) / (s * s)
    mean = moments[(1, 1, 0, 0), (1, 0, 2, 1)]  # of the basis
    gram = moments[((2, 2, 1, 1), (2, 2, 1, 1), (1, 1, 0, 0), (1, 1, 0, 0)),
                   ((2, 1, 3, 2), (1, 0, 2, 1), (3, 2, 4, 3), (2, 1, 3, 2))]
    zero = np.zeros_like(u)
    first = np.array(((zero, u, zero, h), (k * u, a * r1, r1, -a * h1)))
    e_mu, e_sd = np.einsum("ian,an->in", first, mean)
    (q_mm, q_ms), (_, q_ss) = np.einsum("ian,abn,jbn->ij", first, gram, first).tolist()
    (s1, s0, m2, m1) = mean
    d1 = sd * (u - r) / (s * s)  # the first and second sd-derivatives of r / (2s)
    d2 = (u - 3.0 * r - 6.0 * r * (u - r)) / (s * s)
    g_mu += float((e_mu + a * r / s).sum())
    g_sd += float((e_sd - a * a * d1 - sd / s).sum())
    h_mm += q_mm - float((e_mu * e_mu + r / s).sum())
    h_ms += q_ms - float((e_mu * e_sd + r1 * s0 - h1 * m1 - 2.0 * a * d1).sum())
    h_ss += q_ss + float(
        (
            a * (r2 * s0 - h2 * m1) + r2 * m2 - 1.5 * k * r1 * s1
            - e_sd * e_sd - a * a * d2 - (u - r) / s
        ).sum()
    )
    return value, (g_mu, g_sd), ((h_mm, h_ms), (h_ms, h_ss))


def _evaluate_at_zero_sd(mu: float, prep: _Prepared) -> tuple[float, float, float]:
    """_evaluate's value and first and second mu-derivatives at sd = 0: each row's
    likelihood, taken once, at mu."""
    dev, var = prep.norm_beta - mu, prep.norm_var
    ll, score, curvature = _node_log_likelihoods(prep, (mu - prep.mode)[:, None])
    value = (-0.5 * (_LOG_2PI + np.log(var)) - dev**2 / (2.0 * var)).sum() + ll.sum()
    d_mu = (dev / var).sum() + score.sum()
    return float(value), float(d_mu), float(curvature.sum() - (1.0 / var).sum())


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


class NewtonRun(NamedTuple):
    """Where a minimize run ended: x, the objective there, its evaluations, and
    whether the end is a verified minimum."""

    x: tuple[float, float]
    fun: float
    nfev: int
    success: bool


def _newton_step(grad, hess, kinks) -> tuple[tuple[float, float], float, bool]:
    """The step -|B|^-1 g, the decrease g'|B|^-1 g / 2 it predicts, and whether B
    is positive definite.

    B is the Hessian with the gradient jumps that it cannot see, at the kinks of
    interpolated grids, added: for each (step, gradient change) pair in kinks
    along which the gradient rose by more than B accounts for, the symmetric
    rank-one update that makes B reproduce it. |B| has B's eigenvectors and the
    absolute values of its eigenvalues, so the step descends wherever B is not
    positive definite.
    """
    (b11, b12), (_, b22) = hess
    for (s1, s2), (y1, y2) in kinks:
        r1, r2 = y1 - b11 * s1 - b12 * s2, y2 - b12 * s1 - b22 * s2
        excess = r1 * s1 + r2 * s2
        if excess > 0.0:
            b11, b12, b22 = (b11 + r1 * r1 / excess, b12 + r1 * r2 / excess,
                             b22 + r2 * r2 / excess)
    mid, radius = 0.5 * (b11 + b22), math.hypot(0.5 * (b11 - b22), b12)
    angle = 0.5 * math.atan2(2.0 * b12, b11 - b22)
    cos, sin = math.cos(angle), math.sin(angle)
    big, small = mid + radius, mid - radius  # along (cos, sin) and (-sin, cos)
    floor = 1e-12 * max(abs(big), abs(small)) or 1.0
    along = (cos * grad[0] + sin * grad[1]) / max(abs(big), floor)
    across = (cos * grad[1] - sin * grad[0]) / max(abs(small), floor)
    step = (sin * across - cos * along, -sin * along - cos * across)
    return step, -0.5 * (grad[0] * step[0] + grad[1] * step[1]), small > 0.0


def minimize(fun, x0: tuple[float, float]) -> NewtonRun:
    """Minimize fun, which returns (value, gradient, Hessian) at a point, by Newton's method.

    Each step is _newton_step's, at most four times as long as the last step
    taken, and halved until the objective decreases. A step that had to be
    shortened leaves kink pairs for the next steps, until a full Newton step
    succeeds: the step taken, and from its end to the last point tried. The run
    succeeds where B is positive definite and every gradient component is within
    gtol or the next step would gain at most ftol relative, or where the last
    step gained at most ftol relative (see _FIT_OPTIONS); it fails where maxiter
    steps, or a line search, end first.
    """
    ftol, gtol, maxiter = (_FIT_OPTIONS[key] for key in ("ftol", "gtol", "maxiter"))
    x = x0
    f, grad, hess = fun(x)
    nfev, gained, kinks, longest = 1, math.inf, [], math.inf
    for iteration in range(maxiter + 1):
        if not math.isfinite(f):
            break
        step, gain, definite = _newton_step(grad, hess, kinks)
        settled = max(abs(grad[0]), abs(grad[1])) <= gtol or gain <= ftol * max(abs(f), 1.0)
        if (definite and settled) or gained <= ftol:
            return NewtonRun(x, f, nfev, True)
        length = math.hypot(*step)
        if iteration == maxiter or not length:
            break
        t, tried = min(1.0, longest / length), None
        for _ in range(_LINE_SEARCH_TRIES):
            trial = (x[0] + t * step[0], x[1] + t * step[1])
            f_trial, grad_trial, hess_trial = fun(trial)
            nfev += 1
            if f_trial < f:
                break
            if math.isfinite(f_trial):
                tried = trial, grad_trial
            t *= 0.5
        else:
            break
        longest = 4.0 * t * length
        if t == 1.0:
            kinks = []
        elif tried is not None:
            ends = [(x, grad), (trial, grad_trial), tried]
            kinks = kinks[-2:] + [
                ((x2[0] - x1[0], x2[1] - x1[1]), (g2[0] - g1[0], g2[1] - g1[1]))
                for (x1, g1), (x2, g2) in zip(ends, ends[1:])
            ]
        gained = (f - f_trial) / max(abs(f), abs(f_trial), 1.0)
        x, f, grad, hess = trial, f_trial, grad_trial, hess_trial
    return NewtonRun(x, f, nfev, False)


def _zero_sd_mean(
    prep: _Prepared, lo: float, hi: float, start: float
) -> tuple[float, float] | None:
    """The mean in [lo, hi] at which the sd = 0 objective's derivative in the mean
    changes sign, and the objective there; None where the derivative keeps its sign.

    Newton steps on the curvature, kept inside a shrinking bracket, with bisection
    wherever a step leaves the bracket or would not halve the step before it, as
    on file grids, whose curvature is 0. The search ends on a step below
    2e-12 + 4 eps |mean|, the tolerance of scipy's brentq.
    """
    (value_lo, d_lo, _), (value_hi, d_hi, _) = (_evaluate_at_zero_sd(m, prep) for m in (lo, hi))
    if d_lo * d_hi >= 0.0:
        return (lo, value_lo) if d_lo == 0.0 else (hi, value_hi) if d_hi == 0.0 else None
    if d_lo < 0.0:
        lo, hi = hi, lo  # from here on the derivative is positive at lo, negative at hi
    x = min(max(start, min(lo, hi)), max(lo, hi))
    step = previous = abs(hi - lo)
    for _ in range(_ROOT_ITERATIONS):
        value, d_mu, curvature = _evaluate_at_zero_sd(x, prep)
        tolerance = 2e-12 + 8.9e-16 * abs(x)
        if d_mu == 0.0 or (curvature and abs(d_mu / curvature) < tolerance):
            break
        if d_mu > 0.0:
            lo = x
        else:
            hi = x
        newton = x - d_mu / curvature if curvature else math.nan
        if (lo < newton < hi or hi < newton < lo) and abs(2.0 * d_mu) < abs(previous * curvature):
            previous, step = step, newton - x
        else:
            previous, step = step, 0.5 * (hi - lo)
            newton = lo + step
        if abs(step) < tolerance:
            break
        x = newton
    return x, value


def fit_error_model(profiles: Iterable[LikelihoodProfile]) -> ErrorModel:
    """Fit the systematic-error distribution to negative-control profiles.

    Maximizes the marginal likelihood (see marginal_log_likelihood) with one
    Newton run (minimize) on its exact gradient and Hessian in (mean, sd), from
    the mean and sd of the profiles' MLEs. The objective is even in sd, so its
    derivative in sd is 0 at sd = 0; the run is unbounded and the model takes
    |sd|. The run can end at a local maximum with sd > 0, so the best sd = 0
    model (a root of its derivative in the mean, _zero_sd_mean) is kept where
    it is no worse. `converged` marks a verified end of the run: a
    negative-definite Hessian, with the gradient jumps seen at the kinks of
    interpolated grids added, where every gradient component is within 1e-6 or
    a Newton step would gain at most 1e-14 relative; or a last step that gained
    at most 1e-14 relative. A model at sd = 0 kept over the run's end reports
    the run's flag. Grids without a usable interior maximum are dropped and
    counted in n_excluded.

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

    def negative_objective(x: tuple[float, float]):
        value, (g_mu, g_sd), ((h_mm, h_ms), (_, h_ss)) = _evaluate(x[0], x[1], prep)
        return -value, (-g_mu, -g_sd), ((-h_mm, -h_ms), (-h_ms, -h_ss))

    res = minimize(negative_objective, (float(np.mean(mles)), float(np.std(mles, ddof=1))))
    if not math.isfinite(res.fun):
        raise FitError("no finite optimum found for the systematic-error distribution")
    mean, sd = res.x[0], abs(res.x[1])
    zero = _zero_sd_mean(prep, float(mles.min()), float(mles.max()), mean)
    if zero is None:  # the derivative keeps its sign over the MLEs' range
        zero = mean, _evaluate_at_zero_sd(mean, prep)[0]
    if zero[1] >= -res.fun:
        mean, sd = zero[0], 0.0
    return ErrorModel(mean, sd, prep.n_profiles, res.success, prep.n_excluded)


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
