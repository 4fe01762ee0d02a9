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
from dataclasses import dataclass, replace
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
    "fit_error_models",
    "leave_one_out_models",
    "marginal_log_likelihood",
]

GH_POINTS = 64
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(GH_POINTS)
_GH_LOGW = np.log(_GH_W)
_GH_POWERS = _GH_X ** np.arange(5)[:, None]  # x^0 ... x^4 at each node
_LOG_2PI = math.log(2.0 * math.pi)
# the basis' second moments among _evaluate's moments, table k against x^p at 5k + p
_GRAM = np.array(((12, 11, 8, 7), (11, 10, 7, 6), (8, 7, 4, 3), (7, 6, 3, 2)))
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
    A fold group (_take) gives every row column a leading axis of folds.
    """

    norm_beta: np.ndarray
    norm_var: np.ndarray
    grid_x: tuple[np.ndarray, ...]
    grid_ll: tuple[np.ndarray, ...]  # less the grid's peak
    grid_slope: tuple[np.ndarray, ...]  # per segment, padded with the end continuations
    grid_at: tuple  # per grid, its row, or its (fold, row) pairs, among the non-normal rows
    poisson: np.ndarray  # observed counts, a column
    binomial: tuple[np.ndarray, ...]  # columns: exposed, total, exposed / total, exposed - total
    mode: np.ndarray
    width2: np.ndarray
    root2_width: np.ndarray
    position: np.ndarray

    @property
    def n_profiles(self) -> int:
        return self.position.size


def _prepare(profiles: Sequence[LikelihoodProfile]) -> _Prepared:
    """Stack the profiles, dropping file grids without a usable maximum."""
    # rows are (input index, mode or estimate, width or variance, payload)
    normal, grids, poisson, binomial = [], [], [], []
    for index, pr in enumerate(profiles):
        if isinstance(pr, NormalApprox):
            normal.append((index, pr.point_estimate, pr.standard_error**2))
            continue
        try:
            mode, width = mle_and_se(pr)
        except CurvatureError:
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
        tuple(range(len(grids))),
        np.array([r[3] for r in poisson], dtype=float)[:, None],
        (exposed, total, exposed / total, exposed - total),
        np.array([r[1] for r in rows]),
        width * width,
        math.sqrt(2.0) * width,
        np.array([r[0] for r in normal + rows], dtype=int),
    )


def _take(prep: _Prepared, rows: np.ndarray, split: tuple[int, ...]) -> _Prepared:
    """prep's rows `rows` (ascending indices): one fold for a vector, or for a matrix a
    fold group, one fold per matrix row. Each fold's normal, grid and Poisson rows end
    at split[0], split[1] and split[2]."""
    a, b, c = split[:3]
    normal, other = rows[..., :a], rows[..., a:] - prep.norm_beta.size
    g, grids = len(prep.grid_x), other[..., : b - a]
    return replace(
        prep,
        norm_beta=prep.norm_beta[normal],
        norm_var=prep.norm_var[normal],
        grid_at=tuple(_index(np.nonzero(grids == i)) for i in range(g if b > a else 0)),
        poisson=prep.poisson[other[..., b - a : c - a] - g],
        binomial=tuple(column[other[..., c - a :] - g - len(prep.poisson)]
                       for column in prep.binomial),
        **{name: getattr(prep, name)[other] for name in ("mode", "width2", "root2_width")},
    )


def _index(at: tuple[np.ndarray, ...]):
    """Index arrays that pick one element as plain integers, which index a view."""
    return tuple(int(i[0]) for i in at) if at[0].size == 1 else at


def _node_log_likelihoods(prep: _Prepared, delta: np.ndarray) -> np.ndarray:
    """Log-likelihood, score and curvature of each non-normal row at its mode + its row of
    delta, stacked in one array.

    Log-likelihoods are taken less the row's peak, so they stay small and free
    of rounding noise. Counts are exact; file grids are linear between their
    points and, beyond them, continue an end segment falling away or stay level,
    so their curvature is 0 away from their points.
    """
    table = np.empty((3, *delta.shape))
    ll, score, curvature = table
    p = delta.shape[-2] - prep.binomial[0].shape[-2]
    g = p - prep.poisson.shape[-2]
    betas = prep.mode[..., :g, None] + delta[..., :g, :] if g else None
    for at, x, y, slope in zip(prep.grid_at, prep.grid_x, prep.grid_ll, prep.grid_slope):
        j = np.searchsorted(x, beta := betas[at])  # beta lies in (x[j-1], x[j]]
        score[at] = rise = slope[j]
        anchor = np.maximum(j - 1, 0)
        ll[at] = y[anchor] + rise * (beta - x[anchor])
    curvature[..., :g, :] = 0.0
    # with t = e^delta - 1, Poisson o*(delta - t), score o - e*e^beta = -o*t; binomial
    # o*delta - n*log(1 + q*t) with MLE proportion q = o/n, score o - n*q_beta; each
    # written in place into its rows of the table, which keeps a fold group's temporaries few
    if g < p:
        (ll_p, score_p, curvature_p), d = table[..., g:p, :], delta[..., g:p, :]
        observed, t = prep.poisson, np.expm1(d, out=curvature_p)
        np.multiply(observed, np.subtract(d, t, out=ll_p), out=ll_p)
        np.subtract(np.multiply(-observed, t, out=score_p), observed, out=curvature_p)
    if p < delta.shape[-2]:
        (ll_b, score_b, curvature_b), d = table[..., p:, :], delta[..., p:, :]
        exposed, total, proportion, deficit = prep.binomial
        qt = np.multiply(proportion, np.expm1(d, out=curvature_b), out=curvature_b)
        log_term = np.multiply(total, np.log1p(qt, out=ll_b), out=ll_b)
        np.subtract(np.multiply(exposed, d, out=score_b), log_term, out=ll_b)
        one_qt = 1.0 + qt
        np.divide(np.multiply(deficit, qt, out=score_b), one_qt, out=score_b)
        one_qt *= one_qt
        np.divide(np.multiply(deficit, np.add(proportion, qt, out=qt), out=qt), one_qt, out=qt)
    return table


def _evaluate(mu, sd, prep: _Prepared):
    """The objective at (mu, sd), less the rows' peaks, and its exact first and second
    derivatives in (mu, sd): the value, the gradient and the 2 x 2 Hessian.

    For a fold group (_take), mu, sd and each result are arrays of one entry per
    fold, and every sum over rows is taken per fold. The quadrature nodes move
    with (mu, sd), so the derivatives need the score and the curvature at each node.
    """
    mu_rows, sd_rows = (mu[:, None], sd[:, None]) if isinstance(sd, np.ndarray) else (mu, sd)
    v = sd_rows * sd_rows
    value = g_mu = g_sd = h_mm = h_ms = h_ss = 0.0
    if prep.norm_beta.size:
        # exact normal-normal convolution: estimate ~ N(mu, sd^2 + s_i^2)
        var = prep.norm_var + v
        dev = prep.norm_beta - mu_rows
        value += (-0.5 * (_LOG_2PI + np.log(var)) - dev**2 / (2.0 * var)).sum(axis=-1)
        inv = 1.0 / var
        z = dev * inv
        z2 = z * z
        g_mu, g_sd = z.sum(axis=-1), sd * (z2 - inv).sum(axis=-1)
        h_mm, h_ms = -inv.sum(axis=-1), -2.0 * sd * (z * inv).sum(axis=-1)
        h_ss = (z2 - inv + 2.0 * v * inv * (inv - 2.0 * z2)).sum(axis=-1)
    if not prep.mode.size:
        return value, (g_mu, g_sd), ((h_mm, h_ms), (h_ms, h_ss))
    # Gauss-Hermite nodes at each integrand's approximate mode and scale resolve
    # narrow likelihoods: with a = mode - mu and s = sd^2 + width^2, node k lies
    # a*r + step*x_k from mu (r = sd^2/s, step = sqrt(2)*width*sd/sqrt(s)); the
    # normal exponent is expanded, so nothing divides by sd and sd = 0 is exact.
    a = prep.mode - mu_rows
    s = v + prep.width2
    r, u, k = v / s, prep.width2 / s, prep.root2_width / np.sqrt(s)
    step = k * sd_rows
    h = step / s
    table = _node_log_likelihoods(prep, delta := step[..., None] * _GH_X - (a * u)[..., None])
    # log(likelihood * normal density * node weight / Hermite kernel), less row constants
    exponents, score, curvature = table
    exponents += _GH_LOGW
    terms = np.multiply((a * h)[..., None], _GH_X, out=delta)
    exponents += np.subtract(r[..., None] * _GH_POWERS[2], terms, out=terms)
    peak = exponents.max(axis=-1)
    # where some profile has zero mass under this (mu, sd), the fold's value is -inf; its
    # nodes are zeroed so that its other results, which are not read, stay finite
    dead = False if (peak > -np.inf).all() else ~(peak > -np.inf).all(axis=-1)
    if dead is not False:
        exponents[dead] = score[dead] = curvature[dead] = peak[dead] = 0.0
    exponents -= peak[..., None]
    # node weights, weight * score and weight * (score^2 + curvature), which is
    # weight * L''/L at the node, in place, and their moments against x^0..x^4 per row
    weights = np.exp(exponents, out=exponents)
    curvature += np.multiply(score, score, out=delta)
    score *= weights
    curvature *= weights
    moments = np.einsum("knj,pj->kpn", table.reshape(3, -1, _GH_X.size), _GH_POWERS)
    moments = moments.reshape(15, *peak.shape)  # table k against x^p at 5k + p
    mass = moments[0].copy()
    moments /= mass
    constant = a * a * r / (2.0 * s) + 0.5 * (math.log(math.pi) + np.log1p(v / prep.width2))
    value += (peak + np.log(mass) - constant).sum(axis=-1)
    # Each exponent moves with its node delta = step*x - a*u (through the score and
    # the curvature) and with its terms r*x^2 - a*h*x (h = step/s). Its derivative
    # in mu is u*score + h*x, and in sd k*u*score*x + a*r1*score + r1*x^2 - a*h1*x,
    # with r1, h1 the sd-derivatives of r and h: coefficients `first` on the basis
    # score*x, score, x^2, x. Averaged over the row's normalised weights they give
    # the gradient; the Hessian adds their covariance over the weights (through
    # the basis' second moments `gram`, the curvature joining score^2), the
    # average of the second derivatives through the terms, and, as for the
    # gradient, the row constant's derivatives.
    r1 = 2.0 * sd_rows * u / s
    h1 = k * (1.0 - 3.0 * r) / s
    r2 = 2.0 * u * (1.0 - 4.0 * r) / s
    h2 = k * sd_rows * (15.0 * r - 9.0) / (s * s)
    mean = moments[[6, 5, 2, 1]]  # of the basis
    gram = moments[_GRAM]
    zero = np.zeros_like(u)
    first = np.array(((zero, u, zero, h), (k * u, a * r1, r1, -a * h1)))
    e_mu, e_sd = np.einsum("ia...,a...->i...", first, mean)
    # one call per fold: the batched sum over rows would not keep each fold's order
    firsts, grams = first.reshape(2, 4, -1, u.shape[-1]), gram.reshape(4, 4, -1, u.shape[-1])
    q = np.empty((firsts.shape[2], 2, 2))
    for f, q_f in enumerate(q):
        np.einsum("ian,abn,jbn->ij", firsts[:, :, f], grams[:, :, f], firsts[:, :, f], out=q_f)
    q = q.reshape(*peak.shape[:-1], 2, 2)
    (s1, s0, m2, m1) = mean
    d1 = sd_rows * (u - r) / (s * s)  # the first and second sd-derivatives of r / (2s)
    d2 = (u - 3.0 * r - 6.0 * r * (u - r)) / (s * s)
    g_mu += (e_mu + a * r / s).sum(axis=-1)
    g_sd += (e_sd - a * a * d1 - sd_rows / s).sum(axis=-1)
    h_mm += q[..., 0, 0] - (e_mu * e_mu + r / s).sum(axis=-1)
    h_ms += q[..., 0, 1] - (e_mu * e_sd + r1 * s0 - h1 * m1 - 2.0 * a * d1).sum(axis=-1)
    h_ss += q[..., 1, 1] + (
        a * (r2 * s0 - h2 * m1) + r2 * m2 - 1.5 * k * r1 * s1
        - e_sd * e_sd - a * a * d2 - (u - r) / s
    ).sum(axis=-1)
    value = value if dead is False else np.where(dead, -np.inf, value)
    return value, (g_mu, g_sd), ((h_mm, h_ms), (h_ms, h_ss))


def _evaluate_at_zero_sd(mu, prep: _Prepared):
    """_evaluate's value and first and second mu-derivatives at sd = 0: each row's
    likelihood, taken once, at mu."""
    mu_rows = mu[:, None] if isinstance(mu, np.ndarray) else mu
    dev, var = prep.norm_beta - mu_rows, prep.norm_var
    ll, score, curvature = _node_log_likelihoods(prep, (mu_rows - prep.mode)[..., None])[..., 0]
    value = (-0.5 * (_LOG_2PI + np.log(var)) - dev**2 / (2.0 * var)).sum(axis=-1)
    d_mu = (dev / var).sum(axis=-1) + score.sum(axis=-1)
    return value + ll.sum(axis=-1), d_mu, curvature.sum(axis=-1) - (1.0 / var).sum(axis=-1)


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
    if prep.n_profiles < len(profiles):
        raise CurvatureError(f"{len(profiles) - prep.n_profiles} grid profile(s) have no usable "
                             "interior maximum")
    if prep.n_profiles == 0:
        raise ValueError("at least one profile is required")
    peaks = [_peak(profiles[i], m) for i, m in zip(prep.position[prep.norm_beta.size :], prep.mode)]
    value = _evaluate(mu, sd, prep)[0] if sd > 0 else _evaluate_at_zero_sd(mu, prep)[0]
    return float(value) + float(np.sum(peaks))


def _peak(pr: LikelihoodProfile, mode: float) -> float:
    """A non-normal profile's log-likelihood at its mode."""
    if isinstance(pr, GridProfile):
        return pr.log_likelihoods.max()
    if isinstance(pr, PoissonCounts):
        return count_log_likelihood(mode, pr.observed, pr.expected, pr.offset)
    return count_log_likelihood(mode, pr.exposed, pr.null_proportion, pr.offset, pr.total)


class NewtonRun(NamedTuple):
    """Where a Newton run ended: x, the objective there, its evaluations, and
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


def _lockstep(runs: dict, evaluate) -> dict:
    """The return values of generator runs, each sent the evaluation of each point it
    yields: a round evaluates every unfinished run's point in one evaluate(points)
    call, which takes and returns dicts keyed like `runs`."""
    ends, points = {}, {key: next(run) for key, run in runs.items()}
    while points:
        for key, evaluation in evaluate(points).items():
            try:
                points[key] = runs[key].send(evaluation)
            except StopIteration as end:
                ends[key] = end.value
                del points[key]
    return ends


def minimize(fun, x0: tuple[float, float]) -> NewtonRun:
    """Minimize fun, which returns (value, gradient, Hessian) at a point, by _newton's run."""
    return _lockstep({0: _newton(x0)}, lambda points: {0: fun(points[0])})[0]


def _newton(x0: tuple[float, float]):
    """Newton's method as a generator: yields points, is sent (value, gradient,
    Hessian) at each, and returns a NewtonRun.

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
    f, grad, hess = yield x
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
            f_trial, grad_trial, hess_trial = yield trial
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


def _zero_sd_mean(lo: float, hi: float, start: float):
    """A generator that yields means, is sent _evaluate_at_zero_sd's (value,
    derivative, curvature) at each, and returns the mean in [lo, hi] at which the
    sd = 0 objective's derivative in the mean changes sign and the objective
    there; start and the objective there where the derivative keeps its sign.

    Newton steps on the curvature, kept inside a shrinking bracket, with bisection
    wherever a step leaves the bracket or would not halve the step before it, as
    on file grids, whose curvature is 0. The search ends on a step below
    2e-12 + 4 eps |mean|, the tolerance of scipy's brentq.
    """
    (value_lo, d_lo, _), (value_hi, d_hi, _) = (yield lo), (yield hi)
    if d_lo * d_hi >= 0.0:
        if d_lo == 0.0 or d_hi == 0.0:
            return (lo, value_lo) if d_lo == 0.0 else (hi, value_hi)
        return start, (yield start)[0]
    if d_lo < 0.0:
        lo, hi = hi, lo  # from here on the derivative is positive at lo, negative at hi
    x = min(max(start, min(lo, hi)), max(lo, hi))
    step = previous = abs(hi - lo)
    for _ in range(_ROOT_ITERATIONS):
        value, d_mu, curvature = yield x
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


def _fit_folds(
    prep: _Prepared, kept: list[np.ndarray], excluded: list[int]
) -> list[ErrorModel | None]:
    """fit_error_model of each fold, the rows kept[i] of prep with excluded[i] profiles
    dropped; None where a fold has fewer than 2 rows or no finite optimum.

    The folds' Newton runs, then their sd = 0 searches, go in lockstep: each round
    evaluates the points of the folds that split alike into kinds in one call. A lone
    fold's Newton run goes through minimize.
    """
    # where each fold's normal, grid and Poisson rows end, and its size: folds alike in
    # these have rows of the same kinds in the same places, and are evaluated together
    bounds = np.cumsum([prep.norm_beta.size, len(prep.grid_x), len(prep.poisson)]).tolist()
    split = [(*np.searchsorted(rows, bounds).tolist(), rows.size) for rows in kept]
    estimates = np.concatenate([prep.norm_beta, prep.mode])
    mles = [estimates[rows] for rows in kept]
    groups: dict[tuple, _Prepared] = {}
    plans: dict[tuple, list] = {}

    def group(folds):  # the rows of folds that split alike; a lone fold's without a fold axis
        if folds not in groups:
            rows = np.array([kept[i] for i in folds])
            groups[folds] = (_take(prep, rows, split[folds[0]]) if len(folds) > 1
                             else prep if rows.size == prep.n_profiles
                             else _take(prep, rows[0], split[folds[0]]))
        return groups[folds]

    def lockstep(runs, objective):
        def evaluate(points):
            if (active := tuple(points)) not in plans:  # its folds, grouped by split
                plans[active] = [tuple(i for i in active if split[i] == key)
                                 for key in dict.fromkeys(split[i] for i in active)]
            results = {}
            for folds in plans[active]:
                # a lone fold is evaluated on floats, which costs less
                x = np.array([points[i] for i in folds]).T if len(folds) > 1 else points[folds[0]]
                results.update(zip(folds, objective(x, group(folds))))
            return results

        return _lockstep(runs, evaluate)

    def per_fold(*columns):  # each fold's floats, from columns of one value or one per fold
        if not isinstance(columns[0], np.ndarray):  # a lone fold's scalars
            return [[float(c) for c in columns]]
        return np.array(columns).reshape(len(columns), -1).T.tolist()

    def negative_objective(x, part):  # for _newton, which minimizes
        value, (g_mu, g_sd), ((h_mm, h_ms), (_, h_ss)) = _evaluate(x[0], x[1], part)
        return [(-f, (-a, -b), ((-c, -d), (-d, -e)))
                for f, a, b, c, d, e in per_fold(value, g_mu, g_sd, h_mm, h_ms, h_ss)]

    starts = {i: (float(np.mean(mles[i])), float(np.std(mles[i], ddof=1)))
              for i, rows in enumerate(kept) if rows.size >= 2}
    if len(starts) == len(kept) == 1:  # a lone fit runs through minimize, the one-run driver
        runs = {0: minimize(lambda x: negative_objective(x, group((0,)))[0], starts[0])}
    else:
        runs = lockstep({i: _newton(x0) for i, x0 in starts.items()}, negative_objective)
    runs = {i: run for i, run in runs.items() if math.isfinite(run.fun)}
    zeros = lockstep({i: _zero_sd_mean(float(mles[i].min()), float(mles[i].max()), run.x[0])
                      for i, run in runs.items()},
                     lambda x, part: per_fold(*_evaluate_at_zero_sd(x, part)))
    models: list[ErrorModel | None] = [None] * len(kept)
    for i, run in runs.items():  # the objective is even in sd: the model takes |sd|
        mean, sd = (zeros[i][0], 0.0) if zeros[i][1] >= -run.fun else (run.x[0], abs(run.x[1]))
        models[i] = ErrorModel(mean, sd, kept[i].size, run.success, excluded[i])
    return models


def fit_error_model(profiles: Iterable[LikelihoodProfile]) -> ErrorModel:
    """Fit the systematic-error distribution to negative-control profiles.

    Maximizes the marginal likelihood (see marginal_log_likelihood) with one
    Newton run (_newton) on its exact gradient and Hessian in (mean, sd), from
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
    profiles = list(profiles)
    (model,) = fit_error_models([profiles])
    if model is not None:
        return model
    if (usable := _prepare(profiles).n_profiles) < 2:  # prepared again on failure only
        raise InsufficientControlsError(
            f"need at least 2 usable negative-control profiles, got {usable}"
        )
    raise FitError("no finite optimum found for the systematic-error distribution")


def fit_error_models(
    profile_sets: Iterable[Iterable[LikelihoodProfile]],
) -> list[ErrorModel | None]:
    """fit_error_model of each set, or None where that call would raise InsufficientControlsError
    or FitError. Every profile is prepared once, and the sets' fits, one fold each, run in
    lockstep (_fit_folds); UninformativeProfileError aborts them all."""
    sets = [list(profiles) for profiles in profile_sets]
    prep = _prepare([pr for profiles in sets for pr in profiles])
    owner = np.repeat(np.arange(len(sets)), [len(profiles) for profiles in sets])[prep.position]
    kept = [np.flatnonzero(owner == k) for k in range(len(sets))]
    return _fit_folds(prep, kept, [len(p) - k.size for p, k in zip(sets, kept)])


def leave_one_out_models(profiles: Sequence[LikelihoodProfile]) -> list[ErrorModel | None]:
    """Fit one model per profile, each excluding that profile from the fit.

    Entry i equals fit_error_model of the profiles without profile i, or is None
    where that fit would fail, without aborting the other fits. Each profile is
    prepared (its MLE and SE estimated) once, and the fits run in lockstep
    (_fit_folds).
    """
    profiles = list(profiles)
    if len(profiles) < 3:
        raise InsufficientControlsError("leave-one-out requires at least 3 profiles")
    prep = _prepare(profiles)
    rows, excluded = np.arange(prep.n_profiles), len(profiles) - prep.n_profiles
    kept = [rows[prep.position != i] for i in range(len(profiles))]
    return _fit_folds(prep, kept, [excluded - (k.size == rows.size) for k in kept])
