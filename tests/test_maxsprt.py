import functools
import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import integrate, stats

from seqcalib import maxsprt
from seqcalib.errormodel import ErrorModel
from seqcalib.likelihood import binomial_llr, poisson_llr, tilted_proportion
from seqcalib.maxsprt import (
    CriticalValueError,
    LookSchedule,
    MonteCarloConfig,
    compute_calibrated_cv,
    compute_cv,
)
from seqcalib.simharness import paper_scenarios, scenario_schedule


def poisson_one_look_oracle_cv(expected, alpha):
    """Exact tail enumeration: smallest LLR value whose exceedance prob <= alpha."""
    o = 0
    while stats.poisson.sf(o, expected) > alpha:
        o += 1
    return poisson_llr(o, expected), float(stats.poisson.sf(o, expected))


def binomial_one_look_oracle_cv(total, p, alpha):
    o = 0
    while stats.binom.sf(o, total, p) > alpha:
        o += 1
    return binomial_llr(o, total, p), float(stats.binom.sf(o, total, p))


def sample_llr_max(schedule, replicates, seed, model=None):
    """Maximum LLR across looks for independently simulated null replicates.

    Each replicate draws one standard-normal bias innovation shared by its
    looks (none without a model) and its counts from the tilted null; the
    LLR is against the unadjusted null. An oracle independent of the
    recursion.
    """
    rng = np.random.default_rng(seed)
    shape = (replicates, schedule.n_looks)
    bias = np.zeros(shape)
    if model is not None:
        bias += model.mean + model.sd * rng.standard_normal((replicates, 1))
    if schedule.model == "poisson":
        counts = rng.poisson(np.asarray(schedule.expected_increments) * np.exp(bias))
        llr = poisson_llr(np.cumsum(counts, axis=1), schedule.cumulative_expected())
    else:
        trials = schedule.binomial_trials()
        p = schedule.exposure_proportion
        counts = rng.binomial(trials, tilted_proportion(p, bias))
        llr = binomial_llr(np.cumsum(counts, axis=1), np.cumsum(trials), p)
    return llr.max(axis=1)


@functools.cache
def path_probabilities(schedule, max_increment, model=None):
    """Cumulative counts and probability of every count path.

    Increments run to max_increment at every look (the tail beyond it must
    be negligible). With a model the path probabilities are integrated over
    the shared bias innovation by adaptive quadrature, once per schedule,
    bound and model in a test run; callers must not modify the arrays.
    """
    n_looks = schedule.n_looks
    paths = np.array(list(itertools.product(range(max_increment + 1), repeat=n_looks)))
    if schedule.model == "poisson":
        increments = np.asarray(schedule.expected_increments)

        def path_probability(bias):
            return stats.poisson.pmf(paths, increments * np.exp(bias)).prod(axis=1)

    else:
        trials = schedule.binomial_trials()
        p = schedule.exposure_proportion
        paths = paths[np.all(paths <= trials, axis=1)]

        def path_probability(bias):
            return stats.binom.pmf(paths, trials, tilted_proportion(p, bias)).prod(axis=1)

    if model is None:
        probability = path_probability(np.zeros(n_looks))
    else:
        probability, _ = integrate.quad_vec(
            lambda z: stats.norm.pdf(z) * path_probability(model.mean + model.sd * z),
            -12.0,
            12.0,
            epsabs=1e-16,
            epsrel=1e-13,
            norm="max",
        )
    return np.cumsum(paths, axis=1), probability


def enumerated_cv(schedule, max_increment, model=None):
    """cv and attained alpha by summing the probability of every count path."""
    cumulative, probability = path_probabilities(schedule, max_increment, model)
    if schedule.model == "poisson":
        path_max = poisson_llr(cumulative, schedule.cumulative_expected()).max(axis=1)
    else:
        totals = np.cumsum(schedule.binomial_trials())
        path_max = binomial_llr(cumulative, totals, schedule.exposure_proportion).max(axis=1)
    values = np.unique(np.append(path_max, 0.0))
    alphas = np.array([probability[path_max > v].sum() for v in values])
    i = int(np.argmax(alphas <= schedule.alpha))
    return float(values[i]), float(alphas[i])


def reference_alpha(schedule, model, c, nodes=200):
    """Calibrated null probability that the LLR exceeds c at some look,
    without base rows or mixture weights.

    At each Gauss-Legendre node z the absorbing recursion runs under the
    null tilted by mean + sd * z on production's pmfs, with every count
    below each look's limit kept, and its surviving mass is integrated over
    z. It checks the rows and mixture weights, not the pmfs, which
    TestPmfs compares with exact ones.
    The nodes span the range of z outside of which, by the tails of the
    cumulative count, no path reaches a limit or every path passes the last
    one, each but for a probability below 1e-20.
    """
    poisson = schedule.model == "poisson"
    p = schedule.exposure_proportion
    if poisson:
        increments = np.asarray(schedule.expected_increments)
        totals = schedule.cumulative_expected()
    else:
        increments = schedule.binomial_trials()
        totals = np.cumsum(increments)
    limits = []  # per look, the number of counts whose LLR is at most c
    for total in totals:
        if poisson:
            counts = np.arange(2 * int(total) + 2)
            while poisson_llr(counts[-1], total) <= c:
                counts = np.arange(2 * counts.size)
            llr = poisson_llr(counts, total)
        else:
            llr = binomial_llr(np.arange(total + 1), total, p)
        limits.append(int(np.count_nonzero(llr <= c)))
        assert np.all(llr[: limits[-1]] <= c)
    limits = np.array(limits)

    def counts_at(z, looks):
        bias = model.mean + model.sd * z
        if poisson:
            return stats.poisson(looks * math.exp(bias))
        return stats.binom(looks, tilted_proportion(p, bias))

    def survived(z):
        bias = model.mean + model.sd * z
        f = np.ones(1)
        for n, limit in zip(increments, limits):
            if poisson:
                log_pmf = maxsprt._poisson_log_pmf(np.arange(limit), n * math.exp(bias))
            else:
                k, q = np.arange(min(limit, n + 1)), tilted_proportion(p, bias)
                log_pmf = maxsprt._binomial_log_pmf(k, int(n), q)
            f = np.convolve(f, np.exp(log_pmf))[:limit]
        return float(f.sum())

    lo = hi = 0.0
    while counts_at(lo, totals).sf(limits - 1).sum() >= 1e-20:
        lo -= 1.0
    while counts_at(hi, totals[-1]).cdf(limits[-1] - 1) >= 1e-20:
        hi += 1.0
    x, w = np.polynomial.legendre.leggauss(nodes)
    z = lo + (hi - lo) * (x + 1.0) / 2.0
    inside = (hi - lo) / 2.0 * sum(wi * survived(zi) * stats.norm.pdf(zi) for wi, zi in zip(w, z))
    return 1.0 - stats.norm.cdf(lo) - inside


def exact_poisson_pmf(rate, last):
    """Poisson pmf of the counts 0..last at a rate, by a 40-digit decimal recurrence."""
    with localcontext() as ctx:
        ctx.prec = 40
        r = Decimal(rate)
        values = [(-r).exp()]
        for k in range(1, last + 1):
            values.append(values[-1] * r / k)
        return np.array([float(v) for v in values])


def exact_binomial_pmf(n, q, last):
    """Binomial pmf of the counts 0..last of n trials at proportion q, by a 40-digit
    decimal recurrence."""
    with localcontext() as ctx:
        ctx.prec = 40
        q = Decimal(q)
        odds = q / (1 - q)
        values = [(1 - q) ** n]
        for k in range(1, last + 1):
            values.append(values[-1] * (n - k + 1) / k * odds)
        return np.array([float(v) for v in values])


def fresh_log_factorials(monkeypatch):
    monkeypatch.setattr(maxsprt, "_log_factorials", np.zeros(0))


# the cv design of the run-loo benchmark fixture: 4 looks of 393 trials
RUN_LOO_SCHEDULE = LookSchedule(
    (392.7,) * 4, alpha=0.05, model="binomial", exposure_proportion=0.11522633744855967
)


def exact_log_ratio(schedule, model, x, z):
    """Log likelihood ratio of final count x under innovation z against z = 0, and the
    sum of the sizes of its two terms, by 40-digit decimal arithmetic from the schedule
    and the model: s z x - rate (e^(s z) - 1) for Poisson, s z x - n (log(1 + e^(a + s z))
    - log(1 + e^a)) for binomial, a the log odds of the mean-shifted null proportion."""
    with localcontext() as ctx:
        ctx.prec = 40
        u = Decimal(model.sd) * Decimal(z)
        lead = u * Decimal(x)
        if schedule.model == "poisson":
            rate = sum(map(Decimal, schedule.expected_increments)) * Decimal(model.mean).exp()
            other = rate * (u.exp() - 1)
        else:
            p = Decimal(schedule.exposure_proportion)
            a = (p / (1 - p)).ln() + Decimal(model.mean)
            n = int(schedule.binomial_trials().sum())
            other = n * ((1 + (a + u).exp()).ln() - (1 + a.exp()).ln())
        return float(lead - other), float(abs(lead) + abs(other))


def worst_log_ratio_error(schedule, model, x, z):
    """Largest error of _log_ratio at counts x and innovations z (broadcast) against the
    decimal oracle, relative to the size of the ratio's terms."""
    got = maxsprt._NullRecursion(schedule, model)._log_ratio(x, z)
    x, z = np.broadcast_arrays(x, z)
    worst = 0.0
    for value, xi, zi in zip(got.ravel().tolist(), x.ravel().tolist(), z.ravel().tolist()):
        exact, size = exact_log_ratio(schedule, model, xi, zi)
        worst = max(worst, abs(value - exact) / size)
    return worst


class TestPmfs:
    """The recursion's pmfs against exact ones, over every count it computes:
    those within the Bernstein bounds at probability 1e-24."""

    @pytest.mark.parametrize("rate, bound", [(20.0, 1.4e-13), (600.0, 3e-12), (5000.0, 3.6e-11)])
    def test_poisson_matches_exact(self, rate, bound):
        first, last = maxsprt._support(rate, rate, maxsprt._LOG_DROP)
        pmf = np.exp(maxsprt._poisson_log_pmf(np.arange(first, last + 1), rate))
        exact = exact_poisson_pmf(rate, last)[first:]
        assert np.max(np.abs(pmf / exact - 1.0)) <= bound

    @pytest.mark.parametrize(
        "n, q, bound", [(393, 0.115, 7.4e-13), (1572, 0.14, 9.2e-12), (6000, 0.3, 3.4e-11)]
    )
    def test_binomial_matches_exact(self, n, q, bound):
        first, last = maxsprt._support(n * q, n * q * (1.0 - q), maxsprt._LOG_DROP)
        last = min(last, n)
        pmf = np.exp(maxsprt._binomial_log_pmf(np.arange(first, last + 1), n, q))
        exact = exact_binomial_pmf(n, q, last)[first:]
        assert np.max(np.abs(pmf / exact - 1.0)) <= bound

    @pytest.mark.parametrize("n, q", [(1, 0.3), (60, 0.3), (200, 0.9)])
    def test_no_and_every_trial_exposed(self, n, q):
        ends = np.array([0, n])
        pmf = np.exp(maxsprt._binomial_log_pmf(ends, n, q))
        assert pmf == pytest.approx(exact_binomial_pmf(n, q, n)[ends], rel=1e-13)

    def test_no_poisson_events(self):
        pmf = np.exp(maxsprt._poisson_log_pmf(np.zeros(1, dtype=np.int64), 3.7))
        assert pmf[0] == pytest.approx(math.exp(-3.7), rel=1e-15)

    def test_proportion_rounded_to_one_puts_every_count_on_the_trials(self):
        q = tilted_proportion(0.5, 40.0)
        assert q == 1.0
        pmf = np.exp(maxsprt._binomial_log_pmf(np.arange(11), 10, q))
        assert pmf.tolist() == [0.0] * 10 + [1.0]
        # every path exposes every trial, so it ends on the largest LLR
        schedule = LookSchedule((10.0, 10.0), alpha=0.05, model="binomial", exposure_proportion=0.5)
        result = compute_calibrated_cv(schedule, ErrorModel(40.0, 0.0))
        assert result.cv == binomial_llr(20, 20, 0.5)
        assert result.attained_alpha == 0.0

    def test_log_factorials_do_not_depend_on_how_the_table_grew(self, monkeypatch):
        k = np.arange(5000)
        fresh_log_factorials(monkeypatch)
        at_once = maxsprt._log_factorial(k)
        fresh_log_factorials(monkeypatch)
        for end in (1, 2, 3, 10, 700, 701, 5000):
            in_steps = maxsprt._log_factorial(k[:end])
        assert in_steps.tobytes() == at_once.tobytes()
        assert at_once.tolist() == [math.lgamma(v + 1) for v in range(5000)]

    def test_cvs_do_not_depend_on_what_was_computed_first(self, monkeypatch):
        def cvs():
            poisson = LookSchedule((23.1,) * 10, alpha=0.05)
            binomial = LookSchedule((393.0,) * 4, alpha=0.05, model="binomial", exposure_proportion=0.115)
            return [compute_cv(poisson), compute_calibrated_cv(binomial, ErrorModel(0.24, 0.17))]

        fresh_log_factorials(monkeypatch)
        first = cvs()
        fresh_log_factorials(monkeypatch)
        compute_cv(LookSchedule((600.0,) * 20, alpha=0.05))
        assert cvs() == first

    def test_counts_beyond_the_table_are_computed_one_by_one(self, monkeypatch):
        fresh_log_factorials(monkeypatch)
        monkeypatch.setattr(maxsprt, "_MAX_COUNTS", 100)
        k = np.array([5, 99, 150])
        assert maxsprt._log_factorial(k).tolist() == [math.lgamma(v + 1) for v in k.tolist()]
        assert maxsprt._log_factorials.size == 0
        assert maxsprt._log_factorial(k[:2]).tolist() == [math.lgamma(6), math.lgamma(100)]
        assert maxsprt._log_factorials.size == 100


class TestComputeCv:
    def test_one_look_poisson_matches_exact_oracle(self):
        schedule = LookSchedule((4.0,), alpha=0.05)
        result = compute_cv(schedule)
        oracle_cv, oracle_alpha = poisson_one_look_oracle_cv(4.0, 0.05)
        assert oracle_cv == poisson_llr(8, 4)  # signaling region is o >= 9
        assert result.cv == oracle_cv
        assert result.attained_alpha == pytest.approx(oracle_alpha, abs=0.003)

    def test_one_look_binomial_matches_enumeration(self):
        schedule = LookSchedule((20.0,), alpha=0.05, model="binomial", exposure_proportion=0.5)
        result = compute_cv(schedule)
        oracle_cv, _ = binomial_one_look_oracle_cv(20, 0.5, 0.05)
        assert result.cv == oracle_cv

    def test_alpha_one_gives_zero_cv(self):
        schedule = LookSchedule((4.0,), alpha=1.0)
        result = compute_cv(schedule)
        assert result.cv == 0.0

    def test_cv_monotone_nonincreasing_in_alpha(self):
        cvs = []
        for alpha in (0.01, 0.05, 0.1, 0.25, 0.5):
            schedule = LookSchedule((4.0, 4.0, 4.0), alpha=alpha)
            cvs.append(compute_cv(schedule).cv)
        assert all(b <= a for a, b in zip(cvs, cvs[1:]))

    def test_cv_nondecreasing_in_looks(self):
        # nested schedules: every exceedance path of a prefix is one of the longer schedule
        cvs = []
        for t in (1, 2, 4):
            schedule = LookSchedule((4.0,) * t, alpha=0.05)
            cvs.append(compute_cv(schedule).cv)
        assert cvs[0] <= cvs[1] <= cvs[2]

    def test_attained_alpha_at_most_alpha(self):
        schedule = LookSchedule((2.0, 3.0, 5.0), alpha=0.05)
        result = compute_cv(schedule)
        assert result.attained_alpha <= 0.05

    def test_null_signaling_rate_on_independent_seed(self):
        schedule = LookSchedule((3.0, 3.0, 3.0), alpha=0.05)
        result = compute_cv(schedule)
        fresh = sample_llr_max(schedule, 50_000, seed=2099)
        rate = float(np.mean(fresh > result.cv))
        assert rate <= 0.05
        assert rate >= result.attained_alpha - 3 * math.sqrt(0.05 / 50_000)

    def test_deterministic(self):
        schedule = LookSchedule((4.0, 4.0), alpha=0.05)
        a = compute_cv(schedule)
        b = compute_cv(schedule)
        assert a == b

    def test_monte_carlo_config_is_ignored(self):
        # nothing is sized by the replicate count: 10^12 replicates cost nothing
        schedule = LookSchedule((4.0, 4.0), alpha=0.05)
        huge = MonteCarloConfig(10**12, base_seed=5)
        assert compute_cv(schedule, huge) == compute_cv(schedule)
        model = ErrorModel(0.1, 0.2)
        assert compute_calibrated_cv(schedule, model, huge) == compute_calibrated_cv(schedule, model)

    @pytest.mark.parametrize(
        "schedule, max_increment",
        [
            (LookSchedule((2.0, 2.0, 2.0), alpha=0.05), 30),
            (LookSchedule((1.5, 2.5, 3.0), alpha=0.1), 30),
            (LookSchedule((6.0,) * 3, alpha=0.05, model="binomial", exposure_proportion=0.3), 6),
            (LookSchedule((4.0, 7.0, 5.0), alpha=0.02, model="binomial", exposure_proportion=0.5), 7),
        ],
    )
    def test_matches_path_enumeration(self, schedule, max_increment):
        oracle_cv, oracle_alpha = enumerated_cv(schedule, max_increment)
        result = compute_cv(schedule)
        assert result.cv == oracle_cv
        assert abs(result.attained_alpha - oracle_alpha) <= 1e-12


# two small calibrated schedules whose count paths can be enumerated
SMALL_CALIBRATED = pytest.mark.parametrize(
    "schedule, max_increment, model",
    [
        (LookSchedule((2.0, 2.0, 2.0), alpha=0.05), 30, ErrorModel(0.2, 0.3)),
        (
            LookSchedule((6.0,) * 3, alpha=0.05, model="binomial", exposure_proportion=0.3),
            6,
            ErrorModel(0.2, 0.4),
        ),
    ],
)


class TestComputeCalibratedCv:
    def test_null_model_reproduces_uncalibrated_exactly(self):
        for kwargs in (
            {"model": "poisson"},
            {"model": "binomial", "exposure_proportion": 0.3},
        ):
            schedule = LookSchedule((8.0, 8.0, 8.0), alpha=0.05, **kwargs)
            plain = compute_cv(schedule)
            calibrated = compute_calibrated_cv(schedule, ErrorModel(0.0, 0.0))
            assert calibrated.cv == plain.cv
            assert calibrated.attained_alpha == plain.attained_alpha

    def test_one_look_fixed_bias_matches_tilted_oracle(self):
        # bias (0.2, 0): null counts ~ Poisson(10 e^0.2), LLR against expected 10
        schedule = LookSchedule((10.0,), alpha=0.05)
        result = compute_calibrated_cv(schedule, ErrorModel(0.2, 0.0))
        rate = 10.0 * math.exp(0.2)
        o = 0
        while stats.poisson.sf(o, rate) > 0.05:
            o += 1
        assert result.cv == poisson_llr(o, 10.0)

    def test_bias_widens_null_and_raises_cv(self):
        schedule = LookSchedule((10.0,) * 5, alpha=0.05)
        plain = compute_cv(schedule).cv
        biased = compute_calibrated_cv(schedule, ErrorModel(0.0, 0.3)).cv
        assert biased > plain

    def test_model_must_be_one_error_model(self):
        schedule = LookSchedule((4.0, 4.0), alpha=0.05)
        with pytest.raises(TypeError):
            compute_calibrated_cv(schedule, [ErrorModel(0.1, 0.1)] * 2)

    def test_alpha_one_gives_zero_cv(self):
        schedule = LookSchedule((4.0, 4.0), alpha=1.0)
        assert compute_calibrated_cv(schedule, ErrorModel(0.2, 0.3)).cv == 0.0

    @SMALL_CALIBRATED
    def test_matches_integrated_path_enumeration(self, schedule, max_increment, model):
        oracle_cv, oracle_alpha = enumerated_cv(schedule, max_increment, model)
        result = compute_calibrated_cv(schedule, model)
        assert result.cv == oracle_cv
        assert abs(result.attained_alpha - oracle_alpha) <= 1e-10

    @SMALL_CALIBRATED
    def test_crossing_per_look_limits_matches_path_enumeration(self, schedule, max_increment, model):
        cumulative, probability = path_probabilities(schedule, max_increment, model)
        null = maxsprt._NullRecursion(schedule, model)
        # rising, falling, absorbing everything at a look, none before the last, past the table
        for limits in ([3, 6, 8], [9, 7, 5], [5, 0, 9], [math.inf, math.inf, 6], [4, 12, 60]):
            reached = probability[(cumulative >= np.array(limits)).any(axis=1)].sum()
            assert abs(null.crossing(limits) - reached) <= 1e-10, limits

    @pytest.mark.parametrize(
        "schedule",
        [
            LookSchedule((4.0,) * 3, alpha=0.05),
            LookSchedule((12.0,) * 3, alpha=0.05, model="binomial", exposure_proportion=0.2),
        ],
    )
    def test_exceedance_rate_matches_sampled_oracle(self, schedule):
        model = ErrorModel(0.2, 0.2)
        result = compute_calibrated_cv(schedule, model)
        n = 200_000
        rate = float(np.mean(sample_llr_max(schedule, n, seed=77, model=model) > result.cv))
        sigma = math.sqrt(result.attained_alpha * (1.0 - result.attained_alpha) / n)
        assert abs(rate - result.attained_alpha) <= 3.0 * sigma

    def test_node_doubling_changes_no_desk_cv(self, monkeypatch):
        # the desk designs and run-loo's
        schedules = [
            scenario_schedule(s)
            for s in paper_scenarios(repeats=1)
            if s.error_mean == 0.0 and s.error_sd == 0.0
        ] + [RUN_LOO_SCHEDULE]
        models = (ErrorModel(0.0, 0.2), ErrorModel(0.2, 0.2))
        base = [compute_calibrated_cv(s, m) for s in schedules for m in models]
        doubled_rule = np.polynomial.hermite.hermgauss(2 * maxsprt.GH_POINTS)
        monkeypatch.setattr(maxsprt, "_GH_X", doubled_rule[0])
        monkeypatch.setattr(maxsprt, "_GH_W", doubled_rule[1])
        monkeypatch.setattr(maxsprt, "_GH_LOGW", np.log(doubled_rule[1]))
        monkeypatch.setattr(maxsprt, "_GH_X2", doubled_rule[0] ** 2)
        doubled = [compute_calibrated_cv(s, m) for s in schedules for m in models]
        assert len(base) == 10
        for a, b in zip(base, doubled):
            assert a.cv == b.cv
            assert abs(a.attained_alpha - b.attained_alpha) <= 1e-12

    def test_extra_base_rows_change_nothing(self, monkeypatch):
        # a lower cap on the log weight forces several base rows
        schedule = LookSchedule((20.0,) * 4, alpha=0.05)
        model = ErrorModel(0.2, 0.3)
        one_row = compute_calibrated_cv(schedule, model)
        monkeypatch.setattr(maxsprt, "_MAX_LOG_WEIGHT", 3.0)
        null = maxsprt._NullRecursion(schedule, model)
        assert null.rows.size > 1
        rows = compute_calibrated_cv(schedule, model)
        assert rows.cv == one_row.cv
        assert abs(rows.attained_alpha - one_row.attained_alpha) <= 1e-12

    @pytest.mark.parametrize(
        "schedule, model, max_log_weight",
        [
            (RUN_LOO_SCHEDULE, ErrorModel(0.24, 0.17), maxsprt._MAX_LOG_WEIGHT),
            # a lower cap on the log weight forces several base rows
            (LookSchedule((20.0,) * 4, alpha=0.05), ErrorModel(0.2, 0.3), 3.0),
        ],
    )
    def test_reused_prefixes_change_no_exceedance(self, monkeypatch, schedule, model, max_log_weight):
        monkeypatch.setattr(maxsprt, "_MAX_LOG_WEIGHT", max_log_weight)
        null = maxsprt._NullRecursion(schedule, model)
        assert max_log_weight > 3.0 or null.rows.size > 1
        size = null.size
        values = [float(c) for c in schedule._boundary.candidates(0.0, 8.0)]
        mid = len(values) // 2
        before = [values[mid], values[mid + 1], values[-1], values[3], values[mid]]
        # one past the table: its last look's limit grows the table between calls
        beyond = float(schedule._boundary.llr(schedule.n_looks - 1, np.array([size + 10]))[0])
        sequence = before + [beyond, values[mid + 1], values[mid], values[-1]]
        convolutions = []
        convolve = np.convolve
        monkeypatch.setattr(np, "convolve", lambda *a: convolutions.append(1) or convolve(*a))
        reused = [null.exceedance(c) for c in sequence]
        assert null.size > size
        prefixed = len(convolutions)
        # each call on a fresh recursion, while the table has not grown ...
        assert reused[: len(before)] == [
            maxsprt._NullRecursion(schedule, model).exceedance(c) for c in before
        ]
        # ... and on one that grows alike but keeps no state from call to call
        plain = maxsprt._NullRecursion(schedule, model)
        del convolutions[prefixed:]
        for c, value in zip(sequence, reused):
            plain._chains.clear()
            assert plain.exceedance(c) == value  # bit for bit
        assert prefixed < len(convolutions) - prefixed  # the prefixes were reused

    @pytest.mark.parametrize(
        "schedule, model",
        [
            (
                LookSchedule((393.0,) * 4, alpha=0.05, model="binomial", exposure_proportion=0.115),
                ErrorModel(0.24, 0.17),
            ),
            (LookSchedule((20.0,) * 4, alpha=0.05), ErrorModel(0.2, 0.3)),
            (LookSchedule((60.0,) * 10, alpha=0.05), ErrorModel(0.0, 1.0)),
        ],
    )
    def test_matches_reference_without_rows(self, monkeypatch, schedule, model):
        result = compute_calibrated_cv(schedule, model)
        reference = reference_alpha(schedule, model, result.cv)
        assert abs(result.attained_alpha - reference) <= 1e-11 * reference
        below = schedule._boundary.candidates(0.0, result.cv)[-2]
        assert reference_alpha(schedule, model, below) > schedule.alpha
        # a lower cap on the log weight forces more base rows
        chosen = maxsprt._NullRecursion(schedule, model).rows.size
        monkeypatch.setattr(maxsprt, "_MAX_LOG_WEIGHT", 3.0)
        assert maxsprt._NullRecursion(schedule, model).rows.size > chosen
        more = compute_calibrated_cv(schedule, model)
        assert more.cv == result.cv
        assert abs(more.attained_alpha - reference) <= 1e-11 * reference


LOG_RATIO_SCHEDULES = {
    "run-loo": RUN_LOO_SCHEDULE,
    "run-loo-poisson": LookSchedule((392.7 * 0.11522633744855967,) * 4, alpha=0.05),
    **{
        s.design: scenario_schedule(s)
        for s in paper_scenarios(repeats=1)
        if s.sample_size == max(t.sample_size for t in paper_scenarios(repeats=1) if t.design == s.design)
        and s.error_mean == 0.0 and s.error_sd == 0.0
    },
}


class TestLogRatio:
    @pytest.mark.parametrize("model", [ErrorModel(0.24, 0.17), ErrorModel(0.2, 1.0)])
    @pytest.mark.parametrize("name", sorted(LOG_RATIO_SCHEDULES))
    def test_matches_decimal_oracle_at_the_quadrature_nodes(self, name, model):
        # every fifth count of the weight table, at each count's 32 nodes
        schedule = LOG_RATIO_SCHEDULES[name]
        null = maxsprt._NullRecursion(schedule, model)
        x = np.arange(0.0, null.size, 5.0)
        mode, _ = null._log_weight(x)
        scale = 1.0 / np.sqrt(1.0 - null._log_ratio_derivatives(x, mode)[1])
        z = mode + math.sqrt(2.0) * scale * maxsprt._GH_X[:, None]
        # twice the worst error measured over these designs and models: binomial
        # log1p(q0 expm1(s z)) 5.6e-16 (the logaddexp form read 5.2e-13), Poisson
        # rate * exp(s z) - rate 9.8e-13
        bound = 1.96e-12 if schedule.model == "poisson" else 1.12e-15
        assert worst_log_ratio_error(schedule, model, x, z) <= bound

    def test_binomial_ratio_past_expm1_overflow(self):
        # at sd 20 the innovations reach s z = 900, where expm1(s z) overflows
        model = ErrorModel(0.0, 20.0)
        x = np.array([0.0, 181.0, 1000.0, 1572.0])
        z = np.linspace(-45.0, 45.0, 30)[:, None]
        assert worst_log_ratio_error(RUN_LOO_SCHEDULE, model, x, z) <= 1.12e-15
        # the bias is so wide that only the largest attainable LLR is a cv
        boundary = RUN_LOO_SCHEDULE._boundary
        largest = max(boundary.llr(t, np.arange(n + 1)).max() for t, n in enumerate(boundary.cumulative))
        assert compute_calibrated_cv(RUN_LOO_SCHEDULE, model).cv == largest


def assert_matches_sampled_rate(schedule, result, model=None, n=20_000, seed=5):
    rate = float(np.mean(sample_llr_max(schedule, n, seed=seed, model=model) > result.cv))
    sigma = math.sqrt(result.attained_alpha * (1.0 - result.attained_alpha) / n)
    assert abs(rate - result.attained_alpha) <= 3.0 * sigma


class TestLargeDesigns:
    @pytest.mark.parametrize("model", [None, ErrorModel(0.0, 0.2)])
    def test_weekly_looks_of_a_large_database(self, model):
        # 52 looks of 2,000 expected events: final counts past 100,000
        schedule = LookSchedule((2000.0,) * 52, alpha=0.05)
        result = compute_cv(schedule) if model is None else compute_calibrated_cv(schedule, model)
        assert 0.0499 < result.attained_alpha <= 0.05
        assert_matches_sampled_rate(schedule, result, model)

    @pytest.mark.parametrize(
        "schedule, model",
        [
            (LookSchedule((300.0,) * 10, alpha=0.05), ErrorModel(0.0, 2.0)),
            (
                LookSchedule((157.0,) * 10, alpha=0.05, model="binomial", exposure_proportion=0.115),
                ErrorModel(0.0, 5.0),
            ),
        ],
    )
    def test_wide_models_supported(self, schedule, model):
        result = compute_calibrated_cv(schedule, model)
        assert 0.0 < result.attained_alpha <= 0.05
        assert_matches_sampled_rate(schedule, result, model)

    @pytest.mark.parametrize(
        "schedule, model, n_rows",
        [
            (LookSchedule((2000.0,) * 52, alpha=0.05), ErrorModel(0.0, 0.2), 32),
            (LookSchedule((2000.0,) * 52, alpha=0.05), ErrorModel(0.0, 0.4), 32),
            (LookSchedule((2000.0,) * 52, alpha=0.05), ErrorModel(0.0, 1.0), 64),
            (LookSchedule((38.46,) * 52, alpha=0.05), ErrorModel(0.0, 2.0), 8),
            (LookSchedule((300.0,) * 10, alpha=0.05), ErrorModel(0.0, 2.0), 8),
            (
                LookSchedule((2000.0,) * 52, alpha=0.05, model="binomial", exposure_proportion=0.115),
                ErrorModel(0.0, 0.2),
                16,
            ),
            (
                LookSchedule((2000.0,) * 52, alpha=0.05, model="binomial", exposure_proportion=0.115),
                ErrorModel(0.0, 1.0),
                16,
            ),
            (
                LookSchedule((393.0,) * 4, alpha=0.05, model="binomial", exposure_proportion=0.115),
                ErrorModel(0.24, 0.17),
                1,
            ),
        ],
    )
    def test_rows_chosen_by_work(self, schedule, model, n_rows):
        # the placement with the least recursion work: many rows on large
        # designs, whose convolutions dominate, one on a small binomial design
        assert maxsprt._NullRecursion(schedule, model).rows.size == n_rows

    def test_counts_beyond_the_supported_range_raise(self):
        # 2 million expected events: the count tables stop at 2**20
        with pytest.raises(CriticalValueError, match="beyond the supported"):
            compute_cv(LookSchedule((200_000.0,) * 10, alpha=0.05))

    def test_model_too_wide_for_the_rows_raises(self, monkeypatch):
        # no placement of base rows meets a cap below every count's log weight
        monkeypatch.setattr(maxsprt, "_MAX_LOG_WEIGHT", -1000.0)
        with pytest.raises(CriticalValueError, match="too wide"):
            compute_calibrated_cv(LookSchedule((20.0,) * 4, alpha=0.05), ErrorModel(0.0, 0.3))


def llr_of_every_count(schedule, c_max):
    """Per look, the LLR of every count from 0: up to one whose LLR exceeds c_max
    (Poisson) or up to the trial total (binomial)."""
    if schedule.model == "binomial":
        totals = np.cumsum(schedule.binomial_trials())
        return [binomial_llr(np.arange(n + 1), n, schedule.exposure_proportion) for n in totals]
    llrs = []
    for e in schedule.cumulative_expected():
        counts = np.arange(2 * int(e) + 2)
        while poisson_llr(counts[-1], e) <= c_max:
            counts = np.arange(2 * counts.size)
        llrs.append(poisson_llr(counts, e))
    return llrs


BOUNDARY_SCHEDULES = {
    "desk-poisson": dict(expected_increments=(23.1,) * 10),
    "run-loo-binomial": dict(
        expected_increments=(392.7,) * 4, model="binomial", exposure_proportion=0.11522633744855967
    ),
    "unequal-binomial": dict(
        expected_increments=(30.0, 55.0, 30.0, 120.0, 7.0), model="binomial", exposure_proportion=0.3
    ),
}


class TestBoundary:
    @pytest.mark.parametrize("block", [16, maxsprt._BLOCK])
    @pytest.mark.parametrize("name", sorted(BOUNDARY_SCHEDULES))
    def test_limits_and_candidates_match_every_count(self, monkeypatch, name, block):
        monkeypatch.setattr(maxsprt, "_BLOCK", block)
        schedule = LookSchedule(alpha=0.05, **BOUNDARY_SCHEDULES[name])
        boundary = schedule._boundary
        ties = np.unique(np.concatenate(llr_of_every_count(schedule, 8.0)))
        ties = ties[ties <= 8.0]
        values = [0.0, *ties, *(0.5 * (ties[1:] + ties[:-1]))]
        for c in values:
            boundary.limits(c)
        located = [firsts.size for firsts in boundary.firsts]
        scored = [*boundary.firsts, *(llr for blocks in boundary.blocks for llr in blocks.values())]
        beyond = 2.0 * max(llr.max() for llr in scored)
        values.append(beyond)  # past every count scored so far
        llrs = llr_of_every_count(schedule, beyond)
        boundary.memo.clear()  # look every value up again in the grown tables
        for c in values:
            assert boundary.limits(c).tolist() == [np.count_nonzero(llr <= c) for llr in llrs]
        for before, firsts, llr, floor in zip(located, boundary.firsts, llrs, boundary.floor):
            assert firsts.size > before or firsts.size == -(-(llr.size - floor) // block)
        for lo, hi in [(0.0, ties[5]), (values[-2], ties[-1]), (ties[3], beyond), (0.0, beyond)]:
            expected = np.unique(np.concatenate([llr[(llr > lo) & (llr <= hi)] for llr in llrs]))
            assert boundary.candidates(lo, hi).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["desk-poisson", "run-loo-binomial"])
    def test_cvs_do_not_depend_on_the_models_computed_before(self, name):
        # sd 0, leave-one-out-like neighbours and one wide model share one boundary
        models = [ErrorModel(0.2, 0.0), ErrorModel(0.2, 0.18), ErrorModel(0.21, 0.17),
                  ErrorModel(0.19, 0.19), ErrorModel(0.2, 0.2), ErrorModel(0.0, 1.0)]

        def schedule():
            return LookSchedule(alpha=0.05, **BOUNDARY_SCHEDULES[name])

        def cvs(order, shared=None):
            """Each model's (cv, attained alpha), computed in the given order on one
            shared schedule, or each on a fresh one."""
            results = {m: compute_calibrated_cv(shared or schedule(), m) for m in order}
            return [(results[m].cv, results[m].attained_alpha) for m in models]

        one = schedule()
        forward = cvs(models, one)
        assert cvs(models[::-1], one) == forward
        assert cvs(models[::-1], schedule()) == forward  # the wide model builds the tables
        assert cvs(models) == forward


class TestScheduleValidation:
    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            LookSchedule((), alpha=0.05)

    def test_nonpositive_increment_rejected(self):
        with pytest.raises(ValueError):
            LookSchedule((4.0, 0.0), alpha=0.05)

    def test_binomial_requires_proportion(self):
        with pytest.raises(ValueError):
            LookSchedule((4.0,), alpha=0.05, model="binomial")

    def test_poisson_rejects_proportion(self):
        with pytest.raises(ValueError):
            LookSchedule((4.0,), alpha=0.05, exposure_proportion=0.5)

    def test_trials_rounded_to_nearest_positive_integer(self):
        schedule = LookSchedule((15.7, 0.4), alpha=0.05, model="binomial", exposure_proportion=0.5)
        assert list(schedule.binomial_trials()) == [16, 1]


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"alpha": 0.0}, "alpha must lie in (0, 1]"),
        ({"alpha": 1.5}, "alpha must lie in (0, 1]"),
        ({"model": "normal"}, "model must be 'poisson' or 'binomial'"),
    ],
    ids=["alpha-zero", "alpha-above-one", "unknown-model"],
)
def test_schedule_input_check_raises_with_its_message(overrides, message):
    with pytest.raises(ValueError) as err:
        LookSchedule((4.0, 4.0), **{"alpha": 0.05, **overrides})
    assert type(err.value) is ValueError and str(err.value) == message
