import math

import numpy as np
import pytest
from scipy import stats

from seqcalib.likelihood import (
    BinomialCounts,
    CurvatureError,
    GridProfile,
    NormalApprox,
    PoissonCounts,
    UninformativeProfileError,
    binomial_llr,
    count_log_likelihood,
    mle_and_se,
    poisson_llr,
    profile_from_counts,
    tilted_proportion,
)


class TestPoissonLlr:
    def test_at_null_is_zero(self):
        assert poisson_llr(5, 5) == 0.0

    def test_below_null_is_zero(self):
        assert poisson_llr(3, 5) == 0.0

    def test_above_null_matches_pmf_ratio(self):
        # independent oracle: ratio of Poisson pmfs with the rate at the MLE
        expected = math.log(stats.poisson.pmf(10, 10) / stats.poisson.pmf(10, 5))
        assert poisson_llr(10, 5) == pytest.approx(expected, abs=1e-12)

    def test_zero_count(self):
        assert poisson_llr(0, 5) == 0.0

    @pytest.mark.parametrize("observed,expected", [(-1, 5), (5, 0), (5, -1), (math.nan, 5), (5, math.inf)])
    def test_domain_errors(self, observed, expected):
        with pytest.raises(ValueError):
            poisson_llr(observed, expected)

    def test_monotone_in_observed(self):
        values = [poisson_llr(o, 5.0) for o in range(0, 41)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_nonnegative_and_zero_iff_at_or_below_null(self):
        for o in range(0, 30):
            for e in (0.5, 3.0, 10.0):
                llr = poisson_llr(o, e)
                assert llr >= 0.0
                assert (llr == 0.0) == (o <= e)

    def test_arrays_match_scalars_bit_for_bit(self):
        # critical values are picked from array evaluations and compared
        # against scalar ones, so the two must give identical floats
        counts = np.arange(0, 400)
        expected = np.array([[0.7], [4.0], [23.1], [231.0]])
        table = poisson_llr(counts, expected)
        assert table.shape == (4, 400)
        for i, e in enumerate(expected[:, 0]):
            assert [poisson_llr(int(o), float(e)) for o in counts] == table[i].tolist()
        assert isinstance(poisson_llr(8, 4.0), float)

    def test_array_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_llr(np.array([1, -1]), 2.0)


class TestBinomialLlr:
    def test_at_null_is_zero(self):
        assert binomial_llr(5, 10, 0.5) == 0.0

    def test_below_null_is_zero(self):
        assert binomial_llr(2, 10, 0.5) == 0.0

    def test_above_null_matches_pmf_ratio(self):
        expected = math.log(stats.binom.pmf(8, 10, 0.8) / stats.binom.pmf(8, 10, 0.5))
        assert binomial_llr(8, 10, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_all_exposed(self):
        expected = math.log(stats.binom.pmf(10, 10, 1.0) / stats.binom.pmf(10, 10, 0.5))
        assert binomial_llr(10, 10, 0.5) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("args", [(5, 0, 0.5), (-1, 10, 0.5), (11, 10, 0.5), (5, 10, 0.0), (5, 10, 1.0)])
    def test_domain_errors(self, args):
        with pytest.raises(ValueError):
            binomial_llr(*args)

    def test_monotone_in_exposed(self):
        values = [binomial_llr(o, 30, 0.3) for o in range(0, 31)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_arrays_match_scalars_bit_for_bit(self):
        totals = np.array([[20], [157], [1571]])
        counts = np.arange(0, 400)
        table = binomial_llr(np.minimum(counts, totals), totals, 0.115)
        for row, n in zip(table, totals[:, 0].tolist()):
            assert [binomial_llr(min(o, n), n, 0.115) for o in counts.tolist()] == row.tolist()
        assert isinstance(binomial_llr(8, 10, 0.5), float)

    def test_array_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_llr(np.array([3, 11]), np.array([10, 10]), 0.5)

    def test_sequence_p_matches_array_p_bit_for_bit(self):
        exposed, totals = [3, 9, 40, 17, 2], [10, 12, 60, 17, 2]
        p = [0.115, 0.5, 28 / 243, 0.3, 0.9]
        from_list = binomial_llr(exposed, totals, p)
        from_array = binomial_llr(np.array(exposed), np.array(totals), np.array(p))
        assert from_list.tolist() == from_array.tolist()
        assert from_list.tolist() == [binomial_llr(*row) for row in zip(exposed, totals, p)]

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_sequence_p_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="p must lie"):
            binomial_llr([3, 4], [10, 10], [0.5, bad])


class TestTiltedProportion:
    def test_zero_shift_returns_p_exactly(self):
        assert tilted_proportion(0.5, 0.0) == 0.5
        assert tilted_proportion(28 / 243, 0.0) == 28 / 243

    def test_odds_tripling(self):
        assert tilted_proportion(0.5, math.log(3.0)) == pytest.approx(0.75, abs=1e-12)

    def test_vectorized(self):
        out = tilted_proportion(0.5, np.array([0.0, math.log(3.0)]))
        np.testing.assert_allclose(out, [0.5, 0.75], atol=1e-12)
        assert out[0] == 0.5

    def test_extreme_shift_saturates(self):
        assert 0.0 <= tilted_proportion(0.5, -1000.0) < 1e-10
        assert 1.0 - 1e-10 < tilted_proportion(0.5, 1000.0) <= 1.0


class TestProfileFromCounts:
    def test_poisson_argmax_at_analytic_mle(self):
        profile = profile_from_counts(PoissonCounts(10, 5))
        mle, _ = mle_and_se(profile)
        step = profile.grid_points[1] - profile.grid_points[0]
        assert abs(mle - math.log(2.0)) <= step

    def test_binomial_argmax_at_odds_ratio(self):
        profile = profile_from_counts(BinomialCounts(8, 10, 0.5))
        mle, _ = mle_and_se(profile)
        step = profile.grid_points[1] - profile.grid_points[0]
        assert abs(mle - math.log(4.0)) <= step

    def test_zero_events_uninformative(self):
        with pytest.raises(UninformativeProfileError):
            profile_from_counts(PoissonCounts(0, 5))

    def test_binomial_boundary_uninformative(self):
        with pytest.raises(UninformativeProfileError):
            profile_from_counts(BinomialCounts(0, 10, 0.5))
        with pytest.raises(UninformativeProfileError):
            profile_from_counts(BinomialCounts(10, 10, 0.5))

    def test_grid_expands_beyond_default_range(self):
        # analytic MLE ln(100) ~ 4.6 sits outside the default [-4, 4]
        profile = profile_from_counts(PoissonCounts(50, 0.5))
        mle, _ = mle_and_se(profile)
        step = profile.grid_points[1] - profile.grid_points[0]
        assert abs(mle - math.log(100.0)) <= step

    def test_argmax_matches_analytic_mle_across_counts(self):
        for e in (0.5, 1.0, 5.0, 20.0):
            for o in range(1, 51):
                profile = profile_from_counts(PoissonCounts(o, e))
                mle, _ = mle_and_se(profile)
                step = profile.grid_points[1] - profile.grid_points[0]
                assert abs(mle - math.log(o / e)) <= step, (o, e)

    def test_grid_llr_matches_closed_form(self):
        # LLR read off the grid (max minus value at zero) vs. the closed form
        for o, e in [(10, 5), (20, 5), (7, 1), (40, 20), (3, 0.5)]:
            profile = profile_from_counts(PoissonCounts(o, e))
            ll = profile.log_likelihoods
            ll_at_zero = float(np.interp(0.0, profile.grid_points, ll))
            assert ll.max() - ll_at_zero == pytest.approx(poisson_llr(o, e), abs=1e-3)

    def test_binomial_grid_llr_matches_closed_form(self):
        for o, n, p in [(8, 10, 0.5), (20, 40, 0.3), (15, 30, 0.25)]:
            profile = profile_from_counts(BinomialCounts(o, n, p))
            ll = profile.log_likelihoods
            ll_at_zero = float(np.interp(0.0, profile.grid_points, ll))
            assert ll.max() - ll_at_zero == pytest.approx(binomial_llr(o, n, p), abs=1e-3)


class TestCountLogLikelihood:
    def test_poisson_matches_logpmf_differences(self):
        beta = np.linspace(-2.0, 2.0, 41)
        data = PoissonCounts(13, 6.5)
        ll = count_log_likelihood(beta, data.observed, data.expected, data.offset)
        oracle = stats.poisson.logpmf(13, 6.5 * np.exp(beta))
        assert np.allclose(ll - ll[20], oracle - oracle[20], rtol=0, atol=1e-10)

    def test_binomial_matches_logpmf_differences(self):
        beta = np.linspace(-2.0, 2.0, 41)
        data = BinomialCounts(9, 25, 0.2)
        ll = count_log_likelihood(beta, 9, 0.2, data.offset, total=25)
        oracle = stats.binom.logpmf(9, 25, tilted_proportion(0.2, beta))
        assert np.allclose(ll - ll[20], oracle - oracle[20], rtol=0, atol=1e-10)

    def test_columns_broadcast_against_rows_of_points(self):
        counts = [PoissonCounts(3, 2.0), PoissonCounts(40, 55.5)]
        beta = np.array([[-0.5, 0.0, 0.7], [0.1, 0.2, 0.3]])
        observed = np.array([[c.observed] for c in counts], dtype=float)
        expected = np.array([[c.expected] for c in counts])
        offset = np.array([[c.offset] for c in counts])
        stacked = count_log_likelihood(beta, observed, expected, offset)
        for row, c in enumerate(counts):
            single = count_log_likelihood(beta[row], c.observed, c.expected, c.offset)
            assert np.array_equal(stacked[row], single)


class TestMleAndSe:
    def test_normal_approx_identity(self):
        assert mle_and_se(NormalApprox(0.4, 0.1)) == (0.4, 0.1)

    def test_poisson_grid_se_matches_fisher_information(self):
        # Fisher information of the Poisson rate gives se ~ 1/sqrt(o)
        mle, se = mle_and_se(profile_from_counts(PoissonCounts(100, 100)))
        assert abs(mle) < 0.01
        assert se == pytest.approx(0.1, rel=0.02)

    def test_poisson_grid_mle_and_se(self):
        mle, se = mle_and_se(profile_from_counts(PoissonCounts(10, 5)))
        assert mle == pytest.approx(math.log(2.0), abs=0.01)
        assert se == pytest.approx(1.0 / math.sqrt(10), rel=0.02)

    def test_binomial_grid_se_matches_fisher_information(self):
        _, se = mle_and_se(profile_from_counts(BinomialCounts(30, 100, 0.2)))
        assert se == pytest.approx(math.sqrt(1 / 30 + 1 / 70), rel=0.02)

    @pytest.mark.parametrize("o,e", [(1, 0.5), (10, 5.0), (100, 100.0), (231, 200.0), (7, 19.3)])
    def test_poisson_counts_give_closed_forms(self, o, e):
        mle, se = mle_and_se(PoissonCounts(o, e))
        assert mle == pytest.approx(math.log(o / e), abs=1e-15)
        assert se == pytest.approx(1.0 / math.sqrt(o), abs=1e-15)

    @pytest.mark.parametrize("o,n,p", [(8, 10, 0.5), (30, 100, 0.2), (1, 3, 0.9), (17, 40, 0.3)])
    def test_binomial_counts_give_closed_forms(self, o, n, p):
        mle, se = mle_and_se(BinomialCounts(o, n, p))
        assert mle == pytest.approx(math.log(o / (n - o)) - math.log(p / (1 - p)), abs=1e-15)
        assert se == pytest.approx(math.sqrt(1 / o + 1 / (n - o)), abs=1e-15)

    @pytest.mark.parametrize(
        "data",
        [PoissonCounts(5, 5.0), PoissonCounts(231, 231.0), BinomialCounts(5, 10, 0.5),
         BinomialCounts(3, 12, 0.25), BinomialCounts(60, 80, 0.75)],
    )
    def test_counts_at_the_null_give_exactly_zero(self, data):
        # the grid argmax sits within half a step of 0 here, not on it
        assert mle_and_se(data)[0] == 0.0

    @pytest.mark.parametrize(
        "data", [PoissonCounts(0, 5.0), BinomialCounts(0, 10, 0.5), BinomialCounts(10, 10, 0.5)]
    )
    def test_uninformative_counts_raise(self, data):
        with pytest.raises(UninformativeProfileError):
            mle_and_se(data)

    def test_boundary_maximum_raises(self):
        increasing = GridProfile([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        with pytest.raises(CurvatureError):
            mle_and_se(increasing)

    def test_ties_break_toward_smaller_effect(self):
        profile = GridProfile([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 0.0])
        mle, _ = mle_and_se(profile)
        assert mle == 1.0


class TestValidation:
    def test_normal_approx_requires_positive_se(self):
        with pytest.raises(ValueError):
            NormalApprox(0.0, 0.0)

    def test_grid_requires_ascending_points(self):
        with pytest.raises(ValueError):
            GridProfile([0.0, 0.0, 1.0], [0.0, 1.0, 0.0])

    def test_grid_requires_three_points(self):
        with pytest.raises(ValueError):
            GridProfile([0.0, 1.0], [0.0, 1.0])

    def test_grid_requires_finite_values(self):
        with pytest.raises(ValueError):
            GridProfile([0.0, 1.0, 2.0], [0.0, math.inf, 0.0])

    def test_poisson_counts_validation(self):
        with pytest.raises(ValueError):
            PoissonCounts(-1, 5)
        with pytest.raises(ValueError):
            PoissonCounts(3, 0)

    def test_binomial_counts_validation(self):
        with pytest.raises(ValueError):
            BinomialCounts(5, 4, 0.5)
        with pytest.raises(ValueError):
            BinomialCounts(1, 2, 1.5)
