import math

import numpy as np
import pytest
from scipy.stats import norm

from seqcalib.calibration import calibrated_p, uncalibrated_p
from seqcalib.errormodel import ErrorModel


class TestUncalibratedP:
    def test_zero_estimate_gives_half(self):
        assert uncalibrated_p(0.0, 0.3) == pytest.approx(0.5, abs=1e-12)

    def test_standard_quantile(self):
        z95 = float(norm.ppf(0.95))
        assert uncalibrated_p(z95 * 0.2, 0.2) == pytest.approx(0.05, abs=1e-10)

    def test_negative_estimate(self):
        # upper tail at z = -2, via the standard normal CDF oracle
        assert uncalibrated_p(-1.0, 0.5) == pytest.approx(float(norm.sf(-2.0)), abs=1e-12)

    @pytest.mark.parametrize("se", [0.0, -0.1, math.inf])
    def test_rejects_bad_se(self, se):
        with pytest.raises(ValueError):
            uncalibrated_p(0.1, se)

    def test_clamped_to_open_interval(self):
        assert uncalibrated_p(100.0, 0.01) >= 1e-300
        assert uncalibrated_p(-100.0, 0.01) <= 1.0 - 1e-16


class TestCalibratedP:
    def test_center_of_null_gives_half(self):
        model = ErrorModel(0.25, 0.4)
        assert calibrated_p(0.25, 0.1, model) == pytest.approx(0.5, abs=1e-12)

    def test_null_model_reduces_to_uncalibrated(self):
        rng = np.random.default_rng(99)
        model = ErrorModel(0.0, 0.0)
        for _ in range(1000):
            beta = float(rng.normal(0, 1))
            se = float(rng.uniform(0.01, 2.0))
            assert abs(calibrated_p(beta, se, model) - uncalibrated_p(beta, se)) <= 1e-12

    def test_worked_example(self):
        # z = (ln 2 - 0.2) / sqrt(0.2^2 + 0.1^2)
        model = ErrorModel(0.2, 0.2)
        z = (math.log(2.0) - 0.2) / math.sqrt(0.05)
        assert calibrated_p(math.log(2.0), 0.1, model) == pytest.approx(float(norm.sf(z)), abs=1e-12)
        assert calibrated_p(math.log(2.0), 0.1, model) == pytest.approx(0.0137, abs=1e-4)

    def test_strictly_decreasing_in_estimate(self):
        model = ErrorModel(0.1, 0.2)
        values = [calibrated_p(b, 0.2, model) for b in np.linspace(-1, 2, 50)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_increasing_in_bias_mean(self):
        values = [calibrated_p(0.5, 0.2, ErrorModel(m, 0.2)) for m in np.linspace(-0.5, 0.5, 20)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_approaches_half_as_bias_sd_grows(self):
        ps = [calibrated_p(1.0, 0.1, ErrorModel(0.0, sd)) for sd in (0.1, 1.0, 10.0, 100.0)]
        gaps = [abs(p - 0.5) for p in ps]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.01

    def test_rejects_bad_se(self):
        with pytest.raises(ValueError):
            calibrated_p(0.1, 0.0, ErrorModel(0.0, 0.1))


@pytest.mark.parametrize(
    "call",
    [
        lambda beta: uncalibrated_p(beta, 0.1),
        lambda beta: calibrated_p(beta, 0.1, ErrorModel(0.0, 0.1)),
    ],
    ids=["uncalibrated", "calibrated"],
)
@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_non_finite_estimate_raises_with_its_message(call, beta):
    with pytest.raises(ValueError) as err:
        call(beta)
    assert str(err.value) == "beta_hat must be finite"
