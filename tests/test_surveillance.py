import copy
import math

import numpy as np
import pytest

import seqcalib.surveillance as surveillance_module
from seqcalib.calibration import calibrated_p, uncalibrated_p
from seqcalib.errormodel import ErrorModel, FitError
from seqcalib.likelihood import (
    BinomialCounts,
    PoissonCounts,
    UninformativeProfileError,
    binomial_llr,
    mle_and_se,
    poisson_llr,
)
from seqcalib.maxsprt import NO_REPLICATES, LookSchedule, compute_calibrated_cv, compute_cv
from seqcalib.surveillance import (
    ALL_MODES,
    LookObservation,
    LookRecord,
    OutcomeResult,
    ProtocolError,
    SurveillanceResult,
    run_surveillance,
    type1_report,
)


def poisson_schedule(n_looks=3, e=5.0, alpha=0.05):
    return LookSchedule((e,) * n_looks, alpha=alpha)


def poisson_looks(counts_by_outcome, e=5.0):
    """counts_by_outcome: {id: [cumulative observed per look]}."""
    n_looks = len(next(iter(counts_by_outcome.values())))
    looks = []
    for t in range(n_looks):
        counts = {
            oid: PoissonCounts(series[t], e * (t + 1))
            for oid, series in counts_by_outcome.items()
        }
        looks.append(LookObservation(t + 1, counts))
    return looks


def null_control_series(n_controls, n_looks, e=5.0, seed=0):
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(n_controls):
        increments = rng.poisson(e, size=n_looks)
        out[f"nc-{i:02d}"] = list(np.cumsum(increments))
    return out


def reference_surveillance(schedule, looks, negative_control_ids, modes, *, leave_one_out):
    """The per-outcome scoring loop that the columnar one replaced, kept as an exact oracle.

    Each outcome-look is scored on its own: a scalar LLR call, then scalar
    estimates, p-values and signal checks. Looks are assumed valid. The fits
    go through `surveillance.fit_error_model` and `leave_one_out_models`, so a
    test that replaces the fit replaces it here too.
    """
    control_ids = frozenset(negative_control_ids)
    calibrate = any(m in modes for m in ("cal_p", "cal_maxsprt"))
    uncal_cv = compute_cv(schedule, NO_REPLICATES).cv if "uncal_maxsprt" in modes else None
    cal_cv_cache = {}

    def cal_cv(model):
        key = (model.mean, model.sd)
        if key not in cal_cv_cache:
            cal_cv_cache[key] = compute_calibrated_cv(schedule, model, NO_REPLICATES).cv
        return cal_cv_cache[key]

    def count_llr(counts):
        if isinstance(counts, PoissonCounts):
            return poisson_llr(counts.observed, counts.expected)
        return binomial_llr(counts.exposed, counts.total, counts.null_proportion)

    outcomes, current_counts, fallback_looks = {}, {}, []
    last_full_model = None
    for obs in looks:
        t = obs.look_index
        current_counts.update(obs.counts)
        estimates = {}
        for outcome_id in sorted(current_counts):
            try:
                estimates[outcome_id] = mle_and_se(current_counts[outcome_id])
            except UninformativeProfileError:
                pass

        full_model, control_models = None, {}
        if calibrate:
            informative_controls = sorted(c for c in control_ids if c in estimates)
            control_profiles = [current_counts[c] for c in informative_controls]
            if len(control_profiles) >= 2:
                try:
                    full_model = surveillance_module.fit_error_model(control_profiles)
                except FitError:
                    full_model = None
            if full_model is None:
                full_model = last_full_model
                fallback_looks.append(t)
            else:
                last_full_model = full_model
                if leave_one_out and len(control_profiles) >= 3:
                    loo = surveillance_module.leave_one_out_models(control_profiles)
                    control_models = {
                        cid: (m if m is not None else full_model)
                        for cid, m in zip(informative_controls, loo)
                    }

        for outcome_id in sorted(current_counts):
            result = outcomes.get(outcome_id)
            if result is None:
                result = OutcomeResult(
                    outcome_id,
                    outcome_id in control_ids,
                    first_signal_look={m: None for m in modes},
                )
                result.looks = [
                    LookRecord(look=k, informative=False, signals={m: False for m in modes})
                    for k in range(1, t)
                ]
                outcomes[outcome_id] = result

            llr = count_llr(current_counts[outcome_id])
            informative = outcome_id in estimates
            model = control_models.get(outcome_id, full_model) if calibrate else None
            beta_hat = se = p_unc = p_cal = None
            if informative:
                beta_hat, se = estimates[outcome_id]
                p_unc = uncalibrated_p(beta_hat, se)
                if calibrate:
                    p_cal = calibrated_p(beta_hat, se, model)
            cv_cal = cal_cv(model) if "cal_maxsprt" in modes else None

            signals = {}
            for mode in modes:
                if mode == "uncal_maxsprt":
                    fired = llr > uncal_cv
                elif mode == "cal_maxsprt":
                    fired = llr > cv_cal
                elif mode == "uncal_p":
                    fired = p_unc is not None and p_unc < schedule.alpha
                else:
                    fired = p_cal is not None and p_cal < schedule.alpha
                signals[mode] = fired
                if fired and result.first_signal_look[mode] is None:
                    result.first_signal_look[mode] = t
            result.looks.append(
                LookRecord(
                    look=t,
                    informative=informative,
                    beta_hat=beta_hat,
                    se=se,
                    llr=llr,
                    p_uncalibrated=p_unc,
                    p_calibrated=p_cal,
                    cv=uncal_cv,
                    cv_calibrated=cv_cal,
                    error_model=model,
                    signals=signals,
                )
            )
    return SurveillanceResult(outcomes, tuple(modes), schedule.alpha, fallback_looks)


def mixed_looks():
    """Three looks of Poisson and binomial outcomes side by side, controls of both kinds.

    "late" is first seen at look 2 and "gap" is absent from look 2; "none"
    has no events and "all-in" has every case exposed at every look, so
    neither is ever informative; "rising" stays at zero events until look 3.
    """
    rng = np.random.default_rng(17)
    per_look = [{}, {}, {}]
    for i in range(8):
        observed = np.cumsum(rng.poisson(6.0, size=3))
        for t in range(3):
            per_look[t][f"nc-p{i}"] = PoissonCounts(int(observed[t]), 6.0 * (t + 1))
    for i in range(6):
        totals = np.cumsum(rng.poisson(10.0, size=3)) + 2
        exposed = np.minimum(np.cumsum(rng.binomial(10, 0.3, size=3)) + 1, totals - 1)
        exposed = np.maximum.accumulate(exposed)
        for t in range(3):
            per_look[t][f"nc-b{i}"] = BinomialCounts(int(exposed[t]), int(totals[t]), 0.3)
    for t in range(3):
        per_look[t]["hot-p"] = PoissonCounts(9 + 12 * t, 6.0 * (t + 1))
        per_look[t]["hot-b"] = BinomialCounts(6 + 7 * t, 10 + 10 * t, 0.3)
        per_look[t]["none"] = PoissonCounts(0, 6.0 * (t + 1))
        per_look[t]["all-in"] = BinomialCounts(3 + t, 3 + t, 0.3)
        per_look[t]["rising"] = PoissonCounts(0 if t < 2 else 11, 6.0 * (t + 1))
    per_look[1]["late"] = PoissonCounts(14, 12.0)
    per_look[2]["late"] = PoissonCounts(19, 18.0)
    per_look[0]["gap"] = BinomialCounts(4, 9, 0.3)
    per_look[2]["gap"] = BinomialCounts(11, 20, 0.3)
    controls = [k for k in per_look[0] if k.startswith("nc-")]
    return [LookObservation(t + 1, per_look[t]) for t in range(3)], controls


def assert_matches_reference(schedule, looks, controls, modes, leave_one_out):
    result = run_surveillance(schedule, looks, controls, modes, leave_one_out=leave_one_out)
    reference = reference_surveillance(
        schedule, looks, controls, modes, leave_one_out=leave_one_out
    )
    assert result.outcomes == reference.outcomes
    assert result.fallback_looks == reference.fallback_looks
    assert result.modes == reference.modes and result.alpha == reference.alpha
    for oid, outcome in result.outcomes.items():
        for rec, ref in zip(outcome.looks, reference.outcomes[oid].looks):
            # the same Python types, so every writer formats them the same way
            assert [type(v) for v in vars(rec).values()] == [type(v) for v in vars(ref).values()]
            assert [type(v) for v in rec.signals.values()] == [bool] * len(modes)
    return result


class TestMatchesPerOutcomeReference:
    @pytest.mark.parametrize("leave_one_out", [True, False])
    @pytest.mark.parametrize("modes", [ALL_MODES, ("uncal_maxsprt",), ("cal_p", "uncal_p")])
    def test_mixed_kinds_late_absent_and_uninformative(self, modes, leave_one_out):
        looks, controls = mixed_looks()
        schedule = poisson_schedule(n_looks=3, e=6.0)
        result = assert_matches_reference(schedule, looks, controls, modes, leave_one_out)
        assert result.outcomes["late"].looks[0].llr is None
        assert not any(r.informative for r in result.outcomes["none"].looks)
        assert not any(r.informative for r in result.outcomes["all-in"].looks)
        # the fixture reaches the signal bookkeeping in every mode
        for mode in modes:
            assert result.outcomes["hot-p"].first_signal_look[mode] is not None
            assert result.outcomes["hot-b"].first_signal_look[mode] is not None
            assert any(o.first_signal_look[mode] is None for o in result.outcomes.values())

    @pytest.mark.parametrize("leave_one_out", [True, False])
    def test_fallback_look(self, monkeypatch, leave_one_out):
        looks, controls = mixed_looks()
        real_fit = surveillance_module.fit_error_model

        def poisson_events(profiles):
            return sum(getattr(p, "observed", 0) for p in profiles)

        look_2_events = poisson_events(looks[1].counts[c] for c in controls)

        def fit_failing_at_look_2(profiles):
            if poisson_events(profiles) == look_2_events:
                raise FitError("no finite optimum")
            return real_fit(profiles)

        monkeypatch.setattr(surveillance_module, "fit_error_model", fit_failing_at_look_2)
        schedule = poisson_schedule(n_looks=3, e=6.0)
        result = assert_matches_reference(schedule, looks, controls, ALL_MODES, leave_one_out)
        assert result.fallback_looks == [2]


class TestRunSurveillance:
    def test_counts_at_expectation_never_signal(self):
        series = {"a": [5, 10, 15], **null_control_series(4, 3, seed=1)}
        result = run_surveillance(
            poisson_schedule(), poisson_looks(series), [k for k in series if k != "a"]
        )
        outcome = result.outcomes["a"]
        assert all(v is None for v in outcome.first_signal_look.values())
        assert all(rec.llr == 0.0 for rec in outcome.looks)

    def test_zero_llr_outcomes_never_signal_maxsprt(self):
        series = {"low": [1, 3, 6], **null_control_series(4, 3, seed=2)}
        result = run_surveillance(
            poisson_schedule(), poisson_looks(series), [k for k in series if k != "low"]
        )
        outcome = result.outcomes["low"]
        assert outcome.first_signal_look["uncal_maxsprt"] is None
        assert outcome.first_signal_look["cal_maxsprt"] is None

    def test_unadjusted_per_look_p_inflates_over_looks(self):
        # many looks at independent null data: per-look testing at nominal
        # alpha signals far more than alpha overall
        n_looks, n_outcomes, e = 10, 300, 20.0
        rng = np.random.default_rng(5)
        series = {
            f"o-{i:03d}": list(np.cumsum(rng.poisson(e, size=n_looks)))
            for i in range(n_outcomes)
        }
        schedule = poisson_schedule(n_looks=n_looks, e=e)
        looks = poisson_looks(series, e=e)
        result = run_surveillance(schedule, looks, [], modes=("uncal_p", "uncal_maxsprt"))
        fraction_p = np.mean(
            [result.outcomes[o].first_signal_look["uncal_p"] is not None for o in series]
        )
        fraction_maxsprt = np.mean(
            [result.outcomes[o].first_signal_look["uncal_maxsprt"] is not None for o in series]
        )
        assert fraction_p > 0.05
        assert fraction_maxsprt <= fraction_p

    def test_null_error_model_matches_uncalibrated_signals(self, monkeypatch):
        series = null_control_series(8, 3, seed=3)
        series["hot"] = [9, 16, 22]
        controls = [k for k in series if k != "hot"]
        monkeypatch.setattr(
            surveillance_module, "fit_error_model", lambda profiles: ErrorModel(0.0, 0.0)
        )
        result = run_surveillance(
            poisson_schedule(), poisson_looks(series), controls, leave_one_out=False
        )
        for outcome in result.outcomes.values():
            assert outcome.first_signal_look["cal_p"] == outcome.first_signal_look["uncal_p"]
            assert (
                outcome.first_signal_look["cal_maxsprt"]
                == outcome.first_signal_look["uncal_maxsprt"]
            )
            for rec in outcome.looks:
                assert rec.cv_calibrated == rec.cv

    def test_leave_one_out_excludes_own_profile(self):
        series = null_control_series(6, 2, seed=4)
        result = run_surveillance(
            poisson_schedule(n_looks=2), poisson_looks(series), list(series)
        )
        for outcome in result.outcomes.values():
            for rec in outcome.looks:
                if rec.informative and rec.error_model is not None:
                    assert rec.error_model.n_controls == len(series) - 1

    def test_full_fit_used_without_leave_one_out(self):
        series = null_control_series(6, 2, seed=4)
        result = run_surveillance(
            poisson_schedule(n_looks=2),
            poisson_looks(series),
            list(series),
            leave_one_out=False,
        )
        for outcome in result.outcomes.values():
            for rec in outcome.looks:
                if rec.informative:
                    assert rec.error_model.n_controls == len(series)

    def test_incremental_prefix_identical(self):
        series = {"a": [6, 13, 21], **null_control_series(5, 3, seed=6)}
        looks = poisson_looks(series)
        controls = [k for k in series if k != "a"]
        full = run_surveillance(poisson_schedule(), looks, controls)
        truncated = run_surveillance(poisson_schedule(), copy.deepcopy(looks[:2]), controls)
        for oid, outcome in truncated.outcomes.items():
            assert outcome.looks == full.outcomes[oid].looks[:2]

    def test_out_of_order_look_rejected(self):
        series = null_control_series(3, 2, seed=7)
        looks = poisson_looks(series)
        with pytest.raises(ProtocolError):
            run_surveillance(poisson_schedule(n_looks=2), looks[::-1], list(series))

    def test_look_beyond_schedule_rejected(self):
        series = null_control_series(3, 3, seed=8)
        with pytest.raises(ProtocolError):
            run_surveillance(poisson_schedule(n_looks=2), poisson_looks(series), list(series))

    def test_calibrated_mode_requires_controls(self):
        series = {"a": [5, 10]}
        with pytest.raises(ValueError):
            run_surveillance(poisson_schedule(n_looks=2), poisson_looks(series), [])

    def test_uncalibrated_modes_run_without_controls(self):
        series = {"a": [5, 10]}
        result = run_surveillance(
            poisson_schedule(n_looks=2),
            poisson_looks(series),
            [],
            modes=("uncal_p", "uncal_maxsprt"),
        )
        assert set(result.outcomes) == {"a"}

    def test_unknown_mode_rejected(self):
        series = {"a": [5, 10]}
        with pytest.raises(ValueError):
            run_surveillance(
                poisson_schedule(n_looks=2), poisson_looks(series), [], modes=("bogus",)
            )

    def test_no_error_model_available_at_first_look(self):
        # single informative control cannot support a fit and nothing to fall back on
        series = {"nc-0": [5, 10], "a": [5, 10]}
        with pytest.raises(FitError):
            run_surveillance(poisson_schedule(n_looks=2), poisson_looks(series), ["nc-0"])

    def test_fallback_to_previous_fit_and_flagged(self, monkeypatch):
        # cumulative counts never lose information, so the look-2 fit is made to fail
        fits = []

        def fit_once(profiles):
            fits.append(profiles)
            if len(fits) > 1:
                raise FitError("no finite optimum")
            return ErrorModel(0.1, 0.2, n_controls=len(profiles))

        monkeypatch.setattr(surveillance_module, "fit_error_model", fit_once)
        schedule = LookSchedule(
            (4.0, 4.0), alpha=0.05, model="binomial", exposure_proportion=0.5
        )
        looks = [
            LookObservation(
                1,
                {
                    "nc-0": BinomialCounts(2, 4, 0.5),
                    "nc-1": BinomialCounts(3, 4, 0.5),
                    "x": BinomialCounts(2, 4, 0.5),
                },
            ),
            LookObservation(
                2,
                {
                    "nc-0": BinomialCounts(4, 8, 0.5),
                    "nc-1": BinomialCounts(6, 8, 0.5),
                    "x": BinomialCounts(4, 8, 0.5),
                },
            ),
        ]
        result = run_surveillance(schedule, looks, ["nc-0", "nc-1"])
        assert len(fits) == 2
        assert result.fallback_looks == [2]
        look1_model = result.outcomes["x"].looks[0].error_model
        look2_model = result.outcomes["x"].looks[1].error_model
        assert look2_model == look1_model

    def test_outcome_absent_from_later_look_carries_forward(self):
        schedule = poisson_schedule(n_looks=2)
        looks = [
            LookObservation(1, {"a": PoissonCounts(7, 5.0), "nc-0": PoissonCounts(5, 5.0), "nc-1": PoissonCounts(4, 5.0)}),
            LookObservation(2, {"nc-0": PoissonCounts(9, 10.0), "nc-1": PoissonCounts(11, 10.0)}),
        ]
        result = run_surveillance(schedule, looks, ["nc-0", "nc-1"], leave_one_out=False)
        records = result.outcomes["a"].looks
        assert len(records) == 2
        assert records[1].llr == records[0].llr

    def test_outcome_appearing_late_gets_padded_records(self):
        schedule = poisson_schedule(n_looks=2)
        looks = [
            LookObservation(1, {"nc-0": PoissonCounts(5, 5.0), "nc-1": PoissonCounts(4, 5.0)}),
            LookObservation(
                2,
                {
                    "late": PoissonCounts(3, 10.0),
                    "nc-0": PoissonCounts(9, 10.0),
                    "nc-1": PoissonCounts(11, 10.0),
                },
            ),
        ]
        result = run_surveillance(schedule, looks, ["nc-0", "nc-1"], leave_one_out=False)
        records = result.outcomes["late"].looks
        assert len(records) == 2
        assert records[0].informative is False and records[0].llr is None

    def test_decreasing_counts_rejected(self):
        schedule = poisson_schedule(n_looks=2)
        looks = [
            LookObservation(1, {"a": PoissonCounts(5, 5.0)}),
            LookObservation(2, {"a": PoissonCounts(4, 10.0)}),
        ]
        with pytest.raises(ValueError):
            run_surveillance(schedule, looks, [], modes=("uncal_p",))

    def test_falling_unexposed_count_rejected(self):
        # exposed and total both grow, but the unexposed count falls from 5 to 3
        schedule = LookSchedule(
            (10.0, 10.0), alpha=0.05, model="binomial", exposure_proportion=0.5
        )
        looks = [
            LookObservation(1, {"a": BinomialCounts(5, 10, 0.5)}),
            LookObservation(2, {"a": BinomialCounts(8, 11, 0.5)}),
        ]
        with pytest.raises(ValueError, match="decreased"):
            run_surveillance(schedule, looks, [], modes=("uncal_p",))

    def test_estimates_are_exact(self):
        series = {"a": [7, 13, 15], **null_control_series(4, 3, seed=3)}
        result = run_surveillance(
            poisson_schedule(), poisson_looks(series), [k for k in series if k != "a"]
        )
        for oid, values in series.items():
            for t, rec in enumerate(result.outcomes[oid].looks):
                o, e = int(values[t]), 5.0 * (t + 1)
                assert rec.beta_hat == math.log(o / e)
                assert rec.se == 1.0 / math.sqrt(o)


class TestType1Report:
    def test_counts_signaling_fraction(self):
        series = null_control_series(3, 2, seed=9)
        result = run_surveillance(
            poisson_schedule(n_looks=2), poisson_looks(series), list(series)
        )
        # rewrite the signal bookkeeping to a known configuration
        ids = sorted(series)
        for oid in ids:
            result.outcomes[oid].first_signal_look = {m: None for m in ALL_MODES}
        result.outcomes[ids[0]].first_signal_look["uncal_p"] = 2
        report = type1_report(result)
        assert report["uncal_p"] == pytest.approx(1 / 3)
        assert report["cal_maxsprt"] == 0.0

    def test_requires_informative_controls(self):
        series = {"a": [5, 10]}
        result = run_surveillance(
            poisson_schedule(n_looks=2),
            poisson_looks(series),
            [],
            modes=("uncal_p",),
        )
        with pytest.raises(ValueError):
            type1_report(result)
