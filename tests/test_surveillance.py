import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest

import seqcalib.simharness as simharness
import seqcalib.surveillance as surveillance_module
from seqcalib.calibration import calibrated_p, uncalibrated_p
from seqcalib.errormodel import ErrorModel, FitError, fit_error_model
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


def reference_surveillance(schedule, looks, negative_control_ids, *, leave_one_out):
    """The per-outcome scoring loop that the columnar one replaced, kept as an exact oracle.

    Each outcome-look is scored on its own: a scalar LLR call, then scalar
    estimates, p-values and signal checks. Looks are assumed valid. Each look
    is fitted on its own, a one-set `surveillance.fit_error_models` call, and
    through `leave_one_out_models`, so a test that replaces the fit replaces it
    here too, and a match shows the run's batched fits equal to one-at-a-time ones.
    """
    control_ids = frozenset(negative_control_ids)
    uncal_cv = compute_cv(schedule, NO_REPLICATES).cv
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

        control_models = {}
        informative_controls = sorted(c for c in control_ids if c in estimates)
        control_profiles = [current_counts[c] for c in informative_controls]
        (full_model,) = surveillance_module.fit_error_models([control_profiles])
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
                    first_signal_look={m: None for m in ALL_MODES},
                )
                result.looks = [
                    LookRecord(look=k, informative=False, signals={m: False for m in ALL_MODES})
                    for k in range(1, t)
                ]
                outcomes[outcome_id] = result

            llr = count_llr(current_counts[outcome_id])
            informative = outcome_id in estimates
            model = control_models.get(outcome_id, full_model)
            beta_hat = se = p_unc = p_cal = None
            if informative:
                beta_hat, se = estimates[outcome_id]
                p_unc = uncalibrated_p(beta_hat, se)
                p_cal = calibrated_p(beta_hat, se, model)
            cv_cal = cal_cv(model)

            signals = {
                "uncal_p": p_unc is not None and p_unc < schedule.alpha,
                "uncal_maxsprt": llr > uncal_cv,
                "cal_p": p_cal is not None and p_cal < schedule.alpha,
                "cal_maxsprt": llr > cv_cal,
            }
            for mode, fired in signals.items():
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
    return SimpleNamespace(outcomes=outcomes, fallback_looks=fallback_looks)


def poisson_fixture():
    """A 3-look Poisson schedule, Poisson looks on it, and their eight controls.

    "late" is first seen at look 2 and "gap" is absent from look 2; "none"
    has no events, so it is never informative; "rising" stays at zero
    events until look 3.
    """
    rng = np.random.default_rng(17)
    per_look = [{}, {}, {}]
    for i in range(8):
        observed = np.cumsum(rng.poisson(6.0, size=3))
        for t in range(3):
            per_look[t][f"nc-{i}"] = PoissonCounts(int(observed[t]), 6.0 * (t + 1))
    for t in range(3):
        per_look[t]["hot"] = PoissonCounts(9 + 12 * t, 6.0 * (t + 1))
        per_look[t]["none"] = PoissonCounts(0, 6.0 * (t + 1))
        per_look[t]["rising"] = PoissonCounts(0 if t < 2 else 11, 6.0 * (t + 1))
    per_look[1]["late"] = PoissonCounts(14, 12.0)
    per_look[2]["late"] = PoissonCounts(19, 18.0)
    per_look[0]["gap"] = PoissonCounts(8, 6.0)
    per_look[2]["gap"] = PoissonCounts(20, 18.0)
    controls = [k for k in per_look[0] if k.startswith("nc-")]
    looks = [LookObservation(t + 1, per_look[t]) for t in range(3)]
    return poisson_schedule(n_looks=3, e=6.0), looks, controls


def binomial_fixture():
    """A 3-look binomial schedule at exposure proportion 0.3, looks on it, and eight controls.

    "late", "gap" and "rising" as in poisson_fixture; "none" has no case
    exposed and "all-in" every case, so neither is ever informative.
    """
    rng = np.random.default_rng(17)
    per_look = [{}, {}, {}]
    for i in range(8):
        exposed = np.cumsum(rng.poisson(3.0, size=3)) + 1
        unexposed = np.cumsum(rng.poisson(7.0, size=3)) + 1
        for t in range(3):
            total = int(exposed[t] + unexposed[t])
            per_look[t][f"nc-{i}"] = BinomialCounts(int(exposed[t]), total, 0.3)
    for t in range(3):
        per_look[t]["hot"] = BinomialCounts(6 + 7 * t, 10 + 10 * t, 0.3)
        per_look[t]["none"] = BinomialCounts(0, 4 + t, 0.3)
        per_look[t]["all-in"] = BinomialCounts(3 + t, 3 + t, 0.3)
        per_look[t]["rising"] = BinomialCounts(0 if t < 2 else 9, (8, 11, 20)[t], 0.3)
    per_look[1]["late"] = BinomialCounts(8, 15, 0.3)
    per_look[2]["late"] = BinomialCounts(12, 24, 0.3)
    per_look[0]["gap"] = BinomialCounts(4, 9, 0.3)
    per_look[2]["gap"] = BinomialCounts(11, 20, 0.3)
    controls = [k for k in per_look[0] if k.startswith("nc-")]
    looks = [LookObservation(t + 1, per_look[t]) for t in range(3)]
    schedule = LookSchedule((10.0,) * 3, alpha=0.05, model="binomial", exposure_proportion=0.3)
    return schedule, looks, controls


FIXTURES = pytest.mark.parametrize(
    "fixture", [poisson_fixture, binomial_fixture], ids=["poisson", "binomial"]
)


def fit_failing_at_look(looks, controls, look):
    """fit_error_models, failing (None) on the controls' full set at the given look."""
    real_fit = surveillance_module.fit_error_models
    full_set = [looks[look - 1].counts[c] for c in sorted(controls)]

    def fit(profile_sets):
        sets = [list(profiles) for profiles in profile_sets]
        return [None if profiles == full_set else model
                for profiles, model in zip(sets, real_fit(sets))]

    return fit


def assert_matches_reference(schedule, looks, controls, leave_one_out):
    result = run_surveillance(schedule, looks, controls, leave_one_out=leave_one_out)
    reference = reference_surveillance(schedule, looks, controls, leave_one_out=leave_one_out)
    assert result.outcomes == reference.outcomes
    assert result.fallback_looks == reference.fallback_looks
    for oid, outcome in result.outcomes.items():
        for rec, ref in zip(outcome.looks, reference.outcomes[oid].looks):
            # the same Python types, so every writer formats them the same way
            assert [type(v) for v in vars(rec).values()] == [type(v) for v in vars(ref).values()]
            assert [type(v) for v in rec.signals.values()] == [bool] * len(ALL_MODES)
    return result


class TestMatchesPerOutcomeReference:
    @pytest.mark.parametrize("leave_one_out", [True, False])
    @FIXTURES
    def test_late_absent_and_uninformative(self, fixture, leave_one_out):
        schedule, looks, controls = fixture()
        result = assert_matches_reference(schedule, looks, controls, leave_one_out)
        outcomes = result.outcomes
        assert outcomes["late"].looks[0].llr is None
        assert outcomes["gap"].looks[1].llr == outcomes["gap"].looks[0].llr
        assert [r.informative for r in outcomes["rising"].looks] == [False, False, True]
        never = [oid for oid, o in outcomes.items() if not any(r.informative for r in o.looks)]
        assert never == (["none"] if schedule.model == "poisson" else ["all-in", "none"])
        # the fixture reaches the signal bookkeeping in every mode
        for mode in ALL_MODES:
            assert outcomes["hot"].first_signal_look[mode] is not None
            assert any(o.first_signal_look[mode] is None for o in outcomes.values())

    @pytest.mark.parametrize("leave_one_out", [True, False])
    @FIXTURES
    def test_fallback_look(self, monkeypatch, fixture, leave_one_out):
        schedule, looks, controls = fixture()
        monkeypatch.setattr(surveillance_module, "fit_error_models",
                            fit_failing_at_look(looks, controls, 2))
        result = assert_matches_reference(schedule, looks, controls, leave_one_out)
        assert result.fallback_looks == [2]


class TestCountModel:
    """Every outcome's counts follow the schedule's count model, binomial ones at its proportion."""

    @pytest.mark.parametrize(
        "fixture, counts",
        [
            (poisson_fixture, BinomialCounts(4, 9, 0.3)),
            (binomial_fixture, PoissonCounts(14, 12.0)),
            (binomial_fixture, BinomialCounts(4, 9, 0.5)),
        ],
        ids=["binomial-on-poisson", "poisson-on-binomial", "binomial-at-another-proportion"],
    )
    def test_other_counts_raise_naming_outcome_and_look(self, fixture, counts):
        schedule, looks, controls = fixture()
        looks[1].counts["odd"] = counts
        with pytest.raises(ValueError, match=r"^outcome odd look 2: "):
            run_surveillance(schedule, looks, controls)

    @FIXTURES
    def test_one_llr_call_per_look(self, monkeypatch, fixture):
        schedule, looks, controls = fixture()
        calls = {"poisson_llr": 0, "binomial_llr": 0}

        def counted(name):
            real = getattr(surveillance_module, name)

            def llr(*args):
                calls[name] += 1
                return real(*args)

            return llr

        for name in calls:
            monkeypatch.setattr(surveillance_module, name, counted(name))
        run_surveillance(schedule, looks, controls)
        other = "binomial_llr" if schedule.model == "poisson" else "poisson_llr"
        assert calls == {f"{schedule.model}_llr": len(looks), other: 0}


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
        result = run_surveillance(schedule, looks, list(series)[:20], leave_one_out=False)
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
        monkeypatch.setattr(surveillance_module, "fit_error_models",
                            lambda profile_sets: [ErrorModel(0.0, 0.0) for _ in profile_sets])
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

    def test_no_error_model_available_at_first_look(self):
        # single informative control cannot support a fit and nothing to fall back on
        series = {"nc-0": [5, 10], "a": [5, 10]}
        with pytest.raises(FitError):
            run_surveillance(poisson_schedule(n_looks=2), poisson_looks(series), ["nc-0"])

    def test_fallback_to_previous_fit_and_flagged(self, monkeypatch):
        # cumulative counts never lose information, so the look-2 fit is made to fail
        fits = []

        def fit_once(profile_sets):
            fits.append([list(profiles) for profiles in profile_sets])
            return [ErrorModel(0.1, 0.2, n_controls=len(profiles)) if t == 0 else None
                    for t, profiles in enumerate(fits[-1])]

        monkeypatch.setattr(surveillance_module, "fit_error_models", fit_once)
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
        assert [len(sets) for sets in fits] == [2]  # one call, one set per look
        assert result.fallback_looks == [2]
        look1_model = result.outcomes["x"].looks[0].error_model
        look2_model = result.outcomes["x"].looks[1].error_model
        assert look2_model == look1_model

    @pytest.mark.parametrize(
        "fault, error, message",
        [
            ("out-of-order", ProtocolError, "expected look 3, got 4"),
            ("other-model", ValueError, "outcome odd look 3: "),
            ("decreasing", ValueError, "outcome hot: cumulative counts decreased"),
        ],
    )
    def test_a_bad_later_look_raises_before_any_fit_or_cv(self, monkeypatch, fault, error,
                                                            message):
        def refuse(*args, **kwargs):
            raise AssertionError("a model or cv was computed")

        for name in ("fit_error_models", "leave_one_out_models", "compute_cv",
                     "compute_calibrated_cv"):
            monkeypatch.setattr(surveillance_module, name, refuse)
        schedule, looks, controls = poisson_fixture()
        last = looks[2].counts
        looks[2] = {
            "out-of-order": LookObservation(4, last),
            "other-model": LookObservation(3, {**last, "odd": BinomialCounts(4, 9, 0.3)}),
            "decreasing": LookObservation(3, {**last, "hot": PoissonCounts(1, 18.0)}),
        }[fault]
        with pytest.raises(error, match=f"^{message}"):
            run_surveillance(schedule, looks, controls)

    @FIXTURES
    def test_each_look_model_is_the_fit_of_its_informative_controls(self, fixture):
        schedule, looks, controls = fixture()
        result = run_surveillance(schedule, looks, controls, leave_one_out=False)
        current = {}
        for obs, columns in zip(looks, result.looks):
            current.update(obs.counts)
            informative = [current[c] for c in sorted(controls)
                           if columns.beta_hat[columns.ids.index(c)] is not None]
            expected = fit_error_model(informative)
            assert all(model == expected for model in columns.error_model)

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
        # two informative controls, so that look 1 fits and look 2 reaches the fault
        controls = {"nc-0": PoissonCounts(5, 5.0), "nc-1": PoissonCounts(4, 5.0)}
        looks = [
            LookObservation(1, {"a": PoissonCounts(5, 5.0), **controls}),
            LookObservation(2, {"a": PoissonCounts(4, 10.0)}),
        ]
        with pytest.raises(ValueError, match="outcome a: cumulative counts decreased"):
            run_surveillance(schedule, looks, list(controls))

    def test_falling_unexposed_count_rejected(self):
        # exposed and total both grow, but the unexposed count falls from 5 to 3
        schedule = LookSchedule(
            (10.0, 10.0), alpha=0.05, model="binomial", exposure_proportion=0.5
        )
        controls = {"nc-0": BinomialCounts(4, 10, 0.5), "nc-1": BinomialCounts(6, 10, 0.5)}
        looks = [
            LookObservation(1, {"a": BinomialCounts(5, 10, 0.5), **controls}),
            LookObservation(2, {"a": BinomialCounts(8, 11, 0.5)}),
        ]
        with pytest.raises(ValueError, match="outcome a: cumulative counts decreased"):
            run_surveillance(schedule, looks, list(controls))

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
        # rewrite the first-look matrix's signal rows to a known configuration
        result.first_look[1:] = 0
        result.first_look[1 + ALL_MODES.index("uncal_p"), 0] = 2
        report = type1_report(result)
        assert report["uncal_p"] == pytest.approx(1 / 3)
        assert report["cal_maxsprt"] == 0.0
        # a control never informative leaves the denominator
        result.first_look[0, 1] = 0
        assert type1_report(result)["uncal_p"] == 0.5

    def test_requires_informative_controls(self):
        series = null_control_series(3, 2, seed=9)
        result = run_surveillance(
            poisson_schedule(n_looks=2), poisson_looks(series), list(series)
        )
        # a run needs informative controls to fit, so mark them as never informative
        result.first_look[0] = 0
        with pytest.raises(ValueError, match="no informative negative controls"):
            type1_report(result)


def recount(result, selected):
    """Per mode, the signaled share of the selected outcomes ever informative, from the records."""
    eligible = [o for oid, o in result.outcomes.items()
                if oid in selected and any(r.informative for r in o.looks)]
    return {mode: sum(o.first_signal_look[mode] is not None for o in eligible) / len(eligible)
            for mode in ALL_MODES}


def renamed_poisson_fixture():
    """poisson_fixture with the ids run_scenario gives an 8-control, 5-outcome rr-2 scenario."""
    schedule, looks, controls = poisson_fixture()
    others = sorted(set(looks[2].counts) - set(controls))
    new_id = {oid: f"rr1-{k:02d}" for k, oid in enumerate(sorted(controls))}
    new_id.update({oid: f"rr2-{k:02d}" for k, oid in enumerate(others)})
    looks = [LookObservation(o.look_index, {new_id[k]: c for k, c in o.counts.items()})
             for o in looks]
    return schedule, looks, sorted(new_id[c] for c in controls), new_id


class TestColumns:
    """type1_report and run_scenario read the first-look matrix; records are built on request."""

    def test_readers_equal_a_recount_from_the_records(self, monkeypatch):
        schedule, looks, controls, new_id = renamed_poisson_fixture()
        monkeypatch.setattr(surveillance_module, "fit_error_models",
                            fit_failing_at_look(looks, controls, 2))
        results = []

        def fixture_surveillance(_schedule, _looks, control_ids, *, leave_one_out):
            assert sorted(control_ids) == controls
            results.append(run_surveillance(schedule, looks, controls,
                                            leave_one_out=leave_one_out))
            return results[-1]

        monkeypatch.setattr(simharness, "run_surveillance", fixture_surveillance)
        scenario = simharness.SimulationScenario(
            "fixture", "historical", 100_000, effect_sizes=((1.0, 8), (2.0, 5)), looks=3, repeats=1
        )
        report = simharness.run_scenario(scenario)
        (result,) = results
        assert result.fallback_looks == [2]
        # the fixture has an outcome first seen at look 2 and one never informative
        assert result.outcomes[new_id["late"]].looks[0].llr is None
        assert not any(r.informative for r in result.outcomes[new_id["none"]].looks)
        signaled = recount(result, set(new_id.values()) - set(controls))
        expected = {("type1", 1.0): recount(result, controls),
                    ("type2", 2.0): {mode: 1.0 - v for mode, v in signaled.items()}}
        assert type1_report(result) == expected[("type1", 1.0)]
        assert len(report.rows) == 2 * len(ALL_MODES)
        for row in report.rows:
            assert row.value == expected[(row.rate_type, row.effect_size)][row.mode]

    def test_readers_build_no_records(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a per-outcome record was built")

        monkeypatch.setattr(surveillance_module, "LookRecord", refuse)
        monkeypatch.setattr(surveillance_module, "OutcomeResult", refuse)
        schedule, looks, controls = poisson_fixture()
        result = run_surveillance(schedule, looks, controls)
        assert set(type1_report(result)) == set(ALL_MODES)
        scenario = simharness.SimulationScenario(
            "tiny", "historical", 100_000, effect_sizes=((1.0, 10), (2.0, 5)), looks=3, repeats=2
        )
        assert len(simharness.run_scenario(scenario).rows) == 2 * 2 * len(ALL_MODES)
        with pytest.raises(AssertionError, match="record was built"):
            result.outcomes

    def test_records_are_built_once(self):
        schedule, looks, controls = binomial_fixture()
        result = run_surveillance(schedule, looks, controls)
        assert result.outcomes is result.outcomes
        assert list(result.outcomes) == result.ids
        assert all(len(o.looks) == 3 for o in result.outcomes.values())
