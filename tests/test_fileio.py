import io

import numpy as np
import pytest

from seqcalib import fileio
from seqcalib.errormodel import ErrorModel
from seqcalib.likelihood import NormalApprox, PoissonCounts, profile_from_counts
from seqcalib.maxsprt import CriticalValueResult, LookSchedule
from seqcalib.simharness import ErrorRateReport, ErrorRateRow
from seqcalib.surveillance import LookObservation, run_surveillance


def roundtrip(writer, reader, *args, **kwargs):
    text = fileio.dumps(writer, *args, **kwargs)
    return text, reader(io.StringIO(text))


class TestEstimates:
    def test_roundtrip(self):
        profiles = [NormalApprox(0.123456789012345, 0.1, "a"), NormalApprox(-0.5, 0.25, "b")]
        text, parsed = roundtrip(fileio.write_estimates, fileio.read_estimates, profiles)
        assert text.startswith("# seqcalib estimates v1\n")
        assert parsed == profiles

    def test_parse_error_carries_line_number(self):
        text = "# seqcalib estimates v1\noutcome_id,log_rr,se_log_rr\na,0.1,0.2\nb,xx,0.2\n"
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_estimates(io.StringIO(text))
        assert err.value.line == 4

    def test_invalid_se_reports_line(self):
        text = "outcome_id,log_rr,se_log_rr\na,0.1,-0.2\n"
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_estimates(io.StringIO(text))
        assert err.value.line == 2

    def test_missing_column_rejected(self):
        text = "outcome_id,log_rr\na,0.1\n"
        with pytest.raises(fileio.FileFormatError):
            fileio.read_estimates(io.StringIO(text))

    def test_duplicate_column_rejected_at_header(self):
        text = "# seqcalib estimates v1\noutcome_id,log_rr,se_log_rr,log_rr\na,0.1,0.2,0.3\n"
        with pytest.raises(fileio.FileFormatError, match="duplicate columns") as err:
            fileio.read_estimates(io.StringIO(text))
        assert err.value.line == 2


class TestGridProfiles:
    def test_roundtrip_via_rows(self):
        profile = profile_from_counts(PoissonCounts(10, 5), outcome_id="g1")
        buf = io.StringIO()
        buf.write("# seqcalib grid-profiles v1\n")
        buf.write("outcome_id,log_rr_grid_point,log_likelihood\n")
        for x, ll in zip(profile.grid_points, profile.log_likelihoods):
            buf.write(f"g1,{float(x)!r},{float(ll)!r}\n")
        parsed = fileio.read_grid_profiles(io.StringIO(buf.getvalue()))
        assert len(parsed) == 1
        np.testing.assert_array_equal(parsed[0].grid_points, profile.grid_points)
        np.testing.assert_array_equal(parsed[0].log_likelihoods, profile.log_likelihoods)

    def test_unsorted_grid_rejected(self):
        text = (
            "outcome_id,log_rr_grid_point,log_likelihood\n"
            "g,1.0,0.0\ng,0.5,0.1\ng,2.0,0.2\n"
        )
        with pytest.raises(fileio.FileFormatError):
            fileio.read_grid_profiles(io.StringIO(text))

    def test_nan_grid_point_reported_as_not_finite(self):
        text = (
            "# seqcalib grid-profiles v1\n"
            "outcome_id,log_rr_grid_point,log_likelihood\n"
            "a,nan,1\na,0.0,0\na,2.0,0\n"
        )
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_grid_profiles(io.StringIO(text))
        assert str(err.value) == "line 3: grid values must be finite"

    def test_outcome_reappearing_after_another_rejected(self):
        text = (
            "# seqcalib grid-profiles v1\n"
            "outcome_id,log_rr_grid_point,log_likelihood\n"
            "a,-1.0,-1.0\na,0.0,0.0\na,1.0,-1.0\n"
            "b,-1.0,-1.0\nb,0.0,0.0\nb,1.0,-1.0\n"
            "a,2.0,-4.0\n"
        )
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_grid_profiles(io.StringIO(text))
        assert str(err.value) == "line 9: rows of outcome a are not contiguous"


class TestSchedule:
    def test_roundtrip_poisson(self):
        schedule = LookSchedule((2.31, 2.31, 2.31), alpha=0.05)
        _, parsed = roundtrip(fileio.write_schedule, fileio.read_schedule, schedule)
        assert parsed == schedule

    def test_roundtrip_binomial(self):
        schedule = LookSchedule(
            (15.7, 15.7), alpha=0.01, model="binomial", exposure_proportion=28 / 243
        )
        _, parsed = roundtrip(fileio.write_schedule, fileio.read_schedule, schedule)
        assert parsed == schedule

    def test_gap_in_looks_rejected(self):
        text = "model,t,e_t,p,alpha\npoisson,1,4.0,,0.05\npoisson,3,4.0,,0.05\n"
        with pytest.raises(fileio.FileFormatError):
            fileio.read_schedule(io.StringIO(text))

    def test_equal_values_in_different_notation_are_constant(self):
        text = "model,t,e_t,p,alpha\nbinomial,1,4.0,0.25,0.05\nbinomial,2,4.0,2.5e-1,5e-2\n"
        parsed = fileio.read_schedule(io.StringIO(text))
        assert parsed == LookSchedule(
            (4.0, 4.0), alpha=0.05, model="binomial", exposure_proportion=0.25
        )

    def test_inconsistent_alpha_rejected(self):
        text = "model,t,e_t,p,alpha\npoisson,1,4.0,,0.05\npoisson,2,4.0,,0.10\n"
        with pytest.raises(fileio.FileFormatError):
            fileio.read_schedule(io.StringIO(text))


class TestLooks:
    def test_roundtrip(self):
        rows = [
            {"outcome_id": "a", "look": 1, "cumulative_observed": 3, "cumulative_total": 7},
            {"outcome_id": "a", "look": 2, "cumulative_observed": 6, "cumulative_total": 15},
        ]
        _, parsed = roundtrip(fileio.write_looks, fileio.read_looks, rows)
        assert parsed == rows

    def test_poisson_rows_without_total(self):
        rows = [{"outcome_id": "a", "look": 1, "cumulative_observed": 3, "cumulative_total": None}]
        text, parsed = roundtrip(fileio.write_looks, fileio.read_looks, rows)
        assert "cumulative_total" not in text.splitlines()[1]
        assert parsed[0]["cumulative_total"] is None


class TestRecords:
    def test_error_model_roundtrip(self):
        model = ErrorModel(0.21345678901234567, 0.19, n_controls=49, converged=True)
        text, parsed = roundtrip(
            fileio.write_error_model, fileio.read_error_model, model, provenance={"n_inputs": 50}
        )
        assert "# n_inputs=50" in text
        assert parsed == model

    def test_error_model_roundtrip_keeps_excluded_count(self):
        model = ErrorModel(-0.05, 0.0, n_controls=18, converged=False, n_excluded=2)
        text, parsed = roundtrip(fileio.write_error_model, fileio.read_error_model, model)
        assert text.splitlines()[1] == "mean,sd,n_controls,converged,n_excluded"
        assert parsed == model

    def test_error_model_of_numpy_scalars_roundtrip(self):
        model = ErrorModel(np.float64(0.1), np.float64(0.2), np.int64(49), np.True_, np.int64(1))
        text, parsed = roundtrip(fileio.write_error_model, fileio.read_error_model, model)
        assert text.splitlines()[2] == "0.1,0.2,49,true,1"
        assert parsed == ErrorModel(0.1, 0.2, n_controls=49, converged=True, n_excluded=1)
        assert fileio._format_value(np.False_) == "false"
        assert fileio._format_value(np.float32(0.5)) == "0.5"

    def test_error_model_without_excluded_column_reads_as_zero(self):
        text = "# seqcalib error-model v1\nmean,sd,n_controls,converged\n0.1,0.2,49,true\n"
        parsed = fileio.read_error_model(io.StringIO(text))
        assert parsed == ErrorModel(0.1, 0.2, n_controls=49, converged=True, n_excluded=0)

    def test_cv_record_roundtrip(self):
        record = CriticalValueResult(cv=1.5451774444795623, attained_alpha=0.02136)
        text, parsed = roundtrip(
            fileio.write_cv_record,
            fileio.read_cv_record,
            record,
            provenance={"seed": 42, "replicates": 1000000},
        )
        assert "seed=42" in text
        assert parsed == record

    def test_single_record_enforced(self):
        text = "cv,attained_alpha\n1.0,0.05\n2.0,0.05\n"
        with pytest.raises(fileio.FileFormatError):
            fileio.read_cv_record(io.StringIO(text))


class TestResultsAndSummary:
    @pytest.fixture
    def result(self):
        rng = np.random.default_rng(13)
        schedule = LookSchedule((5.0, 5.0), alpha=0.05)
        counts = {f"nc-{i}": np.cumsum(rng.poisson(5.0, 2)) for i in range(4)}
        counts["hot"] = np.array([9, 19])
        looks = [
            LookObservation(
                t + 1,
                {
                    oid: PoissonCounts(int(series[t]), 5.0 * (t + 1))
                    for oid, series in counts.items()
                },
            )
            for t in range(2)
        ]
        return run_surveillance(
            schedule,
            looks,
            [k for k in counts if k != "hot"],
        )

    def test_results_table_roundtrip(self, result):
        text = fileio.dumps(fileio.write_results_table, result, provenance={"seed": 5})
        parsed = fileio.read_results_table(io.StringIO(text))
        assert len(parsed) == 10  # 5 outcomes x 2 looks
        by_key = {(r["outcome_id"], r["look"]): r for r in parsed}
        rec = result.outcomes["hot"].looks[1]
        row = by_key[("hot", 2)]
        assert row["llr"] == rec.llr
        assert row["beta_hat"] == rec.beta_hat
        assert row["p_calibrated"] == rec.p_calibrated
        assert row["signal_uncal_maxsprt"] == rec.signals["uncal_maxsprt"]
        assert row["is_negative_control"] is False

    def test_type1_summary_roundtrip(self):
        fractions = {"uncal_p": 0.25, "uncal_maxsprt": 0.0, "cal_p": 0.25, "cal_maxsprt": 0.0}
        _, parsed = roundtrip(fileio.write_type1_summary, fileio.read_type1_summary, fractions)
        assert parsed == fractions


class TestSimulationRows:
    def test_roundtrip(self):
        report = ErrorRateReport(
            scenario="mini",
            rows=[
                ErrorRateRow(0, "uncal_p", 1.0, "type1", 0.3),
                ErrorRateRow(0, "uncal_p", 2.0, "type2", 0.6666666666666666),
            ],
        )
        _, parsed = roundtrip(fileio.write_simulation_rows, fileio.read_simulation_rows, [report])
        assert len(parsed) == 1
        assert parsed[0].scenario == "mini"
        assert parsed[0].rows == report.rows


RESULT_ROW = "a,1,true,true,0.1,0.2,0.3,0.4,0.5,2.0,3.0,false,false,false,false"


@pytest.mark.parametrize(
    "reader, header, good_row, bad_row",
    [
        (fileio.read_estimates, "outcome_id,log_rr,se_log_rr", "a,0.1,0.2", "b,0.1,x"),
        (
            fileio.read_grid_profiles,
            "outcome_id,log_rr_grid_point,log_likelihood",
            "g,0.0,-1.0",
            "g,x,-1.0",
        ),
        (
            fileio.read_schedule,
            "model,t,e_t,p,alpha",
            "poisson,1,4.0,,0.05",
            "poisson,2.5,4.0,,0.05",
        ),
        (
            fileio.read_looks,
            "outcome_id,look,cumulative_observed,cumulative_total",
            "a,1,3,7",
            "a,2,6,many",
        ),
        (fileio.read_controls, "outcome_id", "a", "b,c"),
        (
            fileio.read_error_model,
            "mean,sd,n_controls,converged,n_excluded",
            None,
            "0.1,0.2,49,yes,0",
        ),
        (fileio.read_cv_record, "cv,attained_alpha", None, "1.5,abc"),
        (
            fileio.read_results_table,
            ",".join(fileio._RESULT_COLUMNS),
            RESULT_ROW,
            RESULT_ROW.replace("true,true", "true,maybe"),
        ),
        (fileio.read_type1_summary, "mode,signal_fraction", "uncal_p,0.25", "cal_p,"),
        (
            fileio.read_simulation_rows,
            "scenario,repeat,mode,effect_size,rate_type,value",
            "s,0,uncal_p,1.0,type1,0.3",
            "s,one,uncal_p,1.0,type1,0.3",
        ),
    ],
)
def test_malformed_field_after_comment_reports_its_line(reader, header, good_row, bad_row):
    lines = ["# seqcalib any v1", header, *([good_row] if good_row else []), "# note", bad_row]
    with pytest.raises(fileio.FileFormatError) as err:
        reader(io.StringIO("\n".join(lines) + "\n"))
    assert err.value.line == len(lines)
