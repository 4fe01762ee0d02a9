import contextlib
import csv
import io
import re
import tracemalloc
import warnings

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

    def test_repeated_outcome_rejected_at_its_line(self):
        text = "outcome_id,log_rr,se_log_rr\na,0.1,0.2\n# a comment\nb,0.1,0.2\na,0.3,0.2\n"
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_estimates(io.StringIO(text))
        assert str(err.value) == "line 5: duplicate outcome a"

    def test_field_over_the_csv_size_limit_reports_its_line(self):
        long_id = "x" * (csv.field_size_limit() + 1)
        text = f"# seqcalib estimates v1\noutcome_id,log_rr,se_log_rr\na,0.1,0.2\n{long_id},0.1,0.2\n"
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_estimates(io.StringIO(text))
        assert err.value.line == 4
        assert "field larger than field limit" in str(err.value)

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


GRID_HEADER = "outcome_id,log_rr_grid_point,log_likelihood"


def grid_text(n_outcomes, n_points, seed=0, ids=None, newline="\n"):
    """A grid-profile file of n_outcomes concave profiles, their floats at full precision."""
    rng = np.random.default_rng(seed)
    rows = ["# seqcalib grid-profiles v1", GRID_HEADER]
    for i in range(n_outcomes):
        x = np.sort(rng.uniform(-3.0, 3.0, n_points))
        ll = -((x - rng.normal()) ** 2) * rng.uniform(0.5, 5.0)
        oid = ids[i] if ids else f"g{i}"
        rows += [f"{oid},{float(a)!r},{float(b)!r}" for a, b in zip(x, ll)]
    return newline.join(rows) + newline


def assert_same_profiles(actual, expected):
    assert [p.outcome_id for p in actual] == [p.outcome_id for p in expected]
    for a, e in zip(actual, expected):
        assert np.array_equal(a.grid_points.view(np.int64), e.grid_points.view(np.int64))
        assert np.array_equal(a.log_likelihoods.view(np.int64), e.log_likelihoods.view(np.int64))


class Unseekable(io.StringIO):
    """A text stream that, like a pipe, cannot seek or tell its position."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


def refuse(*args, **kwargs):
    raise ValueError("refused")


@contextlib.contextmanager
def rows_only():
    """np.loadtxt refuses every chunk, so read_grid_profiles parses every row with the row parser."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "loadtxt", refuse)
        yield


@pytest.fixture
def spy(monkeypatch):
    """The number of lines of each np.loadtxt call, and the line of each row from the row parser."""
    seen = {"loadtxt": [], "row_parser": []}
    loadtxt, rows = np.loadtxt, fileio._rows

    def counted_loadtxt(lines, *args, **kwargs):
        seen["loadtxt"].append(len(lines))
        return loadtxt(lines, *args, **kwargs)

    def traced_rows(*args):
        for line, row in rows(*args):
            seen["row_parser"].append(line)
            yield line, row

    monkeypatch.setattr(np, "loadtxt", counted_loadtxt)
    monkeypatch.setattr(fileio, "_rows", traced_rows)
    return seen


def columns_and_rows(text):
    """Parse text with the C reader and with the row parser alone; the two must agree."""
    fast = fileio.read_grid_profiles(io.StringIO(text))
    with rows_only():
        assert_same_profiles(fast, fileio.read_grid_profiles(io.StringIO(text)))
    return fast


def with_fault(text, row, fault):
    """text with fault applied to its data row number row (counted from 1)."""
    lines = text.splitlines(keepends=True)
    lines[row + 1] = fault(lines[row + 1])
    return "".join(lines)


class TestGridProfilesDifferential:
    def test_quoted_ids_with_commas_quotes_and_hashes(self):
        ids = ['"a,b"', '"say ""hi"""', '"#3"', "x#y", '"#,"""']
        parsed = columns_and_rows(grid_text(5, 4, ids=ids))
        assert [p.outcome_id for p in parsed] == ["a,b", 'say "hi"', "#3", "x#y", '#,"']

    def test_blank_and_comment_lines_between_rows(self):
        lines = grid_text(3, 5).splitlines(keepends=True)
        for i in (12, 9, 6, 3):
            lines[i:i] = ["\n", "   \t\n", "  # an indented comment\n", "#\n"]
        parsed = columns_and_rows("".join(lines))
        assert [p.grid_points.size for p in parsed] == [5, 5, 5]

    def test_header_columns_in_another_order(self):
        lines = grid_text(3, 5).splitlines()
        reordered = ["log_likelihood,outcome_id,log_rr_grid_point"] + [
            ",".join([ll, oid, x]) for oid, x, ll in (r.split(",") for r in lines[2:])
        ]
        parsed = columns_and_rows("\n".join(reordered) + "\n")
        assert_same_profiles(parsed, fileio.read_grid_profiles(io.StringIO("\n".join(lines))))

    def test_crlf_line_endings(self):
        parsed = columns_and_rows(grid_text(3, 5, newline="\r\n"))
        assert_same_profiles(parsed, fileio.read_grid_profiles(io.StringIO(grid_text(3, 5))))

    def test_single_outcome(self):
        assert len(columns_and_rows(grid_text(1, 3))) == 1

    def test_more_rows_than_one_loadtxt_chunk(self):
        parsed = columns_and_rows(grid_text(51, 1000, seed=5))  # loadtxt reads 50,000 at a time
        assert sum(p.grid_points.size for p in parsed) == 51_000

    def test_seekable_stream_takes_the_column_path(self, spy):
        assert len(fileio.read_grid_profiles(io.StringIO(grid_text(2, 4)))) == 2
        assert spy["row_parser"] == []

    def test_unseekable_stream_and_file_read_by_next_take_the_column_path(self, spy, tmp_path):
        text = grid_text(3, 5)
        path = tmp_path / "grid.csv"
        path.write_text(text, encoding="utf-8")
        with open(path, encoding="utf-8") as f:
            next(f)  # a text file read this way cannot tell its position
            assert_same_profiles(fileio.read_grid_profiles(f),
                                 fileio.read_grid_profiles(Unseekable(text)))
        assert spy == {"loadtxt": [15, 15], "row_parser": []}


class TestGridProfileChunks:
    """The C reader parses the data lines four at a time here, so outcomes cross chunks."""

    @pytest.fixture(autouse=True)
    def four_row_chunks(self, monkeypatch):
        monkeypatch.setattr(fileio, "_GRID_CHUNK_ROWS", 4)

    # chunks are rows 1-4, 5-8, ...: 6-point outcomes each cross one boundary, 10-point
    # outcomes two, and 4-point outcomes none, as every boundary falls between two outcomes
    @pytest.mark.parametrize("n_points", [6, 10, 4],
                             ids=["one-boundary", "two-boundaries", "boundary-between-outcomes"])
    def test_outcomes_match_the_per_row_reader_bit_for_bit(self, n_points):
        parsed = columns_and_rows(grid_text(3, n_points, seed=n_points))
        assert [p.grid_points.size for p in parsed] == [n_points] * 3

    def test_outcome_returning_in_a_later_chunk_fails_at_its_line(self):
        # g0 is rows 1-4 (chunk 1), g1 rows 5-8 (chunk 2), g0 again rows 9-12 (chunk 3)
        text = grid_text(2, 4) + "".join(f"g0,{x}.0,0\n" for x in (5, 6, 7, 8))
        with rows_only(), pytest.raises(ValueError, match="not contiguous"):
            fileio.read_grid_profiles(io.StringIO(text))
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_grid_profiles(io.StringIO(text))
        assert str(err.value) == "line 11: rows of outcome g0 are not contiguous"

    def test_bad_field_in_the_second_chunk_keeps_message_and_line(self):
        text = with_fault(grid_text(2, 5), 6, lambda r: "g1,oops,0\n")
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_grid_profiles(io.StringIO(text))
        assert str(err.value) == (
            "line 8: column log_rr_grid_point: could not convert string to float: 'oops'"
        )

    def test_row_parser_takes_over_at_the_chunk_that_numpy_refuses(self, spy):
        # rows 1-4, 5-8 and 9-12, on lines 3-14, are the three chunks; row 6 holds a
        # value with a digit separator, which only Python's float reads
        text = grid_text(3, 4, seed=1)
        faulted = with_fault(text, 6, lambda r: re.sub(r"\.(\d)(\d)", r".\1_\2", r, count=1))
        assert faulted != text
        parsed = fileio.read_grid_profiles(io.StringIO(faulted))
        assert spy["loadtxt"] == [4, 4]
        assert spy["row_parser"] == list(range(7, 15))
        with rows_only():
            assert_same_profiles(parsed, fileio.read_grid_profiles(io.StringIO(text)))

    @pytest.mark.parametrize("id_last", [False, True], ids=["id-first", "id-last"])
    @pytest.mark.parametrize("n_a, chunk_rows", [(3, 4), (4, 4), (4, 4096)],
                             ids=["across-chunks", "inside-chunks", "one-chunk"])
    def test_id_quoted_over_two_lines(self, monkeypatch, id_last, n_a, chunk_rows):
        # a's n_a rows come first, then b's three rows of two lines each, from data line
        # n_a + 1: in four-line chunks the first crosses a boundary for 3, and none does
        # for 4; c's grid is unsorted, so the fault names c's first line, n_a + 8
        monkeypatch.setattr(fileio, "_GRID_CHUNK_ROWS", chunk_rows)

        def row(oid, x):
            return f"{x},0.0,{oid}\n" if id_last else f"{oid},{x},0.0\n"

        header = "log_rr_grid_point,log_likelihood,outcome_id" if id_last else GRID_HEADER
        text = "".join([f"{header}\n", *(row("a", x) for x in range(n_a)),
                        *(row('"two\nlines"', x) for x in range(3)),
                        *(row("c", x) for x in range(3))])
        parsed = fileio.read_grid_profiles(io.StringIO(text))
        with rows_only():
            assert_same_profiles(parsed, fileio.read_grid_profiles(io.StringIO(text)))
        assert [p.outcome_id for p in parsed] == ["a", "two\nlines", "c"]
        unsorted = text.replace(row("c", 2), row("c", -1))
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_grid_profiles(io.StringIO(unsorted))
        assert str(err.value) == f"line {n_a + 8}: grid_points must be strictly ascending"


def test_grid_parse_holds_a_bounded_share_of_rows_as_python_objects(tmp_path):
    # 60,000 rows of 60 outcomes keep 0.96 MB of floats; the peak, under tracemalloc, was
    # 5.55 MB when one loadtxt call held every row's id string, and 2.02 MB in 4,096-line chunks
    path = tmp_path / "grid.csv"
    path.write_text(grid_text(60, 1000, seed=3), encoding="utf-8")
    with open(path, encoding="utf-8") as f:
        tracemalloc.start()
        try:
            profiles = fileio.read_grid_profiles(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sum(p.grid_points.size for p in profiles) == 60_000
    assert peak < 3.5e6


LONG_GRID = grid_text(51, 1000, seed=7)  # 51,000 data rows


class TestGridProfileErrors:
    # data row k is on line k + 2; outcome g50's rows are 50,001-51,000
    @pytest.mark.parametrize(
        "row, fault, message",
        [
            (50_500, lambda r: "g50,x1,0\n",
             "line 50502: column log_rr_grid_point: could not convert string to float: 'x1'"),
            (50_500, lambda r: r.rstrip("\n") + ",0.0\n", "line 50502: expected 3 fields, got 4"),
            (50_500, lambda r: r.rsplit(",", 1)[0] + "\n", "line 50502: expected 3 fields, got 2"),
            (50_500, lambda r: "g0," + r.split(",", 1)[1],
             "line 50502: rows of outcome g0 are not contiguous"),
            (50_500, lambda r: r.rsplit(",", 1)[0] + ",inf\n",
             "line 50003: grid values must be finite"),
            (50_500, lambda r: "g50,9.0,0\n",
             "line 50003: grid_points must be strictly ascending"),
        ],
        ids=["bad-float", "extra-field", "missing-field", "non-contiguous", "non-finite",
             "unsorted"],
    )
    def test_fault_after_row_50000_keeps_message_and_line(self, row, fault, message):
        text = with_fault(LONG_GRID, row, fault)
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_grid_profiles(io.StringIO(text))
        with rows_only(), pytest.raises(fileio.FileFormatError) as by_row:
            fileio.read_grid_profiles(io.StringIO(text))
        assert str(err.value) == str(by_row.value) == message
        assert err.value.line == by_row.value.line

    def test_outcome_returning_with_a_valid_grid_is_rejected(self):
        text = LONG_GRID + "g0,5.0,0\ng0,6.0,0\ng0,7.0,0\n"
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_grid_profiles(io.StringIO(text))
        assert str(err.value) == "line 51003: rows of outcome g0 are not contiguous"

    def test_bad_float_at_row_60000_reports_its_line(self):
        text = with_fault(grid_text(61, 1000, seed=2), 60_000, lambda r: "g59,bad,0\n")
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_grid_profiles(io.StringIO(text))
        assert str(err.value) == (
            "line 60002: column log_rr_grid_point: could not convert string to float: 'bad'"
        )

    def test_value_only_python_float_reads_is_accepted(self):
        text = GRID_HEADER + "\ng,-1_0,-1\ng,0,0\ng,1,-1\n"
        (profile,) = fileio.read_grid_profiles(io.StringIO(text))
        assert profile.grid_points.tolist() == [-10.0, 0.0, 1.0]

    def test_non_seekable_stream(self):
        text = grid_text(3, 5)
        by_row = fileio.read_grid_profiles(Unseekable(text))
        assert_same_profiles(by_row, fileio.read_grid_profiles(io.StringIO(text)))
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_grid_profiles(Unseekable(with_fault(text, 7, lambda r: "g1,x,0\n")))
        assert err.value.line == 9

    def test_file_partly_read_by_next(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(grid_text(3, 5))
        with open(path, encoding="utf-8") as f:
            next(f)  # a text file read this way cannot tell its position
            parsed = fileio.read_grid_profiles(f)
        assert_same_profiles(parsed, fileio.read_grid_profiles(io.StringIO(grid_text(3, 5))))

    def test_header_only_file_is_empty_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fileio.read_grid_profiles(io.StringIO(f"# seqcalib v1\n{GRID_HEADER}\n\n")) == []

    def test_row_parser_continues_a_file_from_the_refused_chunk(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(with_fault(grid_text(3, 5), 12, lambda r: "g2,0.5,nope\n"))
        with open(path, encoding="utf-8") as f:
            with pytest.raises(fileio.FileFormatError) as err:
                fileio.read_grid_profiles(f)
        assert str(err.value) == (
            "line 14: column log_likelihood: could not convert string to float: 'nope'"
        )


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

    SCHEDULE = "# seqcalib schedule v1\nmodel,t,e_t,p,alpha\n" + "".join(
        f"poisson,{t},4.0,,0.05\n" for t in (1, 2, 3, 4)
    )

    @pytest.mark.parametrize("e_t", ["-1.0", "0", "inf", "nan"])
    def test_bad_increment_in_a_later_row_reports_its_line(self, e_t):
        text = self.SCHEDULE.replace("poisson,3,4.0", f"poisson,3,{e_t}")
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_schedule(io.StringIO(text))
        assert str(err.value) == "line 5: expected increments must be positive and finite"

    def test_alpha_differing_in_a_later_row_reports_its_line(self):
        text = self.SCHEDULE.replace("poisson,3,4.0,,0.05", "poisson,3,4.0,,0.10")
        with pytest.raises(fileio.FileFormatError) as err:
            fileio.read_schedule(io.StringIO(text))
        assert str(err.value) == "line 5: model, p, and alpha must be constant across rows"


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


class TestIdsLikeComments:
    # a row whose id starts with "#", also after spaces, is quoted, so no reader drops it
    IDS = ["#3", " #4", "ok", "#hot"]

    def test_estimates_and_looks_read_back(self):
        estimates = [NormalApprox(0.1 * i, 0.2, oid) for i, oid in enumerate(self.IDS)]
        text, parsed = roundtrip(fileio.write_estimates, fileio.read_estimates, estimates)
        assert parsed == estimates
        assert '\n"#3","0.0","0.2"\n' in text and "\nok,0.2,0.2\n" in text
        looks = [{"outcome_id": oid, "look": 1, "cumulative_observed": 3, "cumulative_total": 9}
                 for oid in self.IDS]
        assert roundtrip(fileio.write_looks, fileio.read_looks, looks)[1] == looks

    def test_results_table_reads_back(self):
        counts = {"#3": (4, 9), " #4": (6, 11), "ok": (5, 10), "nc": (3, 12), "#hot": (9, 19)}
        looks = [
            LookObservation(t + 1, {o: PoissonCounts(c[t], 5.0 * (t + 1)) for o, c in counts.items()})
            for t in range(2)
        ]
        schedule = LookSchedule((5.0, 5.0), alpha=0.05)
        result = run_surveillance(schedule, looks, ["#3", " #4", "ok", "nc"])
        _, parsed = roundtrip(fileio.write_results_table, fileio.read_results_table, result)
        assert sorted((r["outcome_id"], r["look"]) for r in parsed) == sorted(
            (oid, look) for oid in counts for look in (1, 2)
        )


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


READER_CASES = [
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
]


@pytest.mark.parametrize("reader, header, good_row, bad_row", READER_CASES)
def test_malformed_field_after_comment_reports_its_line(reader, header, good_row, bad_row):
    lines = ["# seqcalib any v1", header, *([good_row] if good_row else []), "# note", bad_row]
    with pytest.raises(fileio.FileFormatError) as err:
        reader(io.StringIO("\n".join(lines) + "\n"))
    assert err.value.line == len(lines)


@pytest.mark.parametrize(
    "fault, message",
    [
        # the first column renamed: a header of one column cannot just drop it
        (lambda columns: ["renamed", *columns[1:]], "missing columns"),
        (lambda columns: [*columns, "extra"], "unknown columns"),
        (lambda columns: [*columns, columns[0]], "duplicate columns"),
    ],
    ids=["missing", "unknown", "duplicate"],
)
@pytest.mark.parametrize("reader, header", [case[:2] for case in READER_CASES])
def test_header_fault_after_comments_reports_the_header_line(reader, header, fault, message):
    lines = ["# seqcalib any v1", "# seed=1", "", ",".join(fault(header.split(","))), "a,1"]
    with pytest.raises(fileio.FileFormatError, match=message) as err:
        reader(io.StringIO("\n".join(lines) + "\n"))
    assert err.value.line == 4


@pytest.mark.parametrize(
    "reader, text, message, line",
    [
        (fileio.read_estimates, "# seqcalib estimates v1\n\n# only comments\n",
         "no header row found", None),
        (fileio.read_schedule, "# seqcalib schedule v1\nmodel,t,e_t,p,alpha\n",
         "schedule has no looks", None),
        (fileio.read_schedule,
         "# seqcalib schedule v1\nmodel,t,e_t,p,alpha\npoisson,1,4.0,,0.05\npoisson,1,4.0,,0.05\n",
         "line 4: duplicate look 1", 4),
    ],
    ids=["no-header", "no-looks", "duplicate-look"],
)
def test_reader_input_check_raises_with_its_message_and_line(reader, text, message, line):
    with pytest.raises(fileio.FileFormatError) as err:
        reader(io.StringIO(text))
    assert str(err.value) == message and err.value.line == line
