"""Stable text formats for estimates, schedules, looks, and results.

Every file is comma-separated with a `# seqcalib <kind> v1` version comment
on the first line, optional further `#` comment lines (provenance such as
seed and repeat count), then a header row. Readers ignore comments and
validate the header; writers emit floats with full round-trip precision so
parsing an output reproduces the in-memory records exactly.
"""

from __future__ import annotations

import csv
import io
import itertools
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errormodel import ErrorModel
from .likelihood import GridProfile, NormalApprox
from .maxsprt import CriticalValueResult, LookSchedule
from .simharness import ErrorRateReport, ErrorRateRow
from .surveillance import ALL_MODES, SurveillanceResult

__all__ = [
    "FileFormatError",
    "read_controls",
    "read_cv_record",
    "read_error_model",
    "read_estimates",
    "read_grid_profiles",
    "read_looks",
    "read_results_table",
    "read_schedule",
    "read_simulation_rows",
    "read_type1_summary",
    "write_cv_record",
    "write_error_model",
    "write_estimates",
    "write_looks",
    "write_results_table",
    "write_schedule",
    "write_simulation_rows",
    "write_type1_summary",
]

_Parser = Callable[[str], object]
_Columns = Sequence[tuple[str, _Parser]]  # each header column's name and parser


class FileFormatError(ValueError):
    """A file does not match its documented schema."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _format_value(value) -> str:
    if value is None:
        return ""
    if hasattr(value, "item"):  # a numpy scalar: write the Python value it holds
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _true_false(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text == "true"


def _optional(parse: _Parser) -> _Parser:
    """The parser that reads an empty field as None and any other through parse."""
    return lambda text: None if text == "" else parse(text)


_optional_float = _optional(float)

_RESULT_COLUMNS: dict[str, _Parser] = {
    "outcome_id": str,
    "look": int,
    "is_negative_control": _true_false,
    "informative": _true_false,
    "beta_hat": _optional_float,
    "se": _optional_float,
    "llr": _optional_float,
    "p_uncalibrated": _optional_float,
    "p_calibrated": _optional_float,
    "cv": _optional_float,
    "cv_calibrated": _optional_float,
    **{f"signal_{mode}": _optional(_true_false) for mode in ALL_MODES},
}


def _data_lines(f: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number, line) for each of f's lines that is neither blank nor a `#` comment."""
    for number, line in enumerate(f, start=1):
        if (text := line.lstrip()) and text[0] != "#":
            yield number, line


def _records(lines: Iterable[tuple[int, str]]) -> Iterator[tuple[int, list[str]]]:
    """(number of its last line, fields) per csv record; the reader takes no line past a record's."""
    at = [0]
    try:
        for fields in csv.reader(line for at[0], line in lines):
            yield at[0], fields
    except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
        raise FileFormatError(str(exc), at[0]) from None


def _header(records: Iterator[tuple[int, list[str]]], schema: Mapping[str, _Parser],
            optional: Mapping[str, object] | None = None) -> tuple[_Columns, dict[str, object]]:
    """Each header column's (name, parser), and the defaults of the absent optional columns.

    The header must name each schema column once and no other; a column in optional may be absent.
    """
    optional = optional or {}
    line, fields = next(records, (None, None))
    if fields is None:
        raise FileFormatError("no header row found")
    header = [c.strip() for c in fields]
    duplicated = sorted({c for c in header if header.count(c) > 1})
    if duplicated:
        raise FileFormatError(f"duplicate columns: {duplicated}", line)
    missing = [c for c in schema if c not in header and c not in optional]
    if missing:
        raise FileFormatError(f"missing columns: {missing}", line)
    unknown = [c for c in header if c not in schema]
    if unknown:
        raise FileFormatError(f"unknown columns: {unknown}", line)
    return [(c, schema[c]) for c in header], {c: v for c, v in optional.items() if c not in header}


def _rows(records: Iterable[tuple[int, list[str]]], columns: _Columns,
          absent: Mapping[str, object]) -> Iterator[tuple[int, dict[str, object]]]:
    """(line number, {column: parsed value}) per record, absent columns at their defaults.

    A field its column's parser rejects with ValueError raises FileFormatError at its line.
    """
    for line, fields in records:
        if len(fields) != len(columns):
            raise FileFormatError(f"expected {len(columns)} fields, got {len(fields)}", line)
        row = dict(absent)
        for (column, parse), text in zip(columns, fields):
            try:
                row[column] = parse(text)
            except ValueError as exc:
                raise FileFormatError(f"column {column}: {exc}", line) from None
        yield line, row


def _read_table(f: TextIO, schema: Mapping[str, _Parser],
                optional: Mapping[str, object] | None = None) -> Iterator[tuple[int, dict]]:
    """(line number, {column: parsed value}) per data row of f; blank and `#` lines are skipped."""
    records = _records(_data_lines(f))
    return _rows(records, *_header(records, schema, optional))


def _build(line: int, make: Callable[..., object], *args, **kwargs):
    """make(*args, **kwargs), its ValueError raised as FileFormatError at line."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise FileFormatError(str(exc), line) from None


def _single_record(rows: Iterable[tuple[int, dict[str, object]]]) -> tuple[int, dict[str, object]]:
    rows = list(rows)
    if len(rows) != 1:
        raise FileFormatError(f"expected exactly one record, got {len(rows)}")
    return rows[0]


def _write_header(f: TextIO, kind: str, provenance: Mapping[str, object] | None) -> None:
    f.write(f"# seqcalib {kind} v1\n")
    if provenance:
        f.write("# " + " ".join(f"{k}={v}" for k, v in provenance.items()) + "\n")


def _write_rows(f: TextIO, columns: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    writer = csv.writer(f, lineterminator="\n")
    quoted = csv.writer(f, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(columns)
    for row in rows:
        # the common exact types inline, each as _format_value writes it
        fields = [repr(v) if type(v) is float else ("true" if v else "false") if type(v) is bool
                  else "" if v is None else _format_value(v) for v in row]
        # a line that starts with "#", also after spaces, would read back as a comment
        (quoted if fields and fields[0].lstrip().startswith("#") else writer).writerow(fields)


# ---------------------------------------------------------------- estimates


def read_estimates(f: TextIO) -> list[NormalApprox]:
    """Columns: outcome_id, log_rr, se_log_rr (one row per outcome)."""
    estimates: dict[str, NormalApprox] = {}
    for line, row in _read_table(f, {"outcome_id": str, "log_rr": float, "se_log_rr": float}):
        oid = row["outcome_id"]
        if oid in estimates:
            raise FileFormatError(f"duplicate outcome {oid}", line)
        estimates[oid] = _build(line, NormalApprox, row["log_rr"], row["se_log_rr"], oid)
    return list(estimates.values())


def write_estimates(
    f: TextIO, profiles: Iterable[NormalApprox], provenance: Mapping[str, object] | None = None
) -> None:
    _write_header(f, "estimates", provenance)
    _write_rows(
        f,
        ["outcome_id", "log_rr", "se_log_rr"],
        [(p.outcome_id, p.point_estimate, p.standard_error) for p in profiles],
    )


_GRID_SCHEMA = {"outcome_id": str, "log_rr_grid_point": float, "log_likelihood": float}
_GRID_CHUNK_ROWS = 4096  # data lines per np.loadtxt call


def read_grid_profiles(f: TextIO) -> list[GridProfile]:
    """Columns: outcome_id, log_rr_grid_point, log_likelihood (each outcome's rows contiguous).

    f is read once, forward, so it may be a pipe. numpy's C reader parses the data
    lines _GRID_CHUNK_ROWS at a time, so the parse's memory beyond the profiles does
    not grow with the file. The row parser reads the first chunk that numpy refuses
    and all after it: it reports a fault at its line and reads floats such as `1_0`.
    """
    lines = _data_lines(f)
    columns, _ = _header(_records(lines), _GRID_SCHEMA)
    grouped: dict[str, tuple[int, list, list]] = {}
    previous = None
    for line, oid, x, ll in _grid_runs(lines, columns):
        if oid != previous and oid in grouped:
            raise FileFormatError(f"rows of outcome {oid} are not contiguous", line)
        previous = oid
        _, xs, lls = grouped.setdefault(oid, (line, [], []))
        xs.append(x)
        lls.append(ll)
    return [_build(first_line, GridProfile, _joined(xs), _joined(lls), outcome_id=oid)
            for oid, (first_line, xs, lls) in grouped.items()]


def _grid_runs(lines: Iterator[tuple[int, str]], columns: _Columns) -> Iterator[tuple]:
    """(first line, id, grid points, log likelihoods) per run of one id's rows in a chunk."""
    dtype = [(c, object if c == "outcome_id" else np.float64) for c, _ in columns]
    while chunk := list(itertools.islice(lines, _GRID_CHUNK_ROWS)):  # loadtxt warns on none
        try:
            table = np.loadtxt([line for _, line in chunk], dtype=dtype, delimiter=",",
                               comments=None, quotechar='"', ndmin=1)
        except ValueError:
            break
        ids, x, ll = (table[c] for c in _GRID_SCHEMA)
        # a quoted field over a line end would misnumber rows or run into the next chunk
        if len(ids) < len(chunk) or "\n" in ids[-1]:
            break
        firsts = np.r_[0, np.flatnonzero(ids[1:] != ids[:-1]) + 1]
        for a, b in zip(firsts, [*firsts[1:], len(ids)]):
            # a view into table would keep the chunk's ids alive
            yield chunk[a][0], ids[a], x[a:b].copy(), ll[a:b].copy()
    for line, row in _rows(_records(itertools.chain(chunk, lines)), columns, {}):
        yield line, row["outcome_id"], [row["log_rr_grid_point"]], [row["log_likelihood"]]


def _joined(pieces: list[Sequence[float]]) -> Sequence[float]:
    """The pieces as one array; a single piece is returned as it is, not copied."""
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


# ----------------------------------------------------------------- schedule


def read_schedule(f: TextIO) -> LookSchedule:
    """Columns: model, t, e_t, p, alpha; model, p, alpha constant across rows."""
    schema = {"model": str, "t": int, "e_t": float, "p": _optional_float, "alpha": float}
    rows = list(_read_table(f, schema))
    if not rows:
        raise FileFormatError("schedule has no looks")
    line0, row0 = rows[0]
    increments: dict[int, float] = {}
    for line, row in rows:
        if (row["model"], row["p"], row["alpha"]) != (row0["model"], row0["p"], row0["alpha"]):
            raise FileFormatError("model, p, and alpha must be constant across rows", line)
        if not 0.0 < row["e_t"] < float("inf"):
            raise FileFormatError("expected increments must be positive and finite", line)
        if row["t"] in increments:
            raise FileFormatError(f"duplicate look {row['t']}", line)
        increments[row["t"]] = row["e_t"]
    if sorted(increments) != list(range(1, len(increments) + 1)):
        raise FileFormatError("looks must be numbered 1..T without gaps", line0)
    return _build(
        line0,
        LookSchedule,
        expected_increments=tuple(increments[t] for t in sorted(increments)),
        alpha=row0["alpha"],
        model=row0["model"],
        exposure_proportion=row0["p"],
    )


def write_schedule(
    f: TextIO, schedule: LookSchedule, provenance: Mapping[str, object] | None = None
) -> None:
    _write_header(f, "schedule", provenance)
    _write_rows(
        f,
        ["model", "t", "e_t", "p", "alpha"],
        [
            (schedule.model, t + 1, e, schedule.exposure_proportion, schedule.alpha)
            for t, e in enumerate(schedule.expected_increments)
        ],
    )


# -------------------------------------------------------------------- looks


def read_looks(f: TextIO) -> list[dict[str, object]]:
    """Columns: outcome_id, look, cumulative_observed[, cumulative_total].

    Returns one dict per row; cumulative_total is None when the column is
    absent or empty (Poisson data).
    """
    schema = {"outcome_id": str, "look": int, "cumulative_observed": int,
              "cumulative_total": _optional(int)}
    return [row for _, row in _read_table(f, schema, optional={"cumulative_total": None})]


def write_looks(
    f: TextIO, rows: Iterable[Mapping[str, object]], provenance: Mapping[str, object] | None = None
) -> None:
    rows = list(rows)
    has_total = any(r.get("cumulative_total") is not None for r in rows)
    columns = ["outcome_id", "look", "cumulative_observed"]
    if has_total:
        columns.append("cumulative_total")
    _write_header(f, "looks", provenance)
    _write_rows(f, columns, [[r.get(c) for c in columns] for r in rows])


def read_controls(f: TextIO) -> list[str]:
    """Column: outcome_id."""
    return [row["outcome_id"] for _, row in _read_table(f, {"outcome_id": str})]


# ------------------------------------------------------------------ records


def read_error_model(f: TextIO) -> ErrorModel:
    """Columns: mean, sd, n_controls, converged[, n_excluded] (single record).

    Records written before n_excluded was recorded lack the column; they
    read as n_excluded 0.
    """
    schema = {"mean": float, "sd": float, "n_controls": int, "converged": _true_false,
              "n_excluded": int}
    line, row = _single_record(_read_table(f, schema, optional={"n_excluded": 0}))
    return _build(line, ErrorModel, **row)


def write_error_model(
    f: TextIO, model: ErrorModel, provenance: Mapping[str, object] | None = None
) -> None:
    _write_header(f, "error-model", provenance)
    _write_rows(
        f,
        ["mean", "sd", "n_controls", "converged", "n_excluded"],
        [(model.mean, model.sd, model.n_controls, model.converged, model.n_excluded)],
    )


def read_cv_record(f: TextIO) -> CriticalValueResult:
    """Columns: cv, attained_alpha (single record)."""
    _, row = _single_record(_read_table(f, {"cv": float, "attained_alpha": float}))
    return CriticalValueResult(**row)


def write_cv_record(
    f: TextIO, result: CriticalValueResult, provenance: Mapping[str, object] | None = None
) -> None:
    _write_header(f, "cv", provenance)
    _write_rows(f, ["cv", "attained_alpha"], [(result.cv, result.attained_alpha)])


# ------------------------------------------------------------------ results


def write_results_table(
    f: TextIO, result: SurveillanceResult, provenance: Mapping[str, object] | None = None
) -> None:
    """One row per outcome per look, ordered by outcome id then look."""
    _write_header(f, "results", provenance)
    rows = []
    for outcome_id in sorted(result.outcomes):
        outcome = result.outcomes[outcome_id]
        for rec in outcome.looks:
            rows.append(
                (
                    outcome_id,
                    rec.look,
                    outcome.is_negative_control,
                    rec.informative,
                    rec.beta_hat,
                    rec.se,
                    rec.llr,
                    rec.p_uncalibrated,
                    rec.p_calibrated,
                    rec.cv,
                    rec.cv_calibrated,
                    *(rec.signals.get(mode) for mode in ALL_MODES),
                )
            )
    _write_rows(f, _RESULT_COLUMNS, rows)


def read_results_table(f: TextIO) -> list[dict[str, object]]:
    return [row for _, row in _read_table(f, _RESULT_COLUMNS)]


def write_type1_summary(
    f: TextIO, fractions: Mapping[str, float], provenance: Mapping[str, object] | None = None
) -> None:
    """Columns: mode, signal_fraction."""
    _write_header(f, "type1", provenance)
    _write_rows(f, ["mode", "signal_fraction"], list(fractions.items()))


def read_type1_summary(f: TextIO) -> dict[str, float]:
    rows = _read_table(f, {"mode": str, "signal_fraction": float})
    return {row["mode"]: row["signal_fraction"] for _, row in rows}


# --------------------------------------------------------------- simulation


def write_simulation_rows(
    f: TextIO,
    reports: Iterable[ErrorRateReport],
    provenance: Mapping[str, object] | None = None,
) -> None:
    """Columns: scenario, repeat, mode, effect_size, rate_type, value."""
    _write_header(f, "simulation", provenance)
    rows = []
    for report in reports:
        for r in report.rows:
            rows.append((report.scenario, r.repeat, r.mode, r.effect_size, r.rate_type, r.value))
    _write_rows(f, ["scenario", "repeat", "mode", "effect_size", "rate_type", "value"], rows)


def read_simulation_rows(f: TextIO) -> list[ErrorRateReport]:
    schema = {"scenario": str, "repeat": int, "mode": str, "effect_size": float,
              "rate_type": str, "value": float}
    by_scenario: dict[str, ErrorRateReport] = {}
    for _, row in _read_table(f, schema):
        scenario = row.pop("scenario")
        report = by_scenario.setdefault(scenario, ErrorRateReport(scenario=scenario))
        report.rows.append(ErrorRateRow(**row))
    return list(by_scenario.values())


def dumps(writer, *args, **kwargs) -> str:
    """Render any writer's output to a string."""
    buf = io.StringIO()
    writer(buf, *args, **kwargs)
    return buf.getvalue()
