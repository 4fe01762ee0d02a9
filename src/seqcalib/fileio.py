"""Stable text formats for estimates, schedules, looks, and results.

Every file is comma-separated with a `# seqcalib <kind> v1` version comment
on the first line, optional further `#` comment lines (provenance such as
seed and replicate count), then a header row. Readers ignore comments and
validate the header; writers emit floats with full round-trip precision so
parsing an output reproduces the in-memory records exactly.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Mapping, Sequence, TextIO

from .errormodel import ErrorModel
from .likelihood import GridProfile, NormalApprox
from .maxsprt import CriticalValueResult, LookSchedule
from .simharness import ErrorRateReport, ErrorRateRow
from .surveillance import SurveillanceResult

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

_RESULT_COLUMNS = [
    "outcome_id",
    "look",
    "is_negative_control",
    "informative",
    "beta_hat",
    "se",
    "llr",
    "p_uncalibrated",
    "p_calibrated",
    "cv",
    "cv_calibrated",
    "signal_uncal_p",
    "signal_uncal_maxsprt",
    "signal_cal_p",
    "signal_cal_maxsprt",
]


class FileFormatError(ValueError):
    """A file does not match its documented schema."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_float(text: str, column: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise FileFormatError(f"column {column}: not a number: {text!r}", line) from None


def _parse_int(text: str, column: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise FileFormatError(f"column {column}: not an integer: {text!r}", line) from None


def _parse_bool(text: str, column: str, line: int) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise FileFormatError(f"column {column}: expected true/false, got {text!r}", line)


def _parse_optional_float(text: str, column: str, line: int) -> float | None:
    return None if text == "" else _parse_float(text, column, line)


def _read_table(
    f: TextIO, required: Sequence[str], optional: Sequence[str] = ()
) -> tuple[list[str], list[tuple[int, dict[str, str]]]]:
    """Parse comment-aware CSV; returns (header, [(line_number, row_dict)])."""
    header: list[str] | None = None
    rows: list[tuple[int, dict[str, str]]] = []
    for line_number, raw in enumerate(f, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = next(csv.reader([line]))
        if header is None:
            header = [c.strip() for c in fields]
            missing = [c for c in required if c not in header]
            if missing:
                raise FileFormatError(f"missing columns: {missing}", line_number)
            unknown = [c for c in header if c not in (*required, *optional)]
            if unknown:
                raise FileFormatError(f"unknown columns: {unknown}", line_number)
            continue
        if len(fields) != len(header):
            raise FileFormatError(
                f"expected {len(header)} fields, got {len(fields)}", line_number
            )
        rows.append((line_number, dict(zip(header, fields))))
    if header is None:
        raise FileFormatError("no header row found")
    return header, rows


def _write_header(f: TextIO, kind: str, provenance: Mapping[str, object] | None) -> None:
    f.write(f"# seqcalib {kind} v1\n")
    if provenance:
        f.write("# " + " ".join(f"{k}={v}" for k, v in provenance.items()) + "\n")


def _write_rows(f: TextIO, columns: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_value(v) for v in row])


# ---------------------------------------------------------------- estimates


def read_estimates(f: TextIO) -> list[NormalApprox]:
    """Columns: outcome_id, log_rr, se_log_rr."""
    _, rows = _read_table(f, ["outcome_id", "log_rr", "se_log_rr"])
    profiles = []
    for line, row in rows:
        try:
            profiles.append(
                NormalApprox(
                    point_estimate=_parse_float(row["log_rr"], "log_rr", line),
                    standard_error=_parse_float(row["se_log_rr"], "se_log_rr", line),
                    outcome_id=row["outcome_id"],
                )
            )
        except ValueError as exc:
            if isinstance(exc, FileFormatError):
                raise
            raise FileFormatError(str(exc), line) from None
    return profiles


def write_estimates(
    f: TextIO, profiles: Iterable[NormalApprox], provenance: Mapping[str, object] | None = None
) -> None:
    _write_header(f, "estimates", provenance)
    _write_rows(
        f,
        ["outcome_id", "log_rr", "se_log_rr"],
        [(p.outcome_id, p.point_estimate, p.standard_error) for p in profiles],
    )


def read_grid_profiles(f: TextIO) -> list[GridProfile]:
    """Columns: outcome_id, log_rr_grid_point, log_likelihood (rows grouped per outcome)."""
    _, rows = _read_table(f, ["outcome_id", "log_rr_grid_point", "log_likelihood"])
    grouped: dict[str, tuple[list[float], list[float], int]] = {}
    for line, row in rows:
        oid = row["outcome_id"]
        xs, lls, first_line = grouped.setdefault(oid, ([], [], line))
        xs.append(_parse_float(row["log_rr_grid_point"], "log_rr_grid_point", line))
        lls.append(_parse_float(row["log_likelihood"], "log_likelihood", line))
    profiles = []
    for oid, (xs, lls, first_line) in grouped.items():
        try:
            profiles.append(GridProfile(xs, lls, outcome_id=oid))
        except ValueError as exc:
            raise FileFormatError(f"outcome {oid}: {exc}", first_line) from None
    return profiles


# ----------------------------------------------------------------- schedule


def read_schedule(f: TextIO) -> LookSchedule:
    """Columns: model, t, e_t, p, alpha; model, p, alpha constant across rows."""
    _, rows = _read_table(f, ["model", "t", "e_t", "p", "alpha"])
    if not rows:
        raise FileFormatError("schedule has no looks")
    models = {row["model"] for _, row in rows}
    alphas = {row["alpha"] for _, row in rows}
    ps = {row["p"] for _, row in rows}
    if len(models) != 1 or len(alphas) != 1 or len(ps) != 1:
        raise FileFormatError("model, p, and alpha must be constant across rows", rows[0][0])
    increments: dict[int, float] = {}
    for line, row in rows:
        t = _parse_int(row["t"], "t", line)
        if t in increments:
            raise FileFormatError(f"duplicate look {t}", line)
        increments[t] = _parse_float(row["e_t"], "e_t", line)
    if sorted(increments) != list(range(1, len(increments) + 1)):
        raise FileFormatError("looks must be numbered 1..T without gaps", rows[0][0])
    line0, row0 = rows[0]
    p_text = row0["p"]
    try:
        return LookSchedule(
            expected_increments=tuple(increments[t] for t in sorted(increments)),
            alpha=_parse_float(row0["alpha"], "alpha", line0),
            model=row0["model"],
            exposure_proportion=_parse_optional_float(p_text, "p", line0),
        )
    except ValueError as exc:
        if isinstance(exc, FileFormatError):
            raise
        raise FileFormatError(str(exc), line0) from None


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
    header, rows = _read_table(
        f, ["outcome_id", "look", "cumulative_observed"], optional=["cumulative_total"]
    )
    has_total = "cumulative_total" in header
    out = []
    for line, row in rows:
        total_text = row.get("cumulative_total", "") if has_total else ""
        out.append(
            {
                "outcome_id": row["outcome_id"],
                "look": _parse_int(row["look"], "look", line),
                "cumulative_observed": _parse_int(
                    row["cumulative_observed"], "cumulative_observed", line
                ),
                "cumulative_total": (
                    None if total_text == "" else _parse_int(total_text, "cumulative_total", line)
                ),
            }
        )
    return out


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
    _, rows = _read_table(f, ["outcome_id"])
    return [row["outcome_id"] for _, row in rows]


# ------------------------------------------------------------------ records


def read_error_model(f: TextIO) -> ErrorModel:
    """Columns: mean, sd, n_controls, converged[, n_excluded] (single record).

    Records written before n_excluded was recorded lack the column; they
    read as n_excluded 0.
    """
    header, rows = _read_table(
        f, ["mean", "sd", "n_controls", "converged"], optional=["n_excluded"]
    )
    if len(rows) != 1:
        raise FileFormatError(f"expected exactly one record, got {len(rows)}")
    line, row = rows[0]
    try:
        return ErrorModel(
            mean=_parse_float(row["mean"], "mean", line),
            sd=_parse_float(row["sd"], "sd", line),
            n_controls=_parse_int(row["n_controls"], "n_controls", line),
            converged=_parse_bool(row["converged"], "converged", line),
            n_excluded=(
                _parse_int(row["n_excluded"], "n_excluded", line)
                if "n_excluded" in header
                else 0
            ),
        )
    except ValueError as exc:
        if isinstance(exc, FileFormatError):
            raise
        raise FileFormatError(str(exc), line) from None


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
    _, rows = _read_table(f, ["cv", "attained_alpha"])
    if len(rows) != 1:
        raise FileFormatError(f"expected exactly one record, got {len(rows)}")
    line, row = rows[0]
    return CriticalValueResult(
        cv=_parse_float(row["cv"], "cv", line),
        attained_alpha=_parse_float(row["attained_alpha"], "attained_alpha", line),
    )


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
                    rec.signals.get("uncal_p"),
                    rec.signals.get("uncal_maxsprt"),
                    rec.signals.get("cal_p"),
                    rec.signals.get("cal_maxsprt"),
                )
            )
    _write_rows(f, _RESULT_COLUMNS, rows)


def read_results_table(f: TextIO) -> list[dict[str, object]]:
    _, rows = _read_table(f, _RESULT_COLUMNS)
    out = []
    for line, row in rows:
        parsed: dict[str, object] = {
            "outcome_id": row["outcome_id"],
            "look": _parse_int(row["look"], "look", line),
            "is_negative_control": _parse_bool(
                row["is_negative_control"], "is_negative_control", line
            ),
            "informative": _parse_bool(row["informative"], "informative", line),
        }
        for col in (
            "beta_hat",
            "se",
            "llr",
            "p_uncalibrated",
            "p_calibrated",
            "cv",
            "cv_calibrated",
        ):
            parsed[col] = _parse_optional_float(row[col], col, line)
        for col in (
            "signal_uncal_p",
            "signal_uncal_maxsprt",
            "signal_cal_p",
            "signal_cal_maxsprt",
        ):
            parsed[col] = None if row[col] == "" else _parse_bool(row[col], col, line)
        out.append(parsed)
    return out


def write_type1_summary(
    f: TextIO, fractions: Mapping[str, float], provenance: Mapping[str, object] | None = None
) -> None:
    """Columns: mode, signal_fraction."""
    _write_header(f, "type1", provenance)
    _write_rows(f, ["mode", "signal_fraction"], list(fractions.items()))


def read_type1_summary(f: TextIO) -> dict[str, float]:
    _, rows = _read_table(f, ["mode", "signal_fraction"])
    return {
        row["mode"]: _parse_float(row["signal_fraction"], "signal_fraction", line)
        for line, row in rows
    }


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
    _, rows = _read_table(f, ["scenario", "repeat", "mode", "effect_size", "rate_type", "value"])
    by_scenario: dict[str, ErrorRateReport] = {}
    for line, row in rows:
        report = by_scenario.setdefault(
            row["scenario"], ErrorRateReport(scenario=row["scenario"])
        )
        report.rows.append(
            ErrorRateRow(
                repeat=_parse_int(row["repeat"], "repeat", line),
                mode=row["mode"],
                effect_size=_parse_float(row["effect_size"], "effect_size", line),
                rate_type=row["rate_type"],
                value=_parse_float(row["value"], "value", line),
            )
        )
    return list(by_scenario.values())


def dumps(writer, *args, **kwargs) -> str:
    """Render any writer's output to a string."""
    buf = io.StringIO()
    writer(buf, *args, **kwargs)
    return buf.getvalue()
