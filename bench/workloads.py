"""The three workloads as closed loops of calls into seqcalib, with their output checks.

One pass is a fixed list of operations, each a public-function or CLI call
that starts when the previous one returns. Only the calls are timed; each
output check runs afterwards, outside the timed region, through the same
public readers and functions production uses.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from seqcalib import ALL_MODES, cli, fileio, simharness


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    metric: str  # end-to-end metric the call's time counts toward
    call: Callable[[], object]
    check: Callable[[object], bytes]  # raises CheckFailed; returns the output bytes


@dataclass
class PassResult:
    seconds: dict[str, float] = field(default_factory=dict)
    cpu_seconds: dict[str, float] = field(default_factory=dict)
    outputs: list[bytes] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def total_cpu_s(self) -> float:
        return sum(self.cpu_seconds.values())


def run_pass(ops: list[Op], tracer=None) -> PassResult:
    """Run each op in order; time the call, then check its output untimed.

    In a traced pass each call is a root span, and checks run with the
    tracer paused so that they add no spans or counts.
    """
    result = PassResult()
    for op in ops:
        result.attempted += 1
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with tracer.region(f"op.{op.metric}") if tracer else nullcontext():
                value = op.call()
        except Exception as exc:  # a raised exception is a failed operation
            result.failures.append(f"{op.metric}: {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        result.seconds[op.metric] = result.seconds.get(op.metric, 0.0) + elapsed
        result.cpu_seconds[op.metric] = result.cpu_seconds.get(op.metric, 0.0) + cpu
        try:
            with tracer.paused() if tracer else nullcontext():
                result.outputs.append(op.check(value))
        except CheckFailed as exc:
            result.failures.append(f"{op.metric}: check failed: {exc}")
    return result


# ------------------------------------------------------------ simulate-desk


def _check_report(report: simharness.ErrorRateReport) -> bytes:
    modes = {r.mode for r in report.rows}
    _require(modes == set(ALL_MODES), f"{report.scenario}: modes {sorted(modes)}")
    bad = [r for r in report.rows if not 0.0 <= r.value <= 1.0]
    _require(not bad, f"{report.scenario}: rate outside [0, 1]: {bad[:1]}")
    types = {r.rate_type for r in report.rows}
    _require(types == {"type1", "type2"}, f"{report.scenario}: rate types {sorted(types)}")
    return fileio.dumps(fileio.write_simulation_rows, [report]).encode("utf-8")


def desk_ops(scenarios) -> list[Op]:
    return [
        Op(
            f"sweep_s.{s.design}",
            lambda s=s: simharness.run_scenario(s, replicates=simharness.DESK_REPLICATES),
            _check_report,
        )
        for s in scenarios
    ]


# ------------------------------------------------------------------ CLI ops


def _read(path: Path, reader):
    with open(path, encoding="utf-8") as f:
        return reader(f)


def _cli_op(metric: str, argv: list[str], outputs: list[Path], check) -> Op:
    def verify(code) -> bytes:
        _require(code == 0, f"exit code {code}")
        check()
        return b"".join(p.read_bytes() for p in outputs)

    return Op(metric, lambda: cli.main(argv), verify)


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def run_loo_ops(paths, seed: int, out: Path, n_outcomes: int, n_looks: int) -> list[Op]:
    results, summary = out / "results.csv", out / "type1.csv"

    def check() -> None:
        rows = _read(results, fileio.read_results_table)
        _require(len(rows) == n_outcomes * n_looks, f"{len(rows)} result rows")
        _require(
            len({(r["outcome_id"], r["look"]) for r in rows}) == len(rows), "duplicate rows"
        )
        for r in rows:
            _require(_finite(r["llr"]) and r["llr"] >= 0, f"llr {r['llr']}")
            _require(_finite(r["cv"]) and _finite(r["cv_calibrated"]), "cv not finite")
            if r["informative"]:
                _require(0.0 < r["p_calibrated"] < 1.0, f"p_calibrated {r['p_calibrated']}")
        fractions = _read(summary, fileio.read_type1_summary)
        _require(set(fractions) == set(ALL_MODES), f"summary modes {sorted(fractions)}")
        _require(all(0.0 <= v <= 1.0 for v in fractions.values()), f"summary {fractions}")

    argv = ["run", str(paths["schedule"]), str(paths["looks"]), str(paths["controls"]),
            "--seed", str(seed), "--out", str(results), "--summary", str(summary)]
    return [_cli_op("run_s", argv, [results, summary], check)]


def analyst_ops(paths, seed: int, out: Path, n_controls: int) -> list[Op]:
    model = out / "model.csv"

    def check_model() -> None:
        m = _read(model, fileio.read_error_model)
        _require(math.isfinite(m.mean) and math.isfinite(m.sd), f"model {m}")
        _require(m.n_controls == n_controls, f"model fitted on {m.n_controls} controls")

    ops = [
        _cli_op(
            "fit_null_s",
            ["fit-null", str(paths["estimates"]), "--grid-file", str(paths["grid"]),
             "--out", str(model)],
            [model],
            check_model,
        )
    ]
    for design in ("poisson", "binomial"):
        schedule = _read(paths[f"schedule-{design}"], fileio.read_schedule)
        for calibrated in (False, True):
            cv_out = out / f"cv-{design}-{'cal' if calibrated else 'uncal'}.csv"
            argv = ["compute-cv", str(paths[f"schedule-{design}"]), "--seed", str(seed),
                    "--out", str(cv_out)]
            if calibrated:
                argv += ["--error-model", str(model)]

            def check_cv(cv_out=cv_out, alpha=schedule.alpha) -> None:
                r = _read(cv_out, fileio.read_cv_record)
                _require(_finite(r.cv) and r.cv > 0, f"cv {r.cv}")
                _require(0.0 <= r.attained_alpha <= alpha, f"attained alpha {r.attained_alpha}")

            ops.append(_cli_op(cv_out.stem.replace("cv-", "cv_s."), argv, [cv_out], check_cv))
    return ops
