"""Command-line interface.

Subcommands: fit-null (systematic-error distribution from negative-control
estimates), compute-cv (exact MaxSPRT critical values, optionally calibrated),
run (sequential surveillance over a looks file), simulate (operating-
characteristic scenarios). Exit codes: 0 success, 2 input error, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from pathlib import Path

from . import fileio
from .errormodel import FitError, InsufficientControlsError, fit_error_model
from .likelihood import BinomialCounts, CurvatureError, PoissonCounts
from .maxsprt import (
    NO_REPLICATES,
    CriticalValueError,
    LookSchedule,
    compute_calibrated_cv,
    compute_cv,
)
from .simharness import DESK_REPEATS, FULL_REPEATS, paper_scenarios, run_scenario
from .surveillance import ALL_MODES, LookObservation, ProtocolError, run_surveillance, type1_report

__all__ = ["main"]

_SEED_ECHOED = "echoed in the output provenance; exact critical values do not depend on it"


def _open_out(stack: ExitStack, path: str):
    if path == "-":
        return sys.stdout
    return stack.enter_context(open(path, "w", encoding="utf-8"))


def cmd_fit_null(args: argparse.Namespace) -> int:
    profiles: list = []
    with open(args.estimates, encoding="utf-8") as f:
        profiles.extend(fileio.read_estimates(f))
    if args.grid_file:
        with open(args.grid_file, encoding="utf-8") as f:
            profiles.extend(fileio.read_grid_profiles(f))
    model = fit_error_model(profiles)
    with ExitStack() as stack:
        out = _open_out(stack, args.out)
        fileio.write_error_model(out, model, provenance={"n_inputs": len(profiles)})
    return 0


def cmd_compute_cv(args: argparse.Namespace) -> int:
    with open(args.schedule, encoding="utf-8") as f:
        schedule = fileio.read_schedule(f)
    if args.error_model:
        with open(args.error_model, encoding="utf-8") as f:
            model = fileio.read_error_model(f)
        result = compute_calibrated_cv(schedule, model, NO_REPLICATES)
    else:
        result = compute_cv(schedule, NO_REPLICATES)
    with ExitStack() as stack:
        out = _open_out(stack, args.out)
        fileio.write_cv_record(out, result, provenance={"seed": args.seed})
    return 0


def _build_looks(schedule: LookSchedule, rows: list[dict]) -> list[LookObservation]:
    expected_cum = schedule.cumulative_expected()
    by_look: dict[int, dict] = {}
    for row in rows:
        t = row["look"]
        if t < 1 or t > schedule.n_looks:
            raise fileio.FileFormatError(
                f"look {t} outside the {schedule.n_looks}-look schedule"
            )
        counts = by_look.setdefault(t, {})
        oid = row["outcome_id"]
        if oid in counts:
            raise fileio.FileFormatError(f"duplicate row for outcome {oid} at look {t}")
        if schedule.model == "poisson":
            if row["cumulative_total"] is not None:
                raise fileio.FileFormatError(
                    f"outcome {oid} look {t}: cumulative_total does not apply to Poisson data"
                )
            counts[oid] = PoissonCounts(row["cumulative_observed"], float(expected_cum[t - 1]))
        else:
            if row["cumulative_total"] is None:
                raise fileio.FileFormatError(
                    f"outcome {oid} look {t}: binomial data needs cumulative_total"
                )
            counts[oid] = BinomialCounts(
                row["cumulative_observed"],
                row["cumulative_total"],
                schedule.exposure_proportion,
            )
    looks = [LookObservation(t, by_look[t]) for t in sorted(by_look)]
    if [obs.look_index for obs in looks] != list(range(1, len(looks) + 1)):
        raise fileio.FileFormatError("looks must be numbered 1..T without gaps")
    return looks


def cmd_run(args: argparse.Namespace) -> int:
    with open(args.schedule, encoding="utf-8") as f:
        schedule = fileio.read_schedule(f)
    with open(args.looks, encoding="utf-8") as f:
        look_rows = fileio.read_looks(f)
    with open(args.controls, encoding="utf-8") as f:
        control_ids = fileio.read_controls(f)

    look_ids = {row["outcome_id"] for row in look_rows}
    missing = sorted(set(control_ids) - look_ids)
    if missing:
        print(f"error: negative controls absent from looks file: {missing}", file=sys.stderr)
        return 2

    looks = _build_looks(schedule, look_rows)
    modes = tuple(args.modes.split(",")) if args.modes else ALL_MODES
    result = run_surveillance(
        schedule, looks, control_ids, modes, leave_one_out=not args.no_leave_one_out
    )
    provenance = {"seed": args.seed}
    with ExitStack() as stack:
        out = _open_out(stack, args.out)
        fileio.write_results_table(out, result, provenance=provenance)
    with ExitStack() as stack:
        out = _open_out(stack, args.summary)
        fileio.write_type1_summary(out, type1_report(result), provenance=provenance)
    return 0


def _scenario_task(payload) -> object:
    scenario, repeats = payload
    return run_scenario(scenario, repeats=repeats)


def cmd_simulate(args: argparse.Namespace) -> int:
    repeats = args.repeats if args.repeats is not None else (
        FULL_REPEATS if args.full_scale else DESK_REPEATS
    )
    scenarios = paper_scenarios(repeats=repeats, base_seed=args.seed)
    if args.list:
        for s in scenarios:
            print(s.name)
        return 0
    if args.scenario != "all":
        matches = [s for s in scenarios if s.name == args.scenario]
        if not matches:
            print(f"error: unknown scenario {args.scenario!r}; try --list", file=sys.stderr)
            return 2
        scenarios = matches

    tasks = [(s, repeats) for s in scenarios]
    if args.workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            reports = list(pool.map(_scenario_task, tasks))
    else:
        reports = [_scenario_task(t) for t in tasks]

    with ExitStack() as stack:
        out = _open_out(stack, args.out)
        fileio.write_simulation_rows(
            out,
            reports,
            provenance={"seed": args.seed, "repeats": repeats},
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcalib",
        description="Sequential safety surveillance with empirically calibrated MaxSPRT",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-null", help="fit the systematic-error distribution")
    p.add_argument("estimates", help="estimates file (outcome_id,log_rr,se_log_rr)")
    p.add_argument("--grid-file", help="optional grid-profile file")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.set_defaults(func=cmd_fit_null)

    p = sub.add_parser("compute-cv", help="exact MaxSPRT critical value for a schedule")
    p.add_argument("schedule", help="schedule file (model,t,e_t,p,alpha)")
    p.add_argument("--error-model", help="error-model record; calibrates the critical value")
    p.add_argument("--seed", type=int, default=42, help=_SEED_ECHOED)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_compute_cv)

    p = sub.add_parser("run", help="run sequential surveillance over a looks file")
    p.add_argument("schedule")
    p.add_argument("looks", help="looks file (outcome_id,look,cumulative_observed[,cumulative_total])")
    p.add_argument("controls", help="negative-control ids (outcome_id)")
    p.add_argument("--seed", type=int, default=42, help=_SEED_ECHOED)
    p.add_argument("--modes", help=f"comma-separated subset of {','.join(ALL_MODES)}")
    p.add_argument(
        "--no-leave-one-out",
        action="store_true",
        help="score negative controls with the full-fit error model",
    )
    p.add_argument("--out", default="-", help="per-look results table")
    p.add_argument("--summary", default="-", help="four-mode type-1 summary")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("simulate", help="operating-characteristic simulations")
    p.add_argument("--scenario", default="all", help="scenario name, or 'all'")
    p.add_argument("--list", action="store_true", help="list scenario names and exit")
    p.add_argument(
        "--full-scale",
        action="store_true",
        help=f"repeats={FULL_REPEATS} (default: desk scale, {DESK_REPEATS})",
    )
    p.add_argument("--repeats", type=int, help="override the repeat count")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--workers", type=int, default=1, help="max parallel scenario workers")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except fileio.FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FitError, InsufficientControlsError, CurvatureError, CriticalValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ProtocolError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
