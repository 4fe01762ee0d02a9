import concurrent.futures
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqcalib
from seqcalib import cli, fileio
from seqcalib.cli import main
from seqcalib.likelihood import GridProfile, NormalApprox, PoissonCounts, profile_from_counts
from seqcalib.maxsprt import LookSchedule
from seqcalib.simharness import DESK_REPEATS, ErrorRateReport, ErrorRateRow

from test_errormodel import grid_search_oracle, synthetic_controls
from test_imports import run_fresh


def write_estimates_file(path, profiles):
    with open(path, "w") as f:
        fileio.write_estimates(f, profiles)


def write_schedule_file(path, schedule):
    with open(path, "w") as f:
        fileio.write_schedule(f, schedule)


def write_looks_file(path, rows):
    with open(path, "w") as f:
        fileio.write_looks(f, rows)


def write_controls_file(path, ids):
    with open(path, "w") as f:
        f.write("# seqcalib controls v1\noutcome_id\n")
        f.writelines(f"{i}\n" for i in ids)


def read_output(path, reader):
    with open(path) as f:
        return reader(f)


class TestFitNull:
    def test_tight_null_controls(self, tmp_path):
        estimates = tmp_path / "est.csv"
        out = tmp_path / "model.csv"
        write_estimates_file(estimates, [NormalApprox(0.0, 0.01, f"nc{i}") for i in range(50)])
        assert main(["fit-null", str(estimates), "--out", str(out)]) == 0
        model = read_output(out, fileio.read_error_model)
        assert abs(model.mean) <= 0.005
        assert model.sd <= 0.01
        assert model.n_controls == 50

    def test_symmetric_pair_zero_mean(self, tmp_path):
        estimates = tmp_path / "est.csv"
        out = tmp_path / "model.csv"
        write_estimates_file(
            estimates, [NormalApprox(0.5, 0.1, "a"), NormalApprox(-0.5, 0.1, "b")]
        )
        assert main(["fit-null", str(estimates), "--out", str(out)]) == 0
        assert abs(read_output(out, fileio.read_error_model).mean) <= 5e-3

    def test_matches_grid_search_oracle(self, tmp_path):
        betas, ses, profiles = synthetic_controls(100, 0.2, 0.2, seed=20260809)
        estimates = tmp_path / "est.csv"
        out = tmp_path / "model.csv"
        write_estimates_file(
            estimates, [NormalApprox(p.point_estimate, p.standard_error, f"nc{i}") for i, p in enumerate(profiles)]
        )
        assert main(["fit-null", str(estimates), "--out", str(out)]) == 0
        model = read_output(out, fileio.read_error_model)
        mu_g, sd_g = grid_search_oracle(
            betas, ses, np.arange(-1.0, 1.0 + 1e-9, 0.005), np.arange(0.0, 1.0 + 1e-9, 0.005)
        )
        assert abs(model.mean - mu_g) <= 0.01
        assert abs(model.sd - sd_g) <= 0.01

    def test_parse_error_exits_2_with_line(self, tmp_path, capsys):
        estimates = tmp_path / "est.csv"
        estimates.write_text("outcome_id,log_rr,se_log_rr\na,0.1,0.2\nb,broken,0.2\n")
        assert main(["fit-null", str(estimates)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_repeated_estimate_exits_2_with_line(self, tmp_path, capsys):
        estimates = tmp_path / "est.csv"
        estimates.write_text("outcome_id,log_rr,se_log_rr\na,0.1,0.2\nb,0.2,0.2\na,0.1,0.2\n")
        assert main(["fit-null", str(estimates)]) == 2
        assert "line 4: duplicate outcome a" in capsys.readouterr().err

    def test_outcome_in_estimates_and_grid_file_exits_2(self, tmp_path, capsys):
        estimates = tmp_path / "est.csv"
        write_estimates_file(estimates, [NormalApprox(0.1 * i, 0.2, f"nc{i}") for i in range(4)])
        grid = tmp_path / "grid.csv"
        grid.write_text(
            "outcome_id,log_rr_grid_point,log_likelihood\n"
            "g,-1,-1\ng,0,0\ng,1,-1\nnc2,-1,-1\nnc2,0,0\nnc2,1,-1\n"
        )
        assert main(["fit-null", str(estimates), "--grid-file", str(grid)]) == 2
        assert "['nc2']" in capsys.readouterr().err

    def test_grid_parse_error_exits_2_with_line(self, tmp_path, capsys):
        estimates = tmp_path / "est.csv"
        write_estimates_file(estimates, [NormalApprox(0.1 * i, 0.2, f"nc{i}") for i in range(4)])
        grid = tmp_path / "grid.csv"
        grid.write_text(
            "# seqcalib grid-profiles v1\noutcome_id,log_rr_grid_point,log_likelihood\n"
            "g,-1,-1\n# note\ng,0,0\ng,1,-1,0\n"
        )
        assert main(["fit-null", str(estimates), "--grid-file", str(grid)]) == 2
        assert "line 6: expected 3 fields, got 4" in capsys.readouterr().err

    def test_byte_order_mark_is_ignored(self, tmp_path):
        estimates = fileio.dumps(
            fileio.write_estimates, [NormalApprox(0.1 * i, 0.2, f"nc{i}") for i in range(4)]
        )
        grid = "# seqcalib grid-profiles v1\noutcome_id,log_rr_grid_point,log_likelihood\n" + "".join(
            f"g{k},{x},{-(x - 0.1 * k) ** 2}\n" for k in range(3) for x in (-1.0, 0.0, 1.0)
        )
        outputs = []
        for mark in ("", "\ufeff"):
            (tmp_path / "est.csv").write_text(mark + estimates, encoding="utf-8")
            (tmp_path / "grid.csv").write_text(mark + grid, encoding="utf-8")
            out = tmp_path / f"model{len(outputs)}.csv"
            assert main(["fit-null", str(tmp_path / "est.csv"), "--grid-file",
                         str(tmp_path / "grid.csv"), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_field_over_the_csv_size_limit_exits_2_with_line(self, tmp_path, capsys):
        estimates = tmp_path / "est.csv"
        estimates.write_text(f"outcome_id,log_rr,se_log_rr\na,0.1,0.2\n{'x' * 200_000},0.1,0.2\n")
        assert main(["fit-null", str(estimates)]) == 2
        assert "line 3: field larger than field limit" in capsys.readouterr().err

    def test_fit_failure_exits_3(self, tmp_path):
        estimates = tmp_path / "est.csv"
        write_estimates_file(estimates, [NormalApprox(0.0, 0.1, "only")])
        assert main(["fit-null", str(estimates)]) == 3

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["fit-null", str(tmp_path / "absent.csv")]) == 2


def fit_null_in_a_subprocess(cwd, grid_file, out, stdin=None):
    """`python -m seqcalib.cli fit-null estimates.csv` in a fresh interpreter; stdin is a pipe."""
    source = str(Path(seqcalib.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "seqcalib.cli", "fit-null", "estimates.csv", "--grid-file",
         grid_file, "--out", out],
        cwd=cwd, input=stdin, capture_output=True, timeout=300, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return (cwd / out).read_bytes()


def test_fit_null_reads_plain_decorated_and_piped_grid_files_alike(tmp_path):
    # numpy's C reader parses grid files: quotechar and an object field in its structured
    # dtype need numpy 1.23 or later, and it reads the rows of a pipe, which cannot seek
    profiles = [profile_from_counts(PoissonCounts(7 * k % 23 + 1, 8.0), outcome_id=f"nc{k}")
                for k in range(20)]
    # 5,000-point outcomes straddle the chunks of lines that the C reader parses at a time
    x = np.linspace(-4.0, 4.0, 5000)
    profiles += [GridProfile(x, k * x - 8.0 * np.exp(x), outcome_id=f"dense{k}")
                 for k in range(1, 6)]
    header = "# seqcalib grid-profiles v1\noutcome_id,log_rr_grid_point,log_likelihood\n"
    plain, decorated = [header], [header.replace("\n", "\r\n")]
    for p in profiles:
        decorated.append(f"\r\n  # outcome {p.outcome_id}\r\n   \r\n")
        for x, ll in zip(p.grid_points.tolist(), p.log_likelihoods.tolist()):
            plain.append(f"{p.outcome_id},{x!r},{ll!r}\n")
            decorated.append(f'"{p.outcome_id}",{x!r},{ll!r}\r\n')
    estimates = "# seqcalib estimates v1\noutcome_id,log_rr,se_log_rr\n"
    (tmp_path / "estimates.csv").write_text(estimates, encoding="utf-8")
    (tmp_path / "grid-plain.csv").write_text("".join(plain), encoding="utf-8")
    decorated = "".join(decorated).encode()
    (tmp_path / "grid-decorated.csv").write_bytes(decorated)
    model = fit_null_in_a_subprocess(tmp_path, "grid-plain.csv", "model-plain.csv")
    assert model.startswith(b"# seqcalib error-model v1\n")
    assert fit_null_in_a_subprocess(tmp_path, "grid-decorated.csv", "model-decorated.csv") == model
    assert fit_null_in_a_subprocess(tmp_path, "/dev/stdin", "model-piped.csv", decorated) == model


class TestComputeCv:
    def test_one_look_poisson_oracle(self, tmp_path):
        schedule = tmp_path / "sched.csv"
        out = tmp_path / "cv.csv"
        write_schedule_file(schedule, LookSchedule((4.0,), alpha=0.05))
        assert main(
            ["compute-cv", str(schedule), "--seed", "7", "--out", str(out)]
        ) == 0
        record = read_output(out, fileio.read_cv_record)
        assert record.cv == pytest.approx(1.545177, abs=1e-6)

    def test_alpha_one_gives_zero(self, tmp_path):
        schedule = tmp_path / "sched.csv"
        out = tmp_path / "cv.csv"
        write_schedule_file(schedule, LookSchedule((4.0,), alpha=1.0))
        assert main(["compute-cv", str(schedule), "--out", str(out)]) == 0
        assert read_output(out, fileio.read_cv_record).cv == 0.0

    def test_null_error_model_identical_to_omitting(self, tmp_path):
        schedule = tmp_path / "sched.csv"
        write_schedule_file(schedule, LookSchedule((4.0, 4.0), alpha=0.05))
        model_file = tmp_path / "model.csv"
        with open(model_file, "w") as f:
            from seqcalib.errormodel import ErrorModel

            fileio.write_error_model(f, ErrorModel(0.0, 0.0))
        plain_out = tmp_path / "plain.csv"
        cal_out = tmp_path / "cal.csv"
        base = ["compute-cv", str(schedule), "--seed", "3"]
        assert main(base + ["--out", str(plain_out)]) == 0
        assert main(base + ["--error-model", str(model_file), "--out", str(cal_out)]) == 0
        assert plain_out.read_text() == cal_out.read_text()

    def test_unsupported_count_range_exits_3(self, tmp_path, capsys):
        schedule = tmp_path / "sched.csv"
        write_schedule_file(schedule, LookSchedule((200_000.0,) * 10, alpha=0.05))
        assert main(["compute-cv", str(schedule)]) == 3
        assert "beyond the supported" in capsys.readouterr().err

    def test_provenance_echoed(self, tmp_path, capsys):
        schedule = tmp_path / "sched.csv"
        write_schedule_file(schedule, LookSchedule((4.0,), alpha=0.05))
        assert main(["compute-cv", str(schedule), "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "seed=9" in out


# informative at both looks of a binomial schedule at 0.5, so that a run fits at look 1
TWO_BINOMIAL_CONTROLS = [
    {"outcome_id": f"nc-{i}", "look": t, "cumulative_observed": 4 * t + i, "cumulative_total": 10 * t}
    for i in range(2)
    for t in (1, 2)
]


class TestRun:
    def _write_inputs(self, tmp_path, series, e=5.0, controls=None):
        n_looks = len(next(iter(series.values())))
        schedule = tmp_path / "sched.csv"
        looks = tmp_path / "looks.csv"
        ctrl = tmp_path / "controls.csv"
        write_schedule_file(schedule, LookSchedule((e,) * n_looks, alpha=0.05))
        rows = [
            {"outcome_id": oid, "look": t + 1, "cumulative_observed": int(v), "cumulative_total": None}
            for oid, values in series.items()
            for t, v in enumerate(values)
        ]
        write_looks_file(looks, rows)
        if controls is None:
            controls = [k for k in series if k.startswith("nc")]
        write_controls_file(ctrl, controls)
        return schedule, looks, ctrl

    def _null_series(self, n_controls, n_looks, seed, e=5.0):
        rng = np.random.default_rng(seed)
        return {
            f"nc-{i:02d}": list(np.cumsum(rng.poisson(e, n_looks))) for i in range(n_controls)
        }

    def test_data_at_expectation_never_signals(self, tmp_path):
        series = {"a": [5, 10, 15], **self._null_series(5, 3, seed=1)}
        schedule, looks, ctrl = self._write_inputs(tmp_path, series)
        out = tmp_path / "results.csv"
        summary = tmp_path / "summary.csv"
        code = main(
            [
                "run",
                str(schedule),
                str(looks),
                str(ctrl),
                "--out",
                str(out),
                "--summary",
                str(summary),
            ]
        )
        assert code == 0
        rows = read_output(out, fileio.read_results_table)
        a_rows = [r for r in rows if r["outcome_id"] == "a"]
        assert a_rows and all(not r["signal_uncal_p"] for r in a_rows)
        assert all(r["llr"] == 0.0 for r in a_rows)

    def test_truncated_looks_give_prefix_identical_output(self, tmp_path):
        series = {"a": [7, 12, 19], **self._null_series(5, 3, seed=2)}
        schedule, looks, ctrl = self._write_inputs(tmp_path, series)
        full_out = tmp_path / "full.csv"
        assert main(
            ["run", str(schedule), str(looks), str(ctrl), "--out", str(full_out), "--summary", str(tmp_path / "s1.csv")]
        ) == 0

        truncated = {k: v[:2] for k, v in series.items()}
        t_dir = tmp_path / "trunc"
        t_dir.mkdir()
        schedule2, looks2, ctrl2 = self._write_inputs(t_dir, truncated)
        # same 3-look schedule: only the looks stream is truncated
        write_schedule_file(schedule2, LookSchedule((5.0,) * 3, alpha=0.05))
        trunc_out = tmp_path / "trunc.csv"
        assert main(
            ["run", str(schedule2), str(looks2), str(ctrl2), "--out", str(trunc_out), "--summary", str(tmp_path / "s2.csv")]
        ) == 0

        full_rows = read_output(full_out, fileio.read_results_table)
        trunc_rows = read_output(trunc_out, fileio.read_results_table)
        full_prefix = [r for r in full_rows if r["look"] <= 2]
        assert trunc_rows == full_prefix

    def test_biased_controls_calibration_beats_unadjusted(self, tmp_path):
        rng = np.random.default_rng(3)
        bias = math.exp(0.4)
        series = {
            f"nc-{i:02d}": list(np.cumsum(rng.poisson(5.0 * bias, 4))) for i in range(30)
        }
        schedule, looks, ctrl = self._write_inputs(
            tmp_path, {k: [int(x) for x in v] for k, v in series.items()}, e=5.0
        )
        write_schedule_file(schedule, LookSchedule((5.0,) * 4, alpha=0.05))
        summary = tmp_path / "summary.csv"
        assert main(
            ["run", str(schedule), str(looks), str(ctrl), "--out", str(tmp_path / "r.csv"), "--summary", str(summary)]
        ) == 0
        fractions = read_output(summary, fileio.read_type1_summary)
        assert fractions["cal_maxsprt"] < fractions["uncal_p"]
        assert fractions["uncal_p"] > 0.5  # constant bias inflates the unadjusted arm

    def test_id_mismatch_exits_2(self, tmp_path, capsys):
        series = self._null_series(3, 2, seed=4)
        schedule, looks, ctrl = self._write_inputs(tmp_path, series, controls=["nc-00", "ghost"])
        assert main(["run", str(schedule), str(looks), str(ctrl)]) == 2
        assert capsys.readouterr().err == (
            "error: negative controls absent from looks file: ['ghost']\n"
        )

    def test_command_raises_and_prints_nothing(self, tmp_path, capsys):
        series = self._null_series(3, 2, seed=4)
        schedule, looks, ctrl = self._write_inputs(tmp_path, series, controls=["ghost"])
        args = cli.build_parser().parse_args(["run", str(schedule), str(looks), str(ctrl)])
        with pytest.raises(fileio.FileFormatError, match="absent from looks file"):
            args.func(args)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([("a", 1, 5), ("a", 3, 9)], "look 3 outside the 2-look schedule"),
            ([("a", 1, 5), ("a", 1, 6)], "duplicate row for outcome a at look 1"),
            ([("a", 2, 5)], "looks must be numbered 1..T without gaps"),
        ],
        ids=["look-outside-schedule", "duplicate-row", "gap"],
    )
    def test_malformed_looks_exit_2_with_message(self, tmp_path, capsys, rows, message):
        schedule, looks, ctrl = self._write_inputs(tmp_path, {"a": [5, 9]}, controls=["a"])
        write_looks_file(looks, [
            {"outcome_id": oid, "look": t, "cumulative_observed": v, "cumulative_total": None}
            for oid, t, v in rows
        ])
        assert main(["run", str(schedule), str(looks), str(ctrl)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_poisson_rejects_totals(self, tmp_path):
        series = self._null_series(3, 2, seed=4)
        schedule, looks, ctrl = self._write_inputs(tmp_path, series)
        rows = [
            {"outcome_id": oid, "look": t + 1, "cumulative_observed": int(v), "cumulative_total": 99}
            for oid, values in series.items()
            for t, v in enumerate(values)
        ]
        write_looks_file(looks, rows)
        assert main(["run", str(schedule), str(looks), str(ctrl)]) == 2

    def test_falling_unexposed_count_exits_2(self, tmp_path, capsys):
        schedule = tmp_path / "sched.csv"
        write_schedule_file(
            schedule,
            LookSchedule((10.0, 10.0), alpha=0.05, model="binomial", exposure_proportion=0.5),
        )
        looks = tmp_path / "looks.csv"
        write_looks_file(
            looks,
            [
                *TWO_BINOMIAL_CONTROLS,
                {"outcome_id": "a", "look": 1, "cumulative_observed": 5, "cumulative_total": 10},
                {"outcome_id": "a", "look": 2, "cumulative_observed": 8, "cumulative_total": 11},
            ],
        )
        ctrl = tmp_path / "controls.csv"
        write_controls_file(ctrl, ["nc-0", "nc-1"])
        assert main(["run", str(schedule), str(looks), str(ctrl)]) == 2
        assert "decreased" in capsys.readouterr().err

    def test_exposed_above_total_names_outcome_and_look(self, tmp_path, capsys):
        schedule = tmp_path / "sched.csv"
        write_schedule_file(
            schedule,
            LookSchedule((10.0, 10.0), alpha=0.05, model="binomial", exposure_proportion=0.5),
        )
        looks = tmp_path / "looks.csv"
        write_looks_file(
            looks,
            [
                *TWO_BINOMIAL_CONTROLS,
                {"outcome_id": "a", "look": 1, "cumulative_observed": 5, "cumulative_total": 10},
                {"outcome_id": "a", "look": 2, "cumulative_observed": 21, "cumulative_total": 20},
            ],
        )
        ctrl = tmp_path / "controls.csv"
        write_controls_file(ctrl, ["nc-0", "nc-1"])
        assert main(["run", str(schedule), str(looks), str(ctrl)]) == 2
        assert "outcome a look 2" in capsys.readouterr().err

    def test_binomial_requires_totals(self, tmp_path):
        schedule = tmp_path / "sched.csv"
        write_schedule_file(
            schedule, LookSchedule((4.0,), alpha=0.05, model="binomial", exposure_proportion=0.5)
        )
        looks = tmp_path / "looks.csv"
        write_looks_file(
            looks,
            [{"outcome_id": "a", "look": 1, "cumulative_observed": 2, "cumulative_total": None}],
        )
        ctrl = tmp_path / "controls.csv"
        write_controls_file(ctrl, ["a"])
        assert main(["run", str(schedule), str(looks), str(ctrl)]) == 2


REGRESSION_RESULTS = Path(__file__).parent / "data" / "run_regression_results.csv"


def write_regression_inputs(directory):
    """Schedule, looks and controls files of a binomial run: 8 negative controls and
    8 outcomes over 3 looks of 60 expected cases at exposure proportion 0.25. Each
    count is the rounded expectation under a control's bias (0.2 + 0.2 z, z evenly
    spread over [-1.5, 1.5]) or an outcome's relative risk (1, 1.5, 2 or 4), moved
    by a fixed offset of -1 to 2, so no random draw is involved."""
    p = 0.25
    shifts = [0.2 + 0.2 * z for z in np.linspace(-1.5, 1.5, 8)]
    shifts += [math.log(rr) for rr in (1.0, 1.5, 2.0, 4.0) * 2]
    rows = []
    for i, shift in enumerate(shifts):
        oid = f"nc-{i}" if i < 8 else f"o-{i - 8}"
        q = 1.0 / (1.0 + (1.0 - p) / p * math.exp(-shift))
        for t in (1, 2, 3):
            total = 60 * t + (i * t) % 5
            observed = int(np.rint(total * q)) + (5 * i + 3 * t) % 4 - 1
            rows.append({"outcome_id": oid, "look": t, "cumulative_observed": observed,
                         "cumulative_total": total})
    paths = [directory / name for name in ("sched.csv", "looks.csv", "controls.csv")]
    write_schedule_file(paths[0], LookSchedule((60.0,) * 3, alpha=0.05, model="binomial",
                                               exposure_proportion=p))
    write_looks_file(paths[1], rows)
    write_controls_file(paths[2], [f"nc-{i}" for i in range(8)])
    return paths


def first_signal_looks(rows):
    """Per (outcome, mode), the first look that signals, or None."""
    first = {}
    for r in sorted(rows, key=lambda r: (r["outcome_id"], r["look"])):
        for column in (c for c in r if c.startswith("signal_")):
            key = (r["outcome_id"], column)
            first.setdefault(key, None)
            if r[column] and first[key] is None:
                first[key] = r["look"]
    return first


def test_run_matches_its_committed_results(tmp_path):
    # the expected table is this fixture's results.csv as written before the exact
    # cvs' mixture weights and recursion were rewritten for speed
    out = tmp_path / "results.csv"
    argv = ["run", *map(str, write_regression_inputs(tmp_path)), "--out", str(out),
            "--summary", str(tmp_path / "type1.csv")]
    assert main(argv) == 0
    got = read_output(out, fileio.read_results_table)
    expected = read_output(REGRESSION_RESULTS, fileio.read_results_table)
    assert first_signal_looks(got) == first_signal_looks(expected)
    assert any(v is not None for v in first_signal_looks(expected).values())
    assert len(got) == len(expected) == 48
    numeric = ("beta_hat", "se", "llr", "p_uncalibrated", "p_calibrated", "cv", "cv_calibrated")
    for g, e in zip(got, expected):
        # numpy's log and exp may round differently on another CPU
        assert {k: v for k, v in g.items() if k not in numeric} == {
            k: v for k, v in e.items() if k not in numeric
        }
        for k in numeric:
            assert (g[k] is None) == (e[k] is None), (g["outcome_id"], g["look"], k)
            if e[k] is not None:
                assert abs(g[k] - e[k]) <= 1e-12 * abs(e[k]), (g["outcome_id"], g["look"], k)


class TestSimulate:
    def test_list_prints_twelve_names(self, capsys):
        assert main(["simulate", "--list"]) == 0
        names = capsys.readouterr().out.strip().splitlines()
        assert len(names) == 12
        assert "sccs-small-mu0.2-sigma0.2" in names

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["simulate", "--scenario", "nope"]) == 2
        assert capsys.readouterr().err == "error: unknown scenario 'nope'; try --list\n"

    def test_single_scenario_desk_mini(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(
            [
                "simulate",
                "--scenario",
                "sccs-small-mu0-sigma0",
                "--repeats",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        reports = read_output(out, fileio.read_simulation_rows)
        assert len(reports) == 1
        report = reports[0]
        modes = {r.mode for r in report.rows}
        assert modes == {"uncal_p", "uncal_maxsprt", "cal_p", "cal_maxsprt"}
        assert {r.repeat for r in report.rows} == {0, 1}

    def test_deterministic_output(self, tmp_path):
        args = [
            "simulate",
            "--scenario",
            "historical-small-mu0-sigma0",
            "--repeats",
            "1",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_parallel_workers_match_serial(self, tmp_path):
        args = ["simulate", "--repeats", "1", "--seed", "3"]
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        # one worker, in a fresh interpreter in which every scipy import raises ImportError
        code = ('import sys; sys.modules["scipy"] = None; from seqcalib.cli import main; '
                "sys.exit(main(sys.argv[1:]))")
        run_fresh(code, *args, "--workers", "1", "--out", str(serial))
        assert main(args + ["--workers", "2", "--out", str(parallel)]) == 0
        assert parallel.read_bytes() == serial.read_bytes()
        reports = read_output(parallel, fileio.read_simulation_rows)
        assert len(reports) == 12


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records its size and maps in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


class TestSimulateWorkers:
    @pytest.fixture
    def ran(self, monkeypatch):
        """Names of the scenarios run, each by a stub that returns one row."""
        names = []

        def stub(scenario):
            names.append(scenario.name)
            return ErrorRateReport(scenario.name, [ErrorRateRow(0, "uncal_p", 1.0, "type1", 0.0)])

        monkeypatch.setattr(cli, "run_scenario", stub)
        # cmd_simulate imports the pool class from concurrent.futures when it uses one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(RecordingExecutor, "sizes", [])
        return names

    @pytest.mark.parametrize("workers,size", [(500, 12), (12, 12), (3, 3)])
    def test_pool_is_no_larger_than_the_scenario_count(self, ran, tmp_path, workers, size):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--workers", str(workers), "--out", str(out)]) == 0
        assert RecordingExecutor.sizes == [size]
        reports = read_output(out, fileio.read_simulation_rows)
        assert [r.scenario for r in reports] == ran and len(ran) == 12

    def test_repeats_default_to_desk_scale(self, ran, monkeypatch, tmp_path):
        repeats = []
        stub = cli.run_scenario
        monkeypatch.setattr(cli, "run_scenario", lambda s: repeats.append(s.repeats) or stub(s))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--out", str(out)]) == 0
        assert repeats == [DESK_REPEATS] * 12 and DESK_REPEATS == 20
        assert out.read_text().splitlines()[1] == "# seed=42 repeats=20"

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_fewer_than_one_worker_exits_2(self, ran, capsys, workers):
        assert main(["simulate", "--workers", workers]) == 2
        assert "--workers must be at least 1" in capsys.readouterr().err
        assert RecordingExecutor.sizes == [] and ran == []


@pytest.mark.parametrize(
    "argv",
    [["run", "s.csv", "l.csv", "c.csv", "--no-leave-one-out"], ["simulate", "--full-scale"]],
    ids=["run-no-leave-one-out", "simulate-full-scale"],
)
def test_removed_options_are_unknown_arguments(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err
