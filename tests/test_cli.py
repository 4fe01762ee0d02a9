import io
import math

import numpy as np
import pytest

from seqcalib import fileio
from seqcalib.cli import main
from seqcalib.likelihood import NormalApprox
from seqcalib.maxsprt import LookSchedule

from test_errormodel import grid_search_oracle, synthetic_controls


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

    def test_fit_failure_exits_3(self, tmp_path):
        estimates = tmp_path / "est.csv"
        write_estimates_file(estimates, [NormalApprox(0.0, 0.1, "only")])
        assert main(["fit-null", str(estimates)]) == 3

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["fit-null", str(tmp_path / "absent.csv")]) == 2


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
        assert "ghost" in capsys.readouterr().err

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
                {"outcome_id": "a", "look": 1, "cumulative_observed": 5, "cumulative_total": 10},
                {"outcome_id": "a", "look": 2, "cumulative_observed": 8, "cumulative_total": 11},
            ],
        )
        ctrl = tmp_path / "controls.csv"
        write_controls_file(ctrl, ["a"])
        assert main(["run", str(schedule), str(looks), str(ctrl), "--modes", "uncal_p"]) == 2
        assert "decreased" in capsys.readouterr().err

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


class TestSimulate:
    def test_list_prints_twelve_names(self, capsys):
        assert main(["simulate", "--list"]) == 0
        names = capsys.readouterr().out.strip().splitlines()
        assert len(names) == 12
        assert "sccs-small-mu0.2-sigma0.2" in names

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["simulate", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

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
        args = ["simulate", "--repeats", "1"]
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        assert main(args + ["--workers", "1", "--out", str(serial)]) == 0
        assert main(args + ["--workers", "4", "--out", str(parallel)]) == 0
        assert parallel.read_text() == serial.read_text()
        reports = read_output(parallel, fileio.read_simulation_rows)
        assert len(reports) == 12
