"""Spans and work counts recorded around calls into seqcalib's layers.

Wrappers are installed from outside the package by rebinding each name where
its caller looks it up: `surveillance.fit_error_model` (the per-look fit) and
`errormodel.fit_error_model` (the leave-one-out refits) are separate
bindings, and both are wrapped. A span is (name, start, end, parent) and is
kept in memory until the run writes it out; a span's self time is its
duration minus that of its child spans. Count-only hooks (optimizer
evaluations, mle_and_se calls) record no span, so they add no children.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from seqcalib import cli, errormodel, fileio, likelihood, simharness, surveillance

_FILEIO_FUNCTIONS = [n for n in fileio.__all__ if n.startswith(("read_", "write_"))]


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.alpha_slack: list[float] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._paused = False

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> list:
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def region(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    @contextmanager
    def paused(self):
        """Installed wrappers pass calls straight through inside the block."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _span(self, name, fn, after):
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            state = args[0].tell() if name.startswith("fileio.write") else None
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if after:
                after(args, result, state)
            return result

        return wrapper

    def _counted(self, fn, after):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not self._paused:
                after(result)
            return result

        return wrapper

    # --------------------------------------------------------------- hooks

    def _after_fit(self, args, model, state) -> None:
        self.counts["errormodel.fit_error_model.nonconverged"] += not model.converged
        self.counts["errormodel.fit_error_model.excluded"] += model.n_excluded

    def _after_loo(self, args, models, state) -> None:
        self.counts["errormodel.leave_one_out_models.fits"] += len(models)
        self.counts["errormodel.leave_one_out_models.failed"] += sum(m is None for m in models)

    def _after_cv(self, args, result, state) -> None:
        schedule, mc = args[0], args[-1]
        self.counts["maxsprt.replicate_looks"] += mc.replicates * schedule.n_looks
        self.alpha_slack.append(schedule.alpha - result.attained_alpha)

    def _after_surveillance(self, args, result, state) -> None:
        records = [r for o in result.outcomes.values() for r in o.looks]
        self.counts["surveillance.outcome_looks"] += len(records)
        self.counts["surveillance.cal_cv.lookups"] += sum(
            r.cv_calibrated is not None for r in records
        )
        self.counts["surveillance.fallback_looks"] += len(result.fallback_looks)

    def _after_cli(self, args, code, state) -> None:
        self.counts["cli.main.nonzero_exits"] += code != 0

    def _after_read(self, args, result, state) -> None:
        self.counts["fileio.read.bytes"] += os.fstat(args[0].fileno()).st_size

    def _after_write(self, args, result, start_position) -> None:
        self.counts["fileio.write.bytes"] += args[0].tell() - start_position

    def _after_minimize(self, result) -> None:
        self.counts["errormodel.fit_error_model.objective_evals"] += int(result.nfev)

    def _after_mle_and_se(self, result) -> None:
        self.counts["likelihood.mle_and_se.calls"] += 1

    # -------------------------------------------------------- installation

    def _bindings(self):
        fit = ("errormodel.fit_error_model", errormodel.fit_error_model, self._after_fit)
        cv = ("maxsprt.compute_cv", surveillance.compute_cv, self._after_cv)
        cal = ("maxsprt.compute_calibrated_cv", surveillance.compute_calibrated_cv, self._after_cv)
        surv = ("surveillance.run_surveillance", surveillance.run_surveillance,
                self._after_surveillance)
        profile = ("likelihood.profile_from_counts", likelihood.profile_from_counts, None)
        spans = [
            (errormodel, "fit_error_model", *fit),
            (surveillance, "fit_error_model", *fit),
            (cli, "fit_error_model", *fit),
            (surveillance, "leave_one_out_models", "errormodel.leave_one_out_models",
             errormodel.leave_one_out_models, self._after_loo),
            (surveillance, "compute_cv", *cv),
            (cli, "compute_cv", *cv),
            (surveillance, "compute_calibrated_cv", *cal),
            (cli, "compute_calibrated_cv", *cal),
            (simharness, "run_surveillance", *surv),
            (cli, "run_surveillance", *surv),
            (surveillance, "profile_from_counts", *profile),
            (likelihood, "profile_from_counts", *profile),
            (surveillance, "calibrated_p", "calibration.calibrated_p",
             surveillance.calibrated_p, None),
            (surveillance, "uncalibrated_p", "calibration.uncalibrated_p",
             surveillance.uncalibrated_p, None),
            (simharness, "generate_outcome_data", "simharness.generate_outcome_data",
             simharness.generate_outcome_data, None),
            (simharness, "run_scenario", "simharness.run_scenario", simharness.run_scenario, None),
            (cli, "main", "cli.main", cli.main, self._after_cli),
        ]
        for name in _FILEIO_FUNCTIONS:
            kind = name.split("_", 1)[0]
            after = self._after_read if kind == "read" else self._after_write
            spans.append((fileio, name, f"fileio.{kind}.{name}", getattr(fileio, name), after))
        counted = [(errormodel, "minimize", errormodel.minimize, self._after_minimize)]
        counted += [(module, "mle_and_se", likelihood.mle_and_se, self._after_mle_and_se)
                    for module in (errormodel, surveillance, likelihood)]
        return spans, counted

    @contextmanager
    def installed(self):
        """Wrap every traced binding for the duration of the block."""
        spans, counted = self._bindings()
        try:
            for module, attr, name, fn, after in spans:
                self._install(module, attr, self._span(name, fn, after))
            for module, attr, fn, after in counted:
                self._install(module, attr, self._counted(fn, after))
            yield self
        finally:
            while self._installed:
                module, attr, original = self._installed.pop()
                setattr(module, attr, original)

    def _install(self, module, attr, wrapper) -> None:
        self._installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    # ------------------------------------------------------------- results

    def summarize(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, each as (value, unit); zero where a layer was not reached."""
        s = self.summarize()
        c = self.counts

        def span(name):
            return s.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

        def total(prefix, field):
            start = 0 if field == "calls" else 0.0
            return sum((v[field] for k, v in s.items() if k.startswith(prefix)), start)

        # cv computations made inside run_surveillance, against its per-outcome lookups
        computed = sum(
            1
            for name, _, _, parent in self.spans
            if name == "maxsprt.compute_calibrated_cv"
            and parent >= 0
            and self.spans[parent][0] == "surveillance.run_surveillance"
        )
        lookups = c["surveillance.cal_cv.lookups"]
        fit, loo = span("errormodel.fit_error_model"), span("errormodel.leave_one_out_models")
        cv, cal = span("maxsprt.compute_cv"), span("maxsprt.compute_calibrated_cv")
        surv, prof = span("surveillance.run_surveillance"), span("likelihood.profile_from_counts")
        gen, cli_main = span("simharness.generate_outcome_data"), span("cli.main")
        return {
            "errormodel.fit_error_model.calls": (fit["calls"], "count"),
            "errormodel.fit_error_model.s": (fit["s"], "s"),
            "errormodel.fit_error_model.objective_evals": (
                c["errormodel.fit_error_model.objective_evals"], "count"),
            "errormodel.fit_error_model.nonconverged": (
                c["errormodel.fit_error_model.nonconverged"], "count"),
            "errormodel.fit_error_model.excluded": (c["errormodel.fit_error_model.excluded"], "count"),
            "errormodel.leave_one_out_models.calls": (loo["calls"], "count"),
            "errormodel.leave_one_out_models.s": (loo["s"], "s"),
            "errormodel.leave_one_out_models.fits": (
                c["errormodel.leave_one_out_models.fits"], "count"),
            "errormodel.leave_one_out_models.failed": (
                c["errormodel.leave_one_out_models.failed"], "count"),
            "maxsprt.compute_cv.calls": (cv["calls"], "count"),
            "maxsprt.compute_cv.s": (cv["s"], "s"),
            "maxsprt.compute_calibrated_cv.calls": (cal["calls"], "count"),
            "maxsprt.compute_calibrated_cv.s": (cal["s"], "s"),
            "maxsprt.replicate_looks": (c["maxsprt.replicate_looks"], "count"),
            "maxsprt.alpha_slack": (
                statistics.median(self.alpha_slack) if self.alpha_slack else 0.0, "prob"),
            "surveillance.run_surveillance.calls": (surv["calls"], "count"),
            "surveillance.run_surveillance.s": (surv["s"], "s"),
            "surveillance.run_surveillance.self_s": (surv["self_s"], "s"),
            "surveillance.outcome_looks": (c["surveillance.outcome_looks"], "count"),
            "surveillance.cal_cv.miss_ratio": (computed / lookups if lookups else 0.0, "ratio"),
            "surveillance.fallback_looks": (c["surveillance.fallback_looks"], "count"),
            "likelihood.profile_from_counts.calls": (prof["calls"], "count"),
            "likelihood.profile_from_counts.s": (prof["s"], "s"),
            "likelihood.mle_and_se.calls": (c["likelihood.mle_and_se.calls"], "count"),
            "calibration.calls": (total("calibration.", "calls"), "count"),
            "calibration.s": (total("calibration.", "s"), "s"),
            "simharness.generate_outcome_data.calls": (gen["calls"], "count"),
            "simharness.generate_outcome_data.s": (gen["s"], "s"),
            "simharness.run_scenario.self_s": (span("simharness.run_scenario")["self_s"], "s"),
            "fileio.read.s": (total("fileio.read.", "s"), "s"),
            "fileio.read.bytes": (c["fileio.read.bytes"], "B"),
            "fileio.write.s": (total("fileio.write.", "s"), "s"),
            "fileio.write.bytes": (c["fileio.write.bytes"], "B"),
            "cli.main.calls": (cli_main["calls"], "count"),
            "cli.main.self_s": (cli_main["self_s"], "s"),
            "cli.main.nonzero_exits": (c["cli.main.nonzero_exits"], "count"),
        }

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end (seconds), parent index."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
