"""seqcalib benchmark: three closed-loop workloads, timed end to end and per layer.

    python3 bench/bench.py --workload {simulate-desk,run-loo,analyst-cli,all} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. With --trace 0 the workload's passes repeat
until S seconds have passed and the end-to-end metrics are reported as
medians over passes. With --trace 1 the benchmark runs one untraced pass and
one traced pass on the same inputs, requires their outputs to be
byte-identical, and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Spans, the
reproducibility record and the last pass's outputs are written under
.bench_out/; the fixtures are removed when the run ends.
"""

from __future__ import annotations

import os

# one thread per process for every BLAS/OpenMP runtime, before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("simulate-desk", "run-loo", "analyst-cli")
SETUP_REPEATS = 3

# gated end-to-end metrics, reported by every workload
E2E_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


# ----------------------------------------------------------------- record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def reproducibility_record(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


# ---------------------------------------------------------- oracle checks


def oracle_checks(seed: int) -> tuple[int, list[str]]:
    """Acceptance criteria 1, 2 and 4, with Monte Carlo streams from the workload seed."""
    import math

    from seqcalib import ErrorModel, LookSchedule, MonteCarloConfig, likelihood, maxsprt

    failures = []
    mc = MonteCarloConfig(1_000_000, base_seed=seed)

    poisson = maxsprt.compute_cv(LookSchedule((4.0,), alpha=0.05), mc)
    if poisson.cv != likelihood.poisson_llr(8, 4.0):
        failures.append(f"criterion 1: Poisson cv {poisson.cv!r} != LLR(8; 4)")

    n, p = 20, 0.5
    schedule = LookSchedule((float(n),), alpha=0.05, model="binomial", exposure_proportion=p)
    binomial = maxsprt.compute_cv(schedule, mc)
    pmf = [math.comb(n, o) * p**o * (1 - p) ** (n - o) for o in range(n + 1)]
    llr = [likelihood.binomial_llr(o, n, p) for o in range(n + 1)]
    oracle = min(v for v in set(llr) if sum(q for q, x in zip(pmf, llr) if x > v) <= 0.05)
    if binomial.cv != oracle:
        failures.append(f"criterion 2: binomial cv {binomial.cv!r} != enumeration {oracle!r}")

    small = MonteCarloConfig(100_000, base_seed=seed)
    for kwargs in ({"model": "poisson"}, {"model": "binomial", "exposure_proportion": 0.3}):
        schedule = LookSchedule((6.0,) * 4, alpha=0.05, **kwargs)
        plain = maxsprt.compute_cv(schedule, small)
        calibrated = maxsprt.compute_calibrated_cv(schedule, ErrorModel(0.0, 0.0), small)
        if (plain.cv, plain.attained_alpha) != (calibrated.cv, calibrated.attained_alpha):
            failures.append(f"criterion 4 ({kwargs['model']}): {calibrated} != {plain}")
    return 4, failures


# ------------------------------------------------------------------ set-up


def timed_setups(workload: str, seed: int, directory: Path) -> tuple[list[float], list[str]]:
    """Build the fixtures SETUP_REPEATS times, each in a fresh interpreter.

    Every set-up must succeed and write byte-identical files.
    """
    times, failures, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(directory, ignore_errors=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "fixtures.py"), workload, str(seed), str(directory)],
            capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            failures.append(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        h = hashlib.sha256()
        for path in sorted(directory.glob("*")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        digests.add(h.hexdigest())
    if len(digests) > 1:
        failures.append("set-ups from one seed wrote different fixture files")
    return times, failures


# ------------------------------------------------------------------ passes


def make_ops(workload: str, fixture, seed: int, out: Path):
    import fixtures
    import workloads

    out.mkdir(parents=True, exist_ok=True)
    if workload == "simulate-desk":
        return workloads.desk_ops(fixture)
    if workload == "run-loo":
        n_outcomes = sum(count for _, count in fixtures.RUN_LOO_EFFECTS)
        return workloads.run_loo_ops(fixture, seed, out, n_outcomes, fixtures.RUN_LOO_LOOKS)
    return workloads.analyst_ops(fixture, seed, out, fixtures.ANALYST_CONTROLS)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(args, run_dir: Path):
    """--trace 0: timed set-ups, then passes until the time is up."""
    import fixtures
    import workloads

    fixture_dir = run_dir / "fixtures"
    setup_times, failures = timed_setups(args.workload, args.seed, fixture_dir)
    attempted = SETUP_REPEATS
    fixture = fixtures.load(args.workload, args.seed, fixture_dir)
    ops = make_ops(args.workload, fixture, args.seed, run_dir / "out")

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        result = workloads.run_pass(ops)
        passes.append(result)
        attempted += result.attempted
        failures += result.failures
        if len(passes) > 1:
            attempted += 1
            if result.outputs != passes[0].outputs:
                failures.append(f"pass {len(passes)} outputs differ from pass 1")

    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(p.total_s for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {"pass_cpu_s": (statistics.median(p.total_cpu_s for p in passes), len(passes))}
    for name in dict.fromkeys(name for p in passes for name in p.seconds):
        values = [p.seconds[name] for p in passes if name in p.seconds]
        detail[name] = (statistics.median(values), len(values))
    return metrics, detail, attempted, failures, len(passes)


# ----------------------------------------------------------------- tracing


def placement(tracer, workload: str) -> tuple[dict, list[str]]:
    """Where the traced pass spent its time, checked against where it is expected.

    Components are span names by self time, except that everything below a
    leave_one_out_models span counts toward it. Module shares are self time
    per top-level package module over the traced pass.
    """
    spans = tracer.spans
    child = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    root = [-1] * len(spans)
    loo = [False] * len(spans)
    modules, components = Counter(), Counter()
    per_op = defaultdict(Counter)
    total = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            if not name.startswith("op."):
                continue  # set-up
            root[i] = i
            total += end - start
        else:
            root[i] = root[parent]
            loo[i] = loo[parent] or spans[parent][0] == "errormodel.leave_one_out_models"
        if root[i] < 0:
            continue
        own = end - start - child[i]
        module = "bench" if name.startswith("op.") else name.split(".")[0]
        modules[module] += own
        per_op[root[i]][module] += own
        key = "errormodel.leave_one_out_models" if loo[i] else name
        components["bench" if name.startswith("op.") else key] += own

    shares = {m: t / total for m, t in modules.most_common()}
    lines = [f"share {workload} module={m} {s:.3f}" for m, s in shares.items()]
    lines += [f"share {workload} component={c} {t / total:.3f}"
              for c, t in components.most_common(6)]
    if workload == "simulate-desk":
        top = modules.most_common(1)[0][0]
        lines.append(f"placement {workload}: largest self-time module is {top} "
                     f"(expected errormodel): {'PASS' if top == 'errormodel' else 'FAIL'}")
    elif workload == "run-loo":
        top2 = {c for c, _ in components.most_common(2)}
        want = {"errormodel.leave_one_out_models", "maxsprt.compute_calibrated_cv"}
        lines.append(f"placement {workload}: two largest components {sorted(top2)} "
                     f"(expected leave-one-out and calibrated cvs): "
                     f"{'PASS' if top2 == want else 'FAIL'}")
    else:
        for i, mods in per_op.items():
            name, start, end, _ = spans[i]
            if name.startswith("op.cv_s."):
                share = mods["maxsprt"] / (end - start)
                lines.append(f"placement {workload}: maxsprt share of {name[3:]} {share:.3f} "
                             f"(expected >= 0.9): {'PASS' if share >= 0.9 else 'FAIL'}")
    return shares, lines


def run_traced(args, run_dir: Path):
    """--trace 1: traced set-up, an untraced and a traced pass, per-layer metrics."""
    import fixtures
    import tracing
    import workloads

    tracer = tracing.Tracer()
    with tracer.installed(), tracer.region("bench.setup"):
        fixture = fixtures.build(args.workload, args.seed, run_dir / "fixtures")
    ops = make_ops(args.workload, fixture, args.seed, run_dir / "out")
    plain = workloads.run_pass(ops)
    with tracer.installed():
        traced = workloads.run_pass(ops, tracer)
    attempted = plain.attempted + traced.attempted + 1
    failures = plain.failures + traced.failures
    if traced.outputs != plain.outputs:
        failures.append("traced pass outputs differ from the untraced pass")
    tracer.write(run_dir / "spans.jsonl")

    metrics = tracer.layer_metrics()
    overhead = (traced.total_s - plain.total_s) / plain.total_s * 100.0
    metrics["trace.overhead"] = (overhead, "%")
    shares, lines = placement(tracer, args.workload)
    lines.insert(0, f"trace {args.workload} untraced_pass_s={plain.total_s!r} "
                    f"traced_pass_s={traced.total_s!r} overhead_pct={overhead:.2f} "
                    f"spans={len(tracer.spans)}")
    if args.workload == "simulate-desk":
        lines += derived_lines(plain.total_s, shares.get("maxsprt"))
    return metrics, lines, attempted, failures


def derived_lines(desk_pass_s: float, maxsprt_share: float | None) -> list[str]:
    """The ROADMAP's projected sweeps, derived from one measured desk repeat.

    The desk sweep is DESK_REPEATS repeats at DESK_REPLICATES; the full-scale
    sweep is FULL_REPEATS repeats whose critical values cost
    FULL_REPLICATES / DESK_REPLICATES times as much (Monte Carlo is linear
    in replicates), with the maxsprt share taken from the traced pass.
    """
    from seqcalib import simharness as sh

    lines = [f"derived simulate-desk desk_sweep_projected_s {sh.DESK_REPEATS * desk_pass_s:.1f} s"]
    if maxsprt_share is not None:
        scale = sh.FULL_REPLICATES / sh.DESK_REPLICATES
        per_repeat = desk_pass_s * ((1.0 - maxsprt_share) + maxsprt_share * scale)
        lines.append(f"derived simulate-desk full_sweep_projected_h "
                     f"{sh.FULL_REPEATS * per_repeat / 3600.0:.1f} h")
    return lines


# -------------------------------------------------------------------- main


def run_all(args) -> int:
    """Every workload in its own interpreter; the last line sums their results."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "seqcalib" / "__init__.py").is_file():
        print(f"error: no seqcalib sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    warnings.filterwarnings("ignore", message=".*replicates may place the critical value")

    run_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    record = reproducibility_record(args)
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print("record " + json.dumps(record), flush=True)

    attempted, failures = oracle_checks(args.seed)
    if args.trace:
        layer, lines, n, more = run_traced(args, run_dir)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        print("\n".join(lines))
    else:
        e2e, detail, n, more, n_passes = run_timed(args, run_dir)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
        for name, (value, count) in detail.items():
            print(f"e2e {args.workload} {name} {value!r} s (median of {count})")
        for name, value in e2e.items():
            print(f"e2e {args.workload} {name} {value!r} {E2E_UNITS[name]}"
                  + (f" (median of {n_passes} passes)" if name == "pass_s" else ""))
        if args.workload == "simulate-desk":
            print("\n".join(derived_lines(e2e["pass_s"], None)))
    shutil.rmtree(run_dir / "fixtures", ignore_errors=True)
    attempted += n
    failures += more
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"e2e {args.workload} failed_ratio {len(failures) / attempted!r} ratio "
          f"({len(failures)} of {attempted})")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
