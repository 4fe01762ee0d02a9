"""Benchmark inputs, generated from the workload seed with the simharness generators.

The program under test receives only what is built here: scenario objects
for simulate-desk, and input files for run-loo and analyst-cli. Run as a
script it builds one workload's inputs in a fresh interpreter, which is how
the benchmark times set-up (interpreter start, package import and fixture
generation together):

    python3 bench/fixtures.py <workload> <seed> <directory>
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from seqcalib import fileio, likelihood, simharness  # noqa: E402

# run-loo: SCCS-large design cut to 4 looks, 20 negative controls and 60
# outcomes at each positive rate ratio; biased controls, so every
# leave-one-out model differs and each needs its own calibrated cv
RUN_LOO_EFFECTS = ((1.0, 20), (1.5, 60), (2.0, 60), (4.0, 60))
RUN_LOO_LOOKS = 4
# analyst-cli: 200 null outcomes of the historical-large design; the first
# 100 become normal estimates, the rest 1000-point count-derived grids
ANALYST_CONTROLS = 200
ANALYST_ESTIMATES = 100
BIAS = (0.2, 0.2)


def desk_scenarios(seed: int) -> list[simharness.SimulationScenario]:
    """One desk repeat of the 12 paper scenarios, seeded by the workload seed."""
    return simharness.paper_scenarios(repeats=1, base_seed=seed)


def _outcome_specs(effects):
    specs = []
    for rr, count in effects:
        for k in range(count):
            specs.append((f"rr{rr:g}-{k:02d}", rr, len(specs)))
    return specs


def _write(path: Path, writer, *args) -> None:
    with open(path, "w", encoding="utf-8") as f:
        writer(f, *args)


def _write_controls(f, ids) -> None:
    f.write("# seqcalib controls v1\noutcome_id\n")
    f.writelines(f"{i}\n" for i in ids)


def _write_grids(f, profiles) -> None:
    f.write("# seqcalib grid-profiles v1\noutcome_id,log_rr_grid_point,log_likelihood\n")
    for p in profiles:
        for x, ll in zip(p.grid_points.tolist(), p.log_likelihoods.tolist()):
            f.write(f"{p.outcome_id},{x!r},{ll!r}\n")


def run_loo_paths(directory: Path) -> dict[str, Path]:
    return {k: directory / f"{k}.csv" for k in ("schedule", "looks", "controls")}


def analyst_paths(directory: Path) -> dict[str, Path]:
    names = ("estimates", "grid", "schedule-poisson", "schedule-binomial")
    return {k: directory / f"{k}.csv" for k in names}


def build_run_loo(seed: int, directory: Path) -> dict[str, Path]:
    scenario = simharness.SimulationScenario(
        name="run-loo",
        design="sccs",
        sample_size=1_000,
        effect_sizes=RUN_LOO_EFFECTS,
        error_mean=BIAS[0],
        error_sd=BIAS[1],
        looks=RUN_LOO_LOOKS,
        repeats=1,
        base_seed=seed,
    )
    rows = []
    controls = []
    for outcome_id, rr, index in _outcome_specs(scenario.effect_sizes):
        if rr == 1.0:
            controls.append(outcome_id)
        data = simharness.generate_outcome_data(scenario, rr, index, 0)
        for t, counts in enumerate(data, start=1):
            if counts is not None:
                rows.append(
                    {
                        "outcome_id": outcome_id,
                        "look": t,
                        "cumulative_observed": counts.exposed,
                        "cumulative_total": counts.total,
                    }
                )
    paths = run_loo_paths(directory)
    _write(paths["schedule"], fileio.write_schedule, simharness.scenario_schedule(scenario))
    _write(paths["looks"], fileio.write_looks, rows)
    _write(paths["controls"], _write_controls, controls)
    return paths


def build_analyst(seed: int, directory: Path) -> dict[str, Path]:
    controls = simharness.SimulationScenario(
        name="analyst-controls",
        design="historical",
        sample_size=1_000_000,
        effect_sizes=((1.0, ANALYST_CONTROLS),),
        error_mean=BIAS[0],
        error_sd=BIAS[1],
        repeats=1,
        base_seed=seed,
    )
    profiles = []
    for index in range(ANALYST_CONTROLS):
        final = simharness.generate_outcome_data(controls, 1.0, index, 0)[-1]
        profiles.append(likelihood.profile_from_counts(final, outcome_id=f"nc-{index:03d}"))
    estimates = []
    for p in profiles[:ANALYST_ESTIMATES]:
        beta, se = likelihood.mle_and_se(p)
        estimates.append(likelihood.NormalApprox(beta, se, p.outcome_id))
    by_name = {s.name: s for s in simharness.paper_scenarios(repeats=1, base_seed=seed)}
    paths = analyst_paths(directory)
    _write(paths["estimates"], fileio.write_estimates, estimates)
    _write(paths["grid"], _write_grids, profiles[ANALYST_ESTIMATES:])
    for key, name in (
        ("schedule-poisson", "historical-large-mu0-sigma0"),
        ("schedule-binomial", "sccs-large-mu0-sigma0"),
    ):
        _write(paths[key], fileio.write_schedule, simharness.scenario_schedule(by_name[name]))
    return paths


def build(workload: str, seed: int, directory: Path):
    """Generate and write one workload's inputs; returns what its passes consume."""
    if workload == "simulate-desk":
        return desk_scenarios(seed)
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "run-loo":
        return build_run_loo(seed, directory)
    if workload == "analyst-cli":
        return build_analyst(seed, directory)
    raise ValueError(f"unknown workload {workload!r}")


def load(workload: str, seed: int, directory: Path):
    """What build returns, without regenerating files already written by build."""
    if workload == "simulate-desk":
        return desk_scenarios(seed)
    paths = run_loo_paths(directory) if workload == "run-loo" else analyst_paths(directory)
    missing = [str(p) for p in paths.values() if not p.is_file()]
    if missing:
        raise FileNotFoundError(f"fixture files missing: {missing}")
    return paths


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: fixtures.py <workload> <seed> <directory>")
    build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
