import os
import subprocess
import sys
from pathlib import Path

import seqcalib

HEAVY = ("scipy.optimize", "scipy.linalg")


def run_fresh(code, *args):
    """Run code in a fresh interpreter, so that no earlier test has imported anything."""
    source = str(Path(seqcalib.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout.strip()


def test_importing_the_package_and_cli_loads_no_optimizer_or_linalg():
    code = (
        "import sys, seqcalib, seqcalib.cli\n"
        f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    assert run_fresh(code) == ""


def test_importing_the_cli_loads_no_process_pool():
    code = "import sys, seqcalib.cli\nprint('multiprocessing' in sys.modules)\n"
    assert run_fresh(code) == "False"


NO_SCIPY = """
import sys
from pathlib import Path

sys.modules["scipy"] = None  # every scipy import now raises ImportError
from seqcalib import BinomialCounts, ErrorModel, LookSchedule, NormalApprox, profile_from_counts
from seqcalib import cli, fileio, maxsprt

assert maxsprt._log_factorials.size == 0, "log-factorials filled at import"
out = Path(sys.argv[1])


def write(name, writer, value):
    with open(out / name, "w") as f:
        writer(f, value)
    return str(out / name)


poisson = write("poisson.csv", fileio.write_schedule, LookSchedule((2.5,) * 6, alpha=0.05))
binomial = write(
    "binomial.csv",
    fileio.write_schedule,
    LookSchedule((40.0,) * 4, alpha=0.05, model="binomial", exposure_proportion=0.3),
)
model = write("model.csv", fileio.write_error_model, ErrorModel(0.1, 0.2))
estimates = write(
    "estimates.csv",
    fileio.write_estimates,
    [NormalApprox(0.1 * i - 0.4, 0.2, f"nc{i}") for i in range(9)],
)
codes = [
    cli.main(["compute-cv", poisson, "--out", str(out / "cv-poisson.csv")]),
    cli.main(["compute-cv", binomial, "--error-model", model, "--out", str(out / "cv-binomial.csv")]),
    cli.main(["fit-null", estimates, "--out", str(out / "fitted.csv")]),
]
profile_from_counts(BinomialCounts(30, 200, 0.1), outcome_id="b")
print(codes)
"""


def test_the_runtime_needs_no_scipy(tmp_path):
    assert run_fresh(NO_SCIPY, str(tmp_path)) == "[0, 0, 0]"
    for name in ("cv-poisson.csv", "cv-binomial.csv", "fitted.csv"):
        assert (tmp_path / name).stat().st_size > 0
