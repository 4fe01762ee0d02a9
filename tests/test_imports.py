import os
import subprocess
import sys
from pathlib import Path

import seqcalib

HEAVY = ("scipy.optimize", "scipy.linalg")


def test_importing_the_package_and_cli_loads_no_optimizer_or_linalg():
    # a fresh interpreter, so that no earlier test has imported them
    code = (
        "import sys, seqcalib, seqcalib.cli\n"
        f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    source = str(Path(seqcalib.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.stdout.strip() == ""
