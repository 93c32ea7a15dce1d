"""The call census of ``scripts/census.py``, on one workflow."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# Run in a child process, so the script's BLAS cap and sys.path stay out of
# the test process.
CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import census
t0 = time.perf_counter()
missed = census.unreached([census.cli_run(["wstate"])])
print(json.dumps({"seconds": time.perf_counter() - t0,
                  "missed": [qualname for _, qualname in missed]}))
"""


def test_census_of_one_workflow():
    out = subprocess.run([sys.executable, "-c", CHILD, str(SCRIPTS)],
                         capture_output=True, text=True, check=True)
    got = json.loads(out.stdout)
    assert "wstate_analysis" not in got["missed"]
    assert "verify_tree" in got["missed"]
    assert got["seconds"] < 2.0
