"""The call census of ``scripts/census.py``, on one workflow."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

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

STATEMENTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import census
missed = census.unexecuted([census.cli_run(["wstate"])])
print(json.dumps({f"{name}:{qualname}": [count, ranges]
                  for (name, qualname), (count, ranges) in missed.items()}))
"""


def child(code: str):
    out = subprocess.run([sys.executable, "-c", code, str(SCRIPTS)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_census_of_one_workflow():
    got = child(CHILD)
    assert "wstate_analysis" not in got["missed"]
    assert "verify_tree" in got["missed"]
    assert got["seconds"] < 2.0


def test_statement_census_of_one_workflow():
    got = child(STATEMENTS)
    # wstate exits 0, so main's error route is one range of two
    # statements; a function the run never calls is not listed.
    source = (ROOT / "src" / "loccverify" / "cli.py").read_text()
    lines = source.splitlines()
    first = lines.index('        print(f"error: {exc}", file=sys.stderr)') + 1
    assert lines[first] == "        return 2"
    assert got["cli.py:main"] == [2, [[first, first + 1]]]
    assert not any(key.startswith("conditions.py:") for key in got)
