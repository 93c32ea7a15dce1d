"""The quick section of ``scripts/bench.py``, on one cheap case."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# Run in a child process, so the script's sys.path stays out of the test
# process.
CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import bench
out = Path(sys.argv[2])
out.write_text(json.dumps({"what": "kept"}))
bench.merge(out, bench.quick_section({"wstate": bench.cli("wstate")},
                                     runs=1))
print(out.read_text())
"""


def test_quick_section_of_one_case(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(SCRIPTS), str(tmp_path / "b.json")],
        capture_output=True, text=True, check=True)
    record = json.loads(out.stdout)
    assert record["what"] == "kept"
    quick = record["quick"]
    assert quick["runs"] == 1 and quick["blas_threads"] == 1
    case = quick["cases"]["wstate"]
    assert case["argv"] == ["python3", "-m", "loccverify.cli", "wstate"]
    assert case["exit"] == [0]
    assert case["wall_s_runs"] == [case["wall_s"]]
    assert case["peak_rss_mb_runs"] == [case["peak_rss_mb"]]
    # A child that imports numpy holds well over 10 MiB and runs well
    # under a minute.
    assert 10.0 < case["peak_rss_mb"] < 1024.0
    assert 0.0 < case["wall_s"] < 60.0
