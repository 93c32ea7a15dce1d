"""Smoke tests of scripts/ab.py, the paired in-process A/B."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "scripts" / "ab.py"


def _checkout() -> bool:
    if shutil.which("git") is None:
        return False
    out = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                         capture_output=True)
    return out.returncode == 0


pytestmark = pytest.mark.skipif(not _checkout(),
                                reason="needs git and a checkout with HEAD")


def _ab(*argv):
    return subprocess.run([sys.executable, str(AB), *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_one_protocol_round_against_head():
    out = _ab("HEAD", "--workload", "protocol", "--seed", "1",
              "--rounds", "1")
    assert out.returncode == 0, out.stderr
    kinds = [line.split()[0] for line in out.stdout.splitlines()[2:]]
    assert kinds == ["row", "tree", "all"]
    assert all(line.endswith("/1") for line in out.stdout.splitlines()[2:])


def test_bad_revision_is_2():
    out = _ab("no-such-revision", "--workload", "protocol", "--seed", "1")
    assert out.returncode == 2
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("error:")


def test_reports_of_one_run_against_head(tmp_path):
    # compare_reports on one argv, in a process of its own: loading the
    # script caps BLAS and puts perfbench on sys.path.
    code = ("import runpy, sys\n"
            "from pathlib import Path\n"
            "ab = runpy.run_path(sys.argv[1])\n"
            "src = ab['unpack_base']('HEAD', Path(sys.argv[2]))\n"
            "sys.exit(ab['compare_reports'](\n"
            "    src, [['theorem1', '--samples', '11']]))\n")
    out = subprocess.run([sys.executable, "-c", code, str(AB), str(tmp_path)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    # Against HEAD the bytes differ only while the tree has uncommitted
    # edits, so the verdicts are what the line pins.
    assert lines[0].startswith("bytes ")
    assert lines[0].endswith("verdicts same  exit 0/0  theorem1 --samples 11")
    assert lines[-1] == "1 reports, verdicts differ in 0"


def test_reports_of_one_run_across_kernels(tmp_path):
    # The tree's run again under the portable Prescott kernel, which
    # every x86-64 host can run; elsewhere OpenBLAS ignores the name.
    code = ("import runpy, sys\n"
            "from pathlib import Path\n"
            "ab = runpy.run_path(sys.argv[1])\n"
            "src = ab['unpack_base']('HEAD', Path(sys.argv[2]))\n"
            "sys.exit(ab['compare_reports'](\n"
            "    src, [['theorem1', '--samples', '11']], ['Prescott']))\n")
    out = subprocess.run([sys.executable, "-c", code, str(AB), str(tmp_path)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = [line for line in out.stdout.splitlines()
             if line.startswith("bytes ")]
    assert len(lines) == 2
    assert lines[1].endswith("verdicts same  exit 0/0  theorem1 --samples 11"
                             " under Prescott")
    assert out.stdout.splitlines()[-2:] == [
        "1 reports, verdicts differ in 0",
        "1 runs under Prescott, verdicts differ in 0"]


def test_kernels_need_reports():
    out = _ab("HEAD", "--workload", "protocol", "--seed", "1",
              "--kernels", "Prescott")
    assert out.returncode == 2
    assert "--kernels needs --reports" in out.stderr


def test_reports_against_a_bad_revision_are_2():
    out = _ab("no-such-revision", "--reports")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error:")
