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
