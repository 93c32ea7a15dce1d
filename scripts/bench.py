#!/usr/bin/env python3
"""Wall time and peak memory of whole CLI runs, merged into a bench record.

    python3 scripts/bench.py --out BENCH_<n>.json

Each case of ``CASES`` runs ``RUNS`` times, each time as a fresh child
process on the package under ``src`` with BLAS at one thread and stdout
discarded. The child's wall time is taken around its start and end, and
its peak RSS is ``ru_maxrss`` of its own resource usage, from
``os.wait4``. The record's ``"quick"`` section gets, per case, the
median of each over the runs, every run's values and every run's exit
status; any other section of an existing record is kept. The cases are
``theorem1`` and ``theorem8`` on the dense default grid, ``theorem8
--samples 4000`` and ``theorem1 --samples 4000``, whose stacked sample
tables set their peaks, ``theorem1 --nu 1000``, ``scripts/run_verification_suite.py`` and
``scripts/convergence_study.py`` at its defaults, ``protocol
--parties 2 --nu 300000`` and ``protocol --parties 6 --nu 10000``, whose
tree build and check set their peaks: sizes at which a run is more than
its imports, ``zonoid-check --basis twoqubit-blocks``, whose memory
estimate is its first call of the package's zonoid layer in a fresh
process, and the Tier-1 suite, ``python -m pytest -q -p
no:cacheprovider tests``. Standard library only. ``child_env`` is the
environment of every child, here and in ``scripts/ab.py``.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files in the checkout
sys.path.insert(0, str(ROOT / "perfbench"))
from run import BLAS_ENV, BLAS_THREADS  # noqa: E402

RUNS = 3


def cli(*argv: str) -> list:
    """A child's arguments for one run of the package CLI."""
    return ["-m", "loccverify.cli", *argv]


CASES = {
    "theorem1": cli("theorem1"),
    "theorem8": cli("theorem8"),
    "theorem8 --samples 4000": cli("theorem8", "--samples", "4000"),
    "theorem1 --samples 4000": cli("theorem1", "--samples", "4000"),
    "theorem1 --nu 1000": cli("theorem1", "--nu", "1000"),
    "verification suite": [str(ROOT / "scripts" /
                                "run_verification_suite.py")],
    "convergence study": [str(ROOT / "scripts" / "convergence_study.py")],
    "protocol --parties 2 --nu 300000": cli("protocol", "--parties", "2",
                                            "--nu", "300000"),
    "protocol --parties 6 --nu 10000": cli("protocol", "--parties", "6",
                                           "--nu", "10000"),
    "zonoid-check --basis twoqubit-blocks": cli("zonoid-check", "--basis",
                                                "twoqubit-blocks"),
    "tier-1 tests": ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                     str(ROOT / "tests")],
}


def child_env(src: Path) -> dict:
    """The environment of a child run on the package under ``src``: this
    one, with that package importable, no bytecode cache written and BLAS
    at one thread."""
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
                **{name: BLAS_THREADS for name in BLAS_ENV})


def run_once(argv: list) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MiB and exit status of one child
    ``python argv``."""
    env = child_env(ROOT / "src")
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                         file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    # ru_maxrss is in KiB on Linux.
    return wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def quick_section(cases: dict, runs: int = RUNS) -> dict:
    """The ``"quick"`` section: each case of ``cases`` (name to child
    arguments) run ``runs`` times."""
    found = {}
    for name, argv in cases.items():
        walls, peaks, exits = zip(*(run_once(argv) for _ in range(runs)))
        found[name] = {
            "argv": ["python3", *argv],
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(peaks),
            "wall_s_runs": list(walls),
            "peak_rss_mb_runs": list(peaks),
            "exit": list(exits),
        }
    return {"command": "python3 scripts/bench.py", "runs": runs,
            "blas_threads": int(BLAS_THREADS),
            "python": platform.python_version(), "cases": found}


def merge(out: Path, section: dict) -> None:
    """Write ``section`` as the ``"quick"`` section of the record at
    ``out``, keeping its other sections."""
    record = json.loads(out.read_text()) if out.exists() else {}
    record["quick"] = section
    out.write_text(json.dumps(record, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--out", type=Path, required=True,
                        help="bench record to write or update")
    args = parser.parse_args()
    section = quick_section(CASES)
    merge(args.out, section)
    for name, case in section["cases"].items():
        print(f"{name:32s} {case['wall_s']:8.3f} s {case['peak_rss_mb']:8.1f}"
              f" MiB  exit {case['exit']}")
    return 0 if all(s == 0 for case in section["cases"].values()
                    for s in case["exit"]) else 1


if __name__ == "__main__":
    sys.exit(main())
