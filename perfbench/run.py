#!/usr/bin/env python3
"""Benchmark of the loccverify checker: one seeded, closed-loop workload.

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. One client in one process sends
each job only after the previous one returned, as a researcher waiting on
a verdict does, so nothing queues and waiting time is zero by
construction. Set-up is sampled in several fresh processes; the passes
run in one more. All of them get BLAS capped at one thread.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A full record of the run goes to
``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}


class RunError(Exception):
    """A child process failed; the run has no result."""


def tail(latencies):
    """Latency at the highest percentile with at least ten jobs beyond it.

    Returns (value, percentile, jobs): the value is the (n - 10)-th
    smallest latency, so exactly ten jobs are slower.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        raise RunError(f"only {n} jobs: no latency has ten jobs beyond it")
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def child(args, deadline, extra):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in BLAS_ENV})
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError("out of time before starting a child")
    # A group of its own, so a timeout also ends the child's probe process.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"child timed out after {left:.0f} s") from exc
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"child exited {proc.returncode}: "
                       f"{err.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(child(args, deadline, ["--setup-only"]))
    extra = []
    if args.trace:
        extra = ["--spans-out",
                 str(OUT / f"spans-{args.workload}-seed{args.seed}.csv")]
    main = child(args, deadline, extra)
    setups.append(main)
    return main, setups


def report(args, main, setups):
    lat = main["latencies"]
    tail_s, pct, jobs = tail(lat)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": len(main["pass_walls"]), "pass_walls_s": main["pass_walls"],
        "jobs": jobs, "job_tail_percentile": pct,
        "attempted": main["attempted"], "failed": main["failed"],
        "failed_ratio": main["failed"] / main["attempted"],
        "failures": main["failures"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "raw_setup_samples_s": [s["raw_setup_s"] for s in setups],
        "raw_pass_walls_s": main["raw_pass_walls"],
        "speed_factors": main["speed_factors"],
        "waiting_s": 0.0, "nproc": os.cpu_count(),
        "python": main["python"], "numpy": main["numpy"],
        "blas_threads": {name: BLAS_THREADS for name in BLAS_ENV},
    }
    if args.trace:
        values = main["layers"]
        units = LAYER_METRICS
    else:
        values = {
            "wall_s": statistics.median(main["pass_walls"]),
            "job_p50_s": statistics.median(lat),
            "job_tail_s": tail_s,
            "peak_rss_mb": main["peak_rss_mb"],
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        }
        units = END_TO_END
    record["metrics"] = values
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {record['passes']}  jobs {jobs}  "
          f"blas threads {BLAS_THREADS}  nproc {record['nproc']}  "
          f"python {record['python']}  numpy {record['numpy']}")
    for key, value in values.items():
        print(f"  {key:48s} {value:14.6g} {units[key]}")
    if not args.trace:
        print(f"  {'job_tail_s percentile':48s} {pct:14.6g} % of {jobs} jobs")
        print(f"  {'wall_s unscaled':48s} "
              f"{statistics.median(main['raw_pass_walls']):14.6g} s"
              f"  (speed factors {min(main['speed_factors']):.3f}"
              f"-{max(main['speed_factors']):.3f})")
    print(f"  {'failed_ratio':48s} {record['failed_ratio']:14.6g} 1"
          f"  ({main['failed']} of {main['attempted']})")
    print(f"  {'waiting_s (closed loop, one client)':48s} {0.0:14.6g} s")
    for line in main["failures"]:
        print(f"  FAILED {line}")
    correct = main["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("protocol", "theorem", "geometry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "loccverify" / "__init__.py").is_file():
        print(f"error: no loccverify sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        main_result, setups = measure(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return report(args, main_result, setups)


if __name__ == "__main__":
    sys.exit(main())
