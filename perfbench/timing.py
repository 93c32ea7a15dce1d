"""Closed-loop timing of one pass and the machine-speed probe.

    python3 perfbench/timing.py --serve

serves the probe: each line ``n`` on stdin runs the calibration kernel
``n`` times and answers with one JSON list of its times.
"""

import json
import statistics
import subprocess
import sys
import time

import numpy as np

_G = np.random.default_rng(0).standard_normal((2, 8, 4, 4))
_MATS = _G[0] + 1j * _G[1]
_MATS = _MATS + _MATS.conj().transpose(0, 2, 1)
_IDX = np.ix_([0, 2, 3], [0, 2, 3])
# A 64 MB table read at random places: the memory part of the kernel.
_TABLE_SIZE = 8_000_000
_GATHERS = 400_000

# About the median time of ``calibrate`` on the machine that recorded the
# baseline: the reference speed reported times are scaled to. A speed
# factor above 1 means the machine lends more speed than that.
CAL_REF_S = 0.018
CAL_EVERY_S = 0.25


def make_table():
    """The table the kernel reads, and the places it reads."""
    rng = np.random.default_rng(1)
    return (rng.standard_normal(_TABLE_SIZE),
            rng.integers(0, _TABLE_SIZE, _GATHERS))


def calibrate(table, samples: int = 1) -> list[float]:
    """Times of a fixed kernel of interpreter, small-matrix and memory work.

    The kernel uses no package code, so its time tracks only the speed the
    machine lends a process, which on a shared host drifts by tens of
    percent over minutes, and changes within seconds. The random reads of
    a table far larger than the caches follow the slow-downs that hit
    memory-bound work (large trees) harder than arithmetic.
    """
    values, picks = table
    out = []
    for _ in range(samples):
        t = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc = (acc * 31 + i) % 1000003
        for i in range(200):
            w, v = np.linalg.eigh(_MATS[i % 8])
            m = (v * np.clip(w, 0.0, 1.0)) @ v.conj().T
            acc += float(np.linalg.norm(m[_IDX]))
        acc += float(values[picks].sum())
        out.append(time.perf_counter() - t)
    return out


def speed_factor(samples) -> float:
    return CAL_REF_S / statistics.median(samples)


class Probe:
    """The calibration kernel, timed in a process of its own.

    The measured process blocks while the probe runs, so the probe gets
    the machine the measured code had a moment before, but none of that
    process's state (heap, garbage collector, caches of the package)
    can change the factor its times are scaled by.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve"], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def __call__(self, samples: int = 1) -> list[float]:
        self.proc.stdin.write(f"{samples}\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def run_pass(work, jobs, index: int, probe, tracer=None):
    """Run one pass closed-loop; return (latencies, failures, factors).

    Speed probes run before and after the pass and between jobs after
    every CAL_EVERY_S of job time; they are not part of any latency, and
    the pass time is the sum of its job latencies. A job's speed factor
    comes from the median of the probes that open and close its interval
    and the one before, so one slow probe does not set it.
    """
    latencies = []
    failures = []
    opened = []
    cal = probe()
    since = 0.0
    for i, job in enumerate(jobs):
        opened.append(len(cal) - 1)
        t = time.perf_counter()
        try:
            if tracer is None:
                work.run(job)
            else:
                with tracer.job_span(f"{index}:{i}", job["kind"]):
                    work.run(job)
        except Exception as exc:  # one wrong or crashing job fails, the run goes on
            failures.append(f"pass {index} job {i} {job['kind']}: "
                            f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t)
        since += latencies[-1]
        if since >= CAL_EVERY_S:
            cal += probe()
            since = 0.0
    cal += probe()
    factors = [speed_factor(cal[max(0, a - 1):a + 2]) for a in opened]
    return latencies, failures, factors


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    TABLE = make_table()
    for line in sys.stdin:
        print(json.dumps(calibrate(TABLE, int(line))), flush=True)
