"""Tests of the benchmark's own code: generators, tracing and checks.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import loccverify as lv  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import timing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_identical_bytes(workload):
    a = wl.dumps_jobs(wl.make_jobs(workload, 11, 2))
    b = wl.dumps_jobs(wl.make_jobs(workload, 11, 2))
    assert a == b
    assert wl.dumps_jobs(wl.warmup_job(workload, 11)) == \
        wl.dumps_jobs(wl.warmup_job(workload, 11))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_other_seed_gives_other_jobs(workload):
    a = wl.make_jobs(workload, 11, 2)
    b = wl.make_jobs(workload, 12, 2)
    assert wl.dumps_jobs(a) != wl.dumps_jobs(b)
    # The mix of job kinds is the same for every seed.
    kinds = [sorted(job["kind"] for job in jobs) for jobs in a + b]
    assert all(k == kinds[0] for k in kinds)


def test_every_fifth_theorem_job_is_a_sweep():
    for jobs in wl.make_jobs("theorem", 5, 3):
        kinds = [job["kind"] for job in jobs]
        assert [i for i, k in enumerate(kinds) if k == "sweep"] == \
            list(range(4, len(kinds), 5))


def test_row_and_hausdorff_jobs_have_references():
    ref = wl.load_reference()
    for seed in range(20):
        for job in wl.make_jobs("protocol", seed, 2)[0]:
            if job["kind"] == "row":
                assert f"{job['parties']}:{job['rounds']}:{job['c']}" in \
                    ref["rows"]
        for job in wl.make_jobs("geometry", seed, 1)[0]:
            if job["kind"] == "hausdorff":
                key = f"{job['rounds']}:{job['samples']}:{job['seed']}"
                assert key in ref["hausdorff"]


def small_jobs(work):
    rng = np.random.default_rng(3)
    jobs = [
        {"kind": "tree", "parties": 2, "rounds": 6, "c": 0.5, "fault": None},
        {"kind": "theorem1", "s_samples": 5},
        dict(wl._target_recipe(rng, "twoqubit-blocks", "face"), kind="member"),
        dict(wl._target_recipe(rng, "interval", "outside"), kind="member"),
    ]
    return work.prepare(jobs)


def local_probe(samples=1):
    """The calibration kernel in this process, on a small table."""
    table = (np.zeros(1000), np.zeros(10, dtype=int))
    return timing.calibrate(table, samples)


def make_work(name="geometry"):
    return wl.Workload(lv, name, wl.load_reference())


def test_untraced_run_installs_no_wrappers():
    found = spans.bindings()
    names = {name for _, _, name, _ in found}
    assert names == {f"{m}.{f}" for m, fs in spans.TARGETS.items() for f in fs}
    work = make_work()
    seen = []

    class Probe:
        def run(self, job):
            # Every binding is the original object while the job runs.
            for module, attr, _, orig in found:
                assert getattr(module, attr) is orig
            seen.append(job["kind"])
            work.run(job)

    lat, failures, _ = timing.run_pass(Probe(), small_jobs(work), 0,
                                       local_probe)
    assert failures == [] and len(seen) == len(lat) == 4


def test_traced_run_records_spans_and_restores_originals():
    found = spans.bindings()
    work = make_work()
    jobs = small_jobs(work)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert not spans.unwrapped(found)
        _, failures, _ = timing.run_pass(work, jobs, 0, local_probe, tracer)
    finally:
        tracer.remove()
    assert failures == []
    assert spans.unwrapped(found)
    summary = tracer.summarize(0, tracer.mark(), 1.0)
    # protocols.membership is a second binding of zonoid.membership.
    assert summary["zonoid.membership"]["calls"] > 2
    assert summary["protocols.verify_tree"]["nodes"] == 2 * 2 * 6 + 1
    top = [i for i, p in enumerate(tracer.parents) if p == -1]
    assert [tracer.names[i] for i in top] == [f"job.{j['kind']}" for j in jobs]
    for i, name in enumerate(tracer.names):
        if not name.startswith("job."):
            assert tracer.jobs[i] and tracer.parents[i] >= 0
    total_self = sum(v["self_s"] for v in summary.values())
    total_top = sum(v["top_s"] for v in summary.values())
    assert total_self == pytest.approx(total_top, rel=1e-9)


@pytest.mark.parametrize("fault", [
    {"type": "leaf-scale", "step": 3},
    {"type": "offdiag", "depth": 5},
])
def test_fault_injected_tree_is_flagged(fault):
    work = make_work("protocol")
    job = {"kind": "tree", "parties": 3, "rounds": 4, "c": 0.5, "fault": fault}
    work.run(job)


def test_generated_leaf_faults_stay_visible():
    rng = np.random.default_rng(5)
    for p, size in wl.TREE_CLASSES:
        job = wl._tree_job(rng, p, size)
        for _ in range(5):
            fault = wl._leaf_fault(rng, job)
            n = fault["step"] // p
            eps = job["rounds"] ** (-job["c"])
            assert eps * (1 - eps) ** n >= wl.LEAF_VISIBLE


def test_unflagged_fault_fails_the_job():
    work = make_work("protocol")
    job = {"kind": "tree", "parties": 2, "rounds": 3, "c": 0.5,
           "fault": {"type": "leaf-scale", "step": 2}}
    real = lv.verify_tree

    def lenient(tree):
        rep = real(tree)
        return type(rep)(True, rep.n_nodes, rep.n_leaves, 0.0, 0.0, 0.0,
                         0.0, ())

    lv.verify_tree = lenient
    try:
        with pytest.raises(wl.CheckFailed):
            work.run(job)
    finally:
        lv.verify_tree = real


def test_outside_target_is_proven_outside():
    work = make_work()
    rng = np.random.default_rng(9)
    for basis in wl.GEOMETRY_BASES:
        job = work.prepare([dict(wl._target_recipe(rng, basis, "outside"),
                                 kind="member")])[0]
        assert job["gap"] == pytest.approx(job["margin"], rel=1e-6)


def test_separation_gap_over_fewer_directions_fails():
    work = make_work()
    rng = np.random.default_rng(4)
    job = work.prepare([dict(wl._target_recipe(rng, "twoqubit-blocks",
                                               "outside"),
                             kind="separation", gap_seed=17)])[0]
    work.run(job)
    real = lv.separation_gap

    def hasty(z, spec, samples=500, seed=7):
        return real(z, spec, samples=samples // 10, seed=seed)

    lv.separation_gap = hasty
    try:
        with pytest.raises(wl.CheckFailed):
            work.run(job)
    finally:
        lv.separation_gap = real


@pytest.mark.parametrize("shift, ok", [(0.0, True), (1e-3, False)])
def test_sweep_accepts_only_checked_infeasible_answers(shift, ok):
    # An infeasible answer cannot be disproved, but its residual must be
    # the one its witness gives.
    work = make_work("theorem")
    job = {"kind": "sweep", "rounds": 150, "c": 0.5}
    real = lv.membership

    def exclusion(z, spec, tol=1e-7):
        rep = real(z, spec, tol=tol)
        # C = 0 lies in the box and leaves residual ||z||.
        zero = type(rep.witness)(np.zeros_like(rep.witness.matrix))
        res = float(np.linalg.norm(z))
        return type(rep)(False, zero, res + shift, rep.iterations)

    lv.membership = exclusion
    try:
        if ok:
            work.run(job)
        else:
            with pytest.raises(wl.CheckFailed):
                work.run(job)
    finally:
        lv.membership = real


def test_probe_runs_the_kernel_in_another_process():
    probe = timing.Probe()
    try:
        assert probe.proc.pid != os.getpid()
        times = probe(3)
    finally:
        probe.close()
    assert len(times) == 3 and all(t > 0.0 for t in times)
    assert probe.proc.returncode == 0


def test_tail_leaves_ten_jobs_beyond():
    lat = list(np.arange(40.0))
    value, pct, n = run.tail(lat)
    assert sum(x > value for x in lat) == 10
    assert (n, pct) == (40, 75.0)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        worker.LAYER_METRICS
