"""One fresh benchmark process: set up, run the passes, print one JSON line.

Started by ``run.py`` with BLAS capped at one thread. With ``--setup-only``
it stops after set-up, which is how the parent takes several set-up
samples in one run. Without ``--trace`` no wrapper is installed anywhere;
with it, every pass runs twice, untraced and traced in alternating order,
so the tracing overhead is measured on identical jobs. After set-up it
starts one speed-probe process (``timing.Probe``) and ends it before
printing.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# name -> unit of the metrics a traced run reports, all per pass.
LAYER_METRICS = {
    "protocols.build_protocol_pq.busy_s": "s",
    "protocols.verify_tree.busy_s": "s",
    "protocols.verify_tree.nodes": "count",
    "protocols.protocol_leaf_diagonals.busy_s": "s",
    "protocols.main_branch_path.busy_s": "s",
    "protocols.main_branch_path.breakpoints": "count",
    "protocols.path_distance_bound.busy_s": "s",
    "protocols.path_distance_bound.grid_points": "count",
    "pqubit.prelimit_coefficients.busy_s": "s",
    "pqubit.multiplier_distance.busy_s": "s",
    "twoqubit.prelimit_channel.busy_s": "s",
    "channels.channel_from_leaf_povm.busy_s": "s",
    "zonoid.membership.calls": "count",
    "zonoid.membership.busy_s": "s",
    "zonoid.membership.iterations": "count",
    "zonoid.membership.iters_per_call": "iter/call",
    "zonoid.membership.shortcut_ratio": "1",
    "zonoid.membership.busy_share": "1",
    "protocols.verify_theorem_conditions.self_s": "s",
    "linalg.product_defect.busy_s": "s",
    "linalg.integrate_sqrt_smooth.busy_s": "s",
    "twoqubit.limiting_family.busy_s": "s",
    "twoqubit.blocked_limiting_family.busy_s": "s",
    "twoqubit.coarse_grain_check.busy_s": "s",
    "twoqubit.blocked_isometry_check.busy_s": "s",
    "twoqubit.channel_zonoid.busy_s": "s",
    "twoqubit.instrument_zonoid.busy_s": "s",
    "zonoid.support_function.calls": "count",
    "zonoid.support_function.busy_s": "s",
    "zonoid.hausdorff_estimate.busy_s": "s",
    "zonoid.hausdorff_estimate.directions": "count",
    "zonoid.separation_gap.busy_s": "s",
    "linalg.partial_trace.calls": "count",
    "linalg.partial_trace.busy_s": "s",
    "linalg.trace_norm.calls": "count",
    "linalg.trace_norm.busy_s": "s",
    "channels.choi.busy_s": "s",
    "channels.choi_distance.busy_s": "s",
    "channels.minimal_kraus.busy_s": "s",
    "zonoid.zonoid_spec_for_channel.busy_s": "s",
    "channels.choi.setup_busy_s": "s",
    "channels.minimal_kraus.setup_busy_s": "s",
    "zonoid.zonoid_spec_for_channel.setup_busy_s": "s",
    "twoqubit.prelimit_channel.setup_busy_s": "s",
    "bench.untraced_wall_s": "s",
    "bench.traced_wall_s": "s",
    "bench.tracing_overhead_s": "s",
    "bench.library_busy_s": "s",
    "bench.span_self_s": "s",
    "bench.spans": "count",
}


def _mean_over(summaries, name, key):
    return sum(s.get(name, {}).get(key, 0.0) for s in summaries) / len(summaries)


def layer_metrics(summaries, setup, untraced, traced):
    """Per-pass means of the traced passes, named as in LAYER_METRICS.

    ``untraced`` and ``traced`` are the pass times of the same passes run
    without and with wrappers.
    """
    out = {}
    for metric in LAYER_METRICS:
        if metric.startswith("bench."):
            continue
        mod, fn, stat = metric.split(".")
        name = f"{mod}.{fn}"
        if stat == "setup_busy_s":
            out[metric] = setup.get(name, {}).get("busy_s", 0.0)
        elif stat == "iters_per_call":
            calls = _mean_over(summaries, name, "calls")
            out[metric] = (_mean_over(summaries, name, "iterations") / calls
                           if calls else 0.0)
        elif stat == "shortcut_ratio":
            calls = _mean_over(summaries, name, "calls")
            out[metric] = (_mean_over(summaries, name, "shortcuts") / calls
                           if calls else 0.0)
        elif stat != "busy_share":
            out[metric] = _mean_over(summaries, name, stat)
    # Time inside the package: job spans minus their own (checking) time.
    library = sum(_mean_over(summaries, n, "busy_s")
                  - _mean_over(summaries, n, "self_s")
                  for n in set().union(*summaries) if n.startswith("job."))
    out["zonoid.membership.busy_share"] = (
        out["zonoid.membership.busy_s"] / library if library else 0.0)
    out["bench.untraced_wall_s"] = statistics.fmean(untraced)
    out["bench.traced_wall_s"] = statistics.fmean(traced)
    out["bench.tracing_overhead_s"] = (out["bench.traced_wall_s"]
                                       - out["bench.untraced_wall_s"])
    names = set().union(*summaries)
    out["bench.library_busy_s"] = library
    out["bench.span_self_s"] = sum(_mean_over(summaries, n, "self_s")
                                   for n in names)
    out["bench.spans"] = sum(_mean_over(summaries, n, "calls") for n in names)
    return out


def measure(work, prepared, probe, tracer) -> dict:
    """Run the passes; with a tracer each pass also runs traced.

    Job times are scaled by the speed factor of the probes around them,
    span times by the pass's effective factor; the raw pass times are
    kept beside them.
    """
    import spans
    from timing import run_pass

    bound = spans.bindings()
    out = {"pass_walls": [], "raw_pass_walls": [], "speed_factors": [],
           "traced_walls": [], "summaries": [], "latencies": [],
           "failures": [], "attempted": 0}
    for k, jobs in enumerate(prepared):
        order = ((False,) if tracer is None
                 else (False, True) if k % 2 == 0 else (True, False))
        for with_trace in order:
            if with_trace:
                tracer.install()
                lo = tracer.mark()
            lat, bad, factors = run_pass(work, jobs, k, probe,
                                         tracer if with_trace else None)
            out["attempted"] += len(lat)
            out["failures"] += bad
            scaled = [x * f for x, f in zip(lat, factors)]
            factor = sum(scaled) / sum(lat)
            if with_trace:
                tracer.remove()
                out["summaries"].append(
                    tracer.summarize(lo, tracer.mark(), factor))
                out["traced_walls"].append(sum(scaled))
                continue
            if not spans.unwrapped(bound):
                raise RuntimeError(f"a wrapper was installed in pass {k}")
            out["speed_factors"].append(factor)
            out["raw_pass_walls"].append(sum(lat))
            out["pass_walls"].append(sum(scaled))
            out["latencies"] += scaled
    out["failed"] = len(out["failures"])
    out["failures"] = out["failures"][:20]
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy as np
    import loccverify as lv
    if Path(lv.__file__).resolve().parent != (SRC / "loccverify").resolve():
        print(f"error: imported {lv.__file__}, not the checkout's package",
              file=sys.stderr)
        return 2
    import spans
    import workloads as wl
    from timing import Probe, speed_factor

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    # Set-up: imports, the seeded job lists, every basis and pre-limit
    # zonoid they read, the first pass's targets and one warm-up job. The
    # targets of later passes are built after it, so set-up does not grow
    # with --seconds.
    work = wl.Workload(lv, args.workload, wl.load_reference())
    passes = wl.make_jobs(args.workload, args.seed,
                          wl.passes_for(args.workload, args.seconds))
    for jobs in passes:
        work.build(jobs)
    prepared = [work.prepare(passes[0])]
    work.run(work.prepare([wl.warmup_job(args.workload, args.seed)])[0])
    setup_s = time.perf_counter() - T0
    probe = Probe()
    try:
        factor = speed_factor(probe(5))
        result = {"setup_s": setup_s * factor, "raw_setup_s": setup_s,
                  "numpy": np.__version__, "python": sys.version.split()[0]}
        if tracer is not None:
            setup = tracer.summarize(0, tracer.mark(), factor)
            tracer.remove()
        if not args.setup_only:
            prepared += [work.prepare(jobs) for jobs in passes[1:]]
            result.update(measure(work, prepared, probe, tracer))
            summaries = result.pop("summaries")
            traced = result.pop("traced_walls")
            if tracer is not None:
                result["layers"] = layer_metrics(
                    summaries, setup, result["pass_walls"], traced)
                if args.spans_out:
                    tracer.write(args.spans_out)
    finally:
        probe.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
