#!/usr/bin/env python3
"""Paired in-process A/B of one perfbench workload, or an A/B of the CLI
reports: a git revision of the package against the working tree.

    python3 scripts/ab.py REV --workload {protocol,theorem,geometry} \\
        --seed N --rounds R
    python3 scripts/ab.py REV --reports [--kernels CORE[,CORE...]]

``git archive REV src/loccverify`` is unpacked into a temporary directory
and imported as ``loccverify_base`` beside the working tree's
``loccverify``. Both run one job list drawn by ``perfbench/workloads.py``,
after an untimed warm-up pass each. Every round times one pass on each
side, and the side that goes first alternates, so drift of a shared host
reaches both sides alike. BLAS is capped at one thread, as in
``perfbench/run.py``.

Per job kind it prints the median over rounds of the paired relative
difference (tree - base) / base, its interquartile range, and in how many
rounds the working tree was faster. Run ``HEAD`` against an unmodified
tree first: that reads the noise floor of the host.

With ``--reports`` it runs each command of the verification battery,
then those of ``EXTRA_REPORTS`` (``theorem1 --nu 1000`` and ``paper-pq
--parties 6``), as a fresh ``python -m loccverify.cli`` process on each
side. Per report it prints whether stdout matches byte for byte once the
``wall_time_s`` line is dropped, and whether the check names, verdicts and
exit status match; under a report whose bytes differ it lists, paired
by name, each check whose defect or ``where`` moved, base -> tree, and
each check that only one side prints. With ``--kernels`` it
runs the tree's side again under each named BLAS kernel
(``OPENBLAS_CORETYPE``, for example ``Haswell,Prescott``) and compares
each run with the tree's run under the default kernel in the same way. It
exits 1 when some verdict differs, between the sides or across kernels.
A bad REV exits 2 with one line on stderr.
"""

import argparse
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files in the checkout
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "perfbench")]
from bench import child_env  # noqa: E402
from run import BLAS_ENV, BLAS_THREADS  # noqa: E402

# Before numpy loads: BLAS reads its thread count once.
os.environ.update({name: BLAS_THREADS for name in BLAS_ENV})

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402


def unpack_base(rev: str, into: Path) -> Path:
    """Unpack ``src/loccverify`` at ``rev`` under ``into``; the ``src``
    directory. ValueError if git cannot read it."""
    try:
        out = subprocess.run(["git", "archive", rev, "src/loccverify"],
                             cwd=ROOT, capture_output=True)
    except OSError as exc:
        raise ValueError(f"cannot run git: {exc}") from exc
    if out.returncode != 0:
        why = out.stderr.decode(errors="replace").strip().splitlines()
        raise ValueError(f"cannot read src/loccverify at {rev}: "
                         f"{why[-1] if why else 'git archive failed'}")
    with tarfile.open(fileobj=io.BytesIO(out.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def load_base(rev: str, into: Path):
    """The package at ``rev``, imported as ``loccverify_base``; ValueError
    if git cannot read it."""
    pkg = unpack_base(rev, into) / "loccverify"
    spec = importlib.util.spec_from_file_location(
        "loccverify_base", pkg / "__init__.py",
        submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["loccverify_base"] = module
    spec.loader.exec_module(module)
    return module


def timed_pass(work, jobs) -> dict:
    """Seconds per job kind of one pass."""
    spent = {}
    for job in jobs:
        t0 = time.perf_counter()
        work.run(job)
        spent[job["kind"]] = (spent.get(job["kind"], 0.0)
                              + time.perf_counter() - t0)
    return spent


def summary(base: list, tree: list) -> str:
    base, tree = np.array(base), np.array(tree)
    rel = tree / base - 1.0
    q1, mid, q3 = np.percentile(rel, [25, 50, 75])
    return (f"{np.median(base):10.6f} {np.median(tree):10.6f} "
            f"{100 * mid:+8.1f}% {100 * (q3 - q1):7.1f}% "
            f"{int((rel < 0).sum()):4d}/{len(rel)}")


# Runs beyond the battery whose reports an A/B also compares.
EXTRA_REPORTS = (["theorem1", "--nu", "1000"], ["paper-pq", "--parties", "6"])


def report_argvs() -> list:
    """The verification battery's argv lists, then ``EXTRA_REPORTS``."""
    sys.path.insert(0, str(ROOT / "src"))
    from run_verification_suite import BATTERY
    return [argv for argv, _ in BATTERY] + [list(a) for a in EXTRA_REPORTS]


def run_report(src: Path, argv: list, kernel: str | None = None
               ) -> tuple[int, str]:
    """Exit status and stdout of one CLI run on the package under ``src``,
    in a fresh process with BLAS at one thread, and with OpenBLAS forced to
    ``kernel`` when one is named."""
    env = child_env(src)
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    out = subprocess.run([sys.executable, "-m", "loccverify.cli", *argv],
                         cwd=src, env=env, capture_output=True, text=True)
    return out.returncode, out.stdout


def without_wall_time(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if "wall_time" not in line)


def checks_of(text: str) -> list:
    """(name, pass, defect, where) of each check of a report; none when
    the run printed no report."""
    try:
        report = json.loads(text)
    except ValueError:
        return []
    return [(c["name"], c["pass"], c["defect"], c.get("where", ""))
            for c in report["checks"]]


def compare_runs(base: tuple[int, str], tree: tuple[int, str],
                 label: str) -> bool:
    """Print whether two runs of one report match, in bytes apart from
    ``wall_time_s`` and in check names, verdicts and exit status, then,
    paired by name, each check whose defect or ``where`` moved and each
    that only one side prints; whether the verdicts match."""
    (b_status, b_out), (t_status, t_out) = base, tree
    same_bytes = without_wall_time(b_out) == without_wall_time(t_out)
    b_checks, t_checks = checks_of(b_out), checks_of(t_out)
    same_verdicts = (b_status == t_status and [c[:2] for c in b_checks]
                     == [c[:2] for c in t_checks])
    print(f"bytes {'same' if same_bytes else 'DIFF'}  verdicts "
          f"{'same' if same_verdicts else 'DIFF'}  exit {b_status}/"
          f"{t_status}  {label}")
    if not same_bytes:
        b_names = {b[0] for b in b_checks}
        t_by_name = {t[0]: t for t in t_checks}
        for b in b_checks:
            t = t_by_name.get(b[0])
            if t is None:
                print(f"    {b[0]}: only in base")
            elif b[2:] != t[2:]:
                print(f"    {b[0]}: {b[2]!r} at {b[3]!r} -> "
                      f"{t[2]!r} at {t[3]!r}")
        for t in t_checks:
            if t[0] not in b_names:
                print(f"    {t[0]}: only in tree")
    return same_verdicts


def compare_reports(base_src: Path, argvs: list, kernels=()) -> int:
    """Print the report A/B of every argv, then, per kernel of
    ``kernels``, the tree's run under it against its run under the
    default kernel; 1 when a verdict differs."""
    differ = across = 0
    for argv in argvs:
        label = " ".join(argv)[:70]
        tree = run_report(ROOT / "src", argv)
        differ += not compare_runs(run_report(base_src, argv), tree, label)
        for kernel in kernels:
            across += not compare_runs(
                tree, run_report(ROOT / "src", argv, kernel),
                f"{label} under {kernel}")
    print(f"{len(argvs)} reports, verdicts differ in {differ}")
    if kernels:
        print(f"{len(argvs) * len(kernels)} runs under "
              f"{','.join(kernels)}, verdicts differ in {across}")
    return 1 if differ or across else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("rev", help="git revision to compare against")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=wl.WORKLOADS)
    mode.add_argument("--reports", action="store_true",
                      help="compare the CLI reports instead of timings")
    parser.add_argument("--kernels", help="with --reports: the tree's "
                        "runs again under these OPENBLAS_CORETYPE values, "
                        "comma-separated")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args()
    if args.workload and args.seed is None:
        parser.error("--workload needs --seed")
    kernels = [k for k in (args.kernels or "").split(",") if k]
    if args.kernels is not None and not args.reports:
        parser.error("--kernels needs --reports")
    if args.kernels is not None and (
            not kernels or not all(k.isalnum() for k in kernels)):
        parser.error("--kernels takes comma-separated kernel names")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        try:
            if args.reports:
                base_src = unpack_base(args.rev, Path(tmp))
            else:
                base = load_base(args.rev, Path(tmp))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.reports:
            print(f"reports: base {args.rev} against the working tree")
            return compare_reports(base_src, report_argvs(), kernels)
        sys.path.insert(0, str(ROOT / "src"))
        import loccverify as tree
        jobs = wl.make_jobs(args.workload, args.seed, 1)[0]
        ref = wl.load_reference()
        sides = {}
        for name, lv in (("base", base), ("tree", tree)):
            work = wl.Workload(lv, args.workload, ref)
            prepared = work.prepare(jobs)
            timed_pass(work, prepared)
            sides[name] = (work, prepared)

        times = {"base": [], "tree": []}
        for r in range(args.rounds):
            order = ("base", "tree") if r % 2 == 0 else ("tree", "base")
            for name in order:
                times[name].append(timed_pass(*sides[name]))

    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds: "
          f"base {args.rev} against the working tree")
    print(f"{'kind':10s} {'base_s':>10s} {'tree_s':>10s} {'median':>9s} "
          f"{'iqr':>8s} {'won':>6s}")
    kinds = sorted({job["kind"] for job in jobs})
    for kind in kinds:
        print(f"{kind:10s} " + summary([t[kind] for t in times["base"]],
                                       [t[kind] for t in times["tree"]]))
    print(f"{'all':10s} " + summary(
        [sum(t.values()) for t in times["base"]],
        [sum(t.values()) for t in times["tree"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
