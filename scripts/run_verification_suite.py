#!/usr/bin/env python3
"""Run the full verification battery and print one line per check.

Drives the package CLI so the checks and tolerances live in one place.
Exit status is 0 only if every subcommand passed.
"""

import argparse
import contextlib
import io
import json
import sys
import time

from loccverify import cli, linalg, protocols, serialize

# Breakpoint 111 of the 100-round two-party main branch, inline: it lies on
# the face <11|.|11> = 1 of the zonoid, so no candidate answers it and the
# barrier solve decides it.
FACE_POINT = json.dumps(serialize.matrix_to_json(linalg.diagonal_stack(
    protocols.main_branch_path(2, 100, 0.5).diagonals[111])))

# (argv, rough purpose) pairs; order goes from cheap sanity to the slow
# geometry checks so a broken install fails fast.
BATTERY = [
    (["choi", "--kraus", "twoqubit-minimal"], "Choi matrix of the reduced Kraus set"),
    (["distance", "--a", "twoqubit-minimal", "--b", "twoqubit-grouped"],
     "grouped and reduced sets give one channel"),
    (["protocol", "--parties", "2", "--nu", "100", "--c", "0.5"],
     "two-party tree is a valid local protocol"),
    (["protocol", "--parties", "3", "--nu", "20", "--c", "0.5"],
     "three-party tree is a valid local protocol"),
    (["paths", "--parties", "2", "--nu", "1000", "--c", "0.5"],
     "main-branch path converges to the limit path"),
    (["zonoid-check", "--z", "identity", "--basis", "twoqubit-minimal"],
     "identity sits inside the product zonoid"),
    (["zonoid-check", "--basis", "twoqubit-minimal", "--tol", "1e-9",
      "--z", FACE_POINT],
     "main-branch breakpoint on a face of the zonoid is inside"),
    (["theorem1", "--samples", "11"],
     "limiting family satisfies the implementability conditions"),
    (["theorem8"], "blocked family keeps outcome sectors separated"),
    (["paper-2q", "--nu", "10000", "--c", "0.5"],
     "worked two-qubit numbers"),
    (["paper-pq", "--parties", "3", "--nu-list", "100,1000,10000"],
     "multi-qubit coefficient convergence"),
    (["wstate"], "halting branch leaves an entangled pair"),
    (["hausdorff", "--nu-list", "100,1000", "--samples", "500"],
     "zonoid gap shrinks with more rounds"),
]


def run_one(argv):
    buf = io.StringIO()
    t0 = time.monotonic()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    elapsed = time.monotonic() - t0
    report = json.loads(buf.getvalue()) if buf.getvalue().strip() else None
    return status, report, elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--verbose", action="store_true",
                        help="print every check, not just failures")
    args = parser.parse_args()

    failures = 0
    for argv, purpose in BATTERY:
        status, report, elapsed = run_one(argv)
        ok = status == 0
        flag = "ok  " if ok else "FAIL"
        print(f"[{flag}] {' '.join(argv):58s} {elapsed:6.2f}s  {purpose}")
        if report is None:
            print("       no report produced")
            failures += 1
            continue
        for check in report["checks"]:
            if args.verbose or not check["pass"]:
                mark = "pass" if check["pass"] else "FAIL"
                where = f"  at {check['where']}" if check.get("where") else ""
                print(f"       {mark} {check['name']}: defect "
                      f"{check['defect']:.3e} vs {check['tolerance']:.0e}{where}")
        if not ok:
            failures += 1

    print()
    if failures:
        print(f"{failures} of {len(BATTERY)} commands failed")
        return 1
    print(f"all {len(BATTERY)} commands passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
