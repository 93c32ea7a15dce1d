#!/usr/bin/env python3
"""Tabulate how fast finite protocols approach their limit channel.

Four gauges per round count: the sup-distance between the main-branch
path and the limit path, the trace distance between normalized Choi
matrices, the sampled Hausdorff gap between the product zonoids, and the
multiplier-matrix distance for the three-party analogue. All of them
should shrink like nu**(-c).
"""

import argparse
import csv
import sys
import time

import loccverify as lv
from loccverify import cli


def study_row(nu: int, exponent: float, samples: int, seed: int) -> dict:
    bound = lv.path_distance_bound(2, nu, exponent)
    pre = lv.prelimit_channel(nu, exponent)
    dist = lv.choi_distance(lv.choi(pre), lv.limiting_choi_2q())
    gap = lv.hausdorff_estimate(
        lv.zonoid_spec_for_channel(pre), lv.channel_zonoid(),
        samples=samples, seed=seed,
    )
    s3 = lv.multiplier_distance(
        3, lv.prelimit_coefficients(3, nu, exponent), lv.pqubit_coefficients(3)
    )
    return {
        "nu": nu,
        "epsilon": nu ** (-exponent),
        "path_gap": bound.max_distance,
        "path_bound": bound.bound,
        "choi_distance": dist,
        "zonoid_gap": gap,
        "pq3_distance": s3,
    }


def build_parser() -> cli._Parser:
    """The study's flags, with the CLI's ranges: a bad one exits 2 with
    one stderr line."""
    parser = cli._Parser(description=__doc__)
    parser.add_argument("--nu-list", default="10,100,1000,10000",
                        help="comma-separated round counts")
    parser.add_argument("--c", type=cli._EXPONENT, default=0.5,
                        help="halting bias exponent in (0, 1)")
    parser.add_argument("--samples", type=cli._COUNT, default=1000,
                        help="directions for the Hausdorff estimate")
    parser.add_argument("--seed", type=cli._COUNT, default=42)
    parser.add_argument("--csv", default="",
                        help="optional path for a CSV copy of the table")
    return parser


def main() -> int:
    try:
        args = build_parser().parse_args()
        nus = cli._rounds_list(args.nu_list, 2, args.c)
        # The study's Hausdorff estimates are sized as hausdorff's.
        cli._refuse_over_budget(argparse.Namespace(command="hausdorff",
                                                   samples=args.samples))
    except cli.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = []
    for nu in nus:
        t0 = time.monotonic()
        row = study_row(nu, args.c, args.samples, args.seed)
        row["seconds"] = time.monotonic() - t0
        rows.append(row)

    header = ("nu", "epsilon", "path_gap", "path_bound", "choi_distance",
              "zonoid_gap", "pq3_distance", "seconds")
    print(" ".join(f"{h:>13s}" for h in header))
    for row in rows:
        print(f"{row['nu']:13d} " + " ".join(
            f"{row[h]:13.6g}" for h in header[1:]
        ))

    # every gauge should decrease monotonically along the sweep
    for gauge in ("path_gap", "choi_distance", "zonoid_gap", "pq3_distance"):
        vals = [row[gauge] for row in rows]
        trend = "decreasing" if all(a > b for a, b in zip(vals, vals[1:])) \
            else "NOT MONOTONE"
        print(f"{gauge}: {trend}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
