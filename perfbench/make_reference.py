#!/usr/bin/env python3
"""Tabulate the deterministic values the benchmark compares against.

Covers every (parties, rounds, exponent) a convergence-study row can draw
and every (rounds, samples, seed) a Hausdorff job can draw. The committed
``reference.json`` was produced by the commit that introduced the
benchmark; regenerate it only to record a deliberate change of answers:

    python3 perfbench/make_reference.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import loccverify as lv  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    rows = {}
    for p, centre in wl.ROW_CLASSES:
        for rounds in wl.row_rounds(centre):
            for c in wl.EXPONENTS:
                gap = lv.path_distance_bound(p, rounds, c).max_distance
                dist = lv.multiplier_distance(
                    p, lv.prelimit_coefficients(p, rounds, c),
                    lv.pqubit_coefficients(p))
                rows[f"{p}:{rounds}:{c}"] = {"gap": gap, "mdist": dist}
    limit = lv.channel_zonoid()
    hausdorff = {}
    for rounds in (r for group in wl.HAUSDORFF_ROUNDS for r in group):
        spec = lv.zonoid_spec_for_channel(
            lv.prelimit_channel(rounds, wl.HAUSDORFF_EXPONENT))
        samples = wl.HAUSDORFF_SAMPLES
        for seed in wl.HAUSDORFF_SEEDS:
            hausdorff[f"{rounds}:{samples}:{seed}"] = lv.hausdorff_estimate(
                spec, limit, samples=samples, seed=seed)
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump({"rows": rows, "hausdorff": hausdorff}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(rows)} rows and {len(hausdorff)} Hausdorff estimates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
