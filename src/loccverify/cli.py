"""Command-line verification workflows with JSON reports.

Every subcommand prints one JSON document to stdout and exits 0 only if
every check in it passed. Malformed input exits 2 with a diagnostic on
stderr. Reports are deterministic for a fixed seed apart from the
wall-time field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import serialize
from .channels import (
    COMPLETENESS_TOL,
    KrausSet,
    choi,
    choi_distance,
    kraus_from_operators,
    qc_embed,
)
from .linalg import trace_norm
from .protocols import (
    LOCALITY_TOL,
    NODE_SUM_TOL,
    ProtocolParams,
    build_protocol_pq,
    path_distance_bound,
    main_branch_path,
    verify_theorem_conditions,
    verify_tree,
)
from .zonoid import (
    ZonoidSpec,
    hausdorff_estimate,
    membership,
    support_function,
    zonoid_spec_for_channel,
    zonoid_spec_for_instrument,
)
from . import twoqubit
from . import pqubit as pq


class InputError(Exception):
    """Bad user input (file, JSON, or token); maps to exit status 2."""


def _check(name: str, defect: float, tol: float, where: str = "") -> dict:
    entry = {
        "name": name,
        "defect": float(defect),
        "tolerance": float(tol),
        "pass": bool(defect <= tol),
    }
    if where:
        entry["where"] = where
    return entry


def _value_check(name: str, value: float, target: float, tol: float) -> dict:
    entry = _check(name, abs(value - target), tol)
    entry["value"] = float(value)
    return entry


def _load_obj(text: str):
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"inline JSON does not parse: {exc}") from exc
    try:
        return serialize.load_json(text)
    except OSError as exc:
        raise InputError(f"cannot read {text!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{text!r} is not valid JSON: {exc}") from exc


def _square_basis() -> KrausSet:
    ops = [np.diag([1.0, 0.0]).astype(np.complex128),
           np.diag([0.0, 1.0]).astype(np.complex128)]
    return kraus_from_operators(ops, (2,))


def _interval_basis() -> KrausSet:
    shift = np.zeros((2, 2), dtype=np.complex128)
    shift[0, 1] = 1.0
    proj = np.diag([1.0, 0.0]).astype(np.complex128)
    return kraus_from_operators([proj, shift], (2,))


def _resolve_kraus(token: str) -> KrausSet:
    if token == "twoqubit-minimal":
        return twoqubit.two_qubit_instrument().minimal
    if token == "twoqubit-grouped":
        return twoqubit.two_qubit_instrument().instrument.kraus
    obj = _load_obj(token)
    try:
        return serialize.kraus_from_json(obj)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _resolve_basis(token: str) -> ZonoidSpec:
    if token == "twoqubit-minimal":
        return twoqubit.channel_zonoid()
    if token == "twoqubit-blocks":
        return twoqubit.instrument_zonoid()
    if token == "square":
        return ZonoidSpec(_square_basis())
    if token == "interval":
        return ZonoidSpec(_interval_basis())
    obj = _load_obj(token)
    try:
        if "partition" in obj:
            return zonoid_spec_for_instrument(
                serialize.instrument_from_json(obj))
        return ZonoidSpec(serialize.kraus_from_json(obj))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _resolve_target(token: str, spec: ZonoidSpec) -> np.ndarray:
    if token == "identity":
        return np.eye(spec.dim, dtype=np.complex128)
    obj = _load_obj(token)
    try:
        return serialize.matrix_from_json(obj)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _cmd_choi(args) -> dict:
    kraus = _resolve_kraus(args.kraus)
    c = choi(kraus, normalized=not args.unnormalized)
    want = 1.0 if not args.unnormalized else float(kraus.input_dim)
    tr = float(np.real(np.trace(c.matrix)))
    return {
        "checks": [_value_check("choi-trace", tr, want, 1e-10)],
        "values": {"normalized": not args.unnormalized,
                   "matrix": serialize.matrix_to_json(c.matrix)},
    }


def _cmd_distance(args) -> dict:
    a = _resolve_kraus(args.a)
    b = _resolve_kraus(args.b)
    dist = choi_distance(choi(a), choi(b))
    return {"checks": [], "values": {"choi_distance": float(dist)}}


def _cmd_zonoid_check(args) -> dict:
    spec = _resolve_basis(args.basis)
    z = _resolve_target(args.z, spec)
    report = membership(z, spec, tol=args.tol)
    values = {
        "feasible": report.feasible,
        "residual": float(report.residual),
        "iterations": int(report.iterations),
        "support_identity": float(
            support_function(np.eye(spec.dim, dtype=np.complex128), spec)),
    }
    checks = [_check("membership", report.residual, args.tol)]
    return {"checks": checks, "values": values}


def _at_least(value: int, flag: str, low: int) -> int:
    if value < low:
        raise InputError(f"{flag} must be at least {low}")
    return value


def _protocol_params(parties: int, rounds: int, exponent: float
                     ) -> ProtocolParams:
    # Checked before anything is built: the tree holds 2^P x 2^P matrices.
    if parties > pq.MAX_PARTIES:
        raise InputError(f"--parties must be at most {pq.MAX_PARTIES}")
    try:
        return ProtocolParams(parties, rounds, exponent)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _cmd_protocol(args) -> dict:
    params = _protocol_params(args.parties, args.nu, args.c)
    tree = build_protocol_pq(params.parties, params.rounds, params.exponent)
    report = verify_tree(tree)
    checks = [
        _check("node-sums", report.max_node_sum_defect, NODE_SUM_TOL),
        _check("product", report.max_product_defect, LOCALITY_TOL),
        _check("locality", report.max_locality_defect, LOCALITY_TOL),
        _check("completeness", report.completeness_defect, COMPLETENESS_TOL),
    ]
    values = {
        "parties": args.parties,
        "rounds": args.nu,
        "exponent": args.c,
        "leaves": report.n_leaves,
        "nodes": report.n_nodes,
        "failures": [
            {"path": list(f.node_path), "kind": f.kind,
             "defect": float(f.defect)}
            for f in report.failures[:20]
        ],
    }
    return {"checks": checks, "values": values}


def _cmd_paths(args) -> dict:
    params = _protocol_params(args.parties, args.nu, args.c)
    grid = _at_least(args.grid, "--grid", 1)
    report = path_distance_bound(params.parties, params.rounds,
                                 params.exponent, grid_points=grid)
    checks = [_check("limit-gap-bound", report.max_distance,
                     report.bound + 1e-12)]
    values = {
        "observed": float(report.max_distance),
        "bound": float(report.bound),
        "epsilon": float(report.epsilon),
        "grid_points": int(report.grid_points),
    }
    return {"checks": checks, "values": values}


def _theorem_samples(args) -> None:
    # --samples 0 selects the dense default grid.
    _at_least(args.samples, "--samples", 0)
    _at_least(args.sigma_samples, "--sigma-samples", 1)


def _cmd_theorem1(args) -> dict:
    _theorem_samples(args)
    if args.nu:
        _protocol_params(2, args.nu, args.c)
    spec = twoqubit.channel_zonoid()
    paths, fams = twoqubit.limiting_family(spec)
    report = verify_theorem_conditions(
        spec, paths, fams, s_samples=args.samples or None,
        sigma_samples=args.sigma_samples, membership_tol=args.tol)
    checks = [
        _check(c.name, c.defect, c.tol, c.where) for c in report.checks
    ]
    values = {}
    if args.nu:
        pre = main_branch_path(2, args.nu, args.c)
        grid = np.linspace(4.0, 1.0, 11)
        residuals = []
        for s in grid:
            rep = membership(pre.at(float(s), clamp=True), spec, tol=args.tol)
            residuals.append(float(rep.residual))
        values["prelimit"] = {
            "rounds": args.nu,
            "exponent": args.c,
            "s_grid": [float(s) for s in grid],
            "membership_residuals": residuals,
            "max_residual": max(residuals),
        }
    return {"checks": checks, "values": values}


def _cmd_theorem8(args) -> dict:
    _theorem_samples(args)
    _at_least(args.nodes, "--nodes", 1)
    spec = twoqubit.instrument_zonoid()
    paths, fams = twoqubit.blocked_limiting_family(spec)
    report = verify_theorem_conditions(
        spec, paths, fams, s_samples=args.samples or None,
        sigma_samples=args.sigma_samples, membership_tol=args.tol)
    checks = [_check(c.name, c.defect, c.tol, c.where) for c in report.checks]

    inst = twoqubit.two_qubit_instrument().instrument
    embedded = qc_embed(inst)
    cmat = choi(embedded, normalized=False).matrix
    d = inst.kraus.input_dim
    do = inst.kraus.output_dim
    n_out = inst.n_outcomes
    # Outcome flag is the last output factor; off-diagonal flag sectors
    # must vanish for a quantum-classical embedding.
    sectors = cmat.reshape(d, do, n_out, d, do, n_out)
    cross = 0.0
    for r in range(n_out):
        for rp in range(n_out):
            if r != rp:
                block = sectors[:, :, r, :, :, rp]
                cross = max(cross, float(np.abs(block).max()))
    checks.append(_check("cross-sector", cross, 1e-12))

    iso = twoqubit.blocked_isometry_check()
    checks.append(_check("blocked-isometry", iso.max_row_residual, 1e-10))
    checks.append(_check("blocked-coefficients", iso.coefficient_defect,
                         1e-10))
    grain = twoqubit.coarse_grain_check(nodes=args.nodes)
    checks.append(_check("coarse-grain", grain.max_defect, 1e-9))
    return {"checks": checks, "values": {}}


def _cmd_paper2q(args) -> dict:
    _protocol_params(2, args.nu, args.c)
    _at_least(args.nodes, "--nodes", 1)
    gap = path_distance_bound(2, args.nu, args.c)
    omega = twoqubit.limiting_choi_2q(nodes=args.nodes)
    offdiag = float(np.real(omega.matrix[0, 10]))
    direct = choi(twoqubit.two_qubit_instrument().minimal, normalized=False)
    quad_defect = trace_norm(omega.matrix - direct.matrix)
    iso = twoqubit.continuous_isometry_check(nodes=args.nodes)
    checks = [
        _check("lemma1-bound", gap.max_distance, gap.bound + 1e-12),
        _value_check("choi-offdiag", offdiag, 2.0 / 3.0, 1e-9),
        _check("choi-quadrature", quad_defect, 1e-8),
        _value_check("column-norm", iso.last_column_norm, 1.0, 1e-10),
        _value_check("column-cross", iso.cross_overlap, 0.0, 1e-10),
    ]
    values = {
        "lemma1_max_distance": float(gap.max_distance),
        "lemma1_bound": float(gap.bound),
        "choi_offdiag": offdiag,
    }
    return {"checks": checks, "values": values}


def _rounds_list(text: str, parties: int, exponent: float) -> list[int]:
    """The --nu-list value: comma-separated round counts, each a valid
    protocol with ``parties`` and ``exponent``."""
    try:
        rounds = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise InputError(f"--nu-list: {exc}") from exc
    for nu in rounds:
        _protocol_params(parties, nu, exponent)
    return rounds


def _cmd_paperpq(args) -> dict:
    if not pq.MIN_PARTIES <= args.parties <= pq.LIMIT_CHECK_MAX_PARTIES:
        raise InputError(f"--parties must lie in [{pq.MIN_PARTIES}, "
                         f"{pq.LIMIT_CHECK_MAX_PARTIES}]")
    nu_list = _rounds_list(args.nu_list, args.parties, args.c)
    _at_least(args.nodes, "--nodes", 1)
    report = pq.pqubit_limit_check(args.parties, nu_list, args.c,
                                   nodes=args.nodes)
    checks = [
        _check("quadrature-match", report.quadrature_defect, 1e-10),
        _check("party-reduction", report.reduction_defect, 1e-10),
        _check("distances-decreasing",
               0.0 if report.strictly_decreasing else 1.0, 0.5),
    ]
    values = {
        "parties": report.parties,
        "rounds_list": list(report.rounds_list),
        "distances": [float(v) for v in report.distances],
    }
    return {"checks": checks, "values": values}


def _cmd_wstate(args) -> dict:
    _at_least(args.nodes, "--nodes", 1)
    report = twoqubit.wstate_analysis(nodes=args.nodes)
    checks = [
        _check("all-ones-annihilates", report.k1_image_norm, 1e-12),
        _value_check("probability", report.probability, 0.5, 1e-9),
        _value_check("concurrence", report.concurrence, 8.0 / 9.0, 1e-9),
    ]
    values = {
        "probability": float(report.probability),
        "concurrence": float(report.concurrence),
        "ac_state": serialize.matrix_to_json(report.ac_state),
        "bc_state": serialize.matrix_to_json(report.bc_state),
    }
    return {"checks": checks, "values": values}


def _cmd_hausdorff(args) -> dict:
    nu_list = _rounds_list(args.nu_list, 2, args.c)
    _at_least(args.samples, "--samples", 0)
    limit_spec = twoqubit.channel_zonoid()
    dists = []
    for nu in nu_list:
        approx = zonoid_spec_for_channel(twoqubit.prelimit_channel(nu, args.c))
        dists.append(float(hausdorff_estimate(approx, limit_spec,
                                              samples=args.samples,
                                              seed=args.seed)))
    decreasing = all(a > b for a, b in zip(dists, dists[1:]))
    checks = [_check("hausdorff-decreasing", 0.0 if decreasing else 1.0, 0.5)]
    values = {"rounds_list": nu_list, "estimates": dists}
    return {"checks": checks, "values": values}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="loccverify",
        description="Verification workflows for asymptotically "
                    "LOCC-implementable channels.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, nu_default=None):
        sp.add_argument("--tol", type=float, default=1e-7)
        sp.add_argument("--nodes", type=int, default=64)
        sp.add_argument("--seed", type=int, default=42)
        sp.add_argument("--c", type=float, default=0.5)
        if nu_default is not None:
            sp.add_argument("--nu", type=int, default=nu_default)

    sp = sub.add_parser("choi", help="Choi operator of a Kraus set")
    sp.add_argument("--kraus", required=True,
                    help="kraus JSON file, inline JSON, or builtin token")
    sp.add_argument("--unnormalized", action="store_true")
    common(sp)
    sp.set_defaults(func=_cmd_choi)

    sp = sub.add_parser("distance", help="normalized Choi distance")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_distance)

    sp = sub.add_parser("zonoid-check", help="zonoid membership of a target")
    sp.add_argument("--z", default="identity",
                    help="'identity', matrix JSON file, or inline JSON")
    sp.add_argument("--basis", default="twoqubit-minimal",
                    help="basis token (twoqubit-minimal, twoqubit-blocks, "
                         "square, interval) or kraus JSON")
    common(sp)
    sp.set_defaults(func=_cmd_zonoid_check)

    sp = sub.add_parser("protocol", help="build and verify a protocol tree")
    sp.add_argument("--parties", type=int, default=2)
    common(sp, nu_default=10)
    sp.set_defaults(func=_cmd_protocol)

    sp = sub.add_parser("paths", help="main-branch gap to the limit path")
    sp.add_argument("--parties", type=int, default=2)
    sp.add_argument("--grid", type=int, default=401)
    common(sp, nu_default=100)
    sp.set_defaults(func=_cmd_paths)

    sp = sub.add_parser("theorem1",
                        help="path conditions for the limit channel")
    sp.add_argument("--samples", type=int, default=0,
                    help="s samples per path (0: dense default grid)")
    sp.add_argument("--sigma-samples", type=int, default=101)
    common(sp, nu_default=0)
    sp.set_defaults(func=_cmd_theorem1)

    sp = sub.add_parser("theorem8",
                        help="blocked path conditions for the instrument")
    sp.add_argument("--samples", type=int, default=0)
    sp.add_argument("--sigma-samples", type=int, default=101)
    common(sp)
    sp.set_defaults(func=_cmd_theorem8)

    sp = sub.add_parser("paper-2q", help="worked two-qubit example checks")
    common(sp, nu_default=10000)
    sp.set_defaults(func=_cmd_paper2q)

    sp = sub.add_parser("paper-pq", help="multi-party limit checks")
    sp.add_argument("--parties", type=int, default=3)
    sp.add_argument("--nu-list", default="100,1000,10000")
    common(sp)
    sp.set_defaults(func=_cmd_paperpq)

    sp = sub.add_parser("wstate", help="W-state outcome analysis")
    common(sp)
    sp.set_defaults(func=_cmd_wstate)

    sp = sub.add_parser("hausdorff", help="zonoid convergence estimates")
    sp.add_argument("--nu-list", default="100,1000,10000")
    sp.add_argument("--samples", type=int, default=2000)
    common(sp)
    sp.set_defaults(func=_cmd_hausdorff)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        body = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "checks": body["checks"],
        "values": body.get("values", {}),
        "pass": all(c["pass"] for c in body["checks"]),
        "wall_time_s": time.monotonic() - start,
    }
    print(serialize.dumps(report))
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
