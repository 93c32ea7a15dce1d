"""Command-line verification workflows with JSON reports.

Every subcommand prints one JSON document to stdout and exits 0 only if
every check in it passed. Malformed input exits 2 with a diagnostic on
stderr. Reports are deterministic for a fixed seed apart from the
wall-time field.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import serialize
from . import tolerances
from .channels import (
    KrausSet,
    choi,
    choi_distance,
    kraus_from_operators,
    qc_embed,
)
from .linalg import is_hermitian, trace_norm
from .protocols import (
    ProtocolParams,
    build_protocol_pq,
    main_branch_diagonals,
    path_distance_bound,
    protocol_check_bytes,
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


# Largest peak memory a subcommand may need, in bytes: `protocol` as
# `protocol_check_bytes` counts it, the others as `work_bytes` does.
TREE_BYTES_BUDGET = 2 ** 28

# Fixed part of `work_bytes`, and the bytes each s sample and each sigma
# sample of a theorem check holds.
_FIXED_BYTES = 2 ** 19
_THEOREM_SAMPLE_BYTES = {"theorem1": (2560, 1792), "theorem8": (3712, 2176)}
_SIZE_FLAGS = ("samples", "sigma_samples", "grid", "nodes")


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
        z = serialize.matrix_from_json(obj)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if z.shape != (spec.dim, spec.dim):
        raise InputError(f"--z has shape {z.shape}, the basis acts on "
                         f"dimension {spec.dim}")
    if not is_hermitian(z, tolerances.INPUT_HERMITICITY_TOL):
        raise InputError("--z is not Hermitian")
    return z


def work_bytes(args) -> int:
    """Peak memory of a theorem1, theorem8, paths, paper-2q, paper-pq or
    wstate run, in bytes, from its validated flags alone.

    Each part grows with one size flag: the theorem checks with their s
    and sigma samples, the path gap with its grid (2^P entries a point),
    and Gauss-Legendre rules with --nodes (numpy's rule diagonalises an
    n x n companion matrix). The parts are held one after another, so the
    estimate is a fixed part plus the largest. Fitted under tracemalloc on
    CPython 3.11 and numpy 2.4: at least the measured peak, and within 1.5
    times it once one part passes a few MiB.
    """
    parts = [0]
    if args.command in _THEOREM_SAMPLE_BYTES:
        per_s, per_sigma = _THEOREM_SAMPLE_BYTES[args.command]
        # --samples 0 is the dense grid: spacing 0.01 on [1, 4].
        parts += [per_s * (args.samples or 301),
                  per_sigma * args.sigma_samples]
    if args.command == "paths":
        parts.append(args.grid * (36 * 2 ** args.parties + 192))
    if hasattr(args, "nodes"):
        parts.append(8 * args.nodes ** 2 + 1024 * args.nodes)
    return _FIXED_BYTES + max(parts)


def _refuse_over_budget(args) -> None:
    """InputError, before any work, for a run ``work_bytes`` puts above
    the budget."""
    need = work_bytes(args)
    if need > TREE_BYTES_BUDGET:
        flags = " ".join(f"--{name.replace('_', '-')} {getattr(args, name)}"
                         for name in _SIZE_FLAGS if hasattr(args, name))
        raise InputError(f"{flags} needs {need / 2 ** 20:.1f} MiB, above "
                         f"the {TREE_BYTES_BUDGET // 2 ** 20} MiB budget")


def _membership_tol(value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise InputError("--tol must be finite and positive")
    return value


def _cmd_choi(args) -> dict:
    kraus = _resolve_kraus(args.kraus)
    c = choi(kraus, normalized=not args.unnormalized)
    want = 1.0 if not args.unnormalized else float(kraus.input_dim)
    tr = float(np.real(np.trace(c.matrix)))
    return {
        "checks": [_value_check("choi-trace", tr, want,
                                tolerances.CHOI_TRACE_TOL)],
        "values": {"normalized": not args.unnormalized,
                   "matrix": serialize.matrix_to_json(c.matrix)},
    }


def _cmd_distance(args) -> dict:
    a = _resolve_kraus(args.a)
    b = _resolve_kraus(args.b)
    dist = choi_distance(choi(a), choi(b))
    return {"checks": [], "values": {"choi_distance": float(dist)}}


def _cmd_zonoid_check(args) -> dict:
    mtol = _membership_tol(args.tol)
    spec = _resolve_basis(args.basis)
    z = _resolve_target(args.z, spec)
    report = membership(z, spec, tol=mtol)
    values = {
        "feasible": report.feasible,
        "residual": float(report.residual),
        "iterations": int(report.iterations),
        "stop": report.stop,
        "phase": report.phase,
        "face_x": (None if report.face_x is None
                   else serialize.matrix_to_json(report.face_x)),
        "support_identity": float(
            support_function(np.eye(spec.dim, dtype=np.complex128), spec)),
    }
    checks = [_check("membership", report.residual, mtol)]
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
    need = protocol_check_bytes(params.parties, params.rounds)
    if need > TREE_BYTES_BUDGET:
        raise InputError(
            f"--nu {params.rounds} at --parties {params.parties} needs "
            f"{need / 2 ** 20:.1f} MiB to build and check the tree, above "
            f"the {TREE_BYTES_BUDGET // 2 ** 20} MiB budget")
    tree = build_protocol_pq(params.parties, params.rounds, params.exponent)
    report = verify_tree(tree)
    checks = [
        _check("node-sums", report.max_node_sum_defect,
               tolerances.NODE_SUM_TOL),
        _check("product", report.max_product_defect, tolerances.PRODUCT_TOL),
        _check("locality", report.max_locality_defect,
               tolerances.LOCALITY_TOL),
        _check("completeness", report.completeness_defect,
               tolerances.COMPLETENESS_TOL),
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
    _refuse_over_budget(args)
    report = path_distance_bound(params.parties, params.rounds,
                                 params.exponent, grid_points=grid)
    checks = [_check("limit-gap-bound", report.max_distance,
                     report.bound + tolerances.ROUNDING_TOL,
                     f"s={report.worst_s:.6g}")]
    values = {
        "observed": float(report.max_distance),
        "bound": float(report.bound),
        "epsilon": float(report.epsilon),
        "grid_points": int(report.grid_points),
    }
    return {"checks": checks, "values": values}


def _theorem_flags(args) -> float:
    """Validate the flags of theorem1 and theorem8, refuse a run over the
    memory budget, and return --tol."""
    mtol = _membership_tol(args.tol)
    # --samples 0 selects the dense default grid.
    _at_least(args.samples, "--samples", 0)
    _at_least(args.sigma_samples, "--sigma-samples", 1)
    if hasattr(args, "nodes"):
        _at_least(args.nodes, "--nodes", 1)
    _refuse_over_budget(args)
    return mtol


def _theorem_checks(args, spec: ZonoidSpec, family, mtol: float) -> list:
    paths, fams = family(spec)
    report = verify_theorem_conditions(
        spec, paths, fams, s_samples=args.samples or None,
        sigma_samples=args.sigma_samples, membership_tol=mtol)
    return [_check(c.name, c.defect, c.tol, c.where) for c in report.checks]


def _cmd_theorem1(args) -> dict:
    mtol = _theorem_flags(args)
    if args.nu:
        _protocol_params(2, args.nu, args.c)
    spec = twoqubit.channel_zonoid()
    checks = _theorem_checks(args, spec, twoqubit.limiting_family, mtol)
    values = {}
    if args.nu:
        grid = np.linspace(4.0, 1.0, 11)
        pre = main_branch_diagonals(2, args.nu, args.c, grid)
        residuals = [float(membership(np.diag(d).astype(np.complex128),
                                      spec, tol=mtol).residual)
                     for d in pre]
        values["prelimit"] = {
            "rounds": args.nu,
            "exponent": args.c,
            "s_grid": [float(s) for s in grid],
            "membership_residuals": residuals,
            "max_residual": max(residuals),
        }
    return {"checks": checks, "values": values}


def _cmd_theorem8(args) -> dict:
    mtol = _theorem_flags(args)
    checks = _theorem_checks(args, twoqubit.instrument_zonoid(),
                             twoqubit.blocked_limiting_family, mtol)

    inst = twoqubit.two_qubit_instrument().instrument
    embedded = qc_embed(inst)
    cmat = choi(embedded, normalized=False).matrix
    d = inst.kraus.input_dim
    do = inst.kraus.output_dim
    n_out = inst.n_outcomes
    # Outcome flag is the last output factor; off-diagonal flag sectors
    # must vanish for a quantum-classical embedding.
    sectors = cmat.reshape(d, do, n_out, d, do, n_out)
    off = ~np.eye(n_out, dtype=bool)
    cross = float(np.abs(sectors.transpose(2, 5, 0, 1, 3, 4)[off])
                  .max(initial=0.0))
    checks.append(_check("cross-sector", cross, tolerances.ROUNDING_TOL))

    iso = twoqubit.blocked_isometry_check()
    checks.append(_check("blocked-isometry", iso.max_row_residual,
                         tolerances.ISOMETRY_TOL))
    checks.append(_check("blocked-coefficients", iso.coefficient_defect,
                         tolerances.ISOMETRY_TOL))
    grain = twoqubit.coarse_grain_check(nodes=args.nodes)
    checks.append(_check("coarse-grain", grain.max_defect,
                         tolerances.COARSE_GRAIN_TOL))
    return {"checks": checks, "values": {}}


def _cmd_paper2q(args) -> dict:
    _protocol_params(2, args.nu, args.c)
    _at_least(args.nodes, "--nodes", 1)
    _refuse_over_budget(args)
    gap = path_distance_bound(2, args.nu, args.c)
    omega = twoqubit.limiting_choi_2q(nodes=args.nodes)
    offdiag = float(np.real(omega.matrix[0, 10]))
    direct = choi(twoqubit.two_qubit_instrument().minimal, normalized=False)
    quad_defect = trace_norm(omega.matrix - direct.matrix)
    iso = twoqubit.continuous_isometry_check(nodes=args.nodes)
    checks = [
        _check("lemma1-bound", gap.max_distance,
               gap.bound + tolerances.ROUNDING_TOL, f"s={gap.worst_s:.6g}"),
        _value_check("choi-offdiag", offdiag, 2.0 / 3.0,
                     tolerances.CLOSED_FORM_TOL),
        _check("choi-quadrature", quad_defect, tolerances.CHOI_QUADRATURE_TOL),
        _value_check("column-norm", iso.last_column_norm, 1.0,
                     tolerances.ISOMETRY_TOL),
        _value_check("column-cross", iso.cross_overlap, 0.0,
                     tolerances.ISOMETRY_TOL),
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
    _refuse_over_budget(args)
    report = pq.pqubit_limit_check(args.parties, nu_list, args.c,
                                   nodes=args.nodes)
    checks = [
        _check("quadrature-match", report.quadrature_defect,
               tolerances.QUADRATURE_TOL),
        _check("party-reduction", report.reduction_defect,
               tolerances.QUADRATURE_TOL),
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
    _refuse_over_budget(args)
    report = twoqubit.wstate_analysis(nodes=args.nodes)
    checks = [
        _check("all-ones-annihilates", report.k1_image_norm,
               tolerances.ROUNDING_TOL),
        _value_check("probability", report.probability, 0.5,
                     tolerances.CLOSED_FORM_TOL),
        _value_check("concurrence", report.concurrence, 8.0 / 9.0,
                     tolerances.CLOSED_FORM_TOL),
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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as InputError: exit 2 with one stderr line."""

    def error(self, message):
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="loccverify",
        description="Verification workflows for asymptotically "
                    "LOCC-implementable channels.")
    sub = p.add_subparsers(dest="command", required=True)

    # Flags shared by several subcommands; each subcommand declares only
    # the ones its handler reads.
    shared = {
        "tol": dict(type=float, default=tolerances.MEMBERSHIP_TOL,
                    help="membership tolerance (finite, > 0)"),
        "nodes": dict(type=int, default=tolerances.QUAD_NODES,
                      help="quadrature nodes"),
        "c": dict(type=float, default=0.5, help="decay exponent in (0, 1)"),
        "sigma-samples": dict(type=int, default=tolerances.SIGMA_SAMPLES),
        "nu-list": dict(default="100,1000,10000",
                        help="comma-separated round counts"),
    }

    def command(name, func, summary, *flags, nu=None):
        sp = sub.add_parser(name, help=summary)
        for flag in flags:
            sp.add_argument("--" + flag, **shared[flag])
        if nu is not None:
            sp.add_argument("--nu", type=int, default=nu)
        sp.set_defaults(func=func)
        return sp

    sp = command("choi", _cmd_choi, "Choi operator of a Kraus set")
    sp.add_argument("--kraus", required=True,
                    help="kraus JSON file, inline JSON, or builtin token")
    sp.add_argument("--unnormalized", action="store_true")

    sp = command("distance", _cmd_distance, "normalized Choi distance")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)

    sp = command("zonoid-check", _cmd_zonoid_check,
                 "zonoid membership of a target", "tol")
    sp.add_argument("--z", default="identity",
                    help="'identity', matrix JSON file, or inline JSON")
    sp.add_argument("--basis", default="twoqubit-minimal",
                    help="basis token (twoqubit-minimal, twoqubit-blocks, "
                         "square, interval) or kraus JSON")

    sp = command("protocol", _cmd_protocol,
                 "build and verify a protocol tree", "c", nu=10)
    sp.add_argument("--parties", type=int, default=2)

    sp = command("paths", _cmd_paths, "main-branch gap to the limit path",
                 "c", nu=100)
    sp.add_argument("--parties", type=int, default=2)
    sp.add_argument("--grid", type=int, default=401)

    sp = command("theorem1", _cmd_theorem1,
                 "path conditions for the limit channel",
                 "tol", "c", "sigma-samples", nu=0)
    sp.add_argument("--samples", type=int, default=0,
                    help="s samples per path (0: dense default grid)")

    sp = command("theorem8", _cmd_theorem8,
                 "blocked path conditions for the instrument",
                 "tol", "nodes", "sigma-samples")
    sp.add_argument("--samples", type=int, default=0)

    command("paper-2q", _cmd_paper2q, "worked two-qubit example checks",
            "c", "nodes", nu=10000)

    sp = command("paper-pq", _cmd_paperpq, "multi-party limit checks",
                 "c", "nodes", "nu-list")
    sp.add_argument("--parties", type=int, default=3)

    command("wstate", _cmd_wstate, "W-state outcome analysis", "nodes")

    sp = command("hausdorff", _cmd_hausdorff, "zonoid convergence estimates",
                 "c", "nu-list")
    sp.add_argument("--samples", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=42)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        start = time.monotonic()
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
