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
    Instrument,
    KrausSet,
    choi,
    choi_distance,
    kraus_from_operators,
    qc_embed,
)
from .linalg import has_finite_norm, trace_norm
from .protocols import (
    ProtocolParams,
    build_protocol_pq,
    main_branch_diagonals,
    path_distance_bound,
    protocol_check_bytes,
    verify_tree,
)
from .conditions import verify_theorem_conditions
from .zonoid import (
    ZonoidSpec,
    _hermitian_input,
    hausdorff_estimate,
    membership,
    support_function,
    zonoid_bytes,
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

# Fixed part of `work_bytes`, and the bytes each s sample of a theorem
# check holds: its operator is a real diagonal, and its coefficient
# stacks, real and dense kappa x kappa, hold the rest.
_FIXED_BYTES = 2 ** 19
_THEOREM_SAMPLE_BYTES = {"theorem1": 896, "theorem8": 1024}
# Bytes each direction of a two-qubit Hausdorff estimate holds.
_HAUSDORFF_SAMPLE_BYTES = 1344
# Bytes each entry of a Choi matrix holds: in `choi` with its printed JSON,
# in `distance` as the padded Choi matrices and their difference.
_CHOI_ENTRY_BYTES = {"choi": 300, "distance": 52}
_SIZE_FLAGS = ("samples", "grid")
_INPUT_COMMANDS = ("choi", "distance", "zonoid-check")


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
    """The JSON value of an inline object or of a file; InputError if it
    cannot be read or parsed, also for a file that is not UTF-8 and for a
    value nested past the parser's recursion limit."""
    inline = text.lstrip().startswith("{")
    try:
        return json.loads(text) if inline else serialize.load_json(text)
    except OSError as exc:
        raise InputError(f"cannot read {text!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        source = "the inline object" if inline else repr(text)
        raise InputError(f"{source} is not valid JSON: {exc}") from exc


def _square_basis() -> KrausSet:
    ops = [np.diag([1.0, 0.0]).astype(np.complex128),
           np.diag([0.0, 1.0]).astype(np.complex128)]
    return kraus_from_operators(ops, (2,))


def _interval_basis() -> KrausSet:
    shift = np.zeros((2, 2), dtype=np.complex128)
    shift[0, 1] = 1.0
    proj = np.diag([1.0, 0.0]).astype(np.complex128)
    return kraus_from_operators([proj, shift], (2,))


def _finite(kraus: KrausSet, flag: str) -> None:
    """InputError unless the operator stack has a finite norm."""
    if not has_finite_norm(kraus.operators):
        raise InputError(f"{flag} must have finite entries and a finite norm")


def _resolve_kraus(token: str, flag: str) -> KrausSet:
    if token == "twoqubit-minimal":
        return twoqubit.two_qubit_instrument().minimal
    if token == "twoqubit-grouped":
        return twoqubit.two_qubit_instrument().instrument.kraus
    obj = _load_obj(token)
    try:
        kraus = serialize.kraus_from_json(obj)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _finite(kraus, flag)
    return kraus


_BASES = {
    "twoqubit-minimal": lambda: twoqubit.two_qubit_instrument().minimal,
    "twoqubit-blocks": lambda: twoqubit.two_qubit_instrument().instrument,
    "square": _square_basis,
    "interval": _interval_basis,
}


def _resolve_basis(token: str) -> KrausSet | Instrument:
    """The basis of --basis: a builtin, a Kraus set or an instrument."""
    if token in _BASES:
        return _BASES[token]()
    obj = _load_obj(token)
    try:
        if isinstance(obj, dict) and "partition" in obj:
            basis = serialize.instrument_from_json(obj)
            _finite(basis.kraus, "--basis")
        else:
            basis = serialize.kraus_from_json(obj)
            _finite(basis, "--basis")
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return basis


def _resolve_target(token: str, dim: int) -> np.ndarray | None:
    """The matrix of --z on C^dim, None for 'identity'."""
    if token == "identity":
        return None
    obj = _load_obj(token)
    try:
        return _hermitian_input(serialize.matrix_from_json(obj), dim, "--z")
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def work_bytes(args, *inputs, z: np.ndarray | None = None) -> int:
    """Peak memory of a run, in bytes: of a theorem1, theorem8, paths,
    paper-2q, paper-pq, wstate or hausdorff run from its parsed flags
    alone, of a choi, distance or zonoid-check run from the shapes of its
    parsed ``inputs`` (the Kraus sets, or the basis as a KrausSet or an
    Instrument) and the parsed target ``z`` (None for the identity).

    Each part grows with one size flag or input: the theorem checks with
    their s samples, the path gap with its grid (2^P entries a
    point), Hausdorff estimates with their directions, and choi and
    distance with the (d d_out)^2 entries of a Choi matrix. A
    zonoid-check run is as :func:`~loccverify.zonoid.zonoid_bytes` counts
    it. The parts are held one after another, so the estimate is a fixed
    part plus the largest.
    Fitted under tracemalloc on CPython 3.11 and numpy 2.4: at least the
    measured peak, and within 1.5 times it once one part passes a few MiB.
    """
    parts = [0]
    if args.command in _CHOI_ENTRY_BYTES:
        d = inputs[0].input_dim
        out = max(k.output_dim for k in inputs)
        parts.append(_CHOI_ENTRY_BYTES[args.command] * (d * out) ** 2)
    if args.command == "zonoid-check":
        parts.append(zonoid_bytes(*inputs, z is None or not z.imag.any()))
    if args.command in _THEOREM_SAMPLE_BYTES:
        # --samples 0 is the dense grid: spacing 0.01 on [1, 4].
        parts.append(_THEOREM_SAMPLE_BYTES[args.command]
                     * (args.samples or 301))
    if args.command == "paths":
        parts.append(args.grid * (36 * 2 ** args.parties + 192))
    if args.command == "hausdorff":
        parts.append(_HAUSDORFF_SAMPLE_BYTES * args.samples)
    return _FIXED_BYTES + max(parts)


def _refuse_over_budget(args, *inputs, z: np.ndarray | None = None) -> None:
    """InputError, before any work, for a run ``work_bytes`` puts above
    the budget."""
    need = work_bytes(args, *inputs, z=z)
    if need > TREE_BYTES_BUDGET:
        sizes = [f"--{name.replace('_', '-')} {getattr(args, name)}"
                 for name in _SIZE_FLAGS if hasattr(args, name)]
        if inputs:
            shapes = [(x.kraus if isinstance(x, Instrument) else x)
                      .operators.shape for x in inputs]
            sizes.append("operators of shape "
                         + " and ".join(map(str, shapes)))
        raise InputError(f"{' '.join(sizes)} needs {need / 2 ** 20:.1f} "
                         f"MiB, above the {TREE_BYTES_BUDGET // 2 ** 20} "
                         "MiB budget")


def _cmd_choi(args) -> dict:
    kraus = _resolve_kraus(args.kraus, "--kraus")
    _refuse_over_budget(args, kraus)
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
    a = _resolve_kraus(args.a, "--a")
    b = _resolve_kraus(args.b, "--b")
    if a.input_dim != b.input_dim:
        raise InputError(f"--a and --b differ in input dimension "
                         f"({a.input_dim} and {b.input_dim})")
    _refuse_over_budget(args, a, b)
    dist = choi_distance(choi(a), choi(b))
    return {"checks": [], "values": {"choi_distance": float(dist)}}


def _cmd_zonoid_check(args) -> dict:
    basis = _resolve_basis(args.basis)
    kraus = basis.kraus if isinstance(basis, Instrument) else basis
    z = _resolve_target(args.z, kraus.input_dim)
    _refuse_over_budget(args, basis, z=z)
    try:
        spec = (zonoid_spec_for_instrument(basis)
                if isinstance(basis, Instrument) else ZonoidSpec(basis))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if z is None:
        z = np.eye(spec.dim, dtype=np.complex128)
    report = membership(z, spec, tol=args.tol)
    values = {
        "feasible": report.feasible,
        "residual": float(report.residual),
        "iterations": int(report.iterations),
        "stop": report.stop,
        "phase": report.phase,
        "separating": (None if report.separating is None
                       else serialize.matrix_to_json(report.separating)),
        "gap": None if report.gap is None else float(report.gap),
        "support_identity": float(
            support_function(np.eye(spec.dim, dtype=np.complex128), spec)),
    }
    checks = [_check("membership", report.residual, args.tol)]
    return {"checks": checks, "values": values}


def _protocol_params(parties: int, rounds: int, exponent: float
                     ) -> ProtocolParams:
    """The protocol of --parties, --nu and --c. The parser holds each
    flag's range; this refuses the rounds at which eta = 1 - rounds^(-c)
    rounds to 1."""
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
    report = path_distance_bound(params.parties, params.rounds,
                                 params.exponent, grid_points=args.grid)
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


def _theorem_checks(args, spec: ZonoidSpec, family) -> list:
    paths, fams = family(spec)
    # --samples 0 selects the dense default grid.
    report = verify_theorem_conditions(
        spec, paths, fams, s_samples=args.samples or None,
        membership_tol=args.tol)
    return [_check(c.name, c.defect, c.tol, c.where) for c in report.checks]


def _cmd_theorem1(args) -> dict:
    if args.nu:
        _protocol_params(2, args.nu, args.c)
    spec = twoqubit.channel_zonoid()
    checks = _theorem_checks(args, spec, twoqubit.limiting_family)
    values = {}
    if args.nu:
        grid = np.linspace(4.0, 1.0, 11)
        pre = main_branch_diagonals(2, args.nu, args.c, grid)
        residuals = [float(membership(np.diag(d).astype(np.complex128),
                                      spec, tol=args.tol).residual)
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
    checks = _theorem_checks(args, twoqubit.instrument_zonoid(),
                             twoqubit.blocked_limiting_family)

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
    grain = twoqubit.coarse_grain_check()
    checks.append(_check("coarse-grain", grain.max_defect,
                         tolerances.COARSE_GRAIN_TOL))
    return {"checks": checks, "values": {}}


def _cmd_paper2q(args) -> dict:
    _protocol_params(2, args.nu, args.c)
    gap = path_distance_bound(2, args.nu, args.c)
    omega = twoqubit.limiting_choi_2q()
    offdiag = float(np.real(omega.matrix[0, 10]))
    direct = choi(twoqubit.two_qubit_instrument().minimal, normalized=False)
    quad_defect = trace_norm(omega.matrix - direct.matrix)
    iso = twoqubit.continuous_isometry_check()
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
    """The --nu-list value: two or more comma-separated round counts,
    each a valid protocol with ``parties`` and ``exponent``. One count
    would pass every "decreasing" check vacuously."""
    try:
        rounds = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise InputError(f"--nu-list: {exc}") from exc
    if len(rounds) < 2:
        raise InputError("--nu-list needs at least two round counts")
    for nu in rounds:
        _protocol_params(parties, nu, exponent)
    return rounds


def _cmd_paperpq(args) -> dict:
    nu_list = _rounds_list(args.nu_list, args.parties, args.c)
    report = pq.pqubit_limit_check(args.parties, nu_list, args.c)
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
    report = twoqubit.wstate_analysis()
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


def _ranged(kind, low, high=math.inf, *, open_ends: bool = False):
    """An argparse type: a number of ``kind`` in [low, high], or with
    ``open_ends`` in (low, high), which refuses inf and NaN too."""
    if open_ends:
        rule = (f"must be finite and above {low}" if high == math.inf
                else f"must lie in ({low}, {high})")
    else:
        rule = (f"must be at least {low}" if high == math.inf
                else f"must lie in [{low}, {high}]")

    def parse(text: str):
        value = kind(text)
        if not (low < value < high if open_ends else low <= value <= high):
            raise argparse.ArgumentTypeError(rule)
        return value

    # argparse names the type in "invalid int value: 'x'".
    parse.__name__ = kind.__name__
    return parse


_COUNT = _ranged(int, 0)
_POSITIVE = _ranged(int, 1)
_EXPONENT = _ranged(float, 0, 1, open_ends=True)


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
    # The tree and the path gap hold 2^P x 2^P matrices.
    parties = _ranged(int, pq.MIN_PARTIES, pq.MAX_PARTIES)

    # Flags shared by several subcommands; each subcommand declares only
    # the ones its handler reads.
    shared = {
        "tol": dict(type=_ranged(float, 0, open_ends=True),
                    default=tolerances.MEMBERSHIP_TOL,
                    help="membership tolerance (finite, > 0)"),
        "c": dict(type=_EXPONENT, default=0.5,
                  help="decay exponent in (0, 1)"),
        "nu-list": dict(default="100,1000,10000",
                        help="comma-separated round counts"),
    }

    def command(name, func, summary, *flags, nu=None):
        sp = sub.add_parser(name, help=summary)
        for flag in flags:
            sp.add_argument("--" + flag, **shared[flag])
        if nu is not None:
            # theorem1's default --nu 0 adds no pre-limit values.
            sp.add_argument("--nu", type=_POSITIVE if nu else _COUNT,
                            default=nu)
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
    sp.add_argument("--parties", type=parties, default=2)

    sp = command("paths", _cmd_paths, "main-branch gap to the limit path",
                 "c", nu=100)
    sp.add_argument("--parties", type=parties, default=2)
    sp.add_argument("--grid", type=_POSITIVE, default=401)

    sp = command("theorem1", _cmd_theorem1,
                 "path conditions for the limit channel",
                 "tol", "c", nu=0)
    sp.add_argument("--samples", type=_COUNT, default=0,
                    help="s samples per path (0: dense default grid)")

    sp = command("theorem8", _cmd_theorem8,
                 "blocked path conditions for the instrument",
                 "tol")
    sp.add_argument("--samples", type=_COUNT, default=0)

    command("paper-2q", _cmd_paper2q, "worked two-qubit example checks",
            "c", nu=10000)

    sp = command("paper-pq", _cmd_paperpq, "multi-party limit checks",
                 "c", "nu-list")
    sp.add_argument("--parties", type=parties, default=3)

    command("wstate", _cmd_wstate, "W-state outcome analysis")

    sp = command("hausdorff", _cmd_hausdorff, "zonoid convergence estimates",
                 "c", "nu-list")
    sp.add_argument("--samples", type=_COUNT, default=2000)
    sp.add_argument("--seed", type=_COUNT, default=42)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # Runs sized by their flags are refused here; choi, distance and
        # zonoid-check once their inputs are parsed, and protocol by the
        # bytes of its tree.
        if args.command not in _INPUT_COMMANDS:
            _refuse_over_budget(args)
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
