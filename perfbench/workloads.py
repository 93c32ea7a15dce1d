"""Seeded job lists, input building, job execution and answer checks.

Three closed-loop workloads drive the package through its public
functions, one job at a time:

- ``protocol``: tree builds with ``verify_tree`` (a tenth of them with an
  injected fault) and convergence-study rows. ``zonoid`` is never called.
- ``theorem``: bodies of the ``theorem1`` and ``theorem8`` CLI subcommands
  and, every fifth job, a pre-limit main-branch membership sweep.
- ``geometry``: independent membership targets, Hausdorff estimates,
  separation gaps and support-function calls on the built-in bases.

A job list is plain JSON data drawn from the seed, so it can be compared
byte for byte. Sizes are stratified: every seed gets the same mix of job
types and size classes and the seed picks the values inside each class,
which keeps the total work of a list nearly independent of the seed.

Every answer is checked by numpy code in this file, never by the solver
that produced it: membership witnesses are re-derived from the basis
operators, outside targets carry a constructed separating direction, and
deterministic values are compared with references recorded at the commit
that introduced this benchmark (``reference.json``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("protocol", "theorem", "geometry")

# Nominal seconds of one pass at the seed commit on a 2-core x86 machine.
# The number of passes in a run is derived from ``--seconds`` and these
# constants, never from a clock, so both sides of a comparison run the
# same jobs and the tail percentile is computed over the same count.
NOMINAL_PASS_S = {"protocol": 12.0, "theorem": 10.0, "geometry": 2.4}

EXPONENTS = (0.4, 0.5, 0.6)
ROW_FACTORS = (0.96, 0.98, 1.0, 1.02, 1.04)
# A seed picks one small and one large pre-limit round count, built once
# in set-up; passes alternate between them. 500 directions keep the
# estimate below the membership tail, which is what job_tail_s tracks here.
HAUSDORFF_ROUNDS = ((100, 200, 300), (1000, 1500, 2000))
HAUSDORFF_SAMPLES = 500
HAUSDORFF_SEEDS = (0, 1, 2, 3)
HAUSDORFF_EXPONENT = 0.5

# (parties, parties * rounds) size classes of tree jobs in one pass.
TREE_CLASSES = (
    (2, 4000), (3, 1500), (4, 800),
    (2, 1000), (3, 500), (4, 300),
    (2, 300), (3, 180), (4, 120),
    (2, 100), (3, 60), (4, 40),
    (2, 40), (3, 24), (4, 16),
    (2, 20), (3, 12), (4, 8),
    (2, 4), (3, 3),
)
# (parties, rounds centre) of convergence-study rows in one pass; the
# rounds are drawn from centre * ROW_FACTORS so references can be tabulated.
ROW_CLASSES = ((2, 9000), (2, 900), (2, 90), (3, 900), (3, 90), (4, 270),
               (4, 27))
# s_samples ranges of the theorem jobs in one pass;
# theorem8 dominates so that membership does nearly all the work.
THEOREM1_SAMPLES = ((41, 62),)
THEOREM8_SAMPLES = tuple((s, s + 4) for s in range(12, 40, 4))
# (rounds range, exponent or None for a seeded one) of the sweeps in one
# pass. At the seed commit the first class needs about 11k solver
# iterations per sweep and the second a few hundred.
SWEEP_CLASSES = (((20, 41), 0.5), ((150, 301), None))
GEOMETRY_BASES = ("square", "interval", "twoqubit-minimal",
                  "twoqubit-blocks")
# Per basis and pass: membership targets by kind, then calls of the other
# geometry functions.
GEOMETRY_TARGETS = {"interior": 40, "face": 40, "outside": 8}
SUPPORT_PER_BASIS = 2
SUPPORT_DIRECTIONS = 16
SEPARATION_SAMPLES = 500

MEMBERSHIP_TOL = 1e-7
WITNESS_BOX_TOL = 1e-9
REF_RTOL = 1e-9
REF_ATOL = 1e-14
CHOI_ROUTE_TOL = 1e-12
LEAF_VISIBLE = 1e-6
OFFDIAG_BUMP = 1e-6
LEAF_SCALE = 1.01

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def passes_for(workload: str, seconds: float) -> int:
    """Passes in a run: at least two, about ``seconds`` at the seed commit."""
    return max(2, int(round(seconds / NOMINAL_PASS_S[workload])))


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _gaussian(rng: np.random.Generator, n: int) -> list:
    return rng.standard_normal((2, n, n)).tolist()


def row_rounds(centre: int) -> list[int]:
    return [int(round(centre * f)) for f in ROW_FACTORS]


def _tree_job(rng, parties: int, size: int) -> dict:
    rounds = max(1, int(round(size * rng.uniform(0.97, 1.03) / parties)))
    return {"kind": "tree", "parties": parties, "rounds": rounds,
            "c": float(rng.choice(EXPONENTS)), "fault": None}


def _leaf_fault(rng, job: dict) -> dict:
    """A halt leaf large enough that a 1% change exceeds the sum tolerance.

    The halt leaf of step k = n * P + l has largest entry eps * eta**n, so
    only steps with eps * eta**n >= LEAF_VISIBLE are candidates.
    """
    p, rounds, c = job["parties"], job["rounds"], job["c"]
    eps = rounds ** (-c)
    eta = 1.0 - eps
    if eta <= 0.0:
        n_max = rounds - 1
    else:
        n_max = int(math.floor(math.log(LEAF_VISIBLE / eps) / math.log(eta)))
    n_max = max(0, min(rounds - 1, n_max))
    n = int(rng.integers(0, n_max + 1))
    return {"type": "leaf-scale", "step": n * p + int(rng.integers(0, p))}


def _protocol_pass(rng) -> list[dict]:
    trees = [_tree_job(rng, p, size) for p, size in TREE_CLASSES]
    leaf_i, node_i = rng.choice(len(trees), size=2, replace=False)
    trees[leaf_i]["fault"] = _leaf_fault(rng, trees[leaf_i])
    bumped = trees[node_i]
    bumped["fault"] = {
        "type": "offdiag",
        "depth": int(rng.integers(1, bumped["parties"] * bumped["rounds"] + 1)),
    }
    rows = [{"kind": "row", "parties": p,
             "rounds": int(rng.choice(row_rounds(centre))),
             "c": float(rng.choice(EXPONENTS))}
            for p, centre in ROW_CLASSES]
    jobs = trees + rows
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _theorem_pass(rng) -> list[dict]:
    body = [{"kind": kind, "s_samples": int(rng.integers(*span))}
            for kind, classes in (("theorem1", THEOREM1_SAMPLES),
                                  ("theorem8", THEOREM8_SAMPLES))
            for span in classes]
    body = [body[i] for i in rng.permutation(len(body))]
    sweeps = [{"kind": "sweep", "rounds": int(rng.integers(*span)),
               "c": float(rng.choice(EXPONENTS)) if c is None else c}
              for span, c in SWEEP_CLASSES]
    sweeps = [sweeps[i] for i in rng.permutation(len(sweeps))]
    jobs = []
    for i, job in enumerate(body):
        jobs.append(job)
        if i % 4 == 3:
            jobs.append(sweeps[i // 4])
    return jobs


def _block_sizes(basis: str) -> tuple[int, ...]:
    return {"square": (2,), "interval": (2,), "twoqubit-minimal": (4,),
            "twoqubit-blocks": (1, 2, 2)}[basis]


def _box_recipe(rng, basis: str, face: bool) -> list[dict]:
    blocks = []
    for n in _block_sizes(basis):
        eigs = rng.uniform(0.05, 0.95, n)
        blocks.append({"eigs": eigs.tolist(), "g": _gaussian(rng, n)})
    if face:
        # Pin one eigenvalue of at least one block to a face of the box.
        hit = rng.random(len(blocks)) < 0.5
        hit[rng.integers(len(blocks))] = True
        for blk, on in zip(blocks, hit):
            if on:
                blk["eigs"][int(rng.integers(len(blk["eigs"])))] = float(
                    rng.integers(0, 2))
    return blocks


def _dim(basis: str) -> int:
    return 4 if basis.startswith("twoqubit") else 2


def _target_recipe(rng, basis: str, kind: str, stratum: int = 0,
                   strata: int = 1) -> dict:
    if kind == "outside":
        # Log-uniform margin in [1e-3, 1e-1], inside one of ``strata``
        # equal slices of that range.
        u = (stratum + rng.random()) / strata
        return {"basis": basis, "target": "outside",
                "direction": _gaussian(rng, _dim(basis)),
                "margin": float(10.0 ** (-3.0 + 2.0 * u))}
    return {"basis": basis, "target": kind,
            "box": _box_recipe(rng, basis, kind == "face")}


def _geometry_pass(rng, rounds: int) -> list[dict]:
    jobs = []
    for basis in GEOMETRY_BASES:
        for kind, count in GEOMETRY_TARGETS.items():
            jobs += [dict(_target_recipe(rng, basis, kind, k, count),
                          kind="member") for k in range(count)]
        for kind in ("outside", "interior"):
            jobs.append(dict(_target_recipe(rng, basis, kind),
                             kind="separation",
                             gap_seed=int(rng.integers(0, 2 ** 31))))
        for _ in range(SUPPORT_PER_BASIS):
            jobs.append({"kind": "support", "basis": basis,
                         "directions": [_gaussian(rng, _dim(basis))
                                        for _ in range(SUPPORT_DIRECTIONS)]})
    jobs.append({"kind": "hausdorff", "rounds": rounds,
                 "samples": HAUSDORFF_SAMPLES,
                 "seed": int(rng.choice(HAUSDORFF_SEEDS))})
    return [jobs[i] for i in rng.permutation(len(jobs))]


def make_jobs(workload: str, seed: int, passes: int) -> list[list[dict]]:
    """Job list of a run: ``passes`` stratified passes drawn from ``seed``."""
    rng = _rng(workload, seed)
    if workload == "geometry":
        rounds = [int(rng.choice(r)) for r in HAUSDORFF_ROUNDS]
        return [_geometry_pass(rng, rounds[k % 2]) for k in range(passes)]
    make = _protocol_pass if workload == "protocol" else _theorem_pass
    return [make(rng) for _ in range(passes)]


def warmup_job(workload: str, seed: int) -> dict:
    """One small job of the workload, run untimed during set-up."""
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload), 1])
    if workload == "protocol":
        return _tree_job(rng, 2, 100)
    if workload == "theorem":
        return {"kind": "theorem8", "s_samples": 5}
    return dict(_target_recipe(rng, "twoqubit-blocks", "face"), kind="member")


def dumps_jobs(jobs) -> bytes:
    return json.dumps(jobs, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------- checks

class CheckFailed(Exception):
    """A job's answer disagrees with what the benchmark can prove."""


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def match_reference(name: str, got: float, want: float):
    err = abs(got - want)
    require(err <= REF_ATOL + REF_RTOL * abs(want),
            f"{name}: {got!r} differs from reference {want!r} by {err:.3e}")


def gram_operators(ops: np.ndarray) -> np.ndarray:
    """G[m, n] = K_m^dag K_n from the basis operators."""
    return np.einsum("mba,nbc->mnac", ops.conj(), ops)


def zonoid_image(gram: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_mn C_mn K_m^dag K_n."""
    return np.einsum("mn,mnac->ac", c, gram)


def witness_residual(witness: np.ndarray, z: np.ndarray, gram: np.ndarray,
                     blocks, what: str) -> float:
    """||L(C) - z|| of a witness C, after checking that C lies in the box."""
    w = np.asarray(witness, dtype=np.complex128)
    mask = np.zeros(w.shape, dtype=bool)
    for blk in blocks:
        mask[np.ix_(blk, blk)] = True
    require(float(np.abs(w[~mask]).max(initial=0.0)) == 0.0,
            f"{what}: witness couples blocks")
    for blk in blocks:
        sub = w[np.ix_(blk, blk)]
        eig = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
        require(eig[0] >= -WITNESS_BOX_TOL and eig[-1] <= 1 + WITNESS_BOX_TOL,
                f"{what}: witness eigenvalues [{eig[0]:.3e}, {eig[-1]:.3e}]"
                " leave the box")
    return float(np.linalg.norm(zonoid_image(gram, w) - z))


def check_witness(witness: np.ndarray, z: np.ndarray, gram: np.ndarray,
                  blocks, what: str):
    """A feasible answer's witness lies in the box and maps onto z."""
    res = witness_residual(witness, z, gram, blocks, what)
    require(res <= MEMBERSHIP_TOL,
            f"{what}: witness residual {res:.3e} above {MEMBERSHIP_TOL}")


def check_membership(rep, z: np.ndarray, gram: np.ndarray, blocks,
                     what: str):
    """A membership report whose expected answer the benchmark cannot prove.

    A feasible answer needs a valid witness. An infeasible one must return
    a box witness whose residual, recomputed here, is the reported one and
    above the tolerance.
    """
    if rep.feasible:
        check_witness(rep.witness.matrix, z, gram, blocks, what)
        return
    res = witness_residual(rep.witness.matrix, z, gram, blocks, what)
    require(res > MEMBERSHIP_TOL
            and abs(res - rep.residual) <= 1e-9 * (1.0 + res),
            f"{what}: infeasible with residual {rep.residual!r}, "
            f"recomputed {res!r}")


def support_value(gram: np.ndarray, blocks, x: np.ndarray):
    """h(x) and a maximiser C with Re<x, L(C)> = h(x).

    Re<x, L(C)> = Re Tr(C A) with A[p, m] = Tr(x K_m^dag K_p), so the
    maximum over the box is the sum of positive eigenvalues of A per block,
    attained at the projector onto their eigenvectors.
    """
    a = np.einsum("ab,mpba->pm", x, gram)
    c = np.zeros(a.shape, dtype=np.complex128)
    total = 0.0
    for blk in blocks:
        sub = a[np.ix_(blk, blk)]
        w, v = np.linalg.eigh(0.5 * (sub + sub.conj().T))
        pos = v[:, w > 0.0]
        total += float(w[w > 0.0].sum())
        c[np.ix_(blk, blk)] = pos @ pos.conj().T
    return total, c


def support_values(gram: np.ndarray, blocks, xs: np.ndarray) -> np.ndarray:
    """h(x) for a stack of directions, as in ``support_value``."""
    a = np.einsum("kab,mpba->kpm", xs, gram)
    total = np.zeros(len(xs))
    for blk in blocks:
        sub = a[:, blk][:, :, blk]
        w = np.linalg.eigvalsh(0.5 * (sub + sub.conj().transpose(0, 2, 1)))
        total += np.where(w > 0.0, w, 0.0).sum(axis=1)
    return total


def gap_directions(d: int, samples: int, seed: int) -> np.ndarray:
    """The directions ``separation_gap`` documents: the canonical Hermitian
    basis, then ``samples`` seeded Gaussian Hermitian unit directions."""
    dirs = []
    for i in range(d):
        e = np.zeros((d, d), dtype=np.complex128)
        e[i, i] = 1.0
        dirs.append(e)
    r = 1.0 / math.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[i, j] = e[j, i] = r
            f = np.zeros((d, d), dtype=np.complex128)
            f[i, j], f[j, i] = -1j * r, 1j * r
            dirs += [e, f]
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = 0.5 * (g + g.conj().T)
        nrm = np.linalg.norm(h)
        if nrm > 0.0:
            dirs.append(h / nrm)
    return np.array(dirs)


def hermitian_unit(g) -> np.ndarray:
    g = np.asarray(g)
    h = g[0] + 1j * g[1]
    h = 0.5 * (h + h.conj().T)
    return h / np.linalg.norm(h)


def unitary(g) -> np.ndarray:
    g = np.asarray(g)
    q, r = np.linalg.qr(g[0] + 1j * g[1])
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# ------------------------------------------------------------- execution

class Workload:
    """Set-up state of one workload plus the code that runs its jobs.

    ``lv`` is the imported package; every call into it goes through a
    public attribute of that module so a tracer can wrap it.
    """

    def __init__(self, lv, name: str, reference: dict):
        self.lv = lv
        self.name = name
        self.ref = reference
        self.bases = {}
        self.prelimit = {}

    # set-up -------------------------------------------------------------

    def build_basis(self, name: str):
        """The four built-in bases of the ``zonoid-check`` subcommand."""
        lv = self.lv
        if name == "twoqubit-minimal":
            spec = lv.channel_zonoid()
        elif name == "twoqubit-blocks":
            spec = lv.instrument_zonoid()
        else:
            proj = np.diag([1.0, 0.0]).astype(np.complex128)
            if name == "square":
                other = np.diag([0.0, 1.0]).astype(np.complex128)
            else:
                other = np.zeros((2, 2), dtype=np.complex128)
                other[0, 1] = 1.0
            spec = lv.ZonoidSpec(lv.kraus_from_operators([proj, other], (2,)))
        lv.support_function(np.eye(spec.dim, dtype=np.complex128), spec)
        blocks = [list(b) for b in spec.block_list()]
        self.bases[name] = (spec, gram_operators(spec.basis.operators),
                            blocks)

    def build_prelimit(self, rounds: int):
        lv = self.lv
        spec = lv.zonoid_spec_for_channel(
            lv.prelimit_channel(rounds, HAUSDORFF_EXPONENT))
        lv.support_function(np.eye(spec.dim, dtype=np.complex128), spec)
        self.prelimit[rounds] = spec

    def build(self, jobs):
        """Build the bases and pre-limit zonoids the jobs read, once."""
        if self.name == "geometry":
            for name in GEOMETRY_BASES:
                if name not in self.bases:
                    self.build_basis(name)
            for job in jobs:
                if job["kind"] == "hausdorff" and \
                        job["rounds"] not in self.prelimit:
                    self.build_prelimit(job["rounds"])

    def prepare(self, jobs):
        """Runnable job records; geometry targets become matrices here."""
        self.build(jobs)
        return [self._prepare_job(job) for job in jobs]

    def _prepare_job(self, job: dict) -> dict:
        run = dict(job)
        if "target" in job:
            run.update(self._make_target(job))
        return run

    def _make_target(self, job: dict) -> dict:
        spec, gram, blocks = self.bases[job["basis"]]
        if job["target"] == "outside":
            x = hermitian_unit(job["direction"])
            h, c_max = support_value(gram, blocks, x)
            y = zonoid_image(gram, c_max)
            z = y + job["margin"] * x
            z = 0.5 * (z + z.conj().T)
            gap = float(np.real(np.vdot(x, z))) - h
            # The constructed direction itself proves the point is outside.
            require(gap > 0.5 * job["margin"],
                    f"outside target has gap {gap:.3e}")
            return {"z": z, "gap": gap}
        c = np.zeros((spec.kappa, spec.kappa), dtype=np.complex128)
        for blk, rec in zip(blocks, job["box"]):
            u = unitary(rec["g"])
            c[np.ix_(blk, blk)] = (u * np.asarray(rec["eigs"])) @ u.conj().T
        z = zonoid_image(gram, c)
        return {"z": 0.5 * (z + z.conj().T)}

    # jobs ---------------------------------------------------------------

    def run(self, job: dict):
        getattr(self, "_job_" + job["kind"])(job)

    def _job_tree(self, job: dict):
        lv = self.lv
        p, rounds = job["parties"], job["rounds"]
        tree = lv.build_protocol_pq(p, rounds, job["c"])
        fault = job["fault"]
        if fault is not None:
            expect = _inject(tree, fault, p)
        report = lv.verify_tree(tree)
        require(report.n_nodes == 2 * p * rounds + 1,
                f"tree has {report.n_nodes} nodes")
        require(report.n_leaves == p * rounds + 1,
                f"tree has {report.n_leaves} leaves")
        if fault is None:
            require(report.ok and not report.failures,
                    f"valid tree flagged: {report.failures[:3]}")
            return
        require(not report.ok, f"{fault['type']} fault not detected")
        kind, path = expect
        require(any(f.kind == kind and tuple(f.node_path) == path
                    for f in report.failures),
                f"{fault['type']} fault not flagged as {kind} at depth "
                f"{len(path)}")

    def _job_row(self, job: dict):
        lv = self.lv
        p, rounds, c = job["parties"], job["rounds"], job["c"]
        ref = self.ref["rows"][f"{p}:{rounds}:{c}"]
        path = lv.main_branch_path(p, rounds, c)
        require(abs(path.s_top - 2.0 ** p) <= 1e-12
                and path.s_bottom >= 1.0 - 1e-12
                and path.s_values.size <= p * rounds + 1,
                "main branch path has the wrong domain")
        gap = lv.path_distance_bound(p, rounds, c)
        require(gap.passed, f"path gap {gap.max_distance} above bound")
        match_reference("path gap", gap.max_distance, ref["gap"])
        dist = lv.multiplier_distance(p, lv.prelimit_coefficients(p, rounds, c),
                                      lv.pqubit_coefficients(p))
        match_reference("multiplier distance", dist, ref["mdist"])
        if p == 2:
            pre = lv.prelimit_channel(rounds, c)
            choi_dist = lv.choi_distance(lv.choi(pre), lv.limiting_choi_2q())
            require(abs(choi_dist - dist) <= CHOI_ROUTE_TOL,
                    f"Choi route {choi_dist!r} != multiplier {dist!r}")

    def _job_theorem1(self, job: dict):
        lv = self.lv
        spec = lv.channel_zonoid()
        paths, fams = lv.limiting_family(spec)
        report = lv.verify_theorem_conditions(
            spec, paths, fams, s_samples=job["s_samples"],
            membership_tol=MEMBERSHIP_TOL)
        _require_report(report)

    def _job_theorem8(self, job: dict):
        lv = self.lv
        spec = lv.instrument_zonoid()
        paths, fams = lv.blocked_limiting_family(spec)
        report = lv.verify_theorem_conditions(
            spec, paths, fams, s_samples=job["s_samples"],
            membership_tol=MEMBERSHIP_TOL)
        _require_report(report)
        inst = lv.two_qubit_instrument().instrument
        cmat = lv.choi(lv.qc_embed(inst), normalized=False).matrix
        d, do, n_out = (inst.kraus.input_dim, inst.kraus.output_dim,
                        inst.n_outcomes)
        sectors = cmat.reshape(d, do, n_out, d, do, n_out)
        cross = max(float(np.abs(sectors[:, :, r, :, :, q]).max())
                    for r in range(n_out) for q in range(n_out) if r != q)
        require(cross <= 1e-12, f"cross-sector {cross:.3e}")
        iso = lv.blocked_isometry_check()
        require(iso.max_row_residual <= 1e-10
                and iso.coefficient_defect <= 1e-10, "blocked isometry")
        grain = lv.coarse_grain_check(nodes=64)
        require(grain.max_defect <= 1e-9, f"coarse grain {grain.max_defect}")

    def _job_sweep(self, job: dict):
        lv = self.lv
        spec = lv.channel_zonoid()
        gram = gram_operators(spec.basis.operators)
        blocks = [list(b) for b in spec.block_list()]
        path = lv.main_branch_path(2, job["rounds"], job["c"])
        for s in np.linspace(4.0, 1.0, 11):
            z = path.at(float(s), clamp=True)
            rep = lv.membership(z, spec, tol=MEMBERSHIP_TOL)
            check_membership(rep, z, gram, blocks, f"s={s:.3f}")

    def _job_member(self, job: dict):
        spec, gram, blocks = self.bases[job["basis"]]
        rep = self.lv.membership(job["z"], spec, tol=MEMBERSHIP_TOL)
        if job["target"] == "outside":
            require(not rep.feasible,
                    f"outside point (gap {job['gap']:.3e}) reported inside")
            return
        require(rep.feasible, f"{job['target']} point reported outside")
        check_witness(rep.witness.matrix, job["z"], gram, blocks,
                      job["target"])

    def _job_separation(self, job: dict):
        spec, gram, blocks = self.bases[job["basis"]]
        z = job["z"]
        gap = self.lv.separation_gap(z, spec, samples=SEPARATION_SAMPLES,
                                     seed=job["gap_seed"])
        # No direction separates a point of the zonoid, and no direction
        # separates z by more than its distance to the zonoid.
        limit = job.get("gap", 0.0)
        require(gap <= limit + 1e-9,
                f"separation gap {gap:.3e} exceeds {limit:.3e}")
        xs = gap_directions(spec.dim, SEPARATION_SAMPLES, job["gap_seed"])
        want = float(np.max(np.real(np.einsum("kab,ab->k", xs.conj(), z))
                            - support_values(gram, blocks, xs)))
        require(abs(gap - want) <= 1e-10 * (1.0 + abs(want)),
                f"separation gap {gap!r} != {want!r}")

    def _job_support(self, job: dict):
        spec, gram, blocks = self.bases[job["basis"]]
        for g in job["directions"]:
            x = hermitian_unit(g)
            got = self.lv.support_function(x, spec)
            want, _ = support_value(gram, blocks, x)
            require(abs(got - want) <= 1e-10 * (1.0 + abs(want)),
                    f"support {got!r} != {want!r}")

    def _job_hausdorff(self, job: dict):
        spec = self.prelimit[job["rounds"]]
        limit = self.bases["twoqubit-minimal"][0]
        got = self.lv.hausdorff_estimate(spec, limit, samples=job["samples"],
                                         seed=job["seed"])
        key = f"{job['rounds']}:{job['samples']}:{job['seed']}"
        match_reference("Hausdorff estimate", got, self.ref["hausdorff"][key])


def _require_report(report):
    bad = [f"{c.name}={c.defect:.3e}" for c in report.checks if not c.passed]
    require(report.passed, "theorem checks failed: " + ", ".join(bad))


def _inject(tree, fault: dict, parties: int):
    """Corrupt one node in place; return the (kind, path) it must raise."""
    if fault["type"] == "leaf-scale":
        parent = (1,) * fault["step"]
        leaf = tree.node_at(parent + (0,))
        require(float(np.abs(leaf.povm_element).max()) >= LEAF_VISIBLE,
                "fault leaf too small to be visible")
        leaf.povm_element = leaf.povm_element * LEAF_SCALE
        return "leaf-sum", parent
    path = (1,) * fault["depth"]
    node = tree.node_at(path)
    bumped = node.povm_element.copy()
    bumped[0, 1] += OFFDIAG_BUMP
    bumped[1, 0] += OFFDIAG_BUMP
    node.povm_element = bumped
    return "product", path
