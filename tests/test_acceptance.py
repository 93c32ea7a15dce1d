"""Acceptance gate: one test per shipped guarantee, with live status lines.

Each test prints "[acceptance] criterion N: PASS/FAIL" directly to the
terminal before asserting, so the gate's state is visible in any pytest
run. Criterion 4 is split: its grid-positivity, resolution, and membership
clauses for the limit path are test_criterion_4_limit_membership; its
pre-limit clause, test_criterion_4_prelimit_exclusion, certifies that the
100-round main branch stays inside the limit zonoid, re-checking every
solver witness against the box and against the image rebuilt from the
reduced Kraus operators. That clause once expected the branch to leave the
zonoid; CHANGES.md records the derivation showing it cannot.
"""

import time

import numpy as np
import pytest

from loccverify import (
    PartyDims,
    ZonoidSpec,
    blocked_isometry_check,
    build_protocol_pq,
    channel_zonoid,
    choi,
    choi_distance,
    coarse_grain_check,
    concurrence,
    continuous_isometry_check,
    hausdorff_estimate,
    instrument_zonoid,
    integrate_sqrt_smooth,
    isometric_relation,
    kraus_from_operators,
    kraus_rank,
    limiting_choi_2q,
    main_branch_path,
    membership,
    minimal_kraus,
    multiplier_distance,
    path_distance_bound,
    pqubit_choi_formula,
    pqubit_coefficients,
    pqubit_apply,
    prelimit_coefficients,
    qc_embed,
    quadrature_coefficients,
    support_function,
    trace_norm,
    two_qubit_instrument,
    verify_tree,
    wstate_analysis,
)
from loccverify.linalg import diagonal_stack
from loccverify.protocols import limit_path_diagonals
from loccverify.twoqubit import K_GROUPED, K_REDUCED, c_matrix_stack

from conftest import random_channel, random_density


def announce(capsys, number: str, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[acceptance] criterion {number}: "
              f"{'PASS' if ok else 'FAIL'}{tail}")


def test_criterion_1_choi_reproduction(capsys):
    t0 = time.monotonic()
    om = limiting_choi_2q()
    e_cross_1 = abs(om.matrix[0, 5] - 2.0 / 3.0)
    e_cross_2 = abs(om.matrix[0, 10] - 2.0 / 3.0)
    direct = choi(two_qubit_instrument().minimal, normalized=False)
    e_quad = trace_norm(om.matrix - direct.matrix)
    elapsed = time.monotonic() - t0
    ok = (e_cross_1 <= 1e-9 and e_cross_2 <= 1e-9 and e_quad <= 1e-8
          and elapsed < 1.0)
    announce(capsys, "1", ok, f"cross defects {e_cross_1:.1e}/{e_cross_2:.1e},"
             f" quadrature gap {e_quad:.1e}, {elapsed:.2f}s")
    assert e_cross_1 <= 1e-9
    assert e_cross_2 <= 1e-9
    assert e_quad <= 1e-8
    assert elapsed < 1.0


def test_criterion_2_path_convergence_bound(capsys):
    t0 = time.monotonic()
    cases = [(100, 0.5), (1000, 0.5), (10000, 0.5), (1000, 0.3)]
    reports = {case: path_distance_bound(2, case[0], case[1],
                                         grid_points=401)
               for case in cases}
    bounded = all(r.max_distance <= np.sqrt(3.0) * r.epsilon + 1e-12
                  for r in reports.values())
    seq = [reports[(nu, 0.5)].max_distance for nu in (100, 1000, 10000)]
    decreasing = seq[0] > seq[1] > seq[2]
    elapsed = time.monotonic() - t0
    ok = bounded and decreasing and elapsed < 5.0
    announce(capsys, "2", ok,
             f"worst gaps {', '.join(f'{r.max_distance:.4f}' for r in reports.values())},"
             f" {elapsed:.2f}s")
    assert bounded
    assert decreasing
    assert elapsed < 5.0


def test_criterion_3_isometry_identities(capsys):
    cont = continuous_isometry_check()
    norm_defect = abs(cont.last_column_norm - 1.0)
    cross_defect = abs(cont.cross_overlap)
    got = isometric_relation(two_qubit_instrument().instrument.kraus,
                             two_qubit_instrument().minimal)
    if got is None:
        row_worst = np.inf
    else:
        rebuilt = np.einsum("mn,nij->mij", got, K_REDUCED)
        row_worst = float(np.abs(rebuilt - K_GROUPED).max(axis=(1, 2)).max())
    ok = norm_defect <= 1e-10 and cross_defect <= 1e-10 and row_worst <= 1e-10
    announce(capsys, "3", ok,
             f"integrals {norm_defect:.1e}/{cross_defect:.1e}, "
             f"recovery rows {row_worst:.1e}")
    assert norm_defect <= 1e-10
    assert cross_defect <= 1e-10
    assert row_worst <= 1e-10


def test_criterion_4_limit_membership(capsys):
    s = (1.0 + np.linspace(0.0, 1.0, 101)) ** 2
    xs = np.linspace(0.0, 1.0, 11)
    c1 = c_matrix_stack("C1", s)
    min_main = float(np.linalg.eigvalsh(c1)[:, 0].min())
    # Segment mixtures (1 - x) C1 + x C_r of the halt families.
    min_halt = min(
        float(np.linalg.eigvalsh((1.0 - x) * c1
                                 + x * c_matrix_stack(name, s))[:, 0].min())
        for name in ("C2", "C3") for x in xs)
    total = c_matrix_stack("C1", [1.0])[0]
    for name in ("C2", "C3"):
        total += integrate_sqrt_smooth(
            lambda u, n=name: c_matrix_stack(n, (1.0 + u) ** 2))
    res_defect = float(np.abs(total - np.eye(4)).max())
    spec = channel_zonoid()
    path = diagonal_stack(limit_path_diagonals(2, np.linspace(1.0, 4.0, 11)))
    mem_worst = max(membership(z, spec).residual for z in path)
    ok = (min_main >= -1e-10 and min_halt >= -1e-10
          and res_defect <= 1e-8 and mem_worst <= 1e-7)
    announce(capsys, "4 (limit membership)", ok,
             f"min eigs {min_main:.1e}/{min_halt:.1e}, resolution "
             f"{res_defect:.1e}, membership {mem_worst:.1e}")
    assert min_main >= -1e-10
    assert min_halt >= -1e-10
    assert res_defect <= 1e-8
    assert mem_worst <= 1e-7


def test_criterion_4_prelimit_exclusion(capsys):
    # The 100-round main branch lies inside the limit zonoid: its
    # breakpoints M(eta^n)xM(eta^n) and M(eta^(n+1))xM(eta^n) have
    # coefficient witnesses (C1 exactly at the symmetric ones), and the
    # zonoid is convex (derivation in CHANGES.md). So every interior sample
    # must come back feasible, with a witness re-checked here against the
    # box and against L(C) = sum c_mn K_m^dag K_n rebuilt from K_REDUCED.
    spec = channel_zonoid()
    path = main_branch_path(2, 100, 0.5)
    feasible = True
    worst_herm = worst_low = worst_high = 0.0
    worst_image = worst_gap = 0.0
    for s in np.linspace(path.s_bottom, path.s_top, 13)[1:-1]:
        z = path.at(float(s), clamp=True)
        rep = membership(z, spec, tol=1e-7)
        feasible = feasible and rep.feasible
        c = rep.witness.matrix
        w = np.linalg.eigvalsh(c)
        image = np.einsum("mn,mba,nbc->ac", c, K_REDUCED.conj(), K_REDUCED)
        image_res = float(np.linalg.norm(image - z))
        worst_herm = max(worst_herm, float(np.abs(c - c.conj().T).max()))
        worst_low = max(worst_low, -float(w[0]))
        worst_high = max(worst_high, float(w[-1]) - 1.0)
        worst_image = max(worst_image, image_res)
        worst_gap = max(worst_gap, abs(image_res - rep.residual))
    ok = (feasible and worst_herm <= 1e-12 and worst_low <= 1e-12
          and worst_high <= 1e-12 and worst_image <= 1e-7
          and worst_gap <= 1e-12)
    announce(capsys, "4 (pre-limit branch inside)", ok,
             f"11 interior samples feasible: {feasible}, box excess "
             f"{max(worst_low, worst_high):.1e}, recomputed image residual "
             f"{worst_image:.1e}, report gap {worst_gap:.1e}")
    assert feasible
    assert worst_herm <= 1e-12
    assert worst_low <= 1e-12
    assert worst_high <= 1e-12
    assert worst_image <= 1e-7
    assert worst_gap <= 1e-12


def test_criterion_5_outcome_sectors(capsys):
    inst = two_qubit_instrument().instrument
    emb = qc_embed(inst)
    cmat = choi(emb, normalized=False).matrix
    d, do, n_out = 4, 4, 3
    sect = cmat.reshape(d, do, n_out, d, do, n_out)
    cross_mass = max(
        float(np.abs(sect[:, :, r, :, :, rp]).max())
        for r in range(n_out) for rp in range(n_out) if r != rp)
    blocked = blocked_isometry_check()
    coarse = coarse_grain_check()
    ok = (cross_mass <= 1e-12 and blocked.max_row_residual <= 1e-10
          and coarse.max_defect <= 1e-9)
    announce(capsys, "5", ok,
             f"cross-sector {cross_mass:.1e}, rows "
             f"{blocked.max_row_residual:.1e}, coarse {coarse.max_defect:.1e}")
    assert cross_mass <= 1e-12
    assert blocked.max_row_residual <= 1e-10
    assert coarse.max_defect <= 1e-9


def test_criterion_6_halting_leaves_entanglement(capsys):
    rep = wstate_analysis()
    prob_defect = abs(rep.probability - 0.5)
    # independent oracle: the surviving pair is an X state, whose
    # concurrence has the closed form 2 max(0, |rho23| - sqrt(rho11 rho44))
    rho = rep.ac_state
    oracle = 2.0 * max(
        0.0,
        abs(rho[1, 2]) - np.sqrt(abs(rho[0, 0] * rho[3, 3])),
        abs(rho[0, 3]) - np.sqrt(abs(rho[1, 1] * rho[2, 2])),
    )
    conc_defect = abs(rep.concurrence - 8.0 / 9.0)
    oracle_gap = abs(rep.concurrence - oracle)
    wootters_gap = abs(concurrence(rho) - oracle)
    ok = (prob_defect <= 1e-10 and conc_defect <= 1e-9
          and oracle_gap <= 1e-9 and wootters_gap <= 1e-9)
    announce(capsys, "6", ok,
             f"probability defect {prob_defect:.1e}, concurrence defect "
             f"{conc_defect:.1e}, oracle gap {oracle_gap:.1e}")
    assert prob_defect <= 1e-10
    assert conc_defect <= 1e-9
    assert oracle_gap <= 1e-9
    assert wootters_gap <= 1e-9


def test_criterion_7_multiqubit_family(capsys):
    t0 = time.monotonic()
    formula_gap = choi_distance(pqubit_choi_formula(2), limiting_choi_2q())
    r = np.random.default_rng(701)
    tp_worst = 0.0
    for parties in (2, 3, 4):
        d = 2 ** parties
        for _ in range(100):
            rho = random_density(d, r)
            tp_worst = max(tp_worst, abs(
                float(np.real(np.trace(pqubit_apply(parties, rho)))) - 1.0))
    target = pqubit_coefficients(3)
    dists = [multiplier_distance(3, prelimit_coefficients(3, nu, 0.5), target)
             for nu in (100, 1000, 10000)]
    decreasing = dists[0] > dists[1] > dists[2]
    quad_worst = max(
        float(np.abs(quadrature_coefficients(p) - pqubit_coefficients(p))
              .max())
        for p in (2, 3, 4))
    elapsed = time.monotonic() - t0
    ok = (formula_gap <= 1e-9 and tp_worst <= 1e-10 and decreasing
          and quad_worst <= 1e-10 and elapsed < 30.0)
    announce(capsys, "7", ok,
             f"formula gap {formula_gap:.1e}, trace defect {tp_worst:.1e}, "
             f"quadrature {quad_worst:.1e}, {elapsed:.1f}s")
    assert formula_gap <= 1e-9
    assert tp_worst <= 1e-10
    assert decreasing
    assert quad_worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_8_truncation_floor(capsys):
    dims = PartyDims((2, 2))
    r = np.random.default_rng(801)
    margin_ok = True
    tight_ok = True
    for _ in range(50):
        k = random_channel(dims, 4, r)
        rho = choi(k).matrix
        w, vecs = np.linalg.eigh(rho)
        # ascending spectrum: the four nonzero weights sit at the top and
        # sigma4 is the smallest of them
        live = list(range(12, 16))
        sigma4 = float(w[-4])
        best = np.inf
        for drop in live:
            keep = [i for i in live if i != drop]
            trunc = (vecs[:, keep] * w[keep]) @ vecs[:, keep].conj().T
            dist = trace_norm(rho - trunc)
            best = min(best, dist)
            if dist < sigma4 - 1e-9:
                margin_ok = False
        # the optimal truncation drops exactly the smallest live weight
        if abs(best - sigma4) > 1e-9:
            tight_ok = False
    grouped_rank = kraus_rank(two_qubit_instrument().instrument.kraus)
    ok = margin_ok and tight_ok and grouped_rank == 4
    announce(capsys, "8", ok,
             f"floor respected over 50 channels, grouped rank "
             f"{grouped_rank}")
    assert margin_ok
    assert tight_ok
    assert grouped_rank == 4


def test_criterion_9_protocol_validity(capsys):
    green = True
    details = []
    for nu in (1, 10, 100, 10000):
        rep = verify_tree(build_protocol_pq(2, nu, 0.5))
        green = green and rep.ok and rep.max_node_sum_defect <= 1e-9 \
            and rep.max_locality_defect <= 1e-10 \
            and rep.completeness_defect <= 1e-9
        details.append(f"2q nu={nu}: {rep.n_leaves} leaves")
    for nu in (1, 10, 100):
        rep = verify_tree(build_protocol_pq(3, nu, 0.5))
        green = green and rep.ok

    # fault injection: a rescaled leaf must be flagged at its ancestors
    tree = build_protocol_pq(2, 4, 0.5)
    victim = tree.node_at((1, 1, 0))
    victim.povm_element = 1.01 * victim.povm_element
    bad = verify_tree(tree)
    localized = (not bad.ok) and any(
        f.kind == "leaf-sum" and f.node_path == (1, 1) for f in bad.failures)

    # and a non-product element must be flagged at its own node
    tree2 = build_protocol_pq(3, 3, 0.5)
    node = tree2.node_at((1,))
    bump = np.zeros((8, 8))
    bump[0, 7] = bump[7, 0] = 0.05
    node.povm_element = node.povm_element + bump
    bad2 = verify_tree(tree2)
    localized2 = (not bad2.ok) and any(
        f.kind == "product" and f.node_path == (1,) for f in bad2.failures)

    ok = green and localized and localized2
    announce(capsys, "9", ok, "; ".join(details[-1:]) +
             f"; fault diagnostics localized: {localized and localized2}")
    assert green
    assert localized
    assert localized2


def test_criterion_10_zonoid_geometry(capsys):
    d2 = PartyDims((2,))
    square = ZonoidSpec(kraus_from_operators(
        [np.diag([1.0, 0.0]).astype(complex),
         np.diag([0.0, 1.0]).astype(complex)], d2))
    interval = ZonoidSpec(kraus_from_operators(
        [np.array([[1, 0], [0, 0]], dtype=complex),
         np.array([[0, 1], [0, 0]], dtype=complex)], d2))
    reduced = channel_zonoid()

    support_defects = [
        abs(support_function(np.eye(2, dtype=complex), square) - 2.0),
        abs(support_function(np.eye(2, dtype=complex), interval) - 2.0),
        abs(support_function(np.eye(4, dtype=complex), reduced) - 4.0),
    ]

    mis = 0
    grid = np.linspace(-0.1, 1.1, 21)
    for a in grid:
        for b in grid:
            inside = (0.0 <= a <= 1.0) and (0.0 <= b <= 1.0)
            rep = membership(np.diag([a, b]).astype(complex), square,
                             tol=1e-7)
            mis += rep.feasible != inside
    ab = np.linspace(-0.1, 1.1, 11)
    cs = np.linspace(-0.6, 0.6, 11)
    for a in ab:
        for b in ab:
            for c in cs:
                z = np.array([[a, c], [c, b]], dtype=complex)
                w = np.linalg.eigvalsh(z)
                inside = w[0] >= 0.0 and w[-1] <= 1.0
                rep = membership(z, interval, tol=1e-7)
                mis += rep.feasible != inside

    from loccverify import prelimit_channel, zonoid_spec_for_channel
    gaps = [hausdorff_estimate(
        zonoid_spec_for_channel(prelimit_channel(nu, 0.5)), reduced,
        samples=2000, seed=42) for nu in (100, 1000, 10000)]
    decreasing = gaps[0] > gaps[1] > gaps[2]

    ok = max(support_defects) <= 1e-10 and mis == 0 and decreasing
    announce(capsys, "10", ok,
             f"support defects {max(support_defects):.1e}, "
             f"misclassified {mis}, gaps "
             + "/".join(f"{g:.4f}" for g in gaps))
    assert max(support_defects) <= 1e-10
    assert mis == 0
    assert decreasing
