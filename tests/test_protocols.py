"""Tests for protocol trees, operator paths, and the condition verifier."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccverify import (
    PartyDims,
    ProtocolNode,
    ProtocolParams,
    ProtocolTree,
    TreeReport,
    blocked_limiting_family,
    build_protocol_pq,
    c_matrix_family,
    channel_zonoid,
    derivative_outcomes,
    instrument_zonoid,
    integrate_sqrt_smooth,
    kron,
    limit_path,
    limiting_family,
    main_branch_diagonals,
    main_branch_path,
    partial_trace,
    path_distance_bound,
    protocol_leaf_diagonals,
    trace_norm,
    verify_theorem_conditions,
    verify_tree,
)
from loccverify import protocols
from loccverify.linalg import cumulative_sqrt_smooth
from loccverify.protocols import (TreeFailure, limit_path_stack,
                                  protocol_check_bytes, protocol_tree_bytes)

from conftest import stacked


class TestParams:
    def test_epsilon(self):
        p = ProtocolParams(2, 100, 0.5)
        assert p.epsilon == pytest.approx(0.1)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_exponent_range(self, bad):
        with pytest.raises(ValueError):
            ProtocolParams(2, 10, bad)

    def test_positive_rounds(self):
        with pytest.raises(ValueError):
            ProtocolParams(2, 0, 0.5)

    @pytest.mark.parametrize("rounds", [10 ** 40, 10 ** 400])
    def test_rounds_where_eta_rounds_to_one(self, rounds):
        with pytest.raises(ValueError, match="rounds to 1"):
            ProtocolParams(2, rounds, 0.5)
        assert 1.0 - ProtocolParams(2, 10 ** 12, 0.5).epsilon < 1.0


class TestTreeStructure:
    @pytest.mark.parametrize("parties,rounds", [(2, 1), (2, 7), (3, 4), (4, 2)])
    def test_leaf_count(self, parties, rounds):
        tree = build_protocol_pq(parties, rounds, 0.5)
        assert len(tree.leaves()) == parties * rounds + 1

    def test_main_leaf_is_last(self):
        parties, rounds = 2, 3
        tree = build_protocol_pq(parties, rounds, 0.5)
        # the main branch never halts, so its path is all continue moves
        assert tree.node_at((1,) * (parties * rounds)) is tree.leaves()[-1]

    def test_node_at_navigates(self):
        tree = build_protocol_pq(2, 2, 0.5)
        assert tree.node_at(()) is tree.root
        child = tree.node_at((1,))
        assert child is tree.root.children[1]

    @pytest.mark.parametrize("parties,rounds", [(2, 300), (3, 100), (5, 8)])
    def test_tree_bytes_bound_the_built_tree(self, parties, rounds):
        tracemalloc.start()
        try:
            tree = build_protocol_pq(parties, rounds, 0.5)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.n_nodes == 2 * parties * rounds + 1
        estimate = protocol_tree_bytes(parties, rounds)
        assert held <= estimate <= 1.25 * held

    @pytest.mark.parametrize("parties,rounds", [(2, 1000), (4, 200), (6, 20)])
    def test_check_bytes_bound_build_and_verify(self, parties, rounds):
        # The CLI budget counts the peak of building and checking a tree.
        tracemalloc.start()
        try:
            report = verify_tree(build_protocol_pq(parties, rounds, 0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.ok
        estimate = protocol_check_bytes(parties, rounds)
        assert peak <= estimate <= 1.5 * peak


class TestVerifyTree:
    @pytest.mark.parametrize("rounds", [1, 5, 20])
    def test_2q_trees_pass(self, rounds):
        rep = verify_tree(build_protocol_pq(2, rounds, 0.5))
        assert rep.ok
        assert rep.n_leaves == 2 * rounds + 1
        assert rep.max_node_sum_defect <= 1e-9
        assert rep.max_locality_defect <= 1e-10
        assert rep.completeness_defect <= 1e-9
        assert rep.failures == ()

    def test_3q_tree_passes(self):
        rep = verify_tree(build_protocol_pq(3, 5, 0.5))
        assert rep.ok
        assert rep.n_leaves == 16

    def test_scaled_leaf_fails_with_location(self):
        tree = build_protocol_pq(2, 3, 0.5)
        victim = tree.node_at((1, 1, 0))
        victim.povm_element = 1.01 * victim.povm_element
        rep = verify_tree(tree)
        assert not rep.ok
        assert rep.failures
        # every ancestor's leaf sum is off by the injected one percent
        kinds = {f.kind for f in rep.failures}
        assert {"leaf-sum", "completeness"} <= kinds
        paths = {f.node_path for f in rep.failures if f.kind == "leaf-sum"}
        assert (1, 1) in paths
        worst = max(f.defect for f in rep.failures)
        assert 1e-4 < worst < 0.02

    def test_nonlocal_element_fails(self):
        tree = build_protocol_pq(2, 2, 0.5)
        node = tree.node_at((1,))
        bell = np.zeros((4, 4))
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        node.povm_element = node.povm_element + 0.05 * bell
        rep = verify_tree(tree)
        assert not rep.ok
        kinds = {f.kind for f in rep.failures}
        assert "product" in kinds
        product_paths = {f.node_path for f in rep.failures
                         if f.kind == "product"}
        assert (1,) in product_paths

    def test_single_node_tree(self):
        tree = ProtocolTree(ProtocolNode(np.eye(4, dtype=complex), None),
                            PartyDims((2, 2)), ProtocolParams(2, 1, 0.5))
        rep = verify_tree(tree)
        assert rep.ok and (rep.n_nodes, rep.n_leaves) == (1, 1)
        _assert_same_report(rep, _reference_verify_tree(tree))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 12), st.floats(0.2, 0.8))
    def test_random_small_trees_pass(self, rounds, exponent):
        rep = verify_tree(build_protocol_pq(2, rounds, exponent))
        assert rep.ok


def _reference_verify_tree(tree):
    """Node-by-node verification: per-node partial traces, per-edge factor
    comparisons and leaf sums in id()-keyed dicts."""
    sum_tol, locality_tol, completeness_tol = 1e-9, 1e-10, 1e-9
    order = list(tree.iter_nodes())
    dims = tree.dims
    p_count = dims.n_parties

    def unit_trace_factors(m):
        tr = np.trace(m)
        scale = max(float(np.linalg.norm(m)), 1e-300)
        if abs(tr) < 1e-13 * scale:
            return None, 1.0
        facs = [partial_trace(m, dims, [p]) / tr
                for p in range(1, p_count + 1)]
        recon = tr * kron(facs)
        return facs, float(np.linalg.norm(m - recon)) / max(
            1.0, float(np.linalg.norm(m)))

    leaf_sum, parent, failed = {}, {}, []
    max_sum = 0.0
    for node in reversed(order):
        if node.is_leaf:
            leaf_sum[id(node)] = node.povm_element
            continue
        for i, ch in enumerate(node.children):
            parent[id(ch)] = (node, i)
        acc = leaf_sum[id(node.children[0])].copy()
        for ch in node.children[1:]:
            acc = acc + leaf_sum[id(ch)]
        leaf_sum[id(node)] = acc
        defect = float(np.abs(node.povm_element - acc).max())
        max_sum = max(max_sum, defect)
        if defect > sum_tol:
            failed.append((node, "leaf-sum", defect))
    max_prod = max_loc = 0.0
    factors = {}
    for node in order:
        facs, pdef = unit_trace_factors(node.povm_element)
        factors[id(node)] = facs
        max_prod = max(max_prod, pdef if facs is not None else 1.0)
        if facs is None or pdef > locality_tol:
            failed.append((node, "product", pdef))
    for node in order:
        pf = factors[id(node)]
        for ch in node.children:
            cf = factors[id(ch)]
            if pf is None or cf is None:
                continue
            for p in range(1, p_count + 1):
                if p == node.acting_party:
                    continue
                d = float(np.linalg.norm(pf[p - 1] - cf[p - 1]))
                max_loc = max(max_loc, d)
                if d > locality_tol:
                    failed.append((ch, f"locality-party-{p}", d))
    comp = float(np.abs(leaf_sum[id(tree.root)] - np.eye(dims.total)).max())
    if comp > completeness_tol:
        failed.append((tree.root, "completeness", comp))

    def node_path(node):
        steps = []
        while id(node) in parent:
            node, i = parent[id(node)]
            steps.append(i)
        return tuple(reversed(steps))

    return TreeReport(
        not failed, len(order), sum(1 for n in order if n.is_leaf), max_sum,
        max_loc, max_prod, comp,
        tuple(TreeFailure(node_path(n), k, d) for n, k, d in failed))


def _inject_one_fault_of_each_kind(tree, picks):
    """Scale a halt leaf, bump an off-diagonal entry, add a Bell-like
    corner bump and make an element traceless, at the drawn nodes."""
    nodes = list(tree.iter_nodes())
    leaves = [n for n in nodes if n.is_leaf]
    parties, d = tree.dims.n_parties, tree.dims.total
    leaf = leaves[picks[0] % len(leaves)]
    leaf.povm_element = 1.01 * leaf.povm_element
    node = nodes[picks[1] % len(nodes)]
    bumped = node.povm_element.copy()
    bumped[0, 1] += 0.03
    bumped[1, 0] += 0.03
    node.povm_element = bumped
    node = nodes[picks[2] % len(nodes)]
    bell = np.zeros((d, d))
    bell[0, d - 1] = bell[d - 1, 0] = 0.05
    node.povm_element = node.povm_element + bell
    node = nodes[picks[3] % len(nodes)]
    node.povm_element = kron([np.diag([1.0, -1.0])]
                             + [np.eye(2)] * (parties - 1))


def _assert_same_report(got, want):
    assert (got.ok, got.n_nodes, got.n_leaves) == \
        (want.ok, want.n_nodes, want.n_leaves)
    # leaf sums are added in the same order, so these agree bitwise
    assert got.max_node_sum_defect == want.max_node_sum_defect
    assert got.completeness_defect == want.completeness_defect
    assert got.max_locality_defect == pytest.approx(
        want.max_locality_defect, rel=0, abs=1e-12)
    assert got.max_product_defect == pytest.approx(
        want.max_product_defect, rel=0, abs=1e-12)
    assert [(f.node_path, f.kind) for f in got.failures] == \
        [(f.node_path, f.kind) for f in want.failures]
    for g, w in zip(got.failures, want.failures):
        assert g.defect == pytest.approx(w.defect, rel=0, abs=1e-12)


def _branching_tree(parties, depth, outcomes):
    """Complete tree: at level k party k mod P + 1 measures ``outcomes``
    diagonal outcomes that sum to the identity."""
    w = np.linspace(1.0, 2.0, outcomes)
    w = w / w.sum()
    local = [np.diag([a, b]) for a, b in zip(w, w[::-1])]

    def grow(element, level):
        party = level % parties + 1
        if level == depth:
            return ProtocolNode(element, None)
        node = ProtocolNode(element, party)
        for f in local:
            step = kron([f if p == party else np.eye(2)
                         for p in range(1, parties + 1)])
            node.children.append(grow(element @ step, level + 1))
        return node

    return ProtocolTree(grow(np.eye(2 ** parties, dtype=complex), 0),
                        PartyDims((2,) * parties),
                        ProtocolParams(parties, depth, 0.5))


def _mixed_caterpillar(parties, arities, positions):
    """Main branch whose k-th node has ``arities[k]`` children: party
    k mod P + 1 measures that many diagonal outcomes summing to the
    identity (one child repeats its parent), the branch goes on at child
    ``positions[k] % arities[k]`` and the other children are leaves."""
    root = ProtocolNode(np.eye(2 ** parties, dtype=complex), None)
    node = root
    for k, (outcomes, position) in enumerate(zip(arities, positions)):
        party = k % parties + 1
        w = np.linspace(1.0, 2.0, outcomes)
        w = w / w.sum()
        node.acting_party = party
        node.children = [
            ProtocolNode(node.povm_element @ kron(
                [np.diag([a, b]) if p == party else np.eye(2)
                 for p in range(1, parties + 1)]), None)
            for a, b in zip(w, w[::-1])]
        node = node.children[position % outcomes]
    return ProtocolTree(root, PartyDims((2,) * parties),
                        ProtocolParams(parties, 1, 0.5))


class TestVerifyTreeAgainstReference:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 40), st.floats(0.05, 0.95),
           st.lists(st.integers(0, 2 ** 20), min_size=4, max_size=4))
    def test_reports_match(self, parties, rounds, exponent, picks):
        tree = build_protocol_pq(parties, rounds, exponent)
        _assert_same_report(verify_tree(tree), _reference_verify_tree(tree))
        _inject_one_fault_of_each_kind(tree, picks)
        got = verify_tree(tree)
        assert not got.ok
        _assert_same_report(got, _reference_verify_tree(tree))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 4), st.integers(2, 3),
           st.lists(st.integers(0, 2 ** 20), min_size=8, max_size=8))
    def test_branching_trees_match(self, parties, depth, outcomes, picks):
        # Several children per node: the owed-sum stack runs deep, and with
        # two faults of each kind locality failures must follow (parent,
        # child), not the child's preorder.
        tree = _branching_tree(parties, depth, outcomes)
        rep = verify_tree(tree)
        assert rep.ok and rep.n_leaves == outcomes ** depth
        _assert_same_report(rep, _reference_verify_tree(tree))
        _inject_one_fault_of_each_kind(tree, picks[:4])
        _inject_one_fault_of_each_kind(tree, picks[4:])
        _assert_same_report(verify_tree(tree), _reference_verify_tree(tree))

    @pytest.mark.parametrize("parties", [5, 6])
    @pytest.mark.parametrize("rounds", [1, 2, 3, 4])
    def test_five_and_six_party_caterpillars_match(self, parties, rounds):
        tree = build_protocol_pq(parties, rounds, 0.5)
        rep = verify_tree(tree)
        assert rep.ok
        _assert_same_report(rep, _reference_verify_tree(tree))
        picks = np.random.default_rng([parties, rounds]).integers(
            0, 2 ** 20, 4).tolist()
        _inject_one_fault_of_each_kind(tree, picks)
        got = verify_tree(tree)
        assert not got.ok
        _assert_same_report(got, _reference_verify_tree(tree))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 3),
           st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3)),
                    min_size=1, max_size=14),
           st.lists(st.integers(0, 2 ** 20), min_size=4, max_size=4))
    def test_mixed_arity_caterpillars_match(self, parties, steps, picks):
        # Single children and three or four children along the branch; a
        # branch that goes on before the last child ends the chain of last
        # children there, so the leaf sums run over several chains.
        arities, positions = zip(*steps)
        tree = _mixed_caterpillar(parties, arities, positions)
        rep = verify_tree(tree)
        assert rep.ok
        _assert_same_report(rep, _reference_verify_tree(tree))
        _inject_one_fault_of_each_kind(tree, picks)
        _assert_same_report(verify_tree(tree), _reference_verify_tree(tree))

    def test_large_tree_and_one_offdiagonal_leaf_match(self, monkeypatch):
        tree = build_protocol_pq(2, 2000, 0.5)
        rep = verify_tree(tree)
        assert rep.ok
        _assert_same_report(rep, _reference_verify_tree(tree))
        # Only the bumped leaf takes the dense factor path.
        dense_rows = []
        dense_factors = protocols._dense_factors

        def counted(m, dims):
            dense_rows.append(len(m))
            return dense_factors(m, dims)

        monkeypatch.setattr(protocols, "_dense_factors", counted)
        leaf = tree.node_at((1,) * 6 + (0,))
        bumped = leaf.povm_element.copy()
        bumped[0, 1] = bumped[1, 0] = 0.01
        leaf.povm_element = bumped
        got = verify_tree(tree)
        assert dense_rows == [1]
        assert not got.ok
        assert ((1,) * 6, "leaf-sum") in {
            (f.node_path, f.kind) for f in got.failures}
        _assert_same_report(got, _reference_verify_tree(tree))

    @pytest.mark.parametrize("parties,rounds,step", [(3, 500, 750),
                                                     (2, 2000, 400)])
    def test_deep_fault_paths_match(self, parties, rounds, step):
        # A halt leaf scaled deep in the branch fails the leaf sum of every
        # ancestor: step + 1 paths of growing depth, and completeness.
        tree = build_protocol_pq(parties, rounds, 0.5)
        table = build_protocol_pq(parties, rounds, 0.5)
        table._table[2 * step + 1] *= 1.01
        leaf = tree.node_at((1,) * step + (0,))
        leaf.povm_element = leaf.povm_element * 1.01
        got = verify_tree(tree)
        assert len(got.failures) == step + 2
        assert [f.node_path for f in got.failures[:-1]] == \
            [(1,) * k for k in range(step, -1, -1)]
        assert got.failures[-1].kind == "completeness"
        _assert_same_report(got, _reference_verify_tree(tree))
        assert verify_tree(table) == got

    def test_locality_failures_follow_parent_then_child(self):
        # Both children of the root change both party factors: party 2
        # fails on the root's edges, party 1 on each child's own edges.
        tree = _branching_tree(2, 2, 2)
        for node in tree.root.children:
            bumped = node.povm_element.copy()
            bumped[0, 1] = bumped[1, 0] = bumped[0, 2] = bumped[2, 0] = 0.03
            node.povm_element = bumped
        rep = verify_tree(tree)
        _assert_same_report(rep, _reference_verify_tree(tree))
        assert [f.node_path for f in rep.failures
                if f.kind.startswith("locality")][:3] == [(0,), (1,), (0, 0)]


def _corrupt_rows(table, picks):
    """Scale a halt row, bump one entry of a continue row so that it is no
    longer a product, and make a row traceless, at the drawn rows."""
    steps = (len(table) - 1) // 2
    table[2 * (picks[0] % steps) + 1] *= 1.01
    table[2 * (picks[1] % steps) + 2, 0] += 0.03
    row = table[picks[2] % len(table)]
    row[:] = 1.0
    row[: len(row) // 2] = -1.0


class TestTableTree:
    """A built tree is checked from its diagonal table until its nodes are
    asked for, then from the nodes."""

    @pytest.mark.parametrize("parties,rounds", [
        (2, 1), (2, 7), (2, 300), (3, 1), (3, 40), (4, 2), (4, 25),
        (5, 1), (5, 6), (6, 1), (6, 3)])
    @pytest.mark.parametrize("exponent", [0.1, 0.5, 0.9])
    def test_table_and_walk_reports_are_equal(self, parties, rounds,
                                              exponent):
        trees = [build_protocol_pq(parties, rounds, exponent)
                 for _ in range(2)]
        picks = np.random.default_rng([parties, rounds]).integers(
            0, 2 ** 20, 3).tolist()
        _corrupt_rows(trees[1]._table, picks)
        reports = []
        for tree in trees:
            table = tree._table.copy()
            got = verify_tree(tree)
            assert verify_tree(tree) == got
            assert np.array_equal(tree._table, table)
            tree.root  # makes the nodes
            assert tree._table is None
            assert verify_tree(tree) == got
            if tree.n_nodes <= 400:
                _assert_same_report(got, _reference_verify_tree(tree))
            reports.append(got)
        assert reports[0].ok and not reports[1].ok

    @pytest.mark.parametrize("parties,rounds", [(2, 5), (3, 3), (5, 2)])
    def test_nodes_are_made_from_the_table(self, parties, rounds):
        tree = build_protocol_pq(parties, rounds, 0.5)
        assert tree.n_nodes == 2 * parties * rounds + 1
        table = tree._table.copy()
        assert tree._table is not None  # counting made no nodes
        nodes = list(tree.iter_nodes())
        d = 2 ** parties
        for node, row in zip(nodes, table, strict=True):
            e = node.povm_element
            assert e.shape == (d, d) and e.dtype == np.complex128
            assert np.array_equal(e, np.diag(np.diagonal(e)))
            assert np.array_equal(np.diagonal(e), row)
        main = [tree.node_at((1,) * k) for k in range(parties * rounds + 1)]
        assert [n.acting_party for n in main] == \
            [k % parties + 1 for k in range(parties * rounds)] + [None]
        leaves = tree.leaves()
        assert all(n.acting_party is None for n in leaves)
        assert leaves[-1] is main[-1] and not main[-1].children
        assert np.array_equal(
            np.array([np.diagonal(n.povm_element) for n in leaves]),
            protocol_leaf_diagonals(parties, rounds, 0.5))
        assert tree.n_nodes == len(nodes)

    def test_element_replaced_after_a_check_is_seen(self):
        tree = build_protocol_pq(2, 3, 0.5)
        assert verify_tree(tree).ok
        victim = tree.node_at((1, 1, 0))
        victim.povm_element = 1.01 * victim.povm_element
        rep = verify_tree(tree)
        assert not rep.ok
        assert {"leaf-sum", "completeness"} <= {f.kind for f in rep.failures}
        assert (1, 1) in {f.node_path for f in rep.failures
                          if f.kind == "leaf-sum"}
        _assert_same_report(rep, _reference_verify_tree(tree))

    def test_hand_built_tree_keeps_its_nodes(self):
        root = ProtocolNode(np.eye(4, dtype=complex), 1)
        root.children = [ProtocolNode(np.diag([0.5, 0.5, 0, 0]), None),
                         ProtocolNode(np.diag([0.5, 0.5, 1, 1]), None)]
        tree = ProtocolTree(root, PartyDims((2, 2)),
                            ProtocolParams(2, 1, 0.5))
        assert tree.root is root and tree.n_nodes == 3
        _assert_same_report(verify_tree(tree), _reference_verify_tree(tree))


class TestLeafDiagonals:
    @pytest.mark.parametrize("parties,rounds", [(2, 4), (3, 3)])
    def test_completeness(self, parties, rounds):
        diags = protocol_leaf_diagonals(parties, rounds, 0.5)
        assert diags.shape[0] == parties * rounds + 1
        np.testing.assert_allclose(diags.sum(axis=0),
                                   np.ones(2 ** parties), atol=1e-12)

    def test_rows_nonnegative(self):
        diags = protocol_leaf_diagonals(2, 6, 0.3)
        assert diags.min() >= 0.0


def _reference_steps(parties, rounds, exponent):
    """Halt and continue diagonals, each step the kron of its local factors."""
    eps = ProtocolParams(parties, rounds, exponent).epsilon
    eta = 1.0 - eps
    halt, cont = [], []
    for n in range(rounds):
        for l in range(1, parties + 1):
            ahead = [np.array([eta ** (n + 1), 1.0])] * (l - 1)
            behind = [np.array([eta ** n, 1.0])] * (parties - l)
            for rows, own in ((halt, np.array([eps * eta ** n, 0.0])),
                              (cont, np.array([eta ** (n + 1), 1.0]))):
                out = (ahead + [own] + behind)[0]
                for v in (ahead + [own] + behind)[1:]:
                    out = np.kron(out, v)
                rows.append(out)
    return np.array(halt), np.array(cont)


def _reference_main_branch(parties, rounds, exponent):
    """Main-branch breakpoints, dropping those whose trace is not below the
    last kept trace by a relative 1e-15."""
    _, cont = _reference_steps(parties, rounds, exponent)
    s_list, ops = [], []
    for d in [np.ones(2 ** parties)] + list(cont):
        s = float(d.sum())
        if s_list and not s < s_list[-1] * (1.0 - 1e-15):
            continue
        s_list.append(s)
        ops.append(np.diag(d.astype(np.complex128)))
    return np.array(s_list), ops


def _assert_branch_matches_reference(parties, rounds, exponent):
    """The main-branch path equals the sequential drop rule bit for bit,
    its operators stacked in one array; returns the number kept."""
    s_ref, ops_ref = _reference_main_branch(parties, rounds, exponent)
    path = main_branch_path(parties, rounds, exponent)
    d = 2 ** parties
    assert isinstance(path.operators, np.ndarray)
    assert path.operators.shape == (s_ref.size, d, d)
    assert np.array_equal(path.s_values, s_ref)
    assert np.array_equal(path.operators, np.array(ops_ref))
    return s_ref.size


def _assert_matches_reference(parties, rounds, exponent):
    halt, cont = _reference_steps(parties, rounds, exponent)
    assert np.array_equal(protocol_leaf_diagonals(parties, rounds, exponent),
                          np.vstack([halt, cont[-1:]]))
    _assert_branch_matches_reference(parties, rounds, exponent)
    node = build_protocol_pq(parties, rounds, exponent).root
    assert np.array_equal(node.povm_element, np.eye(2 ** parties))
    for h, c in zip(halt, cont):
        assert len(node.children) == 2 and node.children[0].is_leaf
        assert np.array_equal(node.children[0].povm_element,
                              np.diag(h.astype(np.complex128)))
        node = node.children[1]
        assert np.array_equal(node.povm_element,
                              np.diag(c.astype(np.complex128)))
    assert node.is_leaf


class TestAgainstKronReference:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 60), st.floats(0.05, 0.95))
    def test_tables_match_exactly(self, parties, rounds, exponent):
        _assert_matches_reference(parties, rounds, exponent)

    def test_drop_rule_case(self):
        # long enough that trailing breakpoints stop decreasing in trace
        _assert_matches_reference(2, 900, 0.4)
        s_ref, _ = _reference_main_branch(2, 900, 0.4)
        assert s_ref.size < 2 * 900 + 1

    @pytest.mark.parametrize("parties,rounds,exponent,kept", [
        (2, 9000, 0.4, 2371), (2, 9000, 0.5, 5766), (2, 9000, 0.6, 13946),
        (3, 900, 0.4, 1430), (4, 270, 0.6, 1081)])
    def test_drop_rule_at_benchmark_sizes(self, parties, rounds, exponent,
                                          kept):
        # The longest convergence-study rows: most breakpoints are kept
        # while consecutive traces still drop, the rest only after a run
        # of equal or rising traces.
        assert _assert_branch_matches_reference(parties, rounds,
                                                exponent) == kept

    @pytest.mark.parametrize("traces,kept", [
        ([4.0, 3.0, 2.0], [0, 1, 2]),
        ([4.0, 4.0, 3.0, 3.0, 2.0], [0, 2, 4]),
        # After the rise to 3.5, a trace is compared with the kept 3, so
        # one a relative 5e-16 below 3 is dropped.
        ([4.0, 3.0, 3.5, 3.0 * (1 - 5e-16), 2.0], [0, 1, 4]),
        ([4.0, 4.0 * (1 - 5e-16), 4.0 * (1 - 2e-15)], [0, 2]),
    ])
    def test_kept_breakpoints_follow_the_last_kept(self, traces, kept):
        got = protocols._kept_breakpoints(np.array(traces))
        assert got.tolist() == kept


class TestPaths:
    def test_limit_path_trace_parametrization(self):
        for parties in (2, 3):
            for s in np.linspace(1.0, 2.0 ** parties, 9):
                op = limit_path(parties, float(s))
                assert np.trace(op) == pytest.approx(s, abs=1e-12)

    def test_limit_path_endpoints(self):
        np.testing.assert_allclose(limit_path(2, 4.0), np.eye(4), atol=1e-12)
        np.testing.assert_allclose(limit_path(2, 1.0),
                                   np.diag([0.0, 0.0, 0.0, 1.0]), atol=1e-12)

    def test_limit_path_is_product(self):
        # each party's factor carries the per-party trace s**(1/P)
        m = limit_path(3, 3.7)
        factor = np.diag([3.7 ** (1.0 / 3.0) - 1.0, 1.0])
        np.testing.assert_allclose(m, kron([factor] * 3), atol=1e-12)

    def test_main_branch_trace_decreasing(self):
        path = main_branch_path(2, 30, 0.5)
        s = np.asarray(path.s_values)
        assert s[0] == pytest.approx(4.0)
        assert np.all(np.diff(s) < 0)

    def test_main_branch_interpolates_on_trace(self):
        path = main_branch_path(2, 10, 0.5)
        for s in np.linspace(path.s_values[-1], 4.0, 17):
            op = path.at(float(s))
            assert np.trace(op) == pytest.approx(s, abs=1e-10)

    def test_main_branch_end_value(self):
        # after n rounds each advanced factor is diag((1-eps)^n, 1)
        path = main_branch_path(2, 2, 0.5)
        eps = 2.0 ** -0.5
        f = np.diag([(1 - eps) ** 2, 1.0])
        np.testing.assert_allclose(path.operators[-1], np.kron(f, f),
                                   atol=1e-12)


class TestPathDistanceBound:
    def test_frozen_2q_values(self):
        rep = path_distance_bound(2, 100, 0.5)
        assert rep.passed
        assert rep.bound == pytest.approx(np.sqrt(3.0) * 0.1)
        assert rep.max_distance == pytest.approx(0.0999334, abs=1e-6)

    def test_decreasing_in_rounds(self):
        vals = [path_distance_bound(2, nu, 0.5).max_distance
                for nu in (100, 1000, 10000)]
        assert vals[0] > vals[1] > vals[2]

    @pytest.mark.parametrize("parties", [3, 4])
    def test_design_bound_holds(self, parties):
        rep = path_distance_bound(parties, 100, 0.5, grid_points=201)
        assert rep.passed
        assert rep.bound == pytest.approx(
            parties * 2.0 ** (parties / 2.0) * 0.1)

    def test_linear_bound_only_up_to_three_parties(self):
        # the P * eps envelope survives at three parties and snaps at four
        eps = 0.1
        r3 = path_distance_bound(3, 100, 0.5, grid_points=201)
        assert r3.max_distance <= 3 * eps
        r4 = path_distance_bound(4, 100, 0.5, grid_points=201)
        assert r4.max_distance > 4 * eps

    def test_custom_grid_validation(self):
        with pytest.raises(ValueError):
            path_distance_bound(2, 10, 0.5, s_grid=[0.5, 2.0])


def _table_gap(parties, rounds, exponent, grid):
    """Gap of path_distance_bound by the step table: one trace norm per
    grid point of the clamped main-branch path against the limit path."""
    path = main_branch_path(parties, rounds, exponent)
    gaps = [trace_norm(path.at(float(s), clamp=True) - limit_path(parties, s))
            for s in grid]
    return max(gaps)


@st.composite
def _branch_grids(draw):
    """(parties, rounds, exponent, grid) with breakpoints of the finite
    branch, points below its floor and the ends of [1, 2^P]."""
    parties = draw(st.integers(2, 4))
    rounds = draw(st.integers(1, 400))
    exponent = draw(st.floats(0.05, 0.95))
    path = main_branch_path(parties, rounds, exponent)
    top = 2.0 ** parties
    picks = draw(st.lists(st.integers(0, path.s_values.size - 1),
                          min_size=1, max_size=8))
    free = draw(st.lists(st.floats(1.0, top), max_size=8))
    floor = path.s_bottom
    below = [1.0 + (floor - 1.0) * f for f in (0.0, 0.5, 1.0 - 1e-9)]
    grid = np.array([path.s_values[i] for i in picks] + free + below
                    + [1.0, top])
    return parties, rounds, exponent, np.clip(grid, 1.0, top)


class TestClosedFormMainBranch:
    @settings(max_examples=40, deadline=None)
    @given(_branch_grids())
    def test_diagonals_match_table_path(self, case):
        parties, rounds, exponent, grid = case
        got = main_branch_diagonals(parties, rounds, exponent, grid)
        path = main_branch_path(parties, rounds, exponent)
        want = np.array([np.diagonal(path.at(float(s), clamp=True)).real
                         for s in grid])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(_branch_grids())
    def test_gap_matches_trace_norm_route(self, case):
        parties, rounds, exponent, grid = case
        rep = path_distance_bound(parties, rounds, exponent, s_grid=grid)
        want = _table_gap(parties, rounds, exponent, grid)
        # The SVD inside trace_norm is exact only to about 1e-16 per
        # singular value, which decides gaps at rounding level (grids that
        # sit on the floor), hence the absolute floor.
        slack = 1e-12 * want + 1e-14
        assert abs(rep.max_distance - want) <= slack
        assert rep.worst_s in grid
        at_worst = _table_gap(parties, rounds, exponent, [rep.worst_s])
        assert abs(at_worst - want) <= 2.0 * slack

    def test_breakpoints_are_table_rows_bit_for_bit(self):
        path = main_branch_path(3, 40, 0.5)
        got = main_branch_diagonals(3, 40, 0.5, path.s_values)
        want = np.array([np.diagonal(op).real for op in path.operators])
        assert np.array_equal(got, want)

    def test_clamped_outside_the_domain(self):
        d = main_branch_diagonals(2, 10, 0.5, [4.0 + 1e-13, 0.5])
        np.testing.assert_array_equal(d[0], np.ones(4))
        eta = 1.0 - 10 ** -0.5
        np.testing.assert_allclose(d[1], np.kron([eta ** 10, 1.0],
                                                 [eta ** 10, 1.0]),
                                   rtol=1e-14)

    @pytest.mark.parametrize("parties", [2, 3, 5])
    def test_empty_trace_list_gives_no_rows(self, parties):
        d = main_branch_diagonals(parties, 10, 0.5, [])
        assert d.shape == (0, 2 ** parties) and d.dtype == float

    def test_huge_rounds_without_the_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("step table built")

        monkeypatch.setattr(protocols, "_step_rows", refuse)
        rep = path_distance_bound(6, 10 ** 12, 0.5)
        assert rep.passed
        assert 0.0 < rep.max_distance <= rep.bound
        d = main_branch_diagonals(6, 10 ** 12, 0.5, np.linspace(1, 64, 9))
        np.testing.assert_allclose(d.sum(axis=1), np.linspace(1, 64, 9),
                                   rtol=1e-12)


class TestDerivativeOutcomes:
    @pytest.mark.parametrize("parties", [2, 3, 4])
    def test_completeness_against_quadrature(self, parties):
        d = 2 ** parties
        # the path bottom is the projector onto the all-ones corner
        total = limit_path(parties, 1.0).copy()
        for alpha in range(parties):
            total = total + integrate_sqrt_smooth(stacked(
                lambda u, a=alpha: np.real(
                    derivative_outcomes(parties, _s_of(parties, u))[a])))
        np.testing.assert_allclose(np.diagonal(total), np.ones(d), atol=1e-10)

    def test_outcome_shapes_and_positions(self):
        outs = derivative_outcomes(3, 2.0)
        assert len(outs) == 3
        for alpha, op in enumerate(outs):
            assert op.shape == (8, 8)
            # the halting party contributes the ket-0 projector factor
            diag = np.real(np.diagonal(op))
            bit = 2 - alpha  # party 1 is the most significant bit
            for idx in range(8):
                if (idx >> bit) & 1:
                    assert diag[idx] == pytest.approx(0.0, abs=1e-14)


def _s_of(parties: int, sigma: float) -> float:
    return float((1.0 + sigma) ** parties)


class TestCMatrixFamily:
    def test_c1_endpoints(self):
        np.testing.assert_allclose(c_matrix_family("C1", 4.0).matrix,
                                   np.eye(4), atol=1e-12)
        np.testing.assert_allclose(c_matrix_family("C1", 1.0).matrix,
                                   np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-12)

    def test_c1_frozen_spectrum(self):
        # independent reduction at sigma = 0.5: the corner contributes the
        # eigenvalue 1; inside the 3x3 block, (1,-1,0) gives sigma = 0.5 and
        # the symmetric remainder is a closed-form 2x2 problem
        sig = 0.5
        rt = np.sqrt(sig)
        a = sig                         # equal diagonal pair
        b = sig * (9 * sig + 8 - 16 * rt)
        off = sig * 2 * (rt - 1) * np.sqrt(2.0)
        mean, half = (a + b) / 2, (b - a) / 2
        disc = np.sqrt(half ** 2 + off ** 2)
        expect = sorted([1.0, sig, mean - disc, mean + disc])
        w = np.sort(np.linalg.eigvalsh(c_matrix_family("C1", (1 + sig) ** 2)
                                       .matrix))
        np.testing.assert_allclose(w, expect, atol=1e-12)
        # coarse digits for the record
        np.testing.assert_allclose(w, [0.1297, 0.5, 0.9634, 1.0], atol=1e-4)

    def test_c1_reconstructs_limit_path(self):
        spec = channel_zonoid()
        solver = spec.solver()
        for s in np.linspace(1.0, 4.0, 7):
            c = c_matrix_family("C1", float(s)).matrix
            np.testing.assert_allclose(solver.image(c), limit_path(2, float(s)),
                                       atol=1e-10)

    @pytest.mark.parametrize("name", ["C2", "C3"])
    def test_halt_densities_rank_one_psd(self, name):
        for s in np.linspace(1.0, 4.0, 7):
            c = c_matrix_family(name, float(s)).matrix
            w = np.sort(np.linalg.eigvalsh(c))
            assert w[0] >= -1e-12
            assert np.sum(w > 1e-10) <= 1

    @pytest.mark.parametrize("name", ["C2", "C3"])
    def test_mixtures_stay_psd(self, name):
        for s in np.linspace(1.0, 4.0, 11):
            for x in np.linspace(0.0, 1.0, 5):
                c = c_matrix_family(name, float(s), x=float(x)).matrix
                assert np.linalg.eigvalsh(c)[0] >= -1e-10

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            c_matrix_family("C9", 2.0)

    def test_resolution_of_identity(self):
        total = c_matrix_family("C1", 1.0).matrix.copy()
        for name in ("C2", "C3"):
            total += integrate_sqrt_smooth(stacked(
                lambda u, n=name: c_matrix_family(n, _s_of(2, u)).matrix))
        np.testing.assert_allclose(total, np.eye(4), atol=1e-8)


class TestVerifyTheoremConditions:
    def test_limiting_family_passes(self):
        paths, fams = limiting_family()
        rep = verify_theorem_conditions(channel_zonoid(), paths,
                                        families=fams, s_samples=31)
        assert rep.passed
        assert rep.check("main:membership").defect <= 1e-7
        assert rep.check("resolution").defect <= 1e-7

    def test_blocked_family_passes(self):
        paths, fams = blocked_limiting_family()
        rep = verify_theorem_conditions(instrument_zonoid(), paths,
                                        families=fams, s_samples=11,
                                        sigma_samples=31)
        assert rep.passed
        names = {c.name for c in rep.checks}
        assert {"resolution[0]", "resolution[1]", "resolution[2]"} <= names

    def test_report_lookup(self):
        paths, fams = limiting_family()
        rep = verify_theorem_conditions(channel_zonoid(), paths,
                                        families=fams, s_samples=5,
                                        sigma_samples=11)
        with pytest.raises(KeyError):
            rep.check("no-such-check")

    def test_shifted_density_fails_psd(self):
        # The mixtures are checked at their ends only, so a density pushed
        # below zero by 1e-6 must still show up with that defect.
        paths, fams = limiting_family()
        fam = fams[0]
        fam.cdensity_at = lambda sg, f=fam.cdensity_at: (f(sg)
                                                         - 1e-6 * np.eye(4))
        rep = verify_theorem_conditions(channel_zonoid(), paths,
                                        families=fams, s_samples=5,
                                        sigma_samples=11)
        psd = rep.check(f"{fam.label}:psd")
        assert not psd.passed
        assert psd.defect == pytest.approx(1e-6, rel=1e-6)
        assert rep.check(f"{fams[1].label}:psd").passed

    def test_psd_names_the_sigma_of_the_lowest_eigenvalue(self):
        # A dip of depth 1e-6 centred on sigma = 0.3, a grid point.
        paths, fams = limiting_family()
        fam = fams[0]
        fam.cdensity_at = lambda sg, f=fam.cdensity_at: f(sg) - 1e-6 * (
            np.exp(-((sg - 0.3) / 0.1) ** 2)[:, None, None] * np.eye(4))
        rep = verify_theorem_conditions(channel_zonoid(), paths,
                                        families=fams, s_samples=5,
                                        sigma_samples=11)
        psd = rep.check(f"{fam.label}:psd")
        assert psd.defect == pytest.approx(1e-6, rel=1e-6)
        assert psd.where == "sigma=0.3"

    def test_path_checks_name_their_worst_s(self):
        # A bump on the |00><00| entry, largest at s = 2.5, breaks the
        # trace, the product structure and the C1 reconstruction there.
        paths, fams = limiting_family()

        def bumped(s):
            op = limit_path_stack(2, s)
            op[:, 0, 0] += 1e-6 * np.exp(-((s - 2.5) / 0.3) ** 2)
            return op

        paths[0].op_at = bumped
        rep = verify_theorem_conditions(channel_zonoid(), paths,
                                        families=fams, s_samples=7,
                                        sigma_samples=11)
        for name in ("trace", "product", "witness-family"):
            check = rep.check(f"main:{name}")
            assert not check.passed
            assert check.where == "s=2.5"

    @pytest.mark.parametrize("family, spec", [
        (limiting_family, channel_zonoid),
        (blocked_limiting_family, instrument_zonoid),
    ])
    def test_callbacks_are_called_once_per_grid(self, family, spec):
        # Each callback answers a whole grid, so its call count cannot
        # depend on the number of samples; a per-sample loop would.
        def counted(owner, attr, calls, key):
            real = getattr(owner, attr)
            if real is None:
                return

            def wrapper(x):
                calls[key] = calls.get(key, 0) + 1
                return real(x)
            setattr(owner, attr, wrapper)

        counts = []
        for samples in (11, 101):
            paths, fams = family()
            calls = {}
            for path in paths:
                for attr in ("op_at", "cmatrix_at"):
                    counted(path, attr, calls, f"{path.label}.{attr}")
            for fam in fams:
                for attr in ("density_at", "cdensity_at", "attach_s",
                             "sigma_at"):
                    counted(fam, attr, calls, f"{fam.label}.{attr}")
            rep = verify_theorem_conditions(spec(), paths, families=fams,
                                            s_samples=samples,
                                            sigma_samples=samples)
            assert rep.passed
            counts.append(calls)
        assert counts[0] == counts[1]
        assert counts[0]["main.op_at"] == 2
        assert all(counts[0][f"{fam.label}.cdensity_at"] == 3 for fam in fams)

    def test_non_hermitian_coefficient_stack_is_refused(self):
        # The verifier applies CoefficientMatrix's rule to every stack.
        paths, fams = limiting_family()
        skew = np.zeros((4, 4))
        skew[1, 3] = 1e-6
        fams[0].cdensity_at = lambda sg, f=fams[0].cdensity_at: f(sg) + skew
        with pytest.raises(ValueError, match="Hermitian"):
            verify_theorem_conditions(channel_zonoid(), paths, families=fams,
                                      s_samples=5, sigma_samples=11)

    def test_callback_answering_one_parameter_is_refused(self):
        paths, fams = limiting_family()
        fams[0].density_at = lambda sg, w=fams[0].density_at: w(sg)[0]
        with pytest.raises(ValueError, match="density_at returned shape"):
            verify_theorem_conditions(channel_zonoid(), paths, families=fams,
                                      s_samples=5, sigma_samples=11)

    def test_scaled_density_falls_back_to_the_solver(self, monkeypatch):
        # A family whose density is 1% off no longer assembles a witness, so
        # the solver answers membership and the resolution still fails.
        paths, fams = limiting_family()
        fams[0] = dataclasses.replace(
            fams[0], cdensity_at=lambda sg, f=fams[0].cdensity_at:
            1.01 * f(sg))
        calls = _count_membership_calls(monkeypatch)
        rep = verify_theorem_conditions(channel_zonoid(), paths,
                                        families=fams, s_samples=11,
                                        sigma_samples=11)
        mem = rep.check("main:membership")
        assert calls
        assert mem.passed
        assert mem.where.endswith(f"; solver {len(calls)}/11")
        assert not rep.check("resolution").passed

    @pytest.mark.parametrize("flaw", ["outside-box", "block-coupling",
                                      "anti-hermitian"])
    def test_witness_off_by_more_than_rounding_goes_to_the_solver(
            self, monkeypatch, flaw):
        # Each flaw has size 1e-9, so the witness residual stays far below
        # membership_tol; the witness counts only where it is a valid
        # coefficient matrix to rounding, as the solver's candidates are.
        spec = instrument_zonoid()
        paths, fams = blocked_limiting_family(spec)
        blocks = spec.block_list()
        bump = np.zeros((spec.kappa, spec.kappa))
        real = fams[0].cdensity_at

        def flawed(sg):
            c = real(sg)
            if flaw == "outside-box":
                return (1.0 + 1e-9) * c
            if flaw == "block-coupling":
                bump[blocks[0][0], blocks[1][0]] = 1e-9
                return c + bump + bump.T
            bump[blocks[1][0], blocks[1][1]] = 1e-9
            return c + bump - bump.T

        if flaw == "anti-hermitian":
            # The verifier refuses a non-Hermitian coefficient stack, so its
            # check is lifted here; the witness gate must still catch it.
            monkeypatch.setattr(protocols, "coefficient_stack",
                                lambda m: np.asarray(m, dtype=complex))
        fams[0] = dataclasses.replace(fams[0], cdensity_at=flawed)
        calls = _count_membership_calls(monkeypatch)
        rep = verify_theorem_conditions(spec, paths, families=fams,
                                        s_samples=11, sigma_samples=11)
        mem = rep.check("main:membership")
        assert calls
        assert mem.passed
        assert mem.where.endswith(f"; solver {len(calls)}/11")
        if flaw != "outside-box":
            # Only the bottom sample, sigma = 0, integrates nothing.
            assert len(calls) == 10

    def test_path_without_families_asks_the_solver_everywhere(
            self, monkeypatch):
        paths, _ = limiting_family()
        calls = _count_membership_calls(monkeypatch)
        rep = verify_theorem_conditions(channel_zonoid(), paths,
                                        s_samples=5)
        assert len(calls) == 5
        assert rep.check("main:membership").passed
        assert rep.check("main:membership").where.endswith("; solver 5/5")

    @pytest.mark.parametrize("family, spec", [
        (limiting_family, channel_zonoid),
        (blocked_limiting_family, instrument_zonoid),
    ])
    def test_default_grid_needs_no_solver(self, monkeypatch, family, spec):
        paths, fams = family()
        calls = _count_membership_calls(monkeypatch)
        rep = verify_theorem_conditions(spec(), paths, families=fams)
        mem = rep.check("main:membership")
        assert not calls
        assert mem.defect <= 1e-12
        assert mem.where.endswith("; solver 0/301")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1),
           st.floats(0.0, 1.0))
    def test_lowest_eigenvalue_of_a_mixture_is_at_least_its_ends(
            self, d, seed, x):
        # lambda_min is concave, which is why mixture positivity is only
        # checked at x = 0 and x = 1.
        rng = np.random.default_rng(seed)

        def hermitian():
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            return (g + g.conj().T) * rng.choice([1e-3, 1.0, 1e3])

        a, b = hermitian(), hermitian()
        low = min(np.linalg.eigvalsh(a)[0], np.linalg.eigvalsh(b)[0])
        slack = 1e-12 * (1.0 + np.linalg.norm(a, 2) + np.linalg.norm(b, 2))
        assert np.linalg.eigvalsh((1.0 - x) * a + x * b)[0] >= low - slack


def _count_membership_calls(monkeypatch) -> list:
    """Record each membership call of the condition verifier."""
    calls = []
    real = protocols.membership

    def counting(z, spec, tol):
        calls.append(z)
        return real(z, spec, tol=tol)

    monkeypatch.setattr(protocols, "membership", counting)
    return calls


class TestIntegratedWitness:
    """C(sigma) = C_end + sum_f int_0^sigma cdensity_f certifies the path."""

    @pytest.mark.parametrize("family, spec", [
        (limiting_family, channel_zonoid),
        (blocked_limiting_family, instrument_zonoid),
    ])
    @settings(max_examples=40, deadline=None)
    @given(sigmas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_assembled_witness_certifies_the_limit_path(self, family, spec,
                                                        sigmas):
        spec = spec()
        solver = spec.solver()
        (main,), fams = family(spec)
        c_end, _ = protocols._endpoint_check(main, spec)
        cs = c_end.matrix + sum(cumulative_sqrt_smooth(fam.cdensity_at, sigmas)
                                for fam in fams)
        for sigma, c in zip(sigmas, cs):
            assert np.abs(np.where(solver.mask, 0.0, c)).max() == 0.0
            for grid in solver.grids:
                w = np.linalg.eigvalsh(c[grid])
                assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12
            np.testing.assert_allclose(solver.image(c),
                                       limit_path(2, (1.0 + sigma) ** 2),
                                       rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("s_samples", [0, -1])
    def test_no_samples_is_rejected(self, s_samples):
        # An empty grid would pass every path check vacuously.
        paths, fams = limiting_family()
        with pytest.raises(ValueError):
            verify_theorem_conditions(channel_zonoid(), paths, families=fams,
                                      s_samples=s_samples)
        with pytest.raises(ValueError):
            paths[0].sample_grid(s_samples)

    @pytest.mark.parametrize("sigma_samples", [0, -1])
    def test_no_sigma_samples_is_rejected(self, sigma_samples):
        # Without sigma samples every family check would pass unchecked,
        # even for a density shifted below zero.
        paths, fams = limiting_family()
        fams[0].cdensity_at = lambda sg, f=fams[0].cdensity_at: (
            f(sg) - 1e-6 * np.eye(4))
        with pytest.raises(ValueError, match="sigma_samples"):
            verify_theorem_conditions(channel_zonoid(), paths, families=fams,
                                      s_samples=5,
                                      sigma_samples=sigma_samples)

    @pytest.mark.parametrize("family", [limiting_family,
                                        blocked_limiting_family])
    @pytest.mark.parametrize("s_samples", [None, 11, 25])
    def test_sigma_at_inverts_attach_s(self, family, s_samples):
        (main,), fams = family()
        for fam in fams:
            for s in main.sample_grid(s_samples):
                assert abs(fam.attach_s(fam.sigma_at(float(s))) - s) <= 1e-15


class TestLimitFamilies:
    """The reduced and blocked families share their paths and densities."""

    def test_derived_endpoint_is_the_closed_form_c1(self):
        (main,), _ = limiting_family()
        c_end, defect = protocols._endpoint_check(main, channel_zonoid())
        assert np.array_equal(c_end.matrix,
                              c_matrix_family("C1", 1.0).matrix)
        assert defect <= 1e-12

    def test_reduced_and_blocked_families_agree(self):
        (main,), fams = limiting_family()
        (bmain,), bfams = blocked_limiting_family()
        assert (main.s_top, main.s_bottom, main.dims) == (
            bmain.s_top, bmain.s_bottom, bmain.dims)
        grid = main.sample_grid(None)
        assert np.array_equal(grid, bmain.sample_grid(None))
        assert np.array_equal(main.op_at(grid), bmain.op_at(grid))
        sigmas = np.linspace(0.0, 1.0, 101)
        assert [f.label for f in fams] == [f.label for f in bfams]
        for fam, bfam in zip(fams, bfams):
            assert np.array_equal(fam.density_at(sigmas),
                                  bfam.density_at(sigmas))
            assert np.array_equal(fam.attach_s(sigmas), bfam.attach_s(sigmas))
            assert np.array_equal(fam.sigma_at(grid), bfam.sigma_at(grid))
