"""Tests for protocol trees, operator paths, and the condition verifier."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccverify import (
    EndpointFamily,
    FamilyTable,
    PartyDims,
    ProtocolParams,
    ProtocolTree,
    TreeReport,
    ZonoidSpec,
    blocked_limiting_family,
    build_protocol_pq,
    channel_zonoid,
    instrument_zonoid,
    integrate_sqrt_smooth,
    kraus_from_operators,
    kron,
    limiting_family,
    main_branch_diagonals,
    main_branch_path,
    partial_trace,
    path_distance_bound,
    protocol_leaf_diagonals,
    trace_norm,
    two_qubit_instrument,
    verify_theorem_conditions,
    verify_tree,
    zonoid_spec_for_instrument,
)
from loccverify import conditions, linalg, protocols, twoqubit, zonoid
from loccverify.linalg import diagonal_stack
from loccverify.protocols import (TreeFailure, derivative_diagonals,
                                  limit_path_diagonals, protocol_check_bytes,
                                  protocol_tree_bytes)
from loccverify.tolerances import SIGMA_SAMPLES
from loccverify.twoqubit import K_REDUCED, c_matrix_stack
from loccverify.zonoid import coefficient_stack




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
        leaves = [_node_path(j) for j in range(tree.n_nodes)
                  if _is_leaf(tree, j)]
        assert len(leaves) == parties * rounds + 1
        assert len(protocol_leaf_diagonals(parties, rounds, 0.5)) == \
            len(leaves)
        for path in leaves:
            with pytest.raises(IndexError):
                tree.node_at(path + (0,))

    def test_main_leaf_is_last(self):
        parties, rounds = 2, 3
        tree = build_protocol_pq(parties, rounds, 0.5)
        # the main branch never halts, so its path is all continue moves
        main = tree.node_at((1,) * (parties * rounds))
        assert main._index == tree.n_nodes - 1
        assert np.array_equal(
            np.diagonal(main.povm_element),
            protocol_leaf_diagonals(parties, rounds, 0.5)[-1])

    def test_node_at_navigates(self):
        tree = build_protocol_pq(2, 2, 0.5)
        assert tree.node_at(())._index == 0
        assert tree.node_at((0,))._index == 1
        assert tree.node_at((1,))._index == 2

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
    def test_deep_fault_reports_in_linear_memory(self):
        # A fault at the halt leaf of step 5998 fails the leaf sum of each
        # of its 5999 ancestors; each failure holds its row, not its path.
        tracemalloc.start()
        try:
            tree = build_protocol_pq(2, 3000, 0.5)
            leaf = tree.node_at((1,) * 5998 + (0,))
            leaf.povm_element = (leaf.povm_element
                                 + 1e-3 * np.diag([1.0, 0.0, 0.0, 0.0]))
            rep = verify_tree(tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rep.failures) == 6001
        assert peak <= protocol_check_bytes(2, 3000) + 512 * 6001
        first = rep.failures[0]
        assert (first.kind, first.row) == ("leaf-sum", 2 * 5998)
        assert first.node_path == (1,) * 5998
        assert rep.failures[-1].node_path == ()

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(1, 1), (0, 3)])
    def test_non_finite_element_is_refused(self, bad, entry):
        # A NaN element once passed verify_tree: NaN > tol is false.
        element = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        element[entry] = bad
        victim = build_protocol_pq(2, 5, 0.5).node_at((1, 1, 0))
        before = victim.povm_element
        with pytest.raises(ValueError, match="non-finite entry"):
            victim.povm_element = element
        assert np.array_equal(victim.povm_element, before)

    @pytest.mark.parametrize("table", [
        np.eye(4),  # an even row count
        np.ones((5, 8)),  # rows wider than the dims' 4
        np.ones(5),  # not 2-D
        np.where(np.eye(5, 4) > 0, np.nan, 0.25),
    ])
    def test_table_must_be_a_caterpillars(self, table):
        with pytest.raises(ValueError, match="table"):
            ProtocolTree(table, PartyDims((2, 2)))

    def test_parameters_are_not_a_tree_argument(self):
        # A tree holds no protocol parameters: a call that passes them
        # third fails loudly.
        table = build_protocol_pq(2, 1, 0.5)._table
        with pytest.raises(TypeError):
            ProtocolTree(table, PartyDims((2, 2)), ProtocolParams(2, 1, 0.5))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 12), st.floats(0.2, 0.8))
    def test_random_small_trees_pass(self, rounds, exponent):
        rep = verify_tree(build_protocol_pq(2, rounds, exponent))
        assert rep.ok


def _node_path(j):
    """Row j's path from the caterpillar's closed form: the continue node
    of step k, row 2k, is (1,) * k, and its halt leaf, row 2k + 1, is
    (1,) * k + (0,)."""
    return (1,) * (j // 2) + (0,) * (j % 2)


def _is_leaf(tree, j):
    """Halt leaves are the odd rows; the main leaf is the last row."""
    return j % 2 == 1 or j == tree.n_nodes - 1


def _reference_verify_tree(tree):
    """Node-by-node verification: per-node partial traces, per-edge factor
    comparisons and leaf sums in dicts keyed by row. Elements are read
    through ``node_at``; the caterpillar's closed form gives the edges (row
    2k has the children 2k + 1 and 2k + 2) and the acting party (party
    k mod P + 1 measures at row 2k)."""
    sum_tol, locality_tol, completeness_tol = 1e-9, 1e-10, 1e-9
    order = range(tree.n_nodes)
    dims = tree.dims
    p_count = dims.n_parties
    element = [tree.node_at(_node_path(j)).povm_element for j in order]

    def children(j):
        return () if _is_leaf(tree, j) else (j + 1, j + 2)

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

    leaf_sum, failed = {}, []
    max_sum = 0.0
    for j in reversed(order):
        if _is_leaf(tree, j):
            leaf_sum[j] = element[j]
            continue
        first, *rest = children(j)
        acc = leaf_sum[first].copy()
        for ch in rest:
            acc = acc + leaf_sum[ch]
        leaf_sum[j] = acc
        defect = float(np.abs(element[j] - acc).max())
        max_sum = max(max_sum, defect)
        if defect > sum_tol:
            failed.append((j, "leaf-sum", defect))
    max_prod = max_loc = 0.0
    factors = {}
    for j in order:
        facs, pdef = unit_trace_factors(element[j])
        factors[j] = facs
        max_prod = max(max_prod, pdef if facs is not None else 1.0)
        if facs is None or pdef > locality_tol:
            failed.append((j, "product", pdef))
    for j in order:
        pf = factors[j]
        for ch in children(j):
            cf = factors[ch]
            if pf is None or cf is None:
                continue
            for p in range(1, p_count + 1):
                if p == j // 2 % p_count + 1:
                    continue
                d = float(np.linalg.norm(pf[p - 1] - cf[p - 1]))
                max_loc = max(max_loc, d)
                if d > locality_tol:
                    failed.append((ch, f"locality-party-{p}", d))
    comp = float(np.abs(leaf_sum[0] - np.eye(dims.total)).max())
    if comp > completeness_tol:
        failed.append((0, "completeness", comp))

    return TreeReport(
        not failed, len(order), sum(1 for j in order if _is_leaf(tree, j)),
        max_sum, max_loc, max_prod, comp,
        tuple(TreeFailure(j, k, d) for j, k, d in failed))


def _inject_one_fault_of_each_kind(tree, picks):
    """Scale a halt leaf, bump an off-diagonal entry, add a Bell-like
    corner bump and make an element traceless, at the drawn nodes."""
    n = tree.n_nodes
    leaves = [j for j in range(n) if _is_leaf(tree, j)]
    parties, d = tree.dims.n_parties, tree.dims.total
    leaf = tree.node_at(_node_path(leaves[picks[0] % len(leaves)]))
    leaf.povm_element = 1.01 * leaf.povm_element
    node = tree.node_at(_node_path(picks[1] % n))
    bumped = node.povm_element.copy()
    bumped[0, 1] += 0.03
    bumped[1, 0] += 0.03
    node.povm_element = bumped
    node = tree.node_at(_node_path(picks[2] % n))
    bell = np.zeros((d, d))
    bell[0, d - 1] = bell[d - 1, 0] = 0.05
    node.povm_element = node.povm_element + bell
    node = tree.node_at(_node_path(picks[3] % n))
    node.povm_element = kron([np.diag([1.0, -1.0])]
                             + [np.eye(2)] * (parties - 1))


def _assert_same_report(got, want, tol=1e-12):
    """Equal reports: the largest defects to 1e-12, which is rounding on
    a clean tree, and each failure's defect to ``tol``."""
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
        assert g.defect == pytest.approx(w.defect, rel=0, abs=tol)


def _bump_complex(node):
    """Add a complex off-diagonal pair and an imaginary part on the last
    diagonal entry to the node's element."""
    element = node.povm_element.copy()
    element[0, 1] += 1e-3 + 2e-3j
    element[1, 0] += 1e-3 - 2e-3j
    element[-1, -1] += 2e-3j
    node.povm_element = element


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

class TestChunkBoundaries:
    """verify_tree in column ranges of a few columns: the running
    leaf sum is carried from one range to the next."""

    @pytest.fixture(autouse=True)
    def few_columns(self, monkeypatch):
        # Two columns a range at 2^P = 8 entries, one once an override
        # adds a pair of rows, four at 2^P = 4.
        monkeypatch.setattr(protocols, "_CHUNK_ENTRIES", 16)

    def test_built_tree_faults_in_different_ranges(self):
        tree = build_protocol_pq(3, 40, 0.5)
        _assert_same_report(verify_tree(tree), _reference_verify_tree(tree))
        leaf = tree.node_at((1,) * 10 + (0,))
        leaf.povm_element = 1.01 * leaf.povm_element
        node = tree.node_at((1,) * 50)
        bumped = node.povm_element.copy()
        bumped[0, 1] += 1e-3
        bumped[1, 0] += 1e-3
        node.povm_element = bumped
        got = verify_tree(tree)
        # Bottom-up: the bumped node, then every ancestor of the leaf.
        assert [f.node_path for f in got.failures if f.kind == "leaf-sum"] \
            == [(1,) * 50] + [(1,) * k for k in range(10, -1, -1)]
        assert ((1,) * 50, "product") in {(f.node_path, f.kind)
                                          for f in got.failures}
        _assert_same_report(got, _reference_verify_tree(tree))


def _fault(tree, kind, rng):
    """One fault of ``kind`` at a drawn node: a scaled halt leaf, a real
    off-diagonal pair, a complex override, a traceless element, or none."""
    n, d = tree.n_nodes, tree.dims.total
    if kind == "leaf-scale":
        leaf = tree.node_at(_node_path(2 * int(rng.integers(0, n // 2)) + 1))
        leaf.povm_element = 1.01 * leaf.povm_element
    elif kind == "offdiag":
        node = tree.node_at(_node_path(int(rng.integers(0, n))))
        bumped = node.povm_element.copy()
        bumped[0, 1] += 1e-3
        bumped[1, 0] += 1e-3
        node.povm_element = bumped
    elif kind == "complex":
        _bump_complex(tree.node_at(_node_path(int(rng.integers(0, n)))))
        view = tree.node_at(_node_path(int(rng.integers(0, n))))
        element = view.povm_element.copy()
        element[d // 2, d // 2] += 0.003j
        view.povm_element = element
    elif kind == "traceless":
        flip = [np.diag([1.0, -1.0])] + [np.eye(2)] * (tree.dims.n_parties - 1)
        node = tree.node_at(_node_path(int(rng.integers(0, n))))
        node.povm_element = kron(flip)


class TestStackedVerify:
    """verify_tree in column ranges of a few columns: range boundaries fall
    inside the carried leaf sums and between a parent and its children."""

    @pytest.mark.parametrize("columns", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind", ["clean", "leaf-scale", "offdiag",
                                      "complex", "traceless"])
    @pytest.mark.parametrize("parties,rounds", [(2, 9), (3, 6), (4, 4),
                                                (5, 3), (6, 2)])
    def test_ranges_match_the_reference(self, monkeypatch, parties, rounds,
                                        kind, columns):
        tree = build_protocol_pq(parties, rounds, 0.5)
        _fault(tree, kind, np.random.default_rng([parties, columns,
                                                  len(kind)]))
        whole = verify_tree(tree)
        monkeypatch.setattr(protocols, "_CHUNK_ENTRIES",
                            columns * tree.dims.total)
        got = verify_tree(tree)
        assert got.ok == (kind == "clean")
        _assert_same_report(got, _reference_verify_tree(tree), tol=4.4e-16)
        # The leaf sums add in the same order whatever the ranges.
        assert (got.max_node_sum_defect, got.completeness_defect) == \
            (whole.max_node_sum_defect, whole.completeness_defect)


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
    """A tree is its real diagonal table and dense overrides; its nodes
    are views of the table's rows, and making them changes nothing."""

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
            nodes = [tree.node_at(_node_path(j))  # makes every view
                     for j in range(tree.n_nodes)]
            assert len(nodes) == tree.n_nodes and not tree._overrides
            assert np.array_equal(tree._table, table)
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
        d = 2 ** parties
        assert table.shape == (tree.n_nodes, d) and table.dtype == np.float64
        nodes = [tree.node_at(_node_path(j)) for j in range(tree.n_nodes)]
        for node, row in zip(nodes, table, strict=True):
            e = node.povm_element
            assert e.shape == (d, d) and e.dtype == np.complex128
            assert np.array_equal(e, np.diag(np.diagonal(e)))
            assert np.array_equal(np.diagonal(e), row)
        leaves = [n for j, n in enumerate(nodes) if _is_leaf(tree, j)]
        assert np.array_equal(
            np.array([np.diagonal(n.povm_element) for n in leaves]),
            protocol_leaf_diagonals(parties, rounds, 0.5))
        assert tree.n_nodes == len(nodes)
        assert np.array_equal(tree._table, table) and not tree._overrides

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

class TestNodeViews:
    """Nodes are views of table rows, found from their paths in closed
    form; reading an element makes one dense matrix, and only elements
    that are not real diagonals are kept dense."""

    def test_paths_map_to_rows(self):
        tree = build_protocol_pq(3, 4, 0.5)
        assert tree.node_at(())._index == 0
        for k in range(13):
            assert tree.node_at((1,) * k)._index == 2 * k
            assert tree.node_at((-1,) * k)._index == 2 * k
        for k in range(12):
            assert tree.node_at((1,) * k + (0,))._index == 2 * k + 1
            assert tree.node_at((1,) * k + (-2,))._index == 2 * k + 1
        # A path that leaves the tree fails as list indexing fails.
        for bad in [(0, 0), (0, 1), (2,), (-3,), (1, 0, 1), (1,) * 13,
                    (1,) * 12 + (0,)]:
            with pytest.raises(IndexError):
                tree.node_at(bad)
        with pytest.raises(TypeError):
            tree.node_at((1.0,))

    def test_assigned_elements(self):
        tree = build_protocol_pq(2, 3, 0.5)
        leaf = tree.node_at((1, 0))
        element = leaf.povm_element
        assert element.dtype == np.complex128 and not element.flags.writeable
        with pytest.raises(ValueError):
            element[0, 0] = 1.0
        # A real diagonal goes into the table row; nothing is kept dense.
        leaf.povm_element = 2.0 * element
        assert not tree._overrides
        assert np.array_equal(tree._table[3], 2.0 * np.diagonal(element).real)
        assert np.array_equal(leaf.povm_element, 2.0 * element)
        bumped = element.copy()
        bumped[0, 1] = 0.01j
        leaf.povm_element = bumped
        assert list(tree._overrides) == [3]
        assert np.array_equal(tree.node_at((1, 0)).povm_element, bumped)
        bumped[0, 1] = 0.0  # the tree holds its own copy
        assert tree.node_at((1, 0)).povm_element[0, 1] == 0.01j
        leaf.povm_element = element
        assert not tree._overrides
        with pytest.raises(ValueError, match="does not match dims"):
            leaf.povm_element = np.eye(8)

    @pytest.mark.parametrize("shape", [(2, 4), (3, 40), (6, 10)],
                             ids=["2-4", "3-40", "6-10"])
    def test_complex_diagonal_override_matches_reference(self, shape):
        # An imaginary part on a diagonal makes the leaf sums complex: a
        # leaf's, and a node's that also sets a complex off-diagonal pair.
        tree = build_protocol_pq(*shape, 0.5)
        leaf, node = (1, 1, 0), (1, 1, 1)
        d = tree.dims.total
        view = tree.node_at(leaf)
        element = view.povm_element.copy()
        element[d // 2, d // 2] += 0.003j
        view.povm_element = element
        _bump_complex(tree.node_at(node))
        got = verify_tree(tree)
        assert {(leaf[:-1], "leaf-sum"), (node, "leaf-sum")} <= {
            (f.node_path, f.kind) for f in got.failures}
        _assert_same_report(got, _reference_verify_tree(tree), tol=4.4e-16)

    def test_main_branch_path_memory(self):
        main_branch_path(6, 5, 0.5)
        tracemalloc.start()
        try:
            path = main_branch_path(6, 500, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.diagonals.shape == (path.s_values.size, 64)
        assert peak < 4e6

    def test_faulted_check_memory(self):
        # One scaled leaf costs its dense element and its scaled copy.
        verify_tree(build_protocol_pq(6, 2, 0.5))
        tracemalloc.start()
        try:
            tree = build_protocol_pq(6, 100, 0.5)
            leaf = tree.node_at((1,) * 7 + (0,))
            leaf.povm_element = 1.01 * leaf.povm_element
            report = verify_tree(tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not report.ok
        assert peak <= protocol_check_bytes(6, 100) + 2 * 64 * 64 * 16

    def test_complex_override_check_memory(self):
        # An imaginary part makes the leaf sums complex: up to 8 (D + 2 m)
        # bytes more per node and 16 per entry of one column range, on top
        # of the override's dense copies.
        verify_tree(build_protocol_pq(6, 2, 0.5))
        tracemalloc.start()
        try:
            tree = build_protocol_pq(6, 100, 0.5)
            _bump_complex(tree.node_at((1,) * 7))
            report = verify_tree(tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not report.ok
        d, m = 64, 2
        assert peak <= (protocol_check_bytes(6, 100)
                        + 8 * (d + 2 * m) * tree.n_nodes
                        + 16 * protocols._CHUNK_ENTRIES + 2 * d * d * 16)

    @pytest.mark.parametrize("parties,rounds", [(2, 2000), (3, 500),
                                                (6, 100)])
    @pytest.mark.parametrize("fault", ["leaf-scale", "offdiag", "each-kind"])
    def test_faulted_trees_match_the_reference(self, parties, rounds, fault):
        tree = build_protocol_pq(parties, rounds, 0.5)
        rng = np.random.default_rng([parties, rounds])
        expect = None
        if fault == "leaf-scale":
            # A halt leaf whose 1% change is visible, scaled as the
            # benchmark scales it.
            size = protocol_leaf_diagonals(parties, rounds, 0.5)[:-1].max(1)
            step = int(rng.choice(np.flatnonzero(size >= 1e-6)))
            leaf = tree.node_at((1,) * step + (0,))
            leaf.povm_element = leaf.povm_element * 1.01
            expect = ((1,) * step, "leaf-sum")
        elif fault == "offdiag":
            depth = int(rng.integers(1, parties * rounds + 1))
            node = tree.node_at((1,) * depth)
            bumped = node.povm_element.copy()
            bumped[0, 1] += 1e-6
            bumped[1, 0] += 1e-6
            node.povm_element = bumped
            expect = ((1,) * depth, "product")
        else:
            _inject_one_fault_of_each_kind(
                tree, rng.integers(0, 2 ** 20, 4).tolist())
        got = verify_tree(tree)
        assert not got.ok
        if expect:
            assert expect in {(f.node_path, f.kind) for f in got.failures}
        _assert_same_report(got, _reference_verify_tree(tree), tol=4.4e-16)


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


class TestPowers:
    """The eta powers of the protocol tables and the main branch are
    bitwise the Python float powers they replaced."""

    @staticmethod
    def _assert_bitwise(eta, exponents):
        want = np.array([eta ** n for n in exponents], dtype=float)
        got = protocols._powers(eta, exponents)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_seeded_protocol_parameters(self, rng):
        # Few rounds and c near 0 put eta = 1 - rounds^-c near 0 (eta is 0
        # at one round); many rounds and c near 1 put it near 1.
        cases = [(int(rng.integers(1, 4)), float(rng.uniform(0.001, 0.1)))
                 for _ in range(8)]
        cases += [(int(rng.integers(1000, 9001)), float(rng.uniform(0.5,
                                                                    0.999)))
                  for _ in range(8)]
        etas = []
        for rounds, c in cases:
            eta = 1.0 - ProtocolParams(2, rounds, c).epsilon
            etas.append(eta)
            self._assert_bitwise(eta, range(rounds + 2))
            # main_branch_diagonals passes its cycles as a float array.
            self._assert_bitwise(eta, np.arange(0.0, rounds + 2, 7))
        assert min(etas) < 0.1 and max(etas) > 0.99

    @pytest.mark.parametrize("eta", [0.0, 1e-3, 0.137, 0.5, 1.0 - 1e-3,
                                     1.0 - 2.0 ** -40, 1.0])
    def test_fixed_eta(self, eta):
        self._assert_bitwise(eta, range(9002))
        self._assert_bitwise(eta, range(4000, 4100))

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0 - 1e-15] + [
        1.0 - ProtocolParams(p, rounds, c).epsilon
        for p, rounds, c in ((2, 9000, 0.6), (2, 9180, 0.4), (3, 900, 0.4))])
    def test_float_power_is_math_pow(self, eta):
        # np.float_power calls the C library's pow once per entry; a numpy
        # that vectorised it could round otherwise.
        want = np.array([math.pow(eta, n) for n in range(20001)])
        got = protocols._powers(eta, range(20001))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


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
    its diagonals stacked in one real array and its operator at each
    breakpoint the reference operator; returns the number kept."""
    s_ref, ops_ref = _reference_main_branch(parties, rounds, exponent)
    path = main_branch_path(parties, rounds, exponent)
    d = 2 ** parties
    assert isinstance(path.diagonals, np.ndarray)
    assert path.diagonals.shape == (s_ref.size, d)
    assert path.diagonals.dtype == np.float64
    assert np.array_equal(path.s_values, s_ref)
    assert np.array_equal(path.diagonals,
                          np.array([np.diagonal(op).real for op in ops_ref]))
    for s, op in zip(s_ref, ops_ref, strict=True):
        got = path.at(float(s))
        assert got.dtype == np.complex128 and np.array_equal(got, op)
    return s_ref.size


def _assert_matches_reference(parties, rounds, exponent):
    halt, cont = _reference_steps(parties, rounds, exponent)
    assert np.array_equal(protocol_leaf_diagonals(parties, rounds, exponent),
                          np.vstack([halt, cont[-1:]]))
    _assert_branch_matches_reference(parties, rounds, exponent)
    tree = build_protocol_pq(parties, rounds, exponent)
    assert tree.n_nodes == 2 * len(halt) + 1
    assert np.array_equal(tree.node_at(()).povm_element, np.eye(2 ** parties))
    for k, (h, c) in enumerate(zip(halt, cont)):
        assert np.array_equal(tree.node_at((1,) * k + (0,)).povm_element,
                              np.diag(h.astype(np.complex128)))
        assert np.array_equal(tree.node_at((1,) * (k + 1)).povm_element,
                              np.diag(c.astype(np.complex128)))


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


def _sequential_kept(traces):
    """The drop rule as a plain loop: keep the first trace, then each one
    below the last kept by a relative 1e-15."""
    kept = [0]
    for i in range(1, len(traces)):
        if traces[i] < traces[kept[-1]] * (1.0 - 1e-15):
            kept.append(i)
    return kept


def _ulp_staircase(top, steps, stride):
    """``steps`` traces from ``top`` down, ``stride`` ulps of 1.0 apart."""
    return top - np.arange(steps) * stride * np.spacing(1.0)


_SYNTHETIC_TRACES = {
    "steep": 4.0 * 0.5 ** np.arange(60),
    "equal": np.full(40, 3.0),
    "one-ulp staircase": _ulp_staircase(1.5, 200, 1),
    "two-ulp staircase": _ulp_staircase(3.0, 200, 2),
    "steep then staircase": np.concatenate(
        [4.0 - np.arange(10) * 0.25, _ulp_staircase(1.5, 100, 1)]),
    "plateaus then drops": np.repeat([4.0, 3.0, 3.0 * (1 - 5e-16), 2.5,
                                      2.5 * (1 - 2e-15), 2.0],
                                     [3, 1, 5, 2, 7, 4]),
    "rise after a drop": np.array([4.0, 3.0, 3.5, 3.5, 3.0 * (1 - 5e-16),
                                   2.9, 3.2, 2.9 * (1 - 2e-15)]),
}
_SHORT_VALUES = (2.0, 2.0 * (1 - 5e-16), 2.0 * (1 - 2e-15), 1.0, 3.0)


class TestDropRule:
    """_kept_breakpoints is the sequential drop rule, on traces that reach
    its head, its successor chain and the ends of both."""

    @pytest.mark.parametrize("name", sorted(_SYNTHETIC_TRACES))
    def test_synthetic_traces(self, name):
        traces = _SYNTHETIC_TRACES[name]
        assert protocols._kept_breakpoints(traces).tolist() == \
            _sequential_kept(traces)

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_every_short_sequence(self, length):
        for traces in itertools.product(_SHORT_VALUES, repeat=length):
            traces = np.array(traces)
            assert protocols._kept_breakpoints(traces).tolist() == \
                _sequential_kept(traces), traces

    @pytest.mark.parametrize("seed", range(8))
    def test_random_walks_of_plateaus_and_ulp_steps(self, seed):
        # Steps of 0 to 12 ulps down, with the odd rise, so plateaus,
        # drops just below and just above the margin and steep runs mix.
        r = np.random.default_rng(seed)
        steps = r.integers(0, 13, 400) * np.spacing(1.0)
        steps[r.random(400) < 0.05] *= -3.0
        steps[r.random(400) < 0.05] = 0.01
        traces = 2.0 - np.concatenate([[0.0], np.cumsum(steps)])
        assert protocols._kept_breakpoints(traces).tolist() == \
            _sequential_kept(traces)


class TestMainBranchRanges:
    """main_branch_path builds its columns a range at a time."""

    @pytest.mark.parametrize("parties,rounds,exponent", [
        (2, 900, 0.4), (2, 9000, 0.5), (3, 900, 0.4), (4, 270, 0.6),
        (6, 40, 0.3)])
    @pytest.mark.parametrize("columns", [1, 2, 3, 7, 64])
    def test_ranges_give_the_whole_branch(self, monkeypatch, parties, rounds,
                                          exponent, columns):
        # Ranges of a few columns cross the head of steadily falling
        # traces, the plateau and every cycle boundary; the path is the one
        # a single range builds, bit for bit.
        whole = main_branch_path(parties, rounds, exponent)
        monkeypatch.setattr(protocols, "_PATH_CHUNK_ENTRIES",
                            columns << parties)
        got = main_branch_path(parties, rounds, exponent)
        assert got.s_values.tobytes() == whole.s_values.tobytes()
        assert got.diagonals.tobytes() == whole.diagonals.tobytes()

    @pytest.mark.parametrize("columns", [1, 5])
    def test_ranges_follow_the_sequential_rule(self, monkeypatch, columns):
        monkeypatch.setattr(protocols, "_PATH_CHUNK_ENTRIES", columns << 2)
        assert _assert_branch_matches_reference(2, 900, 0.4) < 2 * 900 + 1

    def test_memory_follows_the_kept_breakpoints(self):
        # Built whole, the 2e6 + 1 columns peak at 208 MiB to keep 101
        # breakpoints; a range of 2^20 entries at a time peaks near 37.
        main_branch_path(2, 10, 0.05)
        tracemalloc.start()
        try:
            path = main_branch_path(2, 10 ** 6, 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.s_values.size == 101
        assert peak < 64 * 2 ** 20


def _vector_reference_branch(parties, rounds, exponent, block=2 ** 15):
    """Main-branch breakpoints by the sequential drop rule over every node:
    each node's diagonal the product of its factors taken left to right,
    as np.kron takes them, and its trace the sum of that row; the nodes
    are made a block at a time."""
    eta = 1.0 - ProtocolParams(parties, rounds, exponent).epsilon
    powers = np.array([eta ** n for n in range(rounds + 2)])
    s_list, kept = [], []
    for start in range(0, parties * rounds + 1, block):
        n, ahead = np.divmod(np.arange(start, min(start + block,
                                                  parties * rounds + 1)),
                             parties)
        rows = np.ones((n.size, 1))
        for party in range(1, parties + 1):
            factor = np.ones((n.size, 2))
            factor[:, 0] = np.where(party <= ahead, powers[n + 1], powers[n])
            rows = (rows[:, :, None] * factor[:, None, :]).reshape(n.size, -1)
        for i, s in enumerate(rows.sum(axis=1).tolist()):
            if s_list and not s < s_list[-1] * (1.0 - 1e-15):
                continue
            s_list.append(s)
            kept.append(rows[i])
    return np.array(s_list), np.array(kept)


def _floor_node(parties, rounds, exponent):
    """The first main-branch node that main_branch_path does not build,
    P n_f + 1 with n_f as the floor's derivation gives it, and eta."""
    eta = 1.0 - ProtocolParams(parties, rounds, exponent).epsilon
    n_f = math.ceil(math.log(2.0 ** -54 / (parties * 2 ** (parties - 1)))
                    / math.log(eta)) + 1
    return parties * n_f + 1, eta


_FLOOR_EXPONENTS = (0.05, 0.25, 0.4, 0.5, 0.6, 0.75)
_FLOOR_ROUNDS = {2: (9000, 40000), 3: (3000,), 4: (900,), 5: (300,),
                 6: (100,)}


class TestMainBranchFloor:
    """main_branch_path stops at the floor: from cycle n_f on every node's
    trace is exactly 1.0, and no node after P n_f is built."""

    @pytest.mark.parametrize("exponent", _FLOOR_EXPONENTS)
    @pytest.mark.parametrize("parties,rounds", [
        (p, r) for p, rs in _FLOOR_ROUNDS.items() for r in rs])
    def test_path_is_the_whole_branch_bit_for_bit(self, parties, rounds,
                                                  exponent):
        s_ref, d_ref = _vector_reference_branch(parties, rounds, exponent)
        path = main_branch_path(parties, rounds, exponent)
        assert path.s_values.tobytes() == s_ref.tobytes()
        assert path.diagonals.tobytes() == d_ref.tobytes()

    @pytest.mark.parametrize("exponent", [0.25, 0.5])
    def test_a_million_rounds(self, exponent):
        s_ref, d_ref = _vector_reference_branch(2, 10 ** 6, exponent)
        path = main_branch_path(2, 10 ** 6, exponent)
        assert path.s_values.tobytes() == s_ref.tobytes()
        assert path.diagonals.tobytes() == d_ref.tobytes()

    @pytest.mark.parametrize("parties,rounds,exponent", [
        (2, 40, 0.4), (2, 900, 0.4), (3, 200, 0.25), (4, 90, 0.6),
        (6, 30, 0.05)])
    def test_vector_reference_is_the_sequential_one(self, parties, rounds,
                                                    exponent):
        s_ref, ops = _reference_main_branch(parties, rounds, exponent)
        s_vec, d_vec = _vector_reference_branch(parties, rounds, exponent)
        assert s_vec.tobytes() == s_ref.tobytes()
        assert np.array_equal(
            d_vec, np.array([np.diagonal(op).real for op in ops]))

    @pytest.mark.parametrize("exponent", _FLOOR_EXPONENTS)
    @pytest.mark.parametrize("parties", [2, 3, 4, 5, 6])
    def test_nodes_past_the_floor_have_trace_one(self, parties, exponent):
        rounds = 10 ** 8
        first, eta = _floor_node(parties, rounds, exponent)
        assert first <= parties * rounds
        # The first node not built, the rest of its cycle and the next,
        # and the main leaf.
        k = np.array(list(range(first, first + 2 * parties))
                     + [parties * rounds], dtype=float)
        n = np.floor(k / parties)
        now = np.array([eta ** c for c in n.tolist()])
        later = np.array([eta ** (c + 1.0) for c in n.tolist()])
        cols = protocols._node_diagonals(parties, now, later, k - n * parties)
        assert protocols._traces(cols).tolist() == [1.0] * k.size

    @pytest.mark.parametrize("parties", range(2, 11))
    def test_traces_add_in_numpy_row_sum_order(self, parties):
        # Past 128 entries a row sum splits into halves; ProtocolParams
        # allows such widths, from P = 8 on.
        rng = np.random.default_rng(parties)
        cols = rng.random((2 ** parties, 7)) * 10.0 ** rng.uniform(
            -20, 3, (2 ** parties, 1))
        want = np.ascontiguousarray(cols.T).sum(axis=1)
        assert protocols._traces(cols).tobytes() == want.tobytes()

    @pytest.mark.parametrize("parties,rounds,exponent", [
        (2, 10 ** 6, 0.5), (2, 10 ** 5, 0.3), (4, 10 ** 5, 0.4),
        (3, 9000, 0.05), (6, 10 ** 4, 0.25), (2, 9000, 0.6), (2, 1, 0.5)])
    def test_columns_built_stop_at_the_floor(self, monkeypatch, parties,
                                             rounds, exponent):
        asked = []
        node_diagonals = protocols._node_diagonals

        def counted(p, now, later, ahead):
            asked.append(ahead.size)
            return node_diagonals(p, now, later, ahead)

        monkeypatch.setattr(protocols, "_node_diagonals", counted)
        main_branch_path(parties, rounds, exponent)
        eta = 1.0 - ProtocolParams(parties, rounds, exponent).epsilon
        if eta > 0.0:
            first, _ = _floor_node(parties, rounds, exponent)
            assert sum(asked) <= first
        assert sum(asked) <= parties * rounds + 1
        # O(rounds^c): about 37 / eps cycles, not rounds.
        if (parties, rounds) == (2, 10 ** 6):
            assert sum(asked) < 10 ** 5


class TestPaths:
    def test_limit_path_trace_parametrization(self):
        for parties in (2, 3):
            grid = np.linspace(1.0, 2.0 ** parties, 9)
            ops = diagonal_stack(limit_path_diagonals(parties, grid))
            np.testing.assert_allclose(np.trace(ops, axis1=1, axis2=2), grid,
                                       rtol=0.0, atol=1e-12)

    def test_limit_path_endpoints(self):
        top, bottom = diagonal_stack(limit_path_diagonals(2, [4.0, 1.0]))
        np.testing.assert_allclose(top, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(bottom, np.diag([0.0, 0.0, 0.0, 1.0]),
                                   atol=1e-12)

    def test_limit_path_is_product(self):
        # each party's factor carries the per-party trace s**(1/P)
        (m,) = diagonal_stack(limit_path_diagonals(3, [3.7]))
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
        np.testing.assert_allclose(path.at(path.s_bottom), np.kron(f, f),
                                   atol=1e-12)

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
    def test_at_refuses_a_non_finite_s(self, s, clamp):
        # Clamping once mapped nan to a nan operator and +-inf to the ends.
        path = main_branch_path(2, 10, 0.5)
        with pytest.raises(ValueError, match="must be finite"):
            path.at(s, clamp=clamp)


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

    @pytest.mark.parametrize("points", [0, -3])
    def test_grid_points_below_one_refused(self, points):
        with pytest.raises(ValueError, match="grid_points must be at least 1"):
            path_distance_bound(2, 10, 0.5, grid_points=points)

    def test_custom_grid_validation(self):
        # The limit path is read only on [1, 4], up to rounding; points
        # within rounding are clamped, and a non-finite trace is refused on
        # the finite branch too.
        for grid in ([0.5, 2.0], [2.0, 4.5], [np.nan, 2.0], [2.0, np.inf]):
            with pytest.raises(ValueError):
                limit_path_diagonals(2, grid)
        for grid in ([np.nan, 2.0], [2.0, np.inf]):
            with pytest.raises(ValueError, match="finite"):
                main_branch_diagonals(2, 10, 0.5, grid)
        assert np.array_equal(
            limit_path_diagonals(2, [4.0 + 1e-13, 1.0 - 1e-13]),
            limit_path_diagonals(2, [4.0, 1.0]))


def _table_gap(parties, rounds, exponent, grid):
    """Gap of path_distance_bound by the step table: one trace norm per
    grid point of the clamped main-branch path against the limit path."""
    path = main_branch_path(parties, rounds, exponent)
    limit = diagonal_stack(limit_path_diagonals(parties, grid))
    gaps = [trace_norm(path.at(float(s), clamp=True) - op)
            for s, op in zip(grid, limit)]
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


def _bisected_diagonals(parties, rounds, exponent, s):
    """main_branch_diagonals with every s placed by bisection over k."""
    eta = 1.0 - ProtocolParams(parties, rounds, exponent).epsilon
    s = np.asarray(s, dtype=float).reshape(-1)
    last = float(parties * rounds)

    def node_trace(k):
        n = np.floor(k / parties)
        l = k - n * parties
        now = eta ** n
        return (1.0 + eta * now) ** l * (1.0 + now) ** (parties - l)

    lo = np.where(s <= node_trace(np.array([last])), last, 0.0)
    hi = np.full(s.shape, last)
    for _ in range(int(np.ceil(np.log2(last)))):
        mid = np.floor(0.5 * (lo + hi))
        above = node_trace(mid) >= s
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    k = np.concatenate([lo, hi])
    n = np.floor(k / parties)
    cycles, at = np.unique(np.concatenate([n, n + 1.0]), return_inverse=True)
    now, later = np.split(
        np.array([eta ** x for x in cycles.tolist()])[at], 2)
    top, bottom = np.split(protocols._node_diagonals(
        parties, now, later, k - n * parties), 2, axis=1)
    t_top, t_bottom = protocols._traces(top), protocols._traces(bottom)
    span = t_top - t_bottom
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(span > 0.0, (s - t_bottom) / span, 0.0)
    lam = np.clip(lam, 0.0, 1.0)
    return np.ascontiguousarray((lam * top + (1.0 - lam) * bottom).T)


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
        # The closed-form gap, the sum of absolute diagonal differences of
        # the finite branch and the limit, against one trace norm per point.
        parties, rounds, exponent, grid = case
        gaps = np.abs(main_branch_diagonals(parties, rounds, exponent, grid)
                      - limit_path_diagonals(parties, grid)).sum(axis=1)
        want = _table_gap(parties, rounds, exponent, grid)
        # The SVD inside trace_norm is exact only to about 1e-16 per
        # singular value, which decides gaps at rounding level (grids that
        # sit on the floor), hence the absolute floor.
        slack = 1e-12 * want + 1e-14
        assert abs(gaps.max() - want) <= slack
        worst_s = grid[np.argmax(gaps)]
        at_worst = _table_gap(parties, rounds, exponent, [worst_s])
        assert abs(at_worst - want) <= 2.0 * slack
        # path_distance_bound takes the same gap on its uniform grid.
        uniform = np.linspace(1.0, 2.0 ** parties, 17)
        rep = path_distance_bound(parties, rounds, exponent, grid_points=17)
        want = _table_gap(parties, rounds, exponent, uniform)
        assert abs(rep.max_distance - want) <= 1e-12 * want + 1e-14
        assert rep.worst_s in uniform

    @pytest.mark.parametrize("parties", [2, 3, 4, 5, 6])
    def test_placement_matches_the_bisection(self, parties):
        # The closed-form placement keeps each segment that T confirms and
        # bisects the rest; on every grid it equals bisecting all points.
        rng = np.random.default_rng(parties)
        for rounds in (1, 2, 3, 10, 100, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6,
                       10 ** 7):
            for c in np.linspace(0.05, 0.95, 5):
                try:
                    ProtocolParams(parties, rounds, c)
                except ValueError:
                    continue
                top = 2.0 ** parties
                for grid in (np.linspace(1.0, top, 201),
                             rng.uniform(1.0, top, 201),
                             rng.uniform(0.5, top + 1.0, 201)):
                    assert np.array_equal(
                        main_branch_diagonals(parties, rounds, c, grid),
                        _bisected_diagonals(parties, rounds, c, grid))

    @pytest.mark.parametrize("parties, rounds, c", [
        (3, 40, 0.5), (5, 9000, 0.3), (6, 1000, 0.7), (4, 10 ** 5, 0.3),
        (6, 10 ** 5, 0.1), (2, 10 ** 6, 0.5), (3, 10 ** 6, 0.2)])
    def test_placement_matches_the_bisection_at_breakpoints(self, parties,
                                                            rounds, c):
        # At the breakpoints, and one ulp to either side, neighbouring node
        # traces can tie or fall out of order on the plateau, so two
        # segments may both pass the check T(k) >= s > T(k + 1).
        s = main_branch_path(parties, rounds, c).s_values
        for grid in (s, np.nextafter(s, np.inf), np.nextafter(s, -np.inf)):
            grid = np.clip(grid, 1.0, 2.0 ** parties)
            assert np.array_equal(
                main_branch_diagonals(parties, rounds, c, grid),
                _bisected_diagonals(parties, rounds, c, grid))

    def test_breakpoints_are_table_rows_bit_for_bit(self):
        path = main_branch_path(3, 40, 0.5)
        got = main_branch_diagonals(3, 40, 0.5, path.s_values)
        assert np.array_equal(got, path.diagonals)

    def test_clamped_outside_the_domain(self):
        d = main_branch_diagonals(2, 10, 0.5, [4.0 + 1e-13, 0.5])
        np.testing.assert_array_equal(d[0], np.ones(4))
        eta = 1.0 - 10 ** -0.5
        np.testing.assert_allclose(d[1], np.kron([eta ** 10, 1.0],
                                                 [eta ** 10, 1.0]),
                                   rtol=1e-14)

    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
    def test_non_finite_traces_are_refused(self, s):
        with pytest.raises(ValueError, match="finite"):
            main_branch_diagonals(2, 10, 0.5, [2.0, s])

    @pytest.mark.parametrize("parties", [2, 3, 5])
    def test_empty_trace_list_gives_no_rows(self, parties):
        d = main_branch_diagonals(parties, 10, 0.5, [])
        assert d.shape == (0, 2 ** parties) and d.dtype == float

    def test_huge_rounds_without_the_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("step table built")

        monkeypatch.setattr(protocols, "_built_table", refuse)
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
        total = (limit_path_diagonals(parties, [1.0])[0]
                 + integrate_sqrt_smooth(
                     lambda u: derivative_diagonals(parties, u).sum(axis=1)))
        np.testing.assert_allclose(total, np.ones(d), atol=1e-10)

    def test_two_party_outcomes_bit_for_bit(self):
        # The densities and their square roots, the Kraus operators, are
        # exact: sigma (or its root), 1 and 0.
        sigma = np.linspace(0.0, 1.0, 101)
        outs = diagonal_stack(derivative_diagonals(2, sigma))
        assert outs.shape == (101, 2, 4, 4) and outs.dtype == np.complex128
        for s, (first, second), (k1, k2) in zip(sigma, outs, np.sqrt(outs)):
            assert np.array_equal(first, np.diag([s, 1.0, 0.0, 0.0]))
            assert np.array_equal(second, np.diag([s, 0.0, 1.0, 0.0]))
            r = np.sqrt(s)
            assert np.array_equal(k1, np.diag([r, 1.0, 0.0, 0.0]))
            assert np.array_equal(k2, np.diag([r, 0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("parties", [2, 3])
    def test_kraus_operators_from_the_diagonals(self, parties):
        # The square roots of the real diagonals, made matrices, are the
        # entrywise square roots of the dense densities, bit for bit.
        sigma = np.linspace(0.0, 1.0, 11)
        diags = derivative_diagonals(parties, sigma)
        assert diags.shape == (11, parties, 2 ** parties)
        assert diags.dtype == np.float64
        assert np.array_equal(np.sqrt(diagonal_stack(diags)),
                              diagonal_stack(np.sqrt(diags)))

    def test_outcome_shapes_and_positions(self):
        outs = diagonal_stack(derivative_diagonals(3, [0.26]))[0]
        assert outs.shape == (3, 8, 8)
        for alpha, op in enumerate(outs):
            assert np.linalg.eigvalsh(op)[0] >= 0.0
            # the halting party contributes the ket-0 projector factor
            diag = np.real(np.diagonal(op))
            bit = 2 - alpha  # party 1 is the most significant bit
            for idx in range(8):
                if (idx >> bit) & 1:
                    assert diag[idx] == 0.0


def _own_loop_limit(parties, s):
    """Reference for limit_path_diagonals: one broadcast outer product per
    party, left to right."""
    factor = np.stack([s ** (1.0 / parties) - 1.0, np.ones_like(s)], axis=-1)
    diag = factor
    for _ in range(parties - 1):
        diag = (diag[..., :, None] * factor[..., None, :]).reshape(
            s.shape + (-1,))
    return diag


def _own_loop_derivative(parties, sigma):
    """Reference for derivative_diagonals: one broadcast outer product per
    party, left to right."""
    factors = np.empty(sigma.shape + (parties, parties, 2))
    factors[..., 0] = sigma[..., None, None]
    factors[..., 1] = 1.0
    factors.reshape(sigma.shape + (parties * parties, 2))[
        ..., ::parties + 1, :] = (1.0, 0.0)
    diag = factors[..., 0, :]
    for p in range(1, parties):
        diag = (diag[..., :, None] * factors[..., p, None, :]).reshape(
            sigma.shape + (parties, 2 ** (p + 1)))
    return diag


class TestPartyProduct:
    """The limit path and its halt densities, built by one party loop,
    are bitwise the broadcast outer products in the same order."""

    @pytest.mark.parametrize("parties", [2, 3, 4, 5, 6])
    def test_both_builders_are_bitwise_their_own_loops(self, parties):
        rng = np.random.default_rng(4100 + parties)
        s = 1.0 + (2.0 ** parties - 1.0) * rng.random(257)
        s[:2] = 1.0, 2.0 ** parties
        assert np.array_equal(limit_path_diagonals(parties, s),
                              _own_loop_limit(parties, s))
        sigma = rng.random((3, 43))
        sigma[0, :2] = 0.0, 1.0
        assert np.array_equal(derivative_diagonals(parties, sigma),
                              _own_loop_derivative(parties, sigma))
        # The grids their callers build: the verifier's s grid from 2^P
        # down to 1, path_distance_bound's up from 1, the attach points
        # (1 + sigma)^P of the sigma samples and the two ends alone; the
        # quadrature nodes t^2 with the sigma samples, as one cdensity_at
        # call takes them, and sigma = 0, 1 alone.
        top = 2.0 ** parties
        sigmas = np.linspace(0.0, 1.0, 101)
        for s in (np.linspace(top, 1.0, 37), np.linspace(1.0, top, 401),
                  (1.0 + sigmas) ** parties, np.array([1.0, top])):
            assert np.array_equal(limit_path_diagonals(parties, s),
                                  _own_loop_limit(parties, s))
        t = 0.5 * (np.polynomial.legendre.leggauss(16)[0] + 1.0)
        for sigma in (np.concatenate([t * t, sigmas]), np.array([0.0, 1.0])):
            assert np.array_equal(derivative_diagonals(parties, sigma),
                                  _own_loop_derivative(parties, sigma))

    @pytest.mark.parametrize("parties", [2, 3, 4, 5, 6])
    def test_out_of_range_parameters_are_refused(self, parties):
        # Beyond rounding, or not finite: refused. Within rounding of an
        # end: clamped to it.
        top = 2.0 ** parties
        for s in ([1.0 - 1e-9, 2.0], [2.0, top + 1e-9], [np.nan, 2.0],
                  [2.0, np.inf]):
            with pytest.raises(ValueError, match="s outside"):
                limit_path_diagonals(parties, s)
        assert np.array_equal(
            limit_path_diagonals(parties, [1.0 - 1e-13, top + 1e-13]),
            limit_path_diagonals(parties, [1.0, top]))
        for sigma in ([-1e-9, 0.5], [0.5, 1.0 + 1e-9], [np.nan],
                      [[0.5], [np.inf]]):
            with pytest.raises(ValueError, match="sigma outside"):
                derivative_diagonals(parties, sigma)


def _s_of(parties: int, sigma):
    return (1.0 + sigma) ** parties


def _mixture(name: str, s, x: float) -> np.ndarray:
    """Segment mixture (1 - x) C1(s) + x C_name(s) of a halt family."""
    return (1.0 - x) * c_matrix_stack("C1", s) + x * c_matrix_stack(name, s)


class TestCMatrixFamily:
    def test_c1_endpoints(self):
        top, bottom = c_matrix_stack("C1", [4.0, 1.0])
        np.testing.assert_allclose(top, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(bottom, np.diag([1.0, 0.0, 0.0, 0.0]),
                                   atol=1e-12)

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
        w = np.sort(np.linalg.eigvalsh(
            c_matrix_stack("C1", [(1 + sig) ** 2])[0]))
        np.testing.assert_allclose(w, expect, atol=1e-12)
        # coarse digits for the record
        np.testing.assert_allclose(w, [0.1297, 0.5, 0.9634, 1.0], atol=1e-4)

    def test_c1_reconstructs_limit_path(self):
        spec = channel_zonoid()
        solver = spec.solver()
        grid = np.linspace(1.0, 4.0, 7)
        np.testing.assert_allclose(
            solver.image(c_matrix_stack("C1", grid)),
            diagonal_stack(limit_path_diagonals(2, grid)), atol=1e-10)

    @pytest.mark.parametrize("name", ["C2", "C3"])
    def test_halt_densities_rank_one_psd(self, name):
        for c in c_matrix_stack(name, np.linspace(1.0, 4.0, 7)):
            w = np.sort(np.linalg.eigvalsh(c))
            assert w[0] >= -1e-12
            assert np.sum(w > 1e-10) <= 1

    @pytest.mark.parametrize("name", ["C2", "C3"])
    def test_mixtures_stay_psd(self, name):
        grid = np.linspace(1.0, 4.0, 11)
        for x in np.linspace(0.0, 1.0, 5):
            low = np.linalg.eigvalsh(_mixture(name, grid, x))[:, 0]
            assert low.min() >= -1e-10

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            c_matrix_stack("C9", [2.0])

    def test_resolution_of_identity(self):
        total = c_matrix_stack("C1", [1.0])[0]
        for name in ("C2", "C3"):
            total += integrate_sqrt_smooth(
                lambda u, n=name: c_matrix_stack(n, _s_of(2, u)))
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
                                        families=fams, s_samples=11)
        assert rep.passed
        names = {c.name for c in rep.checks}
        assert {"resolution[0]", "resolution[1]", "resolution[2]"} <= names

    @pytest.mark.parametrize("dropped", [0, 1])
    def test_uncovered_block_fails_its_resolution(self, dropped):
        # Halt family k is outcome k + 1's block. Without it, nothing
        # covers that block, whose rows of the sum then miss the 2 x 2
        # identity by sqrt(2); every other check still passes.
        spec = instrument_zonoid()
        paths, fams = blocked_limiting_family(spec)
        del fams[dropped]
        rep = verify_theorem_conditions(spec, paths, families=fams,
                                        s_samples=11)
        failed = [c for c in rep.checks if not c.passed]
        assert [c.name for c in failed] == [f"resolution[{dropped + 1}]"]
        assert failed[0].defect == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert [c.name for c in rep.checks
                if c.name.startswith("resolution")] == [
            "resolution[0]", "resolution[1]", "resolution[2]"]

    def test_product_check_takes_the_spec_parties(self):
        # The diagonal of a Bell projector, (|00><00| + |11><11|) / 2,
        # added along the main path correlates the spec's two qubits; the
        # product check reads them from the spec, so no path can restate
        # them as one party of dimension 4.
        paths, fams = limiting_family()
        bell = np.array([0.5, 0.0, 0.0, 0.5])
        paths[0].op_at = lambda s, f=paths[0].op_at: f(s) + 0.01 * (
            np.asarray(s) - 1.0)[:, None] * bell
        rep = verify_theorem_conditions(channel_zonoid(), paths,
                                        families=fams, s_samples=11)
        product = rep.check("main:product")
        assert not product.passed
        assert product.defect == pytest.approx(7.444e-3, rel=1e-3)
        assert product.where == "s=4"

    @pytest.mark.parametrize("family", [limiting_family,
                                        blocked_limiting_family])
    def test_scaled_main_path_fails_endpoint(self, family):
        # Four times the path: its root at s = 1 is 2 e_0, so the derived
        # endpoint is C = 4 e_0 e_0^T, whose top eigenvalue leaves the box
        # by exactly 3.
        spec = (channel_zonoid() if family is limiting_family
                else instrument_zonoid())
        paths, fams = family(spec)
        paths[0].op_at = lambda s, f=paths[0].op_at: 4.0 * f(s)
        rep = verify_theorem_conditions(spec, paths, families=fams,
                                        s_samples=11)
        endpoint = rep.check("main:endpoint")
        assert not endpoint.passed
        assert endpoint.defect == 3.0

    def test_report_lookup(self):
        paths, fams = limiting_family()
        rep = verify_theorem_conditions(channel_zonoid(), paths,
                                        families=fams, s_samples=5)
        with pytest.raises(KeyError):
            rep.check("no-such-check")

    def test_shifted_density_fails_psd(self):
        # The mixtures are checked at their ends only, so a density pushed
        # below zero by 1e-6 must still show up with that defect.
        paths, fams = limiting_family()
        fams[0] = fam = _shifted(fams[0], lambda sg: 1e-6 * np.eye(4))
        rep = verify_theorem_conditions(channel_zonoid(), paths,
                                        families=fams, s_samples=5)
        psd = rep.check(f"{fam.label}:psd")
        assert not psd.passed
        assert psd.defect == pytest.approx(1e-6, rel=1e-6)
        assert rep.check(f"{fams[1].label}:psd").passed
        # The shifted table now holds its samples; a second run reads them.
        assert verify_theorem_conditions(channel_zonoid(), paths,
                                         families=fams, s_samples=5) == rep

    def test_psd_names_the_sigma_of_the_lowest_eigenvalue(self):
        # A dip of depth 1e-6 centred on sigma = 0.3, a grid point.
        paths, fams = limiting_family()
        fams[0] = fam = _shifted(fams[0], lambda sg: 1e-6 * (
            np.exp(-((sg - 0.3) / 0.1) ** 2)[:, None, None] * np.eye(4)))
        rep = verify_theorem_conditions(channel_zonoid(), paths,
                                        families=fams, s_samples=5)
        psd = rep.check(f"{fam.label}:psd")
        assert psd.defect == pytest.approx(1e-6, rel=1e-6)
        assert psd.where == "sigma=0.3"
        assert verify_theorem_conditions(channel_zonoid(), paths,
                                         families=fams, s_samples=5) == rep

    def test_path_checks_name_their_worst_s(self):
        # A bump on the |00><00| entry, largest at s = 2.5, breaks the
        # trace and the product structure there.
        paths, fams = limiting_family()

        def bumped(s):
            op = limit_path_diagonals(2, s)
            op[:, 0] += 1e-6 * np.exp(-((s - 2.5) / 0.3) ** 2)
            return op

        paths[0].op_at = bumped
        rep = verify_theorem_conditions(channel_zonoid(), paths,
                                        families=fams, s_samples=7)
        for name in ("trace", "product"):
            check = rep.check(f"main:{name}")
            assert not check.passed
            assert check.where == "s=2.5"

    @pytest.mark.parametrize("family, spec", [
        (limiting_family, channel_zonoid),
        (blocked_limiting_family, instrument_zonoid),
    ])
    def test_callbacks_are_called_once_per_grid(self, family, spec):
        # The path's callback answers a whole grid, so its call count
        # cannot depend on the number of s samples; a per-sample loop
        # would. One call answers the grid and the bottom end together.
        for samples in (11, 101):
            paths, fams = family()
            calls = []

            def counted(s, real=paths[0].op_at):
                calls.append(len(s))
                return real(s)

            paths[0].op_at = counted
            rep = verify_theorem_conditions(spec(), paths, families=fams,
                                            s_samples=samples)
            assert rep.passed
            assert calls == [samples + 1]

    def test_non_product_diagonal_density_fails_product(self):
        # Halt-B's diagonal (sigma, 0, 1, 0) reshapes to a rank-one 2 x 2
        # matrix; a root weight 0.1 u on |11> adds 0.01 sigma there and
        # makes it rank two at every sigma > 0.
        paths, fams = limiting_family()
        table = fams[0].table
        root = np.array(table.root)
        root[1, 3] = 0.1
        fams[0] = dataclasses.replace(fams[0], table=FamilyTable(
            table.w, root, table.block))
        rep = verify_theorem_conditions(channel_zonoid(), paths,
                                        families=fams, s_samples=5)
        product = rep.check("halt-B:product")
        assert not product.passed
        assert product.defect > 1e-3
        assert rep.check("halt-A:product").passed

    def test_diagonal_trace_off_fails_trace_at_its_s(self):
        # A bump on the |11> entry of the diagonal, largest at s = 2.5.
        paths, fams = limiting_family()
        paths[0].op_at = lambda s, f=paths[0].op_at: f(s) + 1e-6 * np.exp(
            -((np.asarray(s) - 2.5) / 0.3) ** 2)[:, None] * np.array(
            [0.0, 0.0, 0.0, 1.0])
        rep = verify_theorem_conditions(channel_zonoid(), paths,
                                        families=fams, s_samples=7)
        trace = rep.check("main:trace")
        assert not trace.passed
        assert trace.where == "s=2.5"
        assert trace.defect == pytest.approx(1e-6, rel=1e-9)

    @pytest.mark.parametrize("flaw, message", [
        ("wide", r"returned shape \(6, 5\) of float64 for 6 parameters; "
         r"expected real diagonals \(6, 4\)"),
        ("nan", "returned a non-finite entry"),
        ("complex", r"returned shape \(6, 4\) of complex128"),
        ("matrix", r"returned shape \(6, 4, 4\) of float64 for 6 "
         r"parameters; expected real diagonals \(6, 4\)")])
    def test_bad_diagonal_stack_is_refused(self, flaw, message):
        # The operators are real diagonals, (n, d); a matrix stack, the
        # diagonals made matrices, is refused like any other shape.
        paths, fams = limiting_family()

        def bad(x, real=paths[0].op_at):
            out = real(x)
            if flaw == "wide":
                return np.hstack([out, np.zeros((len(out), 1))])
            if flaw == "complex":
                return out + 0j
            if flaw == "matrix":
                return diagonal_stack(out).real
            out = out.copy()
            out[-1, 0] = np.nan
            return out

        paths[0].op_at = bad
        with pytest.raises(ValueError, match=f"main op_at {message}"):
            verify_theorem_conditions(channel_zonoid(), paths, families=fams,
                                      s_samples=5)

    def test_sigma_outside_the_unit_interval_is_refused(self):
        # A family at sigma attaches at s = (1 + sigma)^2, so a path that
        # reaches beyond s = 4 would attach its families past sigma = 1.
        paths, fams = limiting_family()
        paths[0].s_top = 4.5
        paths[0].op_at = lambda s: limit_path_diagonals(2, np.minimum(s, 4))
        with pytest.raises(ValueError, match=r"main s outside \[1, 4\], "
                           "where its families attach"):
            verify_theorem_conditions(channel_zonoid(), paths, families=fams,
                                      s_samples=5)

    @pytest.mark.parametrize("owner, attr", [
        ("path", "op_at"), ("family", "density_at"),
        ("family", "cdensity_at")])
    def test_non_finite_callback_stack_is_refused(self, owner, attr):
        # Before, NaN operators ended in an SVD that did not converge. A
        # family's samples are its table's evaluations, so a non-finite
        # root (density_at) or coefficient row (cdensity_at) is refused
        # when the table is built.
        paths, fams = limiting_family()
        if owner == "family":
            table = fams[0].table
            rows = {"density_at": np.array(table.root),
                    "cdensity_at": np.array(table.w)}
            rows[attr][-1, table.block[0]] = np.inf
            with pytest.raises(ValueError, match="a family table needs "
                               "finite coefficients"):
                FamilyTable(rows["cdensity_at"], rows["density_at"],
                            table.block)
            return

        def poisoned(x, real=paths[0].op_at):
            out = np.array(real(x))
            out[-1, 0] = np.inf
            return out

        paths[0].op_at = poisoned
        with pytest.raises(ValueError, match="main op_at returned a "
                           "non-finite entry"):
            verify_theorem_conditions(channel_zonoid(), paths, families=fams,
                                      s_samples=5)

    def test_callback_answering_one_parameter_is_refused(self):
        paths, fams = limiting_family()
        paths[0].op_at = lambda s, f=paths[0].op_at: f(s)[0]
        with pytest.raises(ValueError, match=r"op_at returned shape "
                           r"\(4,\) of float64 for 6 parameters"):
            verify_theorem_conditions(channel_zonoid(), paths, families=fams,
                                      s_samples=5)

    def test_scaled_density_falls_back_to_the_solver(self, monkeypatch):
        # A family whose density is 1% off no longer assembles a witness, so
        # the solver answers membership and the resolution still fails.
        paths, fams = limiting_family()
        fams[0] = _with_table(fams[0], np.sqrt(1.01) * fams[0].table.w)
        calls = _count_membership_calls(monkeypatch)
        rep = verify_theorem_conditions(channel_zonoid(), paths,
                                        families=fams, s_samples=11)
        mem = rep.check("main:membership")
        assert calls
        assert mem.passed
        assert mem.where.endswith(f"; solver {len(calls)}/11")
        assert not rep.check("resolution").passed

    @pytest.mark.parametrize("flaw", ["outside-box", "block-coupling",
                                      "anti-hermitian"])
    def test_witness_off_by_more_than_rounding_goes_to_the_solver(
            self, monkeypatch, flaw):
        # Each flaw leaves the witness residual far below membership_tol;
        # the witness counts only where it is a valid coefficient matrix to
        # rounding, as the solver's candidates are. Each is written into a
        # coefficient of a family's table. Off the box it takes a kernel
        # direction of L on the reduced basis, E_03 + E_30, whose top
        # eigenvalue excess of about 1e-6 u^4 the near-box repair takes
        # near u = 0 only: beyond, the repair moves L(C) by more than the
        # tolerance.
        spec = instrument_zonoid()
        paths, fams = blocked_limiting_family(spec)
        if flaw == "outside-box":
            spec = channel_zonoid()
            paths, fams = limiting_family(spec)
        blocks = spec.block_list()
        table = fams[0].table
        g = np.array(table.antiderivative)
        if flaw == "block-coupling":
            w = np.array(table.w)
            w[0, blocks[0][0]] = 1e-9
            fams[0] = _with_table(fams[0], w, blocks[0] + table.block)
        else:
            # No table integrates to a non-Hermitian matrix or leaves L's
            # image alone, so the flaw is written into its antiderivative.
            x = np.zeros((spec.kappa, spec.kappa))
            if flaw == "outside-box":
                x[0, 3] = x[3, 0] = 1e-3
            else:
                x[blocks[1][0], blocks[1][1]] = 1e-9
                x -= x.T
            fams[0] = _with_table(fams[0], table.w)
            object.__setattr__(fams[0].table, "antiderivative", g + x)
        calls = _count_membership_calls(monkeypatch)
        rep = verify_theorem_conditions(spec, paths, families=fams,
                                        s_samples=11)
        mem = rep.check("main:membership")
        assert calls
        assert mem.passed
        assert mem.where.endswith(f"; solver {len(calls)}/11")
        if flaw != "outside-box":
            # Only the bottom sample, sigma = 0, integrates nothing.
            assert len(calls) == 10

    @pytest.mark.parametrize("family, spec", [
        (limiting_family, channel_zonoid),
        (blocked_limiting_family, instrument_zonoid),
    ])
    def test_family_without_a_table_is_refused(self, family, spec):
        # A halt family is its table: built or replaced without one, it is
        # refused, and the error names it.
        fam = family(spec())[1][0]
        for table in (None, fam.table.w):
            with pytest.raises(TypeError, match="halt-B.*FamilyTable"):
                EndpointFamily(fam.label, fam.parent, table)
            with pytest.raises(TypeError, match="halt-B.*FamilyTable"):
                dataclasses.replace(fam, table=table)

    def test_table_over_another_basis_is_refused(self):
        # A blocked table has a coefficient per operator of the blocked
        # basis, five, where the reduced spec has four.
        paths, fams = limiting_family()
        fams[0] = dataclasses.replace(
            fams[0], table=blocked_limiting_family()[1][0].table)
        with pytest.raises(ValueError, match="halt-B has a table over 5 "
                           "operators of 4 entries; the spec has 4 of 4"):
            verify_theorem_conditions(channel_zonoid(), paths, fams,
                                      s_samples=5)

    def test_path_without_families_asks_the_solver_everywhere(
            self, monkeypatch):
        paths, _ = limiting_family()
        calls = _count_membership_calls(monkeypatch)
        rep = verify_theorem_conditions(channel_zonoid(), paths,
                                        s_samples=5)
        assert len(calls) == 5
        assert rep.check("main:membership").passed
        assert rep.check("main:membership").where.endswith("; solver 5/5")

    def test_undecided_samples_are_counted(self, monkeypatch):
        # With no Newton step allowed, a sample that reaches the barrier
        # solve is left undecided, and the where says how many were. On
        # the blocked basis 8 of the 41 samples need steps; on the channel
        # basis the presolve and the face finish answer every sample
        # without one.
        paths, _ = blocked_limiting_family()
        monkeypatch.setattr(zonoid, "MEMBERSHIP_MAX_ITER", 0)
        reports = []
        real = conditions.membership

        def recording(z, spec, tol):
            reports.append(real(z, spec, tol=tol))
            return reports[-1]

        monkeypatch.setattr(conditions, "membership", recording)
        rep = verify_theorem_conditions(instrument_zonoid(), paths,
                                        s_samples=41)
        mem = rep.check("main:membership")
        undecided = sum(r.stop == "undecided" for r in reports)
        assert undecided > 0 and not mem.passed
        assert mem.where.endswith(f"; solver 41/41; undecided {undecided}")

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

    def test_a_repeated_run_builds_no_quadrature_rule(self):
        # Every integral of a run, at any s_samples, comes from the
        # families' tables, which the spec's first run built; a second
        # run builds no quadrature rule.
        spec = instrument_zonoid()

        def run():
            for s_samples in (12, 17):
                paths, fams = blocked_limiting_family(spec)
                verify_theorem_conditions(spec, paths, fams,
                                          s_samples=s_samples)

        run()
        info = linalg._leggauss.cache_info()
        run()
        assert linalg._leggauss.cache_info() == info

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


def _with_table(fam, w, block=None):
    """``fam`` with a table of coefficient rows ``w`` (on ``block``, or its
    table's) and its table's root."""
    return dataclasses.replace(fam, table=FamilyTable(
        w, fam.table.root, block or fam.table.block))


def _shifted(fam, shift):
    """``fam`` with a table whose coefficient density at each sigma is its
    own minus ``shift(sigma)``, (n, kappa, kappa): a fault in the samples
    the psd check reads, which no table of coefficient rows can write."""
    class Shifted(FamilyTable):
        def cdensity_at(self, sigma):
            return super().cdensity_at(sigma) - shift(np.asarray(sigma))

    t = fam.table
    return dataclasses.replace(fam, table=Shifted(t.w, t.root, t.block))


def _count_membership_calls(monkeypatch) -> list:
    """Record each membership call of the condition verifier."""
    calls = []
    real = conditions.membership

    def counting(z, spec, tol):
        calls.append(z)
        return real(z, spec, tol=tol)

    monkeypatch.setattr(conditions, "membership", counting)
    return calls


def _endpoint(path, spec):
    """The endpoint matrix the verifier derives from a path: the expansion
    of the root of its operator at the bottom end."""
    (op,) = path.op_at(np.array([path.s_bottom]))
    return zonoid.endpoint_cmatrix(linalg.sqrt_psd(op), spec)


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
        c_end = _endpoint(main, spec)
        u = np.sqrt(np.asarray(sigmas, dtype=float))
        cs = c_end.matrix + sum(fam.table.integrals(u) for fam in fams)
        for sigma, c in zip(sigmas, cs):
            assert np.abs(np.where(solver.mask, 0.0, c)).max() == 0.0
            for grid in solver.grids:
                w = np.linalg.eigvalsh(c[grid])
                assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12
            (want,) = diagonal_stack(
                limit_path_diagonals(2, [(1.0 + sigma) ** 2]))
            np.testing.assert_allclose(solver.image(c), want, rtol=0.0,
                                       atol=1e-12)

    @pytest.mark.parametrize("family, spec", [
        (limiting_family, channel_zonoid),
        (blocked_limiting_family, instrument_zonoid),
    ])
    def test_parent_witness_is_no_lower_than_the_endpoint(self, family,
                                                          spec):
        # The psd check's parent side is lambda_min(C_end). The parent's
        # witness at s = (1 + sigma)^2 is C_end plus the integrals of
        # conj(w) w^T over [0, sigma], masked to the blocks; neither adds
        # nor masking lowers the lowest eigenvalue, so the check is no
        # looser than one on the witness at every sigma sample. On the
        # reduced basis that witness is the retired parent route's, C1 of
        # c_matrix_stack, bit for bit.
        spec = spec()
        (main,), fams = family(spec)
        c_end = _endpoint(main, spec).matrix
        s = (1.0 + np.linspace(0.0, 1.0, 101)) ** 2
        u = np.sqrt(linalg.clamped(np.sqrt(s) - 1.0, 1.0, "sigma", 0.0))
        witness = np.empty((len(s),) + c_end.shape)
        assert conditions._integrated_witness(spec.solver(), c_end, fams, u,
                                              witness).all()
        end_low = np.linalg.eigvalsh(c_end)[0]
        assert end_low == 0.0
        assert np.linalg.eigvalsh(witness)[:, 0].min() >= end_low - 1e-15
        if family is limiting_family:
            parent = coefficient_stack(c_matrix_stack("C1", s))
            assert np.array_equal(witness, parent)
            assert np.linalg.eigvalsh(parent)[:, 0].min() >= end_low - 1e-15

    @pytest.mark.parametrize("s_samples", [0, -1])
    def test_no_samples_is_rejected(self, s_samples):
        # An empty grid would pass every path check vacuously.
        paths, fams = limiting_family()
        with pytest.raises(ValueError):
            verify_theorem_conditions(channel_zonoid(), paths, families=fams,
                                      s_samples=s_samples)
        with pytest.raises(ValueError):
            paths[0].sample_grid(s_samples)

    def test_sigma_samples_is_not_an_argument(self):
        # Families are sampled at SIGMA_SAMPLES; no caller sets the count.
        paths, fams = limiting_family()
        with pytest.raises(TypeError, match="sigma_samples"):
            verify_theorem_conditions(channel_zonoid(), paths, families=fams,
                                      s_samples=5, sigma_samples=11)

    def test_zero_density_reports_a_positive_zero_psd_defect(self):
        # A lowest eigenvalue of exactly +0.0 negates to -0.0, which the
        # psd check must not report as its defect.
        paths, fams = limiting_family()
        fams[0] = _with_table(fams[0], np.zeros((1, 4)))
        rep = verify_theorem_conditions(channel_zonoid(), paths,
                                        families=fams, s_samples=5)
        psd = rep.check(f"{fams[0].label}:psd")
        assert psd.defect == 0.0
        assert math.copysign(1.0, psd.defect) == 1.0

    @pytest.mark.parametrize("family", [limiting_family,
                                        blocked_limiting_family])
    @pytest.mark.parametrize("s_samples", [None, 11, 25])
    def test_sigma_at_inverts_attach_s(self, family, s_samples, monkeypatch):
        # The verifier integrates the families at sigma(s) = s^(1/2) - 1,
        # the parameter of c_matrix_stack, and a family at sigma attaches
        # at s = (1 + sigma)^2 (twoqubit._s_of): each map inverts the other
        # on every grid.
        (main,), fams = family()
        grid = main.sample_grid(s_samples)
        seen = []
        integrals = FamilyTable.integrals

        def recording(self, u):
            seen.append(u)
            return integrals(self, u)

        monkeypatch.setattr(FamilyTable, "integrals", recording)
        spec = (channel_zonoid() if family is limiting_family
                else instrument_zonoid())
        verify_theorem_conditions(spec, [main], fams, s_samples=s_samples)
        sigma = twoqubit._sigma_of(grid)
        assert len(seen) == len(fams)
        for u in seen:
            assert np.array_equal(u, np.sqrt(sigma))
        assert np.abs(twoqubit._s_of(sigma) - grid).max() <= 1e-15


class TestLimitFamilies:
    """The reduced and blocked families share their paths and densities."""

    def test_derived_endpoint_is_the_closed_form_c1(self):
        (main,), fams = limiting_family()
        spec = channel_zonoid()
        (c1,) = coefficient_stack(c_matrix_stack("C1", [1.0]))
        assert np.array_equal(_endpoint(main, spec).matrix, c1)
        rep = verify_theorem_conditions(spec, [main], fams, s_samples=5)
        assert rep.check("main:endpoint").defect <= 1e-12

    @pytest.mark.parametrize("s_samples", [5, 25, None])
    @pytest.mark.parametrize("family", [limiting_family,
                                        blocked_limiting_family])
    def test_shared_specs_report_as_fresh_ones(self, family, s_samples):
        # The shared spec, its solver already used by earlier tests, gives
        # the report of a spec built afresh, check by check and bitwise.
        if family is limiting_family:
            shared = channel_zonoid()
            fresh = ZonoidSpec(kraus_from_operators(list(K_REDUCED), (2, 2)))
        else:
            shared = instrument_zonoid()
            fresh = zonoid_spec_for_instrument(
                two_qubit_instrument().instrument)
        assert fresh is not shared

        def checks(spec):
            paths, fams = family(spec)
            rep = verify_theorem_conditions(spec, paths, families=fams,
                                            s_samples=s_samples)
            return [(c.name, c.defect.hex(), c.tol, c.where)
                    for c in rep.checks]

        assert checks(shared) == checks(fresh)

    def test_reduced_and_blocked_families_agree(self):
        (main,), fams = limiting_family()
        (bmain,), bfams = blocked_limiting_family()
        assert (main.s_top, main.s_bottom) == (bmain.s_top, bmain.s_bottom)
        grid = main.sample_grid(None)
        assert np.array_equal(grid, bmain.sample_grid(None))
        assert np.array_equal(main.op_at(grid), bmain.op_at(grid))
        sigmas = np.linspace(0.0, 1.0, 101)
        assert [f.label for f in fams] == [f.label for f in bfams]
        for fam, bfam in zip(fams, bfams):
            assert np.array_equal(fam.table.density_at(sigmas),
                                  bfam.table.density_at(sigmas))


def _closed_form_c1(s):
    """The main-path witness of the reduced basis as a closed form in
    sigma = sqrt(s) - 1, as it was written before it became the integral
    of the halt densities."""
    sigma = np.sqrt(np.asarray(s, dtype=float)) - 1.0
    beta = 2.0 * (np.sqrt(sigma) - 1.0)
    gamma = 9.0 * sigma + 8.0 - 16.0 * np.sqrt(sigma)
    c = np.zeros(sigma.shape + (4, 4))
    c[..., 0, 0] = 1.0
    c[..., 1, 1] = c[..., 2, 2] = sigma
    c[..., 1, 3] = c[..., 3, 1] = sigma * beta
    c[..., 2, 3] = c[..., 3, 2] = sigma * beta
    c[..., 3, 3] = sigma * gamma
    return c


def _callback_densities(family, spec, sigma):
    """Per halt, in report order, the coefficient and operator densities
    at ``sigma`` as the limit families' callbacks computed them before the
    tables: the reduced w = e_outcome + (3 sqrt(sigma) - 2) e_3, and the
    blocked w = k a^T from the root k of the derivative density and the
    block's expansion map a."""
    out = []
    for halt in twoqubit.HALTS:
        density = derivative_diagonals(2, sigma)[:, halt.party]
        w = np.zeros((len(sigma), spec.kappa))
        if family is limiting_family:
            w[:, halt.outcome] = 1.0
            w[:, 3] = 3.0 * np.sqrt(sigma) - 2.0
        else:
            block = list(spec.block_list()[halt.outcome])
            a = spec.solver().expansions()[halt.outcome][1][
                :, ::spec.dim + 1].real
            w[:, block] = np.sqrt(density) @ a.T
        out.append((w[:, :, None] * w[:, None, :], density))
    return out


class TestFamilyTables:
    """Every built-in halt family is a polynomial table in u = sqrt(sigma),
    whose evaluators give its samples and whose antiderivative gives its
    integrals."""

    @pytest.mark.parametrize("family, spec", [
        (limiting_family, channel_zonoid),
        (blocked_limiting_family, instrument_zonoid),
    ])
    def test_tables_reproduce_the_closed_form_callbacks(self, family, spec):
        rng = np.random.default_rng(4601)
        sigma = np.concatenate([[0.0, 1.0], rng.random(300)])
        spec = spec()
        _, fams = family(spec)
        for fam, (cd, d) in zip(fams, _callback_densities(family, spec,
                                                          sigma)):
            table = fam.table
            np.testing.assert_allclose(table.cdensity_at(sigma), cd,
                                       rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(table.density_at(sigma), d, rtol=0.0,
                                       atol=1e-15)
            # The table's integral against the substituted Gauss rule.
            np.testing.assert_allclose(
                table.total, integrate_sqrt_smooth(table.cdensity_at),
                rtol=0.0, atol=1e-14)

    def test_derived_c1_is_the_closed_form(self):
        # 1e-15 of the entries' largest terms: C1[3, 3] = 9 sigma^2 + 8
        # sigma - 16 sigma^(3/2) cancels terms of up to 33 sigma in both
        # forms, so each is off the exact value by a few 1e-15 there.
        rng = np.random.default_rng(4602)
        s = np.concatenate([[1.0, 4.0], 1.0 + 3.0 * rng.random(300)])
        scale = 1.0 + 33.0 * (np.sqrt(s) - 1.0)
        gap = np.abs(c_matrix_stack("C1", s) - _closed_form_c1(s))
        assert np.all(gap <= 1e-15 * scale[:, None, None])
        assert np.array_equal(c_matrix_stack("C1", [1.0, 4.0]),
                              [np.diag([1.0, 0.0, 0.0, 0.0]), np.eye(4)])

    def test_tables_are_built_once_per_spec(self):
        spec = instrument_zonoid()
        first = [f.table for f in blocked_limiting_family(spec)[1]]
        again = [f.table for f in blocked_limiting_family(spec)[1]]
        assert all(a is b for a, b in zip(first, again))
        fresh = zonoid_spec_for_instrument(two_qubit_instrument().instrument)
        other = [f.table for f in blocked_limiting_family(fresh)[1]]
        assert not any(a is b for a, b in zip(first, other))
        for a, b in zip(first, other):
            assert np.array_equal(a.w, b.w) and a.block == b.block
        reduced = [f.table for f in limiting_family()[1]]
        assert all(a is b for a, b in zip(
            reduced, [f.table for f in limiting_family()[1]]))
        # The path and families are the caller's to edit, so they are new
        # on every call.
        paths, fams = limiting_family()
        assert paths[0] is not limiting_family()[0][0]
        assert fams[0] is not limiting_family()[1][0]

    @pytest.mark.parametrize("family, spec", [
        (limiting_family, channel_zonoid),
        (blocked_limiting_family, instrument_zonoid),
    ])
    def test_samples_are_built_once_through_the_evaluators(self, family,
                                                           spec):
        # A table whose evaluators count their calls: three verifications
        # evaluate it once, at the verifier's sigma grid.
        calls = []

        class Counting(FamilyTable):
            def cdensity_at(self, sigma):
                calls.append(("cdensity_at", np.array(sigma)))
                return super().cdensity_at(sigma)

            def density_at(self, sigma):
                calls.append(("density_at", np.array(sigma)))
                return super().density_at(sigma)

        spec = spec()
        paths, fams = family(spec)
        fams = [dataclasses.replace(f, table=Counting(
            f.table.w, f.table.root, f.table.block)) for f in fams]
        reports = [verify_theorem_conditions(spec, paths, fams, s_samples=5)
                   for _ in range(3)]
        assert reports[0].passed and reports[1:] == reports[:2]
        assert [name for name, _ in calls] == ["cdensity_at",
                                               "density_at"] * len(fams)
        for _, sigma in calls:
            assert np.array_equal(sigma, conditions.SIGMA_GRID)
        assert all(f.table.samples is f.table.samples for f in fams)

    @pytest.mark.parametrize("family, spec", [
        (limiting_family, channel_zonoid),
        (blocked_limiting_family, instrument_zonoid),
    ])
    def test_samples_are_the_evaluators_at_the_grid(self, family, spec):
        grid = conditions.SIGMA_GRID
        assert grid.shape == (SIGMA_SAMPLES,) and not grid.flags.writeable
        assert np.array_equal(grid, np.linspace(0.0, 1.0, SIGMA_SAMPLES))
        for fam in family(spec())[1]:
            table = fam.table
            got = table.samples
            assert np.array_equal(got.cdensity, table.cdensity_at(grid))
            assert np.array_equal(got.density, table.density_at(grid))
            assert np.array_equal(got.lowest, conditions._lowest(
                table.cdensity_at(grid), table.block))
            assert np.array_equal(got.root, linalg.polynomial_values(
                table.root, np.sqrt(grid)))
            assert np.array_equal(table.total,
                                  table.antiderivative.sum(axis=0))
            for a in (*got, table.total):
                assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got.cdensity[0, 0, 0] = 1.0

    @pytest.mark.parametrize("s_samples", [None, 11, 26])
    @pytest.mark.parametrize("family, spec", [
        (limiting_family, channel_zonoid),
        (blocked_limiting_family, instrument_zonoid),
    ])
    def test_fresh_and_warm_tables_report_alike(self, family, spec,
                                                s_samples):
        # The built-in tables hold their samples from earlier runs; copies
        # of them hold none until this run. The reports are equal, and a
        # second run on the now warm copies is too.
        spec = spec()
        paths, fams = family(spec)
        warm = verify_theorem_conditions(spec, paths, fams,
                                         s_samples=s_samples)
        fresh = [dataclasses.replace(f, table=FamilyTable(
            f.table.w, f.table.root, f.table.block)) for f in fams]
        assert all("samples" not in vars(f.table) for f in fresh)
        assert verify_theorem_conditions(
            spec, paths, fresh, s_samples=s_samples) == warm
        assert verify_theorem_conditions(
            spec, paths, fresh, s_samples=s_samples) == warm
        assert warm.passed

    @pytest.mark.parametrize("family, spec", [
        (limiting_family, channel_zonoid),
        (blocked_limiting_family, instrument_zonoid),
    ])
    def test_too_low_a_degree_fails_reconstruction(self, family, spec):
        # A table of halt-B that declares w of degree 0, its constant row
        # alone, against the true root of its density: L(w w^T) then
        # misses the density wherever u > 0, most at sigma = 1.
        spec = spec()
        paths, fams = family(spec)
        base = verify_theorem_conditions(spec, paths, fams, s_samples=11)
        assert base.passed
        fams[0] = _with_table(fams[0], fams[0].table.w[:1])
        rep = verify_theorem_conditions(spec, paths, fams, s_samples=11)
        recon = rep.check("halt-B:reconstruction")
        assert not recon.passed and recon.where == "sigma=1"
        assert recon.defect > 0.1
        assert rep.check("halt-B:psd").passed
        assert rep.check("halt-A:reconstruction") == base.check(
            "halt-A:reconstruction")

    def test_table_input_is_refused(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not zero off its block"):
            FamilyTable(w, np.ones((1, 1)), (0,))
        with pytest.raises(ValueError, match="outside the basis"):
            FamilyTable(w, np.ones((1, 1)), (0, 2))
        with pytest.raises(ValueError, match="finite"):
            FamilyTable(w * np.nan, np.ones((1, 1)), (0, 1))
        with pytest.raises(ValueError, match="coefficient rows"):
            FamilyTable(w[0], np.ones((1, 1)), (0, 1))
        table = FamilyTable(w, np.ones((1, 1)), (1, 0, 1))
        assert table.block == (0, 1)
        assert not table.w.flags.writeable
        # The message names the parameter once; the refusal adds the value.
        with pytest.raises(ValueError, match=r"^sigma outside \[0, 1\] "
                           r"\(got 1\.5\)$"):
            table.cdensity_at([0.5, 1.5])

    def test_reduced_tables_are_the_exact_solution(self):
        # w K = r solved over the square K_REDUCED: w = e_outcome +
        # (3 u - 2) e_3, exact to the last bit, and zero elsewhere.
        for halt, fam in zip(twoqubit.HALTS, limiting_family()[1]):
            want = np.zeros((2, 4))
            want[0, halt.outcome] = 1.0
            want[:, 3] = (-2.0, 3.0)
            assert np.array_equal(fam.table.w, want)
            assert fam.table.block == (halt.outcome, 3)

    def test_blocked_tables_stay_in_their_outcome_block(self):
        spec = instrument_zonoid()
        for halt, fam in zip(twoqubit.HALTS,
                             blocked_limiting_family(spec)[1]):
            block = spec.block_list()[halt.outcome]
            assert fam.table.block == block
            assert not np.delete(fam.table.w, block, axis=1).any()

    def test_integrals_are_hermitian_and_zero_off_the_block(self):
        rng = np.random.default_rng(4603)
        w = np.zeros((4, 5), dtype=complex)
        w[:, [1, 3]] = (rng.standard_normal((4, 2))
                        + 1j * rng.standard_normal((4, 2)))
        table = FamilyTable(w, np.ones((1, 1)), (1, 3))
        got = table.integrals(np.sqrt(rng.random(50)))
        assert np.array_equal(got, got.conj().swapaxes(1, 2))
        off = np.ones((5, 5), dtype=bool)
        off[np.ix_([1, 3], [1, 3])] = False
        assert not got[:, off].any()


class TestNearBoxRepair:
    """A Hermitian integrated witness that leaves the box by delta is
    retried as (C + delta I) / (1 + 2 delta) before the solver."""

    def test_scaled_witness_is_repaired(self, monkeypatch):
        # The halt tables scaled by 1 + 1e-10 put the top of the path
        # outside the box by about 1e-10; the repair answers there, and its
        # defect is its own residual, of the order of that excess.
        spec = channel_zonoid()
        paths, fams = limiting_family(spec)
        fams = [_with_table(f, np.sqrt(1.0 + 1e-10) * f.table.w)
                for f in fams]
        boxes = _count_box_tests(monkeypatch, spec)
        calls = _count_membership_calls(monkeypatch)
        rep = verify_theorem_conditions(spec, paths, fams, s_samples=11)
        mem = rep.check("main:membership")
        assert rep.passed and not calls
        assert mem.where.endswith("; solver 0/11")
        assert len(boxes) == 2 and 0 < boxes[1] < 11
        assert 1e-12 < mem.defect <= 1e-9

    def test_far_witness_goes_to_the_solver(self, monkeypatch):
        spec = channel_zonoid()
        paths, fams = limiting_family(spec)
        fams = [_with_table(f, np.sqrt(1.0 + 1e-3) * f.table.w)
                for f in fams]
        calls = _count_membership_calls(monkeypatch)
        rep = verify_theorem_conditions(spec, paths, fams, s_samples=11)
        mem = rep.check("main:membership")
        assert calls and mem.passed
        assert mem.where.endswith(f"; solver {len(calls)}/11")

    @pytest.mark.parametrize("family, spec", [
        (limiting_family, channel_zonoid),
        (blocked_limiting_family, instrument_zonoid),
    ])
    @pytest.mark.parametrize("s_samples", [11, None])
    def test_two_party_runs_need_no_repair(self, monkeypatch, family, spec,
                                           s_samples):
        # Every integrated witness of the worked families passes the plain
        # box test, so the box test runs once and the reports are those
        # of the plain witness.
        spec = spec()
        paths, fams = family(spec)
        boxes = _count_box_tests(monkeypatch, spec)
        rep = verify_theorem_conditions(spec, paths, fams,
                                        s_samples=s_samples)
        assert rep.passed and len(boxes) == 1

    def test_shifted_density_still_fails_psd(self):
        # The repair touches the path's witness only: a coefficient density
        # shifted by -1e-6 I still fails its psd check, and membership
        # keeps its witness.
        spec = instrument_zonoid()
        paths, fams = blocked_limiting_family(spec)
        base = verify_theorem_conditions(spec, paths, fams, s_samples=11)
        fams[0] = _shifted(fams[0], lambda sg: 1e-6 * np.eye(spec.kappa))
        rep = verify_theorem_conditions(spec, paths, fams, s_samples=11)
        psd = rep.check("halt-B:psd")
        assert not psd.passed
        assert psd.defect == pytest.approx(1e-6, rel=1e-6)
        assert rep.check("main:membership") == base.check("main:membership")
        assert verify_theorem_conditions(spec, paths, fams,
                                         s_samples=11) == rep


def _count_box_tests(monkeypatch, spec) -> list:
    """Record how many matrices each box test of the spec's solver
    takes."""
    solver = spec.solver()
    sizes = []
    real = solver.in_box

    def counting(cs, w=None):
        sizes.append(len(cs))
        return real(cs, w)

    monkeypatch.setattr(solver, "in_box", counting)
    return sizes


def _record_passes(monkeypatch) -> dict:
    """Record the arguments of every call the verifier makes to its
    solver's ``diagonal_residuals`` and to ``product_defect``."""
    calls = {"diagonal_residuals": [], "product_defect": []}
    residuals = zonoid._MembershipSolver.diagonal_residuals
    defect = conditions.product_defect

    def record_residuals(self, c, v):
        calls["diagonal_residuals"].append((c, v))
        return residuals(self, c, v)

    def record_defect(m, dims, diagonal=False):
        calls["product_defect"].append(m)
        return defect(m, dims, diagonal)

    monkeypatch.setattr(zonoid._MembershipSolver, "diagonal_residuals",
                        record_residuals)
    monkeypatch.setattr(conditions, "product_defect", record_defect)
    return calls


class TestRealStacks:
    """Real tables keep the verifier's coefficient stacks real; complex
    ones whose entries are real report the same checks bit for bit."""

    @pytest.mark.parametrize("family, spec", [
        (limiting_family, channel_zonoid),
        (blocked_limiting_family, instrument_zonoid),
    ])
    def test_worked_families_are_real(self, family, spec, monkeypatch):
        paths, fams = family(spec())
        sigmas = np.linspace(0.0, 1.0, 5)
        for fam in fams:
            assert fam.table.w.dtype == np.float64
            assert fam.table.cdensity_at(sigmas).dtype == np.float64
        spec = spec()
        calls = _record_passes(monkeypatch)
        verify_theorem_conditions(spec, paths, fams, s_samples=5)
        rows = 5 + 1 + len(fams) * SIGMA_SAMPLES
        assert [(c.shape, c.dtype, v.shape, v.dtype)
                for c, v in calls["diagonal_residuals"]] == [
            ((rows, spec.kappa, spec.kappa), np.float64, (rows, spec.dim),
             np.float64)]

    @pytest.mark.parametrize("s_samples", [5, None])
    @pytest.mark.parametrize("family, spec", [
        (limiting_family, channel_zonoid),
        (blocked_limiting_family, instrument_zonoid),
    ])
    def test_one_residual_call_and_one_product_defect(self, family, spec,
                                                       s_samples,
                                                       monkeypatch):
        # Every family row, witness row and endpoint row takes its
        # residual and its product defect in one call each, and no sample
        # is repaired or sent to the solver.
        spec = spec()
        paths, fams = family(spec)
        calls = _record_passes(monkeypatch)
        rep = verify_theorem_conditions(spec, paths, fams,
                                        s_samples=s_samples)
        assert rep.passed
        n = len(paths[0].sample_grid(s_samples))
        assert rep.check("main:membership").where.endswith(f"solver 0/{n}")
        rows = n + 1 + len(fams) * SIGMA_SAMPLES
        assert [len(c) for c, _ in calls["diagonal_residuals"]] == [rows]
        assert [m.shape for m in calls["product_defect"]] == [
            (rows, spec.dim)]

    @pytest.mark.parametrize("s_samples", [11, None])
    @pytest.mark.parametrize("family, spec", [
        (limiting_family, channel_zonoid),
        (blocked_limiting_family, instrument_zonoid),
    ])
    def test_complex_callbacks_report_as_real_ones(self, family, spec,
                                                   s_samples):
        # Every family's table with its coefficient rows cast to complex.
        # The path's operators are real diagonals, a form only real arrays
        # take, so they stay as they are.
        spec = spec()

        def run(cast):
            paths, fams = family(spec)
            fams = [_with_table(f, cast(f.table.w)) for f in fams]
            return verify_theorem_conditions(spec, paths, fams,
                                             s_samples=s_samples)

        real = run(lambda w: w)
        cplx = run(lambda w: w.astype(complex))
        assert real.passed
        # Both routes share the real map, so every defect is the same bit
        # for bit.
        assert ([(c.name, c.passed, c.where, c.defect.hex())
                 for c in cplx.checks]
                == [(c.name, c.passed, c.where, c.defect.hex())
                    for c in real.checks])
