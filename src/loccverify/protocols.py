"""Measure-and-halt protocol trees and the operator paths they induce.

The protocol on P qubits runs in cycles. In each cycle every party in turn
applies the two-outcome measurement {(1-eps)|0><0| + |1><1|, eps|0><0|};
on the second outcome the protocol halts at a leaf, on the first it
continues. After ``rounds`` full cycles the survivor is the main leaf. All
POVM elements are diagonal products, so a node is determined by one local
diagonal per party.

Walking from the root to a leaf and interpolating linearly between
consecutive node elements gives a piecewise local operator path whose
parameter is the trace. As eps -> 0 the main branch converges to the path
s |-> M(s)^(x P) with M(s) = (s^(1/P) - 1)|0><0| + |1><1|.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .linalg import PartyDims, clamped, diagonal_stack, kron, partial_trace
from .tolerances import (COMPLETENESS_TOL, LOCALITY_TOL, NODE_SUM_TOL,
                         PRODUCT_TOL, ROUNDING_TOL, TRACELESS_TOL)


@dataclass(frozen=True)
class ProtocolParams:
    parties: int
    rounds: int
    exponent: float

    def __post_init__(self):
        if self.parties < 2:
            raise ValueError("need at least two parties")
        if self.rounds < 1:
            raise ValueError("need at least one round")
        if not 0.0 < self.exponent < 1.0:
            raise ValueError("decay exponent must lie in (0, 1)")
        try:
            eta_is_one = 1.0 - self.epsilon == 1.0
        except OverflowError:
            eta_is_one = True
        if eta_is_one:
            raise ValueError(
                f"rounds too large at exponent {self.exponent}: "
                "eta = 1 - rounds^(-c) rounds to 1")

    @property
    def epsilon(self) -> float:
        return float(self.rounds) ** (-self.exponent)


class NodeView:
    """A node of a :class:`ProtocolTree`: the tree and a preorder index.

    ``povm_element`` reads the node's element as a read-only dense matrix;
    assigning to it replaces the element in the tree.
    """

    __slots__ = ("_tree", "_index")

    def __init__(self, tree: "ProtocolTree", index: int):
        self._tree = tree
        self._index = index

    @property
    def povm_element(self) -> np.ndarray:
        return self._tree._element(self._index)

    @povm_element.setter
    def povm_element(self, element) -> None:
        self._tree._store(self._index, element)


class ProtocolTree:
    """A protocol tree: its nodes and party dimensions.

    The tree is a caterpillar, as :func:`build_protocol_pq` builds it: row
    0 is the root, and rows 2k + 1 and 2k + 2 are the halt leaf and
    continue node of step k, both children of row 2k, where party
    k mod P + 1 measures. So its shape follows in closed form from its
    number of rows, and assigning an element leaves it as it is.

    The nodes are one real preorder table, a row per node holding the
    diagonal of its element, and a dict of dense overrides for the elements
    that are not real diagonal matrices. The table is column-major: rows
    index it as (n, D), and its transpose is a contiguous (D, n) array, so
    :func:`verify_tree` reduces over long columns, one per diagonal entry.

    ``node_at`` gives a :class:`NodeView`, made on request. No dense
    element is made until one is read.
    """

    def __init__(self, table: np.ndarray, dims: PartyDims):
        """ValueError unless ``table`` has the caterpillar's shape, an odd
        number of rows of ``dims.total`` entries, and finite entries."""
        table = np.asarray(table)
        shape = table.shape
        if len(shape) != 2 or shape[0] % 2 == 0 or shape[1] != dims.total:
            raise ValueError(
                f"table of shape {shape} is not a caterpillar's: it needs "
                f"an odd number of rows of {dims.total} entries")
        # min and max carry any NaN or infinity, without a temporary.
        if not np.isfinite([table.min(), table.max()]).all():
            raise ValueError("table has a non-finite entry")
        self._table = table
        self.dims = dims
        self._overrides: dict[int, np.ndarray] = {}

    def node_at(self, path: Sequence[int]) -> NodeView:
        """The node reached from the root through the child indices of
        ``path``: (1,) * k is row 2k and (1,) * k + (0,) row 2k + 1.
        Entries index the two children as a list does, so -1 continues too;
        a path that leaves the tree raises IndexError."""
        steps = np.asarray(path)
        if steps.size == 0:
            return NodeView(self, 0)
        if steps.ndim != 1 or steps.dtype.kind not in "iu":
            raise TypeError("a node path is a sequence of integers")
        parent = 2 * (steps.size - 1)
        last = int(steps[-1])
        if (parent >= self.n_nodes - 1 or not -2 <= last <= 1
                or not np.isin(steps[:-1], (1, -1)).all()):
            raise IndexError(f"no node at this path of depth {steps.size}")
        return NodeView(self, parent + 1 + last % 2)

    @property
    def n_nodes(self) -> int:
        return len(self._table)

    def _element(self, i: int) -> np.ndarray:
        element = self._overrides.get(i)
        if element is None:
            element = np.diag(self._table[i].astype(np.complex128))
            element.flags.writeable = False
        return element

    def _store(self, i: int, element) -> None:
        """Put ``element`` at row i: its real diagonal into the table, and
        the element itself into the overrides unless it is that diagonal.
        ValueError unless it is finite: NaN passes every verify_tree check."""
        d = self.dims.total
        element = np.array(element, dtype=np.complex128)
        if element.shape != (d, d):
            raise ValueError(f"node element of shape {element.shape} does "
                             f"not match dims {self.dims.dims}")
        if not np.isfinite(element).all():
            raise ValueError("node element has a non-finite entry")
        row = element.diagonal().real
        self._table[i] = row
        if np.array_equal(element, np.diag(row)):
            self._overrides.pop(i, None)
        else:
            element.flags.writeable = False
            self._overrides[i] = element


def _powers(eta: float, exponents) -> np.ndarray:
    """eta ** n for each n of ``exponents`` (a range or a list), bitwise as
    Python's float power gives them: both that and math.pow call the C
    library's pow, while np.power differs from it by an ulp in some
    entries."""
    return np.fromiter(map(math.pow, itertools.repeat(eta), exponents),
                       float, len(exponents))


def _built_table(params: ProtocolParams) -> np.ndarray:
    """The preorder diagonal table of the built tree, column-major: shape
    (2**parties, 2 parties rounds + 1), column j the diagonal of row j.

    Column 0 is the root. Step n*P + l, party l + 1 measuring in cycle n,
    has its halt leaf in column 2(n P + l) + 1 and its continue node in the
    next (:func:`_step_factors`); both are built in one pass of products,
    written straight into the table.
    """
    p = params.parties
    eps = params.epsilon
    powers = _powers(1.0 - eps, range(params.rounds + 1))
    cols = np.empty((2 ** p, 2 * p * params.rounds + 1))
    cols[:, 0] = 1.0
    _left_products(cols[:, 1:], _step_factors(p, powers, eps))
    return cols


def _step_factors(parties: int, powers: np.ndarray, eps: float):
    """Each party's factors in the columns of the built table after its
    root, for :func:`_left_products`: the halt leaf and continue node of
    every step, in pairs, step n P + l in columns 2(n P + l) and
    2(n P + l) + 1, powers[n] = eta^n.

    The continue node is the node after the step: parties 1..l + 1 have
    diag(eta^(n+1), 1), the others diag(eta^n, 1). The halt leaf is the
    node before it, parties 1..l at eta^(n+1) and the others at eta^n,
    with party l + 1's factor set to diag(eps * eta^n, 0). So a party's
    |0> entries in a cycle depend only on l and on the column's kind, and
    its |1> entry is 0 in the halt columns of the steps it takes. One
    buffer of |0> entries is refilled for each party.
    """
    zero = np.empty((len(powers) - 1, parties, 2))
    now, later = powers[:-1, None, None], powers[1:, None, None]
    halt = eps * powers[:-1]
    for party in range(parties):
        # Steps l < party come before this party's turn, l > party after.
        zero[:, :party] = now
        zero[:, party, 0] = halt
        zero[:, party, 1] = powers[1:]
        zero[:, party + 1:] = later
        yield zero.reshape(-1), slice(2 * party, None, 2 * parties)


def build_protocol_pq(parties: int, rounds: int, exponent: float
                      ) -> ProtocolTree:
    """Full protocol tree for the P-party halt-or-continue protocol, held
    as its real preorder diagonal table of 2 P rounds + 1 rows: row 0 is
    the root, rows 2k + 1 and 2k + 2 the halt leaf and continue node of
    step k (:func:`_built_table`)."""
    table = _built_table(ProtocolParams(parties, rounds, exponent))
    return ProtocolTree(table.T, PartyDims((2,) * parties))


def protocol_tree_bytes(parties: int, rounds: int) -> int:
    """Memory a :func:`build_protocol_pq` tree holds, in bytes.

    The tree holds one real diagonal of 2^P entries for each of its
    2 P rounds + 1 nodes, and up to 5 KiB of fixed objects, numpy's
    small-buffer cache and the interpreter's float free list. It is
    computed without building anything, so callers can refuse a tree too
    large.
    """
    nodes = 2 * parties * rounds + 1
    return nodes * 8 * 2 ** parties + 5 * 2 ** 10


# Entries verify_tree reads at a time in its column ranges. Its memory
# beyond a few values per node does not grow with the tree.
_CHUNK_ENTRIES = 2 ** 16


def protocol_check_bytes(parties: int, rounds: int) -> int:
    """Peak memory of building a tree and running :func:`verify_tree` on
    it, in bytes.

    On top of :func:`protocol_tree_bytes`, ``verify_tree`` holds per node
    its party factors' diagonals, one (2 P, n) array, its edge distances,
    its flags and its defects (12 + 38 P bytes); at once, up to 21 bytes
    per entry of one column range of diagonals (its factor products, leaf
    sums and factor differences); and numpy's buffers for strided
    operands, up to 18 bytes per table entry for the first 4096 entries.
    The build's own temporaries, O(P rounds), stay below that. Fitted
    under tracemalloc on CPython 3.11 over 61 (P, rounds) points, P = 2..6
    and 5 to 80001 nodes: 1.03 to 1.37 times the measured peak. A tree
    with dense overrides needs in addition a few times their size. When
    one of them has an imaginary part, the leaf sums are complex: up to
    16 (D + 2 m) bytes more per column of one range, m the off-diagonal
    entries the overrides set.
    """
    nodes = 2 * parties * rounds + 1
    width = 2 ** parties
    chunk = 21 * width * min(nodes, _CHUNK_ENTRIES // width)
    buffers = 18 * min(width * nodes, 2 ** 12)
    return (protocol_tree_bytes(parties, rounds) + nodes * (12 + 38 * parties)
            + chunk + buffers)


def protocol_leaf_diagonals(parties: int, rounds: int, exponent: float
                            ) -> np.ndarray:
    """POVM diagonals of all leaves, halt leaves in protocol order first,

    the main leaf last. Shape (parties * rounds + 1, 2**parties). This skips
    tree construction entirely, which matters for large round counts.
    """
    cols = _built_table(ProtocolParams(parties, rounds, exponent))
    return np.hstack([cols[:, 1::2], cols[:, -1:]]).T


@dataclass(frozen=True)
class TreeFailure:
    """A failed check at the node of preorder index ``row``."""

    row: int
    kind: str
    defect: float

    @property
    def node_path(self) -> tuple[int, ...]:
        """The child indices that :meth:`ProtocolTree.node_at` takes
        to the node: (1,) * k for row 2k, (1,) * k + (0,) for row 2k + 1.
        Made on each read, so a report of many deep failures holds one
        row each, not one path each."""
        return (1,) * (self.row // 2) + (0,) * (self.row % 2)


@dataclass(frozen=True)
class TreeReport:
    ok: bool
    n_nodes: int
    n_leaves: int
    max_node_sum_defect: float
    max_locality_defect: float
    max_product_defect: float
    completeness_defect: float
    failures: tuple[TreeFailure, ...]


def _traceless(tr: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Whether each element, of trace ``tr`` and Frobenius norm ``norm``,
    is traceless to ``TRACELESS_TOL`` relative to its norm."""
    return np.abs(tr) < TRACELESS_TOL * np.maximum(norm, 1e-300)


def _dense_factors(m: np.ndarray, dims: PartyDims):
    """Unit-trace party factors, traceless flags and relative product
    defects of a stack of elements, shape (c, D, D). A (near) traceless
    element has no factors; its product defect is 1."""
    norm = np.linalg.norm(m, axis=(1, 2))
    tr = np.trace(m, axis1=1, axis2=2)
    zero = _traceless(tr, norm)
    tr = np.where(zero, 1.0, tr)[:, None, None]
    facs = [partial_trace(m, dims, [p]) / tr
            for p in range(1, dims.n_parties + 1)]
    defect = np.linalg.norm(m - tr * kron(facs), axis=(1, 2))
    return facs, zero, np.where(zero, 1.0, defect / np.maximum(1.0, norm))


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each row of a real or complex stack, without
    temporaries of the stack's size."""
    v = a.view(np.float64)
    v = v.reshape(len(v), math.prod(v.shape[1:]))
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _column_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a real (k, c) array."""
    return np.sqrt(np.einsum("ij,ij->j", a, a))


@lru_cache(maxsize=8)
def _marginal_selector(dims: tuple[int, ...]) -> np.ndarray:
    """0/1 matrix taking a diagonal over the product basis to every
    party's marginal, parties one after another: entry [j, i] is 1 when
    row j belongs to party p and index i has digit j - offset_p there;
    shape (sum k_p, D). Shared between callers, so read-only."""
    digits = np.unravel_index(np.arange(math.prod(dims)), dims)
    sel = np.vstack([np.arange(k)[:, None] == digit
                     for digit, k in zip(digits, dims)]).astype(np.float64)
    sel.flags.writeable = False
    return sel


def _diagonal_factors(e: np.ndarray, dims: PartyDims, out: np.ndarray):
    """:func:`_dense_factors` of real diagonal elements from their
    diagonals, the columns of ``e``, shape (D, c): the unit-trace factors
    are marginal sums, written into ``out`` as (sum k_p, c) rows of
    diagonals, party after party, by one product of
    :func:`_marginal_selector` with the diagonals. Returns the traceless
    flags and the product defects."""
    c = e.shape[1]
    np.matmul(_marginal_selector(dims.dims), e, out=out)
    norm = _column_norms(e)
    tr = _traces(e)
    zero = _traceless(tr, norm)
    tr = np.where(zero, 1.0, tr)
    out /= tr
    ends = itertools.accumulate(dims.dims)
    marginals = [out[i - k:i] for i, k in zip(ends, dims.dims)]
    product = marginals[0]
    for f in marginals[1:]:
        product = (product[:, None] * f[None]).reshape(-1, c)
    product *= tr
    defect = _column_norms(np.subtract(e, product, out=product))
    return zero, np.where(zero, 1.0, defect / np.maximum(1.0, norm))


def _override_entries(dense: np.ndarray) -> np.ndarray:
    """The entries the leaf sums add for the dense overrides ``dense``,
    shape (c, D, D), one row each: its diagonal, then the m off-diagonal
    entries that some override sets; shape (c, D + m). Complex when some
    override has an imaginary part, real otherwise."""
    c, d, _ = dense.shape
    flat = dense.reshape(c, d * d)
    if not flat.imag.any():
        flat = flat.real
    off = ~np.eye(d, dtype=bool).reshape(-1)
    entries = np.flatnonzero(off & flat.any(axis=0))
    return np.hstack([flat[:, ::d + 1], flat[:, entries]])


def _column_entries(cols: np.ndarray, lo: int, hi: int, rows: np.ndarray,
                    entries: np.ndarray) -> np.ndarray:
    """The summed entries of the table columns lo, lo + 2, ... below
    ``hi``, the last one first, shape (W, m): a view of the (D, n) table
    when there are no overrides; otherwise a copy in which a column is its
    table diagonal and zeros, or the ``entries`` row of the override at
    that preorder row (``rows``, sorted)."""
    view = cols[:, lo:hi:2][:, ::-1]
    if not rows.size:
        return view
    out = np.zeros((entries.shape[1], view.shape[1]), entries.dtype)
    out[:len(cols)] = view
    a, b = np.searchsorted(rows, [lo, hi]).tolist()
    at = np.arange(a, b)[(rows[a:b] - lo) % 2 == 0]
    out[:, view.shape[1] - 1 - (rows[at] - lo) // 2] = entries[at].T
    return out


def _party_groups(dims: PartyDims) -> list[tuple[int, int, int, int]]:
    """Runs of consecutive parties of one local dimension k, as (first
    factor row, first party, parties, k): the factor rows of a run are a
    (parties, k, n) stack."""
    groups, row, party = [], 0, 0
    for k, run in itertools.groupby(dims.dims):
        m = len(list(run))
        groups.append((row, party, m, k))
        row, party = row + m * k, party + m
    return groups


def verify_tree(tree: ProtocolTree) -> TreeReport:
    """Structural verification of a protocol tree.

    Checks, with the defect localized to a node path on failure: every node
    element equals the sum of its descendant leaves (to NODE_SUM_TOL); every
    node element is a tensor product over the parties (to PRODUCT_TOL), and
    along each edge only the parent's acting party changes its unit-trace
    factor (to LOCALITY_TOL); the leaves form a complete measurement (to
    COMPLETENESS_TOL). Failures are listed leaf sums first (bottom-up), then
    products (preorder), locality (by parent, child, party) and
    completeness. The tree is read as it is when this is called.

    Every check runs in one pass over column ranges of about
    ``_CHUNK_ENTRIES`` entries of the transpose of the tree's column-major
    table, a contiguous (D, n) array, from the main leaf up. Each range
    gives its columns' party factors, as columns of one (sum k_p, n)
    array, then the leaf sums and the edges of the inner nodes it holds.
    An inner node's sum is its halt leaf plus its continue node's sum,
    S(2k) = x(2k + 1) + S(2k + 2), bitwise as a bottom-up fold adds them:
    one cumulative sum of the halt columns, with the running sum carried
    from one range to the next. Its edges run to columns 2k + 1 and
    2k + 2, the first of the range below when the range ends at 2k + 1.
    Parents, halt leaves and continue nodes are strided views of the table
    and of the factors, and the root's sum is kept, not written back. Only
    the dense overrides go through :func:`_dense_factors`. The leaf sums
    take the overrides' diagonals whole and the off-diagonal entries they
    set as extra rows, in complex arithmetic when one of them has an
    imaginary part.
    """
    dims = tree.dims
    d, parties = dims.total, dims.n_parties
    cols = tree._table.T
    n = cols.shape[1]
    steps = n // 2
    rows = np.array(sorted(tree._overrides), dtype=np.intp)
    entries = np.empty((0, d))
    dense_factors = []
    if rows.size:
        dense = np.array([tree._overrides[i] for i in rows.tolist()])
        entries = _override_entries(dense)
        dense_factors, dense_zero, dense_prod = _dense_factors(dense, dims)
    factors = np.empty((sum(dims.dims), n))
    traceless = np.empty(n, dtype=bool)
    prod = np.empty(n)
    sums = np.empty(steps)
    loc = np.empty((parties, 2 * steps))
    groups = _party_groups(dims)
    below = np.array(_column_entries(cols, n - 1, n, rows, entries)[:, 0])

    step = max(1, _CHUNK_ENTRIES // d)
    for lo in reversed(range(0, n, step)):
        hi = min(lo + step, n)
        traceless[lo:hi], prod[lo:hi] = _diagonal_factors(
            cols[:, lo:hi], dims, factors[:, lo:hi])
        if rows.size:
            a, b = np.searchsorted(rows, [lo, hi]).tolist()
            traceless[rows[a:b]] = dense_zero[a:b]
            prod[rows[a:b]] = dense_prod[a:b]
        # The inner nodes 2s of this range, s0 <= s < s1, bottom first.
        s0, s1 = (lo + 1) // 2, min((hi + 1) // 2, steps)
        if s0 >= s1:
            continue
        seq = np.empty((entries.shape[1], s1 - s0 + 1), entries.dtype)
        seq[:, 0] = below
        seq[:, 1:] = _column_entries(cols, 2 * s0 + 1, 2 * s1, rows, entries)
        np.cumsum(seq, axis=1, out=seq)
        gap = np.subtract(_column_entries(cols, 2 * s0, 2 * s1, rows,
                                          entries), seq[:, 1:])
        sums[s0:s1] = np.abs(gap).max(axis=0)[::-1]
        below = seq[:, -1]

        # Edge 2s + j runs from column 2s to column 2s + 1 + j; each party's
        # distance is the norm of its rows of the factor differences.
        up = factors[:, 2 * s0:2 * s1:2]
        diff = np.empty((len(factors), 2, s1 - s0))
        np.subtract(factors[:, 2 * s0 + 1:2 * s1:2], up, out=diff[:, 0])
        np.subtract(factors[:, 2 * s0 + 2:2 * s1 + 1:2], up, out=diff[:, 1])
        edges = loc[:, 2 * s0:2 * s1].reshape(parties, s1 - s0, 2)
        for row, party, m, k in groups:
            q = diff[row:row + m * k].reshape(m, k, 2, s1 - s0)
            np.einsum("pijs,pijs->pjs", q, q,
                      out=edges[party:party + m].transpose(0, 2, 1))
        np.sqrt(edges, out=edges)
        # The acting party and edges at traceless nodes are masked.
        for p in range(parties):
            edges[p, (p - s0) % parties::parties] = 0.0
        if traceless[2 * s0:2 * s1 + 1].any():
            edges[:, traceless[2 * s0 + 1:2 * s1 + 1].reshape(-1, 2)
                  | traceless[2 * s0:2 * s1:2, None]] = 0.0

    if rows.size:
        _dense_edges(loc, factors, dims, traceless, rows, dense_factors)
    below[:d] -= 1.0
    comp = float(np.abs(below).max())
    worst = (float(sums.max(initial=0.0)), float(loc.max(initial=0.0)),
             float(prod.max()))
    failed: list[tuple[int, str, float]] = []
    if worst[0] > NODE_SUM_TOL:
        failed.extend((2 * int(s), "leaf-sum", float(sums[s]))
                      for s in np.flatnonzero(sums > NODE_SUM_TOL)[::-1])
    if worst[2] > PRODUCT_TOL:
        failed.extend((int(i), "product", float(prod[i]))
                      for i in np.flatnonzero(prod > PRODUCT_TOL))
    if worst[1] > LOCALITY_TOL:
        # By edge, which is preorder by parent then child, then by party.
        over = np.flatnonzero(loc.T > LOCALITY_TOL)
        failed.extend((int(e) + 1, f"locality-party-{p + 1}",
                       float(loc[p, e]))
                      for e, p in zip(*np.divmod(over, parties)))
    if comp > COMPLETENESS_TOL:
        failed.append((0, "completeness", comp))

    failures = tuple(TreeFailure(*f) for f in failed)
    return TreeReport(not failures, n, (n + 1) // 2, *worst, comp, failures)


def _factor_matrices(f: np.ndarray, g: np.ndarray, at: np.ndarray,
                     nodes: np.ndarray) -> np.ndarray:
    """One party's factors of ``nodes`` as matrices: a dense node's own,
    ``g[at[node]]``, and every other node's diagonal, a column of ``f``."""
    m = diagonal_stack(f[:, nodes].T)
    own = at[nodes] >= 0
    m[own] = g[at[nodes[own]]]
    return m


def _dense_edges(loc: np.ndarray, factors: np.ndarray, dims: PartyDims,
                 traceless: np.ndarray, rows: np.ndarray, dense: list) -> None:
    """Measure again in ``loc``, shape (parties, edges), the edges at the
    dense override ``rows`` on the factor matrices, ``dense`` holding those
    rows' factors per party, and mask them as :func:`verify_tree` does.
    ``factors`` holds the (sum k_p, n) diagonals of every node."""
    n = len(traceless)
    at = np.full(n, -1)
    at[rows] = np.arange(rows.size)
    # Edge e runs from column e & ~1 to column e + 1: a row r is the child
    # of edge r - 1 and, when it is an inner node, the parent of r, r + 1.
    touched = np.zeros(n - 1, dtype=bool)
    touched[rows[rows > 0] - 1] = True
    inner = rows[(rows % 2 == 0) & (rows < n - 1)]
    touched[inner] = touched[inner + 1] = True
    edge = np.flatnonzero(touched)
    kid, up = edge + 1, edge & ~1
    ends = np.cumsum(dims.dims).tolist()
    dist = np.array([
        _row_norms(_factor_matrices(factors[i - k:i], g, at, kid)
                   - _factor_matrices(factors[i - k:i], g, at, up))
        for i, k, g in zip(ends, dims.dims, dense)])
    parties = np.arange(dims.n_parties)[:, None]
    compared = (parties != edge // 2 % dims.n_parties) & ~(traceless[kid]
                                                            | traceless[up])
    loc[:, edge] = np.where(compared, dist, 0.0)


@dataclass
class PiecewisePath:
    """Piecewise linear path of diagonal operators, parametrized by trace.

    ``s_values`` decrease from the top of the path; ``diagonals`` is one
    real (n, d) array whose k-th row is the diagonal of the operator at
    ``s_values[k]``. Between breakpoints the operator interpolates
    linearly, so the trace of ``at(s)`` is exactly s.
    """

    s_values: np.ndarray
    diagonals: np.ndarray

    def __post_init__(self):
        self.s_values = np.asarray(self.s_values, dtype=np.float64)
        self.diagonals = np.asarray(self.diagonals, dtype=np.float64)
        if self.s_values.ndim != 1 or self.s_values.size < 2:
            raise ValueError("a path needs at least two breakpoints")
        if (self.diagonals.ndim != 2
                or len(self.diagonals) != self.s_values.size):
            raise ValueError("one diagonal per breakpoint required")
        if not np.all(np.diff(self.s_values) < 0.0):
            raise ValueError("breakpoint traces must strictly decrease")

    @property
    def s_top(self) -> float:
        return float(self.s_values[0])

    @property
    def s_bottom(self) -> float:
        return float(self.s_values[-1])

    def at(self, s: float, clamp: bool = False) -> np.ndarray:
        """Operator at trace value s, a dense (d, d) matrix; clamp=True
        pins s into the domain. A non-finite s raises ValueError."""
        if not math.isfinite(s):
            raise ValueError(f"s={s} must be finite")
        sv = self.s_values
        if clamp:
            s = min(max(s, float(sv[-1])), float(sv[0]))
        elif not sv[-1] - ROUNDING_TOL <= s <= sv[0] + ROUNDING_TOL:
            raise ValueError(
                f"s={s} outside path domain [{sv[-1]}, {sv[0]}]"
            )
        k = int(np.searchsorted(-sv, -s, side="right")) - 1
        k = min(max(k, 0), sv.size - 2)
        hi, lo = sv[k], sv[k + 1]
        lam = 0.0 if hi == lo else (s - lo) / (hi - lo)
        return diagonal_stack(lam * self.diagonals[k]
                              + (1.0 - lam) * self.diagonals[k + 1])


# Entries of the main-branch columns that main_branch_path builds at a
# time (8 MiB).
_PATH_CHUNK_ENTRIES = 2 ** 20


def main_branch_path(parties: int, rounds: int, exponent: float
                     ) -> PiecewisePath:
    """Main-branch path built directly, without the tree.

    The node rows index Python powers eta^n by cycle, so each equals the
    tree's continue row bit for bit. Deep in a long protocol consecutive
    node traces coincide to rounding; a breakpoint whose trace is not below
    the last kept one by a relative 1e-15 is dropped
    (:func:`_kept_breakpoints`), and its operator agrees with the kept one
    to the same precision. The nodes are built as columns, about
    ``_PATH_CHUNK_ENTRIES`` entries at a time, each range with the powers
    of its own cycles, and the rule runs on each range behind the last
    trace kept before it; their traces are added in the order of a row sum
    (:func:`_traces`). So the memory is that of the n kept diagonals,
    O(n 2^P), plus one range.

    The branch stops at its floor (:func:`_floor_cycle`): from cycle n_f
    on every node's trace is exactly 1.0, which no kept trace, at least
    1.0, drops below, so no node after node P n_f is built. The cost is
    O(min(rounds, n_f) P 2^P), with n_f about (37.4 + ln(P 2^(P-1))) / eps:
    O(rounds^c) columns, not O(rounds).
    """
    eta = 1.0 - ProtocolParams(parties, rounds, exponent).epsilon
    nodes = parties * min(rounds, _floor_cycle(parties, eta)) + 1
    step = max(1, _PATH_CHUNK_ENTRIES >> parties)
    kept_s, kept_d, last = [], [], np.empty(0)
    for start in range(0, nodes, step):
        cycle, ahead = np.divmod(np.arange(start, min(start + step, nodes)),
                                 parties)
        first = int(cycle[0])
        powers = _powers(eta, range(first, int(cycle[-1]) + 2))
        cols = _node_diagonals(parties, powers[cycle - first],
                               powers[cycle + 1 - first], ahead)
        traces = np.concatenate([last, _traces(cols)])
        keep = _kept_breakpoints(traces)[last.size:]
        kept_s.append(traces[keep])
        kept_d.append(cols[:, keep - last.size].T)
        if keep.size:
            last = traces[keep[-1:]]
    if len(kept_d) == 1:
        # One range, as every branch of up to 2e4 columns at P <= 5: its
        # kept diagonals need no second copy.
        return PiecewisePath(kept_s[0], kept_d[0])
    return PiecewisePath(np.concatenate(kept_s), np.concatenate(kept_d))


def _floor_cycle(parties: int, eta: float) -> float:
    """The first cycle n_f from which every main-branch node has trace
    exactly 1.0 however its entries are added; infinite at eta = 0, where
    the one cycle of the branch is built whole.

    A node of cycle n has the entry 1 where every party sees |1>, and its
    other 2^P - 1 entries, products with at least one factor eta^n or
    eta^(n+1) and the rest at most 1, sum to at most
    (1 + eta^n)^P - 1 <= P 2^(P-1) eta^n. From
    n_f = ceil(log(2^-54 / (P 2^(P-1))) / log eta) + 1 on, that is below
    2^-54, one more cycle covering the rounding of the logarithms. In any
    order of addition a partial sum of those entries stays below 2^-53,
    half an ulp of 1.0, so adding it to a partial sum of 1.0 gives 1.0.
    """
    if eta <= 0.0:
        return math.inf
    return math.ceil(math.log(2.0 ** -54 / (parties * 2 ** (parties - 1)))
                     / math.log(eta)) + 1


def _traces(cols: np.ndarray) -> np.ndarray:
    """Column sums of a (D, n) stack of diagonals, D a power of two,
    added in the order in which numpy sums each row of the C-ordered (n, D)
    transpose, so they equal its traces bit for bit: one entry after
    another below 8 entries, into 8 running sums joined pairwise up to 128,
    and above that as the sum of the two halves."""
    d = len(cols)
    if d < 8:
        return cols.sum(axis=0)
    if d > 128:
        return _traces(cols[:d // 2]) + _traces(cols[d // 2:])
    r = cols[:8].copy()
    for i in range(8, d, 8):
        r += cols[i:i + 8]
    return ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))


def _kept_breakpoints(traces: np.ndarray) -> np.ndarray:
    """Indices of the traces that the drop rule keeps: the first, then each
    one below the last kept by a relative 1e-15.

    The rule compares with the last kept trace, not with the neighbour,
    but every trace before the last kept one is at least that one. So
    while consecutive traces drop by more than the margin all are kept
    (the head, one vectorised comparison); after it, the next kept index
    is the first at which the running minimum falls below the margin, one
    ``searchsorted`` on the negated running minimum per kept breakpoint.
    """
    drop = 1.0 - 1e-15
    steep = traces[1:] < traces[:-1] * drop
    last = steep.size if steep.all() else int(np.argmin(steep))
    floor = -np.minimum.accumulate(traces[last:])
    tail, j = [], 0
    while True:
        j = int(np.searchsorted(floor, -(traces[last + j] * drop),
                                side="right"))
        if j == floor.size:
            break
        tail.append(last + j)
    return np.concatenate([np.arange(last + 1), np.array(tail, dtype=int)])


# Cached: building the table costs about a third of a closed-form
# multiplier evaluation, which is otherwise a few dozen numpy calls.
@lru_cache(maxsize=8)
def prefix_zeros(parties: int) -> np.ndarray:
    """Zeros among the first parties of every basis index.

    Entry [i, l] counts the parties 1..l that see |0> in index i (party 1
    is the most significant bit), for l = 0..P; shape (2^P, P + 1). The
    array is shared between callers, so it is read-only.
    """
    bits = (np.arange(2 ** parties)[:, None]
            >> np.arange(parties - 1, -1, -1)) & 1
    table = np.concatenate([np.zeros((2 ** parties, 1), dtype=int),
                            np.cumsum(1 - bits, axis=1)], axis=1)
    table.flags.writeable = False
    return table


def _node_diagonals(parties: int, now: np.ndarray, later: np.ndarray,
                    ahead: np.ndarray) -> np.ndarray:
    """Diagonals of main-branch nodes as columns, shape (2^P, len(ahead)).

    The node after k = n P + l steps (0 <= l <= P) is the product of
    diag(eta^(n+1), 1) for parties 1..l and diag(eta^n, 1) for the others;
    ``now`` and ``later`` hold eta^n and eta^(n+1) per node and ``ahead``
    holds l. The product is built one party at a time, left to right
    (:func:`_left_products`), as :func:`_built_table` builds it, so given
    Python powers every column that :func:`_built_table` and
    :func:`main_branch_path` share is the same bit for bit.
    """
    return _left_products(
        np.empty((2 ** parties, ahead.size)),
        ((np.where(party <= ahead, later, now), None)
         for party in range(1, parties + 1)))


def _left_products(out: np.ndarray, factors) -> np.ndarray:
    """The products of diagonal party factors (z, 1) taken left to right,
    one per column, written into ``out``, shape (2^P, n), and returned.
    ``factors`` yields for each party in turn its |0> entries z, an (n,)
    array, and the columns (an index, or None for none) in which its |1>
    entry is 0 instead. A factor 1 leaves a product bit for bit as it is.

    The product of the first p factors is held in place, in the rows of
    ``out`` that are multiples of 2^(P - p); its row j becomes rows 2j,
    for |0>, and 2j + 1, for |1>, of the next product.
    """
    out[0] = 1.0
    gap = len(out)
    for zero, halted in factors:
        gap //= 2
        diag = out[::2 * gap]
        out[gap::2 * gap] = diag
        if halted is not None:
            out[gap::2 * gap, halted] = 0.0
        diag *= zero
    return out


def main_branch_diagonals(parties: int, rounds: int, exponent: float,
                          s: Sequence[float]) -> np.ndarray:
    """Diagonals of the finite main branch at the traces ``s``, in closed
    form; shape (len(s), 2^P).

    The node after k = n P + l steps (0 <= l < P, :func:`_node_diagonals`)
    has trace T(k) = (1 + eta^(n+1))^l (1 + eta^n)^(P - l), which
    decreases in k. Each s is placed on its segment [k, k + 1], the one
    with T(k) >= s > T(k + 1), and the two node diagonals at its ends are
    interpolated linearly in trace. The segment is read off in closed form
    (:func:`_placement_guess`) and kept where T confirms it; only the
    other points are placed by bisection over k. Finite values of s
    outside the branch's domain are clamped into it, as
    ``main_branch_path(...).at(s, clamp=True)`` does, and a non-finite s
    raises ValueError; nothing is built per step, so the cost does not
    grow with ``rounds``.
    """
    eta = 1.0 - ProtocolParams(parties, rounds, exponent).epsilon
    s = np.asarray(s, dtype=float).reshape(-1)
    if not np.isfinite(s).all():
        raise ValueError("traces s must be finite")
    last = float(parties * rounds)

    def node_trace(k):
        n = np.floor(k / parties)
        l = k - n * parties
        now = eta ** n
        return (1.0 + eta * now) ** l * (1.0 + now) ** (parties - l)

    # Invariant: node_trace(lo) >= s > node_trace(hi), so the bracket
    # halves to a single segment. Below the branch's floor lo = hi = last;
    # above 2^P it ends at (0, 1) and the weight clips to 1. Both clamp.
    floor = s <= node_trace(np.array([last]))
    lo = np.where(floor, last, 0.0)
    hi = np.full(s.shape, last)
    guess = _placement_guess(parties, rounds, eta, s)
    # One node_trace call over [k, k + 1] tests every guess.
    ends = node_trace(np.concatenate([guess, guess + 1.0]))
    found = ~floor & (ends[:s.size] >= s) & (s > ends[s.size:])
    lo[found], hi[found] = guess[found], guess[found] + 1.0
    rest = np.flatnonzero(~floor & ~found)
    if rest.size:
        left, right, target = lo[rest], hi[rest], s[rest]
        for _ in range(int(np.ceil(np.log2(last)))):
            mid = np.floor(0.5 * (left + right))
            above = node_trace(mid) >= target
            left = np.where(above, mid, left)
            right = np.where(above, right, mid)
        lo[rest], hi[rest] = left, right
    k = np.concatenate([lo, hi])
    n = np.floor(k / parties)
    # Powers of the few cycles the grid needs, as in _built_table.
    cycles, at = np.unique(np.concatenate([n, n + 1.0]), return_inverse=True)
    now, later = np.split(_powers(eta, cycles.tolist())[at], 2)
    top, bottom = np.split(
        _node_diagonals(parties, now, later, k - n * parties), 2, axis=1)
    t_top, t_bottom = _traces(top), _traces(bottom)
    span = t_top - t_bottom
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(span > 0.0, (s - t_bottom) / span, 0.0)
    lam = np.clip(lam, 0.0, 1.0)
    return np.ascontiguousarray((lam * top + (1.0 - lam) * bottom).T)


def _placement_guess(parties: int, rounds: int, eta: float,
                     s: np.ndarray) -> np.ndarray:
    """The step k = n P + l of the main-branch segment holding each s, in
    closed form, as a float.

    In cycle n the traces run from (1 + eta^n)^P down to
    (1 + eta^(n+1))^P, so n = floor(log(s^(1/P) - 1) / log eta); within
    it log T(n P + l) falls linearly in l by log1p(eta^n) -
    log1p(eta^(n+1)), which gives l. Both are clipped into the branch, n
    to [0, rounds - 1] and l to [0, P - 1]; at eta = 0 the one cycle is
    n = 0. Rounding can put a guess one segment off, so callers confirm it.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if eta > 0.0:
            n = np.floor(np.log(s ** (1.0 / parties) - 1.0) / math.log(eta))
            n = np.clip(np.nan_to_num(n, nan=0.0, posinf=rounds - 1.0,
                                      neginf=0.0), 0.0, rounds - 1.0)
        else:
            n = np.zeros(s.shape)
        now = np.log1p(eta ** n)
        l = np.floor((parties * now - np.log(s))
                     / (now - np.log1p(eta ** (n + 1.0))))
    l = np.clip(np.nan_to_num(l, nan=0.0, posinf=parties - 1.0, neginf=0.0),
                0.0, parties - 1.0)
    return n * parties + l


@lru_cache(maxsize=8)
def _power_slots(parties: int) -> np.ndarray:
    """Where each entry of the halt densities of :func:`derivative_diagonals`
    reads its power of sigma: entry [alpha, i] is the number of parties
    other than alpha + 1 that see |0> in index i, or P + 1, the slot of 0,
    where party alpha + 1 sees |1>; shape (P, 2^P), read-only."""
    bits = (np.arange(2 ** parties)
            >> np.arange(parties - 1, -1, -1)[:, None]) & 1
    slots = np.where(bits == 1, parties + 1, prefix_zeros(parties)[:, -1] - 1)
    slots.flags.writeable = False
    return slots


def _party_powers(x: np.ndarray, parties: int) -> np.ndarray:
    """1, x, x x, (x x) x, ... up to x^P, each power the product of the
    last and x, as the left-to-right outer product of P factors (x, 1) or
    (1, 0) forms it, and then 0; shape x.shape + (P + 2,). A factor 1
    leaves a product bit for bit as it is, so each entry of such an outer
    product is one of these."""
    out = np.empty(x.shape + (parties + 2,))
    out[..., 0] = 1.0
    out[..., 1] = x
    for k in range(2, parties + 1):
        np.multiply(out[..., k - 1], x, out=out[..., k])
    out[..., -1] = 0.0
    return out


def limit_path_diagonals(parties: int, s) -> np.ndarray:
    """Diagonals of the limiting main path M(s)^(x P),
    M(s) = (s^(1/P)-1)|0><0| + |1><1|, at every s of a 1-D array in
    [1, 2^P]; real, shape (n, 2^P). The outer product of the factors
    (s^(1/P) - 1, 1), taken left to right as :func:`~loccverify.linalg.kron`
    takes them: entry i is the power of s^(1/P) - 1 that counts the
    parties seeing |0> in i (:func:`_party_powers`)."""
    top = float(2 ** parties)
    s = clamped(s, top, f"s outside [1, {top}]")
    return _party_powers(s ** (1.0 / parties) - 1.0, parties).take(
        prefix_zeros(parties)[:, -1], axis=-1)


@dataclass(frozen=True)
class PathDistanceReport:
    parties: int
    rounds: int
    exponent: float
    epsilon: float
    max_distance: float
    worst_s: float
    bound: float
    grid_points: int
    passed: bool


def path_distance_bound(parties: int, rounds: int, exponent: float,
                        grid_points: int = 401) -> PathDistanceReport:
    """Trace-norm gap between the finite main branch and its limit.

    The gap is maximized over a uniform grid of ``grid_points`` values on
    [1, 2^P] (the finite path is clamped below its own domain floor, which
    costs at most the floor offset), and ``worst_s`` is the first grid
    point attaining it. Both paths are diagonal, so the trace norm is the
    sum of absolute diagonal differences; the finite branch comes from
    :func:`main_branch_diagonals` and the limit from
    :func:`limit_path_diagonals`. The bound is sqrt(3) * eps for two
    parties and P * 2^(P/2) * eps in general. ``grid_points`` < 1 raises
    ValueError.
    """
    params = ProtocolParams(parties, rounds, exponent)
    if grid_points < 1:
        raise ValueError("grid_points must be at least 1")
    grid = np.linspace(1.0, float(2 ** parties), grid_points)
    pre = main_branch_diagonals(parties, rounds, exponent, grid)
    gaps = np.abs(pre - limit_path_diagonals(parties, grid)).sum(axis=1)
    worst = int(np.argmax(gaps))
    eps = params.epsilon
    if parties == 2:
        bound = np.sqrt(3.0) * eps
    else:
        bound = parties * 2.0 ** (parties / 2.0) * eps
    return PathDistanceReport(parties, rounds, exponent, eps,
                              float(gaps[worst]), float(grid[worst]),
                              float(bound), len(grid),
                              float(gaps[worst]) <= bound + ROUNDING_TOL)


def derivative_diagonals(parties: int, sigma) -> np.ndarray:
    """Halt densities peeling off the limiting main path, as diagonals, at
    every sigma of an array in [0, 1]; real, shape sigma.shape + (P, 2^P).

    Outcome alpha (0-based: party alpha + 1 halts) is the product of
    diag(1, 0) for that party and diag(sigma, 1) for the others, taken left
    to right, so every entry is exactly a power of sigma or 0. The
    densities are taken with respect to d(s^(1/P)), sigma = s^(1/P) - 1,
    so the all-ones projector plus the integral of their sum over sigma in
    [0, 1] resolves the identity. Their entrywise square roots, as
    matrices through :func:`~loccverify.linalg.diagonal_stack`, are the
    limiting measurement operators. Each entry is a power of sigma or 0
    (:func:`_party_powers`).
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size and not 0.0 <= sigma.min() <= sigma.max() <= 1.0:
        raise ValueError("sigma outside [0, 1]")
    return _party_powers(sigma, parties).take(_power_slots(parties), axis=-1)


@lru_cache(maxsize=8)
def derivative_roots(parties: int) -> np.ndarray:
    """The entrywise roots of the halt densities of
    :func:`derivative_diagonals` as polynomials in u = sqrt(sigma): entry
    [alpha, k, i] is the coefficient of u^k in the root of outcome alpha's
    entry i, which is 1 where that entry is sigma^k and 0 elsewhere; shape
    (P, P, 2^P), read-only."""
    slots = _power_slots(parties)
    roots = (slots[:, None, :] == np.arange(parties)[:, None]).astype(float)
    roots.flags.writeable = False
    return roots


# perfbench's span table looks the verifier up on this module; it lives in
# conditions, which does not import this module.
from .conditions import verify_theorem_conditions  # noqa: E402,F401
