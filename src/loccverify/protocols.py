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

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    PartyDims,
    cumulative_sqrt_smooth,
    integrate_sqrt_smooth,
    kron,
    partial_trace,
    product_defect,
    sqrt_psd,
)
from .tolerances import (COMPLETENESS_TOL, LOCALITY_TOL, MEMBERSHIP_TOL,
                         MIXTURE_PSD_TOL, NODE_SUM_TOL, PRODUCT_TOL, RECON_TOL,
                         RESOLUTION_TOL, ROUNDING_TOL, SIGMA_SAMPLES,
                         TRACE_TOL)
from .zonoid import (
    CoefficientMatrix,
    ZonoidSpec,
    cmatrix_resolution_check,
    coefficient_stack,
    endpoint_cmatrix,
    membership,
)


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


@dataclass(eq=False)
class ProtocolNode:
    """One node of a protocol tree.

    ``acting_party`` names the party measuring at this node (children are
    its outcomes); leaves carry None. Child index 0 is the halt outcome,
    index 1 continues.
    """

    povm_element: np.ndarray
    acting_party: int | None
    children: list["ProtocolNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.povm_element)))


class ProtocolTree:
    """A protocol tree: its root node, party dimensions and parameters.

    A tree from :func:`build_protocol_pq` holds only its preorder diagonal
    table, one row per node: the root, then the halt leaf and continue node
    of each step. Its :class:`ProtocolNode` objects are made on the first
    request for them (``root``, ``node_at``, ``iter_nodes``, ``leaves``);
    from then on they are the tree and the table is dropped, so an element
    replaced on a node is what :func:`verify_tree` reads.
    """

    def __init__(self, root: ProtocolNode | None, dims: PartyDims,
                 params: ProtocolParams, table: np.ndarray | None = None):
        self._root = root
        self._table = table
        self.dims = dims
        self.params = params

    @property
    def root(self) -> ProtocolNode:
        if self._root is None:
            self._root = _caterpillar_nodes(self._table, self.params.parties)
            self._table = None
        return self._root

    def iter_nodes(self):
        """Preorder traversal, iterative: trees get deep for large rounds."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> list[ProtocolNode]:
        return [n for n in self.iter_nodes() if n.is_leaf]

    def node_at(self, path: Sequence[int]) -> ProtocolNode:
        node = self.root
        for i in path:
            node = node.children[i]
        return node

    @property
    def n_nodes(self) -> int:
        if self._table is not None:
            return len(self._table)
        return sum(1 for _ in self.iter_nodes())


def _step_rows(params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """Halt and continue diagonals of every step, in protocol order.

    Both arrays have shape (parties * rounds, 2**parties); row n*P + l - 1
    belongs to party l measuring in cycle n. Each row is the Kronecker
    product of the local diagonals diag(eta^(n+1), 1) for the parties ahead
    of l, diag(eta^n, 1) for those behind it, and for party l itself
    diag(eps * eta^n, 0) on halting or diag(eta^(n+1), 1) on continuing,
    eta = 1 - eps. The product is built one party at a time, left to right.
    """
    p, rounds = params.parties, params.rounds
    eps = params.epsilon
    eta = 1.0 - eps
    # Python powers: np.power differs from them by an ulp in some entries.
    powers = np.array([eta ** k for k in range(rounds + 1)])
    n = np.repeat(np.arange(rounds), p)
    acting = np.tile(np.arange(1, p + 1), rounds)
    now, later = powers[n], powers[n + 1]
    halt = np.ones((n.size, 1))
    cont = np.ones((n.size, 1))
    for party in range(1, p + 1):
        ahead = party < acting
        halt_zero = np.where(ahead, later,
                             np.where(party == acting, eps * now, now))
        halt_one = np.where(party == acting, 0.0, 1.0)
        cont_zero = np.where(party <= acting, later, now)
        halt = np.stack([halt * halt_zero[:, None], halt * halt_one[:, None]],
                        axis=2).reshape(n.size, -1)
        cont = np.stack([cont * cont_zero[:, None], cont],
                        axis=2).reshape(n.size, -1)
    return halt, cont


def build_protocol_pq(parties: int, rounds: int, exponent: float
                      ) -> ProtocolTree:
    """Full protocol tree for the P-party halt-or-continue protocol, held
    as its preorder diagonal table of 2 P rounds + 1 rows: row 0 is the
    root, rows 2k + 1 and 2k + 2 the halt leaf and continue node of step k
    (:func:`_step_rows`). No node object is made until one is asked for."""
    params = ProtocolParams(parties, rounds, exponent)
    halt, cont = _step_rows(params)
    table = np.empty((2 * halt.shape[0] + 1, 2 ** parties),
                     dtype=np.complex128)
    table[0] = 1.0
    table[1::2] = halt
    table[2::2] = cont
    return ProtocolTree(None, PartyDims((2,) * parties), params, table)


def _caterpillar_links(n: int, parties: int):
    """Parent index, child index, acting party and arity of each node of an
    n-node caterpillar in preorder, as :func:`_preorder` walks them: node
    2k + 1 is the halt leaf of step k and node 2k + 2 its continue node,
    both children of node 2k, where party k mod P + 1 measures."""
    i = np.arange(n)
    up = np.where(i > 0, (i - 1) // 2 * 2, -1)
    child = np.where(i > 0, 1 - i % 2, 0)
    arity = np.where((i % 2 == 0) & (i < n - 1), 2, 0)
    acting = np.where(arity > 0, i // 2 % parties + 1, 0)
    return up, child, acting, arity


def _caterpillar_nodes(table: np.ndarray, parties: int) -> ProtocolNode:
    """The :class:`ProtocolNode` objects of a caterpillar's diagonal table,
    each element the dense diagonal matrix of its row; returns the root."""
    n, d = table.shape
    elements = np.zeros((n, d, d), dtype=np.complex128)
    idx = np.arange(d)
    elements[:, idx, idx] = table
    acting = _caterpillar_links(n, parties)[2].tolist()
    nodes = [ProtocolNode(e, a or None) for e, a in zip(elements, acting)]
    for k in range(0, n - 1, 2):
        nodes[k].children = [nodes[k + 1], nodes[k + 2]]
    return nodes[0]


def protocol_tree_bytes(parties: int, rounds: int) -> int:
    """Memory a :func:`build_protocol_pq` tree holds, in bytes.

    The tree holds one complex diagonal of 2^P entries for each of its
    2 P rounds + 1 nodes, and up to 4 KiB of fixed objects and numpy's
    small-buffer cache. It is computed without building anything, so
    callers can refuse a tree too large.
    """
    nodes = 2 * parties * rounds + 1
    return nodes * 16 * 2 ** parties + 2 ** 12


# Entries verify_tree stacks at a time: of dense node elements while it
# reads them, of diagonals in its factor and leaf-sum passes. Its memory
# beyond one diagonal per node does not grow with the tree.
_CHUNK_ENTRIES = 2 ** 16


def protocol_check_bytes(parties: int, rounds: int) -> int:
    """Peak memory of building a tree and running :func:`verify_tree` on
    it, in bytes.

    On top of :func:`protocol_tree_bytes`, ``verify_tree`` holds per node
    a copy of its table row (16 * 2^P bytes), its party factors' diagonals
    (32 P) and its link arrays, defects and leaf-sum indices (128); at
    once, up to four chunks of diagonals; and 8 KiB of fixed objects. A
    built tree is read from its table, so no dense element is stacked.
    Fitted under tracemalloc on CPython 3.11 over 63 (P, rounds) points,
    P = 2..6 and 5 to 80001 nodes: 1.03 to 1.47 times the measured peak.
    """
    nodes = 2 * parties * rounds + 1
    width = 2 ** parties
    diagonals = 16 * width * min(nodes, _CHUNK_ENTRIES // width)
    return (protocol_tree_bytes(parties, rounds)
            + nodes * (128 + 16 * width + 32 * parties)
            + 4 * diagonals + 2 ** 13)


def protocol_leaf_diagonals(parties: int, rounds: int, exponent: float
                            ) -> np.ndarray:
    """POVM diagonals of all leaves, halt leaves in protocol order first,

    the main leaf last. Shape (parties * rounds + 1, 2**parties). This skips
    tree construction entirely, which matters for large round counts.
    """
    halt, cont = _step_rows(ProtocolParams(parties, rounds, exponent))
    return np.vstack([halt, cont[-1:]])


@dataclass(frozen=True)
class TreeFailure:
    node_path: tuple[int, ...]
    kind: str
    defect: float


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


def _preorder(root: ProtocolNode):
    """One preorder walk. Returns the node elements and, per node, its
    parent's index (-1 at the root), its child index there, its acting
    party (0 for none) and its number of children."""
    elements, parent, child, acting, arity = [], [], [], [], []
    stack = [(root, -1, 0)]
    while stack:
        node, up, i = stack.pop()
        me = len(elements)
        elements.append(node.povm_element)
        parent.append(up)
        child.append(i)
        acting.append(node.acting_party or 0)
        kids = node.children
        k = len(kids)
        arity.append(k)
        if k:
            stack.extend(zip(reversed(kids), repeat(me, k),
                             range(k - 1, -1, -1)))
    return (elements, np.array(parent), np.array(child), np.array(acting),
            np.array(arity))


def _dense_factors(m: np.ndarray, dims: PartyDims):
    """Unit-trace party factors, traceless flags and relative product
    defects of a stack of elements, shape (c, D, D). A (near) traceless
    element has no factors; its product defect is 1."""
    norm = np.linalg.norm(m, axis=(1, 2))
    tr = np.trace(m, axis1=1, axis2=2)
    zero = np.abs(tr) < 1e-13 * np.maximum(norm, 1e-300)
    tr = np.where(zero, 1.0, tr)[:, None, None]
    facs = [partial_trace(m, dims, [p]) / tr
            for p in range(1, dims.n_parties + 1)]
    defect = np.linalg.norm(m - tr * kron(facs), axis=(1, 2))
    return facs, zero, np.where(zero, 1.0, defect / np.maximum(1.0, norm))


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each row of a complex stack, without temporaries
    of the stack's size."""
    v = a.view(np.float64)
    v = v.reshape(len(v), math.prod(v.shape[1:]))
    return np.sqrt(np.einsum("ij,ij->i", v, v))


@lru_cache(maxsize=8)
def _marginal_selector(dims: tuple[int, ...]) -> np.ndarray:
    """0/1 matrix taking a diagonal over the product basis to every
    party's marginal, parties one after another: entry [i, j] is 1 when
    column j belongs to party p and index i has digit j - offset_p there.
    Each entry is doubled into a 2 x 2 identity, so it acts on a complex
    diagonal's interleaved real and imaginary parts; shape
    (2 D, 2 sum k_p). Shared between callers, so read-only."""
    digits = np.unravel_index(np.arange(math.prod(dims)), dims)
    sel = np.hstack([digit[:, None] == np.arange(k)
                     for digit, k in zip(digits, dims)])
    sel = np.kron(sel.astype(np.float64), np.eye(2))
    sel.flags.writeable = False
    return sel


def _diagonal_factors(e: np.ndarray, dims: PartyDims):
    """:func:`_dense_factors` of exactly diagonal elements from their
    diagonals, shape (c, D): the factors are marginal sums, returned as
    (c, k) diagonals. All marginals come from one real product of the
    diagonals' real and imaginary parts with :func:`_marginal_selector`."""
    c = len(e)
    both = (e.view(np.float64) @ _marginal_selector(dims.dims)).view(
        np.complex128)
    norm = _row_norms(e)
    tr = e.sum(axis=1)
    zero = np.abs(tr) < 1e-13 * np.maximum(norm, 1e-300)
    tr = np.where(zero, 1.0, tr)[:, None]
    both /= tr
    marginals = np.split(both, np.cumsum(dims.dims)[:-1], axis=1)
    product = marginals[0]
    for f in marginals[1:]:
        product = (product[:, :, None] * f[:, None, :]).reshape(c, -1)
    product *= tr
    defect = _row_norms(np.subtract(e, product, out=product))
    return marginals, zero, np.where(zero, 1.0, defect / np.maximum(1.0, norm))


def _read_chunk(chunk: list, dims: PartyDims):
    """Stack a chunk of elements. Returns their diagonals and, if some
    element has a nonzero off-diagonal entry, those elements' positions in
    the chunk, their entries with the diagonal zeroed (flattened) and their
    :func:`_dense_factors`."""
    d = dims.total
    m = np.array(chunk, dtype=np.complex128)
    if m.shape[1:] != (d, d):
        raise ValueError(f"node elements of shape {m.shape[1:]} do not "
                         f"match dims {dims.dims}")
    flat = m.reshape(len(m), d * d)
    diag = flat[:, ::d + 1].copy()
    flat[:, ::d + 1] = 0
    hit = np.flatnonzero(flat.view(np.float64).any(axis=1))
    if not hit.size:
        return diag, None
    off = flat[hit]
    flat[:, ::d + 1] = diag
    return diag, (hit, off, _dense_factors(m[hit], dims))


def _read_elements(elements: list, dims: PartyDims):
    """Read the node elements once, stacked in chunks of about
    ``_CHUNK_ENTRIES`` entries.

    Returns an (n, D + m) array of every node's diagonal followed by the m
    off-diagonal entries that some element sets (all others are zero in
    every element), and for the nodes with a nonzero off-diagonal entry
    their indices and :func:`_dense_factors`.
    """
    d, n = dims.total, len(elements)
    diag = np.empty((n, d), dtype=np.complex128)
    hits, offs, dense = [], [], []
    step = max(1, _CHUNK_ENTRIES // d ** 2)
    for lo in range(0, n, step):
        diag[lo:lo + step], found = _read_chunk(elements[lo:lo + step], dims)
        if found:
            hits.append(lo + found[0])
            offs.append(found[1])
            dense.append(found[2])
    if not hits:
        return diag, []
    off = np.concatenate(offs)
    rows = np.concatenate(hits)
    cols = np.flatnonzero(off.view(np.float64).reshape(len(off), -1, 2)
                          .any(axis=(0, 2)))
    x = np.zeros((n, d + cols.size), dtype=np.complex128)
    x[:, :d] = diag
    x[rows, d:] = off[:, cols]
    return x, list(zip(hits, dense))


def _leaf_sums(x: np.ndarray, parent: np.ndarray, child: np.ndarray,
               arity: np.ndarray) -> np.ndarray:
    """Replace each row of ``x`` (node values in preorder) by the node's
    sum of descendant leaves; return each node's largest entry deviation
    from that sum (0 at leaves).

    Each node adds its children's sums left to right, bitwise as a
    bottom-up fold would. The tree splits into chains that follow last
    children: along a chain S(v) = A(v) + S(last child of v), with A(v)
    the sum of the other children, so a cumulative sum from the chain's
    bottom covers it, in segments of about ``_CHUNK_ENTRIES`` entries.
    Chains run from the highest head index down, so every A(v) reads
    finished sums.
    """
    n, width = x.shape
    idx = np.arange(n)
    last = np.zeros(n, dtype=bool)
    last[1:] = child[1:] == arity[parent[1:]] - 1
    below = np.empty(n, dtype=np.intp)
    below[parent[last]] = idx[last]
    head = np.where(last, parent, idx)
    while True:
        nxt = head[head]
        if np.array_equal(nxt, head):
            break
        head = nxt
    if arity.max() > 2:
        kid = np.zeros((n, arity.max()), dtype=np.intp)
        kid[parent[1:], child[1:]] = idx[1:]
    defects = np.zeros(n)
    inner = np.flatnonzero(arity)
    inner = inner[np.lexsort((-inner, -head[inner]))]
    step = max(1, _CHUNK_ENTRIES // width)
    for chain in np.split(inner, np.flatnonzero(np.diff(head[inner])) + 1):
        for lo in range(0, chain.size, step):
            seg = chain[lo:lo + step]
            k = arity[seg]
            seq = np.zeros((seg.size + 1, width), dtype=x.dtype)
            seq[0] = x[below[seg[0]]]
            a = seq[1:]
            a[k > 1] = x[seg[k > 1] + 1]
            for j in range(1, int(k.max()) - 1):
                more = k > j + 1
                a[more] += x[kid[seg[more], j]]
            np.cumsum(seq, axis=0, out=seq)
            gap = x[seg]
            gap -= a
            defects[seg] = np.abs(gap).max(axis=1)
            x[seg] = a
    return defects


def _party_factors(diag: np.ndarray, dense: list, dims: PartyDims):
    """Unit-trace party factors, traceless flags and product defects of
    every node: from the diagonals in chunks of about ``_CHUNK_ENTRIES``
    entries, then the dense nodes' own. Each party's factors are an (n, k)
    stack of diagonals if every node is diagonal, else (n, k, k)."""
    n, d = diag.shape
    factors = [np.empty((n, k), dtype=np.complex128) for k in dims]
    traceless = np.empty(n, dtype=bool)
    prod = np.empty(n)
    step = max(1, _CHUNK_ENTRIES // d)
    for lo in range(0, n, step):
        part = slice(lo, lo + step)
        facs, traceless[part], prod[part] = _diagonal_factors(diag[part],
                                                              dims)
        for full, f in zip(factors, facs):
            full[part] = f
    if dense:
        factors = [f[:, :, None] * np.eye(f.shape[1]) for f in factors]
    for rows, (facs, zero, defect) in dense:
        traceless[rows], prod[rows] = zero, defect
        for full, f in zip(factors, facs):
            full[rows] = f
    return factors, traceless, prod


def _edge_distances(factors: list, parent: np.ndarray) -> np.ndarray:
    """Frobenius distance between each non-root node's party factors and
    its parent's, shape (n - 1, parties), in preorder. The factors are one
    stack per party, of diagonals or of matrices."""
    out = np.empty((len(parent) - 1, len(factors)))
    for p, f in enumerate(factors):
        g = f[parent[1:]]
        out[:, p] = _row_norms(np.subtract(f[1:], g, out=g))
    return out


def _node_paths(nodes: list[int], parent: list[int], index: list[int]
                ) -> dict[int, tuple[int, ...]]:
    """Child-index path from the root of each of ``nodes``, given in
    ascending preorder index, keyed by node. Ancestors come first in
    preorder, so each path is its nearest already-known ancestor's path
    extended by the steps below it: a chain of failing ancestors costs one
    step each, not a walk to the root each."""
    known = {0: ()}
    for i in nodes:
        steps, j = [], i
        while j not in known:
            steps.append(index[j])
            j = parent[j]
        known[i] = known[j] + tuple(reversed(steps))
    return known


def verify_tree(tree: ProtocolTree) -> TreeReport:
    """Structural verification of a protocol tree.

    Checks, with the defect localized to a node path on failure: every node
    element equals the sum of its descendant leaves (to NODE_SUM_TOL); every
    node element is a tensor product over the parties (to PRODUCT_TOL), and
    along each edge only the parent's acting party changes its unit-trace
    factor (to LOCALITY_TOL); the leaves form a complete measurement (to
    COMPLETENESS_TOL). Failures are listed leaf sums first (bottom-up), then
    products (preorder), locality (by parent, child, party) and
    completeness. The tree is read when this is called: a built tree whose
    nodes were never made through its diagonal table, any other tree
    through its nodes' current elements.

    Every check runs on stacked arrays: the node elements are read once, an
    exactly diagonal element through its diagonal alone.
    """
    dims = tree.dims
    d = dims.total
    if tree._table is None:
        elements, up, child, acting, arity = _preorder(tree.root)
        x, dense = _read_elements(elements, dims)
    else:
        # A copy: the leaf-sum pass writes into it.
        x, dense = tree._table.copy(), []
        up, child, acting, arity = _caterpillar_links(len(x),
                                                      dims.n_parties)
    n = len(x)
    failed: list[tuple[int, str, float]] = []

    factors, traceless, prod = _party_factors(x[:, :d], dense, dims)
    sums = _leaf_sums(x, up, child, arity)
    eye = np.zeros(x.shape[1])
    eye[:d] = 1.0
    comp = float(np.abs(x[0] - eye).max())
    del x  # freed before the locality pass allocates
    failed.extend((int(i), "leaf-sum", float(sums[i]))
                  for i in np.flatnonzero(sums > NODE_SUM_TOL)[::-1])
    failed.extend((int(i), "product", float(prod[i]))
                  for i in np.flatnonzero(prod > PRODUCT_TOL))

    # Locality over every edge, ordered by parent then child index; the
    # parent's acting party and edges at traceless nodes are masked.
    kids = np.lexsort((child[1:], up[1:])) + 1
    ups = up[kids]
    loc = _edge_distances(factors, up)[kids - 1]
    parties = np.arange(1, dims.n_parties + 1)
    compared = ((parties != acting[ups][:, None])
                & ~(traceless[kids] | traceless[ups])[:, None])
    loc = np.where(compared, loc, 0.0)
    failed.extend((int(kids[e]), f"locality-party-{p + 1}", float(loc[e, p]))
                  for e, p in zip(*np.nonzero(loc > LOCALITY_TOL)))

    if comp > COMPLETENESS_TOL:
        failed.append((0, "completeness", comp))

    failures = ()
    if failed:
        paths = _node_paths(sorted({i for i, _, _ in failed}), up.tolist(),
                            child.tolist())
        failures = tuple(TreeFailure(paths[i], kind, defect)
                         for i, kind, defect in failed)
    return TreeReport(not failures, n, n - int(np.count_nonzero(arity)),
                      float(sums.max()), float(loc.max(initial=0.0)),
                      float(prod.max()), comp, failures)


@dataclass
class PiecewisePath:
    """Piecewise linear operator path, parametrized by trace.

    ``s_values`` decrease from the top of the path; ``operators`` is one
    (n, d, d) complex array whose k-th matrix is the node at
    ``s_values[k]``. Between breakpoints the operator interpolates
    linearly, so the trace of ``at(s)`` is exactly s.
    """

    s_values: np.ndarray
    operators: np.ndarray

    def __post_init__(self):
        self.s_values = np.asarray(self.s_values, dtype=np.float64)
        self.operators = np.asarray(self.operators, dtype=np.complex128)
        if self.s_values.ndim != 1 or self.s_values.size < 2:
            raise ValueError("a path needs at least two breakpoints")
        if (self.operators.ndim != 3
                or len(self.operators) != self.s_values.size):
            raise ValueError("one operator per breakpoint required")
        if not np.all(np.diff(self.s_values) < 0.0):
            raise ValueError("breakpoint traces must strictly decrease")

    @property
    def s_top(self) -> float:
        return float(self.s_values[0])

    @property
    def s_bottom(self) -> float:
        return float(self.s_values[-1])

    def at(self, s: float, clamp: bool = False) -> np.ndarray:
        """Operator at trace value s; clamp=True pins s into the domain."""
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
        return lam * self.operators[k] + (1.0 - lam) * self.operators[k + 1]


def main_branch_path(parties: int, rounds: int, exponent: float
                     ) -> PiecewisePath:
    """Main-branch path built directly, without the tree.

    The node rows index one table of Python powers eta^n, n = 0..rounds + 1,
    by cycle, so each equals the tree's continue row bit for bit. Deep in
    a long protocol consecutive node traces coincide to rounding; a
    breakpoint whose trace is not below the last kept one by a relative
    1e-15 is dropped (:func:`_kept_breakpoints`), and its operator agrees
    with the kept one to the same precision. The kept operators are one
    (n, 2^P, 2^P) array.
    """
    eta = 1.0 - ProtocolParams(parties, rounds, exponent).epsilon
    powers = np.array([eta ** n for n in range(rounds + 2)])
    cycle, ahead = np.divmod(np.arange(parties * rounds + 1), parties)
    diags = _node_diagonals(parties, powers[cycle], powers[cycle + 1], ahead)
    traces = diags.sum(axis=1)
    keep = _kept_breakpoints(traces)
    d = diags.shape[1]
    ops = np.zeros((keep.size, d, d), dtype=np.complex128)
    ops[:, np.arange(d), np.arange(d)] = diags[keep]
    return PiecewisePath(traces[keep], ops)


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
# multiplier or gap evaluation, which are otherwise a few dozen numpy calls.
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
    """Diagonals of main-branch nodes; shape (len(ahead), 2^P).

    The node after k = n P + l steps (0 <= l < P) is the product of
    diag(eta^(n+1), 1) for parties 1..l and diag(eta^n, 1) for the others;
    ``now`` and ``later`` hold eta^n and eta^(n+1) per node and ``ahead``
    holds l. Given Python powers, this left-to-right product is the one of
    :func:`_step_rows`, so each row equals the table's continue row bit
    for bit.
    """
    diag = np.ones((ahead.size, 1))
    for party in range(1, parties + 1):
        factor = np.where(party <= ahead, later, now)[:, None]
        diag = np.stack([diag * factor, diag], axis=2)
        diag = diag.reshape(ahead.size, 2 ** party)
    return diag


def main_branch_diagonals(parties: int, rounds: int, exponent: float,
                          s: Sequence[float]) -> np.ndarray:
    """Diagonals of the finite main branch at the traces ``s``, in closed
    form; shape (len(s), 2^P).

    The node after k = n P + l steps (0 <= l < P, :func:`_node_diagonals`)
    has trace (1 + eta^(n+1))^l (1 + eta^n)^(P - l), which decreases in k.
    Each s is placed on its segment by bisection over k, and the two node
    diagonals at the ends of that segment are interpolated linearly in
    trace. Values of s outside the branch's domain are clamped into it, as
    ``main_branch_path(...).at(s, clamp=True)`` does; nothing is built per
    step, so the cost does not grow with ``rounds``.
    """
    eta = 1.0 - ProtocolParams(parties, rounds, exponent).epsilon
    s = np.asarray(s, dtype=float).reshape(-1)
    last = float(parties * rounds)

    def node_trace(k):
        n = np.floor(k / parties)
        l = k - n * parties
        now = eta ** n
        return (1.0 + eta * now) ** l * (1.0 + now) ** (parties - l)

    # Invariant: node_trace(lo) >= s > node_trace(hi), so the bracket
    # halves to a single segment. Below the branch's floor lo = hi = last;
    # above 2^P it ends at (0, 1) and the weight clips to 1. Both clamp.
    lo = np.where(s <= node_trace(np.array([last])), last, 0.0)
    hi = np.full(s.shape, last)
    for _ in range(int(np.ceil(np.log2(last)))):
        mid = np.floor(0.5 * (lo + hi))
        above = node_trace(mid) >= s
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    k = np.concatenate([lo, hi])
    n = np.floor(k / parties)
    # Python powers of the few cycles the grid needs, as in _step_rows.
    cycles, at = np.unique(np.concatenate([n, n + 1.0]), return_inverse=True)
    now, later = np.split(
        np.array([eta ** x for x in cycles.tolist()])[at], 2)
    top, bottom = np.split(
        _node_diagonals(parties, now, later, k - n * parties), 2)
    t_top, t_bottom = top.sum(axis=1), bottom.sum(axis=1)
    span = t_top - t_bottom
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(span > 0.0, (s - t_bottom) / span, 0.0)
    lam = np.clip(lam, 0.0, 1.0)[:, None]
    return lam * top + (1.0 - lam) * bottom


def _clamped(s, top: float, message: str) -> np.ndarray:
    """s clipped to [1, top]; ValueError if an entry is further out than
    rounding."""
    s = np.asarray(s, dtype=float)
    inside = (s >= 1.0 - ROUNDING_TOL) & (s <= top + ROUNDING_TOL)
    if not inside.all():
        raise ValueError(f"{message} (got s={s[~inside].flat[0]})")
    return np.clip(s, 1.0, top)


def limit_path_stack(parties: int, s) -> np.ndarray:
    """:func:`limit_path` at every s of a 1-D array, shape (n, 2^P, 2^P)."""
    top = float(2 ** parties)
    s = _clamped(s, top, f"s outside [1, {top}]")
    m = np.zeros(s.shape + (2, 2), dtype=np.complex128)
    m[..., 0, 0] = s ** (1.0 / parties) - 1.0
    m[..., 1, 1] = 1.0
    return kron([m] * parties)


def limit_path(parties: int, s: float) -> np.ndarray:
    """Limiting main path M(s)^(x P), M(s) = (s^(1/P)-1)|0><0| + |1><1|."""
    return limit_path_stack(parties, [s])[0]


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
                        s_grid: Sequence[float] | None = None,
                        grid_points: int = 401) -> PathDistanceReport:
    """Trace-norm gap between the finite main branch and its limit.

    The gap is maximized over ``s_grid`` (default: a uniform grid of
    ``grid_points`` values on [1, 2^P]; the finite path is clamped below
    its own domain floor, which costs at most the floor offset), and
    ``worst_s`` is the first grid point attaining it. Both paths are
    diagonal, so the trace norm is the sum of absolute diagonal
    differences; the finite branch comes from :func:`main_branch_diagonals`
    and the limit's entry i is (s^(1/P) - 1)^(zeros of i). The bound is
    sqrt(3) * eps for two parties and P * 2^(P/2) * eps in general.
    """
    params = ProtocolParams(parties, rounds, exponent)
    top = float(2 ** parties)
    if s_grid is None:
        grid = np.linspace(1.0, top, grid_points)
    else:
        grid = np.asarray(list(s_grid), dtype=float)
        if (grid.size == 0 or grid.min() < 1.0 - ROUNDING_TOL
                or grid.max() > top + ROUNDING_TOL):
            raise ValueError(f"s grid must be nonempty inside [1, {top}]")
    pre = main_branch_diagonals(parties, rounds, exponent, grid)
    sigma = np.clip(grid, 1.0, top) ** (1.0 / parties) - 1.0
    limit = sigma[:, None] ** prefix_zeros(parties)[:, -1]
    gaps = np.abs(pre - limit).sum(axis=1)
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


def derivative_outcomes(parties: int, s: float) -> list[np.ndarray]:
    """Halt densities peeling off the limiting main path at s.

    Outcome alpha replaces party alpha's factor by |0><0|; the densities
    are taken with respect to d(s^(1/P)), so with sigma = s^(1/P) - 1 the
    all-ones projector plus the integral of their sum over sigma in [0, 1]
    resolves the identity.
    """
    if not 1.0 <= s <= float(2 ** parties):
        raise ValueError("s outside the path domain")
    m = np.diag([s ** (1.0 / parties) - 1.0, 1.0]).astype(np.complex128)
    zero = np.diag([1.0, 0.0]).astype(np.complex128)
    out = []
    for alpha in range(1, parties + 1):
        facs = [m] * (alpha - 1) + [zero] + [m] * (parties - alpha)
        out.append(kron(facs))
    return out


def _c1_matrix(s) -> np.ndarray:
    """Main-path witness C1 at every s of an array, shape s.shape + (4, 4)."""
    s = _clamped(s, 4.0, "main-path coefficients need s in [1, 4]")
    sigma = np.sqrt(s) - 1.0
    beta = 2.0 * (np.sqrt(sigma) - 1.0)
    gamma = 9.0 * sigma + 8.0 - 16.0 * np.sqrt(sigma)
    c = np.zeros(s.shape + (4, 4))
    c[..., 0, 0] = 1.0
    c[..., 1, 1] = c[..., 2, 2] = sigma
    c[..., 1, 3] = c[..., 3, 1] = c[..., 2, 3] = c[..., 3, 2] = sigma * beta
    c[..., 3, 3] = sigma * gamma
    return c.astype(np.complex128)


def _side_weight(sigma, which: int) -> np.ndarray:
    """Halt weight vector at every sigma of an array, shape + (4,)."""
    w = np.zeros(np.shape(sigma) + (4,))
    w[..., which] = 1.0
    w[..., 3] = 3.0 * np.sqrt(sigma) - 2.0
    return w


def c_matrix_stack(name: str, s) -> np.ndarray:
    """:func:`c_matrix_family` (without ``x``) at every s of a 1-D array.

    Returns the raw (n, 4, 4) stack; a caller that needs checked
    coefficient matrices passes it through
    :func:`~loccverify.zonoid.coefficient_stack`.
    """
    if name == "C1":
        return _c1_matrix(s)
    if name not in ("C2", "C3"):
        raise ValueError(f"unknown family {name!r}")
    sigma = np.sqrt(_clamped(s, 4.0, "halt families need s in [1, 4]")) - 1.0
    w = _side_weight(sigma, 1 if name == "C2" else 2)
    return (w[..., :, None] * w[..., None, :]).astype(np.complex128)


def c_matrix_family(name: str, s: float, x: float | None = None
                    ) -> CoefficientMatrix:
    """Closed-form coefficient families of the worked two-qubit channel.

    All three families are parametrized by s in [1, 4] (internally
    sigma = sqrt(s) - 1). "C1" is the main-path witness. "C2" and "C3"
    are the rank-1 halt densities with respect to d sigma; for these an
    optional ``x`` returns the segment mixture (1 - x) C1(s) + x C_r(s).
    The densities themselves may leave the unit box; only assembled
    witnesses are box constrained.
    """
    if name == "C1" and x is not None:
        raise ValueError("x only applies to the halt families")
    c = c_matrix_stack(name, [s])[0]
    if x is None:
        return CoefficientMatrix(c)
    if not 0.0 <= x <= 1.0:
        raise ValueError("mixture weight x must lie in [0, 1]")
    return CoefficientMatrix((1.0 - x) * _c1_matrix(s) + x * c)


@dataclass
class CheckedPath:
    """A path handed to the condition verifier.

    ``op_at`` evaluates the operator at every trace parameter s of a 1-D
    array on [s_bottom, s_top] and returns the stack (n, d, d).
    ``cmatrix_at`` optionally supplies a closed-form witness family, as a
    stack (n, kappa, kappa) of coefficient matrices that the verifier
    checks and symmetrises by the rule of :class:`CoefficientMatrix`.
    The endpoint coefficient matrix is always derived from the operator at
    ``s_bottom``. ``block`` ties the path to one block of a blocked basis
    for the resolution bookkeeping.
    """

    label: str
    op_at: Callable[[np.ndarray], np.ndarray]
    s_top: float
    s_bottom: float
    dims: PartyDims
    cmatrix_at: Callable[[np.ndarray], np.ndarray] | None = None
    block: int | None = None

    def sample_grid(self, s_samples: int | None) -> np.ndarray:
        """Uniform s grid from the top; None means a spacing near 0.01.

        Raises ValueError when ``s_samples`` is below 1: a grid without
        samples would pass every path check vacuously.
        """
        if s_samples is not None:
            if s_samples < 1:
                raise ValueError("s_samples must be at least 1")
            return np.linspace(self.s_top, self.s_bottom, s_samples)
        span = self.s_top - self.s_bottom
        n = max(2, int(round(100.0 * span)) + 1)
        return np.linspace(self.s_bottom, self.s_top, n)[::-1]


@dataclass
class EndpointFamily:
    """Continuum of halt outcomes peeling off a parent path.

    ``density_at`` gives the operator densities at every sigma of a 1-D
    array in [0, 1], stacked (n, d, d), and ``cdensity_at`` their
    coefficient densities, stacked (n, kappa, kappa) and checked as
    :class:`CheckedPath` checks ``cmatrix_at``. ``attach_s`` maps sigma to
    the parent path parameter where the outcome branches off, and
    ``sigma_at`` is its inverse, with sigma = 0 at the parent's bottom end;
    both act elementwise on arrays.
    """

    label: str
    parent: CheckedPath
    density_at: Callable[[np.ndarray], np.ndarray]
    cdensity_at: Callable[[np.ndarray], np.ndarray]
    attach_s: Callable[[np.ndarray], np.ndarray]
    sigma_at: Callable[[np.ndarray], np.ndarray]
    block: int | None = None


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    defect: float
    tol: float
    where: str = ""

    @property
    def passed(self) -> bool:
        return self.defect <= self.tol


@dataclass(frozen=True)
class PathConditionReport:
    checks: tuple[ConditionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _operators(stack, n: int, dim: int, what: str) -> np.ndarray:
    """A callback's operator stack, checked to have shape (n, dim, dim)."""
    ops = np.asarray(stack, dtype=np.complex128)
    if ops.shape != (n, dim, dim):
        raise ValueError(f"{what} returned shape {ops.shape} for {n} "
                         f"parameters; expected {(n, dim, dim)}")
    return ops


def _coefficients(stack, n: int, kappa: int, what: str) -> np.ndarray:
    """A callback's coefficient stack, checked and symmetrised."""
    return coefficient_stack(_operators(stack, n, kappa, what))


def _worst(name: str, defects: np.ndarray, tol: float, param: str,
           values: np.ndarray) -> ConditionCheck:
    """Check reporting the largest defect and the parameter where it is."""
    i = int(np.argmax(defects))
    return ConditionCheck(name, float(defects[i]), tol,
                          f"{param}={values[i]:.6g}")


def _endpoint_check(path: CheckedPath, spec: ZonoidSpec):
    op = _operators(path.op_at(np.array([path.s_bottom])), 1, spec.dim,
                    f"{path.label} op_at")[0]
    c = endpoint_cmatrix(sqrt_psd(op), spec)
    solver = spec.solver()
    recon = float(np.linalg.norm(solver.image(c.matrix) - op))
    w = np.sort(c.eigenvalues())[::-1]
    rank_excess = float(np.abs(w[1:]).max(initial=0.0))
    box_excess = max(0.0, float(w[0]) - 1.0, -float(w.min(initial=0.0)))
    return c, max(recon, rank_excess, box_excess)


def _witness_defects(solver, c_end: np.ndarray,
                     families: Sequence[EndpointFamily], grid: np.ndarray,
                     ops: np.ndarray) -> np.ndarray:
    """Membership defect of the integrated witness at each sample s.

    The halt families peel off the path continuously, so
    C(s) = C_end + sum_f int_0^sigma_f(s) cdensity_f is a coefficient
    matrix for op(s). A sample's witness is the block-supported Hermitian
    part of C(s); it counts only if it passes the solver's box test and
    differs from C(s) by rounding, and then its defect is
    ||L(C) - op(s)||_F. Every other sample gets an infinite defect, which
    sends it to the solver. The test is exact on the assembled C, so
    quadrature error can raise a defect but never hide a bad witness.
    """
    kappa = solver.kappa
    cs = np.broadcast_to(c_end, (len(grid),) + c_end.shape)
    for fam in families:
        cs = cs + cumulative_sqrt_smooth(
            lambda t, f=fam: _coefficients(f.cdensity_at(t), len(t), kappa,
                                           f"{f.label} cdensity_at"),
            fam.sigma_at(grid))
    herm = np.where(solver.mask, 0.5 * (cs + cs.conj().swapaxes(-1, -2)),
                    0.0)
    ok = ((np.linalg.norm(cs - herm, axis=(1, 2)) <= ROUNDING_TOL)
          & solver.in_box_each(herm))
    residuals = np.linalg.norm(solver.image(herm) - ops, axis=(1, 2))
    return np.where(ok, residuals, np.inf)


def verify_theorem_conditions(spec: ZonoidSpec, paths: Sequence[CheckedPath],
                              families: Sequence[EndpointFamily] = (),
                              s_samples: int | None = None,
                              sigma_samples: int = SIGMA_SAMPLES,
                              membership_tol: float = MEMBERSHIP_TOL
                              ) -> PathConditionReport:
    """Check the zonoid-path conditions for an implementable instrument.

    For each path: trace linearity, tensor-product structure, zonoid
    membership at sampled parameters, and a valid rank-one endpoint witness.
    Membership is certified by the witness integrated from the families
    attached to the path; the solver answers only the samples where that
    witness fails, or every sample of a path without families.
    For each halt family: positivity of the segment mixtures, product
    structure and basis reconstruction of the densities. Finally the
    endpoint matrices and integrated halt densities must resolve the
    identity (per block for a blocked basis). Family densities are assumed
    smooth in sqrt(sigma); integrals substitute accordingly. Tolerances
    come from :mod:`loccverify.tolerances`. ``s_samples`` None selects
    each path's dense grid; ``s_samples`` or ``sigma_samples`` below 1
    raises ValueError.

    Every callback is called on a whole grid at once, so the number of
    calls does not depend on the sample counts. Sampled checks report the
    s or sigma of their largest defect as ``where``.
    """
    if s_samples is not None and s_samples < 1:
        raise ValueError("s_samples must be at least 1")
    if sigma_samples < 1:
        raise ValueError("sigma_samples must be at least 1")
    checks: list[ConditionCheck] = []
    resolution_parts: dict[int | None, list[np.ndarray]] = {}
    solver = spec.solver()
    kappa, dim = spec.kappa, spec.dim

    for path in paths:
        lbl = path.label
        c_end, end_defect = _endpoint_check(path, spec)
        grid = path.sample_grid(s_samples)
        n = len(grid)
        ops = _operators(path.op_at(grid), n, dim, f"{lbl} op_at")
        trace = np.abs(np.trace(ops, axis1=1, axis2=2).real - grid)
        attached = [fam for fam in families if fam.parent is path]
        if attached:
            defects = _witness_defects(solver, c_end.matrix, attached, grid,
                                       ops)
        else:
            defects = np.full(n, np.inf)
        # The solver answers only where the integrated witness does not.
        solve = np.flatnonzero(defects > membership_tol)
        for i in solve:
            defects[i] = membership(ops[i], spec, tol=membership_tol).residual
        mem_where = f"solver {len(solve)}/{n}"
        worst = int(np.argmax(defects))
        if defects[worst] > 0.0:
            mem_where = f"s={grid[worst]:.6g}; {mem_where}"
        checks += [
            _worst(f"{lbl}:trace", trace, TRACE_TOL, "s", grid),
            _worst(f"{lbl}:product", product_defect(ops, path.dims),
                   PRODUCT_TOL, "s", grid),
            ConditionCheck(f"{lbl}:membership", float(defects[worst]),
                           membership_tol, mem_where),
            ConditionCheck(f"{lbl}:endpoint", end_defect, RECON_TOL),
        ]
        if path.cmatrix_at is not None:
            cm = _coefficients(path.cmatrix_at(grid), n, kappa,
                               f"{lbl} cmatrix_at")
            checks.append(_worst(
                f"{lbl}:witness-family",
                np.linalg.norm(solver.image(cm) - ops, axis=(1, 2)),
                RECON_TOL, "s", grid))
        resolution_parts.setdefault(path.block, []).append(c_end.matrix)

    sigmas = np.linspace(0.0, 1.0, sigma_samples)
    for fam in families:
        lbl = fam.label
        dens = _operators(fam.density_at(sigmas), sigma_samples, dim,
                          f"{lbl} density_at")
        cd = _coefficients(fam.cdensity_at(sigmas), sigma_samples, kappa,
                           f"{lbl} cdensity_at")
        # lambda_min is concave, so the segment mixtures
        # (1 - x) C_parent + x C_r are lowest at x = 0 or x = 1.
        low = np.linalg.eigvalsh(cd)[:, 0]
        if fam.parent.cmatrix_at is not None:
            parent = _coefficients(
                fam.parent.cmatrix_at(fam.attach_s(sigmas)), sigma_samples,
                kappa, f"{fam.parent.label} cmatrix_at")
            low = np.minimum(low, np.linalg.eigvalsh(parent)[:, 0])
        checks += [
            _worst(f"{lbl}:psd", np.maximum(0.0, -low), MIXTURE_PSD_TOL,
                   "sigma", sigmas),
            _worst(f"{lbl}:product", product_defect(dens, fam.parent.dims),
                   PRODUCT_TOL, "sigma", sigmas),
            _worst(f"{lbl}:reconstruction",
                   np.linalg.norm(solver.image(cd) - dens, axis=(1, 2)),
                   RECON_TOL, "sigma", sigmas),
        ]
        integral = integrate_sqrt_smooth(
            lambda u, f=fam: _coefficients(f.cdensity_at(u), len(u), kappa,
                                           f"{f.label} cdensity_at"))
        resolution_parts.setdefault(fam.block, []).append(integral)

    blocks = spec.block_list()
    for key, parts in sorted(resolution_parts.items(),
                             key=lambda kv: (kv[0] is not None, kv[0] or 0)):
        if key is None:
            target = np.eye(spec.kappa, dtype=np.complex128)
            name = "resolution"
        else:
            target = np.zeros((spec.kappa, spec.kappa), dtype=np.complex128)
            idx = list(blocks[key])
            target[idx, idx] = 1.0
            name = f"resolution[{key}]"
        _, defect = cmatrix_resolution_check(parts, target)
        checks.append(ConditionCheck(name, defect, RESOLUTION_TOL))

    return PathConditionReport(tuple(checks))
