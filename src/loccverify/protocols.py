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
    next. The continue node is the node after the step and the halt leaf
    the node before it, with the acting party's factor set to
    diag(eps * eta^n, 0), eta = 1 - eps (:func:`_node_diagonals`).
    """
    p, rounds = params.parties, params.rounds
    eps = params.epsilon
    eta = 1.0 - eps
    powers = _powers(eta, range(rounds + 1))
    n, ahead = np.divmod(np.arange(p * rounds), p)
    now, later = powers[n], powers[n + 1]
    cols = np.empty((2 ** p, 2 * p * rounds + 1))
    cols[:, 0] = 1.0
    _node_diagonals(p, now, later, ahead, halt=eps * now, out=cols[:, 1::2])
    _node_diagonals(p, now, later, ahead + 1, out=cols[:, 2::2])
    return cols


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


# Entries verify_tree reads at a time in its factor and leaf-sum passes.
# Its memory beyond a few values per node does not grow with the tree.
_CHUNK_ENTRIES = 2 ** 16


def protocol_check_bytes(parties: int, rounds: int) -> int:
    """Peak memory of building a tree and running :func:`verify_tree` on
    it, in bytes.

    On top of :func:`protocol_tree_bytes`, ``verify_tree`` holds per node
    a copy of its table column (8 * 2^P bytes), its party factors'
    diagonals and edge distances (18 P) and its edge arrays, flags and
    defects (72); at once, up to 30 bytes per entry of a column range of
    diagonals; and 4 KiB of fixed objects. Fitted under tracemalloc on
    CPython 3.11 over 61 (P, rounds) points, P = 2..6 and 5 to 80001
    nodes: 1.03 to 1.45 times the measured peak. A tree with dense
    overrides needs in addition a few times their size. When one of them
    has an imaginary part, the leaf sums are complex: up to 8 (D + 2 m)
    bytes more per node, m the off-diagonal entries the overrides set, and
    16 more per entry of one column range (``_CHUNK_ENTRIES`` entries).
    """
    nodes = 2 * parties * rounds + 1
    width = 2 ** parties
    chunk = 30 * width * min(nodes, _CHUNK_ENTRIES // width)
    return (protocol_tree_bytes(parties, rounds)
            + nodes * (72 + 8 * width + 18 * parties) + chunk + 2 ** 12)


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


def _diagonal_factors(e: np.ndarray, dims: PartyDims):
    """:func:`_dense_factors` of real diagonal elements from their
    diagonals, the columns of ``e``, shape (D, c): the factors are marginal
    sums, returned as (k, c) columns of diagonals. All marginals come from
    one product of :func:`_marginal_selector` with the diagonals."""
    c = e.shape[1]
    both = _marginal_selector(dims.dims) @ e
    norm = _column_norms(e)
    tr = _traces(e)
    zero = _traceless(tr, norm)
    tr = np.where(zero, 1.0, tr)
    both /= tr
    ends = np.cumsum(dims.dims).tolist()
    marginals = [both[i - k:i] for i, k in zip(ends, dims.dims)]
    product = marginals[0]
    for f in marginals[1:]:
        product = (product[:, None] * f[None]).reshape(-1, c)
    product *= tr
    defect = _column_norms(np.subtract(e, product, out=product))
    return marginals, zero, np.where(zero, 1.0, defect / np.maximum(1.0, norm))


def _summed_entries(cols: np.ndarray, rows: np.ndarray, dense: np.ndarray):
    """The entries the leaf-sum pass adds, as one (D + m, n) array, a
    column per node: the node's diagonal, then the m off-diagonal entries
    that some dense override ``dense`` (at preorder ``rows``, shape
    (c, D, D)) sets. ``cols`` is the (D, n) table; an override's column
    holds its own diagonal. The array is complex when some override has an
    imaginary part, and real otherwise."""
    d, n = cols.shape
    flat = dense.reshape(len(dense), d * d)
    if not flat.imag.any():
        flat = flat.real
    off = ~np.eye(d, dtype=bool).reshape(-1)
    entries = np.flatnonzero(off & flat.any(axis=0))
    x = np.zeros((d + entries.size, n), flat.dtype)
    x[:d] = cols
    x[:d, rows] = flat[:, ::d + 1].T
    x[d:, rows] = flat[:, entries].T
    return x


def _leaf_sums(x: np.ndarray) -> np.ndarray:
    """Each node's largest entry modulus of deviation from its sum of
    descendant leaves (0 at leaves), from ``x``, the node entries in
    preorder laid out as :func:`_summed_entries` lays them out, real or
    complex. The root's column is replaced by its sum.

    The inner nodes form the main branch, and each one's sum is its halt
    leaf plus the sum of its continue node, S(2k) = x(2k + 1) + S(2k + 2),
    bitwise as a bottom-up fold adds them. So the sums are one cumulative
    sum of the halt columns from the main leaf up, in column ranges of
    about ``_CHUNK_ENTRIES`` entries with the running sum carried from one
    range to the next.
    """
    width, n = x.shape
    defects = np.zeros(n)
    step = max(1, _CHUNK_ENTRIES // width)
    nodes = np.arange(n - 3, -1, -2)
    below = x[:, n - 1]
    for lo in range(0, nodes.size, step):
        seg = nodes[lo:lo + step]
        seq = np.empty((width, seg.size + 1), x.dtype)
        seq[:, 0] = below
        seq[:, 1:] = x.take(seg + 1, axis=1)
        np.cumsum(seq, axis=1, out=seq)
        gap = x.take(seg, axis=1)
        gap -= seq[:, 1:]
        defects[seg] = np.abs(gap).max(axis=0)
        below = seq[:, -1]
    x[:, 0] = below
    return defects


def _party_factors(cols: np.ndarray, dims: PartyDims):
    """Unit-trace party factors, traceless flags and product defects of
    every column of the (D, n) table, in column ranges of about
    ``_CHUNK_ENTRIES`` entries. Each party's factors are a (k, n) stack of
    diagonals, one column per node."""
    d, n = cols.shape
    factors = [np.empty((k, n)) for k in dims]
    traceless = np.empty(n, dtype=bool)
    prod = np.empty(n)
    step = max(1, _CHUNK_ENTRIES // d)
    for lo in range(0, n, step):
        part = slice(lo, lo + step)
        facs, traceless[part], prod[part] = _diagonal_factors(cols[:, part],
                                                              dims)
        for full, f in zip(factors, facs):
            full[:, part] = f
    return factors, traceless, prod


def _factor_matrices(f: np.ndarray, g: np.ndarray, at: np.ndarray,
                     nodes: np.ndarray) -> np.ndarray:
    """One party's factors of ``nodes`` as matrices: a dense node's own,
    ``g[at[node]]``, and every other node's diagonal, a column of ``f``."""
    m = diagonal_stack(f[:, nodes].T)
    own = at[nodes] >= 0
    m[own] = g[at[nodes[own]]]
    return m


def _edge_distances(factors: list, up: np.ndarray, kid: np.ndarray,
                    rows: np.ndarray, dense: list) -> np.ndarray:
    """Frobenius distance between the party factors of each edge's child
    ``kid`` and its parent ``up``, shape (parties, edges). ``factors``
    holds one (k, n) stack of diagonals per party; an edge at one of the
    dense ``rows`` is measured on the matrices, with ``dense`` holding
    those rows' factors per party."""
    out = np.empty((len(factors), kid.size))
    for p, f in enumerate(factors):
        g = f.take(up, axis=1)
        out[p] = _column_norms(np.subtract(f.take(kid, axis=1), g, out=g))
    if rows.size:
        at = np.full(factors[0].shape[1], -1)
        at[rows] = np.arange(rows.size)
        edges = np.flatnonzero((at[kid] >= 0) | (at[up] >= 0))
        for p, (f, g) in enumerate(zip(factors, dense)):
            out[p, edges] = _row_norms(
                _factor_matrices(f, g, at, kid[edges])
                - _factor_matrices(f, g, at, up[edges]))
    return out


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

    Every check runs on arrays read from the transpose of the tree's
    column-major table, a contiguous (D, n) array, with every reduction
    over its long node axis, in column ranges of about ``_CHUNK_ENTRIES``
    entries. The edges, the leaf sums along the main branch and each
    failure's node path follow from the caterpillar's shape in closed
    form. Only the dense overrides go through :func:`_dense_factors`. The
    leaf sums take the overrides' diagonals whole and the off-diagonal
    entries they set as extra rows, in complex arithmetic when one of them
    has an imaginary part.
    """
    dims = tree.dims
    d = dims.total
    cols = tree._table.T
    rows = np.array(sorted(tree._overrides), dtype=np.intp)
    dense = np.array([tree._overrides[i] for i in rows.tolist()],
                     dtype=np.complex128).reshape(-1, d, d)
    x = _summed_entries(cols, rows, dense)
    n = cols.shape[1]
    failed: list[tuple[int, str, float]] = []

    factors, traceless, prod = _party_factors(cols, dims)
    dense_factors = []
    if rows.size:
        dense_factors, traceless[rows], prod[rows] = _dense_factors(dense,
                                                                    dims)
    sums = _leaf_sums(x)
    x[:d, 0] -= 1.0
    comp = float(np.abs(x[:, 0]).max())
    del x  # freed before the locality pass allocates
    failed.extend((int(i), "leaf-sum", float(sums[i]))
                  for i in np.flatnonzero(sums > NODE_SUM_TOL)[::-1])
    failed.extend((int(i), "product", float(prod[i]))
                  for i in np.flatnonzero(prod > PRODUCT_TOL))

    # Locality over every edge, ordered by parent then child index, which
    # is preorder: step k's edges run from row 2k to rows 2k + 1 and 2k + 2.
    # The parent's acting party and edges at traceless nodes are masked.
    steps = np.arange(n // 2)
    up, kid = 2 * steps.repeat(2), np.arange(1, n)
    acting = (steps % dims.n_parties + 1).repeat(2)
    loc = _edge_distances(factors, up, kid, rows, dense_factors)
    parties = np.arange(1, dims.n_parties + 1)[:, None]
    compared = (parties != acting) & ~(traceless.take(kid)
                                       | traceless.take(up))
    loc = np.where(compared, loc, 0.0)
    over = zip(*np.divmod(np.flatnonzero(loc > LOCALITY_TOL), kid.size))
    failed.extend((int(kid[e]), f"locality-party-{p + 1}", float(loc[p, e]))
                  for p, e in sorted(over, key=lambda pe: pe[1]))

    if comp > COMPLETENESS_TOL:
        failed.append((0, "completeness", comp))

    failures = tuple(TreeFailure((1,) * (i // 2) + (0,) * (i % 2), kind,
                                 defect) for i, kind, defect in failed)
    return TreeReport(not failures, n, (n + 1) // 2, float(sums.max()),
                      float(loc.max(initial=0.0)), float(prod.max()), comp,
                      failures)


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
    """
    eta = 1.0 - ProtocolParams(parties, rounds, exponent).epsilon
    nodes = parties * rounds + 1
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
                    ahead: np.ndarray, halt: np.ndarray | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Diagonals of main-branch nodes as columns, shape (2^P, len(ahead)),
    written into ``out`` when it is given.

    The node after k = n P + l steps (0 <= l <= P) is the product of
    diag(eta^(n+1), 1) for parties 1..l and diag(eta^n, 1) for the others;
    ``now`` and ``later`` hold eta^n and eta^(n+1) per node and ``ahead``
    holds l. With ``halt``, each column is instead the halt leaf of the step
    from that node: party l + 1's factor is diag(halt, 0). The product is
    built one party at a time, left to right, so given Python powers every
    column that :func:`_built_table` and :func:`main_branch_path` share is
    the same bit for bit.
    """
    if out is None:
        out = np.empty((2 ** parties, ahead.size))
    diag = np.ones((1, ahead.size))
    for party in range(1, parties + 1):
        zero = np.where(party <= ahead, later, now)
        one = diag
        if halt is not None:
            acting = party == ahead + 1
            zero = np.where(acting, halt, zero)
            one = np.where(acting, 0.0, diag)
        nxt = out if party == parties else np.empty((2 ** party, ahead.size))
        np.multiply(diag, zero, out=nxt[0::2])
        nxt[1::2] = one
        diag = nxt
    return diag


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
