"""Kraus and Choi representations of channels and instruments.

A channel is held as a stacked array of Kraus operators with shape
``(n, d_out, d_in)``. The Choi operator lives on input (x) output, input
copy first: for Kraus set {K_m} the unnormalized Choi is
sum_m |v_m><v_m| with |v_m> = sum_i |i> (x) K_m |i>.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    PartyDims,
    as_matrix,
    operator_norm,
    trace_norm,
)
from .tolerances import (ISOMETRY_IDENTITY_TOL, ISOMETRY_TOL, RANK_TOL,
                         ROUNDING_TOL)


def _stack_operators(operators) -> np.ndarray:
    ops = np.asarray(operators, dtype=np.complex128)
    if ops.ndim == 2:
        ops = ops[None, :, :]
    if ops.ndim != 3:
        raise ValueError(f"expected a stack of matrices, got shape {ops.shape}")
    if ops.shape[0] == 0:
        raise ValueError("need at least one operator")
    return ops


def index_partition(groups, n: int, what: str) -> tuple[tuple[int, ...], ...]:
    """``groups`` as tuples of ints: nonempty ``what``s that together hold
    each index of range(n) once. ValueError otherwise."""
    part = tuple(tuple(int(i) for i in group) for group in groups)
    held = sorted(i for group in part for i in group)
    if not all(part):
        raise ValueError(f"empty {what}")
    if held != list(range(n)):
        raise ValueError(f"the {what}s must hold each index 0..{n - 1} "
                         f"once, not {held}")
    return part


@dataclass(frozen=True, eq=False)
class KrausSet:
    """A finite family of Kraus operators with shared shapes.

    ``operators`` has shape (n, d_out, d_in). The set need not be
    trace preserving, so the same type carries channel branches and
    operator bases. Its fields cannot be rebound; the operator array is
    the caller's when it is already a complex stack, and its writeable
    flag is left as the caller set it. Sets are compared and hashed by
    identity.
    """

    operators: np.ndarray
    input_dims: PartyDims
    output_dims: PartyDims

    def __post_init__(self):
        object.__setattr__(self, "operators",
                           _stack_operators(self.operators))
        for name in ("input_dims", "output_dims"):
            dims = getattr(self, name)
            if isinstance(dims, (tuple, list)):
                object.__setattr__(self, name, PartyDims(tuple(dims)))
        n, do, d = self.operators.shape
        if d != self.input_dims.total:
            raise ValueError(
                f"operator input dimension {d} != {self.input_dims.total}"
            )
        if do != self.output_dims.total:
            raise ValueError(
                f"operator output dimension {do} != {self.output_dims.total}"
            )

    @property
    def n_operators(self) -> int:
        return self.operators.shape[0]

    @property
    def input_dim(self) -> int:
        return self.operators.shape[2]

    @property
    def output_dim(self) -> int:
        return self.operators.shape[1]


def kraus_from_operators(operators: Sequence, input_dims, output_dims=None
                         ) -> KrausSet:
    if output_dims is None:
        output_dims = input_dims
    return KrausSet(_stack_operators(operators), input_dims, output_dims)


@dataclass
class Instrument:
    """A channel together with a partition of its Kraus indices into outcomes.

    ``partition[r]`` lists the indices of the operators making up the r-th
    completely positive branch. The partition must cover every index exactly
    once.
    """

    kraus: KrausSet
    partition: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self.partition = index_partition(self.partition,
                                         self.kraus.n_operators, "outcome")

    @property
    def n_outcomes(self) -> int:
        return len(self.partition)

    def branch(self, r: int) -> KrausSet:
        """Kraus set of the r-th completely positive branch (0-based)."""
        idx = list(self.partition[r])
        return KrausSet(
            self.kraus.operators[idx],
            self.kraus.input_dims,
            self.kraus.output_dims,
        )


@dataclass
class ChoiOperator:
    matrix: np.ndarray
    input_dim: int
    output_dim: int
    normalized: bool

    def __post_init__(self):
        self.matrix = as_matrix(self.matrix)
        d = self.input_dim * self.output_dim
        if self.matrix.shape != (d, d):
            raise ValueError(
                f"Choi shape {self.matrix.shape} does not match dims "
                f"({self.input_dim}, {self.output_dim})"
            )

    def normalized_matrix(self) -> np.ndarray:
        if self.normalized:
            return self.matrix
        return self.matrix / self.input_dim


def choi(k: KrausSet, normalized: bool = True) -> ChoiOperator:
    """Choi operator of the channel, input copy as the first factor."""
    ops = k.operators
    n, do, d = ops.shape
    # Row m is the vectorization of K_m with the input index major.
    v = ops.transpose(0, 2, 1).reshape(n, d * do)
    mat = v.T @ v.conj()
    if normalized:
        mat = mat / d
    return ChoiOperator(mat, d, do, normalized)


def kraus_rank(k: KrausSet) -> int:
    """Number of independent Kraus directions (rank of the Choi operator)."""
    mat = choi(k, normalized=False).matrix
    w = np.linalg.eigvalsh(mat)
    top = float(w.max(initial=0.0))
    if top <= 0.0:
        return 0
    return int(np.sum(w > RANK_TOL * top))


def minimal_kraus(k: KrausSet) -> KrausSet:
    """Extract a minimal Kraus set by eigendecomposition of the Choi operator.

    Operators come out ordered by decreasing Choi eigenvalue, each scaled by
    the square root of its eigenvalue, with the phase of the largest entry
    pinned to the positive real axis so reruns are bit-stable. A single
    nonzero operator is its own minimal set: only its phase is pinned, and
    no Choi matrix is built.
    """
    if k.n_operators == 1:
        ops, top = k.operators, float(np.abs(k.operators).max())
    else:
        w, vecs = np.linalg.eigh(choi(k, normalized=False).matrix)
        top = float(w.max(initial=0.0))
        # They lie in the span of k's operators: keep its zeros exact.
        zero = (k.operators == 0).all(axis=0)
        ops = [np.where(zero, 0.0, vecs[:, i].reshape(k.input_dim, -1).T
                        * np.sqrt(w[i]))
               for i in np.where(w > RANK_TOL * top)[0][::-1]]
    if top <= 0.0:
        raise ValueError("zero channel has no Kraus decomposition")
    out = []
    for op in ops:
        j = np.unravel_index(np.argmax(np.abs(op)), op.shape)
        ph = op[j] / abs(op[j])
        out.append(op * ph.conj())
    return KrausSet(np.array(out), k.input_dims, k.output_dims)


def isometric_relation(a: KrausSet, b: KrausSet):
    """Matrix W with a_j = sum_m W[j, m] b_m, or None.

    Requires the operators of ``b`` to be linearly independent; returns None
    when they are not, when the expansion does not close, or when W fails
    the isometry identity W^dag W = identity.
    """
    if a.operators.shape[1:] != b.operators.shape[1:]:
        raise ValueError("operator shapes differ")
    na = a.n_operators
    nb = b.n_operators
    bmat = b.operators.reshape(nb, -1)
    amat = a.operators.reshape(na, -1)
    gram = bmat.conj() @ bmat.T
    gw = np.linalg.eigvalsh(gram)
    if gw[0] <= ISOMETRY_TOL * max(1.0, gw[-1]):
        return None
    # Least squares b^T x = a^T, one column per operator of a.
    x, *_ = np.linalg.lstsq(bmat.T, amat.T, rcond=None)
    w = x.T
    resid = amat - w @ bmat
    row_res = np.linalg.norm(resid, axis=1)
    if row_res.max(initial=0.0) > ISOMETRY_TOL:
        return None
    if operator_norm(w.conj().T @ w - np.eye(nb)) > ISOMETRY_IDENTITY_TOL:
        return None
    return w


def _as_normalized_choi(x) -> ChoiOperator:
    if isinstance(x, KrausSet):
        return choi(x, normalized=True)
    if isinstance(x, ChoiOperator):
        if x.normalized:
            return x
        return ChoiOperator(x.normalized_matrix(), x.input_dim, x.output_dim,
                            True)
    raise TypeError(f"expected KrausSet or ChoiOperator, got {type(x).__name__}")


def _pad_output(c: ChoiOperator, do: int) -> np.ndarray:
    if c.output_dim == do:
        return c.matrix
    d = c.input_dim
    old = c.matrix.reshape(d, c.output_dim, d, c.output_dim)
    new = np.zeros((d, do, d, do), dtype=np.complex128)
    new[:, : c.output_dim, :, : c.output_dim] = old
    return new.reshape(d * do, d * do)


def choi_distance(a, b) -> float:
    """Trace-norm distance of normalized Choi operators.

    Accepts KrausSet or ChoiOperator on each side. Input dimensions must
    agree; a smaller output space is embedded in the larger one. This is the
    standard computable lower bound on the diamond-norm distance.
    """
    ca = _as_normalized_choi(a)
    cb = _as_normalized_choi(b)
    if ca.input_dim != cb.input_dim:
        raise ValueError("input dimensions differ")
    do = max(ca.output_dim, cb.output_dim)
    return trace_norm(_pad_output(ca, do) - _pad_output(cb, do))


def qc_embed(inst: Instrument) -> KrausSet:
    """Embed an instrument as a channel writing the outcome to a register.

    Each K_m becomes K_m (x) |r(m)>, where r(m) is the outcome owning index
    m. The Choi operator of the result is block diagonal over the register.
    The stack is built by one scatter of every K_m into the slot r(m) of a
    zero (n, d_out, R, d_in) array, whose reshape is the Kronecker product.
    """
    ops = inst.kraus.operators
    n, do, d = ops.shape
    n_out = inst.n_outcomes
    owner = np.empty(n, dtype=int)
    for r, block in enumerate(inst.partition):
        owner[list(block)] = r
    out = np.zeros((n, do, n_out, d), dtype=np.complex128)
    out[np.arange(n), :, owner, :] = ops
    out_dims = PartyDims(inst.kraus.output_dims.dims + (n_out,))
    return KrausSet(out.reshape(n, do * n_out, d), inst.kraus.input_dims,
                    out_dims)


def channel_from_leaf_povm(diagonals: np.ndarray, dims: PartyDims) -> KrausSet:
    """Kraus set with one sqrt-POVM operator per row of ``diagonals``.

    Rows must be nonnegative; each row e gives the operator diag(sqrt(e)).
    Used for measure-and-forget protocols whose elements are all diagonal.
    """
    diag = np.asarray(diagonals, dtype=np.float64)
    if diag.ndim != 2:
        raise ValueError("expected a 2-D array of POVM diagonals")
    if diag.min(initial=0.0) < -ROUNDING_TOL:
        raise ValueError("POVM diagonals must be nonnegative")
    n, d = diag.shape
    ops = np.zeros((n, d, d), dtype=np.complex128)
    rng = np.arange(d)
    ops[:, rng, rng] = np.sqrt(np.clip(diag, 0.0, None))
    return KrausSet(ops, dims, dims)
