"""Kraus and Choi representations of channels and instruments.

A channel is held as a stacked array of Kraus operators with shape
``(n, d_out, d_in)``. The Choi operator lives on input (x) output, input
copy first: for Kraus set {K_m} the unnormalized Choi is
sum_m |v_m><v_m| with |v_m> = sum_i |i> (x) K_m |i>.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    PartyDims,
    as_matrix,
    is_hermitian,
    operator_norm,
    trace_norm,
)
from .tolerances import (COMPLETENESS_TOL, DENSITY_TRACE_TOL,
                         INPUT_HERMITICITY_TOL, ISOMETRY_IDENTITY_TOL,
                         ISOMETRY_TOL, PSD_TOL, RANK_TOL, ROUNDING_TOL)


def _stack_operators(operators) -> np.ndarray:
    ops = np.asarray(operators, dtype=np.complex128)
    if ops.ndim == 2:
        ops = ops[None, :, :]
    if ops.ndim != 3:
        raise ValueError(f"expected a stack of matrices, got shape {ops.shape}")
    if ops.shape[0] == 0:
        raise ValueError("need at least one operator")
    return ops


@dataclass
class KrausSet:
    """A finite family of Kraus operators with shared shapes.

    ``operators`` has shape (n, d_out, d_in). The set need not be
    trace preserving; completeness is queried, not enforced, so the same
    type carries channel branches and operator bases.
    """

    operators: np.ndarray
    input_dims: PartyDims
    output_dims: PartyDims

    def __post_init__(self):
        self.operators = _stack_operators(self.operators)
        if isinstance(self.input_dims, (tuple, list)):
            self.input_dims = PartyDims(tuple(self.input_dims))
        if isinstance(self.output_dims, (tuple, list)):
            self.output_dims = PartyDims(tuple(self.output_dims))
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

    def completeness_defect(self) -> float:
        """Operator norm of sum_m K_m^dag K_m - identity."""
        ops = self.operators
        acc = np.einsum("mba,mbc->ac", ops.conj(), ops)
        return operator_norm(acc - np.eye(self.input_dim))

    def is_trace_preserving(self) -> bool:
        return self.completeness_defect() <= COMPLETENESS_TOL


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
        part = tuple(tuple(int(i) for i in block) for block in self.partition)
        seen: set[int] = set()
        for block in part:
            if not block:
                raise ValueError("empty outcome in partition")
            for i in block:
                if i in seen:
                    raise ValueError(f"index {i} appears in two outcomes")
                seen.add(i)
        if seen != set(range(self.kraus.n_operators)):
            raise ValueError(
                "partition must cover all Kraus indices exactly once"
            )
        self.partition = part

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
    pinned to the positive real axis so reruns are bit-stable.
    """
    mat = choi(k, normalized=False).matrix
    w, vecs = np.linalg.eigh(mat)
    top = float(w.max(initial=0.0))
    if top <= 0.0:
        raise ValueError("zero channel has no Kraus decomposition")
    keep = np.where(w > RANK_TOL * top)[0][::-1]
    d, do = k.input_dim, k.output_dim
    out = []
    for i in keep:
        op = vecs[:, i].reshape(d, do).T * np.sqrt(w[i])
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


def _check_density(rho: np.ndarray, dim: int):
    if rho.shape != (dim, dim):
        raise ValueError(f"state shape {rho.shape} does not match dim {dim}")
    ok = is_hermitian(rho, INPUT_HERMITICITY_TOL)
    if ok:
        w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        scale = 1.0 + float(np.abs(w).max(initial=0.0))
        ok = (w.min(initial=0.0) >= -PSD_TOL * scale
              and abs(w.sum() - 1.0) <= DENSITY_TRACE_TOL)
    if not ok:
        warnings.warn("input is not a density matrix", stacklevel=3)


def apply(obj, rho) -> np.ndarray | list:
    """Apply a channel or instrument to a state.

    For a KrausSet returns sum_m K_m rho K_m^dag. For an Instrument returns
    a list of (unnormalized branch output, branch probability) pairs; the
    branch outputs sum to the channel output.
    """
    rho = as_matrix(rho)
    if isinstance(obj, Instrument):
        _check_density(rho, obj.kraus.input_dim)
        out = []
        for r in range(obj.n_outcomes):
            ops = obj.kraus.operators[list(obj.partition[r])]
            res = np.einsum("mab,bc,mdc->ad", ops, rho, ops.conj())
            out.append((res, float(np.real(np.trace(res)))))
        return out
    if not isinstance(obj, KrausSet):
        raise TypeError(f"cannot apply object of type {type(obj).__name__}")
    _check_density(rho, obj.input_dim)
    ops = obj.operators
    return np.einsum("mab,bc,mdc->ad", ops, rho, ops.conj())


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
    """
    n_out = inst.n_outcomes
    owner = {}
    for r, block in enumerate(inst.partition):
        for i in block:
            owner[i] = r
    ops = []
    for m in range(inst.kraus.n_operators):
        flag = np.zeros((n_out, 1), dtype=np.complex128)
        flag[owner[m], 0] = 1.0
        ops.append(np.kron(inst.kraus.operators[m], flag))
    out_dims = PartyDims(inst.kraus.output_dims.dims + (n_out,))
    return KrausSet(np.array(ops), inst.kraus.input_dims, out_dims)


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
