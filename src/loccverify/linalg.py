"""Dense operator helpers shared by the rest of the package.

Matrices are plain numpy arrays, complex128 and 2-D. Multipartite structure
is carried separately as a tuple of local dimensions with party 1 first, so
party 1 occupies the most significant part of the row index and
``kron([a, b])`` puts ``a`` on party 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Iterable, Sequence

import numpy as np

from .tolerances import HERMITICITY_TOL, PSD_TOL, QUAD_NODES


@dataclass(frozen=True)
class PartyDims:
    """Local dimensions of a multipartite space, party 1 first.

    Party indices are 1-based everywhere in this package.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid party dimensions {self.dims!r}")
        object.__setattr__(self, "dims", dims)

    @property
    def total(self) -> int:
        return int(np.prod(self.dims))

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __len__(self):
        return len(self.dims)

    def __getitem__(self, party: int) -> int:
        """Dimension of the given 1-based party."""
        if not 1 <= party <= len(self.dims):
            raise IndexError(f"party {party} out of range 1..{len(self.dims)}")
        return self.dims[party - 1]


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    return a


def _dims_tuple(dims) -> tuple[int, ...]:
    if isinstance(dims, PartyDims):
        return dims.dims
    return tuple(int(d) for d in dims)


def _kron_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    rows, cols = a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    return prod.reshape(prod.shape[:-4] + (rows, cols))


def kron(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor product of the factors, first factor most significant.

    Each factor is a matrix or a stack of matrices, shape (..., r, c);
    stacks are multiplied entry by entry along their leading axes.
    """
    mats = [np.asarray(f, dtype=np.complex128) for f in factors]
    if not mats:
        raise ValueError("kron needs at least one factor")
    if any(a.ndim < 2 for a in mats):
        raise ValueError("kron factors must be matrices")
    return reduce(_kron_pair, mats)


def partial_trace(m, dims, keep: Iterable[int]) -> np.ndarray:
    """Trace out all parties not listed in ``keep`` (1-based indices).

    ``m`` is a matrix or a stack of matrices, shape (..., D, D); the trace
    acts on the last two axes. The kept parties stay in their original
    relative order.
    """
    a = np.asarray(m, dtype=np.complex128)
    d = _dims_tuple(dims)
    n = len(d)
    total = int(np.prod(d))
    if a.shape[-2:] != (total, total):
        raise ValueError(f"shape {a.shape} does not match dims {d}")
    kept = sorted(set(int(k) for k in keep))
    if any(k < 1 or k > n for k in kept):
        raise ValueError(f"keep indices {kept} out of range 1..{n}")

    batch = a.shape[:-2]
    t = a.reshape(batch + d + d)
    # Traced parties get the same einsum letter on row and column axes.
    letters = "abcdefghijklmnopqrstuvwxyz"
    if 2 * n > len(letters):
        raise ValueError("too many parties")
    row_sub = list(letters[:n])
    col_sub = list(letters[n : 2 * n])
    for p in range(1, n + 1):
        if p not in kept:
            col_sub[p - 1] = row_sub[p - 1]
    out_sub = "".join(row_sub[p - 1] for p in kept) + "".join(
        col_sub[p - 1] for p in kept
    )
    res = np.einsum("..." + "".join(row_sub) + "".join(col_sub) + "->..."
                    + out_sub, t)
    dk = int(np.prod([d[p - 1] for p in kept])) if kept else 1
    return res.reshape(batch + (dk, dk))


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False).sum())


def operator_norm(m) -> float:
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False).max())


def is_hermitian(m, tol: float = HERMITICITY_TOL) -> bool:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    scale = 1.0 + float(np.abs(a).max(initial=0.0))
    return float(np.abs(a - a.conj().T).max(initial=0.0)) <= tol * scale


@dataclass(frozen=True)
class PsdReport:
    ok: bool
    min_eigenvalue: float


def psd_check(m) -> PsdReport:
    """Check positive semidefiniteness up to PSD_TOL times the spectral scale.

    Raises ValueError if the input is not Hermitian to HERMITICITY_TOL;
    positivity is only meaningful for Hermitian operators.
    """
    a = as_matrix(m)
    if not is_hermitian(a):
        raise ValueError("psd_check requires a Hermitian matrix")
    w = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    scale = 1.0 + float(np.abs(w).max(initial=0.0))
    lo = float(w.min(initial=0.0))
    return PsdReport(ok=lo >= -PSD_TOL * scale, min_eigenvalue=lo)


def sqrt_psd(m) -> np.ndarray:
    """Hermitian square root of a PSD matrix. Small negative eigenvalues

    (within PSD_TOL of zero, relative to the spectral scale) are clipped.
    """
    a = as_matrix(m)
    if not is_hermitian(a):
        raise ValueError("sqrt_psd requires a Hermitian matrix")
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    scale = 1.0 + float(np.abs(w).max(initial=0.0))
    if w.min(initial=0.0) < -PSD_TOL * scale:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


@lru_cache(maxsize=8)
def _leggauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(nodes)


def _per_node(v: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Scale each node's slice of the stack ``vals`` by its entry of ``v``."""
    return v.reshape(v.shape + (1,) * (vals.ndim - 1)) * vals


def _node_values(f: Callable[[np.ndarray], np.ndarray],
                 x: np.ndarray) -> np.ndarray:
    """f called once on every node; one value per node on the first axis."""
    vals = np.asarray(f(x))
    if vals.shape[:1] != x.shape:
        raise ValueError(f"integrand returned shape {vals.shape} for "
                         f"{x.size} nodes; it must return one value per node")
    return vals


def gauss_legendre(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                   nodes: int = QUAD_NODES):
    """Fixed-order Gauss-Legendre quadrature of ``f`` over [a, b].

    Exact for polynomial integrands up to degree 2*nodes - 1. ``f`` is
    called once, on the 1-D array of all nodes, and returns its values
    stacked along a new first axis: shape (nodes,) for a scalar integrand,
    (nodes, ...) for an array one. The result has the shape of one value.
    """
    if nodes < 1:
        raise ValueError("need at least one node")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integration limits must be finite")
    x, w = _leggauss(int(nodes))
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    out = half * _per_node(w, _node_values(f, mid + half * x)).sum(axis=0)
    if out.ndim == 0:
        return out[()]
    return out


def integrate_sqrt_smooth(f: Callable[[np.ndarray], np.ndarray],
                          nodes: int = QUAD_NODES):
    """Integrate f(sigma) over [0, 1] when f is smooth in sqrt(sigma).

    Substitutes sigma = u^2 so integrands polynomial in sqrt(sigma) become
    polynomial in u and the fixed-order rule is exact. Plain Gauss-Legendre
    on such integrands stalls around 1e-6. ``f`` is stacked as for
    :func:`gauss_legendre`.
    """
    return gauss_legendre(lambda u: _per_node(2.0 * u, _node_values(f, u * u)),
                          0.0, 1.0, nodes)


def cumulative_sqrt_smooth(f: Callable[[np.ndarray], np.ndarray],
                           sigmas: Sequence[float],
                           nodes: int = QUAD_NODES) -> np.ndarray:
    """Integrals of f over [0, sigma] for every sigma of ``sigmas`` in [0, 1].

    The composite form of :func:`integrate_sqrt_smooth`: the sorted knots
    u = sqrt(sigma) cut [0, max u] into segments, each gets a share of
    ``nodes`` in proportion to its length in u (at least two nodes), and
    the segment integrals are summed in order. ``f`` is called once, on
    the nodes of every segment together (about nodes + 2n of them for a
    grid of n points), and is stacked as for :func:`gauss_legendre`.
    Results are stacked along a new first axis in the order of ``sigmas``.
    """
    u = np.sqrt(np.asarray(sigmas, dtype=float))
    if u.ndim != 1 or u.size == 0:
        raise ValueError("need a nonempty 1-D array of sigmas")
    hi = np.sort(u)
    hi = hi[np.concatenate([[True], hi[1:] > hi[:-1]])]
    lo = np.concatenate([[0.0], hi[:-1]])
    counts = [max(2, int(np.ceil(nodes * (b - a)))) for a, b in zip(lo, hi)]
    rules = [_leggauss(n) for n in counts]
    x = np.concatenate([r[0] for r in rules])
    w = np.concatenate([r[1] for r in rules])
    mid = np.repeat(0.5 * (lo + hi), counts)
    half = 0.5 * (hi - lo)
    t = mid + np.repeat(half, counts) * x
    vals = _per_node(w, _per_node(2.0 * t, _node_values(f, t * t)))
    starts = np.cumsum([0] + counts[:-1])
    segments = _per_node(half, np.add.reduceat(vals, starts, axis=0))
    return np.cumsum(segments, axis=0)[np.searchsorted(hi, u)]


def product_defect(m, dims):
    """Relative distance from the nearest single-cut product structure.

    ``m`` is a matrix or a stack of matrices, shape (..., D, D); a matrix
    gives a float, a stack one defect per matrix. Zero (to rounding) on
    exact tensor products.
    """
    a = np.asarray(m, dtype=np.complex128)
    d = _dims_tuple(dims)
    total = int(np.prod(d))
    if a.ndim < 2 or a.shape[-2:] != (total, total):
        raise ValueError(f"shape {a.shape} does not match dims {d}")
    batch = a.shape[:-2]
    worst = np.zeros(batch)
    for cut in range(1, len(d)):
        d1 = int(np.prod(d[:cut]))
        d2 = int(np.prod(d[cut:]))
        r = a.reshape(batch + (d1, d2, d1, d2)).swapaxes(-3, -2).reshape(
            batch + (d1 * d1, d2 * d2))
        s = np.linalg.svd(r, compute_uv=False)
        if s.shape[-1] > 1:
            worst = np.maximum(worst,
                               s[..., 1] / np.maximum(s[..., 0], 1e-300))
    return float(worst) if not batch else worst
