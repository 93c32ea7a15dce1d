"""Dense operator helpers shared by the rest of the package.

Matrices are plain numpy arrays, complex128 and 2-D. Multipartite structure
is carried separately as a tuple of local dimensions with party 1 first, so
party 1 occupies the most significant part of the row index and
``kron([a, b])`` puts ``a`` on party 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Callable, Iterable, Sequence

import numpy as np

from .tolerances import HERMITICITY_TOL, PSD_TOL, QUAD_NODES, ROUNDING_TOL


@dataclass(frozen=True)
class PartyDims:
    """Local dimensions of a multipartite space, party 1 first.

    Party indices are 1-based everywhere in this package.
    """

    dims: tuple[int, ...]
    # The full dimension, computed once: callers read it on every check.
    total: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid party dimensions {self.dims!r}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "total", math.prod(dims))

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)


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


def diagonal_stack(diag) -> np.ndarray:
    """Diagonal matrices of a stack of diagonals, shape (..., d) to
    complex (..., d, d), written in one scatter."""
    diag = np.asarray(diag)
    d = diag.shape[-1]
    out = np.zeros(diag.shape + (d,), dtype=np.complex128)
    out.reshape(diag.shape[:-1] + (d * d,))[..., ::d + 1] = diag
    return out


# The ufuncs' own reduces, without the cost of the ndarray wrappers.
_largest = np.maximum.reduce
_smallest = np.minimum.reduce


def clamped(s, top: float, message: str, bottom: float = 1.0) -> np.ndarray:
    """s clipped to [bottom, top], or s itself as a float array when it
    lies inside; ValueError if an entry is further out than rounding."""
    s = np.asarray(s, dtype=float)
    if not s.size:
        return s
    # The extremes decide, and carry any NaN; most grids need no clipping.
    low, high = _smallest(s, axis=None), _largest(s, axis=None)
    if not (low >= bottom - ROUNDING_TOL and high <= top + ROUNDING_TOL):
        inside = (s >= bottom - ROUNDING_TOL) & (s <= top + ROUNDING_TOL)
        raise ValueError(f"{message} (got s={s[~inside].flat[0]})")
    if low < bottom or high > top:
        return np.clip(s, bottom, top)
    return s


def partial_trace(m, dims, keep: Iterable[int]) -> np.ndarray:
    """Trace out all parties not listed in ``keep`` (1-based indices).

    ``m`` is a matrix or a stack of matrices, shape (..., D, D); the trace
    acts on the last two axes. The kept parties stay in their original
    relative order.
    """
    a = np.asarray(m, dtype=np.complex128)
    d = _dims_tuple(dims)
    n = len(d)
    total = math.prod(d)
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
    dk = math.prod(d[p - 1] for p in kept)
    return res.reshape(batch + (dk, dk))


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False).sum())


def operator_norm(m) -> float:
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False).max())


def has_finite_norm(a: np.ndarray) -> bool:
    """Whether an array's entries and Frobenius norm are finite; a dot
    product, unlike a ufunc, does not warn when the norm overflows."""
    return math.isfinite(np.vdot(a, a).real)


def hermitian_within(a: np.ndarray, tol: float,
                     ah: np.ndarray | None = None) -> np.ndarray:
    """Whether the square matrix ``a``, or each of a stack (..., k, k), is
    Hermitian to ``tol``: max|a - a^H| <= tol (1 + max|a|). ``ah`` is a^H,
    from a caller that holds it already."""
    if ah is None:
        ah = a.conj().swapaxes(-1, -2)
    scale = 1.0 + _largest(np.abs(a), axis=(-2, -1), initial=0.0)
    return _largest(np.abs(a - ah), axis=(-2, -1), initial=0.0) <= tol * scale


def sqrt_psd(m) -> np.ndarray:
    """Hermitian square root of a PSD matrix. Small negative eigenvalues

    (within PSD_TOL of zero, relative to the spectral scale) are clipped.
    A 1-D ``m`` is the diagonal of a diagonal matrix, real: its root is the
    entrywise root, as a 1-D array, under the same rule.
    """
    a = np.asarray(m)
    if a.ndim == 1:
        if a.dtype.kind not in "biuf":
            raise ValueError("sqrt_psd requires a real diagonal")
        return np.sqrt(_clipped_spectrum(a.astype(np.float64)))
    a = as_matrix(a)
    ah = a.conj().T
    if a.shape != ah.shape or not hermitian_within(a, HERMITICITY_TOL, ah):
        raise ValueError("sqrt_psd requires a Hermitian matrix")
    w, v = np.linalg.eigh(0.5 * (a + ah))
    return (v * np.sqrt(_clipped_spectrum(w))) @ v.conj().T


def _clipped_spectrum(w: np.ndarray) -> np.ndarray:
    """Eigenvalues w clipped at 0; ValueError when one is below zero by
    more than PSD_TOL relative to 1 + the largest modulus."""
    scale = 1.0 + float(np.abs(w).max(initial=0.0))
    if w.min(initial=0.0) < -PSD_TOL * scale:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w.min():.3e})")
    return np.clip(w, 0.0, None)


@lru_cache
def _leggauss(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss-Legendre rule on [-1, 1], and
    the (n + 1, n) map from values at the nodes to the Legendre
    coefficients of an antiderivative of their interpolant."""
    leg = np.polynomial.legendre
    x, w = leg.leggauss(nodes)
    # The rule integrates P_j P_k exactly (degree <= 2n - 2), so the
    # interpolant's coefficients are (k + 1/2) sum_i w_i P_k(x_i) g_i.
    to_coefficients = (leg.legvander(x, nodes - 1).T * w
                       * (np.arange(nodes) + 0.5)[:, None])
    return x, w, leg.legint(to_coefficients)


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


def integrate_sqrt_smooth(f: Callable[[np.ndarray], np.ndarray],
                          nodes: int = QUAD_NODES):
    """Integrate f(sigma) over [0, 1] when f is smooth in sqrt(sigma).

    Substitutes sigma = u^2 so integrands polynomial in sqrt(sigma) become
    polynomial in u, where the ``nodes``-node Gauss-Legendre rule is exact
    to degree 2 nodes - 1; plain Gauss-Legendre in sigma is 2e-5 off on
    sqrt(sigma) at 16 nodes. ``f`` is called once, at the squares of
    :func:`sqrt_smooth_nodes`, and returns one value per node stacked on a
    new first axis, which :func:`sqrt_smooth_total` sums.
    """
    if nodes < 1:
        raise ValueError("need at least one node")
    t = sqrt_smooth_nodes(nodes=nodes)
    out = sqrt_smooth_total(_per_node(2.0 * t, _node_values(f, t * t)),
                            nodes)
    if out.ndim == 0:
        return out[()]
    return out


def _legendre_rows(y: np.ndarray, degree: int) -> np.ndarray:
    """P_0..P_degree at the points ``y``, one row per degree; shape
    (degree + 1, len(y)). The three-term recurrence of
    ``np.polynomial.legendre.legvander``, P_i = (P_{i-1} y (2i - 1) -
    P_{i-2} (i - 1)) / i, in its order of operations, so the values equal
    its transpose bit for bit, written in place row by row."""
    v = np.empty((degree + 1, y.size))
    v[0] = 1.0
    if degree > 0:
        v[1] = y
    scratch = np.empty(y.size)
    for i in range(2, degree + 1):
        row = v[i]
        np.multiply(v[i - 1], y, out=row)
        np.multiply(row, 2.0 * i - 1.0, out=row)
        np.multiply(v[i - 2], i - 1.0, out=scratch)
        np.subtract(row, scratch, out=row)
        np.divide(row, float(i), out=row)
    return v


def sqrt_smooth_nodes(nodes: int = QUAD_NODES) -> np.ndarray:
    """The points t of [0, 1] at whose squares sigma = t^2
    :func:`integrate_sqrt_smooth` samples its integrand: t = (x + 1) / 2
    for the ``nodes`` Gauss-Legendre nodes x."""
    x, _, _ = _leggauss(int(nodes))
    return 0.5 * (x + 1.0)


def cumulative_weights(u: np.ndarray) -> np.ndarray:
    """Weights of the node values 2 t f(t^2), t the QUAD_NODES nodes of
    :func:`sqrt_smooth_nodes`, in the integrals of f over [0, u^2] for
    every u of ``u`` in [0, 1]; shape (len(u), QUAD_NODES). These integrate
    the interpolant of 2 t f(t^2) at the nodes from 0 to u, so they are
    exact when 2 t f(t^2) is a polynomial in t of degree below
    QUAD_NODES."""
    x, _, antiderivative = _leggauss(QUAD_NODES)
    # Minus P_k(-1) = (-1)^k, the value at u = 0: sigma = 0 gives exactly 0.
    ends = _legendre_rows(2.0 * u - 1.0, x.size)
    ends -= ((-1.0) ** np.arange(x.size + 1))[:, None]
    return 0.5 * (ends.T @ antiderivative)


def sqrt_smooth_total(vals: np.ndarray,
                      nodes: int = QUAD_NODES) -> np.ndarray:
    """The integral of f over [0, 1] from its values 2 t f(t^2) at the
    ``nodes`` nodes t of :func:`sqrt_smooth_nodes` on [0, 1], stacked on the
    first axis: the Gauss-Legendre rule of :func:`integrate_sqrt_smooth`."""
    _, w, _ = _leggauss(int(nodes))
    return 0.5 * _per_node(w, vals).sum(axis=0)


def _singular_values_2x2(r: np.ndarray) -> np.ndarray:
    """Singular values, largest first, of each real 2 x 2 matrix
    [[a, b], [c, d]] of the stack ``r``, in closed form: with
    p = |(a + d, b - c)| and q = |(a - d, b + c)| they are (p + q) / 2 and
    |p - q| / 2. One array expression over the stack, where the SVD takes
    one LAPACK call per matrix."""
    a, b = r[..., 0, 0], r[..., 0, 1]
    c, d = r[..., 1, 0], r[..., 1, 1]
    p, q = np.hypot(a + d, b - c), np.hypot(a - d, b + c)
    return 0.5 * np.stack([p + q, np.abs(p - q)], axis=-1)


def product_defect(m, dims, diagonal: bool = False):
    """Relative distance from the nearest single-cut product structure.

    ``m`` is a matrix or a stack of matrices, shape (..., D, D); a matrix
    gives a float, a stack one defect per matrix. Zero (to rounding) on
    exact tensor products. With ``diagonal``, ``m`` holds the real
    diagonals of diagonal matrices, shape (..., D): the realignment of a
    diagonal matrix at a cut D1 x D2 has its nonzeros at the entries
    (i i, j j), so its singular values are those of the (D1, D2) reshape of
    the diagonal, and each cut takes one real SVD of that reshape, or
    :func:`_singular_values_2x2` when the reshape is 2 x 2.
    """
    a = np.asarray(m, dtype=np.float64 if diagonal else np.complex128)
    d = _dims_tuple(dims)
    total = math.prod(d)
    shape = (total,) if diagonal else (total, total)
    if a.ndim < len(shape) or a.shape[a.ndim - len(shape):] != shape:
        raise ValueError(f"shape {a.shape} does not match dims {d}")
    batch = a.shape[:a.ndim - len(shape)]
    worst = np.zeros(batch)
    for cut in range(1, len(d)):
        d1 = math.prod(d[:cut])
        d2 = math.prod(d[cut:])
        if diagonal:
            r = a.reshape(batch + (d1, d2))
        else:
            r = a.reshape(batch + (d1, d2, d1, d2)).swapaxes(-3, -2).reshape(
                batch + (d1 * d1, d2 * d2))
        s = (_singular_values_2x2(r) if diagonal and r.shape[-2:] == (2, 2)
             else np.linalg.svd(r, compute_uv=False))
        if s.shape[-1] > 1:
            worst = np.maximum(worst,
                               s[..., 1] / np.maximum(s[..., 0], 1e-300))
    return float(worst) if not batch else worst
