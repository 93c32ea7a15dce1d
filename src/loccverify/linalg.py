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
    lies inside; ValueError if an entry is further out than rounding,
    giving ``message``, which names the parameter, and that entry."""
    s = np.asarray(s, dtype=float)
    if not s.size:
        return s
    # The extremes decide, and carry any NaN; most grids need no clipping.
    low, high = _smallest(s, axis=None), _largest(s, axis=None)
    if not (low >= bottom - ROUNDING_TOL and high <= top + ROUNDING_TOL):
        inside = (s >= bottom - ROUNDING_TOL) & (s <= top + ROUNDING_TOL)
        raise ValueError(f"{message} (got {s[~inside].flat[0]})")
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


def _legendre_series(x: np.ndarray, c: list[float]) -> np.ndarray:
    """sum_k c_k L_k(x) by Clenshaw's recursion, in the order of
    operations of numpy's ``legval``."""
    if len(c) == 1:
        return c[0] + 0 * x
    if len(c) == 2:
        return c[0] + c[1] * x
    nd = len(c)
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        tmp = c0
        nd = nd - 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache
def _leggauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss-Legendre rule on [-1, 1],
    bit for bit as ``numpy.polynomial.legendre.leggauss(n)`` gives them,
    without importing ``numpy.polynomial`` (a few ms in a fresh process).

    Its steps: the roots of L_n are the eigenvalues of the symmetric
    (Golub-Welsch) companion matrix, off-diagonal k / sqrt((2k - 1)
    (2k + 1)); one Newton step L_n / L_n' polishes them, L_n' having the
    Legendre coefficients 2j - 1 at j = n, n - 2, ...; the weights are
    1 / (L_{n-1} L_n'), each factor scaled by its largest modulus, then
    nodes and weights are symmetrised and the weights scaled to sum to 2.
    """
    n = nodes
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    basis = [0.0] * n + [1.0]
    derivative = [float(2 * j - 1) if (n - j) % 2 == 0 else 0.0
                  for j in range(1, n + 1)]
    df = _legendre_series(x, derivative)
    x -= _legendre_series(x, basis) / df
    fm = _legendre_series(x, basis[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w


def integrate_sqrt_smooth(f: Callable[[np.ndarray], np.ndarray],
                          nodes: int = QUAD_NODES):
    """Integrate f(sigma) over [0, 1] when f is smooth in sqrt(sigma).

    Substitutes sigma = t^2 so integrands polynomial in sqrt(sigma) become
    polynomial in t, where the ``nodes``-node Gauss-Legendre rule is exact
    to degree 2 nodes - 1; plain Gauss-Legendre in sigma is 2e-5 off on
    sqrt(sigma) at 16 nodes. ``f`` is called once, at the squares of the
    nodes t = (x + 1) / 2 of [0, 1], x the Gauss-Legendre nodes, and
    returns one value per node stacked on a new first axis; the integral
    is the weighted sum of 2 t f(t^2), halved.
    """
    if nodes < 1:
        raise ValueError("need at least one node")
    x, w = _leggauss(int(nodes))
    t = 0.5 * (x + 1.0)
    vals = np.asarray(f(t * t))
    if vals.shape[:1] != t.shape:
        raise ValueError(f"integrand returned shape {vals.shape} for "
                         f"{t.size} nodes; it must return one value per node")
    per_node = (len(t),) + (1,) * (vals.ndim - 1)
    out = 0.5 * (w.reshape(per_node)
                 * ((2.0 * t).reshape(per_node) * vals)).sum(axis=0)
    if out.ndim == 0:
        return out[()]
    return out


def polynomial_values(coefficients: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c_k x^k at each point of the 1-D array ``x``, by Horner's rule;
    the c_k are the rows of ``coefficients``, (deg + 1, ...), lowest degree
    first. Shape (len(x), ...)."""
    if len(coefficients) == 1:
        return np.repeat(coefficients, len(x), axis=0)
    x = x.reshape(x.shape + (1,) * (coefficients.ndim - 1))
    out = coefficients[-1] * x + coefficients[-2]
    for c in coefficients[-3::-1]:
        out *= x
        out += c
    return out


def lowest_eigenvalues(h: np.ndarray) -> np.ndarray:
    """The lowest eigenvalue of each Hermitian matrix of the stack ``h``,
    (n, b, b). For b = 1 it is the entry. For b = 2, [[p, r], [conj(r), q]]
    with mean m = (p + q) / 2 and half-gap g = |((p - q) / 2, |r|)|, it is
    the determinant over the top eigenvalue, (p q - |r|^2) / (m + g), where
    m > 0, and m - g elsewhere, where the two do not cancel: so a rank-one
    matrix whose products p q and |r|^2 round alike gives exactly 0, where
    m - g would leave rounding. Larger b takes an eigvalsh."""
    b = h.shape[-1]
    if b > 2:
        return np.linalg.eigvalsh(h)[:, 0]
    p = h[:, 0, 0].real
    if b == 1:
        return p
    q, r = h[:, 1, 1].real, h[:, 0, 1]
    r2 = r.real * r.real + r.imag * r.imag if r.dtype.kind == "c" else r * r
    m = 0.5 * (p + q)
    g = np.hypot(0.5 * (p - q), np.abs(r))
    low = m - g
    top = m > 0.0
    np.divide(p * q - r2, m + g, out=low, where=top)
    return low


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
