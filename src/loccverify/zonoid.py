"""Zonoid membership and support geometry for operator bases.

The zonoid of a basis {Khat_m} is the set of operators
sum_{mn} C_mn Khat_m^dag Khat_n with coefficient matrices 0 <= C <= 1.
With blocks declared, C is additionally constrained to be block diagonal,
which is the right constraint set for instruments: each outcome contributes
its own block and the boxes combine independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import Instrument, KrausSet, index_partition, minimal_kraus
from .linalg import as_matrix, has_finite_norm, hermitian_within
from .tolerances import (INDEPENDENCE_TOL, INPUT_HERMITICITY_TOL,
                         MEMBERSHIP_TOL, ROUNDING_TOL, SPAN_TOL)

# Newton steps of a membership solve, the presolve's and the barrier's
# together: about 2.5 times the longest solve measured to answer before it.
# A target within about tol of the zonoid, which neither a witness nor a
# certificate may decide, can end here.
MEMBERSHIP_MAX_ITER = 2000

# The face finish of the barrier solve fixes the iterate's eigenvalues below
# this at 0 and those above 1 minus it at 1.
FACE_SPLIT = 0.01


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a complex vector by its own formula, without the
    wrapper's cost."""
    return math.sqrt(v.real @ v.real + v.imag @ v.imag)


class NotInSpanError(ValueError):
    """An operator could not be expanded over the basis."""


def coefficient_stack(m) -> np.ndarray:
    """Hermitian parts of a coefficient matrix or a stack (..., k, k) of them.

    Raises ValueError unless every matrix is square and Hermitian to
    INPUT_HERMITICITY_TOL (:func:`~loccverify.linalg.hermitian_within`),
    the rule of :class:`CoefficientMatrix`, which keeps the result for one
    matrix.
    A real stack gives a real float64 result, anything else a complex one.
    """
    a = np.asarray(m)
    a = a.astype(np.float64 if a.dtype.kind in "biuf" else np.complex128,
                 copy=False)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("coefficient matrix must be square")
    ah = a.conj().swapaxes(-1, -2)
    if not hermitian_within(a, INPUT_HERMITICITY_TOL, ah).all():
        raise ValueError("coefficient matrix must be Hermitian")
    return 0.5 * (a + ah)


@dataclass(frozen=True, eq=False)
class CoefficientMatrix:
    """Hermitian coefficient matrix over a zonoid basis.

    Frozen, with a read-only array, so the matrix checked and symmetrised
    here is the one it keeps; compared and hashed by identity, as arrays
    have no truth value. The membership solver wraps the witnesses it
    builds, and :func:`endpoint_cmatrix` its rank-one matrices, by
    :func:`_witness`, which skips the check.
    """

    matrix: np.ndarray

    def __post_init__(self):
        sym = coefficient_stack(as_matrix(self.matrix))
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)


def _witness(m: np.ndarray) -> CoefficientMatrix:
    """The :class:`CoefficientMatrix` of a matrix the package built
    Hermitian, without the input check: its Hermitian part, by the
    arithmetic of :func:`coefficient_stack`, made read-only."""
    sym = 0.5 * (m + m.conj().T)
    sym.setflags(write=False)
    c = object.__new__(CoefficientMatrix)
    object.__setattr__(c, "matrix", sym)
    return c


@dataclass(frozen=True, eq=False)
class ZonoidSpec:
    """Basis operators defining a zonoid, optionally split into blocks.

    Blocks are tuples of 0-based indices into the basis. Within each block
    the operators must be linearly independent; across blocks they need not
    be, since the coefficient matrix never couples blocks. Frozen, so one
    spec and its solver can be shared between callers, and compared and
    hashed by identity.
    """

    basis: KrausSet
    blocks: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.blocks is not None:
            object.__setattr__(self, "blocks", index_partition(
                self.blocks, self.basis.n_operators, "block"))
        for blk in self.block_list():
            flat = self.basis.operators[list(blk)].reshape(len(blk), -1)
            gram = flat.conj() @ flat.T
            w = np.linalg.eigvalsh(gram)
            if w[0] <= INDEPENDENCE_TOL * max(1.0, float(w[-1])):
                raise ValueError(
                    f"basis operators {tuple(blk)} are linearly dependent"
                )

    @property
    def kappa(self) -> int:
        return self.basis.n_operators

    @property
    def dim(self) -> int:
        return self.basis.input_dim

    def block_list(self) -> tuple[tuple[int, ...], ...]:
        if self.blocks is None:
            return (tuple(range(self.basis.n_operators)),)
        return self.blocks

    def solver(self) -> "_MembershipSolver":
        """The membership machinery of this spec, built on first use."""
        if "_solver" not in self.__dict__:
            object.__setattr__(self, "_solver", _MembershipSolver(
                self.basis.operators, self.block_list()))
        return self._solver


@dataclass
class MembershipReport:
    """Answer of one membership solve.

    ``phase`` says which problem answered: ``candidate`` (an exact
    candidate with a residual at most min(tol, ROUNDING_TOL): the
    identity or a point of the slice, sum_j b_j G_j or the one nearest
    the box centre, or such a point of the slice with its slice-pinned
    coefficients fixed at 0 or 1), ``span`` (z lies outside the linear
    span of the Gram operators) or ``barrier``. ``stop`` says how:
    ``identity`` or ``affine`` (which candidate), ``outside`` (a
    separating direction certified z infeasible), ``interior`` (the
    barrier reached t >= 0), ``face`` (a box point on a face of the box
    reproduces z, as it must on a face of the zonoid, where t cannot
    become positive: the barrier's iterate clipped to the box, its face
    finish, or a barrier witness with slice-pinned coefficients fixed) or
    ``undecided`` (neither a witness within ``tol`` nor a certificate;
    infeasible). Both are empty on a report built without them.

    An ``outside`` answer carries its certificate: ``separating`` is the
    unit Hermitian direction x and ``gap`` is Re<x, z> - h(x) > tol, a
    lower bound on the distance from z to the zonoid that anyone can
    recompute with :func:`support_function`. Every other answer leaves
    both None. ``residual`` is ||L(W) - z||_F of the returned box witness
    W itself; for an ``outside`` answer it can lie far above the distance
    to the zonoid, which ``gap`` bounds from below.
    """

    feasible: bool
    witness: CoefficientMatrix | None
    residual: float
    iterations: int
    stop: str = ""
    phase: str = ""
    separating: np.ndarray | None = None
    gap: float | None = None


class _MembershipSolver:
    """Membership machinery shared by every query on one spec.

    The feasible set is the intersection of the affine slice
    {C block-supported : L(C) = z} with the spectral box {0 <= C <= 1}.
    Exact candidates are tried first (:meth:`_candidates`), then a point
    outside the span of L is certified outside at once. A target that
    fixes some coefficient C_ii at 0 or 1 is then solved without it
    (:meth:`_presolve`). Otherwise, or when that finds no witness, one
    barrier solve (:meth:`_barrier`) returns a box witness or a
    separating direction.

    L is held once, as ``lmap`` on the output entries (``rows``, ``cols``)
    that the basis ``ops`` reaches; it is zero on the others. Residuals
    carry C as the vector of its block-supported entries and z as
    :meth:`target`, so L is the matrix ``a``. The slice is held once, from
    one SVD of L (:meth:`constraints`), for every stage, and so are the
    blocks' expansion maps (:meth:`expansions`).
    """

    def __init__(self, ops: np.ndarray, blocks):
        kappa, _, d = ops.shape
        self.kappa, self.dim = kappa, d
        self.ops, self.blocks = ops, blocks
        self._expansions = None
        self.real = not ops.imag.any()
        # The entries (a, c) of Khat_m^dag Khat_n that some output row b
        # with nonzero (b, a) and (b, c) reaches, row-major.
        reach = (ops != 0).any(axis=0).astype(float)
        self.rows, self.cols = rows, cols = np.nonzero(reach.T @ reach)
        # Those on or above the diagonal; the others mirror them.
        self.upper = np.flatnonzero(rows <= cols)
        # lmap[e, m, n] = (Khat_m^dag Khat_n)[rows[e], cols[e]].
        self.lmap = lmap = np.einsum("mbe,nbe->emn", ops[:, :, rows].conj(),
                                     ops[:, :, cols])
        # On a real basis the map is real, and contracts the real and the
        # imaginary part of a coefficient matrix separately (:meth:`reached`).
        self.rmap = np.ascontiguousarray(lmap.real) if self.real else None
        # The flat reached entries, then a slot for the norm of z off them.
        self.slots = np.append(rows * d + cols, 0)
        self.off = np.delete(np.arange(d * d), self.slots[:-1])
        # The reached entries on the diagonal, and the diagonal indices
        # that no entry reaches.
        self.on_diagonal = np.flatnonzero(rows == cols)
        unreached = np.ones(d, dtype=bool)
        unreached[rows[self.on_diagonal]] = False
        self.off_diagonal = np.flatnonzero(unreached)
        self.grids = [np.ix_(blk, blk) for blk in blocks]
        self.mask = mask = np.zeros((kappa, kappa), dtype=bool)
        for grid in self.grids:
            mask[grid] = True
        # L on the masked entries, then a zero row for that slot.
        self.a = np.vstack([lmap[:, mask], np.zeros(int(mask.sum()))])
        self.ident = np.eye(kappa, dtype=np.complex128)[mask]
        self.ident_image = self.a @ self.ident
        # Where each diagonal entry C_ii sits in a masked vector.
        self.diagonal_slots = np.flatnonzero(mask).searchsorted(
            np.arange(kappa) * (kappa + 1))
        self._slices: dict[bool, tuple] = {}
        self._pins: dict[bool, np.ndarray] = {}
        self._reduced: dict[tuple, _MembershipSolver] = {}

    def expansions(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per block, its operators flattened into the columns of a
        (d^2, m) matrix B and the expansion map B^+, (m, d^2): B^+ k is the
        least-squares expansion of a flattened operator k over the block.
        Built on first use and read-only, since every caller of the spec
        reads the same arrays."""
        if self._expansions is None:
            maps = []
            for blk in self.blocks:
                cols = self.ops[list(blk)].reshape(len(blk), -1).T
                pinv = np.linalg.pinv(cols)
                cols.setflags(write=False)
                pinv.setflags(write=False)
                maps.append((cols, pinv))
            self._expansions = tuple(maps)
        return self._expansions

    def target(self, z: np.ndarray) -> np.ndarray:
        """z at the reached entries, then the norm of its part off them, so
        that ||a c - target(z)|| = ||L(C) - z|| for every masked vector c."""
        zvec, off = z.take(self.slots), z.take(self.off)
        zvec[-1] = math.sqrt(np.vdot(off, off).real)
        return zvec

    def reached(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """L(C) at the reached entries of a coefficient matrix, or of each
        of a stack (..., k, k), as its real and imaginary parts; the
        imaginary part is None where it is zero by construction. On a real
        basis one real map serves every C: a real C takes one real
        contraction, a complex one takes its real and imaginary parts in
        one call."""
        if self.rmap is None:
            out = np.einsum("...mn,emn->...e", c, self.lmap)
            return out.real, out.imag
        if c.dtype.kind != "c":
            return np.einsum("...mn,emn->...e", c, self.rmap), None
        re, im = np.einsum("...mn,emn->...e", np.stack([c.real, c.imag]),
                           self.rmap)
        return re, im

    def image(self, c: np.ndarray) -> np.ndarray:
        """L(C) of a coefficient matrix, or of each of a stack (..., k, k):
        the map's values (:meth:`reached`) scattered into zero d x d
        matrices."""
        re, im = self.reached(c)
        out = np.zeros(c.shape[:-2] + (self.dim, self.dim), dtype=complex)
        out.real[..., self.rows, self.cols] = re
        if im is not None:
            out.imag[..., self.rows, self.cols] = im
        return out

    def diagonal_residuals(self, c: np.ndarray, v: np.ndarray) -> np.ndarray:
        """||L(C) - diag v||_F for a coefficient matrix and a real diagonal,
        or pairwise for stacks (..., k, k) and (..., d): the gap on the
        reached entries (:meth:`reached`), where diag v is v on the
        diagonal ones and 0 on the others, and the entries of v that no
        entry reaches, as :meth:`target` splits z."""
        gap, im = self.reached(c)
        gap[..., self.on_diagonal] -= v[..., self.rows[self.on_diagonal]]
        off = v[..., self.off_diagonal]
        total = np.einsum("...e,...e->...", gap, gap)
        if im is not None:
            total = total + np.einsum("...e,...e->...", im, im)
        return np.sqrt(total + np.einsum("...e,...e->...", off, off))

    def to_matrix(self, x: np.ndarray) -> np.ndarray:
        """Scatter a masked vector into its kappa x kappa matrix."""
        out = np.zeros((self.kappa, self.kappa), dtype=np.complex128)
        out[self.mask] = x
        return out

    def project_box(self, x: np.ndarray) -> np.ndarray:
        """Nearest point of the box {0 <= C <= 1} to the masked vector x.

        One eigh of the whole masked matrix serves every block: clipping
        the spectrum is a spectral function, so it keeps the block
        structure even where blocks share eigenvalues, and the gather
        drops any rounding outside the blocks.
        """
        m = self.to_matrix(x)
        w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
        w = np.minimum(np.maximum(w, 0.0), 1.0)
        return ((v * w) @ v.conj().T)[self.mask]

    def in_box(self, cs: np.ndarray, w: np.ndarray | None = None
               ) -> np.ndarray:
        """Whether each matrix of the stack ``cs``, (..., k, k), already
        masked and Hermitian, lies in the box: every block's eigenvalues in
        [0, 1] to ``ROUNDING_TOL``. One eigvalsh of each matrix serves
        every block: a masked matrix is block diagonal up to a permutation,
        so its spectrum is the union of its blocks' spectra. ``w`` is that
        ascending spectrum, (..., k), from a caller that holds it already.
        """
        if w is None:
            w = np.linalg.eigvalsh(cs)
        # Transposed, the extreme eigenvalues are rows 0 and -1 for any
        # stack, and plain scalars for one matrix.
        w = w.T
        return ((w[0] >= -ROUNDING_TOL) & (w[-1] <= 1.0 + ROUNDING_TOL)).T

    @cached_property
    def l_norm(self) -> float:
        """||L||_2, the largest singular value of ``a``."""
        return float(np.linalg.svd(self.a, compute_uv=False)[0])

    def admits(self, c: np.ndarray, res: float, gate: float) -> bool:
        """Whether the masked Hermitian ``c`` of residual ``res`` answers
        within ``gate``: it passes the rule of :meth:`in_box`, and ``res``
        plus its box excess e (largest eigenvalue distance outside [0, 1])
        times ||L||_2 sqrt(kappa), the most that clipping its eigenvalues
        can move L(c), is at most ``gate``, however large L is."""
        if res > gate:
            return False
        w = np.linalg.eigvalsh(c).tolist()
        excess = max(-w[0], w[-1] - 1.0, 0.0)
        return excess <= ROUNDING_TOL and (
            not excess
            or res + self.l_norm * math.sqrt(self.kappa) * excess <= gate)

    def overlap(self, xt: np.ndarray) -> np.ndarray:
        """A[m', m] = Tr(x Khat_m^dag Khat_m') of each direction x of a
        stack, given by its values x[cols, rows] at the transposed reached
        entries: one product with the map."""
        n, k = len(xt), self.kappa
        lmap_t = self.lmap.transpose(0, 2, 1).reshape(-1, k * k)
        return (xt @ lmap_t).reshape(n, k, k)

    def support(self, xs: np.ndarray) -> np.ndarray:
        """h(x) for each direction of the stack ``xs``, shape (k, d, d):
        the sum of the positive eigenvalues of the overlap matrix A(x),
        taken block by block."""
        overlap = self.overlap(xs[:, self.cols, self.rows])
        total = np.zeros(len(xs))
        for rows, cols in self.grids:
            sub = overlap[:, rows, cols]
            w = np.linalg.eigvalsh(
                0.5 * (sub + sub.conj().transpose(0, 2, 1)))
            total += np.where(w > 0.0, w, 0.0).sum(axis=1)
        return total

    def outside_certified(self, z: np.ndarray, r: np.ndarray, tol: float,
                          x: np.ndarray | None = None
                          ) -> tuple[np.ndarray, float] | None:
        """Separating-direction test of z against a point L(c).

        ``r`` is target(z) - a c and ``x`` the direction to test: by
        default r itself, whose last slot stands for the part of z off the
        reached entries; any other x is 0 there. With x replaced by its
        unit Hermitian part, any zonoid point y obeys Re<x, y> <= h(x), so
        dist(z, zonoid) >= Re<x, z> - h(x). Returns (x, gap) when that gap
        is above ``tol``, else None. The gap is at most the distance, which
        is at most ||r|| when c is in the box or r is orthogonal to the
        span of L, the two uses here, so a shorter r costs one dot product.
        """
        if not np.vdot(r, r).real > tol * tol:
            return None
        u = z.copy() if x is None else np.zeros_like(z)
        u[self.rows, self.cols] = (r if x is None else x)[:-1]
        u = 0.5 * (u + u.conj().T)
        u = u / float(np.linalg.norm(u))
        gap = float(np.real(np.vdot(u, z))) - float(self.support(u[None])[0])
        return (u, gap) if gap > tol else None

    def _candidates(self, zvec: np.ndarray, c0: np.ndarray,
                    centre: np.ndarray, off: np.ndarray, gate: float):
        """An exact witness of z, its stop and its residual, or None: the
        identity, then the slice points ``centre`` and c0 of :meth:`points`.
        One answers when its own residual ||a c - z|| is at most ``gate``
        and it lies in the box. That of c0 is ||off||, the part of z off the
        slice's span, and every slice point's is at least it, so a large
        ``off`` skips both before any eigenvalue call; :meth:`admits`
        judges a slice point."""
        res = _norm(self.ident_image - zvec)
        if res <= gate:
            return self.ident, "identity", res
        res = _norm(off)
        if res > gate:
            return None
        near = _norm(self.a @ centre - zvec)
        if near <= gate and self.admits(self.to_matrix(centre), near, gate):
            return centre, "affine", near
        found = self.admits(self.to_matrix(c0), res, gate)
        return (c0, "affine", res) if found else None

    def constraints(self, real: bool) -> tuple:
        """The slice L(C) = z as <G_j, C> = b_j, built on first use.

        L is written as a real matrix from an orthonormal basis of the
        block-supported Hermitian C (the diagonal units, (E_ij + E_ji)/√2
        and i (E_ij - E_ji)/√2 for i < j) to the :meth:`coords` of z. Its
        SVD U S V^T, cut at 1e-10 of the largest singular value, gives the
        orthonormal G_j of the rows of V^T and b = (U S^-1)^T coords(z).
        The cut drops the singular values only rounding leaves on a
        rank-deficient map (five near 1e-13 of the largest at P = 6),
        whose b_j would carry that rounding divided by S. ``real`` keeps
        the real symmetric basis and real parts, enough when the operators
        and z are real: the real part of a witness is then a witness.
        Returns (G, U S^-1, lift, half): ``lift`` maps coords(z) to the
        masked c0 = sum_j b_j G_j, and c0 + half is the slice point nearest
        I/2, half = (I - sum_j Tr(G_j) G_j) / 2.
        """
        found = self._slices.get(real)
        if found is None:
            i, j = np.nonzero(np.triu(self.mask))
            pair = i < j
            coef = np.where(pair, math.sqrt(0.5), 1.0)
            lmap = self.lmap[self.upper]
            image = coef * (lmap[:, i, j] + pair * lmap[:, j, i])
            if real:
                image = image.real
            else:
                ip, jp = i[pair], j[pair]
                image = np.hstack([image, 1j * math.sqrt(0.5)
                                   * (lmap[:, ip, jp] - lmap[:, jp, ip])])
                image = np.ascontiguousarray(image.T).view(float).T
            u, s, vt = np.linalg.svd(image, full_matrices=False)
            keep = s > 1e-10 * s[0]
            vt, scaled = vt[keep], u[:, keep] / s[keep]
            g = np.zeros((len(vt), self.kappa, self.kappa),
                         dtype=float if real else complex)
            g[:, i, j] = g[:, j, i] = coef * vt[:, :len(i)]
            if not real:
                anti = 1j * math.sqrt(0.5) * vt[:, len(i):]
                g[:, ip, jp] += anti
                g[:, jp, ip] -= anti
            gm = g[:, self.mask]
            half = 0.5 * (np.eye(self.kappa)[self.mask]
                          - np.trace(g, axis1=1, axis2=2).real @ gm)
            found = self._slices[real] = (g, scaled, gm.T @ scaled.T, half)
        return found

    def pinned(self, real: bool) -> np.ndarray:
        """Indices i whose coefficient C_ii the slice fixes, built on first
        use: those whose unit E_ii lies in the row space of the orthonormal
        G_j, sum_j G_j[i, i]^2 = 1 to 1e-12. Every slice point then has the
        C_ii of c0."""
        found = self._pins.get(real)
        if found is None:
            g = self.constraints(real)[0]
            weight = np.square(np.abs(np.diagonal(g, axis1=1, axis2=2))).sum(
                axis=0)
            found = self._pins[real] = np.flatnonzero(
                np.abs(weight - 1.0) <= 1e-12)
        return found

    def reduced(self, keep: tuple[int, ...]) -> "_MembershipSolver":
        """The solver of the basis operators ``keep``, each block cut to
        them, built on first use."""
        found = self._reduced.get(keep)
        if found is None:
            where = {m: n for n, m in enumerate(keep)}
            blocks = tuple(tuple(where[m] for m in blk if m in where)
                           for blk in self.blocks)
            found = self._reduced[keep] = _MembershipSolver(
                self.ops[list(keep)], tuple(blk for blk in blocks if blk))
        return found

    def coords(self, v: np.ndarray, real: bool) -> np.ndarray:
        """Real coordinates of a vector on the reached entries: its values
        on or above the diagonal, as real parts or as (real, imag) pairs."""
        v = v[self.upper]
        return v.real if real else v.view(float)

    def direction(self, nu: np.ndarray, real: bool) -> np.ndarray:
        """The direction U S^-1 nu of multipliers ``nu``, for
        :meth:`outside_certified`: its Hermitian part pairs with z as the
        coordinates pair with coords(z)."""
        y = self.constraints(real)[1] @ nu
        x = np.zeros(len(self.slots), dtype=complex)
        x[self.upper] = y if real else y.view(complex)
        return x

    def points(self, zvec: np.ndarray) -> tuple[bool, np.ndarray, np.ndarray]:
        """The route (real when the basis and coords(z) are), the slice's
        minimum-norm point c0 and its point nearest I/2 in Frobenius norm,
        the centre of the box, the operator-norm ball of radius 1/2."""
        real = self.real and not np.count_nonzero(zvec[self.upper].imag)
        _, _, lift, half = self.constraints(real)
        c0 = lift @ self.coords(zvec, real)
        return real, c0, c0 + half

    def _separated(self, z: np.ndarray, r: np.ndarray, real: bool,
                   tol: float) -> tuple[np.ndarray, float] | None:
        """:meth:`outside_certified` of the residual ``r`` of a box point
        in the direction r, then in (a a^H)^+ r = U S^-2 U^T r."""
        return self.outside_certified(z, r, tol) or self.outside_certified(
            z, r, tol, self.direction(self.constraints(real)[1].T
                                      @ self.coords(r, real), real))

    def _presolve(self, z: np.ndarray, zvec: np.ndarray, real: bool,
                  c0: np.ndarray, tol: float, budget: int
                  ) -> tuple[MembershipReport | None, int]:
        """A witness of z with its slice-pinned coefficients fixed, and the
        Newton steps spent looking for it.

        A pinned C_ii (:meth:`pinned`) that c0 puts within ROUNDING_TOL of 1
        or 0 is fixed there: 0 <= C <= 1 then leaves row i of every box
        witness zero off the diagonal. The solver without those indices
        (:meth:`reduced`) answers z minus the K_i^dag K_i of those at 1,
        with at most ``budget`` steps. Its witness, lifted, must answer
        within the gate of its kind (:meth:`admits`): min(tol,
        ROUNDING_TOL) for a candidate, reported ``affine``, and ``tol`` for
        a barrier witness, reported ``face``. Otherwise the report is None.
        """
        pins = self.pinned(real)
        value = c0[self.diagonal_slots[pins]].real
        one = np.abs(value - 1.0) <= ROUNDING_TOL
        fixed = one | (np.abs(value) <= ROUNDING_TOL)
        if not fixed.any() or fixed.sum() == self.kappa:
            return None, 0
        kept = np.ones(self.kappa, dtype=bool)
        kept[pins[fixed]] = False
        keep = tuple(np.flatnonzero(kept).tolist())
        top = np.zeros((self.kappa, self.kappa), dtype=np.complex128)
        top[pins[one], pins[one]] = 1.0
        rep = self.reduced(keep).solve(z - self.image(top), tol, budget)
        if not rep.feasible:
            return None, rep.iterations
        lifted = top
        lifted[np.ix_(keep, keep)] = rep.witness.matrix
        x = lifted[self.mask]
        res = _norm(zvec - self.a @ x)
        candidate = rep.phase == "candidate"
        if not self.admits(lifted, res,
                           min(tol, ROUNDING_TOL) if candidate else tol):
            return None, rep.iterations
        return MembershipReport(
            True, _witness(lifted), res, rep.iterations,
            "affine" if candidate else "face",
            "candidate" if candidate else "barrier"), rep.iterations

    def _finish(self, lam: np.ndarray, v: np.ndarray, g: np.ndarray,
                b: np.ndarray, zvec: np.ndarray, tol: float
                ) -> tuple[np.ndarray, np.ndarray] | None:
        """The barrier iterate V diag(lam) V^H finished on its face.

        Its eigenvalues split at FACE_SPLIT into L (towards 0), H (towards
        1) and F, the rest. The slice <G_j, W> = b_j is solved in least
        squares over W = V_H V_H^H + V_F X V_F^H, X Hermitian, by the
        minimum-norm change of X from diag(lam_F). The masked W and its
        residual target(z) - a W answer when W answers within 0.005 tol,
        the barrier's face rule (:meth:`admits`); otherwise None, as when L
        and H are both empty.
        """
        low, high = lam < FACE_SPLIT, lam > 1.0 - FACE_SPLIT
        if not (low.any() or high.any()):
            return None
        free = ~(low | high)
        vf = v[:, free]
        vfh = vf.conj().T
        ends = np.where(high, 1.0, np.where(low, 0.0, lam))
        w = (v * ends) @ v.conj().T
        f = int(free.sum())
        if f:
            # The constraints on X, in the orthonormal Hermitian units of
            # the f x f block: E_ii, (E_ij + E_ji)/√2, i (E_ij - E_ji)/√2.
            gf = vfh @ g @ vf
            i, j = np.triu_indices(f, 1)
            cols = [np.diagonal(gf, axis1=1, axis2=2).real,
                    math.sqrt(2.0) * gf[:, i, j].real]
            if np.iscomplexobj(gf):
                cols.append(math.sqrt(2.0) * gf[:, i, j].imag)
            rhs = b - (g.reshape(len(g), -1).conj() @ w.reshape(-1)).real
            dx = np.linalg.lstsq(np.hstack(cols), rhs, rcond=None)[0]
            x = np.diag(dx[:f]).astype(w.dtype)
            x[i, j] = dx[f:f + len(i)] * math.sqrt(0.5)
            if len(dx) > f + len(i):
                x[i, j] += 1j * math.sqrt(0.5) * dx[f + len(i):]
            x[j, i] = x[i, j].conj()
            w = w + vf @ x @ vfh
        w = self.to_matrix(0.5 * (w + w.conj().T)[self.mask])
        r = zvec - self.a @ w[self.mask]
        if self.admits(w, _norm(r), 0.005 * tol):
            return w, r
        return None

    def _barrier(self, z: np.ndarray, zvec: np.ndarray, real: bool,
                 c0: np.ndarray, centre: np.ndarray, tol: float,
                 budget: int) -> MembershipReport:
        """Phase I by a barrier method (Boyd and Vandenberghe 2004, 11.4).

        z is certified outside at once when the box projection W of c0 is
        (:meth:`_separated`). Otherwise the solve maximises t subject to
        L(C) = z and tI <= C <= (1 - t)I by minimising
        -t / mu - log det(C - tI) - log det((1 - t)I - C) on the slice,
        from ``centre``. mu starts at 1 / (2 kappa), where the duality gap
        2 kappa mu is the box's width, and shrinks by 0.01 after each
        centring (Newton decrement^2 <= 0.1).

        In the eigenbasis of C, with p = lambda - t and q = 1 - t - lambda,
        the Hessian in C is entrywise, W_ab = 1/(p_a p_b) + 1/(q_a q_b), so
        a Newton step is one eigh and one QR for the multipliers nu and the
        step in t. The damped length 1 / (1 + decrement) stays inside the
        Dikin ellipsoid, so both slacks stay positive. z is inside once
        t >= 0 or once C clipped to the box has residual at most 0.005 tol,
        or, tried once for each value of mu, once :meth:`_finish` answers
        on the face that C nears.
        At a centre Z1 = mu (C - tI)^-1 and Z2 = mu ((1 - t)I - C)^-1 have
        traces summing to 1, so Z2 - Z1 separates z by at least
        -t - 2 kappa mu up to its norm: while that bound is positive, the
        :meth:`direction` of nu is tested after each centring. After
        ``budget`` steps, or when the slacks round away, the clipped C's
        residual gets the tests of W; failing them, the clipped C answers
        if its residual is within ``tol``, and z is otherwise
        ``undecided``.
        """
        box = self.project_box(c0)
        r = zvec - self.a @ box
        cert = self._separated(z, r, real, tol)
        if cert is not None:
            return MembershipReport(False, _witness(self.to_matrix(box)),
                                    float(np.linalg.norm(r)), 0, "outside",
                                    "barrier", *cert)
        g, scaled = self.constraints(real)[:2]
        b = scaled.T @ self.coords(zvec, real)
        n, k = len(g), self.kappa
        flat = g.reshape(n, -1).conj()
        dia, eye = np.arange(k) * (k + 1), np.eye(k)
        c = self.to_matrix(centre).real if real else self.to_matrix(centre)
        lam, v = np.linalg.eigh(c)
        t, mu, steps, stop = min(lam[0], 1.0 - lam[-1]) - 1.0, 0.5 / k, 0, ""
        finished = None
        while True:
            vh = v.T if real else v.conj().T
            w = (v * np.clip(lam, 0.0, 1.0)) @ vh
            r = zvec - self.a @ w[self.mask]
            if t >= 0.0:
                stop = "interior"
            elif np.vdot(r, r).real <= (0.005 * tol) ** 2:
                stop = "face"
            elif finished != mu and (face := self._finish(
                    lam, v, g, b, zvec, tol)) is not None:
                (w, r), stop = face, "face"
            elif steps == budget or not (lam[0] > t and lam[-1] < 1.0 - t):
                # The step cap, or slacks lost to rounding.
                stop, cert = "undecided", self._separated(z, r, real, tol)
            finished = mu
            if stop:
                break
            ip, iq = 1.0 / (lam - t), 1.0 / (1.0 - t - lam)
            pp, qq = np.multiply.outer(ip, ip), np.multiply.outer(iq, iq)
            root, diag = np.sqrt(pp + qq), ip * ip + iq * iq
            # The step S = root o dC in the eigenbasis solves a
            # least-squares problem in the constraints F_j = G_j / root,
            # here by one QR: the multipliers grow like the inverse slacks,
            # and normal equations would cancel them. The t column and the
            # gradient are diagonal.
            f = (vh @ g @ v / root).reshape(n, -1)
            if not real:
                f = np.hstack([f.real, f.imag])
            q, tri = np.linalg.qr(f.T)
            qd = q[dia]
            pull = (iq - ip) / np.sqrt(diag)
            along = pull * (iq + ip)
            qg, qh = pull @ qd, along @ qd
            fix = np.linalg.solve(tri.T, b - (flat @ c.reshape(-1)).real)
            # The Schur complement in t and its right side, in forms
            # without cancellation.
            cross = ip * iq / diag
            curve = 4.0 * (cross * ip * iq).sum() + qh @ qh
            push = 2.0 * (cross * (ip + iq)).sum() + qh @ (fix + qg)
            while True:
                dt = (1.0 / mu - push) / curve
                coef = fix + qg + dt * qh
                step_s = q @ coef
                step_s[dia] -= pull + dt * along
                dc = (step_s if real else step_s[:k * k]
                      + 1j * step_s[k * k:]).reshape(k, k) / root
                # Rounding in Q leaves a skew part that no constraint
                # sees but L does; drop it.
                dc = 0.5 * (dc + dc.conj().T)
                # The decrement^2: the slack steps, scaled by the slacks.
                sx, sy = dc - dt * eye, dc + dt * eye
                dec = (np.vdot(sx * pp, sx) + np.vdot(sy * qq, sy)).real
                if dec > 0.1:
                    break
                if -t > 2.0 * k * mu:
                    cert = self.outside_certified(z, r, tol, self.direction(
                        np.linalg.solve(tri, coef), real))
                    if cert is not None:
                        break
                mu *= 0.01
            if cert is not None:
                break
            step = 1.0 / (1.0 + math.sqrt(dec))
            c = c + step * np.where(self.mask, v @ dc @ vh, 0.0)
            t += step * dt
            steps += 1
            lam, v = np.linalg.eigh(c)
        res = float(np.linalg.norm(r))
        feasible = cert is None and res <= tol
        # A capped iterate answers too, clipped, if it reproduces z.
        stop = "outside" if cert else "undecided" if not feasible else \
            "face" if stop == "undecided" else stop
        return MembershipReport(feasible, _witness(self.to_matrix(
            w[self.mask])), res, steps, stop, "barrier",
            *(cert or (None, None)))

    def solve(self, z: np.ndarray, tol: float, budget: int
              ) -> MembershipReport:
        """Candidates (:meth:`_candidates`, gated at min(tol,
        ROUNDING_TOL)), then the span test, then the presolve
        (:meth:`_presolve`) and, unless it answers, the barrier solve, with
        at most ``budget`` Newton steps in all. The span test is
        :meth:`outside_certified` at c0 in the direction r = target(z) - a c0,
        the part of z off the span of the Gram operators (a span the adjoint
        maps onto itself): on a diagonal Kraus basis, z's off-diagonal part.
        h need not vanish on r up to rounding, so the gap is taken from
        ``support``.
        """
        zvec = self.target(z)
        real, c0, centre = self.points(zvec)
        off = zvec - self.a @ c0
        found = self._candidates(zvec, c0, centre, off, min(tol, ROUNDING_TOL))
        if found is not None:
            return MembershipReport(True, _witness(self.to_matrix(found[0])),
                                    found[2], 0, found[1], "candidate")
        cert = self.outside_certified(z, off, tol)
        if cert is not None:
            box = self.project_box(c0)
            return MembershipReport(
                False, _witness(self.to_matrix(box)),
                float(np.linalg.norm(self.a @ box - zvec)), 0, "outside",
                "span", *cert)
        found, spent = self._presolve(z, zvec, real, c0, tol, budget)
        if found is not None:
            return found
        rep = self._barrier(z, zvec, real, c0, centre, tol, budget - spent)
        rep.iterations += spent
        return rep


def membership(z, spec: ZonoidSpec, tol: float = MEMBERSHIP_TOL
               ) -> MembershipReport:
    """Decide whether ``z`` lies in the zonoid of ``spec``.

    The report's residual is ||L(C) - z||_F at the returned witness, which
    is box feasible to ROUNDING_TOL in its eigenvalues; ``feasible`` is the
    comparison against ``tol``, and a feasible witness, clipped into the
    box, still reproduces z within ``tol``.
    A point whose part outside the linear span of the Gram operators
    K_m^dag K_n separates it from the zonoid by more than ``tol`` is
    answered before any Newton step (phase ``span``, 0 iterations) with
    that part, normalised, as the separating direction.
    MEMBERSHIP_MAX_ITER bounds the Newton steps of the presolve and the
    barrier solve together.
    Raises ValueError unless z is a Hermitian d x d operator with finite
    entries and a finite norm.
    """
    z = _hermitian_input(z, spec.dim, "membership")
    return spec.solver().solve(z, tol, MEMBERSHIP_MAX_ITER)


def _hermitian_input(z, d: int, caller: str) -> np.ndarray:
    """``z`` as a d x d matrix; ValueError, naming ``caller``, unless it
    has that shape, finite entries and a finite norm, and is Hermitian to
    INPUT_HERMITICITY_TOL."""
    z = as_matrix(z)
    if z.shape != (d, d):
        raise ValueError(f"{caller} expects a {d} x {d} operator, got shape "
                         f"{z.shape}")
    if not has_finite_norm(z):
        raise ValueError(f"{caller} expects a finite operator")
    if not hermitian_within(z, INPUT_HERMITICITY_TOL):
        raise ValueError(f"{caller} expects a Hermitian operator")
    return z


def support_function(x, spec: ZonoidSpec) -> float:
    """Support function h(x) = max over the zonoid of Re<x, .>.

    Equal to the sum of positive eigenvalues of the basis overlap matrix
    A[m', m] = Tr(x Khat_m^dag Khat_m'), blockwise when blocks are present.
    Raises ValueError as :func:`membership` does.
    """
    x = _hermitian_input(x, spec.dim, "support_function")
    return float(spec.solver().support(x[None])[0])


def zonoid_bytes(basis: KrausSet | Instrument, real_target: bool) -> int:
    """Traced peak bytes of a zonoid-check run on ``basis`` as parsed from
    JSON (200 bytes an operator entry): a Choi matrix for each outcome of
    two or more operators, or, if larger, the map on E entries (with its
    real copy on a real basis), ``a``, the slice's lift from the
    coordinates of z to the m masked coefficients and six copies of its r
    constraints of kappa^2 entries in the barrier solve, with 300 bytes an
    entry of the d x d target and report. E is
    bounded without a d x d array: each distinct nonzero pattern S of an
    output row reaches S x S. With a real basis and target the slice is
    real, on the real parts of at most (E + d) / 2 entries with r at most
    that; otherwise complex, with twice the coordinates and r <= E."""
    kraus = basis.kraus if isinstance(basis, Instrument) else basis
    blocks = getattr(basis, "partition", [range(kraus.n_operators)])
    ops, d = kraus.operators, kraus.input_dim
    rows = np.unique((ops != 0).any(axis=0), axis=0)
    n = min(d * d, int((rows.sum(axis=1) ** 2).sum())) + 1
    m = sum(len(b) ** 2 for b in blocks)
    k2 = len(ops) ** 2
    coords = (n - 1 + d) // 2
    real = not ops.imag.any()
    if real_target and real:
        width, r = 8, min(coords, sum(len(b) * (len(b) + 1) // 2
                                      for b in blocks))
    else:
        width, r, coords = 16, min(n - 1, m), 2 * coords
    choi = kraus is not basis and max(map(len, blocks)) > 1
    return max(36 * choi * (d * kraus.output_dim) ** 2, 200 * ops.size,
               (24 if real else 16) * n * k2 + 16 * n * m
               + width * (m * coords + 6 * r * k2)
               + 300 * d * d)


def _canonical_directions(d: int) -> np.ndarray:
    """The canonical Hermitian basis of d x d, stacked: the diagonal units,
    then the real and the imaginary pair of each i < j, row-major."""
    r = 1.0 / np.sqrt(2.0)
    i, j = np.triu_indices(d, 1)
    re = d + 2 * np.arange(len(i))
    out = np.zeros((d + 2 * len(i), d, d), dtype=complex)
    out[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    out[re, i, j] = out[re, j, i] = r
    out[re + 1, i, j], out[re + 1, j, i] = -1j * r, 1j * r
    return out


def _directions(d: int, samples: int, seed: int) -> np.ndarray:
    """Probe directions, stacked: the canonical Hermitian basis, then
    ``samples`` seeded Gaussian Hermitian directions of unit Frobenius norm.

    Each direction takes the real then the imaginary part of a d x d draw
    from one sequential stream, so a larger ``samples`` extends the same
    direction set.
    """
    draw = np.random.default_rng(seed).standard_normal((samples, 2, d, d))
    g = draw[:, 0] + 1j * draw[:, 1]
    h = 0.5 * (g + g.conj().transpose(0, 2, 1))
    # The dot products np.linalg.norm takes on the real and imaginary
    # views, one per direction, so each norm is bitwise the unbatched one.
    flat = h.reshape(samples, 1, d * d)
    sq = (flat.real @ flat.real.transpose(0, 2, 1)
          + flat.imag @ flat.imag.transpose(0, 2, 1))
    nrm = np.sqrt(sq.reshape(samples))
    keep = nrm > 0.0
    return np.concatenate([_canonical_directions(d),
                           h[keep] / nrm[keep, None, None]])


def hausdorff_estimate(a: ZonoidSpec, b: ZonoidSpec, samples: int = 2000,
                       seed: int = 42) -> float:
    """Lower estimate of the Hausdorff distance between two zonoids.

    Maximizes |h_a(x) - h_b(x)| over the canonical Hermitian basis plus
    ``samples`` seeded Gaussian directions of unit Frobenius norm. The
    direction stream is sequential, so a larger sample count extends the
    same direction set and the estimate is monotone in ``samples``.
    """
    if a.dim != b.dim:
        raise ValueError("zonoids live on different spaces")
    xs = _directions(a.dim, samples, seed)
    return float(np.max(np.abs(a.solver().support(xs)
                               - b.solver().support(xs))))


def separation_gap(z, spec: ZonoidSpec, samples: int = 500, seed: int = 7
                   ) -> float:
    """Best found value of Re<x, z> - h(x) over sampled directions.

    The directions are those of ``hausdorff_estimate``. A positive value
    certifies that ``z`` is outside the zonoid. Raises ValueError as
    :func:`membership` does.
    """
    z = _hermitian_input(z, spec.dim, "separation_gap")
    xs = _directions(spec.dim, samples, seed)
    pairing = np.real(np.einsum("kab,ab->k", xs.conj(), z))
    return float(np.max(pairing - spec.solver().support(xs)))


def endpoint_cmatrix(k_leaf, spec: ZonoidSpec) -> CoefficientMatrix:
    """Rank-one coefficient matrix of a path endpoint.

    Expands the leaf operator over the basis, k = sum_m w_m Khat_m (within
    one block when blocks are present), and returns C = conj(w) w^T so that
    L(C) = k^dag k. A 1-D real ``k_leaf`` is the diagonal of a diagonal
    operator: its expansion reads only the diagonal columns of each
    block's map, and C is real when the basis is. Raises NotInSpanError
    when no block admits the expansion.
    """
    solver = spec.solver()
    d = solver.dim
    k = np.asarray(k_leaf)
    diagonal = k.ndim == 1 and k.dtype.kind in "biuf"
    if not diagonal:
        k = as_matrix(k)
    if k.shape != ((d,) if diagonal else (d, d)):
        raise ValueError(f"operator shape {k.shape} does not match basis "
                         f"{spec.basis.operators.shape[1:]}")
    kvec = k.reshape(-1)
    scale = max(1.0, float(np.linalg.norm(kvec)))
    best_res = np.inf
    best_w = None
    for blk, (cols, pinv) in zip(spec.block_list(), solver.expansions()):
        if diagonal:
            if solver.real:
                cols, pinv = cols.real, pinv.real
            x = pinv[:, ::d + 1] @ kvec
            gap = cols @ x
            gap[::d + 1] -= kvec
        else:
            x = pinv @ kvec
            gap = cols @ x - kvec
        res = float(np.linalg.norm(gap))
        if res < best_res:
            best_res = res
            best_w = np.zeros(spec.kappa, dtype=x.dtype)
            best_w[list(blk)] = x
    if best_w is None or best_res > SPAN_TOL * scale:
        raise NotInSpanError(
            f"endpoint operator is outside the basis span "
            f"(best residual {best_res:.3e})"
        )
    # conj(w) w^T is Hermitian bit for bit, so it needs no input check.
    return _witness(np.outer(best_w.conj(), best_w))


def zonoid_spec_for_channel(k: KrausSet) -> ZonoidSpec:
    """Zonoid of a channel over its minimal Kraus basis."""
    return ZonoidSpec(minimal_kraus(k))


def zonoid_spec_for_instrument(inst: Instrument) -> ZonoidSpec:
    """Blocked zonoid of an instrument.

    Each outcome contributes the minimal Kraus set of its branch as one
    block; the total basis is the concatenation.
    """
    ops = []
    blocks = []
    at = 0
    for r in range(inst.n_outcomes):
        mk = minimal_kraus(inst.branch(r))
        ops.extend(mk.operators)
        blocks.append(tuple(range(at, at + mk.n_operators)))
        at += mk.n_operators
    basis = KrausSet(np.array(ops), inst.kraus.input_dims,
                     inst.kraus.output_dims)
    return ZonoidSpec(basis, tuple(blocks))
