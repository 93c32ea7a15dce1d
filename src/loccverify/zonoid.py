"""Zonoid membership and support geometry for operator bases.

The zonoid of a basis {Khat_m} is the set of operators
sum_{mn} C_mn Khat_m^dag Khat_n with coefficient matrices 0 <= C <= 1.
With blocks declared, C is additionally constrained to be block diagonal,
which is the right constraint set for instruments: each outcome contributes
its own block and the boxes combine independently.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .channels import Instrument, KrausSet, minimal_kraus
from .linalg import as_matrix, has_finite_norm, is_hermitian
from .tolerances import (INDEPENDENCE_TOL, INPUT_HERMITICITY_TOL,
                         MEMBERSHIP_TOL, RESOLUTION_TOL, ROUNDING_TOL,
                         SPAN_TOL)

MEMBERSHIP_MAX_ITER = 10000


class NotInSpanError(ValueError):
    """An operator could not be expanded over the basis."""


def coefficient_stack(m) -> np.ndarray:
    """Hermitian parts of a coefficient matrix or a stack (..., k, k) of them.

    Raises ValueError unless every matrix is square and Hermitian to
    INPUT_HERMITICITY_TOL relative to 1 + its largest entry, the rule of
    :class:`CoefficientMatrix`, which keeps the result for one matrix.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("coefficient matrix must be square")
    ah = a.conj().swapaxes(-1, -2)
    scale = 1.0 + np.abs(a).max(axis=(-2, -1), initial=0.0)
    skew = np.abs(a - ah).max(axis=(-2, -1), initial=0.0)
    if not (skew <= INPUT_HERMITICITY_TOL * scale).all():
        raise ValueError("coefficient matrix must be Hermitian")
    return 0.5 * (a + ah)


@dataclass(frozen=True)
class CoefficientMatrix:
    """Hermitian coefficient matrix over a zonoid basis.

    Frozen, with a read-only array, so the matrix checked and symmetrised
    here is the one it keeps.
    """

    matrix: np.ndarray

    def __post_init__(self):
        sym = coefficient_stack(as_matrix(self.matrix))
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


@dataclass
class ZonoidSpec:
    """Basis operators defining a zonoid, optionally split into blocks.

    Blocks are tuples of 0-based indices into the basis. Within each block
    the operators must be linearly independent; across blocks they need not
    be, since the coefficient matrix never couples blocks.
    """

    basis: KrausSet
    blocks: tuple[tuple[int, ...], ...] | None = None
    _solver: "_MembershipSolver | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.blocks is not None:
            blocks = tuple(tuple(int(i) for i in blk) for blk in self.blocks)
            seen: set[int] = set()
            for blk in blocks:
                if not blk:
                    raise ValueError("empty block")
                for i in blk:
                    if i in seen:
                        raise ValueError(f"basis index {i} in two blocks")
                    seen.add(i)
            if seen != set(range(self.basis.n_operators)):
                raise ValueError("blocks must cover every basis operator")
            self.blocks = blocks
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
        if self._solver is None:
            self._solver = _MembershipSolver(self.basis.operators,
                                             self.block_list())
        return self._solver


@dataclass
class MembershipReport:
    """Answer of one membership solve.

    ``phase`` says which problem answered: ``candidate`` (an exact
    candidate with a residual at most min(tol, ROUNDING_TOL): the
    identity, the slice point nearest the box centre or the minimum-norm
    slice point a^+ z), ``span`` (z lies outside the linear span of the
    Gram operators, certified before any descent), ``descent`` (the
    descent on the whole box) or ``face-<k>`` (the descent on a face
    reached by k facial-reduction steps; only feasible answers come from
    a face).
    ``face_x`` is then the canonical direction, or its negative, that
    exposed the first face, else None. ``stop`` says how the answering
    problem stopped: ``identity`` when the identity answered, ``affine``
    when one of the two slice points did (or a face pinned C), otherwise
    the descent's stop rule: ``converged`` (residual <= 0.005 * tol),
    ``small-step`` (the iterate moved by <= 1e-13), ``stalled`` (400
    iterations without a relative gain of 1e-6), ``outside`` (a separating
    direction certified the point infeasible; the one stop of ``span``)
    or ``max-iter``. ``stop`` and ``phase`` are empty on a report built
    without them.

    A descent that ends infeasible with any other stop (``small-step``,
    ``stalled``, ``max-iter``) is tested once more at its best witness W,
    in the directions r = z - L(W) and then (a a^H)^+ r; if either
    certifies, its stop becomes ``outside``. An ``outside`` answer
    carries its certificate: ``separating`` is the unit Hermitian
    direction x and ``gap`` is Re<x, z> - h(x) > tol, a lower bound on the
    distance from z to the zonoid that anyone can recompute with
    :func:`support_function`. Every other answer leaves both None.

    ``residual`` is ||L(W) - z||_F of the returned witness W itself, not
    a distance to the zonoid. For a ``span`` answer W is the box
    projection of a^+ z, so the residual can lie far above that distance;
    ``gap`` is the certified lower bound on it.
    """

    feasible: bool
    witness: CoefficientMatrix | None
    residual: float
    iterations: int
    stop: str = ""
    phase: str = ""
    face_x: np.ndarray | None = None
    separating: np.ndarray | None = None
    gap: float | None = None


class _MembershipSolver:
    """Projection machinery shared by every membership query on one spec.

    The feasible set is the intersection of the affine slice
    {C block-supported : L(C) = z} with the spectral box {0 <= C <= 1}.
    Exact candidates are tried first (:meth:`_candidates`: the identity,
    the slice point nearest the box centre and the minimum-norm slice
    point a^+ z), then a point outside the span of L is certified outside
    at once. Otherwise accelerated projected gradient (FISTA, Beck and
    Teboulle 2009) minimises half the squared distance from C to the slice
    over the box, restarting its momentum whenever the step goes uphill
    (O'Donoghue and Candes 2015), so every iterate is box feasible and the
    residual ||L(C) - z|| of the best one decides the answer.

    L is held once, as ``lmap`` on the output entries (``rows``, ``cols``)
    that the basis ``ops`` reaches; it is zero on the others. The descent
    carries C as the vector of its block-supported entries and z as
    :meth:`target`, so L is the matrix ``a`` and the distance to the slice
    is ||a^+ (a c - z)||. Its gradient a^+ (a c - z) applies the projector
    onto the row space of ``a``, so the Lipschitz constant is 1 however
    ill-conditioned L is, and a step of length 1 is y - a^+ (a y - z).

    Where the slice meets the box only on a face there is no Slater point
    and the descent crawls. So a descent that has neither converged nor
    been certified outside by iteration 100 looks once for such a face and
    solves there (``_face_solve``); if that fails to reach ``tol`` it
    carries on, so every infeasible answer comes from the whole problem.
    """

    def __init__(self, ops: np.ndarray, blocks):
        kappa, _, d = ops.shape
        self.ops, self.kappa, self.dim = ops, kappa, d
        # The entries (a, c) of Khat_m^dag Khat_n that some output row b
        # with nonzero (b, a) and (b, c) reaches, row-major.
        reach = (ops != 0).any(axis=0).astype(float)
        self.rows, self.cols = rows, cols = np.nonzero(reach.T @ reach)
        # lmap[e, m, n] = (Khat_m^dag Khat_n)[rows[e], cols[e]].
        self.lmap = lmap = np.einsum("mbe,nbe->emn", ops[:, :, rows].conj(),
                                     ops[:, :, cols])
        # The flat reached entries, then a slot for the norm of z off them.
        self.slots = np.append(rows * d + cols, 0)
        self.off = np.delete(np.arange(d * d), self.slots[:-1])
        self.blocks = [list(blk) for blk in blocks]
        self.grids = [np.ix_(blk, blk) for blk in self.blocks]
        self.mask = mask = np.zeros((kappa, kappa), dtype=bool)
        for grid in self.grids:
            mask[grid] = True
        # L on the masked entries, then a zero row for that slot.
        self.a = np.vstack([lmap[:, mask], np.zeros(int(mask.sum()))])
        self.a_pinv = np.linalg.pinv(self.a, rcond=1e-13)
        self.ident = np.eye(kappa, dtype=np.complex128)[mask]
        self.ident_image = self.a @ self.ident
        # a^+ z + mid is the slice point nearest the box centre I/2.
        self.mid = 0.5 * (self.ident - self.a_pinv @ self.ident_image)

    def target(self, z: np.ndarray) -> np.ndarray:
        """z at the reached entries, then the norm of its part off them, so
        that ||a c - target(z)|| = ||L(C) - z|| for every masked vector c."""
        zvec, off = z.take(self.slots), z.take(self.off)
        zvec[-1] = math.sqrt(np.vdot(off, off).real)
        return zvec

    def image(self, c: np.ndarray) -> np.ndarray:
        """L(C) of a coefficient matrix, or of each of a stack (..., k, k):
        the map's values scattered into zero d x d matrices."""
        out = np.zeros(c.shape[:-2] + (self.dim, self.dim), dtype=complex)
        out[..., self.rows, self.cols] = np.einsum("...mn,emn->...e", c,
                                                   self.lmap)
        return out

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

    def in_box(self, c: np.ndarray) -> bool:
        """:meth:`in_box_each` of the one matrix ``c``."""
        return bool(self.in_box_each(c[None])[0])

    def in_box_each(self, cs: np.ndarray) -> np.ndarray:
        """Whether each matrix of the stack ``cs``, (n, k, k), lies in the
        box: every block's eigenvalues in [0, 1] to ``ROUNDING_TOL``. One
        eigvalsh of each masked Hermitian part serves every block: that
        matrix is block diagonal up to a permutation, so its spectrum is
        the union of its blocks' spectra."""
        m = np.where(self.mask, 0.5 * (cs + cs.conj().swapaxes(-1, -2)), 0.0)
        w = np.linalg.eigvalsh(m)
        return (w[:, 0] >= -ROUNDING_TOL) & (w[:, -1] <= 1.0 + ROUNDING_TOL)

    def overlap(self, xt: np.ndarray) -> np.ndarray:
        """A[m', m] = Tr(x Khat_m^dag Khat_m') of each direction x of a
        stack, given by its values x[cols, rows] at the transposed reached
        entries: one product with the map."""
        n, k = len(xt), self.kappa
        lmap_t = self.lmap.transpose(0, 2, 1).reshape(-1, k * k)
        return (xt @ lmap_t).reshape(n, k, k)

    def support(self, xs: np.ndarray) -> np.ndarray:
        """h(x) for each direction of the stack ``xs``, shape (k, d, d)."""
        return self.support_of(self.overlap(xs[:, self.cols, self.rows]))

    def support_of(self, overlap: np.ndarray) -> np.ndarray:
        """h(x) from the overlap matrices A(x) of a stack of directions: the
        sum of the positive eigenvalues of A(x), taken block by block."""
        total = np.zeros(len(overlap))
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

    def _candidates(self, zvec: np.ndarray, c0: np.ndarray, off: np.ndarray,
                    gate: float):
        """An exact witness of z, its stop and its residual, or None: the
        identity, then two points of the slice, the point c0 + mid nearest
        the box centre I/2 in Frobenius norm (the box is the operator-norm
        ball of radius 1/2 about I/2) and c0 = a^+ z. A candidate answers
        when its own residual ||a c - z|| is at most ``gate`` and it lies
        in the box. The residual of c0 is ||off||, the part of z off the
        span of a; that of every slice point is at least it, so a large
        ``off`` skips both before any eigenvalue call."""
        res = float(np.linalg.norm(self.ident_image - zvec))
        if res <= gate:
            return self.ident, "identity", res
        res = float(np.linalg.norm(off))
        if res > gate:
            return None
        centre = c0 + self.mid
        near = float(np.linalg.norm(self.a @ centre - zvec))
        if near <= gate and self.in_box(self.to_matrix(centre)):
            return centre, "affine", near
        return (c0, "affine", res) if self.in_box(self.to_matrix(c0)) else None

    def expose_face(self, z: np.ndarray):
        """A proper face of the zonoid that holds z, or None.

        The first direction x, among the canonical directions on the
        reached entries and then their negatives, with A(x) nonzero and
        |Re<x, z> - h(x)| <= ROUNDING_TOL exposes it. The negatives expose
        the faces on which C vanishes on some vector, such as a zero block.
        Every box point C with Re<x, L(C)> = h(x) is 1 on the positive
        eigenspace of A(x) and 0 on the negative one, so the face is the
        image of C = P + V0 Y V0^H with P the projector onto the positive
        eigenvectors and 0 <= Y <= 1 on the kernel columns V0. Returns
        (x, P, V0, blocks of Y); the columns of V0 keep the block order,
        so Y stays block diagonal. The spectra are taken an eighth of the
        directions at a time, and h(-x) is h(x) - Tr A(x).
        """
        ents, vals = _canonical_directions(self.rows, self.cols)
        # A Hermitian x holds conj(x[a, c]) at the transposed entry (c, a),
        # so A(x) sums conj(value) lmap_t[entry] over its two terms.
        lmap_t, n = self.lmap.transpose(0, 2, 1), len(ents)
        h = np.concatenate([self.support_of(np.einsum(
            "kj,kjmn->kmn", vals[ks].conj(), lmap_t[ents[ks]]))
            for ks in np.array_split(np.arange(n), min(n, 8))])
        pairing = np.real((vals.conj() * z[self.rows, self.cols][ents]).sum(1))
        trace = np.real(
            (vals.conj() * np.einsum("emm->e", self.lmap)[ents]).sum(1))
        gaps = np.abs(np.concatenate([pairing - h, trace - h - pairing]))
        for k in np.flatnonzero(gaps <= ROUNDING_TOL):
            x = np.zeros((self.dim, self.dim), dtype=complex)
            for e, v in zip(ents[k % n, ::-1], vals[k % n, ::-1]):
                x[self.rows[e], self.cols[e]] = v
            x = x if k < n else -x
            a = self.overlap(x[self.cols, self.rows][None])[0]
            pos, ker, blocks = [], [], []
            width = 0
            for blk, grid in zip(self.blocks, self.grids):
                sub = a[grid]
                w, v = np.linalg.eigh(0.5 * (sub + sub.conj().T))
                cols = np.zeros((self.kappa, len(blk)), dtype=np.complex128)
                cols[blk] = v
                zero = np.abs(w) <= ROUNDING_TOL
                pos.append(cols[:, w > ROUNDING_TOL])
                ker.append(cols[:, zero])
                n0 = int(zero.sum())
                if n0:
                    blocks.append(tuple(range(width, width + n0)))
                    width += n0
            if width < self.kappa:
                p = np.hstack(pos)
                return x, p @ p.conj().T, np.hstack(ker), blocks
        return None

    def _face_solve(self, z: np.ndarray, tol: float, budget: int,
                    c: np.ndarray) -> MembershipReport | None:
        """Answer z on the face of the zonoid that holds it, or None.

        Facial reduction (Borwein and Wolkowicz 1981; Permenter and Parrilo
        2018): while a canonical direction or its negative exposes a face
        (:meth:`expose_face`), fix C on it and keep the kernel columns,
        each step dropping at least one dimension. The descent on the last
        face needs no Slater point of the whole box; it starts from the
        compression V0^H C V0 of the descent's iterate ``c`` (a masked
        vector). Its witness is lifted back to a kappa x kappa one and
        judged by the box and image rules of the whole problem; the report
        is feasible only if that witness passes.
        """
        solver, target, steps, face_x = self, z, [], None
        start = self.to_matrix(c)
        while True:
            face = solver.expose_face(target)
            if face is None:
                break
            x, proj, ker, blocks = face
            face_x = x if face_x is None else face_x
            steps.append((proj, ker))
            target = target - solver.image(proj)
            start = ker.conj().T @ start @ ker
            if not blocks:
                solver = None
                break
            # The basis K'_a = sum_n conj(ker[n, a]) Khat_n, so that
            # L'(Y) = L(ker Y ker^H); the last face's solver is let go first.
            ops, solver = np.einsum("na,nbc->abc", ker.conj(), solver.ops), None
            solver = _MembershipSolver(ops, blocks)
        if not steps:
            return None
        if solver is None:
            # The face pins C: the one point of the slice is the candidate.
            inner, iters, stop = np.zeros((0, 0)), 0, "affine"
        else:
            rep = solver.solve(target, tol, budget, faces=False,
                               start=start[solver.mask])
            inner, iters, stop = rep.witness.matrix, rep.iterations, rep.stop
        for proj, ker in reversed(steps):
            inner = proj + ker @ inner @ ker.conj().T
        witness = CoefficientMatrix(self.to_matrix(inner[self.mask]))
        res = float(np.linalg.norm(self.a @ witness.matrix[self.mask]
                                   - self.target(z)))
        return MembershipReport(self.in_box(witness.matrix) and res <= tol,
                                witness, res, iters, stop,
                                f"face-{len(steps)}", face_x)

    def _descend(self, z: np.ndarray, c0: np.ndarray, tol: float,
                 budget: int, faces: bool) -> MembershipReport:
        zvec = self.target(z)
        c = self.project_box(c0)
        y = c
        t = 1.0
        best = c
        best_res = float(np.linalg.norm(self.a @ c - zvec))
        last_improve = 0
        cert = None
        # it counts this descent's steps, iters those of the whole solve.
        iters = 0
        it = -1
        stop = "max-iter"
        while iters < budget:
            it += 1
            iters += 1
            g = y - self.a_pinv @ (self.a @ y - zvec)
            cn = self.project_box(g)
            # y - g is the gradient, so this is the sign of Re<grad, cn - c>.
            if np.vdot(y - g, cn - c).real > 0.0:
                # The momentum step went uphill: restart from c.
                t = 1.0
                cn = self.project_box(c - self.a_pinv @ (self.a @ c - zvec))
            delta = cn - c
            tn = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = cn + ((t - 1.0) / tn) * delta
            move = float(np.linalg.norm(delta))
            c, t = cn, tn
            res = float(np.linalg.norm(self.a @ c - zvec))
            if res < best_res - max(1e-15, 1e-6 * best_res):
                last_improve = it
            if res < best_res:
                best_res = res
                best = c
            if res <= 0.005 * tol:
                stop = "converged"
                break
            if move <= 1e-13:
                stop = "small-step"
                break
            if it - last_improve >= 400:
                stop = "stalled"
                break
            if it % 100 == 99:
                r = zvec - self.a @ c
                # Near the minimiser a^H (a a^H)^+ r lies in the normal
                # cone of the box at c, so (a a^H)^+ r is the direction.
                cert = self.outside_certified(
                    z, r, tol, self.a_pinv.conj().T @ (self.a_pinv @ r))
                if cert is not None:
                    stop = "outside"
                    break
                if it == 99 and faces:
                    found = self._face_solve(z, tol, budget - iters, c)
                    if found is not None:
                        iters += found.iterations
                        if found.feasible:
                            return dataclasses.replace(found,
                                                       iterations=iters)
        if cert is None and best_res > tol:
            # Any other infeasible stop: test r = z - L(C) at the best
            # witness, then the checkpoint's direction (a a^H)^+ r, the
            # one that certifies where the descent stopped moving.
            r = zvec - self.a @ best
            cert = (self.outside_certified(z, r, tol)
                    or self.outside_certified(
                        z, r, tol, self.a_pinv.conj().T @ (self.a_pinv @ r)))
            if cert is not None:
                stop = "outside"
        x, gap = (None, None) if cert is None else cert
        return MembershipReport(best_res <= tol,
                                CoefficientMatrix(self.to_matrix(best)),
                                float(best_res), iters, stop, "descent",
                                separating=x, gap=gap)

    def solve(self, z: np.ndarray, tol: float, budget: int,
              faces: bool = True, start: np.ndarray | None = None
              ) -> MembershipReport:
        """Candidates, then the span test, then the descent with at most
        ``budget`` iterations, face steps included. The candidates are the
        identity and two slice points, the point nearest the box centre
        and c0 = a_pinv z; each needs a residual at most
        min(tol, ROUNDING_TOL), and the descent starts at c0 either way.
        ``faces`` allows the facial reduction; ``start`` (a masked vector)
        replaces the descent's start c0.

        The span test is :meth:`outside_certified` at c0 = a_pinv z in
        the direction of r = z - L(c0) itself, the part of z outside the
        span of the Gram operators, a span the adjoint maps onto itself.
        On a basis of diagonal Kraus operators it is the off-diagonal part
        of z. h need not vanish on its direction up to rounding, so the gap
        is still taken from ``support``.
        """
        zvec = self.target(z)
        c0 = self.a_pinv @ zvec
        off = zvec - self.a @ c0
        found = self._candidates(zvec, c0, off, min(tol, ROUNDING_TOL))
        if found is not None:
            cand, stop, res = found
            return MembershipReport(True,
                                    CoefficientMatrix(self.to_matrix(cand)),
                                    res, 0, stop, "candidate")
        cert = self.outside_certified(z, off, tol)
        if cert is not None:
            box = self.project_box(c0)
            res = float(np.linalg.norm(self.a @ box - zvec))
            return MembershipReport(False,
                                    CoefficientMatrix(self.to_matrix(box)),
                                    res, 0, "outside", "span",
                                    separating=cert[0], gap=cert[1])
        return self._descend(z, c0 if start is None else start, tol, budget,
                             faces)


def membership(z, spec: ZonoidSpec, tol: float = MEMBERSHIP_TOL
               ) -> MembershipReport:
    """Decide whether ``z`` lies in the zonoid of ``spec``.

    The report's residual is ||L(C) - z||_F at the returned witness, which
    is always box feasible; ``feasible`` is the comparison against ``tol``.
    A point whose part outside the linear span of the Gram operators
    K_m^dag K_n separates it from the zonoid by more than ``tol`` is
    answered before any descent (phase ``span``, 0 iterations) with that
    part, normalised, as the separating direction; its residual, that of
    the box projection of a^+ z, is at least its distance to the span but
    may lie far above its distance to the zonoid, which ``gap`` bounds
    from below.
    MEMBERSHIP_MAX_ITER bounds the descent iterations of the whole solve,
    those on a face of the zonoid included. Raises ValueError unless z is
    a Hermitian d x d operator with finite entries and a finite norm.
    """
    z = as_matrix(z)
    d = spec.dim
    if z.shape != (d, d):
        raise ValueError(f"operator shape {z.shape} does not match dim {d}")
    if not has_finite_norm(z):
        raise ValueError("membership expects a finite operator")
    if not is_hermitian(z, INPUT_HERMITICITY_TOL):
        raise ValueError("membership expects a Hermitian operator")
    return spec.solver().solve(z, tol, MEMBERSHIP_MAX_ITER)


def support_function(x, spec: ZonoidSpec) -> float:
    """Support function h(x) = max over the zonoid of Re<x, .>.

    Equal to the sum of positive eigenvalues of the basis overlap matrix
    A[m', m] = Tr(x Khat_m^dag Khat_m'), blockwise when blocks are present.
    """
    x = as_matrix(x)
    if not is_hermitian(x, INPUT_HERMITICITY_TOL):
        raise ValueError("support directions must be Hermitian")
    return float(spec.solver().support(x[None])[0])


def zonoid_bytes(basis: KrausSet | Instrument) -> int:
    """Traced peak bytes of a zonoid-check run on ``basis`` as parsed from
    JSON (200 bytes an operator entry): a Choi matrix for each outcome of
    two or more operators, then the map on E entries while pinv takes
    ``a``, its conjugate, singular vectors and result, and 300 bytes an
    entry of the d x d target and report. E is bounded without a d x d
    array: each distinct nonzero pattern S of an output row reaches S x S.
    A face step's direction search holds less; its face solver is not
    counted."""
    kraus = basis.kraus if isinstance(basis, Instrument) else basis
    blocks = getattr(basis, "partition", [range(kraus.n_operators)])
    ops, d = kraus.operators, kraus.input_dim
    rows = np.unique((ops != 0).any(axis=0), axis=0)
    n = min(d * d, int((rows.sum(axis=1) ** 2).sum())) + 1
    m = sum(len(b) ** 2 for b in blocks)
    choi = kraus is not basis and max(map(len, blocks)) > 1
    return max(36 * choi * (d * kraus.output_dim) ** 2, 200 * ops.size,
               16 * n * (len(ops) ** 2 + 4 * m + 2 * min(n, m)) + 300 * d * d)


def _canonical_directions(rows: np.ndarray, cols: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """The unit Hermitian directions on row-major entries closed under
    transposition, each as two (entry, value) terms, the second zero for
    a diagonal unit: the diagonal units, then the real and the imaginary
    pair of each i < j; on all d^2 entries, the canonical basis."""
    r = 1.0 / np.sqrt(2.0)
    # Entry t[e] is the transpose of entry e.
    t = np.lexsort((rows, cols))
    diag, upper = np.flatnonzero(rows == cols), np.flatnonzero(rows < cols)
    pairs = np.repeat(np.stack([upper, t[upper]], axis=1), 2, axis=0)
    ents = np.concatenate([np.stack([diag, diag], axis=1), pairs])
    vals = np.concatenate([np.tile([1.0, 0.0], (len(diag), 1)),
                           np.tile([[r, r], [-1j * r, 1j * r]],
                                   (len(upper), 1))])
    return ents, vals


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
    ents, vals = _canonical_directions(*np.indices((d, d)).reshape(2, -1))
    table = np.zeros((d * d, d * d), dtype=complex)
    # Second terms first: a diagonal unit's zero one shares its entry.
    for j in (1, 0):
        table[np.arange(d * d), ents[:, j]] = vals[:, j]
    return np.concatenate([table.reshape(-1, d, d),
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
    certifies that ``z`` is outside the zonoid.
    """
    z = as_matrix(z)
    xs = _directions(spec.dim, samples, seed)
    pairing = np.real(np.einsum("kab,ab->k", xs.conj(), z))
    return float(np.max(pairing - spec.solver().support(xs)))


def endpoint_cmatrix(k_leaf, spec: ZonoidSpec) -> CoefficientMatrix:
    """Rank-one coefficient matrix of a path endpoint.

    Expands the leaf operator over the basis, k = sum_m w_m Khat_m (within
    one block when blocks are present), and returns C = conj(w) w^T so that
    L(C) = k^dag k. Raises NotInSpanError when no block admits the
    expansion.
    """
    k = as_matrix(k_leaf)
    ops = spec.basis.operators
    if k.shape != ops.shape[1:]:
        raise ValueError(
            f"operator shape {k.shape} does not match basis {ops.shape[1:]}"
        )
    kvec = k.reshape(-1)
    scale = max(1.0, float(np.linalg.norm(kvec)))
    best_res = np.inf
    best_w = None
    for blk in spec.block_list():
        bmat = ops[list(blk)].reshape(len(blk), -1)
        x, *_ = np.linalg.lstsq(bmat.T, kvec, rcond=None)
        res = float(np.linalg.norm(bmat.T @ x - kvec))
        if res < best_res:
            best_res = res
            w = np.zeros(spec.kappa, dtype=np.complex128)
            w[list(blk)] = x
            best_w = w
    if best_w is None or best_res > SPAN_TOL * scale:
        raise NotInSpanError(
            f"endpoint operator is outside the basis span "
            f"(best residual {best_res:.3e})"
        )
    return CoefficientMatrix(np.outer(best_w.conj(), best_w))


def cmatrix_resolution_check(cmats: Iterable, target) -> tuple[bool, float]:
    """Check that the coefficient matrices sum to ``target``.

    Returns (ok, Frobenius defect). Endpoint matrices of a complete path
    assembly must resolve the identity (or a block projector) for the
    underlying protocol to be trace preserving.
    """
    target = as_matrix(target)
    acc = np.zeros_like(target)
    for c in cmats:
        m = c.matrix if isinstance(c, CoefficientMatrix) else as_matrix(c)
        acc = acc + m
    defect = float(np.linalg.norm(acc - target))
    return defect <= RESOLUTION_TOL, defect


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
