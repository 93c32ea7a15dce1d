"""Zonoid membership and support geometry for operator bases.

The zonoid of a basis {Khat_m} is the set of operators
sum_{mn} C_mn Khat_m^dag Khat_n with coefficient matrices 0 <= C <= 1.
With blocks declared, C is additionally constrained to be block diagonal,
which is the right constraint set for instruments: each outcome contributes
its own block and the boxes combine independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .channels import Instrument, KrausSet, minimal_kraus
from .linalg import as_matrix, is_hermitian

MEMBERSHIP_TOL = 1e-7
ALTERNATE_MAX_ITER = 10000
ALTERNATE_STOP = 1e-11
POLISH_MAX_ITER = 10000
CANDIDATE_TOL = 1e-12
INDEPENDENCE_TOL = 1e-10


class NotInSpanError(ValueError):
    """An operator could not be expanded over the basis."""


@dataclass
class CoefficientMatrix:
    """Hermitian coefficient matrix over a zonoid basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError("coefficient matrix must be square")
        if not is_hermitian(m, 1e-10):
            raise ValueError("coefficient matrix must be Hermitian")
        self.matrix = 0.5 * (m + m.conj().T)

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
            self._solver = _MembershipSolver(self)
        return self._solver


@dataclass
class MembershipReport:
    feasible: bool
    witness: CoefficientMatrix | None
    residual: float
    iterations: int


class _MembershipSolver:
    """Projection machinery shared by every membership query on one spec.

    The feasible set is the intersection of the affine slice
    {C block-supported : L(C) = z} with the spectral box {0 <= C <= 1}.
    Alternating Dykstra projections find the intersection when it is fat,
    but stall near degenerate box faces, so exact candidates are tried first
    and a projected-gradient pass afterwards drives the residual of the
    returned box-feasible point down to rounding when the point is feasible.
    """

    def __init__(self, spec: ZonoidSpec):
        ops = spec.basis.operators
        kappa, _, d = ops.shape
        self.kappa = kappa
        self.d = d
        self.blocks = [np.asarray(blk, dtype=int) for blk in spec.block_list()]
        # G[m, n] = Khat_m^dag Khat_n on the input space.
        self.gram_ops = np.einsum("mba,nbc->mnac", ops.conj(), ops)
        mask = np.zeros((kappa, kappa), dtype=bool)
        for blk in self.blocks:
            mask[np.ix_(blk, blk)] = True
        self.mask = mask
        a_full = self.gram_ops.reshape(kappa * kappa, d * d).T
        self.a = a_full[:, mask.reshape(-1)]
        self.a_pinv = np.linalg.pinv(self.a, rcond=1e-13)
        sv = np.linalg.svd(self.a, compute_uv=False)
        self.lipschitz = float(sv[0] ** 2) if sv.size else 1.0

    def image(self, c: np.ndarray) -> np.ndarray:
        return np.einsum("mn,mnac->ac", c, self.gram_ops)

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        g = np.einsum("mnac,ac->mn", self.gram_ops.conj(), x)
        return np.where(self.mask, g, 0.0)

    def residual(self, c: np.ndarray, z: np.ndarray) -> float:
        return float(np.linalg.norm(self.image(c) - z))

    def project_affine(self, c: np.ndarray, zvec: np.ndarray) -> np.ndarray:
        x = c.reshape(-1)[self.mask.reshape(-1)]
        x = x + self.a_pinv @ (zvec - self.a @ x)
        out = np.zeros((self.kappa, self.kappa), dtype=np.complex128)
        out.reshape(-1)[self.mask.reshape(-1)] = x
        return out

    def project_box(self, c: np.ndarray) -> np.ndarray:
        out = np.zeros((self.kappa, self.kappa), dtype=np.complex128)
        for blk in self.blocks:
            sub = c[np.ix_(blk, blk)]
            sub = 0.5 * (sub + sub.conj().T)
            w, v = np.linalg.eigh(sub)
            sub = (v * np.clip(w, 0.0, 1.0)) @ v.conj().T
            out[np.ix_(blk, blk)] = sub
        return out

    def in_box(self, c: np.ndarray, tol: float = 1e-12) -> bool:
        for blk in self.blocks:
            sub = c[np.ix_(blk, blk)]
            w = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
            if w[0] < -tol or w[-1] > 1.0 + tol:
                return False
        return True

    def support(self, x: np.ndarray) -> float:
        overlap = np.einsum("ab,mpba->pm", x, self.gram_ops)
        total = 0.0
        for blk in self.blocks:
            sub = overlap[np.ix_(blk, blk)]
            w = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
            total += float(w[w > 0.0].sum())
        return total

    def outside_certified(self, z: np.ndarray, c: np.ndarray, tol: float
                          ) -> bool:
        """Separating-direction test at the current iterate.

        With x the unit normal from L(c) toward z, any zonoid point y obeys
        Re<x, y> <= h(x), so dist(z, zonoid) >= Re<x, z> - h(x). A gap above
        ``tol`` settles infeasibility without running projections to
        convergence.
        """
        diff = z - self.image(c)
        nrm = float(np.linalg.norm(diff))
        if nrm == 0.0:
            return False
        x = diff / nrm
        gap = float(np.real(np.vdot(x, z))) - self.support(x)
        return gap > tol

    def _candidates(self, z: np.ndarray, zvec: np.ndarray):
        ident = np.where(self.mask, np.eye(self.kappa, dtype=np.complex128),
                         0.0)
        if self.residual(ident, z) <= CANDIDATE_TOL:
            return ident
        c0 = self.project_affine(np.zeros_like(ident), zvec)
        if self.in_box(c0) and self.residual(c0, z) <= CANDIDATE_TOL:
            return c0
        return None

    def _dykstra(self, z: np.ndarray, zvec: np.ndarray, max_iter: int,
                 tol: float):
        x = self.project_affine(
            np.zeros((self.kappa, self.kappa), dtype=np.complex128), zvec
        )
        p = np.zeros_like(x)
        q = np.zeros_like(x)
        best = None
        best_res = np.inf
        stalled_since = 0
        iters = 0
        for it in range(max_iter):
            iters = it + 1
            y = self.project_box(x + p)
            p = x + p - y
            xn = self.project_affine(y + q, zvec)
            q = y + q - xn
            step = float(np.linalg.norm(xn - x))
            x = xn
            res = self.residual(y, z)
            if res < best_res - 0.01 * max(best_res, 1e-300):
                stalled_since = it
            if res < best_res:
                best_res = res
                best = y
            if res <= 0.005 * tol or step <= ALTERNATE_STOP:
                break
            if it - stalled_since >= 500:
                break
            if it % 100 == 99 and self.outside_certified(z, y, tol):
                break
        return best, best_res, iters

    def _polish(self, z: np.ndarray, c0: np.ndarray, max_iter: int,
                tol: float):
        step = 1.0 / max(self.lipschitz, 1e-300)
        c = self.project_box(c0)
        y = c
        t = 1.0
        best = c
        best_res = self.residual(c, z)
        last_improve = 0
        iters = 0
        for it in range(max_iter):
            iters = it + 1
            grad = self.adjoint(self.image(y) - z)
            cn = self.project_box(y - step * grad)
            tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = cn + ((t - 1.0) / tn) * (cn - c)
            move = float(np.linalg.norm(cn - c))
            c, t = cn, tn
            res = self.residual(c, z)
            if res < best_res - max(1e-15, 1e-6 * best_res):
                last_improve = it
            if res < best_res:
                best_res = res
                best = c
            if res <= 0.005 * tol or move <= 1e-13:
                break
            if it - last_improve >= 400:
                break
            if it % 100 == 99 and self.outside_certified(z, c, tol):
                break
        return best, best_res, iters

    def solve(self, z: np.ndarray, tol: float, max_iter: int
              ) -> MembershipReport:
        zvec = z.reshape(-1)
        cand = self._candidates(z, zvec)
        if cand is not None:
            res = self.residual(cand, z)
            return MembershipReport(True, CoefficientMatrix(cand), res, 0)
        best, best_res, it_a = self._dykstra(z, zvec, max_iter, tol)
        polish_start = best if best is not None else np.zeros(
            (self.kappa, self.kappa), dtype=np.complex128
        )
        refined, ref_res, it_b = self._polish(z, polish_start, max_iter, tol)
        if ref_res < best_res:
            best, best_res = refined, ref_res
        feasible = best_res <= tol
        witness = CoefficientMatrix(self.project_box(best))
        return MembershipReport(feasible, witness, float(best_res),
                                it_a + it_b)


def membership(z, spec: ZonoidSpec, tol: float = MEMBERSHIP_TOL,
               max_iter: int = ALTERNATE_MAX_ITER) -> MembershipReport:
    """Decide whether ``z`` lies in the zonoid of ``spec``.

    The report's residual is ||L(C) - z||_F at the returned witness, which
    is always box feasible; ``feasible`` is the comparison against ``tol``.
    A point outside the affine span can never be feasible and shows up with
    a residual at least its distance to the span.
    """
    z = as_matrix(z)
    d = spec.dim
    if z.shape != (d, d):
        raise ValueError(f"operator shape {z.shape} does not match dim {d}")
    if not is_hermitian(z, 1e-10):
        raise ValueError("membership expects a Hermitian operator")
    return spec.solver().solve(z, tol, max_iter)


def support_function(x, spec: ZonoidSpec) -> float:
    """Support function h(x) = max over the zonoid of Re<x, .>.

    Equal to the sum of positive eigenvalues of the basis overlap matrix
    A[m', m] = Tr(x Khat_m^dag Khat_m'), blockwise when blocks are present.
    """
    x = as_matrix(x)
    if not is_hermitian(x, 1e-10):
        raise ValueError("support directions must be Hermitian")
    solver = spec.solver()
    overlap = np.einsum("ab,mpba->pm", x, solver.gram_ops)
    total = 0.0
    for blk in solver.blocks:
        sub = overlap[np.ix_(blk, blk)]
        w = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
        total += float(w[w > 0.0].sum())
    return total


def _hermitian_basis(d: int) -> list[np.ndarray]:
    out = []
    for i in range(d):
        e = np.zeros((d, d), dtype=np.complex128)
        e[i, i] = 1.0
        out.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            out.append(e)
            f = np.zeros((d, d), dtype=np.complex128)
            f[i, j] = -1j / np.sqrt(2.0)
            f[j, i] = 1j / np.sqrt(2.0)
            out.append(f)
    return out


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
    dirs = _hermitian_basis(a.dim)
    rng = np.random.default_rng(seed)
    d = a.dim
    for _ in range(samples):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = 0.5 * (g + g.conj().T)
        nrm = np.linalg.norm(h)
        if nrm > 0.0:
            dirs.append(h / nrm)
    worst = 0.0
    for x in dirs:
        worst = max(worst, abs(support_function(x, a) - support_function(x, b)))
    return worst


def separation_gap(z, spec: ZonoidSpec, samples: int = 500, seed: int = 7
                   ) -> float:
    """Best found value of Re<x, z> - h(x) over sampled directions.

    A positive value certifies that ``z`` is outside the zonoid.
    """
    z = as_matrix(z)
    d = spec.dim
    dirs = _hermitian_basis(d)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = 0.5 * (g + g.conj().T)
        nrm = np.linalg.norm(h)
        if nrm > 0.0:
            dirs.append(h / nrm)
    best = -np.inf
    for x in dirs:
        gap = float(np.real(np.vdot(x, z))) - support_function(x, spec)
        best = max(best, gap)
    return best


def endpoint_cmatrix(k_leaf, spec: ZonoidSpec, tol: float = 1e-8
                     ) -> CoefficientMatrix:
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
    if best_w is None or best_res > tol * scale:
        raise NotInSpanError(
            f"endpoint operator is outside the basis span "
            f"(best residual {best_res:.3e})"
        )
    return CoefficientMatrix(np.outer(best_w.conj(), best_w))


def cmatrix_resolution_check(cmats: Iterable, target,
                             tol: float = 1e-7) -> tuple[bool, float]:
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
    return defect <= tol, defect


def zonoid_spec_for_channel(k: KrausSet, tol: float = 1e-8) -> ZonoidSpec:
    """Zonoid of a channel over its minimal Kraus basis."""
    return ZonoidSpec(minimal_kraus(k, tol))


def zonoid_spec_for_instrument(inst: Instrument, tol: float = 1e-8
                               ) -> ZonoidSpec:
    """Blocked zonoid of an instrument.

    Each outcome contributes the minimal Kraus set of its branch as one
    block; the total basis is the concatenation.
    """
    ops = []
    blocks = []
    at = 0
    for r in range(inst.n_outcomes):
        mk = minimal_kraus(inst.branch(r), tol)
        ops.extend(mk.operators)
        blocks.append(tuple(range(at, at + mk.n_operators)))
        at += mk.n_operators
    basis = KrausSet(np.array(ops), inst.kraus.input_dims,
                     inst.kraus.output_dims)
    return ZonoidSpec(basis, tuple(blocks))
