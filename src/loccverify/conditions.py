"""Necessary conditions for LOCC in the limit, checked on zonoid paths.

An instrument that LOCC approximates arbitrarily closely carries a path of
product operators through the zonoid of its Kraus basis, with halt
continua peeling off it whose endpoint matrices and integrated densities
resolve the identity (Theorems 1 and 8). :func:`verify_theorem_conditions`
samples those conditions on caller-supplied paths and families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import (clamped, diagonal_stack, lowest_eigenvalues,
                     polynomial_values, product_defect, sqrt_psd)
from .tolerances import (MEMBERSHIP_TOL, MIXTURE_PSD_TOL, PRODUCT_TOL,
                         RECON_TOL, RESOLUTION_TOL, ROUNDING_TOL,
                         SIGMA_SAMPLES, TRACE_TOL)
from .zonoid import ZonoidSpec, endpoint_cmatrix, membership


@dataclass
class CheckedPath:
    """A path handed to the condition verifier.

    ``op_at`` evaluates the operators, which are diagonal, at every trace
    parameter s of a 1-D array on [s_bottom, s_top] and returns their real
    diagonals, (n, d); any other stack is refused with a ValueError that
    names the callback. The endpoint coefficient matrix is always derived
    from the operator at ``s_bottom``. The parties and blocks the path is
    checked against, and the point s = (1 + sigma)^P where a halt family
    at sigma attaches to it, come from the verifier's spec.
    """

    label: str
    op_at: Callable[[np.ndarray], np.ndarray]
    s_top: float
    s_bottom: float

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


@dataclass(frozen=True, eq=False)
class FamilyTable:
    """A halt family that is a polynomial in u = sqrt(sigma).

    Its coefficient density is conj(w) w^T and its operator density the
    real diagonal r * r, with w = sum_k w_k u^k and r = sum_k r_k u^k:
    ``w`` holds the rows w_k, (deg + 1, kappa), ``root`` the rows r_k,
    (deg' + 1, d), and ``block`` the basis indices off which every w_k is
    zero. :meth:`cdensity_at` and :meth:`density_at` evaluate the table by
    Horner's rule; they are the samples the verifier checks.

    With sigma = t^2, the integral of conj(w) w^T over [0, u^2] is that of
    2 t conj(w(t)) w(t)^T over [0, u], a polynomial in u whose
    coefficient of u^(m + 2) is 2 G_m / (m + 2), G_m = sum_{j + k = m}
    conj(w_j) w_k^T: ``antiderivative`` holds those, (2 deg + 1, kappa,
    kappa), each Hermitian bit for bit and zero off the block.
    Frozen, with read-only arrays, and compared by identity.
    """

    w: np.ndarray
    root: np.ndarray
    block: tuple[int, ...]

    def __post_init__(self):
        w = np.array(self.w)
        w = w.astype(np.float64 if w.dtype.kind in "biuf" else np.complex128)
        root = np.array(self.root, dtype=np.float64)
        if w.ndim != 2 or root.ndim != 2 or not len(w) or not len(root):
            raise ValueError("a family table needs coefficient rows, (deg + "
                             "1, kappa) for w and (deg + 1, d) for its root")
        block = tuple(sorted({int(b) for b in self.block}))
        if not block or not 0 <= block[0] <= block[-1] < w.shape[1]:
            raise ValueError(f"block {self.block!r} is outside the basis")
        if not (np.isfinite(w).all() and np.isfinite(root).all()):
            raise ValueError("a family table needs finite coefficients")
        if np.delete(w, block, axis=1).any():
            raise ValueError(f"w is not zero off its block {block}")
        deg = len(w) - 1
        g = np.zeros((2 * deg + 1,) + w.shape[1:] * 2, dtype=w.dtype)
        for j in range(deg + 1):
            g[j:j + deg + 1] += w[j].conj()[:, None] * w[:, None, :]
        g = 0.5 * (g + g.conj().swapaxes(-1, -2))
        g *= (2.0 / np.arange(2, 2 * deg + 3))[:, None, None]
        for name, a in (("w", w), ("root", root), ("antiderivative", g)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "block", block)

    @staticmethod
    def _roots(sigma) -> np.ndarray:
        return np.sqrt(clamped(sigma, 1.0, "sigma outside [0, 1]", 0.0))

    def cdensity_at(self, sigma) -> np.ndarray:
        """conj(w) w^T at every sigma of a 1-D array in [0, 1]; (n, kappa,
        kappa), real when w is."""
        w = polynomial_values(self.w, self._roots(sigma))
        return (w.conj() if w.dtype.kind == "c" else w)[:, :, None] * w[
            :, None, :]

    def density_at(self, sigma) -> np.ndarray:
        """The real diagonals r * r at every sigma of a 1-D array in
        [0, 1]; (n, d)."""
        r = polynomial_values(self.root, self._roots(sigma))
        return r * r

    def integrals(self, u: np.ndarray) -> np.ndarray:
        """The integral of conj(w) w^T over [0, u^2] at each u of a 1-D
        array in [0, 1]; (n, kappa, kappa). Horner's rule takes every
        entry through the same operations, so the integrals are Hermitian
        bit for bit, as a BLAS product is not."""
        out = polynomial_values(self.antiderivative, u)
        out *= (u * u)[:, None, None]
        return out

    @property
    def total(self) -> np.ndarray:
        """The integral of conj(w) w^T over [0, 1]."""
        return self.antiderivative.sum(axis=0)


@dataclass
class EndpointFamily:
    """Continuum of halt outcomes peeling off a parent path.

    ``table``, the family as a polynomial in sqrt(sigma), gives its
    operator and coefficient densities at each sigma in [0, 1] and their
    integrals in closed form; a family without a :class:`FamilyTable` is
    refused with a TypeError. The outcome at sigma branches off the parent
    at s = (1 + sigma)^P, P the parties of the verifier's spec, so sigma =
    0 is the parent's bottom end.
    """

    label: str
    parent: CheckedPath
    table: FamilyTable

    def __post_init__(self):
        if not isinstance(self.table, FamilyTable):
            raise TypeError(f"halt family {self.label!r} needs a "
                            "FamilyTable")


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


def _diagonals(stack, n: int, dim: int, what: str) -> np.ndarray:
    """The operators that the callback ``what`` returned for ``n``
    parameters, if they are finite real diagonals (n, dim); ValueError
    otherwise."""
    ops = np.asarray(stack)
    if ops.shape != (n, dim) or ops.dtype.kind not in "biuf":
        raise ValueError(f"{what} returned shape {ops.shape} of "
                         f"{ops.dtype} for {n} parameters; expected real "
                         f"diagonals {(n, dim)}")
    if not np.isfinite(ops).all():
        raise ValueError(f"{what} returned a non-finite entry")
    return ops.astype(np.float64, copy=False)


def _real_when_zero(a: np.ndarray) -> np.ndarray:
    """``a``, or its real part when its imaginary part is zero: a real
    stack takes real arithmetic throughout, whatever its dtype was."""
    if a.dtype.kind == "c" and not a.imag.any():
        return np.ascontiguousarray(a.real)
    return a


def _worst(name: str, defects: np.ndarray, tol: float, param: str,
           values: np.ndarray) -> ConditionCheck:
    """Check reporting the largest defect and the parameter where it is."""
    i = int(np.argmax(defects))
    return ConditionCheck(name, float(defects[i]), tol,
                          f"{param}={values[i]:.6g}")


def _integrated_witness(solver, c_end: np.ndarray,
                        families: Sequence[EndpointFamily], u: np.ndarray,
                        out: np.ndarray) -> np.ndarray:
    """Write the integrated witness at each sample s into ``out``, and
    return whether each is Hermitian to rounding.

    The halt families peel off the path continuously, so
    C(s) = C_end + sum_f int_0^sigma(s) cdensity_f is a coefficient matrix
    for op(s); each integral is one product of its family's antiderivative
    table (:meth:`FamilyTable.integrals`) at u = sqrt(sigma(s)). A
    sample's witness is the block-supported Hermitian part of C(s); it
    counts only where it differs from C(s) by rounding and passes the
    solver's box test, and then its defect is ||L(C) - op(s)||_F.
    """
    out[...] = c_end
    for fam in families:
        out += fam.table.integrals(u)
    herm = out + (out.conj() if out.dtype.kind == "c" else out).swapaxes(
        -1, -2)
    herm *= 0.5 * solver.mask
    out -= herm
    hermitian = np.linalg.norm(out, axis=(1, 2)) <= ROUNDING_TOL
    out[...] = herm
    return hermitian


def _lowest(samples: np.ndarray, block: tuple[int, ...]) -> np.ndarray:
    """The lowest eigenvalue of each of a family's samples conj(w) w^T,
    which are zero off its table's ``block``: its block's, in closed form
    when the block has at most two indices, and at most 0 when the block
    leaves out some index."""
    block = np.array(block)
    low = lowest_eigenvalues(samples[:, block[:, None], block])
    return low if len(block) == samples.shape[-1] else np.minimum(low, 0.0)


# The order of the table's segments, each the samples of one kind of
# check, all paired with real diagonals. In this order the rows that take
# an eigvalsh (membership and endpoint) are one slice, and so are those
# whose operators take a product defect (family and membership); every
# row takes a residual. A family's rows take no eigvalsh: their lowest
# eigenvalue is their block's (:func:`_lowest`).
_ORDER = ("family", "membership", "endpoint")


class _SamplePass:
    """Every coefficient sample of one verification and the real diagonal
    each pairs with, gathered into one table in the order of
    :data:`_ORDER`, so that one eigvalsh, one residual call and one
    product defect serve every check; each check reads its own rows
    (``rows[kind, key]``)."""

    def __init__(self):
        self.parts: dict = {kind: [] for kind in _ORDER}

    def add(self, kind: str, key, coefficients, operators) -> None:
        """Coefficient samples of a ``kind`` of check, and the real
        diagonals that they pair with, one per sample. ``coefficients`` is
        a stack, or the pair (samples, dtype) of a stack that the caller
        writes into its rows of ``table`` after :meth:`allocate`."""
        self.parts[kind].append((key, coefficients, operators))

    def allocate(self, kappa: int) -> None:
        """The table, allocated once every size is known, with each given
        stack written into its rows and then let go, and the operators
        concatenated in the same order."""
        self.rows: dict = {}
        self.ends: dict = {}
        row, dtypes = 0, [np.float64]
        for kind in _ORDER:
            start = row
            for key, c, _ in self.parts[kind]:
                n, dtype = (len(c), c.dtype) if isinstance(c, np.ndarray) else c
                self.rows[kind, key] = slice(row, row + n)
                dtypes.append(dtype)
                row += n
            self.ends[kind] = (start, row)
        self.table = np.empty((row, kappa, kappa), np.result_type(*dtypes))
        ops = []
        for kind in _ORDER:
            for key, c, o in self.parts[kind]:
                if isinstance(c, np.ndarray):
                    self.table[self.rows[kind, key]] = c
                ops.append(o)
        self.operators = np.concatenate(ops) if ops else None
        del self.parts

    def run(self, solver, dims) -> None:
        """One eigvalsh, one residual call and one product defect over the
        table."""
        row = len(self.table)
        self.spectra = np.empty((row, self.table.shape[-1]))
        self.residuals, self.products = np.empty(row), np.empty(row)
        if not row:
            return
        eig = slice(self.ends["membership"][0], self.ends["endpoint"][1])
        if eig.stop > eig.start:
            self.spectra[eig] = np.linalg.eigvalsh(self.table[eig])
        self.residuals[:] = solver.diagonal_residuals(self.table,
                                                      self.operators)
        product = slice(0, self.ends["membership"][1])
        self.products[product] = product_defect(self.operators[product],
                                                dims, True)


def sample_pass_bytes(kappa: int, dim: int, rows: int, witness: int) -> int:
    """Peak bytes of a real :class:`_SamplePass`, from its layout alone:
    a table of ``rows`` coefficient samples, each paired with a real
    diagonal operator of ``dim`` entries, ``witness`` of them integrated
    witnesses on an s grid.

    The table holds kappa^2 entries a row, and the operators a diagonal
    each per row, twice: their stacks and their concatenation in
    :meth:`_SamplePass.allocate`. On top of these, the larger of two
    phases. While the witnesses are integrated, two more stacks of their
    rows (the product and the sum of Horner's rule) and their s grid,
    twice. While the pass runs, a spectrum of kappa entries, a residual
    and a product defect per row, and three diagonals of the residual's
    temporaries per row.
    """
    entry = 8
    table = rows * kappa ** 2 * entry
    operators = 2 * rows * dim * entry
    integrate = witness * (2 * kappa ** 2 + 2) * entry
    run = (rows * (kappa + 2) + 3 * rows * dim) * entry
    return table + operators + max(integrate, run)


def verify_theorem_conditions(spec: ZonoidSpec, paths: Sequence[CheckedPath],
                              families: Sequence[EndpointFamily] = (),
                              s_samples: int | None = None,
                              membership_tol: float = MEMBERSHIP_TOL
                              ) -> PathConditionReport:
    """Check the zonoid-path conditions for an implementable instrument.

    For each path: trace linearity, tensor-product structure, zonoid
    membership at sampled parameters, and a valid rank-one endpoint witness.
    Membership is certified by the witness integrated from the families
    attached to the path; the solver answers only the samples where that
    witness fails, or every sample of a path with no family. A Hermitian
    witness that leaves the box by delta = max(0, -lambda_min,
    lambda_max - 1), from the spectrum the pass already holds, is first
    retried as (C + delta I) / (1 + 2 delta), which answers only if it
    passes the same box test and its own residual is within
    ``membership_tol``.
    For each halt family: positivity of the segment mixtures, product
    structure and basis reconstruction of the densities. Product checks
    take the parties of the spec's basis. Finally the endpoint matrices
    and integrated halt densities must sum to the identity: one check,
    ``resolution``, for an unblocked spec, and for a blocked one a check
    ``resolution[b]`` on the rows of each block b of
    ``spec.block_list()``, so a block that nothing covers fails. A
    family's samples and integrals come from its table in closed form.
    Tolerances come from :mod:`loccverify.tolerances`.
    ``s_samples`` None selects each path's dense grid; ``s_samples``
    below 1 raises ValueError. Halt families are sampled at
    ``SIGMA_SAMPLES`` values of sigma, and a family at sigma attaches to
    its parent at s = (1 + sigma)^P, P the parties of the spec.

    Each path's ``op_at`` is called once, on its grid and its bottom end
    together, so the number of calls does not depend on the sample
    counts.

    The sample arithmetic is one stacked pass. The coefficient samples
    (each family's sigma samples, each path's integrated witness at every
    s and its endpoint matrix) form one table, and the real diagonals they
    pair with another. One eigvalsh of the path rows serves the endpoint
    and box tests, one residual call every reconstruction and membership
    defect, and one product defect every product check; each check reads
    its own rows. A family's samples conj(w) w^T are Hermitian bit for
    bit and zero off its table's block, so they take no input check and
    no eigvalsh: their lowest eigenvalue is their block's, in closed form
    for blocks of at most two indices
    (:func:`~loccverify.linalg.lowest_eigenvalues`). The psd check's
    parent side is the lowest eigenvalue of the parent's endpoint matrix,
    which the pass holds: the parent's witness at sigma is that matrix
    plus integrals of conj(w) w^T, masked to its blocks, and neither
    adds nor masking lowers its lowest eigenvalue. A family whose parent
    is not among ``paths`` has its own samples alone. Coefficient stacks
    whose entries are real stay real.
    The operators are real diagonals: the trace is a row sum, the product
    defect reads each cut's reshape of the diagonal (a closed form when
    2 x 2, else an SVD), the endpoint root is the entrywise root, and
    residuals are taken on the solver's reached entries; only solver
    samples are made matrices.
    Sampled checks report the s or sigma of their largest defect as
    ``where``; a membership check also reports how many samples the
    solver answered and, when any, how many of those it left undecided.
    """
    if s_samples is not None and s_samples < 1:
        raise ValueError("s_samples must be at least 1")
    solver = spec.solver()
    kappa, dim, dims = spec.kappa, spec.dim, spec.basis.input_dims
    parties = dims.n_parties
    sigmas = np.linspace(0.0, 1.0, SIGMA_SAMPLES)
    samples = _SamplePass()

    for f, fam in enumerate(families):
        t = fam.table
        if t.w.shape[1] != kappa or t.root.shape[1] != dim:
            raise ValueError(f"{fam.label} has a table over {t.w.shape[1]} "
                             f"operators of {t.root.shape[1]} entries; the "
                             f"spec has {kappa} of {dim}")
        samples.add("family", f, t.cdensity_at(sigmas), t.density_at(sigmas))

    sampled = []
    for p, path in enumerate(paths):
        grid = path.sample_grid(s_samples)
        n = len(grid)
        # One call gives the operators on the grid and, last, the one at
        # the bottom end, whose root gives the endpoint matrix.
        ops = _diagonals(path.op_at(np.append(grid, path.s_bottom)), n + 1,
                         dim, f"{path.label} op_at")
        ops, op_end = ops[:-1], ops[-1:]
        c_end = _real_when_zero(
            endpoint_cmatrix(sqrt_psd(op_end[0]), spec).matrix)
        attached = [fam for fam in families if fam.parent is path]
        samples.add("membership", p, (n, np.result_type(
            c_end, *[fam.table.w for fam in attached])), ops)
        samples.add("endpoint", p, c_end[None], op_end)
        sampled.append((grid, ops, c_end, attached))
    samples.allocate(kappa)

    hermitian = []
    for p, (path, (grid, _, c_end, attached)) in enumerate(zip(paths,
                                                               sampled)):
        witness = samples.table[samples.rows["membership", p]]
        # A path with no family has no witness: the solver answers every
        # sample.
        if not attached:
            witness[...] = 0.0
            hermitian.append(np.zeros(len(grid), bool))
            continue
        sigma = clamped(grid ** (1.0 / parties) - 1.0, 1.0,
                        f"{path.label} s outside [1, {2 ** parties}], where "
                        "its families attach: sigma outside [0, 1]", 0.0)
        hermitian.append(_integrated_witness(solver, c_end, attached,
                                             np.sqrt(sigma), witness))
    samples.run(solver, dims)

    checks: list[ConditionCheck] = []
    total = np.zeros((kappa, kappa), dtype=np.complex128)
    for p, (path, (grid, ops, c_end, _)) in enumerate(zip(paths, sampled)):
        lbl = path.label
        n = len(grid)
        trace = np.abs(ops.sum(axis=1) - grid)
        rows = samples.rows["membership", p]
        witness, spectra = samples.table[rows], samples.spectra[rows]
        boxed = solver.in_box(witness, spectra)
        defects = np.where(hermitian[p] & boxed, samples.residuals[rows],
                           np.inf)
        # A Hermitian witness just outside the box, repaired by the
        # spectrum's own excess delta; the eigenvalues (lambda + delta) /
        # (1 + 2 delta) of the repair lie in [0, 1] in exact arithmetic.
        near = np.flatnonzero(hermitian[p] & ~boxed)
        if near.size:
            delta = np.maximum(np.maximum(-spectra[near, 0],
                                          spectra[near, -1] - 1.0), 0.0)
            repaired = ((witness[near] + delta[:, None, None] * np.eye(kappa))
                        / (1.0 + 2.0 * delta)[:, None, None])
            res = solver.diagonal_residuals(repaired, ops[near])
            defects[near] = np.where(
                solver.in_box(repaired) & (res <= membership_tol), res,
                np.inf)
        # The solver answers only where the integrated witness does not.
        solve = np.flatnonzero(defects > membership_tol)
        undecided = 0
        for i in solve:
            rep = membership(diagonal_stack(ops[i]), spec, tol=membership_tol)
            defects[i] = rep.residual
            undecided += rep.stop == "undecided"
        mem_where = f"solver {len(solve)}/{n}"
        if undecided:
            mem_where += f"; undecided {undecided}"
        worst = int(np.argmax(defects))
        if defects[worst] > 0.0:
            mem_where = f"s={grid[worst]:.6g}; {mem_where}"
        end = samples.rows["endpoint", p]
        # Ascending: the largest eigenvalue is the last, the rank excess is
        # every other one, and the lowest is the first.
        (w,) = samples.spectra[end]
        end_defect = max(float(samples.residuals[end][0]),
                         float(np.abs(w[:-1]).max(initial=0.0)),
                         0.0, float(w[-1]) - 1.0, -float(w[0]))
        checks += [
            _worst(f"{lbl}:trace", trace, TRACE_TOL, "s", grid),
            _worst(f"{lbl}:product", samples.products[rows], PRODUCT_TOL,
                   "s", grid),
            ConditionCheck(f"{lbl}:membership", float(defects[worst]),
                           membership_tol, mem_where),
            ConditionCheck(f"{lbl}:endpoint", end_defect, RECON_TOL),
        ]
        total = total + c_end

    verified = {id(path): p for p, path in enumerate(paths)}
    for f, fam in enumerate(families):
        lbl = fam.label
        rows = samples.rows["family", f]
        low = _lowest(samples.table[rows], fam.table.block)
        # lambda_min is concave, so the segment mixtures
        # (1 - x) C_parent + x C_r are lowest at x = 0 or x = 1, and
        # lambda_min(C_parent) >= lambda_min(C_end).
        if id(fam.parent) in verified:
            end = samples.rows["endpoint", verified[id(fam.parent)]]
            low = np.minimum(low, samples.spectra[end][0, 0])
        checks += [
            # On a tie np.maximum returns its second argument: +0.0, not
            # -0.0.
            _worst(f"{lbl}:psd", np.maximum(-low, 0.0), MIXTURE_PSD_TOL,
                   "sigma", sigmas),
            _worst(f"{lbl}:product", samples.products[rows], PRODUCT_TOL,
                   "sigma", sigmas),
            _worst(f"{lbl}:reconstruction", samples.residuals[rows],
                   RECON_TOL, "sigma", sigmas),
        ]
        total = total + fam.table.total

    # A valid endpoint or integral is zero outside its own block, so the
    # rows of block b of the total are the sum of that block's parts.
    gap = total - np.eye(kappa)
    for b, block in enumerate(spec.block_list()):
        rows = np.zeros((kappa, 1), dtype=bool)
        rows[list(block)] = True
        name = "resolution" if spec.blocks is None else f"resolution[{b}]"
        checks.append(ConditionCheck(
            name, float(np.linalg.norm(np.where(rows, gap, 0.0))),
            RESOLUTION_TOL))

    return PathConditionReport(tuple(checks))
