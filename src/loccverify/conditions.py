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
from .zonoid import ZonoidSpec, coefficient_stack, endpoint_cmatrix, membership


@dataclass
class CheckedPath:
    """A path handed to the condition verifier.

    ``op_at`` evaluates the operator at every trace parameter s of a 1-D
    array on [s_bottom, s_top] and returns the stack (n, d, d), or, for
    diagonal operators, their real diagonals (n, d).
    ``cmatrix_at`` optionally supplies a closed-form witness family, as a
    stack (n, kappa, kappa) of coefficient matrices that the verifier
    checks and symmetrises by the rule of
    :class:`~loccverify.zonoid.CoefficientMatrix`.
    The endpoint coefficient matrix is always derived from the operator at
    ``s_bottom``. The parties and blocks the path is checked against come
    from the verifier's spec.
    """

    label: str
    op_at: Callable[[np.ndarray], np.ndarray]
    s_top: float
    s_bottom: float
    cmatrix_at: Callable[[np.ndarray], np.ndarray] | None = None

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
    Horner's rule, and serve as its family's callbacks.

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

    ``density_at`` gives the operator densities at every sigma of a 1-D
    array in [0, 1], stacked (n, d, d) or as real diagonals (n, d), and
    ``cdensity_at`` their coefficient densities, stacked (n, kappa, kappa)
    and checked as :class:`CheckedPath` checks ``cmatrix_at``.
    ``attach_s`` maps sigma to the parent path parameter where the outcome
    branches off, and ``sigma_at`` is its inverse, with sigma = 0 at the
    parent's bottom end and at most 1 on the parent's grid; both act
    elementwise on arrays. ``table``, the family as a polynomial in
    sqrt(sigma), gives its integrals in closed form, and its evaluators
    serve as the two density callbacks; a family without a
    :class:`FamilyTable` is refused with a TypeError.
    """

    label: str
    parent: CheckedPath
    density_at: Callable[[np.ndarray], np.ndarray]
    cdensity_at: Callable[[np.ndarray], np.ndarray]
    attach_s: Callable[[np.ndarray], np.ndarray]
    sigma_at: Callable[[np.ndarray], np.ndarray]
    table: FamilyTable

    def __post_init__(self):
        if not isinstance(self.table, FamilyTable):
            raise TypeError(f"halt family {self.label!r} needs a "
                            "FamilyTable")

    @property
    def rank_one(self) -> bool:
        """Whether ``cdensity_at`` is its table's own evaluator, so that
        every sample is conj(w) w^T: Hermitian bit for bit and zero off
        the table's block."""
        return self.cdensity_at == self.table.cdensity_at


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


def _checked(a: np.ndarray, shape: tuple, what: str, hint: str = ""
             ) -> np.ndarray:
    """``a``, a stack that the callback ``what`` returned, if it has
    ``shape`` and finite entries; ValueError otherwise."""
    if a.shape != shape:
        raise ValueError(f"{what} returned shape {a.shape} for {shape[0]} "
                         f"parameters; expected {shape}{hint}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} returned a non-finite entry")
    return a


def _operators(stack, n: int, dim: int, what: str) -> np.ndarray:
    """A callback's operator stack: matrices, complex (n, dim, dim), or the
    real diagonals of diagonal operators, (n, dim)."""
    ops = np.asarray(stack)
    if ops.ndim == 2 and ops.dtype.kind in "biuf":
        return _checked(ops.astype(np.float64, copy=False), (n, dim), what)
    return _checked(ops.astype(np.complex128, copy=False), (n, dim, dim),
                    what, f", or real diagonals {(n, dim)}")


def _real_when_zero(a: np.ndarray) -> np.ndarray:
    """``a``, or its real part when its imaginary part is zero: a real
    stack takes real arithmetic throughout, whatever its dtype was."""
    if a.dtype.kind == "c" and not a.imag.any():
        return np.ascontiguousarray(a.real)
    return a


def _coefficients(stack, n: int, kappa: int, what: str) -> np.ndarray:
    """A callback's coefficient stack, checked and symmetrised: real when
    its entries are, complex otherwise."""
    return _real_when_zero(coefficient_stack(
        _checked(np.asarray(stack), (n, kappa, kappa), what)))


def _residuals(solver, cs: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """||L(C) - op||_F for each pair of coefficient matrices ``cs`` and
    operators ``ops``, matrices or real diagonals as :func:`_operators`
    returns them."""
    if ops.ndim == cs.ndim - 1:
        return solver.diagonal_residuals(cs, ops)
    return np.linalg.norm(solver.image(cs) - ops, axis=(-2, -1))


def _worst(name: str, defects: np.ndarray, tol: float, param: str,
           values: np.ndarray) -> ConditionCheck:
    """Check reporting the largest defect and the parameter where it is."""
    i = int(np.argmax(defects))
    return ConditionCheck(name, float(defects[i]), tol,
                          f"{param}={values[i]:.6g}")


def _as_matrix(op: np.ndarray) -> np.ndarray:
    """An operator as :func:`_operators` returns it, as a matrix."""
    return diagonal_stack(op) if op.ndim == 1 else op


def _integrated_witness(solver, c_end: np.ndarray,
                        families: Sequence[EndpointFamily], grid: np.ndarray,
                        out: np.ndarray) -> np.ndarray:
    """Write the integrated witness at each sample s into ``out``, and
    return whether each is Hermitian to rounding.

    The halt families peel off the path continuously, so
    C(s) = C_end + sum_f int_0^sigma_f(s) cdensity_f is a coefficient
    matrix for op(s); each integral is one product of its family's
    antiderivative table (:meth:`FamilyTable.integrals`). A sample's
    witness is the block-supported Hermitian part of C(s); it counts only
    where it differs from C(s) by rounding and passes the solver's box
    test, and then its defect is ||L(C) - op(s)||_F.
    """
    out[...] = c_end
    sigma, u = None, None
    for fam in families:
        at = clamped(fam.sigma_at(grid), 1.0,
                     f"{fam.label} sigma_at leaves [0, 1]", 0.0)
        # Families that attach alike share their roots.
        if sigma is None or not np.array_equal(at, sigma):
            sigma, u = at, np.sqrt(at)
        out += fam.table.integrals(u)
    herm = out + (out.conj() if out.dtype.kind == "c" else out).swapaxes(
        -1, -2)
    herm *= 0.5 * solver.mask
    out -= herm
    hermitian = np.linalg.norm(out, axis=(1, 2)) <= ROUNDING_TOL
    out[...] = herm
    return hermitian


def _parent_witnesses(families: Sequence[EndpointFamily], sigmas: np.ndarray,
                      kappa: int) -> dict:
    """Per (parent, ``attach_s``) pair of the families whose parent has a
    ``cmatrix_at``, the parent's witness at each sigma: one call for each
    pair, which families attached alike share."""
    found: dict[tuple[int, int], np.ndarray] = {}
    for fam in families:
        parent = fam.parent
        key = (id(parent), id(fam.attach_s))
        if parent.cmatrix_at is not None and key not in found:
            found[key] = _coefficients(
                parent.cmatrix_at(fam.attach_s(sigmas)), len(sigmas), kappa,
                f"{parent.label} cmatrix_at")
    return found


def _lowest(samples: np.ndarray, fam: EndpointFamily) -> np.ndarray:
    """The lowest eigenvalue of each of a rank-one family's samples, which
    are zero off its table's block: its block's, in closed form when the
    block has at most two indices, and at most 0 when the block leaves
    out some index."""
    block = np.array(fam.table.block)
    low = lowest_eigenvalues(samples[:, block[:, None], block])
    return low if len(block) == samples.shape[-1] else np.minimum(low, 0.0)


# The order of the table's segments, each the samples of one kind of check
# whose operators have one form: real diagonals (2), matrices (3), or none
# (0, the parents' witnesses). In this order the rows that take an
# eigvalsh (endpoint, membership, checked family and parent) are one
# slice, those that take a residual are one slice for each form, and so
# are those whose operators take a product defect (membership and both
# kinds of family). A rank-one family's rows take no eigvalsh.
_ORDER = ((2, "witness-family"), (2, "rank-one"), (2, "family"),
          (2, "membership"), (2, "endpoint"), (0, "parent"), (3, "endpoint"),
          (3, "membership"), (3, "family"), (3, "rank-one"),
          (3, "witness-family"))


class _SamplePass:
    """Every coefficient sample of one verification and the operator each
    pairs with, gathered into one table in the order of :data:`_ORDER`,
    so that one eigvalsh, and one residual call and one product defect
    for each operator form, serve every check; each check reads its own
    rows (``rows[kind, key]``)."""

    def __init__(self):
        self.parts: dict = {segment: [] for segment in _ORDER}

    def add(self, kind: str, key, coefficients, operators=None) -> None:
        """Coefficient samples of a ``kind`` of check, and the operators,
        matrices or real diagonals, that they pair with, one per sample.
        ``coefficients`` is a stack, or the pair (samples, dtype) of a
        stack that the caller writes into its rows of ``table`` after
        :meth:`allocate`."""
        form = 0 if operators is None else operators.ndim
        self.parts[form, kind].append((key, coefficients, operators))

    def allocate(self, kappa: int) -> None:
        """The table, allocated once every size is known, with each given
        stack written into its rows and then let go: ``parts`` keeps only
        the operators."""
        self.rows: dict = {}
        self.ends: dict = {}
        row, dtypes = 0, [np.float64]
        for segment in _ORDER:
            start = row
            for key, c, _ in self.parts[segment]:
                n, dtype = (len(c), c.dtype) if isinstance(c, np.ndarray) else c
                self.rows[segment[1], key] = slice(row, row + n)
                dtypes.append(dtype)
                row += n
            self.ends[segment] = (start, row)
        self.table = np.empty((row, kappa, kappa), np.result_type(*dtypes))
        for segment in _ORDER:
            for key, c, _ in self.parts[segment]:
                if isinstance(c, np.ndarray):
                    self.table[self.rows[segment[1], key]] = c
            self.parts[segment] = [o for _, _, o in self.parts[segment]]

    def run(self, solver, dims) -> None:
        """One eigvalsh, and per form one residual call and one product
        defect, over the table."""
        def span(first, last):
            return slice(self.ends[first][0], self.ends[last][1])

        row = len(self.table)
        self.spectra = np.empty((row, self.table.shape[-1]))
        eig = span((2, "family"), (3, "family"))
        if eig.stop > eig.start:
            self.spectra[eig] = np.linalg.eigvalsh(self.table[eig])
        self.residuals, self.products = np.empty(row), np.empty(row)
        for form, first, last, low, high in (
                (2, "witness-family", "endpoint", "rank-one", "membership"),
                (3, "endpoint", "witness-family", "membership", "rank-one")):
            paired = span((form, first), (form, last))
            if paired.stop == paired.start:
                continue
            o = np.concatenate([o for segment in _ORDER
                                if segment[0] == form
                                for o in self.parts[segment]])
            self.residuals[paired] = _residuals(solver, self.table[paired], o)
            product = span((form, low), (form, high))
            self.products[product] = product_defect(
                o[product.start - paired.start:product.stop - paired.start],
                dims, form == 2)


def sample_pass_bytes(kappa: int, dim: int, rows: int, paired: int,
                      witness: int) -> int:
    """Peak bytes of a real :class:`_SamplePass`, from its layout alone:
    a table of ``rows`` coefficient samples, ``paired`` of them with a real
    diagonal operator of ``dim`` entries and ``witness`` of them integrated
    witnesses on an s grid.

    The table holds kappa^2 entries a row, and the operators a diagonal
    each per paired row, twice: their stacks and their concatenation in
    :meth:`_SamplePass.run`. On top of these, the larger of two phases.
    While the witnesses are integrated, two more stacks of their rows
    (the product and the sum of Horner's rule) and their s grid, twice.
    While the pass runs, a spectrum of kappa entries, a residual and a
    product defect per row, and three diagonals of the residual's
    temporaries per paired row.
    """
    entry = 8
    table = rows * kappa ** 2 * entry
    operators = 2 * paired * dim * entry
    integrate = witness * (2 * kappa ** 2 + 2) * entry
    run = (rows * (kappa + 2) + 3 * paired * dim) * entry
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
    family's integrals come from its table in closed form. Tolerances
    come from :mod:`loccverify.tolerances`.
    ``s_samples`` None selects each path's dense grid; ``s_samples``
    below 1 raises ValueError. Halt families are sampled at
    ``SIGMA_SAMPLES`` values of sigma.

    Every callback is called on a whole grid at once, so the number of
    calls does not depend on the sample counts. Each path's ``op_at`` is
    called once, on its grid and its bottom end together, and each
    family's ``density_at`` and ``cdensity_at`` once, on the sigma
    samples.

    The sample arithmetic is one stacked pass. The coefficient samples
    (each path's endpoint matrix, integrated witness at every s and
    witness family, each family's sigma samples, and the parent witness
    at those sigma) form one table, and the operators they pair with one
    table of each form, real diagonals or matrices. One eigvalsh of the
    table serves the endpoint, box and psd tests, one residual call of
    each form every reconstruction and membership defect, and one
    product defect of each form every product check; each check reads
    its own rows. A family whose ``cdensity_at`` is its table's own
    (:attr:`EndpointFamily.rank_one`) skips the input check and the
    eigvalsh: its samples conj(w) w^T are Hermitian bit for bit and zero
    off the table's block, and their lowest eigenvalue is its block's,
    in closed form for blocks of at most two indices
    (:func:`~loccverify.linalg.lowest_eigenvalues`). Any other
    ``cdensity_at`` is checked, and takes the eigvalsh. Coefficient
    stacks whose entries are real stay real.
    Operators and densities that come as real diagonals are checked as
    diagonals: the trace is a row sum, the product defect reads each
    cut's reshape of the diagonal (a closed form when 2 x 2, else an SVD),
    the endpoint root is the entrywise root, and residuals are taken on
    the solver's reached entries; only solver samples are made matrices.
    Sampled checks report the s or sigma of their largest defect as
    ``where``; a membership check also reports how many samples the
    solver answered and, when any, how many of those it left undecided.
    """
    if s_samples is not None and s_samples < 1:
        raise ValueError("s_samples must be at least 1")
    solver = spec.solver()
    kappa, dim, dims = spec.kappa, spec.dim, spec.basis.input_dims
    sigmas = np.linspace(0.0, 1.0, SIGMA_SAMPLES)
    samples = _SamplePass()

    sampled = []
    for p, path in enumerate(paths):
        grid = path.sample_grid(s_samples)
        n = len(grid)
        # One call gives the operators on the grid and, last, the one at
        # the bottom end, whose root gives the endpoint matrix.
        ops = _operators(path.op_at(np.append(grid, path.s_bottom)), n + 1,
                         dim, f"{path.label} op_at")
        ops, op_end = ops[:-1], ops[-1:]
        c_end = _real_when_zero(
            endpoint_cmatrix(sqrt_psd(op_end[0]), spec).matrix)
        samples.add("endpoint", p, c_end[None], op_end)
        attached = [fam for fam in families if fam.parent is path]
        samples.add("membership", p, (n, np.result_type(
            c_end, *[fam.table.w for fam in attached])), ops)
        if path.cmatrix_at is not None:
            samples.add("witness-family", p, _coefficients(
                path.cmatrix_at(grid), n, kappa, f"{path.label} cmatrix_at"),
                ops)
        sampled.append((grid, ops, c_end, attached))

    for f, fam in enumerate(families):
        cs = fam.cdensity_at(sigmas)
        if not fam.rank_one:
            cs = _coefficients(cs, len(sigmas), kappa,
                               f"{fam.label} cdensity_at")
        samples.add("rank-one" if fam.rank_one else "family", f, cs,
                    _operators(fam.density_at(sigmas), len(sigmas), dim,
                               f"{fam.label} density_at"))
    for key, cs in _parent_witnesses(families, sigmas, kappa).items():
        samples.add("parent", key, cs)
    samples.allocate(kappa)

    hermitian = []
    for p, (grid, _, c_end, attached) in enumerate(sampled):
        witness = samples.table[samples.rows["membership", p]]
        # A path with no family has no witness: the solver answers every
        # sample.
        if not attached:
            witness[...] = 0.0
            hermitian.append(np.zeros(len(grid), bool))
        else:
            hermitian.append(_integrated_witness(solver, c_end, attached,
                                                 grid, witness))
    samples.run(solver, dims)

    checks: list[ConditionCheck] = []
    total = np.zeros((kappa, kappa), dtype=np.complex128)
    for p, (path, (grid, ops, c_end, _)) in enumerate(zip(paths, sampled)):
        lbl = path.label
        n = len(grid)
        if ops.ndim == 2:
            trace = np.abs(ops.sum(axis=1) - grid)
        else:
            trace = np.abs(np.trace(ops, axis1=1, axis2=2).real - grid)
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
            res = _residuals(solver, repaired, ops[near])
            defects[near] = np.where(
                solver.in_box(repaired) & (res <= membership_tol), res,
                np.inf)
        # The solver answers only where the integrated witness does not.
        solve = np.flatnonzero(defects > membership_tol)
        undecided = 0
        for i in solve:
            rep = membership(_as_matrix(ops[i]), spec, tol=membership_tol)
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
        if path.cmatrix_at is not None:
            checks.append(_worst(
                f"{lbl}:witness-family",
                samples.residuals[samples.rows["witness-family", p]],
                RECON_TOL, "s", grid))
        total = total + c_end

    for f, fam in enumerate(families):
        lbl = fam.label
        if fam.rank_one:
            rows = samples.rows["rank-one", f]
            low = _lowest(samples.table[rows], fam)
        else:
            rows = samples.rows["family", f]
            low = samples.spectra[rows, 0]
        # lambda_min is concave, so the segment mixtures
        # (1 - x) C_parent + x C_r are lowest at x = 0 or x = 1.
        key = (id(fam.parent), id(fam.attach_s))
        if fam.parent.cmatrix_at is not None:
            low = np.minimum(low, samples.spectra[samples.rows["parent", key],
                                                  0])
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
