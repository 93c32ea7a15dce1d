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

from .linalg import (clamped, cumulative_weights, diagonal_stack,
                     product_defect, sqrt_psd, sqrt_smooth_nodes,
                     sqrt_smooth_total)
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
    elementwise on arrays.
    """

    label: str
    parent: CheckedPath
    density_at: Callable[[np.ndarray], np.ndarray]
    cdensity_at: Callable[[np.ndarray], np.ndarray]
    attach_s: Callable[[np.ndarray], np.ndarray]
    sigma_at: Callable[[np.ndarray], np.ndarray]


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


def _family_values(fam: EndpointFamily, sigmas: np.ndarray, kappa: int):
    """A halt family's coefficient densities from its one ``cdensity_at``
    call: the node values 2 t C(t^2) at the nodes t of
    :func:`~loccverify.linalg.sqrt_smooth_nodes`, and C at each sigma of
    ``sigmas``."""
    t = sqrt_smooth_nodes()
    at = np.concatenate([t * t, sigmas])
    cd = _coefficients(fam.cdensity_at(at), at.size, kappa,
                       f"{fam.label} cdensity_at")
    return (2.0 * t)[:, None, None] * cd[:t.size], cd[t.size:]


def _integrated_witness(solver, c_end: np.ndarray,
                        families: Sequence[tuple[EndpointFamily, np.ndarray]],
                        grid: np.ndarray):
    """The integrated witness at each sample s, and whether it is
    Hermitian to rounding.

    The halt families peel off the path continuously, so
    C(s) = C_end + sum_f int_0^sigma_f(s) cdensity_f is a coefficient
    matrix for op(s). ``families`` pairs each family with its node values
    (:func:`_family_values`), and the integrals over [0, sigma_f(s)] are
    their products with :func:`~loccverify.linalg.cumulative_weights`.
    A sample's witness is the block-supported Hermitian part of C(s),
    returned as a stack; it counts only where it differs from C(s) by
    rounding and passes the solver's box test, and then its defect is
    ||L(C) - op(s)||_F. The test is exact on the assembled C, so
    quadrature error can raise a defect but never hide a bad witness.
    """
    kappa = solver.kappa
    cs = np.broadcast_to(c_end, (len(grid),) + c_end.shape)
    sigma, weights = None, None
    for fam, nodes in families:
        at = clamped(fam.sigma_at(grid), 1.0,
                      f"{fam.label} sigma_at leaves [0, 1]", 0.0)
        # Families that attach alike share their weights.
        if sigma is None or not np.array_equal(at, sigma):
            sigma, weights = at, cumulative_weights(np.sqrt(at))
        cs = cs + (weights @ nodes.reshape(len(nodes), -1)).reshape(
            len(grid), kappa, kappa)
    herm = np.where(solver.mask, 0.5 * (cs + cs.conj().swapaxes(-1, -2)),
                    0.0)
    return herm, np.linalg.norm(cs - herm, axis=(1, 2)) <= ROUNDING_TOL


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


# The order of the table's segments, each the samples of one kind of check
# whose operators have one form: real diagonals (2), matrices (3), or none
# (0, the parents' witnesses). In this order the rows that take an
# eigvalsh (endpoint, membership, family and parent) are one slice, those
# that take a residual are one slice for each form, and so are those whose
# operators take a product defect (membership and family).
_ORDER = ((2, "witness-family"), (2, "endpoint"), (2, "membership"),
          (2, "family"), (0, "parent"), (3, "endpoint"), (3, "membership"),
          (3, "family"), (3, "witness-family"))


class _SamplePass:
    """Every coefficient sample of one verification and the operator each
    pairs with, gathered into one table in the order of :data:`_ORDER`,
    so that one eigvalsh, and one residual call and one product defect
    for each operator form, serve every check; each check reads its own
    rows (``rows[kind, key]``)."""

    def __init__(self):
        self.parts: dict = {segment: [] for segment in _ORDER}

    def add(self, kind: str, key, coefficients: np.ndarray,
            operators: np.ndarray | None = None) -> None:
        """Coefficient samples of a ``kind`` of check, and the operators,
        matrices or real diagonals, that they pair with, one per sample."""
        form = 0 if operators is None else operators.ndim
        self.parts[form, kind].append((key, coefficients, operators))

    def run(self, solver, dims) -> None:
        """One eigvalsh, and per form one residual call and one product
        defect, over the gathered table."""
        self.rows: dict = {}
        blocks, ops, ends = [], {2: [], 3: []}, {}
        row = 0
        for segment in _ORDER:
            start = row
            for key, c, o in self.parts[segment]:
                self.rows[segment[1], key] = slice(row, row + len(c))
                blocks.append(c)
                if o is not None:
                    ops[segment[0]].append(o)
                row += len(c)
            ends[segment] = (start, row)

        def span(first, last):
            return slice(ends[first][0], ends[last][1])

        self.table = np.concatenate(blocks) if blocks else np.empty((0, 0, 0))
        self.spectra = np.empty((row, self.table.shape[-1]))
        eig = span((2, "endpoint"), (3, "family"))
        if eig.stop > eig.start:
            self.spectra[eig] = np.linalg.eigvalsh(self.table[eig])
        self.residuals, self.products = np.empty(row), np.empty(row)
        for form, first, last in ((2, "witness-family", "family"),
                                  (3, "endpoint", "witness-family")):
            paired = span((form, first), (form, last))
            if paired.stop == paired.start:
                continue
            o = np.concatenate(ops[form])
            self.residuals[paired] = _residuals(solver, self.table[paired], o)
            product = span((form, "membership"), (form, "family"))
            self.products[product] = product_defect(
                o[product.start - paired.start:product.stop - paired.start],
                dims, form == 2)


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
    witness fails, or every sample of a path without families.
    For each halt family: positivity of the segment mixtures, product
    structure and basis reconstruction of the densities. Product checks
    take the parties of the spec's basis. Finally the endpoint matrices
    and integrated halt densities must sum to the identity: one check,
    ``resolution``, for an unblocked spec, and for a blocked one a check
    ``resolution[b]`` on the rows of each block b of
    ``spec.block_list()``, so a block that nothing covers fails. Family
    densities are assumed smooth in sqrt(sigma); integrals substitute
    accordingly. Tolerances come from :mod:`loccverify.tolerances`.
    ``s_samples`` None selects each path's dense grid; ``s_samples``
    below 1 raises ValueError. Halt families are sampled at
    ``SIGMA_SAMPLES`` values of sigma.

    Every callback is called on a whole grid at once, so the number of
    calls does not depend on the sample counts. Each path's ``op_at`` is
    called once, on its grid and its bottom end together, and each
    family's ``cdensity_at`` once, on the Gauss nodes of
    :func:`~loccverify.linalg.sqrt_smooth_nodes` and the sigma samples
    together: the node values give its witness integrals and its part of
    the resolution, the samples its psd and reconstruction checks.

    The sample arithmetic is one stacked pass. The coefficient samples
    (each path's endpoint matrix, integrated witness at every s and
    witness family, each family's sigma samples, and the parent witness
    at those sigma) form one table, and the operators they pair with one
    table of each form, real diagonals or matrices. One eigvalsh of the
    table serves the endpoint, box and psd tests, one residual call of
    each form every reconstruction and membership defect, and one
    product defect of each form every product check; each check reads
    its own rows. Coefficient stacks whose entries are real stay real.
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
    values = [_family_values(fam, sigmas, kappa) for fam in families]
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
        attached = [(fam, nodes) for fam, (nodes, _) in zip(families, values)
                    if fam.parent is path]
        if attached:
            witness, hermitian = _integrated_witness(solver, c_end, attached,
                                                     grid)
        else:
            # No witness: every sample goes to the solver.
            witness, hermitian = np.zeros((n, kappa, kappa)), np.zeros(n, bool)
        samples.add("membership", p, witness, ops)
        if path.cmatrix_at is not None:
            samples.add("witness-family", p, _coefficients(
                path.cmatrix_at(grid), n, kappa, f"{path.label} cmatrix_at"),
                ops)
        sampled.append((grid, ops, c_end, hermitian))

    for f, (fam, (_, cs)) in enumerate(zip(families, values)):
        samples.add("family", f, cs, _operators(
            fam.density_at(sigmas), len(sigmas), dim,
            f"{fam.label} density_at"))
    for key, cs in _parent_witnesses(families, sigmas, kappa).items():
        samples.add("parent", key, cs)
    samples.run(solver, dims)

    checks: list[ConditionCheck] = []
    total = np.zeros((kappa, kappa), dtype=np.complex128)
    for p, (path, (grid, ops, c_end, hermitian)) in enumerate(
            zip(paths, sampled)):
        lbl = path.label
        n = len(grid)
        if ops.ndim == 2:
            trace = np.abs(ops.sum(axis=1) - grid)
        else:
            trace = np.abs(np.trace(ops, axis1=1, axis2=2).real - grid)
        rows = samples.rows["membership", p]
        ok = hermitian & solver.in_box(samples.table[rows],
                                       samples.spectra[rows])
        defects = np.where(ok, samples.residuals[rows], np.inf)
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
        total = total + sqrt_smooth_total(values[f][0])

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
