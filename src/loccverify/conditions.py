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


def _coefficients(stack, n: int, kappa: int, what: str) -> np.ndarray:
    """A callback's coefficient stack, checked and symmetrised: real when
    the callback's is, complex otherwise."""
    return coefficient_stack(_checked(np.asarray(stack), (n, kappa, kappa),
                                      what))


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


def _endpoint_check(path: CheckedPath, spec: ZonoidSpec):
    op = _operators(path.op_at(np.array([path.s_bottom])), 1, spec.dim,
                    f"{path.label} op_at")[0]
    c = endpoint_cmatrix(_as_matrix(sqrt_psd(op)), spec)
    recon = float(_residuals(spec.solver(), c.matrix, op))
    # Ascending: the largest eigenvalue is the last, the rank excess is
    # every other one, and the lowest is the first.
    w = c.eigenvalues()
    rank_excess = float(np.abs(w[:-1]).max(initial=0.0))
    box_excess = max(0.0, float(w[-1]) - 1.0, -float(w[0]))
    return c, max(recon, rank_excess, box_excess)


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


def _witness_defects(solver, c_end: np.ndarray,
                     families: Sequence[tuple[EndpointFamily, np.ndarray]],
                     grid: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Membership defect of the integrated witness at each sample s.

    The halt families peel off the path continuously, so
    C(s) = C_end + sum_f int_0^sigma_f(s) cdensity_f is a coefficient
    matrix for op(s). ``families`` pairs each family with its node values
    (:func:`_family_values`), and the integrals over [0, sigma_f(s)] are
    their products with :func:`~loccverify.linalg.cumulative_weights`.
    A sample's witness is the block-supported
    Hermitian part of C(s); it counts only if it passes the solver's box
    test and differs from C(s) by rounding, and then its defect is
    ||L(C) - op(s)||_F. Every other sample gets an infinite defect, which
    sends it to the solver. The test is exact on the assembled C, so
    quadrature error can raise a defect but never hide a bad witness.
    """
    kappa = solver.kappa
    # A real endpoint keeps C(s) real when the node values are.
    if not c_end.imag.any():
        c_end = c_end.real
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
    ok = ((np.linalg.norm(cs - herm, axis=(1, 2)) <= ROUNDING_TOL)
          & solver.in_box(herm))
    return np.where(ok, _residuals(solver, herm, ops), np.inf)


def _parent_lows(families: Sequence[EndpointFamily], sigmas: np.ndarray,
                 kappa: int) -> list:
    """Per family, the lowest eigenvalue of its parent's witness at each
    sigma, or None when the parent has no ``cmatrix_at``: one
    ``cmatrix_at`` call and one eigvalsh for each (parent, ``attach_s``)
    pair, which families attached alike share."""
    found: dict[tuple[int, int], np.ndarray] = {}
    lows = []
    for fam in families:
        parent = fam.parent
        if parent.cmatrix_at is None:
            lows.append(None)
            continue
        key = (id(parent), id(fam.attach_s))
        if key not in found:
            cm = _coefficients(parent.cmatrix_at(fam.attach_s(sigmas)),
                               len(sigmas), kappa,
                               f"{parent.label} cmatrix_at")
            found[key] = np.linalg.eigvalsh(cm)[:, 0]
        lows.append(found[key])
    return lows


def _family_checks(solver, families: Sequence[EndpointFamily], values: list,
                   sigmas: np.ndarray, dims) -> list:
    """The ``psd``, ``product`` and ``reconstruction`` checks of each halt
    family in turn, with its coefficient samples from ``values``
    (:func:`_family_values`), in one stacked pass over the families of
    each density form: real diagonals (n, d) and matrices (n, d, d) each
    take one eigvalsh of every such family's samples, one product defect
    and one residual call, and each family's checks read its own slice."""
    n = len(sigmas)
    dens = [_operators(fam.density_at(sigmas), n, solver.dim,
                       f"{fam.label} density_at") for fam in families]
    parent_lows = _parent_lows(families, sigmas, solver.kappa)
    found: list = [None] * len(families)
    for ndim in (2, 3):
        members = [i for i, d in enumerate(dens) if d.ndim == ndim]
        if not members:
            continue
        samples = np.concatenate([values[i][1] for i in members])
        stack = np.concatenate([dens[i] for i in members])
        shape = (len(members), n)
        lows = np.linalg.eigvalsh(samples)[:, 0].reshape(shape)
        products = product_defect(stack, dims, ndim == 2).reshape(shape)
        recons = _residuals(solver, samples, stack).reshape(shape)
        for i, low, product, recon in zip(members, lows, products, recons):
            lbl = families[i].label
            # lambda_min is concave, so the segment mixtures
            # (1 - x) C_parent + x C_r are lowest at x = 0 or x = 1.
            if parent_lows[i] is not None:
                low = np.minimum(low, parent_lows[i])
            found[i] = [
                # On a tie np.maximum returns its second argument: +0.0,
                # not -0.0.
                _worst(f"{lbl}:psd", np.maximum(-low, 0.0), MIXTURE_PSD_TOL,
                       "sigma", sigmas),
                _worst(f"{lbl}:product", product, PRODUCT_TOL, "sigma",
                       sigmas),
                _worst(f"{lbl}:reconstruction", recon, RECON_TOL, "sigma",
                       sigmas),
            ]
    return [check for checks in found for check in checks]


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
    calls does not depend on the sample counts. Each family's
    ``cdensity_at`` is called once, on the Gauss nodes of
    :func:`~loccverify.linalg.sqrt_smooth_nodes` and the sigma samples
    together: the node values give its witness integrals and its part of
    the resolution, the samples its psd and reconstruction checks.
    Coefficient stacks stay real when their callbacks return real arrays.
    Operators and densities that come as real diagonals are checked as
    diagonals: the trace is a row sum, the product defect takes the SVD
    of each cut's reshape of the diagonal, the endpoint root is the
    entrywise root, and residuals are taken on the solver's reached
    entries; only samples sent to the solver are made matrices.
    Sampled checks report the s or sigma of their largest defect as
    ``where``; a membership check also reports how many samples the
    solver answered and, when any, how many of those it left undecided.
    """
    if s_samples is not None and s_samples < 1:
        raise ValueError("s_samples must be at least 1")
    checks: list[ConditionCheck] = []
    solver = spec.solver()
    kappa, dim, dims = spec.kappa, spec.dim, spec.basis.input_dims
    total = np.zeros((kappa, kappa), dtype=np.complex128)
    sigmas = np.linspace(0.0, 1.0, SIGMA_SAMPLES)
    values = [_family_values(fam, sigmas, kappa) for fam in families]

    for path in paths:
        lbl = path.label
        c_end, end_defect = _endpoint_check(path, spec)
        grid = path.sample_grid(s_samples)
        n = len(grid)
        ops = _operators(path.op_at(grid), n, dim, f"{lbl} op_at")
        diagonal = ops.ndim == 2
        if diagonal:
            trace = np.abs(ops.sum(axis=1) - grid)
        else:
            trace = np.abs(np.trace(ops, axis1=1, axis2=2).real - grid)
        attached = [(fam, nodes) for fam, (nodes, _) in zip(families, values)
                    if fam.parent is path]
        if attached:
            defects = _witness_defects(solver, c_end.matrix, attached, grid,
                                       ops)
        else:
            defects = np.full(n, np.inf)
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
        checks += [
            _worst(f"{lbl}:trace", trace, TRACE_TOL, "s", grid),
            _worst(f"{lbl}:product", product_defect(ops, dims, diagonal),
                   PRODUCT_TOL, "s", grid),
            ConditionCheck(f"{lbl}:membership", float(defects[worst]),
                           membership_tol, mem_where),
            ConditionCheck(f"{lbl}:endpoint", end_defect, RECON_TOL),
        ]
        if path.cmatrix_at is not None:
            cm = _coefficients(path.cmatrix_at(grid), n, kappa,
                               f"{lbl} cmatrix_at")
            checks.append(_worst(f"{lbl}:witness-family",
                                 _residuals(solver, cm, ops), RECON_TOL, "s",
                                 grid))
        total = total + c_end.matrix

    checks += _family_checks(solver, families, values, sigmas, dims)
    for nodes, _ in values:
        total = total + sqrt_smooth_total(nodes)

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
