"""Necessary conditions for LOCC in the limit, checked on zonoid paths.

An instrument that LOCC approximates arbitrarily closely carries a path of
product operators through the zonoid of its Kraus basis, with halt
continua peeling off it whose endpoint matrices and integrated densities
resolve the identity (Theorems 1 and 8). :func:`verify_theorem_conditions`
samples those conditions on caller-supplied paths and families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .linalg import (clamped, diagonal_stack, lowest_eigenvalues,
                     polynomial_values, product_defect, sqrt_psd)
from .tolerances import (MEMBERSHIP_TOL, MIXTURE_PSD_TOL, PRODUCT_TOL,
                         RECON_TOL, RESOLUTION_TOL, ROUNDING_TOL,
                         SIGMA_SAMPLES, TRACE_TOL)
from .zonoid import ZonoidSpec, endpoint_cmatrix, membership

# The SIGMA_SAMPLES values of sigma at which every halt family is checked,
# and at which each FamilyTable holds its samples; read-only.
SIGMA_GRID = np.linspace(0.0, 1.0, SIGMA_SAMPLES)
SIGMA_GRID.setflags(write=False)


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


class FamilySamples(NamedTuple):
    """A family table at :data:`SIGMA_GRID`, one row per sigma: its
    coefficient densities conj(w) w^T, (n, kappa, kappa), its operator
    densities, (n, d), the lowest eigenvalue of each coefficient density,
    (n,), and its roots r, (n, d). Read-only."""

    cdensity: np.ndarray
    density: np.ndarray
    lowest: np.ndarray
    root: np.ndarray


@dataclass(frozen=True, eq=False)
class FamilyTable:
    """A halt family that is a polynomial in u = sqrt(sigma).

    Its coefficient density is conj(w) w^T and its operator density the
    real diagonal r * r, with w = sum_k w_k u^k and r = sum_k r_k u^k:
    ``w`` holds the rows w_k, (deg + 1, kappa), ``root`` the rows r_k,
    (deg' + 1, d), and ``block`` the basis indices off which every w_k is
    zero. :meth:`cdensity_at`, :meth:`density_at` and :meth:`root_at`
    evaluate the table by Horner's rule; :attr:`samples` holds them at
    :data:`SIGMA_GRID`, the samples the verifier checks.

    With sigma = t^2, the integral of conj(w) w^T over [0, u^2] is that of
    2 t conj(w(t)) w(t)^T over [0, u], a polynomial in u whose
    coefficient of u^(m + 2) is 2 G_m / (m + 2), G_m = sum_{j + k = m}
    conj(w_j) w_k^T: ``antiderivative`` holds those, (2 deg + 1, kappa,
    kappa), each Hermitian bit for bit and zero off the block, and
    ``total`` their sum, the integral over [0, 1].
    Frozen, with read-only arrays, and compared by identity.
    """

    w: np.ndarray
    root: np.ndarray
    block: tuple[int, ...]
    total: np.ndarray = field(init=False, repr=False)

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
        for name, a in (("w", w), ("root", root), ("antiderivative", g),
                        ("total", g.sum(axis=0))):
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

    def root_at(self, sigma) -> np.ndarray:
        """The real roots r at every sigma of a 1-D array in [0, 1];
        (n, d)."""
        return polynomial_values(self.root, self._roots(sigma))

    def density_at(self, sigma) -> np.ndarray:
        """The real diagonals r * r at every sigma of a 1-D array in
        [0, 1]; (n, d)."""
        r = self.root_at(sigma)
        return r * r

    @cached_property
    def samples(self) -> FamilySamples:
        """The table at :data:`SIGMA_GRID`, built on first use and then
        held, since every verification reads the same samples. Each is
        taken through this table's own evaluators, so a subclass's are
        the ones sampled, and the lowest eigenvalues are
        :func:`_lowest`'s, in closed form for blocks of at most two
        indices."""
        cdensity = self.cdensity_at(SIGMA_GRID)
        samples = FamilySamples(cdensity, self.density_at(SIGMA_GRID),
                                _lowest(cdensity, self.block),
                                self.root_at(SIGMA_GRID))
        for a in samples:
            a.setflags(write=False)
        return samples

    def integrals(self, u: np.ndarray) -> np.ndarray:
        """The integral of conj(w) w^T over [0, u^2] at each u of a 1-D
        array in [0, 1]; (n, kappa, kappa). Horner's rule takes every
        entry through the same operations, so the integrals are Hermitian
        bit for bit, as a BLAS product is not."""
        out = polynomial_values(self.antiderivative, u)
        out *= (u * u)[:, None, None]
        return out


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


def sample_pass_bytes(kappa: int, dim: int, samples: int,
                      families: int) -> int:
    """Peak bytes of :func:`verify_theorem_conditions` over one path of
    ``samples`` s samples with ``families`` halt families attached, and
    real tables, from its sample table's layout alone, with the samples
    those families' tables hold and the spec's expansion maps.

    The table has a row per s sample (its integrated witness), one
    endpoint row and ``SIGMA_SAMPLES`` rows per family, each with kappa^2
    entries and paired with a real diagonal operator of ``dim`` entries,
    which are held twice: their stacks and their concatenation. On top of
    these, the larger of two phases. While the witnesses are integrated,
    two more stacks of their rows (the product and the sum of Horner's
    rule), the buffer numpy gives the broadcast product, as many entries
    as a stack up to its 8192, and three vectors over the s grid (s,
    sigma and sqrt(sigma)). While the table is checked, a spectrum of
    kappa entries, a residual and a product defect per row, and three
    diagonals of the residual's temporaries per row. Each family's table
    holds, per sigma, its coefficient density, its density, its root and
    its lowest eigenvalue (:attr:`FamilyTable.samples`). The endpoint
    matrix reads the spec's expansion maps, two complex (dim^2, kappa)
    arrays built on first use.
    """
    entry = 8
    rows = samples + 1 + families * SIGMA_SAMPLES
    table = rows * kappa ** 2 * entry
    operators = 2 * rows * dim * entry
    held = families * SIGMA_SAMPLES * (kappa ** 2 + 2 * dim + 1) * entry
    expansions = 2 * dim ** 2 * kappa * 2 * entry
    integrate = (samples * (2 * kappa ** 2 + 3)
                 + min(samples * kappa ** 2, 8192)) * entry
    run = (rows * (kappa + 2) + 3 * rows * dim) * entry
    return table + operators + held + expansions + max(integrate, run)


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
    :data:`SIGMA_GRID`, ``SIGMA_SAMPLES`` values of sigma, and a family at
    sigma attaches to its parent at s = (1 + sigma)^P, P the parties of
    the spec. Each table evaluates those samples once and holds them
    (:attr:`FamilyTable.samples`), so a table verified again is not
    evaluated again; every check still runs on every call.

    Each path's ``op_at`` is called once, on its grid and its bottom end
    together, so the number of calls does not depend on the sample
    counts.

    The sample arithmetic runs over one table of coefficient samples:
    each family's sigma samples, then each path's integrated witness at
    every s followed by its endpoint matrix. Each row pairs with a real
    diagonal, and the diagonals are concatenated once. One eigvalsh of the
    path rows serves the endpoint and box tests, one residual call every
    reconstruction and membership defect, and one product defect every
    product check; each check reads its own rows. A family's samples
    conj(w) w^T are Hermitian bit for bit and zero off its table's block,
    so they take no input check and no eigvalsh: their lowest eigenvalue
    is their block's, in closed form for blocks of at most two indices
    (:func:`~loccverify.linalg.lowest_eigenvalues`), and its table holds
    it with the samples. The psd check's parent side is the lowest
    eigenvalue of the parent's endpoint matrix, from the endpoint row's
    spectrum: the parent's witness at sigma is that matrix plus integrals
    of conj(w) w^T, masked to its blocks, and neither adds nor masking
    lowers its lowest eigenvalue. A family whose parent is not among
    ``paths`` has its own samples alone. Coefficient stacks whose entries
    are real stay real.
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
    for fam in families:
        t = fam.table
        if t.w.shape[1] != kappa or t.root.shape[1] != dim:
            raise ValueError(f"{fam.label} has a table over {t.w.shape[1]} "
                             f"operators of {t.root.shape[1]} entries; the "
                             f"spec has {kappa} of {dim}")

    # The families' rows come first; each path's n witness rows and its
    # endpoint row follow from a running offset.
    start = row = len(families) * SIGMA_SAMPLES
    dtypes = [np.float64] + [fam.table.samples.cdensity for fam in families]
    ops = [fam.table.samples.density for fam in families]
    sampled = []
    for path in paths:
        grid = path.sample_grid(s_samples)
        n = len(grid)
        # One call gives the operators on the grid and, last, the one at
        # the bottom end, whose root gives the endpoint matrix.
        ops.append(_diagonals(path.op_at(np.append(grid, path.s_bottom)),
                              n + 1, dim, f"{path.label} op_at"))
        c_end = _real_when_zero(
            endpoint_cmatrix(sqrt_psd(ops[-1][-1]), spec).matrix)
        attached = [fam for fam in families if fam.parent is path]
        dtypes += [c_end] + [fam.table.w for fam in attached]
        sampled.append((path, grid, row, c_end, attached))
        row += n + 1
    table = np.empty((row, kappa, kappa), np.result_type(*dtypes))
    operators = np.concatenate(ops) if ops else np.empty((0, dim))
    for f, fam in enumerate(families):
        table[f * SIGMA_SAMPLES:(f + 1) * SIGMA_SAMPLES] = \
            fam.table.samples.cdensity

    hermitian = []
    for path, grid, row, c_end, attached in sampled:
        n = len(grid)
        table[row + n] = c_end
        # A path with no family has no witness: the solver answers every
        # sample.
        if not attached:
            table[row:row + n] = 0.0
            hermitian.append(np.zeros(n, bool))
            continue
        sigma = clamped(grid ** (1.0 / parties) - 1.0, 1.0,
                        f"{path.label} s outside [1, {2 ** parties}], where "
                        "its families attach: sigma outside [0, 1]", 0.0)
        hermitian.append(_integrated_witness(solver, c_end, attached,
                                             np.sqrt(sigma),
                                             table[row:row + n]))
    spectra = np.linalg.eigvalsh(table[start:])
    residuals = solver.diagonal_residuals(table, operators)
    products = product_defect(operators, dims, True)

    checks: list[ConditionCheck] = []
    total = np.zeros((kappa, kappa), dtype=np.complex128)
    end_lowest = {}
    for (path, grid, row, c_end, _), herm in zip(sampled, hermitian):
        lbl = path.label
        n = len(grid)
        rows, end = slice(row, row + n), row + n
        ops, witness = operators[rows], table[rows]
        eig = spectra[row - start:end - start]
        trace = np.abs(ops.sum(axis=1) - grid)
        boxed = solver.in_box(witness, eig)
        defects = np.where(herm & boxed, residuals[rows], np.inf)
        # A Hermitian witness just outside the box, repaired by the
        # spectrum's own excess delta; the eigenvalues (lambda + delta) /
        # (1 + 2 delta) of the repair lie in [0, 1] in exact arithmetic.
        near = np.flatnonzero(herm & ~boxed)
        if near.size:
            delta = np.maximum(np.maximum(-eig[near, 0],
                                          eig[near, -1] - 1.0), 0.0)
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
        # Ascending: the largest eigenvalue is the last, the rank excess is
        # every other one, and the lowest is the first.
        w = spectra[end - start]
        end_lowest[id(path)] = w[0]
        end_defect = max(float(residuals[end]),
                         float(np.abs(w[:-1]).max(initial=0.0)),
                         0.0, float(w[-1]) - 1.0, -float(w[0]))
        checks += [
            _worst(f"{lbl}:trace", trace, TRACE_TOL, "s", grid),
            _worst(f"{lbl}:product", products[rows], PRODUCT_TOL, "s",
                   grid),
            ConditionCheck(f"{lbl}:membership", float(defects[worst]),
                           membership_tol, mem_where),
            ConditionCheck(f"{lbl}:endpoint", end_defect, RECON_TOL),
        ]
        total = total + c_end

    for f, fam in enumerate(families):
        lbl = fam.label
        rows = slice(f * SIGMA_SAMPLES, (f + 1) * SIGMA_SAMPLES)
        low = fam.table.samples.lowest
        # lambda_min is concave, so the segment mixtures
        # (1 - x) C_parent + x C_r are lowest at x = 0 or x = 1, and
        # lambda_min(C_parent) >= lambda_min(C_end).
        if id(fam.parent) in end_lowest:
            low = np.minimum(low, end_lowest[id(fam.parent)])
        checks += [
            # On a tie np.maximum returns its second argument: +0.0, not
            # -0.0.
            _worst(f"{lbl}:psd", np.maximum(-low, 0.0), MIXTURE_PSD_TOL,
                   "sigma", SIGMA_GRID),
            _worst(f"{lbl}:product", products[rows], PRODUCT_TOL,
                   "sigma", SIGMA_GRID),
            _worst(f"{lbl}:reconstruction", residuals[rows], RECON_TOL,
                   "sigma", SIGMA_GRID),
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
