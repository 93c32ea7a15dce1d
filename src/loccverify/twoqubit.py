"""Worked two-qubit example: the channel reachable by LOCC only in the limit.

The channel splits into three CP maps (an all-ones projection and one
coarse-grained halt map per party). Everything here is built from two
competing descriptions of it: the five product Kraus operators grouped by
outcome, and the four-operator reduced set spanning the same channel. The
continuum limit of the halting protocol supplies a third description as a
one-parameter family, and the functions below cross-check all three. Its
halt outcomes 1 (party B halts) and 2 (party A halts), one table in
:data:`HALTS`, are the two-party derivative outcomes of party 1 and 0.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import (
    PartyDims,
    as_matrix,
    clamped,
    diagonal_stack,
    integrate_sqrt_smooth,
    kron,
    partial_trace,
)
from .channels import (
    ChoiOperator,
    Instrument,
    KrausSet,
    kraus_from_operators,
)
from .conditions import SIGMA_GRID
from .pqubit import (limit_tables, multiplier_choi_matrix, multiplier_kraus,
                     prelimit_coefficients, quadrature_coefficients)
from .protocols import derivative_diagonals
from .tolerances import DENSITY_TRACE_TOL, QUAD_NODES
from .zonoid import ZonoidSpec, zonoid_spec_for_instrument


def _diag4(a, b, c, d) -> np.ndarray:
    return np.diag([a, b, c, d]).astype(np.complex128)


# K_GROUPED's operators in each outcome: all-ones outcome 0, then the halts.
OUTCOME_GROUPS = ((0,), (1, 2), (3, 4))

# The halt outcomes in report order. ``party`` is the halting party's index
# on the outcome axis of protocols.derivative_diagonals; ``outcome`` is the
# outcome's index in the instrument, which is also its block of
# instrument_zonoid, its group of OUTCOME_GROUPS and the K_REDUCED operator
# that its closed-form ``density`` of c_matrix_stack weights by 1.
Halt = namedtuple("Halt", "label party outcome density")
HALTS = (Halt("halt-B", party=1, outcome=1, density="C2"),
         Halt("halt-A", party=0, outcome=2, density="C3"))


# Five product Kraus operators, grouped by outcome as OUTCOME_GROUPS says.
K_GROUPED = np.stack([
    _diag4(0.0, 0.0, 0.0, 1.0),
    _diag4(1.0, 0.0, 1.0, 0.0) / np.sqrt(3.0),
    _diag4(1.0, 0.0, 2.0, 0.0) / np.sqrt(6.0),
    _diag4(1.0, 1.0, 0.0, 0.0) / np.sqrt(3.0),
    _diag4(1.0, 2.0, 0.0, 0.0) / np.sqrt(6.0),
])

# Reduced four-operator set spanning the same channel.
K_REDUCED = np.stack([
    _diag4(0.0, 0.0, 0.0, 1.0),
    _diag4(2.0 / 3.0, 0.0, 1.0, 0.0),
    _diag4(2.0 / 3.0, 1.0, 0.0, 0.0),
    _diag4(1.0 / 3.0, 0.0, 0.0, 0.0),
])

# Isometry taking the reduced set to the grouped one, row j giving the
# expansion of grouped operator j.
W_GROUPING = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, np.sqrt(1.0 / 3.0), 0.0, np.sqrt(1.0 / 3.0)],
    [0.0, np.sqrt(2.0 / 3.0), 0.0, -np.sqrt(1.0 / 6.0)],
    [0.0, 0.0, np.sqrt(1.0 / 3.0), np.sqrt(1.0 / 3.0)],
    [0.0, 0.0, np.sqrt(2.0 / 3.0), -np.sqrt(1.0 / 6.0)],
], dtype=np.complex128)

# Every caller shares these three arrays, so they are read-only.
K_GROUPED.setflags(write=False)
K_REDUCED.setflags(write=False)
W_GROUPING.setflags(write=False)


def c_matrix_stack(name: str, s) -> np.ndarray:
    """Closed-form coefficient families of the worked two-qubit channel over
    :data:`K_REDUCED`, at every s of a 1-D array in [1, 4]; real, shape
    (n, 4, 4).

    With sigma = sqrt(s) - 1, "C2" and "C3" are the rank-1 densities
    w w^T (d sigma) of the :data:`HALTS` naming them, read from their
    tables in :func:`limiting_family`: w weights operator 3 by
    3 sqrt(sigma) - 2 and the halt's outcome operator by 1. "C1", the
    main-path witness, is the endpoint e_0 e_0^T plus the integrals of C2
    and C3 over [0, sigma]. The densities may leave the unit box; only
    assembled witnesses are box constrained. A caller that needs checked
    coefficient matrices passes the stack through
    :func:`~loccverify.zonoid.coefficient_stack`.
    """
    tables = {halt.density: fam.table
              for halt, fam in zip(HALTS, limiting_family()[1])}
    if name != "C1" and name not in tables:
        raise ValueError(f"unknown family {name!r}")
    sigma = _sigma_of(clamped(s, 4.0, f"{name} needs s in [1, 4]"))
    if name == "C1":
        u = np.sqrt(sigma)
        c = sum(table.integrals(u) for table in tables.values())
        c[:, 0, 0] += 1.0
        return c
    return tables[name].cdensity_at(sigma)


@dataclass(frozen=True)
class TwoQubitExample:
    """The worked instrument plus its reduced channel description."""

    instrument: Instrument
    minimal: KrausSet


def two_qubit_instrument() -> TwoQubitExample:
    grouped = kraus_from_operators(list(K_GROUPED), (2, 2))
    inst = Instrument(grouped, OUTCOME_GROUPS)
    minimal = kraus_from_operators(list(K_REDUCED), (2, 2))
    return TwoQubitExample(inst, minimal)


def limiting_choi_2q() -> ChoiOperator:
    """Unnormalized Choi operator assembled from the limit outcomes.

    Every limit outcome is diagonal, so this is the matched-pair embedding
    of the two-party multiplier integrated over the halt continua; the
    integrands are smooth in sqrt(sigma), so the substituted quadrature
    rule is exact to rounding.
    """
    s = quadrature_coefficients(2)
    return ChoiOperator(multiplier_choi_matrix(s), 4, 4, normalized=False)


@dataclass(frozen=True)
class IntegralCheck:
    last_column_norm: float
    cross_overlap: float


def continuous_isometry_check() -> IntegralCheck:
    """Column orthonormality of the continuum-to-reduced expansion.

    The halt operators expand over the reduced set with the weights of the
    densities C2 and C3 of :func:`c_matrix_stack`, so the integral of
    C2 + C3, the halt families' part of the identity resolution, holds the
    last column's norm at (3, 3) and a cross overlap at (1, 3). It is
    smooth in sqrt(sigma), so the substituted rule evaluates it exactly.
    """
    total = integrate_sqrt_smooth(lambda sg: sum(
        c_matrix_stack(halt.density, _s_of(sg)) for halt in HALTS)).real
    return IntegralCheck(float(total[3, 3]), float(total[1, 3]))


@cache
def _grouped_fits() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per halt of :data:`HALTS`, its group of :data:`K_GROUPED`, as the
    diagonals in the columns of a (4, 2) matrix A, and the pseudo-inverse
    A^+, (2, 4). Built on first use and read-only, since every call of
    :func:`blocked_isometry_check` reads the same arrays."""
    grouped = K_GROUPED.diagonal(axis1=1, axis2=2).real
    fits = []
    for halt in HALTS:
        a = grouped[list(OUTCOME_GROUPS[halt.outcome])].T
        pinv = np.linalg.pinv(a)
        a.setflags(write=False)
        pinv.setflags(write=False)
        fits.append((a, pinv))
    return tuple(fits)


@dataclass(frozen=True)
class BlockedIsometryCheck:
    max_row_residual: float
    coefficient_defect: float


def blocked_isometry_check() -> BlockedIsometryCheck:
    """Expansion of the halt continua over the grouped operators.

    Each halt operator recombines within a single outcome group, with
    coefficients sqrt(3) (2 sqrt(sigma) - 1) on the first group member and
    sqrt(6) (1 - sqrt(sigma)) on the second. Rows are fit by least squares
    against their own group (the full five-operator set is linearly
    dependent, so a global fit cannot localize blocks); the fitted
    coefficients are also compared against the closed form. A block's
    matrix does not depend on sigma, so one least-squares solve per block
    takes every sigma sample as a right-hand side, through the block's
    pseudo-inverse (:func:`_grouped_fits`). The halt and grouped operators
    are all diagonal, so the fit runs on their diagonals: each halt's are
    the root samples of its table in :func:`blocked_limiting_family`, at
    the sigma grid the theorem verifier checks, which the table holds.
    """
    rt = np.sqrt(SIGMA_GRID)
    want = np.stack([np.sqrt(3.0) * (2.0 * rt - 1.0),
                     np.sqrt(6.0) * (1.0 - rt)])
    worst_res = 0.0
    worst_coef = 0.0
    _, families = blocked_limiting_family()
    for fam, (a, pinv) in zip(families, _grouped_fits()):
        vecs = fam.table.samples.root.T
        coef = pinv @ vecs
        worst_res = max(worst_res, float(
            np.linalg.norm(a @ coef - vecs, axis=0).max()))
        worst_coef = max(worst_coef, float(np.abs(coef - want).max()))
    return BlockedIsometryCheck(worst_res, worst_coef)


@dataclass(frozen=True)
class CoarseGrainCheck:
    max_defect: float


def coarse_grain_check(nodes: int = QUAD_NODES) -> CoarseGrainCheck:
    """Integrated halt continua against the grouped CP maps.

    On every matrix unit, integrating k(sigma) rho k(sigma) over the halt
    parameter must reproduce the corresponding two-operator CP map. Every
    operator here is diagonal, and for diagonal K, K rho K^dag is rho times
    the matrix k conj(k)^T entry by entry. So the image of the unit
    |a><d| is that matrix's entry (a, d) there, and comparing the
    integrated multiplier matrix with the branch's own, entry by entry,
    gives the defect of all 16 units at once. The branches are the halt
    outcomes of :data:`HALTS`, each against its group of K_GROUPED. Every
    check runs the default order QUAD_NODES; ``nodes`` stays only because
    ``perfbench/workloads.py`` passes it.
    """
    parties = [halt.party for halt in HALTS]

    def integrand(sigma: np.ndarray) -> np.ndarray:
        kd = np.sqrt(derivative_diagonals(2, sigma).take(parties, axis=1))
        return np.einsum("nra,nrd->nrad", kd, kd)

    got = integrate_sqrt_smooth(integrand, nodes=nodes)
    # The grouped operators' diagonals are real, so k conj(k)^T is k k^T.
    k = K_GROUPED.diagonal(axis1=1, axis2=2).real.take(
        [OUTCOME_GROUPS[halt.outcome] for halt in HALTS], axis=0)
    want = np.einsum("rka,rkd->rad", k, k)
    return CoarseGrainCheck(float(np.abs(got - want).max()))


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit entanglement monotone max(0, l1 - l2 - l3 - l4)."""
    rho = as_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError("concurrence needs a two-qubit density matrix")
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise ValueError(f"density matrix must have unit trace, got {tr}")
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sy, sy)
    r = rho @ yy @ rho.conj() @ yy
    eigs = np.linalg.eigvals(r).real
    lam = np.sqrt(np.clip(np.sort(eigs)[::-1], 0.0, None))
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


@dataclass(frozen=True)
class WStateReport:
    """Action of the limit measurement on the three-party W state."""

    k1_image_norm: float
    probability: float
    ac_state: np.ndarray
    bc_state: np.ndarray
    concurrence: float


def wstate_analysis() -> WStateReport:
    """Halt outcomes of the limit measurement applied to the W state.

    The all-ones outcome annihilates the state. Each halt continuum fires
    with total probability one half and leaves the two parties that kept
    measuring in an entangled two-qubit state; its concurrence certifies
    that entanglement was created between parties that never interacted.
    """
    w = np.zeros(8, dtype=np.complex128)
    w[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    eye2 = np.eye(2, dtype=np.complex128)

    e1 = _diag4(0.0, 0.0, 0.0, 1.0)
    k1_norm = float(np.linalg.norm(kron([e1, eye2]) @ w))

    def outcome(sigma: np.ndarray, party: int) -> np.ndarray:
        k = diagonal_stack(np.sqrt(derivative_diagonals(2, sigma)[:, party]))
        v = kron([k, eye2]) @ w
        return v[:, :, None] * v[:, None, :].conj()

    rho_b, rho_a = (integrate_sqrt_smooth(lambda sg, p=halt.party:
                                          outcome(sg, p)) for halt in HALTS)
    prob = float(np.real(np.trace(rho_b)))

    dims3 = PartyDims((2, 2, 2))
    # Halt-B leaves A and C entangled; halt-A is the mirror image.
    ac = partial_trace(rho_b / np.trace(rho_b), dims3, keep=(1, 3))
    bc = partial_trace(rho_a / np.trace(rho_a), dims3, keep=(2, 3))
    return WStateReport(k1_norm, prob, ac, bc, concurrence(ac))


def prelimit_channel(rounds: int, exponent: float) -> KrausSet:
    """Channel implemented by the halting protocol stopped after ``rounds``.

    The stopped channel is the Hadamard multiplier
    ``prelimit_coefficients(2, rounds, exponent)``; its Kraus operators
    come from the factorisation of that multiplier, at most four of them,
    so the cost does not grow with ``rounds``.
    """
    return multiplier_kraus(prelimit_coefficients(2, rounds, exponent),
                            (2, 2))


def _shared_spec(spec: ZonoidSpec) -> ZonoidSpec:
    """``spec`` with its operators made read-only, for a builder whose
    spec every caller shares; the builder made the array, so no caller's
    array changes."""
    spec.basis.operators.setflags(write=False)
    return spec


@cache
def channel_zonoid() -> ZonoidSpec:
    """Zonoid over the reduced four-operator basis.

    Built once per process: every caller shares the one frozen spec, its
    read-only operators and its solver.
    """
    return _shared_spec(
        ZonoidSpec(kraus_from_operators(list(K_REDUCED), (2, 2))))


def _s_of(sigma):
    """Main-path trace s = (1 + sigma)^2 where halt parameter sigma attaches."""
    return (1.0 + sigma) ** 2


def _sigma_of(s):
    """Inverse of :func:`_s_of`."""
    return np.sqrt(s) - 1.0


def limiting_family(spec: ZonoidSpec | None = None):
    """Main path and halt families of the limit, ready for verification:
    the continua of :data:`HALTS`, each its party's halts over the single
    block of ``spec`` (by default :func:`channel_zonoid`), built by
    :func:`~loccverify.pqubit.limit_tables`. Over the reduced basis each
    w is e_outcome + (3 sqrt(sigma) - 2) e_3, solved exactly."""
    if spec is None:
        spec = channel_zonoid()
    return limit_tables(spec, [(halt.label, halt.party, 0)
                               for halt in HALTS])


@cache
def instrument_zonoid() -> ZonoidSpec:
    """Blocked zonoid over the per-outcome minimal bases (sizes 1, 2, 2).

    Built once per process and shared, as :func:`channel_zonoid` is.
    """
    return _shared_spec(
        zonoid_spec_for_instrument(two_qubit_instrument().instrument))


def blocked_limiting_family(spec: ZonoidSpec | None = None):
    """Limit paths over the blocked instrument basis of ``spec``, by
    default :func:`instrument_zonoid`: as :func:`limiting_family`, but
    each halt's family is the least-squares expansion of its density's
    root over its outcome's block, so the per-outcome identity
    resolutions can be checked."""
    if spec is None:
        spec = instrument_zonoid()
    return limit_tables(spec, [(halt.label, halt.party, halt.outcome)
                               for halt in HALTS])
