"""Worked two-qubit example: the channel reachable by LOCC only in the limit.

The channel splits into three CP maps (an all-ones projection and one
coarse-grained halt map per party). Everything here is built from two
competing descriptions of it: the five product Kraus operators grouped by
outcome, and the four-operator reduced set spanning the same channel. The
continuum limit of the halting protocol supplies a third description as a
one-parameter family, and the functions below cross-check all three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    PartyDims,
    as_matrix,
    gauss_legendre,
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
from .pqubit import (multiplier_choi_matrix, multiplier_kraus,
                     prelimit_coefficients, quadrature_coefficients)
from .protocols import (
    CheckedPath,
    EndpointFamily,
    c_matrix_family,
    c_matrix_stack,
    derivative_outcomes,
    limit_path_stack,
)
from .tolerances import (COARSE_GRAIN_TOL, DENSITY_TRACE_TOL, ISOMETRY_TOL,
                         QUAD_NODES, ROUNDING_TOL, SIGMA_SAMPLES)
from .zonoid import ZonoidSpec, zonoid_spec_for_instrument

DIMS_2Q = PartyDims((2, 2))

# Single-party pieces of the outcome grouping.
T1 = np.diag([1.0, 1.0]).astype(np.complex128) / np.sqrt(3.0)
T2 = np.diag([1.0, 2.0]).astype(np.complex128) / np.sqrt(6.0)


def _diag4(a, b, c, d) -> np.ndarray:
    return np.diag([a, b, c, d]).astype(np.complex128)


def _halt_diag(x, which: int) -> np.ndarray:
    """diag(x, 0, 1, 0) for outcome 2 (B halts), else diag(x, 1, 0, 0).

    An array x gives the stack of these matrices, shape x.shape + (4, 4).
    """
    out = np.zeros(np.shape(x) + (4, 4), dtype=np.complex128)
    out[..., 0, 0] = x
    one = 2 if which == 2 else 1
    out[..., one, one] = 1.0
    return out


# Five product Kraus operators, grouped (0,), (1, 2), (3, 4) by outcome.
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


@dataclass(frozen=True)
class TwoQubitExample:
    """The worked instrument plus its reduced channel description."""

    instrument: Instrument
    minimal: KrausSet
    w_iso: np.ndarray


def two_qubit_instrument() -> TwoQubitExample:
    grouped = kraus_from_operators(list(K_GROUPED), (2, 2))
    inst = Instrument(grouped, ((0,), (1, 2), (3, 4)))
    minimal = kraus_from_operators(list(K_REDUCED), (2, 2))
    return TwoQubitExample(inst, minimal, W_GROUPING.copy())


def limiting_povm(s: float):
    """Limit outcomes at trace parameter s in [1, 4].

    Returns the all-ones projector and the two halt densities with respect
    to d sigma, sigma = sqrt(s) - 1: party 2 halting, then party 1 (the
    two-party derivative outcomes in reverse order). Their square roots are
    the limiting measurement operators.
    """
    if not 1.0 - ROUNDING_TOL <= s <= 4.0 + ROUNDING_TOL:
        raise ValueError("s must lie in [1, 4]")
    first, second = derivative_outcomes(2, min(max(s, 1.0), 4.0))
    return _diag4(0.0, 0.0, 0.0, 1.0), second, first


def limiting_choi_2q(nodes: int = QUAD_NODES) -> ChoiOperator:
    """Unnormalized Choi operator assembled from the limit outcomes.

    Every limit outcome is diagonal, so this is the matched-pair embedding
    of the two-party multiplier integrated over the halt continua; the
    integrands are smooth in sqrt(sigma), so the substituted quadrature
    rule is exact to rounding.
    """
    s = quadrature_coefficients(2, nodes=nodes)
    return ChoiOperator(multiplier_choi_matrix(s), 4, 4, normalized=False)


@dataclass(frozen=True)
class IntegralCheck:
    last_column_norm: float
    cross_overlap: float
    weight: float
    passed: bool


def continuous_isometry_check(nodes: int = QUAD_NODES) -> IntegralCheck:
    """Column orthonormality of the continuum-to-reduced expansion.

    The halt operators expand over the reduced set with weights
    (1, 3 sqrt(sigma) - 2) against operators 2 or 3 and 4. Orthonormality
    of the stacked columns reduces to three scalar integrals, all smooth
    in sqrt(sigma), so the substituted rule evaluates them exactly.
    """
    norm_last = 2.0 * integrate_sqrt_smooth(
        lambda t: 9.0 * t - 12.0 * np.sqrt(t) + 4.0, nodes=nodes)
    cross = integrate_sqrt_smooth(lambda t: 3.0 * np.sqrt(t) - 2.0,
                                  nodes=nodes)
    weight = gauss_legendre(np.ones_like, 0.0, 1.0, nodes=nodes)
    ok = (abs(norm_last - 1.0) <= ISOMETRY_TOL and abs(cross) <= ISOMETRY_TOL
          and abs(weight - 1.0) <= ISOMETRY_TOL)
    return IntegralCheck(float(norm_last), float(cross), float(weight), ok)


@dataclass(frozen=True)
class BlockedIsometryCheck:
    max_row_residual: float
    coefficient_defect: float
    passed: bool


def blocked_isometry_check() -> BlockedIsometryCheck:
    """Expansion of the halt continua over the grouped operators.

    Each halt operator recombines within a single outcome group, with
    coefficients sqrt(3) (2 sqrt(sigma) - 1) on the first group member and
    sqrt(6) (1 - sqrt(sigma)) on the second. Rows are fit by least squares
    against their own group (the full five-operator set is linearly
    dependent, so a global fit cannot localize blocks); the fitted
    coefficients are also compared against the closed form. A block's
    matrix does not depend on sigma, so one least-squares solve per block
    takes every sigma sample as a right-hand side.
    """
    rt = np.sqrt(np.linspace(0.0, 1.0, SIGMA_SAMPLES))
    want = np.stack([np.sqrt(3.0) * (2.0 * rt - 1.0),
                     np.sqrt(6.0) * (1.0 - rt)])
    worst_res = 0.0
    worst_coef = 0.0
    for which, block in ((2, (1, 2)), (3, (3, 4))):
        vecs = _halt_diag(rt, which).reshape(-1, 16).T
        a = K_GROUPED[list(block)].reshape(2, 16).T
        coef, *_ = np.linalg.lstsq(a, vecs, rcond=None)
        worst_res = max(worst_res, float(
            np.linalg.norm(a @ coef - vecs, axis=0).max()))
        worst_coef = max(worst_coef, float(np.abs(coef - want).max()))
    ok = worst_res <= ISOMETRY_TOL and worst_coef <= ISOMETRY_TOL
    return BlockedIsometryCheck(worst_res, worst_coef, ok)


@dataclass(frozen=True)
class CoarseGrainCheck:
    max_defect: float
    passed: bool


def _conjugate(ops: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k^dag for every rho of the stack ``rhos``."""
    return np.einsum("kab,ubc,kdc->uad", ops, rhos, ops.conj())


def coarse_grain_check(nodes: int = QUAD_NODES) -> CoarseGrainCheck:
    """Integrated halt continua against the grouped CP maps.

    On every matrix unit, integrating k(sigma) rho k(sigma) over the halt
    parameter must reproduce the corresponding two-operator CP map. The
    halt operators are diagonal, so k rho k^dag is rho times the matrix
    k_a conj(k_d) entry by entry: one einsum gives that matrix for both
    halt continua at every quadrature node, and its integral acts on all
    16 units at once.
    """
    ex = two_qubit_instrument()
    units = np.eye(16, dtype=np.complex128).reshape(16, 4, 4)

    def integrand(sigma: np.ndarray) -> np.ndarray:
        k = np.stack([_halt_diag(np.sqrt(sigma), which) for which in (2, 3)],
                     axis=1)
        kd = np.diagonal(k, axis1=-2, axis2=-1)
        return np.einsum("nra,nrd->nrad", kd, kd.conj())

    got = integrate_sqrt_smooth(integrand, nodes=nodes)[:, None] * units
    want = np.stack([_conjugate(ex.instrument.branch(r).operators, units)
                     for r in (1, 2)])
    worst = float(np.linalg.norm(got - want, axis=(2, 3)).max())
    return CoarseGrainCheck(worst, worst <= COARSE_GRAIN_TOL)


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


def wstate_analysis(nodes: int = QUAD_NODES) -> WStateReport:
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

    def outcome(sigma: np.ndarray, which: int) -> np.ndarray:
        v = kron([_halt_diag(np.sqrt(sigma), which), eye2]) @ w
        return v[:, :, None] * v[:, None, :].conj()

    rho2 = integrate_sqrt_smooth(lambda sg: outcome(sg, 2), nodes=nodes)
    rho3 = integrate_sqrt_smooth(lambda sg: outcome(sg, 3), nodes=nodes)
    prob = float(np.real(np.trace(rho2)))

    dims3 = PartyDims((2, 2, 2))
    # Outcome 2 halts party B, leaving A and C entangled; outcome 3 is the
    # mirror image.
    ac = partial_trace(rho2 / np.trace(rho2), dims3, keep=(1, 3))
    bc = partial_trace(rho3 / np.trace(rho3), dims3, keep=(2, 3))
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


def channel_zonoid() -> ZonoidSpec:
    """Zonoid over the reduced four-operator basis."""
    return ZonoidSpec(kraus_from_operators(list(K_REDUCED), (2, 2)))


def _s_of(sigma):
    """Main-path trace s = (1 + sigma)^2 where halt parameter sigma attaches."""
    return (1.0 + sigma) ** 2


def _sigma_of(s):
    """Inverse of :func:`_s_of`."""
    return np.sqrt(s) - 1.0


def limiting_family(spec: ZonoidSpec | None = None):
    """Main path and halt families of the limit, ready for verification.

    Returns (paths, families) over the reduced basis: the main path with
    its closed-form witness family, and the two halt continua whose
    coefficient densities integrate into the identity resolution.
    """
    if spec is None:
        spec = channel_zonoid()
    main = CheckedPath(
        label="main",
        op_at=lambda s: limit_path_stack(2, s),
        s_top=4.0,
        s_bottom=1.0,
        dims=DIMS_2Q,
        cmatrix_at=lambda s: c_matrix_stack("C1", s),
        endpoint_c=c_matrix_family("C1", 1.0),
    )

    fams = []
    for which, name in ((2, "C2"), (3, "C3")):
        fams.append(EndpointFamily(
            label=f"halt-{'B' if which == 2 else 'A'}",
            parent=main,
            density_at=lambda sg, w=which: _halt_diag(sg, w),
            cdensity_at=lambda sg, nm=name: c_matrix_stack(nm, _s_of(sg)),
            attach_s=_s_of,
            sigma_at=_sigma_of,
        ))
    return [main], fams


def instrument_zonoid() -> ZonoidSpec:
    """Blocked zonoid over the per-outcome minimal bases (sizes 1, 2, 2)."""
    return zonoid_spec_for_instrument(two_qubit_instrument().instrument)


def blocked_limiting_family(spec: ZonoidSpec | None = None):
    """Limit paths over the blocked instrument basis.

    Same geometry as :func:`limiting_family`, but coefficient densities are
    expanded block by block so the per-outcome identity resolutions can be
    checked. The halt density at each sigma stays inside its own block; the
    coefficients are recovered by least squares against that block.
    """
    if spec is None:
        spec = instrument_zonoid()
    blocks = spec.block_list()
    ops = spec.basis.operators

    main = CheckedPath(
        label="main",
        op_at=lambda s: limit_path_stack(2, s),
        s_top=4.0,
        s_bottom=1.0,
        dims=DIMS_2Q,
        block=0,
    )

    def blocked_density(which: int):
        block = list(blocks[which - 1])
        a = np.linalg.pinv(ops[block].reshape(len(block), 16).T)

        def f(sigma: np.ndarray) -> np.ndarray:
            k = _halt_diag(np.sqrt(sigma), which).reshape(-1, 16)
            w = np.zeros((len(k), spec.kappa), dtype=np.complex128)
            w[:, block] = k @ a.T
            return w[:, :, None] * w[:, None, :].conj()
        return f

    fams = [
        EndpointFamily(
            label=f"halt-{'B' if which == 2 else 'A'}",
            parent=main,
            density_at=lambda sg, w=which: _halt_diag(sg, w),
            cdensity_at=blocked_density(which),
            attach_s=_s_of,
            sigma_at=_sigma_of,
            block=which - 1,
        )
        for which in (2, 3)
    ]
    return [main], fams
