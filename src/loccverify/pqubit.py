"""P-qubit generalization of the halting-protocol channel.

The two-qubit example extends to any number of parties: everyone measures
the same biased two-outcome POVM round-robin, and the limit channel has a
closed-form Choi operator supported on matched input-output pairs. Its
coefficients depend only on how many parties see |0> in each index, so the
whole channel is a Hadamard multiplier determined by bit counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, integrate_sqrt_smooth, trace_norm
from .channels import ChoiOperator, KrausSet
from .protocols import ProtocolParams, prefix_zeros
from .tolerances import QUAD_NODES, QUADRATURE_TOL

MIN_PARTIES = 2
MAX_PARTIES = 6
LIMIT_CHECK_MAX_PARTIES = 4


@dataclass(frozen=True)
class PQubitSpec:
    """Bit-count data driving the closed-form coefficients.

    ``zeros[i]`` counts the parties seeing |0> in basis index i (party 1 is
    the most significant bit); ``joint_zeros[i, j]`` counts positions where
    both indices do.
    """

    parties: int
    zeros: np.ndarray
    joint_zeros: np.ndarray


def pqubit_spec(parties: int) -> PQubitSpec:
    if not MIN_PARTIES <= parties <= MAX_PARTIES:
        raise ValueError(
            f"parties must lie in [{MIN_PARTIES}, {MAX_PARTIES}]")
    prefix = prefix_zeros(parties)
    zero = prefix[:, 1:] - prefix[:, :-1]
    return PQubitSpec(parties, zero.sum(axis=1), zero @ zero.T)


def pqubit_coefficients(parties: int) -> np.ndarray:
    """Hadamard multiplier S of the limit channel.

    S[i, j] = 2 m_ij / (l_i + l_j) away from the all-ones index, where l
    counts zeros and m joint zeros; the all-ones diagonal entry is 1 and
    its cross terms vanish because the main-branch outcome only touches
    that index.
    """
    spec = pqubit_spec(parties)
    d = 2 ** parties
    l = spec.zeros.astype(float)
    denom = l[:, None] + l[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 0, 2.0 * spec.joint_zeros / denom, 0.0)
    s[d - 1, d - 1] = 1.0
    return s


def multiplier_choi_matrix(s: np.ndarray) -> np.ndarray:
    """Choi matrix of the Hadamard multiplier rho -> s * rho.

    The channel has diagonal Kraus operators, so its Choi operator (input
    copy first) is ``s`` placed on the matched pairs |i>|i>.
    """
    d = s.shape[0]
    mat = np.zeros((d * d, d * d), dtype=np.complex128)
    ii = np.arange(d) * d + np.arange(d)
    mat[np.ix_(ii, ii)] = s
    return mat


def pqubit_choi_formula(parties: int) -> ChoiOperator:
    """Normalized Choi operator of the limit channel, input copy first."""
    d = 2 ** parties
    mat = multiplier_choi_matrix(pqubit_coefficients(parties) / d)
    return ChoiOperator(mat, d, d, normalized=True)


def pqubit_apply(parties: int, rho: np.ndarray) -> np.ndarray:
    """Apply the limit channel: entrywise product with the S multiplier."""
    rho = as_matrix(rho)
    d = 2 ** parties
    if rho.shape != (d, d):
        raise ValueError(f"input must be {d}x{d} for {parties} parties")
    return pqubit_coefficients(parties) * rho


def multiplier_kraus(s: np.ndarray, dims) -> KrausSet:
    """Diagonal Kraus operators of the multiplier channel rho -> s * rho.

    With s = V diag(w) V^dag by ``eigh`` and R[m] = sqrt(w_m) V[:, m], the
    operators diag(R[m]) give sum_m R[m]_i conj(R[m]_j) = s[i, j]. Only
    positive eigenvalues are kept, so there are at most d operators.
    """
    w, v = np.linalg.eigh(np.asarray(s))
    keep = np.flatnonzero(w > 0.0)[::-1]
    roots = (v[:, keep] * np.sqrt(w[keep])).T
    d = roots.shape[1]
    ops = np.zeros((keep.size, d, d), dtype=np.complex128)
    ops[:, np.arange(d), np.arange(d)] = roots
    return KrausSet(ops, dims, dims)


def prelimit_coefficients(parties: int, rounds: int,
                          exponent: float) -> np.ndarray:
    """Multiplier of the protocol stopped after ``rounds`` cycles.

    Every leaf operator is diagonal, so the stopped channel is a Hadamard
    multiplier: the Gram matrix of the leaf square-root columns. Summing
    the halt leaves of each party over the cycles gives, with
    eta = 1 - eps, h = (Z_i + Z_j) / 2 and q = eta^h,

        S[i, j] = eta^(rounds h) + eps sum_l [i_l = j_l = 0]
                  eta^((z_<l(i) + z_<l(j)) / 2) (1 - q^rounds) / (1 - q),

    where Z counts the zeros of an index and z_<l its zeros among the
    parties before l. The geometric sum is taken with ``log1p`` and
    ``expm1``. At eta = 0 (one round, or eps rounding to 1) it keeps only
    its first term, 1.
    """
    eps = ProtocolParams(parties, rounds, exponent).epsilon
    eta = 1.0 - eps
    prefix = prefix_zeros(parties)
    h = 0.5 * (prefix[:, -1, None] + prefix[None, :, -1])
    # Column l of w is [i_l = 0] eta^(z_<l(i) / 2).
    w = (prefix[:, 1:] - prefix[:, :-1]) * eta ** (0.5 * prefix[:, :-1])
    if eta == 0.0:
        geometric = np.ones_like(h)
    else:
        # eta as rounded, like the leaf table; q = 1 (h = 0, or eta
        # rounding to 1) sums to ``rounds``.
        log_q = h * np.log1p(eta - 1.0)
        below = log_q < 0.0
        geometric = np.where(below, np.expm1(rounds * log_q), rounds) / \
            np.where(below, np.expm1(log_q), 1.0)
    return eta ** (rounds * h) + eps * (w @ w.T) * geometric


def multiplier_distance(parties: int, s_a: np.ndarray,
                        s_b: np.ndarray) -> float:
    """Normalized Choi trace distance between two multiplier channels.

    Both Choi operators live on the matched-pair subspace, so the distance
    collapses to the trace norm of the coefficient difference over d.
    """
    d = 2 ** parties
    return trace_norm(np.asarray(s_a) - np.asarray(s_b)) / d


def moment_identity_check(nodes: int = QUAD_NODES) -> float:
    """Closed-form 2/(l + l') against quadrature over the halt parameter.

    The limit coefficients integrate sigma^((l + l' - 2)/2); the check
    covers every exponent pair arising for up to six parties plus the
    normalization moment itself.
    """
    worst = 0.0
    for total in range(2, 2 * MAX_PARTIES + 1):
        got = integrate_sqrt_smooth(
            lambda sg, t=total: sg ** ((t - 2) / 2.0), nodes=nodes)
        worst = max(worst, abs(float(got) - 2.0 / total))
    return worst


def quadrature_coefficients(parties: int, nodes: int = QUAD_NODES
                            ) -> np.ndarray:
    """Assemble the limit multiplier by integrating the halt densities."""
    spec = pqubit_spec(parties)
    d = 2 ** parties
    l = spec.zeros

    def integrand(sigma: np.ndarray) -> np.ndarray:
        root = np.where(l > 0,
                        np.sqrt(sigma)[:, None] ** np.maximum(l - 1, 0), 0.0)
        return spec.joint_zeros * (root[:, :, None] * root[:, None, :])

    s = integrate_sqrt_smooth(integrand, nodes=nodes)
    s[d - 1, d - 1] = 1.0
    return s


@dataclass(frozen=True)
class LimitCheckReport:
    parties: int
    rounds_list: tuple[int, ...]
    distances: tuple[float, ...]
    strictly_decreasing: bool
    quadrature_defect: float
    reduction_defect: float
    passed: bool


def pqubit_limit_check(parties: int, rounds_list,
                       exponent: float = 0.5,
                       nodes: int = QUAD_NODES) -> LimitCheckReport:
    """Convergence and consistency of the stopped protocols for one P.

    Checks that the Choi distance to the limit strictly decreases along
    ``rounds_list``, that the quadrature-assembled multiplier matches the
    closed form, and that appending always-one parties embeds the smaller
    example exactly (so larger P inherit the two- and three-party cases).
    """
    if parties > LIMIT_CHECK_MAX_PARTIES:
        raise ValueError(f"limit check supports at most "
                         f"{LIMIT_CHECK_MAX_PARTIES} parties")
    rounds_list = tuple(int(nu) for nu in rounds_list)
    s_limit = pqubit_coefficients(parties)
    dists = tuple(
        multiplier_distance(parties,
                            prelimit_coefficients(parties, nu, exponent),
                            s_limit)
        for nu in rounds_list
    )
    decreasing = all(a > b for a, b in zip(dists, dists[1:]))

    quad_defect = float(np.abs(
        quadrature_coefficients(parties, nodes=nodes) - s_limit).max())
    quad_defect = max(quad_defect, moment_identity_check(nodes=nodes))

    red_defect = 0.0
    if parties > MIN_PARTIES:
        small = pqubit_coefficients(parties - 1)
        # Restrict to indices whose trailing qubit reads |1>.
        sub = s_limit[1::2, 1::2]
        red_defect = float(np.abs(sub - small).max())

    ok = (decreasing and quad_defect <= QUADRATURE_TOL
          and red_defect <= QUADRATURE_TOL)
    return LimitCheckReport(parties, rounds_list, dists, decreasing,
                            quad_defect, red_defect, ok)
