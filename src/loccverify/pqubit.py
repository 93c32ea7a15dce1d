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
from .channels import ChoiOperator
from .protocols import protocol_leaf_diagonals

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
    d = 2 ** parties
    idx = np.arange(d)
    bits = (idx[:, None] >> np.arange(parties - 1, -1, -1)) & 1
    zeros = parties - bits.sum(axis=1)
    joint = (1 - bits)[:, None, :] * (1 - bits)[None, :, :]
    return PQubitSpec(parties, zeros, joint.sum(axis=2))


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


def pqubit_choi_formula(parties: int) -> ChoiOperator:
    """Normalized Choi operator of the limit channel, input copy first."""
    s = pqubit_coefficients(parties)
    d = 2 ** parties
    mat = np.zeros((d * d, d * d), dtype=np.complex128)
    ii = np.arange(d) * d + np.arange(d)
    mat[np.ix_(ii, ii)] = s / d
    return ChoiOperator(mat, d, d, normalized=True)


def pqubit_apply(parties: int, rho: np.ndarray) -> np.ndarray:
    """Apply the limit channel: entrywise product with the S multiplier."""
    rho = as_matrix(rho)
    d = 2 ** parties
    if rho.shape != (d, d):
        raise ValueError(f"input must be {d}x{d} for {parties} parties")
    return pqubit_coefficients(parties) * rho


def prelimit_coefficients(parties: int, rounds: int,
                          exponent: float) -> np.ndarray:
    """Multiplier of the protocol stopped after ``rounds`` cycles.

    Every leaf operator is diagonal, so the stopped channel is also a
    Hadamard multiplier: the Gram matrix of the leaf square-root columns.
    """
    diags = protocol_leaf_diagonals(parties, rounds, exponent)
    roots = np.sqrt(diags)
    return roots.T @ roots


def multiplier_distance(parties: int, s_a: np.ndarray,
                        s_b: np.ndarray) -> float:
    """Normalized Choi trace distance between two multiplier channels.

    Both Choi operators live on the matched-pair subspace, so the distance
    collapses to the trace norm of the coefficient difference over d.
    """
    d = 2 ** parties
    return trace_norm(np.asarray(s_a) - np.asarray(s_b)) / d


def moment_identity_check(nodes: int = 64) -> float:
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


def quadrature_coefficients(parties: int, nodes: int = 64) -> np.ndarray:
    """Assemble the limit multiplier by integrating the halt densities."""
    spec = pqubit_spec(parties)
    d = 2 ** parties
    l = spec.zeros

    def integrand(sigma: float) -> np.ndarray:
        root = np.where(l > 0, np.sqrt(sigma) ** np.maximum(l - 1, 0), 0.0)
        return spec.joint_zeros * np.outer(root, root)

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
                       nodes: int = 64) -> LimitCheckReport:
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

    ok = (decreasing and quad_defect <= 1e-10 and red_defect <= 1e-10)
    return LimitCheckReport(parties, rounds_list, dists, decreasing,
                            quad_defect, red_defect, ok)
