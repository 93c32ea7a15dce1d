"""P-qubit generalization of the halting-protocol channel.

The two-qubit example extends to any number of parties: everyone measures
the same biased two-outcome POVM round-robin, and the limit channel has a
closed-form Choi operator supported on matched input-output pairs. Its
coefficients depend only on how many parties see |0> in each index, so the
whole channel is a Hadamard multiplier determined by bit counts. The limit's
main path and halt families over any of its bases, the two-qubit ones
among them, come from one builder, :func:`limit_tables`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, integrate_sqrt_smooth, trace_norm
from .channels import ChoiOperator, KrausSet
from .conditions import CheckedPath, EndpointFamily, FamilyTable
from .protocols import (ProtocolParams, derivative_diagonals,
                        derivative_roots, limit_path_diagonals, prefix_zeros)

MIN_PARTIES = 2
MAX_PARTIES = 6


def _check_parties(parties: int) -> None:
    if not MIN_PARTIES <= parties <= MAX_PARTIES:
        raise ValueError(
            f"parties must lie in [{MIN_PARTIES}, {MAX_PARTIES}]")


def pqubit_coefficients(parties: int) -> np.ndarray:
    """Hadamard multiplier S of the limit channel.

    S[i, j] = 2 m_ij / (l_i + l_j) away from the all-ones index, where l
    counts zeros and m joint zeros, both read off the bit-count table
    :func:`~loccverify.protocols.prefix_zeros`; the all-ones diagonal
    entry is 1 and its cross terms vanish because the main-branch outcome
    only touches that index.
    """
    _check_parties(parties)
    prefix = prefix_zeros(parties)
    zero = prefix[:, 1:] - prefix[:, :-1]
    l = prefix[:, -1].astype(float)
    denom = l[:, None] + l[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 0, 2.0 * (zero @ zero.T) / denom, 0.0)
    s[-1, -1] = 1.0
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
    eigenvalues above 1e-12 times the largest are kept, so there are at
    most d operators and they are linearly independent: the kernel of a
    singular s, such as the P-party limit multiplier, is dropped however
    ``eigh`` rounds it.
    """
    w, v = np.linalg.eigh(np.asarray(s))
    keep = np.flatnonzero(w > 1e-12 * w[-1])[::-1]
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
    Raises ValueError unless both multipliers are finite (d, d) arrays.
    """
    d = 2 ** parties
    s_a, s_b = np.asarray(s_a), np.asarray(s_b)
    for s in (s_a, s_b):
        if s.shape != (d, d) or not np.isfinite(s).all():
            raise ValueError(f"multipliers must be finite {d} x {d} arrays "
                             f"for {parties} parties, got shape {s.shape}")
    return trace_norm(s_a - s_b) / d


def moment_identity_check() -> float:
    """Closed-form 2/(l + l') against quadrature over the halt parameter.

    The limit coefficients integrate sigma^((l + l' - 2)/2); the check
    covers every exponent pair arising for up to six parties plus the
    normalization moment itself.
    """
    worst = 0.0
    for total in range(2, 2 * MAX_PARTIES + 1):
        got = integrate_sqrt_smooth(
            lambda sg, t=total: sg ** ((t - 2) / 2.0))
        worst = max(worst, abs(float(got) - 2.0 / total))
    return worst


def quadrature_coefficients(parties: int) -> np.ndarray:
    """Assemble the limit multiplier by integrating the halt densities.

    Halt outcome alpha adds the Gram matrix of the square roots of its
    :func:`~loccverify.protocols.derivative_diagonals` density, the one the
    theorem verifier checks; the main path supplies the all-ones entry.
    """
    _check_parties(parties)

    def integrand(sigma: np.ndarray) -> np.ndarray:
        r = np.sqrt(derivative_diagonals(parties, sigma))
        return np.einsum("nai,naj->nij", r, r)

    s = integrate_sqrt_smooth(integrand)
    s[-1, -1] = 1.0
    return s


@dataclass(frozen=True)
class LimitCheckReport:
    parties: int
    rounds_list: tuple[int, ...]
    distances: tuple[float, ...]
    strictly_decreasing: bool
    quadrature_defect: float
    reduction_defect: float


def pqubit_limit_check(parties: int, rounds_list,
                       exponent: float = 0.5) -> LimitCheckReport:
    """Convergence and consistency of the stopped protocols for one P.

    Measures whether the Choi distance to the limit strictly decreases
    along ``rounds_list``, how far the quadrature-assembled multiplier is
    from the closed form, and how far appending always-one parties is from
    embedding the smaller example exactly (so larger P inherit the two-
    and three-party cases). The CLI judges the defects. ValueError for
    fewer than two round counts, which would pass the decrease vacuously.
    """
    rounds_list = tuple(int(nu) for nu in rounds_list)
    s_limit = pqubit_coefficients(parties)
    if len(rounds_list) < 2:
        raise ValueError("rounds_list needs at least two round counts")
    dists = tuple(
        multiplier_distance(parties,
                            prelimit_coefficients(parties, nu, exponent),
                            s_limit)
        for nu in rounds_list
    )
    decreasing = all(a > b for a, b in zip(dists, dists[1:]))

    quad_defect = float(np.abs(
        quadrature_coefficients(parties) - s_limit).max())
    quad_defect = max(quad_defect, moment_identity_check())

    red_defect = 0.0
    if parties > MIN_PARTIES:
        small = pqubit_coefficients(parties - 1)
        # Restrict to indices whose trailing qubit reads |1>.
        sub = s_limit[1::2, 1::2]
        red_defect = float(np.abs(sub - small).max())
    return LimitCheckReport(parties, rounds_list, dists, decreasing,
                            quad_defect, red_defect)


# Per spec, its halt tables by (party, block): built on first use, and let
# go with the spec.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def limit_tables(spec, halts):
    """Main path and halt families of the limit over the basis of
    ``spec``, as :func:`~loccverify.conditions.verify_theorem_conditions`
    takes them.

    P is the parties of the spec's input, and the main path is
    :func:`~loccverify.protocols.limit_path_diagonals` on [1, 2^P]. Each
    (label, party, block) of ``halts`` gives the family of that party's
    halts over block ``block`` of ``spec.block_list()``: its root r is
    that of the party's derivative density, and w solves w K = r, K the
    block's operators as diagonals, by ``solve`` when K is square and
    otherwise through the block's least-squares expansion map, which the
    spec's solver holds. The table's block is the support of w; it is
    real when the basis is, and built once per spec. The path and
    families are new on every call, so a caller may edit them.
    """
    parties = spec.basis.input_dims.n_parties
    solver, d, tables = spec.solver(), spec.dim, _TABLES.setdefault(spec, {})
    main = CheckedPath("main", lambda s: limit_path_diagonals(parties, s),
                       2.0 ** parties, 1.0)
    families = []
    for label, party, block in halts:
        if (party, block) not in tables:
            root = derivative_roots(parties)[party]
            indices = list(spec.block_list()[block])
            if len(indices) == d:
                k = spec.basis.operators[indices].diagonal(axis1=1, axis2=2)
                rows = np.linalg.solve((k.real if solver.real else k).T,
                                       root.T).T
            else:
                # A diagonal's expansion reads only the map's columns at
                # the diagonal entries.
                a = solver.expansions()[block][1][:, ::d + 1]
                rows = root @ (a.real if solver.real else a).T
            w = np.zeros((len(root), spec.kappa), dtype=rows.dtype)
            w[:, indices] = rows
            tables[party, block] = FamilyTable(w, root,
                                               np.flatnonzero(w.any(axis=0)))
        families.append(EndpointFamily(label, main, tables[party, block]))
    return [main], families
