"""Shared helpers for the test suite: random objects, channel action, and
quadrature references for the stacked rules of ``loccverify.linalg``."""

import numpy as np
import pytest

from loccverify import PartyDims, kraus_from_operators
from loccverify.linalg import cumulative_weights, sqrt_smooth_nodes


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the phase convention fixed."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def haar_isometry(dim_in: int, dim_out: int,
                  rng: np.random.Generator) -> np.ndarray:
    return haar_unitary(dim_out, rng)[:, :dim_in]


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_channel(dims: PartyDims, env_dim: int, rng: np.random.Generator):
    """Random channel of Kraus rank env_dim via a Haar Stinespring isometry."""
    d = dims.total
    v = haar_isometry(d, d * env_dim, rng)
    ops = [v[e * d:(e + 1) * d, :] for e in range(env_dim)]
    return kraus_from_operators(ops, dims)


def stacked(f):
    """Integrand taking the array of all nodes, built from one taking a
    single float: the package's quadrature calls ``f`` once per grid."""
    return lambda xs: np.stack([np.asarray(f(float(x))) for x in xs])


def loop_gauss_legendre(f, a, b, nodes):
    """Gauss-Legendre rule calling the scalar integrand ``f`` node by node."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    total = None
    for xi, wi in zip(x, w):
        term = wi * np.asarray(f(mid + half * xi))
        total = term if total is None else total + term
    return half * total


def loop_sqrt_smooth(f, lo, hi, nodes):
    """Integral of the scalar f(sigma) over [lo^2, hi^2] in u = sqrt(sigma),
    node by node."""
    return loop_gauss_legendre(lambda u: 2.0 * u * np.asarray(f(u * u)),
                               lo, hi, nodes)


def apply_kraus(ops, rho):
    """sum_m K_m rho K_m^dag over the stack of Kraus operators ``ops``."""
    return np.einsum("mab,bc,mdc->ad", ops, rho, ops.conj())


def apply_branches(inst, rho):
    """An instrument's unnormalized output of each outcome, in order."""
    ops = inst.kraus.operators
    return [apply_kraus(ops[list(part)], rho) for part in inst.partition]


def cumulative_integrals(f, sigmas):
    """Integrals of f over [0, sigma] for every sigma of ``sigmas`` in
    [0, 1], stacked in their order: ``cumulative_weights`` at u = sqrt(sigma)
    against the node values 2 t f(t^2), t the nodes of
    ``sqrt_smooth_nodes``. ``f`` is called once, on the squares of the
    nodes, and is stacked as for ``integrate_sqrt_smooth``."""
    t = sqrt_smooth_nodes()
    vals = np.asarray(f(t * t))
    weights = cumulative_weights(np.sqrt(np.asarray(sigmas, dtype=float)))
    out = weights @ (2.0 * t[:, None] * vals.reshape(t.size, -1))
    return out.reshape(weights.shape[:1] + vals.shape[1:])


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
