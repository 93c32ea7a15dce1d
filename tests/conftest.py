"""Shared helpers for the test suite: random objects, and per-node
quadrature references for the stacked rules of ``loccverify.linalg``."""

import numpy as np
import pytest

from loccverify import PartyDims, kraus_from_operators


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
