"""Unit tests for the dense linear-algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccverify import (
    PartyDims,
    gauss_legendre,
    integrate_sqrt_smooth,
    kron,
    partial_trace,
    product_defect,
    psd_check,
    sqrt_psd,
    trace_norm,
)
from loccverify.linalg import (cumulative_sqrt_smooth,
                               is_hermitian, operator_norm)

from conftest import (haar_unitary, loop_gauss_legendre, loop_sqrt_smooth,
                      random_density, stacked)


def complex_matrix(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _mixed_integrand(t):
    """Vector-valued, complex, smooth in sqrt(t); a float gives shape (3,),
    an array of n nodes the stack (n, 3)."""
    t = np.asarray(t)
    return np.stack([t, np.sqrt(t) + 2.0, np.cos(3.0 * t) + 1j * t ** 2],
                    axis=-1)


def _loop_cumulative(f, sigmas, nodes=64):
    """Per-segment, per-node form of cumulative_sqrt_smooth (scalar f)."""
    u = np.sqrt(np.asarray(sigmas, dtype=float))
    out = [None] * len(u)
    total, lo = None, 0.0
    for i in np.argsort(u):
        hi = float(u[i])
        if total is None or hi > lo:
            n = max(2, int(np.ceil(nodes * (hi - lo))))
            segment = loop_sqrt_smooth(f, lo, hi, n)
            total = segment if total is None else total + segment
            lo = hi
        out[i] = total
    return np.stack(out)


def _loop_product_defect(m, dims):
    """One matrix at a time: the product defect before it took stacks."""
    a = np.asarray(m, dtype=np.complex128)
    d = tuple(dims)
    if len(d) == 1 or np.linalg.norm(a) == 0.0:
        return 0.0
    worst = 0.0
    for cut in range(1, len(d)):
        d1, d2 = int(np.prod(d[:cut])), int(np.prod(d[cut:]))
        r = a.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(
            d1 * d1, d2 * d2)
        s = np.linalg.svd(r, compute_uv=False)
        if s.size > 1:
            worst = max(worst, float(s[1] / max(s[0], 1e-300)))
    return worst


def _relative_gap(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestPartyDims:
    def test_total_and_count(self):
        d = PartyDims((2, 3, 2))
        assert d.total == 12
        assert d.n_parties == 3

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            PartyDims(())
        with pytest.raises(ValueError):
            PartyDims((2, 0))


class TestPartialTrace:
    def test_kron_splits(self, rng):
        a = complex_matrix(rng, (2, 2))
        b = complex_matrix(rng, (3, 3))
        m = np.kron(a, b)
        np.testing.assert_allclose(
            partial_trace(m, PartyDims((2, 3)), keep=(1,)),
            a * np.trace(b), atol=1e-12)
        np.testing.assert_allclose(
            partial_trace(m, PartyDims((2, 3)), keep=(2,)),
            b * np.trace(a), atol=1e-12)

    def test_three_party_middle(self, rng):
        mats = [complex_matrix(rng, (d, d)) for d in (2, 2, 3)]
        m = kron(mats)
        got = partial_trace(m, PartyDims((2, 2, 3)), keep=(2,))
        np.testing.assert_allclose(
            got, mats[1] * np.trace(mats[0]) * np.trace(mats[2]), atol=1e-12)

    def test_keep_all_is_identity(self, rng):
        m = complex_matrix(rng, (4, 4))
        np.testing.assert_allclose(
            partial_trace(m, PartyDims((2, 2)), keep=(1, 2)), m)

    def test_trace_preserved(self, rng):
        m = complex_matrix(rng, (6, 6))
        red = partial_trace(m, PartyDims((2, 3)), keep=(2,))
        assert np.trace(red) == pytest.approx(np.trace(m))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2), (2, 3, 2)])
    def test_stack_matches_per_matrix_call(self, rng, dims):
        d = int(np.prod(dims))
        n = len(dims)
        stack = complex_matrix(rng, (2, 3, d, d))
        for keep in [(p,) for p in range(1, n + 1)] + [(1, n)]:
            got = partial_trace(stack, PartyDims(dims), keep=keep)
            want = [[partial_trace(m, PartyDims(dims), keep=keep)
                     for m in row] for row in stack]
            np.testing.assert_array_equal(got, np.array(want))


class TestNorms:
    def test_trace_norm_is_singular_value_sum(self, rng):
        m = complex_matrix(rng, (5, 5))
        assert trace_norm(m) == pytest.approx(np.linalg.svd(m)[1].sum())

    def test_operator_norm_is_top_singular_value(self, rng):
        m = complex_matrix(rng, (4, 4))
        assert operator_norm(m) == pytest.approx(np.linalg.svd(m)[1][0])

    def test_hermitian_trace_norm(self, rng):
        h = complex_matrix(rng, (4, 4))
        h = h + h.conj().T
        assert trace_norm(h) == pytest.approx(np.abs(np.linalg.eigvalsh(h)).sum())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_unitary_invariance(self, seed):
        r = np.random.default_rng(seed)
        m = complex_matrix(r, (4, 4))
        u = haar_unitary(4, r)
        assert trace_norm(u @ m) == pytest.approx(trace_norm(m))
        assert trace_norm(m @ u) == pytest.approx(trace_norm(m))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_triangle_inequality(self, seed):
        r = np.random.default_rng(seed)
        a = complex_matrix(r, (4, 4))
        b = complex_matrix(r, (4, 4))
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10
        assert np.linalg.norm(a) <= trace_norm(a) + 1e-10


class TestPsd:
    def test_psd_check_accepts_gram(self, rng):
        g = complex_matrix(rng, (4, 4))
        rep = psd_check(g @ g.conj().T)
        assert rep.ok
        assert rep.min_eigenvalue >= -1e-12

    def test_psd_check_flags_negative_direction(self):
        rep = psd_check(np.diag([1.0, -0.5]))
        assert not rep.ok
        assert rep.min_eigenvalue == pytest.approx(-0.5)

    def test_sqrt_squares_back(self, rng):
        g = complex_matrix(rng, (4, 4))
        p = g @ g.conj().T
        r = sqrt_psd(p)
        np.testing.assert_allclose(r @ r, p, atol=1e-10)
        assert is_hermitian(r)

    def test_sqrt_rejects_indefinite(self):
        with pytest.raises(ValueError):
            sqrt_psd(np.diag([1.0, -1.0]))


class TestQuadrature:
    @pytest.mark.parametrize("k", [0, 1, 2, 7, 19, 31])
    def test_monomials_exact(self, k):
        # 16-node Gauss-Legendre integrates degree <= 31 exactly
        got = gauss_legendre(lambda x: x ** k, 0.0, 1.0, nodes=16)
        assert got == pytest.approx(1.0 / (k + 1), abs=1e-13)

    def test_matrix_valued(self):
        got = gauss_legendre(
            stacked(lambda x: np.array([[x, x ** 2], [0.0, 1.0]])), 0.0, 2.0,
            nodes=8)
        np.testing.assert_allclose(
            got, np.array([[2.0, 8.0 / 3.0], [0.0, 2.0]]), atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    def test_sqrt_rule_handles_half_powers(self, k):
        # exact value of the moment is 2 / (k + 2)
        got = integrate_sqrt_smooth(lambda s: s ** (k / 2.0))
        assert got == pytest.approx(2.0 / (k + 2), abs=1e-14)

    def test_sqrt_rule_beats_plain_rule_at_sqrt(self):
        # sqrt has unbounded derivatives at 0, which caps the plain rule
        # around 1e-6 at 64 nodes; the substituted rule is exact
        plain = gauss_legendre(np.sqrt, 0.0, 1.0)
        assert abs(plain - 2.0 / 3.0) > 1e-8
        sub = integrate_sqrt_smooth(lambda s: np.sqrt(s))
        assert sub == pytest.approx(2.0 / 3.0, abs=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_cumulative_rule_matches_closed_form(self, sigmas):
        # int_0^sigma (3 sqrt(t) - 2) dt = 2 sigma^(3/2) - 2 sigma, for every
        # point of an unsorted grid with repeats.
        got = cumulative_sqrt_smooth(lambda t: 3.0 * np.sqrt(t) - 2.0,
                                     sigmas + sigmas[:1])
        want = [2.0 * s ** 1.5 - 2.0 * s for s in sigmas + sigmas[:1]]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_cumulative_rule_ends_at_the_full_integral(self):
        f = stacked(lambda t: np.array([[t, np.sqrt(t)], [1.0, t ** 1.5]]))
        got = cumulative_sqrt_smooth(f, np.linspace(0.0, 1.0, 7))
        assert got.shape == (7, 2, 2)
        np.testing.assert_array_equal(got[0], np.zeros((2, 2)))
        np.testing.assert_allclose(got[-1], integrate_sqrt_smooth(f),
                                   rtol=0.0, atol=1e-14)

    def test_interval_scaling(self):
        got = gauss_legendre(np.cos, 0.0, np.pi / 2, nodes=32)
        assert got == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("nodes", [1, 2, 7, 16, 64])
    @pytest.mark.parametrize("f", [np.cos, np.sqrt, _mixed_integrand])
    def test_stacked_rules_match_the_node_loop(self, f, nodes):
        got = gauss_legendre(f, 0.25, 2.0, nodes=nodes)
        assert np.shape(got) == np.shape(f(1.0))
        assert _relative_gap(got, loop_gauss_legendre(
            f, 0.25, 2.0, nodes)) <= 1e-15
        assert _relative_gap(integrate_sqrt_smooth(f, nodes=nodes),
                             loop_sqrt_smooth(f, 0.0, 1.0, nodes)) <= 1e-15

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_cumulative_rule_matches_the_segment_loop(self, sigmas):
        got = cumulative_sqrt_smooth(_mixed_integrand, sigmas)
        want = _loop_cumulative(_mixed_integrand, sigmas)
        assert got.shape == want.shape == (len(sigmas), 3)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(
            initial=1.0)

    def test_cumulative_rule_calls_the_integrand_once(self):
        calls = []

        def f(t):
            calls.append(t.shape)
            return 3.0 * np.sqrt(t) - 2.0

        cumulative_sqrt_smooth(f, np.linspace(0.0, 1.0, 101))
        integrate_sqrt_smooth(f)
        assert len(calls) == 2

    def test_integrand_must_return_one_value_per_node(self):
        with pytest.raises(ValueError, match="one value per node"):
            gauss_legendre(lambda x: 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="one value per node"):
            integrate_sqrt_smooth(lambda x: np.eye(2))


class TestProductStructure:
    def test_kron_factor_recovered(self, rng):
        a = complex_matrix(rng, (2, 2))
        b = complex_matrix(rng, (2, 2))
        m = np.kron(a, b)
        assert product_defect(m, PartyDims((2, 2))) < 1e-12

    def test_entangled_operator_rejected(self):
        bell = np.zeros((4, 4))
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        assert product_defect(bell, PartyDims((2, 2))) > 0.4

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_product_defect_vanishes_on_products(self, seed):
        r = np.random.default_rng(seed)
        mats = [complex_matrix(r, (2, 2)) for _ in range(3)]
        assert product_defect(kron(mats), PartyDims((2, 2, 2))) < 1e-10

    def test_kron_stack_matches_per_matrix_call(self, rng):
        stacks = [complex_matrix(rng, (5, d, d)) for d in (2, 3, 2)]
        want = [np.kron(np.kron(a, b), c) for a, b, c in zip(*stacks)]
        np.testing.assert_array_equal(kron(stacks), np.array(want))

    def test_density_product(self, rng):
        rho = kron([random_density(2, rng), random_density(2, rng)])
        assert product_defect(rho, PartyDims((2, 2))) < 1e-12

    @pytest.mark.parametrize("dims", [(4,), (2, 2), (2, 3), (2, 2, 2),
                                      (3, 2, 2)])
    def test_stack_equals_the_per_matrix_loop(self, rng, dims):
        d = int(np.prod(dims))
        products = kron([complex_matrix(rng, (3, k, k)) for k in dims])
        stack = np.concatenate([complex_matrix(rng, (4, d, d)), products,
                                np.zeros((1, d, d))])
        got = product_defect(stack.reshape(2, 4, d, d), PartyDims(dims))
        assert got.shape == (2, 4)
        want = [_loop_product_defect(m, dims) for m in stack]
        np.testing.assert_array_equal(got.reshape(-1), want)
        assert product_defect(stack[0], dims) == want[0]

    def test_shape_must_match_dims(self):
        with pytest.raises(ValueError):
            product_defect(np.eye(4), (2, 3))
