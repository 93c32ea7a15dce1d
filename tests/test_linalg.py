"""Unit tests for the dense linear-algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccverify import (
    FamilyTable,
    PartyDims,
    integrate_sqrt_smooth,
    kron,
    partial_trace,
    product_defect,
    sqrt_psd,
    trace_norm,
)
from loccverify import linalg
from loccverify.linalg import (diagonal_stack, hermitian_within,
                               lowest_eigenvalues, operator_norm,
                               polynomial_values)
from loccverify.tolerances import HERMITICITY_TOL, QUAD_NODES

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


def _table(w) -> FamilyTable:
    """A family table of the coefficient rows ``w``, (deg + 1, kappa), on
    the whole basis, with a constant root."""
    w = np.asarray(w)
    return FamilyTable(w, np.ones((1, 1)), range(w.shape[1]))


def _monomial_error(sigmas) -> float:
    """Largest error of the cumulative rule on sigma^(k/2), k <= 14, whose
    integrals from 0 are 2 u^(k+2) / (k + 2), u = sqrt(sigma): row 0 of
    conj(w) w^T with w = e_0 + sum_k u^k e_k reads u^k at column k. In u
    the integrands 2 u^(k+1) have degree below QUAD_NODES."""
    k = np.arange(15)
    got = _table(np.eye(15)).integrals(np.sqrt(np.asarray(sigmas, dtype=float)))[:, 0]
    u = np.sqrt(np.asarray(sigmas, dtype=float))[:, None]
    return float(np.abs(got - 2.0 * u ** (k + 2) / (k + 2)).max())


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
        assert d.total == 12 and isinstance(d.total, int)
        assert d.n_parties == 3
        # The total is derived: it takes no part in equality or the repr.
        assert d == PartyDims([2, 3, 2])
        assert hash(d) == hash(PartyDims((2, 3, 2)))
        assert repr(d) == "PartyDims(dims=(2, 3, 2))"
        with pytest.raises(TypeError):
            PartyDims((2, 3), total=6)

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
    def test_sqrt_squares_back(self, rng):
        g = complex_matrix(rng, (4, 4))
        p = g @ g.conj().T
        r = sqrt_psd(p)
        np.testing.assert_allclose(r @ r, p, atol=1e-10)
        assert hermitian_within(r, HERMITICITY_TOL)

    def test_hermitian_rule_of_a_matrix_and_a_stack(self):
        # max|a - a^H| <= tol (1 + max|a|): here the skew is 2e-10 and the
        # scale 1 + 2.
        a = np.array([[1.0, 2.0], [2.0 + 2e-10, 0.0]])
        assert hermitian_within(a, 1e-10)
        assert not hermitian_within(a, 0.5e-10)
        stack = np.stack([a, np.triu(np.ones((2, 2))), 1j * np.eye(2)])
        assert hermitian_within(stack, 1e-10).tolist() == [True, False,
                                                           False]
        assert hermitian_within(np.zeros((3, 0, 0)), 0.0).tolist() == [
            True] * 3

    def test_sqrt_rejects_indefinite(self):
        with pytest.raises(ValueError):
            sqrt_psd(np.diag([1.0, -1.0]))

    def test_diagonal_root_is_the_entrywise_root(self):
        # A 1-D argument is a diagonal: the root is entrywise, and the
        # matrix rule clips a rounding-size negative entry and refuses a
        # larger one.
        v = np.array([0.25, 0.0, 4.0, -1e-17])
        assert np.array_equal(sqrt_psd(v), [0.5, 0.0, 2.0, 0.0])
        np.testing.assert_allclose(diagonal_stack(sqrt_psd(v)),
                                   sqrt_psd(np.diag(v)), atol=1e-15)
        with pytest.raises(ValueError, match="not PSD"):
            sqrt_psd(np.array([1.0, -1e-6]))
        with pytest.raises(ValueError, match="real diagonal"):
            sqrt_psd(np.array([1.0, 1j]))


class TestQuadrature:
    """The Gauss rule of ``integrate_sqrt_smooth``, and the cumulative rule
    of the theorem checks: a family table's integrals over [0, sigma]
    (``FamilyTable.integrals``)."""

    def test_node_values_give_both_integrals(self):
        # From one table: the cumulative integrals start at exactly 0 and
        # end at the total, which the Gauss rule on its coefficient
        # density gives to rounding.
        table = _table([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]])
        got = table.integrals(np.sqrt([0.0, 0.09, 0.5, 1.0]))
        assert np.array_equal(got[0], np.zeros((3, 3)))
        np.testing.assert_allclose(got[-1], table.total, rtol=0.0,
                                   atol=1e-14)
        np.testing.assert_allclose(integrate_sqrt_smooth(table.cdensity_at),
                                   table.total, rtol=0.0, atol=1e-14)

    def test_rule_is_numpys_bit_for_bit(self):
        # The package computes the rule itself, so the first quadrature of
        # a process does not import numpy.polynomial.
        for n in range(1, 129):
            want = np.polynomial.legendre.leggauss(n)
            got = linalg._leggauss.__wrapped__(n)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), n

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 19, 31])
    def test_monomials_exact(self, k):
        # 16 Gauss-Legendre nodes in u integrate degree <= 31 exactly: the
        # integrand sigma^((k - 1) / 2) / 2 is u^k / (2 u) at sigma = u^2.
        got = integrate_sqrt_smooth(lambda s: 0.5 * np.sqrt(s) ** (k - 1),
                                    nodes=16)
        assert got == pytest.approx(1.0 / (k + 1), abs=1e-13)

    def test_matrix_valued(self):
        got = integrate_sqrt_smooth(
            stacked(lambda s: np.array([[s, s ** 2], [0.0, 1.0]])), nodes=8)
        np.testing.assert_allclose(
            got, np.array([[0.5, 1.0 / 3.0], [0.0, 1.0]]), atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    def test_sqrt_rule_handles_half_powers(self, k):
        # exact value of the moment is 2 / (k + 2)
        got = integrate_sqrt_smooth(lambda s: s ** (k / 2.0))
        assert got == pytest.approx(2.0 / (k + 2), abs=1e-14)

    def test_sqrt_rule_beats_plain_rule_at_sqrt(self):
        # sqrt has unbounded derivatives at 0, which caps the plain rule
        # around 2e-5 at 16 nodes; the substituted rule is exact
        plain = loop_gauss_legendre(np.sqrt, 0.0, 1.0, QUAD_NODES)
        assert abs(plain - 2.0 / 3.0) > 1e-8
        sub = integrate_sqrt_smooth(lambda s: np.sqrt(s))
        assert sub == pytest.approx(2.0 / 3.0, abs=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_cumulative_rule_matches_closed_form(self, sigmas):
        # int_0^sigma (3 sqrt(t) - 2) dt = 2 sigma^(3/2) - 2 sigma, for every
        # point of an unsorted grid with repeats: the entry (0, 1) of a
        # table with w = (1, 3 u - 2).
        sigmas = sigmas + sigmas[:1]
        got = _table([[1.0, -2.0], [0.0, 3.0]]).integrals(np.sqrt(sigmas))
        want = [2.0 * s ** 1.5 - 2.0 * s for s in sigmas]
        np.testing.assert_allclose(got[:, 0, 1], want, rtol=0.0, atol=1e-14)

    def test_cumulative_rule_ends_at_the_full_integral(self):
        table = _table([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]])
        got = table.integrals(np.sqrt(np.linspace(0.0, 1.0, 7)))
        assert got.shape == (7, 2, 2)
        np.testing.assert_array_equal(got[0], np.zeros((2, 2)))
        np.testing.assert_allclose(got[-1], integrate_sqrt_smooth(
            table.cdensity_at), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("nodes", [1, 2, 7, 16, 64])
    @pytest.mark.parametrize("f", [np.cos, np.sqrt, _mixed_integrand])
    def test_stacked_rules_match_the_node_loop(self, f, nodes):
        got = integrate_sqrt_smooth(f, nodes=nodes)
        assert np.shape(got) == np.shape(f(1.0))
        assert _relative_gap(got, loop_sqrt_smooth(f, 0.0, 1.0,
                                                   nodes)) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_cumulative_rule_is_exact_below_its_node_count(self, sigmas):
        assert _monomial_error(sigmas) <= 2e-15

    @pytest.mark.parametrize("samples", [11, 201, 301, 6301])
    @pytest.mark.parametrize("parties", [2, 3, 4, 5, 6])
    def test_cumulative_rule_is_exact_on_limit_path_grids(self, parties,
                                                          samples):
        # sigma = s^(1/P) - 1 on the P-party limit path's s grid
        s = np.linspace(2.0 ** parties, 1.0, samples)
        assert _monomial_error(s ** (1.0 / parties) - 1.0) <= 2e-15

    def test_cumulative_rule_calls_the_integrand_once(self):
        # A table's integrals call no integrand at all, whatever the number
        # of samples, and the Gauss total calls its integrand once.
        table = _table([[1.0, -2.0], [0.0, 3.0]])
        for samples in (1, 2, 101, 6301):
            got = table.integrals(np.sqrt(np.linspace(0.0, 1.0, samples)))
            assert got.shape == (samples, 2, 2)
        calls = []

        def f(t):
            calls.append(t.shape)
            return 3.0 * np.sqrt(t) - 2.0

        integrate_sqrt_smooth(f)
        assert calls == [(QUAD_NODES,)]

    def test_cumulative_rule_of_zero_sigmas_is_zero(self):
        np.testing.assert_array_equal(
            _table([[1.0, -2.0], [0.0, 3.0]]).integrals(np.zeros(2)),
            np.zeros((2, 2, 2)))

    def test_integrand_must_return_one_value_per_node(self):
        with pytest.raises(ValueError, match="one value per node"):
            integrate_sqrt_smooth(lambda x: 1.0)
        with pytest.raises(ValueError, match="one value per node"):
            integrate_sqrt_smooth(lambda x: np.eye(2))


class TestLowestEigenvalues:
    """The closed-form lowest eigenvalue of small Hermitian stacks, and the
    Horner evaluation that family tables use."""

    @pytest.mark.parametrize("b", [1, 2, 3])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_matches_eigvalsh_on_hermitian_stacks(self, rng, b, kind):
        g = rng.standard_normal((200, b, b))
        if kind is complex:
            g = g + 1j * rng.standard_normal((200, b, b))
        # Scales from 1e-3 to 1e3, and definite, indefinite and negative
        # definite matrices among them.
        h = (g @ g.conj().swapaxes(1, 2) - rng.uniform(0.0, 4.0, (200, 1, 1))
             * np.eye(b)) * 10.0 ** rng.uniform(-3.0, 3.0, (200, 1, 1))
        want = np.linalg.eigvalsh(h)[:, 0]
        scale = np.abs(np.linalg.eigvalsh(h)).max(axis=1)
        got = lowest_eigenvalues(h)
        assert got.shape == (200,)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)

    def test_zero_and_rank_one_stacks(self, rng):
        # w w^T with a unit entry, as each reduced halt density has: p q
        # and r^2 are then the same product, so the lowest eigenvalue is
        # exactly 0, never below it, where m - g leaves rounding of either
        # sign.
        w = np.stack([np.ones(500), rng.standard_normal(500)
                      * 10.0 ** rng.uniform(-3.0, 3.0, 500)], axis=1)
        h = w[:, :, None] * w[:, None, :]
        assert not lowest_eigenvalues(h).any()
        m, g = 0.5 * (1.0 + h[:, 1, 1]), np.hypot(0.5 * (1.0 - h[:, 1, 1]),
                                                  h[:, 0, 1])
        assert (m - g).any()
        assert np.array_equal(lowest_eigenvalues(np.zeros((3, 2, 2))),
                              np.zeros(3))
        # Any rank-one stack, real or complex: within rounding of the
        # smaller diagonal entry, which bounds the error of p q - |r|^2
        # over m + g. The rounded entries themselves can make the matrix
        # indefinite by that much, so its sign is not pinned.
        v = rng.standard_normal((500, 2)) * 10.0 ** rng.uniform(
            -3.0, 3.0, (500, 2))
        for u in (v, v * np.exp(1j * rng.uniform(0.0, 6.0, (500, 2)))):
            h = u.conj()[:, :, None] * u[:, None, :]
            small = np.minimum(h[:, 0, 0].real, h[:, 1, 1].real)
            assert np.all(np.abs(lowest_eigenvalues(h)) <= 8e-16 * small)

    def test_horner_matches_polyval(self, rng):
        c = rng.standard_normal((4, 3, 2))
        x = rng.uniform(-1.0, 1.0, 9)
        np.testing.assert_allclose(
            polynomial_values(c, x),
            np.moveaxis(np.polynomial.polynomial.polyval(x, c), -1, 0),
            rtol=0.0, atol=1e-14)
        assert np.array_equal(polynomial_values(c[:1], x),
                              np.broadcast_to(c[0], (9, 3, 2)))
        # Degree 1: c_1 x + c_0, bit for bit.
        assert np.array_equal(polynomial_values(c[:2, :, 0], x),
                              c[1, :, 0] * x[:, None] + c[0, :, 0])


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
        with pytest.raises(ValueError):
            product_defect(np.ones((3, 5)), (2, 2), diagonal=True)

    @pytest.mark.parametrize("dims", [(4,), (2, 2), (2, 3), (2, 2, 2),
                                      (3, 2, 2)])
    def test_diagonals_match_their_matrices(self, rng, dims):
        # The SVD of a cut's reshape of the diagonal has the singular values
        # of the dense realignment, so both routes agree to rounding.
        d = int(np.prod(dims))
        factors = [rng.uniform(0.0, 1.0, (3, k)) for k in dims]
        products = factors[0]
        for f in factors[1:]:
            products = (products[:, :, None] * f[:, None, :]).reshape(3, -1)
        diags = np.concatenate([rng.uniform(-1.0, 1.0, (4, d)), products,
                                np.zeros((1, d))])
        got = product_defect(diags, dims, diagonal=True)
        want = product_defect(diagonal_stack(diags), dims)
        assert got.shape == (8,)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
        assert (got[4:] <= 1e-15).all()
        assert product_defect(diags[0], dims, diagonal=True) == got[0]

    def test_two_by_two_singular_values_match_the_svd(self, rng):
        # A two-qubit diagonal reshapes to 2 x 2 at its one cut, and those
        # singular values come in closed form: rank two, rank one (the
        # products, whose second value is rounding), equal values, zero.
        u, v = rng.uniform(-1.0, 1.0, (2, 20, 2))
        r = np.concatenate([rng.uniform(-1.0, 1.0, (40, 2, 2)),
                            u[:, :, None] * v[:, None, :],
                            [np.eye(2), [[0.0, 1.0], [-1.0, 0.0]],
                             np.zeros((2, 2))]])
        got = linalg._singular_values_2x2(r)
        want = np.linalg.svd(r, compute_uv=False)
        assert got.shape == want.shape == (63, 2)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        assert (got[:, 0] >= got[:, 1]).all()
        assert (got[40:60, 1] <= 1e-15).all()
        assert np.array_equal(got[60:], [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
