"""Tests for zonoid membership, support functions, and coefficient fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccverify import (
    NotInSpanError,
    PartyDims,
    ZonoidSpec,
    channel_zonoid,
    cmatrix_resolution_check,
    endpoint_cmatrix,
    hausdorff_estimate,
    instrument_zonoid,
    kraus_from_operators,
    limit_path,
    membership,
    prelimit_channel,
    separation_gap,
    support_function,
    zonoid_spec_for_channel,
    zonoid_spec_for_instrument,
    two_qubit_instrument,
)
from loccverify import twoqubit
from loccverify.zonoid import _directions

from conftest import haar_unitary

D2 = PartyDims((2,))
ZONOIDS = {"channel": channel_zonoid, "instrument": instrument_zonoid}


def square_spec():
    """Two commuting projectors; the zonoid is the diagonal unit square."""
    return ZonoidSpec(kraus_from_operators(
        [np.diag([1.0, 0.0]).astype(complex),
         np.diag([0.0, 1.0]).astype(complex)], D2))


def interval_spec():
    """Rank-one pair whose product zonoid is every operator in [0, 1]."""
    return ZonoidSpec(kraus_from_operators(
        [np.array([[1, 0], [0, 0]], dtype=complex),
         np.array([[0, 1], [0, 0]], dtype=complex)], D2))


class TestSpecConstruction:
    def test_dependent_basis_rejected(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            ZonoidSpec(kraus_from_operators([a, 2 * a], D2))

    def test_channel_spec_is_minimal(self):
        spec = zonoid_spec_for_channel(two_qubit_instrument().instrument.kraus)
        assert spec.kappa == 4
        assert spec.blocks is None

    def test_instrument_spec_blocks(self):
        spec = zonoid_spec_for_instrument(two_qubit_instrument().instrument)
        assert spec.kappa == 5
        assert spec.blocks == ((0,), (1, 2), (3, 4))


class TestSquareExample:
    def test_inside_points(self):
        spec = square_spec()
        for a, b in [(0.0, 0.0), (1.0, 1.0), (0.3, 0.9), (1.0, 0.0)]:
            rep = membership(np.diag([a, b]).astype(complex), spec)
            assert rep.feasible, (a, b)
            assert rep.residual <= 1e-7

    def test_outside_points(self):
        spec = square_spec()
        for a, b in [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.05), (2.0, 2.0)]:
            rep = membership(np.diag([a, b]).astype(complex), spec)
            assert not rep.feasible, (a, b)

    def test_off_diagonal_outside(self):
        # the square basis spans only diagonals, so any coherence is out
        spec = square_spec()
        z = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        rep = membership(z, spec)
        assert not rep.feasible

    def test_support_values(self):
        spec = square_spec()
        assert support_function(np.eye(2, dtype=complex), spec) == \
            pytest.approx(2.0, abs=1e-10)
        assert support_function(np.diag([1.0, -1.0]).astype(complex), spec) == \
            pytest.approx(1.0, abs=1e-10)
        assert support_function(-np.eye(2, dtype=complex), spec) == \
            pytest.approx(0.0, abs=1e-10)


class TestIntervalExample:
    def test_membership_matches_spectral_box(self):
        spec = interval_spec()
        grid = np.linspace(-0.1, 1.1, 7)
        for a in grid:
            for b in grid:
                for c in (-0.4, 0.0, 0.4):
                    z = np.array([[a, c], [c, b]], dtype=complex)
                    w = np.linalg.eigvalsh(z)
                    inside = w[0] >= 0.0 and w[-1] <= 1.0
                    rep = membership(z, spec, tol=1e-7)
                    assert rep.feasible == inside, (a, b, c)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_random_contractions_inside(self, seed):
        r = np.random.default_rng(seed)
        g = r.standard_normal((2, 2)) + 1j * r.standard_normal((2, 2))
        h = g @ g.conj().T
        z = h / (np.linalg.eigvalsh(h)[-1] + 1e-12)
        rep = membership(z.astype(complex), interval_spec())
        assert rep.feasible

    def test_support_identity(self):
        assert support_function(np.eye(2, dtype=complex), interval_spec()) == \
            pytest.approx(2.0, abs=1e-10)


class TestMembershipReports:
    def test_identity_candidate_is_instant(self):
        spec = channel_zonoid()
        rep = membership(np.eye(4, dtype=complex), spec)
        assert rep.feasible
        assert rep.iterations == 0
        assert rep.residual < 1e-12

    def test_witness_reproduces_point(self):
        spec = channel_zonoid()
        z = limit_path(2, 2.5)
        rep = membership(z, spec)
        assert rep.feasible
        solver = spec.solver()
        np.testing.assert_allclose(solver.image(rep.witness.matrix), z,
                                   atol=1e-6)
        w = np.linalg.eigvalsh(rep.witness.matrix)
        assert w[0] >= -1e-9 and w[-1] <= 1.0 + 1e-9

    def test_projector_witness(self):
        spec = channel_zonoid()
        z = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
        rep = membership(z, spec)
        assert rep.feasible
        w = np.sort(np.linalg.eigvalsh(rep.witness.matrix))
        np.testing.assert_allclose(w, [0.0, 0.0, 0.0, 1.0], atol=1e-8)

    def test_scaled_identity_outside(self):
        spec = channel_zonoid()
        rep = membership(1.5 * np.eye(4, dtype=complex), spec)
        assert not rep.feasible
        assert separation_gap(1.5 * np.eye(4, dtype=complex), spec) > 0.1

    def test_limit_path_stays_inside(self):
        spec = channel_zonoid()
        worst = 0.0
        for s in np.linspace(1.0, 4.0, 11):
            rep = membership(limit_path(2, float(s)), spec)
            assert rep.feasible, s
            worst = max(worst, rep.residual)
        assert worst <= 1e-7

    def test_degenerate_face_point_has_exact_box_witness(self):
        # diag(0.9, 0.9, 1, 1) is the first asymmetric breakpoint of the
        # 100-round main branch; this witness sits on a face of the box.
        spec = channel_zonoid()
        c = np.diag([1.0, 1.0, 0.9, 0.5]).astype(complex)
        w = np.linalg.eigvalsh(c)
        assert w[0] >= 0.0 and w[-1] <= 1.0
        image = np.einsum("mn,mnac->ac", c, _gram(spec))
        target = np.diag([0.9, 0.9, 1.0, 1.0])
        assert np.linalg.norm(image - target) <= 1e-15

    @pytest.mark.xfail(strict=True, reason="projected gradient stalls near "
                       "the degenerate box face (residual 1.5e-8 after "
                       "10000 iterations)")
    def test_degenerate_face_point_is_feasible(self):
        z = np.diag([0.9, 0.9, 1.0, 1.0]).astype(complex)
        assert membership(z, channel_zonoid(), tol=1e-9).feasible

    def test_non_hermitian_rejected(self):
        spec = square_spec()
        z = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            membership(z, spec)


class TestEndpointFits:
    def test_grouped_third_operator(self):
        c = endpoint_cmatrix(twoqubit.K_GROUPED[2], channel_zonoid()).matrix
        vec = np.array([0.0, np.sqrt(2 / 3), 0.0, -np.sqrt(1 / 6)])
        np.testing.assert_allclose(c, np.outer(vec, vec), atol=1e-12)

    def test_sum_of_first_two_reduced(self):
        c = endpoint_cmatrix(twoqubit.K_REDUCED[0] + twoqubit.K_REDUCED[1],
                             channel_zonoid()).matrix
        expect = np.zeros((4, 4))
        expect[:2, :2] = 1.0
        np.testing.assert_allclose(c, expect, atol=1e-12)

    def test_outside_span_raises(self):
        off = np.zeros((4, 4), dtype=complex)
        off[0, 1] = 1.0
        with pytest.raises(NotInSpanError):
            endpoint_cmatrix(off, channel_zonoid())

    def test_resolution_check_accepts_identity_split(self):
        parts = [np.diag([1.0, 0.0, 0.0, 0.0]),
                 np.diag([0.0, 1.0, 1.0, 0.5]),
                 np.diag([0.0, 0.0, 0.0, 0.5])]
        ok, defect = cmatrix_resolution_check(parts, np.eye(4))
        assert ok
        assert defect < 1e-12

    def test_resolution_check_flags_gap(self):
        ok, defect = cmatrix_resolution_check(
            [np.diag([1.0, 1.0, 1.0, 0.9])], np.eye(4))
        assert not ok
        assert defect == pytest.approx(0.1)


class TestHausdorff:
    def test_same_spec_is_zero(self):
        spec = channel_zonoid()
        assert hausdorff_estimate(spec, spec, samples=100) == \
            pytest.approx(0.0, abs=1e-12)

    def test_detects_scaling_gap(self):
        base = square_spec()
        shrunk = ZonoidSpec(kraus_from_operators(
            [np.diag([0.8, 0.0]).astype(complex),
             np.diag([0.0, 0.8]).astype(complex)], D2))
        # operator scale 0.8 scales the products by 0.64; the sup over
        # Frobenius-unit directions is attained at diag(1,1)/sqrt(2)
        gap = hausdorff_estimate(base, shrunk, samples=400)
        assert 0.3 < gap <= 0.36 * np.sqrt(2.0) + 1e-9

    def test_seed_determinism(self):
        a = zonoid_spec_for_channel(prelimit_channel(50, 0.5))
        b = channel_zonoid()
        g1 = hausdorff_estimate(a, b, samples=150, seed=3)
        g2 = hausdorff_estimate(a, b, samples=150, seed=3)
        assert g1 == g2

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_directions_open_with_canonical_basis(self, d):
        r = 1.0 / np.sqrt(2.0)
        basis = []
        for i in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, i] = 1.0
            basis.append(e)
        for i in range(d):
            for j in range(i + 1, d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = e[j, i] = r
                f = np.zeros((d, d), dtype=complex)
                f[i, j], f[j, i] = -1j * r, 1j * r
                basis += [e, f]
        xs = _directions(d, 5, 0)
        assert xs.shape == (d * d + 5, d, d)
        np.testing.assert_array_equal(xs[:d * d], np.array(basis))

    def test_directions_extend_with_samples(self):
        short = _directions(4, 40, 11)
        long = _directions(4, 100, 11)
        np.testing.assert_array_equal(long[:len(short)], short)
        norms = np.linalg.norm(long, axis=(1, 2))
        np.testing.assert_allclose(norms, 1.0, rtol=1e-14)
        np.testing.assert_array_equal(long, long.conj().transpose(0, 2, 1))

    def test_shrinks_with_rounds(self):
        b = channel_zonoid()
        gaps = [
            hausdorff_estimate(zonoid_spec_for_channel(
                prelimit_channel(nu, 0.5)), b, samples=300)
            for nu in (50, 500)
        ]
        assert gaps[0] > gaps[1] > 0.0


class TestSupportFunction:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_sublinear_and_homogeneous(self, seed):
        r = np.random.default_rng(seed)
        spec = square_spec()

        def herm():
            g = r.standard_normal((2, 2)) + 1j * r.standard_normal((2, 2))
            return g + g.conj().T

        x, y = herm(), herm()
        sx = support_function(x, spec)
        sy = support_function(y, spec)
        assert support_function(x + y, spec) <= sx + sy + 1e-9
        t = float(r.uniform(0.1, 3.0))
        assert support_function(t * x, spec) == pytest.approx(t * sx)

    @pytest.mark.parametrize("name", sorted(ZONOIDS))
    def test_batched_matches_per_direction_loop(self, name):
        spec = ZONOIDS[name]()
        gram = _gram(spec)
        xs = _directions(spec.dim, 200, 5)
        want = []
        for x in xs:
            a = np.einsum("ab,mpba->pm", x, gram)
            total = 0.0
            for blk in spec.block_list():
                w = np.linalg.eigvalsh(a[np.ix_(blk, blk)])
                total += w[w > 0.0].sum()
            want.append(total)
        got = spec.solver().support(xs)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert support_function(xs[-1], spec) == pytest.approx(got[-1],
                                                              rel=1e-12)

    def test_dominates_members(self):
        # support in any direction bounds the pairing with any member
        spec = channel_zonoid()
        z = limit_path(2, 3.0)
        direction = np.diag([1.0, 0.5, 0.25, 2.0]).astype(complex)
        pairing = float(np.real(np.trace(direction @ z)))
        assert support_function(direction, spec) >= pairing - 1e-9


def _gram(spec):
    ops = spec.basis.operators
    return np.einsum("mba,nbc->mnac", ops.conj(), ops)


def _herm_unit(r, d):
    g = r.standard_normal((d, d)) + 1j * r.standard_normal((d, d))
    h = g + g.conj().T
    return h / np.linalg.norm(h)


def _random_box(spec, r, pin):
    """Block-diagonal 0 <= C <= 1, optionally with one eigenvalue at 0 or 1
    in every block, which puts C on a face of the box."""
    c = np.zeros((spec.kappa, spec.kappa), dtype=complex)
    for blk in spec.block_list():
        w = r.uniform(0.0, 1.0, len(blk))
        if pin:
            w[r.integers(len(blk))] = float(r.integers(2))
        u = haar_unitary(len(blk), r)
        c[np.ix_(blk, blk)] = (u * w) @ u.conj().T
    return c


def _support_maximiser(spec, x):
    """A box point C with Re<x, L(C)> = h(x): the projector onto the
    positive eigenvectors of A[p, m] = Tr(x K_m^dag K_p) in each block."""
    a = np.einsum("ab,mpba->pm", x, _gram(spec))
    c = np.zeros_like(a)
    for blk in spec.block_list():
        w, v = np.linalg.eigh(a[np.ix_(blk, blk)])
        pos = v[:, w > 0.0]
        c[np.ix_(blk, blk)] = pos @ pos.conj().T
    return c


@pytest.mark.parametrize("name", sorted(ZONOIDS))
class TestMembershipProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_box_image_is_feasible_with_checkable_witness(self, name, seed,
                                                           pin):
        spec = ZONOIDS[name]()
        gram = _gram(spec)
        c = _random_box(spec, np.random.default_rng(seed), pin)
        z = np.einsum("mn,mnac->ac", c, gram)
        z = 0.5 * (z + z.conj().T)
        rep = membership(z, spec)
        assert rep.feasible, rep.residual
        w = rep.witness.matrix
        mask = np.zeros(w.shape, dtype=bool)
        for blk in spec.block_list():
            mask[np.ix_(blk, blk)] = True
            eig = np.linalg.eigvalsh(w[np.ix_(blk, blk)])
            assert eig[0] >= -1e-12 and eig[-1] <= 1.0 + 1e-12
        assert np.all(w[~mask] == 0.0)
        image = np.einsum("mn,mnac->ac", w, gram)
        assert np.linalg.norm(image - z) <= 1e-7

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_support_bounds_every_member(self, name, seed, pin):
        spec = ZONOIDS[name]()
        r = np.random.default_rng(seed)
        z = np.einsum("mn,mnac->ac", _random_box(spec, r, pin), _gram(spec))
        x = _herm_unit(r, spec.dim)
        pairing = float(np.real(np.vdot(x, z)))
        assert pairing <= support_function(x, spec) + 1e-10

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e-1))
    def test_push_past_support_is_infeasible(self, name, seed, margin):
        spec = ZONOIDS[name]()
        x = _herm_unit(np.random.default_rng(seed), spec.dim)
        y = np.einsum("mn,mnac->ac", _support_maximiser(spec, x), _gram(spec))
        z = y + margin * x
        z = 0.5 * (z + z.conj().T)
        assert not membership(z, spec).feasible
        assert separation_gap(z, spec) > 0.0
