"""Tests for zonoid membership, support functions, and coefficient fits."""

import dataclasses

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
    main_branch_diagonals,
    main_branch_path,
    membership,
    pqubit_coefficients,
    prelimit_channel,
    separation_gap,
    support_function,
    zonoid_spec_for_channel,
    zonoid_spec_for_instrument,
    two_qubit_instrument,
)
from loccverify import twoqubit, zonoid
from loccverify.tolerances import MEMBERSHIP_TOL, ROUNDING_TOL
from loccverify.zonoid import (CoefficientMatrix, _directions,
                               coefficient_stack)

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

    @pytest.mark.parametrize("stop", ["identity", "affine"])
    def test_candidates_answer_only_within_tol(self, stop):
        # An off-span part of norm 1.4e-13 keeps each candidate within
        # 1e-12 of z but not within a caller's tol of 1e-14.
        spec = channel_zonoid()
        z = np.eye(4, dtype=complex) if stop == "identity" \
            else limit_path(2, 2.5)
        z[0, 1] += 1e-13
        z[1, 0] += 1e-13
        rep = membership(z, spec)
        assert rep.feasible
        assert (rep.phase, rep.stop, rep.iterations) == ("candidate", stop, 0)
        assert 1e-13 < rep.residual < 1e-12
        rep = membership(z, spec, tol=1e-14)
        assert not rep.feasible
        assert rep.phase != "candidate"
        assert rep.residual > 1e-14

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

    def test_degenerate_face_point_is_feasible(self):
        # The descent alone stalls here (residual 1.5e-8 after 10000
        # iterations). The slice point nearest the box centre answers it
        # exactly, and so do the faces <10|.|10> = 1 and then <11|.|11> = 1.
        z = np.diag([0.9, 0.9, 1.0, 1.0]).astype(complex)
        spec = channel_zonoid()
        rep = membership(z, spec, tol=1e-9)
        assert rep.feasible
        assert _k_reduced_witness_residual(rep.witness.matrix, z) <= 1e-9
        assert (rep.phase, rep.iterations) == ("candidate", 0)
        s = spec.solver()
        rep = s._face_solve(z, 1e-9, zonoid.MEMBERSHIP_MAX_ITER,
                            s.a_pinv @ z.reshape(-1))
        assert rep.feasible
        assert _k_reduced_witness_residual(rep.witness.matrix, z) <= 1e-9
        assert rep.phase == "face-2"
        np.testing.assert_array_equal(rep.face_x, np.diag([0, 0, 1, 0]))

    def test_asymmetric_breakpoints_are_feasible(self):
        # Every odd breakpoint diag(uv, u, v, 1), u = eta^(n+1), v = eta^n,
        # of the 100-round main branch lies on the face <11|.|11> = 1.
        breakpoints = main_branch_path(2, 100, 0.5).operators[1::2]
        assert len(breakpoints) == 100
        for n, z in enumerate(breakpoints):
            rep = membership(z, channel_zonoid(), tol=1e-9)
            assert rep.feasible, n
            assert _k_reduced_witness_residual(rep.witness.matrix, z) \
                <= 1e-9, n

    def test_prelimit_sweep_needs_few_iterations(self):
        # The s = 3.4 sample ran into the 10000-iteration cap and s = 3.7
        # took 4126 iterations before the face step: 14417 in all.
        spec = channel_zonoid()
        total = 0
        for d in main_branch_diagonals(2, 10, 0.5, np.linspace(4.0, 1.0, 11)):
            rep = membership(np.diag(d).astype(complex), spec)
            assert rep.feasible
            total += rep.iterations
        assert total < 1000

    def test_instrument_box_images_need_few_iterations(self):
        # Box images, interior or pinned to a face of the box, converge in
        # about ten iterations each, however ill-conditioned L is.
        spec = instrument_zonoid()
        gram = _gram(spec)
        r = np.random.default_rng(2024)
        total = 0
        for pin in [False] * 20 + [True] * 20:
            z = np.einsum("mn,mnac->ac", _random_box(spec, r, pin), gram)
            rep = membership(0.5 * (z + z.conj().T), spec)
            assert rep.feasible
            total += rep.iterations
        assert total < 800

    def test_interior_box_images_are_exact_candidates(self):
        # The slice point nearest the box centre lies inside the box for
        # 39 of these 40 interior box images, and a^+ z for 18.
        spec = instrument_zonoid()
        gram = _gram(spec)
        r = np.random.default_rng(2024)
        exact = 0
        for _ in range(40):
            z = np.einsum("mn,mnac->ac", _random_box(spec, r, False), gram)
            rep = membership(0.5 * (z + z.conj().T), spec)
            assert rep.feasible
            exact += rep.iterations == 0
        assert exact >= 36

    def test_zero_block_faces_are_feasible_on_their_face(self):
        # C = 0 on a whole block of instrument_zonoid puts L(C) on a face
        # that only a negated canonical direction exposes; without it the
        # descent crawls to the iteration cap.
        spec = instrument_zonoid()
        gram = _gram(spec)
        r = np.random.default_rng(0)
        total = 0
        for zero in [(1, 2), (3, 4)] * 10:
            c = np.zeros((spec.kappa, spec.kappa), dtype=complex)
            for blk in spec.block_list():
                if blk != zero:
                    w = r.uniform(0.0, 1.0, len(blk))
                    u = haar_unitary(len(blk), r)
                    c[np.ix_(blk, blk)] = (u * w) @ u.conj().T
            z = np.einsum("mn,mnac->ac", c, gram)
            rep = membership(0.5 * (z + z.conj().T), spec, tol=1e-9)
            assert rep.feasible
            total += rep.iterations
        assert total < 3000

    @pytest.mark.parametrize("s", [15.0, 12.0])
    def test_four_party_limit_path_needs_no_face(self, s):
        # The descent reaches s = 15 before the facial reduction at
        # iteration 100 would start; the slice point nearest the box
        # centre answers s = 12 exactly.
        rep = membership(limit_path(4, s), _multiplier_spec(4))
        assert rep.feasible
        if s == 15.0:
            assert rep.stop == "converged"
            assert rep.phase == "descent" and rep.iterations < 100
        else:
            assert (rep.stop, rep.phase, rep.iterations) == \
                ("affine", "candidate", 0)

    def test_phase_and_face_direction_are_reported(self):
        spec = channel_zonoid()
        for target, phase in [(np.eye(4), "candidate"),
                              (limit_path(2, 2.5), "candidate"),
                              (limit_path(2, 1.2), "descent"),
                              (np.diag([0.9, 0.9, 1.0, 1.0 + 1e-6]),
                               "descent")]:
            rep = membership(np.asarray(target, dtype=complex), spec)
            assert rep.phase == phase
            assert rep.face_x is None
        rep = membership(main_branch_path(2, 100, 0.5).operators[91], spec,
                         tol=1e-9)
        assert rep.feasible and rep.phase == "face-1"
        np.testing.assert_array_equal(rep.face_x, np.diag([0, 0, 0, 1]))
        assert zonoid.MembershipReport(True, None, 0.0, 0).phase == ""

    def test_face_that_pins_every_coefficient(self):
        # On the unit square, diag(1, 1) lies on the face <0|.|0> = 1 and
        # then on <1|.|1> = 1, which together fix C: the slice is one point.
        solver = square_spec().solver()
        rep = solver._face_solve(np.eye(2, dtype=complex), 1e-9, 100,
                                 np.zeros(4, dtype=complex))
        assert rep.feasible and rep.phase == "face-2"
        assert rep.iterations == 0 and rep.stop == "affine"
        np.testing.assert_allclose(rep.witness.matrix, np.eye(2), atol=1e-15)

    def test_iteration_cap_counts_face_iterations(self, monkeypatch):
        # This breakpoint converges on its face after about 750 iterations.
        z = main_branch_path(2, 100, 0.5).operators[133]
        assert membership(z, channel_zonoid(), tol=1e-9).phase == "face-1"
        monkeypatch.setattr(zonoid, "MEMBERSHIP_MAX_ITER", 150)
        rep = membership(z, channel_zonoid(), tol=1e-9)
        assert rep.iterations == 150
        assert rep.phase == "descent"

    def test_witness_matrix_cannot_be_replaced_or_written(self):
        rep = membership(limit_path(2, 2.5), channel_zonoid())
        c = rep.witness
        kept = c.matrix.copy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.matrix = np.zeros_like(kept)
        with pytest.raises(ValueError):
            c.matrix[0, 1] = 5.0
        np.testing.assert_array_equal(c.matrix, kept)

    def test_coefficient_matrix_leaves_its_input_writeable_and_unshared(self):
        m = np.diag([0.25, 0.75]).astype(complex)
        c = CoefficientMatrix(m)
        m[0, 1] = 1.0
        assert c.matrix[0, 1] == 0.0

    def test_coefficient_stack_follows_the_coefficient_matrix_rule(self, rng):
        g = rng.standard_normal((6, 5, 5)) + 1j * rng.standard_normal((6, 5, 5))
        stack = 0.5 * (g + g.conj().transpose(0, 2, 1))
        stack[2, 0, 1] += 1e-12  # skew inside INPUT_HERMITICITY_TOL
        got = coefficient_stack(stack)
        for m, c in zip(stack, got):
            np.testing.assert_array_equal(c, CoefficientMatrix(m).matrix)
        stack[4, 1, 3] += 1e-7
        with pytest.raises(ValueError, match="Hermitian"):
            CoefficientMatrix(stack[4])
        with pytest.raises(ValueError, match="Hermitian"):
            coefficient_stack(stack)
        with pytest.raises(ValueError, match="square"):
            coefficient_stack(stack[:, :, :4])

    @pytest.mark.parametrize("spec", [channel_zonoid, instrument_zonoid])
    def test_stacked_image_and_box_test_match_single_calls(self, spec, rng):
        solver = spec().solver()
        k = solver.kappa
        g = rng.standard_normal((7, k, k)) + 1j * rng.standard_normal((7, k, k))
        cs = np.where(solver.mask, 0.1 * (g + g.conj().transpose(0, 2, 1)),
                      0.0) + 0.5 * np.eye(k)
        cs[3] *= 4.0
        images = solver.image(cs)
        boxes = solver.in_box_each(cs)
        assert boxes.dtype == bool and not boxes.all() and boxes.any()
        for c, image, box in zip(cs, images, boxes):
            np.testing.assert_array_equal(image, solver.image(c))
            assert solver.in_box(c) is bool(box)

    def test_non_hermitian_rejected(self):
        spec = square_spec()
        z = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            membership(z, spec)

    @pytest.mark.parametrize("scale", [1e160, 1e308, np.inf, np.nan])
    def test_non_finite_target_rejected(self, scale):
        # 1e160 and 1e308 are finite entries whose norm overflows.
        z = np.diag([scale, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="finite"):
            membership(z, square_spec())


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


def _k_reduced_witness_residual(c, z):
    """||L(C) - z|| with L rebuilt from K_REDUCED, after checking that C is
    Hermitian with its eigenvalues in [0, 1] to 1e-12."""
    k = twoqubit.K_REDUCED
    np.testing.assert_array_equal(c, c.conj().T)
    w = np.linalg.eigvalsh(c)
    assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12
    image = np.einsum("mn,mba,nbc->ac", c, k.conj(), k)
    return float(np.linalg.norm(image - z))


def _multiplier_spec(parties):
    """Zonoid of the P-party limit multiplier S: diagonal Kraus operators
    diag(sqrt(w_m) v_m) from eigh of S, keeping the eigenvalues above
    1e-12 times the largest."""
    w, v = np.linalg.eigh(pqubit_coefficients(parties))
    keep = np.flatnonzero(w > 1e-12 * w[-1])[::-1]
    d = 2 ** parties
    ops = np.zeros((keep.size, d, d), dtype=complex)
    ops[:, np.arange(d), np.arange(d)] = (v[:, keep] * np.sqrt(w[keep])).T
    return ZonoidSpec(kraus_from_operators(list(ops),
                                           PartyDims((2,) * parties)))


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

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_projector_block_image_is_feasible(self, name, seed):
        # One block of C has every eigenvalue exactly 0 or 1, so C sits on
        # a face of the box that may be a face of the zonoid too.
        spec = ZONOIDS[name]()
        r = np.random.default_rng(seed)
        blocks = spec.block_list()
        pinned = r.integers(len(blocks))
        c = np.zeros((spec.kappa, spec.kappa), dtype=complex)
        for i, blk in enumerate(blocks):
            w = (r.integers(0, 2, len(blk)).astype(float) if i == pinned
                 else r.uniform(0.0, 1.0, len(blk)))
            u = haar_unitary(len(blk), r)
            c[np.ix_(blk, blk)] = (u * w) @ u.conj().T
        gram = _gram(spec)
        z = np.einsum("mn,mnac->ac", c, gram)
        z = 0.5 * (z + z.conj().T)
        rep = membership(z, spec)
        assert rep.feasible, rep.residual
        assert (rep.face_x is None) == (not rep.phase.startswith("face-"))
        w = rep.witness.matrix
        mask = np.zeros(w.shape, dtype=bool)
        for blk in blocks:
            mask[np.ix_(blk, blk)] = True
            eig = np.linalg.eigvalsh(w[np.ix_(blk, blk)])
            assert eig[0] >= -1e-12 and eig[-1] <= 1.0 + 1e-12
        assert np.all(w[~mask] == 0.0)
        image = np.einsum("mn,mnac->ac", w, gram)
        assert np.linalg.norm(image - z) <= MEMBERSHIP_TOL

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


# The four built-in bases of ``zonoid-check``.
BASES = {"square": square_spec, "interval": interval_spec,
         "twoqubit-minimal": channel_zonoid,
         "twoqubit-blocks": instrument_zonoid}


@pytest.mark.parametrize("name", sorted(BASES))
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_candidate_answers_are_exact_box_witnesses(name, seed, pin):
    # Every candidate answer passes the box rule and reproduces z from the
    # basis operators; an `affine` one is a^+ z or the slice point nearest
    # the box centre, whose offset from I/2 has no part in the kernel of a.
    spec = BASES[name]()
    s = spec.solver()
    z = np.einsum("mn,mnac->ac", _random_box(
        spec, np.random.default_rng(seed), pin), _gram(spec))
    z = 0.5 * (z + z.conj().T)
    zvec = z.reshape(-1)
    pinv = np.linalg.pinv(s.a, rcond=1e-13)
    c0 = pinv @ zvec
    centre = c0 + s.mid
    kernel = np.eye(s.a.shape[1]) - pinv @ s.a
    half = 0.5 * np.eye(spec.kappa)[s.mask]
    np.testing.assert_allclose(kernel @ (centre - half), 0.0, rtol=0.0,
                               atol=1e-12)
    np.testing.assert_allclose(s.a @ centre, zvec, rtol=0.0, atol=1e-12)
    rep = membership(z, spec)
    assert rep.feasible
    if rep.phase != "candidate":
        return
    w = rep.witness.matrix
    assert np.all(w[~s.mask] == 0.0)
    for blk in spec.block_list():
        eig = np.linalg.eigvalsh(w[np.ix_(blk, blk)])
        assert eig[0] >= -ROUNDING_TOL and eig[-1] <= 1.0 + ROUNDING_TOL
    ops = spec.basis.operators
    image = np.einsum("mn,mba,nbc->ac", w, ops.conj(), ops)
    assert np.linalg.norm(image - z) <= 1e-12
    if rep.stop == "affine":
        assert any(np.allclose(w[s.mask], c, rtol=0.0, atol=1e-14)
                   for c in (c0, centre))


def _block_box(grids, kappa, c):
    """Box projection one block at a time, each by its own eigh."""
    out = np.zeros((kappa, kappa), dtype=complex)
    for grid in grids:
        sub = c[grid]
        w, v = np.linalg.eigh(0.5 * (sub + sub.conj().T))
        out[grid] = (v * np.clip(w, 0.0, 1.0)) @ v.conj().T
    return out


def _reference_feasible(spec, z):
    """The membership verdict of the same solve run on kappa x kappa
    matrices: einsum image and adjoint, one eigh per block, the identity
    and a^+ z as candidates, the same FISTA restart rule and stop rules."""
    s = spec.solver()
    gram, mask, kappa = _gram(spec), s.mask, spec.kappa

    def image(c):
        return np.einsum("mn,mnac->ac", c, gram)

    def adjoint(x):
        return np.where(mask, np.einsum("mnac,ac->mn", gram.conj(), x), 0.0)

    def residual(c):
        return float(np.linalg.norm(image(c) - z))

    def box(c):
        return _block_box(s.grids, kappa, c)

    c0 = np.zeros((kappa, kappa), dtype=complex)
    c0[mask] = np.linalg.pinv(s.a, rcond=1e-13) @ z.reshape(-1)
    if residual(np.where(mask, np.eye(kappa), 0.0)) <= ROUNDING_TOL:
        return True
    if s.in_box(c0) and residual(c0) <= ROUNDING_TOL:
        return True
    step = 1.0 / np.linalg.svd(s.a, compute_uv=False)[0] ** 2
    c = y = best = box(c0)
    t, best_res, last_improve = 1.0, residual(c), 0
    for it in range(zonoid.MEMBERSHIP_MAX_ITER):
        grad = adjoint(image(y) - z)
        cn = box(y - step * grad)
        if np.real(np.vdot(grad, cn - c)) > 0.0:
            t, y = 1.0, c
            cn = box(y - step * adjoint(image(y) - z))
        tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = cn + ((t - 1.0) / tn) * (cn - c)
        move = float(np.linalg.norm(cn - c))
        c, t = cn, tn
        res = residual(c)
        if res < best_res - max(1e-15, 1e-6 * best_res):
            last_improve = it
        best_res = min(best_res, res)
        if (res <= 0.005 * MEMBERSHIP_TOL or move <= 1e-13
                or it - last_improve >= 400):
            break
        if it % 100 == 99:
            diff = z - image(c)
            x = diff / np.linalg.norm(diff)
            gap = np.real(np.vdot(x, z)) - s.support(x[None])[0]
            if gap > MEMBERSHIP_TOL:
                break
    return best_res <= MEMBERSHIP_TOL


def _old_directions(d, samples, seed):
    """The Gaussian part of the direction set, drawn one at a time."""
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(samples):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = 0.5 * (g + g.conj().T)
        drawn.append(h / np.linalg.norm(h))
    return np.reshape(drawn, (-1, d, d))


@st.composite
def _partitioned_boxes(draw):
    """A spec over a random partition of kappa <= 8 basis operators into
    blocks, and a block-diagonal Hermitian C whose spectrum mixes values
    below 0, exactly 0, inside (0, 1), exactly 1 and above 1, with values
    shared between blocks."""
    kappa = draw(st.integers(1, 8))
    order = draw(st.permutations(range(kappa)))
    cuts = sorted(draw(st.sets(st.integers(1, kappa - 1))) if kappa > 1
                  else [])
    blocks = tuple(tuple(order[a:b])
                   for a, b in zip([0] + cuts, cuts + [kappa]))
    r = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ops = r.standard_normal((kappa, 3, 3)) + 1j * r.standard_normal(
        (kappa, 3, 3))
    spec = ZonoidSpec(kraus_from_operators(list(ops), PartyDims((3,))),
                      blocks)
    pool = [-0.4, 0.0, 0.25, 0.5, 1.0, 1.3]
    c = np.zeros((kappa, kappa), dtype=complex)
    for blk in blocks:
        w = np.array(draw(st.lists(st.sampled_from(pool), min_size=len(blk),
                                   max_size=len(blk))))
        u = haar_unitary(len(blk), r)
        c[np.ix_(blk, blk)] = (u * w) @ u.conj().T
    return spec, c


class TestDescentKernel:
    @settings(max_examples=60, deadline=None)
    @given(_partitioned_boxes())
    def test_one_eigh_box_matches_per_block(self, case):
        spec, c = case
        s = spec.solver()
        got = s.to_matrix(s.project_box(c[s.mask]))
        want = _block_box(s.grids, spec.kappa, c)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
        assert np.all(got[~s.mask] == 0.0)
        # The box test of the whole masked matrix, whatever lies outside
        # the blocks, against each block's own spectrum.
        inside = all(
            -ROUNDING_TOL <= w[0] and w[-1] <= 1.0 + ROUNDING_TOL
            for w in (np.linalg.eigvalsh(c[grid]) for grid in s.grids))
        noisy = np.where(s.mask, c, 5.0)
        assert s.in_box(c) is inside
        assert s.in_box_each(np.stack([c, noisy])).tolist() == [inside] * 2

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("n", [0, 1, 500])
    def test_directions_are_the_per_direction_stream(self, d, n):
        xs = _directions(d, n, 17)
        np.testing.assert_array_equal(xs[d * d:], _old_directions(d, n, 17))
        longer = _directions(d, n + 7, 17)
        np.testing.assert_array_equal(longer[:len(xs)], xs)

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_normal_is_the_kernel_projector(self, name):
        # The descent steps with length 1 because normal = I - a^+ a is the
        # orthogonal projector onto the kernel of a.
        s = BASES[name]().solver()
        n = s.normal
        np.testing.assert_allclose(n, n.conj().T, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(n @ n, n, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(s.a @ n, 0.0, rtol=0.0, atol=1e-12)

    def test_verdicts_match_matrix_form_descent(self):
        r = np.random.default_rng(90210)
        checked = 0
        for name, make in BASES.items():
            spec = make()
            gram = _gram(spec)
            targets = []
            for pin in (False, True):
                for _ in range(5):
                    c = _random_box(spec, r, pin)
                    targets.append(np.einsum("mn,mnac->ac", c, gram))
            for _ in range(5):
                x = _herm_unit(r, spec.dim)
                y = np.einsum("mn,mnac->ac", _support_maximiser(spec, x),
                              gram)
                targets.append(y + float(r.uniform(1e-3, 1e-1)) * x)
            for z in targets:
                z = 0.5 * (z + z.conj().T)
                rep = membership(z, spec)
                assert rep.feasible == _reference_feasible(spec, z), name
                checked += 1
                if not rep.feasible:
                    continue
                w = rep.witness.matrix
                mask = spec.solver().mask
                assert np.all(w[~mask] == 0.0)
                for blk in spec.block_list():
                    eig = np.linalg.eigvalsh(w[np.ix_(blk, blk)])
                    assert eig[0] >= -1e-12 and eig[-1] <= 1.0 + 1e-12
                image = np.einsum("mn,mnac->ac", w, gram)
                assert np.linalg.norm(image - z) <= MEMBERSHIP_TOL
        assert checked == 60


class TestStopReasons:
    @pytest.mark.parametrize("stop,target", [
        ("identity", np.eye(4)),
        ("affine", np.diag([0.0, 0.0, 0.0, 1.0])),
        ("converged", limit_path(2, 1.2)),
        # Outside (a diagonal direction separates it by 0.0139), but
        # neither direction tested at the best witness certifies it.
        ("small-step", np.diag([0.36, 0.42, 1.0, 0.7])),
        ("stalled", np.diag([0.9, 0.9, 1.0, 1.0 + 1e-6])),
        ("outside", np.diag([0.9, 0.9, 1.0, 1.01])),
    ])
    def test_each_stop_rule_is_reported(self, stop, target):
        rep = membership(np.asarray(target, dtype=complex), channel_zonoid())
        assert rep.stop == stop
        assert (rep.iterations == 0) == (stop in ("identity", "affine"))
        assert rep.feasible == (stop in ("identity", "affine", "converged"))

    def test_iteration_cap_is_reported(self, monkeypatch):
        # limit_path(2, 1.2) converges after 23 iterations uncapped.
        monkeypatch.setattr(zonoid, "MEMBERSHIP_MAX_ITER", 5)
        rep = membership(limit_path(2, 1.2), channel_zonoid())
        assert rep.stop == "max-iter"
        assert rep.iterations == 5
        assert rep.separating is None and rep.gap is None

    def test_capped_outside_point_is_certified_at_its_witness(
            self, monkeypatch):
        # The cap stops the descent before any checkpoint; the test at
        # the best witness still separates 1.5 I.
        monkeypatch.setattr(zonoid, "MEMBERSHIP_MAX_ITER", 5)
        z = 1.5 * np.eye(4, dtype=complex)
        rep = membership(z, channel_zonoid())
        assert (rep.stop, rep.iterations) == ("outside", 5)
        _check_certificate(rep, z, channel_zonoid())

    def test_outside_answers_carry_their_direction(self):
        # Off the diagonal span of the square basis: answered before any
        # descent, with the normalised off-diagonal part as direction.
        z = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        rep = membership(z, square_spec())
        assert (rep.stop, rep.phase, rep.iterations) == ("outside", "span", 0)
        assert rep.gap == pytest.approx(np.sqrt(2.0) * 0.3, abs=1e-12)
        np.testing.assert_allclose(
            rep.separating, np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0),
            rtol=0.0, atol=1e-15)
        # In the span, certified by the descent's own test.
        rep = membership(np.diag([0.9, 0.9, 1.0, 1.01]).astype(complex),
                         channel_zonoid())
        assert (rep.stop, rep.phase) == ("outside", "descent")
        assert rep.iterations > 0
        assert rep.separating is not None and rep.gap > MEMBERSHIP_TOL
        # A descent that stops moving is tested once more at its best
        # witness: 1.5 I stops small-step after 23 iterations, certified.
        z = 1.5 * np.eye(4, dtype=complex)
        rep = membership(z, channel_zonoid())
        assert (rep.stop, rep.phase, rep.iterations) == \
            ("outside", "descent", 23)
        _check_certificate(rep, z, channel_zonoid())
        # Infeasible answers without a certificate claim none.
        for target in (np.diag([0.36, 0.42, 1.0, 0.7]),
                       np.diag([0.9, 0.9, 1.0, 1.0 + 1e-6])):
            rep = membership(np.asarray(target, dtype=complex),
                             channel_zonoid())
            assert rep.stop in ("small-step", "stalled")
            assert not rep.feasible
            assert rep.separating is None and rep.gap is None


def _check_certificate(rep, z, spec):
    """The separating direction of an outside answer is a unit Hermitian x
    whose gap, recomputed from the support function, is the reported one
    and above the tolerance; the residual, recomputed at the box witness,
    is at least that gap, up to rounding where the witness is the nearest
    point of the zonoid."""
    assert (rep.separating is None) == (rep.stop != "outside")
    assert (rep.gap is None) == (rep.separating is None)
    if rep.separating is None:
        return
    x = rep.separating
    assert not rep.feasible
    w = rep.witness.matrix
    for blk in spec.block_list():
        eig = np.linalg.eigvalsh(w[np.ix_(blk, blk)])
        assert eig[0] >= -1e-12 and eig[-1] <= 1.0 + 1e-12
    image = np.einsum("mn,mnac->ac", w, _gram(spec))
    assert abs(np.linalg.norm(image - z) - rep.residual) <= 1e-12
    np.testing.assert_allclose(x, x.conj().T, rtol=0.0, atol=1e-12)
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
    gap = float(np.real(np.vdot(x, z))) - support_function(x, spec)
    assert gap > MEMBERSHIP_TOL
    assert abs(gap - rep.gap) <= 1e-10
    assert rep.gap <= rep.residual + ROUNDING_TOL


@pytest.mark.parametrize("name", sorted(BASES))
class TestSeparatingCertificate:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e-1))
    def test_off_span_push_is_certified(self, name, seed, margin):
        spec = BASES[name]()
        x = _herm_unit(np.random.default_rng(seed), spec.dim)
        y = np.einsum("mn,mnac->ac", _support_maximiser(spec, x), _gram(spec))
        z = y + margin * x
        z = 0.5 * (z + z.conj().T)
        rep = membership(z, spec)
        assert not rep.feasible
        _check_certificate(rep, z, spec)
        if name != "interval":
            # These bases span only diagonal operators, and a Gaussian x
            # has an off-diagonal part, so the span test answers.
            assert (rep.phase, rep.iterations) == ("span", 0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_box_images_skip_the_span_exit(self, name, seed, pin):
        # The span test returns nothing on a box image, so the answer is
        # the candidate or bitwise the descent from a_pinv z.
        spec = BASES[name]()
        c = _random_box(spec, np.random.default_rng(seed), pin)
        z = np.einsum("mn,mnac->ac", c, _gram(spec))
        z = 0.5 * (z + z.conj().T)
        rep = membership(z, spec)
        assert rep.feasible
        assert rep.phase != "span"
        assert rep.separating is None and rep.gap is None
        if rep.phase == "candidate":
            return
        s = spec.solver()
        ref = s._descend(z, s.a_pinv @ z.reshape(-1), MEMBERSHIP_TOL,
                         zonoid.MEMBERSHIP_MAX_ITER, True)
        np.testing.assert_array_equal(rep.witness.matrix, ref.witness.matrix)
        assert (rep.residual, rep.iterations, rep.stop, rep.phase) == \
            (ref.residual, ref.iterations, ref.stop, ref.phase)


def _diagonal_push(spec, r, margin):
    """y + margin x on the diagonal, y a support maximiser of a random unit
    diagonal x: outside the zonoid, and in the span of a diagonal basis."""
    x = np.diag(r.standard_normal(spec.dim)).astype(complex)
    x /= np.linalg.norm(x)
    y = np.einsum("mn,mnac->ac", _support_maximiser(spec, x), _gram(spec))
    return np.diag(np.diag(y + margin * x).real).astype(complex)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e-1))
def test_in_span_push_is_certified_by_the_descent(seed, margin):
    spec = channel_zonoid()
    z = _diagonal_push(spec, np.random.default_rng(seed), margin)
    rep = membership(z, spec)
    assert not rep.feasible
    assert rep.phase == "descent"
    _check_certificate(rep, z, spec)


@pytest.mark.parametrize("name", sorted(ZONOIDS))
def test_descent_checkpoint_certifies_in_span_pushes(name):
    # Every descent that reaches its checkpoint at iteration 100 is
    # certified there by the direction (a a^H)^+ r; one that stops moving
    # before then is certified by the tests at its best witness.
    spec = ZONOIDS[name]()
    certified = 0
    for seed in range(12):
        r = np.random.default_rng(seed)
        z = _diagonal_push(spec, r, float(r.uniform(1e-3, 1e-1)))
        rep = membership(z, spec)
        assert not rep.feasible and rep.phase == "descent"
        assert rep.stop == "outside"
        _check_certificate(rep, z, spec)
        assert rep.iterations <= 100
        certified += rep.iterations == 100
    # 6 (channel) and 8 (instrument) of these 12 reach the checkpoint.
    assert certified >= 6
