"""Tests for zonoid membership, support functions, and coefficient fits."""

import dataclasses
import functools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccverify import (
    Instrument,
    NotInSpanError,
    PartyDims,
    ZonoidSpec,
    channel_zonoid,
    choi,
    endpoint_cmatrix,
    hausdorff_estimate,
    instrument_zonoid,
    kraus_from_operators,
    main_branch_diagonals,
    main_branch_path,
    membership,
    minimal_kraus,
    multiplier_kraus,
    pqubit_coefficients,
    prelimit_channel,
    separation_gap,
    support_function,
    zonoid_spec_for_channel,
    zonoid_spec_for_instrument,
    two_qubit_instrument,
)
from loccverify import twoqubit, zonoid
from loccverify.linalg import diagonal_stack
from loccverify.protocols import limit_path_diagonals
from loccverify.tolerances import MEMBERSHIP_TOL, ROUNDING_TOL
from loccverify.zonoid import (CoefficientMatrix, _directions,
                               coefficient_stack)

from conftest import haar_unitary

D2 = PartyDims((2,))
ZONOIDS = {"channel": channel_zonoid, "instrument": instrument_zonoid}


def _limit_point(parties, s):
    """The limit path's operator at one s, as a matrix."""
    return diagonal_stack(limit_path_diagonals(parties, [s]))[0]


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

    def test_one_operator_outcomes_skip_the_choi_matrix(self):
        inst = two_qubit_instrument().instrument
        want = np.concatenate([_choi_route(inst.branch(r))
                               for r in range(inst.n_outcomes)])
        got = zonoid_spec_for_instrument(inst).basis.operators
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        # One 32 x 32 operator; its Choi matrix alone would hold 16 MiB.
        u = haar_unitary(32, np.random.default_rng(4))
        big = Instrument(kraus_from_operators([u], PartyDims((32,))),
                         ((0,),))
        tracemalloc.start()
        try:
            spec = zonoid_spec_for_instrument(big)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        j = np.unravel_index(np.argmax(np.abs(u)), u.shape)
        np.testing.assert_array_equal(spec.basis.operators[0],
                                      u * (u[j] / abs(u[j])).conj())
        with pytest.raises(ValueError, match="zero channel"):
            minimal_kraus(kraus_from_operators([np.zeros((2, 2))], D2))

    def test_choi_route_keeps_the_zeros_of_its_operators(self):
        # Rounding in the Choi eigenvectors off the diagonal would let the
        # map of these two diagonal operators reach all d^2 entries.
        rng = np.random.default_rng(8)
        ops = rng.standard_normal((2, 16, 2)) @ np.array([1.0, 1j])
        inst = Instrument(kraus_from_operators(list(map(np.diag, ops)),
                                               PartyDims((16,))), ((0, 1),))
        spec = zonoid_spec_for_instrument(inst)
        assert len(spec.solver().rows) == 16
        np.testing.assert_allclose(spec.basis.operators,
                                   _choi_route(inst.branch(0)),
                                   rtol=0.0, atol=1e-12)


def _choi_route(k):
    """The minimal Kraus set from the eigenvectors of the Choi matrix,
    the largest entry of each made real and positive."""
    w, v = np.linalg.eigh(choi(k, normalized=False).matrix)
    ops = []
    for i in np.flatnonzero(w > 1e-8 * w[-1])[::-1]:
        op = v[:, i].reshape(k.input_dim, k.output_dim).T * np.sqrt(w[i])
        j = np.unravel_index(np.argmax(np.abs(op)), op.shape)
        ops.append(op * (op[j] / abs(op[j])).conj())
    return np.array(ops)


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
            else _limit_point(2, 2.5)
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
        z = _limit_point(2, 2.5)
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
            rep = membership(_limit_point(2, s), spec)
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
        # The slice point nearest the box centre answers it exactly. The
        # barrier solve alone, run past the candidates, reaches the same
        # point on the faces <10|.|10> = 1 and <11|.|11> = 1.
        z = np.diag([0.9, 0.9, 1.0, 1.0]).astype(complex)
        spec = channel_zonoid()
        rep = membership(z, spec, tol=1e-9)
        assert rep.feasible
        assert _k_reduced_witness_residual(rep.witness.matrix, z) <= 1e-9
        assert (rep.phase, rep.iterations) == ("candidate", 0)
        rep = _barrier_only(spec, z, 1e-9)
        assert rep.feasible
        assert _k_reduced_witness_residual(rep.witness.matrix, z) <= 1e-9
        assert (rep.phase, rep.stop) == ("barrier", "face")

    def test_asymmetric_breakpoints_are_feasible(self):
        # Every odd breakpoint diag(uv, u, v, 1), u = eta^(n+1), v = eta^n,
        # of the 100-round main branch lies on the face <11|.|11> = 1.
        breakpoints = diagonal_stack(
            main_branch_path(2, 100, 0.5).diagonals[1::2])
        assert len(breakpoints) == 100
        for n, z in enumerate(breakpoints):
            rep = membership(z, channel_zonoid(), tol=1e-9)
            assert rep.feasible, n
            assert _k_reduced_witness_residual(rep.witness.matrix, z) \
                <= 1e-9, n

    def test_prelimit_sweep_needs_few_iterations(self):
        # Every sample lies on the face <11|.|11> = 1, which pins C_00 at
        # 1. The barrier solves took 40 Newton steps in all without the
        # presolve and the face finish; with them they take none.
        spec = channel_zonoid()
        total = 0
        for d in main_branch_diagonals(2, 10, 0.5, np.linspace(4.0, 1.0, 11)):
            rep = membership(np.diag(d).astype(complex), spec)
            assert rep.feasible
            total += rep.iterations
        assert total < 10

    def test_instrument_box_images_need_few_iterations(self):
        # Box images, interior or pinned to a face of the box, take a few
        # Newton steps each, however ill-conditioned L is.
        spec = instrument_zonoid()
        gram = _gram(spec)
        r = np.random.default_rng(2024)
        total = 0
        for pin in [False] * 20 + [True] * 20:
            z = np.einsum("mn,mnac->ac", _random_box(spec, r, pin), gram)
            rep = membership(0.5 * (z + z.conj().T), spec)
            assert rep.feasible
            total += rep.iterations
        assert total < 50

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
        # of the zonoid; the barrier solve reaches it like any other.
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
        assert total < 300

    @pytest.mark.parametrize("s", [15.0, 12.0])
    def test_four_party_limit_path_needs_no_face(self, s):
        # The barrier solve answers s = 15 in a few Newton steps; the
        # slice point nearest the box centre answers s = 12 exactly.
        rep = membership(_limit_point(4, s), _multiplier_spec(4))
        assert rep.feasible
        if s == 15.0:
            assert rep.stop in ("interior", "face")
            assert rep.phase == "barrier" and rep.iterations < 100
        else:
            assert (rep.stop, rep.phase, rep.iterations) == \
                ("affine", "candidate", 0)

    def test_phase_and_face_direction_are_reported(self):
        # The phase says which problem answered; no face is solved apart,
        # so a report carries no face direction.
        spec = channel_zonoid()
        for target, phase in [(np.eye(4), "candidate"),
                              (_limit_point(2, 2.5), "candidate"),
                              (_limit_point(2, 1.2), "barrier"),
                              (np.diag([0.9, 0.9, 1.0, 1.0 + 1e-6]),
                               "barrier")]:
            rep = membership(np.asarray(target, dtype=complex), spec)
            assert rep.phase == phase
        z = diagonal_stack(main_branch_path(2, 100, 0.5).diagonals[91])
        rep = membership(z, spec, tol=1e-9)
        assert rep.feasible and (rep.phase, rep.stop) == ("barrier", "face")
        assert "face_x" not in {f.name for f in
                                dataclasses.fields(zonoid.MembershipReport)}
        assert zonoid.MembershipReport(True, None, 0.0, 0).phase == ""

    def test_face_that_pins_every_coefficient(self):
        # On the unit square, diag(1, 1) lies on the face <0|.|0> = 1 and
        # on <1|.|1> = 1, which together fix C: the slice meets the box in
        # the one point I. The identity candidate answers it exactly. The
        # barrier solve alone reaches I up to its face stop, a residual of
        # 0.005 tol: here L(C) = diag(C), and 0 <= C <= I bounds |C_01| by
        # the diagonal defects, so every entry of C - I is within it.
        z = np.eye(2, dtype=complex)
        rep = membership(z, square_spec(), tol=1e-9)
        assert rep.feasible and (rep.phase, rep.stop) == ("candidate",
                                                          "identity")
        assert rep.iterations == 0
        np.testing.assert_allclose(rep.witness.matrix, np.eye(2), atol=1e-15)
        rep = _barrier_only(square_spec(), z, 1e-9)
        assert rep.feasible and (rep.phase, rep.stop) == ("barrier", "face")
        np.testing.assert_allclose(rep.witness.matrix, np.eye(2), rtol=0.0,
                                   atol=0.005 * 1e-9)

    def test_iteration_cap_counts_face_iterations(self, monkeypatch):
        # This breakpoint lies on the face <11|.|11> = 1; the cap counts
        # the Newton steps of the presolve and the barrier together, and a
        # capped solve that has not yet reproduced z is undecided.
        z = diagonal_stack(main_branch_path(2, 100, 0.5).diagonals[133])
        full = membership(z, channel_zonoid(), tol=1e-9)
        assert full.feasible and (full.phase, full.stop) == ("barrier",
                                                               "face")
        monkeypatch.setattr(zonoid, "MEMBERSHIP_MAX_ITER",
                            full.iterations // 2)
        rep = membership(z, channel_zonoid(), tol=1e-9)
        assert rep.iterations == full.iterations // 2
        assert (rep.phase, rep.stop, rep.feasible) == ("barrier",
                                                       "undecided", False)
        assert rep.separating is None and rep.gap is None

    def test_witness_matrix_cannot_be_replaced_or_written(self):
        rep = membership(_limit_point(2, 2.5), channel_zonoid())
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
        boxes = solver.in_box(cs)
        assert boxes.dtype == bool and not boxes.all() and boxes.any()
        for c, image, box in zip(cs, images, boxes):
            np.testing.assert_array_equal(image, solver.image(c))
            assert solver.in_box(c) == box

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


class TestInputRule:
    """membership, support_function and separation_gap refuse the same
    inputs, in the same order, each naming itself."""

    ENTRY_POINTS = {
        "membership": membership,
        "support_function": support_function,
        "separation_gap": separation_gap,
    }

    @pytest.mark.parametrize("caller", list(ENTRY_POINTS))
    @pytest.mark.parametrize("z, message", [
        (np.eye(5), "expects a 4 x 4 operator, got shape"),
        (np.eye(3), "expects a 4 x 4 operator, got shape"),
        (np.eye(4)[:, :3], "expects a 4 x 4 operator, got shape"),
        (np.diag([np.inf, 1.0, 1.0, 1.0]), "expects a finite operator"),
        (np.full((4, 4), np.nan), "expects a finite operator"),
        (np.diag([1e160, 0.0, 0.0, 0.0]), "expects a finite operator"),
        (np.triu(np.ones((4, 4))), "expects a Hermitian operator"),
    ])
    def test_bad_input_is_refused(self, caller, z, message):
        with pytest.raises(ValueError, match=f"^{caller} {message}"):
            self.ENTRY_POINTS[caller](z, channel_zonoid())


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

    @pytest.mark.parametrize("basis", ["channel", "instrument", 3, 4])
    def test_expansion_maps_match_least_squares(self, basis):
        # Random operators in the span of each block, fit through the
        # solver's expansion maps and by a least-squares solve per block:
        # the same block answers, and the two rank-one matrices agree to
        # the rounding a fit of condition number cond(B) allows.
        spec = (ZONOIDS[basis]() if basis in ZONOIDS
                else _multiplier_spec(basis))
        ops = spec.basis.operators
        rng = np.random.default_rng(37)
        eps = np.finfo(float).eps
        for b, blk in enumerate(spec.block_list()):
            cond = np.linalg.cond(ops[list(blk)].reshape(len(blk), -1))
            for _ in range(20):
                w = (rng.standard_normal(len(blk))
                     + 1j * rng.standard_normal(len(blk)))
                k = np.einsum("m,mij->ij", w, ops[list(blk)])
                fits = []
                for other in spec.block_list():
                    bmat = ops[list(other)].reshape(len(other), -1).T
                    x, *_ = np.linalg.lstsq(bmat, k.reshape(-1), rcond=None)
                    fits.append((np.linalg.norm(bmat @ x - k.reshape(-1)),
                                 other, x))
                res, other, x = min(fits, key=lambda fit: fit[0])
                assert other == blk
                want = np.zeros(spec.kappa, dtype=complex)
                want[list(blk)] = x
                want = np.outer(want.conj(), want)
                got = endpoint_cmatrix(k, spec).matrix
                outside = np.ones(got.shape, dtype=bool)
                outside[np.ix_(blk, blk)] = False
                assert not got[outside].any()
                assert np.abs(got - want).max() <= \
                    8 * eps * cond * np.abs(want).max()


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
        z = _limit_point(2, 3.0)
        direction = np.diag([1.0, 0.5, 0.25, 2.0]).astype(complex)
        pairing = float(np.real(np.trace(direction @ z)))
        assert support_function(direction, spec) >= pairing - 1e-9


def _gram(spec):
    ops = spec.basis.operators
    return np.einsum("mba,nbc->mnac", ops.conj(), ops)


def _dense_map(spec):
    """L as the d^2 x m matrix on the m block-supported coefficients,
    built from ``_gram``, and the kappa x kappa mask of those."""
    mask = np.zeros((spec.kappa, spec.kappa), dtype=bool)
    for blk in spec.block_list():
        mask[np.ix_(blk, blk)] = True
    flat = _gram(spec).reshape(spec.kappa ** 2, spec.dim ** 2).T
    return flat[:, mask.reshape(-1)], mask


def _k_reduced_witness_residual(c, z):
    """||L(C) - z|| with L rebuilt from K_REDUCED, after checking that C is
    Hermitian with its eigenvalues in [0, 1] to 1e-12."""
    k = twoqubit.K_REDUCED
    np.testing.assert_array_equal(c, c.conj().T)
    w = np.linalg.eigvalsh(c)
    assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12
    image = np.einsum("mn,mba,nbc->ac", c, k.conj(), k)
    return float(np.linalg.norm(image - z))


def _barrier_only(spec, z, tol):
    """The barrier solve of ``spec``'s solver on z, run whatever the
    candidates would have answered."""
    s = spec.solver()
    zvec = s.target(z)
    return s._barrier(z, zvec, *s.points(zvec), tol,
                      zonoid.MEMBERSHIP_MAX_ITER)


def _hermitian_units(mask, real):
    """The orthonormal Hermitian units supported on ``mask``, stacked: E_ii,
    (E_ij + E_ji)/√2 and, unless ``real``, i (E_ij - E_ji)/√2, i < j."""
    units = []
    for i, j in zip(*np.nonzero(np.triu(mask))):
        for phase in ((1.0,) if i == j else (1.0, 1j)[:1 + (not real)]):
            u = np.zeros(mask.shape, dtype=complex)
            u[i, j] = phase
            u[j, i] = np.conj(phase)
            units.append(u / np.linalg.norm(u))
    return np.array(units)


def _multiplier_spec(parties):
    """Zonoid of the P-party limit multiplier S over its diagonal Kraus
    operators from :func:`multiplier_kraus`."""
    return ZonoidSpec(multiplier_kraus(pqubit_coefficients(parties),
                                       (2,) * parties))


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
        assert rep.phase in ("candidate", "barrier")
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
    # a^+ z comes from the dense map, the offset from the solver's slice.
    spec = BASES[name]()
    s = spec.solver()
    a, mask = _dense_map(spec)
    z = np.einsum("mn,mnac->ac", _random_box(
        spec, np.random.default_rng(seed), pin), _gram(spec))
    z = 0.5 * (z + z.conj().T)
    zvec = z.reshape(-1)
    pinv = np.linalg.pinv(a, rcond=1e-13)
    c0 = pinv @ zvec
    centre = c0 + s.constraints(s.points(s.target(z))[0])[3]
    kernel = np.eye(a.shape[1]) - pinv @ a
    half = 0.5 * np.eye(spec.kappa)[mask]
    np.testing.assert_allclose(kernel @ (centre - half), 0.0, rtol=0.0,
                               atol=1e-12)
    np.testing.assert_allclose(a @ centre, zvec, rtol=0.0, atol=1e-12)
    # The solver's own candidates are masked and exactly Hermitian, the
    # precondition of its one-eigvalsh box test, which then answers as the
    # stacked test does.
    for c in (s.ident, *s.points(s.target(z))[1:]):
        c = s.to_matrix(c)
        assert np.all(c[~mask] == 0.0)
        np.testing.assert_array_equal(c, c.conj().T)
        assert s.in_box(c) == s.in_box(c[None])[0]
    rep = membership(z, spec)
    assert rep.feasible
    if rep.phase != "candidate":
        return
    w = rep.witness.matrix
    assert np.all(w[~mask] == 0.0)
    for blk in spec.block_list():
        eig = np.linalg.eigvalsh(w[np.ix_(blk, blk)])
        assert eig[0] >= -ROUNDING_TOL and eig[-1] <= 1.0 + ROUNDING_TOL
    ops = spec.basis.operators
    image = np.einsum("mn,mba,nbc->ac", w, ops.conj(), ops)
    assert np.linalg.norm(image - z) <= 1e-12
    if rep.stop == "affine":
        assert any(np.allclose(w[mask], c, rtol=0.0, atol=1e-14)
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
    """An independent membership verdict on kappa x kappa matrices: the
    identity and a^+ z as candidates, then accelerated projected gradient
    (FISTA with restarts) on half the squared residual over the box, with
    einsum image and adjoint and one eigh per block."""
    s = spec.solver()
    gram, kappa = _gram(spec), spec.kappa
    a, mask = _dense_map(spec)

    def image(c):
        return np.einsum("mn,mnac->ac", c, gram)

    def adjoint(x):
        return np.where(mask, np.einsum("mnac,ac->mn", gram.conj(), x), 0.0)

    def residual(c):
        return float(np.linalg.norm(image(c) - z))

    def box(c):
        return _block_box(s.grids, kappa, c)

    c0 = np.zeros((kappa, kappa), dtype=complex)
    c0[mask] = np.linalg.pinv(a, rcond=1e-13) @ z.reshape(-1)
    if residual(np.where(mask, np.eye(kappa), 0.0)) <= ROUNDING_TOL:
        return True
    if s.in_box(c0) and residual(c0) <= ROUNDING_TOL:
        return True
    step = 1.0 / np.linalg.svd(a, compute_uv=False)[0] ** 2
    c = y = best = box(c0)
    t, best_res, last_improve = 1.0, residual(c), 0
    for it in range(10000):
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


def _loop_canonical(d):
    """The canonical Hermitian basis, one entry at a time: the diagonal
    units, then the real and imaginary pair of each i < j."""
    r = 1.0 / np.sqrt(2.0)
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    k = d
    for i in range(d):
        for j in range(i + 1, d):
            basis[k, i, j] = basis[k, j, i] = r
            basis[k + 1, i, j] = -1j * r
            basis[k + 1, j, i] = 1j * r
            k += 2
    return basis


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
        # The box test of the whole masked matrix against each block's own
        # spectrum.
        inside = all(
            -ROUNDING_TOL <= w[0] and w[-1] <= 1.0 + ROUNDING_TOL
            for w in (np.linalg.eigvalsh(c[grid]) for grid in s.grids))
        assert s.in_box(c) == inside
        assert s.in_box(np.stack([c, c])).tolist() == [inside] * 2

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("n", [0, 1, 500])
    def test_directions_are_the_per_direction_stream(self, d, n):
        xs = _directions(d, n, 17)
        np.testing.assert_array_equal(xs[:d * d], _loop_canonical(d))
        np.testing.assert_array_equal(xs[d * d:], _old_directions(d, n, 17))
        longer = _directions(d, n + 7, 17)
        np.testing.assert_array_equal(longer[:len(xs)], xs)

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_normal_is_the_kernel_projector(self, name):
        # C -> C - sum_j <G_j, C> G_j, over the Hermitian C of either route
        # (real symmetric on the real one), is the orthogonal projector
        # onto the kernel of L, the one the dense map gives; the slice's
        # centre offset applies it to I/2.
        spec = BASES[name]()
        s = spec.solver()
        a, _ = _dense_map(spec)
        kernel = np.eye(a.shape[1]) - np.linalg.pinv(a, rcond=1e-13) @ a
        for real in (False, True):
            g, _, _, half = s.constraints(real)
            units = _hermitian_units(s.mask, real)[:, s.mask]
            gm = g[:, s.mask]
            n = units - (gm.conj() @ units.T).real.T @ gm
            p = (units.conj() @ n.T).real
            np.testing.assert_allclose(p, p.T, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(p @ p, p, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(s.a @ n.T, 0.0, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(a @ n.T, 0.0, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(n.T, kernel @ units.T, rtol=0.0,
                                       atol=1e-12)
            np.testing.assert_allclose(
                half, kernel @ (0.5 * np.eye(spec.kappa)[s.mask]),
                rtol=0.0, atol=1e-12)

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
        # A breakpoint whose presolve takes Newton steps; the face finish
        # answers the limit point at s = 1.2 before any.
        ("face", diagonal_stack(main_branch_path(2, 100, 0.5).diagonals[133])),
        # Certified by the box projection of a^+ z, before any step.
        ("outside", np.diag([0.36, 0.42, 1.0, 0.7])),
        # Outside by about 1e-6; certified after some centrings.
        ("outside", np.diag([0.9, 0.9, 1.0, 1.0 + 1e-6])),
        ("outside", np.diag([0.9, 0.9, 1.0, 1.01])),
        ("interior", np.diag([0.44, 0.95, 0.5, 0.43])),
    ])
    def test_each_stop_rule_is_reported(self, stop, target):
        z = np.asarray(target, dtype=complex)
        rep = membership(z, channel_zonoid())
        assert rep.stop == stop
        assert (rep.phase == "candidate") == (stop in ("identity", "affine"))
        if stop in ("identity", "affine"):
            assert rep.iterations == 0
        if stop in ("face", "interior"):
            assert rep.iterations > 0
        assert rep.feasible == (stop not in ("outside", "undecided"))
        _check_certificate(rep, z, channel_zonoid())

    def test_iteration_cap_is_reported(self, monkeypatch):
        # The last breakpoint of the 100-round main branch is answered
        # after 18 Newton steps uncapped; capped at 2, it is undecided and
        # claims no certificate.
        z = diagonal_stack(main_branch_path(2, 100, 0.5).diagonals[199])
        assert membership(z, channel_zonoid()).iterations == 18
        monkeypatch.setattr(zonoid, "MEMBERSHIP_MAX_ITER", 2)
        rep = membership(z, channel_zonoid())
        assert (rep.stop, rep.feasible) == ("undecided", False)
        assert rep.iterations == 2
        assert rep.separating is None and rep.gap is None

    def test_capped_outside_point_is_certified_at_its_witness(
            self, monkeypatch):
        # The box projection of a^+ z certifies 1.5 I before any Newton
        # step, so even a cap of 0 steps answers it.
        monkeypatch.setattr(zonoid, "MEMBERSHIP_MAX_ITER", 0)
        z = 1.5 * np.eye(4, dtype=complex)
        rep = membership(z, channel_zonoid())
        assert (rep.stop, rep.iterations) == ("outside", 0)
        _check_certificate(rep, z, channel_zonoid())

    def test_outside_answers_carry_their_direction(self):
        # Off the diagonal span of the square basis: answered before any
        # Newton step, with the normalised off-diagonal part as direction.
        z = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        rep = membership(z, square_spec())
        assert (rep.stop, rep.phase, rep.iterations) == ("outside", "span", 0)
        assert rep.gap == pytest.approx(np.sqrt(2.0) * 0.3, abs=1e-12)
        np.testing.assert_allclose(
            rep.separating, np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0),
            rtol=0.0, atol=1e-15)
        # In the span, certified by the barrier's multipliers after a
        # centring.
        z = np.diag([0.9, 0.9, 1.0, 1.01]).astype(complex)
        rep = membership(z, channel_zonoid())
        assert (rep.stop, rep.phase) == ("outside", "barrier")
        assert rep.iterations > 0
        _check_certificate(rep, z, channel_zonoid())
        # Certified by the box projection of a^+ z, before any step.
        z = 1.5 * np.eye(4, dtype=complex)
        rep = membership(z, channel_zonoid())
        assert (rep.stop, rep.phase, rep.iterations) == \
            ("outside", "barrier", 0)
        _check_certificate(rep, z, channel_zonoid())


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
        # the candidate, or bitwise the presolve's answer or else the
        # barrier solve from a^+ z and the slice point nearest the box
        # centre.
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
        # a^+ z from the rows of the dense map that L reaches, and a zero
        # row for the rest of z, which a^+ ignores.
        a, _ = _dense_map(spec)
        on = np.flatnonzero(np.abs(a).sum(axis=1))
        a = np.vstack([a[on], np.zeros(a.shape[1])])
        c0 = np.linalg.pinv(a, rcond=1e-13) @ np.append(
            z.reshape(-1)[on], 0)
        s = spec.solver()
        real, near, centre = s.points(s.target(z))
        np.testing.assert_allclose(near, c0, rtol=0.0, atol=1e-14)
        zvec = np.append(z.reshape(-1)[on], 0)
        ref, spent = s._presolve(z, zvec, real, c0, MEMBERSHIP_TOL,
                                 zonoid.MEMBERSHIP_MAX_ITER)
        if ref is None:
            ref = s._barrier(z, zvec, real, c0, centre, MEMBERSHIP_TOL,
                             zonoid.MEMBERSHIP_MAX_ITER - spent)
            ref.iterations += spent
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


@pytest.mark.parametrize("tol", [1e-9, 1e-7])
@pytest.mark.parametrize("seed", [1, 11])
def test_rounding_guard_certifies_a_near_push(seed, tol):
    # 1.1 tol outside a face, the barrier loses its slacks to rounding
    # before its multiplier direction clears tol. The clipped iterate's
    # residual, tested as the box projection of c0 is, still separates z.
    spec = channel_zonoid()
    x = np.diag(np.random.default_rng(seed).standard_normal(
        spec.dim)).astype(complex)
    x /= np.linalg.norm(x)
    z = np.einsum("mn,mnac->ac", _support_maximiser(spec, x),
                  _gram(spec)) + 1.1 * tol * x
    rep = membership(z, spec, tol=tol)
    assert (rep.phase, rep.stop) == ("barrier", "outside")
    assert rep.iterations > 0
    gap = float(np.real(np.vdot(rep.separating, z))) - support_function(
        rep.separating, spec)
    assert gap > tol and abs(gap - rep.gap) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e-1))
def test_in_span_push_is_certified_by_the_descent(seed, margin):
    # In the span, so the barrier solve answers, with a certificate.
    spec = channel_zonoid()
    z = _diagonal_push(spec, np.random.default_rng(seed), margin)
    rep = membership(z, spec)
    assert not rep.feasible
    assert (rep.phase, rep.stop) == ("barrier", "outside")
    _check_certificate(rep, z, spec)


@pytest.mark.parametrize("name", sorted(ZONOIDS))
def test_descent_checkpoint_certifies_in_span_pushes(name):
    # Every in-span push is certified: by the box projection of a^+ z
    # before any step, or by the barrier's multipliers after a centring,
    # within 20 Newton steps.
    spec = ZONOIDS[name]()
    stepped = 0
    for seed in range(12):
        r = np.random.default_rng(seed)
        z = _diagonal_push(spec, r, float(r.uniform(1e-3, 1e-1)))
        rep = membership(z, spec)
        assert not rep.feasible and rep.phase == "barrier"
        assert rep.stop == "outside"
        _check_certificate(rep, z, spec)
        assert rep.iterations <= 20
        stepped += rep.iterations > 0
    # 1 (channel) and 2 (instrument) of these 12 need Newton steps.
    assert stepped >= 1


# The built-in bases and the P-party multipliers, P = 2..5: diagonal
# bases but one, ``interval``, whose map reaches every entry.
ENTRY_SPECS = dict(BASES, **{f"multiplier-{p}":
                             functools.partial(_multiplier_spec, p)
                             for p in range(2, 6)})


CONTRACT_SPECS = dict(ENTRY_SPECS, **{
    "multiplier-6": functools.partial(_multiplier_spec, 6)})


@pytest.mark.parametrize("name", sorted(CONTRACT_SPECS))
def test_every_witness_is_a_checked_coefficient_matrix(name):
    # The solver wraps its witnesses without CoefficientMatrix's input
    # check, so each must already be what that check would keep: frozen,
    # read-only, zero off the block mask, exactly Hermitian and bitwise
    # CoefficientMatrix of itself. The identity and box images reach the
    # candidates, a box image pushed off the diagonal the span answer of a
    # diagonal basis, and 1.5 I, outside every one of these zonoids, the
    # barrier.
    spec = CONTRACT_SPECS[name]()
    ops, eye = spec.basis.operators, np.eye(spec.dim)
    mask = spec.solver().mask
    push = np.zeros((spec.dim, spec.dim))
    push[0, 1] = push[1, 0] = 0.01
    targets = [eye, 1.5 * eye]
    for seed in range(4):
        r = np.random.default_rng(seed)
        for pin in (False, True):
            y = np.einsum("mn,mba,nbc->ac", _random_box(spec, r, pin),
                          ops.conj(), ops, optimize=True)
            targets += [y, y + push]
    phases = set()
    for z in targets:
        rep = membership(0.5 * (z + z.conj().T), spec)
        phases.add(rep.phase)
        c = rep.witness
        assert type(c) is CoefficientMatrix
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.matrix = c.matrix.copy()
        w = c.matrix
        assert w.dtype == np.complex128 and not w.flags.writeable
        assert np.all(w[~mask] == 0.0)
        np.testing.assert_array_equal(w, 0.5 * (w + w.conj().T))
        assert CoefficientMatrix(w).matrix.tobytes() == w.tobytes()
    # ``interval``'s Gram operators span every 2 x 2 operator.
    assert phases == ({"candidate", "barrier"} if name == "interval"
                      else {"candidate", "span", "barrier"}), phases


def _dense_overlaps(spec, xs):
    """A[p, m] = Tr(x K_m^dag K_p) of each direction of ``xs``."""
    return np.einsum("kab,mpba->kpm", xs, _gram(spec))


class TestEntryMap:
    @pytest.mark.parametrize("name", sorted(ENTRY_SPECS))
    def test_image_and_support_match_the_dense_map(self, name):
        spec = ENTRY_SPECS[name]()
        s = spec.solver()
        r = np.random.default_rng(11)
        g = r.standard_normal((2, spec.kappa, spec.kappa))
        # Box points, and a Hermitian C off the blocks as well.
        cs = np.stack([_random_box(spec, r, pin) for pin in (0, 1) * 3]
                      + [g[0] + g[0].T + 1j * (g[1] - g[1].T)])
        np.testing.assert_allclose(
            s.image(cs), np.einsum("smn,mnac->sac", cs, _gram(spec)),
            rtol=0.0, atol=1e-12)
        xs = _directions(spec.dim, 40, 3)
        xs = xs[r.choice(len(xs), min(len(xs), 80), replace=False)]
        dense = _dense_overlaps(spec, xs)
        np.testing.assert_allclose(s.overlap(xs[:, s.cols, s.rows]), dense,
                                   rtol=0.0, atol=1e-12)
        want = np.zeros(len(xs))
        for blk in spec.block_list():
            w = np.linalg.eigvalsh(dense[:, blk][:, :, blk])
            want += np.where(w > 0.0, w, 0.0).sum(axis=1)
        np.testing.assert_allclose(s.support(xs), want, rtol=0.0,
                                   atol=1e-12)

    # d <= 16, so the dense overlaps of all d^2 directions stay cheap.
    @pytest.mark.parametrize("name", sorted(set(ENTRY_SPECS)
                                            - {"multiplier-5"}))
    def test_canonical_directions_are_those_with_an_overlap(self, name):
        spec = ENTRY_SPECS[name]()
        s, d = spec.solver(), spec.dim
        every = _directions(d, 0, 0)
        assert every.tobytes() == _loop_canonical(d).tobytes()
        reaching = np.abs(_dense_overlaps(spec, every)).max(axis=(1, 2)) > 0
        # A direction has an overlap exactly when it lies on the reached
        # entries.
        reached = np.zeros((d, d), dtype=bool)
        reached[s.rows, s.cols] = True
        on_reached = ~((every != 0) & ~reached).any(axis=(1, 2))
        np.testing.assert_array_equal(reaching, on_reached)


def test_six_party_box_images_are_candidates():
    # The P = 6 map has five rounding singular directions. The slice drops
    # them, so the candidates answer interior box images exactly: a
    # minimum-norm point a^+ z with them kept carries their noise and
    # leaves every one of these to the barrier.
    spec = _multiplier_spec(6)
    ops = spec.basis.operators
    for seed in range(20):
        c = _random_box(spec, np.random.default_rng(seed), False)
        z = np.einsum("mn,mba,nbc->ac", c, ops.conj(), ops, optimize=True)
        rep = membership(0.5 * (z + z.conj().T), spec)
        assert (rep.feasible, rep.phase, rep.iterations) == \
            (True, "candidate", 0), seed
        assert _kraus_witness_residual(spec, rep.witness.matrix, z) \
            <= 1e-12, seed


def test_six_party_solver_is_small_and_fast():
    spec = _multiplier_spec(6)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        spec.solver()
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 32 * 2 ** 20


def _kraus_witness_residual(spec, w, z):
    """||L(W) - z|| with L rebuilt from the Kraus operators, after checking
    that W is Hermitian, block diagonal, with each block's spectrum in
    [0, 1] to 1e-12."""
    np.testing.assert_array_equal(w, w.conj().T)
    mask = np.zeros(w.shape, dtype=bool)
    for blk in spec.block_list():
        mask[np.ix_(blk, blk)] = True
        eig = np.linalg.eigvalsh(w[np.ix_(blk, blk)])
        assert eig[0] >= -1e-12 and eig[-1] <= 1.0 + 1e-12
    assert np.all(w[~mask] == 0.0)
    ops = spec.basis.operators
    image = np.einsum("mn,mba,nbc->ac", w, ops.conj(), ops, optimize=True)
    return float(np.linalg.norm(image - z))


def _random_real_spec(seed, n, shape):
    r = np.random.default_rng(seed)
    ops = r.standard_normal((n,) + shape)
    return ZonoidSpec(kraus_from_operators(
        list(ops.astype(complex)), PartyDims((shape[1],)),
        PartyDims((shape[0],)))), r


class TestBoundaryPoints:
    """Boundary points of the zonoid, each answered by the barrier solve."""

    @pytest.mark.parametrize("parties,kappa", [(4, 14), (5, 22), (6, 32)])
    def test_limit_multiplier_bases_are_independent(self, parties, kappa):
        # The cut at 1e-12 of the largest eigenvalue drops the kernel of
        # the limit multiplier however eigh rounds it.
        spec = _multiplier_spec(parties)
        assert spec.kappa == kappa

    @pytest.mark.parametrize("parties,s", [(6, 63.9), (5, 31.99), (5, 31.5),
                                           (5, 30.0)])
    def test_limit_path_is_inside(self, parties, s):
        spec = _multiplier_spec(parties)
        z = _limit_point(parties, s)
        rep = membership(z, spec)
        assert rep.feasible and rep.phase == "barrier"
        assert _kraus_witness_residual(spec, rep.witness.matrix, z) \
            <= MEMBERSHIP_TOL

    @pytest.mark.parametrize("seed", [0, 1])
    def test_six_party_face_of_a_diagonal_direction_is_inside(self, seed):
        # The P = 6 limit multiplier's map has rank 59 on its 64 diagonal
        # entries. The barrier must drop its five rounding directions:
        # as constraints they are noise that moves the slice off the
        # witnesses of this face point.
        spec = _multiplier_spec(6)
        k = np.diagonal(spec.basis.operators, axis1=1, axis2=2)
        x = np.random.default_rng(seed).standard_normal(spec.dim)
        w, v = np.linalg.eigh(np.einsum("a,ma,pa->pm", x, k.conj(), k))
        p = v[:, w > 0.0] @ v[:, w > 0.0].conj().T
        z = np.diag(np.einsum("mn,ma,na->a", p, k.conj(), k).real)
        rep = membership(z, spec)
        assert rep.feasible and (rep.phase, rep.stop) == ("barrier", "face")
        assert _kraus_witness_residual(spec, rep.witness.matrix, z) \
            <= MEMBERSHIP_TOL

    @pytest.mark.parametrize("seed,n,shape", [(0, 20, (4, 8)),
                                              (1, 20, (4, 8)),
                                              (0, 24, (8, 8))])
    def test_face_of_a_random_direction_is_inside(self, seed, n, shape):
        # z = L(P), P the projector onto the positive eigenvectors of A(x)
        # for a random symmetric x: a box witness on the face that x
        # exposes, which no canonical direction exposes.
        spec, r = _random_real_spec(seed, n, shape)
        x = r.standard_normal((shape[1], shape[1]))
        p = _support_maximiser(spec, (x + x.T).astype(complex))
        z = np.einsum("mn,mnac->ac", p, _gram(spec))
        z = 0.5 * (z + z.conj().T)
        rep = membership(z, spec)
        assert rep.feasible and (rep.phase, rep.stop) == ("barrier", "face")
        assert _kraus_witness_residual(spec, rep.witness.matrix, z) \
            <= MEMBERSHIP_TOL

    def test_face_of_a_diagonal_unit_is_inside(self):
        # The first diagonal unit exposes a face on which C is pinned to
        # the projector onto the two positive eigenvectors of A(x) and to
        # 0 on the 22-dimensional kernel.
        spec, _ = _random_real_spec(0, 24, (2, 16))
        x = np.zeros((16, 16), dtype=complex)
        x[0, 0] = 1.0
        z = np.einsum("mn,mnac->ac", _support_maximiser(spec, x),
                      _gram(spec))
        z = 0.5 * (z + z.conj().T)
        rep = membership(z, spec)
        assert rep.feasible and (rep.phase, rep.stop) == ("barrier", "face")
        assert _kraus_witness_residual(spec, rep.witness.matrix, z) \
            <= MEMBERSHIP_TOL

    def test_uncertified_diagonal_point_is_certified_outside(self):
        z = np.diag([0.36, 0.42, 1.0, 0.7]).astype(complex)
        spec = channel_zonoid()
        rep = membership(z, spec)
        assert (rep.feasible, rep.stop) == (False, "outside")
        gap = float(np.real(np.vdot(rep.separating, z))) \
            - support_function(rep.separating, spec)
        assert gap > MEMBERSHIP_TOL and abs(gap - rep.gap) <= 1e-10
        _check_certificate(rep, z, spec)


def _breakpoint(n):
    """Kept breakpoint ``n`` of the 100-round main branch, c = 1/2."""
    return diagonal_stack(main_branch_path(2, 100, 0.5).diagonals[n])


def _rotated_channel():
    """The channel basis on an input turned by a Haar unitary V, and V:
    Gram operators V^H K_m^H K_n V, complex, so that a target V^H z V
    takes the complex route, with the slice's pins of the channel basis."""
    v = haar_unitary(4, np.random.default_rng(5))
    return ZonoidSpec(kraus_from_operators(
        list(twoqubit.K_REDUCED @ v), (2, 2))), v


def _without_finish(monkeypatch):
    monkeypatch.setattr(zonoid._MembershipSolver, "_finish",
                        lambda *args: None)


def _presolved(spec, z, tol):
    """The presolve's report on z, or None, and its Newton steps."""
    s = spec.solver()
    zvec = s.target(z)
    real, c0, _ = s.points(zvec)
    return s._presolve(z, zvec, real, c0, tol, zonoid.MEMBERSHIP_MAX_ITER)


class TestFacePresolveAndFinish:
    """Targets on faces that fix a coefficient C_ii, answered without it
    (the presolve), and barrier iterates finished on their face."""

    def test_pins_are_the_units_in_the_row_space(self):
        # K_0 alone reaches entry (3, 3), K_1 (2, 2) and K_2 (1, 1); all
        # four reach (0, 0), so C_33 is free.
        for real in (True, False):
            assert channel_zonoid().solver().pinned(real).tolist() == \
                [0, 1, 2]
        assert instrument_zonoid().solver().pinned(True).tolist() == [0]
        rotated, _ = _rotated_channel()
        assert not rotated.solver().real
        assert rotated.solver().pinned(False).tolist() == [0, 1, 2]

    def test_presolve_pinned_at_one(self):
        # z_33 = 1 pins C_00 at 1. The full route's candidates miss; those
        # of the solve without index 0 answer, with no Newton step.
        z = np.diag([0.85, 0.85, 1.0, 1.0]).astype(complex)
        spec = channel_zonoid()
        s = spec.solver()
        zvec = s.target(z)
        real, c0, centre = s.points(zvec)
        assert s._candidates(zvec, c0, centre, zvec - s.a @ c0,
                             ROUNDING_TOL) is None
        assert _barrier_only(spec, z, 1e-9).iterations > 0
        rep = membership(z, spec, tol=1e-9)
        assert (rep.feasible, rep.phase, rep.stop, rep.iterations) == \
            (True, "candidate", "affine", 0)
        w = rep.witness.matrix
        assert w[0, 0] == 1.0 and not w[0, 1:].any() and not w[1:, 0].any()
        assert _kraus_witness_residual(spec, w, z) <= ROUNDING_TOL
        assert s.reduced((1, 2, 3)) is s.reduced((1, 2, 3))

    def test_presolve_pinned_at_zero(self):
        # A breakpoint less K_0^dag K_0: z_33 = 0 pins C_00 at 0, and the
        # presolve answers on the face of the other three.
        z = _breakpoint(61)
        z[3, 3] = 0.0
        spec = channel_zonoid()
        rep = membership(z, spec, tol=1e-9)
        found, _ = _presolved(spec, z, 1e-9)
        assert found is not None
        assert (rep.feasible, rep.phase, rep.stop) == (True, "barrier",
                                                       "face")
        np.testing.assert_array_equal(rep.witness.matrix,
                                      found.witness.matrix)
        w = rep.witness.matrix
        assert not w[0].any() and not w[:, 0].any()
        assert _kraus_witness_residual(spec, w, z) <= 1e-9

    def test_blocked_presolve(self):
        # On the instrument basis C_00, a block of its own, is pinned at 1
        # on every breakpoint; the presolve's barrier answers.
        spec = instrument_zonoid()
        for n in (17, 22, 23):
            z = _breakpoint(n)
            rep = membership(z, spec, tol=1e-9)
            found, spent = _presolved(spec, z, 1e-9)
            assert found is not None and spent == rep.iterations
            assert (rep.feasible, rep.phase, rep.stop) == (True, "barrier",
                                                           "face")
            np.testing.assert_array_equal(rep.witness.matrix,
                                          found.witness.matrix)
            assert rep.witness.matrix[0, 0] == 1.0
            assert _kraus_witness_residual(spec, rep.witness.matrix, z) \
                <= 1e-9

    def test_complex_route_presolve(self):
        spec, v = _rotated_channel()
        for n in (41, 60, 133):
            z = v.conj().T @ _breakpoint(n) @ v
            z = 0.5 * (z + z.conj().T)
            s = spec.solver()
            assert not s.points(s.target(z))[0]
            rep = membership(z, spec, tol=1e-9)
            found, _ = _presolved(spec, z, 1e-9)
            assert found is not None
            assert (rep.feasible, rep.phase, rep.stop) == (True, "barrier",
                                                           "face")
            np.testing.assert_array_equal(rep.witness.matrix,
                                          found.witness.matrix)
            w = rep.witness.matrix
            assert w[0, 0] == 1.0 and not w[0, 1:].any()
            assert _kraus_witness_residual(spec, w, z) <= 1e-9

    def test_complex_route_finish(self, monkeypatch):
        # The barrier alone, from the centre, on rotated breakpoints: the
        # finish answers before any Newton step, where the iterate
        # clipped to the box needs several.
        spec, v = _rotated_channel()
        zs = [v.conj().T @ _breakpoint(n) @ v for n in (41, 50, 60)]
        zs = [0.5 * (z + z.conj().T) for z in zs]
        reps = [_barrier_only(spec, z, 1e-9) for z in zs]
        for z, rep in zip(zs, reps):
            assert (rep.feasible, rep.stop, rep.iterations) == (True, "face",
                                                                0)
            assert _kraus_witness_residual(spec, rep.witness.matrix, z) \
                <= 0.005 * 1e-9 + 1e-15
        _without_finish(monkeypatch)
        for z in zs:
            rep = _barrier_only(spec, z, 1e-9)
            assert rep.feasible and rep.iterations > 0

    def test_blocked_finish(self, monkeypatch):
        # C = 0 on a whole block of instrument_zonoid: the barrier alone
        # is finished on that face before any Newton step on most of
        # these, where the clipped iterate needs 8 to 12.
        spec = instrument_zonoid()
        gram = _gram(spec)
        r = np.random.default_rng(0)
        zs = []
        for zero in [(1, 2), (3, 4)] * 5:
            c = np.zeros((spec.kappa, spec.kappa), dtype=complex)
            for blk in spec.block_list():
                if blk != zero:
                    w = r.uniform(0.0, 1.0, len(blk))
                    u = haar_unitary(len(blk), r)
                    c[np.ix_(blk, blk)] = (u * w) @ u.conj().T
            z = np.einsum("mn,mnac->ac", c, gram)
            zs.append(0.5 * (z + z.conj().T))
        reps = [_barrier_only(spec, z, 1e-9) for z in zs]
        for z, rep in zip(zs, reps):
            assert rep.feasible and rep.stop == "face"
            assert _kraus_witness_residual(spec, rep.witness.matrix, z) \
                <= 1e-9
        assert sum(rep.iterations == 0 for rep in reps) >= 8
        _without_finish(monkeypatch)
        assert all(_barrier_only(spec, z, 1e-9).iterations > 0 for z in zs)

    @pytest.mark.parametrize("tol", [1e-9, 1e-7])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_push_off_a_pinned_face_stays_outside(self, seed, tol):
        # A support point of a diagonal x with x_33 = 0 has C_00 = 0, so
        # the presolve runs on z = y + 1.1 tol x, finds no witness and
        # falls back: the answer is the barrier's on the full basis, with
        # the presolve's steps counted and taken from the budget.
        spec = channel_zonoid()
        x = np.diag(np.append(np.random.default_rng(seed).standard_normal(3),
                              0.0)).astype(complex)
        x /= np.linalg.norm(x)
        z = np.einsum("mn,mnac->ac", _support_maximiser(spec, x),
                      _gram(spec)) + 1.1 * tol * x
        rep = membership(z, spec, tol=tol)
        assert rep.stop in ("outside", "undecided") and not rep.feasible
        found, spent = _presolved(spec, z, tol)
        assert found is None and spent > 0
        s = spec.solver()
        zvec = s.target(z)
        full = s._barrier(z, zvec, *s.points(zvec), tol,
                          zonoid.MEMBERSHIP_MAX_ITER - spent)
        assert (rep.stop, rep.iterations) == (full.stop,
                                              full.iterations + spent)
        np.testing.assert_array_equal(rep.witness.matrix, full.witness.matrix)
        np.testing.assert_array_equal(rep.separating, full.separating)
        assert rep.gap == full.gap
        if rep.stop == "outside":
            gap = float(np.real(np.vdot(rep.separating, z))) \
                - support_function(rep.separating, spec)
            assert gap > tol and abs(gap - rep.gap) <= 1e-12

    def test_every_kept_breakpoint_is_feasible_in_few_steps(self):
        # All 201 kept breakpoints at tol 1e-9. Without the presolve and
        # the finish the barrier took 2389 Newton steps; with them, 722.
        spec = channel_zonoid()
        zs = diagonal_stack(main_branch_path(2, 100, 0.5).diagonals)
        total = 0
        for n, z in enumerate(zs):
            rep = membership(z, spec, tol=1e-9)
            assert rep.feasible, n
            assert _kraus_witness_residual(spec, rep.witness.matrix, z) \
                <= 1e-9, n
            total += rep.iterations
        assert total < 1000


class TestDiagonalResiduals:
    """||L(C) - diag v|| on the reached entries, plus the unreached ones."""

    @pytest.mark.parametrize("make", [
        channel_zonoid, instrument_zonoid, square_spec, interval_spec,
        # Entry (2, 2) is reached by no operator.
        lambda: ZonoidSpec(kraus_from_operators(
            [np.diag([1.0, 0.0, 0.0]).astype(complex),
             np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)],
            PartyDims((3,)))),
    ])
    def test_equal_the_dense_residuals(self, rng, make):
        spec = make()
        s = spec.solver()
        k = spec.kappa
        g = (rng.standard_normal((6, k, k))
             + 1j * rng.standard_normal((6, k, k)))
        cs = g + g.conj().swapaxes(1, 2)
        v = rng.uniform(-1.0, 1.0, (6, spec.dim))
        want = np.linalg.norm(s.image(cs) - diagonal_stack(v), axis=(1, 2))
        np.testing.assert_allclose(s.diagonal_residuals(cs, v), want,
                                   rtol=1e-14, atol=0.0)
        assert s.diagonal_residuals(cs[0], v[0]) == pytest.approx(
            want[0], rel=1e-14)
