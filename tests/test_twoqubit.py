"""Tests for the worked two-qubit instrument and its limiting channel."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccverify import (
    blocked_isometry_check,
    channel_from_leaf_povm,
    channel_zonoid,
    choi,
    choi_distance,
    coarse_grain_check,
    concurrence,
    continuous_isometry_check,
    instrument_zonoid,
    isometric_relation,
    kraus_from_operators,
    kraus_rank,
    limiting_choi_2q,
    minimal_kraus,
    multiplier_distance,
    pqubit_coefficients,
    prelimit_channel,
    prelimit_coefficients,
    protocol_leaf_diagonals,
    two_qubit_instrument,
    trace_norm,
    wstate_analysis,
    ZonoidSpec,
)
from loccverify import twoqubit, zonoid_spec_for_channel
from loccverify.linalg import diagonal_stack, integrate_sqrt_smooth
from loccverify.pqubit import multiplier_choi_matrix
from loccverify.protocols import derivative_diagonals
from loccverify.tolerances import (COARSE_GRAIN_TOL, ISOMETRY_TOL,
                                   QUAD_NODES)
from loccverify.twoqubit import K_GROUPED, K_REDUCED, W_GROUPING
from loccverify.zonoid import CoefficientMatrix, _directions

from conftest import (apply_branches, apply_kraus, loop_sqrt_smooth,
                      random_density, stacked)


def ket(*bits):
    v = np.zeros(2 ** len(bits), dtype=complex)
    idx = 0
    for b in bits:
        idx = 2 * idx + b
    v[idx] = 1.0
    return v


class TestInstrumentDefinition:
    def test_partition(self):
        inst = two_qubit_instrument().instrument
        assert inst.partition == ((0,), (1, 2), (3, 4))
        assert inst.kraus.operators.shape == (5, 4, 4)

    def test_grouped_operators_are_diagonal(self):
        ops = two_qubit_instrument().instrument.kraus.operators
        for op in ops:
            np.testing.assert_allclose(op, np.diag(np.diagonal(op)),
                                       atol=1e-15)

    def test_trace_preserving(self):
        ops = two_qubit_instrument().instrument.kraus.operators
        s = np.einsum("mij,mik->jk", ops.conj(), ops)
        np.testing.assert_allclose(s, np.eye(4), atol=1e-12)

    def test_branch_action_on_basis_states(self, rng):
        # frozen by hand: the second branch halves |00> and keeps |10>
        inst = two_qubit_instrument().instrument
        out00 = apply_branches(inst, np.outer(ket(0, 0), ket(0, 0)))
        np.testing.assert_allclose(out00[1],
                                   0.5 * np.outer(ket(0, 0), ket(0, 0)),
                                   atol=1e-12)
        out10 = apply_branches(inst, np.outer(ket(1, 0), ket(1, 0)))
        np.testing.assert_allclose(out10[1],
                                   np.outer(ket(1, 0), ket(1, 0)), atol=1e-12)
        # and the first branch fires only on |11>
        out11 = apply_branches(inst, np.outer(ket(1, 1), ket(1, 1)))
        assert np.trace(out11[0]).real == pytest.approx(1.0)
        assert np.trace(out00[0]).real == pytest.approx(0.0, abs=1e-14)

    def test_branch_probabilities_sum(self, rng):
        inst = two_qubit_instrument().instrument
        rho = random_density(4, rng)
        probs = [np.trace(b).real for b in apply_branches(inst, rho)]
        assert sum(probs) == pytest.approx(1.0)


class TestSharedSpecs:
    """The built-in zonoids are built once and shared read-only."""

    @pytest.mark.parametrize("build", [channel_zonoid, instrument_zonoid])
    def test_one_spec_per_process(self, build):
        spec = build()
        assert build() is spec
        assert spec.solver() is build().solver()

    @pytest.mark.parametrize("build", [channel_zonoid, instrument_zonoid])
    def test_fields_cannot_be_rebound(self, build):
        spec = build()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.blocks = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.basis = spec.basis
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.basis.operators = spec.basis.operators.copy()

    @pytest.mark.parametrize("build", [channel_zonoid, instrument_zonoid])
    def test_shared_arrays_are_read_only(self, build):
        spec = build()
        with pytest.raises(ValueError, match="read-only"):
            spec.basis.operators[0, 0, 0] = 2.0
        for cols, pinv in spec.solver().expansions():
            with pytest.raises(ValueError, match="read-only"):
                pinv[0, 0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                cols[0, 0] = 2.0

    @pytest.mark.parametrize("name", ["K_GROUPED", "K_REDUCED", "W_GROUPING"])
    def test_module_constants_are_read_only(self, name):
        constant = getattr(twoqubit, name)
        before = constant.copy()
        with pytest.raises(ValueError, match="read-only"):
            constant[0] *= 2.0
        assert np.array_equal(constant, before)

    def test_kraus_set_keeps_the_callers_flag(self):
        # A KrausSet holds a complex stack it is given as it is; only the
        # builders of the shared specs make their own arrays read-only.
        ops = K_REDUCED.copy()
        kraus = twoqubit.KrausSet(ops, (2, 2), (2, 2))
        assert kraus.operators is ops and ops.flags.writeable
        assert not twoqubit.KrausSet(K_REDUCED, (2, 2),
                                     (2, 2)).operators.flags.writeable
        channel_zonoid(), instrument_zonoid()
        fresh = two_qubit_instrument().instrument.kraus.operators
        assert fresh.flags.writeable

    def test_equality_and_hash_are_identity(self):
        # Comparing the operator arrays would raise, as an array has no
        # truth value; specs, sets and coefficient matrices compare as
        # objects instead, and hash as objects.
        spec = channel_zonoid()
        twin = ZonoidSpec(kraus_from_operators(list(K_REDUCED), (2, 2)))
        assert (spec == twin) is False and spec != twin
        assert (spec.basis == twin.basis) is False
        assert spec == spec and spec.basis == spec.basis
        c = CoefficientMatrix(np.eye(4))
        assert (c == CoefficientMatrix(np.eye(4))) is False and c == c
        for obj in (spec, twin, spec.basis, c):
            assert hash(obj) == hash(obj)
        assert len({spec, twin, spec, spec.basis, twin.basis}) == 4


class TestGroupingIsometry:
    def test_rank_four(self):
        assert kraus_rank(two_qubit_instrument().instrument.kraus) == 4

    def test_reduced_set_gives_same_channel(self):
        ex = two_qubit_instrument()
        assert choi_distance(ex.instrument.kraus, ex.minimal) < 1e-12

    def test_grouping_matrix_relates_sets(self):
        np.testing.assert_allclose(
            np.einsum("mn,nij->mij", W_GROUPING, K_REDUCED), K_GROUPED,
            atol=1e-12)
        np.testing.assert_allclose(W_GROUPING.conj().T @ W_GROUPING,
                                   np.eye(4), atol=1e-12)

    def test_isometric_relation_recovers_grouping(self):
        ex = two_qubit_instrument()
        got = isometric_relation(ex.instrument.kraus, ex.minimal)
        assert got is not None
        np.testing.assert_allclose(got, W_GROUPING, atol=1e-10)
        row_res = np.abs(
            np.einsum("mn,nij->mij", got, K_REDUCED) - K_GROUPED
        ).max(axis=(1, 2))
        assert row_res.max() <= 1e-10

    def test_reduced_set_not_orthogonal(self):
        # the reduced operators share weight: their Gram matrix has an
        # off-diagonal 2/9 entry, so they are not a minimal decomposition
        # in the eigenvector sense even though they are independent
        flat = K_REDUCED.reshape(4, 16)
        gram = flat.conj() @ flat.T
        assert abs(gram[1, 3]) == pytest.approx(2.0 / 9.0, abs=1e-12)


class TestLimitingPovm:
    """The limit outcomes: the all-ones projector and the two-party
    derivative outcomes at sigma = sqrt(s) - 1."""

    def test_elements_psd_and_shapes(self):
        sigma = np.sqrt([1.0, 2.2, 4.0]) - 1.0
        halts = diagonal_stack(derivative_diagonals(2, sigma))
        assert halts.shape == (3, 2, 4, 4)
        for e in [np.diag([0.0, 0.0, 0.0, 1.0]), *halts.reshape(6, 4, 4)]:
            assert np.linalg.eigvalsh(e)[0] >= -1e-12

    def test_domain_validation(self):
        for sigma in (-0.3, 1.1, np.nan):
            with pytest.raises(ValueError):
                derivative_diagonals(2, [0.5, sigma])


class TestLimitingChoi:
    def test_frozen_entries(self):
        om = limiting_choi_2q().matrix
        assert np.trace(om) == pytest.approx(4.0)
        for i in (0, 5, 10, 15):
            assert om[i, i] == pytest.approx(1.0, abs=1e-9)
        assert om[0, 5] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert om[0, 10] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert om[5, 10] == pytest.approx(0.0, abs=1e-9)

    def test_matches_direct_kraus_choi(self):
        om = limiting_choi_2q()
        direct = choi(two_qubit_instrument().minimal, normalized=False)
        assert trace_norm(om.matrix - direct.matrix) <= 1e-8

    def test_psd(self):
        w = np.linalg.eigvalsh(limiting_choi_2q().matrix)
        assert w[0] >= -1e-10

    def test_matches_halt_continuum_quadrature(self):
        # Reference: the all-ones outcome plus the integrated rank-one halt
        # terms, each Kraus operator vectorized input-major.
        def ket(op):
            return op.T.reshape(16)

        def halt(x, which):
            d = [x, 0.0, 1.0, 0.0] if which == 2 else [x, 1.0, 0.0, 0.0]
            return np.diag(d).astype(complex)

        v1 = ket(np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))

        def halt_term(sigma):
            v2 = ket(halt(np.sqrt(sigma), 2))
            v3 = ket(halt(np.sqrt(sigma), 3))
            return np.outer(v2, v2.conj()) + np.outer(v3, v3.conj())

        want = np.outer(v1, v1.conj()) + integrate_sqrt_smooth(
            stacked(halt_term), nodes=QUAD_NODES)
        got = limiting_choi_2q()
        assert not got.normalized
        assert np.array_equal(got.matrix, want)


class TestIsometryIntegrals:
    def test_continuous_relation(self):
        rep = continuous_isometry_check()
        assert abs(rep.last_column_norm - 1.0) <= ISOMETRY_TOL
        assert abs(rep.cross_overlap) <= ISOMETRY_TOL
        assert rep.last_column_norm == pytest.approx(1.0, abs=1e-10)
        assert rep.cross_overlap == pytest.approx(0.0, abs=1e-10)

    def test_blocked_relation(self):
        rep = blocked_isometry_check()
        assert rep.max_row_residual <= ISOMETRY_TOL
        assert rep.coefficient_defect <= ISOMETRY_TOL
        assert rep.max_row_residual <= 1e-10
        assert rep.coefficient_defect <= 1e-10

    def test_blocked_relation_matches_per_sample_loop(self):
        rep = blocked_isometry_check()
        res, coef = _blocked_isometry_per_sample()
        assert abs(rep.max_row_residual - res) <= 1e-15
        assert abs(rep.coefficient_defect - coef) <= 1e-15

    def test_coarse_grain(self):
        rep = coarse_grain_check()
        assert rep.max_defect <= COARSE_GRAIN_TOL
        assert rep.max_defect <= 1e-9

    @pytest.mark.parametrize("nodes", [1, 8, 64])
    def test_coarse_grain_matches_per_unit_loop(self, nodes):
        got = coarse_grain_check(nodes=nodes).max_defect
        assert abs(got - _coarse_grain_per_unit(nodes)) <= 1e-15

    @pytest.mark.parametrize("nodes", [1, 8, QUAD_NODES, 64])
    def test_coarse_grain_reads_the_grouped_pairs_bitwise(self, nodes):
        # The defect from K_GROUPED's pairs (1, 2) and (3, 4) is bitwise
        # the one from the worked instrument's branches 1 and 2.
        branches = two_qubit_instrument().instrument
        want = []
        for r in (1, 2):
            k = branches.branch(r).operators.diagonal(axis1=1, axis2=2)
            want.append(np.einsum("ka,kd->ad", k, k.conj()))

        def integrand(sigma):
            kd = np.sqrt(derivative_diagonals(2, sigma)[:, ::-1])
            return np.einsum("nra,nrd->nrad", kd, kd)

        got = integrate_sqrt_smooth(integrand, nodes=nodes)
        worst = float(np.abs(got - np.stack(want)).max())
        assert coarse_grain_check(nodes=nodes).max_defect.hex() == \
            worst.hex()

    def test_coarse_grain_catches_a_scaled_branch_operator(self,
                                                           monkeypatch):
        scaled = K_GROUPED.copy()
        scaled[1] *= 1.01
        monkeypatch.setattr(twoqubit, "K_GROUPED", scaled)
        rep = coarse_grain_check()
        assert rep.max_defect > COARSE_GRAIN_TOL
        assert rep.max_defect == pytest.approx(_coarse_grain_per_unit(64),
                                               abs=1e-15)


def _blocked_isometry_per_sample():
    """Blocked isometry defects with one least-squares fit per sigma."""
    worst_res = worst_coef = 0.0
    for sigma in np.linspace(0.0, 1.0, 101):
        rt = np.sqrt(sigma)
        want = np.array([np.sqrt(3.0) * (2.0 * rt - 1.0),
                         np.sqrt(6.0) * (1.0 - rt)])
        for halt, block in (([rt, 0.0, 1.0, 0.0], (1, 2)),
                            ([rt, 1.0, 0.0, 0.0], (3, 4))):
            vec = np.diag(halt).astype(complex)
            a = K_GROUPED[list(block)].reshape(2, 16).T
            coef, *_ = np.linalg.lstsq(a, vec.reshape(16), rcond=None)
            recon = (a @ coef).reshape(4, 4)
            worst_res = max(worst_res, float(np.linalg.norm(recon - vec)))
            worst_coef = max(worst_coef, float(np.abs(coef - want).max()))
    return worst_res, worst_coef


def _coarse_grain_per_unit(nodes):
    """Coarse-grain defect with one node-by-node quadrature per matrix
    unit."""
    ex = two_qubit_instrument()
    worst = 0.0
    for i in range(4):
        for j in range(4):
            unit = np.zeros((4, 4), dtype=np.complex128)
            unit[i, j] = 1.0

            def integrand(sigma, unit=unit):
                rt = np.sqrt(sigma)
                k2 = np.diag([rt, 0.0, 1.0, 0.0])
                k3 = np.diag([rt, 1.0, 0.0, 0.0])
                return np.stack([k2 @ unit @ k2.conj().T,
                                 k3 @ unit @ k3.conj().T])

            got = loop_sqrt_smooth(integrand, 0.0, 1.0, nodes)
            for r, part in ((1, got[0]), (2, got[1])):
                want = sum(k @ unit @ k.conj().T
                           for k in ex.instrument.branch(r).operators)
                worst = max(worst, float(np.linalg.norm(part - want)))
    return worst


class TestConcurrence:
    def test_bell_state(self):
        phi = (ket(0, 0) + ket(1, 1)) / np.sqrt(2.0)
        assert concurrence(np.outer(phi, phi.conj())) == pytest.approx(1.0)

    def test_product_state(self):
        rho = np.outer(ket(0, 1), ket(0, 1))
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 0.6, 0.9])
    def test_werner_closed_form(self, p):
        phi = (ket(0, 0) + ket(1, 1)) / np.sqrt(2.0)
        rho = p * np.outer(phi, phi.conj()) + (1 - p) * np.eye(4) / 4.0
        expect = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence(rho) == pytest.approx(expect, abs=1e-10)

    def test_validates_input(self):
        with pytest.raises(ValueError):
            concurrence(np.eye(4))  # trace 4, not a state
        with pytest.raises(ValueError):
            concurrence(np.eye(2) / 2.0)


class TestWState:
    def test_report_numbers(self):
        rep = wstate_analysis()
        assert rep.k1_image_norm == pytest.approx(0.0, abs=1e-12)
        assert rep.probability == pytest.approx(0.5, abs=1e-10)
        assert rep.concurrence == pytest.approx(8.0 / 9.0, abs=1e-9)

    def test_pair_state_closed_form(self):
        rep = wstate_analysis()
        expect = np.zeros((4, 4), dtype=complex)
        expect[1, 1] = 1.0 / 3.0
        expect[2, 2] = 2.0 / 3.0
        expect[1, 2] = expect[2, 1] = 4.0 / 9.0
        np.testing.assert_allclose(rep.ac_state, expect, atol=1e-10)
        np.testing.assert_allclose(rep.bc_state, expect, atol=1e-10)

    def test_states_are_densities(self):
        rep = wstate_analysis()
        for rho in (rep.ac_state, rep.bc_state):
            assert np.trace(rho) == pytest.approx(1.0)
            assert np.linalg.eigvalsh(rho)[0] >= -1e-12


class TestPrelimit:
    def test_channel_is_trace_preserving(self, rng):
        k = prelimit_channel(25, 0.5)
        rho = random_density(4, rng)
        assert np.trace(apply_kraus(k.operators, rho)) == pytest.approx(1.0)

    @staticmethod
    def distance(rounds, exponent=0.5):
        return multiplier_distance(
            2, prelimit_coefficients(2, rounds, exponent),
            pqubit_coefficients(2))

    def test_choi_distance_decreases(self):
        vals = [self.distance(nu) for nu in (10, 100, 1000)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(st.sampled_from([1, 2, 100, 1000, 2000]),
                     st.integers(1, 3000)),
           st.floats(0.05, 0.95))
    def test_factorised_zonoid_matches_leaf_route(self, rounds, exponent):
        pre = prelimit_channel(rounds, exponent)
        assert pre.n_operators <= 4
        leaves = channel_from_leaf_povm(
            protocol_leaf_diagonals(2, rounds, exponent), (2, 2))
        xs = _directions(4, 300, 3)
        got = zonoid_spec_for_channel(pre).solver().support(xs)
        want = zonoid_spec_for_channel(leaves).solver().support(xs)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            choi(pre, normalized=False).matrix,
            multiplier_choi_matrix(
                prelimit_coefficients(2, rounds, exponent)),
            rtol=0.0, atol=1e-14)

    def test_small_round_count_is_far(self):
        assert self.distance(1) > 0.05
