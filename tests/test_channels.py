"""Tests for Kraus sets, Choi operators, and instrument embeddings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccverify import (
    Instrument,
    PartyDims,
    apply,
    channel_from_leaf_povm,
    choi,
    choi_distance,
    isometric_relation,
    kraus_from_operators,
    kraus_rank,
    minimal_kraus,
    qc_embed,
    trace_norm,
)

from conftest import haar_isometry, haar_unitary, random_channel, random_density

D2 = PartyDims((2,))
D22 = PartyDims((2, 2))

PAULIS = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.diag([1.0, -1.0]).astype(complex),
]


def identity_channel(dims=D2):
    return kraus_from_operators([np.eye(dims.total, dtype=complex)], dims)


def depolarizing(p: float):
    ops = [np.sqrt(1 - 3 * p / 4) * PAULIS[0]]
    ops += [np.sqrt(p / 4) * s for s in PAULIS[1:]]
    return kraus_from_operators(ops, D2)


class TestKrausSet:
    def test_shapes_and_dims(self, rng):
        k = random_channel(D22, 3, rng)
        assert k.operators.shape == (3, 4, 4)
        assert k.input_dim == 4
        assert k.output_dim == 4

    def test_trace_preserving_gate(self, rng):
        k = random_channel(D2, 2, rng)
        s = np.einsum("mij,mik->jk", k.operators.conj(), k.operators)
        np.testing.assert_allclose(s, np.eye(2), atol=1e-12)

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            kraus_from_operators(
                [np.eye(2, dtype=complex), np.eye(3, dtype=complex)], D2)


class TestChoi:
    def test_identity_channel_is_max_entangled(self):
        c = choi(identity_channel())
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(c.matrix, np.outer(phi, phi.conj()),
                                   atol=1e-12)
        assert np.trace(c.matrix) == pytest.approx(1.0)

    def test_vectorization_is_input_major(self):
        # K = |0><1| sends the input copy |1> to output |0>, so the only
        # Choi weight sits on |input=1, output=0>, flat index 2
        k = kraus_from_operators([np.array([[0, 1], [0, 0]], dtype=complex)],
                                 D2)
        c = choi(k, normalized=False)
        expect = np.zeros((4, 4))
        expect[2, 2] = 1.0
        np.testing.assert_allclose(c.matrix, expect, atol=1e-15)

    def test_unnormalized_trace_is_input_dim(self, rng):
        k = random_channel(D22, 2, rng)
        assert np.trace(choi(k, normalized=False).matrix) == pytest.approx(4.0)
        assert np.trace(choi(k).matrix) == pytest.approx(1.0)

    def test_choi_is_psd(self, rng):
        c = choi(random_channel(D22, 3, rng))
        assert np.linalg.eigvalsh(c.matrix)[0] >= -1e-12

    def test_shape_validation(self):
        from loccverify import ChoiOperator
        with pytest.raises(ValueError):
            ChoiOperator(np.eye(5, dtype=complex), 2, 2, True)


class TestRankAndMinimal:
    def test_unitary_rank_one(self, rng):
        u = haar_unitary(4, rng)
        assert kraus_rank(kraus_from_operators([u], D22)) == 1

    def test_depolarizing_rank_four(self):
        assert kraus_rank(depolarizing(0.3)) == 4

    def test_minimal_preserves_channel(self, rng):
        k = random_channel(D22, 3, rng)
        # inflate with a redundant unitary mixing of the operators
        u = haar_unitary(6, rng)
        padded = np.concatenate([k.operators, np.zeros((3, 4, 4))], axis=0)
        mixed = np.einsum("mn,nij->mij", u, padded)
        big = kraus_from_operators(list(mixed), D22)
        small = minimal_kraus(big)
        assert small.operators.shape[0] == 3
        assert choi_distance(big, small) < 1e-10

    def test_minimal_operators_orthogonal(self, rng):
        small = minimal_kraus(random_channel(D22, 4, rng))
        ops = small.operators.reshape(4, -1)
        gram = ops.conj() @ ops.T
        np.testing.assert_allclose(gram, np.diag(np.diagonal(gram)),
                                   atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_rank_invariant_under_recombination(self, seed):
        r = np.random.default_rng(seed)
        k = random_channel(D2, 2, r)
        u = haar_unitary(2, r)
        mixed = kraus_from_operators(
            list(np.einsum("mn,nij->mij", u, k.operators)), D2)
        assert kraus_rank(mixed) == kraus_rank(k)


class TestIsometricRelation:
    def test_recovers_planted_isometry(self, rng):
        b = minimal_kraus(random_channel(D22, 3, rng))
        w = haar_isometry(3, 5, rng)
        a_ops = np.einsum("mn,nij->mij", w, b.operators)
        a = kraus_from_operators(list(a_ops), D22)
        got = isometric_relation(a, b)
        assert got is not None
        np.testing.assert_allclose(got.conj().T @ got, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(
            np.einsum("mn,nij->mij", got, b.operators), a.operators,
            atol=1e-10)

    def test_unrelated_sets_return_none(self, rng):
        a = minimal_kraus(random_channel(D22, 2, rng))
        b = minimal_kraus(random_channel(D22, 2, rng))
        assert isometric_relation(a, b) is None


class TestApply:
    def test_channel_preserves_trace(self, rng):
        k = random_channel(D22, 3, rng)
        rho = random_density(4, rng)
        out = apply(k, rho)
        assert np.trace(out) == pytest.approx(1.0)
        assert np.linalg.eigvalsh(out)[0] >= -1e-12

    def test_instrument_branches_sum_to_channel(self, rng):
        k = random_channel(D22, 4, rng)
        inst = Instrument(k, ((0, 1), (2, 3)))
        rho = random_density(4, rng)
        branches = apply(inst, rho)
        assert len(branches) == 2
        total = sum(b for b, _ in branches)
        np.testing.assert_allclose(total, apply(k, rho), atol=1e-12)
        assert sum(p for _, p in branches) == pytest.approx(1.0)

    def test_apply_warns_on_non_density(self, rng):
        k = random_channel(D2, 2, rng)
        with pytest.warns(UserWarning):
            apply(Instrument(k, ((0,), (1,))), np.eye(2, dtype=complex))


class TestChoiDistance:
    def test_same_channel_different_decompositions(self, rng):
        k = random_channel(D22, 3, rng)
        u = haar_unitary(3, rng)
        mixed = kraus_from_operators(
            list(np.einsum("mn,nij->mij", u, k.operators)), D22)
        assert choi_distance(k, mixed) < 1e-12

    def test_distinct_channels_separate(self):
        assert choi_distance(identity_channel(), depolarizing(0.5)) > 0.1

    def test_output_padding(self, rng):
        # identical physics reported on different output registers
        k = random_channel(D2, 2, rng)
        inst = Instrument(k, ((0,), (1,)))
        assert choi_distance(qc_embed(inst), qc_embed(inst)) < 1e-15


class TestQcEmbed:
    def test_output_dimension_gains_flag(self, rng):
        k = random_channel(D22, 4, rng)
        inst = Instrument(k, ((0, 1), (2, 3)))
        emb = qc_embed(inst)
        assert emb.input_dim == 4
        assert emb.output_dim == 8

    def test_flag_marginal_recovers_channel(self, rng):
        k = random_channel(D22, 4, rng)
        inst = Instrument(k, ((0, 1), (2, 3)))
        emb = qc_embed(inst)
        rho = random_density(4, rng)
        red = apply(emb, rho).reshape(4, 2, 4, 2)
        np.testing.assert_allclose(np.trace(red, axis1=1, axis2=3),
                                   apply(k, rho), atol=1e-12)

    def test_flag_sector_probabilities(self, rng):
        k = random_channel(D22, 4, rng)
        inst = Instrument(k, ((0, 1), (2, 3)))
        emb = qc_embed(inst)
        rho = random_density(4, rng)
        out = apply(emb, rho).reshape(4, 2, 4, 2)
        probs = [float(np.real(np.trace(out[:, r, :, r])))
                 for r in range(2)]
        expect = [p for _, p in apply(inst, rho)]
        np.testing.assert_allclose(probs, expect, atol=1e-12)


class TestLeafPovmChannel:
    def test_single_flat_leaf_is_identity(self):
        diags = np.ones((1, 4))
        k = channel_from_leaf_povm(diags, D22)
        assert choi_distance(k, identity_channel(D22)) < 1e-12

    def test_subnormalized_rows_allowed(self, rng):
        # branch subsets of an instrument are legitimately trace-decreasing
        diags = np.array([[0.5, 0.5, 0.5, 0.5]])
        k = channel_from_leaf_povm(diags, D22)
        rho = random_density(4, rng)
        assert np.trace(apply(k, rho)) == pytest.approx(0.5)

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            channel_from_leaf_povm(np.array([[1.0, -0.2, 1.0, 1.0]]), D22)

    def test_two_leaves_trace_preserving(self, rng):
        p = rng.uniform(0.1, 0.9, size=4)
        diags = np.stack([p, 1.0 - p])
        k = channel_from_leaf_povm(diags, D22)
        rho = random_density(4, rng)
        assert np.trace(apply(k, rho)) == pytest.approx(1.0)
