"""Tests for the P-qubit coefficient matrices and their limit checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccverify import (
    choi_distance,
    limiting_choi_2q,
    moment_identity_check,
    multiplier_distance,
    multiplier_kraus,
    pqubit_apply,
    pqubit_choi_formula,
    pqubit_coefficients,
    pqubit_limit_check,
    pqubit_spec,
    prelimit_coefficients,
    protocol_leaf_diagonals,
    quadrature_coefficients,
)
from loccverify import protocols

from conftest import random_density


class TestSpec:
    def test_two_party_zero_counts(self):
        spec = pqubit_spec(2)
        # indices 00, 01, 10, 11; party 1 is the most significant bit
        np.testing.assert_array_equal(np.asarray(spec.zeros), [2, 1, 1, 0])

    def test_joint_zeros_symmetry(self):
        spec = pqubit_spec(3)
        jz = np.asarray(spec.joint_zeros)
        np.testing.assert_array_equal(jz, jz.T)
        assert jz[0, 0] == 3
        assert jz[0, 7] == 0
        # 010 and 011 share zeros at parties 1 and 3 vs party 1 only
        assert jz[2, 3] == 1

    def test_party_bounds(self):
        with pytest.raises(ValueError):
            pqubit_spec(1)
        with pytest.raises(ValueError):
            pqubit_spec(7)


class TestCoefficients:
    def test_two_party_closed_form(self):
        # basis pairs sharing no zero position get coefficient zero; only
        # the all-zeros row couples to the mixed patterns
        s = pqubit_coefficients(2)
        expect = np.array([
            [1.0, 2 / 3, 2 / 3, 0.0],
            [2 / 3, 1.0, 0.0, 0.0],
            [2 / 3, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ])
        np.testing.assert_allclose(s, expect, atol=1e-12)

    def test_entry_formula(self):
        # S_ij = 2 m_ij / (l_i + l_j) away from the all-ones corner
        for parties in (2, 3, 4):
            spec = pqubit_spec(parties)
            s = pqubit_coefficients(parties)
            d = 2 ** parties
            jz = np.asarray(spec.joint_zeros)
            for i in range(d):
                for j in range(d):
                    li, lj = spec.zeros[i], spec.zeros[j]
                    if li + lj == 0:
                        assert s[i, j] == pytest.approx(1.0)
                    else:
                        assert s[i, j] == pytest.approx(
                            2.0 * jz[i, j] / (li + lj))

    def test_unit_diagonal(self):
        for parties in (2, 3, 5):
            np.testing.assert_allclose(
                np.diagonal(pqubit_coefficients(parties)), 1.0, atol=1e-12)

    @pytest.mark.parametrize("parties", [3, 4, 5])
    def test_party_reduction(self, parties):
        # fixing the last party to |1> recovers the smaller problem
        s = pqubit_coefficients(parties)
        np.testing.assert_allclose(s[1::2, 1::2],
                                   pqubit_coefficients(parties - 1),
                                   atol=1e-12)


class TestApply:
    @pytest.mark.parametrize("parties", [2, 3, 4])
    def test_trace_preserving(self, parties, rng):
        d = 2 ** parties
        for _ in range(5):
            rho = random_density(d, rng)
            out = pqubit_apply(parties, rho)
            assert np.trace(out) == pytest.approx(1.0, abs=1e-12)

    def test_is_hadamard_multiplier(self, rng):
        rho = random_density(4, rng)
        np.testing.assert_allclose(pqubit_apply(2, rho),
                                   pqubit_coefficients(2) * rho, atol=1e-13)

    def test_diagonal_states_fixed(self, rng):
        p = rng.uniform(0.1, 1.0, size=8)
        rho = np.diag(p / p.sum()).astype(complex)
        np.testing.assert_allclose(pqubit_apply(3, rho), rho, atol=1e-13)

    def test_shape_validated(self, rng):
        with pytest.raises(ValueError):
            pqubit_apply(3, random_density(4, rng))


class TestChoiFormula:
    def test_matches_two_qubit_construction(self):
        a = pqubit_choi_formula(2)
        b = limiting_choi_2q()
        assert choi_distance(a, b) <= 1e-9

    @pytest.mark.parametrize("parties", [2, 3, 4])
    def test_psd_unit_trace(self, parties):
        c = pqubit_choi_formula(parties)
        assert np.trace(c.matrix) == pytest.approx(1.0)
        assert np.linalg.eigvalsh(c.matrix)[0] >= -1e-12


class TestQuadratureAgreement:
    def test_moment_identity(self):
        assert moment_identity_check() <= 1e-12

    @pytest.mark.parametrize("parties", [2, 3, 4])
    def test_closed_form_equals_quadrature(self, parties):
        got = quadrature_coefficients(parties)
        np.testing.assert_allclose(got, pqubit_coefficients(parties),
                                   atol=1e-10)


class TestPrelimit:
    def test_coefficients_converge(self):
        target = pqubit_coefficients(3)
        dists = [multiplier_distance(3, prelimit_coefficients(3, nu, 0.5),
                                     target)
                 for nu in (10, 100, 1000)]
        assert dists[0] > dists[1] > dists[2] > 0.0

    def test_prelimit_unit_diagonal(self):
        s = prelimit_coefficients(3, 50, 0.5)
        np.testing.assert_allclose(np.diagonal(s), 1.0, atol=1e-12)

    def test_distance_is_metric_like(self):
        a = prelimit_coefficients(2, 10, 0.5)
        b = pqubit_coefficients(2)
        assert multiplier_distance(2, a, b) == multiplier_distance(2, b, a)
        assert multiplier_distance(2, a, a) == pytest.approx(0.0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 40))
    def test_prelimit_entries_in_unit_interval(self, parties, rounds):
        s = prelimit_coefficients(parties, rounds, 0.5)
        assert s.min() >= -1e-12
        assert s.max() <= 1.0 + 1e-12


def _table_coefficients(parties, rounds, exponent):
    """The stopped multiplier from the step table: the Gram matrix of the
    square roots of all P * rounds + 1 leaf diagonals."""
    roots = np.sqrt(protocol_leaf_diagonals(parties, rounds, exponent))
    return roots.T @ roots


class TestClosedFormMultiplier:
    def test_shared_prefix_table_is_read_only(self):
        table = protocols.prefix_zeros(3)
        assert table is protocols.prefix_zeros(3)
        with pytest.raises(ValueError):
            table[0, 1] = 5
        np.testing.assert_array_equal(table[:, -1], pqubit_spec(3).zeros)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6),
           st.one_of(st.just(1), st.integers(1, 5000)),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_matches_table(self, parties, rounds, exponent):
        np.testing.assert_allclose(
            prelimit_coefficients(parties, rounds, exponent),
            _table_coefficients(parties, rounds, exponent),
            rtol=0.0, atol=1e-13)

    def test_huge_rounds_without_the_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("step table built")

        monkeypatch.setattr(protocols, "_step_rows", refuse)
        dist = multiplier_distance(3, prelimit_coefficients(3, 10 ** 12, 0.5),
                                   pqubit_coefficients(3))
        assert dist == pytest.approx(0.227e-6, rel=0.01)

    @pytest.mark.parametrize("parties,rounds", [(2, 1), (2, 50), (4, 30)])
    def test_kraus_factorisation(self, parties, rounds, rng):
        s = prelimit_coefficients(parties, rounds, 0.5)
        k = multiplier_kraus(s, (2,) * parties)
        assert k.n_operators <= 2 ** parties
        np.testing.assert_allclose(
            np.einsum("mii,mjj->ij", k.operators, k.operators.conj()), s,
            rtol=0.0, atol=1e-14)
        rho = random_density(2 ** parties, rng)
        np.testing.assert_allclose(
            sum(op @ rho @ op.conj().T for op in k.operators), s * rho,
            rtol=0.0, atol=1e-14)


class TestLimitCheck:
    def test_three_party_report(self):
        rep = pqubit_limit_check(3, [100, 1000])
        assert rep.passed
        assert rep.strictly_decreasing
        assert rep.quadrature_defect <= 1e-10
        assert rep.reduction_defect <= 1e-10
        assert rep.distances[0] == pytest.approx(0.0261238845, abs=1e-9)
        assert rep.distances[1] == pytest.approx(0.0072859532, abs=1e-9)

    def test_party_guard(self):
        with pytest.raises(ValueError):
            pqubit_limit_check(5, [10])
