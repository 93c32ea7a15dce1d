"""Failing twins: for a check whose defect reads exactly 0.0 on every
passing run, an input that makes that check, and only it, fail.

A check that can never fail shows nothing, so each twin pins that the
check reads what it claims to read. Each test runs the command as it is
(exit 0, the check's defect exactly 0.0) and then its twin (exit 1, the
check alone failing). Checks of the condition verifier are twinned on its
reports the same way; where the mathematics makes a second check fail with
the first, the twin names both. Some twins patch a function the command
calls instead; the link twins among them alter a quantity a check reads
from another module, and pin that the check, and only it, sees it. The
last tests pin the verifier's stacked pass over its halt families: a fault
in one family's stack shows in that family's checks alone, at its sigma,
and each family's checks read as they do when it is verified alone.
"""

import dataclasses
import json

import numpy as np
import pytest

from loccverify import (blocked_limiting_family, channel_zonoid, cli,
                        instrument_zonoid, limiting_family, pqubit,
                        twoqubit, verify_theorem_conditions)
from loccverify.channels import KrausSet
from loccverify.linalg import diagonal_stack


def run(capsys, argv):
    status = cli.main(argv)
    report = json.loads(capsys.readouterr().out)
    return status, {c["name"]: c for c in report["checks"]}


def inline_scaled_identity(scale):
    """One-operator Kraus set on C^2, ``scale`` times the identity."""
    return ('{"dims": {"in": [2], "out": [2]}, "operators": [{"rows": 2, '
            f'"cols": 2, "data": [[{scale}, 0], [0, 0], [0, 0], '
            f'[{scale}, 0]]}}]}}')


def assert_twin(capsys, argv, twin, name):
    """``argv`` passes with ``name`` at exactly 0.0; ``twin`` exits 1 with
    ``name`` the only failed check. Returns the twin's checks."""
    status, checks = run(capsys, argv)
    assert status == 0 and all(c["pass"] for c in checks.values())
    assert checks[name]["defect"] == 0.0
    status, checks = run(capsys, twin)
    assert status == 1
    assert [n for n, c in checks.items() if not c["pass"]] == [name]
    return checks


def assert_patched_twin(capsys, monkeypatch, argv, module, attr, altered,
                        name):
    """``argv`` passes; with ``module.attr`` replaced by
    ``altered(original)`` it exits 1 with ``name`` the only failed check.
    Returns that check from both runs."""
    status, base = run(capsys, argv)
    assert status == 0 and all(c["pass"] for c in base.values())
    monkeypatch.setattr(module, attr, altered(getattr(module, attr)))
    status, checks = run(capsys, argv)
    assert status == 1
    assert [n for n, c in checks.items() if not c["pass"]] == [name]
    return base[name], checks[name]


def test_choi_trace(capsys):
    # 2 I has normalized Choi trace 4, so the defect is 3.
    checks = assert_twin(
        capsys, ["choi", "--kraus", inline_scaled_identity(1)],
        ["choi", "--kraus", inline_scaled_identity(2)], "choi-trace")
    assert checks["choi-trace"]["defect"] == 3.0


def test_distances_decreasing(capsys):
    checks = assert_twin(
        capsys, ["paper-pq", "--parties", "3", "--nu-list", "100,1000"],
        ["paper-pq", "--parties", "3", "--nu-list", "1000,100"],
        "distances-decreasing")
    assert checks["distances-decreasing"]["defect"] == 1.0


def test_party_reduction(capsys, monkeypatch):
    # The two-party multiplier that three parties must embed, 1% too
    # large: its all-ones entry 1 moves by 0.01.
    def altered(coefficients):
        return lambda parties: coefficients(parties) * (
            1.01 if parties == 2 else 1.0)

    base, twin = assert_patched_twin(
        capsys, monkeypatch, ["paper-pq", "--parties", "3"], pqubit,
        "pqubit_coefficients", altered, "party-reduction")
    assert base["defect"] == 0.0
    assert twin["defect"] == pytest.approx(0.01, abs=1e-12)


def test_quadrature_reads_the_verified_halt_densities(capsys, monkeypatch):
    # Party 1's halt density 1% too large: the multiplier entry of the
    # index where only party 1 sees |0>, the integral of 1, moves by 0.01.
    def altered(diagonals):
        def scaled(parties, sigma):
            out = diagonals(parties, sigma)
            out[..., 0, :] *= 1.01
            return out
        return scaled

    _, twin = assert_patched_twin(
        capsys, monkeypatch,
        ["paper-pq", "--parties", "3", "--nu-list", "100,1000"],
        pqubit, "derivative_diagonals", altered, "quadrature-match")
    assert twin["defect"] == pytest.approx(0.01, abs=1e-12)


def test_column_norm_reads_the_verified_halt_weights(capsys, monkeypatch):
    # C2 1% too large: C2 and C3 each integrate to 1/2 at (3, 3), so the
    # last column's norm reads 1.005.
    def altered(stack):
        return lambda name, s: stack(name, s) * (
            1.01 if name == "C2" else 1.0)

    _, twin = assert_patched_twin(
        capsys, monkeypatch, ["paper-2q", "--nu", "1000"], twoqubit,
        "c_matrix_stack", altered, "column-norm")
    assert twin["defect"] == pytest.approx(0.005, abs=1e-12)


def test_all_ones_annihilates(capsys, monkeypatch):
    # The all-ones projector built reversed is |00><00|, which keeps the W
    # state's |001> term, of norm 1/sqrt(3).
    def altered(diag4):
        return lambda a, b, c, d: diag4(d, c, b, a)

    base, twin = assert_patched_twin(
        capsys, monkeypatch, ["wstate"], twoqubit, "_diag4", altered,
        "all-ones-annihilates")
    assert base["defect"] == 0.0
    assert twin["defect"] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)


def test_hausdorff_decreasing(capsys):
    checks = assert_twin(
        capsys, ["hausdorff", "--nu-list", "100,1000", "--samples", "50"],
        ["hausdorff", "--nu-list", "1000,100", "--samples", "50"],
        "hausdorff-decreasing")
    assert checks["hausdorff-decreasing"]["defect"] == 1.0


def test_cross_sector(capsys, monkeypatch):
    # An embedding that writes the first operator, halved in norm, to two
    # flag sectors: still trace preserving, but the Choi operator gains a
    # block between those sectors.
    embed = cli.qc_embed

    def leaky(inst):
        emb = embed(inst)
        ops = emb.operators.reshape(len(emb.operators), -1,
                                    inst.n_outcomes, emb.input_dim).copy()
        (sector,) = np.flatnonzero(np.abs(ops[0]).max(axis=(0, 2)))
        ops[0, :, sector] /= np.sqrt(2.0)
        ops[0, :, (sector + 1) % inst.n_outcomes] = ops[0, :, sector]
        return KrausSet(ops.reshape(emb.operators.shape), emb.input_dims,
                        emb.output_dims)

    status, checks = run(capsys, ["theorem8"])
    assert status == 0 and checks["cross-sector"]["defect"] == 0.0
    monkeypatch.setattr(cli, "qc_embed", leaky)
    status, checks = run(capsys, ["theorem8"])
    assert status == 1
    assert [n for n, c in checks.items() if not c["pass"]] == ["cross-sector"]
    assert checks["cross-sector"]["defect"] > 0.01


def failed(report):
    return {c.name: c for c in report.checks if not c.passed}


def test_uncovered_block_fails_its_resolution():
    # Without the main path nothing covers block 0, the all-ones outcome,
    # whose one diagonal entry of the identity is then left over.
    spec = instrument_zonoid()
    paths, fams = blocked_limiting_family(spec)
    rep = verify_theorem_conditions(spec, paths, fams)
    assert rep.passed and rep.check("resolution[0]").defect == 0.0
    twin = failed(verify_theorem_conditions(spec, [], fams))
    assert list(twin) == ["resolution[0]"]
    assert twin["resolution[0]"].defect == 1.0


@pytest.mark.parametrize("label", ["halt-A", "halt-B"])
def test_non_product_halt_density_fails_product(label):
    # The constant density diag(1, 0, 0, 1) is |00><00| + |11><11|, not a
    # product, and w w^T with w = (1, 0, 0, 3) reconstructs it: w weights
    # the reduced basis to diag(1, 0, 0, 1), whose square it is. Such a
    # density cannot also resolve the identity (see CHANGES.md), so the
    # resolution fails with it.
    spec = channel_zonoid()
    paths, fams = limiting_family(spec)
    rep = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    assert rep.passed and rep.check(f"{label}:product").defect == 0.0
    w = np.array([1.0, 0.0, 0.0, 3.0])
    i = [f.label for f in fams].index(label)
    fams[i] = dataclasses.replace(
        fams[i],
        density_at=lambda sg: np.tile([1.0, 0.0, 0.0, 1.0], (len(sg), 1)),
        cdensity_at=lambda sg: np.broadcast_to(np.outer(w, w),
                                               (len(sg), 4, 4)))
    twin = failed(verify_theorem_conditions(spec, paths, fams, s_samples=11))
    assert sorted(twin) == sorted([f"{label}:product", "resolution"])
    product = twin[f"{label}:product"]
    assert product.defect == pytest.approx(1.0, abs=1e-12)
    assert product.where == "sigma=0"
    assert twin["resolution"].defect == pytest.approx(9.6047, abs=1e-4)


SIGMA_37 = np.linspace(0.0, 1.0, 101)[37]


@pytest.mark.parametrize("label", ["halt-B", "halt-A"])
@pytest.mark.parametrize("family, make_spec", [
    (limiting_family, channel_zonoid),
    (blocked_limiting_family, instrument_zonoid),
])
def test_stacked_psd_names_its_family_and_sigma(family, make_spec, label):
    # One family's coefficient density shifted by -1e-6 I at the one sample
    # sigma = 0.37: its psd fails there, and so does its reconstruction,
    # since L(I) is not 0. The stacked pass runs both families through one
    # eigvalsh, yet every check of the other family keeps its value.
    spec = make_spec()
    paths, fams = family(spec)
    base = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    assert base.passed
    i = [f.label for f in fams].index(label)
    shift = 1e-6 * np.eye(spec.kappa)

    def shifted(sg, f=fams[i].cdensity_at):
        return f(sg) - (np.asarray(sg) == SIGMA_37)[:, None, None] * shift

    fams[i] = dataclasses.replace(fams[i], cdensity_at=shifted)
    rep = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    bad = failed(rep)
    assert sorted(bad) == sorted([f"{label}:psd", f"{label}:reconstruction"])
    assert bad[f"{label}:psd"].where == "sigma=0.37"
    assert bad[f"{label}:psd"].defect == pytest.approx(1e-6, rel=1e-6)
    assert bad[f"{label}:reconstruction"].where == "sigma=0.37"
    assert [c.name for c in rep.checks] == [c.name for c in base.checks]
    for c in rep.checks:
        if not c.name.startswith(f"{label}:"):
            assert c == base.check(c.name)


@pytest.mark.parametrize("forms", ["diagonal", "mixed"])
@pytest.mark.parametrize("family, make_spec", [
    (limiting_family, channel_zonoid),
    (blocked_limiting_family, instrument_zonoid),
])
def test_stacked_family_checks_match_each_family_alone(family, make_spec,
                                                       forms):
    # Each family verified alone takes the per-family route: a stack of
    # one. Stacked with the other, in one density form or with halt-B's
    # densities as matrices and halt-A's as diagonals, its psd, product
    # and reconstruction checks are the same, bit for bit.
    spec = make_spec()
    paths, fams = family(spec)
    if forms == "mixed":
        fams[0] = dataclasses.replace(
            fams[0], density_at=lambda sg, f=fams[0].density_at:
            diagonal_stack(f(sg)))
    both = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    assert both.passed
    for fam in fams:
        alone = verify_theorem_conditions(spec, paths, [fam], s_samples=11)
        for kind in ("psd", "product", "reconstruction"):
            name = f"{fam.label}:{kind}"
            assert both.check(name) == alone.check(name)
