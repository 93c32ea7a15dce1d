"""Failing twins: for a check whose defect reads exactly 0.0 on every
passing run, an input that makes that check, and only it, fail.

A check that can never fail shows nothing, so each twin pins that the
check reads what it claims to read. Each test runs the command as it is
(exit 0, the check's defect exactly 0.0) and then its twin (exit 1, the
check alone failing). Checks of the condition verifier are twinned on its
reports the same way; where the mathematics makes a second check fail with
the first, the twin names both.
"""

import dataclasses
import json

import numpy as np
import pytest

from loccverify import (blocked_limiting_family, channel_zonoid, cli,
                        instrument_zonoid, limiting_family,
                        verify_theorem_conditions)
from loccverify.channels import KrausSet


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
