"""Failing twins: for a check whose defect reads exactly 0.0 on every
passing run, an input that makes that check, and only it, fail.

A check that can never fail shows nothing, so each twin pins that the
check reads what it claims to read. Each test runs the command as it is
(exit 0, the check's defect exactly 0.0) and then its twin (exit 1, the
check alone failing).
"""

import json

import numpy as np

from loccverify import cli
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

