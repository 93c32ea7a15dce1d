"""Failing twins: for a check whose defect reads exactly 0.0 on every
passing run, an input that makes that check, and only it, fail.

A check that can never fail shows nothing, so each twin pins that the
check reads what it claims to read. Each test runs the command as it is
(exit 0, the check's defect exactly 0.0) and then its twin (exit 1, the
check alone failing). Checks of the condition verifier are twinned on its
reports the same way; where the mathematics makes a second check fail with
the first, the twin names both. Some twins patch a function the command
calls instead; the link twins among them alter a quantity a check reads
from another module, and pin that the check, and only it, sees it. One
exchanges the halting parties of the worked instrument's halt table, and
pins that every check reading a halt takes it from that table. The
last tests pin the verifier's stacked pass over its sample table: a fault
in one family's stack shows in that family's checks alone, at its sigma,
and each family's checks read as they do when it is verified alone; a
fault in one family's or path's samples of one kind fails that one check,
at its sigma or s, with every other check as it was, bit for bit.
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


# Exchanging the two halting parties of twoqubit.HALTS: each check that
# pairs a halt's party with its outcome fails, with its defect, and every
# other check keeps its verdict.
EXCHANGED_HALTS = {
    ("theorem1", "--samples", "11"): {
        "halt-B:reconstruction": 1.4142135623730951,
        "halt-A:reconstruction": 1.4142135623730951},
    ("theorem8",): {
        "halt-B:reconstruction": 1.0, "halt-A:reconstruction": 1.0,
        "resolution[1]": 8.0622577482985, "resolution[2]": 8.0622577482985,
        "blocked-isometry": 1.0, "blocked-coefficients": 2.449489742783178,
        "coarse-grain": 1.0},
    ("wstate",): {"concurrence": 8.0 / 9.0},
}


@pytest.mark.parametrize("argv", list(EXCHANGED_HALTS))
def test_every_halt_reader_takes_its_outcome_from_the_table(
        capsys, monkeypatch, argv):
    status, base = run(capsys, list(argv))
    assert status == 0 and all(c["pass"] for c in base.values())
    monkeypatch.setattr(twoqubit, "HALTS", tuple(
        halt._replace(party=1 - halt.party) for halt in twoqubit.HALTS))
    status, checks = run(capsys, list(argv))
    assert status == 1 and list(checks) == list(base)
    want = EXCHANGED_HALTS[argv]
    assert [n for n, c in checks.items() if not c["pass"]] == list(want)
    for name, defect in want.items():
        assert checks[name]["defect"] == pytest.approx(defect, abs=1e-12)
        if name.endswith(":reconstruction"):
            assert checks[name]["where"] == "sigma=0"
    if argv == ("theorem8",):
        # The blocked witness no longer reproduces the main path, so the
        # solver answers every sample but the top one, and still passes.
        assert checks["main:membership"]["where"].endswith("solver 300/301")


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


def changed_at(f, at, change):
    """The callback ``f`` with its answer at the one parameter ``at``
    replaced by ``change`` of it; every other answer as ``f`` gives it."""
    def changed(x):
        out = np.array(f(x))
        hit = np.asarray(x) == at
        out[hit] = change(out[hit])
        return out
    return changed


def assert_alone(base, rep, name, where):
    """``rep`` fails ``name`` alone, at ``where``, and every other check
    reads as in ``base``, bit for bit. Returns the failed check."""
    assert base.passed
    assert list(failed(rep)) == [name]
    assert [c.name for c in rep.checks] == [c.name for c in base.checks]
    for c in rep.checks:
        if c.name != name:
            assert c == base.check(c.name)
    check = rep.check(name)
    assert check.where == where
    return check


@pytest.mark.parametrize("label", ["halt-B", "halt-A"])
@pytest.mark.parametrize("family, make_spec", [
    (limiting_family, channel_zonoid),
    (blocked_limiting_family, instrument_zonoid),
])
def test_psd_alone_reads_its_family_rows(family, make_spec, label):
    # Basis operator 0, |11><11|, is orthogonal to every other one, so
    # X = E_0j + E_j0 lies in the kernel of L, bit for bit. One family's
    # coefficient density minus 1e-3 X at sigma = 0.37 reconstructs the
    # same density, and, being 0 at (0, 0), is no longer PSD there.
    spec = make_spec()
    paths, fams = family(spec)
    base = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    i = [f.label for f in fams].index(label)
    (c,) = fams[i].cdensity_at(np.array([SIGMA_37]))
    j = int(np.argmax(np.diag(c)))
    kernel = np.zeros((spec.kappa, spec.kappa))
    kernel[0, j] = kernel[j, 0] = 1e-3
    fams[i] = dataclasses.replace(fams[i], cdensity_at=changed_at(
        fams[i].cdensity_at, SIGMA_37, lambda c: c - kernel))
    rep = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    psd = assert_alone(base, rep, f"{label}:psd", "sigma=0.37")
    assert psd.defect == pytest.approx(
        -np.linalg.eigvalsh(c - kernel)[0], rel=1e-9)


@pytest.mark.parametrize("family, make_spec", [
    (limiting_family, channel_zonoid),
    (blocked_limiting_family, instrument_zonoid),
])
def test_reconstruction_alone_reads_its_family_rows(family, make_spec):
    # Halt-B's density 0.1% too large at sigma = 0.37 is still a product,
    # and its coefficient density still PSD, but L no longer maps the one
    # to the other there.
    spec = make_spec()
    paths, fams = family(spec)
    base = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    i = [f.label for f in fams].index("halt-B")
    fams[i] = dataclasses.replace(fams[i], density_at=changed_at(
        fams[i].density_at, SIGMA_37, lambda d: 1.001 * d))
    rep = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    recon = assert_alone(base, rep, "halt-B:reconstruction", "sigma=0.37")
    # The density there is (sigma, 1, 0, 0) for halt-B.
    assert recon.defect == pytest.approx(1e-3 * np.hypot(SIGMA_37, 1.0),
                                         rel=1e-6)


def test_witness_family_alone_reads_its_path_rows():
    # theorem1's witness family C1 0.1% too large at s = 2.5, a grid point
    # that no halt attaches to among the sigma samples: still PSD, but
    # 0.1% of the path operator away from it.
    spec = channel_zonoid()
    paths, fams = limiting_family(spec)
    base = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    main = paths[0]
    grid = main.sample_grid(11)
    assert grid[5] == 2.5
    assert not np.isin(2.5, fams[0].attach_s(np.linspace(0.0, 1.0, 101)))
    paths[0] = dataclasses.replace(main, cmatrix_at=changed_at(
        main.cmatrix_at, 2.5, lambda c: 1.001 * c))
    fams = [dataclasses.replace(f, parent=paths[0]) for f in fams]
    rep = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    family = assert_alone(base, rep, "main:witness-family", "s=2.5")
    (op,) = main.op_at(np.array([2.5]))
    assert family.defect == pytest.approx(1e-3 * np.linalg.norm(op),
                                          rel=1e-6)


def test_membership_alone_names_its_solver_count():
    # theorem8's main path at s = 3.7 replaced by diag(1/2, 1) x diag(y, 1)
    # with (1 + 1/2)(1 + y) = 3.7: a product of trace 3.7, so trace and
    # product still pass, but its entry y > 1 puts it outside the zonoid,
    # whose operators lie below L(I) = I. The integrated witness does not
    # reproduce it, so that one sample goes to the solver, which fails it.
    spec = instrument_zonoid()
    paths, fams = blocked_limiting_family(spec)
    base = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    main = paths[0]
    assert main.sample_grid(11)[1] == 3.7
    y = 3.7 / 1.5 - 1.0
    outside = np.kron([0.5, 1.0], [y, 1.0])
    paths[0] = dataclasses.replace(main, op_at=changed_at(
        main.op_at, 3.7, lambda op: outside))
    fams = [dataclasses.replace(f, parent=paths[0]) for f in fams]
    rep = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    membership = assert_alone(base, rep, "main:membership",
                              "s=3.7; solver 1/11")
    assert membership.defect > 0.1
