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
verifier's twins fault a family's table or a path's operators and pin its
stacked pass over its sample table: a fault in one family's samples shows
in that family's checks alone, at its sigma, and each family's checks
read as they do when it is verified alone; a fault in one family's or
path's samples of one kind fails that one check, at its sigma or s, with
every other check as it was, bit for bit. The last test pins that every
check the theorem commands print has a twin, or is exact by construction.
"""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from loccverify import (FamilyTable, blocked_limiting_family,
                        channel_zonoid, cli, instrument_zonoid,
                        limiting_family, pqubit, twoqubit,
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
# other check keeps its verdict. theorem1 builds each halt's family from its
# party alone, over the channel's single block, so there the exchange
# passes and only exchanges the rows of halt-B and halt-A.
EXCHANGED_HALTS = {
    ("theorem1", "--samples", "11"): {},
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
    want = EXCHANGED_HALTS[argv]
    assert status == (1 if want else 0) and list(checks) == list(base)
    if not want:
        swap = {"halt-B": "halt-A", "halt-A": "halt-B"}
        for name, check in checks.items():
            halt, sep, rest = name.partition(":")
            assert check == dict(base[swap.get(halt, halt) + sep + rest],
                                 name=name)
        assert checks["halt-B:reconstruction"] != base[
            "halt-B:reconstruction"]
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
    # resolution, which reads the family's table, fails with it.
    spec = channel_zonoid()
    paths, fams = limiting_family(spec)
    rep = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    assert rep.passed and rep.check(f"{label}:product").defect == 0.0
    table = FamilyTable([[1.0, 0.0, 0.0, 3.0]], [[1.0, 0.0, 0.0, 1.0]],
                        (0, 3))
    i = [f.label for f in fams].index(label)
    fams[i] = dataclasses.replace(fams[i], table=table)
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
    # pass, yet every check of the other family keeps its value.
    spec = make_spec()
    paths, fams = family(spec)
    base = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    assert base.passed
    i = [f.label for f in fams].index(label)
    fams[i] = dataclasses.replace(fams[i], table=faulted_table(
        fams[i].table, "cdensity_at", SIGMA_37,
        lambda c: c - 1e-6 * np.eye(spec.kappa)))
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


@pytest.mark.parametrize("family, make_spec", [
    (limiting_family, channel_zonoid),
    (blocked_limiting_family, instrument_zonoid),
])
def test_stacked_family_checks_match_each_family_alone(family, make_spec):
    # Each family verified alone takes the per-family route: a stack of
    # one. Stacked with the other, its psd, product and reconstruction
    # checks are the same, bit for bit.
    spec = make_spec()
    paths, fams = family(spec)
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


def faulted_table(table, evaluator, at, change):
    """A copy of ``table`` whose ``evaluator``, ``cdensity_at`` or
    ``density_at``, answers ``change`` of its sample at the one sigma
    ``at``: a fault in the samples the verifier reads, which no table of
    coefficient rows can write."""
    sound = getattr(FamilyTable, evaluator)

    class Faulted(FamilyTable):
        pass

    setattr(Faulted, evaluator, lambda self, sigma: changed_at(
        lambda x: sound(self, x), at, change)(sigma))
    return Faulted(table.w, table.root, table.block)


def kernel_on_block(spec, block):
    """A real symmetric X, zero off ``block`` and of norm 1, that L maps
    to 0 on the spec's diagonal basis: the null vector of the map from
    the block's entries to the image's diagonal."""
    k = spec.basis.operators.diagonal(axis1=1, axis2=2).real[list(block)]
    pairs = [(a, b) for a in range(len(block)) for b in range(a, len(block))]
    image = np.stack([(1.0 if a == b else 2.0) * k[a] * k[b]
                      for a, b in pairs], axis=1)
    _, sv, vt = np.linalg.svd(image)
    assert sv[-1] <= 1e-15 * sv[0]
    x = np.zeros((spec.kappa, spec.kappa))
    for (a, b), v in zip(pairs, vt[-1]):
        x[block[a], block[b]] = x[block[b], block[a]] = v
    return x / np.linalg.norm(x)


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
    # Both bases reach each halt's block of two operators on only two
    # diagonal entries, so some X on the block lies in the kernel of L.
    # One family's coefficient density plus 1e-3 X at sigma = 0.37,
    # signed so that the rank-one density w w^T leaves the PSD cone,
    # reconstructs the same density, to rounding, and is no longer PSD.
    spec = make_spec()
    paths, fams = family(spec)
    base = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    i = [f.label for f in fams].index(label)
    table = fams[i].table
    (c,) = table.cdensity_at(np.array([SIGMA_37]))
    kernel = 1e-3 * kernel_on_block(spec, table.block)
    if np.linalg.eigvalsh(c + kernel)[0] < np.linalg.eigvalsh(c - kernel)[0]:
        kernel = -kernel
    fams[i] = dataclasses.replace(fams[i], table=faulted_table(
        table, "cdensity_at", SIGMA_37, lambda c: c - kernel))
    rep = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    psd = assert_alone(base, rep, f"{label}:psd", "sigma=0.37")
    assert psd.defect == pytest.approx(
        -np.linalg.eigvalsh(c - kernel)[0], rel=1e-9)


@pytest.mark.parametrize("family, make_spec", [
    (limiting_family, channel_zonoid),
    (blocked_limiting_family, instrument_zonoid),
])
def test_reconstruction_alone_reads_its_family_rows(family, make_spec):
    # Halt-B's root r(u) = u e_0 + e_2 with its u row 0.1% too large: its
    # density (1.002001 sigma, 0, 1, 0) is still a product, and its
    # coefficient density conj(w) w^T still PSD, but L no longer maps the
    # one to the other, most at sigma = 1.
    spec = make_spec()
    paths, fams = family(spec)
    base = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    i = [f.label for f in fams].index("halt-B")
    table = fams[i].table
    root = np.array(table.root)
    assert np.array_equal(root, [[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    root[1] *= 1.001
    fams[i] = dataclasses.replace(fams[i], table=FamilyTable(
        table.w, root, table.block))
    rep = verify_theorem_conditions(spec, paths, fams, s_samples=11)
    recon = assert_alone(base, rep, "halt-B:reconstruction", "sigma=1")
    assert recon.defect == pytest.approx(1.001 ** 2 - 1.0, rel=1e-9)


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


# Per check that theorem1 and theorem8 print, with each halt's label read
# as "halt" and each block's index as "b": the test that makes it fail, as
# "module::[class::]test", or why it cannot fail on any input the verifier
# takes.
CHECK_TWINS = {
    "main:trace": "test_protocols::TestVerifyTheoremConditions::"
                  "test_diagonal_trace_off_fails_trace_at_its_s",
    "main:product": "test_protocols::TestVerifyTheoremConditions::"
                    "test_product_check_takes_the_spec_parties",
    "main:membership": "test_check_twins::"
                       "test_membership_alone_names_its_solver_count",
    "main:endpoint": "test_protocols::TestVerifyTheoremConditions::"
                     "test_scaled_main_path_fails_endpoint",
    "halt:psd": "test_check_twins::test_psd_alone_reads_its_family_rows",
    "halt:product": "test_check_twins::"
                    "test_non_product_halt_density_fails_product",
    "halt:reconstruction": "test_check_twins::"
                           "test_reconstruction_alone_reads_its_family_rows",
    "resolution": "test_check_twins::"
                  "test_non_product_halt_density_fails_product",
    "resolution[b]": "test_check_twins::"
                     "test_uncovered_block_fails_its_resolution",
    "cross-sector": "test_check_twins::test_cross_sector",
    "blocked-isometry": "test_check_twins::"
                        "test_every_halt_reader_takes_its_outcome_from_the_table",
    "blocked-coefficients": "test_check_twins::"
                            "test_every_halt_reader_takes_its_outcome_from_the_table",
    "coarse-grain": "test_check_twins::"
                    "test_every_halt_reader_takes_its_outcome_from_the_table",
}
EXACT = "exact by construction: "


def test_every_theorem_check_has_a_twin(capsys):
    names = set()
    for argv in (["theorem1", "--samples", "11"], ["theorem8"]):
        status, checks = run(capsys, argv)
        assert status == 0
        names |= {re.sub(r"\[\d+\]$", "[b]", re.sub(r"^halt-\w+:", "halt:",
                                                     name))
                  for name in checks}
    assert sorted(n for n in names if n not in CHECK_TWINS) == []
    for name, twin in CHECK_TWINS.items():
        if twin.startswith(EXACT):
            continue
        module, *path = twin.split("::")
        text = (Path(__file__).parent / f"{module}.py").read_text()
        *owner, test = path
        assert all(f"\nclass {c}:" in text for c in owner), (name, twin)
        assert re.search(rf"\n\s*def {test}\(", text), (name, twin)
