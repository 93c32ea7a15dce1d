"""End-to-end tests of the command-line entry point."""

import argparse
import ast
import contextlib
import io
import json
import re
import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import loccverify
from loccverify import (cli, conditions, linalg, protocols, serialize,
                        twoqubit, zonoid)
from loccverify.channels import kraus_from_operators
from loccverify.serialize import (dumps, kraus_to_json, matrix_from_json,
                                  matrix_to_json)
from loccverify.tolerances import QUAD_NODES, SIGMA_SAMPLES
from loccverify.twoqubit import (blocked_limiting_family, coarse_grain_check,
                                 limiting_family)

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SCRIPTS = ROOT / "scripts"
STUDY = SCRIPTS / "convergence_study.py"
SUITE = SCRIPTS / "run_verification_suite.py"
BATTERY = [argv for argv, _ in runpy.run_path(str(SUITE))["BATTERY"]]


def run(capsys, *argv):
    status = cli.main(list(argv))
    out = capsys.readouterr().out
    return status, json.loads(out) if out.strip() else None


def traced_peak(argv):
    """Peak bytes that tracemalloc sees in a passing CLI run of ``argv``.

    A small run goes first, so lazily built tables are not counted.
    """
    small = [v if not v.isdigit() or v == "6" else "3" for v in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(small) in (0, 1)
    linalg._leggauss.cache_clear()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0
    return peak


def check_names(report):
    return [c["name"] for c in report["checks"]]


def inline(m):
    return dumps(matrix_to_json(np.asarray(m, dtype=complex)), indent=0)


def inline_kraus(ops, din, dout, partition=None):
    """Kraus set, or instrument with ``partition``, inline."""
    obj = kraus_to_json(kraus_from_operators(list(ops), din, dout))
    if partition is not None:
        obj["partition"] = partition
    return dumps(obj, indent=0)


def inline_identity_kraus(d):
    """One-operator Kraus set of the identity channel on C^d, inline."""
    return inline_kraus([np.eye(d)], (d,), (d,))


def inline_kraus_with(value):
    """One-operator Kraus set on C^2, inline, whose first entry is the JSON
    number ``value`` (NaN and Infinity included)."""
    return ('{"dims": {"in": [2], "out": [2]}, "operators": [{"rows": 2, '
            f'"cols": 2, "data": [[{value}, 0], [0, 0], [0, 0], [1, 0]]}}]}}')


def _complex_operators(count, d):
    """``count`` seeded random complex d x d operators, dense: a Choi
    matrix with every entry complex and nonzero."""
    rng = np.random.default_rng(16)
    return (rng.standard_normal((count, d, d))
            + 1j * rng.standard_normal((count, d, d)))


def _face_unit_argv():
    """zonoid-check of 24 random real operators of shape 2 x 16 at a point
    of the face that the first diagonal unit exposes."""
    ops = np.random.default_rng(0).standard_normal((24, 2, 16))
    gram = np.einsum("mba,nbc->mnac", ops, ops)
    w, v = np.linalg.eigh(gram[:, :, 0, 0])
    c = v[:, w > 0] @ v[:, w > 0].T
    z = np.einsum("mn,mnac->ac", c, gram)
    return ["zonoid-check", "--basis", inline_kraus(ops, (16,), (2,)),
            "--z", inline(0.5 * (z + z.T))]


def _complex_face_argv():
    """zonoid-check of 20 random real operators of shape 4 x 8 at a point
    of the face a random complex direction exposes: a complex target, so
    the barrier solve runs in complex arithmetic."""
    rng = np.random.default_rng(2)
    ops = rng.standard_normal((20, 4, 8))
    gram = np.einsum("mba,nbc->mnac", ops, ops)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    w, v = np.linalg.eigh(np.einsum("ab,mnba->nm", g + g.conj().T, gram))
    c = v[:, w > 0] @ v[:, w > 0].conj().T
    z = np.einsum("mn,mnac->ac", c, gram)
    return ["zonoid-check", "--basis", inline_kraus(ops, (8,), (4,)),
            "--z", inline(0.5 * (z + z.conj().T))]


def matrix_units(d):
    """The d^2 matrix units of d x d, stacked."""
    units = np.zeros((d * d, d, d))
    units[np.arange(d * d), np.arange(d * d) // d, np.arange(d * d) % d] = 1
    return units


def _face_search_argv():
    """zonoid-check of a point 1% inside the boundary, which no candidate
    answers, so the barrier solve runs."""
    rng = np.random.default_rng(1)
    ops = rng.standard_normal((20, 4, 8))
    gram = np.einsum("mba,nbc->mnac", ops, ops)
    g = rng.standard_normal((8, 8))
    w, v = np.linalg.eigh(np.einsum("ab,mnba->nm", g + g.T, gram))
    c = 0.99 * v[:, w > 0] @ v[:, w > 0].T + 0.005 * np.eye(20)
    z = np.einsum("mn,mnac->ac", c, gram)
    return ["zonoid-check", "--basis", inline_kraus(ops, (8,), (4,)),
            "--z", inline(0.5 * (z + z.T))]


SRC = ROOT / "src" / "loccverify"
# The CLI's resolvers: their own raises are input checks; the others
# re-raise a caught ValueError as InputError(str(exc)).
RESOLVERS = ("_load_obj", "_finite", "_resolve_kraus", "_resolve_basis",
             "_resolve_target")
_TWO_OPERATORS = [np.eye(2), np.diag([1.0, 0.0])]


def _z(rows, cols, data):
    return ["zonoid-check", "--basis", "square", "--z",
            '{"rows": %s, "cols": %s, "data": [%s]}' % (rows, cols, data)]


# Every input-validation raise a CLI input may reach: each raise of
# ValueError in serialize, channels and zonoid, and each own raise of the
# CLI's resolvers. Keyed by (module, function, message with each field as
# {}), each maps to an argv that must exit 2 with that message, or to the
# reason no CLI input reaches it.
INPUT_RAISES = {
    ("serialize", "matrix_to_json",
     "only two-dimensional arrays serialize as matrices"):
        "output: writes only matrices that a command computed",
    ("serialize", "_count", "count {} is not a whole number of at least {}"):
        _z("2.5", "2", "[1, 0], [0, 0], [0, 0], [1, 0]"),
    ("serialize", "matrix_from_json",
     "matrix entries must be numbers, not booleans"):
        _z("2", "2", "[true, 0], [0, 0], [0, 0], [false, 0]"),
    ("serialize", "matrix_from_json", "malformed matrix object: {}"):
        _z("2", "2", "[1, 0], [0, 0], [0, 0], [1]"),
    ("serialize", "matrix_from_json",
     "matrix data length does not match rows * cols"):
        _z("2", "2", "[1, 0]"),
    ("serialize", "matrix_from_json", "matrix entries must be finite"):
        _z("2", "2", "[NaN, 0], [0, 0], [0, 0], [1, 0]"),
    ("serialize", "kraus_from_json", "malformed Kraus set: {}"):
        ["choi", "--kraus", '{"operators": []}'],
    ("serialize", "instrument_from_json", "malformed instrument: {}"):
        ["zonoid-check", "--basis",
         inline_kraus(_TWO_OPERATORS, (2,), (2,), 5)],
    ("serialize", "_format_float", "non-finite value {} cannot be serialized"):
        "output: guards the report writer, which parses no input",
    ("channels", "_stack_operators",
     "expected a stack of matrices, got shape {}"):
        ["zonoid-check", "--basis",
         '{"dims": {"in": [2], "out": [2]}, "operators": []}'],
    ("channels", "_stack_operators", "need at least one operator"):
        "an empty JSON operator list is a 1-D array, which the shape check "
        "refuses first",
    ("channels", "index_partition", "empty {}"):
        ["zonoid-check", "--basis",
         inline_kraus(_TWO_OPERATORS, (2,), (2,), [[], [0, 1]])],
    ("channels", "index_partition",
     "the {}s must hold each index 0..{} once, not {}"):
        ["zonoid-check", "--basis",
         inline_kraus(_TWO_OPERATORS, (2,), (2,), [[0], [0]])],
    ("channels", "KrausSet.__post_init__",
     "operator input dimension {} != {}"):
        ["choi", "--kraus", inline_identity_kraus(2).replace(
            '"in": [2]', '"in": [3]')],
    ("channels", "KrausSet.__post_init__",
     "operator output dimension {} != {}"):
        ["choi", "--kraus", inline_identity_kraus(2).replace(
            '"out": [2]', '"out": [3]')],
    ("channels", "ChoiOperator.__post_init__",
     "Choi shape {} does not match dims ({}, {})"):
        "internal: choi builds the matrix from the Kraus set's own dims",
    ("channels", "minimal_kraus", "zero channel has no Kraus decomposition"):
        ["zonoid-check", "--basis",
         inline_kraus([np.eye(2), np.zeros((2, 2))], (2,), (2,), [[0], [1]])],
    ("channels", "isometric_relation", "operator shapes differ"):
        "no command calls isometric_relation",
    ("channels", "choi_distance", "input dimensions differ"):
        "distance refuses --a and --b of different input dimensions first",
    ("channels", "channel_from_leaf_povm",
     "expected a 2-D array of POVM diagonals"):
        "no command calls channel_from_leaf_povm",
    ("channels", "channel_from_leaf_povm",
     "POVM diagonals must be nonnegative"):
        "no command calls channel_from_leaf_povm",
    ("zonoid", "coefficient_stack", "coefficient matrix must be square"):
        "internal: the solver's witnesses are kappa x kappa",
    ("zonoid", "coefficient_stack", "coefficient matrix must be Hermitian"):
        "internal: the solver's witnesses are Hermitian by construction",
    ("zonoid", "ZonoidSpec.__post_init__",
     "basis operators {} are linearly dependent"):
        ["zonoid-check", "--basis",
         inline_kraus([np.eye(2), 2 * np.eye(2)], (2,), (2,))],
    ("zonoid", "_hermitian_input",
     "{} expects a {} x {} operator, got shape {}"):
        ["zonoid-check", "--z", inline(np.eye(2))],
    ("zonoid", "_hermitian_input", "{} expects a finite operator"):
        ["zonoid-check", "--basis", "square",
         "--z", inline(np.diag([1e160, 1e160]))],
    ("zonoid", "_hermitian_input", "{} expects a Hermitian operator"):
        ["zonoid-check", "--z", inline([[1, 1, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 1, 0], [0, 0, 0, 1]])],
    ("zonoid", "hausdorff_estimate", "zonoids live on different spaces"):
        "internal: hausdorff compares zonoids it builds on one space",
    ("zonoid", "endpoint_cmatrix",
     "operator shape {} does not match basis {}"):
        "internal: the theorem commands pass their own spec's diagonals",
    ("cli", "_load_obj", "cannot read {}: {}"):
        ["choi", "--kraus", "no-such-dir/kraus.json"],
    ("cli", "_load_obj", "{} is not valid JSON: {}"):
        ["zonoid-check", "--z", "{broken"],
    ("cli", "_finite", "{} must have finite entries and a finite norm"):
        ["choi", "--kraus", inline_kraus_with("1e300")],
}


def input_raises() -> list:
    """(module, function, message template) of every raise that
    :data:`INPUT_RAISES` must map, read from the source."""
    found = []

    def template(node):
        if isinstance(node, ast.JoinedStr):
            return "".join(v.value if isinstance(v, ast.Constant) else "{}"
                           for v in node.values)
        return node.value if isinstance(node, ast.Constant) else None

    def visit(node, module, qualname):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, module, qualname + [child.name])
                continue
            if (isinstance(child, ast.Raise)
                    and isinstance(child.exc, ast.Call)
                    and isinstance(child.exc.func, ast.Name)):
                kind, function = child.exc.func.id, ".".join(qualname)
                own = (kind == "ValueError" if module != "cli" else
                       function in RESOLVERS and kind == "InputError"
                       and template(child.exc.args[0]) is not None)
                if own:
                    found.append((module, function,
                                  template(child.exc.args[0])))
            visit(child, module, qualname)

    for module in ("serialize", "channels", "zonoid", "cli"):
        visit(ast.parse((SRC / f"{module}.py").read_text()), module, [])
    return found


class TestInputRaises:
    """Every input check a CLI input reaches exits 2 with its message."""

    def test_every_raise_is_mapped(self):
        found = input_raises()
        assert None not in [message for _, _, message in found]
        assert sorted(found) == sorted(INPUT_RAISES)

    @pytest.mark.parametrize("key", [key for key, argv in INPUT_RAISES.items()
                                     if isinstance(argv, list)],
                             ids=lambda key: f"{key[0]}.{key[1]}-" + re.sub(
                                 r"\W+", "-", key[2]).strip("-"))
    def test_raise_exits_2_with_its_message(self, capsys, key):
        status = cli.main(INPUT_RAISES[key])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        for part in key[2].split("{}"):
            assert part in line


class TestReportShape:
    def test_schema(self, capsys):
        status, rep = run(capsys, "choi", "--kraus", "twoqubit-minimal")
        assert status == 0
        assert set(rep) == {"command", "checks", "values", "pass",
                            "wall_time_s"}
        assert rep["command"] == "choi"
        assert rep["pass"] is True
        for c in rep["checks"]:
            assert {"name", "defect", "tolerance", "pass"} <= set(c)

    def test_determinism_modulo_wall_time(self, capsys):
        def strip(text):
            return "\n".join(line for line in text.splitlines()
                             if "wall_time" not in line)

        cli.main(["paper-2q", "--nu", "100", "--c", "0.5"])
        a = capsys.readouterr().out
        cli.main(["paper-2q", "--nu", "100", "--c", "0.5"])
        b = capsys.readouterr().out
        assert strip(a) == strip(b)


class TestExitCodes:
    def test_malformed_inline_json_is_2(self, capsys):
        status = cli.main(["choi", "--kraus", "{broken"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert "error" in captured.err

    def test_missing_file_is_2(self, capsys):
        status = cli.main(["choi", "--kraus", "/tmp/no-such-file-xyz.json"])
        assert status == 2

    @pytest.mark.parametrize("flag", ["--basis", "--z"])
    def test_json_file_without_an_object_is_2(self, capsys, tmp_path, flag):
        path = tmp_path / "five.json"
        path.write_text("5")
        status = cli.main(["zonoid-check", flag, str(path)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("flag", ["--basis", "--z"])
    def test_json_file_that_does_not_parse_is_2(self, capsys, tmp_path, flag):
        path = tmp_path / "broken.json"
        path.write_text("{broken")
        status = cli.main(["zonoid-check", flag, str(path)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["choi", "--kraus", "X"],
        ["distance", "--a", "X", "--b", "twoqubit-minimal"],
        ["distance", "--a", "twoqubit-minimal", "--b", "X"],
        ["zonoid-check", "--basis", "X"],
        ["zonoid-check", "--z", "X"],
    ], ids=["kraus", "a", "b", "basis", "z"])
    @pytest.mark.parametrize("kind", ["not-utf8", "deep-file", "deep-inline"])
    def test_undecodable_or_deeply_nested_json_is_2(self, capsys, tmp_path,
                                                    argv, kind):
        # These once ended in a UnicodeDecodeError or RecursionError
        # traceback with exit 1, the status of a failed check.
        deep = '{"a": ' + "[" * 5000 + "]" * 5000 + "}"
        token = deep
        if kind != "deep-inline":
            path = tmp_path / "input.json"
            path.write_bytes(b"\xff\xfe" if kind == "not-utf8"
                             else deep.encode())
            token = str(path)
        status = cli.main([token if v == "X" else v for v in argv])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:")

    def test_unknown_basis_token_is_2(self, capsys):
        status = cli.main(["zonoid-check", "--z", "identity",
                           "--basis", "bogus"])
        assert status == 2

    @pytest.mark.parametrize("argv", [
        ["zonoid-check", "--basis", "square", "--z",
         '{"rows": 2, "cols": 2, '
         '"data": [[true, 0], [0, 0], [0, 0], [false, 0]]}'],
        ["choi", "--kraus", inline_kraus_with("1").replace(
            "[0, 0], [0, 0]", "[true, false], [0, 0]")],
    ], ids=["z", "kraus"])
    def test_boolean_matrix_entry_is_2(self, capsys, argv):
        # complex(True, False) is 1, so these once ran as numbers.
        status = cli.main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["protocol", "--nu", "0"],
        ["protocol", "--parties", "1"],
        ["protocol", "--c", "1.5"],
        ["paths", "--c", "1.5"],
        ["paths", "--nu", "0"],
        ["paths", "--parties", "1"],
        ["paper-pq", "--parties", "7"],
        ["paper-pq", "--parties", "1"],
        ["paper-pq", "--nu-list", "10,x"],
        ["paper-pq", "--nu-list", "0"],
        ["hausdorff", "--nu-list", "10,x"],
        ["hausdorff", "--nu-list", "0"],
        ["paper-pq", "--c", "1.5"],
        ["hausdorff", "--c", "1.5"],
        ["paper-2q", "--c", "1.5"],
        ["theorem1", "--nu", "10", "--c", "1.5"],
        ["hausdorff", "--samples", "-1"],
        ["hausdorff", "--seed", "-1"],
        ["paths", "--grid", "0"],
        ["paths", "--grid", "-5"],
        ["theorem1", "--sigma-samples", "0"],
        ["theorem8", "--samples", "-1"],
        ["wstate", "--nodes", "0"],
        ["zonoid-check", "--z", inline(np.eye(2))],
        ["zonoid-check", "--z", inline([[1, 1, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 1, 0], [0, 0, 0, 1]])],
        ["zonoid-check", "--tol", "-1"],
        ["zonoid-check", "--tol", "0"],
        ["zonoid-check", "--tol", "inf"],
        ["zonoid-check", "--tol", "nan"],
        ["theorem1", "--tol", "-1"],
        ["theorem8", "--tol", "nan"],
        ["choi", "--kraus", "twoqubit-minimal", "--tol", "1e-7"],
        ["wstate", "--c", "9"],
        ["protocol", "--seed", "1"],
        ["protocol", "--parties", "2", "--nu", "100000000"],
        ["paths", "--nu", str(10 ** 40)],
        ["paper-pq", "--parties", "2", "--nu-list", f"10,{10 ** 40}"],
        ["theorem1", "--samples", "100000000"],
        ["theorem1", "--sigma-samples", "100000000"],
        ["theorem8", "--samples", "100000000"],
        ["theorem8", "--sigma-samples", "100000000"],
        ["theorem8", "--nodes", "100000"],
        ["paths", "--grid", "100000000"],
        ["paths", "--parties", "6", "--grid", "200000"],
        ["paper-2q", "--nodes", "100000"],
        ["paper-pq", "--nodes", "100000"],
        ["wstate", "--nodes", "100000"],
        ["hausdorff", "--samples", "100000000"],
        ["zonoid-check", "--basis", "square",
         "--z", inline(np.diag([1e160, 1e160]))],
        ["zonoid-check", "--basis", "square",
         "--z", inline(np.diag([1e308, 1e308]))],
        ["zonoid-check", "--basis", "square", "--z",
         '{"rows": 2, "cols": 2, "data": [[NaN, 0], [0, 0], [0, 0], [1, 0]]}'],
        ["distance", "--a", inline_identity_kraus(2),
         "--b", inline_identity_kraus(4)],
        # Bases whose zonoid cannot be built: dependent operators, and an
        # instrument outcome that is the zero channel.
        ["zonoid-check", "--basis",
         inline_kraus([np.eye(2), 2 * np.eye(2)], (2,), (2,))],
        ["zonoid-check", "--basis",
         inline_kraus([np.eye(2), np.zeros((2, 2))], (2,), (2,), [[0], [1]])],
        *[[*head, inline_kraus_with(value), *tail]
          for value in ("NaN", "Infinity", "1e300")
          for head, tail in ((["choi", "--kraus"], []),
                             (["distance", "--a"],
                              ["--b", inline_identity_kraus(2)]),
                             (["zonoid-check", "--basis"], []))],
        # Counts that overflow (JSON reads 1e999 as inf), are not whole or
        # are negative, and an entry too large for a float.
        *[["zonoid-check", "--basis", "square", "--z",
           '{"rows": %s, "cols": %s, "data": [%s]}' % (rows, cols, data)]
          for rows, cols, data in (
              ("1e999", "2", ""), ("2", "1e999", ""),
              ("2.5", "2", "[1, 0], [0, 0], [0, 0], [1, 0]"),
              ("-2", "-2", "[1, 0], [0, 0], [0, 0], [1, 0]"),
              ("2", "2", "[1%s, 0], [0, 0], [0, 0], [1, 0]" % ("0" * 400)))],
        *[[*head, inline_kraus([np.eye(2)], (2,), (2,)).replace(
            '"in": [2]', f'"in": [{dim}]')]
          for dim in ("1e999", "2.5", "0")
          for head in (["choi", "--kraus"], ["zonoid-check", "--basis"])],
        *[["zonoid-check", "--basis", inline_kraus(
            [np.eye(2), np.diag([1.0, 0.0])], (2,), (2,),
            [[0], [777]]).replace("777", index)]
          for index in ("1e999", "1.5", "-1")],
        # One round count would pass "decreasing" vacuously.
        ["paper-pq", "--nu-list", "100"],
        ["hausdorff", "--nu-list", "100"],
        # A basis without operators, and instrument partitions that hold
        # an index twice or none at all.
        ["zonoid-check", "--basis",
         '{"dims": {"in": [2], "out": [2]}, "operators": []}'],
        *[["zonoid-check", "--basis", inline_kraus(
            [np.eye(2), np.diag([1.0, 0.0])], (2,), (2,), partition)]
          for partition in ([[0], [0]], [])],
    ])
    def test_bad_protocol_parameters_are_2(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("refused input reached the builder")

        monkeypatch.setattr(cli, "build_protocol_pq", refuse)
        status = cli.main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("command", ["protocol", "paths"])
    def test_too_many_parties_rejected_before_building(self, capsys,
                                                       monkeypatch, command):
        # 30 parties would need 2^60-entry arrays; fail loudly if the
        # guard lets the call through instead of allocating.
        def refuse(*args, **kwargs):
            raise AssertionError("oversized protocol reached the builder")

        monkeypatch.setattr(cli, "build_protocol_pq", refuse)
        monkeypatch.setattr(cli, "path_distance_bound", refuse)
        status = cli.main([command, "--parties", "30"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_protocol_budget_counts_the_check(self, capsys, monkeypatch):
        # The tree alone (about 244 MiB) fits the 256 MiB budget; building
        # and checking it does not.
        def refuse(*args, **kwargs):
            raise AssertionError("refused input reached build_protocol_pq")

        monkeypatch.setattr(cli, "build_protocol_pq", refuse)
        assert protocols.protocol_tree_bytes(2, 1000000) <= \
            cli.TREE_BYTES_BUDGET
        status = cli.main(["protocol", "--parties", "2", "--nu", "1000000"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.startswith("error: --parties 2 --nu 1000000 "
                                       "needs ")
        assert captured.err.endswith("MiB budget\n")

    @pytest.mark.parametrize("argv", [
        ["theorem1", "--samples", "600000"],
        ["theorem1", "--nu", "1000", "--samples", "600000"],
        ["theorem8", "--samples", "400000"],
        ["theorem8", "--tol", "1e-3", "--samples", "400000"],
        ["paths", "--grid", "1000000"],
        ["paths", "--parties", "6", "--grid", "200000"],
        ["hausdorff", "--samples", "300000"],
        ["protocol", "--parties", "6", "--nu", "100000"],
    ])
    def test_memory_budget_refuses_before_any_work(self, capsys, monkeypatch,
                                                   argv):
        def refuse(*args, **kwargs):
            raise AssertionError("refused run reached the checker")

        for name in ("channel_zonoid", "instrument_zonoid",
                     "limiting_choi_2q", "wstate_analysis"):
            monkeypatch.setattr(cli.twoqubit, name, refuse)
        monkeypatch.setattr(cli.pq, "pqubit_limit_check", refuse)
        monkeypatch.setattr(cli, "verify_theorem_conditions", refuse)
        monkeypatch.setattr(cli, "path_distance_bound", refuse)
        monkeypatch.setattr(cli, "build_protocol_pq", refuse)
        monkeypatch.setattr(linalg, "_leggauss", refuse)
        assert cli.work_bytes(cli._build_parser().parse_args(argv)) > \
            cli.TREE_BYTES_BUDGET
        status = cli.main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:")
        assert "MiB budget" in captured.err

    def test_theorem_refusal_names_its_samples(self, capsys):
        assert cli.main(["theorem8", "--samples", "400000"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: --samples 400000 needs ")

    @pytest.mark.parametrize("argv", [
        ["theorem1", "--samples", "2000"],
        ["theorem1", "--samples", "4000", "--nu", "1000"],
        ["theorem8", "--samples", "2000"],
        ["theorem8", "--samples", "4000"],
        ["paths", "--grid", "40000"],
        ["paths", "--parties", "6", "--grid", "20000"],
        ["hausdorff", "--samples", "20000"],
    ])
    def test_work_bytes_bound_the_run(self, argv):
        peak = traced_peak(argv)
        estimate = cli.work_bytes(cli._build_parser().parse_args(argv))
        assert peak <= estimate <= 1.5 * peak

    @pytest.mark.parametrize("argv", [
        ["theorem1", "--samples", "1"],
        ["theorem1"],
        ["theorem8", "--samples", "1"],
        ["theorem8"],
    ])
    def test_work_bytes_cover_small_theorem_runs(self, argv):
        # The fixed part dominates runs this small, so the estimate can be
        # twice the peak; it must still not fall below it.
        peak = traced_peak(argv)
        assert peak <= cli.work_bytes(cli._build_parser().parse_args(argv))

    @pytest.mark.parametrize("samples", ["1", "37", "0"])
    @pytest.mark.parametrize("command", ["theorem1", "theorem8"])
    def test_theorem_layout_is_the_sample_table(self, monkeypatch, command,
                                                samples):
        # The estimate reads its layout from the table the verifier fills:
        # its rows, each paired with a real diagonal, and their sizes,
        # which are those of the command's spec and its halt families.
        spec, family = {
            "theorem1": (twoqubit.channel_zonoid, limiting_family),
            "theorem8": (twoqubit.instrument_zonoid,
                         blocked_limiting_family)}[command]
        spec = spec()
        kappa, d, families = spec.kappa, spec.dim, len(family(spec)[1])
        assert cli._theorem_layout(command) == (kappa, d, families)
        seen = []
        residuals = zonoid._MembershipSolver.diagonal_residuals

        def record(self, table, operators):
            seen.append((operators.shape, operators.dtype, table.shape,
                         table.dtype))
            return residuals(self, table, operators)

        monkeypatch.setattr(zonoid._MembershipSolver, "diagonal_residuals",
                            record)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([command, "--samples", samples]) == 0
        n = int(samples) or 301
        rows = n + 1 + families * SIGMA_SAMPLES
        assert seen == [((rows, d), np.float64, (rows, kappa, kappa),
                         np.float64)]

    @pytest.mark.parametrize("command, family", [
        ("theorem1", limiting_family),
        ("theorem8", blocked_limiting_family),
    ])
    def test_theorem_estimate_counts_the_default_grid(self, command, family):
        # --samples 0 runs the verifier's dense grid; the estimate must
        # count as many s samples as that grid holds.
        (main,), _ = family()
        n = len(main.sample_grid(None))
        parse = cli._build_parser().parse_args
        assert cli.work_bytes(parse([command, "--samples", "0"])) == \
            cli.work_bytes(parse([command, "--samples", str(n)]))

    @pytest.mark.parametrize("argv", [
        ["choi", "--kraus", inline_kraus([np.ones((1, 4096))], (4096,), (1,))],
        ["distance", "--a", inline_kraus([np.ones((1, 4096))], (4096,), (1,)),
         "--b", inline_kraus([np.ones((1, 4096))], (4096,), (1,))],
        ["zonoid-check", "--basis",
         inline_kraus(matrix_units(16), (16,), (16,))],
        ["zonoid-check", "--basis",
         inline_kraus(np.random.default_rng(6).standard_normal((2, 64, 64)),
                      (64,), (64,), [[0, 1]])],
        # Wide bases: a d x d array on the input space alone is 8 GiB.
        ["zonoid-check", "--basis",
         inline_kraus([np.ones((1, 2 ** 15))], (2 ** 15,), (1,))],
        ["zonoid-check", "--basis",
         inline_kraus([np.eye(1, 2 ** 15)], (2 ** 15,), (1,))],
    ])
    def test_oversized_inputs_are_refused_before_any_work(
            self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("refused input reached the checker")

        for name in ("choi", "choi_distance", "membership",
                     "zonoid_spec_for_instrument"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(zonoid, "membership", refuse)
        monkeypatch.setattr(zonoid, "_MembershipSolver", refuse)
        tracemalloc.start()
        try:
            status = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "MiB budget" in captured.err

    @pytest.mark.parametrize("argv", [
        ["choi", "--kraus",
         inline_kraus(np.arange(192.0).reshape(2, 6, 16), (16,), (6,))],
        ["choi", "--kraus", inline_kraus(_complex_operators(2, 16), (16,),
                                         (16,))],
        ["distance", "--a", inline_kraus(np.ones((1, 4, 32)), (32,), (4,)),
         "--b", inline_kraus(np.ones((3, 8, 32)), (32,), (8,))],
        ["zonoid-check", "--basis", inline_kraus(matrix_units(5), (5,), (5,))],
        ["zonoid-check", "--basis",
         inline_kraus(np.random.default_rng(5).standard_normal((16, 16, 16)),
                      (16,), (16,))],
        ["zonoid-check", "--basis",
         inline_kraus([np.eye(24) / np.sqrt(2.0)] * 2, (24,), (24,),
                      [[0, 1]])],
        _face_search_argv(),
        _face_unit_argv(),
        _complex_face_argv(),
    ])
    def test_input_work_bytes_bound_the_run(self, argv):
        # The same run first, so lazily built tables are not counted.
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) in (0, 1)
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status in (0, 1)
        inputs = [serialize.instrument_from_json(json.loads(v))
                  if "partition" in v
                  else serialize.kraus_from_json(json.loads(v))
                  for flag, v in zip(argv[1::2], argv[2::2])
                  if flag != "--z"]
        args = cli._build_parser().parse_args(argv)
        z = getattr(args, "z", "identity")
        z = None if z == "identity" else matrix_from_json(json.loads(z))
        estimate = cli.work_bytes(args, *inputs, z=z)
        assert peak <= estimate <= 1.5 * peak

    @pytest.mark.parametrize("samples", ["-1", "100000000"])
    def test_convergence_study_refuses_samples_before_drawing(
            self, capsys, monkeypatch, samples):
        def refuse(*args, **kwargs):
            raise AssertionError("refused run drew directions")

        monkeypatch.setattr(zonoid, "_directions", refuse)
        monkeypatch.setattr(sys, "argv", ["convergence_study.py",
                                          "--samples", samples])
        with pytest.raises(SystemExit) as stop:
            runpy.run_path(str(STUDY), run_name="__main__")
        captured = capsys.readouterr()
        assert stop.value.code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["--nu-list", "10,x"],
        ["--nu-list", "0"],
        ["--c", "1.5"],
        ["--seed", "-1"],
        ["--nu-list", "100"],
    ])
    def test_convergence_study_refuses_rounds_before_any_row(
            self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("refused run computed a row")

        monkeypatch.setattr(loccverify, "path_distance_bound", refuse)
        monkeypatch.setattr(sys, "argv", ["convergence_study.py", *argv])
        with pytest.raises(SystemExit) as stop:
            runpy.run_path(str(STUDY), run_name="__main__")
        captured = capsys.readouterr()
        assert stop.value.code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:")

    def test_failed_check_is_1(self, capsys):
        big = matrix_to_json(1.5 * np.eye(4, dtype=complex))
        status, rep = run(capsys, "zonoid-check", "--z", dumps(big, indent=0),
                          "--basis", "twoqubit-minimal")
        assert status == 1
        assert rep["pass"] is False
        assert rep["values"]["feasible"] is False


class ReadRecorder(argparse.Namespace):
    """Namespace that records the names of the attributes read from it."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# Cheap arguments per subcommand; theorem1 reads --c only with --nu.
CHEAP_ARGV = {
    "choi": ["--kraus", "twoqubit-minimal"],
    "distance": ["--a", "twoqubit-minimal", "--b", "twoqubit-grouped"],
    "zonoid-check": [],
    "protocol": ["--nu", "2"],
    "paths": ["--nu", "2", "--grid", "3"],
    "theorem1": ["--nu", "10", "--samples", "2"],
    "theorem8": ["--samples", "2"],
    "paper-2q": ["--nu", "10"],
    "paper-pq": ["--parties", "2", "--nu-list", "10,20"],
    "wstate": [],
    "hausdorff": ["--nu-list", "10,20", "--samples", "1"],
}


def options(parser):
    """(prog, action) for every option of ``parser`` and its subparsers."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sp in action.choices.values():
                yield from options(sp)
        else:
            yield parser.prog, action


class TestDeclaredFlags:
    def test_every_numeric_flag_has_a_range(self):
        # A bare int or float type lets any value through, as --seed -1
        # once reached numpy; each default lies in its flag's range.
        parsers = [cli._build_parser(),
                   runpy.run_path(str(STUDY))["build_parser"]()]
        bare, outside = [], []
        for parser in parsers:
            for prog, action in options(parser):
                if action.type in (int, float):
                    bare.append((prog, action.dest))
                elif action.type is not None and action.default is not None:
                    if action.type(str(action.default)) != action.default:
                        outside.append((prog, action.dest))
        assert bare == [] and outside == []

    def test_every_declared_flag_is_read(self):
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(CHEAP_ARGV)
        unread = {}
        for command, argv in CHEAP_ARGV.items():
            ns = cli._build_parser().parse_args([command] + argv,
                                                namespace=ReadRecorder())
            declared = set(vars(ns)) - {"_reads", "command", "func"}
            func = ns.func
            ns._reads.clear()
            func(ns)
            if declared - ns._reads:
                unread[command] = sorted(declared - ns._reads)
        assert unread == {}

    def test_readme_table_matches_the_parser(self):
        # Each row of README's subcommand table lists exactly the flags the
        # subcommand declares, each with the parser's default: in
        # parentheses up to any ":", or for --c and --tol in the sentence
        # above the table. A flag with neither is required or a switch.
        text = README.read_text()
        stated = dict(re.findall(
            r"`(--[\w-]+)`\s+is\s+the\s[^,]*,\s+default\s+([^;)]+)", text))
        assert set(stated) == {"--c", "--tol"}
        rows = dict(re.findall(r"^\| `([\w-]+)` \|[^|]*\| (.*) \|$", text,
                               re.MULTILINE))
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert sorted(rows) == sorted(sub.choices)
        for command, flags in rows.items():
            listed = dict(re.findall(r"`(--[\w-]+)`(?: \(([^):]*))?",
                                     flags))
            declared = {a.option_strings[0]: a
                        for a in sub.choices[command]._actions
                        if not isinstance(a, argparse._HelpAction)}
            assert sorted(listed) == sorted(declared), command
            for flag, default in listed.items():
                action = declared[flag]
                default = default or stated.get(flag)
                if default is None:
                    assert action.required or action.default is False
                else:
                    assert (action.type or str)(default) == action.default, \
                        (command, flag)


class TestSubcommands:
    def test_choi_trace(self, capsys):
        status, rep = run(capsys, "choi", "--kraus", "twoqubit-grouped")
        assert status == 0
        assert rep["values"]["matrix"]["rows"] == 16

    def test_distance_of_equivalent_sets(self, capsys):
        status, rep = run(capsys, "distance", "--a", "twoqubit-minimal",
                          "--b", "twoqubit-grouped")
        assert status == 0
        assert rep["values"]["choi_distance"] < 1e-12

    def test_zonoid_check_identity(self, capsys):
        status, rep = run(capsys, "zonoid-check", "--z", "identity",
                          "--basis", "twoqubit-minimal")
        assert status == 0
        assert rep["values"]["residual"] < 1e-12
        assert rep["values"]["stop"] == "identity"
        assert rep["values"]["support_identity"] == pytest.approx(4.0)

    def test_zonoid_check_reports_the_separating_direction(self, capsys):
        z = inline([[0.5, 0.3], [0.3, 0.5]])
        status, rep = run(capsys, "zonoid-check", "--z", z,
                          "--basis", "square")
        assert status == 1
        values = rep["values"]
        assert (values["stop"], values["phase"]) == ("outside", "span")
        assert values["iterations"] == 0
        assert values["gap"] == pytest.approx(0.3 * np.sqrt(2.0), abs=1e-12)
        np.testing.assert_allclose(matrix_from_json(values["separating"]),
                                   [[0.0, 0.5 ** 0.5], [0.5 ** 0.5, 0.0]],
                                   rtol=0.0, atol=1e-15)
        status, rep = run(capsys, "zonoid-check", "--z", "identity",
                          "--basis", "square")
        assert rep["values"]["separating"] is None
        assert rep["values"]["gap"] is None

    def test_zonoid_check_reports_the_face_direction(self, capsys):
        # Breakpoint 111 of this main branch lies on the face <11|.|11> = 1;
        # the barrier solve answers it, and no face direction is reported.
        z = linalg.diagonal_stack(
            protocols.main_branch_path(2, 100, 0.5).diagonals[111])
        status, rep = run(capsys, "zonoid-check", "--z", inline(z),
                          "--tol", "1e-9")
        assert status == 0
        values = rep["values"]
        assert (values["phase"], values["stop"]) == ("barrier", "face")
        assert values["iterations"] > 0 and values["residual"] <= 1e-9
        assert "face_x" not in values

    def test_zonoid_check_small_bases(self, capsys):
        for basis in ("square", "interval"):
            status, rep = run(capsys, "zonoid-check", "--z", "identity",
                              "--basis", basis)
            assert status == 0
            assert rep["values"]["support_identity"] == pytest.approx(2.0)

    def test_protocol(self, capsys):
        status, rep = run(capsys, "protocol", "--parties", "2",
                          "--nu", "10", "--c", "0.5")
        assert status == 0
        assert rep["values"]["leaves"] == 21
        assert {"node-sums", "locality", "completeness"} <= \
            set(check_names(rep))

    def test_protocol_fails_on_non_product_leaves(self, capsys, monkeypatch):
        # Opposite Bell-like bumps on the last two sibling leaves leave
        # every leaf sum, the completeness and every party factor as they
        # were, so only the product check can see them.
        build = cli.build_protocol_pq

        def bumped(*args):
            tree = build(*args)
            halt = tree.node_at((1,) * 19 + (0,))
            main = tree.node_at((1,) * 20)
            bump = np.zeros((4, 4))
            bump[0, 3] = bump[3, 0] = 0.05
            halt.povm_element = halt.povm_element + bump
            main.povm_element = main.povm_element - bump
            return tree

        monkeypatch.setattr(cli, "build_protocol_pq", bumped)
        status, rep = run(capsys, "protocol", "--nu", "10")
        assert status == 1
        assert [c["name"] for c in rep["checks"] if not c["pass"]] == \
            ["product"]

    def test_paths(self, capsys):
        status, rep = run(capsys, "paths", "--parties", "2", "--nu", "100",
                          "--c", "0.5")
        assert status == 0
        assert rep["values"]["observed"] <= rep["values"]["bound"]

    def test_paths_names_the_worst_s(self, capsys):
        status, rep = run(capsys, "paths", "--nu", "100")
        assert status == 0
        (check,) = rep["checks"]
        assert check["where"] == "s=3.7975"
        status, rep = run(capsys, "paper-2q", "--nu", "100")
        assert rep["checks"][0]["name"] == "lemma1-bound"
        assert rep["checks"][0]["where"] == "s=3.7975"

    def test_theorem1(self, capsys):
        status, rep = run(capsys, "theorem1", "--samples", "7")
        assert status == 0
        assert "resolution" in check_names(rep)

    def test_theorem1_with_prelimit_values(self, capsys):
        status, rep = run(capsys, "theorem1", "--samples", "5",
                          "--nu", "50")
        assert status == 0
        pre = rep["values"]["prelimit"]
        assert len(pre["membership_residuals"]) == 11

    def test_paper_2q(self, capsys):
        status, rep = run(capsys, "paper-2q", "--nu", "1000", "--c", "0.5")
        assert status == 0
        assert rep["values"]["choi_offdiag"] == pytest.approx(2 / 3, abs=1e-9)
        assert rep["values"]["lemma1_max_distance"] <= \
            rep["values"]["lemma1_bound"]

    def test_paper_pq(self, capsys):
        status, rep = run(capsys, "paper-pq", "--parties", "2",
                          "--nu-list", "10,100")
        assert status == 0

    @pytest.mark.parametrize("parties", ["5", "6"])
    def test_paper_pq_over_the_whole_party_range(self, capsys, parties):
        status, rep = run(capsys, "paper-pq", "--parties", parties)
        assert status == 0
        assert rep["pass"] is True
        assert rep["values"]["parties"] == int(parties)

    def test_wstate(self, capsys):
        status, rep = run(capsys, "wstate")
        assert status == 0
        assert rep["values"]["probability"] == pytest.approx(0.5, abs=1e-9)
        assert rep["values"]["concurrence"] == pytest.approx(8 / 9, abs=1e-9)

    def test_hausdorff(self, capsys):
        status, rep = run(capsys, "hausdorff", "--nu-list", "50,500",
                          "--samples", "100")
        assert status == 0
        gaps = rep["values"]["estimates"]
        assert gaps[0] > gaps[1]

    def test_inline_matrix_input(self, capsys):
        z = matrix_to_json(np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))
        status, rep = run(capsys, "zonoid-check", "--z", dumps(z, indent=0),
                          "--basis", "twoqubit-minimal")
        assert status == 0
        assert rep["values"]["feasible"] is True

    def test_file_matrix_input(self, capsys, tmp_path):
        p = tmp_path / "z.json"
        p.write_text(dumps(matrix_to_json(np.eye(4, dtype=complex))))
        status, rep = run(capsys, "zonoid-check", "--z", str(p),
                          "--basis", "twoqubit-minimal")
        assert status == 0


def use_rule_for_quad_nodes(monkeypatch, order):
    """Give every request for the QUAD_NODES rule the ``order``-node rule."""
    exact = linalg._leggauss
    monkeypatch.setattr(linalg, "_leggauss", lambda nodes: exact(
        order if nodes == QUAD_NODES else nodes))


class TestQuadratureOrder:
    """Why every check integrates at QUAD_NODES and no flag changes it:
    the integrands have degree at most 11 in u = sqrt(sigma), so the Gauss
    sum of any rule of 6 or more nodes gives the same reports, and 5 nodes
    do not. The theorem checks take no rule: they integrate their halt
    families in closed form, from the families' polynomial tables."""

    @pytest.mark.parametrize("argv", [
        ["paper-2q"],
        ["paper-pq", "--parties", "2"],
        ["paper-pq", "--parties", "3"],
        ["paper-pq", "--parties", "4"],
        ["wstate"],
    ])
    def test_six_nodes_give_the_same_checks(self, capsys, monkeypatch, argv):
        _, want = run(capsys, *argv)
        use_rule_for_quad_nodes(monkeypatch, 6)
        _, got = run(capsys, *argv)
        assert [(c["name"], c["pass"]) for c in got["checks"]] == \
            [(c["name"], c["pass"]) for c in want["checks"]]
        for g, w in zip(got["checks"], want["checks"]):
            assert abs(g["defect"] - w["defect"]) <= 1e-12

    def test_coarse_grain_at_six_nodes(self):
        assert abs(coarse_grain_check(nodes=6).max_defect
                   - coarse_grain_check().max_defect) <= 1e-12

    def test_five_nodes_fail_the_quadrature_match(self, capsys, monkeypatch):
        use_rule_for_quad_nodes(monkeypatch, 5)
        status, rep = run(capsys, "paper-pq")
        assert status == 1
        assert [c["name"] for c in rep["checks"] if not c["pass"]] == \
            ["quadrature-match"]


class TestHugeRounds:
    """Pre-limit subcommands at 10^12 rounds never build the step table."""

    @pytest.mark.parametrize("argv", [
        ["paths", "--parties", "6", "--nu", "1000000000000"],
        ["paper-2q", "--nu", "1000000000000"],
        ["hausdorff", "--nu-list", "10,1000000000000", "--samples", "50"],
        ["paper-pq", "--parties", "4", "--nu-list", "10,100,1000000000000"],
        ["theorem1", "--nu", "1000000000000", "--samples", "3"],
    ])
    def test_runs_without_the_step_table(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("step table built")

        monkeypatch.setattr(protocols, "_built_table", refuse)
        status, rep = run(capsys, *argv)
        assert status == 0
        assert rep["pass"] is True


class TestVerificationSuite:
    def test_every_battery_command_passes(self, capsys, monkeypatch):
        suite = runpy.run_path(str(SUITE))
        monkeypatch.setattr(sys, "argv", ["run_verification_suite.py"])
        assert suite["main"]() == 0
        lines = capsys.readouterr().out.splitlines()
        ok = [line for line in lines if line.startswith("[ok  ]")]
        assert len(suite["BATTERY"]) == 13
        assert len(ok) == 13
        for line, (argv, _) in zip(ok, suite["BATTERY"]):
            assert line.startswith(f"[ok  ] {' '.join(argv)} ")

    @pytest.mark.parametrize("argv", BATTERY)
    def test_every_battery_report_is_a_dumps_fixed_point(self, capsys, argv):
        cli.main(argv)
        out = capsys.readouterr().out
        assert out == dumps(json.loads(out)) + "\n"
