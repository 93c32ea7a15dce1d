"""The package's exported names and the seams between its modules."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import loccverify
from loccverify import (channels, conditions, linalg, pqubit, protocols,
                        serialize, twoqubit, zonoid)

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = Path(loccverify.__file__).resolve().parent


def test_all_names_exactly_the_bound_public_names():
    bound = {name for name, value in vars(loccverify).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert sorted(loccverify.__all__) == sorted(bound)
    assert len(set(loccverify.__all__)) == len(loccverify.__all__)


@pytest.mark.parametrize("module, name", [
    (protocols, "limit_path"),
    (protocols, "c_matrix_family"),
    (twoqubit, "limiting_povm"),
    (twoqubit, "_halt_diag"),
    (serialize, "instrument_to_json"),
    (protocols, "ProtocolNode"),
    (zonoid, "cmatrix_resolution_check"),
    (protocols, "limit_path_stack"),
    (linalg, "psd_check"),
    (linalg, "PsdReport"),
    (channels, "apply"),
    (channels, "_check_density"),
    (linalg, "cumulative_sqrt_smooth"),
    (protocols, "derivative_outcomes"),
    (linalg, "gauss_legendre"),
    (pqubit, "PQubitSpec"),
    (pqubit, "pqubit_spec"),
    (linalg, "is_hermitian"),
    (linalg, "cumulative_weights"),
    (linalg, "_legendre_rows"),
    (linalg, "sqrt_smooth_nodes"),
    (linalg, "sqrt_smooth_total"),
    (linalg, "_per_node"),
    (linalg, "_node_values"),
    (conditions, "_coefficients"),
    (conditions, "_residuals"),
    (conditions, "_as_matrix"),
    (conditions, "_parent_witnesses"),
    (twoqubit, "_reduced_table"),
    (twoqubit, "_blocked_table"),
    (twoqubit, "_BLOCKED_TABLES"),
    (twoqubit, "_limit_family"),
])
def test_retired_names_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(loccverify, name)
    # As a whole word: limit_path_diagonals is not the retired limit_path.
    assert not re.search(rf"(?<!\w){name}(?!\w)", README.read_text())


def test_verifier_inputs_are_tables_and_diagonals():
    # A halt family is its table; a path hands in real diagonals and no
    # witness family of its own.
    assert [f.name for f in dataclasses.fields(conditions.EndpointFamily)] \
        == ["label", "parent", "table"]
    assert [f.name for f in dataclasses.fields(conditions.CheckedPath)] == [
        "label", "op_at", "s_top", "s_bottom"]
    assert not hasattr(conditions.EndpointFamily, "rank_one")


def test_coefficient_matrix_has_no_eigenvalues():
    # Nothing called it; the verifier takes every spectrum from its one
    # stacked eigvalsh.
    assert not hasattr(zonoid.CoefficientMatrix, "eigenvalues")


def test_tree_navigation_views_are_gone():
    # Nodes are reached through node_at; the caterpillar's shape is closed
    # form, so a tree has no walking API.
    for name in ("root", "iter_nodes", "leaves"):
        assert not hasattr(protocols.ProtocolTree, name)
    for name in ("children", "acting_party", "is_leaf"):
        assert not hasattr(protocols.NodeView, name)


def test_every_benchmark_span_target_is_bound_on_its_module():
    # The benchmark wraps these functions by home module and name, so a
    # move that drops a binding breaks its traced runs.
    loader = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    for mod, funcs in spans.TARGETS.items():
        home = importlib.import_module(f"{spans.PACKAGE}.{mod}")
        for fn in funcs:
            assert callable(getattr(home, fn, None)), f"{mod}.{fn}"


# Run in a fresh interpreter: the test process has imported everything.
COLD_CHILD = """
import sys
import loccverify as lv
from loccverify import cli, zonoid
lv.limiting_choi_2q()
spec = lv.channel_zonoid()
paths, families = lv.limiting_family(spec)
assert lv.verify_theorem_conditions(spec, paths, families, s_samples=5).passed
assert lv.path_distance_bound(2, 900, 0.5).passed
zonoid.zonoid_bytes(cli._BASES["twoqubit-blocks"](), True)
print(" ".join(name for name in sys.modules
               if name.split(".")[:2] in (["numpy", "polynomial"],
                                          ["numpy", "ma"])))
"""


def test_first_calls_import_neither_polynomial_nor_masked_arrays():
    # Either import costs milliseconds in a fresh process: numpy.polynomial
    # on the first quadrature, numpy.ma on np.unique(..., axis=0).
    out = subprocess.run([sys.executable, "-c", COLD_CHILD],
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_module_seams():
    # The finite protocol does not reach the zonoid layer, the condition
    # verifier is generic over paths, and the worked example's closed
    # forms live beside the basis whose order they assume.
    trees = {path.stem: ast.parse(path.read_text())
             for path in PACKAGE.glob("*.py")}

    def sources(name):
        return {node.module for node in ast.walk(trees[name])
                if isinstance(node, ast.ImportFrom) and node.level == 1}

    assert "zonoid" not in sources("protocols")
    assert not sources("conditions") & {"protocols", "twoqubit", "pqubit"}
    # One builder makes every halt table the package hands out.
    builds = {name for name, tree in trees.items()
              for node in ast.walk(tree) if isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              == "FamilyTable"}
    assert builds == {"pqubit"}
    defines = [name for name, tree in trees.items()
               if any(isinstance(node, ast.FunctionDef)
                      and node.name == "c_matrix_stack"
                      for node in tree.body)]
    assert defines == ["twoqubit"]
