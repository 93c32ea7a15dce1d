"""The package's exported names."""

import re
import types
from pathlib import Path

import pytest

import loccverify
from loccverify import (channels, linalg, protocols, serialize, twoqubit,
                        zonoid)

README = Path(__file__).resolve().parent.parent / "README.md"


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
])
def test_retired_names_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(loccverify, name)
    # As a whole word: limit_path_diagonals is not the retired limit_path.
    assert not re.search(rf"(?<!\w){name}(?!\w)", README.read_text())


def test_tree_navigation_views_are_gone():
    # Nodes are reached through node_at; the caterpillar's shape is closed
    # form, so a tree has no walking API.
    for name in ("root", "iter_nodes", "leaves"):
        assert not hasattr(protocols.ProtocolTree, name)
    for name in ("children", "acting_party", "is_leaf"):
        assert not hasattr(protocols.NodeView, name)
