"""The package's exported names."""

import re
import types
from pathlib import Path

import pytest

import loccverify
from loccverify import linalg, protocols, serialize, twoqubit, zonoid

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
])
def test_retired_names_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(loccverify, name)
    # As a whole word: limit_path_diagonals is not the retired limit_path.
    assert not re.search(rf"(?<!\w){name}(?!\w)", README.read_text())
