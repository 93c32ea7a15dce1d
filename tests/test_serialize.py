"""Round-trip and determinism tests for the JSON interchange layer."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from loccverify import Instrument, PartyDims, two_qubit_instrument
from loccverify.serialize import (
    dumps,
    instrument_from_json,
    kraus_from_json,
    kraus_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
)

from conftest import random_channel

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)


# dumps of the object in TestDumps.test_exact_layout at indent=2.
EXACT_LAYOUT = r"""{
  "empty": {
    "dict": {},
    "list": []
  },
  "flags": [
    null,
    true,
    false,
    3
  ],
  "floats": [2.0, -0.5, 0.10000000000000001, 0.33333333333333331, 1e-300, 1e+20],
  "ints": [1, -2, 30],
  "matrix": {
    "cols": 2,
    "data": [
      [1.0, 0.0],
      [0.0, 2.0],
      [-0.5, 0.0],
      [1.0, 1.0]
    ],
    "rows": 2
  },
  "numpy": {
    "f": 0.25,
    "h": 1.5,
    "i": 7,
    "row": [0, 1, 2]
  },
  "scalar": 12,
  "text": ["say \"hi\"", "back\\slash", "tab\tline\n", "\u00e9"]
}"""


class TestMatrixRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (3, 4), elements=finite),
           arrays(np.float64, (3, 4), elements=finite))
    def test_exact_round_trip(self, re, im):
        m = re + 1j * im
        got = matrix_from_json(matrix_to_json(m))
        np.testing.assert_array_equal(got, m)

    def test_layout_is_row_major_pairs(self):
        m = np.array([[1.0, 2.0 + 3.0j]])
        obj = matrix_to_json(m)
        assert obj == {"rows": 1, "cols": 2,
                       "data": [[1.0, 0.0], [2.0, 3.0]]}

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            matrix_to_json(np.zeros(3))
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "data": []})

    @pytest.mark.parametrize("rows, cols", [
        (float("inf"), 2), (2, float("inf")), (2.5, 2), (-2, -2),
        (True, 4), ("2", 2)])
    def test_counts_are_whole_numbers(self, rows, cols):
        data = [[1.0, 0.0]] * 4
        with pytest.raises(ValueError, match="whole number"):
            matrix_from_json({"rows": rows, "cols": cols, "data": data})

    def test_whole_float_counts_are_read(self):
        got = matrix_from_json({"rows": 2.0, "cols": 1.0,
                                "data": [[1.0, 0.0], [2.0, 0.0]]})
        np.testing.assert_array_equal(got, [[1.0], [2.0]])


class TestChannelRoundTrip:
    def test_kraus(self, rng):
        k = random_channel(PartyDims((2, 2)), 3, rng)
        got = kraus_from_json(kraus_to_json(k))
        np.testing.assert_array_equal(got.operators, k.operators)
        assert got.input_dims.dims == k.input_dims.dims
        assert got.output_dims.dims == k.output_dims.dims

    def test_instrument(self):
        inst = two_qubit_instrument().instrument
        obj = kraus_to_json(inst.kraus)
        obj["partition"] = [list(part) for part in inst.partition]
        got = instrument_from_json(obj)
        assert got.partition == inst.partition
        np.testing.assert_array_equal(got.kraus.operators,
                                      inst.kraus.operators)

    def test_partition_required(self):
        obj = kraus_to_json(two_qubit_instrument().minimal)
        with pytest.raises(ValueError):
            instrument_from_json(obj)


class TestDumps:
    def test_sorted_keys_and_shape(self):
        text = dumps({"b": 1, "a": [1.5, 2.0], "c": {"y": True, "x": None}})
        parsed = json.loads(text)
        assert parsed == {"a": [1.5, 2.0], "b": 1,
                          "c": {"x": None, "y": True}}
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')

    def test_float_formats(self):
        assert dumps(2.0) == "2.0"
        assert dumps(0.1) == "0.10000000000000001"
        assert json.loads(dumps(0.1)) == 0.1

    def test_seventeen_digit_round_trip(self):
        vals = [1 / 3, np.pi, 2.0 / 3.0, 1e-300, 123456.789]
        for v in vals:
            assert json.loads(dumps(v)) == v

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dumps(float("nan"))
        with pytest.raises(ValueError):
            dumps({"x": float("inf")})

    def test_numpy_scalars(self):
        text = dumps({"a": np.float64(0.5), "b": np.int64(3)})
        assert json.loads(text) == {"a": 0.5, "b": 3}

    def test_matrices_embed(self):
        text = dumps({"m": np.eye(2, dtype=complex)})
        parsed = json.loads(text)
        assert parsed["m"]["rows"] == 2
        np.testing.assert_array_equal(
            matrix_from_json(parsed["m"]), np.eye(2))

    def test_exact_layout(self):
        obj = {
            "ints": [1, -2, 30],
            "floats": [2.0, -0.5, 0.1, 1 / 3, 1e-300, 1e20],
            "numpy": {"f": np.float64(0.25), "h": np.float32(1.5),
                      "i": np.int64(7), "row": np.arange(3)},
            "text": ['say "hi"', "back\\slash", "tab\tline\n", "\u00e9"],
            "flags": [None, True, False, 3],
            "empty": {"dict": {}, "list": []},
            "matrix": np.array([[1.0, 2.0j], [-0.5, 1.0 + 1.0j]]),
            "scalar": 12,
        }
        assert dumps(obj, indent=2) == EXACT_LAYOUT
        assert dumps(obj, indent=0) == "\n".join(
            line.lstrip() for line in EXACT_LAYOUT.splitlines())

    def test_determinism(self):
        obj = {"z": [1.0, {"k": 2.5}], "a": (1, 2)}
        assert dumps(obj) == dumps(obj)

    def test_large_complex_matrix_bytes_are_pinned(self):
        # A seeded 256 x 256 complex matrix, the size of a choi report on
        # two 16 x 16 operators, with signed zeros, a whole float, 1e20
        # and 1e-300 in its first row: the SHA-256 of its bytes at both
        # indents, as the general recursive writer printed them.
        rng = np.random.default_rng(16)
        m = rng.standard_normal((256, 256)) + 1j * rng.standard_normal(
            (256, 256))
        m[0, :4] = [complex(-0.0, -0.0), 1j, 1e20, 3.0 - 1e-300j]
        obj = {"matrix": matrix_to_json(m), "rows": [[], [1.0], [0.5, -2.0]]}
        digests = {indent: hashlib.sha256(dumps(obj, indent).encode())
                   .hexdigest() for indent in (2, 0)}
        assert digests == {
            2: "20e07ebb0a4de1911957a43586485314defb77d844897f0be31eb2485d68e92d",
            0: "b10d734d344f49a2a23d801d488dd87f8b6c55b9039575bfd32d6389a19439d3",
        }

    @given(arrays(np.float64, st.tuples(st.integers(1, 4),
                                        st.integers(0, 3)), elements=finite))
    @settings(max_examples=50, deadline=None)
    def test_rows_of_floats_print_as_numpy_rows(self, rows):
        # Rows of Python floats take the row-by-row route; the same rows of
        # numpy floats take the general recursion. Both print alike.
        plain = rows.tolist()
        boxed = [[np.float64(x) for x in row] for row in plain]
        assert dumps({"r": plain}) == dumps({"r": boxed})
        assert json.loads(dumps(plain)) == plain

    def test_non_finite_row_entry_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            dumps([[1.0, float("nan")]])

    def test_unserializable_type(self):
        with pytest.raises(TypeError):
            dumps({"f": object()})


class TestLoadJson:
    def test_reads_file(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(dumps(matrix_to_json(np.eye(2, dtype=complex))))
        got = matrix_from_json(load_json(str(p)))
        np.testing.assert_array_equal(got, np.eye(2))
