"""The JSON writer and the state-file reader."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luequiv.errors import ParseError
from luequiv.io import dump_json, load_state, matrix_to_pairs, pairs_to_matrix

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, math.nan,
                  math.inf, -math.inf, 1e300, 0.1]
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL_FLOATS)
ints = st.integers() | st.sampled_from([2 ** 64, -(10 ** 30), 10 ** 100])
text = st.text() | st.sampled_from(["", "é", "\x00\x1f\x7f", " ", "\U0001f600", '"\\'])
complexes = st.builds(complex, floats, floats)
# a NaN with the sign bit set and a payload other than the default one
SIGNED_NAN = float(np.uint64(0xFFF8_0000_0000_1234).view(float))
REPEATS = [0.0, -0.0, SIGNED_NAN, math.nan, math.inf, -math.inf, 0.1]
POOL = [complex(a, b) for a in REPEATS for b in REPEATS]
leaves = (
    st.none() | st.booleans() | ints | floats | text | complexes
    | st.builds(np.float64, floats)
)
docs = st.recursive(
    leaves,
    lambda kids: (
        st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(text, kids, max_size=4)
        | st.dictionaries(text, complexes, max_size=4)  # the one-pass table
        | st.dictionaries(text, st.sampled_from(POOL), max_size=12)  # repeated values
    ),
    max_leaves=20,
)


def as_pairs(o):
    """``o`` with every complex replaced by its [re, im] list."""
    if isinstance(o, complex):
        return [o.real, o.imag]
    if isinstance(o, dict):
        return {k: as_pairs(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [as_pairs(v) for v in o]
    return o


class TestDumpJson:
    @given(docs)
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_the_standard_library(self, doc):
        assert dump_json(doc) == json.dumps(as_pairs(doc), sort_keys=True, indent=2) + "\n"

    def test_complex_table_with_special_values(self):
        table = {"b": complex(-0.0, math.nan), "a": np.complex128(math.inf, -0.0), "c": 1j}
        for doc in (table, {"t": table, "u": [table]}):
            assert dump_json(doc) == json.dumps(as_pairs(doc), sort_keys=True, indent=2) + "\n"

    def test_complex_table_with_shared_bit_patterns(self):
        # each bit pattern is formatted once: 0.0 and -0.0, and the NaNs,
        # must still keep their own text under every key they appear
        table = {f"k{k:03d}": POOL[(7 * k) % len(POOL)] for k in range(3 * len(POOL))}
        assert dump_json(table) == json.dumps(as_pairs(table), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("leaf", [object(), np.int64(1), {1, 2}, b"bytes"])
    def test_unsupported_leaf(self, leaf):
        with pytest.raises(TypeError):
            json.dumps({"k": [leaf]})
        with pytest.raises(TypeError):
            dump_json({"k": [leaf]})


class TestMatrixToPairs:
    def test_transposed_input_keeps_every_bit(self):
        m = np.array([[1 + 2j, complex(-0.0, SIGNED_NAN), 0.5],
                      [complex(math.inf, 0.0), complex(-0.0, -0.0), -3j]]).T
        assert not m.flags.c_contiguous
        got = matrix_to_pairs(m)
        want = [[[z.real, z.imag] for z in row] for row in m.tolist()]
        assert {type(x) for row in got for pair in row for x in pair} == {float}
        assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


class TestPairsToMatrix:
    def test_numbers(self):
        m = pairs_to_matrix([[[1, 0.5], [-0.0, 2]]])
        assert m.dtype == complex and m.tolist() == [[1 + 0.5j, 2j]]

    @pytest.mark.parametrize("entry", [
        "12",            # a string used to parse as 1+2j
        [1, 2, 3],       # a triple used to drop its third number
        [True, False],   # booleans used to parse as 1+0j
        [1],
        [1, "2"],
        [None, 0],
        {"re": 1, "im": 0},
        1.0,
        [10 ** 400, 0],
    ])
    def test_rejects_malformed_entries(self, entry):
        with pytest.raises(ParseError):
            pairs_to_matrix([[[0.5, 0.0], entry]])


class TestLoadState:
    """Both header fields are exact JSON integers; anything else is a ParseError."""

    @staticmethod
    def write(tmp_path, **fields):
        doc = {"schema_version": 1, "local_dim": 1, "matrix": [[[1.0, 0.0]]], **fields}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        return path

    def test_integer_fields_load(self, tmp_path):
        rho, _ = load_state(self.write(tmp_path))
        assert rho.dim_local == 1

    def test_unvalidated_matrix_is_read_only(self, tmp_path):
        # so the spectrum a DensityMatrix caches cannot go stale
        for validate in (True, False):
            rho, _ = load_state(self.write(tmp_path), validate=validate)
            with pytest.raises(ValueError):
                rho.matrix[0, 0] = 0.5

    @pytest.mark.parametrize("local_dim", ["abc", None, 2.7, 1.0, True, 0, -1, "1"])
    def test_rejects_local_dim(self, tmp_path, local_dim):
        for validate in (True, False):
            with pytest.raises(ParseError, match="local_dim"):
                load_state(self.write(tmp_path, local_dim=local_dim), validate=validate)

    @pytest.mark.parametrize("version", [True, 1.0, "1", None, 2])
    def test_rejects_schema_version(self, tmp_path, version):
        with pytest.raises(ParseError, match="schema_version"):
            load_state(self.write(tmp_path, schema_version=version))
