"""The JSON artifact writer, pinned byte for byte against ``json.dumps(..., indent=1)``."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_state, random_unitary4, written
from qimgload.artifacts import CSV_CHUNK_ROWS, dump, dumps
from qimgload.circuit import LayeredCircuit, serialize, staircase_sites
from qimgload.mps import from_dense, mps_to_dict

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e16, 1e-7, 0.1, 1 / 3]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
AWKWARD_TEXT = 'a "quoted" \\ back\\slash, é, 中文, \n, %s %% and  '


def plain(obj):
    """`obj` with every ndarray replaced by its tolist(): what json.dumps is given."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def assert_json_text(obj):
    expected = json.dumps(plain(obj), indent=1)
    assert dumps(obj) == expected
    assert written(dump, obj) == expected


def reference_circuit_text(c: LayeredCircuit) -> bytes:
    """circuit.json through json.dumps: each gate's real part, and its imaginary part
    when any of them is nonzero."""

    def matrix(m):
        entry = {"real": np.real(m).tolist()}
        if np.iscomplexobj(m) and np.any(np.imag(m) != 0):
            entry["imag"] = np.imag(m).tolist()
        return entry

    layers = [
        [{"site": s, "matrix": matrix(m)} for s, m in zip(sites, gates)]
        for sites, gates in zip(c.sites.tolist(), c.gates)
    ]
    d = {"version": 1, "n_qubits": c.n_qubits, "layers": layers, "provenance": c.provenance}
    return json.dumps(d, indent=1).encode()


class TestCircuitText:
    @pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
    def test_equals_json_dumps(self, rng, kind):
        # "mixed": a complex stack where every other gate has zero imaginary parts
        n, depth = 4, 2
        gates = np.array([random_unitary4(rng, kind == "complex" or (kind == "mixed" and k % 2))
                          for k in range(depth * (n - 1))]).reshape(depth, n - 1, 4, 4)
        provenance = {"method": "iterative", "target_image": AWKWARD_TEXT, "chi_max": 8}
        c = LayeredCircuit(n, staircase_sites(n, depth), gates, provenance=provenance)
        text = serialize(c)
        assert text == reference_circuit_text(c)
        if kind == "mixed":
            layers = json.loads(text)["layers"]
            assert [("imag" in g["matrix"]) for g in layers[0]] == [False, True, False]

    def test_edge_floats_in_gate_entries(self):
        # a permutation's zeros given both signs, and a unitary with a subnormal entry
        swap = np.eye(4)[[0, 2, 1, 3]]
        swap[swap == 0] = np.where(np.arange(12) % 2, 0.0, -0.0)
        tiny = np.eye(4)
        tiny[1, 2] = 5e-324
        gates = np.array([[swap, tiny, -swap]])
        c = LayeredCircuit(4, staircase_sites(4), gates, provenance={"scale": 1e300})
        text = serialize(c)
        assert text == reference_circuit_text(c)
        assert b"-0.0" in text and b"5e-324" in text and b"1e+300" in text


class TestWriter:
    def test_edge_floats(self):
        array = np.array(EDGE_FLOATS)
        assert_json_text({"array": array, "grid": array.reshape(2, 5), "list": EDGE_FLOATS,
                          "scalars": {str(v): v for v in EDGE_FLOATS}})

    def test_non_finite_floats_are_written_as_json_writes_them(self):
        # json writes NaN, Infinity and -Infinity, not Python's nan and inf
        values = EDGE_FLOATS + NON_FINITE
        array = np.array(values[:12])
        doc = {"array": array, "grid": array.reshape(3, 4), "list": values,
               "scalar": NON_FINITE[0], NON_FINITE[1]: 1}
        assert_json_text(doc)
        text = dumps(doc)
        assert "NaN" in text and "-Infinity" in text and "nan" not in text

    def test_strings_keys_and_scalars(self):
        assert_json_text({
            AWKWARD_TEXT: [AWKWARD_TEXT, True, False, None, 0, -(2**70)],
            1: "int key", 2.5: "float key", True: "bool key", None: "null key",
            "empty": [[], {}, (), np.zeros(0), np.zeros((2, 0))],
            "ints": np.arange(3), "bools": np.array([True, False]), "tuple": (1.5, "x"),
        })

    def test_chunked_array_crosses_chunk_boundaries(self):
        values = random_state(np.random.default_rng(5), 13)  # 2 chunks of 4096
        values[CSV_CHUNK_ROWS + 3] = float("nan")  # only the second chunk holds one
        assert values.size > CSV_CHUNK_ROWS
        assert_json_text({"amplitudes": values, "as_list": values[:CSV_CHUNK_ROWS + 1].tolist()})

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_mps_container(self, rng, complex_valued):
        m, weights = from_dense(random_state(rng, 6, complex_valued), chi_max=4)
        meta = {"ordering": "interleaved-snake", "provenance": {"tool": AWKWARD_TEXT},
                "truncation": {"per_bond": list(weights), "total": float(sum(weights))}}
        d = mps_to_dict(m, meta)
        assert all(("imag" in t) == complex_valued for t in d["tensors"])
        assert_json_text(d)

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
        | hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
        | st.lists(st.floats(), max_size=5),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3) | st.integers() | st.floats(), inner, max_size=3),
        max_leaves=12,
    ))
    def test_any_document(self, obj):
        assert_json_text(obj)
