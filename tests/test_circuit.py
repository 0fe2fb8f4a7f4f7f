"""Layered circuits, isometry completion, and the exact chi=2 staircase
conversion, verified against the dense simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CHI2_KINDS,
    identity_circuit,
    random_chi2_mps,
    random_staircase_circuit,
    random_unitary4,
)
from qimgload.circuit import (
    LayeredCircuit,
    circuit_from_dict,
    circuit_to_dict,
    cnot_count,
    deserialize,
    layer_from_chi2_mps,
    serialize,
    staircase_sites,
)
from qimgload.compiler import _undo_layer
from qimgload.errors import InputFormatError, ValidationError
from qimgload.mps import from_dense, to_dense, truncate
from qimgload.simulator import run

EYES = np.broadcast_to(np.eye(4), (1, 3, 4, 4))  # one layer of identities on 4 qubits


class TestLayeredCircuit:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError, match="gate at site 0 is not unitary"):
            LayeredCircuit(2, [[0]], [[np.ones((4, 4))]])

    def test_names_the_site_of_the_bad_gate(self, rng):
        gates = np.array(random_staircase_circuit(rng, 4, 2).gates)
        gates[1, 2] *= 1.001  # second layer, pair (0, 1)
        with pytest.raises(ValidationError, match="gate at site 0 is not unitary"):
            LayeredCircuit(4, staircase_sites(4, 2), gates)

    def test_requires_full_staircase(self):
        with pytest.raises(ValidationError):
            LayeredCircuit(3, [[0, 0]], EYES[:, :2])  # pair (0, 1) twice, (1, 2) never
        with pytest.raises(ValidationError):
            LayeredCircuit(2, [[1]], EYES[:, :1])  # no gate on the only pair

    def test_any_application_order_allowed(self):
        c = LayeredCircuit(4, [[1, 0, 2]], EYES)
        assert c.n_qubits == 4
        assert [site for site, _ in c.all_gates()] == [1, 0, 2]

    def test_depth_and_gate_order(self, rng):
        c = random_staircase_circuit(rng, 5, 3)
        assert c.depth == 3
        assert [site for site, _ in c.all_gates()] == [3, 2, 1, 0] * 3
        for (_, matrix), want in zip(c.all_gates(), c.gates.reshape(-1, 4, 4)):
            np.testing.assert_array_equal(matrix, want)

    def test_layer_size_must_match(self):
        with pytest.raises(ValidationError):
            LayeredCircuit(5, [[0, 1, 2]], EYES)

    def test_arrays_are_read_only(self, rng):
        c = random_staircase_circuit(rng, 3, 1)
        with pytest.raises(ValueError):
            c.gates[0, 0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            c.sites[0, 0] = 1


def _gate(site, real=np.eye(4).tolist()):
    return {"site": site, "matrix": {"real": real}}


class TestCircuitFromDict:
    def test_valid_payload(self):
        c = circuit_from_dict({"version": 1, "n_qubits": 3, "layers": [[_gate(1), _gate(0)]]})
        assert c.sites.tolist() == [[1, 0]]

    @pytest.mark.parametrize(
        "layers",
        [
            pytest.param([], id="no-layers"),
            pytest.param([[]], id="empty-layer"),
            pytest.param([[_gate(1.0), _gate(0)]], id="float-site"),
            pytest.param([[_gate("1"), _gate(0)]], id="string-site"),
            pytest.param([[_gate(None), _gate(0)]], id="null-site"),
            pytest.param([[_gate(2**70), _gate(0)]], id="huge-site"),
            pytest.param([[_gate([1]), _gate(0)]], id="list-site"),
            pytest.param([[_gate(0), _gate(0)]], id="duplicated-pair"),
            pytest.param([[_gate(2), _gate(0)]], id="site-out-of-range"),
            pytest.param([[_gate(1), _gate(0)], [_gate(0)]], id="layers-of-different-lengths"),
            pytest.param([[_gate(1), _gate(0), _gate(2)]], id="layer-too-long"),
            pytest.param([[_gate(1), _gate(0, np.eye(3).tolist())]], id="3x3-matrix"),
            pytest.param([[_gate(1, np.eye(3).tolist()), _gate(0, np.eye(3).tolist())]],
                         id="all-3x3"),
            pytest.param([[_gate(1), _gate(0, [[1.0, 0.0]])]], id="ragged-matrix"),
            pytest.param([[_gate(1), _gate(0, 1.0)]], id="scalar-matrix"),
            pytest.param([[_gate(1), _gate(0, np.ones((4, 4)).tolist())]], id="non-unitary"),
            pytest.param([[_gate(1), {"site": 0, "matrix": []}]], id="matrix-not-object"),
            pytest.param([[_gate(1), {"site": 0}]], id="missing-matrix"),
            pytest.param([5], id="layer-not-list"),
            pytest.param(7, id="layers-not-list"),
        ],
    )
    def test_bad_payload_rejected(self, layers):
        payload = {"version": 1, "n_qubits": 3, "layers": layers}
        with pytest.raises((InputFormatError, ValidationError)):
            circuit_from_dict(payload)

    @pytest.mark.parametrize("n_qubits", [3.0, "3", None, 1, -3, 2**70])
    def test_bad_qubit_count_rejected(self, n_qubits):
        payload = {"version": 1, "n_qubits": n_qubits, "layers": [[_gate(1), _gate(0)]]}
        with pytest.raises((InputFormatError, ValidationError)):
            circuit_from_dict(payload)


class TestCnotCount:
    def test_formula(self, rng):
        # [DERIVED] two CNOT-equivalents per staircase gate
        assert cnot_count(random_staircase_circuit(rng, 8, 3)) == 42
        assert cnot_count(random_staircase_circuit(rng, 10, 10)) == 180

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=9))
    @settings(max_examples=20, deadline=None)
    def test_scales_linearly(self, n, d):
        assert cnot_count(identity_circuit(n, d)) == 2 * d * (n - 1)


class TestEmbedIsometry:
    def test_rejects_non_isometry(self, rng):
        # a site tensor whose 4x2 block has non-orthonormal columns is never
        # completed to a gate, even when every other tensor is an isometry
        m = random_chi2_mps(rng, 4)
        assert m.tensors[2].shape == (2, 2, 2)
        tensors = list(m.tensors)
        tensors[2] = np.ones((2, 2, 2))
        with pytest.raises(ValidationError, match="not left-canonical"):
            layer_from_chi2_mps(type(m)(tuple(tensors), canonical_form="left"))


class TestLayerFromChi2Mps:
    def test_single_layer_prepares_state_exactly(self, rng):
        # the core exactness guarantee: one staircase layer, zero error
        for n in (2, 3, 4, 6, 8):
            for kind in CHI2_KINDS:
                m = random_chi2_mps(rng, n, kind)
                circuit = LayeredCircuit(n, staircase_sites(n), layer_from_chi2_mps(m)[None])
                fidelity = abs(np.vdot(run(circuit), to_dense(m)))
                assert fidelity == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", CHI2_KINDS)
    def test_unitary_gates_around_the_mps_isometries(self, rng, kind):
        # each gate's state columns are its MPS isometry, bit for bit, zero-padded to 4 rows;
        # the pair (0, 1) gate, applied last, holds the first two tensors fused
        for n in (2, 3, 5, 8):
            m = random_chi2_mps(rng, n, kind)
            assert m.max_bond == (1 if kind == "product" else 2)
            layer = layer_from_chi2_mps(m)
            assert layer.shape == (n - 1, 4, 4)
            assert layer.dtype == (complex if kind == "complex" else float)
            defect = np.abs(layer.conj().swapaxes(1, 2) @ layer - np.eye(4)).max()
            assert defect < 1e-12
            fused = np.tensordot(m.tensors[0][0], m.tensors[1], axes=(1, 0))
            isometries = [a.reshape(-1, a.shape[2]) for a in m.tensors[:1:-1]]
            for gate, v in zip(layer, isometries + [fused.reshape(4, -1)]):
                np.testing.assert_array_equal(gate[: len(v), : v.shape[1]], v)
                assert not gate[len(v):, : v.shape[1]].any()

    def test_gate_application_order(self, rng):
        # the first gate (pair (3, 4)) embeds the last site tensor
        m = random_chi2_mps(rng, 5)
        layer = layer_from_chi2_mps(m)
        assert layer.shape == (4, 4, 4)
        assert staircase_sites(5).tolist() == [[3, 2, 1, 0]]
        left = m.tensors[-1].shape[0]
        np.testing.assert_array_equal(layer[0][: 2 * left, :1], m.tensors[-1].reshape(-1, 1))

    def test_rejects_large_bond(self, rng):
        m, _ = from_dense(np.linalg.qr(rng.standard_normal((16, 1)))[0][:, 0])
        with pytest.raises(ValidationError):
            layer_from_chi2_mps(m)
        truncated, _ = truncate(m, 2)
        layer_from_chi2_mps(truncated)  # and the truncated state is accepted

    def test_rejects_non_canonical(self, rng):
        for kind in CHI2_KINDS:
            m = random_chi2_mps(rng, 4, kind)
            scaled = type(m)(tuple(t * 2 for t in m.tensors), canonical_form="none")
            with pytest.raises(ValidationError, match="not left-canonical"):
                layer_from_chi2_mps(scaled)


class TestAdjoint:
    def test_inverts_circuit(self, rng):
        # the compiler undoes a circuit on the dense state one layer at a time
        c = random_staircase_circuit(rng, 5, 2)
        undone = run(c)
        for layer in c.gates[::-1]:
            undone = _undo_layer(undone, layer, 5)
        expected = np.zeros(32)
        expected[0] = 1.0
        np.testing.assert_allclose(undone, expected, atol=1e-10)


class TestSerialization:
    def test_roundtrip_preserves_state(self, rng):
        c = random_staircase_circuit(rng, 4, 2)
        again = deserialize(serialize(c))
        np.testing.assert_allclose(
            run(again), run(c), atol=1e-15
        )
        assert again.depth == c.depth

    def test_exact_float_roundtrip(self, rng):
        c = random_staircase_circuit(rng, 3, 1)
        again = deserialize(serialize(c))
        np.testing.assert_array_equal(again.sites, c.sites)
        np.testing.assert_array_equal(again.gates, c.gates)

    def test_complex_matrices(self, rng):
        g = random_unitary4(rng, complex_valued=True)
        c = LayeredCircuit(2, [[0]], g[None, None])
        again = deserialize(serialize(c))
        np.testing.assert_array_equal(again.gates[0, 0], g)

    def test_numpy_integer_qubit_count(self):
        c = LayeredCircuit(np.int64(4), staircase_sites(4), identity_circuit(4).gates)
        assert type(c.n_qubits) is int
        again = deserialize(serialize(c))
        assert again.n_qubits == 4
        np.testing.assert_array_equal(again.gates, c.gates)

    def test_provenance_roundtrip(self, rng):
        c = LayeredCircuit(2, [[0]], [[np.eye(4)]], provenance={"method": "iterative", "depth": 1})
        assert circuit_from_dict(circuit_to_dict(c)).provenance["method"] == "iterative"

    def test_corrupt_payload(self):
        with pytest.raises(InputFormatError):
            deserialize(b"not json")
        with pytest.raises(InputFormatError):
            circuit_from_dict({"version": 0})

    @pytest.mark.parametrize(
        "data",
        [
            b"[" * 100_000,
            # past Python's int-string limit where a build sets one, else beyond float
            b'{"version": 1, "n_qubits": 2, "layers": [[{"site": 0, "matrix": {"real": [['
            + b"1" * 5000 + b", 0, 0, 0]" + b", [0, 0, 0, 0]" * 3 + b"]}}]]}",
        ],
        ids=["nested-100000-deep", "5000-digit-entry"],
    )
    def test_json_that_python_cannot_hold_is_input_format_error(self, data):
        with pytest.raises(InputFormatError, match="^corrupt circuit payload: "):
            deserialize(data)


def per_gate_matrices(layers: list) -> np.ndarray:
    """The decode as one conversion per gate: the reference for `circuit_from_dict`."""

    def matrix(d):
        m = np.array(d["real"], dtype=float)
        if "imag" in d:
            m = m + 1j * np.array(d["imag"], dtype=float)
        return m

    return np.asarray([[matrix(g["matrix"]) for g in layer] for layer in layers])


def _signed_zero_gates() -> list:
    """Matrix entries of unitaries whose zeros carry both signs, in real and imaginary parts."""
    swap = np.eye(4)[[0, 2, 1, 3]]
    swap[swap == 0] = np.where(np.arange(12) % 3, 0.0, -0.0)
    phases = np.diag([1j, -1j, 1.0, -1.0])
    real, imag = np.real(phases).copy(), np.imag(phases).copy()
    real[0, 0], real[1, 1], real[0, 3], imag[2, 2], imag[3, 0], imag[1, 2] = (
        -0.0, 0.0, -0.0, -0.0, -0.0, 0.0)
    return [{"real": swap.tolist()}, {"real": real.tolist(), "imag": imag.tolist()},
            {"real": (-swap).tolist(), "imag": (swap * 0.0).tolist()}]


class TestGateDecode:
    """`circuit_from_dict` converts all gates at once, bit for bit as gate by gate."""

    @pytest.mark.parametrize("kinds", ["real", "complex", "mixed", "signed-zeros"])
    def test_equals_the_per_gate_decode(self, rng, kinds):
        n, depth = 4, 3
        entries = []
        for k in range(depth * (n - 1)):
            complex_valued = kinds == "complex" or (kinds == "mixed" and k % 2 == 0)
            g = random_unitary4(rng, complex_valued=complex_valued)
            entry = {"real": np.real(g).tolist()}
            if complex_valued:
                entry["imag"] = np.imag(g).tolist()
            entries.append(entry)
        if kinds == "signed-zeros":
            entries[1::3] = _signed_zero_gates()
        sites = staircase_sites(n, depth).tolist()
        layers = [[{"site": s, "matrix": entries[d * (n - 1) + k]} for k, s in enumerate(row)]
                  for d, row in enumerate(sites)]
        gates = circuit_from_dict({"version": 1, "n_qubits": n, "layers": layers}).gates
        expected = per_gate_matrices(layers)
        assert gates.dtype == expected.dtype == (float if kinds == "real" else complex)
        np.testing.assert_array_equal(gates, expected)
        assert gates.tobytes() == expected.tobytes()  # signed zeros included

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ({"real": [[1.0, 0.0]] * 3 + [[1.0]]}, "inhomogeneous"),
            ({"real": [["x"] * 4] * 4}, "could not convert string to float"),
            ({"imag": np.eye(4).tolist()}, "'real'"),
            ({"real": np.eye(4).tolist(), "imag": [[0.0] * 4] * 3}, "imag and real differ"),
            ({"real": np.eye(4).tolist(), "imag": [[0.0, "y"]] * 4}, "could not convert"),
            ({"real": [[10**400, 0, 0, 0]] + [[0] * 4] * 3}, "int too large to convert to float"),
        ],
        ids=["ragged-matrix", "non-numeric", "missing-real", "imag-shape", "non-numeric-imag",
             "401-digit-int"],
    )
    def test_corrupt_gate_is_input_format_error(self, matrix, message):
        layers = [[_gate(1), {"site": 0, "matrix": matrix}]]
        with pytest.raises(InputFormatError, match=f"corrupt circuit payload: .*{message}"):
            circuit_from_dict({"version": 1, "n_qubits": 3, "layers": layers})

