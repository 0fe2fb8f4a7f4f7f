"""Layered circuits, isometry completion, and the exact chi=2 staircase
conversion, verified against the dense simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_chi2_mps, random_staircase_circuit, random_unitary4
from qimgload.circuit import (
    CircuitLayer,
    LayeredCircuit,
    TwoQubitGate,
    circuit_from_dict,
    circuit_to_dict,
    cnot_count,
    deserialize,
    embed_isometry,
    layer_from_chi2_mps,
    serialize,
)
from qimgload.compiler import _apply_layer_adjoint
from qimgload.errors import InputFormatError, ValidationError
from qimgload.mps import from_dense, to_dense, truncate
from qimgload.simulator import run


class TestTwoQubitGate:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            TwoQubitGate(0, np.ones((4, 4)))


class TestCircuitLayer:
    def test_requires_full_staircase(self, rng):
        with pytest.raises(ValidationError):
            CircuitLayer((TwoQubitGate(0, np.eye(4)), TwoQubitGate(0, np.eye(4))))
        with pytest.raises(ValidationError):
            CircuitLayer((TwoQubitGate(1, np.eye(4)),))

    def test_any_application_order_allowed(self, rng):
        layer = CircuitLayer(tuple(TwoQubitGate(s, np.eye(4)) for s in (1, 0, 2)))
        assert layer.n_qubits == 4


class TestLayeredCircuit:
    def test_depth_and_gate_order(self, rng):
        c = random_staircase_circuit(rng, 5, 3)
        assert c.depth == 3
        assert [g.site for g in c.all_gates()] == [3, 2, 1, 0] * 3

    def test_layer_size_must_match(self, rng):
        layer4 = CircuitLayer(tuple(TwoQubitGate(s, np.eye(4)) for s in range(3)))
        with pytest.raises(ValidationError):
            LayeredCircuit(5, (layer4,))


class TestCnotCount:
    def test_formula(self, rng):
        # [DERIVED] two CNOT-equivalents per staircase gate
        assert cnot_count(random_staircase_circuit(rng, 8, 3)) == 42
        assert cnot_count(random_staircase_circuit(rng, 10, 10)) == 180

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=9))
    @settings(max_examples=20, deadline=None)
    def test_scales_linearly(self, n, d):
        layer = CircuitLayer(tuple(TwoQubitGate(s, np.eye(4)) for s in range(n - 1)))
        assert cnot_count(LayeredCircuit(n, (layer,) * d)) == 2 * d * (n - 1)


class TestEmbedIsometry:
    def test_identity_on_square_input(self, rng):
        u = random_unitary4(rng)
        np.testing.assert_array_equal(embed_isometry(u), u)

    def test_leading_columns_preserved(self, rng):
        for cols in (1, 2, 3):
            v = np.linalg.qr(rng.standard_normal((4, cols)))[0]
            full = embed_isometry(v)
            np.testing.assert_allclose(full[:, :cols], v, atol=1e-12)
            np.testing.assert_allclose(full.conj().T @ full, np.eye(4), atol=1e-12)

    def test_complex_input(self, rng):
        v = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0]
        full = embed_isometry(v)
        np.testing.assert_allclose(full.conj().T @ full, np.eye(4), atol=1e-12)

    def test_canonical_basis_completion(self):
        # completing [e2 e3] must pick e0, e1 in index order
        v = np.eye(4)[:, 2:]
        np.testing.assert_array_equal(embed_isometry(v)[:, 2:], np.eye(4)[:, :2])

    def test_rejects_non_isometry(self):
        with pytest.raises(ValidationError):
            embed_isometry(np.ones((4, 2)))


class TestLayerFromChi2Mps:
    def test_single_layer_prepares_state_exactly(self, rng):
        # the core exactness guarantee: one staircase layer, zero error
        for n in (2, 3, 4, 6, 8):
            m = random_chi2_mps(rng, n)
            circuit = LayeredCircuit(n, (layer_from_chi2_mps(m),))
            fidelity = abs(np.vdot(run(circuit).amplitudes, to_dense(m)))
            assert fidelity == pytest.approx(1.0, abs=1e-12)

    def test_gate_application_order(self, rng):
        layer = layer_from_chi2_mps(random_chi2_mps(rng, 5))
        assert [g.site for g in layer.gates] == [3, 2, 1, 0]

    def test_rejects_large_bond(self, rng):
        m, _ = from_dense(np.linalg.qr(rng.standard_normal((16, 1)))[0][:, 0])
        with pytest.raises(ValidationError):
            layer_from_chi2_mps(m)
        truncated, _ = truncate(m, 2)
        layer_from_chi2_mps(truncated)  # and the truncated state is accepted

    def test_rejects_non_canonical(self, rng):
        m = random_chi2_mps(rng, 4)
        scaled = type(m)(tuple(t * 2 for t in m.tensors), canonical_form="none")
        with pytest.raises(ValidationError):
            layer_from_chi2_mps(scaled)


class TestAdjoint:
    def test_inverts_circuit(self, rng):
        # the compiler undoes a circuit on an MPS one layer (one sweep) at a time
        c = random_staircase_circuit(rng, 5, 2)
        undone, _ = from_dense(run(c).amplitudes)
        for layer in reversed(c.layers):
            undone = _apply_layer_adjoint(undone, layer, chi_max=32)
        expected = np.zeros(32)
        expected[0] = 1.0
        np.testing.assert_allclose(to_dense(undone), expected, atol=1e-10)


class TestSerialization:
    def test_roundtrip_preserves_state(self, rng):
        c = random_staircase_circuit(rng, 4, 2)
        again = deserialize(serialize(c))
        np.testing.assert_allclose(
            run(again).amplitudes, run(c).amplitudes, atol=1e-15
        )
        assert again.depth == c.depth

    def test_exact_float_roundtrip(self, rng):
        c = random_staircase_circuit(rng, 3, 1)
        again = deserialize(serialize(c))
        for ga, gb in zip(c.all_gates(), again.all_gates()):
            np.testing.assert_array_equal(ga.matrix, gb.matrix)

    def test_complex_matrices(self, rng):
        g = TwoQubitGate(0, random_unitary4(rng, complex_valued=True))
        c = LayeredCircuit(2, (CircuitLayer((g,)),))
        again = deserialize(serialize(c))
        np.testing.assert_array_equal(again.all_gates()[0].matrix, g.matrix)

    def test_provenance_roundtrip(self, rng):
        c = LayeredCircuit(
            2,
            (CircuitLayer((TwoQubitGate(0, np.eye(4)),)),),
            provenance={"method": "iterative", "depth": 1},
        )
        assert circuit_from_dict(circuit_to_dict(c)).provenance["method"] == "iterative"

    def test_corrupt_payload(self):
        with pytest.raises(InputFormatError):
            deserialize(b"not json")
        with pytest.raises(InputFormatError):
            circuit_from_dict({"version": 0})
