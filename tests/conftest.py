"""Shared fixtures and independent reference implementations.

The oracles here deliberately avoid the library's own code paths: dense
gate application is built from Kronecker products, encoding from an
explicit per-pixel bit loop, so agreement is meaningful.
"""

from __future__ import annotations

import io
import tracemalloc

import numpy as np
import pytest

from qimgload.circuit import LayeredCircuit, staircase_sites
from qimgload.image_codec import ImageGrid, pixel_to_basis_index
from qimgload.mps import MPS, from_dense, to_dense


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# one PASS/FAIL line per acceptance criterion, echoed after the run so the
# lines survive pytest's output capture
acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def assert_same_text(text: str, reference: str) -> None:
    """Exact equality that reports the first differing line.

    pytest's own diff of two long strings takes minutes; this stays quick.
    """
    if text == reference:
        return
    got, want = text.split("\n"), reference.split("\n")
    i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    pytest.fail(
        f"line {i} differs: {got[i] if i < len(got) else '<end>'!r} "
        f"!= {want[i] if i < len(want) else '<end>'!r} ({len(got)} vs {len(want)} lines)"
    )


def written(writer, data) -> str:
    """The text that ``writer(data, fh)`` writes to a text file."""
    fh = io.StringIO()
    writer(data, fh)
    return fh.getvalue()


def grid(values) -> ImageGrid:
    return ImageGrid(np.array(values, dtype=float))


def random_state(rng, n_qubits: int, complex_valued: bool = False) -> np.ndarray:
    v = rng.standard_normal(2**n_qubits)
    if complex_valued:
        v = v + 1j * rng.standard_normal(2**n_qubits)
    return v / np.linalg.norm(v)


def random_unitary4(rng, complex_valued: bool = False) -> np.ndarray:
    a = rng.standard_normal((4, 4))
    if complex_valued:
        a = a + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def capped_state(vec, chi_max=None) -> np.ndarray:
    """The dense amplitudes of ``vec`` cut by `from_dense` to bonds <= ``chi_max``."""
    return to_dense(from_dense(vec, chi_max=chi_max)[0])


CHI2_KINDS = ("real", "complex", "product")


def random_chi2_mps(rng, n_qubits: int, kind: str = "real"):
    """Left-canonical MPS with every bond <= 2, of a kind in CHI2_KINDS.

    "real" and "complex" are the chi=2 sequential SVD of a random state;
    "product" is a random real product state, whose bonds are all 1.
    """
    if kind == "product":
        qubits = rng.standard_normal((n_qubits, 2))
        qubits /= np.linalg.norm(qubits, axis=1, keepdims=True)
        return MPS(tuple(q.reshape(1, 2, 1) for q in qubits), canonical_form="left")
    m, _ = from_dense(random_state(rng, n_qubits, kind == "complex"), chi_max=2)
    return m


def random_staircase_circuit(rng, n_qubits: int, depth: int,
                             complex_valued: bool = False) -> LayeredCircuit:
    gates = [[random_unitary4(rng, complex_valued) for _ in range(n_qubits - 1)]
             for _ in range(depth)]
    return LayeredCircuit(n_qubits, staircase_sites(n_qubits, depth), np.array(gates))


def identity_circuit(n_qubits: int, depth: int = 1) -> LayeredCircuit:
    """Staircase circuit whose every gate is the 4x4 identity."""
    gates = np.broadcast_to(np.eye(4), (depth, n_qubits - 1, 4, 4))
    return LayeredCircuit(n_qubits, staircase_sites(n_qubits, depth), gates)


def drifting_circuit() -> LayeredCircuit:
    """N=6, D=3 staircase of gates (1 + 4e-11) I.

    Each gate passes the circuit's 1e-10 unitarity check, but the norm of
    the 15-gate product drifts by 6e-10.
    """
    gates = np.broadcast_to(np.eye(4) * (1 + 4e-11), (3, 5, 4, 4))
    return LayeredCircuit(6, staircase_sites(6, 3), gates)


def oracle_apply_gate(vec: np.ndarray, gate: np.ndarray, site: int, n: int) -> np.ndarray:
    """Reference dense gate application: I ⊗ gate ⊗ I by explicit Kronecker product."""
    full = np.kron(np.kron(np.eye(2**site), gate), np.eye(2 ** (n - site - 2)))
    return full @ vec


def oracle_run(circuit: LayeredCircuit) -> np.ndarray:
    vec = np.zeros(2**circuit.n_qubits, dtype=complex)
    vec[0] = 1.0
    for site, matrix in circuit.all_gates():
        vec = oracle_apply_gate(vec, matrix, site, circuit.n_qubits)
    return vec


def ladder_index(L: int, ordering: str = "straight") -> np.ndarray:
    """(L, L) table of pixel_to_basis_index, the scalar oracle of the ladder order."""
    return np.array(
        [[pixel_to_basis_index(x, y, L, ordering) for y in range(L)] for x in range(L)]
    )


def traced_peak(call) -> int:
    """Peak bytes that ``call()`` allocates, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def oracle_encode(pixels: np.ndarray, snake: bool = False) -> np.ndarray:
    """Reference amplitude encoding via an explicit per-pixel bit loop."""
    L = pixels.shape[0]
    n_rungs = L.bit_length() - 1
    out = np.zeros(L * L)
    total = pixels.sum()
    for x in range(L):
        for y in range(L):
            index = 0
            for k in range(n_rungs):
                xk = (x >> (n_rungs - 1 - k)) & 1
                yk = (y >> (n_rungs - 1 - k)) & 1
                if snake and k % 2 == 1:
                    xk, yk = yk, xk
                index = (index << 2) | (xk << 1) | yk
            out[index] = np.sqrt(pixels[x, y] / total)
    return out / np.linalg.norm(out)
