"""Layered staircase circuits of two-qubit gates, and the exact conversion
of a bond-dimension-2 left-canonical MPS into a single circuit layer,
whose gates are its isometries completed to unitaries by one stacked QR.

A layer holds one gate per adjacent qubit pair, stored in application
order.  Freshly built layers apply the gate on pair (N-2, N-1) first and
the gate on (0, 1) last, so the pair holding the most significant ladder
rung is touched last.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .artifacts import dumps
from .errors import InputFormatError, ValidationError
from .mps import CANONICAL_ISOMETRY_TOL, MPS, isometry_defect, isometry_error

CIRCUIT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class LayeredCircuit:
    """D staircase layers of N-1 two-qubit gates, as a site table and a gate stack.

    ``sites[d, k]`` is the pair (site, site+1) that the k-th gate of layer d
    acts on, site bit most significant; ``gates[d, k]`` is its 4x4 unitary.
    Layer 0 is applied first, and within a layer the gates apply in order.
    """

    n_qubits: int
    sites: np.ndarray  # (D, N-1) ints
    gates: np.ndarray  # (D, N-1, 4, 4)
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.n_qubits
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValidationError(f"qubit count {n!r} is not an integer")
        n = int(n)  # a numpy integer is not JSON-serializable
        object.__setattr__(self, "n_qubits", n)
        try:
            sites, gates = np.asarray(self.sites), np.asarray(self.gates)
        except ValueError:  # ragged nesting
            raise ValidationError("layers differ in length or in gate shape") from None
        if not sites.size:
            raise ValidationError("a circuit needs at least one layer of gates")
        if sites.dtype.kind not in "iu":
            raise ValidationError("gate sites must be integers")
        if sites.ndim != 2 or sites.shape[1] != n - 1:
            raise ValidationError(f"every layer needs one gate per adjacent pair of {n} qubits")
        # any application order within a layer, but each pair exactly once
        if (np.sort(sites, axis=1) != np.arange(n - 1)).any():
            raise ValidationError("a layer needs exactly one gate per adjacent pair")
        if gates.shape != sites.shape + (4, 4):
            raise ValidationError("gate matrices must be 4x4, one per site")
        sites.setflags(write=False)
        gates.setflags(write=False)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "gates", gates)
        tol = CANONICAL_ISOMETRY_TOL
        if isometry_error(gates) > tol:  # one stacked check; name the first bad gate
            site = next(s for s, m in self.all_gates() if isometry_error(m) > tol)
            raise ValidationError(f"gate at site {site} is not unitary within {tol}")

    @property
    def depth(self) -> int:
        return len(self.sites)

    def all_gates(self) -> list:
        """(site, matrix) pairs in global application order (layer 0 first)."""
        return list(zip(self.sites.ravel().tolist(), self.gates.reshape(-1, 4, 4)))


def staircase_sites(n_qubits: int, depth: int = 1) -> np.ndarray:
    """Site table of fresh staircase layers: pair (N-2, N-1) first, (0, 1) last."""
    return np.tile(np.arange(n_qubits - 2, -1, -1), (depth, 1))


def layer_from_chi2_mps(m: MPS) -> np.ndarray:
    """Exact staircase layer preparing a left-canonical MPS with bonds <= 2.

    Each gate's state columns are an isometry of the MPS: the site tensor
    at the pair's upper site, or for pair (0, 1) the first two tensors
    fused.  All N-1 isometries, zero-padded to 4x2, are completed to
    unitaries by one stacked complete QR, and the state columns are then
    written back from the MPS, so only the completion columns come from
    the QR.  Returns the (N-1, 4, 4) gate stack in application order, on
    the sites of `staircase_sites`: pair (N-2, N-1) first, (0, 1) last.
    """
    if m.n_sites < 2:
        raise ValidationError("need at least 2 sites to build a layer")
    if m.max_bond > 2:
        raise ValidationError(
            f"max bond {m.max_bond} exceeds 2; cut the state with from_dense(..., chi_max=2) first"
        )
    if isometry_defect(m) > CANONICAL_ISOMETRY_TOL:
        raise ValidationError(f"MPS is not left-canonical within {CANONICAL_ISOMETRY_TOL}")
    # the fused isometry is a product of two checked ones
    fused = np.tensordot(m.tensors[0][0], m.tensors[1], axes=(1, 0))  # (2, 2, right)
    isometries = [a.reshape(-1, a.shape[2]) for a in m.tensors[:1:-1]] + [fused.reshape(4, -1)]
    stack = np.zeros((m.n_sites - 1, 4, 2), dtype=np.result_type(*m.tensors))
    for v, slot in zip(isometries, stack):
        slot[: len(v), : v.shape[1]] = v
    gates = np.linalg.qr(stack, mode="complete").Q
    for slot, gate, v in zip(stack, gates, isometries):
        gate[:, : v.shape[1]] = slot[:, : v.shape[1]]
    return gates


def cnot_count(c: LayeredCircuit) -> int:
    """CNOT-equivalent count at 2 per staircase gate: 2 * depth * (N - 1)."""
    return 2 * c.depth * (c.n_qubits - 1)


# ---------------------------------------------------------------------------
# Serialization: versioned JSON, floats at full round-trip precision


def _gate_stack(matrices: list) -> np.ndarray:
    """The gate matrices of circuit.json entries, stacked: one conversion for all real parts,
    and one for all imaginary parts when any entry has one.

    Bit for bit the stack of each entry's ``real + 1j * imag`` (just ``real``
    without ``imag``): a real-only entry of a complex stack is upcast, which
    keeps a -0.0 that adding 0j would turn into 0.0.  Every entry must be a
    JSON number: numpy would read a string, a bool or a null as a float.
    """
    try:
        real = _numbers([m["real"] for m in matrices])
        complex_rows = np.array(["imag" in m for m in matrices], dtype=bool)
        if not complex_rows.any():
            return real
        imag = _numbers([m["imag"] for m in matrices if "imag" in m])
    except (ValueError, OverflowError) as exc:  # ragged, non-numeric or beyond float entries
        raise InputFormatError(f"corrupt circuit payload: {exc}") from None
    if imag.shape != real[complex_rows].shape:
        raise InputFormatError("corrupt circuit payload: a gate's imag and real differ in shape")
    gates = real.astype(complex)
    gates[complex_rows] = real[complex_rows] + 1j * imag
    return gates


def _numbers(nested: list) -> np.ndarray:
    """The float array of a regular nested list whose every entry is a JSON int or float."""
    array = np.array(nested, dtype=float)
    entries = nested
    for _ in range(array.ndim - 1):
        entries = itertools.chain.from_iterable(entries)
    other = set(map(type, entries)) - {int, float}
    if other:
        raise ValueError(f"gate entries must be numbers, not {sorted(t.__name__ for t in other)}")
    return array


def circuit_to_dict(c: LayeredCircuit) -> dict:
    """The object circuit.json holds: `serialize`'s text, parsed."""
    return json.loads(serialize(c))


def circuit_from_dict(d: dict) -> LayeredCircuit:
    if not isinstance(d, dict):
        raise InputFormatError(f"corrupt circuit payload: {type(d).__name__}, not an object")
    if d.get("version") != CIRCUIT_FORMAT_VERSION:
        raise InputFormatError(f"unsupported circuit format version {d.get('version')}")
    provenance = d.get("provenance", {})
    if not isinstance(provenance, dict):
        raise InputFormatError("corrupt circuit payload: provenance is not an object")
    try:
        layers = d["layers"]
        sites = [[g["site"] for g in layer] for layer in layers]
        gates = _gate_stack([g["matrix"] for layer in layers for g in layer])
        if len({len(layer) for layer in layers}) == 1:  # else LayeredCircuit refuses the sites
            gates = gates.reshape(len(layers), -1, *gates.shape[1:])
        return LayeredCircuit(d["n_qubits"], sites, gates, provenance=dict(provenance))
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"corrupt circuit payload: {exc}") from None


def serialize(c: LayeredCircuit) -> bytes:
    """circuit.json: each gate's real part, and its imaginary part when any is nonzero."""
    real, imag = np.real(c.gates), np.imag(c.gates)
    nonzero = (imag != 0).any(axis=(2, 3)).tolist()
    layers = [
        [
            {"site": s, "matrix": {"real": r, "imag": i} if z else {"real": r}}
            for s, r, i, z in zip(sites, reals, imags, nonzeros)
        ]
        for sites, reals, imags, nonzeros in zip(c.sites.tolist(), real, imag, nonzero)
    ]
    d = {
        "version": CIRCUIT_FORMAT_VERSION,
        "n_qubits": c.n_qubits,
        "layers": layers,
        "provenance": dict(c.provenance),
    }
    return dumps(d).encode()


def deserialize(data: bytes) -> LayeredCircuit:
    # ValueError covers bad UTF-8, bad JSON and an int past Python's digit limit;
    # RecursionError, nesting deeper than the parser recurses
    try:
        d = json.loads(data.decode())
    except (ValueError, RecursionError) as exc:
        raise InputFormatError(f"corrupt circuit payload: {exc}") from None
    return circuit_from_dict(d)

