"""Exact statevector execution of layered circuits plus seeded shot sampling.

Qubit 0 is the most significant bit of the basis index, matching the
MSB-first ladder ordering of the image codec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import LayeredCircuit
from .errors import ValidationError
from .image_codec import CSV_CHUNK_ROWS, AmplitudeState
from .mps import DENSE_SITE_CAP, MPS, to_dense

RNG_ALGORITHM = "numpy.random.Generator(PCG64)"


@dataclass(frozen=True)
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes)
        if a.ndim != 1 or a.size != 2**self.n_qubits:
            raise ValidationError("amplitude vector length must be 2**n_qubits")
        if abs(np.linalg.norm(a) - 1.0) > 1e-10:
            raise ValidationError("statevector must have unit norm within 1e-10")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class ShotHistogram:
    counts: np.ndarray
    shots: int
    seed: int
    rng_algorithm: str = RNG_ALGORITHM

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if int(c.sum()) != self.shots:
            raise ValidationError("histogram counts must sum to the shot total")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)


def dense_amplitudes(state) -> np.ndarray:
    """Amplitude vector of an MPS, StateVector, AmplitudeState, or raw array."""
    if isinstance(state, MPS):
        return to_dense(state)
    if isinstance(state, (StateVector, AmplitudeState)):
        return np.asarray(state.amplitudes)
    return np.asarray(state)


def apply_gate_dense(vec: np.ndarray, matrix: np.ndarray, site: int, n_qubits: int) -> np.ndarray:
    """Apply a 4x4 gate on adjacent qubits (site, site+1) to a dense vector."""
    pre = 2**site
    post = 2 ** (n_qubits - site - 2)
    if post == 1:
        # one (pre, 4) @ (4, 4) GEMM; a batch of pre matrix-vector products is slower
        return (vec.reshape(pre, 4) @ matrix.T).reshape(-1)
    if post <= 4 and pre >= 128:
        # one (pre, 4*post) GEMM against matrix ⊗ I_post; below pre = 128 the
        # batch of pre tiny products is cheaper than building the Kronecker factor
        kron = np.zeros((4, post, 4, post), dtype=matrix.dtype)
        i = np.arange(post)
        kron[:, i, :, i] = matrix
        return (vec.reshape(pre, 4 * post) @ kron.reshape(4 * post, 4 * post).T).reshape(-1)
    return np.matmul(matrix, vec.reshape(pre, 4, post)).reshape(-1)


def run(c: LayeredCircuit) -> StateVector:
    """Apply all layers in order to |0...0>."""
    if c.n_qubits > DENSE_SITE_CAP:
        raise ValidationError(f"{c.n_qubits} qubits exceeds the dense cap of {DENSE_SITE_CAP}")
    vec = np.zeros(2**c.n_qubits, dtype=np.result_type(float, c.gates.dtype))
    vec[0] = 1.0
    for site, matrix in c.all_gates():
        vec = apply_gate_dense(vec, matrix, site, c.n_qubits)
    return StateVector(c.n_qubits, vec)


def sample(v: StateVector, shots: int, seed: int = 0) -> ShotHistogram:
    """Multinomial draw from |amplitudes|^2 with a seeded PCG64 generator."""
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    probs = v.probabilities()
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    return ShotHistogram(counts=counts, shots=shots, seed=seed)


def histogram_to_probs(h: ShotHistogram) -> np.ndarray:
    if h.shots <= 0:
        raise ValidationError("histogram has no shots")
    return h.counts / h.shots


def histogram_to_csv(h: ShotHistogram) -> str:
    n_bits = max(int(np.log2(len(h.counts))), 1)
    # the count,probability text depends only on the count, so format each
    # distinct count once; its probability is the same entry of counts / shots
    distinct, first = np.unique(h.counts, return_index=True)
    probs = histogram_to_probs(h)[first]
    text = {c: f"{c},{p!r}" for c, p in zip(distinct.tolist(), probs.tolist())}
    parts = ["index,bitstring,count,probability\n"]
    for start in range(0, h.counts.size, CSV_CHUNK_ROWS):
        counts = h.counts[start : start + CSV_CHUNK_ROWS].tolist()
        rows = [f"{i},{i:0{n_bits}b},{text[c]}\n" for i, c in enumerate(counts, start)]
        parts.append("".join(rows))
    return "".join(parts)


def state_to_csv(v: StateVector) -> str:
    # tolist() of a float64/complex128 array yields Python floats or complexes,
    # whose repr is the CSV text
    amplitudes = v.amplitudes.astype(np.result_type(v.amplitudes.dtype, float), copy=False)
    parts = ["index,amplitude\n"]
    for start in range(0, amplitudes.size, CSV_CHUNK_ROWS):
        chunk = amplitudes[start : start + CSV_CHUNK_ROWS].tolist()
        parts.append("".join([f"{i},{a!r}\n" for i, a in enumerate(chunk, start)]))
    return "".join(parts)
