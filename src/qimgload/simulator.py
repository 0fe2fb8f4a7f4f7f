"""Exact statevector execution of layered circuits plus seeded shot sampling.

Qubit 0 is the most significant bit of the basis index, matching the
MSB-first ladder ordering of the image codec.
"""

from __future__ import annotations

import numpy as np

from .circuit import LayeredCircuit
from .errors import ValidationError
from .image_codec import CSV_CHUNK_ROWS
from .mps import DENSE_SITE_CAP


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


def run(c: LayeredCircuit) -> np.ndarray:
    """Statevector of all layers applied in order to |0...0>."""
    if c.n_qubits > DENSE_SITE_CAP:
        raise ValidationError(f"{c.n_qubits} qubits exceeds the dense cap of {DENSE_SITE_CAP}")
    vec = np.zeros(2**c.n_qubits, dtype=np.result_type(float, c.gates.dtype))
    vec[0] = 1.0
    for site, matrix in c.all_gates():
        vec = apply_gate_dense(vec, matrix, site, c.n_qubits)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
        raise ValidationError("statevector must have unit norm within 1e-10")
    return vec


def sample(vec: np.ndarray, shots: int, seed: int = 0) -> np.ndarray:
    """int64 counts of a multinomial draw from |vec|^2 with a seeded PCG64 generator."""
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    if shots > np.iinfo(np.int64).max:
        raise ValidationError("shots must be at most 2^63 - 1")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    probs = np.abs(vec) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs)


def histogram_to_probs(counts: np.ndarray) -> np.ndarray:
    shots = counts.sum()
    if shots <= 0:
        raise ValidationError("histogram has no shots")
    return counts / shots


def histogram_to_csv(counts: np.ndarray) -> str:
    n_bits = max(int(np.log2(len(counts))), 1)
    # the count,probability text depends only on the count, so format each
    # distinct count once; its probability is the same entry of counts / shots
    distinct, first = np.unique(counts, return_index=True)
    probs = histogram_to_probs(counts)[first]
    text = {c: f"{c},{p!r}" for c, p in zip(distinct.tolist(), probs.tolist())}
    parts = ["index,bitstring,count,probability\n"]
    for start in range(0, counts.size, CSV_CHUNK_ROWS):
        chunk = counts[start : start + CSV_CHUNK_ROWS].tolist()
        rows = [f"{i},{i:0{n_bits}b},{text[c]}\n" for i, c in enumerate(chunk, start)]
        parts.append("".join(rows))
    return "".join(parts)


def state_to_csv(vec: np.ndarray) -> str:
    # tolist() of a float64/complex128 array yields Python floats or complexes,
    # whose repr is the CSV text
    amplitudes = vec.astype(np.result_type(vec.dtype, float), copy=False)
    parts = ["index,amplitude\n"]
    for start in range(0, amplitudes.size, CSV_CHUNK_ROWS):
        chunk = amplitudes[start : start + CSV_CHUNK_ROWS].tolist()
        parts.append("".join([f"{i},{a!r}\n" for i, a in enumerate(chunk, start)]))
    return "".join(parts)
