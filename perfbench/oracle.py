"""Independent checks of the CLI's artifacts.

Nothing here calls into `qimgload`: the encoder is a per-pixel bit loop,
the simulator applies gates with a broadcast matmul, and the circuit,
histogram and PGM files are parsed from their documented text formats.
Each check returns its failures as (check name, message) pairs.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

UNITARY_TOL = 1e-10
INFIDELITY_RTOL = 1e-3  # the CLI prints 4 significant digits
TV_DELTA = 1e-9  # allowed chance that correct sampling exceeds the TV bound

COMPILE_LINE = re.compile(
    r"compiled depth-(\d+) circuit on (\d+) qubits: (\d+) CNOT-equivalents, infidelity (\S+)"
)
SIMULATE_LINE = re.compile(r"simulated (\d+)-qubit circuit \((\d+) shots, seed (-?\d+)\)")


def ladder_index_table(side: int) -> np.ndarray:
    """index[x, y] of pixel (row x, column y): x and y bits interleaved, MSB rung first."""
    n = side.bit_length() - 1
    table = np.zeros((side, side), dtype=np.int64)
    for x in range(side):
        for y in range(side):
            index = 0
            for k in range(n - 1, -1, -1):
                index = (index << 2) | (((x >> k) & 1) << 1) | ((y >> k) & 1)
            table[x, y] = index
    return table


def encode(samples: np.ndarray) -> np.ndarray:
    """Amplitude sqrt(p / sum p) of each pixel at its ladder index."""
    p = samples.astype(float)
    state = np.zeros(p.size)
    state[ladder_index_table(p.shape[0]).ravel()] = np.sqrt(p.ravel() / p.sum())
    return state


def parse_circuit(text: str):
    """(n_qubits, [[(site, matrix), ...] per layer]) from circuit.json."""
    d = json.loads(text)
    layers = []
    for layer in d["layers"]:
        gates = []
        for g in layer:
            m = np.array(g["matrix"]["real"], dtype=float)
            if "imag" in g["matrix"]:
                m = m + 1j * np.array(g["matrix"]["imag"], dtype=float)
            gates.append((int(g["site"]), m))
        layers.append(gates)
    return int(d["n_qubits"]), layers


def simulate(n_qubits: int, layers) -> np.ndarray:
    """Apply every gate, in file order, to |0...0>; qubit 0 is the MSB."""
    complex_gates = any(np.iscomplexobj(m) for layer in layers for _, m in layer)
    state = np.zeros(2**n_qubits, dtype=complex if complex_gates else float)
    state[0] = 1.0
    for layer in layers:
        for site, m in layer:
            state = np.matmul(m, state.reshape(2**site, 4, -1)).reshape(-1)
    return state


def check_compile(target, samples, circuit_text: str, stdout: str) -> tuple:
    """Returns (failures, oracle infidelity, exact probabilities of the circuit)."""
    failures = []
    n_qubits, layers = parse_circuit(circuit_text)
    n = target.n_qubits
    if n_qubits != n:
        failures.append(("circuit", f"circuit has {n_qubits} qubits, expected {n}"))
    if len(layers) != target.depth:
        failures.append(("circuit", f"circuit has depth {len(layers)}, expected {target.depth}"))
    for i, layer in enumerate(layers):
        if sorted(site for site, _ in layer) != list(range(n - 1)):
            failures.append(("circuit", f"layer {i} is not a staircase over {n} qubits"))
        for site, m in layer:
            defect = np.max(np.abs(m.conj().T @ m - np.eye(4))) if m.shape == (4, 4) else math.inf
            if not defect <= UNITARY_TOL:
                failures.append(("unitary", f"layer {i} site {site}: |U^dag U - I| = {defect:.1e}"))
    if failures:
        return failures, math.nan, None

    prepared = simulate(n_qubits, layers)
    infidelity = max(0.0, 1.0 - abs(np.vdot(encode(samples), prepared)))
    match = COMPILE_LINE.search(stdout)
    if match is None:
        return [("infidelity", f"unrecognised compile output {stdout!r}")], infidelity, None
    cnots = 2 * sum(len(layer) for layer in layers)
    expected_cnots = 2 * target.depth * (n - 1)
    if cnots != expected_cnots or int(match.group(3)) != expected_cnots:
        failures.append(
            ("circuit", f"CNOT count {cnots} (printed {match.group(3)}), expected {expected_cnots}")
        )
    printed = float(match.group(4))
    if abs(printed - infidelity) > INFIDELITY_RTOL * infidelity + 1e-15:
        failures.append(("infidelity", f"printed {printed:.4e} != oracle {infidelity:.4e}"))
    return failures, infidelity, np.abs(prepared) ** 2


def tv_bound(probs: np.ndarray, shots: int) -> float:
    """Bound on the total-variation distance of a correct `shots`-shot histogram.

    E|c_i/n - p_i| <= sqrt(p_i (1 - p_i) / n) bounds the mean; one shot
    moves TV by at most 1/n, so McDiarmid's inequality adds
    sqrt(ln(1/delta) / 2n) with failure probability delta.
    """
    mean = 0.5 * np.sum(np.sqrt(probs * (1 - probs) / shots))
    return float(mean + math.sqrt(math.log(1 / TV_DELTA) / (2 * shots)))


def parse_histogram(text: str) -> np.ndarray:
    counts = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("index"):
            continue
        index, _, count, _ = line.split(",")
        counts[int(index)] = int(count)
    return np.array([counts[i] for i in range(len(counts))], dtype=np.int64)


def parse_pgm_side(data: bytes) -> tuple:
    """(width, height, sample count) of an ascii P2 PGM."""
    tokens = [t for line in data.decode("ascii").splitlines()
              for t in line.split("#", 1)[0].split()]
    if tokens[:1] != ["P2"]:
        raise ValueError("not a P2 PGM")
    width, height, maxval = (int(t) for t in tokens[1:4])
    samples = [int(t) for t in tokens[4:]]
    if any(not 0 <= s <= maxval for s in samples):
        raise ValueError("sample outside 0..maxval")
    return width, height, len(samples)


def check_simulate(target, probs, shots: int, seed: int, histogram_text: str,
                   pgm: bytes, stdout: str) -> list:
    failures = []
    match = SIMULATE_LINE.search(stdout)
    if match is None or tuple(map(int, match.groups())) != (target.n_qubits, shots, seed):
        failures.append(
            ("histogram", f"simulate output {stdout!r} does not record {shots} shots, seed {seed}")
        )
    counts = parse_histogram(histogram_text)
    if counts.size != 2**target.n_qubits or counts.sum() != shots:
        failures.append(
            ("histogram", f"{counts.size} outcomes sum to {counts.sum()}, not {shots} shots")
        )
    elif probs is not None:
        tv = 0.5 * np.abs(counts / shots - probs).sum()
        bound = tv_bound(probs, shots)
        if not tv <= bound:
            failures.append(("histogram", f"TV {tv:.4f} exceeds shot-noise bound {bound:.4f}"))
    try:
        width, height, count = parse_pgm_side(pgm)
    except ValueError as exc:
        failures.append(("reconstructed_pgm", f"does not parse: {exc}"))
    else:
        if (width, height, count) != (target.side, target.side, target.side**2):
            failures.append(
                ("reconstructed_pgm", f"{width}x{height}, {count} samples; L={target.side}")
            )
    return failures
