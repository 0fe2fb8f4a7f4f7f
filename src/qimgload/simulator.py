"""Exact statevector execution of layered circuits plus seeded shot sampling.

Qubit 0 is the most significant bit of the basis index, matching the
MSB-first ladder ordering of the image codec.  This module also owns the
2^N-row CSV artifacts: it writes the state, histogram and curve files and
reads the histogram back.  The state rows' text comes from `state_rows`.
"""

from __future__ import annotations

import functools
import itertools
import operator
from array import array

import numpy as np

from . import state_rows
from .circuit import LayeredCircuit
from .errors import InputFormatError, NumericError, ValidationError
from .mps import DENSE_SITE_CAP
from .state_rows import CSV_CHUNK_ROWS

# histogram_to_csv formats the low bits of each bitstring from a table of
# 2^_LOW_BITS strings; a run of that many rows must not cross a chunk
_LOW_BITS = 8


def gate_operands(vec: np.ndarray, site: int, n_qubits: int, out: np.ndarray) -> tuple:
    """Reshaped views of ``vec`` and ``out`` for `apply_gate` on qubits (site, site+1).

    ``out`` must be a C-contiguous 1-D array of vec's size that does not
    overlap it.  The views pick the product's branch, so a caller that
    applies many gates at the same place builds them once.
    """
    if not out.flags.c_contiguous:
        raise ValidationError("out must be C-contiguous")
    pre = 2**site
    post = 2 ** (n_qubits - site - 2)
    if post == 1:
        # one (pre, 4) @ (4, 4) GEMM; a batch of pre matrix-vector products is slower
        return vec.reshape(pre, 4), out.reshape(pre, 4), None
    if post <= 4 and pre >= 128:
        # one (pre, 4*post) GEMM against matrix ⊗ I_post; below pre = 128 the
        # batch of pre tiny products is cheaper than building the Kronecker factor.
        # `apply_gate` writes the matrix into kron[:, y, :, y] for every y
        kron = np.zeros((4, post, 4, post), dtype=out.dtype)
        s = kron.strides
        diagonal = np.lib.stride_tricks.as_strided(kron, (4, 4, post), (s[0], s[2], s[1] + s[3]))
        kron_t = kron.reshape(4 * post, 4 * post).T
        return vec.reshape(pre, 4 * post), out.reshape(pre, 4 * post), (diagonal, kron_t)
    return vec.reshape(pre, 4, post), out.reshape(pre, 4, post), None


def apply_gate(operands: tuple, matrix: np.ndarray) -> None:
    """Write the 4x4 ``matrix`` applied to the vector of `gate_operands` into its ``out``."""
    vec, out, kron = operands
    if vec.ndim == 3:
        np.matmul(matrix, vec, out=out)
    elif kron is None:
        np.matmul(vec, matrix.T, out=out)
    else:
        diagonal, kron_t = kron
        np.copyto(diagonal, matrix[:, :, None])
        np.matmul(vec, kron_t, out=out)


def apply_gate_dense(vec: np.ndarray, matrix: np.ndarray, site: int, n_qubits: int) -> np.ndarray:
    """A new dense vector: the 4x4 gate applied on adjacent qubits (site, site+1) to ``vec``."""
    out = np.empty(vec.size, dtype=np.result_type(vec, matrix))
    apply_gate(gate_operands(vec, site, n_qubits, out), matrix)
    return out


def run(c: LayeredCircuit) -> np.ndarray:
    """Statevector of all layers applied in order to |0...0>."""
    if c.n_qubits > DENSE_SITE_CAP:
        raise ValidationError(f"{c.n_qubits} qubits exceeds the dense cap of {DENSE_SITE_CAP}")
    vec = np.zeros(2**c.n_qubits, dtype=np.result_type(float, c.gates.dtype))
    vec[0] = 1.0
    for site, matrix in c.all_gates():
        vec = apply_gate_dense(vec, matrix, site, c.n_qubits)
    if not abs(np.linalg.norm(vec) - 1.0) <= 1e-10:
        raise ValidationError("statevector must have unit norm within 1e-10")
    return vec


def shot_draw(vec: np.ndarray, shots: int, seed: int = 0):
    """A zero-argument callable that returns `sample(vec, shots, seed)`.

    The options are checked and |vec|^2 is normalised here; the callable
    makes the one `multinomial` call, which releases the GIL, so it can run
    on another thread.  It holds the 2^N probabilities until it is dropped.
    """
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    if shots > np.iinfo(np.int64).max:
        raise ValidationError("shots must be at most 2^63 - 1")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    probs = np.abs(vec)
    np.square(probs, out=probs)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    return functools.partial(rng.multinomial, shots, probs)


def sample(vec: np.ndarray, shots: int, seed: int = 0) -> np.ndarray:
    """int64 counts of a multinomial draw from |vec|^2 with a seeded PCG64 generator."""
    return shot_draw(vec, shots, seed)()


def _shots(counts: np.ndarray):
    shots = counts.sum()
    if shots <= 0:
        raise NumericError("histogram holds no counts")
    return shots


def histogram_to_probs(counts: np.ndarray) -> np.ndarray:
    return counts / _shots(counts)


@functools.cache
def _low_bits(width: int) -> tuple:
    """`_bit_runs`'s table: 0 .. 2^_LOW_BITS - 1 in binary, ``width`` <= _LOW_BITS digits wide."""
    return tuple(f"{j:0{width}b}" for j in range(2**_LOW_BITS))


def _bit_runs(start: int, stop: int, n_bits: int) -> list:
    """(indices, high) per run of start..stop-1 sharing the bits above the low _LOW_BITS.

    high + _low_bits(min(n_bits, _LOW_BITS))[i % 2^_LOW_BITS] is f"{i:0{n_bits}b}" for
    each index i of a run: for every i if n_bits >= _LOW_BITS, else while i < 2^_LOW_BITS.
    """
    run = 2**_LOW_BITS
    high_width = max(n_bits - _LOW_BITS, 0)
    return [
        (range(max(first, start), min(first + run, stop)),
         f"{first >> _LOW_BITS:0{high_width}b}" if first >= run or high_width else "")
        for first in range(start - start % run, stop, run)
    ]


def histogram_to_csv(counts: np.ndarray, fh) -> None:
    """Write the histogram's column row and one row per outcome to the text file ``fh``."""
    shots = _shots(counts)
    n_bits = max(int(np.log2(len(counts))), 1)
    # the count,probability text depends only on the count, so format each
    # distinct count once; distinct / shots divides exactly as counts / shots does.
    # One sort finds them: np.unique's hash table is slower on a histogram and
    # leaves about 1 MB more resident in the process
    ordered = np.sort(counts)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    text = {c: f"{c},{p!r}" for c, p in zip(distinct.tolist(), (distinct / shots).tolist())}
    low = _low_bits(min(n_bits, _LOW_BITS))
    fh.write("index,bitstring,count,probability\n")
    for start in range(0, counts.size, CSV_CHUNK_ROWS):
        chunk = counts[start : start + CSV_CHUNK_ROWS].tolist()
        # zip takes from the run's indices first, so it stops before taking
        # the next run's first count
        chunk_counts = iter(chunk)
        fh.write("".join([
            f"{i},{high}{b},{text[c]}\n"
            for indices, high in _bit_runs(start, start + len(chunk), n_bits)
            for i, b, c in zip(indices, low, chunk_counts)
        ]))


def state_to_csv(vec: np.ndarray, fh) -> None:
    """Write the column row and one ``index,amplitude`` row per amplitude to the text ``fh``."""
    # tolist() of a float64/complex128 array yields Python floats or complexes,
    # whose repr is the CSV text
    amplitudes = vec.astype(np.result_type(vec.dtype, float), copy=False)
    fh.write(state_rows.COLUMNS)
    for start in range(0, amplitudes.size, CSV_CHUNK_ROWS):
        chunk = amplitudes[start : start + CSV_CHUNK_ROWS].tolist()
        fh.write(state_rows.rows_text(chunk, start))


def curve_to_csv(seq: np.ndarray, fh) -> None:
    """Write a flattened intensity/amplitude curve to the text file ``fh``, one value per line."""
    values = np.asarray(seq, dtype=float)
    for start in range(0, values.size, CSV_CHUNK_ROWS):
        chunk = values[start : start + CSV_CHUNK_ROWS].tolist()
        fh.write("".join([f"{v!r}\n" for v in chunk]))


# the lines the histogram reader skips: empty ones, comments and the column row
_SKIPPED = operator.methodcaller("startswith", ("\n", "#", "index"))


def _bad_row(line: str, problem: str) -> InputFormatError:
    line = line.removesuffix("\n")
    return InputFormatError(f"histogram row {problem}: {line!r}")


def _checked_counts(rows: list[str], start: int) -> array:
    """The counts of ``rows``, at positions from ``start``, checked one row at a time.

    Raises for the first row that breaks a rule of `histogram_from_csv`; a
    row's field, bitstring and probability rules are checked only once it has
    passed the index, count and magnitude rules.
    """
    counts = array("d")
    for i, row in enumerate(rows, start):
        if not row.startswith(f"{i},"):
            raise _bad_row(row, f"out of index order, expected index {i}")
        fields = row.split(",")
        try:
            count = float(fields[2])
        except (IndexError, ValueError):
            raise _bad_row(row, "without a numeric count") from None
        if not abs(count) <= 2.0**53:  # NaN fails too
            raise InputFormatError("histogram counts must be finite, at most 2^53 in magnitude")
        if len(fields) != 4:
            raise _bad_row(row, f"with {len(fields)} fields, expected 4")
        bits = fields[1]
        if not bits or bits.strip("01") or int(bits, 2) != i:
            raise _bad_row(row, f"whose bitstring is not {i} in binary")
        try:
            float(fields[3])
        except ValueError:
            raise _bad_row(row, "without a numeric probability") from None
        counts.append(count)
    return counts


def _fast_counts(rows: list[str], start: int) -> array | None:
    """The counts of ``rows``, at positions from ``start``, when every row is
    in the writer's form and keeps the rules of `histogram_from_csv`, else None.

    Checked a column at a time.  The bitstrings must be the writer's text, as
    wide as the first and at least _LOW_BITS digits; `_checked_counts` reads
    any other chunk.
    """
    n = len(rows)
    if list(map(str.count, rows, itertools.repeat(","))) != [3] * n:
        return None
    # four fields a row: a row's last field ends where its line does
    fields = "".join(rows).replace("\n", ",").split(",")
    bits = fields[1::4]
    if not n or len(bits[0]) < _LOW_BITS:
        return None
    # comma-free lists match as their joins do
    low = _low_bits(_LOW_BITS)
    written = ",".join([
        high + ("," + high).join(low[i.start % len(low) :][: len(i)])
        for i, high in _bit_runs(start, start + n, len(bits[0]))
    ])
    if not (
        all(map(operator.eq, fields[0 : 4 * n : 4], map(str, itertools.count(start))))
        and ",".join(bits) == written
    ):
        return None
    try:
        counts = array("d", map(float, fields[2::4]))
        array("d", map(float, fields[3::4]))
    except ValueError:
        return None
    return counts if np.all(np.abs(np.frombuffer(counts)) <= 2.0**53) else None


def histogram_from_csv(fh) -> np.ndarray:
    """The float64 counts of a histogram CSV read from the text file ``fh``.

    Empty lines and lines starting with '#' or 'index' are skipped.  Every
    other line is one outcome's row in index order, with four fields: field 0
    is its position, field 1 that position in binary (digits 0 and 1 only,
    leading zeros allowed), field 2 its count, finite and at most 2^53 in
    magnitude, and field 3 a probability that parses as a float.
    """
    counts = array("d")
    while lines := list(itertools.islice(fh, CSV_CHUNK_ROWS)):
        # a chunk whose lines all read as rows holds no line to skip; a chunk
        # that without them still breaks a rule, or is not in the writer's
        # form, is read row by row, which names the first bad row
        start = len(counts)
        chunk = _fast_counts(lines, start)
        if chunk is None:
            rows = list(itertools.filterfalse(_SKIPPED, lines))
            chunk = _fast_counts(rows, start)
            if chunk is None:
                chunk = _checked_counts(rows, start)
        counts += chunk
    return np.frombuffer(counts)
