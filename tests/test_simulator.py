"""Dense statevector execution and seeded shot sampling."""

import io
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_text,
    drifting_circuit,
    grid,
    identity_circuit,
    oracle_apply_gate,
    oracle_run,
    random_staircase_circuit,
    random_state,
    random_unitary4,
    written,
)
from qimgload import cli, simulator
from qimgload.errors import InputFormatError, NumericError, ValidationError
from qimgload.image_codec import encode_amplitudes
from qimgload.simulator import (
    apply_gate,
    apply_gate_dense,
    curve_to_csv,
    gate_operands,
    histogram_from_csv,
    histogram_to_csv,
    histogram_to_probs,
    run,
    sample,
    state_to_csv,
)


class TestApplyGateDense:
    def test_matches_kron_oracle_every_site(self, rng):
        # site n-2 takes the post == 1 GEMM; at n = 11, sites 7 and 8 (pre >= 128,
        # post 4 and 2) take the GEMM against matrix ⊗ I_post; the rest, from
        # pre == 1 up, take the batched matmul
        for n, complex_valued in itertools.product((6, 11), (False, True)):
            vec = random_state(rng, n, complex_valued)
            for site in range(n - 1):
                gate = random_unitary4(rng, complex_valued)
                out = apply_gate_dense(vec, gate, site, n)
                assert out.dtype == vec.dtype and out.shape == vec.shape
                np.testing.assert_allclose(out, oracle_apply_gate(vec, gate, site, n), atol=1e-12)

    def test_out_must_be_contiguous(self, rng):
        vec = random_state(rng, 4)
        with pytest.raises(ValidationError, match="contiguous"):
            gate_operands(vec, 1, 4, np.empty(32)[::2])

    @pytest.mark.parametrize(
        "vec_complex, gate_complex",
        [(False, False), (True, True), (False, True)],
        ids=["real", "complex", "complex-gate"],
    )
    @pytest.mark.parametrize(
        "site",
        [
            pytest.param(10, id="post-1-gemm"),
            pytest.param(8, id="kron-gemm"),
            pytest.param(3, id="batched-matmul"),
        ],
    )
    def test_split_product_equals_apply_gate_dense(self, rng, site, vec_complex, gate_complex):
        # operands built once serve every gate applied through them; the
        # Kronecker branch rewrites its factor's diagonal blocks each time
        n = 12
        vec = random_state(rng, n, vec_complex)
        dtype = complex if vec_complex or gate_complex else float
        out = np.full(vec.size, np.nan, dtype=dtype)
        operands = gate_operands(vec, site, n, out)
        shape = (2**site, 4, 2 ** (n - site - 2))
        for _ in range(2):
            gate = random_unitary4(rng, gate_complex)
            assert apply_gate(operands, gate) is None
            np.testing.assert_array_equal(out, apply_gate_dense(vec, gate, site, n))
            want = np.einsum("rc,xcy->xry", gate, vec.reshape(shape)).reshape(-1)
            np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("site", [10, 8, 3], ids=["post-1-gemm", "kron-gemm", "batched-matmul"])
    def test_complex_gate_into_a_real_out_raises(self, rng, site):
        # the imaginary part is never dropped silently
        vec = random_state(rng, 12)
        operands = gate_operands(vec, site, 12, np.empty_like(vec))
        with pytest.raises(TypeError):
            apply_gate(operands, random_unitary4(rng, True))

    def test_site_bit_is_most_significant(self):
        # [DERIVED] a NOT on the gate's first qubit must flip the higher bit
        flip_first = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
        vec = np.zeros(8)
        vec[0] = 1.0
        out = apply_gate_dense(vec, flip_first, 1, 3)
        assert out[0b010] == 1.0

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_preserves_norm(self, seed):
        local = np.random.default_rng(seed)
        n = int(local.integers(2, 7))
        vec = random_state(local, n)
        out = apply_gate_dense(vec, random_unitary4(local), int(local.integers(0, n - 1)), n)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestRun:
    def test_matches_gate_by_gate_oracle(self, rng):
        c = random_staircase_circuit(rng, 5, 2)
        np.testing.assert_allclose(run(c), oracle_run(c), atol=1e-12)

    def test_identity_circuit_prepares_zero(self, rng):
        state = run(identity_circuit(4))
        expected = np.zeros(16)
        expected[0] = 1.0
        np.testing.assert_array_equal(state, expected)

    def test_unit_norm_enforced_not_imposed(self, rng):
        # the result is unitary-exact, not renormalized after the fact
        c = random_staircase_circuit(rng, 6, 3)
        assert abs(np.linalg.norm(run(c)) - 1.0) < 1e-12

    def test_rejects_a_nan_state(self, rng, monkeypatch):
        # a NaN norm must fail the unit-norm check, not pass it
        c = random_staircase_circuit(rng, 4, 1)

        def poisoned(vec, *_):
            return np.full_like(vec, np.nan)

        monkeypatch.setattr(simulator, "apply_gate_dense", poisoned)
        with pytest.raises(ValidationError, match="unit norm"):
            run(c)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError, match=r"^statevector must have unit norm within 1e-10$"):
            run(drifting_circuit())

    def test_probabilities_sum_to_one(self, rng):
        v = random_state(rng, 3, complex_valued=True)
        assert (np.abs(v) ** 2).sum() == pytest.approx(1.0, abs=1e-12)


class TestSample:
    def test_seeded_reproducibility(self, rng):
        v = random_state(rng, 4)
        a = sample(v, shots=5000, seed=42)
        b = sample(v, shots=5000, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, rng):
        v = random_state(rng, 4)
        a = sample(v, shots=5000, seed=0)
        b = sample(v, shots=5000, seed=1)
        assert np.any(a != b)

    def test_counts_sum_to_shots(self, rng):
        v = random_state(rng, 3)
        assert int(sample(v, shots=777, seed=3).sum()) == 777

    def test_empirical_distribution_converges(self, rng):
        v = np.sqrt([0.4, 0.3, 0.2, 0.1])
        probs = histogram_to_probs(sample(v, shots=200_000, seed=9))
        np.testing.assert_allclose(probs, np.abs(v) ** 2, atol=5e-3)

    def test_matches_reference_generator(self, rng):
        # [DERIVED] pin the exact stream: same seed + same probs through
        # numpy's generator must give identical counts
        v = np.sqrt([0.4, 0.3, 0.2, 0.1])
        probs = np.abs(v) ** 2
        expected = np.random.default_rng(11).multinomial(100, probs / probs.sum())
        np.testing.assert_array_equal(sample(v, shots=100, seed=11), expected)

    def test_rejects_zero_shots(self, rng):
        v = np.array([1.0, 0, 0, 0])
        with pytest.raises(ValidationError):
            sample(v, shots=0)


class TestHistogram:
    def test_csv_format(self):
        lines = written(histogram_to_csv, np.array([3, 0, 1, 0])).splitlines()
        assert lines[0] == "index,bitstring,count,probability"
        assert lines[1].startswith("0,00,3,")
        assert lines[3].startswith("2,10,1,")

    def test_csv_rejects_a_histogram_without_shots(self):
        with pytest.raises(NumericError, match="histogram holds no counts"):
            written(histogram_to_csv, np.zeros(4, dtype=np.int64))

    @pytest.mark.parametrize(
        "counts",
        [[3, 0, 1, 0], [7, 7, 1, 0, 2**40, 5, 3, 1], [2**62, 3, 2**61 + 1, 0, 7, 1, 1, 2**53 + 1]],
        ids=["small", "repeated-counts", "shots-above-2^53"],
    )
    def test_probability_is_count_over_shots(self, counts):
        # each distinct count is divided once, with the same operands as counts / shots
        h = np.array(counts, dtype=np.int64)
        rows = written(histogram_to_csv, h).splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == [repr(p) for p in (h / h.sum()).tolist()]

    def test_histogram_peak_memory(self, tmp_path, rng):
        # one sorted copy of the counts and one chunk's rows and text; the
        # bit table is small next to them
        n = 16
        counts = sample(rng.standard_normal(2**n), 10**6, seed=0)
        with (tmp_path / "histogram.csv").open("w") as fh:
            histogram_to_csv(counts, fh)  # first-use allocations are not the writer's memory
            tracemalloc.start()
            try:
                histogram_to_csv(counts, fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2.25 * 2**n * 8, f"peak {peak / (2**n * 8):.2f} arrays of 2^N float64"

    def test_state_csv_roundtrips_floats(self, rng):
        v = random_state(rng, 2)
        lines = written(state_to_csv, v).splitlines()[1:]
        values = [float(line.split(",")[1]) for line in lines]
        np.testing.assert_array_equal(values, v)

    def test_state_csv_roundtrips_complex(self, rng):
        v = random_state(rng, 3, complex_valued=True)
        lines = written(state_to_csv, v).splitlines()[1:]
        values = [complex(line.split(",")[1]) for line in lines]
        np.testing.assert_array_equal(values, v)


def reference_state_csv(v: np.ndarray) -> str:
    """The writer's format, one numpy scalar per line."""
    convert = complex if np.iscomplexobj(v) else float
    lines = ["index,amplitude"]
    for i, a in enumerate(v):
        lines.append(f"{i},{convert(a)!r}")
    return "\n".join(lines) + "\n"


def reference_histogram_csv(counts: np.ndarray) -> str:
    """The writer's format, one numpy scalar per line."""
    n_bits = max(int(np.log2(len(counts))), 1)
    probs = counts / counts.sum()
    lines = ["index,bitstring,count,probability"]
    for i, (count, p) in enumerate(zip(counts, probs)):
        lines.append(f"{i},{i:0{n_bits}b},{int(count)},{float(p)!r}")
    return "\n".join(lines) + "\n"


# lengths around the writer's bit table, around a chunk, and four chunks
EDGE_LENGTHS = sorted({
    1, 2, 3,
    2**simulator._LOW_BITS - 1, 2**simulator._LOW_BITS, 2**simulator._LOW_BITS + 1,
    4095, 4096, 4097, 5000, 2**14,
})


class TestCsvGoldenBytes:
    """Each CSV writer against a line-by-line reference of its format.

    N = 13 gives 8192 rows, so the writers' chunked joins cross a chunk
    boundary.
    """

    N = 13

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_curve_csv(self, rng, dtype):
        # 2^13 values cross a chunk boundary of the writer
        seq = (rng.standard_normal(2**13) * 100).astype(dtype)
        text = written(curve_to_csv, seq)
        assert_same_text(text, "\n".join(repr(float(v)) for v in seq) + "\n")
        assert text.count("\n") == 2**13

    def test_curve_csv_of_an_encoded_state(self):
        state = encode_amplitudes(grid([[0.0, 0.25], [0.25, 0.5]]))
        assert written(curve_to_csv, state) == "0.0\n0.5\n0.5\n0.7071067811865476\n"

    @pytest.mark.parametrize(
        "dtype", [np.float64, np.complex128, np.float32, np.complex64, np.int64]
    )
    def test_state_csv(self, rng, dtype):
        if np.issubdtype(dtype, np.integer):
            amplitudes = np.zeros(2**self.N, dtype=dtype)
            amplitudes[4097] = -1
        else:
            complex_valued = np.issubdtype(dtype, np.complexfloating)
            amplitudes = random_state(rng, self.N, complex_valued).astype(dtype)
        text = written(state_to_csv, amplitudes)
        assert_same_text(text, reference_state_csv(amplitudes))
        assert text.count("\n") == 2**self.N + 1
        if np.issubdtype(dtype, np.integer):
            assert "\n4096,0.0\n4097,-1.0\n4098,0.0\n" in text

    def test_state_csv_prints_python_reprs(self):
        text = written(state_to_csv, np.array([0.6, 0.8j]))
        assert text == "index,amplitude\n0,(0.6+0j)\n1,0.8j\n"

    def test_million_shot_histogram(self, rng):
        v = random_state(rng, self.N, complex_valued=True)
        h = sample(v, shots=10**6, seed=5)
        assert_same_text(written(histogram_to_csv, h), reference_histogram_csv(h))

    @pytest.mark.parametrize(
        "counts, expected",
        [
            ([2, 0, 5], "0,0,2,0.2857142857142857\n1,1,0,0.0\n2,10,5,0.7142857142857143\n"),
            ([4], "0,0,4,1.0\n"),
        ],
    )
    def test_short_histograms(self, counts, expected):
        h = np.array(counts)
        text = written(histogram_to_csv, h)
        assert_same_text(text, reference_histogram_csv(h))
        assert text == "index,bitstring,count,probability\n" + expected

    @pytest.mark.parametrize("length", EDGE_LENGTHS)
    def test_histogram_at_the_edges_of_the_bit_table(self, rng, length):
        # the bitstrings are a per-run high part and a low part from a table of
        # 2^_LOW_BITS strings; around its size, around a chunk and at 2^14 (four
        # chunks, high parts of two bits) they must stay f"{i:0{n_bits}b}"
        h = rng.integers(0, 4, length)
        h[-1] += 1
        assert_same_text(written(histogram_to_csv, h), reference_histogram_csv(h))


def read_histogram(text: str) -> np.ndarray:
    return histogram_from_csv(io.StringIO(text))


class TestHistogramFromCsv:
    @pytest.mark.parametrize("counts", [[2, 0, 5], [4]], ids=["three", "one"])
    def test_short_histograms_round_trip(self, counts):
        got = read_histogram(written(histogram_to_csv, np.array(counts)))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, counts)

    # and every writer file narrower than the bit table, which is read row by row
    @pytest.mark.parametrize("length", sorted({*EDGE_LENGTHS, *(2**n for n in range(1, 8))}))
    def test_round_trip_at_every_edge_length(self, rng, length):
        h = rng.integers(0, 4, length)
        h[-1] += 1
        np.testing.assert_array_equal(read_histogram(written(histogram_to_csv, h)), h)

    def test_round_trip_across_chunks(self, rng):
        # 2^13 outcomes span two reader chunks
        h = sample(random_state(rng, 13, complex_valued=True), shots=10**6, seed=5)
        np.testing.assert_array_equal(read_histogram(written(histogram_to_csv, h)), h)

    @pytest.mark.parametrize("n", [8, 16])
    def test_writer_files_are_read_a_column_at_a_time(self, rng, tmp_path, monkeypatch, n):
        # reconstruct's speed on real files rests on this: no chunk of a
        # written histogram.csv, provenance header and all, is read row by row
        counts = sample(random_state(rng, n), shots=10**5, seed=0)
        path = tmp_path / "histogram.csv"
        with cli._csv_file(path, cli.PipelineConfig()) as fh:
            histogram_to_csv(counts, fh)
        checked = []
        row_by_row = simulator._checked_counts

        def spy(rows, start):
            checked.append(start)
            return row_by_row(rows, start)

        monkeypatch.setattr(simulator, "_checked_counts", spy)
        with path.open() as fh:
            np.testing.assert_array_equal(histogram_from_csv(fh), counts)
        assert checked == []

    @pytest.mark.parametrize("n", [8, 16])
    def test_writer_files_take_one_column_pass_per_chunk(self, rng, tmp_path, monkeypatch, n):
        # the provenance header and the column row are skipped before the
        # first chunk, so every chunk is a run of rows that one column pass reads
        counts = sample(random_state(rng, n), shots=10**5, seed=0)
        path = tmp_path / "histogram.csv"
        with cli._csv_file(path, cli.PipelineConfig()) as fh:
            histogram_to_csv(counts, fh)
        calls = []
        for name in ("_fast_counts", "_checked_counts"):
            def counted(rows, start, name=name, kernel=getattr(simulator, name)):
                calls.append((name, start, len(rows)))
                return kernel(rows, start)

            monkeypatch.setattr(simulator, name, counted)
        with path.open() as fh:
            np.testing.assert_array_equal(histogram_from_csv(fh), counts)
        chunk = simulator.CSV_CHUNK_ROWS
        assert calls == [
            ("_fast_counts", start, min(chunk, 2**n - start)) for start in range(0, 2**n, chunk)
        ]

    @pytest.mark.parametrize("padded", [[300], range(512)], ids=["one-row", "every-row"])
    def test_a_writer_file_with_padded_bitstrings_is_read(self, rng, padded):
        # one padded row sends its chunk row by row; padding every row keeps
        # the writer's form, one digit wider
        h = rng.integers(0, 4, 2**9)
        rows = written(histogram_to_csv, h).splitlines(keepends=True)
        for i in padded:
            rows[1 + i] = rows[1 + i].replace(",", ",0", 1)
        np.testing.assert_array_equal(read_histogram("".join(rows)), h)

    def test_skips_empty_comment_and_column_lines(self):
        text = "# tool: x\n\nindex,bitstring,count,probability\n0,0,3,0.75\n\n# c\n1,1,1,0.25"
        np.testing.assert_array_equal(read_histogram(text), [3.0, 1.0])

    def test_no_rows_is_an_empty_histogram(self):
        assert read_histogram("index,bitstring,count,probability\n").size == 0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,1,3,0.5\n0,0,1,0.5\n", r"^histogram row out of index order, expected index 0: "
                                       r"'1,1,3,0.5'$"),
            ("0,0,3,0.5\n2,10,1,0.5\n", "expected index 1: '2,10,1,0.5'"),
            ("0,0,3,0.5\n0,0,1,0.5\n", "expected index 1: '0,0,1,0.5'"),
            ("0,0,3,0.5\n 1,1,1,0.5\n", "expected index 1"),
            ("0,0,3,0.5\n01,1,1,0.5\n", "expected index 1"),
            ("0,0,x,0.5\n", r"^histogram row without a numeric count: '0,0,x,0.5'$"),
            ("0,0\n", "without a numeric count: '0,0'"),
            ("0,0,1e400,0\n", "finite"),
            ("0,0,nan,0\n", "finite"),
            ("0,0,9007199254740994,0\n", "at most 2\\^53"),
            ("0,0,3,0.5\n1,0001,2,x,y\n", r"^histogram row with 5 fields, expected 4: "
                                         r"'1,0001,2,x,y'$"),
            ("0,0,3\n", "with 3 fields, expected 4: '0,0,3'"),
            ("0,0,3,0.5\n1,0,1,0.5\n", r"^histogram row whose bitstring is not 1 in binary: "
                                       r"'1,0,1,0.5'$"),
            ("0,0,3,0.5\n1,0b1,1,0.5\n", "bitstring is not 1 in binary"),
            ("0,0,3,0.5\n1, 1,1,0.5\n", "bitstring is not 1 in binary"),
            ("0,0,3,0.5\n1,+1,1,0.5\n", "bitstring is not 1 in binary"),
            ("0,0,3,0.5\n1,1,1,0.5\n2,1_0,1,0.5\n", "bitstring is not 2 in binary"),
            ("0,0,3,0.5\n1,1,1,0.5\n2,2,1,0.5\n", "bitstring is not 2 in binary"),
            ("0,,3,0.5\n", "bitstring is not 0 in binary"),
            # 8 digits pass the column check's width rule, but not as 256 in binary
            ("".join(f"{i},{i % 256:08b},1,0\n" for i in range(300)),
             "bitstring is not 256 in binary: '256,00000000,1,0'"),
            ("0,0,3,x\n", r"^histogram row without a numeric probability: '0,0,3,x'$"),
            ("0,0,3,\n", "without a numeric probability"),
        ],
        ids=["reversed", "skipped", "repeated", "padded", "zero-padded", "count", "short",
             "inf", "nan", "above-2^53", "five-fields", "three-fields", "wrong-bitstring",
             "0b-bitstring", "space-bitstring", "signed-bitstring", "underscore-bitstring",
             "decimal-bitstring", "empty-bitstring", "eight-digits-past-255", "probability",
             "empty-probability"],
    )
    def test_rejects(self, text, message):
        with pytest.raises(InputFormatError, match=message):
            read_histogram(text)

    def test_rejects_a_row_out_of_order_in_a_later_chunk(self):
        rows = [f"{i},{i:013b},1,0\n" for i in range(5000)]
        rows[4500] = "4501,1000110010101,1,0\n"
        with pytest.raises(InputFormatError,
                           match="expected index 4500: '4501,1000110010101,1,0'"):
            read_histogram("".join(rows))

    @pytest.mark.parametrize("position", [0, 4095, 4096, 4500], ids=str)
    @pytest.mark.parametrize(
        "row, message",
        [("{i},{bits},1,0,0", "with 5 fields"), ("{i},0{bits}1,1,0", "whose bitstring is not"),
         ("{i},{wrong},1,0", "whose bitstring is not"),
         ("{i},000{wrong},1,0", "whose bitstring is not"),
         ("{i},{bits},1,p", "without a numeric probability")],
        ids=["fields", "bitstring", "writer-width-bitstring", "over-padded-bitstring",
             "probability"],
    )
    def test_rejects_a_bad_row_anywhere(self, position, row, message):
        # a chunk is checked a column at a time when it reads cleanly, and
        # row by row otherwise; both must catch the row wherever it is
        rows = [f"{i},{i:013b},1,0\n" for i in range(5000)]
        bits, wrong = f"{position:013b}", f"{position ^ 1:013b}"
        rows[position] = row.format(i=position, bits=bits, wrong=wrong) + "\n"
        with pytest.raises(InputFormatError, match=f"^histogram row {message}.*: '{position},"):
            read_histogram("".join(rows))

    def test_any_padding_of_the_bitstring_is_read(self):
        text = "0,0,3,0.5\n1,0001,2,0.25\n2,10,1,0.125\n"
        np.testing.assert_array_equal(read_histogram(text), [3.0, 2.0, 1.0])

    @pytest.mark.parametrize("width", [0, 13, 20], ids=["unpadded", "writer-padded", "over-padded"])
    def test_any_padding_is_read_across_chunks(self, width):
        # the leading comment and column lines are skipped before the first chunk
        rows = [f"{i},{i:0{width}b},{i % 7},0\n" for i in range(9000)]
        text = "# tool: x\nindex,bitstring,count,probability\n" + "".join(rows)
        np.testing.assert_array_equal(read_histogram(text), [i % 7 for i in range(9000)])

    @pytest.mark.parametrize("width", [0, 13, 20], ids=["unpadded", "writer-padded", "over-padded"])
    def test_lines_to_skip_among_the_rows_are_read_across_chunks(self, width):
        # two lines to skip among the first chunk's rows put the second chunk's
        # first row at index 4094, off the 2^_LOW_BITS runs of the writer's bit table
        rows = [f"{i},{i:0{width}b},{i % 7},0\n" for i in range(9000)]
        rows[100:100] = ["# c\n", "\n"]
        np.testing.assert_array_equal(read_histogram("".join(rows)), [i % 7 for i in range(9000)])

    def test_a_narrow_bit_table_vouches_for_no_row_past_it(self):
        # unpadded bitstrings start one digit wide; a table of one-digit low
        # bits, with "1" as the high text of 256..511, would give "10" for 256
        rows = [f"{i},{i:b},1,0\n" for i in range(256)]
        rows += [f"{i},1{i - 256:b},1,0\n" for i in range(256, 300)]
        with pytest.raises(InputFormatError, match="bitstring is not 256 in binary: '256,10,1,0'"):
            read_histogram("".join(rows))
