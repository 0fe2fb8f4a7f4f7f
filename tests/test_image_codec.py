"""Image ingestion, the ladder bit-interleaving codec, and file formats."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_text, grid, ladder_index, oracle_encode, traced_peak
from qimgload.errors import InputFormatError, NumericError, ValidationError
from qimgload.image_codec import (
    _PGM_TOKEN,
    ORDERINGS,
    ImageGrid,
    check_ordering,
    decode_probabilities,
    downscale,
    encode_amplitudes,
    load_csv,
    load_image,
    load_pgm,
    pixel_to_basis_index,
    write_pgm,
)


class TestCheckOrdering:
    def test_known_names_pass(self):
        assert ORDERINGS == ("straight", "snake")
        for name in ORDERINGS:
            assert check_ordering(name) == name

    @pytest.mark.parametrize(
        "name", ["diag", None, 1, ["snake"]], ids=["diag", "none", "int", "list"]
    )
    def test_unknown_rejected(self, name):
        # the codec's entry points check the name before any rung is mapped
        for call in (
            lambda: check_ordering(name),
            lambda: pixel_to_basis_index(0, 0, 4, name),
            lambda: encode_amplitudes(grid(np.full((4, 4), 0.5)), name),
            lambda: decode_probabilities(np.full(16, 1 / 16), 4, name),
        ):
            with pytest.raises(ValidationError, match=re.escape(f"unknown ordering {name!r}")):
                call()


class TestImageGrid:
    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            grid(np.zeros((2, 4)))

    def test_rejects_non_power_of_two_side(self):
        with pytest.raises(ValidationError):
            grid(np.zeros((3, 3)))

    def test_rejects_out_of_range_intensity(self):
        with pytest.raises(ValidationError):
            grid([[0.0, 1.5], [0.2, 0.3]])

    def test_pixels_frozen(self):
        g = grid([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(ValueError):
            g.pixels[0, 0] = 0.9


class TestPixelToBasisIndex:
    def test_straight_interleaving_4x4(self):
        # [DERIVED] x=0b10, y=0b01 -> bits x1 y1 x2 y2 = 1,0,0,1 -> 0b1001 = 9
        assert pixel_to_basis_index(0b10, 0b01, 4, "straight") == 0b1001

    def test_snake_swaps_odd_rungs(self):
        # [DERIVED] snake puts rung 2 in y,x order: bits 1,0,1,0 -> 0b1010 = 10
        assert pixel_to_basis_index(0b10, 0b01, 4, "snake") == 0b1010

    def test_corners(self):
        L = 16
        assert pixel_to_basis_index(0, 0, L) == 0
        assert pixel_to_basis_index(L - 1, L - 1, L) == L * L - 1

    def test_straight_equals_snake_at_l2(self):
        # only one rung, so there is nothing to alternate
        for x in range(2):
            for y in range(2):
                assert pixel_to_basis_index(x, y, 2, "straight") == pixel_to_basis_index(
                    x, y, 2, "snake"
                )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            pixel_to_basis_index(4, 0, 4)
        with pytest.raises(ValidationError):
            pixel_to_basis_index(0, 0, 3)

    @given(st.integers(min_value=1, max_value=5), st.sampled_from(ORDERINGS))
    def test_is_a_bijection(self, n, ordering):
        L = 2**n
        seen = {
            pixel_to_basis_index(x, y, L, ordering) for x in range(L) for y in range(L)
        }
        assert seen == set(range(L * L))


class TestBasisPermutation:
    @given(st.integers(min_value=1, max_value=5), st.sampled_from(ORDERINGS))
    @settings(max_examples=10)
    def test_matches_scalar_map(self, n, ordering):
        # the bit-axis transpose of encode and decode against the scalar oracle
        L = 2**n
        index = ladder_index(L, ordering)
        for k in range(L * L):
            basis = np.zeros(L * L)
            basis[k] = 1.0
            lit = decode_probabilities(basis, L, ordering).pixels
            assert np.array_equal(lit, index == k)
        pixels = (np.arange(L * L).reshape(L, L) + 1.0) / (L * L)
        state = encode_amplitudes(ImageGrid(pixels), ordering)
        np.testing.assert_allclose(state[index], np.sqrt(pixels / pixels.sum()), rtol=1e-14)

    def test_adjacent_pixels_are_bit_neighbors(self):
        # [DERIVED] flipping the least significant y bit flips exactly qubit N-1
        index = ladder_index(8, "straight")
        assert np.all((index[:, 1::2] ^ index[:, 0::2]) == 1)


class TestEncodeAmplitudes:
    def test_matches_loop_oracle_straight(self, rng):
        pixels = rng.random((8, 8))
        state = encode_amplitudes(ImageGrid(pixels), "straight")
        assert state.size == 2**6
        np.testing.assert_allclose(state, oracle_encode(pixels), atol=1e-14)

    def test_matches_loop_oracle_snake(self, rng):
        pixels = rng.random((16, 16))
        state = encode_amplitudes(ImageGrid(pixels), "snake")
        np.testing.assert_allclose(
            state, oracle_encode(pixels, snake=True), atol=1e-14
        )

    def test_unit_norm_and_nonnegative(self, rng):
        state = encode_amplitudes(ImageGrid(rng.random((4, 4))))
        assert abs(np.dot(state, state) - 1.0) < 1e-12
        assert np.all(state >= 0)

    def test_probabilities_proportional_to_intensity(self):
        g = grid([[0.1, 0.2], [0.3, 0.4]])
        state = encode_amplitudes(g)
        probs = state**2
        np.testing.assert_allclose(
            probs[ladder_index(2)], g.pixels / g.pixels.sum(), atol=1e-14
        )

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_peak_memory(self, rng, ordering):
        # one L x L array of amplitudes and the transposed copy of it
        g = ImageGrid(rng.random((256, 256)))
        peak = traced_peak(lambda: encode_amplitudes(g, ordering))
        assert peak <= 2.5 * g.pixels.nbytes, f"peak {peak / g.pixels.nbytes:.2f} arrays"

    def test_all_zero_image_rejected(self):
        with pytest.raises(NumericError):
            encode_amplitudes(grid(np.zeros((2, 2))))


class TestDecodeProbabilities:
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25)
    def test_roundtrip_up_to_display_scale(self, n, seed):
        local = np.random.default_rng(seed)
        pixels = local.random((2**n, 2**n)) * 0.99 + 1e-3
        state = encode_amplitudes(ImageGrid(pixels))
        recovered = decode_probabilities(state**2, 2**n)
        np.testing.assert_allclose(recovered.pixels, pixels / pixels.max(), atol=1e-10)

    def test_leaves_the_callers_array_unchanged(self):
        # one entry is clipped to 0 and all are divided by a sum just off 1
        probs = np.array([0.5, -1e-13, 0.25, 0.2500001])
        before = probs.copy()
        recovered = decode_probabilities(probs, 2)
        np.testing.assert_array_equal(probs, before)
        expected = np.clip(before, 0.0, None) / before.sum()
        np.testing.assert_array_equal(recovered.pixels.ravel(), expected / expected.max())

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            decode_probabilities(np.full(4, 0.3), 2)
        with pytest.raises(ValidationError, match="must sum to 1"):
            decode_probabilities(np.array([np.nan, 0.5, 0.25, 0.25]), 2)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            decode_probabilities(np.full(8, 0.125), 2)

    @pytest.mark.parametrize("L", [1, 3])
    def test_rejects_side_not_a_power_of_two(self, L):
        # a square length that is no 2^N: a 1-row or 9-row histogram
        with pytest.raises(ValidationError, match=f"L must be a power of two >= 2, got {L}"):
            decode_probabilities(np.full(L * L, 1 / (L * L)), L)

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_peak_memory(self, rng, ordering):
        # the permuted copy and ImageGrid's clipped copy of it
        probs = rng.random(256 * 256)
        probs /= probs.sum()
        peak = traced_peak(lambda: decode_probabilities(probs, 256, ordering))
        assert peak <= 2.5 * probs.nbytes, f"peak {peak / probs.nbytes:.2f} arrays"


class TestDownscale:
    def test_block_average(self):
        g = grid([[0.0, 1.0, 0.5, 0.5], [1.0, 0.0, 0.5, 0.5],
                  [0.2, 0.2, 0.8, 0.8], [0.2, 0.2, 0.8, 0.8]])
        small = downscale(g, 2)
        np.testing.assert_allclose(small.pixels, [[0.5, 0.5], [0.2, 0.8]])

    def test_identity_at_same_size(self, rng):
        g = ImageGrid(rng.random((8, 8)))
        np.testing.assert_array_equal(downscale(g, 8).pixels, g.pixels)

    def test_upscale_rejected(self):
        with pytest.raises(ValidationError):
            downscale(grid(np.zeros((2, 2)) + 0.5), 4)


WHITESPACE = b" \t\n\r\x0b\x0c"
# the whitespace bytes of bytes.isspace(), bytes that are whitespace only
# elsewhere (str.isspace, Latin-1), NUL, 0xFF, and the bytes of a header
ALPHABET = WHITESPACE + b"\x1c\x85\xa0\x00\xff#P0123456789-+_"


def _pgm_tokens(data: bytes):
    """The byte-at-a-time header tokenizer load_pgm once used: the reference."""
    pos = 0
    while pos < len(data):
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            yield data[pos:end], end
            pos = end


class TestPgm:
    def test_p2_roundtrip(self, rng):
        g = ImageGrid(np.rint(rng.random((4, 4)) * 255) / 255)
        again = load_pgm(write_pgm(g))
        np.testing.assert_allclose(again.pixels, g.pixels, atol=1e-12)

    def test_write_peak_memory(self, rng):
        # one block of rows' samples and text at a time, then the file's text
        # and its bytes
        g = ImageGrid(rng.random((256, 256)))
        peak = traced_peak(lambda: write_pgm(g))
        assert peak <= 2.0 * g.pixels.nbytes, f"peak {peak / g.pixels.nbytes:.2f} arrays"

    def test_p5_binary(self):
        raster = bytes(range(16))
        g = load_pgm(b"P5\n# comment\n4 4\n255\n" + raster)
        np.testing.assert_allclose(g.pixels.ravel() * 255, np.arange(16))

    def test_comments_anywhere_in_header(self):
        g = load_pgm(b"P2 # magic\n2 # width\n2 255\n0 255 128 64\n")
        assert g.side_length == 2

    def test_bad_magic(self):
        with pytest.raises(InputFormatError):
            load_pgm(b"P6\n2 2\n255\n" + bytes(12))

    def test_truncated_raster(self):
        with pytest.raises(InputFormatError):
            load_pgm(b"P2\n2 2\n255\n0 1 2\n")

    def test_sample_above_maxval(self):
        with pytest.raises(InputFormatError):
            load_pgm(b"P2\n2 2\n100\n0 1 2 101\n")

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            load_pgm(b"P2\n4 2\n255\n" + b"0 " * 8)

    @pytest.mark.parametrize(
        "data, error, message",
        [
            (b"", InputFormatError, "empty PGM input"),
            (b" \t# only a comment\n\r\n", InputFormatError, "empty PGM input"),
            (b"P6 2 2 255\n" + bytes(12), InputFormatError,
             "unsupported PGM magic b'P6' (need P2 or P5)"),
            (b"#P2\nP2#x 2 2 255 0 0 0 0", InputFormatError,
             "unsupported PGM magic b'P2#x' (need P2 or P5)"),
            (b"P2 2 2", InputFormatError, "malformed PGM header"),
            (b"P2 2 # 2 255\n", InputFormatError, "malformed PGM header"),
            (b"P5 2 two 255\n", InputFormatError, "malformed PGM header"),
            (b"P2 0 2 255", InputFormatError, "non-positive PGM dimensions"),
            (b"P2 2 -2 255", InputFormatError, "non-positive PGM dimensions"),
            (b"P2 2 2 256 0 0 0 0", InputFormatError, "PGM maxval 256 outside 8-bit range"),
            (b"P5 2 2 0\n" + bytes(4), InputFormatError, "PGM maxval 0 outside 8-bit range"),
            (b"P5 2 2 255\n\x00\x01\x02", InputFormatError, "P5 raster truncated"),
            # width * height above sys.maxsize, past islice's range
            (b"P5 4294967296 4294967296 255\n\x00", InputFormatError, "P5 raster truncated"),
            (b"P2 4294967296 4294967296 255 0 0", InputFormatError, "P2 raster truncated"),
            (b"P2 2 2 255 1 2 # 3\n", InputFormatError, "P2 raster truncated"),
            (b"P2 2 2 255 1 2 x 4", InputFormatError, "non-integer sample in P2 raster"),
            (b"P2 2 2 255 1 2 3#4 5", InputFormatError, "non-integer sample in P2 raster"),
            (b"P2 2 2 255 1_0 +7 0 1", InputFormatError, "non-integer sample in P2 raster"),
            (b"P2 +2 0_2 2_55 1 2 3 4", InputFormatError, "malformed PGM header"),
            (b"P5 2 2 +255\n" + bytes(4), InputFormatError, "malformed PGM header"),
            (b"P2 2 2 3 1 2 3 4", InputFormatError, "sample exceeds declared maxval"),
            (b"P5 2 2 3\n\x00\x01\x02\x04", InputFormatError, "sample exceeds declared maxval"),
            (b"P2 2 1 255 1 2", ValidationError,
             "non-square image 2x1; crop or pad before loading"),
            (b"P2 3 3 255" + b" 0" * 9, ValidationError,
             "side length 3 is not a power of two; "
             "downscale a valid input or pre-pad before loading"),
        ],
    )
    def test_error_messages(self, data, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            load_pgm(data)

    @pytest.mark.parametrize(
        "data",
        [b"P2 " + b"9" * 5000 + b" 4 255 0", b"P2 2 2 255 " + b"1" * 5000 + b" 0 0 0"],
        ids=["header", "p2-sample"],
    )
    def test_integers_past_the_int_digit_limit_are_refused(self, data):
        # int() refuses more than 4300 digits with ValueError; a Python without
        # that limit reads a value that is out of range instead
        with pytest.raises(InputFormatError):
            load_pgm(data)

    def test_extra_p2_tokens_are_ignored(self):
        g = load_pgm(b"P2 2 2 255 0 255 255 0 junk # and more\n")
        np.testing.assert_array_equal(g.pixels, [[0, 1], [1, 0]])

    def test_p5_raster_is_read_verbatim(self):
        # raster bytes that would be whitespace or a comment in the header
        raster = b"#\n \x00"
        g = load_pgm(b"P5 # c\n2\t2\r\n# c\n255\n" + raster)
        np.testing.assert_array_equal(g.pixels.ravel() * 255, list(raster))

    def test_p2_with_random_separators(self):
        # samples planted between runs of whitespace and comments, whose
        # bodies hold every byte of ALPHABET but the newline
        rng = np.random.default_rng(23)

        def pick(pool, n):
            return rng.choice(np.frombuffer(pool, dtype=np.uint8), n).tobytes()

        for _ in range(300):
            side = int(rng.choice([1, 2, 4]))
            maxval = int(rng.integers(1, 256))
            samples = rng.integers(0, maxval + 1, side * side)
            tokens = [b"P2", b"%d" % side, b"%d" % side, b"%d" % maxval]
            data = b""
            for tok in tokens + [b"%d" % v for v in samples] + [b""]:
                sep = pick(WHITESPACE, int(rng.integers(1, 4)))
                if rng.random() < 0.3:
                    sep += b"#" + pick(ALPHABET.replace(b"\n", b""), int(rng.integers(0, 6)))
                    sep += b"\n"
                data += sep + tok
            g = load_pgm(data)
            np.testing.assert_array_equal(g.pixels.ravel(), samples / maxval)

    def test_token_pattern_equals_the_byte_tokenizer(self):
        # load_pgm's token stream, (token, end offset) with comments dropped,
        # against the reference over random byte strings; a P5 raster starts
        # one byte after the maxval token's end offset
        rng = np.random.default_rng(2023)
        alphabet = np.frombuffer(ALPHABET, dtype=np.uint8)
        for _ in range(25_000):
            data = rng.choice(alphabet, int(rng.integers(0, 40))).tobytes()
            matches = [m for m in _PGM_TOKEN.finditer(data) if m[0][:1] != b"#"]
            assert [(m[0], m.end()) for m in matches] == list(_pgm_tokens(data)), data
            # group 1, the integer, is exactly the tokens of ASCII digits after an optional "-"
            for m in matches:
                assert m[1] == (m[0] if re.fullmatch(rb"-?[0-9]+", m[0]) else None), data


class TestWriterGoldenBytes:
    """Each writer against a line-by-line reference of its format."""

    def test_pgm(self, rng):
        for L in (1, 2, 128):
            g = ImageGrid(rng.random((L, L)))
            samples = np.rint(g.pixels * 255).astype(int)
            lines = ["P2", f"{L} {L}", "255"]
            lines += [" ".join(str(v) for v in row) for row in samples]
            assert_same_text(write_pgm(g).decode(), "\n".join(lines) + "\n")

    def test_pgm_text(self):
        assert write_pgm(grid([[0.0, 1.0], [0.5, 0.2]])) == b"P2\n2 2\n255\n0 255\n128 51\n"


class TestCsv:
    def test_roundtrip(self, rng):
        g = ImageGrid(rng.random((4, 4)))
        text = "\n".join(",".join(repr(v) for v in row) for row in g.pixels.tolist()) + "\n"
        again = load_csv(text.encode())
        np.testing.assert_allclose(again.pixels, g.pixels, atol=0)

    def test_ragged_rejected(self):
        with pytest.raises(InputFormatError):
            load_csv(b"0.1,0.2\n0.3\n")

    def test_non_numeric_rejected(self):
        with pytest.raises(InputFormatError):
            load_csv(b"0.1,spam\n0.3,0.4\n")

    def test_empty_rejected(self):
        with pytest.raises(InputFormatError):
            load_csv(b"\n\n")


class TestLoadImage:
    def test_from_path(self, tmp_path, rng):
        g = ImageGrid(np.rint(rng.random((2, 2)) * 255) / 255)
        path = tmp_path / "img.pgm"
        path.write_bytes(write_pgm(g))
        for source in (path, str(path)):
            np.testing.assert_allclose(load_image(source, "pgm").pixels, g.pixels, atol=1e-12)

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "img.bmp"
        path.write_bytes(b"")
        with pytest.raises(InputFormatError):
            load_image(path, "bmp")
