"""Image ingestion and the pixel <-> computational-basis-index codec.

Pixels live on an L x L grid (L a power of two) and are mapped onto a
chain of N = 2*log2(L) qubits by interleaving the bits of the x and y
coordinates, most significant rung first (the 2-leg-ladder ordering),
which is a transpose of the image reshaped into its N bit axes.
Amplitudes are sqrt(p_xy / norm) with all phases fixed to zero.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError, NumericError, ValidationError
from .state_rows import CSV_CHUNK_ROWS

# Both orderings put the most significant x/y bits on the leftmost rung
# (qubit 0 is the most significant bit of the basis index).  "straight"
# places the x bit before the y bit on every rung; "snake" alternates the
# order on successive rungs.
ORDERINGS = ("straight", "snake")


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def check_ordering(name) -> str:
    """Return ``name`` if it is one of ORDERINGS; raise ValidationError otherwise."""
    if not isinstance(name, str) or name not in ORDERINGS:
        raise ValidationError(f"unknown ordering {name!r}")
    return name


@dataclass(frozen=True)
class ImageGrid:
    """Square grid of intensities in [0, 1], side length a power of two.

    ``pixels[x, y]`` is the intensity at row x, column y (both 0-based).
    """

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValidationError(f"image must be square, got shape {p.shape}")
        if not _is_power_of_two(p.shape[0]):
            raise ValidationError(
                f"side length {p.shape[0]} is not a power of two; "
                "downscale a valid input or pre-pad before loading"
            )
        if not np.all((p >= -1e-12) & (p <= 1 + 1e-12)):  # NaN fails both comparisons
            raise ValidationError("pixel intensities must lie in [0, 1]")
        p = np.clip(p, 0.0, 1.0)
        p.setflags(write=False)
        object.__setattr__(self, "pixels", p)

    @property
    def side_length(self) -> int:
        return self.pixels.shape[0]


def pixel_to_basis_index(x: int, y: int, L: int, ordering: str = "straight") -> int:
    """Map 0-based pixel coordinates to a computational-basis index."""
    if not _is_power_of_two(L) or L < 2:
        raise ValidationError(f"L must be a power of two >= 2, got {L}")
    if not (0 <= x < L and 0 <= y < L):
        raise ValidationError(f"coordinates ({x}, {y}) out of range for L={L}")
    snake = check_ordering(ordering) == "snake"
    n = L.bit_length() - 1
    index = 0
    for k in range(n):
        xk = (x >> (n - 1 - k)) & 1
        yk = (y >> (n - 1 - k)) & 1
        if snake and k % 2 == 1:
            xk, yk = yk, xk
        index = (index << 2) | (xk << 1) | yk
    return index


def _ladder_axes(n: int, ordering: str) -> list:
    """Axis order that puts an image reshaped to (2,) * 2n on the qubits.

    Axis k is x bit k and axis n+k is y bit k, most significant first; rung k
    holds qubits 2k and 2k+1, the pair swapped on odd rungs under "snake"."""
    snake = check_ordering(ordering) == "snake"
    axes = []
    for k in range(n):
        axes += (n + k, k) if snake and k % 2 == 1 else (k, n + k)
    return axes


def encode_amplitudes(g: ImageGrid, ordering: str = "straight") -> np.ndarray:
    """Amplitude-encode an image: amplitude sqrt(p_xy / sum p) at the ladder index.

    Returns the unit-norm, nonnegative vector of L^2 = 2^N amplitudes.
    """
    L = g.side_length
    if L < 2:
        raise ValidationError("cannot encode a 1x1 image (needs at least one qubit per axis)")
    norm = float(g.pixels.sum())
    if norm <= 0.0:
        raise NumericError("all-zero image cannot be normalized")
    n = L.bit_length() - 1
    amplitudes = np.sqrt(g.pixels / norm).reshape((2,) * (2 * n))
    flat = amplitudes.transpose(_ladder_axes(n, ordering)).ravel()
    flat /= np.linalg.norm(flat)
    return flat


def decode_probabilities(probs: np.ndarray, L: int, ordering: str = "straight") -> ImageGrid:
    """Reshape a measured probability vector back into an image.

    The result is display-normalized: the brightest pixel is rescaled to 1
    (the absolute scale is unrecoverable from a histogram).
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size != L * L:
        raise ValidationError(f"probability vector length {p.size} does not match L^2={L*L}")
    if np.any(p < -1e-12):
        raise ValidationError("probabilities must be nonnegative")
    total = p.sum()
    if not abs(total - 1.0) <= 1e-6:
        raise ValidationError(f"probabilities must sum to 1 within 1e-6, got {total}")
    if not _is_power_of_two(L) or L < 2:
        raise ValidationError(f"L must be a power of two >= 2, got {L}")
    n = L.bit_length() - 1
    # one permuting copy; the elementwise steps give the same bits after it
    inverse = np.argsort(_ladder_axes(n, ordering))
    grid = p.reshape((2,) * (2 * n)).transpose(inverse).copy().reshape(L, L)
    np.clip(grid, 0.0, None, out=grid)
    grid /= total
    peak = grid.max()
    if peak <= 0.0:
        raise NumericError("degenerate all-zero probability vector")
    grid /= peak
    return ImageGrid(grid)


def downscale(g: ImageGrid, target_L: int) -> ImageGrid:
    """Block-average down to target_L x target_L."""
    L = g.side_length
    if target_L < 1 or not _is_power_of_two(target_L):
        raise ValidationError(f"target side {target_L} must be a power of two")
    if target_L > L or L % target_L != 0:
        raise ValidationError(f"target side {target_L} must divide the current side {L}")
    b = L // target_L
    blocks = g.pixels.reshape(target_L, b, target_L, b)
    return ImageGrid(blocks.mean(axis=(1, 3)))


# ---------------------------------------------------------------------------
# File formats: PGM (P2/P5) and CSV

# a token is a run of bytes other than the six ASCII whitespace bytes; a "#"
# where a token would start opens a comment, which runs to the end of its line.
# Group 1 holds a token that is ASCII digits after an optional "-", the only
# integers a header or P2 raster may hold (int() would also take "+7" and "1_0")
_PGM_TOKEN = re.compile(rb"#[^\n]*|(-?[0-9]+)(?!\S)|\S+")


def load_pgm(data: bytes) -> ImageGrid:
    """Parse an 8-bit grayscale PGM (P2 ascii or P5 binary)."""
    # token matches, lazily, so a P5 raster is never scanned
    tokens = (m for m in _PGM_TOKEN.finditer(data) if m[0][:1] != b"#")
    try:
        magic = next(tokens)[0]
    except StopIteration:
        raise InputFormatError("empty PGM input") from None
    if magic not in (b"P2", b"P5"):
        raise InputFormatError(f"unsupported PGM magic {magic!r} (need P2 or P5)")
    header = []
    # int(None), of a token outside group 1, raises TypeError; int() of more
    # digits than Python's limit for int-string conversion, ValueError
    try:
        while len(header) < 3:
            m = next(tokens)
            header.append(int(m[1]))
    except (StopIteration, TypeError, ValueError):
        raise InputFormatError("malformed PGM header") from None
    width, height, maxval = header
    if width <= 0 or height <= 0:
        raise InputFormatError("non-positive PGM dimensions")
    if not (1 <= maxval <= 255):
        raise InputFormatError(f"PGM maxval {maxval} outside 8-bit range")
    count = width * height
    # every sample takes at least one byte; this also keeps count within islice's range
    if count > len(data):
        raise InputFormatError(f"{magic.decode()} raster truncated")
    if magic == b"P5":
        raster = data[m.end() + 1 : m.end() + 1 + count]
        if len(raster) < count:
            raise InputFormatError("P5 raster truncated")
        values = np.frombuffer(raster, dtype=np.uint8).astype(float)
    else:
        try:
            values = np.array(
                [int(m[1]) for m in itertools.islice(tokens, count)], dtype=float
            )
        except TypeError:
            raise InputFormatError("non-integer sample in P2 raster") from None
        except ValueError:
            raise InputFormatError("P2 raster sample with too many digits") from None
        if values.size < count:
            raise InputFormatError("P2 raster truncated")
    if np.any(values > maxval):
        raise InputFormatError("sample exceeds declared maxval")
    pixels = values.reshape(height, width) / maxval
    if width != height:
        raise ValidationError(f"non-square image {width}x{height}; crop or pad before loading")
    return ImageGrid(pixels)


def load_csv(data: bytes) -> ImageGrid:
    """Parse a rectangular CSV of reals already scaled to [0, 1]."""
    rows = []
    for line in data.decode("utf-8", errors="strict").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError:
            raise InputFormatError(f"non-numeric CSV entry in line {line!r}") from None
    if not rows:
        raise InputFormatError("empty CSV input")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputFormatError("ragged CSV rows")
    pixels = np.array(rows)
    if pixels.shape[0] != pixels.shape[1]:
        raise ValidationError(f"non-square image {pixels.shape}; crop or pad before loading")
    return ImageGrid(pixels)


def load_image(path, fmt: str) -> ImageGrid:
    """Load a grid from a file path, as PGM or CSV."""
    with open(path, "rb") as fh:
        data = fh.read()
    if fmt == "pgm":
        return load_pgm(data)
    if fmt == "csv":
        return load_csv(data)
    raise InputFormatError(f"unknown image format {fmt!r}")


# the decimal text of every 8-bit sample; indexing it formats a block of rows in C
_SAMPLE_TEXT = np.array([str(v) for v in range(256)], dtype=object)


def write_pgm(g: ImageGrid) -> bytes:
    """Serialize a grid as ascii P2 PGM with maxval 255."""
    L = g.side_length
    lines = ["P2", f"{L} {L}", "255"]
    # one block of rows at a time; the samples are in 0..255: ImageGrid clips to [0, 1]
    block = max(1, CSV_CHUNK_ROWS // L)
    for start in range(0, L, block):
        samples = np.rint(g.pixels[start : start + block] * 255).astype(int)
        lines += [" ".join(row) for row in _SAMPLE_TEXT[samples].tolist()]
    return ("\n".join(lines) + "\n").encode()
