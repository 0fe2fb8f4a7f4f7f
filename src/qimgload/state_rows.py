"""The rows of curve.csv, in Python's standard library only.

`simulator.state_to_csv` writes them in this process.  For a large state,
`qimgload simulate` also runs this file as a script in a second
interpreter, ``python -I -S state_rows.py``, which writes them while the
first one draws the shots; so this module imports nothing else, and both
call the one row formatter, `rows_text`.

The script reads from standard input `input_header`'s bytes, then the raw
native-endian amplitudes.  It appends the column row and one row per
amplitude to the file that the header names, `CSV_CHUNK_ROWS` rows at a
time.
"""

import os
import sys

# the CSV writers, the histogram reader, `artifacts.dump` and `write_pgm`
# handle this many rows or values at a time: tolist() converts a chunk in C,
# far faster than iterating numpy scalars, and no more than one chunk's
# Python objects and text is alive at once
CSV_CHUNK_ROWS = 4096

COLUMNS = "index,amplitude\n"


def rows_text(values, start: int) -> str:
    """The rows of the amplitudes ``values`` at indices from ``start``: ``index,repr``."""
    return "".join([f"{i},{a!r}\n" for i, a in enumerate(values, start)])


def input_header(kind: str, count: int, path: bytes) -> bytes:
    """The script's input before the amplitudes: their kind and number, and the file to append to.

    ``kind`` is ``"f"`` for float64 or ``"c"`` for complex128 amplitudes;
    ``path`` is the file's name, which may hold any byte.
    """
    return f"{kind} {count} {len(path)}\n".encode() + path


def main(stdin) -> None:
    """Append the column row and the rows of the amplitudes read from the binary ``stdin``."""
    kind, count, length = stdin.readline().split()
    path = stdin.read(int(length))
    width = 2 if kind == b"c" else 1  # a complex amplitude is two floats, real and imaginary
    # a read of a known size fills one buffer; a read to the end of the
    # stream would copy the part already buffered and the rest into another
    # (a peak of 26.9 against 19.5 MB at 2^20 amplitudes)
    values = memoryview(stdin.read(8 * width * int(count))).cast("d")  # without a copy
    # opened without O_CREAT: a file the parent has removed is not made again
    with open(os.open(path, os.O_WRONLY | os.O_APPEND), "w") as fh:
        fh.write(COLUMNS)
        for start in range(0, len(values) // width, CSV_CHUNK_ROWS):
            chunk = values[width * start : width * (start + CSV_CHUNK_ROWS)].tolist()
            if width == 2:
                parts = iter(chunk)
                chunk = map(complex, parts, parts)
            fh.write(rows_text(chunk, start))


if __name__ == "__main__":
    main(sys.stdin.buffer)
