"""curve.csv's rows: one formatter, run in this process and as a standard-library-only script."""

import io
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import assert_same_text, written
from qimgload import state_rows
from qimgload.simulator import state_to_csv
from qimgload.state_rows import CSV_CHUNK_ROWS


def payload(path, amplitudes: np.ndarray) -> bytes:
    """The script's standard input for ``amplitudes``, to be appended to ``path``."""
    name = os.fsencode(path)
    header = state_rows.input_header(amplitudes.dtype.kind, amplitudes.size, name)
    return header + amplitudes.tobytes()


def amplitudes(rng, complex_valued: bool) -> np.ndarray:
    """Two full chunks and a part of one, with signed zeros, non-finite and subnormal values."""
    vec = rng.standard_normal(2 * CSV_CHUNK_ROWS + 5)
    if complex_valued:
        vec = vec + 1j * rng.standard_normal(vec.size)
    vec[:6] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]
    if complex_valued:
        vec.imag[6:12] = [0.0, -0.0, np.nan, np.inf, -np.inf, -5e-324]
    return vec


def appended(tmp_path, vec: np.ndarray, run) -> str:
    """What `run` appends to a file that holds one header line, given the script's input."""
    path = tmp_path / "curve.csv"
    path.write_text("# header\n")
    run(payload(path, vec))
    return path.read_text().removeprefix("# header\n")


@pytest.mark.parametrize("complex_valued", [False, True], ids=["float", "complex"])
def test_script_writes_state_to_csv_text(tmp_path, rng, complex_valued):
    vec = amplitudes(rng, complex_valued)
    text = appended(tmp_path, vec, lambda data: state_rows.main(io.BytesIO(data)))
    assert_same_text(text, written(state_to_csv, vec))
    assert text.count("\n") == vec.size + 1


def test_one_formatter_for_both_writers(tmp_path, rng, monkeypatch):
    # state_to_csv and the script both build their rows through rows_text
    vec = amplitudes(rng, True)[:10]
    monkeypatch.setattr(state_rows, "rows_text",
                        lambda values, start: f"{start}:{len(list(values))}\n")
    expected = "index,amplitude\n0:10\n"
    assert written(state_to_csv, vec) == expected
    assert appended(tmp_path, vec, lambda data: state_rows.main(io.BytesIO(data))) == expected


def test_script_runs_on_the_standard_library_alone(tmp_path, rng):
    # as `simulate` runs it, under -I -S, with no directory holding numpy on
    # sys.path; every module it loads is one of the standard library's
    code = (
        "import os, runpy, sys\n"
        "sys.path[:] = [p for p in sys.path if not os.path.exists(os.path.join(p, 'numpy'))]\n"
        "runpy.run_path(sys.argv[1], run_name='__main__')\n"
        "loaded = {name.partition('.')[0] for name in sys.modules}\n"
        "print(sorted(loaded - sys.stdlib_module_names - {'__main__'}))\n"
    )
    vec = amplitudes(rng, True)

    def child(data):
        done = subprocess.run([sys.executable, "-I", "-S", "-c", code, state_rows.__file__],
                              input=data, capture_output=True, check=True, timeout=60)
        assert done.stdout == b"[]\n" and done.stderr == b""

    assert_same_text(appended(tmp_path, vec, child), written(state_to_csv, vec))

