"""Hypothesis fuzzing of `cli.main()` over mutated image, histogram and
circuit inputs: every run ends with exit code 0, 2, 3 or 4 and at most one
line on stderr, never a traceback, and a run that fails leaves no --out-dir."""

import json
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import capped_state
from qimgload.circuit import serialize
from qimgload.cli import main
from qimgload.compiler import iterative_construct
from qimgload.image_codec import encode_amplitudes, write_pgm
from qimgload.sample_images import get_image

FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# tokens that parse as numbers but are out of range, or do not parse at all
ODD_TOKENS = ["nan", "-nan", "inf", "-inf", "1e400", "1e308", "1e-320", "-1", "2", "0", "-0",
              "1.5", "", "x", "0x10"]


def _seed_circuit() -> str:
    target = capped_state(encode_amplitudes(get_image("digit", 4)))
    circuit, _ = iterative_construct(target, 2)
    provenance = {**circuit.provenance, "ordering": "straight"}
    return serialize(replace(circuit, provenance=provenance)).decode()


SEED_PGM = write_pgm(get_image("scene", 8))
SEED_P5 = b"P5\n4 4\n255\n" + bytes(range(16, 256, 15))[:16]
SEED_CSV = "".join(
    ",".join(repr(v) for v in row) + "\n" for row in get_image("sign", 4).pixels.tolist()
)
SEED_HISTOGRAM = "index,bitstring,count,probability\n" + "".join(
    f"{i},{i:04b},{i % 5},{(i % 5) / 40!r}\n" for i in range(16)
)
SEED_CIRCUIT = _seed_circuit()


def _seed_with(*path, value) -> bytes:
    """SEED_CIRCUIT with the entry at `path` replaced by `value`."""
    doc = json.loads(SEED_CIRCUIT)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc).encode()


@st.composite
def byte_mutations(draw, seed: bytes) -> bytes:
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        action = draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        chunk = draw(st.binary(min_size=1, max_size=3))
        if action == "replace":
            data[pos : pos + len(chunk)] = chunk
        elif action == "insert":
            data[pos:pos] = chunk
        elif action == "delete":
            del data[pos : pos + len(chunk)]
        else:
            del data[pos:]
    return bytes(data)


@st.composite
def token_mutations(draw, seed: str) -> bytes:
    tokens = re.split(r"([,\s]+)", seed)  # separators kept at odd positions
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i] = draw(st.sampled_from(ODD_TOKENS) | st.text(",\n 0123456789.-e", max_size=3))
    return "".join(tokens).encode()


JSON_VALUES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 2**70)
    | st.floats()
    | st.text(max_size=3)
    | st.sampled_from(["[]", "{}", "[[1.0]]", '{"real": [[1.0]]}']).map(json.loads)
)


def _slots(node):
    """Every (container, key) pair of a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def json_mutations(draw, seed: str) -> bytes:
    doc = json.loads(seed)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            node[key] = draw(JSON_VALUES)
        else:
            del node[key]
    return json.dumps(doc).encode()


def assert_clean_exit(capsys, tmp_path, argv):
    # tmp_path is shared by every example of a test, so each run gets its own --out-dir
    out = Path(tempfile.mkdtemp(dir=tmp_path)) / "out"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:  # a warning would print to stderr too
        warnings.simplefilter("always")
        code = main([*argv, "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (code, err)
    assert err.count("\n") <= 1 and not caught, (err, [str(w.message) for w in caught])
    assert code == 0 or not out.exists(), (code, err)


@FUZZ
@given(
    suffix_and_data=st.one_of(
        st.tuples(st.just(".pgm"), byte_mutations(SEED_PGM) | byte_mutations(SEED_P5)),
        st.tuples(st.just(".csv"), token_mutations(SEED_CSV) | byte_mutations(SEED_CSV.encode())),
    )
)
@example(suffix_and_data=(".csv", b"nan,0.5\n0.5,0.5\n"))
# more digits than int() converts, in the header and in a P2 sample
@example(suffix_and_data=(".pgm", b"P2\n" + b"9" * 5000 + b" 4\n255\n0\n"))
@example(suffix_and_data=(".pgm", b"P2\n2 2\n255\n" + b"1" * 5000 + b" 0 0 0\n"))
# width * height above sys.maxsize
@example(suffix_and_data=(".pgm", b"P2\n4294967296 4294967296\n255\n0 0\n"))
def test_encode_survives_mutated_images(tmp_path, capsys, suffix_and_data):
    suffix, data = suffix_and_data
    path = tmp_path / f"img{suffix}"
    path.write_bytes(data)
    assert_clean_exit(capsys, tmp_path, ["encode", "--image", str(path), "--target-l", "8"])


@FUZZ
@given(data=token_mutations(SEED_HISTOGRAM) | byte_mutations(SEED_HISTOGRAM.encode()))
@example(data=b"index,bitstring,count,probability\n0,0,1e308,0\n1,1,1e308,0\n2,2,1,0\n3,3,1,0\n")
@example(data=b"index,bitstring,count,probability\n1,1,3,0.75\n0,0,1,0.25\n")
def test_reconstruct_survives_mutated_histograms(tmp_path, capsys, data):
    path = tmp_path / "histogram.csv"
    path.write_bytes(data)
    assert_clean_exit(capsys, tmp_path, ["reconstruct", "--histogram", str(path)])


@FUZZ
@given(
    data=json_mutations(SEED_CIRCUIT) | byte_mutations(SEED_CIRCUIT.encode()),
    exact=st.booleans(),
)
@example(data=_seed_with("layers", 0, 0, "matrix", "real", 0, 0, value=float("nan")), exact=True)
@example(data=_seed_with("layers", 0, 0, "matrix", "real", 0, 0, value=float("nan")), exact=False)
@example(data=_seed_with("layers", 0, 0, "matrix", "real", 1, value=[0.0]), exact=True)
@example(data=_seed_with("layers", 0, 0, "matrix", "real", 0, 0, value=1e308), exact=True)
@example(data=_seed_with("layers", 0, 1, "site", value=1.0), exact=True)
@example(data=_seed_with("n_qubits", value=4.0), exact=True)
@example(data=_seed_with("layers", value=[]), exact=True)
@example(data=_seed_with("provenance", value="ab"), exact=True)
@example(data=_seed_with("provenance", "ordering", value=[1]), exact=True)
@example(data=b"[" * 100_000, exact=True)
# an int beyond float, and one past Python's int-string limit where a build sets one
@example(data=_seed_with("layers", 0, 0, "matrix", "real", 0, 0, value=10**400), exact=True)
@example(
    data=_seed_with("layers", 0, 0, "matrix", "real", 0, 0, value="@").replace(b'"@"', b"1" * 5000),
    exact=True,
)
def test_simulate_survives_mutated_circuits(tmp_path, capsys, data, exact):
    path = tmp_path / "circuit.json"
    path.write_bytes(data)
    argv = ["simulate", "--circuit", str(path), "--shots", "100"]
    assert_clean_exit(capsys, tmp_path, argv + ["--exact"] if exact else argv)


def test_seeds_are_valid(tmp_path, capsys):
    # the unmutated inputs run through, so the mutations start from working files
    for name, data in (("a.pgm", SEED_PGM), ("b.pgm", SEED_P5), ("c.csv", SEED_CSV.encode())):
        (tmp_path / name).write_bytes(data)
        assert main(["encode", "--image", str(tmp_path / name), "--out-dir", str(tmp_path)]) == 0
    (tmp_path / "h.csv").write_text(SEED_HISTOGRAM)
    assert main(["reconstruct", "--histogram", str(tmp_path / "h.csv"),
                 "--out-dir", str(tmp_path)]) == 0
    (tmp_path / "circuit.json").write_text(SEED_CIRCUIT)
    assert main(["simulate", "--circuit", str(tmp_path / "circuit.json"), "--shots", "100",
                 "--out-dir", str(tmp_path)]) == 0

