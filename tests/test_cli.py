"""End-to-end CLI pipeline: artifacts, determinism, config handling, exit codes."""

import argparse
import csv
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    assert_same_text,
    drifting_circuit,
    identity_circuit,
    oracle_encode,
    random_staircase_circuit,
    written,
)
from qimgload import __version__, cli, compiler
from qimgload.analysis import infidelity
from qimgload.circuit import deserialize, serialize
from qimgload.cli import PipelineConfig, build_parser, main
from qimgload.image_codec import (
    ImageGrid,
    decode_probabilities,
    encode_amplitudes,
    load_pgm,
    write_pgm,
)
from qimgload.mps import from_dense, to_dense
from qimgload.sample_images import get_image
from qimgload.simulator import histogram_to_csv, histogram_to_probs, run, sample, state_to_csv


DIGIT4 = ("--image", "builtin:digit", "--target-l", "4")


@pytest.fixture
def out(tmp_path):
    return tmp_path / "out"


@pytest.fixture
def children(monkeypatch):
    """Every child process that `subprocess.Popen` starts, in order."""
    started = []

    class Spy(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Spy)
    return started


def run_cli(*argv):
    return main(list(argv))


def assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err


class TestEncode:
    def test_writes_artifacts(self, out):
        assert run_cli("encode", "--image", "builtin:digit", "--target-l", "8",
                       "--out-dir", str(out)) == 0
        state = json.loads((out / "amplitude_state.json").read_text())
        assert state["n_qubits"] == 6
        assert abs(np.linalg.norm(state["amplitudes"]) - 1.0) < 1e-10
        mps = json.loads((out / "mps.json").read_text())
        assert mps["n_sites"] == 6
        assert (out / "amplitudes.csv").read_text().startswith("# tool: qimgload")

    def test_snake_ordering_artifacts(self, out):
        assert run_cli("encode", "--image", "builtin:digit", "--target-l", "8",
                       "--ordering", "snake", "--out-dir", str(out)) == 0
        state = json.loads((out / "amplitude_state.json").read_text())
        assert state["ordering"] == "interleaved-snake"
        assert state["n_qubits"] == 6
        expected = oracle_encode(get_image("digit", 8).pixels, snake=True)
        np.testing.assert_allclose(state["amplitudes"], expected, atol=1e-14)
        mps = json.loads((out / "mps.json").read_text())
        assert mps["metadata"]["ordering"] == "interleaved-snake"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            run_cli("encode", "--image", "builtin:sign", "--target-l", "8",
                    "--out-dir", str(d))
        assert (a / "amplitude_state.json").read_text() == (
            b / "amplitude_state.json"
        ).read_text()

    def test_chunked_artifacts_equal_the_joined_text(self, out):
        # L = 128: 2^14 amplitudes, so the chunked CSV writer crosses chunk boundaries
        assert run_cli("encode", "--image", "builtin:scene", "--target-l", "128",
                       "--out-dir", str(out)) == 0
        cfg = PipelineConfig(image="builtin:scene", target_l=128)
        provenance = {"tool": f"qimgload {__version__}", "config_hash": cfg.hash()}
        amplitudes = encode_amplitudes(get_image("scene", 128)).tolist()
        record = {"n_qubits": 14, "ordering": "interleaved-straight",
                  "amplitudes": amplitudes, "provenance": provenance}
        assert_same_text((out / "amplitude_state.json").read_text(), json.dumps(record, indent=1))
        mps = (out / "mps.json").read_text()
        assert_same_text(mps, json.dumps(json.loads(mps), indent=1))
        header = f"# tool: qimgload {__version__}\n# config_hash: {cfg.hash()}\n"
        assert_same_text((out / "amplitudes.csv").read_text(),
                         header + "".join([f"{a!r}\n" for a in amplitudes]))

    def test_file_input(self, tmp_path, out, rng):
        path = tmp_path / "img.pgm"
        path.write_bytes(write_pgm(ImageGrid(rng.random((8, 8)))))
        assert run_cli("encode", "--image", str(path), "--target-l", "8",
                       "--out-dir", str(out)) == 0

    def test_one_by_one_csv_rejected(self, tmp_path, out, capsys):
        path = tmp_path / "img.csv"
        path.write_text("0.5\n")
        assert run_cli("encode", "--image", str(path), "--out-dir", str(out)) == 3
        assert_one_line_error(capsys, "validation error: cannot encode a 1x1 image")
        assert not out.exists()


class TestCompileSimulate:
    def test_full_pipeline(self, out):
        assert run_cli("compile", "--image", "builtin:digit", "--target-l", "8",
                       "--depth", "2", "--sweeps", "10", "--out-dir", str(out)) == 0
        circuit = json.loads((out / "circuit.json").read_text())
        assert circuit["n_qubits"] == 6
        assert len(circuit["layers"]) == 2
        assert circuit["provenance"]["method"] == "grow_and_optimize"
        assert (out / "trace.csv").exists()

        assert run_cli("simulate", "--circuit", str(out / "circuit.json"),
                       "--shots", "2000", "--seed", "7", "--out-dir", str(out)) == 0
        recon = load_pgm((out / "reconstructed.pgm").read_bytes())
        assert recon.side_length == 8
        hist = (out / "histogram.csv").read_text()
        assert "index,bitstring,count,probability" in hist

    @pytest.mark.parametrize("side", [2, 4])
    def test_grow_on_the_smallest_images(self, out, side):
        # N = 2 and 4: the first gate of each layer already sits at site 0 or 2
        assert run_cli("compile", "--image", "builtin:digit", "--target-l", str(side),
                       "--method", "grow", "--sweeps", "3", "--depth", "2",
                       "--out-dir", str(out)) == 0
        rows = (out / "trace.csv").read_text().splitlines()[3:]
        assert len(rows) == 6

    def test_exact_simulation_skips_sampling(self, out):
        run_cli("compile", "--image", "builtin:digit", "--target-l", "4",
                "--depth", "1", "--method", "iterative", "--out-dir", str(out))
        assert run_cli("simulate", "--circuit", str(out / "circuit.json"),
                       "--exact", "--out-dir", str(out)) == 0
        assert not (out / "histogram.csv").exists()

    def test_simulate_peak_memory(self, out):
        # the statevector, the counts and the probabilities are one 2^N-entry
        # array each, and the 2^N-row artifacts are written chunk by chunk
        n = 16
        assert run_cli("compile", "--image", "builtin:scene", "--target-l", "256",
                       "--method", "iterative", "--depth", "2", "--out-dir", str(out)) == 0
        argv = ("simulate", "--circuit", str(out / "circuit.json"), "--shots", "1000000",
                "--out-dir", str(out))
        assert run_cli(*argv) == 0  # first-use imports are not the simulation's memory
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**n * 8, f"peak {peak / (2**n * 8):.2f} arrays of 2^N float64"

    @pytest.mark.parametrize("n", [12, 14, 16])
    def test_curve_child_writes_the_in_process_artifacts(self, tmp_path, children, n):
        # from 2^16 amplitudes on, a child interpreter writes curve.csv's rows;
        # a complex circuit takes its complex path, and a path holding a
        # newline and a non-ASCII name its path framing
        c = random_staircase_circuit(np.random.default_rng(n), n, 1, complex_valued=True)
        path = tmp_path / "circuit.json"
        path.write_bytes(serialize(c))
        out = tmp_path / "new\nline é" / "out"
        assert run_cli("simulate", "--circuit", str(path), "--shots", "100000", "--seed", "3",
                       "--out-dir", str(out)) == 0
        assert len(children) == (1 if 2**n >= cli.CURVE_CHILD_MIN else 0)
        assert all(child.returncode == 0 for child in children)

        cfg = PipelineConfig(shots=100000, seed=3)
        header = f"# tool: qimgload {__version__}\n# config_hash: {cfg.hash()}\n"
        state = run(c)
        counts = sample(state, 100000, seed=3)
        assert_same_text((out / "curve.csv").read_text(), header + written(state_to_csv, state))
        assert_same_text((out / "histogram.csv").read_text(),
                         header + written(histogram_to_csv, counts))
        grid = decode_probabilities(histogram_to_probs(counts), 2 ** (n // 2), "straight")
        assert (out / "reconstructed.pgm").read_bytes() == write_pgm(grid)

    def test_simulation_seed_determinism(self, out, tmp_path):
        run_cli("compile", "--image", "builtin:digit", "--target-l", "4",
                "--depth", "1", "--method", "iterative", "--out-dir", str(out))
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            run_cli("simulate", "--circuit", str(out / "circuit.json"),
                    "--shots", "500", "--seed", "3", "--out-dir", str(d))
        for name in ("histogram.csv", "curve.csv", "reconstructed.pgm"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_compile_determinism(self, tmp_path):
        for method in ("grow", "iterative"):
            a, b = tmp_path / method / "a", tmp_path / method / "b"
            for d in (a, b):
                assert run_cli("compile", "--method", method, "--image", "builtin:digit",
                               "--target-l", "8", "--depth", "2", "--sweeps", "10",
                               "--out-dir", str(d)) == 0
            for name in ("circuit.json", "trace.csv"):
                assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_grow_without_sweeps_is_iterative(self, tmp_path):
        # same gates bit for bit, and the same per-layer (stage, 0, overlap) trace rows
        circuits, traces = [], []
        for method in ("grow", "iterative"):
            d = tmp_path / method
            assert run_cli("compile", "--method", method, "--sweeps", "0", "--image",
                           "builtin:digit", "--target-l", "8", "--depth", "3",
                           "--out-dir", str(d)) == 0
            circuits.append(json.loads((d / "circuit.json").read_text()))
            traces.append((d / "trace.csv").read_text().splitlines()[2:])  # past the hash lines
        assert circuits[0]["layers"] == circuits[1]["layers"]
        assert traces[0] == traces[1]
        assert [row.split(",")[:2] for row in traces[0][1:]] == [["1", "0"], ["2", "0"], ["3", "0"]]

    def test_trace_has_one_row_per_sweep(self, out):
        assert run_cli("compile", "--image", "builtin:digit", "--target-l", "4",
                       "--depth", "1", "--sweeps", "3", "--out-dir", str(out)) == 0
        lines = (out / "trace.csv").read_text().splitlines()[2:]  # past the hash lines
        assert lines[0] == "stage,sweep,overlap,infidelity"
        assert len(lines) == 4

    def test_trace_infidelity_clamped(self, out, monkeypatch):
        # round-off can put an overlap above 1; its infidelity is written as 0.0
        grow = compiler.grow_and_optimize

        def overshooting(*args):
            circuit, trace = grow(*args)
            trace.records[-1] = (1, 1, 1.0 + 1e-12)
            return circuit, trace

        monkeypatch.setattr(compiler, "grow_and_optimize", overshooting)
        assert run_cli("compile", "--image", "builtin:digit", "--target-l", "4",
                       "--depth", "1", "--sweeps", "1", "--out-dir", str(out)) == 0
        assert (out / "trace.csv").read_text().splitlines()[-1] == "1,1,1.000000000001,0.0"

    @pytest.mark.parametrize("method", ["grow", "iterative"])
    def test_product_state_target_compiles(self, out, method):
        # --chi-max caps only the target; at 1 it is a product state, which
        # the first layer prepares exactly
        assert run_cli("compile", "--image", "builtin:digit", "--target-l", "4",
                       "--method", method, "--chi-max", "1", "--sweeps", "2",
                       "--out-dir", str(out)) == 0
        target, _ = from_dense(encode_amplitudes(get_image("digit", 4)), chi_max=1)
        circuit = deserialize((out / "circuit.json").read_bytes())
        assert circuit.provenance["chi_max"] == 1
        assert abs(np.vdot(to_dense(target), run(circuit))) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "option, value, message",
        [("seed", "-1", "seed must be >= 0"),
         ("shots", str(2**63), "shots must be at most 2^63 - 1")],
        ids=["negative-seed", "shots-above-int64"],
    )
    def test_sampling_arguments_out_of_range(self, tmp_path, out, capsys, source, option,
                                             value, message):
        run_cli("compile", "--image", "builtin:digit", "--target-l", "4",
                "--depth", "1", "--method", "iterative", "--out-dir", str(out))
        argv = ["simulate", "--circuit", str(out / "circuit.json"), "--out-dir", str(out)]
        if source == "flag":
            argv += [f"--{option}", value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{option} = {value}\n")
            argv += ["--config", str(cfg)]
        capsys.readouterr()
        assert run_cli(*argv) == 3
        assert_one_line_error(capsys, f"validation error: {message}")
        assert not (out / "histogram.csv").exists()
        assert not (out / "curve.csv").exists()

    def test_largest_shot_count_samples(self, out):
        run_cli("compile", "--image", "builtin:digit", "--target-l", "4",
                "--depth", "1", "--method", "iterative", "--out-dir", str(out))
        assert run_cli("simulate", "--circuit", str(out / "circuit.json"),
                       "--shots", str(2**63 - 1), "--out-dir", str(out)) == 0
        rows = (out / "histogram.csv").read_text().splitlines()[3:]
        assert sum(int(row.split(",")[2]) for row in rows) == 2**63 - 1

    def test_unknown_provenance_ordering(self, out, capsys):
        run_cli("compile", "--image", "builtin:digit", "--target-l", "4",
                "--depth", "1", "--method", "iterative", "--out-dir", str(out))
        payload = json.loads((out / "circuit.json").read_text())
        payload["provenance"]["ordering"] = "zigzag"
        (out / "circuit.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("simulate", "--circuit", str(out / "circuit.json"),
                       "--exact", "--out-dir", str(out)) == 3
        assert_one_line_error(capsys, "validation error: unknown ordering 'zigzag'")


class TestReconstruct:
    def test_histogram_roundtrip(self, out):
        run_cli("compile", "--image", "builtin:digit", "--target-l", "4",
                "--depth", "1", "--method", "iterative", "--out-dir", str(out))
        run_cli("simulate", "--circuit", str(out / "circuit.json"),
                "--shots", "1000", "--out-dir", str(out))
        direct = (out / "reconstructed.pgm").read_bytes()
        assert run_cli("reconstruct", "--histogram", str(out / "histogram.csv"),
                       "--out-dir", str(out)) == 0
        assert (out / "reconstructed.pgm").read_bytes() == direct

    @pytest.mark.parametrize(
        "row",
        ["0,0,x,0.5", "0,0", "0,0,nan,0.5", "0,0,2,x,y", "0,0,2", "0,1,2,0.5", "0,0b0,2,0.5",
         "0,0,2,x"],
    )
    def test_malformed_row(self, tmp_path, out, capsys, row):
        hist = tmp_path / "histogram.csv"
        hist.write_text(f"index,bitstring,count,probability\n{row}\n1,1,3,0.5\n")
        assert run_cli("reconstruct", "--histogram", str(hist), "--out-dir", str(out)) == 2
        assert_one_line_error(capsys, "input format error: histogram")

    @pytest.mark.parametrize(
        "order",
        [[3, 2, 1, 0], [0, 1, 3, 2], [0, 1, 1, 3]],
        ids=["reversed", "skipped", "repeated"],
    )
    def test_rows_out_of_index_order(self, tmp_path, out, capsys, order):
        # each row's count is read for the outcome its place names, so a
        # reordered file is refused, not decoded into another image
        hist = tmp_path / "histogram.csv"
        rows = "".join(f"{i},{i:02b},{i + 1},{(i + 1) / 10!r}\n" for i in order)
        hist.write_text("index,bitstring,count,probability\n" + rows)
        assert run_cli("reconstruct", "--histogram", str(hist), "--out-dir", str(out)) == 2
        assert_one_line_error(capsys, "input format error: histogram row out of index order")
        assert not (out / "reconstructed.pgm").exists()

    def test_histogram_without_counts_is_numeric_error(self, tmp_path, out, capsys):
        hist = tmp_path / "histogram.csv"
        rows = "".join(f"{i},{i:04b},0,0.0\n" for i in range(16))
        hist.write_text("index,bitstring,count,probability\n" + rows)
        assert run_cli("reconstruct", "--histogram", str(hist), "--out-dir", str(out)) == 4
        assert capsys.readouterr().err == "numeric error: histogram holds no counts\n"
        assert not out.exists()

    @pytest.mark.parametrize("rows", [1, 9])
    def test_side_not_a_power_of_two(self, tmp_path, out, capsys, rows):
        hist = tmp_path / "histogram.csv"
        lines = "".join(f"{i},{i:b},1,{1 / rows!r}\n" for i in range(rows))
        hist.write_text("index,bitstring,count,probability\n" + lines)
        assert run_cli("reconstruct", "--histogram", str(hist), "--out-dir", str(out)) == 3
        side = round(rows**0.5)
        assert capsys.readouterr().err == (
            f"validation error: L must be a power of two >= 2, got {side}\n"
        )
        assert not out.exists()

    def test_reconstruct_peak_memory(self, tmp_path, out, rng):
        # the counts are one 2^N-entry array, read chunk by chunk
        n = 16
        hist = tmp_path / "histogram.csv"
        counts = sample(rng.standard_normal(2**n), 10**6, seed=0)
        with hist.open("w") as fh:
            histogram_to_csv(counts, fh)
        argv = ("reconstruct", "--histogram", str(hist), "--out-dir", str(out))
        assert run_cli(*argv) == 0  # first-use imports are not the reconstruction's memory
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**n * 8, f"peak {peak / (2**n * 8):.2f} arrays of 2^N float64"


class TestAnalyze:
    def test_chi_sweep_with_fit(self, out):
        assert run_cli("analyze", "--sweep", "chi", "--image", "builtin:scene",
                       "--target-l", "32", "--chi-list", "2,4,8",
                       "--out-dir", str(out)) == 0
        lines = (out / "chi_sweep.csv").read_text().splitlines()
        assert lines[2] == "x,L,infidelity,method,image_id"
        fit = json.loads((out / "chi_sweep_fit.json").read_text())
        assert fit["b"] > 0

    def test_depth_sweep(self, out):
        assert run_cli("analyze", "--sweep", "depth", "--image", "builtin:digit",
                       "--target-l", "8", "--depth-list", "1,2,3", "--sweeps", "5",
                       "--out-dir", str(out)) == 0
        assert (out / "depth_sweep.csv").exists()

    def test_resolution_sweep_fits_against_L(self, out):
        assert run_cli("analyze", "--sweep", "resolution", "--image", "builtin:scene",
                       "--target-l", "32", "--chi-max", "2", "--l-list", "4,8,16,32",
                       "--out-dir", str(out)) == 0
        fit = json.loads((out / "resolution_sweep_fit.json").read_text())
        assert fit["range"] == [4.0, 32.0]

    def test_resolution_sweep_with_its_defaults(self, out):
        # the image is read at the largest --l-list side, above the default --target-l 16
        assert run_cli("analyze", "--sweep", "resolution", "--out-dir", str(out)) == 0
        rows = (out / "resolution_sweep.csv").read_text().splitlines()[3:]
        assert [row.split(",")[1] for row in rows] == ["32", "64", "128", "256"]

    def test_resolution_defaults_fit_no_round_off(self, out, capsys):
        # the defaults give 0.0 at L=32 and ~5e-15 at L=64, round-off at or
        # below the 1e-12 floor; the two points left are too few to fit
        assert run_cli("analyze", "--sweep", "resolution", "--out-dir", str(out)) == 0
        rows = (out / "resolution_sweep.csv").read_text().splitlines()[3:]
        assert [float(row.split(",")[2]) <= 1e-12 for row in rows] == [True, True, False, False]
        printed = capsys.readouterr().out
        assert printed == "resolution_sweep: 4 records (too few points above 1e-12 to fit)\n"
        assert not (out / "resolution_sweep_fit.json").exists()

    def test_fit_lists_the_points_below_its_floor(self, out):
        # chi = 32 holds every bond of the L=32 image, so its infidelity is round-off
        assert run_cli("analyze", "--sweep", "chi", "--image", "builtin:scene",
                       "--target-l", "32", "--chi-list", "2,4,8,32",
                       "--out-dir", str(out)) == 0
        fit = json.loads((out / "chi_sweep_fit.json").read_text())
        assert fit["range"] == [2.0, 8.0] and fit["floor"] == 1e-12
        assert [x for x, _ in fit["excluded"]] == [32.0]

    def test_resolution_sweep_reads_a_file_at_its_largest_side(self, tmp_path, out, rng):
        path = tmp_path / "img.pgm"
        path.write_bytes(write_pgm(ImageGrid(0.1 + 0.9 * rng.random((16, 16)))))
        assert run_cli("analyze", "--sweep", "resolution", "--image", str(path),
                       "--target-l", "2", "--l-list", "4,8", "--out-dir", str(out)) == 0
        rows = (out / "resolution_sweep.csv").read_text().splitlines()[3:]
        assert [row.split(",")[1] for row in rows] == ["4", "8"]

    @pytest.mark.parametrize("sweep", ["chi", "depth"])
    def test_file_input_downscaled_to_target_l(self, tmp_path, out, rng, sweep):
        # the same grid as `compile` encodes: a 16x16 PGM at --target-l 4 is 4x4 (4 qubits)
        path = tmp_path / "img.pgm"
        path.write_bytes(write_pgm(ImageGrid(0.1 + 0.9 * rng.random((16, 16)))))
        assert run_cli("analyze", "--sweep", sweep, "--image", str(path), "--target-l", "4",
                       "--chi-list", "1,2", "--depth-list", "1", "--sweeps", "1",
                       "--out-dir", str(out)) == 0
        rows = (out / f"{sweep}_sweep.csv").read_text().splitlines()[3:]
        assert rows and all(row.split(",")[1] == "4" for row in rows)
        assert run_cli("compile", "--image", str(path), "--target-l", "4", "--depth", "1",
                       "--sweeps", "1", "--out-dir", str(out)) == 0
        assert json.loads((out / "circuit.json").read_text())["n_qubits"] == 4

    def test_image_path_with_a_comma_is_one_field(self, tmp_path, out, rng):
        path = tmp_path / "a,b.pgm"
        path.write_bytes(write_pgm(ImageGrid(0.1 + 0.9 * rng.random((4, 4)))))
        assert run_cli("analyze", "--sweep", "chi", "--image", str(path), "--target-l", "4",
                       "--chi-list", "2,4", "--out-dir", str(out)) == 0
        lines = (out / "chi_sweep.csv").read_text().splitlines()[2:]
        rows = list(csv.reader(lines))
        assert rows[0] == ["x", "L", "infidelity", "method", "image_id"]
        assert len(rows) == 3 and all(len(row) == 5 for row in rows)
        assert [row[4] for row in rows[1:]] == [str(path)] * 2

    def test_depth_sweep_reports_what_compile_writes(self, tmp_path, out):
        flags = ["--method", "grow", "--image", "builtin:digit", "--target-l", "8", "--sweeps", "5"]
        assert run_cli("analyze", "--sweep", "depth", "--depth-list", "1,2", *flags,
                       "--out-dir", str(out)) == 0
        rows = (out / "depth_sweep.csv").read_text().splitlines()[3:]
        exact = encode_amplitudes(get_image("digit", 8))
        assert [row.split(",")[0] for row in rows] == ["1", "2"]
        for depth, row in zip((1, 2), rows):
            compiled = tmp_path / f"depth{depth}"
            assert run_cli("compile", "--depth", str(depth), *flags,
                           "--out-dir", str(compiled)) == 0
            circuit = deserialize((compiled / "circuit.json").read_bytes())
            assert float(row.split(",")[2]) == infidelity(exact, run(circuit))

    @pytest.mark.parametrize(
        "sweep,flag", [("chi", "--chi-list"), ("depth", "--depth-list"), ("resolution", "--l-list")]
    )
    def test_unparseable_list_rejected(self, out, capsys, sweep, flag):
        assert run_cli("analyze", "--sweep", sweep, "--image", "builtin:digit",
                       "--target-l", "4", flag, "2,x", "--out-dir", str(out)) == 3
        assert_one_line_error(capsys, "validation error: ")

    @pytest.mark.parametrize(
        "sweep,flag,values",
        [("chi", "--chi-list", "2,4,4,8"), ("depth", "--depth-list", "1,1,1"),
         ("resolution", "--l-list", "4,4,4")],
    )
    def test_repeated_list_entry_rejected(self, out, capsys, sweep, flag, values):
        # a repeated entry would be written twice and counted twice in the fit
        assert run_cli("analyze", "--sweep", sweep, "--image", "builtin:digit",
                       "--target-l", "8", flag, values, "--out-dir", str(out)) == 3
        option = flag[2:].replace("-", "_")
        assert_one_line_error(capsys, f"validation error: {option}='{values}' repeats an entry")
        assert not (out / f"{sweep}_sweep.csv").exists()

    @pytest.mark.parametrize(
        "sweep,flag,values,method",
        [
            ("chi", "--chi-list", "8,2,4", "mps_truncation"),
            ("depth", "--depth-list", "3,1,2", "iterative"),
            ("depth", "--depth-list", "3,1,2", "grow"),
            ("resolution", "--l-list", "16,4,8", "mps_truncation"),
        ],
    )
    def test_rows_ascend_in_x_and_L(self, out, sweep, flag, values, method):
        compile_method = method if sweep == "depth" else "grow"
        assert run_cli("analyze", "--sweep", sweep, "--image", "builtin:scene",
                       "--target-l", "16", "--method", compile_method, "--sweeps", "2",
                       flag, values, "--out-dir", str(out)) == 0
        lines = (out / f"{sweep}_sweep.csv").read_text().splitlines()
        assert lines[2] == "x,L,infidelity,method,image_id"
        rows = [line.split(",") for line in lines[3:]]
        column = 1 if sweep == "resolution" else 0
        assert [int(row[column]) for row in rows] == sorted(int(v) for v in values.split(","))
        assert all(row[3:] == [method, "builtin:scene"] for row in rows)


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, out):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("image = builtin:digit\ntarget-l = 16\n# comment\nseed = 5\n")
        assert run_cli("encode", "--config", str(cfg), "--target-l", "4",
                       "--out-dir", str(out)) == 0
        state = json.loads((out / "amplitude_state.json").read_text())
        assert state["n_qubits"] == 4  # flag wins over the file's 16

    def test_unknown_key_rejected(self, tmp_path, out):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tempo = allegro\n")
        assert run_cli("encode", "--config", str(cfg), "--out-dir", str(out)) == 3

    @pytest.mark.parametrize(
        "argv", [["compile"], ["analyze", "--sweep", "depth", "--depth-list", "1"]],
        ids=["compile", "analyze"],
    )
    def test_unknown_method_rejected(self, tmp_path, out, capsys, argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = annealing\n")
        assert run_cli(*argv, "--config", str(cfg), "--image", "builtin:digit",
                       "--target-l", "4", "--out-dir", str(out)) == 3
        assert_one_line_error(
            capsys, "validation error: method='annealing' is not one of ['grow', 'iterative']"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("format = xyz", "format='xyz' is not one of ['auto', 'pgm', 'csv']"),
            ("ordering = zigzag", "ordering='zigzag' is not one of ['straight', 'snake']"),
        ],
        ids=["format", "ordering"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["encode"],
            ["compile"],
            ["simulate", "--circuit", "c.json"],
            ["reconstruct", "--histogram", "h.csv"],
            ["analyze", "--sweep", "chi"],
        ],
        ids=["encode", "compile", "simulate", "reconstruct", "analyze"],
    )
    def test_value_outside_choices_rejected(self, tmp_path, out, capsys, argv, line, message):
        # a config-file value meets the flag's choices before anything is read or created
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run_cli(*argv, "--config", str(cfg), "--image", "builtin:digit",
                       "--target-l", "4", "--out-dir", str(out)) == 3
        assert_one_line_error(capsys, f"validation error: {message}")
        assert not out.exists()

    def test_flag_wins_over_a_value_outside_choices(self, tmp_path, out):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ordering = zigzag\n")
        assert run_cli("encode", "--config", str(cfg), "--ordering", "snake",
                       "--image", "builtin:digit", "--target-l", "4", "--out-dir", str(out)) == 0
        state = json.loads((out / "amplitude_state.json").read_text())
        assert state["ordering"] == "interleaved-snake"

    @pytest.mark.parametrize(
        "lines",
        [["depth = 1", "depth = 2"], ["target-l = 4", "target_l = 8"]],
        ids=["same-spelling", "both-spellings"],
    )
    def test_key_set_twice_rejected(self, tmp_path, out, capsys, lines):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        assert run_cli("compile", "--config", str(cfg), "--image", "builtin:digit",
                       "--out-dir", str(out)) == 3
        key = lines[0].split()[0].replace("-", "_")
        message = f"validation error: config key '{key}' is set more than once"
        assert_one_line_error(capsys, message)
        assert not out.exists()

    @pytest.mark.parametrize(
        "line", ["image = a\0b.pgm", "out_dir = o\0x"], ids=["image", "out_dir"]
    )
    def test_value_with_a_nul_byte_rejected(self, tmp_path, monkeypatch, capsys, line):
        # open() and mkdir() raise ValueError on a path holding NUL; the
        # out_dir one would raise only once the compile had run
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text(line + "\n")
        assert run_cli("compile", "--config", "run.cfg", "--target-l", "4", "--depth", "1") == 2
        assert_one_line_error(capsys, "input format error: config line with a NUL byte: ")
        assert os.listdir() == ["run.cfg"]

    def test_unparseable_value_rejected(self, tmp_path, out, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("depth = three\n")
        assert run_cli("compile", "--config", str(cfg), "--out-dir", str(out)) == 3
        assert_one_line_error(capsys, "validation error: depth='three'")

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["encode"], "config = other.cfg"),
            (["simulate", "--circuit", "c.json"], "circuit = c.json"),
            (["simulate", "--circuit", "c.json"], "exact = 1"),
            (["reconstruct", "--histogram", "h.csv"], "histogram = h.csv"),
            (["analyze", "--sweep", "chi"], "sweep = depth"),
            (["analyze", "--sweep", "chi"], "chi_list = 2,4"),
            (["analyze", "--sweep", "depth"], "depth-list = 1,2"),
            (["analyze", "--sweep", "resolution"], "l_list = 8,16"),
        ],
        ids=["config", "circuit", "exact", "histogram", "sweep", "chi_list", "depth-list", "l_list"],
    )
    def test_flag_only_options_are_unknown_keys(self, tmp_path, out, capsys, argv, line):
        # --config and the flags of a single command have no config-file key
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run_cli(*argv, "--config", str(cfg), "--out-dir", str(out)) == 3
        assert_one_line_error(capsys, "validation error: unknown config keys")


# (option strings, dest, type, choices, default, required) of every flag, in order
HELP = (("-h", "--help"), "help", None, None, argparse.SUPPRESS, False)
SHARED = [
    (("--config",), "config", None, None, None, False),
    (("--image",), "image", str, None, None, False),
    (("--format",), "format", str, ["auto", "pgm", "csv"], None, False),
    (("--target-l",), "target_l", int, None, None, False),
    (("--ordering",), "ordering", str, ["straight", "snake"], None, False),
    (("--chi-max",), "chi_max", int, None, None, False),
    (("--depth",), "depth", int, None, None, False),
    (("--sweeps",), "sweeps", int, None, None, False),
    (("--shots",), "shots", int, None, None, False),
    (("--seed",), "seed", int, None, None, False),
    (("--out-dir",), "out_dir", str, None, None, False),
    (("--method",), "method", str, ["grow", "iterative"], None, False),
]
SINGLE = {
    "encode": [],
    "compile": [],
    "simulate": [
        (("--circuit",), "circuit", None, None, None, True),
        (("--exact",), "exact", None, None, False, False),
    ],
    "reconstruct": [(("--histogram",), "histogram", None, None, None, True)],
    "analyze": [
        (("--sweep",), "sweep", None, ["chi", "depth", "resolution"], None, True),
        (("--chi-list",), "chi_list", None, None, "2,4,8,16,32", False),
        (("--depth-list",), "depth_list", None, None, "2,4,6,8,10,12,14,16", False),
        (("--l-list",), "l_list", None, None, "32,64,128,256", False),
    ],
    "selftest": [],
}


def subcommands():
    """{name: parser} of the subcommands `build_parser` registers, in order."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestFlagSurface:
    def test_subcommands_and_handlers(self):
        commands = subcommands()
        assert list(commands) == list(SINGLE)
        for name in commands:
            assert callable(getattr(cli, f"cmd_{name}"))

    @pytest.mark.parametrize("name", list(SINGLE))
    def test_flags(self, name):
        parser = subcommands()[name]
        got = [
            (tuple(a.option_strings), a.dest, a.type,
             None if a.choices is None else list(a.choices), a.default, a.required)
            for a in parser._actions
        ]
        assert got == [HELP, *SHARED, *SINGLE[name]]

    def test_shared_flags_are_the_config_fields(self):
        names = ["config"] + [f.name for f in fields(PipelineConfig)]
        for parser in subcommands().values():
            assert [a.dest for a in parser._actions[1 : 1 + len(names)]] == names


class TestReusedParser:
    """`main` builds its parser once per process and looks handlers up per call."""

    def test_handler_rebound_after_the_first_call_runs(self, out, monkeypatch):
        # a tracer rebinds cmd_compile on the module after the parser exists
        assert run_cli("encode", "--image", "ghost.pgm", "--out-dir", str(out)) == 2
        seen = []

        def wrapped(args):
            seen.append(args.depth)
            return 0

        monkeypatch.setattr(cli, "cmd_compile", wrapped)
        assert run_cli("compile", "--depth", "5", "--out-dir", str(out)) == 0
        assert seen == [5]

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import qimgload.cli\n"
            "print(len(built))\n"
        )
        src = str(Path(cli.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, check=True, timeout=120)
        assert done.stdout == "0\n"

    def test_two_calls_build_one_parser(self, out, monkeypatch):
        built = []

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        assert run_cli("encode", "--image", "ghost.pgm", "--out-dir", str(out)) == 2
        assert run_cli("encode", "--image", "builtin:digit", "--target-l", "4",
                       "--out-dir", str(out)) == 0
        assert built == [1]

    def test_config_values_do_not_reach_the_next_call(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("image = builtin:scene\ntarget_l = 4\nordering = snake\n")
        assert run_cli("encode", "--config", str(config), "--out-dir", str(tmp_path / "a")) == 0
        assert run_cli("encode", "--out-dir", str(tmp_path / "b")) == 0
        a = json.loads((tmp_path / "a" / "amplitude_state.json").read_text())
        b = json.loads((tmp_path / "b" / "amplitude_state.json").read_text())
        assert (a["n_qubits"], a["ordering"]) == (4, "interleaved-snake")
        assert (b["n_qubits"], b["ordering"]) == (8, "interleaved-straight")
        assert b["amplitudes"] == encode_amplitudes(get_image("sign", 16)).tolist()

    @pytest.mark.parametrize(
        "argv",
        [["compile", "--depth", "x"], ["nothere"], ["simulate"], []],
        ids=["bad-int", "unknown-command", "missing-required", "no-command"],
    )
    def test_argparse_error_leaves_the_next_call_working(self, out, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert run_cli("encode", "--image", "builtin:digit", "--target-l", "4",
                       "--out-dir", str(out)) == 0
        assert json.loads((out / "amplitude_state.json").read_text())["n_qubits"] == 4


# numpy's message when an array cannot be allocated
NUMPY_OUT_OF_MEMORY = (
    "Unable to allocate 2.25 GiB for an array with shape (287, 1048576) and data type float64"
)


class TestExitCodes:
    @pytest.mark.parametrize(
        "command, allocation, message",
        [
            ("encode", "qimgload.cli.from_dense", NUMPY_OUT_OF_MEMORY),
            ("compile", "qimgload.compiler.sweep_optimize", NUMPY_OUT_OF_MEMORY),
            ("simulate", "qimgload.cli.run", NUMPY_OUT_OF_MEMORY),
            ("simulate", "qimgload.cli.shot_draw", ""),
        ],
        ids=["encode", "compile", "simulate", "simulate-without-message"],
    )
    def test_out_of_memory_is_numeric_error(self, tmp_path, out, capsys, monkeypatch, command,
                                            allocation, message):
        circuit = tmp_path / "circuit.json"
        circuit.write_bytes(serialize(identity_circuit(4, 2)))

        def refused(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(allocation, refused)
        argv = {
            "encode": ["--image", "builtin:digit", "--target-l", "8"],
            "compile": ["--image", "builtin:digit", "--target-l", "8", "--method", "grow"],
            "simulate": ["--circuit", str(circuit)],
        }[command]
        assert run_cli(command, *argv, "--out-dir", str(out)) == 4
        expected = f"numeric error: out of memory: {message}" if message else (
            "numeric error: out of memory")
        assert capsys.readouterr().err == expected + "\n"
        assert not out.exists()

    def test_failed_curve_child_is_numeric_error(self, tmp_path, capsys, monkeypatch, children):
        # a child that exits nonzero, here before it reads its input: one
        # stderr line with the child's last one, and no --out-dir
        circuit = tmp_path / "circuit.json"
        circuit.write_bytes(serialize(identity_circuit(16, 1)))
        failing = tmp_path / "failing.py"
        failing.write_text("raise OSError(28, 'No space left on device')\n")
        monkeypatch.setattr(cli.state_rows, "__file__", str(failing))
        out = tmp_path / "new" / "deeper"
        assert run_cli("simulate", "--circuit", str(circuit), "--out-dir", str(out)) == 4
        assert capsys.readouterr().err == (
            "numeric error: the curve.csv writer exited with code 1: "
            "OSError: [Errno 28] No space left on device\n")
        assert len(children) == 1 and children[0].returncode == 1
        assert not (tmp_path / "new").exists()

    def test_out_of_memory_after_the_curve_handoff(self, tmp_path, capsys, monkeypatch,
                                                   children):
        # the child has the amplitudes when the histogram writer fails: it is
        # killed and reaped, and the directory the run made is removed
        circuit = tmp_path / "circuit.json"
        circuit.write_bytes(serialize(identity_circuit(16, 1)))

        def refused(*args):
            assert children[0].stdin.closed  # handed off
            raise MemoryError(NUMPY_OUT_OF_MEMORY)

        monkeypatch.setattr("qimgload.cli.histogram_to_csv", refused)
        out = tmp_path / "new" / "deeper"
        assert run_cli("simulate", "--circuit", str(circuit), "--out-dir", str(out)) == 4
        assert capsys.readouterr().err == f"numeric error: out of memory: {NUMPY_OUT_OF_MEMORY}\n"
        assert len(children) == 1 and children[0].returncode is not None
        assert not (tmp_path / "new").exists()

    def test_failure_before_the_handoff_leaves_no_child(self, tmp_path, capsys, children):
        # the child starts before the statevector run; an option error after
        # it exits 3, kills the child and makes no --out-dir
        circuit = tmp_path / "circuit.json"
        circuit.write_bytes(serialize(identity_circuit(16, 1)))
        out = tmp_path / "new"
        assert run_cli("simulate", "--circuit", str(circuit), "--shots", "0",
                       "--out-dir", str(out)) == 3
        assert_one_line_error(capsys, "validation error: shots must be >= 1")
        assert len(children) == 1 and children[0].returncode is not None
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, writer",
        [
            (["encode", *DIGIT4], "qimgload.cli.curve_to_csv"),
            (["compile", *DIGIT4, "--depth", "1"], "qimgload.cli._write_rows"),
            (["simulate", "--circuit", "{circuit}"], "qimgload.cli.histogram_to_csv"),
            (["simulate", "--circuit", "{circuit}", "--exact"], "qimgload.cli.write_pgm"),
            (["reconstruct", "--histogram", "{histogram}"], "qimgload.cli.write_pgm"),
            (["analyze", "--sweep", "chi", "--image", "builtin:scene", "--chi-list", "1,2,3"],
             "qimgload.artifacts.dumps"),
        ],
        ids=["encode", "compile", "simulate", "simulate-exact", "reconstruct", "analyze"],
    )
    def test_failed_write_removes_the_out_dir_it_made(self, tmp_path, capsys, monkeypatch, argv,
                                                      writer):
        # each writer raises after the files before it are written
        circuit = tmp_path / "circuit.json"
        circuit.write_bytes(serialize(identity_circuit(4, 2)))
        histogram = tmp_path / "histogram.csv"
        with histogram.open("w") as fh:
            histogram_to_csv(np.arange(16), fh)

        def refused(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(writer, refused)
        argv = [a.format(circuit=circuit, histogram=histogram) for a in argv]
        out = tmp_path / "new" / "deeper"
        assert run_cli(*argv, "--out-dir", str(out)) == 4
        assert capsys.readouterr().err == "numeric error: out of memory\n"
        assert not (tmp_path / "new").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["circuit.json", "histogram.csv"]

    def test_failed_write_removes_every_directory_it_made(self, tmp_path, capsys, monkeypatch):
        # new/../x makes new and then x, which lies off the lexical chain
        # new/../x -> new/.. -> new
        def refused(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr("qimgload.cli.curve_to_csv", refused)
        out = tmp_path / "new" / ".." / "x"
        assert run_cli("encode", *DIGIT4, "--out-dir", str(out)) == 4
        assert_one_line_error(capsys, "numeric error: out of memory")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_a_directory_that_existed(self, tmp_path, out, capsys,
                                                         monkeypatch):
        circuit = tmp_path / "circuit.json"
        circuit.write_bytes(serialize(identity_circuit(4, 2)))
        (out / "sub").mkdir(parents=True)
        (out / "keep.txt").write_text("kept")
        (out / "sub" / "keep.txt").write_text("kept too")

        def refused(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr("qimgload.cli.histogram_to_csv", refused)
        assert run_cli("simulate", "--circuit", str(circuit), "--out-dir", str(out)) == 4
        assert_one_line_error(capsys, "numeric error: out of memory")
        assert (out / "keep.txt").read_text() == "kept"
        assert (out / "sub" / "keep.txt").read_text() == "kept too"
        # the files written before the failure stay
        assert (out / "curve.csv").read_text().startswith("# tool: qimgload")

    def test_input_format_error(self, tmp_path, out):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P9 not a pgm")
        assert run_cli("encode", "--image", str(bad), "--out-dir", str(out)) == 2

    def test_missing_file(self, out):
        assert run_cli("encode", "--image", "ghost.pgm", "--out-dir", str(out)) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["encode", "--image", "{missing}.pgm"],
            ["compile", "--image", "{missing}.pgm"],
            ["analyze", "--sweep", "chi", "--image", "{missing}.pgm"],
            ["simulate", "--circuit", "{missing}.json"],
            ["reconstruct", "--histogram", "{missing}.csv"],
        ],
        ids=["encode", "compile", "analyze", "simulate", "reconstruct"],
    )
    def test_missing_input_leaves_no_out_dir(self, tmp_path, out, capsys, argv):
        argv = [a.format(missing=tmp_path / "ghost") for a in argv]
        assert run_cli(*argv, "--out-dir", str(out)) == 2
        assert_one_line_error(capsys, "input format error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, computation",
        [
            (["compile", "--image", "builtin:digit", "--target-l", "4"], "qimgload.cli.from_dense"),
            (["simulate", "--circuit", "{circuit}"], "qimgload.cli.run"),
            (["encode", *DIGIT4], "qimgload.cli.get_image"),
            (["analyze", "--sweep", "chi", *DIGIT4], "qimgload.cli.get_image"),
            (["reconstruct", "--histogram", "{histogram}"], "qimgload.cli.histogram_from_csv"),
        ],
        ids=["compile", "simulate", "encode", "analyze", "reconstruct"],
    )
    def test_bad_out_dir_fails_before_the_computation(self, tmp_path, capsys, monkeypatch, argv,
                                                      computation):
        def computed(*args, **kwargs):
            raise AssertionError(f"{computation} ran")

        circuit = tmp_path / "circuit.json"
        circuit.write_bytes(serialize(identity_circuit(4, 2)))
        histogram = tmp_path / "histogram.csv"
        with histogram.open("w") as fh:
            histogram_to_csv(np.arange(16), fh)
        (tmp_path / "plain").write_text("x")
        monkeypatch.setattr(computation, computed)
        argv = [a.format(circuit=circuit, histogram=histogram) for a in argv]
        assert run_cli(*argv, "--out-dir", str(tmp_path / "plain" / "sub")) == 2
        assert_one_line_error(capsys, "input format error: ")

    def test_dangling_link_out_dir_fails_before_the_computation(self, tmp_path, capsys,
                                                                monkeypatch):
        def computed(*args, **kwargs):
            raise AssertionError("the image was rendered")

        link = tmp_path / "link"
        link.symlink_to(tmp_path / "missing")
        monkeypatch.setattr("qimgload.cli.get_image", computed)
        assert run_cli("encode", *DIGIT4, "--out-dir", str(link)) == 2
        assert_one_line_error(capsys, "input format error: ")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--circuit", "{circuit}", "--seed", "-1"], "seed must be >= 0"),
            (["simulate", "--circuit", "{circuit}", "--shots", "99999999999999999999"],
             "shots must be at most 2^63 - 1"),
            (["simulate", "--circuit", "{circuit}", "--shots", "0"], "shots must be >= 1"),
            (["encode", "--image", "builtin:digit", "--target-l", "4", "--chi-max", "0"],
             "chi_max must be >= 1"),
            (["compile", "--image", "builtin:digit", "--target-l", "4", "--chi-max", "0"],
             "chi_max must be >= 1"),
            (["compile", "--image", "builtin:digit", "--target-l", "4", "--depth", "0"],
             "depth must be >= 1"),
            (["compile", "--image", "builtin:digit", "--target-l", "4", "--sweeps", "-1"],
             "sweep count must be >= 0"),
            (["analyze", "--sweep", "chi", *DIGIT4, "--chi-list", "0,2"], "chi_max must be >= 1"),
            (["analyze", "--sweep", "depth", *DIGIT4, "--depth-list", "0,2"],
             "depth must be >= 1"),
            (["analyze", "--sweep", "depth", *DIGIT4, "--chi-max", "0"], "chi_max must be >= 1"),
            (["analyze", "--sweep", "depth", *DIGIT4, "--sweeps", "-1"],
             "sweep count must be >= 0"),
            (["analyze", "--sweep", "resolution", *DIGIT4, "--l-list", "3,4"],
             "invalid sweep resolution 3"),
            (["analyze", "--sweep", "resolution", *DIGIT4, "--l-list", "1,4"],
             "invalid sweep resolution 1"),
        ],
        ids=["simulate-seed", "simulate-shots-above-int64", "simulate-shots-zero",
             "encode-chi-max", "compile-chi-max", "compile-depth", "compile-sweeps",
             "analyze-chi-list", "analyze-depth-list", "analyze-depth-chi-max",
             "analyze-depth-sweeps", "analyze-l-list-not-power-of-two", "analyze-l-list-below-two"],
    )
    def test_out_of_range_option_leaves_no_out_dir(self, tmp_path, out, capsys, argv, message):
        circuit = tmp_path / "circuit.json"
        circuit.write_bytes(serialize(identity_circuit(4, 1)))
        argv = [a.format(circuit=circuit) for a in argv]
        assert run_cli(*argv, "--out-dir", str(out)) == 3
        assert_one_line_error(capsys, f"validation error: {message}")
        assert not out.exists()

    def test_validation_error(self, out):
        assert run_cli("encode", "--image", "builtin:nothere", "--out-dir", str(out)) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["encode", "--format", "pgm", "--image", "{dir}"],
            ["simulate", "--circuit", "{dir}"],
            ["reconstruct", "--histogram", "{dir}"],
            ["encode", "--config", "{dir}"],
            ["encode", "--out-dir", "{file}"],
            ["encode", "--out-dir", "{file}/sub"],
        ],
        ids=["image-dir", "circuit-dir", "histogram-dir", "config-dir", "out-dir-file",
             "out-dir-under-file"],
    )
    def test_os_error_is_input_format_error(self, tmp_path, out, capsys, argv):
        # IsADirectoryError, FileExistsError and NotADirectoryError exit like a missing file
        file = tmp_path / "plain"
        file.write_text("x")
        argv = [a.format(dir=tmp_path, file=file) for a in argv]
        if "--out-dir" not in argv:
            argv += ["--out-dir", str(out)]
        assert run_cli(*argv) == 2
        assert_one_line_error(capsys, "input format error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "--target-l", "0"],
            ["compile", "--target-l", "-4"],
            ["encode", "--target-l", "-7"],
            ["analyze", "--sweep", "chi", "--target-l", "1"],
        ],
        ids=["compile-0", "compile-minus-4", "encode-minus-7", "analyze-1"],
    )
    def test_target_l_below_two_rejected(self, out, capsys, argv):
        assert run_cli(*argv, "--image", "builtin:digit", "--out-dir", str(out)) == 3
        assert_one_line_error(capsys, f"validation error: target_l={argv[-1]} must be >= 2")
        assert not (out / "amplitude_state.json").exists()
        assert not (out / "circuit.json").exists()

    @pytest.mark.parametrize("exact", [True, False])
    def test_statevector_norm_drift_rejected(self, tmp_path, out, capsys, exact):
        path = tmp_path / "circuit.json"
        path.write_bytes(serialize(drifting_circuit()))
        argv = ["simulate", "--circuit", str(path), "--out-dir", str(out)]
        assert run_cli(*argv, *(["--exact"] if exact else [])) == 3
        assert_one_line_error(capsys, "validation error: statevector must have unit norm within 1e-10")

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_environment_is_numeric_error(self, out, capsys, monkeypatch, bad):
        # one poisoned sweep update ends the compile with exit 4, one line and no warning
        kernel = compiler._environment
        calls = []

        def one_update_poisoned(*args):
            f = kernel(*args)
            calls.append(f)
            if len(calls) == 7:
                f[2, 2] = bad
            return f

        monkeypatch.setattr(compiler, "_environment", one_update_poisoned)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("compile", "--image", "builtin:digit", "--target-l", "8",
                           "--method", "grow", "--depth", "2", "--sweeps", "3",
                           "--out-dir", str(out)) == 4
        assert caught == []
        assert_one_line_error(capsys, "numeric error: environment tensor is not finite")
        assert not (out / "circuit.json").exists()
        assert not out.exists()

    def test_corrupt_circuit_json(self, tmp_path, out, capsys):
        bad = tmp_path / "circuit.json"
        bad.write_text("{not json")
        assert run_cli("simulate", "--circuit", str(bad), "--out-dir", str(out)) == 2
        assert_one_line_error(capsys, "input format error: corrupt circuit payload")

    def test_circuit_json_not_an_object(self, tmp_path, out, capsys):
        bad = tmp_path / "circuit.json"
        bad.write_text("[1]")
        assert run_cli("simulate", "--circuit", str(bad), "--out-dir", str(out)) == 2
        assert_one_line_error(capsys, "input format error: corrupt circuit payload")

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m: m["real"][2].pop(),
            lambda m: m["real"][1].__setitem__(0, "x"),
            lambda m: m.pop("real"),
            lambda m: m.__setitem__("imag", [[0.0] * 4] * 2),
        ],
        ids=["ragged-matrix", "non-numeric", "missing-real", "imag-shape"],
    )
    def test_corrupt_gate_payload(self, tmp_path, out, capsys, mutate):
        payload = json.loads(serialize(identity_circuit(4, 2)))
        mutate(payload["layers"][1][2]["matrix"])
        bad = tmp_path / "circuit.json"
        bad.write_text(json.dumps(payload))
        assert run_cli("simulate", "--circuit", str(bad), "--out-dir", str(out)) == 2
        assert_one_line_error(capsys, "input format error: corrupt circuit payload: ")

    @pytest.mark.parametrize(
        "part, entry, kind",
        [
            ("real", "1.0", "str"),
            ("real", True, "bool"),
            ("real", None, "NoneType"),
            ("imag", "0.0", "str"),
            ("imag", False, "bool"),
            ("imag", None, "NoneType"),
        ],
        ids=["real-string", "real-bool", "real-null", "imag-string", "imag-bool", "imag-null"],
    )
    def test_non_numeric_gate_entry_rejected(self, tmp_path, out, capsys, part, entry, kind):
        # numpy reads "1.0" and true as 1.0, so without the type check the string and
        # bool entries below would leave an identity gate and run as if they were numbers
        payload = json.loads(serialize(identity_circuit(4, 2)))
        matrix = payload["layers"][1][2]["matrix"]
        matrix["imag"] = [[0.0] * 4 for _ in range(4)]
        matrix[part][0][0] = entry
        bad = tmp_path / "circuit.json"
        bad.write_text(json.dumps(payload))
        assert run_cli("simulate", "--circuit", str(bad), "--out-dir", str(out)) == 2
        assert_one_line_error(
            capsys, f"input format error: corrupt circuit payload: gate entries must be "
            f"numbers, not ['{kind}']")
        assert not out.exists()

    def test_bool_qubit_count_rejected(self, tmp_path, out, capsys):
        payload = json.loads(serialize(identity_circuit(2)))
        payload["n_qubits"] = True
        bad = tmp_path / "circuit.json"
        bad.write_text(json.dumps(payload))
        assert run_cli("simulate", "--circuit", str(bad), "--out-dir", str(out)) == 3
        assert_one_line_error(capsys, "validation error: qubit count True is not an integer")
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_pixel_rejected(self, tmp_path, out, capsys, entry):
        path = tmp_path / "img.csv"
        path.write_text(f"{entry},0.5\n0.5,0.5\n")
        assert run_cli("encode", "--image", str(path), "--out-dir", str(out)) == 3
        assert_one_line_error(capsys, "validation error: pixel intensities must lie in [0, 1]")

    @pytest.mark.parametrize("exact", [True, False])
    def test_nan_gate_rejected(self, out, capsys, exact):
        run_cli("compile", "--image", "builtin:digit", "--target-l", "4",
                "--depth", "1", "--method", "iterative", "--out-dir", str(out))
        payload = json.loads((out / "circuit.json").read_text())
        payload["layers"][0][0]["matrix"]["real"][0][0] = float("nan")
        (out / "circuit.json").write_text(json.dumps(payload))
        capsys.readouterr()
        argv = ["simulate", "--circuit", str(out / "circuit.json"), "--out-dir", str(out)]
        assert run_cli(*argv, *(["--exact"] if exact else [])) == 3
        assert_one_line_error(capsys, "validation error: gate at site 2 is not unitary")

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "--target-l", "2048"],
            ["compile", "--target-l", "2048", "--method", "iterative"],
            ["analyze", "--sweep", "chi", "--target-l", "2048"],
            ["analyze", "--sweep", "depth", "--target-l", "2048"],
            ["analyze", "--sweep", "resolution", "--target-l", "2048", "--l-list", "256,2048"],
            ["analyze", "--sweep", "resolution", "--target-l", "2048", "--l-list", "32,64"],
            ["encode", "--target-l", "2048"],
        ],
    )
    def test_dense_cap_checked_before_rendering(self, out, capsys, monkeypatch, argv):
        def render(name, L):
            raise AssertionError(f"rendered {name} at L={L}")

        monkeypatch.setattr("qimgload.cli.get_image", render)
        assert run_cli(*argv, "--image", "builtin:scene", "--out-dir", str(out)) == 3
        assert_one_line_error(
            capsys, "validation error: an L=2048 image needs 22 qubits, above the dense cap of 20"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["encode"],
            ["compile"],
            ["compile", "--method", "iterative"],
            ["analyze", "--sweep", "chi", "--chi-list", "2"],
            ["analyze", "--sweep", "depth", "--depth-list", "1"],
            ["analyze", "--sweep", "resolution", "--l-list", "4,8"],
        ],
    )
    def test_dense_cap_checked_on_file_images(self, tmp_path, out, capsys, monkeypatch, argv):
        # a 16x16 file under a cap of 6 qubits (L = 8): refused once read,
        # before any encoding, and with nothing written
        def encoded(*args, **kwargs):
            raise AssertionError("from_dense ran")

        monkeypatch.setattr("qimgload.cli.DENSE_SITE_CAP", 6)
        monkeypatch.setattr("qimgload.cli.from_dense", encoded)
        monkeypatch.setattr("qimgload.analysis.from_dense", encoded)
        path = tmp_path / "big.pgm"
        path.write_bytes(b"P5 16 16 255\n" + bytes(range(256)))
        assert run_cli(*argv, "--image", str(path), "--target-l", "16",
                       "--out-dir", str(out)) == 3
        assert_one_line_error(
            capsys, "validation error: an L=16 image needs 8 qubits, above the dense cap of 6"
        )
        assert not out.exists()

    def test_dense_cap_admits_a_file_downscaled_under_it(self, tmp_path, out, monkeypatch):
        monkeypatch.setattr("qimgload.cli.DENSE_SITE_CAP", 6)
        path = tmp_path / "big.pgm"
        path.write_bytes(b"P5 16 16 255\n" + bytes(range(256)))
        assert run_cli("encode", "--image", str(path), "--target-l", "8",
                       "--out-dir", str(out)) == 0
        assert json.loads((out / "amplitude_state.json").read_text())["n_qubits"] == 6

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "--target-l", "1024"],
            ["analyze", "--sweep", "resolution", "--l-list", "256,1024"],
        ],
    )
    def test_dense_cap_admits_twenty_qubits(self, out, monkeypatch, argv):
        # L = 1024 encodes on exactly the cap's 20 qubits, so the image is rendered;
        # the resolution sweep renders at its largest side, above --target-l
        def render(name, L):
            raise RuntimeError(f"rendered {name} at L={L}")

        monkeypatch.setattr("qimgload.cli.get_image", render)
        with pytest.raises(RuntimeError, match="rendered scene at L=1024"):
            run_cli(*argv, "--image", "builtin:scene", "--out-dir", str(out))

    def test_unknown_format_flag(self, tmp_path, out):
        weird = tmp_path / "img.dat"
        weird.write_bytes(b"123")
        assert run_cli("encode", "--image", str(weird), "--out-dir", str(out)) == 2


class TestSelftest:
    def test_passes(self, capsys):
        assert run_cli("selftest") == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS  power-law exponent 1.645 recovered",
            "PASS  power-law exponent 0.603 recovered",
            "PASS  lossless dense round trip",
            "PASS  chi=2 single-layer exactness",
            "PASS  42 CNOT-equivalents at N=8 D=3",
            "PASS  180 CNOT-equivalents at N=10 D=10",
        ]
