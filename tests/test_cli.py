"""End-to-end CLI pipeline: artifacts, determinism, config handling, exit codes."""

import json

import numpy as np
import pytest

from conftest import drifting_circuit, oracle_encode
from qimgload.circuit import serialize
from qimgload.cli import main
from qimgload.image_codec import ImageGrid, load_pgm, write_pgm
from qimgload.sample_images import get_image


@pytest.fixture
def out(tmp_path):
    return tmp_path / "out"


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

    def test_file_input(self, tmp_path, out, rng):
        path = tmp_path / "img.pgm"
        path.write_bytes(write_pgm(ImageGrid(rng.random((8, 8)))))
        assert run_cli("encode", "--image", str(path), "--target-l", "8",
                       "--out-dir", str(out)) == 0


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

    def test_exact_simulation_skips_sampling(self, out):
        run_cli("compile", "--image", "builtin:digit", "--target-l", "4",
                "--depth", "1", "--method", "iterative", "--out-dir", str(out))
        assert run_cli("simulate", "--circuit", str(out / "circuit.json"),
                       "--exact", "--out-dir", str(out)) == 0
        assert not (out / "histogram.csv").exists()

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
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run_cli("compile", "--method", "grow", "--image", "builtin:digit",
                           "--target-l", "8", "--depth", "2", "--sweeps", "10",
                           "--out-dir", str(d)) == 0
        for name in ("circuit.json", "trace.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("method", ["grow", "iterative"])
    def test_working_bond_cap_below_two_rejected(self, out, capsys, method):
        assert run_cli("compile", "--image", "builtin:digit", "--target-l", "4",
                       "--method", method, "--chi-max", "1", "--sweeps", "2",
                       "--out-dir", str(out)) == 3
        assert_one_line_error(capsys, "validation error: working bond cap must be >= 2")
        assert not (out / "circuit.json").exists()

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

    @pytest.mark.parametrize("row", ["0,0,x,0.5", "0,0", "0,0,nan,0.5"])
    def test_malformed_row(self, tmp_path, out, capsys, row):
        hist = tmp_path / "histogram.csv"
        hist.write_text(f"index,bitstring,count,probability\n{row}\n1,1,3,0.5\n")
        assert run_cli("reconstruct", "--histogram", str(hist), "--out-dir", str(out)) == 2
        assert_one_line_error(capsys, "input format error: histogram")


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

    @pytest.mark.parametrize(
        "sweep,flag", [("chi", "--chi-list"), ("depth", "--depth-list"), ("resolution", "--l-list")]
    )
    def test_unparseable_list_rejected(self, out, capsys, sweep, flag):
        assert run_cli("analyze", "--sweep", sweep, "--image", "builtin:digit",
                       "--target-l", "4", flag, "2,x", "--out-dir", str(out)) == 3
        assert_one_line_error(capsys, "validation error: ")


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

    def test_unparseable_value_rejected(self, tmp_path, out, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("depth = three\n")
        assert run_cli("compile", "--config", str(cfg), "--out-dir", str(out)) == 3
        assert_one_line_error(capsys, "validation error: depth='three'")


class TestExitCodes:
    def test_input_format_error(self, tmp_path, out):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P9 not a pgm")
        assert run_cli("encode", "--image", str(bad), "--out-dir", str(out)) == 2

    def test_missing_file(self, out):
        assert run_cli("encode", "--image", "ghost.pgm", "--out-dir", str(out)) == 2

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
        output = capsys.readouterr().out
        assert "FAIL" not in output
        assert output.count("PASS") >= 5
