"""Command-line pipeline: encode, compile, simulate, reconstruct, analyze, selftest.

Every subcommand is deterministic given its config and seed.  Options can
come from a flat key=value config file (--config); explicit flags win.
Exit codes: 0 success, 1 selftest failure, 2 input-format error,
3 validation error, 4 numeric failure or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import shutil
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, analysis, artifacts, compiler, state_rows
from .circuit import (
    LayeredCircuit,
    cnot_count,
    deserialize,
    layer_from_chi2_mps,
    serialize,
    staircase_sites,
)
from .errors import InputFormatError, NumericError, ValidationError
from .image_codec import (
    ORDERINGS,
    check_ordering,
    decode_probabilities,
    downscale,
    encode_amplitudes,
    load_image,
    write_pgm,
)
from .mps import DENSE_SITE_CAP, from_dense, mps_to_dict, to_dense
from .sample_images import get_image
from .simulator import (
    curve_to_csv,
    histogram_from_csv,
    histogram_to_csv,
    histogram_to_probs,
    run,
    shot_draw,
    state_to_csv,
)

# analyze fits only infidelities above this: 1 - |<a|b>| has round-off of
# order 1e-15, so a point at or below the floor carries no power law
FIT_FLOOR = 1e-12

EXIT_SELFTEST = 1
EXIT_INPUT_FORMAT = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

# simulate writes the curve.csv rows of a state of at least this many
# amplitudes from a second interpreter while it draws the shots; below it,
# starting that interpreter costs more than the overlap saves
CURVE_CHILD_MIN = 2**16

@dataclass
class PipelineConfig:
    """Every option that all subcommands share, as a config-file key and a flag.

    Each default also fixes the option's type; a field's metadata holds
    the rest of its flag's `add_argument` keywords.
    """

    image: str = field(
        default="builtin:sign", metadata={"help": "image path or builtin:{sign,scene,digit}"}
    )
    format: str = field(default="auto", metadata={"choices": ["auto", "pgm", "csv"]})
    target_l: int = field(default=16, metadata={"help": "downscale target side"})
    ordering: str = field(default="straight", metadata={"choices": ORDERINGS})
    chi_max: int = compiler.DEFAULT_CHI_MAX
    depth: int = 3
    sweeps: int = compiler.DEFAULT_SWEEPS
    shots: int = 10000
    seed: int = 0
    out_dir: str = "out"
    method: str = field(default="grow", metadata={"choices": compiler.METHODS})

    def hash(self) -> str:
        # out_dir only says where artifacts land, not what they contain
        values = {k: v for k, v in vars(self).items() if k != "out_dir"}
        canon = json.dumps(values, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _read_config_file(path: str) -> dict:
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputFormatError(f"config line without '=': {line!r}")
        if "\0" in line:  # no path or option holds one; open() and mkdir() would raise ValueError
            raise InputFormatError(f"config line with a NUL byte: {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in values:
            raise ValidationError(f"config key {key!r} is set more than once")
        values[key] = value.strip()
    return values


def _build_config(args) -> PipelineConfig:
    file_values = _read_config_file(args.config) if args.config else {}
    options = fields(PipelineConfig)
    unknown = set(file_values) - {f.name for f in options}
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for f in options:
        value = getattr(args, f.name)  # explicit flags win over the file
        if value is None:
            value = file_values.get(f.name, f.default)
        kind = type(f.default)
        try:
            values[f.name] = kind(value)
        except ValueError:
            raise ValidationError(f"{f.name}={value!r} is not a valid {kind.__name__}") from None
        choices = f.metadata.get("choices")
        if choices is not None and values[f.name] not in choices:
            raise ValidationError(f"{f.name}={value!r} is not one of {list(choices)}")
    # `_out_dir` makes the directory only once a handler has checked its
    # input, so a file (or a dangling link) in its way is refused here,
    # before any input is read
    existing = Path(values["out_dir"])
    while not os.path.lexists(existing):
        existing = existing.parent
    if not existing.is_dir():
        raise InputFormatError(f"out_dir: {str(existing)!r} is not a directory")
    return PipelineConfig(**values)


def _provenance(cfg: PipelineConfig) -> dict:
    return {"tool": f"qimgload {__version__}", "config_hash": cfg.hash()}


@contextmanager
def _csv_file(path: Path, cfg: PipelineConfig):
    """The text file at `path`, open for writing, after its provenance header."""
    with path.open("w") as fh:
        fh.writelines(f"# {key}: {value}\n" for key, value in _provenance(cfg).items())
        yield fh


def _write_rows(path: Path, cfg: PipelineConfig, columns: str, rows) -> None:
    """A run-record CSV: the provenance header, the column row, one line per row.

    Fields go through `csv.writer`, so a field holding a comma or a quote
    (an image path, say) is quoted; ints and floats print as str() would.
    """
    with _csv_file(path, cfg) as fh:
        fh.write(columns + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _check_dense_cap(side: int) -> None:
    if side > 2 ** (DENSE_SITE_CAP / 2):
        raise ValidationError(
            f"an L={side} image needs {2 * math.log2(side):g} qubits, "
            f"above the dense cap of {DENSE_SITE_CAP}"
        )


def _load_grid(cfg: PipelineConfig, side: int):
    """The input image: a built-in one rendered at `side`, a file downscaled to it if larger.

    An image whose encoding passes the dense cap is refused before anything
    is encoded: a built-in one before it is rendered, since the renderer
    would allocate the whole 2^N-amplitude target, and a file once it is
    read and downscaled.
    """
    if cfg.target_l < 2:
        raise ValidationError(f"target_l={cfg.target_l} must be >= 2")
    if cfg.image.startswith("builtin:"):
        _check_dense_cap(side)
        return get_image(cfg.image.split(":", 1)[1], side)
    fmt = cfg.format
    if fmt == "auto":
        suffix = Path(cfg.image).suffix.lower()
        fmt = {".pgm": "pgm", ".csv": "csv"}.get(suffix)
        if fmt is None:
            raise InputFormatError(f"cannot infer format from {cfg.image!r}; pass --format")
    grid = load_image(Path(cfg.image), fmt)
    if side < grid.side_length:
        grid = downscale(grid, side)
    _check_dense_cap(grid.side_length)
    return grid


@contextmanager
def _out_dir(cfg: PipelineConfig):
    """The output directory, made for the block's writes once a handler has checked its input.

    So a run that fails on its input or an option out of range makes no
    directory; `_build_config` has already refused an out_dir that lies
    under a file.  If the block raises, each directory made here is removed
    with all it holds, deepest first; a directory that existed before is
    kept, with the files already written into it.
    """
    path = Path(cfg.out_dir)
    made = []
    try:
        # one level at a time, so that every directory made is known, also
        # one off the lexical chain of a path holding ".."
        for level in reversed((path, *path.parents)):
            if not level.is_dir():
                level.mkdir()
                made.append(level)
        yield path
    except BaseException:
        for level in reversed(made):
            shutil.rmtree(level, ignore_errors=True)
        raise


@contextmanager
def _curve_child(n_amplitudes: int):
    """The child process that will write curve.csv's rows, or None below CURVE_CHILD_MIN.

    The child runs `state_rows` as a script in a new interpreter, with no
    fork and no site imports, so it starts in a few milliseconds; `_send_curve`
    hands it the rows to write.  If the block raises, the child is killed;
    it is always reaped before this returns.
    """
    if n_amplitudes < CURVE_CHILD_MIN:
        yield None
        return
    import subprocess  # a few ms to import, paid only by a run that starts a child

    child = subprocess.Popen(
        [sys.executable, "-I", "-S", state_rows.__file__],
        stdin=subprocess.PIPE,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    try:
        yield child
    except BaseException:
        child.kill()
        raise
    finally:
        for pipe in (child.stdin, child.stderr):
            with suppress(OSError):  # a pipe to a child that has exited
                pipe.close()
        child.wait()


def _send_curve(child, path: Path, state: np.ndarray) -> None:
    """Hand the child the path of curve.csv, its provenance written, and the amplitudes."""
    amplitudes = state.astype(np.result_type(state.dtype, float), copy=False)
    name = os.fsencode(path.absolute())
    try:
        child.stdin.write(state_rows.input_header(amplitudes.dtype.kind, amplitudes.size, name))
        child.stdin.write(amplitudes)
        child.stdin.close()
    except BrokenPipeError:
        pass  # the child has exited; `_wait_curve` says why


def _wait_curve(child) -> None:
    """Wait for the child to write the rows; if it fails, raise with its last stderr line."""
    lines = child.stderr.read().decode(errors="replace").splitlines()
    if child.wait():
        detail = f": {lines[-1]}" if lines else ""
        raise NumericError(f"the curve.csv writer exited with code {child.returncode}{detail}")


def cmd_encode(args) -> int:
    cfg = _build_config(args)
    grid = _load_grid(cfg, cfg.target_l)
    state = encode_amplitudes(grid, cfg.ordering)
    mps, weights = from_dense(state, chi_max=cfg.chi_max)
    scheme = f"interleaved-{cfg.ordering}"
    total = float(sum(weights))
    with _out_dir(cfg) as out:
        with (out / "amplitude_state.json").open("w") as fh:
            artifacts.dump(
                {
                    "n_qubits": mps.n_sites,
                    "ordering": scheme,
                    "amplitudes": state,
                    "provenance": _provenance(cfg),
                },
                fh,
            )
        meta = {
            "ordering": scheme,
            "provenance": _provenance(cfg),
            "truncation": {"per_bond": list(weights), "total": total},
        }
        with (out / "mps.json").open("w") as fh:
            artifacts.dump(mps_to_dict(mps, meta), fh)
        with _csv_file(out / "amplitudes.csv", cfg) as fh:
            curve_to_csv(state, fh)
        print(
            f"encoded {grid.side_length}x{grid.side_length} image on {mps.n_sites} qubits, "
            f"max bond {mps.max_bond}, truncation weight {total:.3e}"
        )
    return 0


def cmd_compile(args) -> int:
    cfg = _build_config(args)
    state = encode_amplitudes(_load_grid(cfg, cfg.target_l), cfg.ordering)
    target = to_dense(from_dense(state, chi_max=cfg.chi_max)[0])
    if cfg.method == "grow":
        circuit, trace = compiler.grow_and_optimize(target, cfg.depth, cfg.sweeps)
    else:
        circuit, trace = compiler.iterative_construct(target, cfg.depth)
    prepared = run(circuit)
    final_infidelity = analysis.infidelity(state, prepared)
    provenance = {
        **circuit.provenance,
        "chi_max": cfg.chi_max,
        **_provenance(cfg),
        "target_image": cfg.image,
        "ordering": cfg.ordering,
    }
    circuit = replace(circuit, provenance=provenance)
    with _out_dir(cfg) as out:
        (out / "circuit.json").write_bytes(serialize(circuit))
        rows = [(stage, sweep, o, max(0.0, 1.0 - o)) for stage, sweep, o in trace.records]
        _write_rows(out / "trace.csv", cfg, "stage,sweep,overlap,infidelity", rows)
        print(
            f"compiled depth-{circuit.depth} circuit on {circuit.n_qubits} qubits: "
            f"{cnot_count(circuit)} CNOT-equivalents, infidelity {final_infidelity:.3e}"
        )
    return 0


def cmd_simulate(args) -> int:
    cfg = _build_config(args)
    circuit = deserialize(Path(args.circuit).read_bytes())
    if circuit.n_qubits % 2:
        raise ValidationError("circuit qubit count must be even to reshape into an image")
    L = 2 ** (circuit.n_qubits // 2)
    ordering = check_ordering(circuit.provenance.get("ordering", cfg.ordering))
    # the child starts here, so that its start-up overlaps the statevector run
    with _curve_child(2**circuit.n_qubits) as child:
        state = run(circuit)
        if args.exact:
            probs = np.abs(state)
            np.square(probs, out=probs)
        else:
            draw = shot_draw(state, cfg.shots, cfg.seed)  # checks the options
        with _out_dir(cfg) as out:
            with _csv_file(out / "curve.csv", cfg) as fh:
                if child is None:
                    state_to_csv(state, fh)
            if child is not None:
                _send_curve(child, out / "curve.csv", state)
            # each 2^N array is dropped once the last artifact that needs it is written
            del state
            if not args.exact:
                counts = draw()
                del draw  # it holds the probabilities
                with _csv_file(out / "histogram.csv", cfg) as fh:
                    histogram_to_csv(counts, fh)
                probs = histogram_to_probs(counts)
                del counts
            grid = decode_probabilities(probs, L, ordering)
            del probs
            (out / "reconstructed.pgm").write_bytes(write_pgm(grid))
            if child is not None:
                _wait_curve(child)
            label = "exact probabilities" if args.exact else f"{cfg.shots} shots, seed {cfg.seed}"
            print(f"simulated {circuit.n_qubits}-qubit circuit ({label}); wrote reconstructed.pgm")
    return 0


def cmd_reconstruct(args) -> int:
    cfg = _build_config(args)
    with Path(args.histogram).open() as fh:
        counts = histogram_from_csv(fh)
    probs = histogram_to_probs(counts)  # every |count| <= 2^53, so the sum cannot overflow
    L = int(round(np.sqrt(len(counts))))
    if L * L != len(counts):
        raise ValidationError("histogram length is not a square")
    grid = decode_probabilities(probs, L, cfg.ordering)
    del probs  # so it is not held while write_pgm builds the image's text
    with _out_dir(cfg) as out:
        (out / "reconstructed.pgm").write_bytes(write_pgm(grid))
        print(f"decoded {len(counts)}-outcome histogram into {L}x{L} image")
    return 0


def _int_list(option: str, text: str) -> list:
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"{option}={text!r} is not a comma-separated list of int") from None
    if len(set(values)) < len(values):
        raise ValidationError(f"{option}={text!r} repeats an entry")
    return values


def cmd_analyze(args) -> int:
    cfg = _build_config(args)
    option = {"chi": "chi_list", "depth": "depth_list", "resolution": "l_list"}[args.sweep]
    values = _int_list(option, getattr(args, option))
    side = cfg.target_l
    if args.sweep == "resolution":
        # read the image at the largest side the sweep needs
        side = max(side, *values)
    grid = _load_grid(cfg, side)
    if args.sweep == "chi":
        rows = analysis.chi_scaling_sweep(grid, values, ordering=cfg.ordering)
        method = "mps_truncation"
    elif args.sweep == "depth":
        rows = analysis.depth_scaling_sweep(
            grid,
            values,
            method=cfg.method,
            sweeps=cfg.sweeps,
            chi_max=cfg.chi_max,
            ordering=cfg.ordering,
        )
        method = cfg.method
    else:  # resolution; argparse bounds --sweep
        rows = analysis.chi_scaling_sweep(grid, [cfg.chi_max], L_list=values, ordering=cfg.ordering)
        method = "mps_truncation"
    # a resolution sweep's x is the one chi_max on every row, so it fits against L
    by_l = args.sweep == "resolution"
    points = [(L if by_l else x, i) for x, L, i in rows]
    above = [p for p in points if p[1] > FIT_FLOOR]
    fit = analysis.fit_power_law(above) if len(above) >= 3 else None
    name = f"{args.sweep}_sweep"
    labelled = [(*row, method, cfg.image) for row in rows]
    with _out_dir(cfg) as out:
        _write_rows(out / f"{name}.csv", cfg, "x,L,infidelity,method,image_id", labelled)
        if fit is not None:
            excluded = [[float(x), i] for x, i in points if i <= FIT_FLOOR]
            record = {**fit, "floor": FIT_FLOOR, "excluded": excluded,
                      "provenance": _provenance(cfg)}
            (out / f"{name}_fit.json").write_text(artifacts.dumps(record))
            print(f"{name}: fitted I = {fit['a']:.4g} / x^{fit['b']:.4g}")
        else:
            print(f"{name}: {len(rows)} records (too few points above {FIT_FLOOR:g} to fit)")
    return 0


def cmd_selftest(args) -> int:
    checks = []

    fit = analysis.fit_power_law([(x, 3.0 * x**-1.645) for x in (2, 4, 8, 16, 32)])
    checks.append(("power-law exponent 1.645 recovered", abs(fit["b"] - 1.645) < 1e-9))
    fit = analysis.fit_power_law([(x, 0.5 * x**-0.603) for x in (2, 4, 8, 16, 32)])
    checks.append(("power-law exponent 0.603 recovered", abs(fit["b"] - 0.603) < 1e-9))

    rng = np.random.default_rng(7)
    vec = rng.standard_normal(2**6)
    vec /= np.linalg.norm(vec)
    m, _ = from_dense(vec)
    checks.append(("lossless dense round trip", np.max(np.abs(to_dense(m) - vec)) < 1e-10))

    chi2, _ = from_dense(vec, chi_max=2)
    circuit = LayeredCircuit(6, staircase_sites(6), layer_from_chi2_mps(chi2)[None])
    exact = 1.0 - abs(np.vdot(to_dense(chi2), run(circuit)))
    checks.append(("chi=2 single-layer exactness", exact < 1e-9))

    def _staircase(n, d):
        identities = np.broadcast_to(np.eye(4), (d, n - 1, 4, 4))
        return LayeredCircuit(n, staircase_sites(n, d), identities)

    checks.append(("42 CNOT-equivalents at N=8 D=3", cnot_count(_staircase(8, 3)) == 42))
    checks.append(("180 CNOT-equivalents at N=10 D=10", cnot_count(_staircase(10, 10)) == 180))

    ok = True
    for label, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {label}")
        ok &= passed
    return 0 if ok else EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key=value config file; flags override")
    for f in fields(PipelineConfig):
        flag = "--" + f.name.replace("_", "-")
        shared.add_argument(flag, dest=f.name, type=type(f.default), **f.metadata)

    parser = argparse.ArgumentParser(
        prog="qimgload",
        description="Compile grayscale images into shallow quantum state-preparation circuits.",
    )
    parser.add_argument("--version", action="version", version=f"qimgload {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # `main` runs the handler cmd_<name> of this module
    commands = [
        ("encode", "image -> amplitude state + MPS artifacts"),
        ("compile", "image -> layered circuit JSON + trace CSV"),
        ("simulate", "circuit -> histogram + reconstructed PGM + curve"),
        ("reconstruct", "decode a histogram CSV into a PGM image"),
        ("analyze", "scaling sweeps and power-law fits"),
        ("selftest", "quick pass/fail property checks"),
    ]
    p = {name: sub.add_parser(name, help=text, parents=[shared]) for name, text in commands}

    p["simulate"].add_argument("--circuit", required=True, help="circuit JSON from `compile`")
    p["simulate"].add_argument(
        "--exact", action="store_true", help="use exact probabilities (infinite shots)"
    )
    p["reconstruct"].add_argument("--histogram", required=True)
    p["analyze"].add_argument("--sweep", required=True, choices=["chi", "depth", "resolution"])
    p["analyze"].add_argument("--chi-list", dest="chi_list", default="2,4,8,16,32")
    p["analyze"].add_argument("--depth-list", dest="depth_list", default="2,4,6,8,10,12,14,16")
    p["analyze"].add_argument("--l-list", dest="l_list", default="32,64,128,256")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built by its first call, so importing builds none."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand; callable any number of times in one process.

    The parser is built once, but the handler cmd_<command> is looked up on
    this module at each call, so one rebound here (a tracer's wrapper, say)
    is the one that runs.
    """
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (InputFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"input format error: {exc}", file=sys.stderr)
        return EXIT_INPUT_FORMAT
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        # numpy's message names the allocation: "Unable to allocate 2.25 GiB for an array ..."
        detail = f": {exc}" if str(exc) else ""
        print(f"numeric error: out of memory{detail}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
