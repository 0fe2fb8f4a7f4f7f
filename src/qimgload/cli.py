"""Command-line pipeline: encode, compile, simulate, reconstruct, analyze, selftest.

Every subcommand is deterministic given its config and seed.  Options can
come from a flat key=value config file (--config); explicit flags win.
Exit codes: 0 success, 1 selftest failure, 2 input-format error,
3 validation error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, analysis, compiler
from .circuit import cnot_count, deserialize, serialize
from .errors import InputFormatError, NumericError, ValidationError
from .image_codec import (
    ORDERINGS,
    check_ordering,
    curve_to_csv,
    decode_probabilities,
    downscale,
    encode_amplitudes,
    load_image,
    write_pgm,
)
from .mps import DENSE_SITE_CAP, from_dense, mps_to_dict
from .sample_images import get_image
from .simulator import histogram_to_csv, histogram_to_probs, run, sample, state_to_csv

EXIT_SELFTEST = 1
EXIT_INPUT_FORMAT = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

@dataclass
class PipelineConfig:
    """Every option a subcommand reads; each default also fixes the option's type."""

    image: str = "builtin:sign"
    format: str = "auto"
    target_l: int = 16
    ordering: str = "straight"
    chi_max: int = compiler.DEFAULT_CHI_MAX
    depth: int = 3
    sweeps: int = compiler.DEFAULT_SWEEPS
    shots: int = 10000
    seed: int = 0
    out_dir: str = "out"
    method: str = "grow"

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
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _build_config(args) -> PipelineConfig:
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    options = fields(PipelineConfig)
    unknown = set(file_values) - {f.name for f in options}
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for f in options:
        value = getattr(args, f.name, None)  # explicit flags win over the file
        if value is None:
            value = file_values.get(f.name, f.default)
        kind = type(f.default)
        try:
            values[f.name] = kind(value)
        except ValueError:
            raise ValidationError(f"{f.name}={value!r} is not a valid {kind.__name__}") from None
    return PipelineConfig(**values)


def _provenance(cfg: PipelineConfig) -> dict:
    return {"tool": f"qimgload {__version__}", "config_hash": cfg.hash()}


def _csv_header(cfg: PipelineConfig) -> str:
    return f"# tool: qimgload {__version__}\n# config_hash: {cfg.hash()}\n"


def _load_grid(cfg: PipelineConfig, side: int):
    """The input image: a built-in one rendered at `side`, a file downscaled to it if larger.

    A built-in image whose encoding passes the dense cap is refused before
    it is rendered: the renderer would allocate the whole 2^N-amplitude
    target.  File inputs are bounded by their size.
    """
    if cfg.target_l < 2:
        raise ValidationError(f"target_l={cfg.target_l} must be >= 2")
    if cfg.image.startswith("builtin:"):
        if side > 2 ** (DENSE_SITE_CAP / 2):
            raise ValidationError(
                f"an L={side} image needs {2 * math.log2(side):g} qubits, "
                f"above the dense cap of {DENSE_SITE_CAP}"
            )
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
    return grid


def _prepare_target(cfg: PipelineConfig):
    grid = _load_grid(cfg, cfg.target_l)
    state = encode_amplitudes(grid, check_ordering(cfg.ordering))
    mps, weights = from_dense(state, chi_max=cfg.chi_max)
    return grid, state, mps, weights


def _out_dir(cfg: PipelineConfig) -> Path:
    path = Path(cfg.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_encode(args) -> int:
    cfg = _build_config(args)
    out = _out_dir(cfg)
    grid, state, mps, weights = _prepare_target(cfg)
    scheme = f"interleaved-{cfg.ordering}"
    total = float(sum(weights))
    (out / "amplitude_state.json").write_text(
        json.dumps(
            {
                "n_qubits": mps.n_sites,
                "ordering": scheme,
                "amplitudes": state.tolist(),
                "provenance": _provenance(cfg),
            },
            indent=1,
        )
    )
    meta = {
        "ordering": scheme,
        "provenance": _provenance(cfg),
        "truncation": {"per_bond": list(weights), "total": total},
    }
    (out / "mps.json").write_text(json.dumps(mps_to_dict(mps, meta), indent=1))
    (out / "amplitudes.csv").write_text(_csv_header(cfg) + curve_to_csv(state))
    print(
        f"encoded {grid.side_length}x{grid.side_length} image on {mps.n_sites} qubits, "
        f"max bond {mps.max_bond}, truncation weight {total:.3e}"
    )
    return 0


def cmd_compile(args) -> int:
    cfg = _build_config(args)
    out = _out_dir(cfg)
    _, state, target, _ = _prepare_target(cfg)
    if cfg.method == "grow":
        circuit, trace = compiler.grow_and_optimize(target, cfg.depth, cfg.sweeps, cfg.chi_max)
    elif cfg.method == "iterative":
        circuit, trace = compiler.iterative_construct(target, cfg.depth, cfg.chi_max)
    else:
        raise ValidationError(f"unknown compile method {cfg.method!r}")
    prepared = run(circuit)
    final_infidelity = analysis.infidelity(state, prepared)
    provenance = dict(circuit.provenance)
    provenance.update(_provenance(cfg))
    provenance["target_image"] = cfg.image
    provenance["ordering"] = cfg.ordering
    circuit = replace(circuit, provenance=provenance)
    (out / "circuit.json").write_bytes(serialize(circuit))
    (out / "trace.csv").write_text(_csv_header(cfg) + trace.to_csv())
    print(
        f"compiled depth-{circuit.depth} circuit on {circuit.n_qubits} qubits: "
        f"{cnot_count(circuit)} CNOT-equivalents, infidelity {final_infidelity:.3e}"
    )
    return 0


def cmd_simulate(args) -> int:
    cfg = _build_config(args)
    out = _out_dir(cfg)
    circuit = deserialize(Path(args.circuit).read_bytes())
    if circuit.n_qubits % 2:
        raise ValidationError("circuit qubit count must be even to reshape into an image")
    L = 2 ** (circuit.n_qubits // 2)
    ordering = check_ordering(circuit.provenance.get("ordering", cfg.ordering))
    state = run(circuit)
    if args.exact:
        probs = np.abs(state) ** 2
    else:
        if cfg.shots < 1:
            raise ValidationError("shots must be >= 1 (or pass --exact)")
        counts = sample(state, cfg.shots, cfg.seed)
        (out / "histogram.csv").write_text(_csv_header(cfg) + histogram_to_csv(counts))
        probs = histogram_to_probs(counts)
    grid = decode_probabilities(probs, L, ordering)
    (out / "reconstructed.pgm").write_bytes(write_pgm(grid))
    (out / "curve.csv").write_text(_csv_header(cfg) + state_to_csv(state))
    label = "exact probabilities" if args.exact else f"{cfg.shots} shots, seed {cfg.seed}"
    print(f"simulated {circuit.n_qubits}-qubit circuit ({label}); wrote reconstructed.pgm")
    return 0


def cmd_reconstruct(args) -> int:
    cfg = _build_config(args)
    out = _out_dir(cfg)
    counts = []
    for line in Path(args.histogram).read_text().splitlines():
        if not line or line.startswith("#") or line.startswith("index"):
            continue
        try:
            counts.append(float(line.split(",")[2]))
        except (IndexError, ValueError):
            raise InputFormatError(f"histogram row without a numeric count: {line!r}") from None
    counts = np.array(counts)
    if not np.all(np.abs(counts) <= 2.0**53):  # NaN fails too; the sum cannot overflow
        raise InputFormatError("histogram counts must be finite, at most 2^53 in magnitude")
    if counts.sum() <= 0:
        raise NumericError("histogram holds no counts")
    L = int(round(np.sqrt(len(counts))))
    if L * L != len(counts):
        raise ValidationError("histogram length is not a square")
    grid = decode_probabilities(counts / counts.sum(), L, check_ordering(cfg.ordering))
    (out / "reconstructed.pgm").write_bytes(write_pgm(grid))
    print(f"decoded {len(counts)}-outcome histogram into {L}x{L} image")
    return 0


def _int_list(option: str, text: str) -> list:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"{option}={text!r} is not a comma-separated list of int") from None


def cmd_analyze(args) -> int:
    cfg = _build_config(args)
    out = _out_dir(cfg)
    side = cfg.target_l
    if args.sweep == "resolution":
        # read the image at the largest side the sweep needs
        L_list = _int_list("l_list", args.l_list)
        side = max(side, *L_list)
    grid = _load_grid(cfg, side)
    ordering = check_ordering(cfg.ordering)
    image_id = cfg.image
    if args.sweep == "chi":
        chi_list = _int_list("chi_list", args.chi_list)
        records = analysis.chi_scaling_sweep(
            grid, chi_list, ordering=ordering, image_id=image_id
        )
        name = "chi_sweep"
    elif args.sweep == "depth":
        depth_list = _int_list("depth_list", args.depth_list)
        records = analysis.depth_scaling_sweep(
            grid,
            depth_list,
            method="gate_by_gate" if cfg.method == "grow" else "iterative",
            sweeps=cfg.sweeps,
            chi_max=cfg.chi_max,
            ordering=ordering,
            image_id=image_id,
        )
        name = "depth_sweep"
    else:  # resolution; argparse bounds --sweep
        records = analysis.chi_scaling_sweep(
            grid, [cfg.chi_max], L_list=L_list, ordering=ordering, image_id=image_id
        )
        name = "resolution_sweep"
    (out / f"{name}.csv").write_text(_csv_header(cfg) + analysis.records_to_csv(records))
    # a resolution sweep's x is the one chi_max on every record, so it fits against L
    by_l = args.sweep == "resolution"
    positive = [(r.L if by_l else r.x, r.infidelity) for r in records if r.infidelity > 0]
    if len(positive) >= 3:
        fit = analysis.fit_power_law(positive)
        (out / f"{name}_fit.json").write_text(
            json.dumps({**fit, "provenance": _provenance(cfg)}, indent=1)
        )
        print(f"{name}: fitted I = {fit['a']:.4g} / x^{fit['b']:.4g}")
    else:
        print(f"{name}: {len(records)} records (too few positive points to fit)")
    return 0


def cmd_selftest(args) -> int:
    from .mps import to_dense, truncate

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

    chi2, _ = truncate(m, 2)
    from .circuit import LayeredCircuit, layer_from_chi2_mps, staircase_sites

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
    parser = argparse.ArgumentParser(
        prog="qimgload",
        description="Compile grayscale images into shallow quantum state-preparation circuits.",
    )
    parser.add_argument("--version", action="version", version=f"qimgload {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file; flags override")
        p.add_argument("--image", help="image path or builtin:{sign,scene,digit}")
        p.add_argument("--format", choices=["auto", "pgm", "csv"])
        p.add_argument("--target-l", dest="target_l", type=int, help="downscale target side")
        p.add_argument("--ordering", choices=ORDERINGS)
        p.add_argument("--chi-max", dest="chi_max", type=int)
        p.add_argument("--depth", type=int)
        p.add_argument("--sweeps", type=int)
        p.add_argument("--shots", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out-dir", dest="out_dir")
        p.add_argument("--method", choices=["grow", "iterative"])

    p = sub.add_parser("encode", help="image -> amplitude state + MPS artifacts")
    common(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("compile", help="image -> layered circuit JSON + trace CSV")
    common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="circuit -> histogram + reconstructed PGM + curve")
    common(p)
    p.add_argument("--circuit", required=True, help="circuit JSON from `compile`")
    p.add_argument("--exact", action="store_true", help="use exact probabilities (infinite shots)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="decode a histogram CSV into a PGM image")
    common(p)
    p.add_argument("--histogram", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("analyze", help="scaling sweeps and power-law fits")
    common(p)
    p.add_argument("--sweep", required=True, choices=["chi", "depth", "resolution"])
    p.add_argument("--chi-list", dest="chi_list", default="2,4,8,16,32")
    p.add_argument("--depth-list", dest="depth_list", default="2,4,6,8,10,12,14,16")
    p.add_argument("--l-list", dest="l_list", default="32,64,128,256")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("selftest", help="quick pass/fail property checks")
    common(p)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"input format error: {exc}", file=sys.stderr)
        return EXIT_INPUT_FORMAT
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, UnicodeDecodeError) as exc:
        print(f"input format error: {exc}", file=sys.stderr)
        return EXIT_INPUT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
