"""Quantitative evaluation: infidelity, log-log power-law fits, and the
bond-dimension / circuit-depth / resolution scaling sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import compiler
from .circuit import LayeredCircuit
from .errors import ValidationError
from .image_codec import ImageGrid, downscale, encode_amplitudes
from .mps import from_dense, to_dense
from .simulator import run


@dataclass(frozen=True)
class ScalingRecord:
    x: float  # chi, depth, or resolution, depending on the sweep
    L: int
    infidelity: float
    method: str
    image_id: str

    def __post_init__(self):
        if not 0.0 <= self.infidelity <= 1.0:
            raise ValidationError(f"infidelity {self.infidelity} outside [0, 1]")


def infidelity(a, b) -> float:
    """1 - |<a|b>| for amplitude vectors."""
    va, vb = np.asarray(a), np.asarray(b)
    if va.ndim != 1 or va.shape != vb.shape:
        raise ValidationError("dimension mismatch")
    value = 1.0 - abs(np.vdot(va, vb))
    return float(min(max(value, 0.0), 1.0))


def fit_power_law(points) -> dict:
    """Fit of I = a / x**b: ordinary least squares on (log x, log I), b = -slope.

    Returns {"a", "b", "b_stderr", "range": [x_min, x_max]}, all plain floats.
    """
    pts = [(float(x), float(i)) for x, i in points]
    if len(pts) < 3:
        raise ValidationError("power-law fit needs at least 3 points")
    if any(x <= 0 or i <= 0 for x, i in pts):
        raise ValidationError("power-law fit needs strictly positive x and I")
    lx = np.log([x for x, _ in pts])
    ly = np.log([i for _, i in pts])
    n = len(pts)
    sxx = np.sum((lx - lx.mean()) ** 2)
    if sxx == 0:
        raise ValidationError("all x values identical")
    slope = np.sum((lx - lx.mean()) * (ly - ly.mean())) / sxx
    intercept = ly.mean() - slope * lx.mean()
    resid = ly - (slope * lx + intercept)
    stderr = np.sqrt(np.sum(resid**2) / (n - 2) / sxx)
    xs = [x for x, _ in pts]
    return {
        "a": float(np.exp(intercept)),
        "b": float(-slope),
        "b_stderr": float(stderr),
        "range": [min(xs), max(xs)],
    }


def chi_scaling_sweep(
    image: ImageGrid,
    chi_list,
    L_list=None,
    ordering: str = "straight",
    image_id: str = "",
) -> list:
    """Infidelity of the chi-capped MPS encoding vs the exact encoding.

    One record per (L, chi), emitted sorted by (L, chi).
    """
    L_list = sorted(L_list) if L_list is not None else [image.side_length]
    records = []
    for L in L_list:
        if L > image.side_length or L < 2:
            raise ValidationError(f"invalid sweep resolution {L}")
        grid = downscale(image, L)
        exact = encode_amplitudes(grid, ordering)
        for chi in sorted(chi_list):
            m, _ = from_dense(exact, chi_max=chi)
            value = infidelity(exact, to_dense(m))
            records.append(ScalingRecord(chi, L, value, "mps_truncation", image_id))
    return records


def depth_scaling_sweep(
    image: ImageGrid,
    depth_list,
    method: str = "iterative",
    sweeps: int = compiler.DEFAULT_SWEEPS,
    chi_max: int = compiler.DEFAULT_CHI_MAX,
    ordering: str = "straight",
    image_id: str = "",
) -> list:
    """Infidelity of compiled circuits vs the exact encoded state.

    Extraction only appends layers, so one iterative build at the largest
    depth serves every depth: the depth-d circuit is its last d layers.
    ``gate_by_gate`` starts each depth's sweeps from that circuit.
    """
    if method not in ("iterative", "gate_by_gate"):
        raise ValidationError(f"unknown method {method!r}")
    depths = sorted(depth_list)
    if not depths:
        return []
    if depths[0] < 1:
        raise ValidationError("depth must be >= 1")
    exact = encode_amplitudes(image, ordering)
    target, _ = from_dense(exact, chi_max=chi_max)
    deepest, _ = compiler.iterative_construct(target, depths[-1], chi_max)
    target_amplitudes = to_dense(target)
    records = []
    for depth in depths:
        circuit = LayeredCircuit(deepest.n_qubits, deepest.sites[-depth:], deepest.gates[-depth:])
        if method == "gate_by_gate":
            circuit, _ = compiler.sweep_optimize(circuit, target_amplitudes, sweeps)
        prepared = run(circuit)
        records.append(
            ScalingRecord(depth, image.side_length, infidelity(exact, prepared), method, image_id)
        )
    return records


def tv_distance(p, q) -> float:
    """Total-variation distance: half the L1 distance between distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValidationError("distribution length mismatch")
    for name, d in (("p", p), ("q", q)):
        if abs(d.sum() - 1.0) > 1e-6:
            raise ValidationError(f"{name} must sum to 1 within 1e-6")
    return float(0.5 * np.abs(p - q).sum())


def records_to_csv(records) -> str:
    lines = ["x,L,infidelity,method,image_id"]
    for r in sorted(records, key=lambda r: (r.L, r.x, r.method)):
        lines.append(f"{r.x},{r.L},{repr(float(r.infidelity))},{r.method},{r.image_id}")
    return "\n".join(lines) + "\n"
