"""Quantitative evaluation: infidelity, log-log power-law fits, and the
bond-dimension / circuit-depth / resolution scaling sweeps.

A sweep returns plain (x, L, infidelity) rows sorted by (L, x): x is the
bond dimension chi or the circuit depth, L the image side.
"""

from __future__ import annotations

import numpy as np

from . import compiler
from .errors import ValidationError
from .image_codec import ImageGrid, downscale, encode_amplitudes
from .mps import from_dense, to_dense
from .simulator import run


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
) -> list:
    """Infidelity of the chi-capped MPS encoding vs the exact encoding.

    One (chi, L, infidelity) row per (L, chi), sorted by (L, chi).  Each
    L must be a power of two in 2..side, a side to downscale the image to.
    """
    side = image.side_length
    L_list = sorted(L_list) if L_list is not None else [side]
    for L in L_list:
        if not 2 <= L <= side or L & (L - 1):
            raise ValidationError(f"invalid sweep resolution {L}: not a power of two in 2..{side}")
    rows = []
    for L in L_list:
        grid = downscale(image, L)
        exact = encode_amplitudes(grid, ordering)
        for chi in sorted(chi_list):
            m, _ = from_dense(exact, chi_max=chi)
            value = infidelity(exact, to_dense(m))
            rows.append((chi, L, value))
    return rows


def depth_scaling_sweep(
    image: ImageGrid,
    depth_list,
    method: str = "iterative",
    sweeps: int = compiler.DEFAULT_SWEEPS,
    chi_max: int = compiler.DEFAULT_CHI_MAX,
    ordering: str = "straight",
) -> list:
    """Infidelity of compiled circuits vs the exact encoded state.

    One (depth, L, infidelity) row per depth, sorted by depth.  ``method``
    is a compile method.  One run of `compiler.construction_stages` to the
    largest depth serves every depth: its stage d is the depth-d circuit
    that `compile` writes (``iterative`` runs it without sweeps).
    """
    if method not in compiler.METHODS:
        raise ValidationError(f"unknown compile method {method!r}")
    stage_sweeps = sweeps if method == "grow" else 0
    depths = sorted(depth_list)
    if not depths:
        return []
    compiler.check_stages(depths[0], stage_sweeps)
    exact = encode_amplitudes(image, ordering)
    target = to_dense(from_dense(exact, chi_max=chi_max)[0])
    stages = compiler.construction_stages(target, depths[-1], stage_sweeps)
    values = {}
    for depth, (circuit, _) in enumerate(stages, 1):
        if depth in depths:
            values[depth] = infidelity(exact, run(circuit))
    return [(d, image.side_length, values[d]) for d in depths]


def tv_distance(p, q) -> float:
    """Total-variation distance: half the L1 distance between distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValidationError("distribution length mismatch")
    for name, d in (("p", p), ("q", q)):
        if not abs(d.sum() - 1.0) <= 1e-6:
            raise ValidationError(f"{name} must sum to 1 within 1e-6")
    return float(0.5 * np.abs(p - q).sum())
