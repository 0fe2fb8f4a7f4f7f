"""Circuit compilation against a target MPS.

Two routes, matching the two published constructions:

* iterative disentangling: repeatedly truncate the residual state to
  bond dimension 2 and peel off one exact staircase layer.  Each layer's
  adjoint is folded into the residual, so the first-extracted layer ends
  up applied last in the finished circuit.
* gate-by-gate sweeps: the circuit-target overlap is linear in any single
  gate, overlap = Tr[U_m F_m]; replacing U_m by the unitary factor of the
  SVD of F_m raises the overlap to the nuclear norm of F_m, so every
  update is monotone.

`grow_and_optimize` interleaves the two: grow one disentangling layer
from the residual of the optimized circuit, then re-sweep all layers.

Overlaps and environments use the dense statevector backend (N capped at
20 sites); residuals are tracked as MPS with a working bond cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import LayeredCircuit, layer_from_chi2_mps, staircase_sites
from .errors import NumericError, ValidationError
from .mps import (
    CANONICAL_ISOMETRY_TOL,
    MPS,
    apply_two_qubit_gate,
    inner,
    isometry_error,
    left_canonicalize,
    to_dense,
    truncate,
)
from .simulator import apply_gate_dense

DEFAULT_CHI_MAX = 32
DEFAULT_SWEEPS = 200


@dataclass
class TraceRecord:
    stage: int
    sweep: int
    overlap: float

    @property
    def infidelity(self) -> float:
        return max(0.0, 1.0 - self.overlap)


@dataclass
class OptimizerTrace:
    records: list = field(default_factory=list)
    gate_overlaps: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["stage,sweep,overlap,infidelity"]
        for r in self.records:
            lines.append(f"{r.stage},{r.sweep},{repr(r.overlap)},{repr(r.infidelity)}")
        return "\n".join(lines) + "\n"


def _environment(prefix: np.ndarray, suffix: np.ndarray, site: int, n_qubits: int) -> np.ndarray:
    """F[c, r] = sum over spectators of prefix[x, c, y] * conj(suffix[x, r, y]).

    Both vectors are read through reshaped views, never transposed copies
    (complex input conjugates the suffix once).  For post <= 8 the sum over
    x is one (4*post, pre) @ (pre, 4*post) GEMM and the sum over y a trace
    over its post diagonal blocks; for larger post it is a batch over x of
    (4, post) @ (post, 4) products, summed.
    """
    pre = 2**site
    post = 2 ** (n_qubits - site - 2)
    if post <= 8:
        g = prefix.reshape(pre, 4 * post).T @ suffix.reshape(pre, 4 * post).conj()
        return g.reshape(4, post, 4, post).diagonal(0, 1, 3).sum(axis=-1)
    a = prefix.reshape(pre, 4, post)
    b = suffix.reshape(pre, 4, post)
    return (a @ b.conj().swapaxes(1, 2)).sum(axis=0)


def _optimal_gate(f: np.ndarray):
    """Unitary maximizing Re Tr[W F] and the achieved value (nuclear norm of F)."""
    if not np.isfinite(f).all():
        raise NumericError("environment tensor has non-finite entries")
    u, s, vt = np.linalg.svd(f)
    w = (u @ vt).conj().T
    return w, float(s.sum())


def environment_tensor(circuit: LayeredCircuit, m: int, target) -> np.ndarray:
    """4x4 environment F_m of gate m (1-based, application order) against the target amplitudes.

    Satisfies Tr[W F_m] = <target| U_M ... W ... U_1 |0> for any 4x4 W in
    gate m's slot.
    """
    gates = circuit.all_gates()
    if not 1 <= m <= len(gates):
        raise ValidationError(f"gate index {m} out of range 1..{len(gates)}")
    n = circuit.n_qubits
    targ = np.asarray(target)
    if targ.size != 2**n:
        raise ValidationError("target dimension does not match the circuit")
    prefix = np.zeros(2**n, dtype=targ.dtype)
    prefix[0] = 1.0
    for site, matrix in gates[: m - 1]:
        prefix = apply_gate_dense(prefix, matrix, site, n)
    suffix = targ
    for site, matrix in reversed(gates[m:]):
        suffix = apply_gate_dense(suffix, matrix.conj().T, site, n)
    return _environment(prefix, suffix, gates[m - 1][0], n)


def update_gate(f: np.ndarray) -> np.ndarray:
    """Nuclear-norm-optimal replacement 4x4 matrix for the environment F."""
    w, _ = _optimal_gate(f)
    return w


def sweep_optimize(
    circuit: LayeredCircuit,
    target,
    n_sweeps: int,
    trace: OptimizerTrace | None = None,
    stage: int = 0,
):
    """Gate-by-gate sweeps in forward application order against the target amplitudes.

    Each sweep rebuilds the suffix states once (adjoint pass from the
    target), then walks gates 1..M computing each environment from the
    running prefix and the cached suffix and replacing the gate's matrix by
    its polar factor.  The loop holds raw 4x4 matrices; the M new ones are
    checked for unitarity in one stacked call at the end of each sweep.
    Per-update overlaps land in ``trace.gate_overlaps``; per-sweep overlaps
    in ``trace.records``.

    The returned gate stack is ``np.stack`` of the loop's matrices, which
    keeps their memory layout (the polar factors are F-ordered views).  The
    layout sets the summation order of the einsum in `apply_two_qubit_gate`,
    so it reaches the last bits of later residuals: forcing C order moved
    the grow compile of ``builtin:scene`` L=32 D=4, 50 sweeps, from
    infidelity 1.361e-3 to 1.346e-3 (one BLAS thread).  Do not copy the
    gates into a preallocated C-ordered array.
    """
    if n_sweeps < 0:
        raise ValidationError("sweep count must be >= 0")
    targ = np.asarray(target)
    n = circuit.n_qubits
    if targ.size != 2**n:
        raise ValidationError("target dimension does not match the circuit")
    trace = trace if trace is not None else OptimizerTrace()
    sites = circuit.sites.ravel().tolist()
    matrices = list(circuit.gates.reshape(-1, 4, 4))
    m_total = len(sites)
    for sweep in range(1, n_sweeps + 1):
        suffix = [None] * (m_total + 1)
        suffix[m_total] = targ
        for m in range(m_total - 1, 0, -1):
            suffix[m] = apply_gate_dense(suffix[m + 1], matrices[m].conj().T, sites[m], n)
        prefix = np.zeros(2**n, dtype=targ.dtype)
        prefix[0] = 1.0
        overlap = 0.0
        for m in range(m_total):
            f = _environment(prefix, suffix[m + 1], sites[m], n)
            matrices[m], overlap = _optimal_gate(f)
            trace.gate_overlaps.append(overlap)
            prefix = apply_gate_dense(prefix, matrices[m], sites[m], n)
        if isometry_error(np.stack(matrices)) > CANONICAL_ISOMETRY_TOL:
            raise ValidationError(
                f"sweep {sweep} produced a gate that is not unitary within {CANONICAL_ISOMETRY_TOL}"
            )
        trace.records.append(TraceRecord(stage, sweep, overlap))
    return replace(circuit, gates=np.stack(matrices).reshape(circuit.gates.shape)), trace


def _zero_amplitude(m: MPS) -> float:
    """<0...0|m>, contracted directly from the sigma=0 slices."""
    row = m.tensors[0][:, 0, :]
    for t in m.tensors[1:]:
        row = row @ t[:, 0, :]
    return abs(complex(row[0, 0]))


def _apply_layer_adjoint(residual: MPS, layer: np.ndarray, chi_max: int) -> MPS:
    """Undo a layer's (N-1, 4, 4) gate stack in one left-to-right sweep of adjoint gates.

    The layer must apply pair (N-2, N-1) first and (0, 1) last, as every
    layer from `layer_from_chi2_mps` does.
    """
    stack = layer[::-1].conj().swapaxes(-1, -2)
    residual, _ = apply_two_qubit_gate(residual, stack, 0, chi_max)
    return residual


def _check_target(target: MPS, depth: int, chi_max: int) -> MPS:
    """Validate a construction's arguments; returns the target in left-canonical form."""
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    if chi_max < 2:
        raise ValidationError("working bond cap must be >= 2")
    norm = abs(inner(target, target))
    if abs(norm - 1.0) > 1e-8:
        raise ValidationError(f"target must have unit norm, got {np.sqrt(norm)}")
    return left_canonicalize(target)


def iterative_construct(target: MPS, depth: int, chi_max: int = DEFAULT_CHI_MAX):
    """Depth-D circuit from repeated chi=2 truncation of the residual.

    Layer i is the exact staircase for the chi=2 truncation of the state
    left after undoing layers 1..i-1; the finished circuit applies the
    layers in reverse extraction order.  Returns (circuit, trace) where
    the trace holds the overlap after each extracted layer.
    """
    residual = _check_target(target, depth, chi_max)
    trace = OptimizerTrace()
    extracted = []
    for i in range(1, depth + 1):
        truncated, _ = truncate(residual, 2)
        layer = layer_from_chi2_mps(truncated)
        extracted.append(layer)
        residual = _apply_layer_adjoint(residual, layer, chi_max)
        trace.records.append(TraceRecord(i, 0, _zero_amplitude(residual)))
    circuit = LayeredCircuit(
        target.n_sites,
        staircase_sites(target.n_sites, depth),
        np.stack(extracted[::-1]),
        provenance={"method": "iterative", "depth": depth, "chi_max": chi_max},
    )
    return circuit, trace


def grow_and_optimize(
    target: MPS,
    depth: int,
    sweeps_per_stage: int = DEFAULT_SWEEPS,
    chi_max: int = DEFAULT_CHI_MAX,
):
    """Grow-then-reoptimize protocol.

    At stage d a fresh disentangling layer is built from the residual of
    the current optimized circuit and prepended in application order, then
    all d layers are swept.  Returns the depth-D circuit and full trace.
    """
    target_canonical = _check_target(target, depth, chi_max)
    target_amplitudes = to_dense(target_canonical)
    trace = OptimizerTrace()
    gates = np.empty((0, target.n_sites - 1, 4, 4))
    circuit = None
    for stage in range(1, depth + 1):
        residual = target_canonical
        for layer in gates[::-1]:
            residual = _apply_layer_adjoint(residual, layer, chi_max)
        truncated, _ = truncate(residual, 2)
        gates = np.concatenate((layer_from_chi2_mps(truncated)[None], gates))
        circuit = LayeredCircuit(
            target.n_sites,
            staircase_sites(target.n_sites, stage),
            gates,
            provenance={
                "method": "grow_and_optimize",
                "depth": depth,
                "chi_max": chi_max,
                "sweeps_per_stage": sweeps_per_stage,
            },
        )
        circuit, trace = sweep_optimize(circuit, target_amplitudes, sweeps_per_stage, trace, stage)
        gates = circuit.gates
    return circuit, trace
