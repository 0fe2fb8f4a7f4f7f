"""Circuit compilation against dense target amplitudes.

`construction_stages` is the one construction loop.  Each stage cuts
the residual of the current circuit, the target with the circuit
undone, to bond dimension 2 and puts the exact staircase layer for it
first in application order.
Without sweeps this is iterative disentangling (`iterative_construct`);
with sweeps every gate is re-optimized after each stage
(`grow_and_optimize`).  A sweep replaces each gate U_m by the unitary
factor of the SVD of its environment F_m: the circuit-target overlap,
Tr[U_m F_m], then rises to the nuclear norm of F_m, so every update is
monotone.

Residuals, overlaps and environments use the dense statevector backend
(N capped at 20 sites); the only MPS a stage builds is the chi=2 cut of
its residual that becomes the new layer.  A sweep
reads and writes only the leading block of amplitudes that the gates
applied so far have reached, and keeps its prefix and suffix blocks in
one buffer per `sweep_optimize` call.  The reshaped views that every
environment GEMM and every gate product reads and writes are built once
per call, before the first sweep, so a gate update is one environment
product, one SVD and one gate product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
# the gufunc behind np.linalg.svd(full_matrices=True), without its per-call
# wrapper; numpy >= 2.0 names it svd_f.  tests/test_compiler.py pins it
# bit for bit against np.linalg.svd
from numpy.linalg._umath_linalg import svd_f as _svd_full

from .circuit import LayeredCircuit, layer_from_chi2_mps, staircase_sites
from .errors import NumericError, ValidationError
from .mps import CANONICAL_ISOMETRY_TOL, from_dense, isometry_error
from .simulator import apply_gate, apply_gate_dense, gate_operands

DEFAULT_CHI_MAX = 32  # the target's bond cap in `compile` and the depth sweep
DEFAULT_SWEEPS = 200
METHODS = ("grow", "iterative")


@dataclass
class OptimizerTrace:
    """(stage, sweep, overlap) rows, one per sweep or unswept layer.

    A row's overlap is |<target|C|0>| of the circuit C so far against the
    chi_max-capped target, on its dense amplitudes (N <= 20).
    """

    records: list = field(default_factory=list)


def _environment_operands(
    prefix: np.ndarray, suffix: np.ndarray, site: int, n_qubits: int, work: np.ndarray | None = None
) -> tuple:
    """Operands of `_environment` for the gate on qubits (site, site+1).

    F[c, r] = sum over spectators of prefix[x, c, y] * suffix[x, r, y].

    ``suffix`` is the conjugated suffix state, conj(<target| U_M ... U_{m+1}),
    which callers build as conj(target) under the transposed gates, so no
    2^N conjugate copy is made per update.  Both vectors are read through
    reshaped views, never transposed copies.  For post <= 8 the sum over
    x is one (4*post, pre) @ (pre, 4*post) GEMM and the sum over y a trace
    over its post diagonal blocks; for larger post it is a batch over x of
    (4, post) @ (post, 4) products, summed.  The product is written into
    the leading entries of ``work`` (a 1-D array of the vectors' dtype),
    or into a new array without it.
    """
    pre = 2**site
    post = 2 ** (n_qubits - site - 2)
    if post <= 8:
        shape = (4 * post, 4 * post)
        a, b = prefix.reshape(pre, 4 * post).T, suffix.reshape(pre, 4 * post)
    else:
        shape = (pre, 4, 4)
        a, b = prefix.reshape(pre, 4, post), suffix.reshape(pre, 4, post).swapaxes(1, 2)
    if work is None:
        g = np.empty(shape, dtype=np.result_type(prefix, suffix))
    else:
        g = work[: math.prod(shape)].reshape(shape)
    if post <= 8:
        return a, b, g, g.reshape(4, post, 4, post).diagonal(0, 1, 3), -1
    return a, b, g, g, 0


def _environment(a, b, g, terms, axis) -> np.ndarray:
    """The 4x4 environment from the operands of `_environment_operands`."""
    np.matmul(a, b, out=g)
    return np.add.reduce(terms, axis)


def _polar_into(f: np.ndarray, out: np.ndarray) -> float:
    """Write conj(u·vt) of F's SVD into the C-contiguous 4x4 ``out``; return its nuclear norm.

    (u·vt)† maximizes Re Tr[W F], reaching the nuclear norm, so ``out`` holds
    that gate's transpose; the factors are np.linalg.svd's bits (the same
    gesdd gufunc), and conjugation is exact.  Under the caller's
    ``np.errstate(invalid="ignore")`` a non-finite F or a failed SVD gives NaN
    singular values, and NumericError is raised before ``out`` is written.
    """
    complex_valued = f.dtype.kind == "c"
    u, s, vt = _svd_full(f, signature="D->DdD" if complex_valued else "d->ddd")
    # left to right, the order np.add.reduce sums four floats; sum() compensates from 3.12 on
    a, b, c, d = s.tolist()
    overlap = a + b + c + d
    if not math.isfinite(overlap):
        raise NumericError("environment tensor is not finite or its SVD did not converge")
    np.dot(u, vt, out=out)
    if complex_valued:
        np.conjugate(out, out=out)
    return overlap


def _optimal_gate(f: np.ndarray):
    """The unitary maximizing Re Tr[W F] and the value it reaches: `_polar_into` on a new array."""
    polar = np.empty((4, 4), dtype=complex if f.dtype.kind == "c" else float)
    overlap = _polar_into(f, polar)
    return polar.T, overlap


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
    suffix = targ.conj()
    for site, matrix in reversed(gates[m:]):
        suffix = apply_gate_dense(suffix, matrix.T, site, n)
    return _environment(*_environment_operands(prefix, suffix, gates[m - 1][0], n))


def update_gate(f: np.ndarray) -> np.ndarray:
    """Nuclear-norm-optimal replacement 4x4 matrix for the environment F."""
    with np.errstate(invalid="ignore"):
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

    Each sweep rebuilds the conjugated suffix states once (a pass of
    transposed gates from the conjugated target), then walks gates 1..M
    computing each environment from the running prefix and the cached
    suffix and replacing the gate's matrix by its polar factor.  Update m
    writes the new gate's transpose into slot m of one (M, 4, 4) stack per
    call, which `isometry_error` checks in place at the end of each sweep,
    before the next sweep applies any of it.  Each sweep appends the row
    (stage, sweep, overlap) to ``trace.records``, with the overlap that its
    last update reaches.

    Only the leading block that the prefix has reached is read or written.
    With low[m] the lowest site among gates 1..m, the prefix that gate m
    sees is still |0> on every qubit below low[m]; qubit 0 is the most
    significant bit, so that prefix lives in the leading 2^(N - low[m])
    amplitudes, and the environment needs only the same leading block of
    the suffix.  Gate m's suffix block is gate m+1's block with gate m+1
    applied at its local site, cut to length.  This is exact.  The
    environments, prefix gates and suffix gates of a staircase's first
    layer then touch about 7 * 2^N amplitudes in all, not 3(N-1) * 2^N.
    Every block lives in one flat buffer, allocated once
    per call and rewritten each sweep; the conjugated target is written
    into it once per call.  The blocks never move, so the operands of
    each step (`_environment_operands` and `gate_operands` views of its
    blocks) are built once per call too, and the loop body makes only the
    calls that compute: `_environment`, `_polar_into` and `apply_gate`.

    The loop applies F-ordered views ``slot.T`` of the C-contiguous slots,
    which the suffix pass reads as they are, for real and complex gates
    alike.  The returned stack is ``np.stack`` of the applied views, which
    keeps their layout.  In a grow compile it reaches only the dense undo
    that rebuilds the next stage's residual, and `run`; forcing C order
    left every artifact byte-identical (one BLAS thread: the three benchmark
    workloads at seeds 0-3, and grow compiles of ``builtin:scene`` L=32 D=4
    and L=256 D=6, ``digit`` L=16 D=3 and ``sign`` L=64 D=8).
    """
    if n_sweeps < 0:
        raise ValidationError("sweep count must be >= 0")
    targ = np.asarray(target)
    n = circuit.n_qubits
    if targ.size != 2**n:
        raise ValidationError("target dimension does not match the circuit")
    trace = trace if trace is not None else OptimizerTrace()
    sites = circuit.sites.ravel().tolist()
    gates = list(circuit.gates.reshape(-1, 4, 4))
    m_total = len(sites)
    # gate m works on the block of qubits low[m]..n-1, at site `local` in it
    low = list(itertools.accumulate(sites, min))
    local = [s - lo for s, lo in zip(sites, low)]
    width = [n - lo for lo in low]
    size = [2**w for w in width]
    # suffix blocks lie in the order they are built, last gate first;
    # block m is written as gate m+1's whole product on block m+1, so the
    # room after it holds that product's tail until block m-1 overwrites it
    start = [0] * m_total
    for m in range(m_total - 2, -1, -1):
        start[m] = start[m + 1] + size[m + 1]
    top = start[0] + size[min(1, m_total - 1)]
    full = size[-1]
    # every environment product fits in max(1024, full / 4) entries: (4*post)^2
    # for post <= 8, else 16 * pre with pre <= 2^(width - 6)
    work_size = max(1024, full // 4)
    buf = np.empty(
        top + 2 * full + work_size, dtype=np.result_type(targ.dtype, circuit.gates.dtype)
    )
    suffix = [buf[a : a + s] for a, s in zip(start, size)]
    suffix_out = [buf[a : a + s] for a, s in zip(start, size[1:])]
    # conj(U^dagger s) = U^T conj(s): the suffixes are built conjugated
    np.conjugate(targ.reshape(-1)[:full], out=suffix[-1])
    # (m + 1, operands of gate m+1's product into block m), last gate first
    suffix_steps = [
        (m + 1, gate_operands(suffix[m + 1], local[m + 1], width[m + 1], suffix_out[m]))
        for m in range(m_total - 2, -1, -1)
    ]
    # the prefix alternates between two blocks; the amplitudes a block
    # gains when the prefix reaches a lower qubit are zeroed at the start
    # of each sweep, since no gate before that one writes there
    prefixes = (buf[top : top + full], buf[top + full : top + 2 * full])
    work = buf[top + 2 * full :]
    pads = [prefixes[m % 2][a:s] for m, (a, s) in enumerate(zip([1] + size, size)) if s > a]
    # update m writes the transpose of gate m into polar[m]; the loop applies polar[m].T
    polar = np.empty((m_total, 4, 4), dtype=buf.dtype)
    slots = list(polar)
    swept = [slot.T for slot in slots]
    # each step writes its product with the prefix into the next step's
    # block; the last gate's product would never be read, so it has none
    steps = []
    for m, s in enumerate(size):
        prefix = prefixes[m % 2][:s]
        env = _environment_operands(prefix, suffix[m], local[m], width[m], work)
        product = None
        if m + 1 < m_total:
            product = gate_operands(prefix, local[m], width[m], prefixes[1 - m % 2][:s])
        steps.append((env, slots[m], product, swept[m]))
    # the first suffix pass reads the input gates, every later one the stack
    suffix_gates = [w.T for w in gates]
    with np.errstate(invalid="ignore"):
        for sweep in range(1, n_sweeps + 1):
            for m, operands in suffix_steps:
                apply_gate(operands, suffix_gates[m])
            prefixes[0][0] = 1.0
            for pad in pads:
                pad.fill(0)
            for env, slot, product, gate in steps:
                overlap = _polar_into(_environment(*env), slot)
                if product is not None:
                    apply_gate(product, gate)
            if isometry_error(polar) > CANONICAL_ISOMETRY_TOL:
                raise ValidationError(
                    f"sweep {sweep} produced a gate that is not unitary"
                    f" within {CANONICAL_ISOMETRY_TOL}"
                )
            trace.records.append((stage, sweep, overlap))
            suffix_gates, gates = slots, swept
    return replace(circuit, gates=np.stack(gates).reshape(circuit.gates.shape)), trace


def check_stages(depth: int, sweeps: int = 0) -> None:
    """Raise ValidationError unless ``depth`` >= 1 and ``sweeps`` >= 0: construction's rules."""
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    if sweeps < 0:
        raise ValidationError("sweep count must be >= 0")


def _undo_layer(vec: np.ndarray, layer: np.ndarray, n: int) -> np.ndarray:
    """L^dagger vec for a fresh staircase layer's (N-1, 4, 4) stack: N-1 dense adjoint gates."""
    for site, gate in enumerate(layer[::-1]):
        vec = apply_gate_dense(vec, gate.conj().T, site, n)
    return vec


def construction_stages(target: np.ndarray, depth: int, sweeps: int = 0):
    """Yield (circuit, trace) after each of stages 1..depth; stage d's circuit has depth d.

    Every stage cuts its new layer from r, the dense ``target`` amplitudes
    with every layer built so far undone: `from_dense` of r at bond
    dimension 2, which checks the target at stage 1, gives the MPS that
    `layer_from_chi2_mps` turns into the layer.  With ``sweeps`` > 0 each
    stage then sweeps every gate that many times, and the next stage
    rebuilds r from the target through the swept layers.  With no sweeps
    each new layer is folded into r, and the row is (d, 0, |r[0]|).  So
    every row is |<target|C|0>|, and both methods need N <= 20.  Every
    stage yields the same trace object, which later stages extend.
    """
    check_stages(depth, sweeps)
    residual = target
    trace = OptimizerTrace()
    for stage in range(1, depth + 1):
        if sweeps and stage > 1:
            residual = target
            for layer in gates[::-1]:
                residual = _undo_layer(residual, layer, n)
        layer = layer_from_chi2_mps(from_dense(residual, chi_max=2)[0])
        n = len(layer) + 1
        gates = np.concatenate((layer[None], gates)) if stage > 1 else layer[None]
        circuit = LayeredCircuit(n, staircase_sites(n, stage), gates)
        if sweeps:
            circuit, trace = sweep_optimize(circuit, target, sweeps, trace, stage)
            gates = circuit.gates
        else:
            residual = _undo_layer(residual, layer, n)
            trace.records.append((stage, 0, float(abs(residual[0]))))
        yield circuit, trace


def iterative_construct(target: np.ndarray, depth: int):
    """Depth-D circuit from repeated chi=2 cuts of the residual, without sweeps.

    Returns (circuit, trace); the trace holds the overlap after each layer.
    """
    *_, (circuit, trace) = construction_stages(target, depth)
    return replace(circuit, provenance={"method": "iterative", "depth": depth}), trace


def grow_and_optimize(target: np.ndarray, depth: int, sweeps_per_stage: int = DEFAULT_SWEEPS):
    """Grow-then-reoptimize: the depth-D circuit and full trace of the swept stages."""
    *_, (circuit, trace) = construction_stages(target, depth, sweeps_per_stage)
    provenance = {
        "method": "grow_and_optimize",
        "depth": depth,
        "sweeps_per_stage": sweeps_per_stage,
    }
    return replace(circuit, provenance=provenance), trace
