"""Circuit compilation: environment tensors, monotone gate updates,
iterative layer extraction, and the grow-then-reoptimize protocol."""

import numpy as np
import pytest

from conftest import (
    random_staircase_circuit,
    random_state,
    random_unitary4,
)
from qimgload import compiler
from qimgload.analysis import infidelity
from qimgload.compiler import (
    OptimizerTrace,
    _environment,
    _optimal_gate,
    environment_tensor,
    grow_and_optimize,
    iterative_construct,
    sweep_optimize,
    update_gate,
)
from qimgload.circuit import LayeredCircuit
from qimgload.errors import ValidationError
from qimgload.mps import from_dense, to_dense
from qimgload.simulator import apply_gate_dense, run


def circuit_overlap(circuit, target_vec):
    return abs(np.vdot(target_vec, run(circuit)))


def overlap_with_replacement(circuit, m, w, target_vec):
    """<target| circuit with gate m replaced by w |0>, by direct simulation."""
    vec = np.zeros(2**circuit.n_qubits, dtype=complex)
    vec[0] = 1.0
    for i, (site, matrix) in enumerate(circuit.all_gates()):
        vec = apply_gate_dense(vec, w if i == m - 1 else matrix, site, circuit.n_qubits)
    return np.vdot(target_vec, vec)


class TestEnvironmentTensor:
    def test_linearity_certificate(self, rng):
        # Tr[W F_m] must equal the full overlap with W substituted, for any W
        for trial in range(5):
            n = int(rng.integers(3, 7))
            circuit = random_staircase_circuit(rng, n, int(rng.integers(1, 4)))
            target = random_state(rng, n, complex_valued=True)
            m = int(rng.integers(1, len(circuit.all_gates()) + 1))
            f = environment_tensor(circuit, m, target)
            for _ in range(4):
                w = random_unitary4(rng, complex_valued=True)
                direct = overlap_with_replacement(circuit, m, w, target)
                assert abs(np.trace(w @ f) - direct) < 1e-9

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_kernel_matches_defining_contraction(self, rng, complex_valued):
        # sites with post <= 8 take the GEMM-and-trace branch, the rest (from
        # pre == 1 up to pre == 16 at n = 11) the batched one
        for n in (6, 11):
            prefix = random_state(rng, n, complex_valued)
            suffix = random_state(rng, n, complex_valued)
            for site in range(n - 1):
                shape = (2**site, 4, 2 ** (n - site - 2))
                expected = np.einsum(
                    "xcy,xry->cr", prefix.reshape(shape), np.conj(suffix.reshape(shape))
                )
                f = _environment(prefix, suffix, site, n)
                assert f.dtype == prefix.dtype and f.shape == (4, 4)
                np.testing.assert_allclose(f, expected, rtol=0, atol=1e-12)

    def test_gate_index_bounds(self, rng):
        circuit = random_staircase_circuit(rng, 4, 1)
        target = random_state(rng, 4)
        with pytest.raises(ValidationError):
            environment_tensor(circuit, 0, target)
        with pytest.raises(ValidationError):
            environment_tensor(circuit, 4, target)

    def test_target_dimension_checked(self, rng):
        circuit = random_staircase_circuit(rng, 4, 1)
        with pytest.raises(ValidationError):
            environment_tensor(circuit, 1, random_state(rng, 3))


def test_dense_functions_reject_an_mps(rng):
    # the dense layer takes amplitude arrays; a caller holding an MPS converts it once
    target, _ = from_dense(random_state(rng, 4), chi_max=4)
    circuit, _ = iterative_construct(target, 1)
    with pytest.raises(ValidationError, match="target dimension"):
        sweep_optimize(circuit, target, 1)
    with pytest.raises(ValidationError, match="target dimension"):
        environment_tensor(circuit, 1, target)
    with pytest.raises(ValidationError, match="dimension mismatch"):
        infidelity(to_dense(target), target)
    with pytest.raises(ValidationError, match="dimension mismatch"):
        infidelity(target, target)


class TestOptimalGate:
    def test_achieves_nuclear_norm(self, rng):
        # [DERIVED] max over unitaries of Re Tr[W F] is the nuclear norm of F
        for _ in range(10):
            f = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            w, value = _optimal_gate(f)
            nuclear = np.sum(np.linalg.svd(f, compute_uv=False))
            assert value == pytest.approx(nuclear, abs=1e-10)
            assert np.trace(w @ f).real == pytest.approx(nuclear, abs=1e-10)
            np.testing.assert_allclose(w.conj().T @ w, np.eye(4), atol=1e-12)

    def test_beats_random_unitaries(self, rng):
        f = rng.standard_normal((4, 4))
        _, value = _optimal_gate(f)
        for _ in range(20):
            w = random_unitary4(rng, complex_valued=True)
            assert np.trace(w @ f).real <= value + 1e-10

    def test_update_gate_never_decreases_overlap(self, rng):
        # replacing any single gate by its environment optimum is monotone
        for trial in range(10):
            n = int(rng.integers(3, 6))
            circuit = random_staircase_circuit(rng, n, 2)
            target = random_state(rng, n)
            m = int(rng.integers(1, len(circuit.all_gates()) + 1))
            before = circuit_overlap(circuit, target)
            f = environment_tensor(circuit, m, target)
            new_gate = update_gate(f)
            after = abs(overlap_with_replacement(circuit, m, new_gate, target))
            assert after >= before - 1e-12


class TestSweepOptimize:
    def test_overlaps_monotone_within_and_across_sweeps(self, rng):
        target, _ = from_dense(random_state(rng, 6), chi_max=8)
        circuit, _ = iterative_construct(target, 2)
        trace = OptimizerTrace()
        sweep_optimize(circuit, to_dense(target), 10, trace)
        diffs = np.diff(trace.gate_overlaps)
        assert np.all(diffs >= -1e-12)

    def test_improves_on_iterative_start(self, rng):
        vec = random_state(rng, 6)
        target, _ = from_dense(vec, chi_max=8)
        circuit, _ = iterative_construct(target, 2)
        start = circuit_overlap(circuit, vec)
        optimized, trace = sweep_optimize(circuit, to_dense(target), 50)
        assert trace.records[-1].overlap > start
        assert circuit_overlap(optimized, vec) == pytest.approx(trace.records[-1].overlap, abs=1e-9)

    def test_preserves_layer_structure(self, rng):
        target, _ = from_dense(random_state(rng, 5), chi_max=4)
        circuit, _ = iterative_construct(target, 3)
        optimized, _ = sweep_optimize(circuit, to_dense(target), 3)
        assert optimized.depth == circuit.depth
        np.testing.assert_array_equal(optimized.sites, circuit.sites)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_one_sweep_equals_successive_oracle_updates(self, rng, n):
        # each update must equal update_gate on the dense oracle's environment
        # of the partly updated circuit.  Against a random complex target the
        # environments of gates n+1..M are full rank, so their polar factors
        # are unique.  Gates 1..n have rank <= 2 environments (the first layer
        # acts on |0>, and after it the last pair holds one bond of 2); there
        # sweep and oracle agree because both contract the same gates in the
        # same order
        circuit = random_staircase_circuit(rng, n, 2)
        target = random_state(rng, n, complex_valued=True)
        swept, trace = sweep_optimize(circuit, target, 1)
        gates = list(circuit.gates.reshape(-1, 4, 4))
        for m in range(1, len(gates) + 1):
            partly = LayeredCircuit(n, circuit.sites, np.reshape(gates, circuit.gates.shape))
            f = environment_tensor(partly, m, target)
            if m > n:
                assert np.linalg.svd(f, compute_uv=False)[-1] > 1e-6
            gates[m - 1] = update_gate(f)
        np.testing.assert_array_equal(swept.sites, circuit.sites)
        want = np.reshape(gates, circuit.gates.shape)
        np.testing.assert_allclose(swept.gates, want, rtol=0, atol=1e-10)
        nuclear = np.sum(np.linalg.svd(f, compute_uv=False))
        assert trace.records[-1].overlap == pytest.approx(nuclear, abs=1e-10)
        assert trace.gate_overlaps[-1] == trace.records[-1].overlap

    @pytest.mark.parametrize(
        "bad_update, corrupt",
        [
            pytest.param(1, lambda w: w * (1 + 1e-8), id="scaled-first"),
            pytest.param(8, lambda w: w * (1 + 1e-8), id="scaled-last"),
            pytest.param(8, lambda w: np.full_like(w, np.nan), id="nan-last"),
        ],
    )
    def test_rejects_a_non_unitary_update(self, rng, monkeypatch, bad_update, corrupt):
        # one bad update, the first or the last of the first sweep's 8: the
        # stacked check at the end of that sweep must see it, before the
        # second sweep replaces the gate
        target, _ = from_dense(random_state(rng, 5), chi_max=4)
        circuit, _ = iterative_construct(target, 2)
        calls = []

        def one_update_corrupted(f):
            w, value = _optimal_gate(f)
            calls.append(f)
            return (corrupt(w) if len(calls) == bad_update else w), value

        monkeypatch.setattr(compiler, "_optimal_gate", one_update_corrupted)
        with pytest.raises(ValidationError):
            sweep_optimize(circuit, to_dense(target), 2)
        assert len(calls) == len(circuit.all_gates()) == 8

    def test_zero_sweeps_is_identity(self, rng):
        target, _ = from_dense(random_state(rng, 4), chi_max=4)
        circuit, _ = iterative_construct(target, 1)
        same, trace = sweep_optimize(circuit, to_dense(target), 0)
        assert trace.records == []
        np.testing.assert_allclose(
            run(same), run(circuit), atol=1e-15
        )


class TestIterativeConstruct:
    def test_chi2_target_is_exact_at_depth_one(self, rng):
        target, _ = from_dense(random_state(rng, 6), chi_max=2)
        circuit, trace = iterative_construct(target, 1)
        assert circuit_overlap(circuit, to_dense(target)) == pytest.approx(1.0, abs=1e-10)
        assert trace.records[-1].overlap == pytest.approx(1.0, abs=1e-10)

    def test_deeper_is_monotonically_better(self, rng):
        target, _ = from_dense(random_state(rng, 7), chi_max=8)
        vec = to_dense(target)
        overlaps = [
            circuit_overlap(iterative_construct(target, d)[0], vec) for d in (1, 2, 3, 4)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(overlaps, overlaps[1:]))

    def test_trace_matches_final_overlap(self, rng):
        # the residual's vacuum amplitude after undoing all layers equals
        # the prepared-state fidelity
        target, _ = from_dense(random_state(rng, 6), chi_max=4)
        circuit, trace = iterative_construct(target, 3)
        assert trace.records[-1].overlap == pytest.approx(
            circuit_overlap(circuit, to_dense(target)), abs=1e-8
        )

    def test_depth_sets_layer_count(self, rng):
        target, _ = from_dense(random_state(rng, 5), chi_max=4)
        assert iterative_construct(target, 4)[0].depth == 4

    def test_rejects_unnormalized_target(self, rng):
        from qimgload.mps import MPS

        target, _ = from_dense(random_state(rng, 4), chi_max=2)
        bad = MPS(tuple(t * 1.1 for t in target.tensors))
        with pytest.raises(ValidationError):
            iterative_construct(bad, 1)

    def test_rejects_bad_depth(self, rng):
        target, _ = from_dense(random_state(rng, 4), chi_max=2)
        with pytest.raises(ValidationError):
            iterative_construct(target, 0)


class TestGrowAndOptimize:
    def test_beats_pure_iterative(self, rng):
        vec = random_state(rng, 6)
        target, _ = from_dense(vec, chi_max=8)
        iterative = circuit_overlap(iterative_construct(target, 3)[0], vec)
        grown, trace = grow_and_optimize(target, 3, sweeps_per_stage=30)
        assert trace.records[-1].overlap >= iterative - 1e-12
        assert circuit_overlap(grown, vec) == pytest.approx(trace.records[-1].overlap, abs=1e-9)

    def test_stage_count_and_depth(self, rng):
        target, _ = from_dense(random_state(rng, 5), chi_max=4)
        circuit, trace = grow_and_optimize(target, 3, sweeps_per_stage=5)
        assert circuit.depth == 3
        assert {r.stage for r in trace.records} == {1, 2, 3}

    def test_trace_monotone_within_each_stage(self, rng):
        target, _ = from_dense(random_state(rng, 6), chi_max=8)
        _, trace = grow_and_optimize(target, 2, sweeps_per_stage=10)
        for stage in (1, 2):
            overlaps = [r.overlap for r in trace.records if r.stage == stage]
            assert all(b >= a - 1e-12 for a, b in zip(overlaps, overlaps[1:]))

    def test_provenance_recorded(self, rng):
        target, _ = from_dense(random_state(rng, 4), chi_max=2)
        circuit, _ = grow_and_optimize(target, 2, sweeps_per_stage=2)
        assert circuit.provenance["method"] == "grow_and_optimize"
        assert circuit.provenance["depth"] == 2


class TestTrace:
    def test_csv_shape(self, rng):
        target, _ = from_dense(random_state(rng, 4), chi_max=4)
        circuit, _ = iterative_construct(target, 1)
        _, trace = sweep_optimize(circuit, to_dense(target), 3)
        lines = trace.to_csv().splitlines()
        assert lines[0] == "stage,sweep,overlap,infidelity"
        assert len(lines) == 4

    def test_infidelity_clamped(self):
        from qimgload.compiler import TraceRecord

        assert TraceRecord(0, 1, 1.0 + 1e-12).infidelity == 0.0
