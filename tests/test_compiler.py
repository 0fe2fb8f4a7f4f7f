"""Circuit compilation: environment tensors, monotone gate updates,
iterative layer extraction, and the grow-then-reoptimize protocol."""

import tracemalloc

import numpy as np
import pytest

from conftest import (
    capped_state,
    random_staircase_circuit,
    random_state,
    random_unitary4,
)
from qimgload import compiler, mps
from qimgload.analysis import infidelity
from qimgload.compiler import (
    _environment,
    _environment_operands,
    _optimal_gate,
    _polar_into,
    environment_tensor,
    grow_and_optimize,
    iterative_construct,
    sweep_optimize,
    update_gate,
)
from qimgload.circuit import LayeredCircuit, layer_from_chi2_mps
from qimgload.errors import NumericError, ValidationError
from qimgload.image_codec import encode_amplitudes
from qimgload.mps import MPS, from_dense, to_dense
from qimgload.sample_images import get_image
from qimgload.simulator import apply_gate, apply_gate_dense, run


def circuit_overlap(circuit, target_vec):
    return abs(np.vdot(target_vec, run(circuit)))


def overlap_with_replacement(circuit, m, w, target_vec):
    """<target| circuit with gate m replaced by w |0>, by direct simulation."""
    vec = np.zeros(2**circuit.n_qubits, dtype=complex)
    vec[0] = 1.0
    for i, (site, matrix) in enumerate(circuit.all_gates()):
        vec = apply_gate_dense(vec, w if i == m - 1 else matrix, site, circuit.n_qubits)
    return np.vdot(target_vec, vec)


def reference_sweeps(circuit, target, n_sweeps):
    """Gates and per-update overlaps of plain sweeps on full 2^N vectors.

    Every suffix is a whole vector from `apply_gate_dense`, and each update
    is `_optimal_gate` of `_environment` on the full prefix and suffix: no
    leading blocks, no shared buffer, no operands built ahead of the loop.
    """
    n = circuit.n_qubits
    sites = circuit.sites.ravel().tolist()
    gates = list(circuit.gates.reshape(-1, 4, 4))
    dtype = np.result_type(target, circuit.gates)
    overlaps = []
    for _ in range(n_sweeps):
        suffixes = [target.conj().astype(dtype)]
        for site, gate in zip(sites[:0:-1], gates[:0:-1]):
            suffixes.append(apply_gate_dense(suffixes[-1], gate.T, site, n))
        prefix = np.zeros(2**n, dtype)
        prefix[0] = 1.0
        for m, (site, suffix) in enumerate(zip(sites, suffixes[::-1])):
            f = _environment(*_environment_operands(prefix, suffix, site, n))
            gates[m], overlap = _optimal_gate(f)
            overlaps.append(overlap)
            prefix = apply_gate_dense(prefix, gates[m], site, n)
    return np.reshape(gates, circuit.gates.shape), overlaps


def reference_circuits(rng, n):
    """A staircase and a circuit of shuffled layers at each depth 1..3."""
    for depth in (1, 2, 3):
        circuit = random_staircase_circuit(rng, n, depth)
        yield circuit
        shuffled = np.array([rng.permutation(n - 1) for _ in range(depth)])
        yield LayeredCircuit(n, shuffled, circuit.gates)


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
                # the kernel takes the suffix state already conjugated
                f = _environment(*_environment_operands(prefix, suffix.conj(), site, n))
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
    circuit, _ = iterative_construct(to_dense(target), 1)
    with pytest.raises(ValidationError, match="target dimension"):
        sweep_optimize(circuit, target, 1)
    with pytest.raises(ValidationError, match="target dimension"):
        environment_tensor(circuit, 1, target)
    with pytest.raises(ValidationError, match="dimension mismatch"):
        infidelity(to_dense(target), target)
    with pytest.raises(ValidationError, match="dimension mismatch"):
        infidelity(target, target)
    # construction cuts its target with from_dense, whose first check refuses it
    with pytest.raises(ValidationError, match="must be a 1-D array"):
        iterative_construct(target, 1)
    with pytest.raises(ValidationError, match="must be a 1-D array"):
        grow_and_optimize(target, 1, 1)


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

    @pytest.mark.parametrize("rank", [4, 2, 0], ids=["full-rank", "rank-2", "zero"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_direct_svd_equals_np_linalg_svd(self, rng, rank, dtype):
        # the private gufunc runs the same LAPACK routine as the public
        # wrapper, so the factors and the polar factor agree bit for bit
        a = rng.standard_normal((4, rank))
        if dtype is complex:
            a = a + 1j * rng.standard_normal((4, rank))
        f = a @ rng.standard_normal((rank, 4))
        signature = "D->DdD" if dtype is complex else "d->ddd"
        got = compiler._svd_full(f, signature=signature)
        want = np.linalg.svd(f)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        w, value = _optimal_gate(f)
        np.testing.assert_array_equal(w, (want[0] @ want[2]).conj().T)
        assert value == float(want[1].sum())

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_polar_kernel_equals_np_linalg_svd_bit_for_bit(self, rng, dtype):
        # the in-place kernel of every sweep update: conj(u @ vt) of
        # np.linalg.svd, the new gate's transpose, written into the slot, and
        # np.add.reduce of the singular values returned, over environments of
        # rank 4, 3, 2 and 1 (sweeps meet rank 1 and 2 most) and scales from
        # 1e-6 to 1e3
        out = np.empty((4, 4), dtype)
        for trial in range(10_000):
            rank = 4 - trial % 4
            a = rng.standard_normal((4, rank))
            b = rng.standard_normal((rank, 4))
            if dtype is complex:
                a = a + 1j * rng.standard_normal((4, rank))
                b = b + 1j * rng.standard_normal((rank, 4))
            f = (a @ b) * 10.0 ** rng.uniform(-6, 3)
            with np.errstate(invalid="ignore"):
                value = _polar_into(f, out)
            u, s, vt = np.linalg.svd(f)
            np.testing.assert_array_equal(out, (u @ vt).conj())
            assert value == float(np.add.reduce(s))
        w, value = _optimal_gate(f)
        np.testing.assert_array_equal(w, (u @ vt).conj().T)
        assert w.strides == (out.itemsize, 4 * out.itemsize)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_polar_kernel_rejects_a_non_finite_environment(self, rng, dtype, bad):
        # the raise comes before the slot is written
        f = rng.standard_normal((4, 4)).astype(dtype)
        f[2, 1] = bad
        out = np.zeros((4, 4), dtype)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="not finite"):
            _polar_into(f, out)
        assert not out.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_update_gate_rejects_a_non_finite_environment(self, rng, monkeypatch, bad):
        circuit = random_staircase_circuit(rng, 4, 2)
        target = random_state(rng, 4, complex_valued=True)
        kernel = compiler._environment

        def poisoned(*args):
            f = kernel(*args)
            f[1, 2] = bad
            return f

        monkeypatch.setattr(compiler, "_environment", poisoned)
        with pytest.raises(NumericError, match="not finite"):
            update_gate(environment_tensor(circuit, 2, target))

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


# Reference bond-level MPS code through numpy's public wrappers (np.linalg.svd,
# np.linalg.eigh, np.linalg.qr, np.tensordot, np.linalg.norm): the direct
# LAPACK SVD and eigh calls and 2-D products in `mps` must give the same bits.

def reference_fix_signs(u, vt):
    pivot = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    phase = pivot / np.abs(pivot)
    u /= phase
    vt *= phase[:, None]


def reference_cut(mat, chi=None):
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    reference_fix_signs(u, vt)
    keep = max(int(np.count_nonzero(s**2)), 1)
    if chi is not None:
        keep = min(keep, chi)
    return u[:, :keep], s[:keep], vt[:keep], float(np.sum(s[keep:] ** 2))


def reference_gram_cut(mat, chi=None):
    w, v = np.linalg.eigh(mat @ mat.conj().T)
    w, v = w[::-1], v[:, ::-1]
    keep = len(w) if chi is None else min(chi, len(w))
    if not w[keep - 1] > mps.GRAM_RESOLVED_TOL * w[0]:
        return None
    u = v[:, :keep]
    carry = u.conj().T @ mat
    reference_fix_signs(u, carry)
    return u, carry, max(float(np.sum(w[keep:])), 0.0)


def reference_left_canonicalize(m):
    if m.canonical_form == "left":
        return m
    tensors, carry = [], None
    for t in m.tensors:
        if carry is not None:
            t = np.tensordot(carry, t, axes=(1, 0))
        left, _, right = t.shape
        q, r = np.linalg.qr(t.reshape(left * 2, right))
        d = np.diagonal(r)
        phase = np.where(d == 0, 1.0, d / np.abs(np.where(d == 0, 1.0, d)))
        tensors.append((q * phase).reshape(left, 2, q.shape[1]))
        carry = np.conj(phase)[:, None] * r
    return MPS(tuple(tensors), canonical_form="left")


def reference_move_center_left(tensors, stop, chi=None):
    eps = [0.0] * (len(tensors) - 1)
    for i in range(len(tensors) - 1, stop, -1):
        left, _, right = tensors[i].shape
        u, s, vt, eps[i - 1] = reference_cut(tensors[i].reshape(left, 2 * right), chi)
        tensors[i] = vt.reshape(len(s), 2, right)
        tensors[i - 1] = np.tensordot(tensors[i - 1], u * s, axes=(2, 0))
    return eps


def reference_apply_gates(m, gates, site, chi_max):
    tensors = list(reference_left_canonicalize(m).tensors)
    weights = reference_move_center_left(tensors, site + 1)
    for i, g in enumerate(gates, start=site):
        theta = np.tensordot(tensors[i], tensors[i + 1], axes=(2, 0))
        theta = np.einsum("stuv,luvr->lstr", g.reshape(2, 2, 2, 2), theta)
        left, _, _, right = theta.shape
        u, s, vt, weights[i] = reference_cut(theta.reshape(left * 2, 2 * right), chi_max)
        tensors[i] = u.reshape(left, 2, len(s))
        tensors[i + 1] = (s[:, None] / np.linalg.norm(s) * vt).reshape(len(s), 2, right)
    form = "left" if site + len(gates) == m.n_sites - 1 else "none"
    return MPS(tuple(tensors), canonical_form=form), tuple(weights)


class TestDirectLapack:
    @pytest.mark.parametrize("shape", [(8, 4), (4, 8), (4, 4)], ids=["tall", "wide", "square"])
    @pytest.mark.parametrize("rank", [4, 1, 0], ids=["full-rank", "rank-1", "zero"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_thin_svd_and_qr_equal_np_linalg(self, rng, shape, rank, dtype):
        # the QR step calls np.linalg.qr itself, so only the SVD gufunc is pinned
        a = rng.standard_normal((shape[0], rank))
        if dtype is complex:
            a = a + 1j * rng.standard_normal((shape[0], rank))
        mat = a @ rng.standard_normal((rank, shape[1]))
        signature = "D->DdD" if dtype is complex else "d->ddd"
        got = mps.svd_s(mat, signature=signature)
        want = np.linalg.svd(mat, full_matrices=False)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("shape", [(8, 4), (4, 8), (4, 4)], ids=["tall", "wide", "square"])
    @pytest.mark.parametrize("rank", [4, 1, 0], ids=["full-rank", "rank-1", "zero"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_gram_eigh_equals_np_linalg_eigh(self, rng, shape, rank, dtype):
        # the Gram matrix of a bond cut, of rank 4, 1 or 0
        a = rng.standard_normal((shape[0], rank))
        if dtype is complex:
            a = a + 1j * rng.standard_normal((shape[0], rank))
        mat = a @ rng.standard_normal((rank, shape[1]))
        gram = mat @ mat.conj().T
        signature = "D->dD" if dtype is complex else "d->dd"
        got = mps.eigh_lo(gram, signature=signature)
        want = np.linalg.eigh(gram)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("method", ["iterative", "grow"])
    @pytest.mark.parametrize("source", ["digit", "scene", "complex"])
    def test_compiles_equal_the_wrapper_based_reference(self, rng, monkeypatch, method, source):
        if source == "complex":
            vec = random_state(rng, 6, complex_valued=True)
        else:
            vec = encode_amplitudes(get_image(source, 8))

        def build():
            m, weights = from_dense(vec, chi_max=8)
            target = to_dense(m)
            if method == "iterative":
                circuit, trace = iterative_construct(target, 3)
            else:
                circuit, trace = grow_and_optimize(target, 2, sweeps_per_stage=3)
            return weights, circuit.gates, trace.records

        weights, gates, records = build()
        # the bond cuts of every from_dense call, the target's and each
        # layer's, on both paths: Gram for resolved wide bonds, SVD otherwise
        calls = {"_cut": 0, "_gram_cut": 0}
        for name, reference in [("_cut", reference_cut), ("_gram_cut", reference_gram_cut)]:
            def counted(mat, chi=None, name=name, reference=reference):
                calls[name] += 1
                return reference(mat, chi)

            monkeypatch.setattr(mps, name, counted)
        want_weights, want_gates, want_records = build()
        assert calls["_gram_cut"] and calls["_cut"]
        assert weights == want_weights
        assert gates.dtype == want_gates.dtype
        np.testing.assert_array_equal(gates, want_gates)
        assert records == want_records

    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("chi_max", [None, 3])
    def test_gate_stacks_equal_the_wrapper_based_reference(self, rng, complex_valued, chi_max):
        # marked non-canonical, so both sides run their QR sweep first
        m = MPS(from_dense(random_state(rng, 6, complex_valued))[0].tensors)
        gates = np.stack([random_unitary4(rng) for _ in range(3)])
        got, weights = mps.apply_two_qubit_gate(m, gates, 1, chi_max)
        want, want_weights = reference_apply_gates(m, gates, 1, chi_max)
        assert weights == want_weights and got.canonical_form == want.canonical_form
        for g, w in zip(got.tensors, want.tensors, strict=True):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


class TestSweepOptimize:
    def test_overlaps_monotone_within_and_across_sweeps(self, rng, update_overlaps):
        target = capped_state(random_state(rng, 6), 8)
        circuit, _ = iterative_construct(target, 2)
        sweep_optimize(circuit, target, 10)
        assert len(update_overlaps) == 10 * len(circuit.all_gates())
        diffs = np.diff(update_overlaps)
        assert np.all(diffs >= -1e-12)

    def test_improves_on_iterative_start(self, rng):
        vec = random_state(rng, 6)
        target = capped_state(vec, 8)
        circuit, _ = iterative_construct(target, 2)
        start = circuit_overlap(circuit, vec)
        optimized, trace = sweep_optimize(circuit, target, 50)
        _, _, overlap = trace.records[-1]
        assert overlap > start
        assert circuit_overlap(optimized, vec) == pytest.approx(overlap, abs=1e-9)

    def test_preserves_layer_structure(self, rng):
        target = capped_state(random_state(rng, 5), 4)
        circuit, _ = iterative_construct(target, 3)
        optimized, _ = sweep_optimize(circuit, target, 3)
        assert optimized.depth == circuit.depth
        np.testing.assert_array_equal(optimized.sites, circuit.sites)

    @pytest.mark.parametrize(
        "n, order, complex_valued",
        [
            pytest.param(5, None, True, id="5"),
            pytest.param(6, None, True, id="6"),
            pytest.param(7, None, True, id="7"),
            # pair (0, 1) first: every gate sees the whole state
            pytest.param(6, [0, 1, 2, 3, 4], True, id="ascending"),
            # the first gate mid-chain; the block then spans every qubit
            pytest.param(7, [3, 0, 5, 1, 4, 2], True, id="mid-chain"),
            # the block stays put, then reaches down in several steps
            pytest.param(8, [4, 5, 2, 6, 1, 3, 0], True, id="stepwise"),
            # the Kronecker GEMM of apply_gate_dense runs at n = 12
            pytest.param(12, None, False, id="real-12"),
        ],
    )
    def test_one_sweep_equals_successive_oracle_updates(
        self, rng, update_overlaps, n, order, complex_valued
    ):
        # each update must equal update_gate on the dense oracle's environment
        # of the partly updated circuit.  For a descending staircase against a
        # random complex target the environments of gates n+1..M are full
        # rank, so their polar factors are unique.  Gates 1..n have rank <= 2
        # environments (the first layer acts on |0>, and after it the last
        # pair holds one bond of 2); there sweep and oracle agree because the
        # sweep's leading blocks give the oracle's sums bit for bit.  A real
        # target gives the same bits throughout
        circuit = random_staircase_circuit(rng, n, 2)
        if order is not None:
            circuit = LayeredCircuit(n, np.array([order, order]), circuit.gates)
        target = random_state(rng, n, complex_valued)
        swept, trace = sweep_optimize(circuit, target, 1)
        last_update = update_overlaps[-1]  # before update_gate below adds its own
        gates = list(circuit.gates.reshape(-1, 4, 4))
        for m in range(1, len(gates) + 1):
            partly = LayeredCircuit(n, circuit.sites, np.reshape(gates, circuit.gates.shape))
            f = environment_tensor(partly, m, target)
            if m > n and order is None and complex_valued:
                assert np.linalg.svd(f, compute_uv=False)[-1] > 1e-6
            gates[m - 1] = update_gate(f)
        np.testing.assert_array_equal(swept.sites, circuit.sites)
        want = np.reshape(gates, circuit.gates.shape)
        if complex_valued:
            np.testing.assert_allclose(swept.gates, want, rtol=0, atol=1e-10)
        else:
            np.testing.assert_array_equal(swept.gates, want)
        nuclear = np.sum(np.linalg.svd(f, compute_uv=False))
        _, _, overlap = trace.records[-1]
        assert overlap == pytest.approx(nuclear, abs=1e-10)
        assert last_update == overlap

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_inputs_untouched_and_calls_repeatable(self, rng, complex_valued):
        # the buffer is per call: a second call from the same inputs starts clean
        circuit = random_staircase_circuit(rng, 6, 3)
        target = random_state(rng, 6, complex_valued)
        target_before, gates_before = target.copy(), circuit.gates.copy()
        first, first_trace = sweep_optimize(circuit, target, 2)
        np.testing.assert_array_equal(target, target_before)
        np.testing.assert_array_equal(circuit.gates, gates_before)
        second, second_trace = sweep_optimize(circuit, target, 2)
        np.testing.assert_array_equal(second.gates, first.gates)
        assert second_trace.records == first_trace.records

    @pytest.mark.parametrize("n, depth, n_sweeps", [(5, 2, 3), (6, 3, 1), (2, 1, 2)])
    def test_dense_products_per_sweep(self, rng, monkeypatch, n, depth, n_sweeps):
        # per sweep, M - 1 suffix products and M - 1 prefix products: the
        # last gate's product with the prefix would never be read
        calls = []

        def counted(*args):
            calls.append(args)
            return apply_gate(*args)

        monkeypatch.setattr(compiler, "apply_gate", counted)
        circuit = random_staircase_circuit(rng, n, depth)
        sweep_optimize(circuit, random_state(rng, n), n_sweeps)
        m_total = len(circuit.all_gates())
        assert len(calls) == n_sweeps * (2 * m_total - 2)

    @pytest.mark.parametrize(
        "bad_update, corrupt, complex_valued",
        [
            pytest.param(1, lambda w: w * (1 + 1e-8), False, id="scaled-first"),
            pytest.param(8, lambda w: w * (1 + 1e-8), False, id="scaled-last"),
            pytest.param(8, lambda w: np.full_like(w, np.nan), False, id="nan-last"),
            # complex slots are conjugated in place by the kernel
            pytest.param(8, lambda w: w * (1 + 1e-8), True, id="complex-scaled-last"),
        ],
    )
    def test_rejects_a_non_unitary_update(
        self, rng, monkeypatch, bad_update, corrupt, complex_valued
    ):
        # one bad update, the first or the last of the first sweep's 8,
        # written where the loop stores it: the check at the end of that
        # sweep must see it, before the second sweep applies the gate
        target = capped_state(random_state(rng, 5, complex_valued), 4)
        circuit, _ = iterative_construct(target, 2)
        assert (circuit.gates.dtype.kind == "c") == complex_valued
        kernel = compiler._polar_into
        calls = []

        def one_update_corrupted(f, out):
            value = kernel(f, out)
            calls.append(f)
            if len(calls) == bad_update:
                out[...] = corrupt(out)
            return value

        monkeypatch.setattr(compiler, "_polar_into", one_update_corrupted)
        with pytest.raises(ValidationError, match="sweep 1 produced a gate that is not unitary"):
            sweep_optimize(circuit, target, 2)
        assert len(calls) == len(circuit.all_gates()) == 8

    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    def test_gate_layout_is_pinned(self, rng, monkeypatch, complex_valued):
        # the layout of the applied gates sets BLAS operand order, and the
        # returned stack's reaches the next stage's dense undo, so both can
        # reach result bits: the prefix pass applies F-ordered 4x4 views, the
        # suffix pass their C-contiguous transposes (the input gates'
        # transposed views in sweep 1), and the returned np.stack of F-ordered
        # views has strides of (16, 1, 4) items over gate, row and column
        n, depth, n_sweeps = 5, 2, 3
        circuit = random_staircase_circuit(rng, n, depth)
        target = random_state(rng, n, complex_valued)
        seen = []

        def recorded(operands, matrix):
            seen.append(
                (matrix.dtype, matrix.strides, matrix.flags.c_contiguous, matrix.flags.f_contiguous)
            )
            return apply_gate(operands, matrix)

        monkeypatch.setattr(compiler, "apply_gate", recorded)
        swept, _ = sweep_optimize(circuit, target, n_sweeps)
        dtype = np.dtype(complex if complex_valued else float)
        size = dtype.itemsize
        c_order = (dtype, (4 * size, size), True, False)
        f_order = (dtype, (size, 4 * size), False, True)
        m_total = (n - 1) * depth
        for sweep in range(n_sweeps):
            calls = seen[sweep * (2 * m_total - 2) :][: 2 * m_total - 2]
            suffix_pass, prefix_pass = calls[: m_total - 1], calls[m_total - 1 :]
            if sweep == 0:
                assert suffix_pass == [(np.dtype(float), (8, 32), False, True)] * (m_total - 1)
            else:
                assert suffix_pass == [c_order] * (m_total - 1)
            assert prefix_pass == [f_order] * (m_total - 1)
        gates = swept.gates
        assert gates.dtype == dtype and gates.shape == circuit.gates.shape
        assert gates.strides == (16 * (n - 1) * size, 16 * size, size, 4 * size)
        assert not gates.flags.c_contiguous and not gates.flags.f_contiguous

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_a_non_finite_environment(self, rng, monkeypatch, update_overlaps, bad):
        # one poisoned update in the second sweep: its SVD gives NaN
        # singular values, and the nuclear-norm check raises at that update
        target = capped_state(random_state(rng, 5), 4)
        circuit, _ = iterative_construct(target, 2)
        kernel = compiler._environment
        calls = []

        def one_update_poisoned(*args):
            f = kernel(*args)
            calls.append(f)
            if len(calls) == 11:
                f[0, 3] = bad
            return f

        monkeypatch.setattr(compiler, "_environment", one_update_poisoned)
        with pytest.raises(NumericError, match="not finite"):
            sweep_optimize(circuit, target, 3)
        assert len(calls) == 11 and len(update_overlaps) == 10

    @pytest.mark.parametrize("n", range(2, 14))
    def test_real_target_equals_the_reference_loop_bit_for_bit(self, rng, update_overlaps, n):
        # the leading blocks, the shared buffer and the prebuilt operands
        # change no bit of any gate or overlap against a real target
        for circuit in reference_circuits(rng, n):
            target = random_state(rng, n)
            update_overlaps.clear()
            swept, _ = sweep_optimize(circuit, target, 3)
            got = update_overlaps.copy()
            gates, overlaps = reference_sweeps(circuit, target, 3)
            np.testing.assert_array_equal(swept.gates, gates)
            assert got == overlaps

    @pytest.mark.parametrize("n", range(2, 14))
    def test_complex_target_against_the_reference_loop(self, rng, update_overlaps, n):
        # below N = 10 the bits agree as for real targets.  From N = 10 a
        # block can take the batched product where the full vector takes the
        # Kronecker GEMM (pre >= 128), and complex sums then differ in the
        # last bits.  Rank-deficient environments turn that into O(1)
        # differences in the gates' null-space columns, which the next
        # sweep's suffixes carry into its overlaps; so there one sweep's
        # overlaps, which those columns do not reach, are compared
        for circuit in reference_circuits(rng, n):
            target = random_state(rng, n, complex_valued=True)
            n_sweeps = 3 if n < 10 else 1
            update_overlaps.clear()
            swept, _ = sweep_optimize(circuit, target, n_sweeps)
            got = update_overlaps.copy()
            gates, overlaps = reference_sweeps(circuit, target, n_sweeps)
            if n < 10:
                np.testing.assert_array_equal(swept.gates, gates)
                assert got == overlaps
            else:
                np.testing.assert_allclose(got, overlaps, rtol=0, atol=1e-12)

    def test_peak_memory_does_not_grow_with_the_sweep_count(self, rng):
        # the blocks live in one buffer per call and no update keeps an
        # array, so twenty sweeps peak within one 2^N float64 block of one
        # sweep; what grows is the trace's one row per sweep
        n = 14
        circuit = random_staircase_circuit(rng, n, 2)
        target = random_state(rng, n)
        peaks = []
        for n_sweeps in (1, 20):
            tracemalloc.start()
            try:
                sweep_optimize(circuit, target, n_sweeps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2**n * 8

    def test_zero_sweeps_is_identity(self, rng):
        target = capped_state(random_state(rng, 4), 4)
        circuit, _ = iterative_construct(target, 1)
        same, trace = sweep_optimize(circuit, target, 0)
        assert trace.records == []
        np.testing.assert_allclose(
            run(same), run(circuit), atol=1e-15
        )


class TestIterativeConstruct:
    def test_chi2_target_is_exact_at_depth_one(self, rng):
        target = capped_state(random_state(rng, 6), 2)
        circuit, trace = iterative_construct(target, 1)
        assert circuit_overlap(circuit, target) == pytest.approx(1.0, abs=1e-10)
        _, _, overlap = trace.records[-1]
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_deeper_is_monotonically_better(self, rng):
        target = capped_state(random_state(rng, 7), 8)
        overlaps = [
            circuit_overlap(iterative_construct(target, d)[0], target) for d in (1, 2, 3, 4)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(overlaps, overlaps[1:]))

    def test_trace_matches_final_overlap(self, rng):
        # the last row is the depth-3 circuit's overlap with the target
        target = capped_state(random_state(rng, 6), 4)
        circuit, trace = iterative_construct(target, 3)
        _, _, overlap = trace.records[-1]
        assert overlap == pytest.approx(circuit_overlap(circuit, target), abs=1e-8)

    def test_every_row_is_its_circuits_overlap(self):
        # a target of bond dimension 16, far above the layers' 2: each row
        # must measure its circuit against the whole target
        target = capped_state(random_state(np.random.default_rng(1234), 8), 16)
        rows = []
        for circuit, trace in compiler.construction_stages(target, 3, sweeps=0):
            stage, sweep, overlap = trace.records[-1]
            assert (stage, sweep) == (circuit.depth, 0)
            assert overlap == pytest.approx(circuit_overlap(circuit, target), abs=1e-12)
            rows.append(overlap)
        assert len(trace.records) == 3
        circuit, trace = grow_and_optimize(target, 3, sweeps_per_stage=0)
        assert [overlap for *_, overlap in trace.records] == rows
        assert rows[-1] == pytest.approx(circuit_overlap(circuit, target), abs=1e-12)

    @pytest.mark.parametrize("sweeps", [0, 2], ids=["iterative", "grow"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_each_layer_is_cut_from_the_undone_target(self, rng, monkeypatch, sweeps, n):
        # layer d is the chi=2 cut of r_d = C_{d-1}^dagger |target>, where
        # C_{d-1} is the circuit that stage d-1 yielded (swept, for grow)
        target = capped_state(random_state(rng, n), 4)
        unswept = []
        kernel = compiler.sweep_optimize

        def recorded(circuit, *args):
            unswept.append(circuit)
            return kernel(circuit, *args)

        monkeypatch.setattr(compiler, "sweep_optimize", recorded)
        previous = []
        for circuit, _ in compiler.construction_stages(target, 3, sweeps):
            residual = target
            for site, gate in reversed(previous):
                residual = apply_gate_dense(residual, gate.conj().T, site, n)
            layer = (unswept[-1] if sweeps else circuit).gates[0]
            want = layer_from_chi2_mps(from_dense(residual, chi_max=2)[0])
            np.testing.assert_allclose(layer, want, rtol=0, atol=1e-12)
            previous = circuit.all_gates()
        assert len(unswept) == (3 if sweeps else 0)

    def test_depth_sets_layer_count(self, rng):
        target = capped_state(random_state(rng, 5), 4)
        assert iterative_construct(target, 4)[0].depth == 4

    def test_rejects_unnormalized_target(self, rng):
        target = capped_state(random_state(rng, 4), 2)
        with pytest.raises(ValidationError, match="unit norm"):
            iterative_construct(target * 1.1, 1)

    @pytest.mark.parametrize("construct", [iterative_construct, grow_and_optimize])
    def test_rejects_a_target_that_is_not_a_vector(self, rng, construct):
        target = capped_state(random_state(rng, 4), 2)
        with pytest.raises(ValidationError, match=r"must be a 1-D array, got shape \(4, 4\)"):
            construct(target.reshape(4, 4), 1)

    def test_rejects_bad_depth(self, rng):
        target = capped_state(random_state(rng, 4), 2)
        with pytest.raises(ValidationError):
            iterative_construct(target, 0)


@pytest.mark.parametrize("construct", [iterative_construct, grow_and_optimize])
def test_constructions_reject_a_nan_target(rng, construct):
    # a NaN norm must fail the unit-norm check, not reach an SVD
    target = capped_state(random_state(rng, 4), 2)
    target[5] = np.nan
    with pytest.raises(ValidationError, match="unit norm, got nan"):
        construct(target, 1)


class TestGrowAndOptimize:
    def test_beats_pure_iterative(self, rng):
        vec = random_state(rng, 6)
        target = capped_state(vec, 8)
        iterative = circuit_overlap(iterative_construct(target, 3)[0], vec)
        grown, trace = grow_and_optimize(target, 3, sweeps_per_stage=30)
        _, _, overlap = trace.records[-1]
        assert overlap >= iterative - 1e-12
        assert circuit_overlap(grown, vec) == pytest.approx(overlap, abs=1e-9)

    def test_stage_count_and_depth(self, rng):
        target = capped_state(random_state(rng, 5), 4)
        circuit, trace = grow_and_optimize(target, 3, sweeps_per_stage=5)
        assert circuit.depth == 3
        assert {stage for stage, _, _ in trace.records} == {1, 2, 3}

    def test_trace_monotone_within_each_stage(self, rng):
        target = capped_state(random_state(rng, 6), 8)
        _, trace = grow_and_optimize(target, 2, sweeps_per_stage=10)
        for stage in (1, 2):
            overlaps = [o for s, _, o in trace.records if s == stage]
            assert all(b >= a - 1e-12 for a, b in zip(overlaps, overlaps[1:]))

    def test_provenance_recorded(self, rng):
        target = capped_state(random_state(rng, 4), 2)
        circuit, _ = grow_and_optimize(target, 2, sweeps_per_stage=2)
        assert circuit.provenance["method"] == "grow_and_optimize"
        assert circuit.provenance["depth"] == 2
