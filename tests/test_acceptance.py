"""Acceptance gate: twelve numbered end-to-end criteria.

Each test records a single PASS/FAIL line (echoed in the terminal summary
after capture ends) and then asserts, so both the human summary and the
pytest exit status agree.
"""

import numpy as np

import conftest
from conftest import (
    capped_state,
    identity_circuit,
    ladder_index,
    random_staircase_circuit,
    random_state,
    random_unitary4,
)
from qimgload.analysis import (
    chi_scaling_sweep,
    depth_scaling_sweep,
    fit_power_law,
    infidelity,
    tv_distance,
)
from qimgload.circuit import cnot_count
from qimgload.compiler import (
    _optimal_gate,
    environment_tensor,
    grow_and_optimize,
    iterative_construct,
    sweep_optimize,
    update_gate,
)
from qimgload.image_codec import decode_probabilities, encode_amplitudes
from qimgload.mps import from_dense, to_dense
from qimgload.sample_images import digit_image, scene_image
from qimgload.simulator import apply_gate_dense, histogram_to_probs, run, sample


def report(number: int, label: str, ok: bool, detail: str = ""):
    suffix = f"  ({detail})" if detail else ""
    line = f"{'PASS' if ok else 'FAIL'}  criterion {number:2d}: {label}{suffix}"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, line


def test_criterion_01_chi2_single_layer_exactness():
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (4, 6, 8, 10):
        for _ in range(25):
            target = capped_state(random_state(rng, n), 2)
            circuit, _ = iterative_construct(target, 1)
            worst = max(worst, infidelity(target, run(circuit)))
    report(1, "chi=2 MPS prepared exactly by one staircase layer",
           worst <= 1e-9, f"worst infidelity {worst:.2e} over 100 states")


def test_criterion_02_cnot_accounting():
    a = cnot_count(identity_circuit(8, 3))
    b = cnot_count(identity_circuit(10, 10))
    report(2, "CNOT-equivalent counts 42 at (N=8, D=3) and 180 at (N=10, D=10)",
           (a, b) == (42, 180), f"got {a} and {b}")


def test_criterion_03_lossless_roundtrip():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        vec = random_state(rng, 10)
        m, weights = from_dense(vec)
        worst = max(worst, float(np.max(np.abs(to_dense(m) - vec))), sum(weights))
    report(3, "dense -> MPS -> dense identity for 50 random 10-qubit states",
           worst <= 1e-10, f"worst max error {worst:.2e}")


def test_criterion_04_truncation_error_bound():
    rng = np.random.default_rng(104)
    violations = 0
    for _ in range(100):
        vec = random_state(rng, 8)
        for chi in (1, 2, 4, 8):
            m, weights = from_dense(vec, chi_max=chi)
            if np.linalg.norm(vec - to_dense(m)) ** 2 > 2 * sum(weights) + 1e-12:
                violations += 1
    report(4, "||v - v~||^2 <= 2 sum(eps) over 100 states x chi in {1,2,4,8}",
           violations == 0, f"{violations} violations")


def test_criterion_05_monotone_sweeps_beat_iterative(update_overlaps):
    image = scene_image(32)
    state = encode_amplitudes(image)
    target = capped_state(state)
    ok = True
    details = []
    for depth in (2, 4, 8):
        circuit, _ = iterative_construct(target, depth)
        start = infidelity(state, run(circuit))
        update_overlaps.clear()
        optimized, _ = sweep_optimize(circuit, target, 200)
        final = infidelity(state, run(optimized))
        # one overlap per update, each no lower than the one before
        monotone = len(update_overlaps) == 200 * len(circuit.all_gates()) and bool(
            np.all(np.diff(update_overlaps) >= -1e-12)
        )
        ok = ok and monotone and final < start
        details.append(f"D={depth}: {start:.2e} -> {final:.2e} monotone={monotone}")
    report(5, "200 gate-by-gate sweeps monotone and strictly beat iterative start",
           ok, "; ".join(details))


def test_criterion_06_depth_scaling_trend():
    records = depth_scaling_sweep(scene_image(32), [2, 4, 6, 8, 10, 12, 14, 16],
                                  method="iterative")
    values = [(x, i) for x, L, i in records]
    monotone = all(b[1] < a[1] + 1e-15 for a, b in zip(values, values[1:]))
    fit = fit_power_law(values)
    report(6, "infidelity vs depth at L=32: positive exponent, monotone decrease",
           fit["b"] > 0 and monotone,
           f"b = {fit['b']:.3f} +/- {fit['b_stderr']:.3f}, monotone={monotone}")


def test_criterion_07_chi_scaling_trend():
    records = chi_scaling_sweep(scene_image(256), [2, 4, 8, 16, 32, 64])
    values = [(x, i) for x, L, i in records]
    decreasing = all(b[1] < a[1] for a, b in zip(values, values[1:]))
    fit = fit_power_law(values)
    report(7, "infidelity vs chi at L=256 (chi <= L/4): positive exponent, strictly decreasing",
           fit["b"] > 0 and decreasing,
           f"b = {fit['b']:.3f} +/- {fit['b_stderr']:.3f}, decreasing={decreasing}")


def test_criterion_08_resolution_saturation():
    records = chi_scaling_sweep(scene_image(256), [8], L_list=[32, 64, 128, 256])
    by_L = {int(L): i for x, L, i in records}
    diffs = [abs(by_L[L] - by_L[L // 2]) for L in (64, 128, 256)]
    ok = all(b < a for a, b in zip(diffs, diffs[1:]))
    report(8, "|I(L) - I(L/2)| decreasing across L in {64,128,256} at chi=8",
           ok, "diffs " + ", ".join(f"{d:.2e}" for d in diffs))


def test_criterion_09_environment_certificate():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 9))
        circuit = random_staircase_circuit(rng, n, int(rng.integers(1, 4)))
        target = random_state(rng, n, complex_valued=True)
        gates = circuit.all_gates()
        m = int(rng.integers(1, len(gates) + 1))
        f = environment_tensor(circuit, m, target)
        for _ in range(20):
            w = random_unitary4(rng, complex_valued=True)
            vec = np.zeros(2**n, dtype=complex)
            vec[0] = 1.0
            for i, (site, matrix) in enumerate(gates):
                vec = apply_gate_dense(vec, w if i == m - 1 else matrix, site, n)
            worst = max(worst, abs(np.trace(w @ f) - np.vdot(target, vec)))
    report(9, "Tr[W F_m] equals dense-oracle overlap (200 substitutions, N <= 8)",
           worst <= 1e-9, f"worst deviation {worst:.2e}")


def test_criterion_10_nuclear_norm_update():
    rng = np.random.default_rng(110)
    worst_gap = 0.0
    decreases = 0
    for _ in range(100):
        n = int(rng.integers(3, 7))
        circuit = random_staircase_circuit(rng, n, int(rng.integers(1, 3)))
        target = random_state(rng, n)
        m = int(rng.integers(1, len(circuit.all_gates()) + 1))
        before = abs(np.vdot(target, run(circuit)))
        f = environment_tensor(circuit, m, target)
        new_gate = update_gate(f)
        _, nuclear = _optimal_gate(f)
        achieved = np.trace(new_gate @ f).real
        worst_gap = max(worst_gap, abs(achieved - nuclear))
        if nuclear < before - 1e-12:
            decreases += 1
    report(10, "updated gate hits the nuclear norm and never lowers the overlap",
           worst_gap <= 1e-10 and decreases == 0,
           f"worst gap {worst_gap:.2e}, {decreases} decreases over 100 environments")


def test_criterion_11_end_to_end_sampling():
    image = digit_image(16)
    state = encode_amplitudes(image)
    target = capped_state(state)
    circuit, _ = grow_and_optimize(target, 3, sweeps_per_stage=200)
    prepared = run(circuit)
    exact_probs = np.abs(prepared) ** 2
    hist = sample(prepared, shots=10000, seed=0)
    tv = tv_distance(histogram_to_probs(hist), exact_probs)

    recon_exact = decode_probabilities(exact_probs, 16)
    normalized = np.clip(exact_probs, 0.0, None) / exact_probs.sum()
    grid = normalized[ladder_index(16)]
    exact_match = np.array_equal(recon_exact.pixels, grid / grid.max())
    report(11, "16x16 / D=3 / 10000 shots: TV <= 0.1 and exact infinite-shot decode",
           tv <= 0.1 and exact_match, f"TV = {tv:.4f}, exact decode match = {exact_match}")


def test_criterion_12_power_law_self_test():
    fit_a = fit_power_law([(x, 3.0 * x**-1.645) for x in (2, 4, 8, 16, 32)])
    fit_b = fit_power_law([(x, 0.5 * x**-0.603) for x in (2, 4, 8, 16, 32)])
    err_a = abs(fit_a["b"] - 1.645)
    err_b = abs(fit_b["b"] - 0.603)
    report(12, "fitter recovers synthetic exponents 1.645 and 0.603 exactly",
           err_a <= 1e-9 and err_b <= 1e-9, f"errors {err_a:.1e}, {err_b:.1e}")
