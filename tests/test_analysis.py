"""Infidelity, power-law fitting, scaling sweeps, and the bundled images."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from qimgload.analysis import (
    ScalingRecord,
    chi_scaling_sweep,
    depth_scaling_sweep,
    fit_power_law,
    infidelity,
    records_to_csv,
    tv_distance,
)
from qimgload.compiler import iterative_construct, sweep_optimize
from qimgload.errors import ValidationError
from qimgload.image_codec import encode_amplitudes
from qimgload.mps import from_dense, to_dense
from qimgload.sample_images import BUILTIN_IMAGES, digit_image, get_image, scene_image, sign_image
from qimgload.simulator import run


class TestInfidelity:
    def test_zero_for_identical_states(self, rng):
        v = random_state(rng, 4)
        assert infidelity(v, v.copy()) == 0.0

    def test_orthogonal_states(self):
        a = np.zeros(4)
        b = np.zeros(4)
        a[0] = b[1] = 1.0
        assert infidelity(a, b) == 1.0

    def test_clamped_to_unit_interval(self, rng):
        v = random_state(rng, 3)
        assert 0.0 <= infidelity(v, -v) <= 1.0


class TestFitPowerLaw:
    def test_exact_recovery(self):
        fit = fit_power_law([(x, 2.5 * x**-1.7) for x in (1, 2, 4, 8, 16)])
        assert fit["b"] == pytest.approx(1.7, abs=1e-12)
        assert fit["a"] == pytest.approx(2.5, rel=1e-12)
        assert fit["b_stderr"] == pytest.approx(0.0, abs=1e-9)
        assert fit["range"] == [1, 16]

    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=30)
    def test_recovers_any_noise_free_law(self, b, a):
        fit = fit_power_law([(x, a * x**-b) for x in (2, 3, 5, 8, 13)])
        assert fit["b"] == pytest.approx(b, abs=1e-8)

    def test_stderr_grows_with_scatter(self, rng):
        xs = [2, 4, 8, 16, 32, 64]
        clean = [(x, x**-1.0) for x in xs]
        noisy = [(x, x**-1.0 * np.exp(0.3 * rng.standard_normal())) for x in xs]
        assert fit_power_law(noisy)["b_stderr"] > fit_power_law(clean)["b_stderr"]

    def test_needs_three_points(self):
        with pytest.raises(ValidationError):
            fit_power_law([(1, 1.0), (2, 0.5)])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValidationError):
            fit_power_law([(1, 1.0), (2, 0.5), (4, 0.0)])

    def test_result_is_a_record_of_plain_floats(self):
        # the record is what `<sweep>_fit.json` stores, so json.dumps takes it as is
        fit = fit_power_law([(1, 1.0), (2, 0.25), (8, 0.02)])
        assert list(fit) == ["a", "b", "b_stderr", "range"]
        values = [fit["a"], fit["b"], fit["b_stderr"], *fit["range"]]
        assert all(type(v) is float for v in values)


class TestTvDistance:
    def test_identical(self):
        p = np.array([0.25, 0.25, 0.5])
        assert tv_distance(p, p) == 0.0

    def test_disjoint(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_half_l1(self):
        assert tv_distance([0.5, 0.5], [0.7, 0.3]) == pytest.approx(0.2)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            tv_distance([0.5, 0.6], [0.5, 0.5])


class TestBuiltinImages:
    @pytest.mark.parametrize("name", sorted(BUILTIN_IMAGES))
    def test_valid_at_multiple_resolutions(self, name):
        for L in (16, 64):
            g = get_image(name, L)
            assert g.side_length == L
            assert np.all(g.pixels >= 0) and np.all(g.pixels <= 1)

    def test_resolution_consistency(self):
        # block-averaging a high-res render approximates the low-res render
        from qimgload.image_codec import downscale

        hi = downscale(scene_image(128), 32)
        lo = scene_image(32)
        # edges are under-resolved at L=32, so compare in the mean
        assert np.mean(np.abs(hi.pixels - lo.pixels)) < 0.02

    def test_images_are_distinct(self):
        assert np.any(sign_image(32).pixels != scene_image(32).pixels)
        assert digit_image(16).pixels.max() == pytest.approx(0.95)

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            get_image("nope", 16)


class TestScalingSweeps:
    def test_chi_sweep_monotone(self):
        records = chi_scaling_sweep(scene_image(64), [2, 4, 8, 16], image_id="scene")
        values = [r.infidelity for r in records]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(r.L == 64 and r.method == "mps_truncation" for r in records)

    def test_chi_sweep_multi_resolution(self):
        records = chi_scaling_sweep(scene_image(64), [4], L_list=[16, 32, 64])
        assert sorted(r.L for r in records) == [16, 32, 64]

    def test_depth_sweep_monotone(self):
        records = depth_scaling_sweep(scene_image(16), [1, 2, 3], method="iterative")
        values = [r.infidelity for r in records]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_gate_by_gate_below_iterative(self):
        image = scene_image(16)
        it = depth_scaling_sweep(image, [2], method="iterative")
        gb = depth_scaling_sweep(image, [2], method="gate_by_gate", sweeps=30)
        assert gb[0].infidelity < it[0].infidelity

    def test_deeper_build_ends_with_every_shallower_one(self):
        # one build at the largest depth serves the whole depth list
        target, _ = from_dense(encode_amplitudes(scene_image(16)), chi_max=8)
        deepest, _ = iterative_construct(target, 5, 8)
        for depth in range(1, 6):
            alone, _ = iterative_construct(target, depth, 8)
            np.testing.assert_array_equal(deepest.sites[-depth:], alone.sites)
            np.testing.assert_array_equal(deepest.gates[-depth:], alone.gates)

    @pytest.mark.parametrize("method", ["iterative", "gate_by_gate"])
    def test_depth_sweep_equals_separate_builds(self, method):
        image = digit_image(8)
        exact = encode_amplitudes(image)
        target, _ = from_dense(exact, chi_max=8)
        records = depth_scaling_sweep(image, [3, 1, 2], method=method, sweeps=5, chi_max=8)
        assert [r.x for r in records] == [1, 2, 3]
        for r in records:
            circuit, _ = iterative_construct(target, r.x, 8)
            if method == "gate_by_gate":
                circuit, _ = sweep_optimize(circuit, to_dense(target), 5)
            assert r.infidelity == infidelity(exact, run(circuit))

    def test_depth_sweep_rejects_depth_zero(self):
        with pytest.raises(ValidationError, match="depth must be >= 1"):
            depth_scaling_sweep(scene_image(16), [0, 2])

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            depth_scaling_sweep(scene_image(16), [1], method="annealing")

    def test_records_to_csv(self):
        records = [
            ScalingRecord(4, 16, 0.1, "mps_truncation", "a"),
            ScalingRecord(2, 16, 0.2, "mps_truncation", "a"),
        ]
        lines = records_to_csv(records).splitlines()
        assert lines[0] == "x,L,infidelity,method,image_id"
        assert lines[1].startswith("2,16,0.2")

    def test_record_validates_range(self):
        with pytest.raises(ValidationError):
            ScalingRecord(1, 2, 1.5, "m", "i")
