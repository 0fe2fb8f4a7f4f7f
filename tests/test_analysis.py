"""Infidelity, power-law fitting, scaling sweeps, and the bundled images."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import capped_state, random_state, traced_peak
from qimgload import sample_images
from qimgload.analysis import (
    chi_scaling_sweep,
    depth_scaling_sweep,
    fit_power_law,
    infidelity,
    tv_distance,
)
from qimgload.compiler import construction_stages, grow_and_optimize, iterative_construct
from qimgload.errors import ValidationError
from qimgload.image_codec import ImageGrid, encode_amplitudes
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
        with pytest.raises(ValidationError, match="p must sum to 1"):
            tv_distance([np.nan, 0.5], [0.5, 0.5])


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

    @pytest.mark.parametrize("name", sorted(BUILTIN_IMAGES))
    def test_same_pixels_as_full_coordinate_grids(self, name, monkeypatch):
        # broadcast coordinates only skip multiplications by 1.0, which are
        # exact; compared with a render, not a hash, since the last bits of
        # np.sin and np.exp may differ between CPUs
        sides = [2**n for n in range(1, 9)]
        renders = [get_image(name, L).pixels for L in sides]

        def full_grids(L):
            c = (np.arange(L) + 0.5) / L
            return c[:, None] * np.ones((1, L)), np.ones((L, 1)) * c[None, :]

        monkeypatch.setattr(sample_images, "_coords", full_grids)
        for L, pixels in zip(sides, renders):
            assert pixels.tobytes() == get_image(name, L).pixels.tobytes(), L

    @pytest.mark.parametrize("name", sorted(BUILTIN_IMAGES))
    def test_renders_in_the_unit_interval_before_the_grid_clips(self, name, monkeypatch):
        # ImageGrid refuses values more than 1e-12 outside [0, 1] and clips the
        # rest, so a render that strays is caught here, not clipped away
        rendered = []

        def spy(pixels):
            rendered.append(pixels)
            return ImageGrid(pixels)

        monkeypatch.setattr(sample_images, "ImageGrid", spy)
        for L in (2**n for n in range(1, 11)):
            get_image(name, L)
            assert 0.0 <= rendered[-1].min() and rendered[-1].max() <= 1.0, L

    @pytest.mark.parametrize("name", sorted(BUILTIN_IMAGES))
    def test_peak_memory(self, name):
        # only the masks where a row factor meets a column factor are L x L
        image_bytes = 256 * 256 * 8
        peak = traced_peak(lambda: get_image(name, 256))
        assert peak <= 11 * image_bytes, f"peak {peak / image_bytes:.2f} images"


class TestScalingSweeps:
    def test_chi_sweep_monotone(self):
        records = chi_scaling_sweep(scene_image(64), [2, 4, 8, 16])
        values = [i for x, L, i in records]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(L == 64 for x, L, i in records)

    def test_chi_sweep_multi_resolution(self):
        records = chi_scaling_sweep(scene_image(64), [4], L_list=[16, 32, 64])
        assert sorted(L for x, L, i in records) == [16, 32, 64]

    def test_depth_sweep_monotone(self):
        records = depth_scaling_sweep(scene_image(16), [1, 2, 3], method="iterative")
        values = [i for x, L, i in records]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_gate_by_gate_below_iterative(self):
        image = scene_image(16)
        [(_, _, it)] = depth_scaling_sweep(image, [2], method="iterative")
        [(_, _, gb)] = depth_scaling_sweep(image, [2], method="grow", sweeps=30)
        assert gb < it

    @pytest.mark.parametrize("method", ["iterative", "grow"])
    def test_deeper_build_ends_with_every_shallower_one(self, method):
        # one build at the largest depth serves the whole depth list
        target = capped_state(encode_amplitudes(scene_image(16)), 8)
        sweeps = 5 if method == "grow" else 0
        stages = construction_stages(target, 5, sweeps)
        for depth, (circuit, _) in enumerate(stages, 1):
            if method == "grow":
                alone, _ = grow_and_optimize(target, depth, sweeps)
            else:
                alone, _ = iterative_construct(target, depth)
            np.testing.assert_array_equal(circuit.sites, alone.sites)
            np.testing.assert_array_equal(circuit.gates, alone.gates)

    @pytest.mark.parametrize("method", ["iterative", "grow"])
    def test_depth_sweep_equals_separate_builds(self, method):
        image = digit_image(8)
        exact = encode_amplitudes(image)
        target = capped_state(exact, 8)
        records = depth_scaling_sweep(image, [3, 1, 2], method=method, sweeps=5, chi_max=8)
        assert [x for x, L, i in records] == [1, 2, 3]
        for depth, _, value in records:
            if method == "grow":
                circuit, _ = grow_and_optimize(target, depth, 5)
            else:
                circuit, _ = iterative_construct(target, depth)
            assert value == infidelity(exact, run(circuit))

    def test_depth_sweep_rejects_depth_zero(self):
        with pytest.raises(ValidationError, match="depth must be >= 1"):
            depth_scaling_sweep(scene_image(16), [0, 2])

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="unknown compile method 'annealing'"):
            depth_scaling_sweep(scene_image(16), [1], method="annealing")
