"""Unit tests for the procedural noise primitives."""

import numpy as np
import pytest
from sim_oracle import reference_path, value_noise_reference

from repro.imagery.noise import (
    fractal_noise,
    seeded_uniform,
    smoothstep,
    stable_hash,
    value_noise,
)


class TestSmoothstep:
    def test_endpoints(self):
        assert smoothstep(np.array([0.0]))[0] == 0.0
        assert smoothstep(np.array([1.0]))[0] == 1.0

    def test_midpoint(self):
        assert smoothstep(np.array([0.5]))[0] == pytest.approx(0.5)

    def test_monotone(self):
        xs = np.linspace(0, 1, 50)
        ys = smoothstep(xs)
        assert np.all(np.diff(ys) >= 0)


class TestValueNoise:
    def test_deterministic(self):
        a = value_noise((32, 48), cells=4, seed=7)
        b = value_noise((32, 48), cells=4, seed=7)
        assert np.array_equal(a, b)

    def test_seed_changes_output(self):
        a = value_noise((32, 32), cells=4, seed=7)
        b = value_noise((32, 32), cells=4, seed=8)
        assert not np.array_equal(a, b)

    def test_range(self):
        noise = value_noise((64, 64), cells=6, seed=1)
        assert noise.min() >= 0.0 and noise.max() <= 1.0

    def test_shape(self):
        assert value_noise((17, 33), cells=3, seed=0).shape == (17, 33)

    def test_smooth_more_cells_more_variation(self):
        coarse = value_noise((64, 64), cells=2, seed=5)
        fine = value_noise((64, 64), cells=16, seed=5)
        # Finer lattice -> higher spatial frequency -> larger gradients.
        assert np.abs(np.diff(fine, axis=0)).mean() > np.abs(
            np.diff(coarse, axis=0)
        ).mean()


class TestFractalNoise:
    def test_normalized_range(self):
        noise = fractal_noise((64, 64), seed=3, octaves=4)
        assert noise.min() == pytest.approx(0.0)
        assert noise.max() == pytest.approx(1.0)

    def test_deterministic(self):
        a = fractal_noise((32, 32), seed=11)
        b = fractal_noise((32, 32), seed=11)
        assert np.array_equal(a, b)

    def test_rejects_zero_octaves(self):
        with pytest.raises(ValueError):
            fractal_noise((8, 8), seed=0, octaves=0)

    @pytest.mark.parametrize("shape", [(0, 8), (8, 0)])
    def test_rejects_empty_shape(self, shape):
        with pytest.raises(ValueError, match="shape must be positive"):
            fractal_noise(shape, seed=0)

    def test_octaves_add_detail(self):
        one = fractal_noise((64, 64), seed=2, octaves=1, base_cells=2)
        many = fractal_noise((64, 64), seed=2, octaves=5, base_cells=2)
        assert np.abs(np.diff(many, axis=1)).mean() > np.abs(
            np.diff(one, axis=1)
        ).mean()


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)

    def test_order_sensitive(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    def test_distinct_inputs_distinct_outputs(self):
        values = {stable_hash("x", i) for i in range(1000)}
        assert len(values) == 1000

    def test_non_negative_63_bit(self):
        value = stable_hash("anything", 42)
        assert 0 <= value < 2**63


def test_seeded_uniform_shape_and_determinism():
    a = seeded_uniform(5, 3, 4)
    b = seeded_uniform(5, 3, 4)
    assert a.shape == (3, 4)
    assert np.array_equal(a, b)


class TestFastpathParity:
    """Every fractal-noise path must be bit-identical: the native field,
    the per-octave numpy sum over separable value noise, and the oracle's
    per-octave sum over ``np.ix_`` gathers — imagery feeds the codec, so a
    single ULP would cascade into metrics."""

    @pytest.mark.parametrize(
        "shape,cells",
        [((64, 64), 4), ((192, 192), 7), ((33, 129), 5), ((3, 3), 1)],
    )
    def test_all_paths_bit_identical(self, shape, cells):
        reference = value_noise_reference(shape, cells, seed=1234)
        assert np.array_equal(reference, value_noise(shape, cells, seed=1234))

    @pytest.mark.parametrize(
        "shape,params",
        [
            ((96, 80), dict(octaves=5)),
            ((256, 256), dict(octaves=5, base_cells=6)),
            ((256, 256), dict(octaves=2, base_cells=2, persistence=0.4)),
            ((64, 48), dict(octaves=3, base_cells=3)),
            ((17, 5), dict(octaves=4, base_cells=9)),
            ((1, 7), dict(octaves=1, base_cells=2)),
            ((3, 3), dict(octaves=6, base_cells=1, lacunarity=2.5)),
        ],
    )
    def test_fractal_paths_bit_identical(self, shape, params, monkeypatch):
        from repro.codec import registry

        with reference_path():
            reference = fractal_noise(shape, seed=77, **params)
        production = fractal_noise(shape, seed=77, **params)
        assert production.tobytes() == reference.tobytes()
        # Pin the numpy sum (kernels gated off) so the native-vs-numpy
        # comparison runs even where the compiled kernels are available.
        monkeypatch.setenv(registry.ENV_BACKEND, "vectorized")
        numpy_sum = fractal_noise(shape, seed=77, **params)
        assert numpy_sum.tobytes() == reference.tobytes()
