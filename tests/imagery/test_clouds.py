"""Unit tests for the cloud climatology and rendering."""

import numpy as np
import pytest

from repro.imagery.bands import get_band
from repro.imagery.clouds import CloudModel, CloudSample
from repro.imagery.earth_model import EarthModel, LocationSpec, TerrainClass
from repro.imagery.illumination import IlluminationSample
from repro.imagery.sensor import render_pixels


@pytest.fixture(scope="module")
def model():
    return CloudModel(seed=12, shape=(96, 96))


@pytest.fixture(scope="module")
def city():
    """City ground reads between the bands' cloud tops: darker than B4's
    bright tops, brighter than B11's cold ones."""
    spec = LocationSpec(
        name="city",
        shape=(96, 96),
        terrain_mix={TerrainClass.CITY: 1.0},
        seed=3,
    )
    return EarthModel(spec, (get_band("B4"), get_band("B11")))


class TestCoverageProcess:
    def test_deterministic(self, model):
        assert model.coverage_at(5.5) == model.coverage_at(5.5)

    def test_range(self, model):
        for t in np.linspace(0, 100, 60):
            assert 0.0 <= model.coverage_at(float(t)) <= 1.0

    def test_clear_probability_controls_clear_rate(self):
        always_clear = CloudModel(seed=1, shape=(8, 8), clear_probability=1.0)
        coverages = [always_clear.coverage_at(float(t)) for t in range(50)]
        assert max(coverages) < 0.01

    def test_mean_coverage_roughly_two_thirds(self, model):
        """§3 cites ~2/3 of Earth cloud-covered on average."""
        coverages = [model.coverage_at(float(t)) for t in range(400)]
        assert 0.35 <= float(np.mean(coverages)) <= 0.75

    def test_bimodal_distribution(self, model):
        """Captures should usually be mostly-clear or mostly-overcast."""
        coverages = np.array([model.coverage_at(float(t)) for t in range(400)])
        middle = np.mean((coverages > 0.35) & (coverages < 0.65))
        assert middle < 0.30

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CloudModel(seed=0, shape=(4, 4), clear_probability=1.5)
        with pytest.raises(ValueError):
            CloudModel(seed=0, shape=(4, 4), mean_cloudy_coverage=0.0)


class TestSampling:
    def test_mask_matches_coverage(self, model):
        sample = model.sample(3.0)
        assert sample.mask.mean() == pytest.approx(sample.coverage, abs=0.02)

    def test_thickness_zero_outside_mask(self, model):
        sample = model.sample(7.0)
        assert np.all(sample.thickness[~sample.mask] == 0.0)

    def test_thickness_positive_inside_mask(self, model):
        sample = model.sample(2.0)
        if sample.mask.any():
            assert np.all(sample.thickness[sample.mask] > 0.0)

    def test_deterministic(self, model):
        a, b = model.sample(9.0), model.sample(9.0)
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.thickness, b.thickness)


class TestRendering:
    """Every band of a capture composites the same cloud sample
    (``render_pixels``; noise-free, under light that leaves the surface
    as it is)."""

    @staticmethod
    def _render(earth, sample, t_days=4.0):
        neutral = IlluminationSample(gain=1.0, offset=0.0)
        return render_pixels(earth, earth.bands, t_days, sample, neutral)

    def test_clear_sample_is_identity(self, city):
        clear = CloudSample(
            0.0,
            np.zeros((96, 96), dtype=bool),
            np.zeros((96, 96)),
        )
        for name, out in self._render(city, clear).items():
            assert np.array_equal(out, city.ground_truth(name, 4.0))

    def test_visible_band_brightens(self, model, city):
        sample = model.sample(4.0)
        if not sample.mask.any():
            pytest.skip("clear day sampled")
        out = self._render(city, sample)["B4"]
        surface = city.ground_truth("B4", 4.0)
        assert out[sample.mask].mean() > surface[sample.mask].mean()

    def test_cold_band_darkens(self, model, city):
        sample = model.sample(4.0)
        if not sample.mask.any():
            pytest.skip("clear day sampled")
        out = self._render(city, sample)["B11"]
        surface = city.ground_truth("B11", 4.0)
        assert out[sample.mask].mean() < surface[sample.mask].mean()

    def test_clear_pixels_untouched(self, model, city):
        sample = model.sample(4.0)
        for name, out in self._render(city, sample).items():
            surface = city.ground_truth(name, 4.0)
            assert np.array_equal(out[~sample.mask], surface[~sample.mask])

    def test_input_not_modified(self, model, city):
        """Bands render over fresh ground-truth arrays, never the cached
        surfaces they are copied from."""
        before = {name: city.ground_truth(name, 1.0) for name in ("B4", "B11")}
        self._render(city, model.sample(1.0), t_days=1.0)
        for name, surface in before.items():
            assert np.array_equal(city.ground_truth(name, 1.0), surface)
