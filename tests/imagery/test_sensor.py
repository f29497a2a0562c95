"""Unit tests for the satellite sensor/capture model."""

import pickle
import weakref

import numpy as np
import pytest

from sim_oracle import render_pixels_reference

from repro.codec import registry
from repro.errors import ImageryError
from repro.imagery import sensor as sensor_module
from repro.imagery.bands import PLANET_BANDS
from repro.imagery.clouds import CloudSample
from repro.imagery.earth_model import EarthModel, LocationSpec, TerrainClass
from repro.imagery.sensor import SatelliteSensor, render_pixels


@pytest.fixture(scope="module")
def sensor():
    spec = LocationSpec(
        name="cap",
        shape=(128, 128),
        terrain_mix={TerrainClass.FOREST: 0.6, TerrainClass.CITY: 0.4},
        seed=55,
    )
    earth = EarthModel(spec, PLANET_BANDS)
    return SatelliteSensor(earth=earth, bands=PLANET_BANDS)


class TestRenderPaths:
    """The native band render, its numpy fallback and the oracle's
    per-pass render agree byte for byte, cloudy or clear, with or
    without sensor noise."""

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.002])
    @pytest.mark.parametrize("cloudy", [True, False])
    def test_paths_bit_identical(self, sensor, cloudy, noise_sigma, monkeypatch):
        t_days = next(
            float(t) for t in range(1, 200)
            if 0.2 < sensor.cloud_model.coverage_at(float(t)) < 0.8
        )
        cloud = sensor.cloud_model.sample(t_days)
        if not cloudy:
            clear = np.zeros(cloud.mask.shape, dtype=bool)
            cloud = CloudSample(0.0, clear, np.zeros(clear.shape))
        args = (
            sensor.earth,
            sensor.bands,
            t_days,
            cloud,
            sensor.illumination_model.sample(t_days),
        )
        options = dict(noise_sigma=noise_sigma, satellite_id=2)
        expected = render_pixels_reference(*args, **options)
        production = render_pixels(*args, **options)
        # Pin the numpy render (kernels gated off) so the native-vs-numpy
        # comparison runs even where the compiled kernels are available.
        monkeypatch.setenv(registry.ENV_BACKEND, "vectorized")
        numpy_render = render_pixels(*args, **options)
        for name, pixels in expected.items():
            assert production[name].tobytes() == pixels.tobytes(), name
            assert numpy_render[name].tobytes() == pixels.tobytes(), name


class TestCapture:
    def test_all_bands_present(self, sensor):
        capture = sensor.capture(0, 5.0)
        assert set(capture.pixels) == {b.name for b in PLANET_BANDS}
        assert capture.band_names() == [b.name for b in PLANET_BANDS]

    def test_pixel_range(self, sensor):
        capture = sensor.capture(0, 5.0)
        for image in capture.pixels.values():
            assert image.min() >= 0.0 and image.max() <= 1.0

    def test_shape_property(self, sensor):
        assert sensor.capture(1, 2.0).shape == (128, 128)

    def test_metadata_fields(self, sensor):
        capture = sensor.capture(3, 7.5)
        assert capture.satellite_id == 3
        assert capture.t_days == 7.5
        assert capture.location == "cap"
        assert 0.0 <= capture.cloud_coverage <= 1.0

    def test_deterministic(self, sensor):
        a = sensor.capture(0, 9.0)
        b = sensor.capture(0, 9.0)
        for band in a.pixels:
            assert np.array_equal(a.pixels[band], b.pixels[band])

    def test_negative_time_rejected(self, sensor):
        with pytest.raises(ImageryError):
            sensor.capture(0, -0.1)

    def test_cloud_shared_across_bands(self, sensor):
        """One atmosphere per pass: the cloud mask is band-independent."""
        capture = sensor.capture(0, 5.0)
        assert capture.cloud.mask.shape == (128, 128)

    def test_sensor_noise_differs_between_satellites(self, sensor):
        a = sensor.capture(0, 5.0)
        b = sensor.capture(1, 5.0)
        # Same scene + clouds + illumination, different noise realization.
        assert not np.array_equal(a.pixels["Red"], b.pixels["Red"])
        assert np.abs(a.pixels["Red"] - b.pixels["Red"]).mean() < 0.01

    def test_noise_free_mode(self):
        spec = LocationSpec(
            name="clean", shape=(64, 64),
            terrain_mix={TerrainClass.FOREST: 1.0}, seed=8,
        )
        earth = EarthModel(spec, PLANET_BANDS)
        sensor = SatelliteSensor(earth=earth, bands=PLANET_BANDS, noise_sigma=0.0)
        a = sensor.capture(0, 5.0)
        b = sensor.capture(1, 5.0)
        for band in a.pixels:
            assert np.array_equal(a.pixels[band], b.pixels[band])

    def test_rejects_negative_noise(self):
        spec = LocationSpec(
            name="bad", shape=(32, 32),
            terrain_mix={TerrainClass.FOREST: 1.0}, seed=9,
        )
        earth = EarthModel(spec, PLANET_BANDS)
        with pytest.raises(ImageryError):
            SatelliteSensor(earth=earth, bands=PLANET_BANDS, noise_sigma=-1.0)

    def test_cloudy_capture_brighter_in_visible(self, sensor):
        """Find a heavily cloudy time and check the visible band rose."""
        for t in np.arange(0.0, 60.0, 1.7):
            capture = sensor.capture(0, float(t))
            if capture.cloud_coverage > 0.6:
                clear_surface = sensor.earth.ground_truth("Red", float(t))
                lit = capture.illumination.apply(clear_surface)
                cloudy_mean = capture.pixels["Red"][capture.cloud.mask].mean()
                assert cloudy_mean > lit[capture.cloud.mask].mean()
                return
        pytest.skip("no heavily cloudy capture in the window")


def _small_sensor(seed: int) -> SatelliteSensor:
    spec = LocationSpec(
        name=f"cache{seed}", shape=(48, 48),
        terrain_mix={TerrainClass.FOREST: 1.0}, seed=seed,
    )
    return SatelliteSensor(
        earth=EarthModel(spec, PLANET_BANDS), bands=PLANET_BANDS
    )


class TestCaptureCache:
    """The warm-state capture cache and its two byte budgets."""

    @pytest.fixture(autouse=True)
    def _isolated(self, monkeypatch):
        # Default budgets, and a private registry of caching sensors so
        # the process-wide ceiling sees only this test's sensors.
        for var in ("REPRO_CAPTURE_CACHE_MB", "REPRO_CAPTURE_CACHE_TOTAL_MB"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(
            sensor_module, "_CACHING_SENSORS", weakref.WeakValueDictionary()
        )

    @staticmethod
    def _budget(monkeypatch, var: str, captures: float, sample) -> int:
        """Set ``var`` to ``captures`` captures' worth; return one's bytes."""
        nbytes = SatelliteSensor._capture_nbytes(sample)
        monkeypatch.setenv(var, repr(captures * nbytes / 1e6))
        return nbytes

    def test_repeat_returns_cached_read_only(self):
        sensor = _small_sensor(61)
        first = sensor.capture(0, 5.0)
        assert sensor.capture(0, 5.0) is first
        for array in SatelliteSensor._capture_arrays(first):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            first.pixels["Red"][0, 0] = 0.5

    def test_zero_budget_renders_fresh(self, monkeypatch):
        sensor = _small_sensor(62)
        cached = sensor.capture(0, 5.0)
        monkeypatch.setenv("REPRO_CAPTURE_CACHE_MB", "0")
        fresh = sensor.capture(0, 5.0)
        assert fresh is not cached
        assert sensor.capture(0, 5.0) is not fresh
        for band, pixels in cached.pixels.items():
            assert fresh.pixels[band].tobytes() == pixels.tobytes()
        assert list(sensor._capture_cache) == [(0, 5.0)]

    def test_sensor_budget_admits_while_capture_fits(self, monkeypatch):
        sensor = _small_sensor(63)
        first = sensor.capture(0, 1.0)
        nbytes = self._budget(
            monkeypatch, "REPRO_CAPTURE_CACHE_MB", 2.5, first
        )
        second = sensor.capture(0, 2.0)
        assert list(sensor._capture_cache) == [(0, 1.0), (0, 2.0)]
        assert sensor._capture_cache_bytes == 2 * nbytes
        assert sensor.capture(0, 1.0) is first
        assert sensor.capture(0, 2.0) is second

    def test_sensor_budget_refuses_once_full(self, monkeypatch):
        sensor = _small_sensor(67)
        sample = sensor.capture(0, 1.0)
        nbytes = self._budget(
            monkeypatch, "REPRO_CAPTURE_CACHE_MB", 2.5, sample
        )
        sensor.capture(0, 2.0)
        uncached = sensor.capture(0, 3.0)  # a third would not fit
        assert list(sensor._capture_cache) == [(0, 1.0), (0, 2.0)]
        assert sensor._capture_cache_bytes == 2 * nbytes
        assert sensor.capture(0, 3.0) is not uncached
        for array in SatelliteSensor._capture_arrays(uncached):
            assert array.flags.writeable
        # The cached entries stay, however often the refused one recurs.
        assert sensor.capture(0, 1.0) is sample

    def test_lowered_budget_shrinks_before_serving(self, monkeypatch):
        sensor = _small_sensor(68)
        sample = sensor.capture(0, 1.0)
        for t_days in (2.0, 3.0):
            sensor.capture(0, t_days)
        nbytes = self._budget(
            monkeypatch, "REPRO_CAPTURE_CACHE_MB", 1.5, sample
        )
        # Even a hit leaves the cache inside the budget it was read at.
        sensor.capture(0, 3.0)
        assert list(sensor._capture_cache) == [(0, 3.0)]
        assert sensor._capture_cache_bytes == nbytes

    def test_cyclic_scans_render_only_what_does_not_fit(self, monkeypatch):
        # Runs over one dataset repeat the same time-ordered scan.  With
        # room for k of n captures, the first scan renders n and every
        # later one only the n - k that did not fit (LRU renders all n
        # on every scan).
        sensor = _small_sensor(69)
        n, k = 6, 4
        self._budget(
            monkeypatch, "REPRO_CAPTURE_CACHE_MB", k + 0.5,
            sensor._render_capture(0, 0.0),
        )
        rendered: list[float] = []
        render = sensor._render_capture

        def counting(satellite_id, t_days):
            rendered.append(t_days)
            return render(satellite_id, t_days)

        monkeypatch.setattr(sensor, "_render_capture", counting)
        for _ in range(3):
            for t_days in range(1, n + 1):
                sensor.capture(0, float(t_days))
        assert len(rendered) == n + 2 * (n - k)
        assert len(sensor._capture_cache) == k

    def test_total_budget_evicts_from_largest_cache(self, monkeypatch):
        hoarder, inserter = _small_sensor(64), _small_sensor(65)
        for t_days in (1.0, 2.0, 3.0):
            hoarder.capture(0, t_days)
        sample = inserter.capture(0, 1.0)
        nbytes = self._budget(
            monkeypatch, "REPRO_CAPTURE_CACHE_TOTAL_MB", 4.5, sample
        )
        inserter.capture(0, 2.0)  # 5 captures > 4.5: reclaim one
        assert list(hoarder._capture_cache) == [(0, 2.0), (0, 3.0)]
        assert list(inserter._capture_cache) == [(0, 1.0), (0, 2.0)]
        assert sensor_module._global_capture_cache_bytes() == 4 * nbytes

    def test_pickled_sensor_starts_cold(self):
        sensor = _small_sensor(66)
        warm = sensor.capture(0, 5.0)
        clone = pickle.loads(pickle.dumps(sensor))
        assert not clone._capture_cache and clone._capture_cache_bytes == 0
        assert not clone.earth._surface_cache
        assert not clone.earth._block_cache
        assert list(sensor._capture_cache) == [(0, 5.0)]
        assert sensor.earth._surface_cache
        for band, pixels in clone.capture(0, 5.0).pixels.items():
            assert pixels.tobytes() == warm.pixels[band].tobytes()


class TestCacheBudgetEnv:
    @pytest.mark.parametrize(
        "var", ["REPRO_CAPTURE_CACHE_MB", "REPRO_CAPTURE_CACHE_TOTAL_MB"]
    )
    @pytest.mark.parametrize(
        "value", ["inf", "1e400", "-inf", "nan", "lots", "-1"]
    )
    def test_bad_budget_names_variable(self, monkeypatch, var, value):
        read = {
            "REPRO_CAPTURE_CACHE_MB": sensor_module.capture_cache_bytes,
            "REPRO_CAPTURE_CACHE_TOTAL_MB": (
                sensor_module.capture_cache_total_bytes
            ),
        }[var]
        monkeypatch.setenv(var, value)
        with pytest.raises(ValueError, match=f"{var}=.* megabyte count"):
            read()
