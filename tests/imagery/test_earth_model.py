"""Unit tests for the procedural Earth-surface model."""

import pickle

import numpy as np
import pytest
from sim_oracle import reference_path

from repro.errors import ImageryError
from repro.imagery.bands import PLANET_BANDS, SENTINEL2_BANDS
from repro.imagery.earth_model import EarthModel, LocationSpec, TerrainClass


@pytest.fixture(scope="module")
def earth():
    spec = LocationSpec(
        name="unit",
        shape=(128, 128),
        terrain_mix={
            TerrainClass.FOREST: 0.5,
            TerrainClass.RIVER: 0.2,
            TerrainClass.CITY: 0.3,
        },
        seed=42,
    )
    return EarthModel(spec, PLANET_BANDS)


@pytest.fixture(scope="module")
def snowy_earth():
    spec = LocationSpec(
        name="snowy",
        shape=(128, 128),
        terrain_mix={TerrainClass.MOUNTAIN: 1.0},
        seed=43,
        snowy=True,
    )
    return EarthModel(spec, PLANET_BANDS)


class TestLocationSpec:
    def test_rejects_bad_shape(self):
        with pytest.raises(ImageryError):
            LocationSpec(name="x", shape=(0, 10))

    def test_rejects_empty_mix(self):
        with pytest.raises(ImageryError):
            LocationSpec(name="x", terrain_mix={})

    def test_rejects_negative_weights(self):
        with pytest.raises(ImageryError):
            LocationSpec(
                name="x", terrain_mix={TerrainClass.FOREST: -1.0}
            )

    def test_rejects_bad_cell(self):
        with pytest.raises(ImageryError):
            LocationSpec(name="x", change_cell_px=0)


class TestStaticStructure:
    def test_class_map_covers_all_pixels(self, earth):
        class_map = earth.class_map()
        assert class_map.shape == (128, 128)
        assert class_map.min() >= 0
        assert class_map.max() < 3

    def test_all_mixed_classes_present(self, earth):
        class_map = earth.class_map()
        assert len(np.unique(class_map)) == 3

    def test_base_map_range(self, earth):
        for band in PLANET_BANDS:
            base = earth.base_map(band.name)
            assert base.min() >= 0.0 and base.max() <= 1.0

    def test_base_map_cached(self, earth):
        assert earth.base_map("Red") is earth.base_map("Red")

    def test_bands_differ(self, earth):
        assert not np.array_equal(earth.base_map("Red"), earth.base_map("NIR"))

    def test_unknown_band_raises(self, earth):
        with pytest.raises(ImageryError):
            earth.ground_truth("B99", 0.0)

    def test_deterministic_across_instances(self):
        spec = LocationSpec(
            name="det", shape=(64, 64),
            terrain_mix={TerrainClass.FOREST: 1.0}, seed=7,
        )
        a = EarthModel(spec, PLANET_BANDS).ground_truth("Red", 12.0)
        b = EarthModel(spec, PLANET_BANDS).ground_truth("Red", 12.0)
        assert np.array_equal(a, b)


class TestTemporalDynamics:
    def test_t0_equals_base(self, earth):
        assert np.array_equal(
            earth.ground_truth("Red", 0.0), earth.base_map("Red")
        )

    def test_negative_time_rejected(self, earth):
        with pytest.raises(ImageryError):
            earth.ground_truth("Red", -1.0)

    def test_content_changes_accumulate(self, earth):
        g0 = earth.ground_truth("Red", 0.0)
        g90 = earth.ground_truth("Red", 90.0)
        assert not np.array_equal(g0, g90)

    def test_unchanged_tiles_identical(self, earth):
        """Pixels of tiles with no change events must be bit-identical."""
        t0, t1 = 5.0, 15.0
        changed = earth.change_model("Red").changed_between(t0, t1)
        g0 = earth.ground_truth("Red", t0)
        g1 = earth.ground_truth("Red", t1)
        cell = earth.spec.change_cell_px
        for ty, tx in zip(*np.nonzero(~changed)):
            block0 = g0[ty * cell : (ty + 1) * cell, tx * cell : (tx + 1) * cell]
            block1 = g1[ty * cell : (ty + 1) * cell, tx * cell : (tx + 1) * cell]
            assert np.array_equal(block0, block1)

    def test_changed_tiles_clear_theta(self, earth):
        """Genuinely changed tiles must have mean-abs diff above the
        paper's 0.01 threshold (else the change process is untestable)."""
        t0, t1 = 0.0, 60.0
        changed = earth.change_model("Red").changed_between(t0, t1)
        if not changed.any():
            pytest.skip("no changes in window")
        g0 = earth.ground_truth("Red", t0)
        g1 = earth.ground_truth("Red", t1)
        cell = earth.spec.change_cell_px
        diffs = []
        for ty, tx in zip(*np.nonzero(changed)):
            block0 = g0[ty * cell : (ty + 1) * cell, tx * cell : (tx + 1) * cell]
            block1 = g1[ty * cell : (ty + 1) * cell, tx * cell : (tx + 1) * cell]
            diffs.append(float(np.abs(block1 - block0).mean()))
        assert np.median(diffs) > 0.01

    def test_oracle_matches_change_model_when_not_snowy(self, earth):
        oracle = earth.true_changed_tiles("Red", 3.0, 33.0)
        model = earth.change_model("Red").changed_between(3.0, 33.0)
        assert np.array_equal(oracle, model)


class TestSnow:
    def test_non_snowy_has_no_snow(self, earth):
        assert not earth.snow_mask(15.0).any()

    def test_snowy_location_has_winter_snow(self, snowy_earth):
        assert snowy_earth.snow_mask(15.0).any()  # mid-January

    def test_summer_snow_free(self, snowy_earth):
        assert not snowy_earth.snow_mask(200.0).any()  # mid-July

    def test_albedo_fluctuates_daily(self, snowy_earth):
        g_day1 = snowy_earth.ground_truth("Red", 10.0)
        g_day2 = snowy_earth.ground_truth("Red", 11.0)
        snow = snowy_earth.snow_mask(10.0)
        assert not np.array_equal(g_day1[snow], g_day2[snow])

    def test_oracle_counts_snow_as_change(self, snowy_earth):
        oracle = snowy_earth.true_changed_tiles("Red", 10.0, 11.0)
        snow_tiles = snowy_earth._any_pixel_per_cell(
            snowy_earth.snow_mask(10.0)
        )
        assert np.all(oracle[snow_tiles])


class TestWarmCaches:
    """ground_truth's surface, change-cell block and jump-time caches:
    bounded, and invisible in the values it returns."""

    @staticmethod
    def _churning_model() -> EarthModel:
        # Small change cells at high activity: hundreds of distinct
        # version grids and change-cell blocks within half a year.
        spec = LocationSpec(
            name="churn", shape=(64, 64),
            terrain_mix={TerrainClass.MOUNTAIN: 0.5, TerrainClass.CITY: 0.5},
            seed=7, snowy=True, activity=30.0, change_cell_px=16,
        )
        return EarthModel(spec, PLANET_BANDS[:1])

    def test_cached_matches_reference_path_and_stays_bounded(self):
        band = PLANET_BANDS[0].name
        days = [float(day) for day in range(180)]
        oracle = self._churning_model()
        with reference_path():
            expected = [oracle.ground_truth(band, t) for t in days]
        model = self._churning_model()
        changes = model.change_model(band)
        surface_peak = block_peak = 0
        for t_days, reference in zip(days, expected):
            surface = model.ground_truth(band, t_days)
            assert surface.tobytes() == reference.tobytes(), t_days
            surface_peak = max(surface_peak, len(model._surface_cache))
            block_peak = max(block_peak, len(model._block_cache))
        assert surface_peak == EarthModel._SURFACE_CACHE_MAX == 24
        assert block_peak == EarthModel._BLOCK_CACHE_MAX == 512
        # The walk crossed change events and snowy days.
        assert changes.changed_between(days[0], days[-1]).any()
        assert model.snow_mask(days[15]).any()

    def test_pickled_model_starts_cold(self):
        band = PLANET_BANDS[0].name
        model = self._churning_model()
        winter = model.ground_truth(band, 15.0)
        assert model._surface_cache and model._block_cache
        assert model._snow_texture_cache
        assert model.change_model(band)._jumps
        clone = pickle.loads(pickle.dumps(model))
        assert not clone._surface_cache
        assert not clone._block_cache
        assert not clone._snow_texture_cache
        assert not clone.change_model(band)._jumps
        assert clone.ground_truth(band, 15.0).tobytes() == winter.tobytes()


def test_sentinel_band_set_works():
    spec = LocationSpec(
        name="s2", shape=(64, 64),
        terrain_mix={TerrainClass.AGRICULTURE: 1.0}, seed=3,
    )
    earth = EarthModel(spec, SENTINEL2_BANDS)
    for band in ("B1", "B8a", "B12"):
        image = earth.ground_truth(band, 5.0)
        assert image.shape == (64, 64)
