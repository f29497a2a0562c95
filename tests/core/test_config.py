"""Unit tests for configuration objects."""

import pytest

from repro.core.config import DovesSpec, EarthPlusConfig
from repro.errors import ConfigError


class TestDovesSpec:
    def test_table1_defaults(self):
        spec = DovesSpec()
        assert spec.ground_contact_duration_s == 600.0
        assert spec.ground_contacts_per_day == 7
        assert spec.uplink_bps == 250e3
        assert spec.downlink_bps == 200e6
        assert spec.onboard_storage_bytes == 360 * 10**9
        assert spec.image_resolution == (4400, 6600)
        assert spec.image_channels == 4
        assert spec.raw_image_bytes == 150 * 10**6
        assert spec.ground_sampling_distance_m == 3.7

    def test_image_pixels(self):
        assert DovesSpec().image_pixels == 4400 * 6600

    def test_image_area_km2(self):
        """6600x4400 at 3.7 m GSD is ~400 km^2 (paper footnote 3)."""
        assert DovesSpec().image_area_km2 == pytest.approx(397.6, abs=1.0)

    def test_bytes_per_km2_near_paper_estimate(self):
        """Appendix A estimates 0.87 MB/km^2 for ~300 MB double-frame; our
        150 MB single frame gives ~0.38 MB/km^2, same order."""
        assert 0.3e6 < DovesSpec().bytes_per_km2 < 1.0e6

    def test_link_bytes_per_contact(self):
        spec = DovesSpec()
        assert spec.uplink_bytes_per_contact == 18_750_000
        assert spec.downlink_bytes_per_contact == 15_000_000_000


class TestEarthPlusConfig:
    def test_paper_defaults(self):
        config = EarthPlusConfig()
        assert config.tile_size == 64
        assert config.theta == 0.01
        assert config.guaranteed_download_days == 30.0
        assert config.cache_references_onboard
        assert config.delta_reference_updates

    def test_reference_compression_ratio(self):
        config = EarthPlusConfig(reference_downsample=36)
        # 36^2 x 2 bytes / 1 byte = 2592x, the paper's ~2601x point.
        assert config.reference_compression_ratio() == pytest.approx(2592.0)

    def test_with_overrides(self):
        config = EarthPlusConfig().with_overrides(gamma_bpp=1.5)
        assert config.gamma_bpp == 1.5
        assert config.tile_size == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tile_size": 0},
            {"theta": -0.1},
            {"gamma_bpp": 0.0},
            {"reference_downsample": 0},
            {"reference_max_cloud": 1.5},
            {"drop_cloud_fraction": 0.0},
            {"guaranteed_download_days": 0.0},
            {"n_quality_layers": 0},
            {"codec_backend": "kakadu"},
            {"ground_sync_days": -1.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            EarthPlusConfig(**kwargs)

    @pytest.mark.parametrize(
        "backend", ["model", "real", "reference", "vectorized", "compiled"]
    )
    def test_codec_backends_accepted(self, backend):
        assert EarthPlusConfig(codec_backend=backend).codec_backend == backend

    def test_delta_requires_cache(self):
        with pytest.raises(ConfigError):
            EarthPlusConfig(
                cache_references_onboard=False, delta_reference_updates=True
            )

    def test_frozen(self):
        config = EarthPlusConfig()
        with pytest.raises(Exception):
            config.theta = 0.5  # type: ignore[misc]
