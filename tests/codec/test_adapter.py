"""Tests for the real-codec adapter and model/real parity."""

import numpy as np
import pytest

from repro.codec.adapter import RealCodecAdapter
from repro.codec.jpeg2000 import CodecConfig
from repro.codec.ratemodel import RateModel
from repro.errors import RateControlError
from repro.imagery.noise import fractal_noise


@pytest.fixture(scope="module")
def image():
    return fractal_noise((128, 128), seed=61, octaves=5, base_cells=4)


@pytest.fixture(scope="module")
def adapter():
    return RealCodecAdapter(CodecConfig(tile_size=64, levels=3))


class TestAdapterInterface:
    def test_encode_returns_real_bytes(self, adapter, image):
        result = adapter.encode(image, base_step=1 / 512)
        assert result.coded_bytes > 0
        assert result.payload_bytes <= result.coded_bytes
        assert result.roi_pixels == image.size

    def test_roi_restriction(self, adapter, image):
        roi = np.zeros((2, 2), dtype=bool)
        roi[0, 0] = True
        result = adapter.encode(image, base_step=1 / 512, roi=roi)
        assert result.roi_pixels == 64 * 64
        full = adapter.encode(image, base_step=1 / 512)
        assert result.coded_bytes < full.coded_bytes

    def test_budget_met_by_truncation(self, adapter, image):
        for target in (1000, 3000):
            result = adapter.find_step_for_bytes(image, target)
            # Container overhead is real; allow a small header margin.
            assert result.payload_bytes <= target

    def test_quality_grows_with_budget(self, adapter, image):
        small = adapter.find_step_for_bytes(image, 800)
        large = adapter.find_step_for_bytes(image, 6000)
        assert large.psnr_roi > small.psnr_roi

    def test_rejects_nonpositive_budget(self, adapter, image):
        with pytest.raises(RateControlError):
            adapter.find_step_for_bytes(image, 0)


class TestModelRealParity:
    """The fast rate model must track the real codec."""

    def test_fixed_step_bytes_within_tolerance(self, adapter, image):
        model = RateModel(CodecConfig(tile_size=64, levels=3))
        for step in (1 / 128, 1 / 1024):
            real = adapter.encode(image, base_step=step)
            fast = model.encode(image, base_step=step)
            assert 0.6 * real.coded_bytes <= fast.coded_bytes <= 1.4 * real.coded_bytes

    def test_fixed_step_psnr_close(self, adapter, image):
        model = RateModel(CodecConfig(tile_size=64, levels=3))
        real = adapter.encode(image, base_step=1 / 512)
        fast = model.encode(image, base_step=1 / 512)
        assert abs(real.psnr_roi - fast.psnr_roi) < 1.0


class TestRealBackendPipeline:
    def test_earthplus_encoder_on_real_codec(
        self, two_bands, onboard_detector, tiny_sentinel_dataset
    ):
        """The whole on-board pipeline runs on genuine bitstreams."""
        from repro.core.config import EarthPlusConfig
        from repro.core.encoder import EarthPlusEncoder
        from repro.core.reference import OnboardReferenceCache

        encoder = EarthPlusEncoder(
            config=EarthPlusConfig(gamma_bpp=0.3, codec_backend="real"),
            bands=tiny_sentinel_dataset.bands,
            image_shape=tiny_sentinel_dataset.image_shape,
            cloud_detector=onboard_detector,
            cache=OnboardReferenceCache(lr_tile=8),
        )
        sensor = tiny_sentinel_dataset.sensors["A"]
        t = 0.0
        while t < 200:
            capture = sensor.capture(0, t)
            if capture.cloud_coverage < 0.05:
                break
            t += 1.7
        result = encoder.process_capture(capture)
        assert not result.dropped
        assert result.total_bytes > 0
        for band in result.bands:
            assert np.isfinite(band.psnr_downloaded)
            # Plane-granular truncation at ~0.3 bpp budgets: quality is
            # coarser than the model path but must stay usable.
            assert band.psnr_downloaded > 20.0

    def test_model_and_real_pipeline_agree(
        self, onboard_detector, tiny_sentinel_dataset
    ):
        """Same capture, both backends: bytes within tolerance."""
        from repro.core.config import EarthPlusConfig
        from repro.core.encoder import EarthPlusEncoder
        from repro.core.reference import OnboardReferenceCache

        sensor = tiny_sentinel_dataset.sensors["A"]
        t = 0.0
        while t < 200:
            capture = sensor.capture(0, t)
            if capture.cloud_coverage < 0.05:
                break
            t += 1.7
        totals = {}
        for backend in ("model", "real"):
            encoder = EarthPlusEncoder(
                config=EarthPlusConfig(gamma_bpp=0.3, codec_backend=backend),
                bands=tiny_sentinel_dataset.bands,
                image_shape=tiny_sentinel_dataset.image_shape,
                cloud_detector=onboard_detector,
                cache=OnboardReferenceCache(lr_tile=8),
            )
            totals[backend] = encoder.process_capture(capture).total_bytes
        ratio = totals["real"] / totals["model"]
        assert 0.5 < ratio < 2.0

    def test_oracle_and_compiled_pipeline_identical(
        self, onboard_detector, tiny_sentinel_dataset
    ):
        """The compiled engine is bit-exact against the per-bit oracle
        coder through the whole pipeline: identical byte counts and
        identical PSNR, not merely 'close'."""
        from codec_oracle import ORACLE_ENGINE, reference_engine

        from repro.core.config import EarthPlusConfig
        from repro.core.encoder import EarthPlusEncoder
        from repro.core.reference import OnboardReferenceCache

        sensor = tiny_sentinel_dataset.sensors["A"]
        t = 0.0
        while t < 200:
            capture = sensor.capture(0, t)
            if capture.cloud_coverage < 0.05:
                break
            t += 1.7
        results = {}
        with reference_engine():
            for backend in (ORACLE_ENGINE, "compiled"):
                config = EarthPlusConfig(gamma_bpp=0.3, codec_backend="real")
                encoder = EarthPlusEncoder(
                    config=config,
                    bands=tiny_sentinel_dataset.bands,
                    image_shape=tiny_sentinel_dataset.image_shape,
                    cloud_detector=onboard_detector,
                    cache=OnboardReferenceCache(lr_tile=8),
                )
                # "real" names the compiled engine; pin each engine on the
                # codec the config built.
                encoder.rate.rate_model = RealCodecAdapter(
                    CodecConfig(tile_size=config.tile_size), backend=backend
                )
                results[backend] = encoder.process_capture(capture)
        ref, fast = results[ORACLE_ENGINE], results["compiled"]
        assert ref.total_bytes == fast.total_bytes
        for band_ref, band_fast in zip(ref.bands, fast.bands):
            assert band_ref.bytes_downlinked == band_fast.bytes_downlinked
            assert band_ref.psnr_downloaded == band_fast.psnr_downloaded
            assert np.array_equal(
                band_ref.reconstruction, band_fast.reconstruction
            )
