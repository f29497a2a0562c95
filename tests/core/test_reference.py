"""Unit and property tests for reference management."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reference import (
    GroundMosaic,
    OnboardReferenceCache,
    ReferenceUpdate,
    dequantize_reference,
    downsample_image,
    quantize_reference,
    upsample_image,
)
from repro.errors import ReferenceError_


class TestResampling:
    def test_downsample_shape(self):
        assert downsample_image(np.zeros((64, 64)), 8).shape == (8, 8)

    def test_downsample_ragged(self):
        assert downsample_image(np.zeros((65, 63)), 8).shape == (9, 8)

    def test_downsample_is_block_mean(self):
        image = np.arange(16, dtype=np.float64).reshape(4, 4)
        lr = downsample_image(image, 2)
        assert lr[0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)

    def test_ratio_one_identity(self, rng):
        image = rng.random((8, 8))
        assert np.array_equal(downsample_image(image, 1), image)

    def test_upsample_restores_shape(self, rng):
        lr = rng.random((8, 8))
        up = upsample_image(lr, 8, (64, 64))
        assert up.shape == (64, 64)
        assert np.all(up[:8, :8] == lr[0, 0])

    def test_upsample_ragged_target(self, rng):
        up = upsample_image(rng.random((9, 8)), 8, (65, 63))
        assert up.shape == (65, 63)

    def test_down_up_preserves_means(self, rng):
        image = rng.random((64, 64))
        roundtrip = upsample_image(downsample_image(image, 8), 8, (64, 64))
        assert abs(roundtrip.mean() - image.mean()) < 0.01

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ReferenceError_):
            downsample_image(np.zeros((4, 4)), 0)
        with pytest.raises(ReferenceError_):
            upsample_image(np.zeros((4, 4)), 0, (8, 8))

    def test_quantize_roundtrip_error_bounded(self, rng):
        image = rng.random((16, 16))
        restored = dequantize_reference(quantize_reference(image))
        assert np.abs(restored - image).max() <= 0.5 / 255 + 1e-9


class TestReferenceUpdateWire:
    def test_full_update_roundtrip(self, rng):
        update = ReferenceUpdate(
            location="loc", band="B4", t_days=3.25, full=True,
            lr_shape=(8, 8), tile_indices=[],
            payload=rng.integers(0, 256, 64).astype(np.uint8),
            lr_tile=4,
            validity=rng.random((8, 8)) > 0.3,
        )
        parsed = ReferenceUpdate.from_bytes(update.to_bytes())
        assert parsed.location == "loc"
        assert parsed.band == "B4"
        assert parsed.t_days == pytest.approx(3.25, abs=1e-3)
        assert parsed.full
        assert np.array_equal(parsed.payload, update.payload)
        assert np.array_equal(parsed.validity, update.validity)

    def test_delta_update_roundtrip(self, rng):
        update = ReferenceUpdate(
            location="x", band="NIR", t_days=1.0, full=False,
            lr_shape=(8, 8), tile_indices=[(0, 1), (1, 0)],
            payload=rng.integers(0, 256, 32).astype(np.uint8),
            lr_tile=4, validity=np.ones((8, 8), dtype=bool),
        )
        parsed = ReferenceUpdate.from_bytes(update.to_bytes())
        assert parsed.tile_indices == [(0, 1), (1, 0)]
        assert not parsed.full

    def test_n_bytes_matches_serialization(self, rng):
        update = ReferenceUpdate(
            location="a", band="b", t_days=0.0, full=True,
            lr_shape=(4, 4), tile_indices=[],
            payload=np.zeros(16, dtype=np.uint8), lr_tile=4,
        )
        assert update.n_bytes == len(update.to_bytes())


class TestOnboardCache:
    def test_full_then_get(self, rng):
        cache = OnboardReferenceCache(lr_tile=4)
        reference = rng.random((8, 8))
        cache.apply_update(cache.build_update("L", "B", 1.0, reference))
        t_days, stored = cache.get("L", "B")
        assert t_days == 1.0
        assert np.abs(stored - reference).max() <= 0.5 / 255 + 1e-9

    def test_missing_reference_raises(self):
        cache = OnboardReferenceCache()
        assert not cache.has("L", "B")
        with pytest.raises(ReferenceError_):
            cache.get("L", "B")
        with pytest.raises(ReferenceError_):
            cache.get_validity("L", "B")

    def test_age(self, rng):
        cache = OnboardReferenceCache(lr_tile=4)
        cache.apply_update(cache.build_update("L", "B", 2.0, rng.random((8, 8))))
        assert cache.age_days("L", "B", 10.0) == pytest.approx(8.0)

    def test_identical_reference_no_update(self, rng):
        cache = OnboardReferenceCache(lr_tile=4)
        reference = rng.random((8, 8))
        cache.apply_update(cache.build_update("L", "B", 1.0, reference))
        assert cache.build_update("L", "B", 2.0, reference) is None

    def test_delta_smaller_than_full(self, rng):
        cache = OnboardReferenceCache(lr_tile=4)
        reference = rng.random((16, 16))
        cache.apply_update(cache.build_update("L", "B", 1.0, reference))
        changed = reference.copy()
        changed[0:4, 0:4] = rng.random((4, 4))
        delta = cache.build_update("L", "B", 2.0, changed)
        full = cache.build_update("L", "B", 2.0, changed, delta=False)
        assert not delta.full
        assert delta.n_bytes < full.n_bytes

    def test_delta_equals_full_apply(self, rng):
        """Invariant: applying the delta reproduces the full reference."""
        cache_a = OnboardReferenceCache(lr_tile=4)
        cache_b = OnboardReferenceCache(lr_tile=4)
        reference = rng.random((16, 16))
        for cache in (cache_a, cache_b):
            cache.apply_update(cache.build_update("L", "B", 1.0, reference))
        changed = reference.copy()
        changed[4:12, 8:16] = rng.random((8, 8))
        cache_a.apply_update(cache_a.build_update("L", "B", 2.0, changed))
        cache_b.apply_update(
            cache_b.build_update("L", "B", 2.0, changed, delta=False)
        )
        assert np.array_equal(cache_a.get("L", "B")[1], cache_b.get("L", "B")[1])

    def test_delta_for_uncached_rejected(self, rng):
        cache = OnboardReferenceCache(lr_tile=4)
        update = ReferenceUpdate(
            location="L", band="B", t_days=1.0, full=False,
            lr_shape=(8, 8), tile_indices=[(0, 0)],
            payload=np.zeros(16, dtype=np.uint8), lr_tile=4,
        )
        with pytest.raises(ReferenceError_):
            cache.apply_update(update)

    def test_validity_updates_propagate(self, rng):
        cache = OnboardReferenceCache(lr_tile=4)
        reference = rng.random((8, 8))
        validity = np.zeros((8, 8), dtype=bool)
        validity[:4] = True
        cache.apply_update(
            cache.build_update("L", "B", 1.0, reference, validity=validity)
        )
        assert np.array_equal(cache.get_validity("L", "B"), validity)
        # Validity-only change still produces an update.
        update = cache.build_update(
            "L", "B", 2.0, reference, validity=np.ones((8, 8), dtype=bool)
        )
        assert update is not None
        cache.apply_update(update)
        assert cache.get_validity("L", "B").all()

    def test_storage_bytes(self, rng):
        cache = OnboardReferenceCache(lr_tile=4)
        cache.apply_update(cache.build_update("L", "B", 1.0, rng.random((8, 8))))
        cache.apply_update(cache.build_update("L", "C", 1.0, rng.random((8, 8))))
        assert cache.storage_bytes() == 128

    def test_invalid_lr_tile_rejected(self):
        with pytest.raises(ReferenceError_):
            OnboardReferenceCache(lr_tile=0)


class TestGroundMosaic:
    def test_ingest_and_read(self, rng):
        mosaic = GroundMosaic((64, 64), 32)
        image = rng.random((64, 64))
        tiles = np.ones((2, 2), dtype=bool)
        mosaic.ingest_tiles("L", "B", 1.0, image, tiles)
        assert np.array_equal(mosaic.image("L", "B"), image)
        assert mosaic.filled_mask("L", "B").all()

    def test_missing_content_raises(self):
        mosaic = GroundMosaic((64, 64), 32)
        assert not mosaic.has("L", "B")
        with pytest.raises(ReferenceError_):
            mosaic.image("L", "B")
        with pytest.raises(ReferenceError_):
            mosaic.tile_ages("L", "B", 0.0)

    def test_partial_ingest_keeps_other_tiles(self, rng):
        mosaic = GroundMosaic((64, 64), 32)
        first = rng.random((64, 64))
        mosaic.ingest_tiles("L", "B", 1.0, first, np.ones((2, 2), dtype=bool))
        second = rng.random((64, 64))
        only_one = np.zeros((2, 2), dtype=bool)
        only_one[0, 0] = True
        mosaic.ingest_tiles("L", "B", 2.0, second, only_one)
        image = mosaic.image("L", "B")
        assert np.array_equal(image[:32, :32], second[:32, :32])
        assert np.array_equal(image[32:, 32:], first[32:, 32:])
        ages = mosaic.tile_ages("L", "B", 3.0)
        assert ages[0, 0] == pytest.approx(1.0)
        assert ages[1, 1] == pytest.approx(2.0)

    def test_pixel_valid_masking(self, rng):
        mosaic = GroundMosaic((64, 64), 32)
        first = np.zeros((64, 64))
        mosaic.ingest_tiles("L", "B", 1.0, first, np.ones((2, 2), dtype=bool))
        second = np.ones((64, 64))
        valid = np.zeros((64, 64), dtype=bool)
        valid[:16, :16] = True
        mosaic.ingest_tiles(
            "L", "B", 2.0, second, np.ones((2, 2), dtype=bool), valid
        )
        image = mosaic.image("L", "B")
        assert np.all(image[:16, :16] == 1.0)
        assert np.all(image[16:, :] == 0.0)

    def test_reference_lr_averages_filled_only(self):
        mosaic = GroundMosaic((64, 64), 32)
        image = np.full((64, 64), 0.8)
        valid = np.zeros((64, 64), dtype=bool)
        valid[:, :32] = True
        mosaic.ingest_tiles("L", "B", 1.0, image, np.ones((2, 2), dtype=bool), valid)
        lr, validity = mosaic.low_res_reference("L", "B", 32)
        assert lr[0, 0] == pytest.approx(0.8)  # left half filled
        assert validity[0, 0] and validity[0, 1] is not None
        # Right half has no filled pixels at all -> invalid.
        assert not validity[0, 1]


@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 4),
    st.integers(8, 24),
)
@settings(max_examples=30, deadline=None)
def test_property_delta_equals_full(seed, lr_tile, size):
    """Delta application always reconstructs the exact new reference."""
    rng = np.random.default_rng(seed)
    cache = OnboardReferenceCache(lr_tile=lr_tile)
    ref1 = rng.random((size, size))
    cache.apply_update(cache.build_update("L", "B", 1.0, ref1))
    ref2 = ref1.copy()
    # Mutate a random sub-rectangle.
    y0, x0 = rng.integers(0, size, 2)
    y1 = int(min(size, y0 + rng.integers(1, size)))
    x1 = int(min(size, x0 + rng.integers(1, size)))
    ref2[y0:y1, x0:x1] = rng.random((y1 - y0, x1 - x0))
    update = cache.build_update("L", "B", 2.0, ref2, tolerance=0)
    if update is not None:
        cache.apply_update(update)
    _, stored = cache.get("L", "B")
    assert np.array_equal(
        quantize_reference(ref2), quantize_reference(stored)
    )
