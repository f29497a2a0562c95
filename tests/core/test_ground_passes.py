"""The ground segment's whole-array passes against their per-element oracles.

Each pass replaced a per-element implementation that now lives in
``tests/sim_oracle.py`` (the reference path's stand-ins).  The scenario
differentials only reach the shapes the simulations use, so these
properties also cover what the workloads never do: image sides not
divisible by the downsample ratio, low-res sides not divisible by the
delta tile, all-true and all-false validity, differences exactly at the
1-LSB tolerance, negative zeros, and bands with and without a cloud-cold
band.  Every comparison is byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sim_oracle import (
    band_mean_reference,
    cloud_features_reference,
    delta_tiles_per_tile,
    edge_blocks_reference,
    low_res_reference_two_pass,
    read_bitmap_per_bit,
    reference_path,
    write_bitmap_per_bit,
)

from repro.codec.bitstream import BitReader, BitWriter
from repro.core import cloud, reference
from repro.core.cloud import cloud_features
from repro.core.reference import (
    GroundMosaic,
    OnboardReferenceCache,
    downsample_image,
    downsample_many,
)
from repro.core.tiles import TileGrid
from repro.errors import BitstreamError
from repro.imagery.bands import get_band

SETTINGS = settings(max_examples=40, deadline=None)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes (so -0.0 differs from 0.0)."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _image(rng, shape, layout):
    """A test image in one of the memory layouts callers may pass."""
    if layout == "float64":
        return rng.random(shape)
    if layout == "strided":
        return rng.random((shape[0], 2 * shape[1]))[:, ::2]
    if layout == "float32":
        return rng.random(shape).astype(np.float32)
    return rng.random(shape) > 0.5


class TestBlockMeans:
    @given(
        seed=st.integers(0, 2**32 - 1),
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        ratio=st.integers(2, 9),
        layout=st.sampled_from(["float64", "strided", "float32", "bool"]),
    )
    @SETTINGS
    def test_downsample_matches_padded_copy(
        self, seed, height, width, ratio, layout
    ):
        image = _image(np.random.default_rng(seed), (height, width), layout)
        expected = edge_blocks_reference(image, ratio).mean(axis=(1, 3))
        assert _same(downsample_image(image, ratio), expected)
        stack = np.stack([image, image[::-1]])
        expected_many = edge_blocks_reference(stack, ratio).mean(axis=(2, 4))
        assert _same(downsample_many(stack, ratio), expected_many)

    @given(
        seed=st.integers(0, 2**32 - 1),
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        ratio=st.integers(1, 9),
        fill=st.sampled_from(["random", "all_true", "all_false"]),
    )
    @SETTINGS
    def test_block_fraction_matches_float_downsample(
        self, seed, height, width, ratio, fill
    ):
        rng = np.random.default_rng(seed)
        mask = {
            "random": rng.random((height, width)) > 0.4,
            "all_true": np.ones((height, width), dtype=bool),
            "all_false": np.zeros((height, width), dtype=bool),
        }[fill]
        with reference_path():
            expected = downsample_image(mask.astype(np.float64), ratio)
        assert _same(reference._block_fraction(mask, ratio), expected)


def _mosaic(rng, shape, tile, fill):
    """A mosaic built from ingests like the ground segment's."""
    mosaic = GroundMosaic(shape, tile)
    grid = TileGrid(shape, tile)
    for t_days in (1.0, 2.0, 3.0):
        image = rng.random(shape)
        tiles = rng.random(grid.grid_shape) > 0.3
        if fill == "all_true":
            mosaic.ingest_tiles("L", "B", t_days, image, np.ones_like(tiles))
        elif fill == "all_false":
            valid = np.zeros(shape, dtype=bool)
            mosaic.ingest_tiles("L", "B", t_days, image, tiles, valid)
        else:
            valid = rng.random(shape) > 0.5
            mosaic.ingest_tiles("L", "B", t_days, image, tiles, valid)
    return mosaic


class TestLowResReference:
    @given(
        seed=st.integers(0, 2**32 - 1),
        height=st.integers(8, 70),
        width=st.integers(8, 70),
        downsample=st.sampled_from([1, 3, 4, 8]),
        fill=st.sampled_from(["partial", "all_true", "all_false"]),
    )
    @SETTINGS
    def test_matches_two_pass(self, seed, height, width, downsample, fill):
        mosaic = _mosaic(
            np.random.default_rng(seed), (height, width), 16, fill
        )
        got_ref, got_valid = mosaic.low_res_reference("L", "B", downsample)
        want_ref, want_valid = low_res_reference_two_pass(
            mosaic, "L", "B", downsample
        )
        assert _same(got_ref, want_ref)
        assert _same(got_valid, want_valid)
        if fill == "all_true":
            assert got_valid.all()
        if fill == "all_false":
            assert not got_valid.any() and not got_ref.any()


class TestDeltaTiles:
    @given(
        seed=st.integers(0, 2**32 - 1),
        lr_h=st.integers(1, 21),
        lr_w=st.integers(1, 21),
        lr_tile=st.integers(1, 6),
        tolerance=st.integers(0, 2),
    )
    @SETTINGS
    def test_matches_per_tile_loop(self, seed, lr_h, lr_w, lr_tile, tolerance):
        rng = np.random.default_rng(seed)
        old = rng.integers(3, 253, (lr_h, lr_w)).astype(np.uint8)
        # Sparse differences of 0..tolerance+1 LSBs either way: tiles whose
        # largest difference sits exactly at the tolerance stay unchanged.
        step = rng.integers(0, tolerance + 2, (lr_h, lr_w))
        sign = np.where(rng.random((lr_h, lr_w)) < 0.5, -1, 1)
        sparse = rng.random((lr_h, lr_w)) < 0.15
        new = (old.astype(np.int16) + sparse * sign * step).astype(np.uint8)
        cache = OnboardReferenceCache(lr_tile=lr_tile)
        got = cache._delta_tiles(old, new, tolerance)
        want = delta_tiles_per_tile(cache, old, new, tolerance)
        assert got[0] == want[0]
        assert all(type(i) is int for index in got[0] for i in index)
        assert _same(got[1], want[1])

    def test_one_lsb_is_unchanged_two_is_changed(self):
        old = np.full((6, 7), 100, dtype=np.uint8)
        new = old.copy()
        new[0, 0] = 101  # tile (0, 0): exactly the tolerance
        new[5, 6] = 98  # ragged corner tile (1, 1): one past it
        indices, payload = OnboardReferenceCache(lr_tile=4)._delta_tiles(
            old, new, 1
        )
        assert indices == [(1, 1)]
        assert payload.tolist() == [100, 100, 100, 100, 100, 98]

    @pytest.mark.parametrize("validity", ["all_true", "all_false", "mixed"])
    def test_update_bytes_match_oracle(self, rng, validity):
        """Whole messages (delta and full, any validity) serialize to the
        oracle's bytes."""
        mask = {
            "all_true": np.ones((9, 11), dtype=bool),
            "all_false": np.zeros((9, 11), dtype=bool),
            "mixed": rng.random((9, 11)) > 0.5,
        }[validity]
        first, second = rng.random((9, 11)), rng.random((9, 11))
        second[:4] = first[:4]

        def messages():
            cache = OnboardReferenceCache(lr_tile=4)
            full = cache.build_update("L", "B", 1.0, first, validity=mask)
            cache.apply_update(full)
            delta = cache.build_update("L", "B", 2.0, second, validity=mask)
            return [full.to_bytes(), delta.to_bytes(), delta.n_bytes]

        with reference_path():
            expected = messages()
        assert messages() == expected


class TestBitmaps:
    @given(
        bits=st.lists(st.booleans(), max_size=100),
        prefix=st.integers(0, 300),
        suffix=st.binary(max_size=3),
    )
    @SETTINGS
    def test_matches_bit_loop(self, bits, prefix, suffix):
        array = np.array(bits, dtype=bool)
        packed, looped = BitWriter(), BitWriter()
        for writer, write in (
            (packed, BitWriter.write_bitmap),
            (looped, write_bitmap_per_bit),
        ):
            writer.write_uvarint(prefix)
            write(writer, array)
            writer.write_bytes(suffix)
        data = packed.getvalue()
        assert data == looped.getvalue()
        for read in (BitReader.read_bitmap, read_bitmap_per_bit):
            reader = BitReader(data)
            assert reader.read_uvarint() == prefix
            got = read(reader, array.size)
            assert got.dtype == bool and np.array_equal(got, array)
            assert reader.read_bytes(reader.remaining_bytes()) == suffix

    @pytest.mark.parametrize("n_bits", [1, 8, 9, 35])
    def test_short_read_raises(self, n_bits):
        writer = BitWriter()
        writer.write_bitmap(np.ones(n_bits, dtype=bool))
        data = writer.getvalue()[:-1]
        for read in (BitReader.read_bitmap, read_bitmap_per_bit):
            with pytest.raises(BitstreamError):
                read(BitReader(data), n_bits)

    def test_unaligned_write_and_read_rejected(self):
        writer = BitWriter()
        writer.write_bit(1)
        with pytest.raises(BitstreamError):
            writer.write_bitmap(np.ones(3, dtype=bool))
        reader = BitReader(b"\xff\xff")
        reader.read_bit()
        with pytest.raises(BitstreamError):
            reader.read_bitmap(3)


class TestCloudFeatures:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_bands=st.integers(1, 5),
        zeros=st.sampled_from(["none", "negative", "mixed"]),
    )
    @SETTINGS
    def test_band_mean_matches_stacked_mean(self, seed, n_bands, zeros):
        rng = np.random.default_rng(seed)
        names = [f"b{k}" for k in range(n_bands)]
        pixels = {name: rng.random((7, 9)) for name in names}
        if zeros != "none":
            for name in names:
                pixels[name][rng.random((7, 9)) < 0.5] = -0.0
                if zeros == "mixed":
                    pixels[name][rng.random((7, 9)) < 0.3] = 0.0
        assert _same(
            cloud._band_mean(pixels, names),
            band_mean_reference(pixels, names),
        )

    @pytest.mark.parametrize(
        "names",
        [
            ("B2", "B3", "B4", "B8"),  # no cloud-cold band
            ("B4", "B11"),  # one bright, one cold
            ("B2", "B3", "B4", "B10", "B11", "B12"),  # 3 bright, 3 cold
            ("B2", "B4", "B8", "B11", "B12"),  # 3 bright, 2 cold
        ],
    )
    def test_features_match_oracle(self, rng, names):
        bands = tuple(get_band(name) for name in names)
        pixels = {band.name: rng.random((33, 47)) for band in bands}
        assert _same(
            cloud_features(pixels, bands),
            cloud_features_reference(pixels, bands),
        )

    @pytest.mark.parametrize("names", [("B2", "B3", "B4", "B8"), ("B4", "B11")])
    def test_detectors_match_oracle(self, names):
        from repro.core.cloud import (
            train_ground_detector,
            train_onboard_detector,
        )
        from repro.datasets.sentinel2 import sentinel2_dataset

        bands = tuple(get_band(name) for name in names)
        dataset = sentinel2_dataset(
            locations=["A"], bands=list(names), image_shape=(96, 96),
            horizon_days=20.0,
        )
        capture = dataset.sensors["A"]._render_capture(0, 12.0)
        grid = TileGrid((96, 96), 64)
        detectors = (
            train_onboard_detector(bands, tile_size=64),
            train_ground_detector(bands),
        )
        for detector in detectors:
            with reference_path():
                expected = detector.detect(capture.pixels, bands, grid)
            assert _same(
                detector.detect(capture.pixels, bands, grid), expected
            )
