"""Tests for the fast rate model, including calibration against the coder."""

import warnings
from unittest import mock

import numpy as np
import pytest
from sim_oracle import (
    estimate_band_bits,
    reference_path,
    tile_decompositions_reference,
)

from repro.codec import ratemodel
from repro.codec.jpeg2000 import CodecConfig, ImageCodec
from repro.codec.metrics import psnr
from repro.codec.ratemodel import RateModel
from repro.errors import CodecError, RateControlError
from repro.imagery.noise import fractal_noise


@pytest.fixture(scope="module")
def image():
    return fractal_noise((128, 128), seed=31, octaves=5, base_cells=4)


@pytest.fixture(scope="module")
def model():
    return RateModel(CodecConfig(tile_size=64, levels=3))


class TestEstimateBandBits:
    def test_zero_band(self):
        bits, planes = estimate_band_bits(np.zeros((8, 8), dtype=np.int64))
        assert bits == 0.0
        assert planes == 0

    def test_empty_band(self):
        bits, planes = estimate_band_bits(np.zeros((0, 4), dtype=np.int64))
        assert bits == 0.0 and planes == 0

    def test_sparse_cheaper_than_dense(self, rng):
        dense = rng.integers(-100, 100, (16, 16))
        sparse = np.zeros((16, 16), dtype=np.int64)
        sparse[0, 0] = 100
        dense_bits, _ = estimate_band_bits(dense)
        sparse_bits, _ = estimate_band_bits(sparse)
        assert sparse_bits < dense_bits / 4

    def test_plane_count(self):
        band = np.array([[255]], dtype=np.int64)
        _, planes = estimate_band_bits(band)
        assert planes == 8


class TestAgainstRealCoder:
    @pytest.mark.parametrize("step", [1 / 128, 1 / 512, 1 / 2048])
    def test_byte_estimate_within_tolerance(self, image, model, step):
        """The rate model must track the true coder within 35 %."""
        codec = ImageCodec(CodecConfig(tile_size=64, levels=3))
        real = len(codec.encode(image, base_step=step).to_bytes())
        estimated = model.encode(image, step).coded_bytes
        assert 0.65 * real <= estimated <= 1.35 * real

    def test_psnr_matches_exactly(self, image, model):
        """Distortion is computed from the true quantized reconstruction,
        so it must equal the real decoder's within float tolerance."""
        step = 1 / 512
        codec = ImageCodec(CodecConfig(tile_size=64, levels=3))
        real_recon = codec.decode(codec.encode(image, base_step=step))
        model_result = model.encode(image, step)
        assert abs(
            psnr(image, real_recon) - model_result.psnr_roi
        ) < 0.5


class TestEncode:
    def test_monotone_rate_in_step(self, image, model):
        sizes = [
            model.encode(image, step).coded_bytes
            for step in [1 / 64, 1 / 256, 1 / 1024]
        ]
        assert sizes == sorted(sizes)

    def test_roi_restricts_cost_and_recon(self, image, model):
        roi = np.zeros((2, 2), dtype=bool)
        roi[0, 0] = True
        result = model.encode(image, 1 / 512, roi)
        full = model.encode(image, 1 / 512)
        assert result.coded_bytes < full.coded_bytes
        assert np.allclose(result.reconstruction[64:, 64:], 0.0)
        assert result.roi_pixels == 64 * 64

    def test_rejects_bad_step(self, image, model):
        with pytest.raises(CodecError):
            model.encode(image, 0.0)

    def test_rejects_non_2d(self, model):
        with pytest.raises(CodecError):
            model.encode(np.zeros((2, 2, 2)))

    def test_bits_per_roi_pixel(self, image, model):
        result = model.encode(image, 1 / 512)
        assert result.bits_per_roi_pixel == pytest.approx(
            result.coded_bytes * 8 / image.size
        )


class TestStepSearch:
    @pytest.mark.parametrize("target", [1200, 3000, 8000])
    def test_meets_budget(self, image, model, target):
        result = model.find_step_for_bytes(image, target)
        assert result.coded_bytes <= target * 1.08

    def test_larger_budget_better_quality(self, image, model):
        small = model.find_step_for_bytes(image, 1000)
        large = model.find_step_for_bytes(image, 8000)
        assert large.psnr_roi > small.psnr_roi

    def test_impossible_budget_returns_floor(self, image, model):
        result = model.find_step_for_bytes(image, 10)
        assert result.coded_bytes > 10  # best-effort floor rate

    def test_rejects_nonpositive_target(self, image, model):
        with pytest.raises(RateControlError):
            model.find_step_for_bytes(image, 0)

    def test_roi_budget(self, image, model):
        roi = np.zeros((2, 2), dtype=bool)
        roi[1, 0] = True
        result = model.find_step_for_bytes(image, 900, roi)
        assert result.coded_bytes <= 980
        assert result.roi_pixels == 64 * 64


class TestBatchedEstimate:
    """The histogram plane walk (the production entropy estimate) must be
    bit-identical to the oracle's scalar estimate_band_bits walk."""

    def test_plane_walk_matches_scalar_walk(self, rng):
        from repro.codec.ratemodel import _plane_walk_bits, _topbit_histogram

        stack = rng.normal(0, 40, (7, 16, 16)).astype(np.int32)
        stack[2] = 0  # all-zero subband
        stack[4] = rng.normal(0, 3000, (16, 16)).astype(np.int32)  # deep planes
        stack[5, :, :] = 0
        stack[5, 3, 7] = 1  # single minimal coefficient
        counts, tops, size = _topbit_histogram(stack)
        bits = _plane_walk_bits(
            counts, tops, np.full(stack.shape[0], size, dtype=np.int64)
        )
        batched = [
            (float(bits[i]), int(tops[i]) + 1 if tops[i] >= 0 else 0)
            for i in range(stack.shape[0])
        ]
        scalar = [estimate_band_bits(band) for band in stack]
        assert batched == scalar

    def test_magnitude_histogram_matches_signed_quantize(self, rng):
        from repro.codec.ratemodel import (
            _magnitude_histogram,
            _quantize_stack,
            _topbit_histogram,
        )

        stack = rng.normal(0, 0.3, (5, 16, 16))
        for step in (1 / 16.0, 1 / 4096.0):
            sign_free = _magnitude_histogram(stack, step)
            signed = _topbit_histogram(_quantize_stack(stack, step))
            assert np.array_equal(sign_free[0], signed[0])
            assert np.array_equal(sign_free[1], signed[1])
            assert sign_free[2] == signed[2]

    def test_int32_wrap_steps_match_reference_encode(self, rng):
        """Absurdly fine steps wrap in int32; fast must still match."""
        model = RateModel(CodecConfig(tile_size=64))
        image = rng.random((64, 64))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with reference_path():
                ref = model.encode(image, 1e-9)
            fast = model.encode(image, 1e-9)
        assert ref.coded_bytes == fast.coded_bytes
        assert ref.payload_bytes == fast.payload_bytes
        # Reconstructions too: the native dequantize must replicate even
        # numpy's int32 wrap quirk (np.abs leaves INT32_MIN negative).
        assert np.array_equal(ref.reconstruction, fast.reconstruction)

    @pytest.mark.parametrize("step", [1 / 16, 1 / 512, 1 / 4096])
    def test_fused_payload_rows_match_per_block(self, rng, step, monkeypatch):
        """On one prepared batch, the rows the one-call native histogram
        hands the plane walk are the per-block histograms the int32-wrap
        regime falls back to: same rows, same order, same trimmed width."""
        model = RateModel(CodecConfig(tile_size=64))
        batch = model.prepare(rng.random((160, 96)))
        walk = mock.Mock(wraps=ratemodel._plane_walk_bits)
        monkeypatch.setattr(ratemodel, "_plane_walk_bits", walk)
        ratemodel._payload_totals(batch, step)
        counts, tops, _ = walk.call_args.args
        steps = ratemodel.subband_steps(step, batch.weights, batch.divisors)
        per_block_counts, per_block_tops = ratemodel._histograms_per_block(
            batch, steps
        )
        assert np.array_equal(tops, per_block_tops)
        assert counts.shape == per_block_counts.shape
        assert np.array_equal(counts, per_block_counts)


class TestDtypeBranches:
    """The numpy branches chosen by dtype compute what the kernels do.

    The quantizer only yields C-contiguous int32 stacks and float64
    subbands, so these branches serve other callers of the helpers; each
    must agree with the specification the kernels implement.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_histogram_matches_signed_quantize(self, rng, dtype):
        """Including 1e-9, where the magnitudes pass 2^31 and the
        histogram defers to the quantizer's int32 wrap."""
        stack = (rng.normal(0, 0.3, (5, 16, 16)) * 100).astype(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for step in (1 / 16, 1 / 4096, 1e-9):
                counts, tops, size = ratemodel._magnitude_histogram(
                    stack, step
                )
                expected = ratemodel._topbit_histogram(
                    ratemodel._quantize_stack(stack, step)
                )
                assert np.array_equal(counts, expected[0]), step
                assert np.array_equal(tops, expected[1]), step
                assert size == expected[2]

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_dequantize_matches_native(self, rng, dtype):
        quantized = ratemodel._quantize_stack(
            rng.normal(0, 0.3, (4, 16, 16)), 1 / 512
        )
        native = ratemodel._dequantize_stack(quantized, 1 / 512, 0.375)
        other = ratemodel._dequantize_stack(
            quantized.astype(dtype), 1 / 512, 0.375
        )
        assert other.dtype == native.dtype == np.float64
        assert other.tobytes() == native.tobytes()

    @pytest.mark.parametrize(
        "reshape",
        [
            pytest.param(lambda block: block[:, ::2], id="non_contiguous"),
            pytest.param(lambda block: block.astype(np.int64), id="int64"),
            pytest.param(lambda block: block.T, id="transposed"),
        ],
    )
    def test_dequantize_blocks_fallback_matches_native(self, rng, reshape):
        """One block the fused call cannot take sends the whole tile to
        the per-block path, which must return the fused call's values."""
        steps = [1 / 512, 1 / 256, 1 / 128]
        blocks = [
            ratemodel._quantize_stack(rng.normal(0, 0.3, shape), step)
            for shape, step in zip([(8, 8), (8, 4), (4, 8)], steps)
        ]
        blocks[1] = reshape(blocks[1])
        fallback = ratemodel._dequantize_blocks(blocks, steps)
        native = ratemodel._dequantize_blocks(
            [np.ascontiguousarray(b, dtype=np.int32) for b in blocks], steps
        )
        assert len(fallback) == len(native) == len(blocks)
        for got, want in zip(fallback, native):
            assert got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def _reference_estimate(model, decomps, step):
    """``estimate_with_stats`` on the per-tile oracle loops."""
    with reference_path():
        return model.estimate_with_stats(list(decomps), step)


def _assert_estimates_match_reference(model, decomps, steps):
    for step in steps:
        got = model.estimate_with_stats(decomps, step)
        want = _reference_estimate(model, decomps, step)
        assert repr(got) == repr(want), step


class TestEstimateLayout:
    """The prebuilt estimate layout of a prepared batch against
    ``payload_stats_reference``: same bits, same plane segments."""

    STEPS = (1 / 16, 1 / 512, 1 / 4096)

    def test_mixed_geometry_groups(self, rng, model):
        # 64x64, 64x32, 32x64 and 32x32 tiles: four geometry groups.
        image = rng.random((160, 96))
        _assert_estimates_match_reference(
            model, model.prepare(image), self.STEPS
        )

    def test_one_pixel_edge_tiles(self, rng, model):
        # The 64x1, 1x64 and 1x1 tiles have empty HL/LH/HH subbands.
        image = rng.random((65, 65))
        batch = model.prepare(image)
        assert any(stack.size == 0 for _, _, s in batch.plan for stack in s)
        _assert_estimates_match_reference(model, batch, self.STEPS)

    def test_roi_with_holes(self, rng, model):
        image = rng.random((192, 256))
        roi = np.ones((3, 4), dtype=bool)
        roi[1, 1:3] = False
        roi[0, 3] = roi[2, 0] = False
        _assert_estimates_match_reference(
            model, model.prepare(image, roi), self.STEPS
        )

    def test_empty_roi(self, rng, model):
        image = rng.random((128, 128))
        batch = model.prepare(image, np.zeros((2, 2), dtype=bool))
        assert model.estimate_with_stats(batch, 1 / 512) == (32, 0.0, 0)
        _assert_estimates_match_reference(model, batch, self.STEPS)

    def test_plain_list_decompositions(self, rng, model):
        image = rng.random((160, 96))
        roi = np.ones((3, 2), dtype=bool)
        roi[1, 0] = False
        batched = list(model.prepare(image, roi))
        unbatched = tile_decompositions_reference(model, image, roi)
        for decomps in (batched, unbatched):
            assert type(decomps) is list
            _assert_estimates_match_reference(model, decomps, self.STEPS)

    def test_int32_wrap_step(self, rng, model, monkeypatch):
        """At 1e-9 the top bit reaches 31 and the estimate falls back to
        the per-block histograms, whose wrap semantics are exact."""
        image = rng.random((160, 96))
        spy = mock.Mock(wraps=ratemodel._histograms_per_block)
        monkeypatch.setattr(ratemodel, "_histograms_per_block", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _assert_estimates_match_reference(
                model, model.prepare(image), (1e-9,)
            )
        assert spy.call_count == 1

    @pytest.mark.parametrize("step", [0.0, -1 / 512])
    @pytest.mark.parametrize("roi_tiles", [0, 4])
    def test_rejects_nonpositive_step(self, image, model, step, roi_tiles):
        roi = np.zeros((2, 2), dtype=bool)
        roi.flat[:roi_tiles] = True
        batch = model.prepare(image, roi)
        with pytest.raises(CodecError, match="base_step must be positive"):
            model.estimate_with_stats(batch, step)
