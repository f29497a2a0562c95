"""Unit tests for dead-zone quantization."""

import numpy as np
import pytest

from repro.codec.dwt import Wavelet, forward_dwt2d
from repro.codec.quantize import (
    QuantizerSpec,
    dequantize_coeffs,
    max_bitplane,
    quantize_coeffs,
    subband_step,
    subband_step_factors,
    subband_steps,
)
from repro.errors import CodecError


@pytest.fixture()
def decomposition(rng):
    return forward_dwt2d(rng.random((64, 64)), 3, Wavelet.CDF97)


class TestSubbandStep:
    def test_ll_finer_than_hh(self):
        assert subband_step(0.01, "LL", 1) < subband_step(0.01, "HH", 1)

    def test_coarser_levels_get_finer_steps(self):
        assert subband_step(0.01, "HL", 3) < subband_step(0.01, "HL", 1)

    def test_scales_with_base(self):
        assert subband_step(0.02, "LH", 2) == pytest.approx(
            2 * subband_step(0.01, "LH", 2)
        )

    def test_rejects_nonpositive_base(self):
        with pytest.raises(CodecError):
            subband_step(0.0, "LL", 1)

    def test_rejects_unknown_orientation(self):
        with pytest.raises(CodecError):
            subband_step(0.01, "XX", 1)
        with pytest.raises(CodecError):
            subband_step_factors([("LL", 1), ("XX", 1)])

    def test_vector_steps_equal_scalar_steps(self):
        """The rate model derives every block's step from one vector
        expression; each must equal subband_step float for float."""
        bands = [
            (name, level)
            for name in ("LL", "HL", "LH", "HH")
            for level in range(1, 9)
        ]
        weights, divisors = subband_step_factors(bands)
        for base in (1.0 / 512.0, 1e-9, 0.3, 1.0, 7.77, 2.0**-26, 1e300):
            steps = subband_steps(base, weights, divisors)
            assert steps.tolist() == [
                subband_step(base, name, level) for name, level in bands
            ]


class TestQuantizeRoundtrip:
    def test_error_bounded_by_step(self, decomposition):
        spec = QuantizerSpec(base_step=1 / 256)
        quantized = quantize_coeffs(decomposition, spec)
        dequantized = dequantize_coeffs(quantized, spec)
        for (name, level, orig), (_, _, recon) in zip(
            decomposition.subbands(), dequantized
        ):
            step = spec.step_for(name, level)
            # Dead-zone: |error| < step inside the zone, <= step/2 outside.
            assert np.abs(orig - recon).max() <= step + 1e-12

    def test_zero_maps_to_zero(self, decomposition):
        spec = QuantizerSpec(base_step=1 / 64)
        quantized = quantize_coeffs(decomposition, spec)
        dequantized = dequantize_coeffs(quantized, spec)
        for (_, _, q), (_, _, d) in zip(quantized, dequantized):
            assert np.all((q == 0) == (d == 0.0))

    def test_signs_preserved(self, decomposition):
        spec = QuantizerSpec(base_step=1 / 512)
        quantized = quantize_coeffs(decomposition, spec)
        dequantized = dequantize_coeffs(quantized, spec)
        for (_, _, q), (_, _, d) in zip(quantized, dequantized):
            nonzero = q != 0
            assert np.all(np.sign(q[nonzero]) == np.sign(d[nonzero]))

    def test_coarser_step_fewer_nonzero(self, decomposition):
        fine = quantize_coeffs(decomposition, QuantizerSpec(1 / 512))
        coarse = quantize_coeffs(decomposition, QuantizerSpec(1 / 16))
        fine_nonzero = sum(int((b != 0).sum()) for _, _, b in fine)
        coarse_nonzero = sum(int((b != 0).sum()) for _, _, b in coarse)
        assert coarse_nonzero < fine_nonzero


class TestMaxBitplane:
    def test_all_zero(self):
        bands = [("LL", 1, np.zeros((4, 4), dtype=np.int32))]
        assert max_bitplane(bands) == -1

    def test_single_coefficient(self):
        bands = [("LL", 1, np.array([[9]], dtype=np.int32))]
        assert max_bitplane(bands) == 3  # 9 = 0b1001

    def test_negative_values_counted_by_magnitude(self):
        bands = [("HH", 1, np.array([[-16]], dtype=np.int32))]
        assert max_bitplane(bands) == 4

    def test_across_bands(self):
        bands = [
            ("LL", 1, np.array([[3]], dtype=np.int32)),
            ("HH", 1, np.array([[120]], dtype=np.int32)),
        ]
        assert max_bitplane(bands) == 6
