"""Unit and property tests for the oracle's embedded bit-plane coder.

``SubbandPlaneCoder`` (``tests/codec_oracle.py``) is the per-bit
specification of the compiled plane coder; the differential harness
checks the two against each other.
"""

import numpy as np
import pytest
from codec_oracle import SubbandPlaneCoder, truncation_distortions
from hypothesis import given, settings, strategies as st

from repro.codec.bitplane import PlaneSegment
from repro.errors import BitstreamError


def make_coder(shapes):
    return SubbandPlaneCoder(
        [(f"b{i}", 1, shape) for i, shape in enumerate(shapes)]
    )


class TestRoundtrip:
    def test_single_band_exact(self, rng):
        band = rng.integers(-100, 100, (16, 16))
        coder = make_coder([(16, 16)])
        top = int(np.abs(band).max()).bit_length() - 1
        segments = coder.encode([band], top)
        decoded = coder.decode(segments, top)[0]
        assert np.array_equal(decoded, band)

    def test_multi_band_exact(self, rng):
        bands = [
            rng.integers(-50, 50, (8, 8)),
            rng.integers(-500, 500, (8, 4)),
            rng.integers(0, 2, (4, 4)),
        ]
        top = max(int(np.abs(b).max()) for b in bands).bit_length() - 1
        coder = make_coder([b.shape for b in bands])
        decoded = coder.decode(coder.encode(bands, top), top)
        for got, want in zip(decoded, bands):
            assert np.array_equal(got, want)

    def test_all_zero_band(self):
        band = np.zeros((8, 8), dtype=np.int64)
        coder = make_coder([(8, 8)])
        segments = coder.encode([band], 0)
        decoded = coder.decode(segments, 0)[0]
        assert np.array_equal(decoded, band)

    def test_empty_band_skipped(self, rng):
        bands = [rng.integers(-5, 5, (4, 4)), np.zeros((0, 3), dtype=np.int64)]
        coder = make_coder([(4, 4), (0, 3)])
        top = 3
        decoded = coder.decode(coder.encode(bands, top), top)
        assert np.array_equal(decoded[0], bands[0])
        assert decoded[1].shape == (0, 3)

    def test_sparse_band_compresses(self, rng):
        band = np.zeros((32, 32), dtype=np.int64)
        band[5, 7] = 1000
        band[20, 3] = -800
        coder = make_coder([(32, 32)])
        top = 9
        segments = coder.encode([band], top)
        total = sum(len(s.data) for s in segments)
        assert total < 300  # vastly below 1024 raw bytes
        assert np.array_equal(coder.decode(segments, top)[0], band)


class TestTruncation:
    def test_prefix_decode_monotone_error(self, rng):
        band = rng.integers(-512, 512, (16, 16))
        top = 9
        coder = make_coder([(16, 16)])
        segments = coder.encode([band], top)
        errors = []
        for keep in range(1, len(segments) + 1):
            decoded = coder.decode(segments[:keep], top)[0]
            errors.append(float(np.sum((decoded - band) ** 2)))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] == 0.0

    def test_truncated_magnitudes_are_prefixes(self, rng):
        """A k-plane decode equals the magnitude with low planes zeroed."""
        band = rng.integers(0, 256, (8, 8))
        top = 7
        coder = make_coder([(8, 8)])
        segments = coder.encode([band], top)
        for keep in range(1, 8):
            decoded = coder.decode(segments[:keep], top)[0]
            shift = top + 1 - keep
            expected = (band >> shift) << shift
            assert np.array_equal(decoded, expected)

    def test_out_of_order_segments_rejected(self, rng):
        band = rng.integers(-8, 8, (4, 4))
        coder = make_coder([(4, 4)])
        segments = coder.encode([band], 3)
        with pytest.raises(BitstreamError):
            coder.decode(list(reversed(segments)), 3)

    def test_band_count_mismatch_rejected(self, rng):
        coder = make_coder([(4, 4)])
        with pytest.raises(BitstreamError):
            coder.encode([rng.integers(0, 4, (4, 4)), rng.integers(0, 4, (4, 4))], 2)

    def test_band_shape_mismatch_rejected(self, rng):
        coder = make_coder([(4, 4)])
        with pytest.raises(BitstreamError):
            coder.encode([rng.integers(0, 4, (5, 4))], 2)


class TestTruncationDistortions:
    def test_endpoints(self, rng):
        band = rng.integers(0, 64, (8, 8))
        curve = truncation_distortions([band], 5)
        assert curve[-1] == 0.0
        assert curve[0] == float(np.sum(band.astype(np.float64) ** 2))

    def test_monotone_decreasing(self, rng):
        band = rng.integers(0, 1024, (8, 8))
        curve = truncation_distortions([band], 9)
        assert all(a >= b for a, b in zip(curve, curve[1:]))


@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(0, 2**31 - 1),
    st.integers(1, 1000),
)
@settings(max_examples=40, deadline=None)
def test_property_roundtrip(height, width, seed, peak):
    """Full decode is exact for any band content."""
    band = np.random.default_rng(seed).integers(-peak, peak + 1, (height, width))
    top = max(0, int(np.abs(band).max()).bit_length() - 1)
    coder = SubbandPlaneCoder([("b", 1, (height, width))])
    segments = coder.encode([band], top)
    assert np.array_equal(coder.decode(segments, top)[0], band)
