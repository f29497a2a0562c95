"""Differential harness: vectorized codec fast path vs reference coder.

The vectorized backend's entire correctness story is *bit-exactness*: for any
input, it must emit byte-identical bitstreams and byte-identical
reconstructions at every truncation point.  These tests enforce that
contract with property-style random subbands, adversarial tiles, and
whole-image container comparisons — the same interchangeability bar Duet
sets for its accelerated datapaths.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.bitplane import (
    PlaneSegment,
    SubbandPlaneCoder,
    _neighbor_count,
)
from repro.codec.fastpath import (
    BatchContextTable,
    BatchRangeEncoder,
    VectorizedPlaneCoder,
    probability_schedule,
)
from repro.codec.arith import ArithmeticEncoder
from repro.codec.jpeg2000 import CodecConfig, ImageCodec
from repro.codec.dwt import Wavelet
from repro.errors import BitstreamError
from repro.imagery.noise import fractal_noise


from repro.codec import _ckernels, registry

#: Every available engine joins the differential harness (``compiled``
#: drops out only on machines without a C toolchain).
BACKENDS = tuple(
    name for name in registry.names() if registry.get(name).available()
)


def coder_pair(shapes):
    spec = [(f"b{i}", 1, shape) for i, shape in enumerate(shapes)]
    return SubbandPlaneCoder(spec), VectorizedPlaneCoder(spec)


def all_coders(shapes, labels=None):
    """One plane coder per available backend, reference first.

    ``labels`` names the subbands (default ``b0, b1, ...``); repeated
    labels share adaptive contexts.
    """
    if labels is None:
        labels = [f"b{i}" for i in range(len(shapes))]
    spec = [(label, 1, shape) for label, shape in zip(labels, shapes)]
    return {name: registry.get(name).coder_factory(spec) for name in BACKENDS}


def top_plane(bands):
    peak = max((int(np.abs(b).max()) for b in bands if b.size), default=0)
    return max(peak.bit_length() - 1, 0)


def assert_bitstreams_identical(bands, max_plane=None, labels=None):
    """Assert byte-identical segments + identical decodes at every prefix,
    for every registered backend against the reference coder."""
    coders = all_coders([b.shape for b in bands], labels)
    top = top_plane(bands) if max_plane is None else max_plane
    ref = coders["reference"]
    seg_ref = ref.encode(bands, top)
    for name, fast in coders.items():
        if name == "reference":
            continue
        seg_fast = fast.encode(bands, top)
        assert len(seg_ref) == len(seg_fast)
        for a, b in zip(seg_ref, seg_fast):
            assert a.plane == b.plane
            assert a.data == b.data, (
                f"{name}: plane {a.plane} codeword differs"
            )
        for keep in range(len(seg_ref) + 1):
            dec_ref = ref.decode(seg_ref[:keep], top)
            dec_fast = fast.decode(seg_fast[:keep], top)
            dec_cross = fast.decode(seg_ref[:keep], top)
            for r, f, x in zip(dec_ref, dec_fast, dec_cross):
                assert np.array_equal(r, f), name
                assert np.array_equal(r, x), name
    return seg_ref


class TestPlaneCoderDifferential:
    def test_seeded_random_subbands(self, rng):
        bands = [
            rng.integers(-500, 500, (16, 16)),
            rng.integers(-40, 40, (8, 8)),
            rng.integers(-3, 3, (8, 4)),
        ]
        assert_bitstreams_identical(bands)

    def test_multi_seed_sweep(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            bands = [
                rng.integers(-(1 << 11), 1 << 11, (12, 12)),
                rng.integers(-15, 15, (6, 9)),
            ]
            assert_bitstreams_identical(bands)

    def test_all_zero_tile(self):
        bands = [np.zeros((8, 8), dtype=np.int64), np.zeros((4, 4), dtype=np.int64)]
        assert_bitstreams_identical(bands, max_plane=0)

    def test_single_coefficient_tile(self):
        for value in (1, -1, 513, -1024):
            band = np.zeros((16, 16), dtype=np.int64)
            band[7, 9] = value
            assert_bitstreams_identical([band])

    def test_max_magnitude_tile(self):
        """Every coefficient at the 16-bit cap: maximum-rate worst case."""
        peak = (1 << 16) - 1
        band = np.full((8, 8), peak, dtype=np.int64)
        band[::2, ::2] = -peak
        assert_bitstreams_identical([band])

    def test_alternating_checkerboard(self):
        band = np.fromfunction(
            lambda y, x: ((y + x) % 2) * 200 - 100, (16, 16)
        ).astype(np.int64)
        assert_bitstreams_identical([band])

    def test_empty_band_in_set(self, rng):
        bands = [
            rng.integers(-9, 9, (4, 4)),
            np.zeros((0, 5), dtype=np.int64),
            rng.integers(-9, 9, (3, 3)),
        ]
        assert_bitstreams_identical(bands)

    def test_context_halving_stress(self, rng):
        """Streams long enough to halve counts several times per context."""
        band = rng.integers(-(1 << 14), 1 << 14, (64, 64))
        assert_bitstreams_identical([band])

    def test_duplicate_band_labels_share_contexts(self, rng):
        """Reference keys contexts by label; duplicates must share state."""
        bands = [rng.integers(-99, 99, (8, 8)) for _ in range(2)]
        shared = assert_bitstreams_identical(bands, labels=["same", "same"])
        # Sharing must change the stream, or this test pins nothing.
        distinct = SubbandPlaneCoder(
            [("a", 1, (8, 8)), ("b", 1, (8, 8))]
        ).encode(bands, top_plane(bands))
        assert [s.data for s in shared] != [s.data for s in distinct]

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        height=st.integers(1, 12),
        width=st.integers(1, 12),
        magnitude=st.integers(1, 1 << 15),
    )
    def test_property_random_tiles(self, seed, height, width, magnitude):
        rng = np.random.default_rng(seed)
        band = rng.integers(-magnitude, magnitude + 1, (height, width))
        assert_bitstreams_identical([band])

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 0.2))
    def test_property_sparse_tiles(self, seed, density):
        """Sparse tiles exercise the no-significance shortcut paths."""
        rng = np.random.default_rng(seed)
        band = np.zeros((16, 16), dtype=np.int64)
        mask = rng.random((16, 16)) < density
        band[mask] = rng.integers(-(1 << 12), 1 << 12, int(mask.sum()))
        assert_bitstreams_identical([band])

    def test_out_of_order_segments_rejected(self, rng):
        band = rng.integers(-8, 8, (4, 4))
        _, fast = coder_pair([(4, 4)])
        segments = fast.encode([band], 3)
        with pytest.raises(BitstreamError):
            fast.decode(list(reversed(segments)), 3)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_segment_below_plane_zero_rejected(self, rng, backend):
        """A segment past plane 0 is malformed under every engine."""
        band = rng.integers(-8, 8, (4, 4))
        coder = all_coders([(4, 4)])[backend]
        segments = coder.encode([band], 0)
        extra = PlaneSegment(plane=-1, data=segments[0].data)
        with pytest.raises(BitstreamError, match="below plane 0"):
            coder.decode([*segments, extra], 0)
        with pytest.raises(BitstreamError, match="below plane 0"):
            coder.decode([extra], -1)

    def test_band_mismatch_rejected(self, rng):
        _, fast = coder_pair([(4, 4)])
        with pytest.raises(BitstreamError):
            fast.encode([rng.integers(0, 4, (5, 4))], 2)


#: Shapes at the edges of the tile kernels' neighbour walk: a single
#: coefficient, one row, one column, all-corner, and odd both ways.
EDGE_SHAPES = [(1, 1), (1, 9), (9, 1), (2, 2), (3, 5)]


def border_first_band(rng, shape):
    """A band whose border coefficients turn significant first.

    Border positions take one new top bit per plane (alternating sign),
    so each arrival bumps neighbour counts that the band edge clips; the
    interior is small noise that turns significant later.
    """
    height, width = shape
    band = rng.integers(-3, 4, shape)
    border = [
        (y, x)
        for y in range(height)
        for x in range(width)
        if y in (0, height - 1) or x in (0, width - 1)
    ]
    for k, (y, x) in enumerate(border):
        band[y, x] = (-1) ** k * (1 << (12 - k % 10))
    return band


class TestTileKernelEdgeCases:
    """Every engine against the reference at every truncation prefix, on
    the shapes and significance patterns at the edges of the tile kernels
    (neighbour counts, context sharing, plane count)."""

    @pytest.mark.parametrize("shape", EDGE_SHAPES)
    def test_small_subband_shapes(self, rng, shape):
        assert_bitstreams_identical([rng.integers(-300, 300, shape)])

    def test_small_subbands_in_one_tile(self, rng):
        assert_bitstreams_identical(
            [rng.integers(-300, 300, shape) for shape in EDGE_SHAPES]
        )

    @pytest.mark.parametrize("shape", [(6, 7), (1, 8), (8, 1), (2, 2), (3, 5)])
    def test_corners_and_edges_turn_significant_first(self, rng, shape):
        assert_bitstreams_identical([border_first_band(rng, shape)])

    def test_band_fully_significant_at_top_plane(self, rng):
        top = 6
        full = rng.integers(1 << top, 1 << (top + 1), (9, 11))
        full *= rng.choice([-1, 1], full.shape)
        bands = [full, rng.integers(-5, 6, (4, 4))]
        assert_bitstreams_identical(bands, max_plane=top)

    def test_more_than_eight_planes(self, rng):
        bands = [
            rng.integers(-(1 << 13), 1 << 13, (10, 12)),
            rng.integers(-(1 << 10), 1 << 10, (5, 6)),
        ]
        assert len(assert_bitstreams_identical(bands)) > 8

    def test_max_plane_above_the_top_bit(self, rng):
        """Leading planes with nothing significant still code every band."""
        bands = [rng.integers(-20, 21, (5, 5)), rng.integers(-3, 4, (2, 3))]
        assert len(assert_bitstreams_identical(bands, max_plane=12)) == 13

    def test_repeated_labels_share_contexts_across_shapes(self, rng):
        shapes = [(1, 1), (3, 5), (2, 2), (5, 3), (1, 4), (4, 1)]
        labels = ["a", "b", "a", "b", "a", "c"]
        bands = [rng.integers(-60, 61, shape) for shape in shapes]
        assert_bitstreams_identical(bands, labels=labels)

    @pytest.mark.skipif(
        "compiled" not in BACKENDS, reason="compiled kernels unavailable"
    )
    def test_neighbour_counts_track_significance(self, rng):
        """After plane 0 every nonzero coefficient is significant, and each
        position's count is its number of significant 8-neighbours, both
        ways and in every band of the flat layout."""
        kernels = _ckernels.load()
        bands = [border_first_band(rng, shape) for shape in EDGE_SHAPES]
        top = top_plane(bands)
        heights = np.array([b.shape[0] for b in bands], dtype=np.int64)
        widths = np.array([b.shape[1] for b in bands], dtype=np.int64)
        bases = np.arange(len(bands), dtype=np.int64) * 5
        size = sum(b.size for b in bands)

        def split(flat):
            ends = np.cumsum([b.size for b in bands])
            return [
                part.reshape(b.shape)
                for part, b in zip(np.split(flat, ends[:-1]), bands)
            ]

        def check(significant, neighbours):
            for band, sig, nbr in zip(
                bands, split(significant), split(neighbours)
            ):
                assert np.array_equal(sig, band != 0)
                assert np.array_equal(nbr, _neighbor_count(sig))

        mags = np.concatenate([np.abs(b).ravel() for b in bands])
        signs = np.concatenate([(b < 0).ravel() for b in bands])
        significant = np.zeros(size, dtype=np.uint8)
        neighbours = np.zeros(size, dtype=np.uint8)
        counts = np.ones((2, 5 * len(bands)), dtype=np.int64)
        datas = kernels.encode_tile(
            mags, signs, significant, neighbours,
            heights, widths, bases, top, counts[0], counts[1],
        )
        check(significant, neighbours)
        decoded = np.zeros(size, dtype=np.int64)
        decoded_signs = np.zeros(size, dtype=bool)
        significant[:] = 0
        neighbours[:] = 0
        counts[:] = 1
        assert kernels.decode_tile(
            datas, decoded, decoded_signs, significant, neighbours,
            heights, widths, bases, top, counts[0], counts[1],
        )
        assert np.array_equal(decoded, mags)
        assert np.array_equal(decoded_signs, signs)
        check(significant, neighbours)

    @pytest.mark.skipif(
        "compiled" not in BACKENDS, reason="compiled kernels unavailable"
    )
    def test_tile_kernels_refuse_mismatched_buffers(self):
        kernels = _ckernels.load()
        shape = np.array([4], dtype=np.int64)
        base = np.zeros(1, dtype=np.int64)
        counts = np.ones((2, 5), dtype=np.int64)

        def buffers(size=16, sign_dtype=bool, n_contexts=5):
            return (
                np.zeros(size, dtype=np.int64),
                np.zeros(16, dtype=sign_dtype),
                np.zeros(16, dtype=np.uint8),
                np.zeros(16, dtype=np.uint8),
                shape, shape, base,
                0, counts[0, :n_contexts], counts[1],
            )

        kernels.encode_tile(*buffers())
        for bad in (
            buffers(size=15),
            buffers(sign_dtype=np.int64),
            buffers(n_contexts=4),
        ):
            with pytest.raises(ValueError):
                kernels.encode_tile(*bad)
            with pytest.raises(ValueError):
                kernels.decode_tile([b""], *bad)
        with pytest.raises(ValueError, match="below plane 0"):
            kernels.decode_tile([b"", b""], *buffers())

class TestTopPlaneLimit:
    """Plane 62 is the top bit-plane of an int64 magnitude: every engine
    codes it identically, and every engine refuses a higher top plane
    with the same error before coding anything."""

    def test_plane_62_round_trips_under_every_engine(self):
        band = np.array([[2**62, -(2**62)], [1, 0]], dtype=np.int64)
        segments = assert_bitstreams_identical([band], max_plane=62)
        assert len(segments) == 63
        for name, coder in all_coders([band.shape]).items():
            (decoded,) = coder.decode(coder.encode([band], 62), 62)
            assert np.array_equal(decoded, band), name

    @pytest.mark.parametrize("max_plane", [63, 64, 70])
    def test_higher_top_planes_refused_by_every_engine(self, max_plane):
        band = np.array([[1, -1], [0, 2]], dtype=np.int64)
        messages = set()
        for name, coder in all_coders([band.shape]).items():
            for call in (
                lambda: coder.encode([band], max_plane),
                lambda: coder.decode([], max_plane),
            ):
                with pytest.raises(ValueError) as caught:
                    call()
                messages.add(str(caught.value))
        assert messages == {
            f"max_plane {max_plane} exceeds 62, the top bit-plane of an "
            "int64 magnitude"
        }


@pytest.fixture(scope="module")
def sign_heavy_segments():
    """A 64x64 band whose top plane is 4096 ones with random signs.

    Its top-plane codeword cut to 32 bytes runs the decoder more than 64
    bytes past the end (the sign decisions cost about a bit each, however
    the zero fill decodes).  Returns ``(top, segments, cut segment)``.
    """
    rng = np.random.default_rng(0)
    top = 4
    band = (1 << top) * rng.choice([-1, 1], (64, 64))
    segments = VectorizedPlaneCoder([("b0", 1, band.shape)]).encode([band], top)
    cut = PlaneSegment(plane=top, data=segments[0].data[:32])
    return top, segments, cut


class TestDecodeErrorOrder:
    """Segments fail in order under every engine: a decoded segment's
    overrun wins over a later out-of-sequence plane, and a clean segment
    lets that plane's error through."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_overrun_then_out_of_sequence_plane(
        self, sign_heavy_segments, backend
    ):
        top, segments, cut = sign_heavy_segments
        coder = all_coders([(64, 64)])[backend]
        with pytest.raises(BitstreamError, match="ran far past end of data"):
            coder.decode([cut, segments[2]], top)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_clean_segment_then_out_of_sequence_plane(
        self, sign_heavy_segments, backend
    ):
        top, segments, _ = sign_heavy_segments
        coder = all_coders([(64, 64)])[backend]
        with pytest.raises(
            BitstreamError, match=f"expected {top - 1}, got {top - 2}"
        ):
            coder.decode([segments[0], segments[2]], top)


class TestBatchedCoderApi:
    def test_encode_many_matches_reference_encoder(self, rng):
        """The batched (bits, contexts) API is bit-exact vs per-bit calls."""
        n_ctx = 6
        bits = rng.integers(0, 2, 5000).tolist()
        ctxs = rng.integers(0, n_ctx, 5000).tolist()
        ref_enc = ArithmeticEncoder()
        for bit, ctx in zip(bits, ctxs):
            ref_enc.encode(bit, ctx)
        batch = BatchRangeEncoder(BatchContextTable(n_ctx))
        batch.encode_many(bits, ctxs)
        assert batch.finish() == ref_enc.finish()

    def test_probability_schedule_matches_per_bit_updates(self, rng):
        """The cumsum replay equals feeding ContextModel bit by bit."""
        from repro.codec.arith import ContextSet

        n_ctx = 4
        bits = np.asarray(rng.integers(0, 2, 20000), dtype=np.int64)
        ctxs = np.asarray(rng.integers(0, n_ctx, 20000), dtype=np.int64)
        contexts = ContextSet()
        expected = []
        for bit, ctx in zip(bits.tolist(), ctxs.tolist()):
            model = contexts.get(ctx)
            expected.append(model.probability0_scaled())
            model.update(bit)
        table = BatchContextTable(n_ctx)
        probs = probability_schedule(bits, ctxs, table)
        assert probs.tolist() == expected
        for ctx in range(n_ctx):
            model = contexts.get(ctx)
            assert table.count0[ctx] == model.count0
            assert table.count1[ctx] == model.count1


@pytest.fixture(scope="module")
def textured_image():
    return fractal_noise((128, 128), seed=4242, octaves=5, base_cells=4)


FAST_BACKENDS = [b for b in BACKENDS if b != "reference"]


class TestImageCodecDifferential:
    def codecs(self, backend="vectorized", **kwargs):
        cfg = CodecConfig(tile_size=64, **kwargs)
        return (
            ImageCodec(cfg, backend="reference"),
            ImageCodec(cfg, backend=backend),
        )

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_lossy_container_byte_identical(self, textured_image, backend):
        ref, fast = self.codecs(backend, base_step=1 / 256)
        enc_ref = ref.encode(textured_image)
        enc_fast = fast.encode(textured_image)
        assert enc_ref.to_bytes() == enc_fast.to_bytes()
        assert np.array_equal(ref.decode(enc_ref), fast.decode(enc_fast))

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_lossless_container_byte_identical(self, textured_image, backend):
        ref, fast = self.codecs(
            backend, wavelet=Wavelet.LEGALL53, bit_depth=8
        )
        enc_ref = ref.encode(textured_image)
        enc_fast = fast.encode(textured_image)
        assert enc_ref.to_bytes() == enc_fast.to_bytes()
        assert np.array_equal(ref.decode(enc_ref), fast.decode(enc_fast))

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_rate_targeted_roi_layers_byte_identical(
        self, textured_image, backend
    ):
        ref, fast = self.codecs(backend, base_step=1 / 512)
        roi = np.array([[True, False], [True, True]])
        enc_ref = ref.encode(
            textured_image, target_bytes=2000, roi=roi, n_layers=3
        )
        enc_fast = fast.encode(
            textured_image, target_bytes=2000, roi=roi, n_layers=3
        )
        assert enc_ref.to_bytes() == enc_fast.to_bytes()
        for layers in (1, 2, 3):
            assert np.array_equal(
                ref.decode(enc_ref, layers=layers),
                fast.decode(enc_fast, layers=layers),
            )

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_cross_backend_decode(self, textured_image, backend):
        """Either backend decodes the other's serialized container."""
        from repro.codec.jpeg2000 import EncodedImage

        ref, fast = self.codecs(backend, base_step=1 / 256)
        data = ref.encode(textured_image).to_bytes()
        parsed = EncodedImage.from_bytes(data)
        assert np.array_equal(ref.decode(parsed), fast.decode(parsed))
