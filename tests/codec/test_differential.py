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

from repro.codec.bitplane import PlaneSegment, SubbandPlaneCoder
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


from repro.codec import registry

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
    def test_parallel_driver_byte_identical(self, textured_image, backend):
        serial = ImageCodec(CodecConfig(tile_size=64), backend=backend)
        parallel = ImageCodec(
            CodecConfig(tile_size=64), backend=backend, parallel_tiles=2
        )
        try:
            enc_serial = serial.encode(textured_image)
            enc_parallel = parallel.encode(textured_image)
        finally:
            parallel.close()
        assert enc_serial.to_bytes() == enc_parallel.to_bytes()
        assert np.array_equal(
            serial.decode(enc_serial), parallel.decode(enc_parallel)
        )

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_cross_backend_decode(self, textured_image, backend):
        """Either backend decodes the other's serialized container."""
        from repro.codec.jpeg2000 import EncodedImage

        ref, fast = self.codecs(backend, base_step=1 / 256)
        data = ref.encode(textured_image).to_bytes()
        parsed = EncodedImage.from_bytes(data)
        assert np.array_equal(ref.decode(parsed), fast.decode(parsed))
