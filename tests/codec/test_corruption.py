"""Truncated/corrupted bitstream handling across every decoder entry point.

The contract: a decoder fed garbage, a truncated prefix, or a bit-flipped
stream either succeeds (producing some reconstruction — embedded streams
legitimately decode from prefixes) or raises :class:`BitstreamError`.  It
must never leak ``IndexError``, ``struct.error``, ``OverflowError`` or any
other non-repro exception, and never hang or allocate absurdly.
"""

import numpy as np
import pytest
from codec_oracle import ArithmeticDecoder, ORACLE_ENGINE, reference_engine

from repro.codec import registry
from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.jpeg2000 import CodecConfig, EncodedImage, ImageCodec
from repro.errors import BitstreamError, ReproError
from repro.imagery.noise import fractal_noise

#: The oracle coder (``tests/codec_oracle.py``, registered as the
#: ``reference`` engine for this module's scope) and every production
#: engine — the corruption contract is engine-independent, so each takes
#: the same battery, and the production engines must match the oracle's
#: outcome byte for byte.
BACKENDS = (ORACLE_ENGINE, *registry.names())


@pytest.fixture(autouse=True, scope="module")
def _oracle_engine():
    with reference_engine():
        yield


class TestArithDecoderEntryPoint:
    def test_empty_data_eventually_raises(self):
        # Bypass bits consume input fastest; adaptive decode of an empty
        # stream legitimately yields zero bits for a long while (embedded
        # truncation semantics) before tripping the far-past-end guard.
        decoder = ArithmeticDecoder(b"")
        with pytest.raises(BitstreamError):
            for _ in range(10_000):
                decoder.decode_bit_raw()

    def test_truncated_data_eventually_raises(self):
        decoder = ArithmeticDecoder(b"\x13\x37")
        with pytest.raises(BitstreamError):
            for _ in range(10_000):
                decoder.decode_bit_raw()

    def test_garbage_decodes_or_raises_bitstream_error(self, rng):
        for seed in range(20):
            data = bytes(np.random.default_rng(seed).integers(0, 256, 24, dtype=np.uint8))
            decoder = ArithmeticDecoder(data)
            try:
                for _ in range(2000):
                    decoder.decode("ctx")
            except BitstreamError:
                pass


class TestBitReaderEntryPoint:
    def test_read_bit_past_end(self):
        reader = BitReader(b"")
        with pytest.raises(BitstreamError):
            reader.read_bit()

    def test_read_bytes_past_end(self):
        reader = BitReader(b"ab")
        with pytest.raises(BitstreamError):
            reader.read_bytes(3)

    def test_truncated_uvarint(self):
        writer = BitWriter()
        writer.write_uvarint(300)
        data = writer.getvalue()[:-1]  # drop the terminating byte
        with pytest.raises(BitstreamError):
            BitReader(data).read_uvarint()

    def test_unterminated_uvarint_rejected(self):
        with pytest.raises(BitstreamError):
            BitReader(b"\x80" * 12).read_uvarint()

    def test_fuzzed_reads_never_leak_index_error(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            data = bytes(rng.integers(0, 256, int(rng.integers(0, 12)), dtype=np.uint8))
            reader = BitReader(data)
            ops = [
                lambda: reader.read_bit(),
                lambda: reader.read_bits(int(rng.integers(0, 16))),
                lambda: reader.read_bytes(int(rng.integers(0, 8))),
                lambda: (reader.align(), reader.read_uvarint()),
            ]
            try:
                for _ in range(8):
                    ops[int(rng.integers(0, len(ops)))]()
            except BitstreamError:
                pass


def _decode_outcome(parsed: EncodedImage, backend: str):
    """``("ok", reconstruction)`` or ``("error", message)`` for one engine."""
    codec = ImageCodec(
        CodecConfig(tile_size=32, base_step=1 / 128), backend=backend
    )
    try:
        return ("ok", codec.decode(parsed))
    except BitstreamError as exc:
        return ("error", str(exc))


@pytest.fixture(scope="module")
def valid_container() -> bytes:
    image = fractal_noise((64, 64), seed=31337, octaves=4, base_cells=4)
    codec = ImageCodec(
        CodecConfig(tile_size=32, base_step=1 / 128), backend=ORACLE_ENGINE
    )
    return codec.encode(image, n_layers=2).to_bytes()


class TestContainerEntryPoint:
    def test_bad_magic(self):
        with pytest.raises(BitstreamError):
            EncodedImage.from_bytes(b"NOPE" + b"\x00" * 64)

    def test_empty_and_tiny_inputs(self):
        for n in range(8):
            with pytest.raises(BitstreamError):
                EncodedImage.from_bytes(b"\xff" * n)

    def test_every_truncated_prefix_raises_bitstream_error(self, valid_container):
        """No prefix of a valid container may leak a non-repro exception."""
        data = valid_container
        for cut in range(len(data)):
            with pytest.raises(BitstreamError):
                EncodedImage.from_bytes(data[:cut])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_byte_corruptions_parse_or_raise(
        self, valid_container, backend
    ):
        """Flip every byte (sampled) → parse + decode never leak raw errors."""
        data = bytearray(valid_container)
        codec = ImageCodec(
            CodecConfig(tile_size=32, base_step=1 / 128), backend=backend
        )
        rng = np.random.default_rng(7)
        positions = rng.choice(len(data), size=min(160, len(data)), replace=False)
        for pos in positions:
            corrupted = bytearray(data)
            corrupted[pos] ^= int(rng.integers(1, 256))
            try:
                parsed = EncodedImage.from_bytes(bytes(corrupted))
                codec.decode(parsed)
            except ReproError:
                # BitstreamError/CodecError are the sanctioned failures.
                pass

    def test_fuzzed_random_blobs(self):
        magic_prefixed = np.random.default_rng(3)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            blob = bytes(rng.integers(0, 256, int(rng.integers(0, 96)), dtype=np.uint8))
            if magic_prefixed.random() < 0.5:
                blob = b"EPJ2" + blob
            with pytest.raises(BitstreamError):
                EncodedImage.from_bytes(blob)

    def test_cut_inside_roi_bitmap_raises(self):
        """The ROI bitmap (45 tiles: 5 full bytes and a padded sixth) is
        read whole; a cut anywhere inside it raises with the container's
        own message, and the full bitmap reads back bit for bit."""
        codec = ImageCodec(
            CodecConfig(tile_size=8, levels=1, base_step=1 / 64),
            backend=ORACLE_ENGINE,
        )
        roi = np.arange(45).reshape(5, 9) % 3 != 1
        encoded = codec.encode(
            np.random.default_rng(5).random((40, 72)), roi=roi
        )
        data = encoded.to_bytes()
        assert np.array_equal(EncodedImage.from_bytes(data).roi, roi)
        # Magic, seven single-byte uvarints and the 8-byte base step
        # precede the ROI size (one byte, 45), then come the 6 ROI bytes.
        assert data[19] == 45
        for cut in range(20, 26):
            with pytest.raises(BitstreamError, match="truncated ROI bitmap"):
                EncodedImage.from_bytes(data[:cut])

    def test_truncated_payload_rejected_not_garbled(self, valid_container):
        """Cutting inside the payload area must raise, not mis-decode."""
        with pytest.raises(BitstreamError):
            EncodedImage.from_bytes(valid_container[: len(valid_container) - 1])

    def test_corrupt_plane_segments_decode_or_raise(self, valid_container):
        """Garbage segment payloads decode or raise exactly as the oracle
        does under every engine: the same reconstruction, or the same
        BitstreamError."""
        for seed in (17, 18, 19):
            parsed = EncodedImage.from_bytes(valid_container)
            rng = np.random.default_rng(seed)
            for tile in parsed.tiles:
                for segment in tile.segments:
                    segment.data = bytes(
                        rng.integers(0, 256, len(segment.data), dtype=np.uint8)
                    )
            kind_ref, value_ref = _decode_outcome(parsed, ORACLE_ENGINE)
            if kind_ref == "ok":
                assert np.all(np.isfinite(value_ref))
            for backend in BACKENDS:
                kind, value = _decode_outcome(parsed, backend)
                assert kind == kind_ref, (seed, backend)
                if kind == "ok":
                    assert np.array_equal(value, value_ref), (seed, backend)
                else:
                    assert value == value_ref, (seed, backend)


class TestTruncationOverrunParity:
    """Every engine shares one overrun contract, byte for byte.

    The embedded streams legitimately decode from prefixes, but a decoder
    that reads 64 bytes past the end of a segment must raise
    :class:`BitstreamError` — and since all engines are bit-exact, a given
    truncated container must produce the *same* outcome (identical
    reconstruction, or the same error) under every registered engine.
    """

    def _truncate_segments(self, container: bytes, keep) -> EncodedImage:
        parsed = EncodedImage.from_bytes(container)
        for tile in parsed.tiles:
            for segment in tile.segments:
                segment.data = segment.data[: keep(len(segment.data))]
        return parsed

    @pytest.mark.parametrize("backend", registry.names())
    @pytest.mark.parametrize(
        "keep",
        [
            pytest.param(lambda n: 0, id="empty"),
            pytest.param(lambda n: 1, id="one-byte"),
            pytest.param(lambda n: n // 2, id="half"),
            pytest.param(lambda n: max(n - 1, 0), id="all-but-one"),
        ],
    )
    def test_truncated_segments_match_reference(
        self, valid_container, backend, keep
    ):
        parsed = self._truncate_segments(valid_container, keep)
        kind_ref, value_ref = _decode_outcome(parsed, ORACLE_ENGINE)
        kind, value = _decode_outcome(parsed, backend)
        assert kind == kind_ref
        if kind == "ok":
            assert np.array_equal(value, value_ref)
        else:
            assert value == value_ref

    @staticmethod
    def _emptied(image: np.ndarray, planes) -> tuple[CodecConfig, EncodedImage]:
        """``image`` coded by the oracle engine, with the segments that
        ``planes(tile)`` indexes emptied in every tile."""
        config = CodecConfig(tile_size=32, base_step=1 / 64)
        oracle = ImageCodec(config, backend=ORACLE_ENGINE)
        blob = oracle.encode(image).to_bytes()
        parsed = EncodedImage.from_bytes(blob)
        for tile in parsed.tiles:
            for index in planes(tile):
                tile.segments[index].data = b""
        return config, parsed

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_emptied_segments_decode_quietly(self, backend):
        """Zero-extension decodes an emptied segment like any prefix: this
        image's decisions stay within 64 bytes past every segment's end,
        so each engine returns the oracle's reconstruction."""
        image = fractal_noise((64, 64), seed=5, octaves=3, base_cells=4)
        config, parsed = self._emptied(
            image, lambda tile: range(len(tile.segments))
        )
        expected = ImageCodec(config, backend=ORACLE_ENGINE).decode(parsed)
        decoded = ImageCodec(config, backend=backend).decode(parsed)
        assert np.array_equal(decoded, expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_far_past_end_raises_bitstream_error(self, backend):
        """Zero-extension stops 64 bytes past the end, never runs away:
        white noise's finest plane, emptied, needs more than that."""
        image = np.random.default_rng(3).random((64, 64))
        config, parsed = self._emptied(
            image, lambda tile: [len(tile.segments) - 1]
        )
        codec = ImageCodec(config, backend=backend)
        with pytest.raises(BitstreamError, match="past end"):
            codec.decode(parsed)
