"""Per-bit entropy coder: the oracle the compiled plane coder must match.

The production entropy engine is the native ``compiled`` coder
(:mod:`repro.codec.compiled`).  Its specification lives here, outside
``src/``, so it can never run in production while every differential,
golden and corruption test can still check the engine against it:

* an adaptive binary arithmetic (range) coder with context modelling —
  :class:`ArithmeticEncoder` / :class:`ArithmeticDecoder` over
  :class:`ContextModel` counts — the carry-less byte-oriented Subbotin
  construction, with per-context Laplace-smoothed counts halved
  periodically so the model tracks local statistics, the role the MQ
  coder plays inside JPEG 2000;
* :class:`SubbandPlaneCoder`, the embedded bit-plane coder that drives it
  one decision at a time, with contexts keyed by band label;
* :func:`truncation_distortions`, the per-depth quantization error of a
  truncated stream.

:func:`reference_engine` registers the oracle as the ``reference`` codec
engine for the duration of a ``with`` block (or a fixture), so
``ImageCodec(backend="reference")`` runs whole images on it.  The module
is importable from ``tests/`` and ``benchmarks/`` through pytest's
``pythonpath`` setting; run scripts outside pytest with
``PYTHONPATH=src:tests``.

Correctness contract of the arithmetic coder (property-tested): for any
sequence of (bit, context) pairs, decoding the encoder's output with the
same fresh context set returns the original bits.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

from repro.codec import registry
from repro.codec.bitplane import (
    PlaneSegment,
    check_bands,
    check_max_plane,
    check_segment_plane,
)
from repro.errors import BitstreamError

#: Registry name of the oracle engine inside :func:`reference_engine`.
ORACLE_ENGINE = "reference"


# ----------------------------------------------------------------------
# Adaptive binary range coder
# ----------------------------------------------------------------------
_TOP = 1 << 24
_BOTTOM = 1 << 16
_MASK32 = 0xFFFFFFFF

#: Probability precision: P(bit = 0) is stored as count0 / total scaled into
#: a 16-bit range split.
_MAX_TOTAL = 1 << 12


def clamp_probability0(scaled: int) -> int:
    """Clamp a scaled P(bit = 0) into the coder's legal 1..65535 range.

    With Laplace-smoothed counts (both >= 1, total < ``_MAX_TOTAL``) the
    clamp is provably a no-op, but it guards the coder against any future
    count representation that can reach the boundaries; the native coder
    relies on that and omits it.
    """
    if scaled < 1:
        return 1
    if scaled > 65535:
        return 65535
    return scaled


class ContextModel:
    """Adaptive probability estimate for one binary context.

    Maintains Laplace-smoothed counts of zeroes and ones, halved whenever the
    total reaches ``_MAX_TOTAL`` so that the estimate adapts to
    non-stationary sources.
    """

    __slots__ = ("count0", "count1")

    def __init__(self) -> None:
        self.count0 = 1
        self.count1 = 1

    def probability0_scaled(self) -> int:
        """P(bit = 0) scaled to 1..65535 (never 0 or 65536)."""
        total = self.count0 + self.count1
        return clamp_probability0((self.count0 << 16) // total)

    def update(self, bit: int) -> None:
        """Fold an observed bit into the estimate."""
        if bit:
            self.count1 += 1
        else:
            self.count0 += 1
        if self.count0 + self.count1 >= _MAX_TOTAL:
            self.count0 = (self.count0 + 1) >> 1
            self.count1 = (self.count1 + 1) >> 1


class ContextSet:
    """A named family of :class:`ContextModel` instances.

    Encoder and decoder must build their context sets identically (same
    labels, fresh counts); the coder itself is stateless beyond this.
    """

    def __init__(self) -> None:
        self._models: dict[object, ContextModel] = {}

    def get(self, label: object) -> ContextModel:
        """Fetch (creating on first use) the model for ``label``."""
        model = self._models.get(label)
        if model is None:
            model = ContextModel()
            self._models[label] = model
        return model


class ArithmeticEncoder:
    """Range encoder producing a byte string from (bit, context) decisions."""

    def __init__(self, contexts: ContextSet | None = None) -> None:
        self.contexts = contexts if contexts is not None else ContextSet()
        self._low = 0
        self._range = _MASK32
        self._out = bytearray()

    def encode(self, bit: int, context_label: object) -> None:
        """Encode one bit under the adaptive model for ``context_label``."""
        model = self.contexts.get(context_label)
        p0 = model.probability0_scaled()
        split = (self._range >> 16) * p0
        if bit == 0:
            self._range = split
        else:
            self._low = (self._low + split) & _MASK32
            self._range -= split
        model.update(bit)
        self._normalize()

    def encode_bit_raw(self, bit: int) -> None:
        """Encode one bit at fixed probability 1/2 (bypass mode)."""
        split = self._range >> 1
        if bit == 0:
            self._range = split
        else:
            self._low = (self._low + split) & _MASK32
            self._range -= split
        self._normalize()

    def _normalize(self) -> None:
        # Subbotin carry-less renormalization: emit top bytes while the
        # range is small or while low/top bytes are pinned.
        while True:
            if (self._low ^ (self._low + self._range)) < _TOP:
                pass  # top byte settled; emit below
            elif self._range < _BOTTOM:
                self._range = (-self._low) & (_BOTTOM - 1)
            else:
                return
            self._out.append((self._low >> 24) & 0xFF)
            self._low = (self._low << 8) & _MASK32
            self._range = (self._range << 8) & _MASK32

    def finish(self) -> bytes:
        """Flush and return the complete codeword."""
        for _ in range(4):
            self._out.append((self._low >> 24) & 0xFF)
            self._low = (self._low << 8) & _MASK32
        return bytes(self._out)


class ArithmeticDecoder:
    """Range decoder; mirror image of :class:`ArithmeticEncoder`."""

    def __init__(self, data: bytes, contexts: ContextSet | None = None) -> None:
        self.contexts = contexts if contexts is not None else ContextSet()
        self._data = data
        self._pos = 0
        self._low = 0
        self._range = _MASK32
        self._code = 0
        for _ in range(4):
            self._code = ((self._code << 8) | self._next_byte()) & _MASK32

    def _next_byte(self) -> int:
        if self._pos < len(self._data):
            byte = self._data[self._pos]
            self._pos += 1
            return byte
        # Reading past the end is legal for truncated (embedded) streams:
        # the decoder just sees zero bits, mirroring JPEG 2000 behaviour.
        self._pos += 1
        if self._pos > len(self._data) + 64:
            raise BitstreamError("arithmetic decoder ran far past end of data")
        return 0

    def decode(self, context_label: object) -> int:
        """Decode one bit under the adaptive model for ``context_label``."""
        model = self.contexts.get(context_label)
        p0 = model.probability0_scaled()
        split = (self._range >> 16) * p0
        offset = (self._code - self._low) & _MASK32
        if offset < split:
            bit = 0
            self._range = split
        else:
            bit = 1
            self._low = (self._low + split) & _MASK32
            self._range -= split
        model.update(bit)
        self._normalize()
        return bit

    def decode_bit_raw(self) -> int:
        """Decode one bypass-mode bit (fixed probability 1/2)."""
        split = self._range >> 1
        offset = (self._code - self._low) & _MASK32
        if offset < split:
            bit = 0
            self._range = split
        else:
            bit = 1
            self._low = (self._low + split) & _MASK32
            self._range -= split
        self._normalize()
        return bit

    def _normalize(self) -> None:
        while True:
            if (self._low ^ (self._low + self._range)) < _TOP:
                pass
            elif self._range < _BOTTOM:
                self._range = (-self._low) & (_BOTTOM - 1)
            else:
                return
            self._code = ((self._code << 8) | self._next_byte()) & _MASK32
            self._low = (self._low << 8) & _MASK32
            self._range = (self._range << 8) & _MASK32


# ----------------------------------------------------------------------
# Embedded bit-plane coder
# ----------------------------------------------------------------------
def _neighbor_count(significant: np.ndarray) -> np.ndarray:
    """Number of significant 8-neighbours for every position."""
    height, width = significant.shape
    padded = np.zeros((height + 2, width + 2), dtype=np.int32)
    padded[1:-1, 1:-1] = significant
    return (
        padded[:-2, :-2] + padded[:-2, 1:-1] + padded[:-2, 2:]
        + padded[1:-1, :-2] + padded[1:-1, 2:]
        + padded[2:, :-2] + padded[2:, 1:-1] + padded[2:, 2:]
    )


def _significance_context(neighbors: np.ndarray, band_key: str) -> np.ndarray:
    """Bucket neighbour counts into 3 contexts (0 / 1-2 / 3+) per band."""
    bucket = np.zeros(neighbors.shape, dtype=np.int8)
    bucket[(neighbors >= 1) & (neighbors <= 2)] = 1
    bucket[neighbors >= 3] = 2
    return bucket


class SubbandPlaneCoder:
    """Codes the magnitude bit-planes of a list of subband arrays.

    Encoder and decoder share this class; the direction is chosen per call.
    All subbands of a tile are coded inside each plane (coarsest subband
    first) so one truncation point cuts the whole tile consistently.
    """

    def __init__(self, band_shapes: list[tuple[str, int, tuple[int, int]]]) -> None:
        """Args:
        band_shapes: ``(name, level, shape)`` for each subband, in the
            fixed coding order (coarsest-first as produced by
            ``WaveletCoeffs.subbands``).
        """
        self.band_shapes = band_shapes

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(
        self, bands: list[np.ndarray], max_plane: int
    ) -> list[PlaneSegment]:
        """Encode all planes from ``max_plane`` down to 0.

        Args:
            bands: Quantized int arrays matching ``band_shapes`` order.
            max_plane: Highest occupied plane (from
                :func:`repro.codec.quantize.max_bitplane`).

        Returns:
            One :class:`PlaneSegment` per plane, most significant first.
        """
        check_max_plane(max_plane)
        self._check_bands(bands)
        magnitudes = [np.abs(band).astype(np.int64) for band in bands]
        signs = [band < 0 for band in bands]
        significant = [np.zeros(band.shape, dtype=bool) for band in bands]
        contexts = ContextSet()
        segments: list[PlaneSegment] = []
        for plane in range(max_plane, -1, -1):
            encoder = ArithmeticEncoder(contexts)
            for idx, (name, level, _) in enumerate(self.band_shapes):
                self._encode_band_plane(
                    encoder,
                    name,
                    magnitudes[idx],
                    signs[idx],
                    significant[idx],
                    plane,
                )
            segments.append(PlaneSegment(plane=plane, data=encoder.finish()))
        return segments

    def _encode_band_plane(
        self,
        encoder: ArithmeticEncoder,
        band_key: str,
        magnitude: np.ndarray,
        sign: np.ndarray,
        significant: np.ndarray,
        plane: int,
    ) -> None:
        if magnitude.size == 0:
            return
        bit_here = (magnitude >> plane) & 1
        prev_significant = significant.copy()
        neighbors = _neighbor_count(prev_significant)
        sig_ctx = _significance_context(neighbors, band_key)
        flat_newly = ~prev_significant
        # Significance pass: previously-insignificant coefficients.
        ys, xs = np.nonzero(flat_newly)
        bits = bit_here[ys, xs]
        ctxs = sig_ctx[ys, xs]
        sgns = sign[ys, xs]
        encode = encoder.encode
        for position in range(ys.size):
            bit = int(bits[position])
            encode(bit, (band_key, "sig", int(ctxs[position])))
            if bit:
                encode(int(sgns[position]), (band_key, "sign"))
        # Refinement pass: already-significant coefficients.
        ys, xs = np.nonzero(prev_significant)
        bits = bit_here[ys, xs]
        for position in range(ys.size):
            encode(int(bits[position]), (band_key, "ref"))
        # Update shared significance state.
        significant |= bit_here.astype(bool)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(
        self, segments: list[PlaneSegment], max_plane: int
    ) -> list[np.ndarray]:
        """Decode however many plane segments are present.

        Args:
            segments: A (possibly truncated) prefix of the encoded planes,
                most significant first.
            max_plane: The ``max_plane`` used at encode time.

        Returns:
            Signed integer reconstructions (missing planes read as zeros;
            partially-decoded magnitudes get no midpoint correction here —
            that happens at dequantization).
        """
        check_max_plane(max_plane)
        contexts = ContextSet()
        magnitudes = [
            np.zeros(shape, dtype=np.int64) for _, _, shape in self.band_shapes
        ]
        signs = [
            np.zeros(shape, dtype=bool) for _, _, shape in self.band_shapes
        ]
        significant = [
            np.zeros(shape, dtype=bool) for _, _, shape in self.band_shapes
        ]
        expected_plane = max_plane
        for segment in segments:
            check_segment_plane(segment.plane, expected_plane)
            decoder = ArithmeticDecoder(segment.data, contexts)
            for idx, (name, level, _) in enumerate(self.band_shapes):
                self._decode_band_plane(
                    decoder,
                    name,
                    magnitudes[idx],
                    signs[idx],
                    significant[idx],
                    segment.plane,
                )
            expected_plane -= 1
        out = []
        for magnitude, sign in zip(magnitudes, signs):
            values = magnitude.copy()
            values[sign] = -values[sign]
            out.append(values)
        return out

    def _decode_band_plane(
        self,
        decoder: ArithmeticDecoder,
        band_key: str,
        magnitude: np.ndarray,
        sign: np.ndarray,
        significant: np.ndarray,
        plane: int,
    ) -> None:
        if magnitude.size == 0:
            return
        prev_significant = significant.copy()
        neighbors = _neighbor_count(prev_significant)
        sig_ctx = _significance_context(neighbors, band_key)
        plane_value = 1 << plane
        decode = decoder.decode
        ys, xs = np.nonzero(~prev_significant)
        ctxs = sig_ctx[ys, xs]
        for position in range(ys.size):
            bit = decode((band_key, "sig", int(ctxs[position])))
            if bit:
                y, x = ys[position], xs[position]
                magnitude[y, x] += plane_value
                significant[y, x] = True
                sign[y, x] = bool(decode((band_key, "sign")))
        ys, xs = np.nonzero(prev_significant)
        for position in range(ys.size):
            if decode((band_key, "ref")):
                magnitude[ys[position], xs[position]] += plane_value

    def _check_bands(self, bands: list[np.ndarray]) -> None:
        check_bands(self.band_shapes, bands)


def truncation_distortions(
    bands: list[np.ndarray], max_plane: int
) -> list[float]:
    """Sum-squared quantization-index error at each truncation depth.

    Entry ``k`` is the SSE (in quantization-index units, per subband summed)
    if only the top ``k`` planes are kept: the decoder sees
    ``magnitude >> (max_plane + 1 - k) << (max_plane + 1 - k)``.

    The caller weights these by squared subband steps to get pixel-domain
    distortion estimates for rate allocation.
    """
    out: list[float] = []
    for kept in range(max_plane + 2):
        shift = max_plane + 1 - kept
        sse = 0.0
        for band in bands:
            magnitude = np.abs(band).astype(np.int64)
            truncated = (magnitude >> shift) << shift if shift > 0 else magnitude
            diff = (magnitude - truncated).astype(np.float64)
            sse += float(np.sum(diff * diff))
        out.append(sse)
    return out


# ----------------------------------------------------------------------
# The oracle behind ImageCodec
# ----------------------------------------------------------------------
@contextlib.contextmanager
def reference_engine():
    """Register :class:`SubbandPlaneCoder` as the ``reference`` engine.

    The registration lasts for the ``with`` block only: on exit the
    registry is restored to exactly what it held before, and the
    ``"real"`` alias never names the oracle.
    """
    with mock.patch.dict(registry._REGISTRY):
        registry.register(
            registry.CodecBackend(
                name=ORACLE_ENGINE,
                description="per-bit adaptive arithmetic coder (test oracle)",
                coder_factory=SubbandPlaneCoder,
            )
        )
        yield
