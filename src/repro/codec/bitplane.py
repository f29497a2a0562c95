"""Embedded bit-plane coding of quantized subbands.

The quantized coefficients of a tile are coded magnitude-bit-plane by
bit-plane, most significant first, so the bitstream is *embedded*: any
prefix (at plane granularity) decodes to a coarser-but-valid reconstruction.
This is what makes post-compression rate-distortion truncation and quality
layers possible (:mod:`repro.codec.jpeg2000`), mirroring EBCOT's role in
JPEG 2000.

Context modelling follows the parallel-context simplification: a
coefficient's significance context is derived from its 8-neighbourhood
significance *as of the previous plane*, so encoder and decoder compute
contexts from information both already share, and the per-plane (bit,
context) streams can be prepared with vectorized numpy before the sequential
arithmetic-coding loop.

Each plane is flushed into its own arithmetic codeword (a few bytes of
overhead) so that a truncated stream is a clean list of whole segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codec.arith import ArithmeticDecoder, ArithmeticEncoder, ContextSet
from repro.errors import BitstreamError


@dataclass
class PlaneSegment:
    """One coded bit-plane of one subband group.

    Attributes:
        plane: Bit-plane index (higher = more significant).
        data: The flushed arithmetic codeword for this plane.
    """

    plane: int
    data: bytes


def check_bands(
    band_shapes: list[tuple[str, int, tuple[int, int]]],
    bands: list[np.ndarray],
) -> None:
    """Validate that ``bands`` matches the declared count and shapes.

    Shared by the reference and vectorized plane coders.

    Raises:
        BitstreamError: On any count or shape mismatch.
    """
    if len(bands) != len(band_shapes):
        raise BitstreamError(
            f"expected {len(band_shapes)} subbands, got {len(bands)}"
        )
    for band, (name, level, shape) in zip(bands, band_shapes):
        if tuple(band.shape) != tuple(shape):
            raise BitstreamError(
                f"subband {name}{level} shape {band.shape} != expected {shape}"
            )


#: The highest bit-plane a non-negative int64 magnitude occupies.
MAX_PLANE = 62


def check_max_plane(max_plane: int) -> None:
    """Refuse a top plane above :data:`MAX_PLANE`.

    Shared by every plane coder's ``encode`` and ``decode``: no int64
    magnitude has a bit above plane 62, and the compiled coder's shifts
    are undefined in C from plane 63, so engines would disagree there.

    Raises:
        ValueError: When ``max_plane`` exceeds :data:`MAX_PLANE`.
    """
    if max_plane > MAX_PLANE:
        raise ValueError(
            f"max_plane {max_plane} exceeds {MAX_PLANE}, the top bit-plane "
            "of an int64 magnitude"
        )


def check_segment_plane(plane: int, expected: int) -> None:
    """Validate one decoded segment's plane against the descending order.

    Shared by every plane coder's ``decode``.

    Raises:
        BitstreamError: When ``plane`` is not ``expected`` or lies below
            plane 0 (more segments than ``max_plane + 1``).
    """
    if plane < 0:
        raise BitstreamError(f"plane segment below plane 0: got {plane}")
    if plane != expected:
        raise BitstreamError(
            f"plane segments out of order: expected {expected}, got {plane}"
        )


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
