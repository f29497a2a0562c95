"""Compiled plane coder: the production entropy engine.

:class:`CompiledPlaneCoder` is the ``compiled`` registry backend (the one
the ``"real"`` alias names).  Both directions run one native call per
tile (:mod:`repro.codec._ckernels`).  Encode codes every plane, fusing
significance / refinement pass assembly, the adaptive context model, and
the Subbotin range coder, and returns each plane's codeword.  Decode is
its mirror: one call takes the kept segments back to back, primes a
fresh range decoder per segment and walks every band's passes.  Each
band keeps a count of its significant neighbours, bumped once when a
coefficient turns significant, so a significance context is one lookup
in the start-of-plane state and no per-pass context preparation or
marshalling happens in Python.  The bitstreams are byte-identical to the
per-bit oracle coder (``SubbandPlaneCoder`` in ``tests/codec_oracle.py``)
at every truncation point; the differential, golden, and corruption
harnesses enforce this.
"""

from __future__ import annotations

import numpy as np

from repro.codec import _ckernels
from repro.codec.bitplane import (
    PlaneSegment,
    check_bands,
    check_max_plane,
    check_segment_plane,
)
from repro.errors import BitstreamError

_OVERRUN_MSG = "arithmetic decoder ran far past end of data"

#: Context ids per band label: 3 significance buckets (0 / 1-2 / 3+
#: significant neighbours), then 1 sign and 1 refinement context.
_CTX_PER_BAND = 5


class CompiledPlaneCoder:
    """Embedded bit-plane coder running its inner loops in native code.

    All subbands of a tile are coded inside each plane, in the given
    order, so one truncation point cuts the whole tile consistently.
    """

    def __init__(self, band_shapes: list[tuple[str, int, tuple[int, int]]]) -> None:
        """Args:
        band_shapes: ``(name, level, shape)`` per subband, in the fixed
            coding order (coarsest first, as ``WaveletCoeffs.subbands``
            produces them).

        Raises:
            CodecError: When the kernels cannot be built.
        """
        self.band_shapes = band_shapes
        # Contexts are keyed by band label, so bands with the same label
        # share adaptive state: each label gets one base of
        # _CTX_PER_BAND context ids.
        bases: dict[str, int] = {}
        self._bases: list[int] = [
            bases.setdefault(key, _CTX_PER_BAND * len(bases))
            for key, _level, _shape in band_shapes
        ]
        self._n_contexts = _CTX_PER_BAND * len(bases)
        self._kernels = _ckernels.load()
        # The tile kernels read the bands back to back from one flat
        # buffer per array, described by each band's shape and context
        # base; `_extents` locates each band in those buffers.
        shapes = [shape for _, _, shape in band_shapes]
        self._geometry = (
            np.array([h for h, _ in shapes], dtype=np.int64),
            np.array([w for _, w in shapes], dtype=np.int64),
            np.asarray(self._bases, dtype=np.int64),
        )
        ends = np.cumsum([h * w for h, w in shapes], dtype=np.int64).tolist()
        self._size = ends[-1] if ends else 0
        self._extents = list(zip([0, *ends], ends, shapes))

    def _bands_of(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-band views of a flat buffer of the tile's bands."""
        return [
            flat[start:end].reshape(shape)
            for start, end, shape in self._extents
        ]

    def _state(self) -> tuple[np.ndarray, ...]:
        """Fresh coder state for one tile, each array contiguous.

        The zeroed significance maps and significant-neighbour counts
        (flat, like the bands) and the ``count0``/``count1`` context
        table.
        """
        maps = np.zeros((2, self._size), dtype=np.uint8)
        counts = np.ones((2, self._n_contexts), dtype=np.int64)
        return maps[0], maps[1], counts[0], counts[1]

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(
        self, bands: list[np.ndarray], max_plane: int
    ) -> list[PlaneSegment]:
        """Encode all planes from ``max_plane`` down to 0.

        One native call does everything for every plane — plane
        assembly, adaptive context modelling, range coding — so no
        decision stream is ever materialized on the Python side.

        Args:
            bands: Quantized int arrays matching ``band_shapes`` order.
            max_plane: Highest occupied plane (from
                :func:`repro.codec.quantize.max_bitplane`).

        Returns:
            One :class:`PlaneSegment` per plane, most significant first.

        Raises:
            ValueError: ``max_plane`` above ``bitplane.MAX_PLANE``.
            BitstreamError: Bands that do not match ``band_shapes``.
        """
        check_max_plane(max_plane)
        check_bands(self.band_shapes, bands)
        magnitudes = np.empty(self._size, dtype=np.int64)
        signs = np.empty(self._size, dtype=bool)
        for band, magnitude, sign in zip(
            bands, self._bands_of(magnitudes), self._bands_of(signs)
        ):
            magnitude[...] = np.abs(band)
            sign[...] = band < 0
        significant, neighbours, count0, count1 = self._state()
        datas = self._kernels.encode_tile(
            magnitudes, signs, significant, neighbours, *self._geometry,
            max_plane, count0, count1,
        )
        return [
            PlaneSegment(plane=max_plane - k, data=data)
            for k, data in enumerate(datas)
        ]

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(
        self, segments: list[PlaneSegment], max_plane: int
    ) -> list[np.ndarray]:
        """Decode a (possibly truncated) prefix of planes.

        One native call decodes every segment before the first one whose
        plane is out of sequence.  Errors keep the per-segment order: an
        overrun in a decoded segment wins over that later plane error.

        Args:
            segments: A prefix of the encoded planes, most significant
                first.
            max_plane: The ``max_plane`` used at encode time.

        Returns:
            Signed integer reconstructions (missing planes read as zeros;
            the midpoint correction happens at dequantization).

        Raises:
            BitstreamError: A segment out of plane order or below plane
                0, or one whose decoder ran far past its end.
        """
        check_max_plane(max_plane)
        magnitudes = np.zeros(self._size, dtype=np.int64)
        signs = np.zeros(self._size, dtype=bool)
        kept = next(
            (
                k
                for k, segment in enumerate(segments)
                if segment.plane != max_plane - k or segment.plane < 0
            ),
            len(segments),
        )
        significant, neighbours, count0, count1 = self._state()
        if not self._kernels.decode_tile(
            [segment.data for segment in segments[:kept]],
            magnitudes, signs, significant, neighbours, *self._geometry,
            max_plane, count0, count1,
        ):
            raise BitstreamError(_OVERRUN_MSG)
        if kept < len(segments):
            check_segment_plane(segments[kept].plane, max_plane - kept)
        np.negative(magnitudes, out=magnitudes, where=signs)
        return self._bands_of(magnitudes)
