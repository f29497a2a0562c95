"""Compiled plane coder: native C kernels, byte-identical bitstreams.

:class:`CompiledPlaneCoder` is the ``compiled`` registry backend.  Both
directions run one native call per tile (:mod:`repro.codec._ckernels`).
Encode codes every plane, fusing significance / refinement pass
assembly, the adaptive context model, and the Subbotin range coder, and
returns each plane's codeword.  Decode is its mirror: one call takes the
kept segments back to back, primes a fresh range decoder per segment and
walks every band's passes.  Each band keeps a count of its significant
neighbours, bumped once when a coefficient turns significant, so a
significance context is one lookup in the start-of-plane state and no
per-pass context preparation or marshalling happens in Python.  The
kernels are exact ports, so the output is byte-identical to both the
reference and vectorized coders at every truncation point; the
differential, golden, and corruption harnesses enforce this for all
registered backends.

Construction requires the kernels: the registry's availability probe
keeps this class from being instantiated on machines without a C
toolchain (they fall back to ``vectorized``).
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
from repro.codec.fastpath import VectorizedPlaneCoder
from repro.errors import BitstreamError

_OVERRUN_MSG = "arithmetic decoder ran far past end of data"


class CompiledPlaneCoder(VectorizedPlaneCoder):
    """Bit-identical plane coder running its inner loops in native code.

    Same constructor and public API as :class:`VectorizedPlaneCoder`
    (and therefore as the reference ``SubbandPlaneCoder``).
    """

    def __init__(self, band_shapes: list[tuple[str, int, tuple[int, int]]]) -> None:
        super().__init__(band_shapes)
        kernels = _ckernels.load()
        if kernels is None:  # registry availability probe prevents this
            raise BitstreamError(
                f"compiled kernels unavailable: {_ckernels.unavailable_reason()}"
            )
        self._kernels = kernels
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
        """Encode all planes from ``max_plane`` down to 0 (see reference).

        One native call does everything for every plane — plane
        assembly, adaptive context modelling, range coding — so no
        decision stream is ever materialized on the Python side.
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
        """Decode a (possibly truncated) prefix of planes (see reference).

        One native call decodes every segment before the first one whose
        plane is out of sequence.  Errors keep the per-segment order: an
        overrun in a decoded segment wins over that later plane error.
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
