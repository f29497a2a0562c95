"""Compiled plane coder: native C kernels, byte-identical bitstreams.

:class:`CompiledPlaneCoder` is the ``compiled`` registry backend.  Both
directions run one native call per plane (:mod:`repro.codec._ckernels`).
Encode fuses significance / refinement pass assembly, the adaptive
context model, and the Subbotin range coder.  Decode is its mirror: the
kernel primes a fresh range decoder and walks every band's passes,
taking each significance context from the start-of-plane state in C, so
no per-pass context preparation or marshalling happens in Python.  The
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
from repro.codec.bitplane import PlaneSegment, check_bands, check_segment_plane
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

    def _plane_args(
        self,
        magnitudes: list[np.ndarray],
        signs: list[np.ndarray],
        significant: list[np.ndarray],
    ) -> tuple[np.ndarray, ...]:
        """Per-band pointer and shape arrays the plane kernels walk.

        Built once per encode or decode; every array must be contiguous
        and stay alive for the whole call.
        """
        ptrs = [
            np.array([a.ctypes.data for a in arrays], dtype=np.int64)
            for arrays in (magnitudes, signs, significant)
        ]
        heights = np.array([m.shape[0] for m in magnitudes], dtype=np.int64)
        widths = np.array([m.shape[1] for m in magnitudes], dtype=np.int64)
        bases = np.asarray(self._bases, dtype=np.int64)
        return (*ptrs, heights, widths, bases)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(
        self, bands: list[np.ndarray], max_plane: int
    ) -> list[PlaneSegment]:
        """Encode all planes from ``max_plane`` down to 0 (see reference).

        One native call per plane does everything — plane assembly,
        adaptive context modelling, range coding — so no decision stream
        is ever materialized on the Python side.
        """
        check_bands(self.band_shapes, bands)
        magnitudes = [
            np.ascontiguousarray(np.abs(band).astype(np.int64))
            for band in bands
        ]
        signs = [np.ascontiguousarray(band < 0) for band in bands]
        significant = [np.zeros(band.shape, dtype=np.uint8) for band in bands]
        count0 = np.ones(self._n_contexts, dtype=np.int64)
        count1 = np.ones(self._n_contexts, dtype=np.int64)
        args = self._plane_args(magnitudes, signs, significant)
        total_size = int(sum(m.size for m in magnitudes))
        segments: list[PlaneSegment] = []
        for plane in range(max_plane, -1, -1):
            data = self._kernels.encode_plane(
                *args, plane, count0, count1, total_size
            )
            segments.append(PlaneSegment(plane=plane, data=data))
        return segments

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(
        self, segments: list[PlaneSegment], max_plane: int
    ) -> list[np.ndarray]:
        """Decode a (possibly truncated) prefix of planes (see reference).

        One native call per segment decodes the whole plane, every band.
        """
        shapes = [shape for _, _, shape in self.band_shapes]
        magnitudes = [np.zeros(shape, dtype=np.int64) for shape in shapes]
        signs = [np.zeros(shape, dtype=bool) for shape in shapes]
        significant = [np.zeros(shape, dtype=np.uint8) for shape in shapes]
        count0 = np.ones(self._n_contexts, dtype=np.int64)
        count1 = np.ones(self._n_contexts, dtype=np.int64)
        args = self._plane_args(magnitudes, signs, significant)
        expected_plane = max_plane
        for segment in segments:
            check_segment_plane(segment.plane, expected_plane)
            if not self._kernels.decode_plane(
                segment.data, *args, segment.plane, count0, count1
            ):
                raise BitstreamError(_OVERRUN_MSG)
            expected_plane -= 1
        for magnitude, sign in zip(magnitudes, signs):
            np.negative(magnitude, out=magnitude, where=sign)
        return magnitudes
