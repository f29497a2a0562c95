"""Vectorized fast path for the embedded bit-plane codec.

:class:`VectorizedPlaneCoder` is a drop-in replacement for
:class:`repro.codec.bitplane.SubbandPlaneCoder` that produces **byte-identical
bitstreams and identical reconstructions** (the contract is enforced by
``tests/codec/test_differential.py`` and the golden fixtures under
``tests/codec/golden/``).  It gets its speed from two changes, neither of
which alters a single coded bit:

* **Vectorized stream preparation** — per plane, the significance /
  sign / refinement decisions of every subband are assembled into flat
  ``(bits, contexts)`` arrays with numpy (significance propagation,
  neighbour contexts and sign interleaving all computed plane-at-a-time),
  instead of per-coefficient Python calls.
* **Batched range coding** — the sequential arithmetic-coding loop runs
  once per plane over those arrays in :class:`BatchRangeEncoder` /
  :class:`BatchRangeDecoder`, with integer context ids indexing flat count
  lists.  This removes the per-bit method dispatch, tuple-hashing context
  lookups and attribute traffic of the reference coder while performing
  the exact same range arithmetic in the exact same order.

The range-coder inner loops below deliberately inline the probability
computation, count update (:class:`repro.codec.arith.ContextModel` semantics,
clamp per :func:`repro.codec.arith.clamp_probability0`) and Subbotin
renormalization: a function call per bit is precisely the overhead this
module exists to remove.  Any change to the arithmetic here must be mirrored
in :mod:`repro.codec.arith` (and vice versa) — the differential test harness
fails loudly if the two drift.
"""

from __future__ import annotations

import numpy as np

from repro.codec.arith import _BOTTOM, _MASK32, _MAX_TOTAL, _TOP
from repro.codec.bitplane import (
    PlaneSegment,
    _neighbor_count,
    _significance_context,
    check_bands,
    check_max_plane,
    check_segment_plane,
)
from repro.errors import BitstreamError

#: Context ids per subband: 3 significance buckets, 1 sign, 1 refinement.
_CTX_PER_BAND = 5
_SIGN_OFFSET = 3
_REF_OFFSET = 4

_EMPTY_I64 = np.zeros(0, dtype=np.int64)


class BatchContextTable:
    """Adaptive context counts as flat lists indexed by integer context id.

    Semantically one :class:`repro.codec.arith.ContextModel` per id (same
    Laplace-smoothed counts, same halving at ``_MAX_TOTAL``), laid out for
    O(1) list indexing inside the batched coding loops.
    """

    __slots__ = ("count0", "count1")

    def __init__(self, n_contexts: int) -> None:
        self.count0 = [1] * n_contexts
        self.count1 = [1] * n_contexts


class BatchRangeEncoder:
    """Range encoder consuming whole (bits, contexts) arrays.

    Bit-identical to :class:`repro.codec.arith.ArithmeticEncoder` driven with
    the same decision sequence; the context state lives in a shared
    :class:`BatchContextTable` so it persists across the per-plane codewords
    exactly like a shared :class:`~repro.codec.arith.ContextSet`.
    """

    def __init__(self, table: BatchContextTable) -> None:
        self._table = table
        self._low = 0
        self._range = _MASK32
        self._out = bytearray()

    def encode_many(self, bits: list[int], ctxs: list[int]) -> None:
        """Encode ``bits[i]`` under the adaptive context ``ctxs[i]``, in order."""
        low = self._low
        rng = self._range
        append = self._out.append
        count0 = self._table.count0
        count1 = self._table.count1
        mask, top, bottom, max_total = _MASK32, _TOP, _BOTTOM, _MAX_TOTAL
        for bit, ctx in zip(bits, ctxs):
            n0 = count0[ctx]
            n1 = count1[ctx]
            # Inline ContextModel.probability0_scaled; the clamp
            # (arith.clamp_probability0) is a no-op for n0, n1 >= 1 and
            # total < _MAX_TOTAL, both invariants of the update below.
            p0 = (n0 << 16) // (n0 + n1)
            split = (rng >> 16) * p0
            if bit:
                low = (low + split) & mask
                rng -= split
                n1 += 1
            else:
                rng = split
                n0 += 1
            if n0 + n1 >= max_total:
                n0 = (n0 + 1) >> 1
                n1 = (n1 + 1) >> 1
            count0[ctx] = n0
            count1[ctx] = n1
            while True:
                if (low ^ (low + rng)) < top:
                    pass
                elif rng < bottom:
                    rng = (-low) & (bottom - 1)
                else:
                    break
                append((low >> 24) & 0xFF)
                low = (low << 8) & mask
                rng = (rng << 8) & mask
        self._low = low
        self._range = rng

    def encode_with_probs(self, bits: list[int], probs: list[int]) -> None:
        """Encode ``bits[i]`` at the precomputed scaled probability ``probs[i]``.

        The caller supplies the exact adaptive probability schedule (see
        :func:`probability_schedule`), so the loop is pure range arithmetic —
        the fastest exact path when the whole decision stream is known ahead
        of time, as it is on the encoder side.
        """
        low = self._low
        rng = self._range
        append = self._out.append
        mask, top, bottom = _MASK32, _TOP, _BOTTOM
        for bit, p0 in zip(bits, probs):
            split = (rng >> 16) * p0
            if bit:
                low = (low + split) & mask
                rng -= split
            else:
                rng = split
            while True:
                if (low ^ (low + rng)) < top:
                    pass
                elif rng < bottom:
                    rng = (-low) & (bottom - 1)
                else:
                    break
                append((low >> 24) & 0xFF)
                low = (low << 8) & mask
                rng = (rng << 8) & mask
        self._low = low
        self._range = rng

    def finish(self) -> bytes:
        """Flush and return the complete codeword."""
        low = self._low
        for _ in range(4):
            self._out.append((low >> 24) & 0xFF)
            low = (low << 8) & _MASK32
        self._low = low
        return bytes(self._out)


def probability_schedule(
    bits: np.ndarray, ctxs: np.ndarray, table: BatchContextTable
) -> np.ndarray:
    """Exact per-decision P(bit = 0) schedule for a known decision stream.

    The adaptive model's count evolution is fully determined by the (bit,
    context) sequence, so when the whole stream is known in advance — as on
    the encoder side — the probabilities every ``ContextModel`` would report
    can be replayed with cumulative sums instead of per-bit Python updates.
    Contexts are grouped with a stable argsort; within a context the counts
    between two halvings grow by exactly one per decision, so each stretch is
    one vectorized cumsum, and the deterministic halving at ``_MAX_TOTAL``
    splits a context's stream into at most a handful of stretches.

    Updates ``table`` to the post-stream counts (identical to feeding every
    decision through :meth:`ContextModel.update`) and returns the scaled
    probabilities; the 1..65535 clamp (:func:`~repro.codec.arith.clamp_probability0`)
    is provably a no-op for these counts so the values are returned raw.
    """
    n = int(bits.size)
    p0 = np.empty(n, dtype=np.int64)
    order = np.argsort(ctxs, kind="stable")
    sorted_ctx = ctxs[order]
    sorted_bits = bits[order]
    boundaries = np.flatnonzero(np.diff(sorted_ctx)) + 1
    starts = np.concatenate([[0], boundaries]).tolist()
    ends = np.concatenate([boundaries, [n]]).tolist()
    # One global pass gives, for every position, the number of zero bits
    # before it *within its context segment* (after subtracting the segment
    # start), so the per-context loop below is pure slicing.
    zeros = (sorted_bits == 0).astype(np.int64)
    zeros_incl = np.cumsum(zeros)
    zeros_excl = zeros_incl - zeros
    steps = np.arange(n, dtype=np.int64)
    sorted_p0 = np.empty(n, dtype=np.int64)
    count0 = table.count0
    count1 = table.count1
    for start, end in zip(starts, ends):
        ctx = int(sorted_ctx[start])
        c0 = count0[ctx]
        c1 = count1[ctx]
        done = start
        while done < end:
            # Updates remaining until the total reaches _MAX_TOTAL and the
            # counts halve; within the stretch, counts grow by one per step.
            until_halve = _MAX_TOTAL - (c0 + c1)
            step = min(end - done, until_halve)
            stretch = slice(done, done + step)
            zero_excl_base = int(zeros_excl[done])
            zero_base = c0 - zero_excl_base
            total_base = (c0 + c1) - done
            sorted_p0[stretch] = ((zero_base + zeros_excl[stretch]) << 16) // (
                total_base + steps[stretch]
            )
            stretch_zeros = int(zeros_incl[done + step - 1]) - zero_excl_base
            c0 += stretch_zeros
            c1 += step - stretch_zeros
            if step == until_halve:
                c0 = (c0 + 1) >> 1
                c1 = (c1 + 1) >> 1
            done += step
        count0[ctx] = c0
        count1[ctx] = c1
    p0[order] = sorted_p0
    return p0


class BatchRangeDecoder:
    """Range decoder mirroring :class:`BatchRangeEncoder`.

    Decoding cannot precompute its context stream (later contexts depend on
    decoded bits), so it exposes the two pass shapes the bit-plane coder
    needs: an interleaved significance+sign pass and a single-context
    refinement pass.
    """

    def __init__(self, data: bytes, table: BatchContextTable) -> None:
        self._table = table
        self._data = data
        # Reading modestly past the end is legal for truncated (embedded)
        # streams — the decoder sees zero bits — but running far past it is
        # a malformed stream, exactly as in ArithmeticDecoder._next_byte.
        self._limit = len(data) + 64
        self._pos = 0
        self._low = 0
        self._range = _MASK32
        code = 0
        for _ in range(4):
            if self._pos < len(data):
                byte = data[self._pos]
            else:
                byte = 0
            self._pos += 1
            code = ((code << 8) | byte) & _MASK32
        self._code = code

    def decode_sig_pass(
        self, ctxs: list[int], sign_ctx: int
    ) -> tuple[list[int], list[int]]:
        """Decode one significance pass.

        One adaptive bit per entry of ``ctxs``; every 1 bit is immediately
        followed by an adaptive sign bit under ``sign_ctx``.

        Returns:
            ``(bits, signs)`` — ``bits`` aligned with ``ctxs``; ``signs``
            aligned with the positions whose bit was 1, in order.
        """
        low = self._low
        rng = self._range
        code = self._code
        pos = self._pos
        data = self._data
        n_data = len(data)
        limit = self._limit
        count0 = self._table.count0
        count1 = self._table.count1
        mask, top, bottom, max_total = _MASK32, _TOP, _BOTTOM, _MAX_TOTAL
        bits: list[int] = []
        signs: list[int] = []
        bits_append = bits.append
        signs_append = signs.append
        for ctx in ctxs:
            n0 = count0[ctx]
            n1 = count1[ctx]
            p0 = (n0 << 16) // (n0 + n1)
            split = (rng >> 16) * p0
            if ((code - low) & mask) < split:
                bit = 0
                rng = split
                n0 += 1
            else:
                bit = 1
                low = (low + split) & mask
                rng -= split
                n1 += 1
            if n0 + n1 >= max_total:
                n0 = (n0 + 1) >> 1
                n1 = (n1 + 1) >> 1
            count0[ctx] = n0
            count1[ctx] = n1
            while True:
                if (low ^ (low + rng)) < top:
                    pass
                elif rng < bottom:
                    rng = (-low) & (bottom - 1)
                else:
                    break
                byte = data[pos] if pos < n_data else 0
                pos += 1
                if pos > limit:
                    raise BitstreamError(
                        "arithmetic decoder ran far past end of data"
                    )
                code = ((code << 8) | byte) & mask
                low = (low << 8) & mask
                rng = (rng << 8) & mask
            bits_append(bit)
            if bit:
                n0 = count0[sign_ctx]
                n1 = count1[sign_ctx]
                p0 = (n0 << 16) // (n0 + n1)
                split = (rng >> 16) * p0
                if ((code - low) & mask) < split:
                    sbit = 0
                    rng = split
                    n0 += 1
                else:
                    sbit = 1
                    low = (low + split) & mask
                    rng -= split
                    n1 += 1
                if n0 + n1 >= max_total:
                    n0 = (n0 + 1) >> 1
                    n1 = (n1 + 1) >> 1
                count0[sign_ctx] = n0
                count1[sign_ctx] = n1
                while True:
                    if (low ^ (low + rng)) < top:
                        pass
                    elif rng < bottom:
                        rng = (-low) & (bottom - 1)
                    else:
                        break
                    byte = data[pos] if pos < n_data else 0
                    pos += 1
                    if pos > limit:
                        raise BitstreamError(
                            "arithmetic decoder ran far past end of data"
                        )
                    code = ((code << 8) | byte) & mask
                    low = (low << 8) & mask
                    rng = (rng << 8) & mask
                signs_append(sbit)
        self._low = low
        self._range = rng
        self._code = code
        self._pos = pos
        return bits, signs

    def decode_ref_pass(self, count: int, ctx: int) -> list[int]:
        """Decode ``count`` refinement bits, all under context ``ctx``."""
        low = self._low
        rng = self._range
        code = self._code
        pos = self._pos
        data = self._data
        n_data = len(data)
        limit = self._limit
        count0 = self._table.count0
        count1 = self._table.count1
        mask, top, bottom, max_total = _MASK32, _TOP, _BOTTOM, _MAX_TOTAL
        n0 = count0[ctx]
        n1 = count1[ctx]
        bits: list[int] = []
        bits_append = bits.append
        for _ in range(count):
            p0 = (n0 << 16) // (n0 + n1)
            split = (rng >> 16) * p0
            if ((code - low) & mask) < split:
                bit = 0
                rng = split
                n0 += 1
            else:
                bit = 1
                low = (low + split) & mask
                rng -= split
                n1 += 1
            if n0 + n1 >= max_total:
                n0 = (n0 + 1) >> 1
                n1 = (n1 + 1) >> 1
            while True:
                if (low ^ (low + rng)) < top:
                    pass
                elif rng < bottom:
                    rng = (-low) & (bottom - 1)
                else:
                    break
                byte = data[pos] if pos < n_data else 0
                pos += 1
                if pos > limit:
                    raise BitstreamError(
                        "arithmetic decoder ran far past end of data"
                    )
                code = ((code << 8) | byte) & mask
                low = (low << 8) & mask
                rng = (rng << 8) & mask
            bits_append(bit)
        count0[ctx] = n0
        count1[ctx] = n1
        self._low = low
        self._range = rng
        self._code = code
        self._pos = pos
        return bits


def _prepare_band_plane(
    base: int,
    magnitude: np.ndarray,
    sign: np.ndarray,
    significant: np.ndarray,
    plane: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble one band's (bits, contexts) stream for one plane, in numpy.

    Produces exactly the decision sequence
    :meth:`SubbandPlaneCoder._encode_band_plane` would emit — significance
    bits in row-major order with each newly-significant coefficient's sign
    interleaved right after its 1 bit, followed by the refinement bits —
    and updates ``significant`` in place.
    """
    if magnitude.size == 0:
        return _EMPTY_I64, _EMPTY_I64
    bit_here = (magnitude >> plane) & 1
    if significant.any():
        neighbors = _neighbor_count(significant)
        sig_ctx = _significance_context(neighbors, "")
        insig = ~significant
        bits_i = bit_here[insig]
        ctxs_i = sig_ctx[insig].astype(np.int64) + base
        signs_i = sign[insig]
        ref_bits = bit_here[significant]
    else:
        # Nothing significant yet (top planes): every coefficient sits in
        # the zero-neighbour context and there is no refinement pass.
        bits_i = bit_here.ravel()
        ctxs_i = np.full(bits_i.size, base, dtype=np.int64)
        signs_i = sign.ravel()
        ref_bits = _EMPTY_I64
    n_new = int(bits_i.sum())
    if n_new:
        # Significance pass with interleaved signs: each 1 bit pushes later
        # entries one slot right to make room for its sign —
        # position = index + (number of earlier 1 bits).
        ones = bits_i.astype(bool)
        out_len = bits_i.size + n_new
        out_bits = np.empty(out_len, dtype=np.int64)
        out_ctxs = np.empty(out_len, dtype=np.int64)
        offsets = np.arange(bits_i.size, dtype=np.int64) + (
            np.cumsum(bits_i) - bits_i
        )
        out_bits[offsets] = bits_i
        out_ctxs[offsets] = ctxs_i
        sign_slots = offsets[ones] + 1
        out_bits[sign_slots] = signs_i[ones].astype(np.int64)
        out_ctxs[sign_slots] = base + _SIGN_OFFSET
        # Update shared significance state (both passes used the old one).
        significant |= bit_here.astype(bool)
    else:
        out_bits = bits_i
        out_ctxs = ctxs_i
    if ref_bits.size == 0:
        return out_bits, out_ctxs
    # Refinement pass: previously-significant coefficients, single context.
    ref_ctxs = np.full(ref_bits.size, base + _REF_OFFSET, dtype=np.int64)
    return (
        np.concatenate([out_bits, ref_bits]),
        np.concatenate([out_ctxs, ref_ctxs]),
    )


class VectorizedPlaneCoder:
    """Bit-identical vectorized replacement for ``SubbandPlaneCoder``.

    Same constructor and public API; the differential test harness asserts
    byte-identical plane segments and identical reconstructions at every
    truncation point.
    """

    def __init__(self, band_shapes: list[tuple[str, int, tuple[int, int]]]) -> None:
        """Args:
        band_shapes: ``(name, level, shape)`` per subband, coding order.
        """
        self.band_shapes = band_shapes
        # The reference coder keys contexts by band label, so duplicate
        # labels share adaptive state; reproduce that with shared bases.
        bases: dict[str, int] = {}
        self._bases: list[int] = []
        for key, _level, _shape in band_shapes:
            base = bases.setdefault(key, _CTX_PER_BAND * len(bases))
            self._bases.append(base)
        self._n_contexts = _CTX_PER_BAND * len(bases)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(
        self, bands: list[np.ndarray], max_plane: int
    ) -> list[PlaneSegment]:
        """Encode all planes from ``max_plane`` down to 0 (see reference)."""
        check_max_plane(max_plane)
        check_bands(self.band_shapes, bands)
        magnitudes = [np.abs(band).astype(np.int64) for band in bands]
        signs = [band < 0 for band in bands]
        significant = [np.zeros(band.shape, dtype=bool) for band in bands]
        table = BatchContextTable(self._n_contexts)
        segments: list[PlaneSegment] = []
        for plane in range(max_plane, -1, -1):
            encoder = BatchRangeEncoder(table)
            plane_bits: list[np.ndarray] = []
            plane_ctxs: list[np.ndarray] = []
            for idx in range(len(self.band_shapes)):
                bits, ctxs = _prepare_band_plane(
                    self._bases[idx],
                    magnitudes[idx],
                    signs[idx],
                    significant[idx],
                    plane,
                )
                if bits.size:
                    plane_bits.append(bits)
                    plane_ctxs.append(ctxs)
            if plane_bits:
                bits = np.concatenate(plane_bits)
                ctxs = np.concatenate(plane_ctxs)
                probs = probability_schedule(bits, ctxs, table)
                encoder.encode_with_probs(bits.tolist(), probs.tolist())
            segments.append(PlaneSegment(plane=plane, data=encoder.finish()))
        return segments

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(
        self, segments: list[PlaneSegment], max_plane: int
    ) -> list[np.ndarray]:
        """Decode a (possibly truncated) prefix of planes (see reference)."""
        check_max_plane(max_plane)
        table = BatchContextTable(self._n_contexts)
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
            decoder = BatchRangeDecoder(segment.data, table)
            for idx in range(len(self.band_shapes)):
                self._decode_band_plane(
                    decoder,
                    self._bases[idx],
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

    @staticmethod
    def _decode_band_plane(
        decoder: BatchRangeDecoder,
        base: int,
        magnitude: np.ndarray,
        sign: np.ndarray,
        significant: np.ndarray,
        plane: int,
    ) -> None:
        if magnitude.size == 0:
            return
        sig_flat = significant.ravel()
        mag_flat = magnitude.ravel()
        sign_flat = sign.ravel()
        if significant.any():
            neighbors = _neighbor_count(significant)
            sig_ctx = _significance_context(neighbors, "")
            insig_idx = np.flatnonzero(~sig_flat)
            prev_idx = np.flatnonzero(sig_flat)
            ctx_list = (
                sig_ctx.ravel()[insig_idx].astype(np.int64) + base
            ).tolist()
        else:
            # Nothing significant yet: zero-neighbour context everywhere,
            # no refinement pass (mirrors the encoder-side shortcut).
            insig_idx = np.arange(magnitude.size, dtype=np.int64)
            prev_idx = _EMPTY_I64
            ctx_list = [base] * magnitude.size
        plane_value = np.int64(1) << plane
        bits, sbits = decoder.decode_sig_pass(
            ctx_list,
            base + _SIGN_OFFSET,
        )
        newly = insig_idx[np.asarray(bits, dtype=bool)]
        mag_flat[newly] += plane_value
        sig_flat[newly] = True
        sign_flat[newly] = np.asarray(sbits, dtype=bool)
        ref_bits = decoder.decode_ref_pass(prev_idx.size, base + _REF_OFFSET)
        mag_flat[prev_idx[np.asarray(ref_bits, dtype=bool)]] += plane_value
