"""Calibrated fast rate model: codec behaviour without entropy-coding loops.

Driving the full arithmetic coder inside year-long constellation sweeps would
dominate runtime without changing any conclusion, so the simulator uses this
model: it performs the *real* transform and quantization (so distortion — and
therefore PSNR — is exact for the reconstruction it returns) and estimates the
entropy-coded size analytically from per-bit-plane significance statistics,
the same quantities the adaptive coder's contexts track.

The estimate is validated against the true coder in
``tests/codec/test_ratemodel.py`` (agreement within a calibrated tolerance);
treat it as the "Kakadu throughput path" of the reproduction.

The model runs batched: all ROI tiles of an image are transformed in one
:func:`~repro.codec.dwt.dwt_many` call, quantization and the per-bit-plane
significance statistics operate on ``(tile, h, w)`` stacks, and the step
search reuses its decompositions for the final encode.  Every batched
stage performs the same elementwise arithmetic in the same accumulation
order as the original per-tile loops (kept as the oracle in
``tests/sim_oracle.py``), so results (byte estimates AND reconstructions)
are bit-identical — the differential tests pin this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.codec import registry
from repro.codec.dwt import Wavelet, WaveletCoeffs, dwt_many, idwt_many
from repro.codec.jpeg2000 import CodecConfig, effective_levels
from repro.codec.metrics import psnr as psnr_metric
from repro.codec.quantize import QuantizerSpec
from repro.errors import CodecError, RateControlError
from repro.obs import trace

#: Container overhead per encoded tile (index, plane counts, lengths).
_TILE_OVERHEAD_BYTES = 8
#: Arithmetic-coder flush overhead per coded plane segment.
_PLANE_FLUSH_BYTES = 4
#: Fixed container header estimate.
_HEADER_BYTES = 32


def _binary_entropy(p: np.ndarray | float) -> np.ndarray | float:
    """Shannon entropy of a Bernoulli(p) bit, elementwise, in bits."""
    p = np.clip(np.asarray(p, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))


def _topbit_histogram(
    band_q_stack: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-tile histogram of coefficient top-bit positions.

    Returns ``(counts, tops, size)``: ``counts[t, p]`` is the number of
    coefficients of tile ``t`` whose magnitude's highest set bit is plane
    ``p``, ``tops[t]`` the tile's highest occupied plane (-1 when all
    zero), and ``size`` the per-tile coefficient count.  np.frexp is exact
    for the int32-quantized magnitudes (< 2^53): ``m = mantissa * 2**exp``
    with mantissa in [0.5, 1), so the top bit is ``exp - 1``.
    """
    n_tiles = band_q_stack.shape[0]
    magnitude = np.abs(band_q_stack.astype(np.int64)).reshape(n_tiles, -1)
    return _histogram_from_magnitudes(magnitude.astype(np.float64))


def _magnitude_histogram(
    band_stack: np.ndarray, step: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Top-bit histogram of dead-zone quantized magnitudes, sign-free.

    ``floor(|c| / step)`` produces exactly the magnitudes
    :func:`~repro.codec.quantize.quantize_coeffs` would (floor never
    crosses a power-of-two boundary, and the values stay far below 2^53),
    so the histogram matches :func:`_topbit_histogram` of the signed
    quantized stack while skipping the sign computation and integer
    round-trips the step search never needs.

    One exception: magnitudes at or above 2^31 wrap in the quantizer's
    int32 cast.  Such steps are absurdly fine (never reached by the rate
    search) but are reachable through the public ``encode(base_step=...)``
    — replicate the wrap exactly by deferring to the signed path.
    """
    n_tiles = band_stack.shape[0]
    kernels = registry.kernels()
    if kernels is not None and band_stack.dtype == np.float64 and n_tiles:
        # Fused native path: floor/abs/divide/top-bit/bincount in one pass
        # (same float ops, exact for the integer-valued magnitudes).
        flat = np.ascontiguousarray(band_stack.reshape(n_tiles, -1))
        counts_raw, tops = kernels.magnitude_histogram(flat, step)
        size = flat.shape[1]
        max_top = int(tops.max())
        if size and max_top >= 31:
            return _topbit_histogram(_quantize_stack(band_stack, step))
        n_bins = max(max_top, 0) + 1
        return np.ascontiguousarray(counts_raw[:, :n_bins]), tops, size
    magnitude = np.floor(np.abs(band_stack) / step).reshape(n_tiles, -1)
    counts, tops, size = _histogram_from_magnitudes(magnitude)
    if size and int(tops.max()) >= 31:
        return _topbit_histogram(_quantize_stack(band_stack, step))
    return counts, tops, size


def _histogram_from_magnitudes(
    magnitude: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Shared histogram core over float64 integer-valued magnitudes."""
    n_tiles = magnitude.shape[0]
    _, exponents = np.frexp(magnitude)
    topbit = exponents.astype(np.int64) - 1
    tops = topbit.max(axis=1)
    max_top = int(tops.max()) if n_tiles else -1
    n_bins = max(max_top, 0) + 2  # bin 0 holds zeros (topbit == -1)
    offsets = (np.arange(n_tiles, dtype=np.int64) * n_bins)[:, None]
    counts = np.bincount(
        (topbit + 1 + offsets).ravel(), minlength=n_tiles * n_bins
    ).reshape(n_tiles, n_bins)[:, 1:]
    return counts, tops, magnitude.shape[1]


def _plane_walk_bits(
    counts: np.ndarray, tops: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Entropy-model bit counts from top-bit histograms, batched.

    Replays the scalar descending plane walk (``estimate_band_bits`` in
    ``tests/sim_oracle.py``) for every row at once: all per-plane
    statistics (significant / newly-significant / insignificant counts)
    are exact integers derived from the histogram, the Bernoulli
    entropies are computed in one elementwise call, and each row's
    ``bits`` accumulator receives the same three additions in the same
    plane order as the scalar walk — so each row's result is
    bit-identical to the scalar estimate for that subband.

    Args:
        counts: ``(rows, planes)`` top-bit histograms (possibly padded
            with zero columns above each row's top plane).
        tops: ``(rows,)`` highest occupied plane per row (-1 if empty).
        sizes: ``(rows,)`` coefficient counts per row.

    Returns:
        ``(rows,)`` float64 estimated bits.
    """
    n_rows, n_planes = counts.shape
    bits = np.zeros(n_rows, dtype=np.float64)
    if n_planes == 0:
        return bits
    # n_ge[:, p] = #(topbit >= p); the significant count at plane p is
    # n_ge[:, p + 1].
    n_ge = counts[:, ::-1].cumsum(axis=1)[:, ::-1].astype(np.float64)
    sizes_f = sizes.astype(np.float64)
    k_mat = counts.astype(np.float64)
    n_sig_mat = np.zeros((n_rows, n_planes), dtype=np.float64)
    n_sig_mat[:, :-1] = n_ge[:, 1:]
    n_insig_mat = sizes_f[:, None] - n_sig_mat
    safe_insig = np.where(n_insig_mat > 0, n_insig_mat, 1.0)
    entropy_mat = _binary_entropy(k_mat / safe_insig)
    kernels = registry.kernels()
    if kernels is not None:
        # Native walk over the same precomputed entropy matrix (np.log2
        # stays in numpy so transcendental rounding cannot drift); the
        # per-plane integer statistics and the three accumulator
        # additions replay in the exact numpy order.
        return kernels.plane_walk_bits(
            np.ascontiguousarray(counts, dtype=np.int64),
            np.ascontiguousarray(tops, dtype=np.int64),
            np.ascontiguousarray(sizes, dtype=np.int64),
            np.ascontiguousarray(entropy_mat),
        )
    zero = np.zeros(n_rows, dtype=np.float64)
    for plane in range(n_planes - 1, -1, -1):
        # Rows whose top plane is below `plane` must contribute nothing —
        # the scalar walk starts at each subband's own top plane.
        active = plane <= tops
        n_insig = n_insig_mat[:, plane]
        contributes = active & (n_insig > 0)
        # Same three additions, in the same order, as the scalar walk;
        # inactive rows add exact zeros (a float no-op for bits >= 0).
        bits += np.where(contributes, n_insig * entropy_mat[:, plane], zero)
        bits += np.where(contributes, k_mat[:, plane], zero)
        bits += np.where(active, 0.95 * n_sig_mat[:, plane], zero)
    return bits


@dataclass(frozen=True)
class QualityLayer:
    """One quality-layer prefix of an encoded ROI.

    ``layers[k - 1]`` of a :class:`RateModelResult` describes what the
    ground receives when only the first ``k`` quality layers come down:
    the truncated coded size, and the (coarser) reconstruction plus its
    exact PSNR.  The last view always equals the full encode.

    Attributes:
        coded_bytes: Coded container bytes when trailing layers are shed.
        psnr_roi: PSNR over ROI pixels of the truncated reconstruction.
        reconstruction: Full-frame reconstruction from the kept layers.
    """

    coded_bytes: int
    psnr_roi: float
    reconstruction: np.ndarray


@dataclass
class RateModelResult:
    """Outcome of a rate-model encode.

    Attributes:
        coded_bytes: Estimated full-container size in bytes.
        payload_bytes: Estimated entropy-coded payload only.
        psnr_roi: Exact PSNR over ROI pixels of the returned reconstruction.
        reconstruction: The dequantized reconstruction (exact distortion).
        base_step: Quantizer step used.
        roi_pixels: Number of pixels inside the ROI.
        layers: Per-quality-layer prefix views, finest last (None when the
            encode was not layered, i.e. ``n_quality_layers == 1``, or
            when the views are produced lazily via ``layers_factory``).
        layers_factory: Deferred view construction.  Building the views
            costs extra encodes/decodes per band, and the downlink phase
            only reads them when a capture exceeds its contact capacity —
            so backends attach a thunk and the consumer materializes on
            demand.
    """

    coded_bytes: int
    payload_bytes: int
    psnr_roi: float
    reconstruction: np.ndarray
    base_step: float
    roi_pixels: int
    layers: tuple[QualityLayer, ...] | None = None
    layers_factory: "Callable[[], tuple[QualityLayer, ...]] | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def bits_per_roi_pixel(self) -> float:
        """Coded bits per ROI pixel (the paper's bpp axis)."""
        if self.roi_pixels == 0:
            return 0.0
        return self.coded_bytes * 8.0 / self.roi_pixels


class _DecompBatch(list):
    """ROI tile decompositions plus their stacked-subband batch plan.

    Behaves exactly like a plain list of ``(y0, y1, x0, x1, levels,
    coeffs)`` entries; ``plan`` additionally holds, per geometry group,
    ``(tile_indices, subband_meta, subband_stacks)`` so the step search
    quantizes prestacked subbands instead of restacking per bisection
    step.
    """

    def __init__(self, entries, plan) -> None:
        super().__init__(entries)
        self.plan = plan


def _plan_from_entries(entries) -> list[tuple]:
    """Build the stacked-subband batch plan for decomposition entries.

    Groups the ``(y0, y1, x0, x1, levels, coeffs)`` entries by geometry
    and stacks each subband position across its group.  The single
    source of the plan layout — transform, step search, and final encode
    all consume what this builds.
    """
    groups: dict[tuple[int, int, int], list[int]] = {}
    for idx, (_, _, _, _, levels, coeffs) in enumerate(entries):
        key = (coeffs.shape[0], coeffs.shape[1], levels)
        groups.setdefault(key, []).append(idx)
    plan = []
    for indices in groups.values():
        subband_lists = [entries[i][5].subbands() for i in indices]
        meta = [(n, l) for n, l, _ in subband_lists[0]]
        # np.stack preserves the F-ish order of dwt_many's subband views;
        # force C order so every downstream consumer (histogram kernels,
        # quantize, per-tile slicing) gets contiguous rows.  A pure copy:
        # same logical values, so every elementwise op stays bit-exact.
        stacks = [
            np.ascontiguousarray(
                np.stack([bands[b][2] for bands in subband_lists])
            )
            for b in range(len(meta))
        ]
        plan.append((indices, meta, stacks))
    return plan


def _quantize_stack(
    band_stack: np.ndarray, step: float
) -> np.ndarray:
    """Dead-zone quantize a stacked subband (elementwise twin of
    :func:`~repro.codec.quantize.quantize_coeffs`)."""
    magnitudes = np.floor(np.abs(band_stack) / step).astype(np.int32)
    signs = np.sign(band_stack).astype(np.int32)
    return signs * magnitudes


def _dequantize_stack(
    band_q_stack: np.ndarray, step: float, reconstruction_offset: float = 0.5
) -> np.ndarray:
    """Elementwise twin of :func:`~repro.codec.quantize.dequantize_coeffs`."""
    kernels = registry.kernels()
    if kernels is not None and band_q_stack.dtype == np.int32:
        flat = np.ascontiguousarray(band_q_stack)
        return kernels.dequantize(flat, step, reconstruction_offset)
    magnitudes = np.abs(band_q_stack).astype(np.float64)
    return np.where(
        band_q_stack != 0,
        np.sign(band_q_stack) * (magnitudes + reconstruction_offset) * step,
        0.0,
    )


def _dequantize_blocks(
    blocks: "list[np.ndarray]",
    steps: "list[float]",
    reconstruction_offset: float = 0.5,
) -> "list[np.ndarray]":
    """Dequantize one tile's subband list in a single native call.

    Elementwise-identical to mapping :func:`_dequantize_stack` over the
    blocks; the fused call only amortizes per-call overhead across the
    ~10 tiny subband arrays of a tile.
    """
    kernels = registry.kernels()
    if (
        kernels is not None
        and blocks
        and all(
            b.dtype == np.int32 and b.flags.c_contiguous for b in blocks
        )
    ):
        return kernels.dequantize_multi(blocks, steps, reconstruction_offset)
    return [
        _dequantize_stack(block, step, reconstruction_offset)
        for block, step in zip(blocks, steps)
    ]


def _payload_rows_per_block(plan, spec):
    """Per-(group, subband) histogram + one shared plane walk.

    Returns ``(pending, row_bits)`` where pending holds ``(tile, row,
    planes)`` per (tile, subband) — ``row`` indexes ``row_bits``, None for
    empty subbands — in plan order.
    """
    count_blocks: list[np.ndarray] = []
    top_blocks: list[np.ndarray] = []
    size_blocks: list[np.ndarray] = []
    pending: list[tuple[int, int | None, int]] = []
    n_rows = 0
    for indices, subband_meta, stacks in plan:
        for band_idx, (name, level) in enumerate(subband_meta):
            band_step = spec.step_for(name, level)
            if stacks[band_idx][0].size == 0:
                pending.extend((tile_idx, None, 0) for tile_idx in indices)
                continue
            counts, tops, size = _magnitude_histogram(
                stacks[band_idx], band_step
            )
            count_blocks.append(counts)
            top_blocks.append(tops)
            size_blocks.append(np.full(len(indices), size, dtype=np.int64))
            for pos, tile_idx in enumerate(indices):
                planes = int(tops[pos]) + 1 if tops[pos] >= 0 else 0
                pending.append((tile_idx, n_rows + pos, planes))
            n_rows += len(indices)
    if count_blocks:
        max_planes = max(block.shape[1] for block in count_blocks)
        counts_mat = np.zeros((n_rows, max_planes), dtype=np.int64)
        row = 0
        for block in count_blocks:
            counts_mat[row : row + block.shape[0], : block.shape[1]] = block
            row += block.shape[0]
        row_bits = _plane_walk_bits(
            counts_mat,
            np.concatenate(top_blocks),
            np.concatenate(size_blocks),
        )
    else:
        row_bits = np.zeros(0)
    return pending, row_bits


def _fused_payload_rows(plan, spec):
    """All of a plan's histograms in one native call, then the plane walk.

    Row-for-row identical to :func:`_payload_rows_per_block` — same float
    ops per block, same row order, same trimmed counts matrix — it only
    amortizes the per-subband call overhead.  Returns None (caller takes
    the per-block path) when the kernels are off, a stack isn't float64,
    or a block hits the int32 wrap regime (top bit >= 31), whose exact
    semantics live in :func:`_magnitude_histogram`.
    """
    kernels = registry.kernels()
    if kernels is None:
        return None
    flats: list[np.ndarray] = []
    steps: list[float] = []
    layout: list[tuple[list[int], int | None]] = []  # (tiles, block index)
    for indices, subband_meta, stacks in plan:
        for band_idx, (name, level) in enumerate(subband_meta):
            stack = stacks[band_idx]
            if stack[0].size == 0:
                layout.append((indices, None))
                continue
            if stack.dtype != np.float64:
                return None
            if not stack.flags.c_contiguous:
                stack = np.ascontiguousarray(stack)
            flats.append(stack.reshape(len(indices), -1))
            steps.append(spec.step_for(name, level))
            layout.append((indices, len(flats) - 1))
    if not flats:
        pending = [
            (tile_idx, None, 0) for indices, _ in layout for tile_idx in indices
        ]
        return pending, np.zeros(0)
    counts, tops = kernels.magnitude_histogram_multi(flats, steps)
    max_top = int(tops.max())
    if max_top >= 31:
        return None
    counts_mat = np.ascontiguousarray(counts[:, : max(max_top, 0) + 1])
    sizes = np.repeat(
        np.fromiter((f.shape[1] for f in flats), dtype=np.int64),
        np.fromiter((f.shape[0] for f in flats), dtype=np.int64),
    )
    row_bits = _plane_walk_bits(counts_mat, tops, sizes)
    offsets = np.cumsum([0] + [f.shape[0] for f in flats])
    pending: list[tuple[int, int | None, int]] = []
    for indices, block in layout:
        if block is None:
            pending.extend((tile_idx, None, 0) for tile_idx in indices)
            continue
        row0 = int(offsets[block])
        for pos, tile_idx in enumerate(indices):
            top = int(tops[row0 + pos])
            pending.append((tile_idx, row0 + pos, top + 1 if top >= 0 else 0))
    return pending, row_bits


class RateModel:
    """Fast encode-cost/quality model mirroring :class:`ImageCodec`.

    Args:
        config: Codec parameters (tile size, levels).
    """

    def __init__(self, config: CodecConfig | None = None) -> None:
        self.config = config if config is not None else CodecConfig()

    def _roi_tile_blocks(
        self, image: np.ndarray, roi: np.ndarray
    ) -> list[tuple[int, int, int, int]]:
        """Pixel bounds of every ROI tile, row-major."""
        tile = self.config.tile_size
        tiles_y, tiles_x = roi.shape
        out = []
        for ty in range(tiles_y):
            for tx in range(tiles_x):
                if not roi[ty, tx]:
                    continue
                y0, x0 = ty * tile, tx * tile
                y1 = min(y0 + tile, image.shape[0])
                x1 = min(x0 + tile, image.shape[1])
                out.append((y0, y1, x0, x1))
        return out

    def _tile_decompositions(
        self, image: np.ndarray, roi: np.ndarray
    ) -> list[tuple[int, int, int, int, int, object]]:
        """Forward-transform every ROI tile once (reused across step search).

        Same-shape tiles are transformed together in one
        :func:`~repro.codec.dwt.dwt_many` call (bit-identical per tile).

        Returns ``(y0, y1, x0, x1, levels, coeffs)`` per ROI tile,
        row-major.
        """
        bounds = self._roi_tile_blocks(image, roi)
        # Group tiles by block shape (full-size interior tiles plus up to
        # three edge shapes) and batch each group's transform.
        groups: dict[tuple[int, int], list[int]] = {}
        for idx, (y0, y1, x0, x1) in enumerate(bounds):
            groups.setdefault((y1 - y0, x1 - x0), []).append(idx)
        coeffs_by_idx: dict[int, tuple[int, object]] = {}
        for shape, indices in groups.items():
            levels = effective_levels(shape, self.config.levels)
            # Fill the (N, h, w) batch directly: the slice assignment
            # performs the same float64 cast as astype-then-stack, without
            # the per-block intermediates.
            batch = np.empty((len(indices),) + shape, dtype=np.float64)
            for k, i in enumerate(indices):
                y0, y1, x0, x1 = bounds[i]
                batch[k] = image[y0:y1, x0:x1]
            for i, coeffs in zip(
                indices, dwt_many(batch, levels, Wavelet.CDF97)
            ):
                coeffs_by_idx[i] = (levels, coeffs)
        entries = [bounds[i] + coeffs_by_idx[i] for i in range(len(bounds))]
        return _DecompBatch(entries, _plan_from_entries(entries))

    def _payload_stats(
        self, decomps, step: float, want_quantized: bool = True
    ) -> tuple[float, int, dict[int, list[np.ndarray]] | None]:
        """Per-step payload statistics shared by estimate and encode.

        Returns ``(payload_bits, n_plane_segments, quantized_by_tile)``
        where ``quantized_by_tile`` maps decomposition index to its
        quantized subband arrays (None unless ``want_quantized`` — the
        step search needs just the byte estimate).

        ``payload_bits`` is accumulated tile-major then subband-major —
        the exact order of the original per-tile loop — from per-band bit
        counts that are themselves bit-identical to the scalar plane walk.
        """
        spec = QuantizerSpec(base_step=step)
        # Quantize + estimate each subband position on stacks spanning
        # every same-geometry tile.  The stacks come prebuilt with the
        # decompositions; rebuild them when handed a plain list.
        plan = getattr(decomps, "plan", None)
        if plan is None:
            plan = _plan_from_entries(decomps)
        quantized_by_tile = (
            self._quantize_tiles_from_plan(plan, len(decomps), spec)
            if want_quantized
            else None
        )
        # Histogram every subband stack's quantized top-bit positions and
        # run ONE plane walk over all (tile, subband) rows at once.  The
        # bisection search never needs signed coefficients, so those are
        # only materialized for the final encode (want_quantized).
        fused = _fused_payload_rows(plan, spec)
        if fused is not None:
            pending, row_bits = fused
        else:
            pending, row_bits = _payload_rows_per_block(plan, spec)
        bits_by_tile: dict[int, list[float]] = {
            i: [] for i in range(len(decomps))
        }
        planes_by_tile: dict[int, int] = {i: 0 for i in range(len(decomps))}
        for tile_idx, row, planes in pending:
            bits_by_tile[tile_idx].append(
                float(row_bits[row]) if row is not None else 0.0
            )
            planes_by_tile[tile_idx] = max(planes_by_tile[tile_idx], planes)
        payload_bits = 0.0
        n_plane_segments = 0
        for tile_idx in range(len(decomps)):
            for bits in bits_by_tile[tile_idx]:
                payload_bits += bits
            n_plane_segments += planes_by_tile[tile_idx]
        return payload_bits, n_plane_segments, quantized_by_tile

    def _resolve_roi(
        self, image: np.ndarray, roi: np.ndarray | None
    ) -> np.ndarray:
        """Default and validate an ROI grid for ``image`` (single source
        of the tile-grid arithmetic)."""
        tile = self.config.tile_size
        grid_shape = (
            (image.shape[0] + tile - 1) // tile,
            (image.shape[1] + tile - 1) // tile,
        )
        if roi is None:
            return np.ones(grid_shape, dtype=bool)
        if roi.shape != grid_shape:
            raise CodecError(
                f"roi shape {roi.shape} != tile grid {grid_shape}"
            )
        return roi

    def prepare(
        self, image: np.ndarray, roi: np.ndarray | None = None
    ) -> list:
        """Precompute the step-independent transforms for (image, roi).

        Public entry point for warm-start callers: the returned
        decompositions can be passed to :meth:`encode` /
        :meth:`find_step_for_bytes` / :meth:`estimate_with_stats` so one
        forward transform is shared across a warm-step probe and the
        fallback search.  Backends without this method simply take the
        un-shared path.
        """
        return self._tile_decompositions(image, self._resolve_roi(image, roi))

    def estimate_with_stats(
        self, decomps, step: float
    ) -> tuple[int, float, int]:
        """Coded-size estimate plus the stats it derives from.

        Returns ``(coded_bytes, payload_bits, n_plane_segments)`` so
        callers that go on to encode at this exact step can skip
        recomputing the payload statistics (pass them back as
        ``payload_hint``).
        """
        with trace.span("codec"):
            payload_bits, n_plane_segments, _ = self._payload_stats(
                decomps, step, want_quantized=False
            )
            payload_bytes = int(math.ceil(payload_bits / 8.0))
            coded = (
                payload_bytes
                + _HEADER_BYTES
                + len(decomps) * _TILE_OVERHEAD_BYTES
                + n_plane_segments * _PLANE_FLUSH_BYTES
            )
            return coded, payload_bits, n_plane_segments

    def _estimate_bytes(self, decomps, step: float) -> int:
        """Coded-size estimate at ``step`` from precomputed decompositions."""
        return self.estimate_with_stats(decomps, step)[0]

    def encode(
        self,
        image: np.ndarray,
        base_step: float | None = None,
        roi: np.ndarray | None = None,
        decompositions: list | None = None,
        payload_hint: tuple[float, float, int] | None = None,
    ) -> RateModelResult:
        """Model-encode ``image`` with quantizer ``base_step`` over ``roi``.

        Args:
            image: 2-D float image in [0, 1].
            base_step: Quantizer base step (defaults to config).
            roi: Boolean tile grid; only True tiles are coded.  Non-ROI
                pixels come back as zeros in the reconstruction.
            decompositions: Optional precomputed output of
                :meth:`_tile_decompositions` for this exact (image, roi),
                letting the step search skip a redundant forward transform.
            payload_hint: Optional ``(step, payload_bits,
                n_plane_segments)`` from a prior
                :meth:`estimate_with_stats` at this exact step; used to
                skip recomputing payload statistics.

        Returns:
            A :class:`RateModelResult` with byte estimate and exact PSNR.
        """
        if image.ndim != 2:
            raise CodecError(f"expected 2-D image, got shape {image.shape}")
        step = base_step if base_step is not None else self.config.base_step
        if step <= 0:
            raise CodecError(f"base_step must be positive, got {step}")
        roi = self._resolve_roi(image, roi)
        with trace.span("codec"):
            return self._encode_batched(
                image, step, roi, decompositions, payload_hint
            )

    def _quantize_tiles(
        self, decomps, spec: QuantizerSpec
    ) -> dict[int, list[np.ndarray]] | None:
        """Quantized subband arrays per tile from a batch plan.

        The quantize-only half of :meth:`_payload_stats`; returns None
        when the decompositions carry no batch plan.
        """
        plan = getattr(decomps, "plan", None)
        if plan is None:
            return None
        return self._quantize_tiles_from_plan(plan, len(decomps), spec)

    @staticmethod
    def _quantize_tiles_from_plan(
        plan, n_tiles: int, spec: QuantizerSpec
    ) -> dict[int, list[np.ndarray]]:
        """Dead-zone quantize every subband stack of a batch plan."""
        quantized_by_tile: dict[int, list[np.ndarray]] = {
            i: [] for i in range(n_tiles)
        }
        for indices, subband_meta, stacks in plan:
            for band_idx, (name, level) in enumerate(subband_meta):
                q_stack = _quantize_stack(
                    stacks[band_idx], spec.step_for(name, level)
                )
                for pos, tile_idx in enumerate(indices):
                    quantized_by_tile[tile_idx].append(q_stack[pos])
        return quantized_by_tile

    def _encode_batched(
        self,
        image: np.ndarray,
        step: float,
        roi: np.ndarray,
        decompositions: list | None,
        payload_hint: tuple[float, float, int] | None = None,
    ) -> RateModelResult:
        """Batched encode: one transform + stacked quantize/dequantize.

        Bit-identical to the original per-tile encode loop — the transform
        batch, stacked (de)quantization, and payload accumulation all
        preserve its elementwise arithmetic and summation order.
        """
        decomps = (
            decompositions
            if decompositions is not None
            else self._tile_decompositions(image, roi)
        )
        spec = QuantizerSpec(base_step=step)
        quantized_by_tile = None
        if payload_hint is not None and payload_hint[0] == step:
            # The step search already computed this step's statistics.
            quantized_by_tile = self._quantize_tiles(decomps, spec)
        if quantized_by_tile is not None:
            payload_bits, n_plane_segments = payload_hint[1], payload_hint[2]
        else:
            payload_bits, n_plane_segments, quantized_by_tile = (
                self._payload_stats(decomps, step)
            )
        recon = np.zeros(image.shape, dtype=np.float64)
        roi_mask_pixels = np.zeros(image.shape, dtype=bool)
        # Dequantize on stacks grouped by geometry, then invert each group
        # with one batched synthesis.
        groups: dict[tuple[int, int, int], list[int]] = {}
        for idx, (y0, y1, x0, x1, levels, _) in enumerate(decomps):
            roi_mask_pixels[y0:y1, x0:x1] = True
            groups.setdefault((y1 - y0, x1 - x0, levels), []).append(idx)
        for (height, width, levels), indices in groups.items():
            rebuilt: list[WaveletCoeffs] = []
            for tile_idx in indices:
                coeffs = decomps[tile_idx][5]
                meta = [(n, l) for n, l, _ in coeffs.subbands()]
                dequantized = _dequantize_blocks(
                    quantized_by_tile[tile_idx],
                    [spec.step_for(name, level) for name, level in meta],
                )
                rebuilt.append(
                    WaveletCoeffs(
                        approx=dequantized[0],
                        details=[
                            (
                                dequantized[1 + 3 * i],
                                dequantized[2 + 3 * i],
                                dequantized[3 + 3 * i],
                            )
                            for i in range(levels)
                        ],
                        shape=(height, width),
                        wavelet=Wavelet.CDF97,
                    )
                )
            blocks = np.clip(idwt_many(rebuilt), 0.0, 1.0)
            for pos, tile_idx in enumerate(indices):
                y0, y1, x0, x1 = decomps[tile_idx][:4]
                recon[y0:y1, x0:x1] = blocks[pos]
        return self._assemble_result(
            image, recon, roi_mask_pixels, payload_bits,
            len(decomps), n_plane_segments, step,
        )

    def _assemble_result(
        self,
        image: np.ndarray,
        recon: np.ndarray,
        roi_mask_pixels: np.ndarray,
        payload_bits: float,
        n_tiles: int,
        n_plane_segments: int,
        step: float,
    ) -> RateModelResult:
        """Container accounting + PSNR for an encode."""
        payload_bytes = int(math.ceil(payload_bits / 8.0))
        coded_bytes = (
            payload_bytes
            + _HEADER_BYTES
            + n_tiles * _TILE_OVERHEAD_BYTES
            + n_plane_segments * _PLANE_FLUSH_BYTES
        )
        roi_pixels = int(roi_mask_pixels.sum())
        if roi_pixels:
            quality = psnr_metric(
                image[roi_mask_pixels], recon[roi_mask_pixels]
            )
        else:
            quality = math.inf
        return RateModelResult(
            coded_bytes=coded_bytes,
            payload_bytes=payload_bytes,
            psnr_roi=quality,
            reconstruction=recon,
            base_step=step,
            roi_pixels=roi_pixels,
        )

    def find_step_for_bytes(
        self,
        image: np.ndarray,
        target_bytes: int,
        roi: np.ndarray | None = None,
        tolerance: float = 0.05,
        max_iterations: int = 24,
        decompositions: list | None = None,
    ) -> RateModelResult:
        """Bisection search for the base step that meets a byte budget.

        Args:
            image: 2-D float image.
            target_bytes: Desired coded size.
            roi: Boolean tile grid restriction.
            tolerance: Acceptable relative overshoot/undershoot.
            max_iterations: Bisection iteration cap.
            decompositions: Optional precomputed
                :meth:`_tile_decompositions` output for (image, roi),
                letting warm-start callers share one forward transform
                across a rejected warm encode and the fallback search.

        Returns:
            The result at the chosen step (the largest-quality step whose
            size is within tolerance of — or below — the budget).

        Raises:
            RateControlError: If even the coarsest step exceeds the budget.
        """
        if target_bytes <= 0:
            raise RateControlError(
                f"target_bytes must be positive, got {target_bytes}"
            )
        roi = self._resolve_roi(image, roi)
        # The transform does not depend on the step: do it once, then walk
        # the step axis with cheap quantize+entropy-estimate evaluations.
        decomps = (
            decompositions
            if decompositions is not None
            else self._tile_decompositions(image, roi)
        )
        # Every candidate step's payload stats are remembered so the final
        # encode (always at an evaluated step) can skip recomputing them.
        stats_by_step: dict[float, tuple[float, int]] = {}

        def estimate(step: float) -> int:
            coded, payload_bits, segments = self.estimate_with_stats(
                decomps, step
            )
            stats_by_step[step] = (payload_bits, segments)
            return coded

        def final(step: float) -> RateModelResult:
            hint = None
            if step in stats_by_step:
                hint = (step,) + stats_by_step[step]
            return self.encode(
                image, step, roi, decompositions=decomps, payload_hint=hint
            )

        lo_step, hi_step = 1.0 / 65536.0, 1.0
        if estimate(hi_step) > target_bytes * (1.0 + tolerance):
            # Even the coarsest quantizer cannot fit (container overhead
            # dominates tiny budgets); deliver the coarsest encode as the
            # best effort, exactly as a real encoder ships its floor rate.
            return final(hi_step)
        best_step = hi_step
        for _ in range(max_iterations):
            mid = math.sqrt(lo_step * hi_step)
            coded = estimate(mid)
            if coded <= target_bytes:
                best_step = mid
                hi_step = mid
            else:
                lo_step = mid
            if abs(coded - target_bytes) <= tolerance * target_bytes:
                if coded <= target_bytes:
                    best_step = mid
                break
        return final(best_step)
