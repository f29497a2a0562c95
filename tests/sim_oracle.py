"""Reference simulation kernels: the oracle the production path must match.

The simulation has one production path (the compiled kernels for the
DWT, the rate model's histograms and imagery synthesis, the batched tile
pipeline in the rate model and encoder, warm-state imagery and capture
caches).  The original straightforward implementations live here,
outside ``src/``, so they can never run in production but every
differential test can still check the production path against them:

* the per-sample DWT lifting loops (``analysis_53_reference`` & co.),
  run axis by axis (:func:`forward_many_reference`,
  :func:`inverse_many_reference`);
* the per-depth distortion curve of the image codec
  (:func:`distortion_curve_reference`);
* the scalar plane-walk entropy estimate (:func:`estimate_band_bits`) and
  the per-tile rate-model loops (:func:`encode_reference`,
  :func:`tile_decompositions_reference`, :func:`payload_stats_reference`);
* the per-band capture pipeline (:func:`process_band`);
* imagery synthesis: fractal noise summed octave by octave in numpy
  (:func:`fractal_field_reference`) over ``np.ix_`` value-noise gathers
  (:func:`value_noise_reference`), each band of a capture rendered by
  separate numpy passes with boolean-mask composites
  (:func:`render_pixels_reference`), and every tile's change count
  replayed from its gap stream (:func:`version_grid_reference`);
* uncached imagery: ground truth composed by pasting one numpy
  change-cell block at a time, each rendered on every call, over a base
  map built from numpy class-table gathers, and snow texture
  (:func:`ground_truth_uncached`, :func:`compose_surface_reference`,
  :func:`cell_block_uncached`, :func:`base_map_reference`,
  :func:`snow_texture_uncached`);
* the cloud detectors' split search, one boolean mask per candidate
  threshold (:func:`best_split_reference`);
* the ground segment's per-element passes: block means over an
  edge-padded float64 copy (:func:`edge_blocks_reference`), the mosaic's
  reference and validity each downsampling the filled mask
  (:func:`low_res_reference_two_pass`), the tile-by-tile delta comparison
  (:func:`delta_tiles_per_tile`), bitmaps written and read one bit at a
  time (:func:`write_bitmap_per_bit`, :func:`read_bitmap_per_bit`), and
  cloud features whose band means average a stacked copy of the bands
  (:func:`cloud_features_reference`).

:func:`reference_path` swaps these in for whole production functions
for the duration of a ``with`` block, so a whole scenario can run on the
reference implementations and be compared byte for byte with a
production run.  The per-bit entropy coder has its own oracle,
``tests/codec_oracle.py``.  The module is importable from ``tests/`` and
``benchmarks/`` through pytest's ``pythonpath`` setting; run scripts
outside pytest with ``PYTHONPATH=src:tests``.
"""

from __future__ import annotations

import contextlib
import weakref
from unittest import mock

import numpy as np

from repro.codec import dwt
from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.dwt import (
    Wavelet,
    WaveletCoeffs,
    forward_dwt2d,
    inverse_dwt2d,
)
from repro.codec.jpeg2000 import ImageCodec, effective_levels
from repro.codec.quantize import (
    QuantizerSpec,
    dequantize_coeffs,
    quantize_coeffs,
)
from repro.codec.ratemodel import RateModel, RateModelResult, _binary_entropy
from repro.core import cloud, reference
from repro.core.cloud import DecisionTree
from repro.core.change_detection import ChangeDetectionResult, detect_changes
from repro.core.encoder import BandEncodeResult, EarthPlusEncoder
from repro.core.reference import (
    GroundMosaic,
    OnboardReferenceCache,
    downsample_image,
)
from repro.errors import ImageryError
from repro.imagery import noise, sensor
from repro.imagery.bands import Band
from repro.imagery.clouds import CloudSample
from repro.imagery.earth_model import (
    _CLASS_REFLECTANCE,
    _CLASS_TEXTURE,
    EarthModel,
)
from repro.imagery.events import ChangeEventProcess, TileChangeModel
from repro.imagery.illumination import IlluminationSample
from repro.imagery.noise import (
    _octave_seed,
    fractal_noise,
    smoothstep,
    stable_hash,
)
from repro.imagery.sensor import Capture
from repro.obs import trace


# CDF 9/7 lifting constants (ITU-T T.800 Annex F).
_ALPHA = -1.586134342059924
_BETA = -0.052980118572961
_GAMMA = 0.882911075530934
_DELTA = 0.443506852043971
_KAPPA = 1.230174104914001


def _sym_index(idx: int, length: int) -> int:
    """Whole-point symmetric extension index for out-of-range ``idx``."""
    if length == 1:
        return 0
    period = 2 * (length - 1)
    idx = idx % period
    if idx < 0:
        idx += period
    if idx >= length:
        idx = period - idx
    return idx


# ----------------------------------------------------------------------
# LeGall 5/3 — per-sample loops
# ----------------------------------------------------------------------
def analysis_53_reference(
    signal: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """1-D LeGall 5/3 analysis along the first axis (integer, reversible)."""
    length = signal.shape[0]
    if length == 1:
        return signal.copy(), signal[:0].copy()
    even = signal[0::2].astype(np.int64)
    odd = signal[1::2].astype(np.int64)
    n_odd = odd.shape[0]
    # Predict: d[i] = x[2i+1] - floor((x[2i] + x[2i+2]) / 2)
    left = even[:n_odd]
    right_idx = [_sym_index(2 * i + 2, length) for i in range(n_odd)]
    right = signal[right_idx].astype(np.int64)
    detail = odd - ((left + right) >> 1)
    # Update: s[i] = x[2i] + floor((d[i-1] + d[i] + 2) / 4)
    n_even = even.shape[0]
    d_left = np.empty_like(even)
    d_right = np.empty_like(even)
    for i in range(n_even):
        li = i - 1
        ri = i
        if li < 0:
            li = 0 if n_odd > 0 else -1
        if ri >= n_odd:
            ri = n_odd - 1
        d_left[i] = detail[li] if n_odd > 0 else 0
        d_right[i] = detail[ri] if n_odd > 0 else 0
    approx = even + ((d_left + d_right + 2) >> 2)
    return approx, detail


def synthesis_53_reference(
    approx: np.ndarray, detail: np.ndarray, length: int
) -> np.ndarray:
    """Inverse of :func:`analysis_53_reference`; bit-exact on integers."""
    if length == 1:
        return approx.copy()
    n_even = approx.shape[0]
    n_odd = detail.shape[0]
    d_left = np.empty_like(approx)
    d_right = np.empty_like(approx)
    for i in range(n_even):
        li = i - 1
        ri = i
        if li < 0:
            li = 0 if n_odd > 0 else -1
        if ri >= n_odd:
            ri = n_odd - 1
        d_left[i] = detail[li] if n_odd > 0 else 0
        d_right[i] = detail[ri] if n_odd > 0 else 0
    even = approx - ((d_left + d_right + 2) >> 2)
    signal = np.empty((length,) + approx.shape[1:], dtype=np.int64)
    signal[0::2] = even
    if n_odd:
        left = even[:n_odd]
        right = np.empty_like(detail)
        for i in range(n_odd):
            src = _sym_index(2 * i + 2, length)
            # After reconstruction, even samples live at even indices; the
            # mirrored index is always even for whole-point extension of an
            # even-start signal, so it maps into `even` directly.
            right[i] = even[src // 2] if src % 2 == 0 else 0
        signal[1::2] = detail + ((left + right) >> 1)
    return signal


# ----------------------------------------------------------------------
# CDF 9/7 — per-sample boundary loops
# ----------------------------------------------------------------------
def analysis_97_reference(
    signal: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """1-D CDF 9/7 lifting analysis along the first axis (float)."""
    length = signal.shape[0]
    if length == 1:
        return signal.astype(np.float64) * _KAPPA, signal[:0].astype(np.float64)
    x = signal.astype(np.float64)
    even = x[0::2].copy()
    odd = x[1::2].copy()
    n_odd = odd.shape[0]
    n_even = even.shape[0]

    def mirrored_even(position: int) -> np.ndarray:
        src = _sym_index(position, length)
        if src % 2 == 0:
            return even[src // 2]
        return odd[src // 2]

    # Step 1 (predict with alpha): d += alpha * (left_even + right_even)
    right1 = np.empty_like(odd)
    for i in range(n_odd):
        right1[i] = mirrored_even(2 * i + 2)
    odd += _ALPHA * (even[:n_odd] + right1)
    # Step 2 (update with beta): s += beta * (left_detail + right_detail)
    if n_odd:
        d_pad_left = np.concatenate([odd[:1], odd])[:n_even]
        d_pad_right = odd[:n_even] if n_even <= n_odd else np.concatenate(
            [odd, odd[-1:]]
        )[:n_even]
        even += _BETA * (d_pad_left + d_pad_right)
    # Step 3 (predict with gamma)
    if n_odd:
        s_right = np.concatenate([even[1:], even[-1:]])[:n_odd]
        odd += _GAMMA * (even[:n_odd] + s_right)
    # Step 4 (update with delta)
    if n_odd:
        d_pad_left = np.concatenate([odd[:1], odd])[:n_even]
        d_pad_right = odd[:n_even] if n_even <= n_odd else np.concatenate(
            [odd, odd[-1:]]
        )[:n_even]
        even += _DELTA * (d_pad_left + d_pad_right)
    # Scaling
    even *= _KAPPA
    odd /= _KAPPA
    return even, odd


def synthesis_97_reference(
    approx: np.ndarray, detail: np.ndarray, length: int
) -> np.ndarray:
    """Inverse of :func:`analysis_97_reference` (floating point)."""
    if length == 1:
        return approx / _KAPPA
    even = approx.astype(np.float64) / _KAPPA
    odd = detail.astype(np.float64) * _KAPPA
    n_odd = odd.shape[0]
    n_even = even.shape[0]
    # Undo step 4
    if n_odd:
        d_pad_left = np.concatenate([odd[:1], odd])[:n_even]
        d_pad_right = odd[:n_even] if n_even <= n_odd else np.concatenate(
            [odd, odd[-1:]]
        )[:n_even]
        even -= _DELTA * (d_pad_left + d_pad_right)
    # Undo step 3
    if n_odd:
        s_right = np.concatenate([even[1:], even[-1:]])[:n_odd]
        odd -= _GAMMA * (even[:n_odd] + s_right)
    # Undo step 2
    if n_odd:
        d_pad_left = np.concatenate([odd[:1], odd])[:n_even]
        d_pad_right = odd[:n_even] if n_even <= n_odd else np.concatenate(
            [odd, odd[-1:]]
        )[:n_even]
        even -= _BETA * (d_pad_left + d_pad_right)
    # Undo step 1
    if n_odd:
        signal = np.empty((length,) + even.shape[1:], dtype=np.float64)
        signal[0::2] = even

        def mirrored_even(position: int) -> np.ndarray:
            src = _sym_index(position, length)
            if src % 2 == 0:
                return even[src // 2]
            return odd[src // 2] - 0.0  # odd branch cannot occur (see below)

        right1 = np.empty_like(odd)
        for i in range(n_odd):
            right1[i] = mirrored_even(2 * i + 2)
        odd -= _ALPHA * (even[:n_odd] + right1)
        signal[1::2] = odd
        return signal
    signal = np.empty((length,) + even.shape[1:], dtype=np.float64)
    signal[0::2] = even
    return signal


# ----------------------------------------------------------------------
# The 2-D transform, axis by axis
# ----------------------------------------------------------------------
def transform_axis(
    data: np.ndarray, axis: int, wavelet: Wavelet
) -> tuple[np.ndarray, np.ndarray]:
    """Apply 1-D analysis along ``axis`` (any number of other axes)."""
    moved = np.moveaxis(data, axis, 0)
    if wavelet is Wavelet.LEGALL53:
        approx, detail = analysis_53_reference(moved)
    else:
        approx, detail = analysis_97_reference(moved)
    return np.moveaxis(approx, 0, axis), np.moveaxis(detail, 0, axis)


def inverse_axis(
    approx: np.ndarray,
    detail: np.ndarray,
    axis: int,
    length: int,
    wavelet: Wavelet,
) -> np.ndarray:
    """Apply 1-D synthesis along ``axis``."""
    approx_m = np.moveaxis(approx, axis, 0)
    detail_m = np.moveaxis(detail, axis, 0)
    if wavelet is Wavelet.LEGALL53:
        merged = synthesis_53_reference(approx_m, detail_m, length)
    else:
        merged = synthesis_97_reference(approx_m, detail_m, length)
    return np.moveaxis(merged, 0, axis)


def forward_many_reference(
    stack: np.ndarray, levels: int, wavelet: Wavelet
) -> list[WaveletCoeffs]:
    """``dwt._forward_many`` lifting an (N, H, W) stack level by level:
    along H, then along W on the low rows and on the high rows."""
    current = stack.astype(
        np.int64 if wavelet is Wavelet.LEGALL53 else np.float64, copy=False
    )
    n_images, height, width = current.shape
    detail_stacks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for _ in range(levels):
        low_rows, high_rows = transform_axis(current, 1, wavelet)
        ll, hl = transform_axis(low_rows, 2, wavelet)
        lh, hh = transform_axis(high_rows, 2, wavelet)
        detail_stacks.append((hl, lh, hh))
        current = ll
    detail_stacks.reverse()
    return [
        WaveletCoeffs(
            approx=current[i],
            details=[(hl[i], lh[i], hh[i]) for hl, lh, hh in detail_stacks],
            shape=(height, width),
            wavelet=wavelet,
        )
        for i in range(n_images)
    ]


def inverse_many_reference(coeffs_list: list[WaveletCoeffs]) -> np.ndarray:
    """``dwt._inverse_many`` undoing the lifting level by level, on the
    subbands as production packs (and checks) them."""
    first = coeffs_list[0]
    _, stacks = dwt._pack_subbands(coeffs_list)
    current = stacks[-1]
    for k in reversed(range(first.levels)):
        hl, lh, hh = stacks[3 * k : 3 * k + 3]
        rows, cols = hl.shape[1] + hh.shape[1], lh.shape[2] + hh.shape[2]
        low_rows = inverse_axis(current, hl, 2, cols, first.wavelet)
        high_rows = inverse_axis(lh, hh, 2, cols, first.wavelet)
        current = inverse_axis(low_rows, high_rows, 1, rows, first.wavelet)
    return current


# ----------------------------------------------------------------------
# Image codec — per-depth distortion curve
# ----------------------------------------------------------------------
def distortion_curve_reference(
    quantized: list[tuple[str, int, np.ndarray]],
    steps: dict[tuple[str, int], float],
    top: int,
) -> list[float]:
    """Pixel-domain SSE estimate at each truncation depth 0..top+1.

    One pass over every subband per depth: shift the dropped low bits out
    and back in, and sum the squared, step-scaled remainder.  The
    production curve (``ImageCodec._distortion_curve``) computes all
    depths of a subband at once and must match this float for float.
    """
    curve: list[float] = []
    for kept in range(top + 2):
        shift = top + 1 - kept
        sse = 0.0
        for name, level, band in quantized:
            step = steps[(name, level)]
            magnitude = np.abs(band).astype(np.int64)
            if shift > 0:
                truncated = (magnitude >> shift) << shift
            else:
                truncated = magnitude
            diff = (magnitude - truncated).astype(np.float64) * step
            sse += float(np.sum(diff * diff))
        curve.append(sse)
    return curve


# ----------------------------------------------------------------------
# Rate model — scalar plane walk and per-tile loops
# ----------------------------------------------------------------------
def estimate_band_bits(band_q: np.ndarray) -> tuple[float, int]:
    """Estimated coded bits and plane count for one quantized subband.

    Walks bit-planes top-down exactly as the bit-plane coder does, charging
    the order-0 entropy of each plane's significance decisions, one bit per
    sign, and ~0.95 bits per refinement bit (adaptive refinement contexts
    squeeze slightly below 1).  The production rate model replays this
    walk from top-bit histograms (``ratemodel._plane_walk_bits``).

    Args:
        band_q: Quantized integer coefficients.

    Returns:
        ``(bits, planes)`` — the size estimate and the number of occupied
        bit-planes.
    """
    if band_q.size == 0:
        return 0.0, 0
    magnitude = np.abs(band_q.astype(np.int64))
    peak = int(magnitude.max())
    if peak == 0:
        return 0.0, 0
    top = peak.bit_length() - 1
    bits = 0.0
    significant = np.zeros(magnitude.shape, dtype=bool)
    for plane in range(top, -1, -1):
        plane_bit = (magnitude >> plane) & 1
        newly = plane_bit.astype(bool) & ~significant
        n_insig = float((~significant).sum())
        if n_insig > 0:
            k = float(newly.sum())
            bits += n_insig * float(_binary_entropy(k / n_insig))
            bits += k  # sign bits
        n_sig = float(significant.sum())
        bits += 0.95 * n_sig  # refinement bits
        significant |= newly
    return bits, top + 1


def tile_decompositions_reference(
    model: RateModel, image: np.ndarray, roi: np.ndarray
) -> list[tuple[int, int, int, int, int, object]]:
    """Forward-transform every ROI tile on its own (no batching, no plan)."""
    out = []
    for y0, y1, x0, x1 in model._roi_tile_blocks(image, roi):
        block = image[y0:y1, x0:x1].astype(np.float64)
        levels = effective_levels(block.shape, model.config.levels)
        coeffs = forward_dwt2d(block, levels, Wavelet.CDF97)
        out.append((y0, y1, x0, x1, levels, coeffs))
    return out


def payload_stats_reference(
    model: RateModel, decomps, step: float, want_quantized: bool = True
) -> tuple[float, int, None]:
    """Per-tile, per-subband quantize + :func:`estimate_band_bits`."""
    spec = QuantizerSpec(base_step=step)
    payload_bits = 0.0
    n_plane_segments = 0
    for _, _, _, _, _, coeffs in decomps:
        quantized = quantize_coeffs(coeffs, spec)
        max_planes = 0
        for _, _, band_q in quantized:
            bits, planes = estimate_band_bits(band_q)
            payload_bits += bits
            max_planes = max(max_planes, planes)
        n_plane_segments += max_planes
    return payload_bits, n_plane_segments, None


def encode_reference(
    model: RateModel, image: np.ndarray, step: float, roi: np.ndarray
) -> RateModelResult:
    """The original per-tile rate-model encode loop."""
    tile = model.config.tile_size
    tiles_y, tiles_x = roi.shape
    recon = np.zeros(image.shape, dtype=np.float64)
    payload_bits = 0.0
    n_plane_segments = 0
    n_tiles = 0
    roi_mask_pixels = np.zeros(image.shape, dtype=bool)
    for ty in range(tiles_y):
        for tx in range(tiles_x):
            if not roi[ty, tx]:
                continue
            n_tiles += 1
            y0, x0 = ty * tile, tx * tile
            y1, x1 = min(y0 + tile, image.shape[0]), min(
                x0 + tile, image.shape[1]
            )
            roi_mask_pixels[y0:y1, x0:x1] = True
            block = image[y0:y1, x0:x1].astype(np.float64)
            levels = effective_levels(block.shape, model.config.levels)
            coeffs = forward_dwt2d(block, levels, Wavelet.CDF97)
            spec = QuantizerSpec(base_step=step)
            quantized = quantize_coeffs(coeffs, spec)
            max_planes = 0
            for _, _, band_q in quantized:
                bits, planes = estimate_band_bits(band_q)
                payload_bits += bits
                max_planes = max(max_planes, planes)
            n_plane_segments += max_planes
            dequantized = dequantize_coeffs(quantized, spec)
            recon_coeffs = WaveletCoeffs(
                approx=dequantized[0][2],
                details=[
                    (
                        dequantized[1 + 3 * i][2],
                        dequantized[2 + 3 * i][2],
                        dequantized[3 + 3 * i][2],
                    )
                    for i in range(levels)
                ],
                shape=block.shape,
                wavelet=Wavelet.CDF97,
            )
            recon[y0:y1, x0:x1] = np.clip(
                inverse_dwt2d(recon_coeffs), 0.0, 1.0
            )
    return model._assemble_result(
        image, recon, roi_mask_pixels, payload_bits,
        n_tiles, n_plane_segments, step,
    )


def _encode_unbatched(
    model: RateModel,
    image: np.ndarray,
    step: float,
    roi: np.ndarray,
    decompositions=None,
    payload_hint=None,
) -> RateModelResult:
    """Stand-in for ``RateModel._encode_batched``: ignores the shared
    decompositions and payload hint, as the original encode did."""
    return encode_reference(model, image, step, roi)


# ----------------------------------------------------------------------
# Encoder — one band at a time
# ----------------------------------------------------------------------
def process_band(
    encoder: EarthPlusEncoder,
    capture: Capture,
    band: Band,
    cloud_pixels: np.ndarray,
    cloudy_tiles: np.ndarray,
    guaranteed: bool,
) -> BandEncodeResult:
    """The original per-band on-board pipeline for one band of a capture."""
    image = capture.pixels[band.name]
    ratio = encoder.config.reference_downsample
    # Cloud removal: zero out detected cloud before anything else.
    cleaned = np.where(cloud_pixels, 0.0, image)
    detection: ChangeDetectionResult | None = None
    had_reference = encoder.cache.has(capture.location, band.name)
    unfilled_tiles = np.zeros(encoder.grid.grid_shape, dtype=bool)
    if had_reference:
        # Always fit illumination against the cached reference (even for
        # guaranteed full downloads) so the ground can normalize every
        # ingested tile into one consistent reference basis.
        _, reference_lr = encoder.cache.get(capture.location, band.name)
        capture_lr = downsample_image(cleaned, ratio)
        valid_lr = (
            downsample_image((~cloud_pixels).astype(np.float64), ratio) > 0.5
        )
        # Reference pixels the ground marked invalid were never filled
        # by a download (cold start, or persistent cloud): exclude them
        # from the illumination fit and force their tiles to "changed"
        # so the ground can fill them in.
        unfilled_lr = ~encoder.cache.get_validity(capture.location, band.name)
        if unfilled_lr.any():
            valid_lr &= ~unfilled_lr
            unfilled_px = (
                np.repeat(
                    np.repeat(unfilled_lr, ratio, axis=0), ratio, axis=1
                )[: encoder.image_shape[0], : encoder.image_shape[1]]
            )
            unfilled_tiles = encoder.grid.reduce_any(unfilled_px)
        with trace.span("scoring"):
            detection = detect_changes(
                reference_lr,
                capture_lr,
                encoder.grid,
                ratio,
                encoder.config.theta,
                valid_lr=valid_lr,
            )
    return encoder._assemble_band_result(
        capture,
        band,
        cleaned,
        cloud_pixels,
        cloudy_tiles,
        guaranteed,
        had_reference,
        detection,
        unfilled_tiles,
    )


def _process_bands_one_by_one(
    encoder: EarthPlusEncoder,
    capture: Capture,
    cloud_pixels: np.ndarray,
    cloudy_tiles: np.ndarray,
    guaranteed: bool,
) -> list[BandEncodeResult]:
    """Stand-in for ``EarthPlusEncoder._process_bands_batched``."""
    return [
        process_band(
            encoder, capture, band, cloud_pixels, cloudy_tiles, guaranteed
        )
        for band in encoder.bands
    ]


# ----------------------------------------------------------------------
# Imagery — np.ix_ value-noise gather, per-pass rendering, uncached state
# ----------------------------------------------------------------------
def value_noise_reference(
    shape: tuple[int, int], cells: int, seed: int
) -> np.ndarray:
    """Single-octave value noise with open-mesh (``np.ix_``) gathers."""
    height, width = shape
    cells = max(1, int(cells))
    longer = max(height, width)
    cells_y = max(1, round(cells * height / longer))
    cells_x = max(1, round(cells * width / longer))
    lattice = np.random.default_rng(seed).random((cells_y + 1, cells_x + 1))
    ys = np.linspace(0.0, cells_y, height, endpoint=False)
    xs = np.linspace(0.0, cells_x, width, endpoint=False)
    y0 = np.minimum(ys.astype(np.int64), cells_y - 1)
    x0 = np.minimum(xs.astype(np.int64), cells_x - 1)
    ty = smoothstep((ys - y0))[:, None]
    tx = smoothstep((xs - x0))[None, :]
    v00 = lattice[np.ix_(y0, x0)]
    v01 = lattice[np.ix_(y0, x0 + 1)]
    v10 = lattice[np.ix_(y0 + 1, x0)]
    v11 = lattice[np.ix_(y0 + 1, x0 + 1)]
    top = v00 * (1.0 - tx) + v01 * tx
    bottom = v10 * (1.0 - tx) + v11 * tx
    return top * (1.0 - ty) + bottom * ty


def fractal_field_reference(
    shape: tuple[int, int],
    seed: int,
    octaves: int,
    base_cells: float,
    persistence: float,
    lacunarity: float,
) -> np.ndarray:
    """``noise._fractal_field`` summed octave by octave in numpy.

    Octave ``k`` adds ``persistence**k`` times the value noise of its
    sub-seed at ``round(base_cells * lacunarity**k)`` cells; the sum is
    divided by the amplitudes' sum (accumulated in octave order) and
    normalized to [0, 1], or zeros when the field is flat.
    """
    total = np.zeros(shape, dtype=np.float64)
    amplitude = 1.0
    scale = float(base_cells)
    amplitude_sum = 0.0
    for octave in range(octaves):
        total += amplitude * value_noise_reference(
            shape, int(round(scale)), _octave_seed(seed, octave)
        )
        amplitude_sum += amplitude
        amplitude *= persistence
        scale *= lacunarity
    total /= amplitude_sum
    lo, hi = float(total.min()), float(total.max())
    if hi - lo < 1e-12:
        return np.zeros(shape, dtype=np.float64)
    return (total - lo) / (hi - lo)


def render_pixels_reference(
    earth: EarthModel,
    bands: tuple[Band, ...],
    t_days: float,
    cloud: CloudSample,
    illumination: IlluminationSample,
    noise_sigma: float = 0.0,
    satellite_id: int = 0,
) -> dict[str, np.ndarray]:
    """``sensor.render_pixels`` as separate numpy passes per band.

    Illumination, then the cloud blend gathered and scattered through
    the boolean mask (its weights recomputed per band), then the noise
    add and the final clip.  A noise-free band is returned unclipped, as
    cloud-detector training images always were.
    """
    pixels: dict[str, np.ndarray] = {}
    for band in bands:
        observed = np.clip(
            earth.ground_truth(band.name, t_days) * illumination.gain
            + illumination.offset,
            0.0,
            1.0,
        )
        if cloud.mask.any():
            alpha = np.where(
                cloud.thickness > 0.0,
                np.clip(0.6 + 1.0 * cloud.thickness, 0.0, 1.0),
                0.0,
            )
            value = 0.08 if band.cloud_cold else band.cloud_brightness
            blend = observed * (1.0 - alpha) + value * alpha
            observed[cloud.mask] = blend[cloud.mask]
        if noise_sigma > 0:
            rng = np.random.default_rng(
                stable_hash(
                    earth.spec.seed,
                    "sensor-noise",
                    band.name,
                    satellite_id,
                    round(t_days * 1e4),
                )
            )
            observed = np.clip(
                observed + rng.normal(0.0, noise_sigma, size=observed.shape),
                0.0,
                1.0,
            )
        pixels[band.name] = observed
    return pixels


def version_grid_reference(
    model: TileChangeModel, t_days: float
) -> np.ndarray:
    """``TileChangeModel.version_grid`` replaying every tile's gap stream
    from its start on every call."""
    if t_days < 0:
        raise ValueError(f"t_days must be >= 0, got {t_days}")
    versions = np.zeros(model.tiles_shape, dtype=np.int64)
    if t_days == 0:
        return versions
    plausible = model.rates * t_days > 1e-9
    for y, x in zip(*np.nonzero(plausible)):
        process = ChangeEventProcess(
            rate_per_day=float(model.rates[y, x]),
            seed=int(model._tile_seeds[y, x]),
        )
        versions[y, x] = process.event_count(t_days)
    return versions


def ground_truth_uncached(
    model: EarthModel, band_name: str, t_days: float
) -> np.ndarray:
    """``EarthModel.ground_truth`` recomposed from scratch on every call."""
    if t_days < 0:
        raise ImageryError(f"t_days must be >= 0, got {t_days}")
    band = model._get_band(band_name)
    versions = model.change_model(band_name).version_grid(t_days)
    surface = model._compose_surface(band, versions)
    snow = model.snow_mask(t_days)
    if snow.any():
        albedo = model._snow_albedo(t_days)
        snow_texture = model._snow_texture(band.name)
        snow_value = np.clip(
            albedo * (0.85 + 0.3 * (snow_texture - 0.5)), 0.0, 1.0
        )
        surface[snow] = snow_value[snow]
    return surface


def compose_surface_reference(
    model: EarthModel, band: Band, versions: np.ndarray
) -> np.ndarray:
    """``EarthModel._compose_surface`` pasting each changed cell's block
    in row-major order, every block rendered on every call."""
    surface = model.base_map(band.name).copy()
    cell = model.spec.change_cell_px
    for ty, row in enumerate(versions.tolist()):
        for tx, version in enumerate(row):
            if version:
                block = cell_block_uncached(model, band, ty, tx, version)
                height, width = block.shape
                y0, x0 = ty * cell, tx * cell
                surface[y0 : y0 + height, x0 : x0 + width] = block
    return surface


def cell_block_uncached(
    model: EarthModel, band: Band, ty: int, tx: int, version: int
) -> np.ndarray:
    """The block of change cell ``(ty, tx)`` at ``version``: the base map
    under the cell plus the version's change patch, clipped, in numpy."""
    cell = model.spec.change_cell_px
    height, width = model.spec.shape
    y0, x0 = ty * cell, tx * cell
    y1, x1 = min(y0 + cell, height), min(x0 + cell, width)
    patch_seed = stable_hash(
        model.spec.seed, "patch", band.name, ty, tx, version
    )
    patch = fractal_noise(
        (y1 - y0, x1 - x0), patch_seed, octaves=3, base_cells=3
    )
    rng = np.random.default_rng(patch_seed)
    amplitude = 0.10 + 0.20 * rng.random()
    blended = model.base_map(band.name)[y0:y1, x0:x1] + amplitude * (
        patch - 0.5
    )
    return np.clip(blended, 0.0, 1.0)


#: The oracle's own base maps, per model and band: a base map is static,
#: and the oracle must not read the ones production left in a model.
# repro: allow(RPR005): memo of static base maps, a pure function of (model, band), so independently-warmed copies agree
_BASE_MAPS: "weakref.WeakKeyDictionary[EarthModel, dict[str, np.ndarray]]" = (
    weakref.WeakKeyDictionary()
)


def base_map_reference(model: EarthModel, band_name: str) -> np.ndarray:
    """``EarthModel.base_map`` as numpy gathers of the class tables and
    separate passes, memoized per model outside the model."""
    maps = _BASE_MAPS.setdefault(model, {})
    if band_name not in maps:
        band = model._get_band(band_name)
        class_map = model.class_map()
        classes = model._class_list
        reflectance = np.array(
            [_CLASS_REFLECTANCE[terrain][band.category] for terrain in classes]
        )
        amplitude = np.array([_CLASS_TEXTURE[terrain] for terrain in classes])
        texture = fractal_noise(
            model.spec.shape,
            stable_hash(model.spec.seed, "texture", band.name),
            octaves=5,
            base_cells=6,
        )
        maps[band_name] = np.clip(
            reflectance[class_map]
            + amplitude[class_map] * (texture - 0.5) * 2.0,
            0.0,
            1.0,
        )
    return maps[band_name]


def snow_texture_uncached(model: EarthModel, band_name: str) -> np.ndarray:
    """Static per-band snow texture, re-rendered on every call."""
    return fractal_noise(
        model.spec.shape,
        stable_hash(model.spec.seed, "snowtex", band_name),
        octaves=3,
        base_cells=8,
    )


# ----------------------------------------------------------------------
# Ground segment — per-element passes
# ----------------------------------------------------------------------
def edge_blocks_reference(array: np.ndarray, ratio: int) -> np.ndarray:
    """``reference._edge_blocks`` always casting and edge-padding a copy."""
    *lead, height, width = array.shape
    out_h = (height + ratio - 1) // ratio
    out_w = (width + ratio - 1) // ratio
    padded = np.pad(
        array.astype(np.float64),
        [(0, 0)] * len(lead)
        + [(0, out_h * ratio - height), (0, out_w * ratio - width)],
        mode="edge",
    )
    return padded.reshape(*lead, out_h, ratio, out_w, ratio)


def low_res_reference_two_pass(
    mosaic: GroundMosaic, location: str, band: str, downsample: int
) -> tuple[np.ndarray, np.ndarray]:
    """``GroundMosaic.low_res_reference`` as two methods, each
    downsampling the filled mask: the filled-only block average (zero
    where nothing is filled), then the validity of every block with any
    filled content."""
    image = mosaic.image(location, band)
    filled = mosaic.filled_mask(location, band)
    weighted = downsample_image(np.where(filled, image, 0.0), downsample)
    weight = downsample_image(filled.astype(np.float64), downsample)
    out = np.zeros_like(weighted)
    nonzero = weight > 1e-9
    out[nonzero] = weighted[nonzero] / weight[nonzero]
    validity = downsample_image(filled.astype(np.float64), downsample) > 1e-9
    return out, validity


def delta_tiles_per_tile(
    cache: OnboardReferenceCache,
    stored_old: np.ndarray,
    stored_new: np.ndarray,
    tolerance: int,
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """``OnboardReferenceCache._delta_tiles`` comparing one low-res tile
    at a time in row-major order."""
    tile = cache.lr_tile
    lr_h, lr_w = stored_new.shape
    indices: list[tuple[int, int]] = []
    chunks: list[np.ndarray] = []
    for ty in range((lr_h + tile - 1) // tile):
        for tx in range((lr_w + tile - 1) // tile):
            y0, x0 = ty * tile, tx * tile
            y1, x1 = min(y0 + tile, lr_h), min(x0 + tile, lr_w)
            old_block = stored_old[y0:y1, x0:x1].astype(np.int16)
            new_block = stored_new[y0:y1, x0:x1].astype(np.int16)
            if np.abs(new_block - old_block).max() > tolerance:
                indices.append((ty, tx))
                chunks.append(stored_new[y0:y1, x0:x1].ravel())
    payload = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.uint8)
    return indices, payload


def write_bitmap_per_bit(writer: BitWriter, bits: np.ndarray) -> None:
    """``BitWriter.write_bitmap`` as one ``write_bit`` per element, then
    ``align``."""
    for bit in bits.ravel():
        writer.write_bit(int(bit))
    writer.align()


def read_bitmap_per_bit(reader: BitReader, count: int) -> np.ndarray:
    """``BitReader.read_bitmap`` as one ``read_bit`` per element, then
    ``align``."""
    bits = np.zeros(count, dtype=bool)
    for idx in range(count):
        bits[idx] = bool(reader.read_bit())
    reader.align()
    return bits


def best_split_reference(
    tree: DecisionTree, x: np.ndarray, y: np.ndarray
) -> tuple[int, float] | None:
    """``DecisionTree._best_split`` masking every row for every candidate
    threshold of every feature, in order."""
    n, d = x.shape
    parent_gini = tree._gini(float(y.mean()))
    best_gain = 1e-9
    best: tuple[int, float] | None = None
    for feature in range(d):
        values = x[:, feature]
        candidates = np.quantile(values, np.linspace(0.05, 0.95, 19))
        for threshold in np.unique(candidates):
            mask = values <= threshold
            n_left = int(mask.sum())
            if n_left < tree.min_leaf or n - n_left < tree.min_leaf:
                continue
            p_left = float(y[mask].mean())
            p_right = float(y[~mask].mean())
            gini = (
                n_left * tree._gini(p_left)
                + (n - n_left) * tree._gini(p_right)
            ) / n
            gain = parent_gini - gini
            if gain > best_gain:
                best_gain = gain
                best = (feature, float(threshold))
    return best


def band_mean_reference(
    pixels: dict[str, np.ndarray], names: list[str]
) -> np.ndarray:
    """``cloud._band_mean`` as numpy's mean over the stacked bands."""
    return np.mean([pixels[name] for name in names], axis=0)


def cloud_features_reference(
    pixels: dict[str, np.ndarray], bands: tuple[Band, ...]
) -> np.ndarray:
    """``cloud.cloud_features`` averaging each band group with numpy's
    mean over a stacked copy of its bands."""
    bright_names, cold_names = cloud._split_bands(bands)
    bright = band_mean_reference(pixels, bright_names)
    if cold_names:
        cold = band_mean_reference(pixels, cold_names)
    else:
        cold = np.full_like(bright, 0.5)
    return np.stack([bright, cold, bright - cold], axis=-1)


# ----------------------------------------------------------------------
# The whole reference path
# ----------------------------------------------------------------------
def _no_capture_cache() -> int:
    return 0


#: ``(owner, attribute, stand-in)`` for every production function the
#: reference path replaces.  Each is looked up through its owner at call
#: time by every caller, so no caller can bypass its stand-in.
_REFERENCE_SEAMS = (
    # The 2-D DWT: every entry point (forward_dwt2d, dwt_many and their
    # inverses) runs these two, so all transforms lift axis by axis.
    (dwt, "_forward_many", forward_many_reference),
    (dwt, "_inverse_many", inverse_many_reference),
    # Every fractal field (terrain, clouds, change patches, snow texture)
    # sums its octaves in numpy over np.ix_ gathers.
    (noise, "_fractal_field", fractal_field_reference),
    (sensor, "render_pixels", render_pixels_reference),
    (TileChangeModel, "version_grid", version_grid_reference),
    # A static method: the stand-in must not bind the codec instance.
    (
        ImageCodec,
        "_distortion_curve",
        staticmethod(distortion_curve_reference),
    ),
    (RateModel, "_tile_decompositions", tile_decompositions_reference),
    (RateModel, "_payload_stats", payload_stats_reference),
    (RateModel, "_encode_batched", _encode_unbatched),
    # Without prepare(), RoiRateController.encode_roi shares no forward
    # transform between the warm-step probe and the step search.
    (RateModel, "prepare", None),
    (EarthPlusEncoder, "_process_bands_batched", _process_bands_one_by_one),
    # Whole methods rather than zero cache bounds: entries a production
    # run left in a model's caches must not be read here either.
    (EarthModel, "ground_truth", ground_truth_uncached),
    (EarthModel, "_compose_surface", compose_surface_reference),
    (EarthModel, "base_map", base_map_reference),
    (EarthModel, "_snow_texture", snow_texture_uncached),
    (sensor, "capture_cache_bytes", _no_capture_cache),
    # The ground segment: every downsample (mosaic, encoder, figures)
    # reduces a padded copy; the uplink and codec containers serialize
    # their bitmaps bit by bit.
    (reference, "_edge_blocks", edge_blocks_reference),
    (GroundMosaic, "low_res_reference", low_res_reference_two_pass),
    (OnboardReferenceCache, "_delta_tiles", delta_tiles_per_tile),
    (BitWriter, "write_bitmap", write_bitmap_per_bit),
    (BitReader, "read_bitmap", read_bitmap_per_bit),
    (cloud, "cloud_features", cloud_features_reference),
    (DecisionTree, "_best_split", best_split_reference),
)


@contextlib.contextmanager
def reference_path():
    """Run a block on the reference implementations.

    Every seam in :data:`_REFERENCE_SEAMS` is patched for the duration of
    the block and restored on exit, so code inside the block computes
    exactly what the original, unoptimized simulation computed: per-sample
    DWT loops run axis by axis, the per-depth distortion curve, per-tile
    rate-model loops, per-band capture processing, per-octave numpy noise
    over ``np.ix_`` gathers, per-pass capture rendering, numpy base maps
    and change-cell blocks, the per-tile change-count replay, no
    warm-state caching, the ground segment's per-element passes and the
    per-threshold split search.  None of it reaches the compiled kernels.
    Results must be byte-identical to the production path.
    """
    with contextlib.ExitStack() as stack:
        for owner, name, stand_in in _REFERENCE_SEAMS:
            stack.enter_context(mock.patch.object(owner, name, stand_in))
        yield
