"""Multilevel 2-D lifting discrete wavelet transform.

Implements the two wavelets JPEG 2000 standardizes, both via lifting with
whole-point symmetric boundary extension and support for arbitrary (odd)
lengths:

* **CDF 9/7** — the irreversible float transform used for lossy coding;
* **LeGall 5/3** — the reversible integer transform used for lossless
  coding (bit-exact perfect reconstruction on integer inputs).

Coefficients are organized pywt-style: ``[LL_n, (HL_n, LH_n, HH_n), ...,
(HL_1, LH_1, HH_1)]`` coarsest-first.  Perfect reconstruction for every
shape/level combination is property-tested.

Every transform runs on an ``(N, H, W)`` stack of same-shape images:
:func:`dwt_many`/:func:`idwt_many` take the stack (all tiles of a shape in
one call) and :func:`forward_dwt2d`/:func:`inverse_dwt2d` are its N = 1
case.  Each level lifts along H, then along W on the low rows and on the
high rows (the inverse undoes them in reverse).  Where the compiled
kernels are available (see :mod:`repro.codec.registry`) one fused C call
runs every level and both axes of the stack; without a toolchain the
numpy lifting below runs axis by axis, doing whole-array predict/update
steps with precomputed symmetric-extension index vectors.  The C kernel
is built from the same 1-D passes without FP contraction, and every pass
treats each column of its operand on its own, so both paths — and a
batched or single-image call — agree bit-exactly for 5/3 and
float-identically for 9/7.  The original per-sample loops are the
differential-test oracle in ``tests/sim_oracle.py``, whose
``reference_path()`` switches the fused kernel off (:func:`_fused_kernels`)
and swaps the loops in for the four per-axis seams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import CodecError
from repro.obs import trace

# CDF 9/7 lifting constants (ITU-T T.800 Annex F).
_ALPHA = -1.586134342059924
_BETA = -0.052980118572961
_GAMMA = 0.882911075530934
_DELTA = 0.443506852043971
_KAPPA = 1.230174104914001


class Wavelet(enum.Enum):
    """Supported wavelet filters."""

    CDF97 = "cdf97"
    LEGALL53 = "legall53"


@dataclass
class WaveletCoeffs:
    """Multilevel DWT coefficients.

    Attributes:
        approx: The coarsest LL subband.
        details: Detail triples ``(HL, LH, HH)`` coarsest-first.
        shape: Original image shape (needed to invert odd sizes).
        wavelet: Which filter produced the decomposition.
    """

    approx: np.ndarray
    details: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    shape: tuple[int, int]
    wavelet: Wavelet

    @property
    def levels(self) -> int:
        """Number of decomposition levels."""
        return len(self.details)

    def subbands(self) -> list[tuple[str, int, np.ndarray]]:
        """Flatten to ``(name, level, array)`` triples, coarsest-first.

        Level numbering follows JPEG 2000: level ``levels`` is coarsest.
        """
        out: list[tuple[str, int, np.ndarray]] = [
            ("LL", self.levels, self.approx)
        ]
        for idx, (hl, lh, hh) in enumerate(self.details):
            level = self.levels - idx
            out.append(("HL", level, hl))
            out.append(("LH", level, lh))
            out.append(("HH", level, hh))
        return out

    def total_coefficients(self) -> int:
        """Total coefficient count (equals the pixel count of the image)."""
        total = self.approx.size
        for hl, lh, hh in self.details:
            total += hl.size + lh.size + hh.size
        return total


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


@lru_cache(maxsize=512)
def _predict_right_indices(length: int) -> np.ndarray:
    """Symmetric-extension source index of ``x[2i+2]`` for each odd sample.

    For whole-point extension of an even-start signal the mirrored index is
    always even, so predict steps can gather straight from the original
    signal (5/3) or the even half (9/7, using ``index // 2``).
    """
    n_odd = length // 2
    out = np.empty(n_odd, dtype=np.intp)
    for i in range(n_odd):
        out[i] = _sym_index(2 * i + 2, length)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=512)
def _succ_even_indices(length: int) -> np.ndarray:
    """Index of each odd sample's right even neighbour, edge-clamped.

    ``min(i + 1, n_even - 1)`` for each odd index ``i`` — the elements the
    reference's ``concatenate([even[1:], even[-1:]])[:n_odd]`` padding
    selects.
    """
    n_even = (length + 1) // 2
    n_odd = length // 2
    out = np.minimum(np.arange(1, n_odd + 1, dtype=np.intp), n_even - 1)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=512)
def _update_neighbor_indices(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Detail indices ``(d[i-1], d[i])`` feeding each even sample's update.

    Boundary details clamp to the valid range, exactly as the reference
    per-sample loop does.
    """
    n_even = (length + 1) // 2
    n_odd = length // 2
    idx = np.arange(n_even, dtype=np.intp)
    left = np.clip(idx - 1, 0, max(0, n_odd - 1))
    right = np.clip(idx, 0, max(0, n_odd - 1))
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right


# ----------------------------------------------------------------------
# LeGall 5/3 — whole-array lifting
# ----------------------------------------------------------------------
def _analysis_53(
    signal: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Whole-array 5/3 analysis; bit-exact twin of the reference loops."""
    length = signal.shape[0]
    if length == 1:
        return signal.copy(), signal[:0].copy()
    even = signal[0::2].astype(np.int64)
    odd = signal[1::2].astype(np.int64)
    n_odd = odd.shape[0]
    right = signal[_predict_right_indices(length)].astype(np.int64)
    detail = odd - ((even[:n_odd] + right) >> 1)
    d_left_idx, d_right_idx = _update_neighbor_indices(length)
    approx = even + ((detail[d_left_idx] + detail[d_right_idx] + 2) >> 2)
    return approx, detail


def _synthesis_53(
    approx: np.ndarray, detail: np.ndarray, length: int
) -> np.ndarray:
    """Whole-array inverse of the 5/3 lifting; bit-exact on integers."""
    if length == 1:
        return approx.copy()
    n_odd = detail.shape[0]
    d_left_idx, d_right_idx = _update_neighbor_indices(length)
    even = approx - ((detail[d_left_idx] + detail[d_right_idx] + 2) >> 2)
    signal = np.empty((length,) + approx.shape[1:], dtype=np.int64)
    signal[0::2] = even
    if n_odd:
        # The mirrored predict source is always an even sample (whole-point
        # extension of an even-start signal), so gather from `even`.
        right = even[_predict_right_indices(length) // 2]
        signal[1::2] = detail + ((even[:n_odd] + right) >> 1)
    return signal


# ----------------------------------------------------------------------
# CDF 9/7 — whole-array lifting
# ----------------------------------------------------------------------
def _analysis_97(
    signal: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Whole-array 9/7 analysis; float-identical twin of the reference.

    The reference's concatenate-based boundary padding selects exactly the
    edge-clamped neighbour elements, so every lifting step is a gather
    with precomputed clipped index vectors plus the same elementwise
    arithmetic.
    """
    length = signal.shape[0]
    if length == 1:
        return signal.astype(np.float64) * _KAPPA, signal[:0].astype(np.float64)
    x = signal.astype(np.float64)
    even = x[0::2].copy()
    odd = x[1::2].copy()
    n_odd = odd.shape[0]
    d_left_idx, d_right_idx = _update_neighbor_indices(length)
    # Step 1 (predict with alpha); the mirrored source is always even.
    right1 = even[_predict_right_indices(length) // 2]
    odd += _ALPHA * (even[:n_odd] + right1)
    # Step 2 (update with beta)
    even += _BETA * (odd[d_left_idx] + odd[d_right_idx])
    # Step 3 (predict with gamma)
    odd += _GAMMA * (even[:n_odd] + even[_succ_even_indices(length)])
    # Step 4 (update with delta)
    even += _DELTA * (odd[d_left_idx] + odd[d_right_idx])
    # Scaling
    even *= _KAPPA
    odd /= _KAPPA
    return even, odd


def _synthesis_97(
    approx: np.ndarray, detail: np.ndarray, length: int
) -> np.ndarray:
    """Whole-array inverse of the 9/7 lifting; float-identical twin."""
    if length == 1:
        return approx / _KAPPA
    even = approx.astype(np.float64) / _KAPPA
    odd = detail.astype(np.float64) * _KAPPA
    n_odd = odd.shape[0]
    signal = np.empty((length,) + even.shape[1:], dtype=np.float64)
    if not n_odd:
        signal[0::2] = even
        return signal
    d_left_idx, d_right_idx = _update_neighbor_indices(length)
    # Undo step 4
    even -= _DELTA * (odd[d_left_idx] + odd[d_right_idx])
    # Undo step 3
    odd -= _GAMMA * (even[:n_odd] + even[_succ_even_indices(length)])
    # Undo step 2
    even -= _BETA * (odd[d_left_idx] + odd[d_right_idx])
    # Undo step 1 (mirrored source always even, as in analysis)
    signal[0::2] = even
    right1 = even[_predict_right_indices(length) // 2]
    odd -= _ALPHA * (even[:n_odd] + right1)
    signal[1::2] = odd
    return signal


def _transform_axis(
    data: np.ndarray, axis: int, wavelet: Wavelet
) -> tuple[np.ndarray, np.ndarray]:
    """Apply 1-D analysis along ``axis`` (any number of other axes)."""
    moved = np.moveaxis(data, axis, 0)
    if wavelet is Wavelet.LEGALL53:
        approx, detail = _analysis_53(moved)
    else:
        approx, detail = _analysis_97(moved)
    return np.moveaxis(approx, 0, axis), np.moveaxis(detail, 0, axis)


def _inverse_axis(
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
        merged = _synthesis_53(approx_m, detail_m, length)
    else:
        merged = _synthesis_97(approx_m, detail_m, length)
    return np.moveaxis(merged, 0, axis)


def _fused_kernels():
    """The compiled kernels for the fused 2-D transform, or None.

    The one switch between the fused native transform and the per-axis
    numpy lifting: ``sim_oracle.reference_path()`` patches it to return
    None so that the per-axis seams (``_analysis_53`` & co.) run the
    reference loops.
    """
    from repro.codec import registry

    return registry.kernels()


@lru_cache(maxsize=256)
def _subband_layout(
    height: int, width: int, levels: int
) -> tuple[tuple[str, int, tuple[int, int]], ...]:
    """``(name, level, shape)`` of one image's subbands in buffer order.

    Finest level first, each level's HL, LH and HH, then the coarsest LL:
    the order in which the fused kernels lay out their subband buffer
    (see the C source in :mod:`repro.codec._ckernels`).
    """
    out = []
    for level in range(1, levels + 1):
        rows_e, rows_o = (height + 1) // 2, height // 2
        cols_e, cols_o = (width + 1) // 2, width // 2
        out += [
            ("HL", level, (rows_e, cols_o)),
            ("LH", level, (rows_o, cols_e)),
            ("HH", level, (rows_o, cols_o)),
        ]
        height, width = rows_e, cols_e
    out.append(("LL", levels, (height, width)))
    return tuple(out)


def _layout_views(
    flat: np.ndarray,
    n_images: int,
    layout: tuple[tuple[str, int, tuple[int, int]], ...],
) -> list[np.ndarray]:
    """``(N, rows, cols)`` views of ``flat``, one per subband of ``layout``."""
    views = []
    offset = 0
    for _, _, (rows, cols) in layout:
        size = n_images * rows * cols
        view = flat[offset : offset + size].reshape(n_images, rows, cols)
        views.append(view)
        offset += size
    return views


def _buffer_order(coeffs: WaveletCoeffs) -> list[np.ndarray]:
    """``coeffs``' subband arrays in :func:`_subband_layout` order."""
    bands = []
    for hl, lh, hh in reversed(coeffs.details):
        bands += [hl, lh, hh]
    bands.append(coeffs.approx)
    return bands


def _check_transform_args(
    shape: tuple[int, int], ndim: int, levels: int
) -> None:
    if ndim != 2:
        raise CodecError(f"expected 2-D image, got {ndim}-D input")
    if levels < 1:
        raise CodecError(f"levels must be >= 1, got {levels}")
    max_levels = max(1, min(shape)).bit_length() - 1  # floor(log2)
    if levels > max(1, max_levels):
        raise CodecError(
            f"levels={levels} too deep for image of shape {shape}"
        )


def _forward_many(
    stack: np.ndarray, levels: int, wavelet: Wavelet
) -> list[WaveletCoeffs]:
    """Forward transform of an (N, H, W) stack, one result per image.

    Shared by :func:`forward_dwt2d` (N = 1) and :func:`dwt_many`.  The
    input is cast once (int64 for 5/3, float64 for 9/7); the fused kernel
    then runs the whole transform in one call, or without one the numpy
    lifting runs level by level along each axis of the stack.
    """
    reversible = wavelet is Wavelet.LEGALL53
    stack = stack.astype(np.int64 if reversible else np.float64, copy=False)
    n_images, height, width = stack.shape
    kernels = _fused_kernels()
    if kernels is None:
        current = stack
        detail_stacks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for _ in range(levels):
            low_rows, high_rows = _transform_axis(current, 1, wavelet)
            ll, hl = _transform_axis(low_rows, 2, wavelet)
            lh, hh = _transform_axis(high_rows, 2, wavelet)
            detail_stacks.append((hl, lh, hh))
            current = ll
        detail_stacks.reverse()
    else:
        flat = kernels.dwt_forward(
            np.ascontiguousarray(stack), levels, reversible
        )
        bands = _layout_views(
            flat, n_images, _subband_layout(height, width, levels)
        )
        current = bands[-1]
        detail_stacks = [
            (bands[3 * k], bands[3 * k + 1], bands[3 * k + 2])
            for k in reversed(range(levels))
        ]
    return [
        WaveletCoeffs(
            approx=current[i],
            details=[(hl[i], lh[i], hh[i]) for hl, lh, hh in detail_stacks],
            shape=(height, width),
            wavelet=wavelet,
        )
        for i in range(n_images)
    ]


def _inverse_many(coeffs_list: list[WaveletCoeffs]) -> np.ndarray:
    """Inverse transform of same-geometry decompositions to (N, H, W).

    Shared by :func:`inverse_dwt2d` (N = 1) and :func:`idwt_many`.  Every
    subband is checked against the shape its decomposition's ``shape`` and
    ``levels`` imply (the fused kernel reads each one by pointer) and cast
    into one buffer in :func:`_subband_layout` order, which the fused
    kernel inverts in one call; without one the numpy lifting runs on
    views of that buffer.

    Raises:
        CodecError: When a subband's shape does not match the geometry.
    """
    first = coeffs_list[0]
    height, width = first.shape
    levels = first.levels
    wavelet = first.wavelet
    reversible = wavelet is Wavelet.LEGALL53
    n_images = len(coeffs_list)
    flat = np.empty(
        n_images * height * width, dtype=np.int64 if reversible else np.float64
    )
    layout = _subband_layout(height, width, levels)
    stacks = _layout_views(flat, n_images, layout)
    for i, coeffs in enumerate(coeffs_list):
        for stack, band, (name, level, shape) in zip(
            stacks, _buffer_order(coeffs), layout
        ):
            if band.shape != shape:
                raise CodecError(
                    f"subband {name}{level} has shape {band.shape}, expected "
                    f"{shape} for a {levels}-level decomposition of "
                    f"{(height, width)}"
                )
            stack[i] = band
    kernels = _fused_kernels()
    if kernels is not None:
        return kernels.dwt_inverse(
            flat, (n_images, height, width), levels, reversible
        )
    current = stacks[-1]
    for k in reversed(range(levels)):
        hl, lh, hh = stacks[3 * k : 3 * k + 3]
        rows, cols = hl.shape[1] + hh.shape[1], lh.shape[2] + hh.shape[2]
        low_rows = _inverse_axis(current, hl, 2, cols, wavelet)
        high_rows = _inverse_axis(lh, hh, 2, cols, wavelet)
        current = _inverse_axis(low_rows, high_rows, 1, rows, wavelet)
    return current


def forward_dwt2d(
    image: np.ndarray, levels: int, wavelet: Wavelet = Wavelet.CDF97
) -> WaveletCoeffs:
    """Multilevel 2-D forward DWT.

    Args:
        image: 2-D array.  For :data:`Wavelet.LEGALL53` it must hold integer
            values (any dtype castable to int64 without loss).
        levels: Number of decomposition levels (>= 1).
        wavelet: Filter to use.

    Returns:
        The multilevel decomposition.

    Raises:
        CodecError: For invalid level counts or non-2-D input.
    """
    _check_transform_args(image.shape, image.ndim, levels)
    with trace.span("dwt"):
        return _forward_many(image[np.newaxis], levels, wavelet)[0]


def inverse_dwt2d(coeffs: WaveletCoeffs) -> np.ndarray:
    """Invert :func:`forward_dwt2d`.

    Returns:
        The reconstructed image: float64 for CDF 9/7, int64 for LeGall 5/3.

    Raises:
        CodecError: When a subband's shape does not match ``coeffs.shape``
            and ``coeffs.levels``.
    """
    with trace.span("dwt"):
        return _inverse_many([coeffs])[0]


def dwt_many(
    images: np.ndarray | list[np.ndarray],
    levels: int,
    wavelet: Wavelet = Wavelet.CDF97,
) -> list[WaveletCoeffs]:
    """Batch forward DWT over same-shape images in one call.

    Every lifting pass transforms each column of its operand on its own,
    so transforming the stack performs exactly the same elementwise
    arithmetic as N separate :func:`forward_dwt2d` calls — each returned
    decomposition is float-identical (bit-exact for 5/3) to transforming
    that image alone.  Subband arrays are views into shared stacks.

    Args:
        images: ``(N, H, W)`` array or list of same-shape 2-D arrays.
        levels: Decomposition levels (>= 1).
        wavelet: Filter to use.

    Returns:
        One :class:`WaveletCoeffs` per input image, in order.

    Raises:
        CodecError: For invalid levels, non-2-D items, or mixed shapes.
    """
    if isinstance(images, (list, tuple)):
        if not images:
            return []
        shapes = {tuple(img.shape) for img in images}
        if len(shapes) != 1:
            raise CodecError(
                f"dwt_many requires same-shape images, got shapes {shapes}"
            )
        if images[0].ndim != 2:
            raise CodecError(
                f"expected 2-D images, got {images[0].ndim}-D items"
            )
        stack = np.stack(images)
    else:
        stack = np.asarray(images)
        if stack.ndim != 3:
            raise CodecError(
                f"expected (N, H, W) stack, got shape {stack.shape}"
            )
        if stack.shape[0] == 0:
            return []
    _check_transform_args((stack.shape[1], stack.shape[2]), 2, levels)
    with trace.span("dwt"):
        return _forward_many(stack, levels, wavelet)


def idwt_many(coeffs_list: list[WaveletCoeffs]) -> np.ndarray:
    """Batch inverse DWT over same-geometry decompositions.

    The float-identity argument of :func:`dwt_many` applies in reverse:
    each slice of the returned stack is identical to
    :func:`inverse_dwt2d` of that decomposition alone.

    Args:
        coeffs_list: Decompositions sharing shape, levels, and wavelet.

    Returns:
        ``(N, H, W)`` stack of reconstructions (empty ``(0, 0, 0)`` for an
        empty list).

    Raises:
        CodecError: On mixed geometry, or a subband whose shape does not
            match that geometry.
    """
    if not coeffs_list:
        return np.empty((0, 0, 0))
    first = coeffs_list[0]
    for coeffs in coeffs_list[1:]:
        if (
            coeffs.shape != first.shape
            or coeffs.levels != first.levels
            or coeffs.wavelet is not first.wavelet
        ):
            raise CodecError(
                "idwt_many requires decompositions of identical geometry"
            )
    with trace.span("dwt"):
        return _inverse_many(coeffs_list)
