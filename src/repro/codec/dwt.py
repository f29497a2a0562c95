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

The 1-D lifting does whole-array predict/update steps with precomputed
symmetric-extension index vectors — no Python loop touches a sample — and
runs on the compiled kernels when a toolchain is available (see
:mod:`repro.codec.registry`).  The original per-sample loops are the
differential-test oracle in ``tests/sim_oracle.py``; the two agree
bit-exactly for 5/3 and float-identically for 9/7.

:func:`dwt_many`/:func:`idwt_many` batch the transform over a stack of
same-shape images (all bands/tiles of a capture in one call): the lifting
kernels operate along one axis with arbitrary trailing dimensions, so the
batched transform is float-identical to transforming each image alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro import perf
from repro.errors import CodecError

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
def _analysis_53_vectorized(
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


def _synthesis_53_vectorized(
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
def _analysis_97_vectorized(
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


def _synthesis_97_vectorized(
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


def _native_analysis(
    signal: np.ndarray, dtype: type, kernel_name: str
) -> "tuple[np.ndarray, np.ndarray] | None":
    """Run one analysis pass on the compiled kernels, or None to fall back.

    The kernels work on a contiguous ``(length, m)`` layout; any trailing
    axes are flattened in and restored on the way out.  They are exact
    ports of the vectorized lifting (compiled without FP contraction), so
    results are bit-identical — the differential tests enforce it.
    """
    from repro.codec import registry

    kernels = registry.kernels()
    if (
        kernels is None
        or signal.ndim < 1
        or signal.shape[0] < 2
        or signal.dtype != dtype
    ):
        return None
    length = signal.shape[0]
    rest = signal.shape[1:]
    flat = np.ascontiguousarray(signal.reshape(length, -1))
    even, odd = getattr(kernels, kernel_name)(flat)
    return (
        even.reshape(((length + 1) // 2,) + rest),
        odd.reshape((length // 2,) + rest),
    )


def _native_synthesis(
    approx: np.ndarray,
    detail: np.ndarray,
    length: int,
    dtype: type,
    kernel_name: str,
) -> "np.ndarray | None":
    """Synthesis counterpart of :func:`_native_analysis`."""
    from repro.codec import registry

    kernels = registry.kernels()
    if (
        kernels is None
        or length < 2
        or approx.ndim < 1
        or approx.dtype != dtype
        or detail.dtype != dtype
    ):
        return None
    rest = approx.shape[1:]
    approx_flat = np.ascontiguousarray(approx.reshape(approx.shape[0], -1))
    detail_flat = np.ascontiguousarray(detail.reshape(detail.shape[0], -1))
    merged = getattr(kernels, kernel_name)(approx_flat, detail_flat, length)
    return merged.reshape((length,) + rest)


def _analysis_53(signal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """5/3 analysis on the compiled kernels, else the numpy lifting."""
    native = _native_analysis(signal, np.int64, "dwt53_analysis")
    if native is not None:
        return native
    return _analysis_53_vectorized(signal)


def _synthesis_53(
    approx: np.ndarray, detail: np.ndarray, length: int
) -> np.ndarray:
    """5/3 synthesis on the compiled kernels, else the numpy lifting."""
    native = _native_synthesis(
        approx, detail, length, np.int64, "dwt53_synthesis"
    )
    if native is not None:
        return native
    return _synthesis_53_vectorized(approx, detail, length)


def _analysis_97(signal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """9/7 analysis on the compiled kernels, else the numpy lifting."""
    native = _native_analysis(signal, np.float64, "dwt97_analysis")
    if native is not None:
        return native
    return _analysis_97_vectorized(signal)


def _synthesis_97(
    approx: np.ndarray, detail: np.ndarray, length: int
) -> np.ndarray:
    """9/7 synthesis on the compiled kernels, else the numpy lifting."""
    native = _native_synthesis(
        approx, detail, length, np.float64, "dwt97_synthesis"
    )
    if native is not None:
        return native
    return _synthesis_97_vectorized(approx, detail, length)


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


def _check_transform_args(
    shape: tuple[int, int], ndim: int, levels: int
) -> None:
    if ndim != 2:
        raise CodecError(f"expected 2-D image, got {ndim}-D input")
    if levels < 1:
        raise CodecError(f"levels must be >= 1, got {levels}")
    max_levels = int(np.floor(np.log2(max(1, min(shape)))))
    if levels > max(1, max_levels):
        raise CodecError(
            f"levels={levels} too deep for image of shape {shape}"
        )


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
    with perf.profiled("dwt"):
        current = image
        details: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for _ in range(levels):
            low_rows, high_rows = _transform_axis(current, 0, wavelet)
            ll, hl = _transform_axis(low_rows, 1, wavelet)
            lh, hh = _transform_axis(high_rows, 1, wavelet)
            details.append((hl, lh, hh))
            current = ll
        details.reverse()
        return WaveletCoeffs(
            approx=current, details=details, shape=image.shape, wavelet=wavelet
        )


def inverse_dwt2d(coeffs: WaveletCoeffs) -> np.ndarray:
    """Invert :func:`forward_dwt2d`.

    Returns:
        The reconstructed image: float64 for CDF 9/7, int64 for LeGall 5/3.
    """
    with perf.profiled("dwt"):
        current = coeffs.approx
        # Reconstruct level shapes top-down: we must know each level's
        # row/col counts, derived by repeatedly halving the original shape.
        shapes = [coeffs.shape]
        for _ in range(coeffs.levels - 1):
            height, width = shapes[-1]
            shapes.append(((height + 1) // 2, (width + 1) // 2))
        for (hl, lh, hh), target in zip(coeffs.details, reversed(shapes)):
            height, width = target
            low_rows = _inverse_axis(current, hl, 1, width, coeffs.wavelet)
            high_rows = _inverse_axis(lh, hh, 1, width, coeffs.wavelet)
            current = _inverse_axis(
                low_rows, high_rows, 0, height, coeffs.wavelet
            )
        return current


def dwt_many(
    images: np.ndarray | list[np.ndarray],
    levels: int,
    wavelet: Wavelet = Wavelet.CDF97,
) -> list[WaveletCoeffs]:
    """Batch forward DWT over same-shape images in one call.

    The lifting kernels operate along one axis with arbitrary trailing
    dimensions, so stacking N images and transforming the stack performs
    exactly the same elementwise arithmetic as N separate
    :func:`forward_dwt2d` calls — each returned decomposition is
    float-identical (bit-exact for 5/3) to transforming that image alone.
    Subband arrays are views into the shared stack.

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
    n_images = stack.shape[0]
    image_shape = (stack.shape[1], stack.shape[2])
    _check_transform_args(image_shape, 2, levels)
    with perf.profiled("dwt"):
        current = stack
        detail_stacks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for _ in range(levels):
            low_rows, high_rows = _transform_axis(current, 1, wavelet)
            ll, hl = _transform_axis(low_rows, 2, wavelet)
            lh, hh = _transform_axis(high_rows, 2, wavelet)
            detail_stacks.append((hl, lh, hh))
            current = ll
        detail_stacks.reverse()
        return [
            WaveletCoeffs(
                approx=current[i],
                details=[
                    (hl[i], lh[i], hh[i]) for hl, lh, hh in detail_stacks
                ],
                shape=image_shape,
                wavelet=wavelet,
            )
            for i in range(n_images)
        ]


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
        CodecError: On mixed geometry.
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
    with perf.profiled("dwt"):
        wavelet = first.wavelet
        current = np.stack([c.approx for c in coeffs_list])
        shapes = [first.shape]
        for _ in range(first.levels - 1):
            height, width = shapes[-1]
            shapes.append(((height + 1) // 2, (width + 1) // 2))
        for level_idx, target in enumerate(reversed(shapes)):
            height, width = target
            hl = np.stack([c.details[level_idx][0] for c in coeffs_list])
            lh = np.stack([c.details[level_idx][1] for c in coeffs_list])
            hh = np.stack([c.details[level_idx][2] for c in coeffs_list])
            low_rows = _inverse_axis(current, hl, 2, width, wavelet)
            high_rows = _inverse_axis(lh, hh, 2, width, wavelet)
            current = _inverse_axis(low_rows, high_rows, 1, height, wavelet)
        return current
