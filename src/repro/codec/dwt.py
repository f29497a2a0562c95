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
high rows (the inverse undoes them in reverse), all in one fused call to
the compiled kernels (:mod:`repro.codec._ckernels`).  Every lifting pass
treats each column of its operand on its own, so a batched and a
single-image call agree bit-exactly for 5/3 and float-identically for
9/7.  The specification is the per-sample lifting loops in
``tests/sim_oracle.py``, run axis by axis; its ``reference_path()``
replaces :func:`_forward_many` and :func:`_inverse_many`, through which
every entry point here runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.codec import registry
from repro.errors import CodecError
from repro.obs import trace

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


@lru_cache(maxsize=256)
def _subband_layout(
    height: int, width: int, levels: int
) -> tuple[tuple[str, int, tuple[int, int]], ...]:
    """``(name, level, shape)`` of one image's subbands in buffer order.

    Finest level first, each level's HL, LH and HH, then the coarsest LL:
    the order in which the fused kernels lay out their subband buffer
    (see ``_ckernels.c``).
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
    input is cast once (int64 for 5/3, float64 for 9/7), then the fused
    kernel runs every level in one call; the subbands are views into its
    buffer.
    """
    reversible = wavelet is Wavelet.LEGALL53
    stack = stack.astype(np.int64 if reversible else np.float64, copy=False)
    n_images, height, width = stack.shape
    flat = registry.kernels().dwt_forward(
        np.ascontiguousarray(stack), levels, reversible
    )
    bands = _layout_views(
        flat, n_images, _subband_layout(height, width, levels)
    )
    detail_stacks = [
        (bands[3 * k], bands[3 * k + 1], bands[3 * k + 2])
        for k in reversed(range(levels))
    ]
    return [
        WaveletCoeffs(
            approx=bands[-1][i],
            details=[(hl[i], lh[i], hh[i]) for hl, lh, hh in detail_stacks],
            shape=(height, width),
            wavelet=wavelet,
        )
        for i in range(n_images)
    ]


def _pack_subbands(
    coeffs_list: list[WaveletCoeffs],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Every decomposition's subbands cast into one buffer.

    Returns ``(flat, stacks)``: the buffer in :func:`_subband_layout`
    order (int64 for 5/3, float64 for 9/7), and one ``(N, rows, cols)``
    view of it per subband.  Every subband is checked against the shape
    its decomposition's ``shape`` and ``levels`` imply, because the fused
    kernel reads each one by pointer.

    Raises:
        CodecError: When a subband's shape does not match the geometry.
    """
    first = coeffs_list[0]
    height, width = first.shape
    levels = first.levels
    reversible = first.wavelet is Wavelet.LEGALL53
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
    return flat, stacks


def _inverse_many(coeffs_list: list[WaveletCoeffs]) -> np.ndarray:
    """Inverse transform of same-geometry decompositions to (N, H, W).

    Shared by :func:`inverse_dwt2d` (N = 1) and :func:`idwt_many`: the
    subbands are packed (and checked) by :func:`_pack_subbands`, then the
    fused kernel inverts them in one call.

    Raises:
        CodecError: When a subband's shape does not match the geometry.
    """
    first = coeffs_list[0]
    height, width = first.shape
    flat, _ = _pack_subbands(coeffs_list)
    return registry.kernels().dwt_inverse(
        flat,
        (len(coeffs_list), height, width),
        first.levels,
        first.wavelet is Wavelet.LEGALL53,
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
