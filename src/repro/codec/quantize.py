"""Dead-zone scalar quantization of wavelet coefficients.

JPEG 2000 quantizes each subband with a dead-zone uniform quantizer whose
step scales with the subband's synthesis gain; we mirror that: a single base
step is modulated per subband by level/orientation weights so that a given
step produces visually balanced error across scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codec.dwt import WaveletCoeffs
from repro.errors import CodecError

#: Relative quantizer-step weight per subband orientation.  LL carries the
#: most perceptually-important energy, so it gets the finest step.
_ORIENTATION_WEIGHT = {"LL": 0.5, "HL": 1.0, "LH": 1.0, "HH": 1.4}


def subband_step(base_step: float, name: str, level: int) -> float:
    """Quantizer step for one subband.

    Coarser levels (higher ``level``) get finer steps because their
    coefficients influence more pixels on synthesis.

    Args:
        base_step: The image-level base quantizer step (> 0).
        name: Subband orientation, one of LL/HL/LH/HH.
        level: Decomposition level (1 = finest).

    Returns:
        The effective step for this subband.
    """
    if base_step <= 0:
        raise CodecError(f"base_step must be positive, got {base_step}")
    try:
        orientation = _ORIENTATION_WEIGHT[name]
    except KeyError:
        raise CodecError(f"unknown subband orientation {name!r}") from None
    return base_step * orientation / (2.0 ** (level - 1)) * 2.0


def subband_step_factors(
    bands: "list[tuple[str, int]]",
) -> tuple[np.ndarray, np.ndarray]:
    """Orientation weights and level divisors of ``(name, level)`` subbands.

    The step-independent halves of :func:`subband_step`, computed once so
    that :func:`subband_steps` can derive every subband's step from a new
    base step in one vector expression.
    """
    try:
        weights = [_ORIENTATION_WEIGHT[name] for name, _ in bands]
    except KeyError as exc:
        raise CodecError(
            f"unknown subband orientation {exc.args[0]!r}"
        ) from None
    divisors = [2.0 ** (level - 1) for _, level in bands]
    return (
        np.array(weights, dtype=np.float64),
        np.array(divisors, dtype=np.float64),
    )


def subband_steps(
    base_step: float, weights: np.ndarray, divisors: np.ndarray
) -> np.ndarray:
    """:func:`subband_step` for many subbands at once.

    Performs :func:`subband_step`'s operations in its order, so each
    step is float-identical to the scalar one.  The caller validates
    ``base_step`` (> 0) and gets ``weights`` and ``divisors`` from
    :func:`subband_step_factors`.
    """
    return base_step * weights / divisors * 2.0


@dataclass(frozen=True)
class QuantizerSpec:
    """Quantization parameters for a decomposition.

    Attributes:
        base_step: Image-level base step; per-subband steps derive from it.
    """

    base_step: float

    def step_for(self, name: str, level: int) -> float:
        """Effective step for subband ``(name, level)``."""
        return subband_step(self.base_step, name, level)


def quantize_coeffs(
    coeffs: WaveletCoeffs, spec: QuantizerSpec
) -> list[tuple[str, int, np.ndarray]]:
    """Dead-zone quantize every subband.

    ``q = sign(c) * floor(|c| / step)`` — the dead zone is twice the step,
    which suppresses the dense near-zero detail coefficients cheaply.

    Args:
        coeffs: A wavelet decomposition.
        spec: Quantizer parameters.

    Returns:
        ``(name, level, int32 array)`` triples in subband order.
    """
    out: list[tuple[str, int, np.ndarray]] = []
    for name, level, band in coeffs.subbands():
        step = spec.step_for(name, level)
        magnitudes = np.floor(np.abs(band) / step).astype(np.int32)
        signs = np.sign(band).astype(np.int32)
        out.append((name, level, signs * magnitudes))
    return out


def dequantize_coeffs(
    quantized: list[tuple[str, int, np.ndarray]],
    spec: QuantizerSpec,
    reconstruction_offset: float = 0.5,
) -> list[tuple[str, int, np.ndarray]]:
    """Invert :func:`quantize_coeffs` to reconstruction midpoints.

    ``c~ = sign(q) * (|q| + offset) * step`` for nonzero ``q``; zero stays
    zero (centre of the dead zone).

    Args:
        quantized: Output of :func:`quantize_coeffs`.
        spec: The same quantizer parameters used to quantize.
        reconstruction_offset: Placement within the quantization bin; 0.5 is
            the bin midpoint, JPEG 2000 decoders often use 0.375.

    Returns:
        ``(name, level, float64 array)`` triples.
    """
    out: list[tuple[str, int, np.ndarray]] = []
    for name, level, band_q in quantized:
        step = spec.step_for(name, level)
        magnitudes = np.abs(band_q).astype(np.float64)
        values = np.where(
            band_q != 0,
            np.sign(band_q) * (magnitudes + reconstruction_offset) * step,
            0.0,
        )
        out.append((name, level, values))
    return out


def max_bitplane(quantized: list[tuple[str, int, np.ndarray]]) -> int:
    """Highest occupied bit-plane index across all subbands.

    Returns -1 if every quantized coefficient is zero.
    """
    top = -1
    for _, _, band_q in quantized:
        if band_q.size == 0:
            continue
        peak = int(np.abs(band_q).max())
        if peak > 0:
            top = max(top, peak.bit_length() - 1)
    return top
