"""Embedded bit-plane coding of quantized subbands: the shared contract.

The quantized coefficients of a tile are coded magnitude-bit-plane by
bit-plane, most significant first, so the bitstream is *embedded*: any
prefix (at plane granularity) decodes to a coarser-but-valid reconstruction.
This is what makes post-compression rate-distortion truncation and quality
layers possible (:mod:`repro.codec.jpeg2000`), mirroring EBCOT's role in
JPEG 2000.

Context modelling follows the parallel-context simplification: a
coefficient's significance context is derived from its 8-neighbourhood
significance *as of the previous plane*, so encoder and decoder compute
contexts from information both already share.  Each plane is flushed into
its own arithmetic codeword (a few bytes of overhead) so that a truncated
stream is a clean list of whole segments.

The production coder is :class:`repro.codec.compiled.CompiledPlaneCoder`;
its per-bit specification is the oracle ``SubbandPlaneCoder`` in
``tests/codec_oracle.py``.  This module holds what every plane coder
shares: the segment type and the argument checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import BitstreamError


@dataclass
class PlaneSegment:
    """One coded bit-plane of one subband group.

    Attributes:
        plane: Bit-plane index (higher = more significant).
        data: The flushed arithmetic codeword for this plane.
    """

    plane: int
    data: bytes


def check_bands(
    band_shapes: list[tuple[str, int, tuple[int, int]]],
    bands: list[np.ndarray],
) -> None:
    """Validate that ``bands`` matches the declared count and shapes.

    Shared by every plane coder's ``encode``.

    Raises:
        BitstreamError: On any count or shape mismatch.
    """
    if len(bands) != len(band_shapes):
        raise BitstreamError(
            f"expected {len(band_shapes)} subbands, got {len(bands)}"
        )
    for band, (name, level, shape) in zip(bands, band_shapes):
        if tuple(band.shape) != tuple(shape):
            raise BitstreamError(
                f"subband {name}{level} shape {band.shape} != expected {shape}"
            )


#: The highest bit-plane a non-negative int64 magnitude occupies.
MAX_PLANE = 62


def check_max_plane(max_plane: int) -> None:
    """Refuse a top plane above :data:`MAX_PLANE`.

    Shared by every plane coder's ``encode`` and ``decode``: no int64
    magnitude has a bit above plane 62, and the compiled coder's shifts
    are undefined in C from plane 63, so engines would disagree there.

    Raises:
        ValueError: When ``max_plane`` exceeds :data:`MAX_PLANE`.
    """
    if max_plane > MAX_PLANE:
        raise ValueError(
            f"max_plane {max_plane} exceeds {MAX_PLANE}, the top bit-plane "
            "of an int64 magnitude"
        )


def check_segment_plane(plane: int, expected: int) -> None:
    """Validate one decoded segment's plane against the descending order.

    Shared by every plane coder's ``decode``.

    Raises:
        BitstreamError: When ``plane`` is not ``expected`` or lies below
            plane 0 (more segments than ``max_plane + 1``).
    """
    if plane < 0:
        raise BitstreamError(f"plane segment below plane 0: got {plane}")
    if plane != expected:
        raise BitstreamError(
            f"plane segments out of order: expected {expected}, got {plane}"
        )
