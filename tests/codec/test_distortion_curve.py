"""The one-pass distortion curve against the per-depth oracle loop.

``ImageCodec._distortion_curve`` feeds the rate-distortion allocation
(``ImageCodec._allocate``), so every float must equal the per-depth loop
kept in ``tests/sim_oracle.py``: curves are compared by ``repr`` and the
budgeted allocation (kept planes and layer boundaries) must not move.
"""

from unittest import mock

import numpy as np
import pytest
from sim_oracle import distortion_curve_reference

from repro.codec.dwt import Wavelet
from repro.codec.jpeg2000 import CodecConfig, ImageCodec


def _image_cases() -> dict[str, tuple[CodecConfig, np.ndarray, float | None]]:
    """``(config, image, base_step)`` per named case."""
    rng = np.random.default_rng(0xC0A5)
    lossy = CodecConfig(tile_size=64, levels=3)
    return {
        # Every tile quantizes to zero: top = -1, a one-depth curve.
        "all_zero": (lossy, np.zeros((64, 64)), None),
        # 64x1, 1x64 and 1x1 edge tiles; the 1x1 tile is one LL coefficient
        # beside empty HL/LH/HH subbands.
        "edge_tiles": (lossy, rng.random((65, 65)), None),
        # A step this fine puts the top plane near 30 (below the int32 wrap).
        "deep_planes": (lossy, rng.random((64, 64)), 2.0**-26),
        "lossless": (
            CodecConfig(tile_size=64, levels=3, wavelet=Wavelet.LEGALL53),
            rng.random((64, 64)),
            None,
        ),
        "random_64x64": (lossy, rng.random((64, 64)), None),
        "random_33x47": (lossy, rng.random((33, 47)), None),
    }


def _curve_inputs(case: str) -> list[tuple[list, dict, int]]:
    """Every ``_distortion_curve`` call an encode of ``case`` makes."""
    config, image, step = _image_cases()[case]
    calls = []
    production = ImageCodec._distortion_curve

    def record(quantized, steps, top):
        calls.append((quantized, steps, top))
        return production(quantized, steps, top)

    with mock.patch.object(
        ImageCodec, "_distortion_curve", staticmethod(record)
    ):
        ImageCodec(config, backend="real").encode(image, base_step=step)
    return calls


def _direct_inputs() -> list[tuple[list, dict, int]]:
    """Hand-built subband lists: a single coefficient, and bands that are
    not C-contiguous (the curve must sum in the band's memory order)."""
    rng = np.random.default_rng(0x5EED)
    single = np.zeros((8, 8), dtype=np.int32)
    single[3, 5] = -777
    wide = rng.integers(-5000, 5000, (40, 24)).astype(np.int32)
    return [
        ([("LL", 1, single)], {("LL", 1): 0.25}, 9),
        (
            [
                ("LL", 2, np.asfortranarray(wide)),
                ("HL", 2, wide[::2, 1::3]),
                ("LH", 2, wide.T),
            ],
            {("LL", 2): 0.5, ("HL", 2): 1.0, ("LH", 2): 1.0},
            12,
        ),
    ]


@pytest.mark.parametrize("case", sorted(_image_cases()))
def test_curve_matches_oracle(case):
    calls = _curve_inputs(case)
    assert calls
    for quantized, steps, top in calls:
        got = ImageCodec._distortion_curve(quantized, steps, top)
        want = distortion_curve_reference(quantized, steps, top)
        assert len(got) == top + 2
        assert repr(got) == repr(want)


def test_cases_reach_their_corners():
    assert [top for _, _, top in _curve_inputs("all_zero")] == [-1]
    assert [top for _, _, top in _curve_inputs("deep_planes")] == [30]
    # LL shapes of the 64x1, 1x64 and 1x1 edge tiles.
    shapes = {q[0][2].shape for q, _, _ in _curve_inputs("edge_tiles")}
    assert {(32, 1), (1, 32), (1, 1)} <= shapes
    lossless = _curve_inputs("lossless")
    assert all(
        band.dtype == np.int64 and step == 1.0
        for quantized, steps, _ in lossless
        for (name, level, band) in quantized
        for step in [steps[(name, level)]]
    )


def test_direct_curves_match_oracle():
    for quantized, steps, top in _direct_inputs():
        got = ImageCodec._distortion_curve(quantized, steps, top)
        want = distortion_curve_reference(quantized, steps, top)
        assert repr(got) == repr(want)


@pytest.mark.parametrize("case", sorted(_image_cases()))
def test_budgeted_allocation_matches_oracle(case):
    """Same kept planes and layer boundaries under either curve."""
    config, image, step = _image_cases()[case]
    codec = ImageCodec(config, backend="real")
    budget = codec.encode(image, base_step=step).payload_bytes() // 2

    def allocation():
        encoded = codec.encode(
            image, target_bytes=budget, base_step=step, n_layers=3
        )
        tiles = [
            (tile.planes_available, tile.layer_planes, tile.rd_distortion)
            for tile in encoded.tiles
        ]
        return repr(tiles), encoded.to_bytes()

    production = allocation()
    with mock.patch.object(
        ImageCodec,
        "_distortion_curve",
        staticmethod(distortion_curve_reference),
    ):
        oracle = allocation()
    assert production == oracle
