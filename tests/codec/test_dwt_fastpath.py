"""Vectorized-DWT differential harness and golden lifting fixtures.

Two layers of protection for the production lifting kernels:

* **Differential**: the vectorized whole-array lifting must match the
  per-sample reference loops in ``tests/sim_oracle.py`` — bit-exact for
  LeGall 5/3, float-identical (exact ``==``, not approximate) for CDF
  9/7 — across odd/even/1-pixel/non-square shapes and random content,
  including the batched :func:`~repro.codec.dwt.dwt_many`/:func:`~repro.codec.dwt.idwt_many`
  APIs.

* **Golden**: checked-in fixtures pin the exact 5/3 analysis outputs and
  bit-exact roundtrips (plus 9/7 subbands) for deterministic inputs, so a
  regression that changed *both* implementations in lockstep would still
  fail loudly.

Regenerate fixtures (only when the transform is intentionally changed)::

    PYTHONPATH=src:tests python tests/codec/test_dwt_fastpath.py --regen
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sim_oracle import reference_path

from repro.codec.dwt import (
    Wavelet,
    dwt_many,
    forward_dwt2d,
    idwt_many,
    inverse_dwt2d,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "dwt_lifting.npz"

#: Shape/level cases covering even, odd, single-pixel rows/columns, and
#: non-square geometry (the encoder's edge tiles).
GOLDEN_CASES = [
    ("even_square", (64, 64), 3),
    ("odd_square", (63, 61), 3),
    ("non_square", (17, 33), 2),
    ("one_row", (1, 9), 1),
    ("one_col", (9, 1), 1),
    ("one_pixel", (1, 1), 1),
    ("tiny_even", (2, 2), 1),
]


def _golden_inputs():
    """Deterministic integer (5/3) and float (9/7) inputs per case."""
    out = {}
    for name, shape, levels in GOLDEN_CASES:
        rng = np.random.default_rng(0xD77 + len(name) * 131 + shape[0] * 7 + shape[1])
        out[name] = (
            shape,
            levels,
            rng.integers(-2048, 2048, shape),
            rng.random(shape),
        )
    return out


def _flatten_subbands(coeffs):
    """Subbands as a dict of arrays keyed by ``name_level``."""
    return {
        f"{name}_{level}_{idx}": band
        for idx, (name, level, band) in enumerate(coeffs.subbands())
    }


def regenerate() -> None:
    """Write the golden fixture from the reference (loop) implementation."""
    payload = {}
    with reference_path():
        for name, (shape, levels, ints, floats) in _golden_inputs().items():
            c53 = forward_dwt2d(ints, levels, Wavelet.LEGALL53)
            c97 = forward_dwt2d(floats, levels, Wavelet.CDF97)
            payload[f"{name}__input53"] = ints
            payload[f"{name}__input97"] = floats
            for key, band in _flatten_subbands(c53).items():
                payload[f"{name}__53__{key}"] = band
            for key, band in _flatten_subbands(c97).items():
                payload[f"{name}__97__{key}"] = band
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN_PATH, **payload)
    print(f"wrote {GOLDEN_PATH} ({len(payload)} arrays)")


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():
        pytest.fail(
            "missing golden DWT fixture; regenerate with "
            "`PYTHONPATH=src:tests python tests/codec/test_dwt_fastpath.py "
            "--regen`"
        )
    return np.load(GOLDEN_PATH)


class TestGoldenLifting:
    @pytest.mark.parametrize("name,shape,levels", GOLDEN_CASES)
    def test_53_analysis_pinned(self, golden, name, shape, levels):
        """Vectorized 5/3 analysis reproduces the checked-in subbands."""
        _, _, ints, _ = _golden_inputs()[name]
        assert np.array_equal(ints, golden[f"{name}__input53"])
        coeffs = forward_dwt2d(ints, levels, Wavelet.LEGALL53)
        for key, band in _flatten_subbands(coeffs).items():
            assert np.array_equal(band, golden[f"{name}__53__{key}"]), (
                f"{name}: subband {key} diverged from golden"
            )

    @pytest.mark.parametrize("name,shape,levels", GOLDEN_CASES)
    def test_53_roundtrip_bit_exact(self, golden, name, shape, levels):
        """5/3 synthesis of the pinned subbands recovers the pinned input."""
        _, _, ints, _ = _golden_inputs()[name]
        recon = inverse_dwt2d(forward_dwt2d(ints, levels, Wavelet.LEGALL53))
        assert recon.dtype == np.int64
        assert np.array_equal(recon, ints)

    @pytest.mark.parametrize("name,shape,levels", GOLDEN_CASES)
    def test_97_analysis_pinned(self, golden, name, shape, levels):
        """Vectorized 9/7 analysis is float-identical to the pinned bytes."""
        _, _, _, floats = _golden_inputs()[name]
        coeffs = forward_dwt2d(floats, levels, Wavelet.CDF97)
        for key, band in _flatten_subbands(coeffs).items():
            assert np.array_equal(band, golden[f"{name}__97__{key}"]), (
                f"{name}: subband {key} diverged from golden"
            )


class TestDifferential:
    """Vectorized lifting vs retained reference loops on random arrays."""

    @pytest.mark.parametrize("name,shape,levels", GOLDEN_CASES)
    def test_case_shapes(self, name, shape, levels, rng):
        ints = rng.integers(-4096, 4096, shape)
        floats = rng.random(shape)
        with reference_path():
            ref53 = forward_dwt2d(ints, levels, Wavelet.LEGALL53)
            ref97 = forward_dwt2d(floats, levels, Wavelet.CDF97)
            ref53_inv = inverse_dwt2d(ref53)
            ref97_inv = inverse_dwt2d(ref97)
        fast53 = forward_dwt2d(ints, levels, Wavelet.LEGALL53)
        fast97 = forward_dwt2d(floats, levels, Wavelet.CDF97)
        fast53_inv = inverse_dwt2d(fast53)
        fast97_inv = inverse_dwt2d(fast97)
        for (_, _, a), (_, _, b) in zip(ref53.subbands(), fast53.subbands()):
            assert np.array_equal(a, b)
        for (_, _, a), (_, _, b) in zip(ref97.subbands(), fast97.subbands()):
            assert np.array_equal(a, b)
        assert np.array_equal(ref53_inv, fast53_inv)
        assert np.array_equal(ref97_inv, fast97_inv)

    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(1, 3),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_vectorized_matches_reference(
        self, height, width, levels, seed
    ):
        feasible = max(1, int(math.floor(math.log2(max(1, min(height, width))))))
        levels = min(levels, feasible)
        item_rng = np.random.default_rng(seed)
        ints = item_rng.integers(-1 << 12, 1 << 12, (height, width))
        floats = item_rng.random((height, width))
        with reference_path():
            ref53 = forward_dwt2d(ints, levels, Wavelet.LEGALL53)
            ref97 = forward_dwt2d(floats, levels, Wavelet.CDF97)
        fast53 = forward_dwt2d(ints, levels, Wavelet.LEGALL53)
        fast97 = forward_dwt2d(floats, levels, Wavelet.CDF97)
        for (_, _, a), (_, _, b) in zip(ref53.subbands(), fast53.subbands()):
            assert np.array_equal(a, b)
        for (_, _, a), (_, _, b) in zip(ref97.subbands(), fast97.subbands()):
            assert np.array_equal(a, b)


class TestBatchedTransforms:
    def test_dwt_many_matches_singles(self, rng):
        tiles = [rng.random((64, 64)) for _ in range(7)]
        batch = dwt_many(tiles, 3, Wavelet.CDF97)
        for tile, coeffs in zip(tiles, batch):
            solo = forward_dwt2d(tile, 3, Wavelet.CDF97)
            for (_, _, a), (_, _, b) in zip(
                coeffs.subbands(), solo.subbands()
            ):
                assert np.array_equal(a, b)

    def test_dwt_many_53_bit_exact(self, rng):
        tiles = [rng.integers(0, 4096, (33, 31)) for _ in range(5)]
        batch = dwt_many(tiles, 2, Wavelet.LEGALL53)
        for tile, coeffs in zip(tiles, batch):
            solo = forward_dwt2d(tile, 2, Wavelet.LEGALL53)
            for (_, _, a), (_, _, b) in zip(
                coeffs.subbands(), solo.subbands()
            ):
                assert np.array_equal(a, b)

    def test_idwt_many_matches_singles(self, rng):
        tiles = [rng.random((48, 40)) for _ in range(6)]
        batch = dwt_many(tiles, 2, Wavelet.CDF97)
        recon_stack = idwt_many(batch)
        for idx, tile in enumerate(tiles):
            solo = inverse_dwt2d(forward_dwt2d(tile, 2, Wavelet.CDF97))
            assert np.array_equal(recon_stack[idx], solo)

    def test_dwt_many_stack_input(self, rng):
        stack = rng.random((4, 32, 32))
        from_list = dwt_many([stack[i] for i in range(4)], 2)
        from_stack = dwt_many(stack, 2)
        for a, b in zip(from_list, from_stack):
            assert np.array_equal(a.approx, b.approx)

    def test_dwt_many_empty(self):
        assert dwt_many([], 2) == []
        assert idwt_many([]).size == 0

    def test_dwt_many_rejects_mixed_shapes(self, rng):
        from repro.errors import CodecError

        with pytest.raises(CodecError):
            dwt_many([rng.random((8, 8)), rng.random((8, 9))], 1)


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print("usage: test_dwt_fastpath.py --regen")
