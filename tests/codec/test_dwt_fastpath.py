"""DWT differential harness and golden lifting fixtures.

Two layers of protection for the production transform (the fused native
2-D kernel):

* **Differential**: the production transform must match the per-sample
  reference loops in ``tests/sim_oracle.py`` — bit-exact for LeGall 5/3,
  float-identical (exact bytes, not approximate) for CDF 9/7 — across
  odd/even/1-pixel/non-square shapes, random content and stacks of 1 to
  16 images, through every entry point (``forward_dwt2d``,
  ``inverse_dwt2d``, ``dwt_many``, ``idwt_many``).  The oracle's
  ``reference_path()`` replaces the transform whole, so it never reaches
  the fused kernel, which ``test_reference_path_bypasses_fused_kernel``
  pins.

* **Golden**: checked-in fixtures pin the exact 5/3 analysis outputs and
  bit-exact roundtrips (plus 9/7 subbands) for deterministic inputs, so a
  regression that changed *both* implementations in lockstep would still
  fail loudly.

Regenerate fixtures (only when the transform is intentionally changed)::

    PYTHONPATH=src:tests python tests/codec/test_dwt_fastpath.py --regen
"""

import contextlib
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sim_oracle import reference_path

from repro.codec._ckernels import CompiledKernels
from repro.codec.dwt import (
    Wavelet,
    WaveletCoeffs,
    dwt_many,
    forward_dwt2d,
    idwt_many,
    inverse_dwt2d,
)
from repro.codec.jpeg2000 import CodecConfig, effective_levels
from repro.codec.ratemodel import RateModel
from repro.errors import CodecError

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
        """Production 5/3 analysis reproduces the checked-in subbands."""
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
        """Production 9/7 analysis is float-identical to the pinned bytes."""
        _, _, _, floats = _golden_inputs()[name]
        coeffs = forward_dwt2d(floats, levels, Wavelet.CDF97)
        for key, band in _flatten_subbands(coeffs).items():
            assert np.array_equal(band, golden[f"{name}__97__{key}"]), (
                f"{name}: subband {key} diverged from golden"
            )


class TestDifferential:
    """Production transform vs the reference loops on random arrays."""

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


#: Stack geometries for the batched tests: square and non-square, odd,
#: tiny, and 1-pixel rows/columns (the encoder's edge tiles).
STACK_SHAPES = [(64, 64), (64, 32), (63, 61), (17, 33), (2, 2), (1, 9), (9, 1)]


def _assert_same(actual: np.ndarray, expected: np.ndarray) -> None:
    """Same dtype, shape and bytes (stricter than ``==`` on floats)."""
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.ascontiguousarray(actual).tobytes() == (
        np.ascontiguousarray(expected).tobytes()
    )


def _assert_same_subbands(actual, expected) -> None:
    assert actual.shape == expected.shape
    assert actual.levels == expected.levels
    for (_, _, a), (_, _, b) in zip(actual.subbands(), expected.subbands()):
        _assert_same(a, b)


def _stack(rng, wavelet, n_images, shape):
    if wavelet is Wavelet.LEGALL53:
        return rng.integers(-4096, 4096, (n_images,) + shape)
    return rng.random((n_images,) + shape)


def _randomized(coeffs, rng):
    """``coeffs``' geometry filled with fresh random subband values."""

    def fresh(band):
        if coeffs.wavelet is Wavelet.LEGALL53:
            return rng.integers(-4096, 4096, band.shape)
        return rng.standard_normal(band.shape)

    return WaveletCoeffs(
        approx=fresh(coeffs.approx),
        details=[tuple(fresh(b) for b in triple) for triple in coeffs.details],
        shape=coeffs.shape,
        wavelet=coeffs.wavelet,
    )


class TestBatchedTransforms:
    """The batched transforms against the oracle's per-sample loops.

    Outside ``reference_path()`` both the batched and the single-image
    entry points run the same fused kernel, so every comparison here is
    against a transform run on the oracle.
    """

    @pytest.mark.parametrize("shape", STACK_SHAPES, ids=str)
    @pytest.mark.parametrize("n_images", [1, 3, 16])
    @pytest.mark.parametrize("wavelet", list(Wavelet), ids=lambda w: w.value)
    def test_forward_stack_matches_reference(
        self, wavelet, n_images, shape, rng
    ):
        levels = effective_levels(shape, 3)
        stack = _stack(rng, wavelet, n_images, shape)
        with reference_path():
            expected = dwt_many(stack, levels, wavelet)
        actual = dwt_many(stack, levels, wavelet)
        assert len(actual) == n_images
        for image, a, b in zip(stack, actual, expected):
            _assert_same_subbands(a, b)
            _assert_same_subbands(forward_dwt2d(image, levels, wavelet), b)

    @pytest.mark.parametrize("shape", STACK_SHAPES, ids=str)
    @pytest.mark.parametrize("n_images", [1, 3, 16])
    @pytest.mark.parametrize("wavelet", list(Wavelet), ids=lambda w: w.value)
    def test_inverse_stack_matches_reference(
        self, wavelet, n_images, shape, rng
    ):
        levels = effective_levels(shape, 3)
        stack = _stack(rng, wavelet, n_images, shape)
        coeffs = [
            _randomized(c, rng) for c in dwt_many(stack, levels, wavelet)
        ]
        with reference_path():
            expected = idwt_many(coeffs)
            expected_single = [inverse_dwt2d(c) for c in coeffs]
        actual = idwt_many(coeffs)
        _assert_same(actual, expected)
        for c, want in zip(coeffs, expected_single):
            _assert_same(inverse_dwt2d(c), want)

    def test_dwt_many_matches_singles(self, rng):
        tiles = [rng.random((64, 64)) for _ in range(7)]
        batch = dwt_many(tiles, 3, Wavelet.CDF97)
        with reference_path():
            singles = [forward_dwt2d(tile, 3, Wavelet.CDF97) for tile in tiles]
        for coeffs, solo in zip(batch, singles):
            _assert_same_subbands(coeffs, solo)

    def test_dwt_many_53_bit_exact(self, rng):
        tiles = [rng.integers(0, 4096, (33, 31)) for _ in range(5)]
        batch = dwt_many(tiles, 2, Wavelet.LEGALL53)
        with reference_path():
            singles = [
                forward_dwt2d(tile, 2, Wavelet.LEGALL53) for tile in tiles
            ]
        for coeffs, solo in zip(batch, singles):
            _assert_same_subbands(coeffs, solo)

    def test_idwt_many_matches_singles(self, rng):
        tiles = [rng.random((48, 40)) for _ in range(6)]
        batch = dwt_many(tiles, 2, Wavelet.CDF97)
        recon_stack = idwt_many(batch)
        with reference_path():
            singles = [inverse_dwt2d(coeffs) for coeffs in batch]
        for idx, solo in enumerate(singles):
            _assert_same(recon_stack[idx], solo)

    def test_rate_search_with_one_pixel_edge_tiles(self, rng):
        """A 65x130 image tiles into 64x64, 64x2, 1x64 and 1x2 blocks."""
        model = RateModel(CodecConfig(tile_size=64))
        image = rng.random((65, 130))
        with reference_path():
            expected = model.find_step_for_bytes(image, 1500)
        actual = model.find_step_for_bytes(image, 1500)
        assert actual.base_step == expected.base_step
        assert actual.coded_bytes == expected.coded_bytes
        assert actual.psnr_roi == expected.psnr_roi
        _assert_same(actual.reconstruction, expected.reconstruction)

    def test_reference_path_bypasses_fused_kernel(self, rng):
        """The oracle never reaches the fused kernel; production makes one
        call per transform."""
        calls = []

        def counted(name):
            original = getattr(CompiledKernels, name)

            def wrapper(self, *args, **kwargs):
                calls.append(name)
                return original(self, *args, **kwargs)

            return wrapper

        def transform_everything():
            coeffs = forward_dwt2d(rng.random((32, 32)), 3)
            ints = rng.integers(0, 99, (4, 16, 8))
            batch = dwt_many(ints, 2, Wavelet.LEGALL53)
            inverse_dwt2d(coeffs)
            idwt_many(batch)

        with mock.patch.object(
            CompiledKernels, "dwt_forward", counted("dwt_forward")
        ), mock.patch.object(
            CompiledKernels, "dwt_inverse", counted("dwt_inverse")
        ):
            with reference_path():
                transform_everything()
            assert calls == []
            transform_everything()
        assert calls == ["dwt_forward"] * 2 + ["dwt_inverse"] * 2

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
        with pytest.raises(CodecError):
            dwt_many([rng.random((8, 8)), rng.random((8, 9))], 1)


class TestSubbandValidation:
    @pytest.mark.parametrize("path", ["native", "oracle"])
    def test_truncated_subband_rejected(self, path, rng):
        """A subband that disagrees with the geometry is a CodecError,
        before the fused kernel could read past it; the oracle's per-axis
        inverse refuses it too instead of lifting a misshapen band."""
        coeffs = forward_dwt2d(rng.random((64, 64)), 3)
        hl, lh, hh = coeffs.details[-1]
        coeffs.details[-1] = (hl[:, :5], lh, hh)
        oracle = path == "oracle"
        with reference_path() if oracle else contextlib.nullcontext():
            with pytest.raises(CodecError, match="subband HL1 has shape"):
                inverse_dwt2d(coeffs)
            with pytest.raises(CodecError, match="subband HL1 has shape"):
                idwt_many([coeffs, coeffs])


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print("usage: test_dwt_fastpath.py --regen")
