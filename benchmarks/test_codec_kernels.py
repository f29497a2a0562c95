"""Microbenchmarks of the native kernels (classic pytest-benchmark style).

These track the substrate's performance over time rather than reproducing a
paper figure: the codec's transforms and entropy coders, and the imagery
synthesis that feeds them.
"""

import numpy as np
import pytest

from repro.codec import registry
from repro.codec.arith import ArithmeticDecoder, ArithmeticEncoder
from repro.codec.dwt import Wavelet, forward_dwt2d, inverse_dwt2d
from repro.codec.fastpath import BatchContextTable, BatchRangeEncoder
from repro.codec.jpeg2000 import CodecConfig, ImageCodec
from repro.codec.ratemodel import RateModel
from repro.imagery.bands import get_band
from repro.imagery.earth_model import EarthModel, LocationSpec, TerrainClass
from repro.imagery.noise import fractal_noise
from repro.imagery.sensor import SatelliteSensor, render_pixels


@pytest.fixture(scope="module")
def image256():
    return fractal_noise((256, 256), seed=99, octaves=5, base_cells=4)


def test_bench_dwt_forward(benchmark, image256):
    benchmark(lambda: forward_dwt2d(image256, 3, Wavelet.CDF97))


def test_bench_dwt_roundtrip(benchmark, image256):
    def roundtrip():
        return inverse_dwt2d(forward_dwt2d(image256, 3, Wavelet.CDF97))

    recon = benchmark(roundtrip)
    assert np.abs(recon - image256).max() < 1e-9


def test_bench_arith_encode_10k(benchmark, rng=np.random.default_rng(1)):
    bits = rng.integers(0, 2, 10_000)
    ctxs = rng.integers(0, 4, 10_000)

    def encode():
        enc = ArithmeticEncoder()
        for b, c in zip(bits, ctxs):
            enc.encode(int(b), int(c))
        return enc.finish()

    data = benchmark(encode)
    dec = ArithmeticDecoder(data)
    assert [dec.decode(int(c)) for c in ctxs[:100]] == [int(b) for b in bits[:100]]


def test_bench_arith_encode_many_10k(benchmark, rng=np.random.default_rng(1)):
    """Batched range-coder API: same workload as the per-bit bench above."""
    bits = rng.integers(0, 2, 10_000).tolist()
    ctxs = rng.integers(0, 4, 10_000).tolist()

    def encode():
        enc = BatchRangeEncoder(BatchContextTable(4))
        enc.encode_many(bits, ctxs)
        return enc.finish()

    data = benchmark(encode)
    # Byte-identical to the reference encoder on the same stream.
    ref = ArithmeticEncoder()
    for b, c in zip(bits, ctxs):
        ref.encode(b, c)
    assert data == ref.finish()


def test_bench_tile_encode_reference(benchmark, image256):
    codec = ImageCodec(
        CodecConfig(tile_size=64, base_step=1 / 256), backend="reference"
    )
    tile = image256[:64, :64]
    benchmark(lambda: codec.encode(tile))


def test_bench_tile_encode_vectorized(benchmark, image256):
    codec = ImageCodec(
        CodecConfig(tile_size=64, base_step=1 / 256), backend="vectorized"
    )
    tile = image256[:64, :64]
    benchmark(lambda: codec.encode(tile))


def test_bench_tile_decode_vectorized(benchmark, image256):
    codec = ImageCodec(
        CodecConfig(tile_size=64, base_step=1 / 256), backend="vectorized"
    )
    encoded = codec.encode(image256[:64, :64])
    benchmark(lambda: codec.decode(encoded))


needs_kernels = pytest.mark.skipif(
    not registry.get("compiled").available(),
    reason="compiled kernels unavailable",
)


@needs_kernels
def test_bench_tile_encode_compiled(benchmark, image256):
    codec = ImageCodec(
        CodecConfig(tile_size=64, base_step=1 / 256), backend="compiled"
    )
    tile = image256[:64, :64]
    benchmark(lambda: codec.encode(tile))


@needs_kernels
def test_bench_tile_decode_compiled(benchmark, image256):
    codec = ImageCodec(
        CodecConfig(tile_size=64, base_step=1 / 256), backend="compiled"
    )
    encoded = codec.encode(image256[:64, :64])
    benchmark(lambda: codec.decode(encoded))


def test_bench_rate_model_encode(benchmark, image256):
    model = RateModel(CodecConfig(tile_size=64))
    result = benchmark(lambda: model.encode(image256, 1 / 512))
    assert result.coded_bytes > 0


def test_bench_rate_model_step_search(benchmark, image256):
    model = RateModel(CodecConfig(tile_size=64))
    result = benchmark(
        lambda: model.find_step_for_bytes(image256, 4000)
    )
    assert result.coded_bytes <= 4400


#: Imagery synthesis runs the compiled kernels where they exist and numpy
#: otherwise; each benchmark below times both paths.
IMAGERY_PATHS = [pytest.param("compiled", marks=needs_kernels), "numpy"]


def _select_imagery_path(path, monkeypatch):
    if path == "numpy":  # a pure-Python engine switches the kernels off
        monkeypatch.setenv(registry.ENV_BACKEND, "vectorized")
    assert (registry.kernels() is not None) == (path == "compiled")


@pytest.mark.parametrize("path", IMAGERY_PATHS)
def test_bench_fractal_field_256(benchmark, image256, path, monkeypatch):
    """One 256x256 five-octave fractal-noise field."""
    _select_imagery_path(path, monkeypatch)
    field = benchmark(
        lambda: fractal_noise((256, 256), seed=99, octaves=5, base_cells=4)
    )
    assert np.array_equal(field, image256)


@pytest.fixture(scope="module")
def cloudy_capture_inputs():
    """Everything a 4-band 256x256 capture render reads, its ground truth
    already composed (the render's cached steady state)."""
    bands = tuple(get_band(name) for name in ("B2", "B3", "B4", "B8"))
    spec = LocationSpec(
        name="bench",
        shape=(256, 256),
        terrain_mix={TerrainClass.CITY: 0.5, TerrainClass.FOREST: 0.5},
        seed=20,
    )
    sensor = SatelliteSensor(EarthModel(spec, bands), bands)
    t_days = next(
        t for t in np.arange(1.0, 60.0)
        if 0.2 < sensor.cloud_model.coverage_at(t) < 0.8
    )
    for band in bands:
        sensor.earth.ground_truth(band.name, t_days)
    return (
        sensor.earth,
        bands,
        t_days,
        sensor.cloud_model.sample(t_days),
        sensor.illumination_model.sample(t_days),
    )


@pytest.mark.parametrize("path", IMAGERY_PATHS)
def test_bench_capture_render_4band_256(
    benchmark, cloudy_capture_inputs, path, monkeypatch
):
    """Every band of a partly cloudy capture, with sensor noise."""
    _select_imagery_path(path, monkeypatch)
    pixels = benchmark(
        lambda: render_pixels(*cloudy_capture_inputs, noise_sigma=0.002)
    )
    assert len(pixels) == 4
    assert all(0.0 <= band.min() and band.max() <= 1.0 for band in pixels.values())
