"""Microbenchmarks of the native kernels (classic pytest-benchmark style).

These track the substrate's performance over time rather than reproducing a
paper figure: the codec's transforms and entropy coder, and the imagery
synthesis that feeds them.  The per-bit oracle coder
(``tests/codec_oracle.py``) and the simulation oracle's imagery
(``tests/sim_oracle.py``) are timed alongside as the slow references.
"""

import contextlib
import hashlib
import pickle

import numpy as np
import pytest
from codec_oracle import (
    ORACLE_ENGINE,
    ArithmeticDecoder,
    ArithmeticEncoder,
    reference_engine,
)
from sim_oracle import reference_path, render_pixels_reference

from repro.codec.dwt import Wavelet, forward_dwt2d, inverse_dwt2d
from repro.codec.jpeg2000 import CodecConfig, ImageCodec
from repro.codec.ratemodel import RateModel
from repro.core import cloud
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


def test_bench_tile_encode_reference(benchmark, image256):
    with reference_engine():
        codec = ImageCodec(
            CodecConfig(tile_size=64, base_step=1 / 256), backend=ORACLE_ENGINE
        )
    tile = image256[:64, :64]
    benchmark(lambda: codec.encode(tile))


def test_bench_tile_decode_reference(benchmark, image256):
    with reference_engine():
        codec = ImageCodec(
            CodecConfig(tile_size=64, base_step=1 / 256), backend=ORACLE_ENGINE
        )
    encoded = codec.encode(image256[:64, :64])
    benchmark(lambda: codec.decode(encoded))


def test_bench_tile_encode_compiled(benchmark, image256):
    codec = ImageCodec(
        CodecConfig(tile_size=64, base_step=1 / 256), backend="compiled"
    )
    tile = image256[:64, :64]
    benchmark(lambda: codec.encode(tile))


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


#: Imagery synthesis runs the compiled kernels; each benchmark below also
#: times the oracle's numpy passes over the same inputs.
IMAGERY_PATHS = ["compiled", "oracle"]


@pytest.mark.parametrize("path", IMAGERY_PATHS)
def test_bench_fractal_field_256(benchmark, image256, path):
    """One 256x256 five-octave fractal-noise field."""
    oracle = path == "oracle"
    with reference_path() if oracle else contextlib.nullcontext():
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
    benchmark, cloudy_capture_inputs, path
):
    """Every band of a partly cloudy capture, with sensor noise."""
    render = render_pixels_reference if path == "oracle" else render_pixels
    pixels = benchmark(
        lambda: render(*cloudy_capture_inputs, noise_sigma=0.002)
    )
    assert len(pixels) == 4
    assert all(0.0 <= band.min() and band.max() <= 1.0 for band in pixels.values())


#: The timeseries workload's band set.
TIMESERIES_BANDS = tuple(get_band(name) for name in ("B2", "B3", "B4", "B8"))


@pytest.fixture(scope="module")
def changed_surface_inputs():
    """A 256x256 location whose 16 change cells have all changed, and its
    four composed bands as production renders them."""
    spec = LocationSpec(
        name="bench-changes",
        shape=(256, 256),
        terrain_mix={TerrainClass.CITY: 0.5, TerrainClass.FOREST: 0.5},
        seed=21,
    )
    versions = np.arange(1, 17).reshape(4, 4)
    model = EarthModel(spec, TIMESERIES_BANDS)
    expected = [
        model._compose_surface(band, versions) for band in TIMESERIES_BANDS
    ]
    return spec, versions, expected


@pytest.mark.parametrize("path", IMAGERY_PATHS)
def test_bench_compose_surface_4band_256(
    benchmark, changed_surface_inputs, path
):
    """Every band of a location's surface with all its cells changed, from
    a cold model: the base maps and every change-cell block render."""
    spec, versions, expected = changed_surface_inputs

    def compose():
        model = EarthModel(spec, TIMESERIES_BANDS)
        return [model._compose_surface(band, versions) for band in model.bands]

    with reference_path() if path == "oracle" else contextlib.nullcontext():
        surfaces = benchmark(compose)
    assert all(
        np.array_equal(surface, reference)
        for surface, reference in zip(surfaces, expected)
    )


def _train_timeseries_detectors() -> str:
    """Train both cloud detectors from scratch; digest of their trees."""
    cloud._DETECTOR_CACHE.clear()
    digest = hashlib.sha256()
    for detector in (
        cloud.train_onboard_detector(TIMESERIES_BANDS, tile_size=64),
        cloud.train_ground_detector(TIMESERIES_BANDS),
    ):
        digest.update(pickle.dumps(detector.tree, protocol=4))
    return digest.hexdigest()


@pytest.mark.parametrize("path", IMAGERY_PATHS)
def test_bench_train_detectors_timeseries(benchmark, monkeypatch, path):
    """The on-board and ground detectors of the timeseries band set,
    trained from their synthesized captures."""
    monkeypatch.setattr(cloud, "_DETECTOR_CACHE", {})
    expected = _train_timeseries_detectors()
    with reference_path() if path == "oracle" else contextlib.nullcontext():
        digest = benchmark.pedantic(
            _train_timeseries_detectors, rounds=3, iterations=1
        )
    assert digest == expected
