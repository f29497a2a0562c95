"""Differential harness: the production simulation path vs the oracle.

The production path (the compiled kernels, batched tile pipeline,
warm-state caches) must be a pure performance change: every metric a simulation
produces has to be byte-identical to a run on the reference
implementations (:func:`sim_oracle.reference_path`).  These tests run the
same scenarios both ways and compare
:class:`~repro.core.accounting.RunResult` content exactly (no tolerances;
NaN PSNR for dropped captures compares as equal-NaN).  A kernel-call spy
checks that the oracle reaches none of the kernels production runs.
"""

from __future__ import annotations

import collections
import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from sim_oracle import reference_path

from repro.analysis.scenarios import ScenarioSpec, run_scenario
from repro.codec import registry
from repro.codec.ratemodel import RateModel
from repro.codec.jpeg2000 import CodecConfig
from repro.core.config import EarthPlusConfig
from repro.core.encoder import EarthPlusEncoder
from repro.core.reference import (
    OnboardReferenceCache,
    downsample_image,
    downsample_many,
    quantize_reference,
)
from repro.core.tiles import TileGrid
from repro.datasets.sentinel2 import sentinel2_dataset
from repro.obs import export, trace


def _run_snapshot(result):
    """Everything a RunResult reports, as comparable plain data."""
    return {
        "policy": result.policy,
        "downlink_bytes": result.downlink_bytes,
        "uplink_bytes": result.uplink_bytes,
        "updates_skipped": result.updates_skipped,
        "reference_storage_bytes": result.reference_storage_bytes,
        "captured_storage_bytes": result.captured_storage_bytes,
        "uplink_stats": dict(result.uplink_stats),
        "records": [
            (
                r.location,
                r.satellite_id,
                r.t_days,
                r.dropped,
                r.guaranteed,
                r.psnr,
                r.downloaded_fraction,
                r.bytes_downlinked,
            )
            for r in result.records
        ],
    }


def _identical(a, b) -> bool:
    """Exact equality with NaN == NaN (dropped captures score NaN PSNR)."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(
            _identical(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            _identical(a[k], b[k]) for k in a
        )
    return a == b


#: Scenario cases: (policy, dataset fixture, config, uplink bytes).
#: The starved uplink (as in test_end_to_end's starved-uplink test) skips
#: every update and the tight one some of them, so ``n_bytes`` decides
#: what is uplinked; the synced Planet case runs the epoch journal and
#: ``GroundSegment.apply_ingests``.
SCENARIO_CASES = {
    "earthplus": ("earthplus", "tiny_sentinel_dataset", {}, None),
    "kodan": ("kodan", "tiny_sentinel_dataset", {}, None),
    "earthplus-starved-uplink": (
        "earthplus", "tiny_sentinel_dataset", {}, 15,
    ),
    "earthplus-tight-uplink": ("earthplus", "tiny_sentinel_dataset", {}, 40),
    "planet-synced": (
        "earthplus", "tiny_planet_dataset", {"ground_sync_days": 2.0}, None,
    ),
}


@pytest.mark.parametrize("case", sorted(SCENARIO_CASES))
def test_scenario_byte_identical(request, case):
    """A full scenario run produces byte-identical RunResult either way."""
    policy, dataset, config, uplink = SCENARIO_CASES[case]
    spec = ScenarioSpec(
        policy=policy,
        dataset=request.getfixturevalue(dataset),
        config=EarthPlusConfig(gamma_bpp=0.3, **config),
        uplink_bytes_per_contact=uplink,
    )
    with reference_path():
        reference = _run_snapshot(run_scenario(spec))
    fast = _run_snapshot(run_scenario(spec))
    assert _identical(reference, fast)


def test_repeated_fast_runs_identical(tiny_sentinel_dataset):
    """Warm caches (second run onwards) must not change any metric."""
    spec = ScenarioSpec(
        policy="earthplus",
        dataset=tiny_sentinel_dataset,
        config=EarthPlusConfig(gamma_bpp=0.3),
    )
    first = _run_snapshot(run_scenario(spec))
    second = _run_snapshot(run_scenario(spec))
    assert _identical(first, second)


class TestRateModelDifferential:
    def test_encode_and_search_identical(self, rng):
        model = RateModel(CodecConfig(tile_size=64))
        image = rng.random((192, 192))
        roi = rng.random((3, 3)) > 0.3
        with reference_path():
            ref = model.encode(image, 1 / 256.0, roi)
            ref_search = model.find_step_for_bytes(
                image, 4000, roi, tolerance=0.08, max_iterations=14
            )
        fast = model.encode(image, 1 / 256.0, roi)
        fast_search = model.find_step_for_bytes(
            image, 4000, roi, tolerance=0.08, max_iterations=14
        )
        assert ref.coded_bytes == fast.coded_bytes
        assert ref.payload_bytes == fast.payload_bytes
        assert ref.psnr_roi == fast.psnr_roi
        assert np.array_equal(ref.reconstruction, fast.reconstruction)
        assert ref_search.base_step == fast_search.base_step
        assert ref_search.coded_bytes == fast_search.coded_bytes
        assert np.array_equal(
            ref_search.reconstruction, fast_search.reconstruction
        )

    def test_edge_tiles_identical(self, rng):
        """Non-divisible image shapes exercise the mixed-shape batching."""
        model = RateModel(CodecConfig(tile_size=64))
        image = rng.random((200, 150))
        roi = np.ones((4, 3), dtype=bool)
        with reference_path():
            ref = model.find_step_for_bytes(image, 6000, roi)
        fast = model.find_step_for_bytes(image, 6000, roi)
        assert ref.coded_bytes == fast.coded_bytes
        assert ref.base_step == fast.base_step
        assert np.array_equal(ref.reconstruction, fast.reconstruction)


class TestEncoderBatchedBands:
    def _encoder(self, config, two_bands, onboard_detector, cache):
        return EarthPlusEncoder(
            config=config,
            bands=two_bands,
            image_shape=(128, 128),
            cloud_detector=onboard_detector,
            cache=cache,
        )

    def _band_snapshot(self, band_result):
        return (
            band_result.band,
            band_result.downloaded_tiles.tolist(),
            band_result.cloudy_tiles.tolist(),
            band_result.changed_fraction,
            band_result.bytes_downlinked,
            band_result.psnr_downloaded,
            band_result.reconstruction.tobytes(),
            band_result.gain,
            band_result.offset,
            band_result.had_reference,
        )

    def test_batched_matches_per_band(
        self, tiny_sentinel_dataset, two_bands, onboard_detector
    ):
        """process_capture is bit-identical with and without batching,
        with and without cached references (incl. partial validity)."""
        config = EarthPlusConfig(gamma_bpp=0.3)
        sensor = tiny_sentinel_dataset.sensors["A"]
        with reference_path():
            capture = sensor._render_capture(0, 30.0)
        ratio = config.reference_downsample
        lr_shape = (128 // ratio, 128 // ratio)

        def fresh_cache(with_reference: bool, partial: bool):
            cache = OnboardReferenceCache(
                lr_tile=max(1, config.tile_size // ratio)
            )
            if with_reference:
                for band in two_bands:
                    reference_lr = downsample_image(
                        capture.pixels[band.name], ratio
                    )
                    validity = np.ones(lr_shape, dtype=bool)
                    if partial:
                        validity[:, : lr_shape[1] // 3] = False
                    from repro.core.reference import ReferenceUpdate

                    cache.apply_update(
                        ReferenceUpdate(
                            location=capture.location,
                            band=band.name,
                            t_days=1.0,
                            full=True,
                            lr_shape=lr_shape,
                            tile_indices=[],
                            payload=quantize_reference(reference_lr).ravel(),
                            lr_tile=cache.lr_tile,
                            validity=validity,
                        )
                    )
            return cache

        for with_ref, partial, guaranteed in [
            (False, False, False),
            (True, False, False),
            (True, True, False),
            (True, False, True),
        ]:
            with reference_path():
                ref_enc = self._encoder(
                    config, two_bands, onboard_detector,
                    fresh_cache(with_ref, partial),
                )
                ref_out = ref_enc.process_capture(capture, guaranteed)
            fast_enc = self._encoder(
                config, two_bands, onboard_detector,
                fresh_cache(with_ref, partial),
            )
            fast_out = fast_enc.process_capture(capture, guaranteed)
            assert ref_out.dropped == fast_out.dropped
            assert ref_out.guaranteed == fast_out.guaranteed
            assert (
                ref_out.cloud_coverage_detected
                == fast_out.cloud_coverage_detected
            )
            for a, b in zip(ref_out.bands, fast_out.bands):
                assert self._band_snapshot(a) == self._band_snapshot(b), (
                    f"band mismatch (ref={with_ref}, partial={partial}, "
                    f"guaranteed={guaranteed})"
                )


class TestBatchedHelpers:
    def test_downsample_many_matches_single(self, rng):
        stack = rng.random((3, 130, 97))
        batched = downsample_many(stack, 8)
        for idx in range(3):
            assert np.array_equal(
                batched[idx], downsample_image(stack[idx], 8)
            )

    def test_reduce_mean_many_matches_single(self, rng):
        for shape in [(128, 128), (130, 100)]:
            grid = TileGrid(shape, 64)
            stack = rng.random((4,) + shape)
            batched = grid.reduce_mean_many(stack)
            for idx in range(4):
                assert np.array_equal(
                    batched[idx], grid.reduce_mean(stack[idx])
                )

    def test_detect_changes_many_matches_single(self, rng):
        from repro.core.change_detection import (
            detect_changes,
            detect_changes_many,
        )

        grid = TileGrid((128, 128), 64)
        refs = rng.random((3, 16, 16))
        caps = refs + rng.normal(0, 0.05, (3, 16, 16))
        valid = rng.random((3, 16, 16)) > 0.2
        batched = detect_changes_many(refs, caps, grid, 8, 0.01, valid)
        for idx in range(3):
            single = detect_changes(
                refs[idx], caps[idx], grid, 8, 0.01, valid_lr=valid[idx]
            )
            assert single.gain == batched[idx].gain
            assert single.offset == batched[idx].offset
            assert np.array_equal(
                single.tile_scores, batched[idx].tile_scores
            )
            assert np.array_equal(
                single.changed_tiles, batched[idx].changed_tiles
            )


def test_schedule_order_memoized(tiny_sentinel_dataset):
    """all_visits_sorted computes once and reuses the same list."""
    schedule = tiny_sentinel_dataset.schedule
    schedule.invalidate_order()
    first = schedule.all_visits_sorted()
    assert schedule.all_visits_sorted() is first
    assert first == sorted(first, key=lambda v: v.t_days)
    schedule.invalidate_order()
    recomputed = schedule.all_visits_sorted()
    assert recomputed is not first and recomputed == first


def test_profiler_sections(tiny_sentinel_dataset):
    """A traced run records phase and kernel sections (``--profile``)."""
    spec = ScenarioSpec(
        policy="earthplus",
        dataset=tiny_sentinel_dataset,
        config=EarthPlusConfig(gamma_bpp=0.3),
    )
    tracer = trace.enable_tracer()
    try:
        run_scenario(spec)
    finally:
        trace.disable_tracer()
    rows = export.summarize(tracer.spans())
    sections = {row["section"] for row in rows}
    assert {"uplink", "capture", "ingest"} <= sections
    assert "codec" in sections and "dwt" in sections
    assert all(row["seconds"] >= 0 for row in rows)
    assert trace.active_tracer() is None


class _KernelSpy:
    """Counts the calls of each compiled-kernel method that callers reach
    through ``registry.kernels()``."""

    def __init__(self, kernels) -> None:
        self._kernels = kernels
        self.calls: collections.Counter[str] = collections.Counter()

    def __getattr__(self, name):
        method = getattr(self._kernels, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


#: Every kernel a model-codec simulation reaches through
#: ``registry.kernels()`` (the entropy engine loads its own handle).
SIMULATION_KERNELS = (
    "fractal_field",
    "render_band",
    "dwt_forward",
    "dwt_inverse",
    "magnitude_histogram_multi",
    "plane_walk_bits",
    "dequantize_multi",
)


@pytest.fixture(scope="module")
def kernel_calls():
    """Kernel calls of one production run of a fresh scenario (so no
    warm state skips a kernel), then of one run on the oracle."""
    dataset = sentinel2_dataset(
        locations=["A"], bands=["B4"], horizon_days=45.0, image_shape=(64, 64)
    )
    spec = ScenarioSpec(
        policy="earthplus",
        dataset=dataset,
        config=EarthPlusConfig(gamma_bpp=0.3),
    )
    kernels = registry.kernels()
    calls = {}
    for path in ("production", "oracle"):
        spy = _KernelSpy(kernels)
        oracle = path == "oracle"
        with mock.patch.object(registry, "kernels", lambda: spy), (
            reference_path() if oracle else contextlib.nullcontext()
        ):
            run_scenario(spec)
        calls[path] = spy.calls
    return calls


def test_simulation_reaches_only_listed_kernels(kernel_calls):
    """A kernel new to the simulation must join the list below, so that
    the oracle is checked to replace it too."""
    assert set(kernel_calls["production"]) == set(SIMULATION_KERNELS)


@pytest.mark.parametrize("kernel", SIMULATION_KERNELS)
def test_reference_path_replaces_kernel(kernel_calls, kernel):
    """Every computation production runs in a kernel, the oracle runs in
    its own numpy: no caller reaches a kernel around a seam."""
    assert kernel_calls["production"][kernel] > 0
    assert kernel_calls["oracle"][kernel] == 0
