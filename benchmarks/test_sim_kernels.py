"""Simulation fast-path kernel and end-to-end benchmarks.

Companion to ``test_codec_kernels.py``: where that file times the entropy
coder backends, this one times the production *simulation* path —
the compiled kernels, the batched tile pipeline in the rate model, and
the warm-state scenario caches — against the reference implementations
(``tests/sim_oracle.py``, run through ``reference_path()``), on the
paper's Figure-13 timeseries scenario (3 policies over one location's
schedule).

Besides recording timings it is a regression gate twice over:

* the fast and reference sweeps must produce **byte-identical** RunResult
  metrics (the fast path is a pure performance change);
* the measured end-to-end speedup must not regress by more than 15 %
  against the baseline :data:`_BASELINE_SPEEDUP` (speedup is a
  same-machine ratio, so the gate is portable across hardware).  The
  baseline is a constant, not read back from ``results/fig13_runtime.txt``:
  this test rewrites that file, so a floor read from it would follow
  whatever the previous run measured.

Detectors are trained (memoized) before timing: training is a one-time
per-process cost both paths share, not part of the simulation loop.
"""

from __future__ import annotations

import math
import time

import numpy as np
from conftest import run_once
from sim_oracle import reference_path

from repro.analysis.scenarios import ScenarioSpec, run_scenario
from repro.analysis.tables import format_table
from repro.codec.dwt import Wavelet, dwt_many, forward_dwt2d, inverse_dwt2d
from repro.codec.jpeg2000 import CodecConfig
from repro.codec.ratemodel import RateModel
from repro.core.cloud import train_ground_detector, train_onboard_detector
from repro.core.config import EarthPlusConfig
from repro.datasets.sentinel2 import sentinel2_dataset

#: The end-to-end speedup the gate is relative to: the value committed in
#: ``results/fig13_runtime.txt`` at the change that fixed the baseline
#: (2-vCPU build host).  Re-baselining is a deliberate edit here.
_BASELINE_SPEEDUP = 6.82
#: Fail when the measured end-to-end speedup drops below this fraction of
#: the baseline speedup (a >15 % regression).  Tighter than the
#: unconditional 3x floor whenever the committed speedup exceeds ~3.5x,
#: so the baseline-relative gate is the binding check at the committed
#: operating point rather than dead weight behind the absolute floor.
_REGRESSION_FLOOR = 0.85
_POLICIES = ("earthplus", "kodan", "satroi")


def _timed(fn, repeats: int = 3) -> float:
    fn()  # warm allocator/caches out of the measurement
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def _snapshot(result) -> dict:
    return {
        "downlink": result.downlink_bytes,
        "uplink": result.uplink_bytes,
        "skipped": result.updates_skipped,
        "ref_storage": result.reference_storage_bytes,
        "cap_storage": result.captured_storage_bytes,
        "stats": dict(result.uplink_stats),
        "records": [
            (r.location, r.satellite_id, r.t_days, r.dropped, r.guaranteed,
             r.psnr, r.downloaded_fraction, r.bytes_downlinked)
            for r in result.records
        ],
    }


def _identical(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_identical(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_identical(a[k], b[k]) for k in a)
    return a == b


def _clear_warm_state(dataset) -> None:
    """Reset the warm-state caches so the fast sweep starts cold."""
    for sensor in dataset.sensors.values():
        sensor._capture_cache.clear()
        sensor._capture_cache_bytes = 0
    for model in dataset.earth_models.values():
        model._surface_cache.clear()
        model._block_cache.clear()
        model._snow_texture_cache.clear()
        for changes in model._change_models.values():
            changes._jumps.clear()
    dataset.schedule.invalidate_order()


def _dwt_timings(rng) -> dict[str, float]:
    tile = rng.random((64, 64))
    stack = rng.random((10, 64, 64))

    def roundtrip():
        inverse_dwt2d(forward_dwt2d(tile, 3, Wavelet.CDF97))

    with reference_path():
        reference = _timed(roundtrip, repeats=20)
    fused = _timed(roundtrip, repeats=20)
    batched = _timed(
        lambda: dwt_many(stack, 3, Wavelet.CDF97), repeats=20
    ) / stack.shape[0]
    return {
        "dwt_reference": reference,
        "dwt_fused": fused,
        "dwt_batched_per_image": batched,
    }


def _ratemodel_timings(rng) -> dict[str, float]:
    model = RateModel(CodecConfig(tile_size=64))
    image = rng.random((192, 192))

    def search():
        model.find_step_for_bytes(
            image, 4000, tolerance=0.08, max_iterations=14
        )

    with reference_path():
        reference = _timed(search)
    fast = _timed(search)
    return {"ratemodel_reference": reference, "ratemodel_fast": fast}


def test_sim_fastpath_end_to_end(benchmark, emit, emit_json, bench_scale):
    # The full Figure-13 horizon at both scales: the reference path's
    # per-capture change-patch recomposition grows with horizon (the fast
    # path caches it), so a shorter horizon would understate the scenario
    # the claim is about.
    horizon = 365.0

    def experiment():
        dataset = sentinel2_dataset(
            locations=["B"], bands=["B4", "B11"], horizon_days=horizon,
            image_shape=(192, 192),
        )
        train_onboard_detector(dataset.bands, tile_size=64)
        train_ground_detector(dataset.bands)
        config = EarthPlusConfig(gamma_bpp=0.3)
        specs = [
            ScenarioSpec(policy=policy, dataset=dataset, config=config)
            for policy in _POLICIES
        ]
        # Best-of-3 per path: one scheduler hiccup must not trip the
        # regression gate.  Each fast round starts with cold warm-state
        # caches so the measured sweep is a fresh one.
        reference_seconds = math.inf
        fast_seconds = math.inf
        reference_results = fast_results = None
        for _ in range(3):
            with reference_path():
                start = time.perf_counter()
                reference_results = [
                    _snapshot(run_scenario(s)) for s in specs
                ]
                reference_seconds = min(
                    reference_seconds, time.perf_counter() - start
                )
            _clear_warm_state(dataset)
            start = time.perf_counter()
            fast_results = [_snapshot(run_scenario(s)) for s in specs]
            fast_seconds = min(fast_seconds, time.perf_counter() - start)
        rng = np.random.default_rng(0x51F)
        kernels = {**_dwt_timings(rng), **_ratemodel_timings(rng)}
        return (
            reference_seconds, fast_seconds,
            reference_results, fast_results, kernels,
        )

    ref_s, fast_s, ref_results, fast_results, kernels = run_once(
        benchmark, experiment
    )
    speedup = ref_s / fast_s
    dwt_speedup = kernels["dwt_reference"] / kernels["dwt_batched_per_image"]
    rm_speedup = kernels["ratemodel_reference"] / kernels["ratemodel_fast"]
    rows = [
        ["end-to-end reference (3 policies)", f"{ref_s:.2f} s", ""],
        ["end-to-end fast path (3 policies)", f"{fast_s:.2f} s",
         f"{speedup:.2f}x"],
        ["dwt 64x64 roundtrip (reference loops)",
         f"{kernels['dwt_reference'] * 1e3:.3f} ms", ""],
        ["dwt 64x64 roundtrip (fused kernel)",
         f"{kernels['dwt_fused'] * 1e3:.3f} ms",
         f"{kernels['dwt_reference'] / kernels['dwt_fused']:.2f}x"],
        ["dwt 64x64 forward, batched x10 (per image)",
         f"{kernels['dwt_batched_per_image'] * 1e3:.3f} ms",
         f"{dwt_speedup:.2f}x"],
        ["rate search 192x192 (reference)",
         f"{kernels['ratemodel_reference'] * 1e3:.1f} ms", ""],
        ["rate search 192x192 (batched)",
         f"{kernels['ratemodel_fast'] * 1e3:.1f} ms", f"{rm_speedup:.2f}x"],
    ]
    emit(
        "fig13_runtime",
        format_table(
            ["kernel", "time", "speedup"],
            rows,
            title=f"Simulation fast path on the Figure-13 scenario "
            f"({horizon:.0f} days, byte-identical metrics)",
        )
        + "\n"
        + f"\nend_to_end_speedup: {speedup:.2f}"
        + f"\nratemodel_speedup: {rm_speedup:.2f}"
        + f"\ndwt_batched_speedup: {dwt_speedup:.2f}",
    )
    emit_json(
        "fig13",
        {
            "horizon_days": horizon,
            "policies": list(_POLICIES),
            "reference_seconds": ref_s,
            "fast_seconds": fast_s,
            "end_to_end_speedup": speedup,
            "kernel_seconds": kernels,
            "ratemodel_speedup": rm_speedup,
            "dwt_batched_speedup": dwt_speedup,
            "committed_baseline_speedup": _BASELINE_SPEEDUP,
        },
    )
    # The fast path is a pure performance change: byte-identical metrics.
    assert _identical(ref_results, fast_results), (
        "fast-path RunResult diverged from the reference path"
    )
    # Acceptance floor: the tentpole claims >= 3x end-to-end.
    assert speedup >= 3.0, f"end-to-end speedup {speedup:.2f}x < 3x"
    assert speedup >= _REGRESSION_FLOOR * _BASELINE_SPEEDUP, (
        f"end-to-end speedup {speedup:.2f}x regressed more than 15% "
        f"vs baseline {_BASELINE_SPEEDUP:.2f}x"
    )
