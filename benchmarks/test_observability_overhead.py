"""Disabled-telemetry overhead gate on the Figure-13 kernel scenario.

The telemetry plane's contract (see ``repro.obs``) is that hot kernels
stay instrumented *unconditionally* because the disabled path —
``span()`` returning a shared no-op after one module-attribute read —
is nearly free.  This bench holds that claim to a number: a full
Figure-13-style scenario with the shipped (disabled) instrumentation
must run within 3% of the same scenario with every ``span`` call site
stubbed down to a bare null context manager.

Rounds are interleaved (normal, stripped, normal, stripped, ...) and
compared by median so cache warm-up, CPU-frequency drift, and one-off
scheduler hiccups hit both variants equally.  A small absolute slack
keeps the ratio gate meaningful when the scenario runs fast enough for
timer noise to dominate a 3% margin.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import RESULTS_DIR, run_once  # noqa: F401  (results dir hook)

from repro.analysis.scenarios import ScenarioSpec, run_scenario
from repro.analysis.tables import format_table
from repro.core.cloud import train_ground_detector, train_onboard_detector
from repro.core.config import EarthPlusConfig
from repro.datasets.sentinel2 import sentinel2_dataset
from repro.obs import trace

#: Maximum tolerated disabled-instrumentation overhead.
_MAX_OVERHEAD = 0.03

#: Absolute slack (seconds) so timer noise cannot fail a passing ratio.
_ABS_SLACK_S = 0.05

_ROUNDS = 5


class _NullCM:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullCM()


def _strip_instrumentation(monkeypatch) -> None:
    """Replace every telemetry entry point with a raw no-op.

    This is the "instrumentation never existed" baseline: call sites
    still call *something* (removing the calls themselves would measure
    a program nobody ships), but that something skips even the disabled
    fast path's attribute reads.
    """
    monkeypatch.setattr(trace, "span", lambda name, **attrs: _NULL)
    monkeypatch.setattr(trace, "set_context", lambda **attrs: None)
    monkeypatch.setattr(trace, "clear_context", lambda *names: None)


def test_disabled_telemetry_overhead(benchmark, emit, emit_json, monkeypatch):
    assert trace.active_tracer() is None

    dataset = sentinel2_dataset(
        locations=["B"],
        bands=["B4", "B11"],
        horizon_days=90.0,
        image_shape=(192, 192),
    )
    train_onboard_detector(dataset.bands, tile_size=64)
    train_ground_detector(dataset.bands)
    spec = ScenarioSpec(
        policy="earthplus",
        dataset=dataset,
        config=EarthPlusConfig(gamma_bpp=0.3),
    )

    def timed_run() -> float:
        start = time.perf_counter()
        run_scenario(spec)
        return time.perf_counter() - start

    def experiment():
        run_scenario(spec)  # warm detectors, caches, allocator
        normal, stripped = [], []
        for _ in range(_ROUNDS):
            normal.append(timed_run())
            with monkeypatch.context() as patch:
                _strip_instrumentation(patch)
                stripped.append(timed_run())
        return float(np.median(normal)), float(np.median(stripped))

    normal_s, stripped_s = run_once(benchmark, experiment)
    overhead = normal_s / stripped_s - 1.0
    emit(
        "observability_overhead",
        format_table(
            ["variant", "median", "overhead"],
            [
                ["instrumented, telemetry disabled", f"{normal_s:.3f} s",
                 f"{overhead * 100:+.2f}%"],
                ["instrumentation stripped", f"{stripped_s:.3f} s", ""],
            ],
            title=f"Disabled-telemetry overhead on the Figure-13 scenario "
            f"(median of {_ROUNDS} interleaved rounds, gate "
            f"<{_MAX_OVERHEAD * 100:.0f}%)",
        ),
    )
    emit_json(
        "observability",
        {
            "normal_seconds": normal_s,
            "stripped_seconds": stripped_s,
            "overhead_fraction": overhead,
            "max_overhead_fraction": _MAX_OVERHEAD,
            "rounds": _ROUNDS,
        },
    )
    assert normal_s <= stripped_s * (1.0 + _MAX_OVERHEAD) + _ABS_SLACK_S, (
        f"disabled telemetry costs {overhead * 100:.1f}% "
        f"({normal_s:.3f}s vs {stripped_s:.3f}s) — gate is "
        f"{_MAX_OVERHEAD * 100:.0f}%"
    )
