"""Shared fixtures: small bands, images, datasets, and trained detectors.

Session-scoped where construction is expensive (detector training, dataset
assembly) so the suite stays fast while exercising real components.
"""

from __future__ import annotations

import os
import shlex

import numpy as np
import pytest

# Keep the suite hermetic: never read or write the developer's real
# experiment store (~/.cache/repro) — a warm real store would serve
# stale cached results to simulation tests and mask regressions.  Store
# tests opt back in with explicit ExperimentStore instances / --store
# flags on tmp paths.  Unconditional on purpose: an exported
# REPRO_STORE must not leak in either.
os.environ["REPRO_STORE"] = "off"

from repro.core.config import EarthPlusConfig
from repro.core.tiles import TileGrid
from repro.datasets.planet import planet_dataset
from repro.datasets.sentinel2 import sentinel2_dataset
from repro.imagery.bands import get_band
from repro.imagery.earth_model import EarthModel, LocationSpec, TerrainClass
from repro.imagery.noise import fractal_noise


def pytest_addoption(parser):
    parser.addoption(
        "--kernel-cflags",
        default="",
        help="extra compiler flags for the compiled kernels, e.g. "
        "'-fsanitize=undefined -fno-sanitize-recover=all' for a sanitizer "
        "build (an ASan build also needs libasan in LD_PRELOAD); the flags "
        "are part of the kernel cache key",
    )


def pytest_configure(config):
    """Extend the kernel build flags before any test loads the kernels."""
    extra = shlex.split(config.getoption("--kernel-cflags"))
    if extra:
        from repro.codec import _ckernels

        _ckernels._CFLAGS = (*_ckernels._CFLAGS, *extra)
        _ckernels.load.cache_clear()


@pytest.fixture(scope="session")
def two_bands():
    """A visible + thermal-proxy band pair (enough for cloud features)."""
    return (get_band("B4"), get_band("B11"))


@pytest.fixture(scope="session")
def small_config():
    """Earth+ config sized for 128-256 px test images."""
    return EarthPlusConfig(tile_size=64, gamma_bpp=0.3)


@pytest.fixture(scope="session")
def test_image():
    """A deterministic 128x128 textured image in [0, 1]."""
    return fractal_noise((128, 128), seed=1234, octaves=5, base_cells=4)


@pytest.fixture(scope="session")
def small_grid():
    """Tile grid for 128x128 images with 64-px tiles."""
    return TileGrid((128, 128), 64)


@pytest.fixture(scope="session")
def small_earth(two_bands):
    """A small mixed-terrain Earth model."""
    spec = LocationSpec(
        name="testloc",
        shape=(128, 128),
        terrain_mix={
            TerrainClass.FOREST: 0.4,
            TerrainClass.AGRICULTURE: 0.4,
            TerrainClass.RIVER: 0.2,
        },
        seed=77,
    )
    return EarthModel(spec, two_bands)


@pytest.fixture(scope="session")
def tiny_sentinel_dataset():
    """One-location, two-band, 90-day Sentinel-2-like dataset."""
    return sentinel2_dataset(
        locations=["A"],
        bands=["B4", "B11"],
        horizon_days=90.0,
        image_shape=(128, 128),
    )


@pytest.fixture(scope="session")
def tiny_planet_dataset():
    """Eight-satellite, 45-day Planet-like dataset."""
    return planet_dataset(
        n_satellites=8, image_shape=(128, 128), horizon_days=45.0
    )


@pytest.fixture(scope="session")
def onboard_detector(two_bands):
    """Trained cheap on-board cloud detector (cached by the module)."""
    from repro.core.cloud import train_onboard_detector

    return train_onboard_detector(two_bands, tile_size=64)


@pytest.fixture(scope="session")
def ground_detector(two_bands):
    """Trained accurate ground cloud detector (cached by the module)."""
    from repro.core.cloud import train_ground_detector

    return train_ground_detector(two_bands)


@pytest.fixture()
def rng():
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(0xC0FFEE)


# ----------------------------------------------------------------------
# Experiment-store fixtures (tests/store/).  Defined here — not in a
# tests/store/conftest.py — because the benchmarks import *their*
# conftest by bare module name, which a second nested conftest would
# shadow.
# ----------------------------------------------------------------------

#: Smallest dataset that exercises real simulation paths.
_TINY_STORE_DATASET = None


def _tiny_store_dataset():
    global _TINY_STORE_DATASET
    if _TINY_STORE_DATASET is None:
        from repro.analysis.scenarios import DatasetSpec

        _TINY_STORE_DATASET = DatasetSpec.of(
            "sentinel2",
            locations=["A"],
            bands=["B4"],
            horizon_days=20.0,
            image_shape=(128, 128),
        )
    return _TINY_STORE_DATASET


@pytest.fixture(scope="session")
def tiny_dataset():
    """A tiny spec-named dataset for store round-trip tests."""
    return _tiny_store_dataset()


@pytest.fixture(scope="session")
def tiny_spec():
    """Factory for content-addressable scenarios on the tiny dataset."""
    from repro.analysis.scenarios import ScenarioSpec

    def factory(policy: str = "earthplus", seed: int = 0, **kwargs):
        return ScenarioSpec(
            policy=policy, dataset=_tiny_store_dataset(), seed=seed, **kwargs
        )

    return factory


@pytest.fixture(scope="session")
def result_factory():
    """Factory for synthetic (simulation-free) run results with the
    plain-scalar field types real simulations produce."""
    from repro.core.accounting import CaptureRecord, RunResult

    def factory(
        policy: str = "earthplus", n_records: int = 3, downlink: int = 1000
    ) -> RunResult:
        records = [
            CaptureRecord(
                location="A",
                satellite_id=i,
                t_days=float(i) * 2.5,
                dropped=(i % 3 == 2),
                guaranteed=(i == 0),
                cloud_coverage=0.125 * i,
                psnr=float("nan") if i % 3 == 2 else 30.0 + i,
                downloaded_fraction=0.25 * (i % 4),
                bytes_downlinked=100 * i,
                band_bytes={"B4": 60 * i, "B11": 40 * i},
                band_psnr={"B4": 31.5 + i, "B11": float("inf")},
                changed_fraction=0.1 * i,
                downlink_capacity_bytes=5000 + 100 * i,
                layers_shed=i % 2,
                downlink_deferred=(i % 3 == 2),
            )
            for i in range(n_records)
        ]
        return RunResult(
            policy=policy,
            records=records,
            downlink_bytes=downlink,
            uplink_bytes=321,
            updates_skipped=1,
            horizon_days=20.0,
            contacts_per_day=7,
            contact_duration_s=600.0,
            reference_storage_bytes=2048,
            captured_storage_bytes=512,
            uplink_stats={"updates_sent": 2, "full_update_bytes": 321},
            downlink_stats={
                "capacity_bytes": 5000 * n_records,
                "bytes_offered": downlink,
                "bytes_delivered": downlink,
                "layers_shed": n_records // 2,
                "captures_shed": min(1, n_records),
                "captures_deferred": 0,
                "captures_dropped": 0,
            },
            extra_metrics={},
        )

    return factory


@pytest.fixture()
def store(tmp_path):
    """A fresh experiment store in a per-test temp dir (unbounded)."""
    from repro.store.backend import ExperimentStore

    with ExperimentStore(tmp_path / "store", max_bytes=0x7FFFFFFF) as st:
        yield st


# ----------------------------------------------------------------------
# Lint fixtures (tests/lint/).  Defined here for the same reason as the
# store fixtures above: no nested conftest.py.
# ----------------------------------------------------------------------


@pytest.fixture
def lint_tree(tmp_path):
    """Factory: write ``{relpath: source}`` snippet files, lint the tree.

    Paths are relative to a temp root, so rule scoping by package
    directory works (``{"core/bad.py": ...}`` lands in RPR001 scope
    while ``{"obs/ok.py": ...}`` does not).  Returns the
    :class:`repro.lint.model.LintResult`.
    """
    from repro.lint import run_lint

    def _run(files, select=None, ignore=None):
        for relpath, source in files.items():
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source, encoding="utf-8")
        return run_lint(
            [tmp_path], select=select, ignore=ignore, project_root=tmp_path
        )

    return _run
