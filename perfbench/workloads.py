"""The benchmark's three workloads, built from a workload seed.

Each workload is a list of :class:`repro.analysis.scenarios.ScenarioSpec`
handed to the public sweep entry point
:func:`repro.store.runner.run_scenarios_cached`; the program receives only
these specs.  The workloads are chosen so that each layer does most of its
work in one workload and little or none in another:

* ``timeseries`` - the fig13 scenario (Sentinel-2 location B, the four
  RGB+NIR bands at 256x256, three policies) run in-process with no pool,
  no store and no codec engine.  Each policy scans ~32 captures of ~2.6 MB,
  more than the 64 MB per-sensor capture cache holds, so every capture is
  synthesized: imagery, the rate model and the DWT dominate.
* ``constellation`` - a fig21-style sweep (Planet constellations of 4 and
  32 satellites at two gammas, 96x96, 45 days, ``ground_sync_days`` 3)
  with every spec split into a 2-shard gang on a 2-worker pool: spawn,
  epoch barriers, the driver's journal merge and the shard-partial merge.
* ``ladder`` - the fig20 downlink ladder on the compiled codec engine
  (3 quality layers, five per-contact budgets) as plain spec tasks on 2
  workers through a fresh on-disk store: a cold pass simulates and
  writes, a warm pass reads everything back.  The codec engine, downlink
  shedding and the store do their work here and nowhere else.

The seed drives every spec's ground-segment seed.  Datasets stay at the
figures' own seeds: a dataset seed moves the visit schedule and the cloud
cover, and with them the work of a run by about 10 %, which would swamp
the benchmark's bounds.  At the Table-1 uplink budget no update is ever
skipped, so the ground seed changes no result byte either: every seed
runs the same work, and a seed other than the default is checked against
a sequential run of the same specs rather than the committed digests.

This module imports ``repro`` only inside functions, so the orchestrator
can load it without the program on its path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

#: Digests of every scenario's result at each workload's default seed.
DIGESTS_PATH = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class Workload:
    """How one workload calls the sweep entry point.

    Attributes:
        name: Workload name (``--workload``).
        default_seed: Seed whose result digests are committed.
        workers: ``max_workers`` of the sweep call (1 = in-process).
        shards: ``shards`` of the sweep call.
        store: Whether the sweep runs through a fresh on-disk store,
            cold then warm.
    """

    name: str
    default_seed: int
    workers: int
    shards: int
    store: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("timeseries", default_seed=0, workers=1, shards=1, store=False),
        Workload("constellation", default_seed=19, workers=2, shards=2, store=False),
        Workload("ladder", default_seed=0, workers=2, shards=1, store=True),
    )
}


def build_specs(name: str, seed: int) -> list:
    """The workload's scenario specs for ``seed`` (labels are unique)."""
    from repro.analysis.scenarios import (
        DEFAULT_DOWNLINK_BYTES_PER_CONTACT,
        DatasetSpec,
        ScenarioSpec,
    )
    from repro.core.config import EarthPlusConfig

    if name == "timeseries":
        dataset = DatasetSpec.of(
            "sentinel2",
            locations=["B"],
            bands=["B2", "B3", "B4", "B8"],
            horizon_days=180.0,
            image_shape=(256, 256),
        )
        config = EarthPlusConfig(gamma_bpp=0.3)
        return [
            ScenarioSpec(
                policy=policy,
                dataset=dataset,
                config=config,
                seed=seed,
                label=f"{policy}/s{seed}",
            )
            for policy in ("earthplus", "kodan", "satroi")
        ]
    if name == "constellation":
        return [
            ScenarioSpec(
                policy="earthplus",
                dataset=DatasetSpec.of(
                    "planet",
                    n_satellites=size,
                    image_shape=(96, 96),
                    horizon_days=45.0,
                    seed=19,
                ),
                config=EarthPlusConfig(gamma_bpp=gamma, ground_sync_days=3.0),
                seed=seed,
                label=f"n{size}/g{gamma:g}/s{seed}",
            )
            for size in (4, 32)
            for gamma in (0.2, 0.3)
        ]
    if name == "ladder":
        dataset = DatasetSpec.of(
            "sentinel2",
            locations=["A"],
            bands=["B4", "B11"],
            horizon_days=45.0,
            image_shape=(192, 192),
        )
        config = EarthPlusConfig(
            gamma_bpp=0.3, n_quality_layers=3, codec_backend="real"
        )
        return [
            ScenarioSpec(
                policy="earthplus",
                dataset=dataset,
                config=config,
                downlink_bytes_per_contact=budget,
                seed=seed,
                label=f"dl{budget}/s{seed}",
            )
            for budget in (DEFAULT_DOWNLINK_BYTES_PER_CONTACT, 500, 120, 60, 25)
        ]
    raise ValueError(f"unknown workload {name!r}")


def set_up(specs: list) -> dict:
    """Build every dataset and detector the specs name; seconds per step.

    Forked pool workers inherit all of it, so a sweep afterwards pays no
    dataset or detector cost.
    """
    import time

    from repro.codec import registry
    from repro.core.cloud import train_ground_detector, train_onboard_detector
    from repro.core.config import EarthPlusConfig

    started = time.perf_counter()
    built = {spec.dataset: spec.dataset.build() for spec in specs}
    datasets_done = time.perf_counter()
    for spec in specs:
        config = spec.config if spec.config is not None else EarthPlusConfig()
        bands = built[spec.dataset].bands
        train_onboard_detector(bands, tile_size=config.tile_size)
        train_ground_detector(bands)
    detectors_done = time.perf_counter()
    registry.kernels()
    kernels_done = time.perf_counter()
    return {
        "dataset_s": datasets_done - started,
        "detectors_s": detectors_done - datasets_done,
        "kernels_s": kernels_done - detectors_done,
    }


def run(name: str, specs: list, store_dir: str | None = None) -> list:
    """Run the workload's sweep; one result list per pass (cold, warm)."""
    from repro.store.runner import run_scenarios_cached

    workload = WORKLOADS[name]
    if not workload.store:
        sweep = run_scenarios_cached(
            specs, max_workers=workload.workers, shards=workload.shards, store=None
        )
        return [sweep.results]
    from repro.store.backend import ExperimentStore

    with ExperimentStore(store_dir) as store:
        return [
            run_scenarios_cached(
                specs,
                max_workers=workload.workers,
                shards=workload.shards,
                store=store,
            ).results
            for _ in ("cold", "warm")
        ]


def run_sequential(specs: list) -> list:
    """The in-process sequential reference: ``run_scenario`` per spec."""
    from repro.analysis.scenarios import run_scenario

    return [run_scenario(spec) for spec in specs]


def digest(result) -> str:
    """SHA-256 over a ``RunResult``'s public fields.

    Covers every record's bytes, PSNR, dropped/guaranteed flags and
    layers shed, plus the run's uplink and downlink byte totals and stats.
    Floats enter through ``repr`` so the digest is exact.
    """
    document = {
        "records": [
            [
                record.location,
                int(record.satellite_id),
                repr(float(record.t_days)),
                int(record.bytes_downlinked),
                sorted((band, int(n)) for band, n in record.band_bytes.items()),
                repr(float(record.psnr)),
                sorted(
                    (band, repr(float(value)))
                    for band, value in record.band_psnr.items()
                ),
                bool(record.dropped),
                bool(record.guaranteed),
                int(record.layers_shed),
            ]
            for record in result.records
        ],
        "uplink_bytes": int(result.uplink_bytes),
        "downlink_bytes": int(result.downlink_bytes),
        "uplink_stats": sorted(result.uplink_stats.items()),
        "downlink_stats": sorted(result.downlink_stats.items()),
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def committed_digests(name: str, seed: int) -> dict | None:
    """The committed ``{label: digest}`` for ``seed``, if it is the default."""
    if seed != WORKLOADS[name].default_seed or not DIGESTS_PATH.is_file():
        return None
    return json.loads(DIGESTS_PATH.read_text()).get(name)
