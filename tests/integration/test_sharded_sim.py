"""Differential tests: sharded execution is byte-identical to sequential.

The sharded runner's whole contract is that the shard count is engine
configuration, not semantics: for any scenario with epoch-synchronized
ground state, `run_scenario_sharded(spec, shards=N)` must produce a
`RunResult` whose pickle bytes equal the sequential run's.  These tests
exercise the two figure archetypes the paper's results hang off —
the Figure-13-style Sentinel-2 timeseries and the Figure-20-style
contact-limited, fluctuating downlink with quality layers — plus the
failure and store-interaction edges.
"""

import pickle

import pytest

from repro.analysis.scenarios import (
    DatasetSpec,
    ScenarioSpec,
    build_simulator,
    run_scenario,
    run_scenario_sharded,
    run_scenarios,
)
from repro.core.accounting import RunResult
from repro.core.config import EarthPlusConfig
from repro.core.sharding import canonical_ingests, canonical_marks
from repro.errors import ConfigError, ScenarioError
from repro.orbit.links import FluctuationModel
from repro.store.backend import ExperimentStore
from repro.store.runner import run_scenario_cached

FIG13_DATASET = DatasetSpec.of(
    "sentinel2",
    locations=["A", "B"],
    bands=["B4", "B11"],
    n_satellites=4,
    image_shape=(64, 64),
    horizon_days=24.0,
    seed=3,
)

FIG13_SPEC = ScenarioSpec(
    policy="earthplus",
    dataset=FIG13_DATASET,
    config=EarthPlusConfig(gamma_bpp=0.3, ground_sync_days=2.0),
    seed=1,
)

#: Figure-20 archetype: layered encoding against a downlink small enough
#: to shed layers and defer captures, with both links fluctuating.
FIG20_SPEC = ScenarioSpec(
    policy="earthplus",
    dataset=FIG13_DATASET,
    config=EarthPlusConfig(
        gamma_bpp=0.3, n_quality_layers=3, ground_sync_days=2.0
    ),
    downlink_bytes_per_contact=10,
    fluctuation=FluctuationModel(seed=5, severity=0.4),
    downlink_severity=0.6,
    seed=1,
)


class TestShardedEqualsSequential:
    @pytest.mark.parametrize(
        "spec", [FIG13_SPEC, FIG20_SPEC], ids=["fig13", "fig20"]
    )
    def test_byte_identical_across_shard_counts(self, spec):
        sequential = pickle.dumps(run_scenario(spec))
        for shards in (2, 4):
            sharded = run_scenario_sharded(spec, shards=shards)
            assert pickle.dumps(sharded) == sequential, (
                f"shards={shards} diverged from sequential"
            )

    @pytest.mark.parametrize(
        "spec", [FIG13_SPEC, FIG20_SPEC], ids=["fig13", "fig20"]
    )
    def test_shard_loops_stepped_in_one_process(self, spec):
        # The epoch protocol without processes: stepping both shards'
        # loops in one process, epoch by epoch, answering each barrier
        # with the driver's merge, still equals the sequential run.
        buckets = spec.dataset.build().schedule.partition_satellites(2)
        loops = [build_simulator(spec).run_synced(b) for b in buckets]
        posted = [next(loop) for loop in loops]
        partials: list = []
        while not partials:
            merged = (
                canonical_ingests([e for _, shard, _ in posted for e in shard]),
                canonical_marks([m for _, _, shard in posted for m in shard]),
            )
            posted = []
            for loop in loops:
                try:
                    posted.append(loop.send(merged))
                except StopIteration as done:
                    partials.append(done.value)
        assert len(partials) == len(loops)
        result = RunResult.identity()
        for partial in partials:
            result = result.merge(partial)
        assert pickle.dumps(result) == pickle.dumps(run_scenario(spec))

    def test_downlink_pressure_is_actually_engaged(self):
        # Guard the fig20 archetype against rotting into an
        # unconstrained run where the downlink phase is a no-op.
        result = run_scenario(FIG20_SPEC)
        stats = result.downlink_stats
        assert (
            stats["layers_shed"]
            + stats["captures_deferred"]
            + stats["captures_dropped"]
        ) > 0, stats

    def test_more_shards_than_satellites(self):
        # 8 shards over 4 satellites: empty buckets drop, the rest run.
        sequential = pickle.dumps(run_scenario(FIG13_SPEC))
        sharded = run_scenario_sharded(FIG13_SPEC, shards=8)
        assert pickle.dumps(sharded) == sequential

    def test_batch_routing_matches(self):
        specs = [FIG13_SPEC, FIG20_SPEC]
        sequential = run_scenarios(specs)
        sharded = run_scenarios(specs, shards=2)
        for a, b in zip(sequential, sharded):
            assert pickle.dumps(a) == pickle.dumps(b)


class TestShardingGuards:
    def test_requires_sync_cadence(self):
        spec = ScenarioSpec(
            policy="earthplus",
            dataset=FIG13_DATASET,
            config=EarthPlusConfig(gamma_bpp=0.3),
            seed=1,
        )
        with pytest.raises(ConfigError, match="ground_sync_days"):
            run_scenario_sharded(spec, shards=2)

    def test_epoch_loop_requires_sync_cadence(self):
        spec = ScenarioSpec(
            policy="earthplus",
            dataset=FIG13_DATASET,
            config=EarthPlusConfig(gamma_bpp=0.3),
            seed=1,
        )
        with pytest.raises(ConfigError, match="ground_sync_days"):
            next(build_simulator(spec).run_synced([0]))

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigError, match="shards"):
            run_scenario_sharded(FIG13_SPEC, shards=0)

    def test_single_shard_is_sequential(self):
        assert pickle.dumps(
            run_scenario_sharded(FIG13_SPEC, shards=1)
        ) == pickle.dumps(run_scenario(FIG13_SPEC))

    def test_joint_axes_compose(self):
        # The axes used to be mutually exclusive; the sweep scheduler
        # runs both over one pool (two specs on four workers: two 2-shard
        # gangs), byte-identically to sequential.
        sequential = run_scenarios([FIG13_SPEC, FIG20_SPEC])
        joint = run_scenarios(
            [FIG13_SPEC, FIG20_SPEC], max_workers=4, shards=2
        )
        for a, b in zip(sequential, joint):
            assert pickle.dumps(a) == pickle.dumps(b)

    def test_worker_failure_names_the_shard(self):
        broken = ScenarioSpec(
            policy="earthplus",
            dataset=DatasetSpec.of(
                "sentinel2",
                locations=["A"],
                bands=["B4"],
                n_satellites=2,
                image_shape=(64, 64),
                horizon_days=10.0,
                seed=3,
            ),
            config=EarthPlusConfig(gamma_bpp=0.3, ground_sync_days=2.0),
            uplink_bytes_per_contact=-1,  # rejected inside the worker
            seed=1,
            label="broken-uplink",
        )
        # Which shard's failure lands first is racy under the shared
        # result queue; attribution must name the label and *a* shard.
        with pytest.raises(
            ScenarioError, match=r"'broken-uplink'.*shard \d+ of 2"
        ):
            run_scenario_sharded(broken, shards=2)


class TestShardStoreInteraction:
    def test_shard_count_never_enters_the_key(self, tmp_path):
        # A sharded run persists bytes a sequential run hits verbatim —
        # and the reverse — because the content key is a pure function
        # of the spec.
        store = ExperimentStore(tmp_path)
        sharded = run_scenario_cached(FIG13_SPEC, store=store, shards=4)
        assert store.stats()["entries"] == 1
        sequential_hit = run_scenario_cached(FIG13_SPEC, store=store)
        assert store.stats()["entries"] == 1
        assert pickle.dumps(sharded) == pickle.dumps(sequential_hit)
