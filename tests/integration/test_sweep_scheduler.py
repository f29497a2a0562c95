"""Differential tests for the unified sweep scheduler.

The scheduler's contract extends the sharded runner's: scheduling
topology (pool size, shards per scenario, which worker runs what, in
what order) is engine configuration, never semantics.  A joint
``workers=N, shards=M`` sweep over one persistent pool must be
pickle-byte-identical to running every spec sequentially — and to the
per-scenario sharded runner — on both figure archetypes.  Failure
attribution must survive the move from per-scenario pipes to the shared
pool: a crashing task still names its scenario label (and shard index),
and a *dying worker process* is detected and attributed rather than
hanging the sweep.  Scheduling telemetry is the global ``sched.*``
counters, and no sweep — successful, failed, or with a dead worker —
may leave a child process behind.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import time

import pytest

from repro.analysis import scenarios
from repro.analysis.scenarios import (
    DatasetSpec,
    ScenarioSpec,
    run_scenario,
    run_scenario_sharded,
    run_scenarios,
)
from repro.analysis.scheduler import SweepScheduler
from repro.core.config import EarthPlusConfig
from repro.errors import ConfigError, ScenarioError
from repro.obs import metrics
from repro.orbit.links import FluctuationModel

from test_sharded_sim import FIG13_DATASET, FIG13_SPEC, FIG20_SPEC

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-death injection relies on fork inheriting monkeypatches",
)

#: A small mixed sweep: both figure archetypes plus policy/seed variants
#: over the same dataset — enough shape for gangs and singles to
#: interleave on one pool.
SWEEP_SPECS = [
    FIG13_SPEC,
    FIG20_SPEC,
    ScenarioSpec(
        policy="naive",
        dataset=FIG13_DATASET,
        config=EarthPlusConfig(gamma_bpp=0.3, ground_sync_days=2.0),
        seed=1,
    ),
    ScenarioSpec(
        policy="earthplus",
        dataset=FIG13_DATASET,
        config=EarthPlusConfig(gamma_bpp=0.3, ground_sync_days=2.0),
        seed=2,
    ),
]


@contextlib.contextmanager
def _sched_counters():
    """Collect the ``sched.*`` counters a block bumps, even if it raises."""
    baseline = metrics.counters().snapshot()
    delta: dict = {}
    try:
        yield delta
    finally:
        delta.update(
            (name, value)
            for name, value in metrics.counters().diff(baseline).values.items()
            if name.startswith("sched.")
        )


@contextlib.contextmanager
def _no_surviving_children():
    """Assert the block leaves no child process alive."""
    before = set(multiprocessing.active_children())
    yield
    survivors = set(multiprocessing.active_children()) - before
    assert not survivors, f"child processes outlived the sweep: {survivors}"


def _broken_spec(label="broken-uplink", sync_days=2.0) -> ScenarioSpec:
    return ScenarioSpec(
        policy="earthplus",
        dataset=FIG13_DATASET,
        config=EarthPlusConfig(gamma_bpp=0.3, ground_sync_days=sync_days),
        uplink_bytes_per_contact=-1,  # rejected inside the worker
        seed=1,
        label=label,
    )


class TestJointModeByteIdentity:
    def test_joint_equals_sequential_and_sharded(self):
        sequential = [
            pickle.dumps(run_scenario(spec)) for spec in SWEEP_SPECS
        ]
        joint = run_scenarios(SWEEP_SPECS, max_workers=3, shards=2)
        for index, result in enumerate(joint):
            assert pickle.dumps(result) == sequential[index], (
                f"joint mode diverged from sequential on spec {index}"
            )
        # PR 6 per-scenario sharded mode remains a third identical route.
        for index, spec in enumerate(SWEEP_SPECS):
            sharded = run_scenario_sharded(spec, shards=2)
            assert pickle.dumps(sharded) == sequential[index], (
                f"sharded mode diverged from sequential on spec {index}"
            )

    def test_constrained_fluctuating_downlink_archetype(self):
        # The fig20 archetype (layer shedding + fluctuating links) is the
        # scenario most sensitive to merge-order drift; pin it alone.
        sequential = pickle.dumps(run_scenario(FIG20_SPEC))
        joint = run_scenarios([FIG20_SPEC], max_workers=2, shards=2)
        assert pickle.dumps(joint[0]) == sequential

    def test_pool_larger_than_work(self):
        # More workers than tasks: the pool is sized to the plan (one
        # gang of 3), never to idle workers; bytes unchanged.
        sequential = pickle.dumps(run_scenario(FIG13_SPEC))
        with _sched_counters() as sched:
            joint = run_scenarios([FIG13_SPEC], max_workers=6, shards=3)
        assert pickle.dumps(joint[0]) == sequential
        assert sched["sched.spawns"] == 3

    def test_workers_only_mode_streams_results(self):
        landed: list[int] = []
        sequential = [pickle.dumps(run_scenario(s)) for s in SWEEP_SPECS[:3]]
        joint = run_scenarios(
            SWEEP_SPECS[:3],
            max_workers=2,
            on_result=lambda index, spec, result: landed.append(index),
        )
        assert sorted(landed) == [0, 1, 2]
        for index, result in enumerate(joint):
            assert pickle.dumps(result) == sequential[index]


class TestSchedulerCounters:
    def test_one_spawn_set_per_sweep(self):
        with _no_surviving_children(), _sched_counters() as sched:
            run_scenarios(SWEEP_SPECS, max_workers=2, shards=2)
        # The headline invariant: workers spawn once per sweep, not once
        # per scenario x shard (which would be len(SWEEP_SPECS) * 2).
        assert sched["sched.spawns"] == 2
        assert sched["sched.shard_tasks"] == 2 * len(SWEEP_SPECS)
        assert "sched.spec_tasks" not in sched
        assert sched["sched.tasks_run"] == sched["sched.shard_tasks"]
        assert sched["sched.worker_cpu_s"] > 0.0

    def test_workers_only_counts_spec_tasks(self):
        with _sched_counters() as sched:
            run_scenarios(SWEEP_SPECS[:2], max_workers=2)
        assert sched["sched.spawns"] == 2
        assert sched["sched.spec_tasks"] == 2
        assert "sched.shard_tasks" not in sched

    def test_in_process_sweeps_spawn_nothing(self):
        with _sched_counters() as sched:
            run_scenarios([FIG13_SPEC])
        assert "sched.spawns" not in sched
        # The in-process path is the scheduler's too: its task counts.
        assert sched["sched.tasks_run"] == 1
        assert sched["sched.spec_tasks"] == 1

    def test_failed_sweep_keeps_its_counters(self):
        # Counters are bumped as events happen, so a sweep that raises
        # still reports the workers it spawned and the tasks it started.
        with _sched_counters() as sched, pytest.raises(ScenarioError):
            run_scenarios([FIG13_SPEC, _broken_spec()], max_workers=2)
        assert sched["sched.spawns"] == 2
        assert sched["sched.tasks_run"] >= 1


class TestFailureAttribution:
    def test_shard_crash_names_label_and_shard(self):
        with pytest.raises(
            ScenarioError, match=r"'broken-uplink'.*shard \d+ of 2"
        ):
            run_scenarios(
                [FIG13_SPEC, _broken_spec()], max_workers=2, shards=2
            )

    def test_spec_crash_names_label(self):
        with _no_surviving_children():
            with pytest.raises(ScenarioError, match=r"'broken-uplink'"):
                run_scenarios([FIG13_SPEC, _broken_spec()], max_workers=2)

    def test_sharding_without_sync_cadence_is_config_error(self):
        no_sync = ScenarioSpec(
            policy="earthplus",
            dataset=FIG13_DATASET,
            config=EarthPlusConfig(gamma_bpp=0.3),
            seed=1,
        )
        with pytest.raises(ConfigError, match="ground_sync_days"):
            run_scenarios([no_sync], max_workers=2, shards=2)

    @fork_only
    def test_worker_death_is_detected_and_attributed(self, monkeypatch):
        # Fork inherits the patch: every worker that picks up a spec task
        # dies mid-run without reporting.  The driver must notice the
        # dead process and name the scenario it was running — not hang.
        def die(spec):
            time.sleep(0.3)  # let the start-ack drain to the driver
            os._exit(3)

        monkeypatch.setattr(scenarios, "run_scenario", die)
        with _no_surviving_children():
            with pytest.raises(ScenarioError, match="died without a result"):
                run_scenarios(SWEEP_SPECS[:2], max_workers=2)


class TestSchedulerDirect:
    def test_rejects_bad_pool_sizes(self):
        with pytest.raises(ConfigError, match="workers"):
            SweepScheduler(workers=0)
        with pytest.raises(ConfigError, match="shards_per_scenario"):
            SweepScheduler(workers=2, shards_per_scenario=0)

    def test_empty_sweep(self):
        with _sched_counters() as sched:
            results = SweepScheduler(workers=2).run([])
        assert results == []
        assert "sched.tasks_run" not in sched

    @pytest.mark.parametrize("workers", [1, 4])
    def test_single_task_plans_run_inline(self, workers):
        # One worker, or one unsharded spec on a bigger pool: no pool.
        with _sched_counters() as sched:
            results = SweepScheduler(workers=workers).run([FIG13_SPEC])
        assert "sched.spawns" not in sched
        assert pickle.dumps(results[0]) == pickle.dumps(
            run_scenario(FIG13_SPEC)
        )


class TestDatasetThreading:
    def test_single_bucket_fallback_builds_once(self, monkeypatch):
        # One satellite -> the partition collapses and the sharded entry
        # point falls back to a whole run; the dataset built for
        # partitioning must thread through instead of building again.
        one_sat = DatasetSpec.of(
            "sentinel2",
            locations=["A"],
            bands=["B4"],
            n_satellites=1,
            image_shape=(64, 64),
            horizon_days=10.0,
            seed=3,
        )
        spec = ScenarioSpec(
            policy="earthplus",
            dataset=one_sat,
            config=EarthPlusConfig(gamma_bpp=0.3, ground_sync_days=2.0),
            seed=1,
        )
        sequential = pickle.dumps(run_scenario(spec))
        calls: list[DatasetSpec] = []
        original = DatasetSpec.build

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(DatasetSpec, "build", counting)
        result = run_scenario_sharded(spec, shards=4)
        assert pickle.dumps(result) == sequential
        assert len(calls) == 1, (
            "fallback rebuilt the dataset instead of reusing the built copy"
        )


class TestBarrierOverlap:
    def test_gangs_and_singles_share_one_pool(self):
        # A shard gang (epoch barriers) and independent spec tasks in one
        # sweep on a pool big enough to run them concurrently: the
        # barrier must only synchronize the gang, never the whole pool,
        # and all results stay byte-identical.
        specs = [
            FIG13_SPEC,
            ScenarioSpec(
                policy="naive",
                dataset=FIG13_DATASET,
                config=EarthPlusConfig(gamma_bpp=0.3),  # not shardable...
                seed=5,
            ),
        ]
        # ...but shards only apply to epoch-synchronized specs when
        # requested per-scenario; request workers-only plus a directly
        # scheduled mixed plan instead.
        scheduler = SweepScheduler(workers=3, shards_per_scenario=2)
        with pytest.raises(ConfigError):
            # A non-synchronized spec cannot ride a sharded sweep; the
            # guard fires at plan time, before any worker spawns.
            scheduler.run(specs)
        sync_specs = [FIG13_SPEC, SWEEP_SPECS[2]]
        with _sched_counters() as sched:
            results = SweepScheduler(
                workers=3, shards_per_scenario=2
            ).run(sync_specs)
        assert sched["sched.shard_tasks"] == 4
        for spec, result in zip(sync_specs, results):
            assert pickle.dumps(result) == pickle.dumps(run_scenario(spec))
