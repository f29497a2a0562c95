"""Differential tests for the unified sweep scheduler.

The scheduler's contract extends the sharded runner's: scheduling
topology (pool size, shards per scenario, which worker runs what, in
what order) is engine configuration, never semantics.  A joint
``workers=N, shards=M`` sweep over one persistent pool must be
pickle-byte-identical to running every spec sequentially — and to the
per-scenario sharded runner — on both figure archetypes.  The plan
shards only a sweep with fewer specs than workers, giving each spec
``min(shards, workers // len(specs))`` shard tasks.  Failure
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
from repro.core.system import ConstellationSimulator
from repro.errors import ConfigError, ScenarioError
from repro.obs import metrics, trace
from repro.orbit.links import FluctuationModel

from test_sharded_sim import FIG13_DATASET, FIG13_SPEC, FIG20_SPEC

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-death injection relies on fork inheriting monkeypatches",
)

#: A small sweep: both figure archetypes plus policy/seed variants over
#: the same dataset, every one epoch-synchronized so it can shard.
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


#: Three gammas over one 4-satellite Planet dataset.
PLANET_DATASET = DatasetSpec.of(
    "planet",
    n_satellites=4,
    image_shape=(48, 48),
    horizon_days=12.0,
    seed=19,
)
PLANET_SPECS = [
    ScenarioSpec(
        policy="earthplus",
        dataset=PLANET_DATASET,
        config=EarthPlusConfig(gamma_bpp=gamma, ground_sync_days=3.0),
        seed=1,
        label=f"g{gamma:g}",
    )
    for gamma in (0.2, 0.3, 0.4)
]


def _traced_run(scheduler: SweepScheduler, specs, **kwargs):
    """Run a sweep under a tracer; its results and every recorded span."""
    tracer = trace.enable_tracer()
    try:
        results = scheduler.run(specs, **kwargs)
    finally:
        trace.disable_tracer()
    return results, tracer.spans()


def _task_workers(scheduler: SweepScheduler, specs, kind: str) -> dict:
    """Run a traced sweep; the workers its ``kind`` spans ran on, by shard.

    Spec-task spans carry no shard, so they collect under ``None``.
    """
    _results, spans = _traced_run(scheduler, specs)
    placement: dict = {}
    for name, _begin, _end, attrs in spans:
        if name == kind:
            placement.setdefault(attrs.get("shard"), set()).add(attrs["worker"])
    return placement


def _worker_tracks(spans) -> dict:
    """Worker id -> that worker's spans, ordered by begin time."""
    tracks: dict = {}
    for span in spans:
        attrs = span[3] or {}
        if "worker" in attrs:
            tracks.setdefault(attrs["worker"], []).append(span)
    for track in tracks.values():
        track.sort(key=lambda span: (span[1], -span[2]))
    return tracks


def _crossing_spans(track) -> list:
    """Pairs of spans on one track that overlap without nesting."""
    crossings = []
    open_spans: list = []
    for span in track:
        while open_spans and open_spans[-1][2] <= span[1]:
            open_spans.pop()
        if open_spans and span[2] > open_spans[-1][2]:
            crossings.append((open_spans[-1], span))
        open_spans.append(span)
    return crossings


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
        # Fewer specs than workers: every spec runs as a 2-shard gang.
        with _sched_counters() as sched:
            joint = run_scenarios(SWEEP_SPECS, max_workers=8, shards=2)
        assert sched["sched.shard_tasks"] == 2 * len(SWEEP_SPECS)
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
            run_scenarios(SWEEP_SPECS[:2], max_workers=4, shards=2)
        # Both gangs share one spawn set, forked once for the sweep: one
        # worker per shard task, each running its task from the start.
        assert sched["sched.spawns"] == 4
        assert sched["sched.shard_tasks"] == 4
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
                [FIG13_SPEC, _broken_spec()], max_workers=4, shards=2
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


class TestDeadWorkerSends:
    @pytest.mark.parametrize("deliveries", [1, 3], ids=["task", "sentinel"])
    def test_send_to_dead_worker_is_attributed(self, deliveries):
        # Kill the pool from the driver's result hook: the driver's next
        # send (a task after the first delivery, the shutdown sentinel
        # after the last) meets a closed pipe, which must surface as the
        # dead-worker error rather than a BrokenPipeError.
        delivered: list[int] = []

        def kill_pool(index, spec, result):
            delivered.append(index)
            if len(delivered) == deliveries:
                for child in multiprocessing.active_children():
                    child.kill()
                    child.join(timeout=10.0)

        with _no_surviving_children():
            with pytest.raises(ScenarioError, match="died without a result"):
                run_scenarios(
                    SWEEP_SPECS[:3], max_workers=2, on_result=kill_pool
                )


class TestShardAffineDispatch:
    """A task runs on the one worker it was dispatched to, start to end."""

    def test_each_shard_runs_on_one_worker(self):
        # One spec on four workers splits into the two shards asked for,
        # on a pool sized to them.  Every epoch of a shard task runs on
        # its worker: a shard never moves between workers, and no two
        # shards share one.
        with _sched_counters() as sched:
            results, spans = _traced_run(
                SweepScheduler(workers=4, shards_per_scenario=2),
                [PLANET_SPECS[0]],
            )
        assert sched["sched.shard_tasks"] == 2
        assert sched["sched.spawns"] == 2
        _assert_sequential([PLANET_SPECS[0]], results)
        placement = {
            shard: workers
            for (_label, shard), workers in _shard_tasks(spans).items()
        }
        assert sorted(placement) == [0, 1]
        assert all(len(workers) == 1 for workers in placement.values())
        assert placement[0] != placement[1]

    def test_spec_tasks_still_use_both_workers(self):
        # Same-dataset spec tasks spread over the idle pool instead of
        # queueing behind one worker.
        with _sched_counters() as sched:
            placement = _task_workers(
                SweepScheduler(workers=2), PLANET_SPECS, "spec_task"
            )
        assert placement == {None: {0, 1}}
        assert sched["sched.spec_tasks"] == 3
        assert "sched.shard_tasks" not in sched


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


#: One satellite: in a sharded sweep the partition collapses to one
#: bucket, so these specs stay whole spec tasks beside the gangs.
SOLO_DATASET = DatasetSpec.of(
    "planet",
    n_satellites=1,
    image_shape=(48, 48),
    horizon_days=12.0,
    seed=19,
)
SOLO_SPECS = [
    ScenarioSpec(
        policy="earthplus",
        dataset=SOLO_DATASET,
        config=EarthPlusConfig(gamma_bpp=0.3, ground_sync_days=3.0),
        seed=seed,
        label=f"solo/s{seed}",
    )
    for seed in (1, 2)
]


def _shard_tasks(spans) -> dict:
    """(scenario, shard) -> the workers its ``shard_task`` spans ran on."""
    placement: dict = {}
    for name, _begin, _end, attrs in spans:
        if name == "shard_task":
            key = (attrs["scenario"], attrs["shard"])
            placement.setdefault(key, set()).add(attrs["worker"])
    return placement


def _assert_sequential(specs, results) -> None:
    for spec, result in zip(specs, results):
        assert pickle.dumps(result) == pickle.dumps(run_scenario(spec))


class TestPlanRule:
    def test_specs_fill_the_pool_without_shards(self):
        # As many specs as workers or more: no worker would sit idle, so
        # every spec runs whole, one task per worker at a time.
        with _no_surviving_children(), _sched_counters() as sched:
            results = run_scenarios(SWEEP_SPECS, max_workers=2, shards=2)
        assert sched["sched.spec_tasks"] == 4
        assert "sched.shard_tasks" not in sched
        assert sched["sched.spawns"] == 2
        _assert_sequential(SWEEP_SPECS, results)

    def test_unsynced_spec_refused_when_the_plan_would_not_shard(self):
        # Two specs on two workers would run whole, but a sweep that asks
        # for shards still refuses a spec without a sync cadence, before
        # any worker spawns.
        no_sync = ScenarioSpec(
            policy="earthplus",
            dataset=FIG13_DATASET,
            config=EarthPlusConfig(gamma_bpp=0.3),
            seed=1,
        )
        with _sched_counters() as sched:
            with pytest.raises(ConfigError, match="ground_sync_days"):
                run_scenarios([FIG13_SPEC, no_sync], max_workers=2, shards=2)
        assert "sched.spawns" not in sched


class TestResidentGangs:
    """Gangs resident in one pool at once, each on workers of its own."""

    def test_small_gangs_take_idle_workers_first(self):
        # Two specs on four workers asking for four shards each: each
        # takes half the pool, so two 2-shard gangs run side by side,
        # every task dispatched before any finishes.
        events: list[str] = []

        class Recorder:
            def task_started(self):
                events.append("start")

            def task_finished(self):
                events.append("finish")

            def spec_done(self):
                events.append("spec")

        with _sched_counters() as sched:
            results, spans = _traced_run(
                SweepScheduler(workers=4, shards_per_scenario=4),
                PLANET_SPECS[:2],
                progress=Recorder(),
            )
        assert sched["sched.shard_tasks"] == 4
        assert sched["sched.spawns"] == 4
        assert events[:5] == ["start"] * 4 + ["finish"]
        _assert_sequential(PLANET_SPECS[:2], results)
        placement = _shard_tasks(spans)
        assert sorted(placement) == [
            (spec.label, shard)
            for spec in PLANET_SPECS[:2]
            for shard in (0, 1)
        ]
        assert all(len(workers) == 1 for workers in placement.values())
        assert set.union(*placement.values()) == {0, 1, 2, 3}

    def test_spec_tasks_never_join_resident_shard_tasks(self):
        # A short gang plus two whole spec tasks (their one-satellite
        # partitions collapse) on a pool with a worker for every task.
        # The short gang ends first, but a spec task starts only on a
        # worker that hosts nothing, so it never runs inside a shard
        # task's lifetime (first span to last) on its worker.
        short = ScenarioSpec(
            policy="earthplus",
            dataset=DatasetSpec.of(
                "planet",
                n_satellites=4,
                image_shape=(48, 48),
                horizon_days=6.0,
                seed=19,
            ),
            config=EarthPlusConfig(gamma_bpp=0.3, ground_sync_days=3.0),
            seed=1,
            label="short",
        )
        specs = [short, *SOLO_SPECS]
        with _sched_counters() as sched:
            results, spans = _traced_run(
                SweepScheduler(workers=6, shards_per_scenario=2), specs
            )
        assert sched["sched.shard_tasks"] == 2
        assert sched["sched.spec_tasks"] == 2
        assert sched["sched.spawns"] == 4
        _assert_sequential(specs, results)
        ran_specs = 0
        for worker, track in _worker_tracks(spans).items():
            lifetimes: dict = {}
            for name, begin, end, attrs in track:
                if name == "shard_task":
                    key = (attrs["scenario"], attrs["shard"])
                    first, last = lifetimes.get(key, (begin, end))
                    lifetimes[key] = (min(first, begin), max(last, end))
            for name, begin, end, attrs in track:
                if name != "spec_task":
                    continue
                ran_specs += 1
                for key, (first, last) in lifetimes.items():
                    assert end <= first or begin >= last, (
                        f"spec task {attrs['scenario']!r} ran on worker "
                        f"{worker} while shard task {key} was resident"
                    )
        assert ran_specs == 2


class TestBarrierOverlap:
    def test_gangs_and_singles_share_one_pool(self):
        # A shard gang (epoch barriers) beside an independent spec task
        # in one sweep: the barrier synchronizes only the gang, never the
        # whole pool, and all results stay byte-identical.
        specs = [PLANET_SPECS[0], SOLO_SPECS[0]]
        with _no_surviving_children(), _sched_counters() as sched:
            results, spans = _traced_run(
                SweepScheduler(workers=4, shards_per_scenario=2), specs
            )
        assert sched["sched.shard_tasks"] == 2
        assert sched["sched.spec_tasks"] == 1
        assert sched["sched.spawns"] == 3
        _assert_sequential(specs, results)
        gang_workers = set.union(*_shard_tasks(spans).values())
        single_workers = {
            attrs["worker"] for name, _b, _e, attrs in spans
            if name == "spec_task"
        }
        waiting_workers = {
            attrs["worker"] for name, _b, _e, attrs in spans
            if name == "barrier_wait"
        }
        assert len(gang_workers) == 2 and len(single_workers) == 1
        assert not gang_workers & single_workers
        assert waiting_workers == gang_workers


class TestInterleavedTelemetry:
    """Gangs whose epochs interleave through one driver.

    Telemetry stays attributed to the task, worker and epoch that
    produced it.
    """

    def test_worker_tracks_are_disjoint_or_nested(self):
        # Each epoch is its own span with its task's attribution, and a
        # barrier wait is recorded only outside them, so no two spans on
        # a worker's track partly overlap.
        with _sched_counters() as sched:
            _results, spans = _traced_run(
                SweepScheduler(workers=4, shards_per_scenario=2),
                PLANET_SPECS[:2],
            )
        tracks = _worker_tracks(spans)
        assert sorted(tracks) == [0, 1, 2, 3]
        for worker, track in tracks.items():
            assert _crossing_spans(track) == [], f"worker {worker}"
            epochs = [s for s in track if s[0] == "shard_task"]
            for name, begin, end, _attrs in track:
                if name == "barrier_wait":
                    assert not any(
                        s[1] <= begin and end <= s[2] for s in epochs
                    ), f"worker {worker} waited inside an epoch"
        waits = [end - begin for name, begin, end, _ in spans
                 if name == "barrier_wait"]
        assert waits
        assert sched["sched.barrier_idle_s"] == pytest.approx(
            sum(waits), rel=0.05, abs=0.01
        )
        # Each task applies every epoch's merged journal once, under its
        # own labels; gangs take the pool's workers in plan order.
        synced: dict = {}
        for name, _begin, _end, attrs in spans:
            if name == "sync":
                key = (attrs["scenario"], attrs["shard"], attrs["worker"])
                synced.setdefault(key, []).append(attrs["epoch"])
        assert sorted(synced) == sorted(
            (spec.label, shard, 2 * index + shard)
            for index, spec in enumerate(PLANET_SPECS[:2])
            for shard in (0, 1)
        )
        epochs = sorted(next(iter(synced.values())))
        assert len(set(epochs)) == len(epochs) > 1
        assert all(sorted(e) == epochs for e in synced.values())

    def test_cpu_counters_match_task_sink(self):
        # Telemetry ships with each finished task, shard or spec, so
        # every task's CPU and every counter increment is counted once.
        sunk: list = []
        with _sched_counters() as sched:
            _traced_run(
                SweepScheduler(workers=4, shards_per_scenario=2),
                [PLANET_SPECS[0], SOLO_SPECS[0]],
                task_sink=lambda task, cpu: sunk.append((task, cpu)),
            )
        assert sorted(task.kind for task, _cpu in sunk) == [
            "shard", "shard", "spec"
        ]
        assert sched["sched.shard_tasks"] == 2
        assert sched["sched.spec_tasks"] == 1
        assert all(cpu > 0 for _task, cpu in sunk)
        assert sched["sched.worker_cpu_s"] == pytest.approx(
            sum(cpu for _task, cpu in sunk)
        )


#: A gang over the Planet dataset, for fault injection.
FAULTY_SPEC = ScenarioSpec(
    policy="earthplus",
    dataset=PLANET_DATASET,
    config=EarthPlusConfig(gamma_bpp=0.35, ground_sync_days=3.0),
    seed=1,
    label="faulty",
)


def _fault_in_second_epoch(monkeypatch, action) -> None:
    """Run ``action`` in FAULTY_SPEC's first visit after its first epoch.

    Fork inherits the patch, so it fires inside the shard workers.
    """
    original = ConstellationSimulator._simulate_visit

    def faulty(self, visit, *args):
        if self.config.gamma_bpp == FAULTY_SPEC.config.gamma_bpp and (
            visit.t_days >= FAULTY_SPEC.config.ground_sync_days
        ):
            action()
        return original(self, visit, *args)

    monkeypatch.setattr(ConstellationSimulator, "_simulate_visit", faulty)


class TestLoneGangFailures:
    @fork_only
    def test_worker_killed_after_first_epoch(self, monkeypatch):
        _fault_in_second_epoch(monkeypatch, lambda: os._exit(3))
        started = time.monotonic()
        with _no_surviving_children():
            with pytest.raises(
                ScenarioError,
                match=r"'faulty' failed in shard \d of 2: "
                r"worker died without a result",
            ):
                run_scenarios([FAULTY_SPEC], max_workers=2, shards=2)
        assert time.monotonic() - started < 60.0

    @fork_only
    def test_raising_shard_is_named(self, monkeypatch):
        def raise_fault():
            raise RuntimeError("injected shard fault")

        _fault_in_second_epoch(monkeypatch, raise_fault)
        with _no_surviving_children():
            with pytest.raises(
                ScenarioError, match=r"'faulty' failed in shard \d of 2"
            ) as caught:
                run_scenarios([FAULTY_SPEC], max_workers=2, shards=2)
        assert "injected shard fault" in str(caught.value)


class TestCoResidentFailures:
    @fork_only
    def test_raising_shard_is_named_beside_a_resident_gang(
        self, monkeypatch
    ):
        # Another gang runs beside the failing one and may be blocked at
        # a barrier when the sweep fails: it is torn down with the pool.
        def raise_fault():
            raise RuntimeError("injected shard fault")

        _fault_in_second_epoch(monkeypatch, raise_fault)
        with _no_surviving_children():
            with pytest.raises(
                ScenarioError, match=r"'faulty' failed in shard \d of 2"
            ) as caught:
                run_scenarios(
                    [PLANET_SPECS[0], FAULTY_SPEC], max_workers=4, shards=2
                )
        assert "injected shard fault" in str(caught.value)
