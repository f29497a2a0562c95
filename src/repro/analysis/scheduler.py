"""Unified sweep scheduler: one persistent warm worker pool for specs x shards.

Before this module, a sweep had two mutually-exclusive parallelism axes:
``max_workers`` fanned whole scenarios over a ``ProcessPoolExecutor``,
and ``shards`` forked a fresh set of shard processes *per scenario*
(paying worker spawn and cold per-process caches ``n_specs`` times, and
idling every other core while one scenario's shards waited at its
``ground_sync_days`` epoch barriers).

:class:`SweepScheduler` replaces both with one substrate: a sweep
becomes a DAG of **spec-tasks** (run a whole scenario) and **shard-tasks**
(run one satellite bucket of a scenario, exchanging epoch journals
through the scheduler), executed by a single set of long-lived forked
workers spawned once per sweep.  The driver assigns every task to a
named idle worker, and while one scenario's shards sit at an epoch
barrier, tasks from *other* scenarios fill the remaining workers.  Each
worker keeps its warm per-process state (dataset cache, capture/surface
caches, memoized visit ordering) across every task it runs.  A unit's
tasks go to the lowest-numbered idle workers in task order.  A gang as
large as the pool only leaves when every worker is idle, so shard *i*
of every such gang runs on worker *i* — and shard *i* of every spec
over a dataset covers the same satellites, so that worker already holds
their captures.

Scheduling topology never changes bytes.  The scheduler only decides
*when* work runs, never *what* merges: shard partials fold with the
monoid :meth:`~repro.core.accounting.RunResult.merge` in ascending shard
order, epoch journals are concatenated in ascending shard order and
canonically sorted (:func:`~repro.core.sharding.canonical_ingests` /
:func:`~repro.core.sharding.canonical_marks`) exactly as the sequential
epoch-synchronized loop sorts its own journal, and spec-tasks are plain
:func:`~repro.analysis.scenarios.run_scenario` calls.  A joint
``workers=N, shards_per_scenario=M`` sweep is therefore
pickle-byte-identical to running every spec sequentially
(differential-tested in ``tests/integration/test_sweep_scheduler.py``).

Backpressure is structural: at most ``workers`` tasks are in flight at
any moment (a task is sent only to an idle worker, and a shard group
only when a full gang of workers is idle, which is also what makes the
epoch-barrier rendezvous deadlock-free).  Journal exchange that used to
ride per-scenario ad-hoc ``Pipe`` pairs is routed through the
scheduler's shared result queue as messages keyed by
``(scenario, epoch)``; merged journals return on the per-worker pipe
that also carries the worker's tasks.

The scheduler reports through the global counters
(:mod:`repro.obs.metrics`), bumping each ``sched.*`` counter where its
event happens: ``sched.spawns`` per worker spawned; ``sched.tasks_run``
and ``sched.spec_tasks``/``sched.shard_tasks`` as a task is dispatched,
``sched.tasks_stolen`` when dispatch places a shard task off the worker
that last ran the same shard of its dataset; ``sched.worker_cpu_s`` and
``sched.barrier_idle_s`` in the process that ran the task (worker deltas
ship home with the task's result).  ``repro sweep --profile`` prints the
command's ``sched.*`` deltas.  A failed sweep keeps its counters up to
the failure; only the worker-side deltas of tasks that never finished
are lost with them.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.accounting import RunResult
from repro.core.sharding import canonical_ingests, canonical_marks
from repro.errors import ConfigError, ScenarioError
from repro.obs import metrics, trace

__all__ = ["SweepScheduler"]


@dataclass(frozen=True)
class _Task:
    """One unit of worker-pool work (a whole scenario or one shard of one).

    Attributes:
        task_id: Unique id within one scheduler run.
        kind: ``"spec"`` (run the whole scenario) or ``"shard"``.
        spec_index: Position of the scenario in the sweep's spec list.
        spec: The scenario description (picklable by contract).
        shard_index: This task's shard slot (shard tasks only).
        shard_count: Total shards of this scenario (shard tasks only).
        satellite_ids: The shard's satellite bucket (shard tasks only).
        trace: Whether the worker should run with a span tracer on and
            ship its span buffer (plus counter deltas) with the result.
            Set automatically when the driver has an active tracer.
    """

    task_id: int
    kind: str
    spec_index: int
    spec: object
    shard_index: int = 0
    shard_count: int = 1
    satellite_ids: tuple[int, ...] = ()
    trace: bool = False


def _pool_worker(worker_id: int, conn, result_queue) -> None:
    """One long-lived pool worker: run tasks until the ``None`` sentinel.

    Protocol (worker side): the driver sends each task, and finally the
    ``None`` sentinel, down this worker's own duplex pipe ``conn`` while
    the worker is idle, and an epoch's merged journal while it waits at
    the barrier; those are the only times the worker reads ``conn``.
    The driver chose the worker, so it knows which task a worker runs
    (and which one a dead worker was running) without an
    acknowledgement.  Everything else goes up the shared
    ``result_queue``:

    * per epoch of a shard task,
      ``("epoch", worker_id, task_id, epoch, ingests, marks)`` — then
      block on ``conn`` for the merged ``(ingests, marks)``;
    * ``("done", worker_id, task_id, result, cpu_seconds, spans,
      spans_dropped, counter_delta)`` or
      ``("error", worker_id, task_id, traceback_text)``.

    ``cpu_seconds`` is the process CPU time of the task's run (the
    driver hands it to ``task_sink``).  ``spans``/``spans_dropped`` carry
    the task's trace ring buffer (None/0 for untraced tasks) and
    ``counter_delta`` the task's global counter increments as a plain
    dict — including the ``sched.worker_cpu_s``/``sched.barrier_idle_s``
    it bumped — both telemetry-only payloads the driver folds into its
    own tracer/counters, never into results.

    Warm per-process caches (datasets, captures, noise geometry) persist
    across tasks — that is the point of the pool — and never change
    results (the determinism contract of :mod:`repro.analysis.scenarios`).
    """
    # Workers import lazily so a spawn-context platform re-imports
    # cleanly; under fork this resolves to the already-loaded module
    # (including any monkeypatching the driver process carries).
    from repro.analysis import scenarios

    while True:
        task = conn.recv()
        if task is None:
            break
        try:
            if task.trace:
                # Fork inherits the driver's tracer object; install a
                # fresh buffer and attribution so each task ships only
                # its own spans, stamped with where it actually ran.
                trace.enable_tracer()
                trace.reset_context()
                trace.set_context(
                    worker=worker_id,
                    scenario=task.spec.resolved_label(),
                    shard=(
                        task.shard_index if task.kind == "shard" else None
                    ),
                )
            counter_base = metrics.counters().snapshot()
            if task.kind == "shard":
                simulator = scenarios.build_simulator(task.spec)

                def exchange(epoch, ingests, marks, _tid=task.task_id):
                    result_queue.put(
                        ("epoch", worker_id, _tid, epoch, ingests, marks)
                    )
                    waited = time.perf_counter()
                    with trace.span("barrier_wait", epoch=epoch):
                        merged = conn.recv()
                    metrics.counters().inc(
                        "sched.barrier_idle_s", time.perf_counter() - waited
                    )
                    return merged

                # CPU is measured around the run only (not simulator
                # construction), matching the legacy shard workers so
                # critical-path projections stay comparable.
                cpu_started = time.process_time()
                with trace.span("shard_task"):
                    result = simulator.run(
                        satellite_ids=task.satellite_ids,
                        epoch_sync=exchange,
                    )
            else:
                cpu_started = time.process_time()
                with trace.span("spec_task"):
                    result = scenarios.run_scenario(task.spec)
            cpu_seconds = time.process_time() - cpu_started
            metrics.counters().inc("sched.worker_cpu_s", cpu_seconds)
            spans = None
            spans_dropped = 0
            tracer = trace.active_tracer()
            if task.trace and tracer is not None:
                spans = tracer.spans()
                spans_dropped = tracer.dropped
            counter_delta = metrics.counters().diff(counter_base).values
            result_queue.put(
                (
                    "done",
                    worker_id,
                    task.task_id,
                    result,
                    cpu_seconds,
                    spans,
                    spans_dropped,
                    counter_delta,
                )
            )
        except Exception:
            result_queue.put(
                ("error", worker_id, task.task_id, traceback.format_exc())
            )
        finally:
            trace.disable_tracer()
            trace.reset_context()
    conn.close()


@dataclass
class _Unit:
    """One schedulable unit: a single spec task or a gang of shard tasks.

    ``dataset`` is the spec's dataset when planning already built it (a
    shard partition that collapsed to one bucket), so an in-process run
    reuses it instead of building it again.  Driver-side only: tasks,
    not units, travel to workers.
    """

    tasks: list
    dataset: object = None

    @property
    def size(self) -> int:
        return len(self.tasks)


@dataclass
class _GroupState:
    """Driver-side progress of one sharded scenario."""

    size: int
    #: epoch -> shard_index -> (worker_id, ingests, marks)
    epoch_buffer: dict = field(default_factory=dict)
    #: shard_index -> RunResult partial
    partials: dict = field(default_factory=dict)


class SweepScheduler:
    """Execute a sweep as spec/shard tasks over one warm worker pool.

    Args:
        workers: Pool size (worker processes spawned once per sweep).
        shards_per_scenario: Shard each eligible scenario (one whose
            config sets ``ground_sync_days > 0``) across this many
            shard tasks, clamped to the pool size.  ``1`` runs every
            scenario as a single spec task.
    """

    def __init__(
        self,
        workers: int,
        shards_per_scenario: int = 1,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if shards_per_scenario < 1:
            raise ConfigError(
                f"shards_per_scenario must be >= 1, got {shards_per_scenario}"
            )
        self.workers = workers
        self.shards_per_scenario = shards_per_scenario

    # -- planning ------------------------------------------------------
    def _plan(self, specs: Sequence) -> tuple[list[_Unit], dict[int, object]]:
        """Turn specs into schedulable units (shard gangs first).

        Shard gangs are ordered ahead of spec tasks so gangs claim whole
        worker blocks early and single-spec tasks backfill the leftover
        slots (including workers idled by another gang's epoch barrier);
        dispatch is first-fit over this order.  Ordering is pure
        scheduling policy — results are position-keyed and
        byte-invariant to it.

        Returns:
            The unit list and a ``spec_index -> dataset affinity key``
            map (for the ``sched.tasks_stolen`` counter).
        """
        from repro.analysis.scenarios import (
            DatasetSpec,
            _batch_error,
            _shardable_buckets,
        )

        groups: list[_Unit] = []
        singles: list[_Unit] = []
        affinity_keys: dict[int, object] = {}
        # Tracing follows the ambient tracer: when the driver has one
        # (``--trace`` or ``--profile``), every task records and ships
        # spans — no parameter threading through the runner layers.
        traced = trace.active_tracer() is not None
        task_id = 0
        for index, spec in enumerate(specs):
            affinity_keys[index] = (
                spec.dataset
                if isinstance(spec.dataset, DatasetSpec)
                else id(spec.dataset)
            )
            dataset = buckets = None
            if self.shards_per_scenario > 1:
                try:
                    dataset, buckets = _shardable_buckets(
                        spec, min(self.shards_per_scenario, self.workers)
                    )
                except ConfigError:
                    # Spec semantics (e.g. sharding without an epoch
                    # cadence) — not a batch execution failure.
                    raise
                except Exception as exc:
                    raise _batch_error(spec, index, exc) from exc
            if buckets is not None:
                tasks = [
                    _Task(
                        task_id=task_id + shard_index,
                        kind="shard",
                        spec_index=index,
                        spec=spec,
                        shard_index=shard_index,
                        shard_count=len(buckets),
                        satellite_ids=tuple(bucket),
                        trace=traced,
                    )
                    for shard_index, bucket in enumerate(buckets)
                ]
                task_id += len(buckets)
                groups.append(_Unit(tasks=tasks))
            else:
                singles.append(
                    _Unit(
                        tasks=[
                            _Task(
                                task_id=task_id,
                                kind="spec",
                                spec_index=index,
                                spec=spec,
                                trace=traced,
                            )
                        ],
                        dataset=dataset,
                    )
                )
                task_id += 1
        return groups + singles, affinity_keys

    # -- failure wrapping ----------------------------------------------
    @staticmethod
    def _task_failure(task: _Task, detail: str) -> ScenarioError:
        from repro.analysis.scenarios import _shard_failure

        if task.kind == "shard":
            return _shard_failure(
                task.spec, task.shard_index, task.shard_count, detail
            )
        return ScenarioError(
            f"scenario {task.spec.resolved_label()!r} "
            f"(spec {task.spec_index + 1} of a batch) failed: {detail}"
        )

    # -- execution -----------------------------------------------------
    def run(
        self,
        specs: Sequence,
        on_result: Callable | None = None,
        task_sink: Callable | None = None,
        progress=None,
    ) -> list[RunResult]:
        """Run the sweep; results in spec order, byte-identical to sequential.

        The plan decides where it runs: a pool of ``min(workers, tasks)``
        processes, or in this process when that is one (a one-worker
        scheduler, or a plan that is a single spec task) — a pool would
        only add spawn cost there.

        Args:
            specs: The scenarios to run.
            on_result: Streaming hook ``(spec_index, spec, result)``,
                called as each *scenario* completes (completion order).
            task_sink: Per-task hook ``(task, cpu_seconds)`` called as
                each task completes; ``cpu_seconds`` is the process CPU
                time of the task's run.
            progress: Optional :class:`~repro.obs.progress.SweepProgress`
                (or duck-type) receiving ``task_started``/``task_finished``
                per task and ``spec_done`` per delivered scenario.
                Display-only; never fed back into scheduling.

        Returns:
            One :class:`RunResult` per spec, in spec order.

        Raises:
            ConfigError: ``shards_per_scenario > 1`` against a spec
                without ``ground_sync_days`` (sharding is engine-only
                and must never change semantics, so the epoch journal is
                required, exactly as in the per-scenario sharded runner).
            ScenarioError: A task failed or its worker died; the message
                names the scenario label (and shard index for shard
                tasks) with the worker's traceback inline.
        """
        specs = list(specs)
        if not specs:
            return []
        units, affinity_keys = self._plan(specs)
        results: list[RunResult | None] = [None] * len(specs)
        pool_size = min(self.workers, sum(unit.size for unit in units))
        if pool_size == 1:
            self._run_inline(units, results, on_result, task_sink, progress)
        else:
            self._run_pooled(
                pool_size,
                specs,
                units,
                affinity_keys,
                results,
                on_result,
                task_sink,
                progress,
            )
        return results  # type: ignore[return-value]

    @staticmethod
    def _count_start(task: _Task, stolen: bool = False) -> None:
        """Bump the per-task ``sched.*`` counters as ``task`` is dispatched."""
        bag = metrics.counters()
        bag.inc("sched.tasks_run")
        if task.kind == "shard":
            bag.inc("sched.shard_tasks")
        else:
            bag.inc("sched.spec_tasks")
        if stolen:
            bag.inc("sched.tasks_stolen")

    def _run_inline(
        self, units, results, on_result, task_sink, progress
    ) -> None:
        """Run a plan without gangs in this process, in plan order.

        In-process execution is the byte-identity reference.  Spans
        record straight into the driver's own tracer here, so only
        attribution (no buffer shipping) is needed.
        """
        from repro.analysis import scenarios

        for unit in units:
            (task,) = unit.tasks
            assert task.kind == "spec", "in-process plans have no gangs"
            if progress is not None:
                progress.task_started()
            self._count_start(task)
            try:
                with trace.trace_context(scenario=task.spec.resolved_label()):
                    cpu_started = time.process_time()
                    with trace.span("spec_task"):
                        result = scenarios.run_scenario(
                            task.spec, dataset=unit.dataset
                        )
                    cpu_seconds = time.process_time() - cpu_started
            except ScenarioError:
                raise
            except Exception as exc:
                raise self._task_failure(task, str(exc)) from exc
            metrics.counters().inc("sched.worker_cpu_s", cpu_seconds)
            results[task.spec_index] = result
            if task_sink is not None:
                task_sink(task, cpu_seconds)
            if progress is not None:
                progress.task_finished()
                progress.spec_done()
            if on_result is not None:
                on_result(task.spec_index, task.spec, result)

    def _run_pooled(
        self,
        pool_size,
        specs,
        units,
        affinity_keys,
        results,
        on_result,
        task_sink,
        progress,
    ) -> None:
        """The driver event loop over one persistent worker pool."""
        context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        result_queue = context.Queue()
        workers: list[tuple] = []
        for worker_id in range(pool_size):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_pool_worker,
                args=(worker_id, child_conn, result_queue),
                daemon=True,
            )
            process.start()
            metrics.counters().inc("sched.spawns")
            child_conn.close()
            workers.append((process, parent_conn))

        tasks_by_id = {
            task.task_id: task for unit in units for task in unit.tasks
        }
        pending_units = list(units)
        groups: dict[int, _GroupState] = {
            unit.tasks[0].spec_index: _GroupState(size=unit.size)
            for unit in units
            if unit.tasks[0].kind == "shard"
        }
        idle = set(range(pool_size))
        running: dict[int, int] = {}  # worker_id -> task_id (as assigned)
        #: (dataset key, shard index) -> worker that last ran that shard
        last_worker: dict[tuple, int] = {}
        completed = 0
        failed = False

        def worker_died(worker_id: int) -> ScenarioError:
            process = workers[worker_id][0]
            process.join(timeout=1.0)  # reap it, for the exit code
            detail = (
                f"worker died without a result "
                f"(exit code {process.exitcode})"
            )
            task_id = running.get(worker_id)
            if task_id is not None:
                return self._task_failure(tasks_by_id[task_id], detail)
            return ScenarioError(f"sweep worker {worker_id} {detail}")

        def send(worker_id: int, payload) -> None:
            try:
                workers[worker_id][1].send(payload)
            except OSError as exc:  # the worker is gone: its end closed
                raise worker_died(worker_id) from exc

        def dispatch() -> None:
            # First-fit over the pending units: a gang goes out only
            # when a full block of idle workers exists (in-flight tasks
            # never exceed the pool — the backpressure bound — and every
            # gang member is guaranteed a worker, which makes the epoch
            # rendezvous deadlock-free); single spec tasks backfill any
            # remaining workers.  A unit's tasks take the lowest-numbered
            # idle workers in task order.
            index = 0
            while index < len(pending_units):
                unit = pending_units[index]
                if unit.size > len(idle):
                    index += 1
                    continue
                del pending_units[index]
                for task, worker_id in zip(unit.tasks, sorted(idle)):
                    idle.remove(worker_id)
                    running[worker_id] = task.task_id
                    stolen = False
                    if task.kind == "shard":
                        key = (
                            affinity_keys[task.spec_index],
                            task.shard_index,
                        )
                        stolen = last_worker.get(key, worker_id) != worker_id
                        last_worker[key] = worker_id
                    if progress is not None:
                        progress.task_started()
                    self._count_start(task, stolen=stolen)
                    send(worker_id, task)

        def deliver(spec_index: int, result: RunResult) -> None:
            nonlocal completed
            results[spec_index] = result
            completed += 1
            if progress is not None:
                progress.spec_done()
            if on_result is not None:
                on_result(spec_index, specs[spec_index], result)

        try:
            dispatch()
            while completed < len(specs):
                try:
                    message = result_queue.get(timeout=0.5)
                except queue_mod.Empty:
                    for worker_id, (process, _) in enumerate(workers):
                        if not process.is_alive():
                            raise worker_died(worker_id)
                    continue
                kind = message[0]
                if kind == "epoch":
                    _, worker_id, task_id, epoch, ingests, marks = message
                    task = tasks_by_id[task_id]
                    group = groups[task.spec_index]
                    buffer = group.epoch_buffer.setdefault(epoch, {})
                    buffer[task.shard_index] = (worker_id, ingests, marks)
                    if len(buffer) == group.size:
                        # Concatenate in ascending shard order before the
                        # canonical sort — the exact accumulation order
                        # of the per-scenario sharded runner, so merged
                        # journals (and every downstream byte) match it.
                        with trace.span(
                            "epoch_merge",
                            scenario=task.spec.resolved_label(),
                            epoch=epoch,
                        ):
                            all_ingests: list = []
                            all_marks: list = []
                            for shard_index in sorted(buffer):
                                (
                                    _,
                                    shard_ingests,
                                    shard_marks,
                                ) = buffer[shard_index]
                                all_ingests.extend(shard_ingests)
                                all_marks.extend(shard_marks)
                            merged = (
                                canonical_ingests(all_ingests),
                                canonical_marks(all_marks),
                            )
                            for shard_index in sorted(buffer):
                                send(buffer[shard_index][0], merged)
                        del group.epoch_buffer[epoch]
                elif kind == "done":
                    (
                        _,
                        worker_id,
                        task_id,
                        result,
                        cpu_seconds,
                        spans,
                        spans_dropped,
                        counter_delta,
                    ) = message
                    task = tasks_by_id[task_id]
                    running.pop(worker_id, None)
                    idle.add(worker_id)
                    if progress is not None:
                        progress.task_finished()
                    if spans:
                        driver_tracer = trace.active_tracer()
                        if driver_tracer is not None:
                            driver_tracer.extend(spans, spans_dropped)
                    if counter_delta:
                        metrics.counters().merge_in(
                            metrics.Counters(counter_delta)
                        )
                    if task_sink is not None:
                        task_sink(task, cpu_seconds)
                    if task.kind == "spec":
                        deliver(task.spec_index, result)
                    else:
                        group = groups[task.spec_index]
                        group.partials[task.shard_index] = result
                        if len(group.partials) == group.size:
                            merged_result = RunResult.identity()
                            for shard_index in sorted(group.partials):
                                merged_result = merged_result.merge(
                                    group.partials[shard_index]
                                )
                            deliver(task.spec_index, merged_result)
                    dispatch()
                elif kind == "error":
                    _, worker_id, task_id, detail = message
                    raise self._task_failure(tasks_by_id[task_id], detail)
            for worker_id in range(pool_size):
                send(worker_id, None)
        except BaseException:
            failed = True
            raise
        finally:
            if failed:
                # Workers may be blocked at an epoch barrier that will
                # never resolve; a clean drain is impossible.  Terminate
                # before closing the pipes, so no worker wakes to an
                # end-of-file on its pipe.
                for process, _ in workers:
                    process.terminate()
                for process, parent_conn in workers:
                    process.join(timeout=5.0)
                    if process.is_alive():
                        process.kill()
                        process.join()
                    parent_conn.close()
            else:
                for process, parent_conn in workers:
                    process.join(timeout=10.0)
                    parent_conn.close()
                    if process.is_alive():
                        process.terminate()
                        process.join()
            result_queue.close()
            result_queue.cancel_join_thread()
