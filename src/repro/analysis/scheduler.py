"""Unified sweep scheduler: one persistent warm worker pool for specs x shards.

Before this module, a sweep had two mutually-exclusive parallelism axes:
``max_workers`` fanned whole scenarios over a ``ProcessPoolExecutor``,
and ``shards`` forked a fresh set of shard processes *per scenario*
(paying worker spawn and cold per-process caches ``n_specs`` times, and
idling every other core while one scenario's shards waited at its
``ground_sync_days`` epoch barriers).

:class:`SweepScheduler` replaces both with one substrate: a sweep
becomes a list of **spec-tasks** (run a whole scenario) and
**shard-tasks** (run one satellite bucket of a scenario, exchanging
epoch journals through the driver), executed by a single set of
long-lived forked workers spawned once per sweep.  Each worker keeps its
warm per-process state (dataset cache, capture/surface caches, memoized
visit ordering) across every task it runs.

The plan shards only a sweep that would otherwise leave workers idle.
With fewer specs than workers, each spec splits into
``min(shards_per_scenario, workers // len(specs))`` shard tasks, so
every task of a sharded plan has a worker of its own from the start;
with at least as many specs as workers, every spec is one spec task.
Spec tasks keep every worker busy, whereas a gang's members idle at each
epoch barrier until its slowest member arrives.  Each worker runs one
task at a time, and the driver gives pending tasks to idle workers in
plan order.

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

The driver sends only to a worker blocked in ``recv``: an idle worker
gets its next task, and a shard task waiting at its barrier gets its
gang's merged journal.  So a plain blocking send never waits on a busy
worker, and a send that finds the worker's end closed raises the
dead-worker :class:`~repro.errors.ScenarioError`.

The scheduler reports through the global counters
(:mod:`repro.obs.metrics`), bumping each ``sched.*`` counter where its
event happens: ``sched.spawns`` per worker spawned; ``sched.tasks_run``
and ``sched.spec_tasks``/``sched.shard_tasks`` as a task is dispatched;
``sched.worker_cpu_s`` (per finished task) and ``sched.barrier_idle_s``
(while a shard task waits at its barrier) in the worker, whose deltas
ship home with the task's ``Done``.  ``repro sweep --profile`` prints the
command's ``sched.*`` deltas.  A failed sweep keeps its counters up to
the failure; only the worker-side deltas not yet shipped are lost.
"""

from __future__ import annotations

import collections
import multiprocessing
import queue as queue_mod
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler
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
        task_id: The task's position in the plan.
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


@dataclass(frozen=True)
class Merged:
    """Driver to worker: a gang's merged, canonically sorted journal."""

    ingests: list
    marks: list


@dataclass(frozen=True)
class Epoch:
    """Worker to driver: a shard task's drained journal at a barrier."""

    worker_id: int
    task_id: int
    epoch: int
    ingests: list
    marks: list


@dataclass(frozen=True)
class Done:
    """Worker to driver: a finished task, plus the worker's telemetry.

    ``cpu_seconds`` is the process CPU time of the task's run (its
    epochs, for a shard task).  ``spans``/``spans_dropped`` (None/0
    untraced) and ``counter_delta`` hold everything the worker recorded
    since its previous ``Done``, so each span and increment ships once.
    """

    worker_id: int
    task_id: int
    result: RunResult
    cpu_seconds: float
    spans: list | None
    spans_dropped: int
    counter_delta: dict


@dataclass(frozen=True)
class Failed:
    """Worker to driver: a task raised; ``detail`` is the traceback."""

    worker_id: int
    task_id: int
    detail: str


def _run_shard(
    worker_id: int, task: _Task, conn, result_queue
) -> tuple[RunResult, float]:
    """Run one shard task's epoch loop; its partial and its epochs' CPU.

    Each epoch is ``steps.send(merged)`` (one ``shard_task`` span), an
    :class:`Epoch` up the result queue, then a ``recv`` of the gang's
    :class:`Merged` journal (a ``barrier_wait`` span and
    ``sched.barrier_idle_s``).  CPU is measured around the epochs only,
    not simulator construction or barrier waits.
    """
    from repro.analysis import scenarios

    steps = scenarios.build_simulator(task.spec).run_synced(task.satellite_ids)
    merged = None
    cpu_seconds = 0.0
    while True:
        cpu_started = time.process_time()
        try:
            with trace.span("shard_task"):
                epoch, ingests, marks = steps.send(merged)
        except StopIteration as stop:
            return stop.value, cpu_seconds + time.process_time() - cpu_started
        cpu_seconds += time.process_time() - cpu_started
        result_queue.put(Epoch(worker_id, task.task_id, epoch, ingests, marks))
        waited = time.perf_counter()
        with trace.span("barrier_wait"):
            message = conn.recv()
        metrics.counters().inc(
            "sched.barrier_idle_s", time.perf_counter() - waited
        )
        merged = (message.ingests, message.marks)


def _pool_worker(worker_id: int, conn, result_queue) -> None:
    """One long-lived pool worker: run tasks until the ``None`` sentinel.

    Protocol (worker side).  The driver writes three kinds of message
    down this worker's own duplex pipe ``conn``: a :class:`_Task` to
    run when the worker is idle, a :class:`Merged` journal when its
    shard task waits at a barrier, and finally the ``None`` sentinel.
    Everything else goes up the shared ``result_queue``: an
    :class:`Epoch` whenever a shard task reaches a barrier, then
    :class:`Done` or :class:`Failed` once per task.  The driver chose
    the worker, so it knows which task a worker runs (and which one a
    dead worker ran) without an acknowledgement.

    A task's spans carry its worker, scenario and shard attribution (and
    the epoch, which the simulator's epoch loop sets), so the spans on a
    worker's track are disjoint or nested.

    Warm per-process caches (datasets, captures, noise geometry) persist
    across tasks — that is the point of the pool — and never change
    results (the determinism contract of :mod:`repro.analysis.scenarios`).
    """
    # Workers import lazily so a spawn-context platform re-imports
    # cleanly; under fork this resolves to the already-loaded module
    # (including any monkeypatching the driver process carries).
    from repro.analysis import scenarios

    # Fork inherits the driver's tracer and attribution: start clean, so
    # the worker ships only its own spans, stamped with where they ran.
    trace.disable_tracer()
    trace.reset_context()
    shipped = metrics.counters().snapshot()
    while True:
        task = conn.recv()
        if task is None:
            conn.close()
            return
        if task.trace and trace.active_tracer() is None:
            trace.enable_tracer()
        trace.reset_context()
        trace.set_context(
            worker=worker_id,
            scenario=task.spec.resolved_label(),
            shard=task.shard_index if task.kind == "shard" else None,
        )
        try:
            if task.kind == "shard":
                result, cpu_seconds = _run_shard(
                    worker_id, task, conn, result_queue
                )
            else:
                cpu_started = time.process_time()
                with trace.span("spec_task"):
                    result = scenarios.run_scenario(task.spec)
                cpu_seconds = time.process_time() - cpu_started
        except Exception:
            result_queue.put(
                Failed(worker_id, task.task_id, traceback.format_exc())
            )
            continue
        bag = metrics.counters()
        bag.inc("sched.worker_cpu_s", cpu_seconds)
        spans = None
        spans_dropped = 0
        tracer = trace.active_tracer()
        if tracer is not None:
            spans = tracer.spans()
            spans_dropped = tracer.dropped
            trace.enable_tracer()  # a fresh buffer: each span ships once
        counter_delta = bag.diff(shipped).values
        shipped = bag.snapshot()
        result_queue.put(
            Done(
                worker_id,
                task.task_id,
                result,
                cpu_seconds,
                spans,
                spans_dropped,
                counter_delta,
            )
        )


@dataclass
class _GroupState:
    """Driver-side progress of one sharded scenario."""

    size: int
    #: epoch -> shard_index -> the member's :class:`Epoch` record
    epoch_buffer: dict = field(default_factory=dict)
    #: shard_index -> RunResult partial
    partials: dict = field(default_factory=dict)


class SweepScheduler:
    """Execute a sweep as spec/shard tasks over one warm worker pool.

    Args:
        workers: Pool size (worker processes spawned once per sweep).
        shards_per_scenario: Shard each scenario (every one must set
            ``ground_sync_days > 0``) across up to this many shard
            tasks, when the sweep has fewer specs than workers: each
            spec then takes ``min(shards_per_scenario, workers //
            len(specs))``.  ``1`` runs every scenario as a single spec
            task.
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
    def _plan(self, specs: Sequence) -> tuple[list[_Task], dict[int, object]]:
        """Turn specs into tasks, in spec order (a spec's shards in order).

        Shards only when the sweep has fewer specs than workers, so a
        sharded plan never has more tasks than workers.  Results are
        position-keyed, so the plan's order never changes a byte.

        Returns:
            The task list (``task_id`` is the position in it) and a
            ``spec_index -> dataset`` map of the datasets planning built
            to partition satellites, so a spec whose partition collapsed
            to one bucket reuses its dataset when it runs in-process.
        """
        from repro.analysis.scenarios import (
            _batch_error,
            _require_epoch_sync,
            _shardable_buckets,
        )

        # Below 2 (no shard) unless the sweep has fewer specs than workers.
        shards = min(self.shards_per_scenario, self.workers // len(specs))
        tasks: list[_Task] = []
        datasets: dict[int, object] = {}
        # Tracing follows the ambient tracer: when the driver has one
        # (``--trace`` or ``--profile``), every task records and ships
        # spans — no parameter threading through the runner layers.
        traced = trace.active_tracer() is not None
        for index, spec in enumerate(specs):
            if self.shards_per_scenario > 1:
                # Whether or not this plan splits the spec: sharding is
                # engine configuration and must never change semantics.
                _require_epoch_sync(spec)
            buckets = None
            if shards > 1:
                try:
                    datasets[index], buckets = _shardable_buckets(spec, shards)
                except ConfigError:
                    raise  # spec semantics, not a batch execution failure
                except Exception as exc:
                    raise _batch_error(spec, index, exc) from exc
            if buckets is None:
                tasks.append(_Task(len(tasks), "spec", index, spec, trace=traced))
                continue
            first = len(tasks)
            tasks.extend(
                _Task(
                    task_id=first + shard_index,
                    kind="shard",
                    spec_index=index,
                    spec=spec,
                    shard_index=shard_index,
                    shard_count=len(buckets),
                    satellite_ids=tuple(bucket),
                    trace=traced,
                )
                for shard_index, bucket in enumerate(buckets)
            )
        return tasks, datasets

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
                time of the task's run (summed over its epochs, so
                barrier waits are not in it).
            progress: Optional :class:`~repro.obs.progress.SweepProgress`
                (or duck-type) receiving ``task_started``/``task_finished``
                per task and ``spec_done`` per delivered scenario.
                Display-only; never fed back into scheduling.

        Returns:
            One :class:`RunResult` per spec, in spec order.

        Raises:
            ConfigError: ``shards_per_scenario > 1`` against a spec
                without ``ground_sync_days``, whether or not the plan
                shards it (sharding is engine-only and must never change
                semantics, so the epoch journal is required, exactly as
                in the per-scenario sharded runner).
            ScenarioError: A task failed or its worker died; the message
                names the scenario label (and shard index for shard
                tasks) with the worker's traceback inline.
        """
        specs = list(specs)
        if not specs:
            return []
        tasks, datasets = self._plan(specs)
        results: list[RunResult | None] = [None] * len(specs)
        pool_size = min(self.workers, len(tasks))
        if pool_size == 1:
            self._run_inline(
                tasks, datasets, results, on_result, task_sink, progress
            )
        else:
            self._run_pooled(
                pool_size, specs, tasks, results, on_result, task_sink, progress
            )
        return results  # type: ignore[return-value]

    @staticmethod
    def _count_start(task: _Task) -> None:
        """Bump the per-task ``sched.*`` counters as ``task`` is dispatched."""
        bag = metrics.counters()
        bag.inc("sched.tasks_run")
        if task.kind == "shard":
            bag.inc("sched.shard_tasks")
        else:
            bag.inc("sched.spec_tasks")

    def _run_inline(
        self, tasks, datasets, results, on_result, task_sink, progress
    ) -> None:
        """Run a plan without shard tasks in this process, in plan order.

        In-process execution is the byte-identity reference.  Spans
        record straight into the driver's own tracer here, so only
        attribution (no buffer shipping) is needed.
        """
        from repro.analysis import scenarios

        for task in tasks:
            assert task.kind == "spec", "in-process plans have no gangs"
            if progress is not None:
                progress.task_started()
            self._count_start(task)
            try:
                with trace.trace_context(scenario=task.spec.resolved_label()):
                    cpu_started = time.process_time()
                    with trace.span("spec_task"):
                        result = scenarios.run_scenario(
                            task.spec, dataset=datasets.get(task.spec_index)
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
        self, pool_size, specs, tasks, results, on_result, task_sink, progress
    ) -> None:
        """The driver event loop over one persistent worker pool."""
        context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        result_queue = context.Queue()
        processes: list = []
        conns: list = []
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
            processes.append(process)
            conns.append(parent_conn)

        pending = collections.deque(tasks)
        groups: dict[int, _GroupState] = {
            task.spec_index: _GroupState(size=task.shard_count)
            for task in tasks
            if task.kind == "shard"
        }
        #: worker_id -> the task it runs (None while idle)
        running: list[_Task | None] = [None] * pool_size
        completed = 0
        failed = False

        def worker_died(worker_id: int) -> ScenarioError:
            process = processes[worker_id]
            process.join(timeout=1.0)  # reap it, for the exit code
            detail = (
                f"worker died without a result "
                f"(exit code {process.exitcode})"
            )
            task = running[worker_id]
            if task is None:
                return ScenarioError(f"sweep worker {worker_id} {detail}")
            return self._task_failure(task, detail)

        def send(worker_id: int, payload: bytes) -> None:
            # The worker is blocked in ``recv`` (idle, or at a barrier),
            # so a plain send never waits on a busy worker.
            try:
                conns[worker_id].send_bytes(payload)
            except OSError as exc:  # the worker is gone
                raise worker_died(worker_id) from exc

        def dispatch() -> None:
            # Idle workers take pending tasks in plan order.  A sharded
            # plan has no more tasks than workers, so every member of a
            # gang starts at once and the barrier rendezvous cannot
            # deadlock.
            for worker_id in range(pool_size):
                if not pending:
                    return
                if running[worker_id] is None:
                    task = running[worker_id] = pending.popleft()
                    if progress is not None:
                        progress.task_started()
                    self._count_start(task)
                    send(worker_id, ForkingPickler.dumps(task))

        def deliver(spec_index: int, result: RunResult) -> None:
            nonlocal completed
            results[spec_index] = result
            completed += 1
            if progress is not None:
                progress.spec_done()
            if on_result is not None:
                on_result(spec_index, specs[spec_index], result)

        def merge_epoch(spec, epoch: int, posted: list[Epoch]) -> None:
            # ``posted`` is in ascending shard order: concatenating in it
            # before the canonical sort is the exact accumulation order
            # of the per-scenario sharded runner, so merged journals (and
            # every downstream byte) match it.
            with trace.span(
                "epoch_merge", scenario=spec.resolved_label(), epoch=epoch
            ):
                ingests = canonical_ingests(
                    [entry for member in posted for entry in member.ingests]
                )
                marks = canonical_marks(
                    [entry for member in posted for entry in member.marks]
                )
                payload = ForkingPickler.dumps(Merged(ingests, marks))
                for member in posted:
                    send(member.worker_id, payload)

        def task_done(message: Done) -> None:
            task = tasks[message.task_id]
            running[message.worker_id] = None
            if progress is not None:
                progress.task_finished()
            if message.spans:
                driver_tracer = trace.active_tracer()
                if driver_tracer is not None:
                    driver_tracer.extend(message.spans, message.spans_dropped)
            if message.counter_delta:
                metrics.counters().merge_in(
                    metrics.Counters(message.counter_delta)
                )
            if task_sink is not None:
                task_sink(task, message.cpu_seconds)
            if task.kind == "spec":
                deliver(task.spec_index, message.result)
                return
            group = groups[task.spec_index]
            group.partials[task.shard_index] = message.result
            if len(group.partials) == group.size:
                merged_result = RunResult.identity()
                for shard_index in sorted(group.partials):
                    merged_result = merged_result.merge(
                        group.partials[shard_index]
                    )
                deliver(task.spec_index, merged_result)

        try:
            dispatch()
            while completed < len(specs):
                try:
                    message = result_queue.get(timeout=0.5)
                except queue_mod.Empty:
                    for worker_id, process in enumerate(processes):
                        if not process.is_alive():
                            raise worker_died(worker_id)
                    continue
                if isinstance(message, Epoch):
                    task = tasks[message.task_id]
                    group = groups[task.spec_index]
                    buffer = group.epoch_buffer.setdefault(message.epoch, {})
                    buffer[task.shard_index] = message
                    if len(buffer) == group.size:
                        del group.epoch_buffer[message.epoch]
                        merge_epoch(
                            task.spec,
                            message.epoch,
                            [buffer[shard] for shard in sorted(buffer)],
                        )
                elif isinstance(message, Done):
                    task_done(message)
                    dispatch()
                else:  # Failed
                    raise self._task_failure(
                        tasks[message.task_id], message.detail
                    )
            sentinel = ForkingPickler.dumps(None)
            for worker_id in range(pool_size):
                send(worker_id, sentinel)
        except BaseException:
            failed = True
            raise
        finally:
            if failed:
                # Workers may be blocked at an epoch barrier that will
                # never resolve; a clean drain is impossible.  Terminate
                # before closing the pipes, so no worker wakes to an
                # end-of-file on its pipe.
                for process in processes:
                    process.terminate()
                for process in processes:
                    process.join(timeout=5.0)
                    if process.is_alive():
                        process.kill()
                        process.join()
            else:
                for process in processes:
                    process.join(timeout=10.0)
                    if process.is_alive():
                        process.terminate()
                        process.join()
            for conn in conns:
                conn.close()
            result_queue.close()
            result_queue.cancel_join_thread()
