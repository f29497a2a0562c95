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
workers spawned once per sweep.  Each worker keeps its warm per-process
state (dataset cache, capture/surface caches, memoized visit ordering)
across every task it runs.

A worker hosts up to :data:`MAX_RESIDENT` shard tasks at once and runs
whichever can proceed: while one waits at its epoch barrier for the rest
of its gang, the worker runs the other's next epoch.  The driver admits
a gang when that many workers each have a free slot and no spec task;
it picks the least-loaded of them (ties to the lower id) and gives the
tasks to the chosen workers in ascending id order.  So a gang as large
as the pool runs shard *i* on worker *i* — and shard *i* of every spec
over a dataset covers the same satellites, so that worker already holds
their captures — while a smaller gang takes idle workers before it
stacks on busy ones.  A spec task runs to completion and needs a worker
with nothing resident, so it never holds a gang member up.

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

Backpressure is structural: a worker holds at most :data:`MAX_RESIDENT`
shard tasks or one spec task, so at most ``MAX_RESIDENT * workers``
tasks are in flight.  The bound is deadlock-free: every member of an
admitted gang is resident on its own worker until the gang ends; a
worker runs its runnable tasks in the order they became runnable and
blocks on its inbox only when every task it hosts waits at a barrier;
and each run between two barriers (a *slice*) ends.  So every member of
a gang reaches each barrier, the driver merges that epoch, and the
members can run again; the driver itself never blocks on a worker.
Journal exchange rides the shared result queue as :class:`Epoch`
records keyed by task and epoch; each member's merged journal returns
as a :class:`Merged` record on the per-worker pipe that also carries the
worker's tasks, through that worker's :class:`_Outbox` feeder thread (a
merged journal can be megabytes, more than the pipe's buffer, and a
plain send would wait until the worker finished its current slice).

The scheduler reports through the global counters
(:mod:`repro.obs.metrics`), bumping each ``sched.*`` counter where its
event happens: ``sched.spawns`` per worker spawned; ``sched.tasks_run``
and ``sched.spec_tasks``/``sched.shard_tasks`` as a task is dispatched,
``sched.tasks_stolen`` when dispatch places a shard task off the worker
that last ran the same shard of its dataset; ``sched.worker_cpu_s`` (per
finished task) and ``sched.barrier_idle_s`` (while a worker is blocked
with every resident task at a barrier) in the worker, whose deltas ship
home with its next finished task.  ``repro sweep --profile`` prints the
command's ``sched.*`` deltas.  A failed sweep keeps its counters up to
the failure; only the worker-side deltas not yet shipped are lost.
"""

from __future__ import annotations

import collections
import multiprocessing
import queue as queue_mod
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Generator, Sequence

from repro.core.accounting import RunResult
from repro.core.sharding import canonical_ingests, canonical_marks
from repro.errors import ConfigError, ScenarioError
from repro.obs import metrics, trace

__all__ = ["SweepScheduler"]

#: Shard tasks one worker hosts at once: one runs while the other waits
#: at its barrier.  Each resident task holds a whole simulator, so a
#: worker's memory grows with this bound.
MAX_RESIDENT = 2


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

    @property
    def slots(self) -> int:
        """Worker slots the task takes: a spec task takes them all."""
        return MAX_RESIDENT if self.kind == "spec" else 1


@dataclass(frozen=True)
class Merged:
    """Driver to worker: a gang's merged, canonically sorted journal."""

    task_id: int
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

    ``cpu_seconds`` is the process CPU time of the task's slices.
    ``spans``/``spans_dropped`` (None/0 untraced) and ``counter_delta``
    hold everything the worker recorded since its previous ``Done``,
    whichever task recorded it, so each span and increment ships once.
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


@dataclass
class _Resident:
    """Worker-side state of one hosted task."""

    task: _Task
    #: The shard task's epoch loop, built at its first slice.
    steps: Generator | None = None
    #: What to resume ``steps`` with: the merged journal, None at first.
    merged: tuple | None = None
    #: The barrier the task last reached (attribution on resume).
    epoch: int | None = None
    cpu_seconds: float = 0.0


def _pool_worker(worker_id: int, conn, result_queue) -> None:
    """One long-lived pool worker: host tasks until the ``None`` sentinel.

    Protocol (worker side).  The driver writes three kinds of message
    down this worker's own duplex pipe ``conn``: a :class:`_Task` to
    host, a :class:`Merged` journal for a task waiting at its barrier,
    and finally the ``None`` sentinel.  Everything else goes up the
    shared ``result_queue``: an :class:`Epoch` whenever a shard task
    reaches a barrier, then :class:`Done` or :class:`Failed` once per
    task.  The driver chose the worker, so it knows which tasks a worker
    hosts (and which ones a dead worker hosted) without an
    acknowledgement.

    The worker hosts up to :data:`MAX_RESIDENT` shard tasks (the
    backpressure bound).  Between slices it takes every message already
    waiting, then runs one slice of the task that became runnable first;
    it blocks on ``conn`` only when every resident task waits at a
    barrier (recorded as a ``barrier_wait`` span and
    ``sched.barrier_idle_s``) or when it hosts nothing.  The driver
    admits a gang only when each member gets a slot on its own worker,
    so every member is resident here or elsewhere; since no worker
    blocks while a task it hosts can run, each barrier is reached by
    the whole gang and resolves, and the bound cannot deadlock.  A spec
    task runs to completion in one slice; the driver sends one only to
    a worker with nothing resident.  Each slice
    records one ``shard_task`` (or ``spec_task``) span, with worker,
    scenario, shard and epoch attribution restored at every resume, so
    the spans on a worker's track are disjoint or nested.

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
    resident: dict[int, _Resident] = {}
    ready: collections.deque[_Resident] = collections.deque()

    def finish(slot: _Resident, result: RunResult) -> None:
        nonlocal shipped
        del resident[slot.task.task_id]
        bag = metrics.counters()
        bag.inc("sched.worker_cpu_s", slot.cpu_seconds)
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
                slot.task.task_id,
                result,
                slot.cpu_seconds,
                spans,
                spans_dropped,
                counter_delta,
            )
        )

    def run_slice(slot: _Resident) -> None:
        task = slot.task
        shard = task.kind == "shard"
        trace.reset_context()
        trace.set_context(
            worker=worker_id,
            scenario=task.spec.resolved_label(),
            shard=task.shard_index if shard else None,
            epoch=slot.epoch,
        )
        if shard and slot.steps is None:
            # CPU is measured around the slices only (not simulator
            # construction), so critical-path projections stay
            # comparable with the legacy shard workers.
            simulator = scenarios.build_simulator(task.spec)
            slot.steps = simulator.run_synced(task.satellite_ids)
        cpu_started = time.process_time()
        if not shard:
            with trace.span("spec_task"):
                result = scenarios.run_scenario(task.spec)
        else:
            with trace.span("shard_task"):
                try:
                    slot.epoch, ingests, marks = slot.steps.send(slot.merged)
                except StopIteration as stop:
                    result = stop.value
                else:
                    result = None
        slot.cpu_seconds += time.process_time() - cpu_started
        if result is not None:
            finish(slot, result)
            return
        slot.merged = None
        result_queue.put(
            Epoch(worker_id, task.task_id, slot.epoch, ingests, marks)
        )

    while True:
        while not ready or conn.poll():
            if ready or not resident:
                message = conn.recv()
            else:
                # Every resident task waits at its barrier: the only time
                # this worker idles while it hosts work.
                trace.reset_context()
                trace.set_context(worker=worker_id)
                waited = time.perf_counter()
                with trace.span("barrier_wait"):
                    message = conn.recv()
                metrics.counters().inc(
                    "sched.barrier_idle_s", time.perf_counter() - waited
                )
            if message is None:
                conn.close()
                return
            if isinstance(message, Merged):
                slot = resident[message.task_id]
                slot.merged = (message.ingests, message.marks)
            else:
                if message.trace and trace.active_tracer() is None:
                    trace.enable_tracer()
                slot = resident[message.task_id] = _Resident(message)
            ready.append(slot)
        slot = ready.popleft()
        try:
            run_slice(slot)
        except Exception:
            resident.pop(slot.task.task_id, None)
            result_queue.put(
                Failed(worker_id, slot.task.task_id, traceback.format_exc())
            )


class _Outbox:
    """The driver's sending end of one worker pipe, fed by its own thread.

    The driver must never block on a busy worker: a merged journal can
    be megabytes, more than the pipe's buffer holds, so a plain
    ``send`` would wait until the worker finishes its current slice and
    reads.  :meth:`put` pickles the payload in the caller's thread and
    queues the bytes, and one thread writes them in order; the worker's
    ``recv`` unpickles them as usual.  (Pickled on the feeder thread
    instead, the journals cost the driver about 0.1 s more system CPU
    per sweep of perfbench's constellation specs on a 2-vCPU host.)  A
    write that fails (the worker is gone and its end closed) ends the
    thread and stays in :attr:`error`; later payloads are dropped.
    """

    _STOP = object()

    def __init__(self, conn) -> None:
        self.conn = conn
        self.error: OSError | None = None
        self._queue: queue_mod.SimpleQueue = queue_mod.SimpleQueue()
        self._thread = threading.Thread(target=self._feed, daemon=True)
        self._thread.start()

    def _feed(self) -> None:
        while True:
            payload = self._queue.get()
            if payload is self._STOP:
                return
            try:
                self.conn.send_bytes(payload)
            except OSError as exc:
                self.error = exc
                return

    def put(self, payload) -> None:
        self._queue.put(ForkingPickler.dumps(payload))

    def close(self, timeout: float | None = None) -> None:
        """Send everything queued so far, then end the thread."""
        self._queue.put(self._STOP)
        self._thread.join(timeout)


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
    #: epoch -> shard_index -> the member's :class:`Epoch` record
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

        Shard gangs are ordered ahead of spec tasks so gangs claim worker
        slots early (a second gang fills the time the first waits at its
        barriers) and spec tasks take the workers left empty; dispatch
        is first-fit over this order.  Ordering is pure
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
                time of the task's run (summed over its slices, so
                barrier waits are not in it).
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
        # Feeder threads start after the last fork: no worker is forked
        # from a threaded driver.
        outboxes = [_Outbox(conn) for conn in conns]

        tasks_by_id = {
            task.task_id: task for unit in units for task in unit.tasks
        }
        pending_units = list(units)
        groups: dict[int, _GroupState] = {
            unit.tasks[0].spec_index: _GroupState(size=unit.size)
            for unit in units
            if unit.tasks[0].kind == "shard"
        }
        #: worker_id -> ids of the tasks it hosts, in admission order
        resident: list[list[int]] = [[] for _ in range(pool_size)]
        #: (dataset key, shard index) -> worker that last ran that shard
        last_worker: dict[tuple, int] = {}
        completed = 0
        failed = False

        def load(worker_id: int) -> int:
            return sum(tasks_by_id[t].slots for t in resident[worker_id])

        def worker_died(worker_id: int) -> ScenarioError:
            process = processes[worker_id]
            process.join(timeout=1.0)  # reap it, for the exit code
            detail = (
                f"worker died without a result "
                f"(exit code {process.exitcode})"
            )
            if not resident[worker_id]:
                return ScenarioError(f"sweep worker {worker_id} {detail}")
            first, *others = (tasks_by_id[t] for t in resident[worker_id])
            if others:
                detail += "; it also hosted " + ", ".join(
                    f"scenario {task.spec.resolved_label()!r} shard "
                    f"{task.shard_index} of {task.shard_count}"
                    for task in others
                )
            return self._task_failure(first, detail)

        def send(worker_id: int, payload) -> None:
            outbox = outboxes[worker_id]
            if outbox.error is not None:  # the worker is gone
                raise worker_died(worker_id) from outbox.error
            outbox.put(payload)

        def dispatch() -> None:
            # First-fit over the pending units (gangs first).  A unit
            # goes out only when each of its tasks finds a distinct
            # worker with room (a spec task needs an empty worker); it
            # takes the least-loaded such workers, ties to the lower id,
            # in ascending id order.  Every gang member is resident from
            # here to its end, which keeps the barrier rendezvous
            # deadlock-free.
            index = 0
            while index < len(pending_units):
                unit = pending_units[index]
                need = unit.tasks[0].slots
                room = [
                    worker_id
                    for worker_id in range(pool_size)
                    if load(worker_id) + need <= MAX_RESIDENT
                ]
                if unit.size > len(room):
                    index += 1
                    continue
                del pending_units[index]
                chosen = sorted(
                    sorted(room, key=lambda w: (load(w), w))[: unit.size]
                )
                for task, worker_id in zip(unit.tasks, chosen):
                    resident[worker_id].append(task.task_id)
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
                for member in posted:
                    send(
                        member.worker_id,
                        Merged(member.task_id, ingests, marks),
                    )

        def task_done(message: Done) -> None:
            task = tasks_by_id[message.task_id]
            resident[message.worker_id].remove(task.task_id)
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
                    task = tasks_by_id[message.task_id]
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
                        tasks_by_id[message.task_id], message.detail
                    )
            for worker_id in range(pool_size):
                send(worker_id, None)
            for worker_id, outbox in enumerate(outboxes):
                outbox.close()
                if outbox.error is not None:
                    raise worker_died(worker_id) from outbox.error
        except BaseException:
            failed = True
            raise
        finally:
            if failed:
                # Workers may be blocked at an epoch barrier that will
                # never resolve; a clean drain is impossible.  Terminate
                # before closing the pipes, so no worker wakes to an
                # end-of-file on its pipe; a feeder thread still sending
                # then fails and ends.
                for process in processes:
                    process.terminate()
                for process in processes:
                    process.join(timeout=5.0)
                    if process.is_alive():
                        process.kill()
                        process.join()
                for outbox in outboxes:
                    outbox.close(timeout=5.0)
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
