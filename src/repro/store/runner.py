"""Cache-aware scenario execution: lookups, streaming writes, resume.

:func:`run_scenarios_cached` is the store-backed twin of
:func:`~repro.analysis.scenarios.run_scenarios`: specs already in the
store are pure reads, the rest are simulated (optionally
process-parallel) and persisted *as each result lands* through the batch
runner's streaming ``on_result`` hook.  That streaming commit is what
makes sweeps resumable: when a batch dies midway — a failing spec, a
kill signal between scenarios — everything that finished is already on
disk, and re-running the same sweep (``repro sweep --resume``) executes
only the specs still missing.  No bookkeeping beyond the content
address is needed; "resume" and "warm cache" are the same mechanism.

Uncacheable specs (built datasets, custom fluctuation subclasses) run
exactly as before and simply bypass the store, so every existing caller
can be wired through this layer unconditionally.
"""

from __future__ import annotations

import sqlite3
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import repro.analysis.scenarios as scenarios
from repro.analysis.scenarios import ScenarioSpec, run_scenarios
from repro.core.accounting import RunResult
from repro.errors import StoreError, UncacheableSpecError
from repro.store.backend import ExperimentStore, default_store

#: Sentinel default for ``store=`` parameters: resolve the store from the
#: environment (``REPRO_STORE``).  Pass None to bypass the store, or an
#: :class:`ExperimentStore` to use one explicitly.
ENV_DEFAULT = object()

#: Caching is best-effort: a failed write from any of these (serialization,
#: disk full, an index lock held past the busy timeout) downgrades to a
#: warning — the simulation result is already in hand.
_WRITE_ERRORS = (StoreError, OSError, sqlite3.Error)


def _resolve(store) -> ExperimentStore | None:
    return default_store() if store is ENV_DEFAULT else store


@dataclass
class CachedSweep:
    """Outcome of one cache-aware batch.

    Attributes:
        results: One :class:`RunResult` per spec, in spec order.
        keys: Per-spec content key (None for uncacheable specs).
        cached: Indices served from the store without simulating.
        executed: Indices whose scenario was actually simulated this
            batch (one representative per distinct content key).
        deduplicated: Indices that shared a content key with an executed
            representative and received its result without simulating.
        uncacheable: Indices that bypassed the store entirely.
    """

    results: list[RunResult]
    keys: list[str | None] = field(default_factory=list)
    cached: tuple[int, ...] = ()
    executed: tuple[int, ...] = ()
    deduplicated: tuple[int, ...] = ()
    uncacheable: tuple[int, ...] = ()

    def summary(self) -> str:
        """One status line: how the batch split between cache and compute."""
        parts = [
            f"{len(self.cached)} reused",
            f"{len(self.executed)} simulated",
        ]
        if self.deduplicated:
            parts.append(f"{len(self.deduplicated)} duplicate")
        if self.uncacheable:
            parts.append(f"{len(self.uncacheable)} uncacheable")
        return ", ".join(parts)


def run_scenarios_cached(
    specs: Sequence[ScenarioSpec],
    max_workers: int | None = None,
    store: ExperimentStore | None = ENV_DEFAULT,  # type: ignore[assignment]
    refresh: bool = False,
    shards: int | None = None,
    progress=None,
) -> CachedSweep:
    """Execute a batch through the experiment store.

    Results are byte-identical to :func:`run_scenarios` on the same
    specs: cache hits were persisted by an earlier identical run (same
    content key, same deterministic simulation) and round-trip exactly.
    Duplicate specs within one batch are simulated once and fanned out.

    Args:
        specs: The scenarios to run.
        max_workers: Worker-pool size for the specs that must simulate
            (composes with ``shards`` over one pool; see
            :func:`~repro.analysis.scenarios.run_scenarios`).
        store: An :class:`ExperimentStore`, None to bypass caching, or
            :data:`ENV_DEFAULT` to resolve from ``REPRO_STORE``.
        refresh: Ignore existing entries and re-simulate everything
            (results still persist, overwriting).
        shards: When > 1, shard each simulated scenario across worker
            processes (see
            :func:`~repro.analysis.scenarios.run_scenario_sharded`).
            The shard count never enters content keys — a sharded run
            hits, and is hit by, sequential entries.
        progress: Optional :class:`~repro.obs.progress.SweepProgress`
            (or duck-type); cache hits report through ``add_cached``,
            simulated specs through the scheduler's task callbacks.

    Returns:
        The :class:`CachedSweep` (``.results`` is the per-spec list).

    Raises:
        ScenarioError: When any simulated scenario fails.  Scenarios that
            completed first are already persisted, so a re-run resumes.
    """
    specs = list(specs)
    store = _resolve(store)
    keys: list[str | None] = []
    for spec in specs:
        if store is None:
            keys.append(None)
            continue
        try:
            keys.append(store.key_for(spec))
        except UncacheableSpecError:
            keys.append(None)
    results: list[RunResult | None] = [None] * len(specs)
    cached: list[int] = []
    if store is not None and not refresh:
        # One batched presence query for the whole sweep (the hit-scan
        # used to issue a sequential store.get round-trip per spec).
        loaded = store.get_many(key for key in keys if key is not None)
        for index, key in enumerate(keys):
            if key is not None and loaded[key] is not None:
                results[index] = loaded[key]
                cached.append(index)
        if progress is not None and cached:
            progress.add_cached(len(cached))
    # One representative spec per missing content key (duplicates share
    # its result); every uncacheable spec runs individually.
    pending: list[int] = []
    seen_keys: set[str] = set()
    for index, key in enumerate(keys):
        if results[index] is not None:
            continue
        if key is not None:
            if key in seen_keys:
                continue
            seen_keys.add(key)
        pending.append(index)

    def persist(batch_index: int, spec: ScenarioSpec, result: RunResult) -> None:
        index = pending[batch_index]
        results[index] = result
        key = keys[index]
        if store is None or key is None:
            return
        try:
            store.put(spec, result, key=key)
        except _WRITE_ERRORS as exc:
            warnings.warn(
                f"experiment store write failed for "
                f"{spec.resolved_label()!r}: {exc}",
                stacklevel=2,
            )

    run_scenarios(
        [specs[index] for index in pending],
        max_workers=max_workers,
        on_result=persist,
        shards=shards,
        progress=progress,
    )
    # Fan shared-key results out to duplicate specs.
    by_key = {
        keys[index]: results[index]
        for index in pending
        if keys[index] is not None
    }
    deduplicated = []
    for index, key in enumerate(keys):
        if results[index] is None and key is not None:
            results[index] = by_key[key]
            deduplicated.append(index)
    if progress is not None and deduplicated:
        # Duplicates land like cache hits: complete without simulating.
        progress.add_cached(len(deduplicated))
    return CachedSweep(
        results=results,  # type: ignore[arg-type]
        keys=keys,
        cached=tuple(cached),
        executed=tuple(pending),
        deduplicated=tuple(deduplicated),
        uncacheable=tuple(i for i, key in enumerate(keys) if key is None),
    )


def run_scenario_cached(
    spec: ScenarioSpec,
    store: ExperimentStore | None = ENV_DEFAULT,  # type: ignore[assignment]
    refresh: bool = False,
    shards: int | None = None,
) -> RunResult:
    """The cached analog of :func:`~repro.analysis.scenarios.run_scenario`.

    Unlike the batch runner, failures propagate unwrapped — exactly as
    ``run_scenario`` raises them — so single-run callers
    (:func:`~repro.analysis.experiments.run_policy`, ``repro simulate``)
    keep their original exception contracts.  ``shards > 1`` simulates
    through :func:`~repro.analysis.scenarios.run_scenario_sharded`;
    because sharding never changes bytes, the persisted entry is
    indistinguishable from a sequential run's.
    """
    store = _resolve(store)
    key = None
    if store is not None:
        try:
            key = store.key_for(spec)
        except UncacheableSpecError:
            key = None
    if key is not None and not refresh:
        hit = store.get(key)
        if hit is not None:
            return hit
    if shards is not None and shards > 1:
        result = scenarios.run_scenario_sharded(spec, shards=shards)
    else:
        result = scenarios.run_scenario(spec)
    if key is not None:
        try:
            store.put(spec, result, key=key)
        except _WRITE_ERRORS as exc:
            warnings.warn(
                f"experiment store write failed for "
                f"{spec.resolved_label()!r}: {exc}",
                stacklevel=2,
            )
    return result
