"""Scenario orchestration: declarative simulation specs + batch execution.

A :class:`ScenarioSpec` names everything one simulation run needs — dataset,
policy, config, uplink budget, fluctuation, seed — as plain picklable data.
:func:`run_scenario` turns one spec into a
:class:`~repro.core.accounting.RunResult`; :func:`run_scenarios` executes a
batch through :class:`~repro.analysis.scheduler.SweepScheduler`, in this
process or over its persistent worker pool (whole scenarios and scenario
shards share one pool).  Every experiment driver (the
figure sweeps, the CLI, ad-hoc notebooks) goes through this one path, so
all comparisons share detectors, codec, and scoring.

Determinism is the contract: a scenario's result depends only on its spec,
never on which worker ran it or what ran before — datasets are rebuilt from
their specs inside workers, detector training is seeded and memoized, and
the ground segment's RNG streams are derived from the spec's seed.  A
process-parallel batch is therefore byte-identical to running the same
specs sequentially.

Warm state rides on that determinism: because :meth:`DatasetSpec.build`
memoizes per process, every scenario of a sweep that names the same spec
shares one set of ``EarthModel``/``CloudModel``/sensor objects — and with
them the warm-state capture/surface caches and the schedule's memoized
visit ordering (see docs/architecture.md, "Simulation fast path").  The first run of a sweep pays full imagery
synthesis; subsequent policies/seeds over the same dataset re-observe
cached captures.  The caches never change results (differential-tested);
they only remove redundant recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro import perf
from repro.baselines.kodan import KodanPolicy
from repro.baselines.naive import NaivePolicy
from repro.baselines.satroi import SatRoIPolicy
from repro.core.accounting import RunResult
from repro.core.cloud import train_ground_detector, train_onboard_detector
from repro.core.config import EarthPlusConfig
from repro.core.ground_segment import GroundSegment
from repro.core.system import ConstellationSimulator, EarthPlusPolicy
from repro.datasets.generator import SyntheticDataset
from repro.datasets.planet import planet_dataset
from repro.datasets.sentinel2 import sentinel2_dataset
from repro.errors import ConfigError, ScenarioError
from repro.orbit.links import FluctuationModel

POLICY_NAMES = ("earthplus", "kodan", "satroi", "naive")

#: Table-1 uplink capacity of one ground contact (250 kbps x 600 s), the
#: value a ``ScenarioSpec`` with ``uplink_bytes_per_contact=None`` runs
#: with — shared with the store's spec hashing so explicit-default and
#: implicit-default specs resolve to one content key.
DEFAULT_UPLINK_BYTES_PER_CONTACT = int(250e3 * 600 / 8)

#: Table-1 downlink capacity of one ground contact (200 Mbps x 600 s),
#: the value a ``ScenarioSpec`` with ``downlink_bytes_per_contact=None``
#: runs with.  At this capacity our laptop-scale scenarios never shed a
#: layer, so defaulted runs stay byte-identical to unconstrained ones.
DEFAULT_DOWNLINK_BYTES_PER_CONTACT = int(200e6 * 600 / 8)

#: Dataset builders a :class:`DatasetSpec` may name.
DATASET_BUILDERS = {
    "sentinel2": sentinel2_dataset,
    "planet": planet_dataset,
}

#: Built datasets memoized per process, keyed by canonical spec.  Bounded:
#: sweeps over many distinct specs (e.g. constellation sizes) would
#: otherwise grow resident memory without limit in long-lived processes.
# repro: allow(RPR005): per-process memo of deterministically-built datasets — a key rebuilds to a bit-identical dataset in any process, so worker copies can never disagree with the driver
_DATASET_CACHE: dict[tuple, SyntheticDataset] = {}
_DATASET_CACHE_MAX = 8


def _canonical(value):
    """Recursively convert lists/dicts to hashable tuples for cache keys."""
    if isinstance(value, dict):
        return tuple(
            (k, _canonical(v)) for k, v in sorted(value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


@dataclass(frozen=True)
class DatasetSpec:
    """A dataset named by builder + keyword arguments, built on demand.

    Rebuilding from the spec (rather than shipping a built dataset) is what
    lets scenario batches run in worker processes while staying
    deterministic; construction is memoized per process.

    Attributes:
        kind: Builder name (a key of :data:`DATASET_BUILDERS`).
        params: Canonicalized keyword arguments for the builder.
    """

    kind: str
    params: tuple = ()

    @classmethod
    def of(cls, kind: str, **params) -> "DatasetSpec":
        """Build a spec from plain keyword arguments."""
        if kind not in DATASET_BUILDERS:
            raise ConfigError(
                f"unknown dataset kind {kind!r}; "
                f"expected one of {tuple(DATASET_BUILDERS)}"
            )
        return cls(kind=kind, params=_canonical(params))

    def build(self) -> SyntheticDataset:
        """The described dataset (memoized per process)."""
        key = (self.kind, self.params)
        dataset = _DATASET_CACHE.get(key)
        if dataset is None:
            kwargs = {
                name: list(value) if isinstance(value, tuple) else value
                for name, value in self.params
            }
            # Image shapes arrive as tuples and must stay tuples.
            if "image_shape" in kwargs:
                kwargs["image_shape"] = tuple(kwargs["image_shape"])
            dataset = DATASET_BUILDERS[self.kind](**kwargs)
            while len(_DATASET_CACHE) >= _DATASET_CACHE_MAX:
                _DATASET_CACHE.pop(next(iter(_DATASET_CACHE)))
            _DATASET_CACHE[key] = dataset
        return dataset


@dataclass
class ScenarioSpec:
    """Everything one simulation run needs, as plain data.

    Attributes:
        policy: One of :data:`POLICY_NAMES`.
        dataset: A :class:`DatasetSpec` (preferred: rebuildable in worker
            processes) or an already-built dataset.
        config: Earth+ tunables (None = defaults; shared knobs also steer
            baselines).
        uplink_bytes_per_contact: Override the Table-1 default uplink
            capacity (only Earth+ uses the uplink).
        downlink_bytes_per_contact: Override the Table-1 default downlink
            capacity (all policies compete for contact capacity; small
            values engage quality-layer shedding).
        fluctuation: Optional per-contact bandwidth fluctuation model
            (shared by both links; each link draws its own stream).
        downlink_severity: When > 0, the downlink fluctuates with this
            log-space sigma even if ``fluctuation`` is None (the model is
            derived deterministically: the shared fluctuation's seed when
            present, else this spec's ``seed``).
        ground_detector_for_scoring: Whether the ground re-screens
            downloads with the accurate detector before mosaic ingest.
        seed: Ground-segment seed (random update skipping).
        label: Optional display name for tables and sweep output.
        extras: Free-form annotations carried through to sweep rows
            (e.g. the swept parameter value).
    """

    policy: str
    dataset: DatasetSpec | SyntheticDataset
    config: EarthPlusConfig | None = None
    uplink_bytes_per_contact: int | None = None
    downlink_bytes_per_contact: int | None = None
    fluctuation: FluctuationModel | None = None
    downlink_severity: float = 0.0
    ground_detector_for_scoring: bool = True
    seed: int = 0
    label: str | None = None
    extras: dict = field(default_factory=dict)

    def downlink_fluctuation(self) -> FluctuationModel | None:
        """The fluctuation model the downlink phase should draw from.

        ``downlink_severity > 0`` derives a dedicated model (seeded from
        the shared fluctuation when present, else from ``seed``) so the
        downlink can degrade harder than the uplink; otherwise the shared
        model serves both links via its per-link streams.
        """
        if self.downlink_severity > 0.0:
            base = self.fluctuation
            return FluctuationModel(
                seed=base.seed if base is not None else self.seed,
                severity=self.downlink_severity,
                floor=base.floor if base is not None else 0.2,
                ceiling=base.ceiling if base is not None else 1.5,
            )
        return self.fluctuation

    def resolved_label(self) -> str:
        """The display label (defaults to ``policy/seed<seed>``)."""
        return self.label if self.label else f"{self.policy}/seed{self.seed}"


def build_policy_factory(
    policy: str,
    config: EarthPlusConfig,
    bands,
    image_shape: tuple[int, int],
):
    """Per-satellite policy factory for one named policy.

    The cheap on-board and accurate ground detectors are trained (memoized)
    here so every scenario shares identical detector state.
    """
    if policy not in POLICY_NAMES:
        raise ConfigError(
            f"unknown policy {policy!r}; expected one of {POLICY_NAMES}"
        )
    cheap = train_onboard_detector(bands, tile_size=config.tile_size)
    accurate = train_ground_detector(bands)

    def factory(satellite_id: int):
        if policy == "earthplus":
            return EarthPlusPolicy(config, bands, image_shape, cheap)
        if policy == "kodan":
            return KodanPolicy(config, bands, image_shape, accurate)
        if policy == "satroi":
            return SatRoIPolicy(config, bands, image_shape, cheap)
        return NaivePolicy(config, bands, image_shape)

    return factory


def build_simulator(
    spec: ScenarioSpec, dataset: SyntheticDataset | None = None
) -> ConstellationSimulator:
    """The fully-wired simulator one spec describes.

    Shared by :func:`run_scenario` (which runs it whole) and the sweep
    scheduler's shard tasks (where every worker builds the same
    simulator and runs only its satellites), so both paths resolve
    datasets, detectors, budgets, and fluctuation models through
    identical code.

    Args:
        spec: The scenario description.
        dataset: The spec's already-built dataset, when the caller has
            one (e.g. it partitioned satellites from it); None builds
            (or cache-hits) from the spec.

    Raises:
        ConfigError: For unknown policy or dataset names.
    """
    if dataset is None:
        dataset = (
            spec.dataset.build()
            if isinstance(spec.dataset, DatasetSpec)
            else spec.dataset
        )
    config = spec.config if spec.config is not None else EarthPlusConfig()
    factory = build_policy_factory(
        spec.policy, config, dataset.bands, dataset.image_shape
    )
    ground = GroundSegment(
        config=config,
        bands=dataset.bands,
        image_shape=dataset.image_shape,
        ground_detector=(
            train_ground_detector(dataset.bands)
            if spec.ground_detector_for_scoring
            else None
        ),
        seed=spec.seed,
    )
    return ConstellationSimulator(
        sensors=dataset.sensors,
        bands=dataset.bands,
        schedule=dataset.schedule,
        image_shape=dataset.image_shape,
        config=config,
        policy_factory=factory,
        ground_segment=ground,
        uplink_bytes_per_contact=(
            spec.uplink_bytes_per_contact
            if spec.uplink_bytes_per_contact is not None
            else DEFAULT_UPLINK_BYTES_PER_CONTACT
        ),
        downlink_bytes_per_contact=(
            spec.downlink_bytes_per_contact
            if spec.downlink_bytes_per_contact is not None
            else DEFAULT_DOWNLINK_BYTES_PER_CONTACT
        ),
        fluctuation=spec.fluctuation,
        downlink_fluctuation=spec.downlink_fluctuation(),
    )


def run_scenario(
    spec: ScenarioSpec, dataset: SyntheticDataset | None = None
) -> RunResult:
    """Execute one scenario and return its aggregated result.

    Args:
        spec: The scenario description.
        dataset: The spec's already-built dataset, if the caller holds
            one — avoids a redundant build when e.g. the sharded runner
            built it to partition satellites and then fell back to a
            whole-scenario run.

    Returns:
        The run's :class:`RunResult`.

    Raises:
        ConfigError: For unknown policy or dataset names.
    """
    return build_simulator(spec, dataset=dataset).run()


def _shard_failure(
    spec: ScenarioSpec, shard_index: int, shard_count: int, detail: str
) -> ScenarioError:
    """Wrap a shard-worker failure naming the scenario and the shard."""
    return ScenarioError(
        f"scenario {spec.resolved_label()!r} failed in shard "
        f"{shard_index} of {shard_count}: {detail}"
    )


def _require_epoch_sync(spec: ScenarioSpec) -> None:
    """Refuse to shard a spec whose config has no ``ground_sync_days``.

    The sweep scheduler checks every spec of a sweep that asks for
    shards, whether or not its plan splits that spec.

    Raises:
        ConfigError: The spec's config has no sync cadence.
    """
    config = spec.config if spec.config is not None else EarthPlusConfig()
    if config.ground_sync_days <= 0:
        raise ConfigError(
            "sharded execution requires epoch-synchronized ground state: "
            "set config.ground_sync_days > 0 (e.g. 1.0). The sync cadence "
            "is part of the scenario's semantics; the shard count is not."
        )


def _shardable_buckets(
    spec: ScenarioSpec, shards: int
) -> tuple[SyntheticDataset, list[list[int]] | None]:
    """Build (or cache-hit) a spec's dataset and partition its satellites.

    Returns:
        ``(dataset, buckets)``.  ``buckets`` is None when the partition
        collapsed to a single bucket and the scenario should run whole;
        the built dataset rides along so that run needn't build it again.
    """
    dataset = (
        spec.dataset.build()
        if isinstance(spec.dataset, DatasetSpec)
        else spec.dataset
    )
    buckets = dataset.schedule.partition_satellites(shards)
    if len(buckets) <= 1:
        return dataset, None
    return dataset, buckets


def run_scenario_sharded(
    spec: ScenarioSpec,
    shards: int | None = None,
    task_sink: Callable | None = None,
) -> RunResult:
    """Execute one scenario sharded across worker processes.

    Satellites are partitioned into ``shards`` balanced buckets (see
    :meth:`~repro.orbit.schedule.VisitSchedule.partition_satellites`);
    each worker runs the full phase pipeline over its bucket against its
    own ground segment, shards exchange ground-state journals at every
    ``ground_sync_days`` epoch boundary, and the per-shard
    :class:`RunResult` partials fold together with
    :meth:`RunResult.merge`.  The merged result is pickle-byte-identical
    to ``shards=1`` (differential-tested): the journal protocol makes
    ground state a pure function of the epoch's merged writes, and the
    merge re-sorts records into canonical visit order.  The
    :class:`~repro.analysis.scheduler.SweepScheduler` runs the gang; a
    scenario that yields one bucket runs whole, in this process.

    Args:
        spec: The scenario description.  Its config must set
            ``ground_sync_days > 0`` when ``shards > 1``; the legacy
            continuous ground model has no consistent satellite
            partition.
        shards: Shard count (None reads ``REPRO_SIM_SHARDS``, default
            1).
        task_sink: Optional per-task hook ``(task, cpu_seconds)`` (see
            :meth:`~repro.analysis.scheduler.SweepScheduler.run`); a
            shard task carries its ``shard_index``.

    Returns:
        The merged :class:`RunResult`.

    Raises:
        ConfigError: For ``shards < 1`` or a spec without
            ``ground_sync_days``.
        ScenarioError: When the scenario fails; the message names the
            scenario label (and the shard index for a shard failure),
            with the worker's traceback inline.
    """
    from repro.analysis.scheduler import SweepScheduler

    if shards is None:
        shards = perf.sim_shards()
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    scheduler = SweepScheduler(workers=shards, shards_per_scenario=shards)
    return scheduler.run([spec], task_sink=task_sink)[0]


def _batch_error(spec: ScenarioSpec, index: int, exc: Exception) -> ScenarioError:
    """Wrap a worker failure so the batch caller learns which spec died."""
    return ScenarioError(
        f"scenario {spec.resolved_label()!r} (spec {index + 1} of a batch) "
        f"failed: {exc}"
    )


def run_scenarios(
    specs: Sequence[ScenarioSpec],
    max_workers: int | None = None,
    on_result: Callable[[int, ScenarioSpec, RunResult], None] | None = None,
    shards: int | None = None,
    progress=None,
) -> list[RunResult]:
    """Execute a batch of scenarios, optionally process-parallel.

    Results are returned in spec order and are byte-identical to running
    :func:`run_scenario` on each spec sequentially — workers rebuild
    datasets and detectors deterministically from the specs, and the
    sweep scheduler only decides when work runs, never what merges.

    The two parallelism axes compose: ``max_workers`` sizes one
    persistent worker pool (see
    :class:`~repro.analysis.scheduler.SweepScheduler`) and ``shards``
    splits scenarios into shard tasks over the *same* pool, but only
    when the batch has fewer specs than workers: each spec then takes
    ``min(shards, workers // len(specs))`` shard tasks.  A batch with
    at least as many specs as workers runs every spec whole, one task
    per worker at a time, which keeps every worker busy without epoch
    barriers.  A lone spec sizes the pool to at least ``shards``, as
    :func:`run_scenario_sharded` does; a batch of several specs takes
    its pool size from ``max_workers`` alone.

    Prefer :class:`DatasetSpec` over a prebuilt dataset for batches: specs
    hit the per-process dataset cache, so every scenario a worker runs
    over the same dataset reuses one warm set of models, sensors, caches,
    and the precomputed visit ordering.  A prebuilt dataset is pickled
    per task and arrives cold in each worker.

    Args:
        specs: The scenarios to run.
        max_workers: Worker-pool size.  None reads ``REPRO_SIM_WORKERS``
            (default 1).  The scheduler runs the batch in this process
            when a pool could only hold one task (one worker, or one
            unsharded spec).
        on_result: Optional streaming hook called as each scenario lands
            (in completion order, which under parallel workers is not spec
            order) with ``(spec_index, spec, result)``.  The experiment
            store persists results through this hook, so everything that
            finished before a failure survives the batch.
        shards: When > 1, split each scenario into up to this many
            shard tasks if the batch has fewer specs than workers
            (every spec must set ``config.ground_sync_days > 0`` either
            way; see :func:`run_scenario_sharded` for the
            single-scenario entry point).  None reads
            ``REPRO_SIM_SHARDS`` (default 1).
        progress: Optional :class:`~repro.obs.progress.SweepProgress`
            (or duck-type) receiving task/spec completion callbacks.
            Display-only; results are byte-invariant to it.

    Returns:
        One :class:`RunResult` per spec, in order.

    Raises:
        ConfigError: For invalid ``max_workers``/``shards``, or
            ``shards > 1`` against a spec without epoch-synchronized
            ground state.
        ScenarioError: When any scenario fails.  The message names the
            failing spec's ``resolved_label()`` (plus the shard index
            for shard-task failures) with the worker's traceback
            inline.  Scenarios that completed before the failure was
            observed have already been delivered to ``on_result``.
    """
    if max_workers is not None and max_workers < 1:
        raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
    workers = max_workers if max_workers is not None else perf.sim_workers()
    if shards is None:
        shards = perf.sim_shards()
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    from repro.analysis.scheduler import SweepScheduler

    scheduler = SweepScheduler(
        workers=workers if len(specs) > 1 else max(workers, shards),
        shards_per_scenario=shards,
    )
    return scheduler.run(specs, on_result=on_result, progress=progress)


def sweep_specs(
    dataset: DatasetSpec | SyntheticDataset,
    policies: Iterable[str] = ("earthplus",),
    seeds: Iterable[int] = (0,),
    gammas: Iterable[float] | None = None,
    base_config: EarthPlusConfig | None = None,
    uplink_bytes_per_contact: int | None = None,
    downlink_bytes_per_contact: int | None = None,
    fluctuation: FluctuationModel | None = None,
    downlink_severity: float = 0.0,
) -> list[ScenarioSpec]:
    """The policies x seeds x gammas cross-product as scenario specs.

    Args:
        dataset: Dataset (spec or built) every scenario shares.
        policies: Policy names to sweep.
        seeds: Ground-segment seeds to sweep.
        gammas: Bits-per-pixel settings to sweep (None = the base config's).
        base_config: Config the gamma overrides apply to.
        uplink_bytes_per_contact: Optional shared uplink override.
        downlink_bytes_per_contact: Optional shared downlink override.
        fluctuation: Optional shared fluctuation model.
        downlink_severity: Optional downlink-only fluctuation severity.

    Returns:
        Labelled specs in (gamma, policy, seed) order.
    """
    base = base_config if base_config is not None else EarthPlusConfig()
    gamma_list = list(gammas) if gammas is not None else [base.gamma_bpp]
    specs = []
    for gamma in gamma_list:
        config = base.with_overrides(gamma_bpp=gamma)
        for policy in policies:
            for seed in seeds:
                specs.append(
                    ScenarioSpec(
                        policy=policy,
                        dataset=dataset,
                        config=config,
                        uplink_bytes_per_contact=uplink_bytes_per_contact,
                        downlink_bytes_per_contact=downlink_bytes_per_contact,
                        fluctuation=fluctuation,
                        downlink_severity=downlink_severity,
                        seed=seed,
                        label=f"{policy}/g{gamma:g}/s{seed}",
                        extras={"gamma": gamma, "seed": seed},
                    )
                )
    return specs
