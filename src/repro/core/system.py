"""End-to-end constellation simulation: every number in the paper's §6.

The :class:`ConstellationSimulator` replays a dataset's visit schedule in
time order.  It is a thin driver over the event-phase kernel in
:mod:`repro.core.phases`: each visit becomes a
:class:`~repro.core.phases.VisitEvent` that flows through the uplink,
capture, downlink and ingest phases, and the streaming
:class:`~repro.core.accounting.MetricsAccumulator` folds the completed
events into the :class:`~repro.core.accounting.RunResult`.

The same kernel drives Earth+ and every baseline — policies differ only in
what they choose to download — so comparisons share cloud fields, change
histories, illumination, codec, and scoring.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.accounting import (
    CaptureRecord,
    MetricCollector,
    MetricsAccumulator,
    RunResult,
)
from repro.core.cloud import CloudDetector
from repro.core.config import EarthPlusConfig
from repro.core.encoder import CaptureEncodeResult, EarthPlusEncoder
from repro.core.ground_segment import GroundSegment
from repro.core.phases import (
    CapturePhase,
    CompressionPolicy,
    ConstellationState,
    DownlinkPhase,
    IngestPhase,
    SimulationPhase,
    UplinkPhase,
    UplinkReceiver,
    VisitEvent,
)
from repro.core.reference import OnboardReferenceCache
from repro.errors import ConfigError
from repro.imagery.bands import Band
from repro.imagery.sensor import Capture, SatelliteSensor
from repro.obs import trace
from repro.orbit.links import FluctuationModel
from repro.orbit.schedule import VisitSchedule

__all__ = [
    "CompressionPolicy",
    "UplinkReceiver",
    "EarthPlusPolicy",
    "CaptureRecord",
    "RunResult",
    "ConstellationSimulator",
]


class EarthPlusPolicy:
    """Earth+ as a simulator policy: encoder + per-satellite cache."""

    uses_uplink = True

    def __init__(
        self,
        config: EarthPlusConfig,
        bands: tuple[Band, ...],
        image_shape: tuple[int, int],
        cloud_detector: CloudDetector,
    ) -> None:
        self.name = "earthplus"
        self.config = config
        lr_tile = max(1, config.tile_size // config.reference_downsample)
        self.cache = OnboardReferenceCache(lr_tile=lr_tile)
        self.encoder = EarthPlusEncoder(
            config=config,
            bands=bands,
            image_shape=image_shape,
            cloud_detector=cloud_detector,
            cache=self.cache,
        )

    def process(
        self, capture: Capture, guaranteed_due: bool
    ) -> CaptureEncodeResult:
        return self.encoder.process_capture(capture, guaranteed_due)

    def reference_storage_bytes(self) -> int:
        return self.cache.storage_bytes()

    def uplink_cache(self) -> OnboardReferenceCache:
        """The reference cache ground stations may write into (uplink)."""
        return self.cache


class ConstellationSimulator:
    """Replays a visit schedule under one compression policy.

    Args:
        sensors: Per-location capture sources.
        bands: Band set.
        schedule: The constellation's visit schedule.
        image_shape: Capture pixel shape.
        config: Earth+ tunables (tile size, guaranteed period, etc. — also
            honoured by baselines where applicable).
        policy_factory: Called once per satellite id to build its policy.
        ground_segment: Shared ground segment (mosaic + upload planning).
        uplink_bytes_per_contact: Uplink capacity per ground contact.  The
            default mirrors Table 1 (250 kbps x 600 s); experiments scale it
            to our image geometry when studying uplink pressure.
        downlink_bytes_per_contact: Downlink capacity per ground contact.
            The default mirrors Table 1 (200 Mbps x 600 s), which never
            constrains our laptop-scale scenarios — results are then
            byte-identical to an unconstrained run.  Smaller values engage
            quality-layer shedding; None disables the downlink phase
            entirely.
        contacts_per_day: Ground contacts per satellite per day.
        contact_duration_s: Seconds per contact.
        fluctuation: Optional per-contact bandwidth fluctuation (shared by
            both links; each draws from its own stream).
        downlink_fluctuation: Override the downlink's fluctuation model
            (None: share ``fluctuation``).
        max_uplink_accumulation_days: Cap on how much idle contact time
            can be banked between a satellite's visits (both links).
        collectors: Extra pluggable metrics observed per visit; their
            values land in ``RunResult.extra_metrics``.
    """

    def __init__(
        self,
        sensors: dict[str, SatelliteSensor],
        bands: tuple[Band, ...],
        schedule: VisitSchedule,
        image_shape: tuple[int, int],
        config: EarthPlusConfig,
        policy_factory: Callable[[int], CompressionPolicy],
        ground_segment: GroundSegment,
        uplink_bytes_per_contact: int = int(250e3 * 600 / 8),
        downlink_bytes_per_contact: int | None = int(200e6 * 600 / 8),
        contacts_per_day: int = 7,
        contact_duration_s: float = 600.0,
        fluctuation: FluctuationModel | None = None,
        downlink_fluctuation: FluctuationModel | None = None,
        max_uplink_accumulation_days: float = 2.0,
        collectors: Sequence[MetricCollector] = (),
    ) -> None:
        if uplink_bytes_per_contact < 0:
            raise ConfigError("uplink_bytes_per_contact must be >= 0")
        if (
            downlink_bytes_per_contact is not None
            and downlink_bytes_per_contact < 0
        ):
            raise ConfigError("downlink_bytes_per_contact must be >= 0")
        self.sensors = sensors
        self.bands = bands
        self.schedule = schedule
        self.image_shape = image_shape
        self.config = config
        self.policy_factory = policy_factory
        self.ground = ground_segment
        self.uplink_bytes_per_contact = uplink_bytes_per_contact
        self.downlink_bytes_per_contact = downlink_bytes_per_contact
        self.contacts_per_day = contacts_per_day
        self.contact_duration_s = contact_duration_s
        self.fluctuation = fluctuation
        self.downlink_fluctuation = (
            downlink_fluctuation
            if downlink_fluctuation is not None
            else fluctuation
        )
        self.max_uplink_accumulation_days = max_uplink_accumulation_days
        self.collectors = collectors

    def build_phases(self) -> list[SimulationPhase]:
        """The per-visit pipeline: uplink -> capture -> downlink -> ingest."""
        phases: list[SimulationPhase] = [
            UplinkPhase(
                ground=self.ground,
                uplink_bytes_per_contact=self.uplink_bytes_per_contact,
                contacts_per_day=self.contacts_per_day,
                fluctuation=self.fluctuation,
                max_accumulation_days=self.max_uplink_accumulation_days,
            ),
            CapturePhase(sensors=self.sensors, config=self.config),
        ]
        if self.downlink_bytes_per_contact is not None:
            phases.append(
                DownlinkPhase(
                    downlink_bytes_per_contact=self.downlink_bytes_per_contact,
                    contacts_per_day=self.contacts_per_day,
                    fluctuation=self.downlink_fluctuation,
                    max_accumulation_days=self.max_uplink_accumulation_days,
                )
            )
        phases.append(IngestPhase(ground=self.ground))
        return phases

    def run(
        self,
        satellite_ids: Sequence[int] | None = None,
        epoch_sync: Callable | None = None,
    ) -> RunResult:
        """Simulate the schedule (or one shard of it) and aggregate results.

        The global visit ordering is memoized on the schedule, so repeated
        runs over one dataset (policy comparisons, seed sweeps) sort it
        once instead of once per run.  When a tracer is installed (see
        :mod:`repro.obs.trace`) each phase of each visit records a span
        under the phase's name.

        With ``config.ground_sync_days > 0`` the run is
        epoch-synchronized (see :mod:`repro.core.sharding`): ground-state
        writes journal within each epoch and apply at epoch boundaries in
        canonical visit order.  That mode accepts two sharding hooks:

        Args:
            satellite_ids: Simulate only these satellites' visits (one
                shard of a partitioned run).  The epoch sequence still
                follows the full schedule, so every shard synchronizes
                the same number of times.  None simulates everything.
            epoch_sync: Called at every epoch boundary with
                ``(epoch_index, ingests, marks)`` — this shard's drained
                journal — and returns the merged ``(ingests, marks)`` to
                apply (the sharded runner's all-to-all exchange).  None
                applies the local journal directly; both paths sort
                canonically before applying, which is why a sequential
                synced run equals any sharded one byte-for-byte.

        Raises:
            ConfigError: When sharding hooks are passed without
                ``ground_sync_days`` (the legacy continuous mode has no
                consistent way to partition satellites).
        """
        if self.config.ground_sync_days > 0:
            return self._run_synced(satellite_ids, epoch_sync)
        if satellite_ids is not None or epoch_sync is not None:
            raise ConfigError(
                "sharded execution requires epoch-synchronized ground "
                "state; set config.ground_sync_days > 0 (e.g. 1.0)"
            )
        state = ConstellationState(self.policy_factory)
        phases = self.build_phases()
        metrics = self._build_metrics()
        for visit in self.schedule.all_visits_sorted():
            self._simulate_visit(visit, state, phases, metrics)
        return self._finalize(metrics)

    def _run_synced(
        self,
        satellite_ids: Sequence[int] | None,
        epoch_sync: Callable | None,
    ) -> RunResult:
        """The epoch-synchronized loop: simulate, drain, sync, apply."""
        from repro.core.sharding import (
            GroundJournal,
            apply_marks,
            canonical_ingests,
            canonical_marks,
            group_visits_by_epoch,
        )

        journal = GroundJournal()
        self.ground.enable_sync_journal(journal)
        state = ConstellationState(
            self.policy_factory, guarantee_journal=journal
        )
        phases = self.build_phases()
        metrics = self._build_metrics()
        own = None if satellite_ids is None else frozenset(satellite_ids)
        epochs = group_visits_by_epoch(
            self.schedule.all_visits_sorted(), self.config.ground_sync_days
        )
        try:
            for epoch, visits in epochs:
                trace.set_context(epoch=epoch)
                for visit in visits:
                    if own is not None and visit.satellite_id not in own:
                        continue
                    self._simulate_visit(visit, state, phases, metrics)
                ingests, marks = journal.drain()
                if epoch_sync is not None:
                    ingests, marks = epoch_sync(epoch, ingests, marks)
                else:
                    ingests = canonical_ingests(ingests)
                    marks = canonical_marks(marks)
                with trace.span("sync"):
                    self.ground.apply_ingests(ingests)
                    apply_marks(state._last_guaranteed, marks)
        finally:
            trace.clear_context("epoch")
        return self._finalize(metrics)

    def _simulate_visit(self, visit, state, phases, metrics) -> None:
        event = VisitEvent(
            visit=visit, state=state.for_satellite(visit.satellite_id)
        )
        for phase in phases:
            with trace.span(phase.name):
                phase.run(event)
        metrics.observe(event)

    def _build_metrics(self) -> MetricsAccumulator:
        return MetricsAccumulator(
            contacts_per_day=self.contacts_per_day,
            contact_duration_s=self.contact_duration_s,
            collectors=self.collectors,
        )

    def _finalize(self, metrics: MetricsAccumulator) -> RunResult:
        return metrics.finalize(
            horizon_days=self.schedule.horizon_days,
            uplink_bytes=self.ground.stats.bytes_sent,
            updates_skipped=self.ground.stats.updates_skipped,
            uplink_stats=self.ground.stats.as_run_stats(),
        )
