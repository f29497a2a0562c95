"""Event-phase simulation kernel: the simulator loop as composable phases.

The constellation simulation is an event loop over time-ordered visits.
Each visit flows through three independently-schedulable phases, every one
operating on an explicit :class:`VisitEvent` carrier instead of loop-local
variables:

1. :class:`UplinkPhase` — the ground segment spends the uplink budget
   accumulated since the satellite's previous visit on reference updates
   (only for policies that implement :class:`UplinkReceiver`);
2. :class:`CapturePhase` — the sensor produces the capture and the
   satellite's compression policy processes it on board;
3. :class:`DownlinkPhase` — the capture competes for the contact capacity
   accumulated since the previous visit; over-budget captures shed
   trailing quality layers, and what cannot fit at base quality is
   deferred (guaranteed downloads) or dropped;
4. :class:`IngestPhase` — the ground segment folds the downlinked result
   into the mosaic and scores reconstruction quality.

Per-satellite mutable state lives in :class:`SatelliteState`; what a phase
may touch is exactly what it is handed.  New scenario behaviour (link
outages, alternative contact models, extra bookkeeping) composes as a new
phase rather than an edit to a monolithic loop — the processor/accelerator
decoupling argument of Duet applied to the simulator itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.config import EarthPlusConfig
from repro.core.encoder import ALIGNMENT_BYTES, CaptureEncodeResult
from repro.core.ground_segment import GroundSegment, ScoreRecord, UplinkPlan
from repro.core.reference import OnboardReferenceCache
from repro.errors import PipelineError
from repro.imagery.sensor import Capture, SatelliteSensor
from repro.obs.metrics import counters
from repro.orbit.links import DOWNLINK_STREAM, FluctuationModel
from repro.orbit.schedule import Visit


class CompressionPolicy(Protocol):
    """What the simulator requires of an on-board compression policy."""

    name: str
    uses_uplink: bool

    def process(
        self, capture: Capture, guaranteed_due: bool
    ) -> CaptureEncodeResult:
        """Compress one capture, returning full byte/tile accounting."""
        ...

    def reference_storage_bytes(self) -> int:
        """Bytes of on-board storage devoted to reference imagery."""
        ...


@runtime_checkable
class UplinkReceiver(Protocol):
    """A policy that can receive reference updates over the uplink.

    The ground segment plans uploads against the cache this method exposes;
    it never reaches into policy internals.  Policies with
    ``uses_uplink = False`` are simply never asked.
    """

    def uplink_cache(self) -> OnboardReferenceCache:
        """The on-board reference cache the ground may write into."""
        ...


@dataclass
class SatelliteState:
    """Mutable per-satellite simulation state.

    Attributes:
        satellite_id: The satellite this state belongs to.
        policy: The satellite's compression policy (owns encoder + cache).
        last_visit_days: Time of the previous visit (uplink accumulation).
        contact_count: Ground contacts consumed so far (uplink fluctuation
            stream).
        last_downlink_days: Time of the previous visit as seen by the
            downlink phase (its capacity accumulation is independent of
            the uplink's, which only advances for uplink-using policies).
        downlink_contact_count: Downlink contacts consumed so far (the
            downlink fluctuation stream's per-satellite counter).
        last_guaranteed: Location -> time of the last guaranteed full
            download.  The guarantee is a *constellation-wide* promise per
            location, so every satellite's state shares one mapping
            instance.
    """

    satellite_id: int
    policy: CompressionPolicy
    last_visit_days: float = 0.0
    contact_count: int = 0
    last_downlink_days: float = 0.0
    downlink_contact_count: int = 0
    last_guaranteed: dict[str, float] = field(default_factory=dict)


class ConstellationState:
    """Lazily-built states of every satellite in the constellation.

    Args:
        policy_factory: Called once per satellite id to build its policy.
        guarantee_journal: When given (epoch-synchronized mode), each
            satellite's ``last_guaranteed`` becomes a
            :class:`~repro.core.sharding.GuaranteeView` over the shared
            ledger — reads see the last synchronized state, writes are
            journaled with the satellite's identity.  Without it every
            satellite shares the plain ledger dict directly (the legacy
            always-synchronized semantics).
    """

    def __init__(self, policy_factory, guarantee_journal=None) -> None:
        self._factory = policy_factory
        self._journal = guarantee_journal
        self._last_guaranteed: dict[str, float] = {}
        self.satellites: dict[int, SatelliteState] = {}

    def for_satellite(self, satellite_id: int) -> SatelliteState:
        """This satellite's state, building its policy on first visit."""
        state = self.satellites.get(satellite_id)
        if state is None:
            if self._journal is not None:
                from repro.core.sharding import GuaranteeView

                guaranteed = GuaranteeView(
                    self._last_guaranteed, self._journal, satellite_id
                )
            else:
                guaranteed = self._last_guaranteed
            state = SatelliteState(
                satellite_id=satellite_id,
                policy=self._factory(satellite_id),
                last_guaranteed=guaranteed,
            )
            self.satellites[satellite_id] = state
        return state


@dataclass(frozen=True)
class DownlinkReport:
    """What the downlink phase decided for one visit's capture.

    Attributes:
        capacity_bytes: Contact capacity offered to this capture (contacts
            banked since the previous visit x per-contact bytes x the
            fluctuation multiplier).
        offered_bytes: Encoded bytes the on-board pipeline wanted to send
            (0 for captures already dropped on board).
        delivered_bytes: Bytes actually moved down after any shedding
            (never exceeds ``capacity_bytes``).
        layers_shed: Trailing quality layers shed across bands to fit.
        deferred: The capture was a guaranteed download that did not fit
            even at base quality; nothing was delivered and the guarantee
            timer was re-armed so the promise retries at the next capture.
        dropped: A non-guaranteed capture did not fit even at base
            quality and was discarded at downlink time.
    """

    capacity_bytes: int
    offered_bytes: int
    delivered_bytes: int
    layers_shed: int = 0
    deferred: bool = False
    dropped: bool = False


@dataclass
class VisitEvent:
    """One visit's journey through the phase pipeline.

    Phases read what earlier phases produced and write their own outputs;
    the metrics layer observes the completed event.

    Attributes:
        visit: The scheduled visit being simulated.
        state: The observing satellite's state.
        uplink_plan: Applied reference-update plan (None when the policy
            takes no uplink or the budget is zero).
        capture: The sensor output (set by :class:`CapturePhase`).
        result: The on-board processing outcome (set by
            :class:`CapturePhase`; :class:`DownlinkPhase` may replace it
            with a layer-shed or dropped view of the same capture).
        downlink: Contact-capacity accounting (set by
            :class:`DownlinkPhase`; None when the simulation runs without
            a downlink constraint).
        score: Ground-side quality assessment (set by :class:`IngestPhase`;
            None for dropped captures).
    """

    visit: Visit
    state: SatelliteState
    uplink_plan: UplinkPlan | None = None
    capture: Capture | None = None
    result: CaptureEncodeResult | None = None
    downlink: DownlinkReport | None = None
    score: ScoreRecord | None = None


class SimulationPhase(Protocol):
    """One stage of the per-visit pipeline."""

    name: str

    def run(self, event: VisitEvent) -> None:
        """Advance ``event`` through this phase, mutating it in place."""
        ...


class UplinkPhase:
    """Spend the accumulated uplink budget on reference updates.

    Args:
        ground: The shared ground segment (plans and applies updates).
        uplink_bytes_per_contact: Uplink capacity per ground contact.
        contacts_per_day: Ground contacts per satellite per day.
        fluctuation: Optional per-contact bandwidth fluctuation.
        max_accumulation_days: Cap on how much idle uplink time can be
            banked between a satellite's visits.
    """

    name = "uplink"

    def __init__(
        self,
        ground: GroundSegment,
        uplink_bytes_per_contact: int,
        contacts_per_day: int,
        fluctuation: FluctuationModel | None = None,
        max_accumulation_days: float = 2.0,
    ) -> None:
        self.ground = ground
        self.uplink_bytes_per_contact = uplink_bytes_per_contact
        self.contacts_per_day = contacts_per_day
        self.fluctuation = fluctuation
        self.max_accumulation_days = max_accumulation_days

    def run(self, event: VisitEvent) -> None:
        state = event.state
        policy = state.policy
        if policy.uses_uplink and self.uplink_bytes_per_contact > 0:
            if not isinstance(policy, UplinkReceiver):
                raise PipelineError(
                    f"policy {policy.name!r} sets uses_uplink but does not "
                    "implement UplinkReceiver"
                )
            gap = min(
                event.visit.t_days - state.last_visit_days,
                self.max_accumulation_days,
            )
            n_contacts = max(1, int(gap * self.contacts_per_day))
            multiplier = 1.0
            if self.fluctuation is not None:
                multiplier = self.fluctuation.multiplier(
                    state.satellite_id, state.contact_count
                )
            state.contact_count += 1
            budget = int(
                n_contacts * self.uplink_bytes_per_contact * multiplier
            )
            event.uplink_plan = self.ground.plan_uploads(
                policy.uplink_cache(),
                [event.visit.location],
                event.visit.t_days,
                budget,
                satellite_id=state.satellite_id,
            )
        state.last_visit_days = event.visit.t_days


class CapturePhase:
    """Capture the scene and run the on-board compression policy.

    Args:
        sensors: Per-location capture sources.
        config: Shared tunables (guaranteed-download period).
    """

    name = "capture"

    def __init__(
        self,
        sensors: dict[str, SatelliteSensor],
        config: EarthPlusConfig,
    ) -> None:
        self.sensors = sensors
        self.config = config

    def run(self, event: VisitEvent) -> None:
        visit = event.visit
        sensor = self.sensors[visit.location]
        event.capture = sensor.capture(visit.satellite_id, visit.t_days)
        due = (
            visit.t_days
            - event.state.last_guaranteed.get(visit.location, -np.inf)
            >= self.config.guaranteed_download_days
        )
        event.result = event.state.policy.process(event.capture, due)
        if event.result.guaranteed:
            event.state.last_guaranteed[visit.location] = visit.t_days


class DownlinkPhase:
    """Constrain each capture to the satellite's banked contact capacity.

    Mirrors :class:`UplinkPhase`'s budget arithmetic on the other link:
    capacity accumulates per satellite as contacts since the previous
    visit x ``downlink_bytes_per_contact`` x the fluctuation multiplier
    (drawn from the *downlink* stream of the shared
    :class:`~repro.orbit.links.FluctuationModel`, so the two links of one
    satellite fluctuate independently).  Unused capacity is not banked
    across visits, exactly like the uplink.

    When a capture's encoded bytes exceed the capacity, trailing quality
    layers are shed band by band (greedily from the currently most
    expensive band — the layered bitstream truncates byte-exactly, see
    ``BandEncodeResult.layers``) until the capture fits.  A capture that
    does not fit even at base quality is *deferred* when it was a
    guaranteed download — nothing is sent and the guarantee timer is
    re-armed so the promise retries on the next sufficiently clear
    capture — and *dropped* otherwise (the next pass over the location
    supersedes it).

    Args:
        downlink_bytes_per_contact: Downlink capacity per ground contact.
        contacts_per_day: Ground contacts per satellite per day.
        fluctuation: Optional per-contact bandwidth fluctuation (shared
            model; this phase reads the downlink stream).
        max_accumulation_days: Cap on how much idle contact time can be
            banked between a satellite's visits.
    """

    name = "downlink"

    def __init__(
        self,
        downlink_bytes_per_contact: int,
        contacts_per_day: int,
        fluctuation: FluctuationModel | None = None,
        max_accumulation_days: float = 2.0,
    ) -> None:
        if downlink_bytes_per_contact < 0:
            raise PipelineError(
                "downlink_bytes_per_contact must be >= 0, "
                f"got {downlink_bytes_per_contact}"
            )
        self.downlink_bytes_per_contact = downlink_bytes_per_contact
        self.contacts_per_day = contacts_per_day
        self.fluctuation = fluctuation
        self.max_accumulation_days = max_accumulation_days

    def run(self, event: VisitEvent) -> None:
        result = event.result
        if result is None:
            raise PipelineError(
                "DownlinkPhase requires a completed capture phase"
            )
        bag = counters()
        bag.inc("downlink.visits")
        state = event.state
        gap = min(
            event.visit.t_days - state.last_downlink_days,
            self.max_accumulation_days,
        )
        n_contacts = max(1, int(gap * self.contacts_per_day))
        multiplier = 1.0
        if self.fluctuation is not None:
            multiplier = self.fluctuation.multiplier(
                state.satellite_id,
                state.downlink_contact_count,
                stream=DOWNLINK_STREAM,
            )
        state.downlink_contact_count += 1
        state.last_downlink_days = event.visit.t_days
        capacity = int(
            n_contacts * self.downlink_bytes_per_contact * multiplier
        )
        if result.dropped:
            event.downlink = DownlinkReport(
                capacity_bytes=capacity, offered_bytes=0, delivered_bytes=0
            )
            return
        offered = result.total_bytes
        if offered <= capacity:
            bag.inc("downlink.delivered_bytes", offered)
            event.downlink = DownlinkReport(
                capacity_bytes=capacity,
                offered_bytes=offered,
                delivered_bytes=offered,
            )
            return
        shed_result, layers_shed = self._shed_layers(result, capacity)
        if shed_result is not None:
            bag.inc("downlink.layers_shed", layers_shed)
            bag.inc("downlink.delivered_bytes", shed_result.total_bytes)
            event.result = shed_result
            event.downlink = DownlinkReport(
                capacity_bytes=capacity,
                offered_bytes=offered,
                delivered_bytes=shed_result.total_bytes,
                layers_shed=layers_shed,
            )
            return
        # Even the base layers do not fit this contact.  A guaranteed
        # download is a freshness promise, not this capture's content:
        # re-arm the timer (CapturePhase set it for this visit) so the
        # guarantee retries on the next eligible capture.
        deferred = result.guaranteed
        if deferred:
            state.last_guaranteed.pop(event.visit.location, None)
        bag.inc("downlink.deferred" if deferred else "downlink.dropped")
        event.result = replace(
            result, dropped=True, guaranteed=False, bands=[]
        )
        event.downlink = DownlinkReport(
            capacity_bytes=capacity,
            offered_bytes=offered,
            delivered_bytes=0,
            deferred=deferred,
            dropped=not deferred,
        )

    def _shed_layers(
        self, result: CaptureEncodeResult, capacity: int
    ) -> tuple[CaptureEncodeResult | None, int]:
        """Shed trailing quality layers until the capture fits.

        Greedy and deterministic: each round removes one trailing layer
        from the band whose current coded size is largest (ties break on
        band order).  Bands encoded without layers (``n_quality_layers ==
        1``, or nothing coded) cannot shed below their full payload.
        Layer views are materialized here — only when the budget actually
        binds — because building them costs extra codec work per band
        (see ``BandEncodeResult.materialized_layers``).

        Returns:
            ``(new_result, layers_shed)`` on success, ``(None, 0)`` when
            the capture exceeds ``capacity`` even at one layer per band.
        """
        views = [band.materialized_layers() for band in result.bands]
        kept = [
            len(view) if view is not None else 1 for view in views
        ]

        def band_bytes(index: int) -> int:
            if views[index] is None:
                return result.bands[index].bytes_downlinked
            return views[index][kept[index] - 1].coded_bytes + ALIGNMENT_BYTES

        total = sum(band_bytes(i) for i in range(len(result.bands)))
        while total > capacity:
            sheddable = [
                i
                for i in range(len(result.bands))
                if views[i] is not None and kept[i] > 1
            ]
            if not sheddable:
                return None, 0
            victim = max(sheddable, key=lambda i: (band_bytes(i), -i))
            total -= band_bytes(victim)
            kept[victim] -= 1
            total += band_bytes(victim)
        layers_shed = 0
        new_bands = []
        for index, band in enumerate(result.bands):
            view_tuple = views[index]
            if view_tuple is None or kept[index] == len(view_tuple):
                new_bands.append(band)
                continue
            view = view_tuple[kept[index] - 1]
            layers_shed += len(view_tuple) - kept[index]
            new_bands.append(
                replace(
                    band,
                    bytes_downlinked=view.coded_bytes + ALIGNMENT_BYTES,
                    psnr_downloaded=view.psnr_roi,
                    reconstruction=view.reconstruction,
                    layers=view_tuple[: kept[index]],
                    layers_factory=None,
                    layers_shed=len(view_tuple) - kept[index],
                )
            )
        return replace(result, bands=new_bands), layers_shed


class IngestPhase:
    """Fold the downlinked result into the ground mosaic and score it.

    Args:
        ground: The shared ground segment (mosaic + scoring).
    """

    name = "ingest"

    def __init__(self, ground: GroundSegment) -> None:
        self.ground = ground

    def run(self, event: VisitEvent) -> None:
        if event.result is None or event.capture is None:
            raise PipelineError(
                "IngestPhase requires a completed capture phase"
            )
        event.score = self.ground.ingest(event.result, event.capture)
