"""Streaming run accounting: per-visit records and aggregate results.

The :class:`MetricsAccumulator` observes every completed
:class:`~repro.core.phases.VisitEvent` as the kernel emits it and folds it
into running totals — no loop-local counters.  At the end of the schedule
:meth:`MetricsAccumulator.finalize` produces the :class:`RunResult` every
experiment consumes.

New metrics are pluggable: anything implementing :class:`MetricCollector`
can ride along in the same pass over events, and its value lands in
``RunResult.extra_metrics`` without touching the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from repro.codec.metrics import weighted_mean_psnr

if TYPE_CHECKING:
    from repro.core.phases import DownlinkReport, VisitEvent


class _TupleState:
    """Deterministic pickling for result dataclasses (tuple state).

    Default dataclass pickling ships ``__dict__``, whose *keys* the
    unpickler interns while ordinary dict keys are not — so a result that
    crossed a worker-process boundary pickles with different string
    sharing than one built in-process whenever a stats-dict key (e.g.
    ``updates_skipped``) equals a field name.  Tuple state carries no
    field-name strings at all, keeping "parallel batch == sequential
    batch" byte-identical at the pickle level.
    """

    def __getstate__(self):
        return tuple(getattr(self, f.name) for f in fields(self))

    def __setstate__(self, state):
        if isinstance(state, dict):  # a pickle from an older layout
            self.__dict__.update(state)
            return
        for f, value in zip(fields(self), state):
            setattr(self, f.name, value)


@dataclass
class DownlinkStats:
    """Running contact-capacity accounting across a whole run.

    The downlink twin of
    :class:`~repro.core.ground_segment.UplinkStats`: the
    :class:`MetricsAccumulator` folds every visit's
    :class:`~repro.core.phases.DownlinkReport` into these totals.

    Attributes:
        capacity_bytes: Total contact capacity offered across the run.
        bytes_offered: Encoded bytes the satellites wanted to send.
        bytes_delivered: Bytes actually moved down after shedding/drops.
        layers_shed: Trailing quality layers shed to fit contacts.
        captures_shed: Captures delivered at reduced quality (>= 1 layer
            shed).
        captures_deferred: Guaranteed downloads that did not fit even at
            base quality; the guarantee was re-armed for a later capture.
        captures_dropped: Non-guaranteed captures discarded at downlink
            time for not fitting at base quality.
    """

    capacity_bytes: int = 0
    bytes_offered: int = 0
    bytes_delivered: int = 0
    layers_shed: int = 0
    captures_shed: int = 0
    captures_deferred: int = 0
    captures_dropped: int = 0

    @classmethod
    def identity(cls) -> "DownlinkStats":
        """The merge identity: the stats of a run that moved nothing."""
        return cls()

    @classmethod
    def from_run_stats(cls, stats: dict[str, int]) -> "DownlinkStats":
        """Rebuild from the ``RunResult.downlink_stats`` dict."""
        return cls(**stats)

    def merge(self, other: "DownlinkStats") -> "DownlinkStats":
        """Field-wise sum (associative, commutative, identity-respecting)."""
        return DownlinkStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def observe(self, report: "DownlinkReport") -> None:
        """Fold one visit's downlink report into the totals."""
        self.capacity_bytes += report.capacity_bytes
        self.bytes_offered += report.offered_bytes
        self.bytes_delivered += report.delivered_bytes
        self.layers_shed += report.layers_shed
        if report.layers_shed > 0:
            self.captures_shed += 1
        if report.deferred:
            self.captures_deferred += 1
        if report.dropped:
            self.captures_dropped += 1

    def as_run_stats(self) -> dict[str, int]:
        """The contact-level dict carried on ``RunResult.downlink_stats``."""
        return {
            "capacity_bytes": self.capacity_bytes,
            "bytes_offered": self.bytes_offered,
            "bytes_delivered": self.bytes_delivered,
            "layers_shed": self.layers_shed,
            "captures_shed": self.captures_shed,
            "captures_deferred": self.captures_deferred,
            "captures_dropped": self.captures_dropped,
        }


@dataclass
class CaptureRecord(_TupleState):
    """Everything remembered about one processed visit.

    Attributes:
        location: Location name.
        satellite_id: Observing satellite.
        t_days: Capture time.
        dropped: Capture discarded (on board for cloud, or at downlink
            for lack of contact capacity).
        guaranteed: Was a guaranteed full download.
        cloud_coverage: On-board detected cloud fraction.
        psnr: Ground-side reconstruction PSNR (NaN when dropped; the
            sentinel 0.0 when the capture was delivered but had no
            scoreable non-cloud pixels).
        downloaded_fraction: Mean downloaded-tile fraction over bands.
        bytes_downlinked: Total downlink bytes.
        band_bytes: Per-band downlink bytes.
        band_psnr: Per-band coded-tile PSNR.
        changed_fraction: Mean detector changed fraction over bands.
        downlink_capacity_bytes: Contact capacity offered to this capture
            (0 when the run had no downlink constraint).
        layers_shed: Trailing quality layers shed to fit the capacity.
        downlink_deferred: Guaranteed download deferred at downlink time.
    """

    location: str
    satellite_id: int
    t_days: float
    dropped: bool
    guaranteed: bool
    cloud_coverage: float
    psnr: float
    downloaded_fraction: float
    bytes_downlinked: int
    band_bytes: dict[str, int] = field(default_factory=dict)
    band_psnr: dict[str, float] = field(default_factory=dict)
    changed_fraction: float = 0.0
    downlink_capacity_bytes: int = 0
    layers_shed: int = 0
    downlink_deferred: bool = False


def record_order_key(record: CaptureRecord) -> tuple[float, str, int]:
    """The canonical visit order on records.

    Mirrors :func:`repro.orbit.schedule.visit_order_key` — one visit, one
    record, one position — so per-shard record lists merge-sort back into
    exactly the sequence a sequential run emits.
    """
    return (record.t_days, record.location, record.satellite_id)


def _merge_disjoint(
    mine: list[CaptureRecord], theirs: list[CaptureRecord]
) -> list[CaptureRecord]:
    """Two partials' records as one list in canonical visit order.

    Raises:
        ValueError: When both lists hold a record of the same visit (a
            duplicated or retried partial would otherwise count twice).
    """
    shared = {record_order_key(record) for record in mine}.intersection(
        map(record_order_key, theirs)
    )
    if shared:
        raise ValueError(
            f"cannot merge partials that both record visit "
            f"{min(shared)!r}; merge operands must be disjoint"
        )
    return sorted(mine + theirs, key=record_order_key)


def _share_record_strings(records: list[CaptureRecord]) -> list[CaptureRecord]:
    """Records rebuilt so equal strings share one instance.

    In a sequential run every record's ``location`` (and every band-dict
    key) references the dataset's single string instance, so pickling the
    record list writes each string once and memo-references it after.
    Records that crossed a process boundary arrive with per-shard string
    copies; merging them verbatim would pickle the same text repeatedly
    and break "sharded == sequential" at the byte level even though every
    record compares equal.  Pooling restores the sequential sharing
    structure (first occurrence in canonical order introduces the
    instance, exactly like the sequential stream).
    """
    pool: dict[str, str] = {}

    def shared(text: str) -> str:
        return pool.setdefault(text, text)

    return [
        replace(
            record,
            location=shared(record.location),
            band_bytes={
                shared(band): count
                for band, count in record.band_bytes.items()
            },
            band_psnr={
                shared(band): psnr
                for band, psnr in record.band_psnr.items()
            },
        )
        for record in records
    ]


@dataclass
class RunResult(_TupleState):
    """Aggregate outcome of one simulation run.

    Attributes:
        policy: Policy name.
        records: Per-visit records in time order.
        downlink_bytes: Total bytes moved down.
        uplink_bytes: Total bytes moved up (reference updates).
        updates_skipped: Reference updates skipped for lack of uplink.
        horizon_days: Simulated duration.
        contacts_per_day: Ground contacts per satellite per day.
        contact_duration_s: Seconds per contact.
        reference_storage_bytes: Peak per-satellite reference storage.
        captured_storage_bytes: Peak per-capture encoded bytes held.
        uplink_stats: Update-level uplink accounting: counts and bytes of
            full vs delta reference updates.
        downlink_stats: Contact-level downlink accounting (see
            :meth:`DownlinkStats.as_run_stats`; empty when the run had no
            downlink constraint).
        extra_metrics: Values of plugged-in :class:`MetricCollector`s,
            keyed by collector name.
    """

    policy: str
    records: list[CaptureRecord]
    downlink_bytes: int
    uplink_bytes: int
    updates_skipped: int
    horizon_days: float
    contacts_per_day: int
    contact_duration_s: float
    reference_storage_bytes: int
    captured_storage_bytes: int
    uplink_stats: dict[str, int] = field(default_factory=dict)
    downlink_stats: dict[str, int] = field(default_factory=dict)
    extra_metrics: dict[str, object] = field(default_factory=dict)

    @classmethod
    def identity(cls) -> "RunResult":
        """The merge identity: the result of simulating nothing.

        Configuration-like fields (policy, horizon, contact geometry) are
        zero-valued sentinels; :meth:`merge` adopts the other operand's
        values for them, so folding a shard list from ``identity()``
        yields exactly the pairwise merge of the shards.
        """
        return cls(
            policy="",
            records=[],
            downlink_bytes=0,
            uplink_bytes=0,
            updates_skipped=0,
            horizon_days=0.0,
            contacts_per_day=0,
            contact_duration_s=0.0,
            reference_storage_bytes=0,
            captured_storage_bytes=0,
        )

    def _is_identity(self) -> bool:
        return (
            not self.policy
            and not self.records
            and self.horizon_days == 0.0
            and self.contacts_per_day == 0
            and not self.uplink_stats
            and not self.downlink_stats
            and not self.extra_metrics
        )

    def merge(self, other: "RunResult") -> "RunResult":
        """Combine two disjoint partial results (associative, with identity).

        The monoid the sharded runner folds over: per-visit records
        concatenate and re-sort into canonical visit order
        (:func:`record_order_key`), byte/count totals add, storage peaks
        take the max, and the stats dicts merge through their
        :class:`UplinkStats`/:class:`DownlinkStats` round-trip.  Merging
        the per-shard partials of one scenario reproduces the sequential
        :class:`RunResult` field-for-field (differential-tested to
        pickle-byte identity).

        Raises:
            ValueError: When the operands share a visit (a record with
                the same :func:`record_order_key`), disagree on
                configuration (policy, horizon, contact geometry) or
                carry ``extra_metrics`` — collector values are arbitrary
                objects with no general merge.
        """
        if self._is_identity():
            return other
        if other._is_identity():
            return self
        if self.extra_metrics or other.extra_metrics:
            raise ValueError(
                "RunResult.merge cannot combine extra_metrics; run "
                "collectors on the merged result instead"
            )
        for name in ("horizon_days", "contacts_per_day", "contact_duration_s"):
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                raise ValueError(
                    f"cannot merge results with different {name}: "
                    f"{mine!r} != {theirs!r}"
                )
        # An empty shard (no visits observed) never learns the policy
        # name; any named operand supplies it.
        if self.policy and other.policy and self.policy != other.policy:
            raise ValueError(
                f"cannot merge results of different policies: "
                f"{self.policy!r} != {other.policy!r}"
            )

        def merge_stats(cls, mine: dict, theirs: dict) -> dict:
            if not mine:
                return theirs
            if not theirs:
                return mine
            return (
                cls.from_run_stats(mine)
                .merge(cls.from_run_stats(theirs))
                .as_run_stats()
            )

        from repro.core.ground_segment import UplinkStats

        return RunResult(
            policy=self.policy or other.policy,
            records=_share_record_strings(
                _merge_disjoint(self.records, other.records)
            ),
            downlink_bytes=self.downlink_bytes + other.downlink_bytes,
            uplink_bytes=self.uplink_bytes + other.uplink_bytes,
            updates_skipped=self.updates_skipped + other.updates_skipped,
            horizon_days=self.horizon_days,
            contacts_per_day=self.contacts_per_day,
            contact_duration_s=self.contact_duration_s,
            reference_storage_bytes=max(
                self.reference_storage_bytes, other.reference_storage_bytes
            ),
            captured_storage_bytes=max(
                self.captured_storage_bytes, other.captured_storage_bytes
            ),
            uplink_stats=merge_stats(
                UplinkStats, self.uplink_stats, other.uplink_stats
            ),
            downlink_stats=merge_stats(
                DownlinkStats, self.downlink_stats, other.downlink_stats
            ),
            extra_metrics={},
        )

    def delivered(self) -> list[CaptureRecord]:
        """Records of captures that were actually downlinked."""
        return [r for r in self.records if not r.dropped]

    def mean_psnr(self) -> float:
        """Pooled (MSE-domain) PSNR over delivered captures.

        Excludes the 0.0 "nothing scoreable" sentinel (see
        :class:`~repro.core.ground_segment.ScoreRecord`) exactly as the
        previous ``inf`` sentinel was excluded by the finiteness filter.
        """
        values = [
            r.psnr
            for r in self.delivered()
            if np.isfinite(r.psnr) and r.psnr > 0.0
        ]
        if not values:
            return float("inf")
        return weighted_mean_psnr(values)

    def layers_shed(self) -> int:
        """Total quality layers shed at downlink across the run."""
        return sum(r.layers_shed for r in self.records)

    def mean_downloaded_fraction(self) -> float:
        """Mean downloaded-tile fraction over delivered captures."""
        values = [r.downloaded_fraction for r in self.delivered()]
        return float(np.mean(values)) if values else 0.0

    def required_downlink_bps(self) -> float:
        """Average downlink bandwidth demand (the paper's §6.1 metric).

        Total downlinked bytes divided by total contact seconds over the
        horizon, i.e. the sustained rate the constellation must provision.
        """
        contact_seconds = (
            self.horizon_days * self.contacts_per_day * self.contact_duration_s
        )
        if contact_seconds <= 0:
            return 0.0
        return self.downlink_bytes * 8.0 / contact_seconds

    def per_band_bytes(self) -> dict[str, int]:
        """Downlink bytes per band across the run."""
        totals: dict[str, int] = {}
        for record in self.records:
            for band, nbytes in record.band_bytes.items():
                totals[band] = totals.get(band, 0) + nbytes
        return totals

    def per_location_bytes(self) -> dict[str, int]:
        """Downlink bytes per location across the run."""
        totals: dict[str, int] = {}
        for record in self.records:
            totals[record.location] = (
                totals.get(record.location, 0) + record.bytes_downlinked
            )
        return totals

    def per_location_psnr(self) -> dict[str, float]:
        """Pooled PSNR per location (0.0 sentinel excluded)."""
        groups: dict[str, list[float]] = {}
        for record in self.delivered():
            if np.isfinite(record.psnr) and record.psnr > 0.0:
                groups.setdefault(record.location, []).append(record.psnr)
        return {
            loc: weighted_mean_psnr(values) for loc, values in groups.items()
        }

    def timeseries(self, location: str) -> list[CaptureRecord]:
        """Delivered records for one location, in time order."""
        return [r for r in self.delivered() if r.location == location]


class MetricCollector(Protocol):
    """A pluggable metric fed every visit event alongside the core totals."""

    name: str

    def observe(self, event: "VisitEvent") -> None:
        """Fold one completed visit into the metric."""
        ...

    def value(self) -> object:
        """The metric's final value (lands in ``RunResult.extra_metrics``)."""
        ...


class MetricsAccumulator:
    """Streaming aggregation of visit events into a :class:`RunResult`.

    Args:
        contacts_per_day: Ground contacts per satellite per day (for the
            bandwidth-demand metric).
        contact_duration_s: Seconds per contact.
        collectors: Extra pluggable metrics observed in the same pass.
    """

    def __init__(
        self,
        contacts_per_day: int,
        contact_duration_s: float,
        collectors: Sequence[MetricCollector] = (),
    ) -> None:
        self.contacts_per_day = contacts_per_day
        self.contact_duration_s = contact_duration_s
        self.collectors = list(collectors)
        self.records: list[CaptureRecord] = []
        self.downlink_bytes = 0
        self.peak_reference_bytes = 0
        self.peak_captured_bytes = 0
        self.policy_name = ""
        self.downlink = DownlinkStats()
        self._saw_downlink = False

    @classmethod
    def identity(cls) -> "MetricsAccumulator":
        """The merge unit: an accumulator that observed nothing.

        Contact geometry is zero-valued sentinel state, exactly like
        :meth:`RunResult.identity`: :meth:`merge` adopts the other
        operand's values, so folding per-shard accumulators from
        ``identity()`` yields the pairwise merge of the shards.
        """
        return cls(contacts_per_day=0, contact_duration_s=0.0)

    def _is_identity(self) -> bool:
        return (
            not self.records
            and not self.collectors
            and not self.policy_name
            and self.contacts_per_day == 0
            and self.contact_duration_s == 0.0
            and self.downlink_bytes == 0
            and self.peak_reference_bytes == 0
            and self.peak_captured_bytes == 0
            and not self._saw_downlink
        )

    def merge(self, other: "MetricsAccumulator") -> "MetricsAccumulator":
        """Combine two partial accumulators over disjoint visit sets.

        The pre-``finalize`` twin of :meth:`RunResult.merge`, for callers
        that accumulate per shard and finalize once: records re-sort into
        canonical visit order, totals add, peaks take the max.
        Accumulators carrying pluggable collectors refuse to merge —
        collector state is opaque — and so do accumulators that share a
        visit (``ValueError``, as for :meth:`RunResult.merge`).
        """
        if self._is_identity():
            return other
        if other._is_identity():
            return self
        if self.collectors or other.collectors:
            raise ValueError(
                "MetricsAccumulator.merge cannot combine collectors; "
                "observe collectors on one accumulator only"
            )
        for name in ("contacts_per_day", "contact_duration_s"):
            if getattr(self, name) != getattr(other, name):
                raise ValueError(
                    f"cannot merge accumulators with different {name}"
                )
        if (
            self.policy_name
            and other.policy_name
            and self.policy_name != other.policy_name
        ):
            raise ValueError(
                f"cannot merge accumulators of different policies: "
                f"{self.policy_name!r} != {other.policy_name!r}"
            )
        merged = MetricsAccumulator(
            contacts_per_day=self.contacts_per_day,
            contact_duration_s=self.contact_duration_s,
        )
        merged.records = _merge_disjoint(self.records, other.records)
        merged.downlink_bytes = self.downlink_bytes + other.downlink_bytes
        merged.peak_reference_bytes = max(
            self.peak_reference_bytes, other.peak_reference_bytes
        )
        merged.peak_captured_bytes = max(
            self.peak_captured_bytes, other.peak_captured_bytes
        )
        merged.policy_name = self.policy_name or other.policy_name
        merged.downlink = self.downlink.merge(other.downlink)
        merged._saw_downlink = self._saw_downlink or other._saw_downlink
        return merged

    def observe(self, event: "VisitEvent") -> None:
        """Fold one completed visit event into the running totals."""
        result = event.result
        score = event.score
        report = event.downlink
        if result is None:
            return
        if report is not None:
            self._saw_downlink = True
            self.downlink.observe(report)
        self.policy_name = event.state.policy.name
        self.downlink_bytes += result.total_bytes
        self.peak_reference_bytes = max(
            self.peak_reference_bytes,
            event.state.policy.reference_storage_bytes(),
        )
        self.peak_captured_bytes = max(
            self.peak_captured_bytes, result.onboard_encoded_bytes
        )
        self.records.append(
            CaptureRecord(
                location=event.visit.location,
                satellite_id=event.visit.satellite_id,
                t_days=event.visit.t_days,
                dropped=result.dropped,
                guaranteed=result.guaranteed,
                cloud_coverage=result.cloud_coverage_detected,
                psnr=score.psnr if score is not None else float("nan"),
                downloaded_fraction=(
                    score.downloaded_tile_fraction if score is not None else 0.0
                ),
                bytes_downlinked=result.total_bytes,
                band_bytes={b.band: b.bytes_downlinked for b in result.bands},
                band_psnr={b.band: b.psnr_downloaded for b in result.bands},
                changed_fraction=(
                    float(np.mean([b.changed_fraction for b in result.bands]))
                    if result.bands
                    else 0.0
                ),
                downlink_capacity_bytes=(
                    report.capacity_bytes if report is not None else 0
                ),
                layers_shed=report.layers_shed if report is not None else 0,
                downlink_deferred=(
                    report.deferred if report is not None else False
                ),
            )
        )
        for collector in self.collectors:
            collector.observe(event)

    def finalize(
        self,
        horizon_days: float,
        uplink_bytes: int,
        updates_skipped: int,
        uplink_stats: dict[str, int],
    ) -> RunResult:
        """Package the accumulated state into the final :class:`RunResult`.

        Args:
            horizon_days: Simulated duration.
            uplink_bytes: Total reference-update bytes moved up.
            updates_skipped: Updates skipped for lack of uplink budget.
            uplink_stats: Update-level accounting from the ground segment.

        Returns:
            The aggregated result.
        """
        return RunResult(
            policy=self.policy_name,
            records=self.records,
            downlink_bytes=self.downlink_bytes,
            uplink_bytes=uplink_bytes,
            updates_skipped=updates_skipped,
            horizon_days=horizon_days,
            contacts_per_day=self.contacts_per_day,
            contact_duration_s=self.contact_duration_s,
            reference_storage_bytes=self.peak_reference_bytes,
            captured_storage_bytes=self.peak_captured_bytes,
            uplink_stats=uplink_stats,
            downlink_stats=(
                self.downlink.as_run_stats() if self._saw_downlink else {}
            ),
            extra_metrics={
                c.name: c.value() for c in self.collectors
            },
        )
