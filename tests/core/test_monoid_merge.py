"""Monoid laws for the sharded runner's merge operations.

`UplinkStats`, `DownlinkStats`, and `RunResult` each form a monoid under
`merge()` — associative, with `identity()` as the two-sided unit — and
the stats classes are additionally commutative (field-wise integer
sums).  `RunResult.merge` commutes on disjoint shard partials (distinct
visit keys, the only case the runner produces), which is asserted here
at the pickle-byte level the differential tests care about.
"""

import pickle
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.accounting import CaptureRecord, DownlinkStats, RunResult
from repro.core.ground_segment import UplinkStats

counts = st.integers(min_value=0, max_value=10**9)


def _stats_strategy(cls):
    names = [f.name for f in fields(cls)]
    return st.builds(
        lambda values: cls(**dict(zip(names, values))),
        st.tuples(*([counts] * len(names))),
    )


uplink_stats = _stats_strategy(UplinkStats)
downlink_stats = _stats_strategy(DownlinkStats)


@st.composite
def capture_records(draw):
    return CaptureRecord(
        location=draw(st.sampled_from(["A", "B", "C"])),
        satellite_id=draw(st.integers(0, 7)),
        t_days=draw(
            st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
        ),
        dropped=draw(st.booleans()),
        guaranteed=draw(st.booleans()),
        cloud_coverage=draw(st.floats(0.0, 1.0)),
        psnr=draw(st.floats(0.0, 60.0)),
        downloaded_fraction=draw(st.floats(0.0, 1.0)),
        bytes_downlinked=draw(counts),
        band_bytes={"B4": draw(counts)},
        band_psnr={"B4": draw(st.floats(0.0, 60.0))},
    )


def _record(location: str, satellite_id: int, t_days: float) -> CaptureRecord:
    return CaptureRecord(
        location=location,
        satellite_id=satellite_id,
        t_days=t_days,
        dropped=False,
        guaranteed=False,
        cloud_coverage=0.0,
        psnr=30.0,
        downloaded_fraction=1.0,
        bytes_downlinked=7,
    )


def _result(**overrides) -> RunResult:
    values = dict(
        policy="earthplus",
        records=[],
        downlink_bytes=0,
        uplink_bytes=0,
        updates_skipped=0,
        horizon_days=30.0,
        contacts_per_day=7,
        contact_duration_s=600.0,
        reference_storage_bytes=0,
        captured_storage_bytes=0,
        uplink_stats={},
        downlink_stats={},
        extra_metrics={},
    )
    values.update(overrides)
    return RunResult(**values)


@st.composite
def run_results(draw):
    return _result(
        records=draw(st.lists(capture_records(), max_size=4)),
        downlink_bytes=draw(counts),
        uplink_bytes=draw(counts),
        updates_skipped=draw(counts),
        reference_storage_bytes=draw(counts),
        captured_storage_bytes=draw(counts),
        uplink_stats=draw(uplink_stats).as_run_stats(),
        downlink_stats=draw(downlink_stats).as_run_stats(),
    )


def _relocate(result: RunResult, location: str) -> None:
    """Move every record of ``result`` to ``location``."""
    for record in result.records:
        record.location = location


class TestStatsMonoids:
    @settings(max_examples=100, deadline=None)
    @given(a=uplink_stats, b=uplink_stats, c=uplink_stats)
    def test_uplink_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @settings(max_examples=100, deadline=None)
    @given(a=uplink_stats, b=uplink_stats)
    def test_uplink_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @settings(max_examples=50, deadline=None)
    @given(a=uplink_stats)
    def test_uplink_identity(self, a):
        assert UplinkStats.identity().merge(a) == a
        assert a.merge(UplinkStats.identity()) == a

    @settings(max_examples=50, deadline=None)
    @given(a=uplink_stats)
    def test_uplink_run_stats_round_trip(self, a):
        assert UplinkStats.from_run_stats(a.as_run_stats()) == a

    @settings(max_examples=100, deadline=None)
    @given(a=downlink_stats, b=downlink_stats, c=downlink_stats)
    def test_downlink_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @settings(max_examples=100, deadline=None)
    @given(a=downlink_stats, b=downlink_stats)
    def test_downlink_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @settings(max_examples=50, deadline=None)
    @given(a=downlink_stats)
    def test_downlink_identity(self, a):
        assert DownlinkStats.identity().merge(a) == a
        assert a.merge(DownlinkStats.identity()) == a

    @settings(max_examples=50, deadline=None)
    @given(a=downlink_stats)
    def test_downlink_run_stats_round_trip(self, a):
        assert DownlinkStats.from_run_stats(a.as_run_stats()) == a


class TestRunResultMonoid:
    @settings(max_examples=60, deadline=None)
    @given(a=run_results(), b=run_results(), c=run_results())
    def test_associative(self, a, b, c):
        # Merge refuses operands that share a visit; keep them disjoint
        # by keying each operand's records to its own location.
        _relocate(a, "A")
        _relocate(b, "B")
        _relocate(c, "C")
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert pickle.dumps(left) == pickle.dumps(right)

    @settings(max_examples=60, deadline=None)
    @given(a=run_results(), b=run_results())
    def test_commutative_on_disjoint_partials(self, a, b):
        # The runner only merges partials over disjoint visit sets; make
        # the operands disjoint by keying records to distinct locations.
        _relocate(a, "A")
        _relocate(b, "B")
        assert pickle.dumps(a.merge(b)) == pickle.dumps(b.merge(a))

    @settings(max_examples=60, deadline=None)
    @given(a=run_results())
    def test_identity(self, a):
        assert pickle.dumps(RunResult.identity().merge(a)) == pickle.dumps(a)
        assert pickle.dumps(a.merge(RunResult.identity())) == pickle.dumps(a)

    def test_identity_is_its_own_unit(self):
        both = RunResult.identity().merge(RunResult.identity())
        assert pickle.dumps(both) == pickle.dumps(RunResult.identity())

    def test_refuses_mismatched_config(self):
        with pytest.raises(ValueError, match="horizon_days"):
            _result(horizon_days=30.0).merge(_result(horizon_days=60.0))

    def test_refuses_mismatched_policy(self):
        with pytest.raises(ValueError, match="polic"):
            _result(policy="earthplus").merge(_result(policy="naive"))

    def test_empty_shard_adopts_policy(self):
        merged = _result(policy="").merge(_result(policy="naive"))
        assert merged.policy == "naive"

    def test_refuses_extra_metrics(self):
        with pytest.raises(ValueError, match="extra_metrics"):
            _result(extra_metrics={"x": 1}).merge(_result())

    def test_refuses_overlapping_partials(self):
        # A duplicated or retried shard partial must not count twice.
        partial = _result(records=[_record("A", 2, 5.0)], downlink_bytes=7)
        with pytest.raises(ValueError, match=r"\(5\.0, 'A', 2\)"):
            partial.merge(partial)
        other = _result(records=[_record("B", 0, 1.0), _record("A", 2, 5.0)])
        with pytest.raises(ValueError, match=r"\(5\.0, 'A', 2\)"):
            other.merge(partial)


class TestMetricsAccumulatorIdentity:
    """`MetricsAccumulator.identity()` is a two-sided merge unit.

    The accumulator is the pre-`finalize` fold state; its identity uses
    zero-valued contact geometry as sentinel state, so the unit laws
    must hold even against accumulators whose geometry differs — and
    even against ones carrying collectors, which populated merges
    refuse.
    """

    def _populated(self):
        from repro.core.accounting import MetricsAccumulator

        acc = MetricsAccumulator(contacts_per_day=7, contact_duration_s=600.0)
        acc.policy_name = "earthplus"
        acc.downlink_bytes = 12345
        acc.peak_reference_bytes = 99
        return acc

    def test_identity_is_left_and_right_unit(self):
        from repro.core.accounting import MetricsAccumulator

        acc = self._populated()
        assert MetricsAccumulator.identity().merge(acc) is acc
        assert acc.merge(MetricsAccumulator.identity()) is acc

    def test_identity_merges_with_identity(self):
        from repro.core.accounting import MetricsAccumulator

        both = MetricsAccumulator.identity().merge(
            MetricsAccumulator.identity()
        )
        assert both._is_identity()

    def test_identity_unit_skips_collector_refusal(self):
        # Collectors normally make an accumulator unmergeable; the unit
        # laws still hold because identity adopts the other operand.
        from repro.core.accounting import MetricsAccumulator

        class _Collector:
            name = "probe"

        acc = self._populated()
        acc.collectors = [_Collector()]
        assert MetricsAccumulator.identity().merge(acc) is acc
        assert acc.merge(MetricsAccumulator.identity()) is acc

    def test_refuses_overlapping_accumulators(self):
        acc = self._populated()
        acc.records = [_record("A", 2, 5.0)]
        with pytest.raises(ValueError, match=r"\(5\.0, 'A', 2\)"):
            acc.merge(acc)

    def test_populated_merges_still_refuse_collectors(self):
        class _Collector:
            name = "probe"

        left = self._populated()
        left.collectors = [_Collector()]
        with pytest.raises(ValueError, match="collector"):
            left.merge(self._populated())
