"""Counters: monoid laws, monotonicity, and subsystem wiring."""

import pytest
from hypothesis import given, strategies as st

from repro.obs import metrics
from repro.obs.metrics import Counters, counters, reset_counters

# Integer-valued counters keep the monoid laws exact (float counters
# like sched.barrier_idle_s are approximately associative, same as
# RunResult.merge).
counter_bags = st.dictionaries(
    st.sampled_from(["a.x", "a.y", "b.z", "c"]),
    st.integers(min_value=0, max_value=10**9),
    max_size=4,
).map(Counters)


@pytest.fixture(autouse=True)
def fresh_counters():
    reset_counters()
    yield
    reset_counters()


class TestMonoid:
    @given(counter_bags, counter_bags, counter_bags)
    def test_merge_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(counter_bags)
    def test_identity_is_two_sided_unit(self, a):
        assert Counters.identity().merge(a) == a
        assert a.merge(Counters.identity()) == a

    @given(counter_bags, counter_bags)
    def test_merge_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @given(counter_bags, counter_bags)
    def test_merge_in_matches_merge(self, a, b):
        merged = a.merge(b)
        a.merge_in(b)
        assert a == merged

    @given(counter_bags, counter_bags)
    def test_diff_inverts_merge(self, a, b):
        # A worker ships diff(baseline); folding it back in with merge
        # must reproduce the worker's totals, so diff undoes merge
        # (up to the zero counters a delta leaves out).
        nonzero = Counters({k: v for k, v in b.values.items() if v})
        assert a.merge(b).diff(a) == nonzero

    def test_merge_does_not_mutate_operands(self):
        a = Counters({"x": 1})
        b = Counters({"x": 2, "y": 3})
        assert a.merge(b) == Counters({"x": 3, "y": 3})
        assert a == Counters({"x": 1})
        assert b == Counters({"x": 2, "y": 3})


class TestCounters:
    def test_inc_and_get(self):
        bag = Counters()
        bag.inc("store.hit")
        bag.inc("store.hit", 2)
        assert bag.get("store.hit") == 3
        assert bag.get("absent") == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counters().inc("x", -1)

    def test_zero_increment_creates_no_key(self):
        bag = Counters()
        bag.inc("x", 0)
        assert not bag
        assert "x" not in bag.values

    def test_diff_against_snapshot_is_the_delta(self):
        bag = Counters()
        bag.inc("a", 5)
        baseline = bag.snapshot()
        bag.inc("a", 2)
        bag.inc("b", 7)
        assert bag.diff(baseline).values == {"a": 2, "b": 7}

    def test_rows_sorted_by_name(self):
        bag = Counters({"b": 2, "a": 1})
        assert bag.rows() == [
            {"counter": "a", "value": 1},
            {"counter": "b", "value": 2},
        ]

    def test_reset_replaces_the_global_bag(self):
        counters().inc("x")
        fresh = reset_counters()
        assert fresh is counters()
        assert not counters()


class TestWiring:
    def test_codec_resolve_counts(self):
        from repro.codec import registry

        registry.resolve("compiled")
        registry.resolve("real")
        assert counters().get("codec.resolve.compiled") == 2

    def test_downlink_phase_counts_visits_and_bytes(self, tiny_spec):
        from repro.analysis.scenarios import run_scenario

        run_scenario(tiny_spec(policy="naive"))
        bag = counters()
        assert bag.get("downlink.visits") > 0
        assert bag.get("downlink.delivered_bytes") > 0

    def test_store_counts_hits_misses_and_bytes(
        self, store, tiny_spec, result_factory
    ):
        spec = tiny_spec()
        key = store.key_for(spec)
        assert store.get(key) is None  # miss
        store.put(spec, result_factory(), key=key)
        assert store.get(key) is not None  # hit
        bag = counters()
        assert bag.get("store.miss") == 1
        assert bag.get("store.hit") == 1
        assert bag.get("store.put") == 1
        assert bag.get("store.put_bytes") > 0
        # The same counts persist into the store's own counters table,
        # where `repro query --stats` reads them across processes.
        persisted = store.counter_values()
        assert persisted["store.miss"] == 1
        assert persisted["store.hit"] == 1

    def test_store_stats_reports_cache_health(
        self, store, tiny_spec, result_factory
    ):
        spec = tiny_spec()
        key = store.key_for(spec)
        store.get(key)
        store.put(spec, result_factory(), key=key)
        store.get(key)
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["evictions"] == 0
        assert stats["written_mb"] > 0
