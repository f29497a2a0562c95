"""Span tracer: ring buffer, attribution, nesting, zero perturbation."""

import pickle

import pytest

from repro.obs import trace


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test leaves the process-global tracer uninstalled."""
    yield
    trace.disable_tracer()
    trace.reset_context()


class TestRingBuffer:
    def test_append_below_capacity(self):
        tracer = trace.Tracer(capacity=4)
        tracer.add("a", 0.0, 1.0)
        tracer.add("b", 1.0, 2.0)
        assert len(tracer) == 2
        assert tracer.dropped == 0
        assert [s[0] for s in tracer.spans()] == ["a", "b"]

    def test_overflow_overwrites_oldest(self):
        tracer = trace.Tracer(capacity=4)
        for i in range(6):
            tracer.add(f"s{i}", float(i), float(i) + 0.5)
        assert len(tracer) == 4
        assert tracer.dropped == 2
        # Oldest-first rotation: the two earliest spans were overwritten.
        assert [s[0] for s in tracer.spans()] == ["s2", "s3", "s4", "s5"]

    def test_extend_folds_worker_partials(self):
        tracer = trace.Tracer(capacity=8)
        tracer.add("driver", 0.0, 1.0)
        tracer.extend([("w", 1.0, 2.0, {"worker": 0})], dropped=3)
        assert [s[0] for s in tracer.spans()] == ["driver", "w"]
        assert tracer.dropped == 3


class TestSpan:
    def test_disabled_returns_shared_null_span(self):
        # The near-zero-cost fast path: no allocation per call.
        assert trace.active_tracer() is None
        assert trace.span("a") is trace.span("b")

    def test_records_into_tracer_with_merged_context(self):
        tracer = trace.enable_tracer()
        trace.set_context(worker=1, scenario="lbl")
        with trace.span("task", epoch=2):
            pass
        (name, begin_s, end_s, attrs), = tracer.spans()
        assert name == "task"
        assert end_s >= begin_s
        assert attrs == {"worker": 1, "scenario": "lbl", "epoch": 2}

    def test_span_attrs_win_over_context(self):
        tracer = trace.enable_tracer()
        trace.set_context(epoch=1)
        with trace.span("t", epoch=9):
            pass
        assert tracer.spans()[0][3]["epoch"] == 9

    def test_nested_spans_both_recorded(self):
        tracer = trace.enable_tracer()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        # The inner span finishes (and records) first; the outer span's
        # interval contains it.
        (inner, outer) = tracer.spans()
        assert (inner[0], outer[0]) == ("inner", "outer")
        assert outer[1] <= inner[1] <= inner[2] <= outer[2]

    def test_repeated_spans_each_recorded(self):
        tracer = trace.enable_tracer()
        for _ in range(2):
            with trace.span("k"):
                pass
        first, second = tracer.spans()
        assert first[0] == second[0] == "k"
        assert first[1] <= first[2] <= second[1] <= second[2]

    def test_disable_stops_recording(self):
        tracer = trace.enable_tracer()
        trace.disable_tracer()
        with trace.span("after"):
            pass
        assert tracer.spans() == []
        assert trace.span("a") is trace.span("b")


class TestContext:
    def test_set_and_clear(self):
        trace.set_context(worker=3)
        assert trace.current_context() == {"worker": 3}
        trace.set_context(worker=None)
        assert trace.current_context() == {}

    def test_clear_context_names(self):
        trace.set_context(worker=1, epoch=2)
        trace.clear_context("epoch")
        assert trace.current_context() == {"worker": 1}

    def test_trace_context_restores_previous(self):
        trace.set_context(scenario="outer")
        with trace.trace_context(scenario="inner", shard=0):
            assert trace.current_context() == {
                "scenario": "inner",
                "shard": 0,
            }
        assert trace.current_context() == {"scenario": "outer"}


class TestZeroPerturbation:
    def test_results_byte_identical_with_tracing_on(self):
        from repro.analysis.scenarios import DatasetSpec, ScenarioSpec
        from repro.analysis.scenarios import run_scenario

        spec = ScenarioSpec(
            policy="earthplus",
            dataset=DatasetSpec.of(
                "sentinel2",
                locations=["A"],
                bands=["B4"],
                horizon_days=10.0,
                image_shape=(64, 64),
            ),
            seed=0,
        )
        untraced = pickle.dumps(run_scenario(spec))
        tracer = trace.enable_tracer()
        try:
            traced = pickle.dumps(run_scenario(spec))
        finally:
            trace.disable_tracer()
        assert traced == untraced
        # The run actually produced a timeline (phases are instrumented).
        names = {s[0] for s in tracer.spans()}
        assert {"uplink", "capture", "ingest"} <= names
