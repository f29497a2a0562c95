"""Trace export: Chrome trace-event schema, round-trips, summaries."""

import json

import pytest

from repro.obs import export

#: A tiny merged timeline: driver plus two workers, out of order.
SPANS = [
    ("spec_task", 2.0, 2.5, {"worker": 1, "scenario": "ep/s1"}),
    ("sweep", 1.0, 4.0, None),
    ("dwt", 2.1, 2.2, {"worker": 0, "scenario": "ep/s0"}),
    ("shard_task", 2.0, 3.0, {"worker": 0, "scenario": "ep/s0", "shard": 0}),
]


class TestChromeTrace:
    def test_schema(self):
        doc = export.to_chrome_trace(SPANS, dropped=2, counters={"c": 1})
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["format"] == "repro-trace-v1"
        assert doc["otherData"]["dropped"] == 2
        assert doc["otherData"]["counters"] == {"c": 1}
        events = doc["traceEvents"]
        # Metadata names the process and one thread per track.
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert thread_names == {0: "driver", 1: "worker 0", 2: "worker 1"}
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == len(SPANS)
        for event in slices:
            assert event["pid"] == 1
            assert event["ts"] >= 0
            assert event["dur"] >= 0

    def test_timestamps_relative_microseconds(self):
        doc = export.to_chrome_trace(SPANS)
        sweep = next(
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "sweep"
        )
        # Earliest span (begin 1.0s) anchors t=0.
        assert sweep["ts"] == 0.0
        assert sweep["dur"] == pytest.approx(3.0 * 1e6)

    def test_empty_timeline(self):
        doc = export.to_chrome_trace([])
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]


class TestRoundTrip:
    def test_chrome_file(self, tmp_path):
        path = str(tmp_path / "trace.json")
        assert export.write_chrome_trace(path, SPANS, dropped=1) == 4
        spans, meta = export.read_trace(path)
        assert meta["dropped"] == 1
        assert [s[0] for s in spans] == [
            "sweep", "spec_task", "shard_task", "dwt",
        ]
        original = sorted(SPANS, key=lambda s: s[1])
        for (name, b, e, attrs), (name2, b2, e2, attrs2) in zip(
            original, spans
        ):
            assert name == name2
            assert attrs == attrs2
            # Timestamps survive modulo the rebasing to t0 and rounding
            # to whole microseconds.
            assert e - b == pytest.approx(e2 - b2, abs=1e-5)

    def test_jsonl_file(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert export.write_jsonl(path, SPANS) == 4
        spans, meta = export.read_trace(path)
        assert meta == {}
        assert spans == sorted(SPANS, key=lambda s: s[1])

    def test_jsonl_sniffed_despite_brace_first_char(self, tmp_path):
        # Every JSONL line starts with "{" exactly like a Chrome file
        # does — the sniffer must parse, not peek.
        path = str(tmp_path / "single.jsonl")
        export.write_jsonl(path, SPANS[:1])
        spans, _meta = export.read_trace(path)
        assert spans == SPANS[:1]

    def test_unrecognized_file_rejected(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"some": "object"}\n')
        with pytest.raises(ValueError):
            export.read_trace(str(path))


class TestSummaries:
    def test_summarize_totals_sections_longest_first(self):
        # Sections are flat: the nested dwt span counts toward "dwt"
        # only, and "sweep" still covers the time of everything inside it.
        assert export.summarize(SPANS) == [
            {"section": "sweep", "seconds": 3.0, "calls": 1},
            {"section": "shard_task", "seconds": 1.0, "calls": 1},
            {"section": "spec_task", "seconds": 0.5, "calls": 1},
            {"section": "dwt", "seconds": 0.1, "calls": 1},
        ]
        # Repeated sections add up; rows rank by total, not per call.
        repeated = [
            ("fast", 0.0, 1.0, None),
            ("slow", 1.0, 3.0, None),
            ("slow", 3.0, 6.0, None),
        ]
        assert export.summarize(repeated) == [
            {"section": "slow", "seconds": 5.0, "calls": 2},
            {"section": "fast", "seconds": 1.0, "calls": 1},
        ]

    def test_slowest_ranks_and_attributes(self):
        rows = export.slowest(SPANS, limit=2)
        assert [r["span"] for r in rows] == ["sweep", "shard_task"]
        assert rows[0]["worker"] == "driver"
        assert rows[1]["worker"] == 0
        assert rows[1]["shard"] == 0
        assert rows[1]["scenario"] == "ep/s0"
