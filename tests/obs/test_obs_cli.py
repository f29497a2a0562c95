"""CLI telemetry surface: --trace, repro trace, structured --profile."""

import csv
import functools
import itertools
import json
import re

import pytest

from repro.cli import main
from repro.obs import export, trace

#: Smallest sweep that exercises real simulation through the CLI.
_SWEEP_ARGS = [
    "sweep", "--locations", "A", "--bands", "B4", "--days", "10",
    "--size", "64", "--policies", "naive", "--seeds", "0",
]

_SIMULATE_ARGS = [
    "simulate", "--locations", "A", "--bands", "B4", "--days", "10",
    "--size", "64", "--policy", "naive",
]

#: The four ``--profile`` runs: (arguments, runs on a worker pool).
_PROFILE_RUNS = {
    "simulate": (_SIMULATE_ARGS, False),
    "simulate-sharded": (
        _SIMULATE_ARGS + ["--shards", "4", "--sync-days", "1"], True
    ),
    "sweep": (_SWEEP_ARGS, False),
    "sweep-pooled": (
        _SWEEP_ARGS
        + ["--workers", "2", "--shards-per-scenario", "2", "--sync-days", "1"],
        True,
    ),
}

_SCHEDULER_SPANS = {"spec_task", "shard_task", "barrier_wait", "epoch_merge"}


def _profile_rows(out: str, fmt: str) -> list[dict]:
    """The ``--profile`` timing rows of one command's output."""
    if fmt == "json":
        return json.loads(out)["profile"]
    lines = out.splitlines()
    if fmt == "csv":
        start = lines.index("# profile") + 1
        return list(csv.DictReader(itertools.takewhile(str.strip, lines[start:])))
    # table: title, header, dashes, then one row per line up to the
    # first line that is not a row (blank, or a trailing note).
    start = next(i for i, line in enumerate(lines) if "timing breakdown" in line)
    header = lines[start + 1].split()
    cells = (line.split() for line in lines[start + 3 :])
    body = itertools.takewhile(lambda row: len(row) == len(header), cells)
    return [dict(zip(header, row)) for row in body]


def _has_scheduler_section(out: str, fmt: str) -> bool:
    if fmt == "json":
        return "scheduler" in json.loads(out)
    if fmt == "csv":
        return "# scheduler" in out.splitlines()
    return "sweep scheduler (one persistent worker pool)" in out


@pytest.fixture(autouse=True)
def clean_telemetry():
    yield
    trace.disable_tracer()
    trace.reset_context()


class TestTraceFlag:
    def test_sweep_trace_writes_chrome_file(self, tmp_path, capsys):
        path = str(tmp_path / "out.json")
        assert main(_SWEEP_ARGS + ["--trace", path]) == 0
        captured = capsys.readouterr()
        assert f"-> {path}" in captured.err  # confirmation on stderr
        doc = json.loads(open(path).read())
        names = {
            e["name"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert "sweep" in names
        assert {"uplink", "capture", "ingest"} <= names
        assert doc["otherData"]["format"] == "repro-trace-v1"
        # Counters ride along in the artifact.
        assert doc["otherData"]["counters"]["downlink.visits"] > 0

    def test_trace_flag_leaves_stdout_machine_readable(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "out.json")
        code = main(_SWEEP_ARGS + ["--trace", path, "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert isinstance(rows, list)
        assert rows[0]["policy"] == "naive"

    def test_jsonl_extension_writes_span_log(self, tmp_path, capsys):
        path = str(tmp_path / "out.jsonl")
        assert main(_SWEEP_ARGS + ["--trace", path]) == 0
        capsys.readouterr()
        spans, meta = export.read_trace(path)
        assert meta == {}
        assert {"uplink", "capture"} <= {s[0] for s in spans}

    def test_tracer_uninstalled_after_command(self, tmp_path, capsys):
        main(_SWEEP_ARGS + ["--trace", str(tmp_path / "out.json")])
        capsys.readouterr()
        assert trace.active_tracer() is None


class TestTraceSubcommand:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = str(tmp_path / "saved.json")
        spans = [
            ("sweep", 0.0, 2.0, None),
            ("spec_task", 0.5, 1.5, {"worker": 0, "scenario": "ep/s0"}),
            ("dwt", 0.6, 0.7, {"worker": 0, "scenario": "ep/s0"}),
        ]
        export.write_chrome_trace(
            path, spans, dropped=0, counters={"downlink.visits": 4}
        )
        return path

    def test_summary(self, trace_file, capsys):
        assert main(["trace", "summary", trace_file]) == 0
        out = capsys.readouterr().out
        assert "3 spans" in out
        assert "spec_task" in out
        assert "downlink.visits" in out  # counters table rides along

    def test_summary_json_matches_export_summarize(
        self, trace_file, capsys
    ):
        assert main(
            ["trace", "summary", trace_file, "--format", "json"]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        spans, _meta = export.read_trace(trace_file)
        assert rows == export.summarize(spans)

    def test_slowest(self, trace_file, capsys):
        assert main(["trace", "slowest", trace_file, "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "slowest 2 of 3 spans" in out
        assert "driver" in out

    def test_export_roundtrip(self, trace_file, tmp_path, capsys):
        jsonl = str(tmp_path / "converted.jsonl")
        assert main(["trace", "export", trace_file, "-o", jsonl]) == 0
        capsys.readouterr()
        original, _ = export.read_trace(trace_file)
        converted, _ = export.read_trace(jsonl)
        assert [s[0] for s in converted] == [s[0] for s in original]

    def test_export_requires_output(self, trace_file):
        with pytest.raises(SystemExit):
            main(["trace", "export", trace_file])


class TestStructuredProfile:
    def test_sweep_profile_json_is_one_document(self, capsys):
        code = main(_SWEEP_ARGS + ["--profile", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # In-process run: no scheduler stats section.
        assert set(doc) == {"results", "profile"}
        sections = {row["section"] for row in doc["profile"]}
        assert {"uplink", "capture", "ingest"} <= sections

    def test_sweep_profile_csv_sections_are_commented(self, capsys):
        code = main(_SWEEP_ARGS + ["--profile", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# profile" in out
        assert out.startswith("scenario,")

    def test_sweep_profile_table_prints_merged_breakdown(self, capsys):
        code = main(_SWEEP_ARGS + ["--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "merged timing breakdown" in out
        # The spec task is a scheduler row; task CPU is the
        # sched.worker_cpu_s counter, not a row.
        assert "spec_task" in out

    def test_sharded_profile_json_labels_scheduler_spans(self, capsys):
        code = main(
            _SWEEP_ARGS
            + [
                "--sync-days", "1", "--workers", "2",
                "--shards-per-scenario", "2", "--profile", "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"results", "profile", "scheduler"}
        kinds = {row["section"]: row["kind"] for row in doc["profile"]}
        for name in ("shard_task", "barrier_wait", "epoch_merge"):
            assert kinds[name] == "scheduler", kinds
        assert kinds["capture"] == "phase"
        assert kinds["dwt"] == "kernel"
        # The command's own span wraps everything; it is not a row.
        assert "sweep" not in kinds
        counters = {row["counter"]: row["value"] for row in doc["scheduler"]}
        assert counters["sched.spawns"] == 2
        assert counters["sched.shard_tasks"] == 2

    def test_profile_title_counts_dropped_spans(self, capsys, monkeypatch):
        # A ring buffer too small for the run: the profile still prints,
        # and its title says how many spans it lost.
        small = functools.partial(trace.enable_tracer, capacity=16)
        monkeypatch.setattr(trace, "enable_tracer", small)
        assert main(_SWEEP_ARGS + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"\[\d+ spans dropped: ring buffer full\]", out)

    def test_profile_matches_trace_summary(self, tmp_path, capsys):
        # --profile is a view of the same trace --trace writes.
        path = str(tmp_path / "run.json")
        code = main(
            _SWEEP_ARGS + ["--profile", "--format", "json", "--trace", path]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        spans, _meta = export.read_trace(path)
        summary = {row["section"]: row for row in export.summarize(spans)}
        for row in doc["profile"]:
            assert row["calls"] == summary[row["section"]]["calls"]
            assert row["seconds"] == pytest.approx(
                summary[row["section"]]["seconds"], abs=1e-5
            )


class TestProfileSurface:
    """Each ``--profile`` run prints its sections in every format."""

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("run", sorted(_PROFILE_RUNS))
    def test_profile_sections_in_every_format(self, run, fmt, capsys):
        args, pooled = _PROFILE_RUNS[run]
        assert main(args + ["--profile", "--format", fmt]) == 0
        out = capsys.readouterr().out
        kinds = {
            row["section"]: row["kind"] for row in _profile_rows(out, fmt)
        }
        for phase in ("uplink", "capture", "ingest"):
            assert kinds[phase] == "phase", kinds
        scheduler_rows = _SCHEDULER_SPANS & set(kinds)
        assert scheduler_rows
        assert all(kinds[name] == "scheduler" for name in scheduler_rows)
        assert args[0] not in kinds  # the command's own span
        # Only a run that spawned workers has scheduler counters.
        assert _has_scheduler_section(out, fmt) == pooled

    @pytest.mark.parametrize("run", sorted(_PROFILE_RUNS))
    def test_profile_leaves_results_unchanged(self, run, capsys):
        args, _pooled = _PROFILE_RUNS[run]
        assert main(args + ["--format", "json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(args + ["--profile", "--format", "json"]) == 0
        profiled = json.loads(capsys.readouterr().out)
        assert profiled["results"] == plain
