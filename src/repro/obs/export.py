"""Trace export: Chrome trace-event JSON and a JSONL span log.

The Chrome trace-event format (``{"traceEvents": [...]}`` with ``"X"``
complete events) loads directly in Perfetto (https://ui.perfetto.dev)
and ``chrome://tracing``.  The exporter lays the merged sweep timeline
out as one track per worker — the driver first, then ``worker 0..N-1``
by the ``worker`` span attribute — so spec tasks, shard gangs, and
epoch-barrier waits line up visually across the pool.

``read_trace`` accepts both formats back, so the ``repro trace``
subcommand (``summary`` / ``slowest`` / ``export``) works on either
artifact.  ``summarize`` gives the per-section totals (name, calls,
seconds) of a span list; the CLI's ``--profile`` table is this summary
over the command's own in-memory trace, so a profile and a saved trace
of the same run agree.
"""

from __future__ import annotations

import json

__all__ = [
    "read_trace",
    "slowest",
    "summarize",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]

#: Keys that pick a span's track rather than describe it.
_TRACK_KEY = "worker"

#: pid used for all tracks — the timeline is one merged logical process.
_PID = 1


def _track_of(attrs: dict | None):
    """The track id for a span: its ``worker`` attribute, or the driver."""
    if attrs and _TRACK_KEY in attrs:
        return attrs[_TRACK_KEY]
    return None  # driver


def to_chrome_trace(
    spans,
    dropped: int = 0,
    counters: dict | None = None,
) -> dict:
    """Build a Chrome trace-event document from span tuples.

    Args:
        spans: ``(name, begin_s, end_s, attrs)`` tuples (any order).
        dropped: Ring-buffer drop count; recorded in ``otherData`` so a
            clipped timeline says so.
        counters: Optional merged counter values, recorded in
            ``otherData`` for one-file debuggability.

    Returns:
        A JSON-serializable dict.  Timestamps are microseconds relative
        to the earliest span, one thread (tid) per worker track.
    """
    spans = sorted(spans, key=lambda s: s[1])
    t0 = spans[0][1] if spans else 0.0

    # Stable track order: driver first, then workers by id.
    tracks = sorted(
        {_track_of(s[3]) for s in spans},
        key=lambda w: (-1, "") if w is None else (0, str(w)),
    )
    tids = {track: tid for tid, track in enumerate(tracks)}

    events = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "repro sweep"},
        }
    ]
    for track, tid in tids.items():
        label = "driver" if track is None else f"worker {track}"
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _PID,
                "tid": tid,
                "args": {"name": label},
            }
        )
    for name, begin_s, end_s, attrs in spans:
        event = {
            "ph": "X",
            "name": name,
            "pid": _PID,
            "tid": tids[_track_of(attrs)],
            "ts": round((begin_s - t0) * 1e6, 3),
            "dur": round((end_s - begin_s) * 1e6, 3),
        }
        if attrs:
            event["args"] = attrs
        events.append(event)

    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"format": "repro-trace-v1", "dropped": dropped},
    }
    if counters:
        doc["otherData"]["counters"] = counters
    return doc


def write_chrome_trace(
    path: str,
    spans,
    dropped: int = 0,
    counters: dict | None = None,
) -> int:
    """Write a Perfetto-loadable trace file; returns the span count."""
    spans = list(spans)
    doc = to_chrome_trace(spans, dropped=dropped, counters=counters)
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return len(spans)


def write_jsonl(path: str, spans) -> int:
    """Write one span per line (``{"name", "begin_s", "end_s", ...attrs}``)."""
    count = 0
    with open(path, "w") as fh:
        for name, begin_s, end_s, attrs in sorted(spans, key=lambda s: s[1]):
            row = {"name": name, "begin_s": begin_s, "end_s": end_s}
            if attrs:
                row.update(attrs)
            fh.write(json.dumps(row) + "\n")
            count += 1
    return count


def read_trace(path: str):
    """Load spans back from either export format.

    Returns:
        ``(spans, meta)`` — span tuples ``(name, begin_s, end_s, attrs)``
        sorted by begin time, and a metadata dict (``dropped``,
        ``counters`` when present; empty for JSONL).
    """
    with open(path) as fh:
        text = fh.read()
    # Sniff by parsing, not by first character: a JSONL span log's lines
    # start with "{" exactly like a Chrome document does, but only the
    # Chrome file is one JSON value covering the whole text.
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    spans = []
    if isinstance(doc, dict) and "traceEvents" in doc:
        for event in doc["traceEvents"]:
            if event.get("ph") != "X":
                continue
            begin_s = event["ts"] / 1e6
            spans.append(
                (
                    event["name"],
                    begin_s,
                    begin_s + event["dur"] / 1e6,
                    event.get("args") or None,
                )
            )
        meta = dict(doc.get("otherData") or {})
    else:
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            try:
                name = row.pop("name")
                begin_s = row.pop("begin_s")
                end_s = row.pop("end_s")
            except (KeyError, AttributeError):
                raise ValueError(
                    f"{path}: neither a Chrome trace-event file nor a "
                    "span-log line"
                ) from None
            spans.append((name, begin_s, end_s, row or None))
        meta = {}
    spans.sort(key=lambda s: s[1])
    return spans, meta


def summarize(spans) -> list[dict]:
    """Per-section totals from spans (``--profile``, ``repro trace summary``).

    Sections are flat: a nested span counts toward its own name only, so
    an outer section's seconds include its inner sections' seconds.

    Returns:
        ``[{"section", "seconds", "calls"}]`` sorted by seconds
        descending.
    """
    seconds: dict = {}
    calls: dict = {}
    for name, begin_s, end_s, _attrs in spans:
        seconds[name] = seconds.get(name, 0.0) + (end_s - begin_s)
        calls[name] = calls.get(name, 0) + 1
    return [
        {"section": name, "seconds": round(seconds[name], 6), "calls": calls[name]}
        for name in sorted(seconds, key=lambda n: seconds[n], reverse=True)
    ]


def slowest(spans, limit: int = 10) -> list[dict]:
    """The individual longest spans, with attribution columns.

    Returns:
        ``[{"span", "seconds", "worker", "scenario", "shard", "epoch"}]``
        sorted by duration descending, at most ``limit`` rows.
    """
    ranked = sorted(spans, key=lambda s: s[2] - s[1], reverse=True)[:limit]
    rows = []
    for name, begin_s, end_s, attrs in ranked:
        attrs = attrs or {}
        rows.append(
            {
                "span": name,
                "seconds": round(end_s - begin_s, 6),
                "worker": attrs.get("worker", "driver"),
                "scenario": attrs.get("scenario", ""),
                "shard": attrs.get("shard", ""),
                "epoch": attrs.get("epoch", ""),
            }
        )
    return rows
