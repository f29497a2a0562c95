"""The benchmark's own arithmetic: self-time tables and compare verdicts."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import compare  # noqa: E402
import layers  # noqa: E402

MARK = layers.MARK


def test_rows_plus_unattributed_sum_to_wall_per_track():
    spans = [
        ("spec_task", 0.0, 10.0, {"worker": 0}),
        ("phase.capture", 1.0, 5.0, {"worker": 0, MARK: "core.phases"}),
        ("imagery.capture", 1.2, 4.0, {"worker": 0, MARK: "imagery"}),
        ("imagery", 1.5, 3.0, {"worker": 0}),
        ("barrier_wait", 6.0, 8.0, {"worker": 0}),
        ("epoch_merge", 2.0, 2.5, None),
    ]
    table = layers.self_time_table(spans, wall_s=12.0)
    rows = {row["row"]: row for row in table["rows"]}

    # The program's "imagery" span sits inside a wrapper and folds into it.
    assert "imagery" not in rows
    assert rows["imagery.capture"]["self_s"] == pytest.approx(2.8)
    assert rows["phase.capture"]["self_s"] == pytest.approx(1.2)
    assert rows["spec_task"]["self_s"] == pytest.approx(4.0)
    assert rows["barrier_wait"]["source"] == "program"
    assert rows["unattributed"]["per_track"] == pytest.approx(
        {"driver": 11.5, "worker0": 2.0}
    )
    for track in table["tracks"]:
        total = sum(row["per_track"].get(track["track"], 0.0) for row in table["rows"])
        assert total == pytest.approx(track["wall_s"])


def test_missing_entry_points_are_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(
        layers, "ENTRY_POINTS", (("gone", "nowhere", ("repro.no_such_module:f",)),)
    )
    assert layers.install() == ["repro.no_such_module:f"]


def test_verdicts_follow_bound_and_spread():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(base, [v * 1.3 for v in base], "lower", 0.25) == "worse"
    assert compare.verdict(base, [v * 1.1 for v in base], "lower", 0.25) == "unchanged"
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.25) == "better"
    # A gain needs ten pairs.
    assert compare.verdict(base[:4], [v * 0.8 for v in base[:4]], "lower", 0.25) == "unchanged"
    noisy = [6.0, 14.0, 8.0, 12.0, 10.0]
    # Wide spreads: worse only when the change loses (nearly) every pair.
    assert compare.verdict(noisy, [v * 1.3 for v in noisy], "lower", 0.25) == "worse"
    shuffled = [v * 1.3 for v in reversed(noisy)]
    assert compare.verdict(noisy, shuffled, "lower", 0.25) == "unresolved"
