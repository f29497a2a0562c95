"""Compare two benchmark result sets: per-workload verdicts and layer tables.

Usage::

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl [--format table|csv|json]

Each file holds runs appended by ``run.py --record``.  For every
(workload, end-to-end metric) in ``BENCHMARK.json`` it prints each side's
median and quartiles over its runs, the relative delta, and a verdict
after choosing-metrics section 8, with the metric's bound:

* ``better`` - over at least ten runs paired in order, the change wins at
  least 9 in 10 pairs (ties count for neither) and the medians differ by
  more than the base's own quartile spread;
* ``worse`` - the change's median is worse than the base's by more than
  the bound, and either both sides' quartile spreads are within the bound
  or the change loses at least 9 in 10 pairs;
* ``unresolved`` - otherwise, when either side's quartile spread, as a
  share of its median, is wider than the bound, unless every change run
  reads better than every base run (then ``unchanged``);
* ``unchanged`` - anything else.

It then prints the traced runs' self-time tables side by side (median
self seconds per row over each side's traced runs).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import report

ROOT = Path(__file__).resolve().parent.parent

#: A gain is claimed only over at least this many (base, change) pairs.
MIN_PAIRS = 10


def load(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as lines:
        return [json.loads(line) for line in lines if line.strip()]


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """The section-8 verdict for one (workload, metric).

    Runs pair up in order (base run i with change run i), so pairs taken
    close together in time share whatever state the host was in.
    """
    sign = 1.0 if better == "lower" else -1.0

    def improves(old: float, new: float) -> bool:
        return sign * (new - old) < 0

    b_q1, b_median, b_q3 = report.quartiles(base)
    c_q1, c_median, c_q3 = report.quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for old, new in pairs if improves(old, new))
    losses = sum(1 for old, new in pairs if improves(new, old))
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and abs(c_median - b_median) > b_q3 - b_q1
    ):
        return "better"
    spread = max(
        (b_q3 - b_q1) / b_median if b_median else 0.0,
        (c_q3 - c_q1) / c_median if c_median else 0.0,
    )
    if sign * (c_median - b_median) > bound * abs(b_median) and (
        spread <= bound or losses >= 0.9 * len(pairs)
    ):
        return "worse"
    if spread > bound:
        if all(improves(old, new) for old in base for new in change):
            return "unchanged"
        return "unresolved"
    return "unchanged"


def metric_rows(base: list[dict], change: list[dict], declared: dict) -> list[dict]:
    rows = []
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in change})
    for workload in workloads:
        for metric in declared["end_to_end"]:
            name = metric["name"]
            sides = [
                [r["end_to_end"][name] for r in runs
                 if r["workload"] == workload and name in r["end_to_end"]]
                for runs in (base, change)
            ]
            if not all(sides):
                continue
            (b_q1, b_median, b_q3), (c_q1, c_median, c_q3) = map(report.quartiles, sides)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "base_median": b_median,
                    "base_q1": b_q1,
                    "base_q3": b_q3,
                    "change_median": c_median,
                    "change_q1": c_q1,
                    "change_q3": c_q3,
                    "delta": (c_median - b_median) / b_median if b_median else None,
                    "bound": metric["bound"],
                    "runs": f"{len(sides[0])}/{len(sides[1])}",
                    "verdict": verdict(*sides, metric["better"], metric["bound"]),
                }
            )
        failed = [
            f"{sum(r['failed'] for r in runs if r['workload'] == workload)}/"
            f"{sum(r['attempted'] for r in runs if r['workload'] == workload)}"
            for runs in (base, change)
        ]
        rows.append(
            {
                "workload": workload,
                "metric": "failed/attempted",
                "base_median": failed[0],
                "change_median": failed[1],
            }
        )
    return rows


def layer_rows(base: list[dict], change: list[dict]) -> list[dict]:
    """Median self seconds per (workload, row) on each side's traced runs."""

    def medians(runs: list[dict], workload: str) -> dict[str, float]:
        per_row: dict[str, list[float]] = {}
        for run in runs:
            if run["workload"] == workload and run.get("table"):
                for row in run["table"]["rows"]:
                    per_row.setdefault(row["row"], []).append(row["self_s"])
        return {row: statistics.median(values) for row, values in per_row.items()}

    rows = []
    for workload in sorted({r["workload"] for r in base} | {r["workload"] for r in change}):
        old, new = medians(base, workload), medians(change, workload)
        if not old or not new:
            continue
        for name in sorted(set(old) | set(new), key=lambda n: -max(old.get(n, 0.0), new.get(n, 0.0))):
            rows.append(
                {
                    "workload": workload,
                    "row": name,
                    "base_self_s": old.get(name),
                    "change_self_s": new.get(name),
                    "delta_s": new.get(name, 0.0) - old.get(name, 0.0),
                }
            )
    return rows


def compare(base: list[dict], change: list[dict]) -> tuple[list[dict], list[dict]]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return metric_rows(base, change, declared), layer_rows(base, change)


METRIC_COLUMNS = [
    "workload", "metric", "unit", "base_median", "base_q1", "base_q3",
    "change_median", "change_q1", "change_q3", "delta", "bound", "runs", "verdict",
]
LAYER_COLUMNS = ["workload", "row", "base_self_s", "change_self_s", "delta_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--format", choices=("table", "csv", "json"), default="table")
    args = parser.parse_args(argv)
    metrics, layers = compare(load(args.base), load(args.change))
    sections = [
        ("end_to_end", "End-to-end metrics", metrics, METRIC_COLUMNS),
        ("layers", "Self time by layer row (traced runs)", layers, LAYER_COLUMNS),
    ]
    if args.format == "json":
        print(
            json.dumps(
                {
                    key: [{column: row.get(column) for column in columns} for row in rows]
                    for key, _, rows, columns in sections
                },
                indent=2,
            )
        )
    else:
        print(
            "\n\n".join(
                report.format_output(rows, columns, args.format, title)
                for _, title, rows, columns in sections
                if rows
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
