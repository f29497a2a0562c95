"""Figure 21: the sweep scheduler's throughput, measured as wall time.

One persistent pool runs a 12-spec fig19-style sweep; with at least as
many specs as workers the plan runs every spec as one spec task, so the
pool's four workers stay busy without shard gangs.  The gate is the
measured wall time of that pooled sweep against the in-process
sequential pass over the same warm datasets: each side is the median of
interleaved repeats.  Workers spawn once per *sweep*, every spec runs as
one task, and every result stays byte-identical to sequential.
"""

from conftest import run_once

from repro.analysis import figures as F
from repro.analysis.tables import format_table

#: Floor for sequential wall / pooled wall on a host with >= 2 cores.
#: Four spec tasks over two cores read 1.57x (median of 3) on a 2-vCPU
#: host; the 4x4 shard gangs this schedule replaced read 1.13x there.
GATE_SPEEDUP = 1.25


def test_fig21_sweep_throughput(benchmark, emit, emit_json, bench_scale):
    if bench_scale == "full":
        seeds = [19, 23, 27, 31]  # 16 specs
        horizon = 60.0
    else:
        seeds = [19, 23, 27]  # 12 specs
        horizon = 45.0
    result = run_once(
        benchmark,
        lambda: F.fig21_sweep_throughput(seeds=seeds, horizon_days=horizon),
    )
    rows = result["rows"]
    summary = result["summary"]
    walls = ", ".join(f"{wall:.2f}" for wall in summary["pooled_walls_s"])
    sequential_walls = ", ".join(
        f"{wall:.2f}" for wall in summary["sequential_walls_s"]
    )
    emit(
        "fig21_sweep_throughput",
        format_table(
            ["scenario", "satellites", "sequential s", "identical"],
            [
                [
                    r["scenario"],
                    str(r["satellites"]),
                    f"{r['sequential_s']:.3f}",
                    "yes" if r["identical"] else "NO",
                ]
                for r in rows
            ],
            title=(
                f"Figure 21 - sweep scheduler "
                f"({summary['n_specs']} specs, shards={summary['shards_per_scenario']}, "
                f"{summary['workers']} workers, host: "
                f"{summary['host_cores']} core"
                f"{'' if summary['host_cores'] == 1 else 's'})"
            ),
        )
        + (
            f"\nspawns {summary['spawns']}, tasks {summary['tasks_run']} "
            f"({summary['shard_tasks']} shard tasks)"
            f"\nwall s (median of {summary['repeats']} interleaved): "
            f"sequential {summary['sequential_wall_s']:.3f} "
            f"[{sequential_walls}], pooled {summary['pooled_wall_s']:.3f} "
            f"[{walls}]"
            f"\nspeedup: {summary['speedup']:.2f}x"
        ),
    )
    emit_json("sweep", summary)
    # Scheduling topology must never change a byte, on any spec.
    assert summary["all_identical"], rows
    # The pool is persistent: one spawn set per sweep, not per task.
    assert summary["spawns"] == summary["workers"], summary
    # At least as many specs as workers: every spec is one spec task.
    assert summary["tasks_run"] == summary["n_specs"], summary
    if summary["host_cores"] >= 2:
        assert summary["speedup"] >= GATE_SPEEDUP, summary
