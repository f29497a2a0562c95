"""Benchmark of the Earth+ reproduction's sweep entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 30 --trace 0
        [--record results.jsonl]

One run measures one workload (see ``workloads.py``) for ``--seconds``
seconds.  It first starts a ``prepare`` process that builds the compiled
kernels if needed (so no timed run pays for a build) and, for a seed other
than the workload's default, digests an in-process sequential run of every
spec as the reference.  It then starts fresh driver processes
(``driver.py``), one repetition each, until the next one would overrun
``--seconds``; ``--trace 1`` adds one traced repetition afterwards, outside
the timed ones.  Each process runs under a hermetic environment: every
``REPRO_*`` variable cleared, BLAS/OpenMP pinned to one thread, ``HOME``
and ``TMPDIR`` inside ``.bench_build/perfbench`` (the kernel cache and the
ladder's fresh per-repetition store live there), and ``PYTHONPATH=src``.

End-to-end metrics (``--trace 0``), medians over the repetitions:

* ``wall_s`` - the sweep call(s), from entering
  ``run_scenarios_cached`` to holding results (cold plus warm pass on
  ``ladder``), pool spawn and imagery synthesis included;
* ``setup_s`` - process start until the driver is ready: imports, dataset
  builds, detector training and kernel loading;
* ``peak_rss_mb`` - largest peak RSS of the driver or any pool worker.

``wall_s`` and ``setup_s`` are seconds at a reference host speed: each
repetition times a fixed probe of numpy and interpreter work around its
sweep, and its seconds are scaled by ``HOST_REFERENCE_S`` over the
probe's time (see :func:`host_scaled`), which takes out the minutes-long
speed swings of a shared host.  The raw seconds are printed per
repetition and kept in ``--record``.

``--trace 1`` prints the per-layer metrics instead, together with the
table they come from: seconds and call counts from the traced
repetition's self-time table (see ``layers.py``), counters
(``sched.*``, ``downlink.*``, ``store.*``) and CPU seconds as medians over
the untraced repetitions.  ``obs.trace_overhead_frac`` is the traced
repetition's wall time over the untraced median, both rescaled to the
reference host speed (1.0 = no overhead); ``host.probe_s`` is the probe's
median time;
``obs.disabled_overhead_frac`` is the measured cost of one disabled
``trace.span()`` block times the program's own spans in the traced run,
over the untraced median wall time.  A layer a workload never enters
reports 0.

Every scenario's result is digested and compared with the committed
digests (default seed) or the sequential reference (any other seed); on
``ladder`` the warm pass must equal the cold pass.  A scenario that raised
or mismatched counts as failed and makes the exit code 1.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--record`` also appends the full run
(repetitions, layer table, provenance) to a JSON-lines file that
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import report
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

#: A run must end within 180 s; leave room to report and clean up.
RUN_LIMIT_S = 165.0

#: Seconds ``driver.host_probe_s`` takes at the reference host speed, the
#: speed at which ``wall_s`` and ``setup_s`` are reported.
HOST_REFERENCE_S = 0.05

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def hermetic_env(extra_path: Path | None = None) -> dict:
    """The environment every benchmark process runs under.

    Args:
        extra_path: A directory put on ``PYTHONPATH`` after ``src``; the
            self-test uses it to load a ``sitecustomize`` that slows one
            entry point down.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [str(ROOT / "src")] + ([str(extra_path)] if extra_path else [])
    env.update({variable: "1" for variable in THREAD_VARIABLES})
    env.update(
        PYTHONPATH=os.pathsep.join(paths),
        HOME=str(WORK / "home"),
        TMPDIR=str(WORK / "tmp"),
        PYTHONHASHSEED="0",
    )
    return env


def _stop_group(process: subprocess.Popen) -> None:
    """Kill whatever is left of the driver's process group and wait for it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    for _ in range(100):
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def launch(request: dict, env: dict, deadline: float) -> dict:
    """Run one driver process to completion and return its result."""
    out = WORK / "tmp" / f"result-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    request = {**request, "tmp": str(WORK / "tmp"), "out": str(out)}
    with open(WORK / "driver.log", "ab") as log:
        request["spawned_at"] = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(HERE / "driver.py"), json.dumps(request)],
            cwd=ROOT,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            process.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            _stop_group(process)
    if not out.is_file():
        return {
            "error": f"driver exited with code {process.returncode} and no "
            f"result (log: {WORK / 'driver.log'})"
        }
    result = json.loads(out.read_text())
    out.unlink()
    return result


def check(rep: dict, expected: dict) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` of one repetition's scenarios."""
    if "error" in rep:
        return len(expected), len(expected), [rep["error"].strip().splitlines()[-1]]
    failed = []
    for index, label in enumerate(rep["labels"]):
        if any(digests[index] != expected.get(label) for digests in rep["digests"]):
            failed.append(label)
    return len(rep["labels"]), len(failed), [f"digest mismatch: {f}" for f in failed]


def median(reps: list[dict], read) -> float:
    return statistics.median(read(rep) for rep in reps)


def host_scaled(rep: dict, seconds: float) -> float:
    """``seconds`` measured in ``rep``, rescaled to the reference host speed.

    On a shared VM the host's speed drifts with its other tenants, by up
    to 60 % for minutes at a time, and set-up and sweep slow down together
    with the fixed probe timed around the sweep (``driver.host_probe_s``).
    Dividing by the probe's time removes that drift and keeps the
    program's own.
    """
    return seconds * HOST_REFERENCE_S / rep["probe_s"]


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """End-to-end metrics as medians over the successful repetitions.

    ``wall_s`` and ``setup_s`` are rescaled to the reference host speed
    (:func:`host_scaled`); each repetition's raw seconds stay in its record.
    """
    return {
        "wall_s": median(reps, lambda r: host_scaled(r, r["wall_s"])),
        "setup_s": median(reps, lambda r: host_scaled(r, r["setup"]["setup_s"])),
        "peak_rss_mb": median(reps, lambda r: r["peak_rss_mb"]),
    }


def per_layer(workload: str, reps: list[dict], traced: dict, prep: dict) -> dict:
    """Per-layer metrics: self times from the traced run, counts from all."""
    rows = {row["row"]: row for row in traced["table"]["rows"]}

    def self_s(name: str) -> float:
        return rows[name]["self_s"] if name in rows else 0.0

    def calls(name: str) -> int:
        return rows[name]["calls"] if name in rows else 0

    def counter(name: str) -> float:
        return median(reps, lambda r: r["counters"].get(name, 0))

    def ratio(part: float, whole: float, empty: float = 0.0) -> float:
        return part / whole if whole else empty

    wall = median(reps, lambda r: r["wall_s"])
    workers = workloads.WORKLOADS[workload].workers
    busy_key = "worker_cpu_s" if workers > 1 else "driver_cpu_s"
    lookups = counter("store.hit") + counter("store.miss")
    captures = calls("imagery.capture")
    synthesized = traced["counters"].get(layers.SYNTHESIZED, 0)
    searches = calls("ratemodel.search") + calls("adapter.search")
    values = {
        "scheduler.spawns": counter("sched.spawns"),
        "scheduler.tasks": counter("sched.tasks_run"),
        "scheduler.tasks_stolen": counter("sched.tasks_stolen"),
        "scheduler.barrier_wait_s": self_s("barrier_wait"),
        "scheduler.epoch_merge_s": self_s("epoch_merge"),
        "scheduler.epoch_merges": calls("epoch_merge"),
        "scheduler.worker_cpu_s": median(reps, lambda r: r["worker_cpu_s"]),
        "scheduler.driver_cpu_s": median(reps, lambda r: r["driver_cpu_s"]),
        "scheduler.utilization": ratio(
            median(reps, lambda r: r[busy_key]), workers * wall
        ),
        "scenarios.build_simulator_s": self_s("scenarios.build_simulator"),
        "scenarios.build_simulator_calls": calls("scenarios.build_simulator"),
        "store.put_s": self_s("store.put"),
        "store.puts": calls("store.put"),
        "store.put_bytes": counter("store.put_bytes"),
        "store.get_s": self_s("store.get"),
        "store.lookups": lookups,
        "store.hit_ratio": ratio(counter("store.hit"), lookups),
        "phase.uplink_s": self_s("phase.uplink"),
        "phase.capture_s": self_s("phase.capture"),
        "phase.downlink_s": self_s("phase.downlink"),
        "phase.ingest_s": self_s("phase.ingest"),
        "phase.visits": counter("downlink.visits"),
        "downlink.layers_shed": counter("downlink.layers_shed"),
        "downlink.deferred": counter("downlink.deferred"),
        "downlink.dropped": counter("downlink.dropped"),
        "downlink.delivered_frac": ratio(
            traced["downlink_delivered"], traced["downlink_offered"], 1.0
        ),
        "imagery.capture_s": self_s("imagery.capture"),
        "imagery.captures": captures,
        "imagery.synthesized": synthesized,
        "imagery.hit_ratio": ratio(captures - synthesized, captures),
        "cloud.detect_s": self_s("cloud.detect"),
        "cloud.detect_calls": calls("cloud.detect"),
        "change.detect_s": self_s("change.detect"),
        "change.detect_calls": calls("change.detect"),
        "reference.downsample_s": self_s("reference.downsample"),
        "reference.downsample_calls": calls("reference.downsample"),
        "ratemodel.prepare_s": self_s("ratemodel.prepare"),
        "ratemodel.estimate_s": self_s("ratemodel.estimate"),
        "ratemodel.encode_s": self_s("ratemodel.encode"),
        "ratemodel.search_s": self_s("ratemodel.search"),
        "ratemodel.searches": calls("ratemodel.search"),
        "ratemodel.warm_hit_ratio": 1.0
        - ratio(searches, calls("encoder.encode_roi"), 1.0),
        "dwt.forward_s": self_s("dwt.forward"),
        "dwt.inverse_s": self_s("dwt.inverse"),
        "dwt.calls": calls("dwt.forward") + calls("dwt.inverse"),
        "engine.encode_s": self_s("engine.encode"),
        "engine.encodes": calls("engine.encode"),
        "engine.decode_s": self_s("engine.decode"),
        "engine.decodes": calls("engine.decode"),
        "ground.plan_uploads_s": self_s("ground.plan_uploads"),
        "ground.ingest_s": self_s("ground.ingest"),
        "ground.apply_ingests_s": self_s("ground.apply_ingests"),
        "ground.calls": sum(
            calls(name)
            for name in ("ground.plan_uploads", "ground.ingest", "ground.apply_ingests")
        ),
        "ground.uplink_bytes": traced["uplink_bytes"],
        "accounting.observe_s": self_s("accounting.observe"),
        "accounting.merge_s": self_s("accounting.merge"),
        "obs.spans": traced["spans"],
        "obs.spans_dropped": traced["spans_dropped"],
        "obs.trace_overhead_frac": host_scaled(traced, traced["wall_s"])
        / median(reps, lambda r: host_scaled(r, r["wall_s"])),
        "obs.disabled_overhead_frac": traced["disabled_span_s"]
        * traced["program_spans"]
        / wall,
        "obs.unattributed_s": self_s("unattributed"),
        "setup.kernel_built": 1 if prep["kernel_built"] else 0,
        "host.probe_s": median(reps, lambda r: r["probe_s"]),
    }
    for step in ("import_s", "dataset_s", "detectors_s", "kernels_s"):
        values[f"setup.{step}"] = median(reps, lambda r: r["setup"][step])
    return values


def layer_report(traced: dict) -> str:
    """The traced run's self-time table, one column per track."""
    tracks = [t["track"] for t in traced["table"]["tracks"]]
    total = sum(t["wall_s"] for t in traced["table"]["tracks"])
    rows = [
        {
            "row": row["row"],
            "layer": row["layer"],
            "source": row["source"],
            "calls": row["calls"],
            "self_s": row["self_s"],
            "share": f"{100.0 * row['self_s'] / total:.1f}%",
            **{track: row["per_track"].get(track, "") for track in tracks},
        }
        for row in traced["table"]["rows"]
    ]
    rows.append(
        {
            "row": "wall (per track)",
            "self_s": total,
            **{t["track"]: t["wall_s"] for t in traced["table"]["tracks"]},
        }
    )
    title = (
        f"Self time by row (traced run, wall {traced['wall_s']:.3f} s; "
        "per track the rows plus unattributed sum to the wall)"
    )
    text = report.format_output(
        rows,
        ["row", "layer", "source", "calls", "self_s", "share", *tracks],
        "table",
        title,
    )
    if traced.get("missing"):
        text += "\nmissing entry points: " + ", ".join(traced["missing"])
    return text


def provenance(args, prep: dict) -> dict:
    """Where the numbers came from."""
    revision = dirty = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
            dirty = bool(
                subprocess.run(
                    ["git", "status", "--porcelain", "--untracked-files=no"],
                    cwd=ROOT, capture_output=True, text=True, timeout=30,
                ).stdout.strip()
            )
        except (OSError, subprocess.SubprocessError):
            revision = dirty = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "git_revision": revision,
        "git_dirty": dirty,
        "src_sha256": source.hexdigest(),
        **{key: value for key, value in prep.items() if key != "reference"},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append the full run to this JSON-lines file")
    parser.add_argument(
        "--update-digests",
        action="store_true",
        help="recompute the committed digests for the default seed and exit",
    )
    return parser.parse_args(argv)


def repetitions(args, env: dict, deadline: float) -> tuple[list[dict], dict | None]:
    """Fresh driver processes until the next would overrun ``--seconds``.

    With ``--trace 1`` one traced repetition follows, outside the timed ones.
    """
    request = {"mode": "rep", "workload": args.workload, "seed": args.seed}
    reps: list[dict] = []
    measuring = time.perf_counter()
    longest = 0.0
    while True:
        began = time.perf_counter()
        reps.append(launch(request, env, deadline))
        longest = max(longest, time.perf_counter() - began)
        now = time.perf_counter()
        reserve = 2.0 * longest if args.trace else 0.0
        if now - measuring + longest > args.seconds or now + longest + reserve > deadline:
            break
    traced = launch({**request, "trace": True}, env, deadline) if args.trace else None
    return reps, traced


def record_run(args, outcome: dict, reps: list[dict], traced: dict | None) -> None:
    """Append the whole run to ``--record`` for ``compare.py``."""
    attempted, failed = outcome["attempted"], outcome["failed"]
    line = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **outcome,
        "end_to_end": {
            **outcome["end_to_end"],
            "failed_frac": failed / attempted if attempted else 1.0,
        },
        "table": traced["table"] if traced else None,
        "reps": [
            {k: v for k, v in rep.items() if k not in ("digests", "labels")}
            for rep in reps
        ],
    }
    with open(args.record, "a", encoding="utf-8") as record:
        record.write(json.dumps(line, sort_keys=True) + "\n")


def main(argv=None, extra_path: Path | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    shutil.rmtree(WORK / "tmp", ignore_errors=True)
    for sub in ("home", "tmp"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    (WORK / "driver.log").write_bytes(b"")
    env = hermetic_env(extra_path)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = workloads.committed_digests(args.workload, args.seed)
    if args.update_digests:
        if args.seed != workloads.WORKLOADS[args.workload].default_seed:
            print("perfbench: --update-digests needs the default seed", file=sys.stderr)
            return 2
        expected = None
    prep = launch(
        {
            "mode": "prepare",
            "workload": args.workload,
            "seed": args.seed,
            "reference": expected is None,
        },
        env,
        deadline,
    )
    if "error" in prep:
        print(prep["error"], file=sys.stderr)
        return 1
    if args.update_digests:
        path = workloads.DIGESTS_PATH
        data = json.loads(path.read_text()) if path.is_file() else {}
        data[args.workload] = prep["reference"]
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(prep['reference'])} digests for {args.workload}")
        return 0
    if expected is None:
        expected = prep["reference"]

    reps, traced = repetitions(args, env, deadline)
    attempted = failed = 0
    for index, rep in enumerate(reps + ([traced] if traced else [])):
        n, bad, problems = check(rep, expected)
        attempted += n
        failed += bad
        kind = "traced" if rep is traced else f"rep {index + 1}"
        detail = (
            "; ".join(problems)
            if problems
            else f"wall {rep['wall_s']:.3f} s, setup {rep['setup']['setup_s']:.3f} s, "
            f"host probe {rep['probe_s']:.4f} s, peak rss {rep['peak_rss_mb']:.1f} MB"
        )
        print(f"{args.workload} seed {args.seed} {kind}: {detail}")
    good = [rep for rep in reps if "error" not in rep]
    if traced is not None and "error" in traced:
        traced = None
    outcome = {
        "correct": failed == 0 and bool(good) and (traced is not None or not args.trace),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end(good) if good else {},
        "per_layer": (
            per_layer(args.workload, good, traced, prep) if traced and good else {}
        ),
        "provenance": provenance(args, prep),
    }
    if traced is not None:
        print(layer_report(traced))
    print(json.dumps({"provenance": outcome["provenance"]}, sort_keys=True))

    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    source = outcome["per_layer"] if args.trace else outcome["end_to_end"]
    metrics = {
        metric["name"]: {"value": source[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
        if metric["name"] in source
    }
    if len(metrics) != len(wanted):
        outcome["correct"] = False
    if args.record is not None:
        record_run(args, outcome, reps, traced)
    print(
        json.dumps(
            {
                "correct": outcome["correct"],
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
