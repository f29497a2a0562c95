"""Command-line interface: run simulations and experiments from a shell.

Usage::

    python -m repro simulate --dataset sentinel2 --policy earthplus --gamma 0.3
    python -m repro sweep --policies earthplus,kodan --seeds 0,1 --workers 4
    python -m repro sweep --seeds 0,1,2,3 --workers 4 --resume
    python -m repro sweep --workers 4 --shards-per-scenario 2 --sync-days 1
    python -m repro sweep --workers 4 --shards-per-scenario 2 --sync-days 1 \\
        --trace sweep.json
    python -m repro trace summary sweep.json
    python -m repro query --policy earthplus --format csv
    python -m repro query --aggregate policy,gamma
    python -m repro run --dataset sentinel2 --policy earthplus --gamma 0.3
    python -m repro compare --dataset planet --satellites 16
    python -m repro calibrate --band B4
    python -m repro specs

``simulate`` and ``sweep`` are the scenario-layer interface: every run is a
declarative :class:`~repro.analysis.scenarios.ScenarioSpec`, sweeps execute
over one persistent worker pool (``--workers`` sizes it; add
``--shards-per-scenario`` to split epoch-synchronized scenarios across
shard tasks on the same pool when a sweep has fewer scenarios than
workers), and results print as an aligned
table, csv, or json (``--format``).  All options have small laptop-friendly
defaults.

Both commands go through the persistent experiment store (default
``~/.cache/repro``; point elsewhere with ``--store``/``REPRO_STORE``,
disable with ``--no-store``/``REPRO_STORE=off``): scenarios already in
the store are pure cache reads, new results persist as they land, and an
interrupted sweep re-run with ``--resume`` simulates only the missing
specs.  ``query`` inspects the store without simulating anything.

``--trace FILE`` on ``simulate``/``sweep`` records a span timeline —
merged across every worker and shard — as a Chrome trace-event file
(loadable in Perfetto or ``chrome://tracing``); ``repro trace``
summarizes, ranks, or converts a saved trace without re-running
anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from repro import perf
from repro.analysis.experiments import POLICY_NAMES, run_policy
from repro.analysis.scenarios import (
    DatasetSpec,
    ScenarioSpec,
    run_scenario_sharded,
    sweep_specs,
)
from repro.analysis.tables import format_rows, format_table, rows_payload
from repro.core.config import CODEC_BACKENDS, EarthPlusConfig
from repro.datasets.planet import planet_dataset
from repro.datasets.sentinel2 import SENTINEL2_LOCATIONS, sentinel2_dataset
from repro.obs import metrics, trace
from repro.obs import export as trace_export
from repro.obs.progress import SweepProgress
from repro.store.backend import QUERY_COLUMNS, default_store, open_store
from repro.store.runner import run_scenario_cached, run_scenarios_cached


def _build_dataset(args: argparse.Namespace):
    if args.dataset == "sentinel2":
        locations = (
            args.locations.split(",") if args.locations else ["A", "B"]
        )
        bands = args.bands.split(",") if args.bands else ["B4", "B11"]
        return sentinel2_dataset(
            locations=locations,
            bands=bands,
            horizon_days=args.days,
            image_shape=(args.size, args.size),
        )
    return planet_dataset(
        n_satellites=args.satellites,
        horizon_days=args.days,
        image_shape=(args.size, args.size),
    )


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", choices=("sentinel2", "planet"), default="sentinel2",
        help="which synthetic dataset to simulate",
    )
    parser.add_argument(
        "--locations", default=None,
        help="comma-separated Sentinel-2 location letters (default: A,B)",
    )
    parser.add_argument(
        "--bands", default=None,
        help="comma-separated band names (default: B4,B11)",
    )
    parser.add_argument(
        "--satellites", type=int, default=16,
        help="constellation size for the planet dataset",
    )
    parser.add_argument(
        "--days", type=float, default=180.0, help="simulated horizon in days"
    )
    parser.add_argument(
        "--size", type=int, default=192, help="image edge in pixels"
    )
    parser.add_argument(
        "--gamma", type=float, default=0.3,
        help="bits per downloaded pixel (the paper's gamma)",
    )
    parser.add_argument(
        "--codec",
        choices=CODEC_BACKENDS,
        default="model",
        help="fast rate model ('model') or the full arithmetic-coded codec "
        "on the compiled kernels ('real')",
    )
    parser.add_argument(
        "--layers", type=int, default=1,
        help="quality layers per encoded image (>1 lets a constrained "
        "downlink shed trailing layers instead of dropping captures)",
    )


def _add_shard_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards", "--shards-per-scenario", dest="shards",
        type=int, default=None,
        help="shard each scenario's satellites across up to N shard tasks "
        "(default: REPRO_SIM_SHARDS or 1). Sharding applies only when a "
        "sweep has fewer scenarios than workers: each scenario then takes "
        "min(N, workers // scenarios) shards. A lone scenario also sizes "
        "the pool to at least N, so it always shards. Requires --sync-days > 0; results are byte-identical to "
        "a sequential run. Composes with --workers: both axes share one "
        "worker pool",
    )
    parser.add_argument(
        "--sync-days", type=float, default=0.0,
        help="ground-state synchronization cadence in days (sets "
        "config ground_sync_days; 0 = legacy continuous ground state). "
        "This changes scenario semantics, so it enters the store key — "
        "the shard count does not",
    )


def _resolve_shards(args: argparse.Namespace) -> int:
    """The effective shard count, validated against the sync cadence."""
    shards = args.shards if args.shards is not None else perf.sim_shards()
    if shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {shards}")
    if shards > 1 and args.sync_days <= 0:
        raise SystemExit(
            "--shards needs epoch-synchronized ground state; add "
            "--sync-days (e.g. --sync-days 1)"
        )
    return shards


def _add_store_args(
    parser: argparse.ArgumentParser, resumable: bool = False
) -> None:
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="experiment-store directory (default: REPRO_STORE or "
        "~/.cache/repro)",
    )
    parser.add_argument(
        "--no-store", action="store_true",
        help="bypass the experiment store entirely",
    )
    parser.add_argument(
        "--refresh", action="store_true",
        help="re-simulate even when the store already has the result "
        "(the fresh result overwrites the entry)",
    )
    if resumable:
        parser.add_argument(
            "--resume", action="store_true",
            help="continue an interrupted sweep: specs already in the "
            "store are reused, only the missing ones simulate (this is "
            "also the default store behavior; --resume makes the intent "
            "explicit and fails loudly if the store is disabled)",
        )


def _resolve_store(args: argparse.Namespace):
    """The store the flags select (None = disabled), or exit on conflict."""
    if args.no_store:
        if getattr(args, "resume", False):
            raise SystemExit("--resume needs the store; drop --no-store")
        if args.store is not None:
            raise SystemExit("--store and --no-store are mutually exclusive")
        return None
    if args.store is not None:
        return open_store(args.store)
    store = default_store()
    if store is None and getattr(args, "resume", False):
        raise SystemExit(
            "--resume needs the store, but REPRO_STORE disables it"
        )
    return store


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a span timeline and write it to FILE as Chrome "
        "trace-event JSON, loadable in Perfetto / chrome://tracing (a "
        "FILE ending in .jsonl writes a plain span log instead). "
        "Composes with --workers/--shards-per-scenario: per-worker "
        "spans merge into one timeline, one track per worker. Results "
        "stay byte-identical with tracing on",
    )


@contextmanager
def _tracing(path: "str | None", command: str, profile: bool = False):
    """Record a span timeline around a command body.

    Yields the command's tracer, or None when neither ``--trace`` nor
    ``--profile`` asks for one.  With ``--trace`` the timeline is written
    to ``path`` even when the command fails partway — a truncated
    timeline is exactly what you want for diagnosing the failure — and
    the confirmation line goes to stderr so stdout stays
    machine-readable.  ``--profile`` summarizes the same tracer once the
    command finishes (:func:`_profile_sections`).
    """
    if path is None and not profile:
        yield None
        return
    tracer = trace.enable_tracer()
    try:
        with trace.span(command):
            yield tracer
    finally:
        trace.disable_tracer()
        if path is not None:
            _write_trace(path, tracer)


def _write_trace(path: str, tracer: trace.Tracer) -> None:
    """Write ``--trace FILE`` and confirm on stderr."""
    spans = tracer.spans()
    if path.endswith(".jsonl"):
        count = trace_export.write_jsonl(path, spans)
    else:
        count = trace_export.write_chrome_trace(
            path,
            spans,
            dropped=tracer.dropped,
            counters=dict(metrics.counters().values) or None,
        )
    message = f"trace: {count} spans -> {path}"
    if tracer.dropped:
        message += f" ({tracer.dropped} dropped: ring buffer full)"
    print(message, file=sys.stderr)


#: Columns of every ``--profile`` timing table.
_PROFILE_COLUMNS = ["kind", "section", "seconds", "calls"]

#: ``--profile`` row kinds by span name; every other span is a kernel.
#: Scheduler spans enclose phases, phases tile the simulation loop, and
#: kernels run inside phases; store spans run in the driver, outside
#: every task.
_PHASE_SPANS = ("uplink", "capture", "downlink", "ingest", "sync")
_SCHEDULER_SPANS = ("spec_task", "shard_task", "barrier_wait", "epoch_merge")
_KIND_ORDER = {"scheduler": 0, "phase": 1, "kernel": 2, "store": 3}


def _emit_report(fmt: str, results, sections) -> None:
    """Print the results plus named extra sections in one format.

    Args:
        fmt: ``table``/``csv``/``json``.
        results: ``(columns, rows, title)`` for the main results.
        sections: ``[(name, columns, rows, title), ...]`` extras
            (profile rows, scheduler stats).

    Without sections the output is exactly the historical single
    :func:`format_rows` document — in particular ``--format json`` stays
    a top-level list, which scripts (and CI) parse.  With sections, json
    emits one structured object (``{"results": [...], "profile": [...],
    "scheduler": [...]}``) instead of concatenated documents, csv
    separates sections with a ``# name`` comment line, and table keeps
    the blank-line-separated tables.
    """
    columns, rows, title = results
    if fmt == "json" and sections:
        payload = {"results": rows_payload(columns, rows)}
        for name, section_columns, section_rows, _title in sections:
            payload[name] = rows_payload(section_columns, section_rows)
        print(json.dumps(payload, indent=2))
        return
    print(format_rows(columns, rows, fmt=fmt, title=title))
    for name, section_columns, section_rows, section_title in sections:
        print()
        if fmt == "csv":
            print(f"# {name}")
        print(
            format_rows(
                section_columns, section_rows, fmt=fmt, title=section_title
            )
        )


def _build_dataset_spec(args: argparse.Namespace) -> DatasetSpec:
    """The declarative twin of :func:`_build_dataset` (picklable)."""
    if args.dataset == "sentinel2":
        locations = (
            args.locations.split(",") if args.locations else ["A", "B"]
        )
        bands = args.bands.split(",") if args.bands else ["B4", "B11"]
        return DatasetSpec.of(
            "sentinel2",
            locations=locations,
            bands=bands,
            horizon_days=args.days,
            image_shape=(args.size, args.size),
        )
    return DatasetSpec.of(
        "planet",
        n_satellites=args.satellites,
        horizon_days=args.days,
        image_shape=(args.size, args.size),
    )


def _result_row(policy: str, result) -> list:
    return [
        policy,
        f"{result.downlink_bytes / 1e3:.1f}",
        f"{result.mean_psnr():.1f}",
        f"{result.mean_downloaded_fraction():.2f}",
        f"{result.uplink_bytes / 1e3:.1f}",
        f"{len(result.delivered())}/{len(result.records)}",
    ]


_RESULT_HEADERS = [
    "policy", "downlink KB", "PSNR dB", "tiles downloaded",
    "uplink KB", "delivered",
]


_SCENARIO_COLUMNS = [
    "scenario", "policy", "gamma", "seed", "downlink_kb", "psnr_db",
    "downloaded_fraction", "uplink_kb", "delivered", "records",
    "layers_shed", "dl_dropped",
]


def _scenario_dict(spec: ScenarioSpec, result) -> dict:
    """One sweep/simulate output row (plain data for any format)."""
    downlink_stats = result.downlink_stats
    return {
        "scenario": spec.resolved_label(),
        "policy": spec.policy,
        "gamma": spec.extras.get(
            "gamma",
            (spec.config.gamma_bpp if spec.config is not None else None),
        ),
        "seed": spec.seed,
        "downlink_kb": round(result.downlink_bytes / 1e3, 3),
        "psnr_db": round(result.mean_psnr(), 2),
        "downloaded_fraction": round(result.mean_downloaded_fraction(), 4),
        "uplink_kb": round(result.uplink_bytes / 1e3, 3),
        "delivered": len(result.delivered()),
        "records": len(result.records),
        "layers_shed": downlink_stats.get("layers_shed", 0),
        "dl_dropped": (
            downlink_stats.get("captures_deferred", 0)
            + downlink_stats.get("captures_dropped", 0)
        ),
    }


def _profile_kind(section: str) -> str:
    if section in _SCHEDULER_SPANS:
        return "scheduler"
    if section in _PHASE_SPANS:
        return "phase"
    if section.startswith("store."):
        return "store"
    return "kernel"


def _profile_sections(
    tracer: trace.Tracer, command: str, delta: metrics.Counters, title: str
) -> list:
    """The ``--profile`` report: a summary of the command's own trace.

    The timing table is :func:`repro.obs.export.summarize` over the
    command's spans (the same rows ``repro trace summary`` prints for a
    ``--trace`` file of the run), minus the span wrapping the whole
    command, grouped by kind — scheduler, phase, kernel, store — and
    longest-running first within a kind.  A pooled run adds the
    command's ``sched.*`` counter deltas.

    Args:
        tracer: The command's tracer (see :func:`_tracing`).
        command: The command's own span name, left out of the table.
        delta: Counters bumped while the command ran.
        title: The timing table's title.
    """
    if tracer.dropped:
        title += f" [{tracer.dropped} spans dropped: ring buffer full]"
    rows = [
        {"kind": _profile_kind(row["section"]), **row}
        for row in trace_export.summarize(tracer.spans())
        if row["section"] != command
    ]
    rows.sort(key=lambda row: _KIND_ORDER[row["kind"]])
    sections = [("profile", _PROFILE_COLUMNS, rows, title)]
    if delta.get("sched.spawns") > 0:
        sched_rows = [
            {"counter": name, "value": round(value, 6)}
            for name, value in sorted(delta.values.items())
            if name.startswith("sched.")
        ]
        sections.append(
            (
                "scheduler",
                ["counter", "value"],
                sched_rows,
                "sweep scheduler (one persistent worker pool)",
            )
        )
    return sections


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one declarative scenario and print it in the chosen format."""
    shards = _resolve_shards(args)
    spec = ScenarioSpec(
        policy=args.policy,
        dataset=_build_dataset_spec(args),
        config=EarthPlusConfig(
            gamma_bpp=args.gamma,
            codec_backend=args.codec,
            n_quality_layers=args.layers,
            ground_sync_days=args.sync_days,
        ),
        uplink_bytes_per_contact=args.uplink_bytes,
        downlink_bytes_per_contact=args.downlink_bytes,
        downlink_severity=args.downlink_severity,
        seed=args.seed,
    )
    baseline = metrics.counters().snapshot()
    with _tracing(args.trace, "simulate", profile=args.profile) as tracer:
        if args.profile:
            # Serving a profile run from the store would time nothing;
            # profiling always simulates (and does not persist).
            result = run_scenario_sharded(spec, shards=shards)
        else:
            result = run_scenario_cached(
                spec,
                store=_resolve_store(args),
                refresh=args.refresh,
                shards=shards,
            )
    sections = []
    if args.profile:
        delta = metrics.counters().diff(baseline)
        shard_tasks = delta.get("sched.shard_tasks")
        title = (
            f"merged timing breakdown across {shard_tasks} shards"
            if shard_tasks
            else "per-phase timing breakdown"
        )
        sections = _profile_sections(
            tracer, "simulate", delta, f"{title} (kernels run inside phases)"
        )
    _emit_report(
        args.format,
        (
            _SCENARIO_COLUMNS,
            [_scenario_dict(spec, result)],
            f"{args.policy} on {args.dataset} ({args.days:.0f} days)",
        ),
        sections,
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a policies x seeds x gammas sweep, optionally in parallel."""
    policies = args.policies.split(",")
    for policy in policies:
        if policy not in POLICY_NAMES:
            raise SystemExit(
                f"unknown policy {policy!r}; expected one of {POLICY_NAMES}"
            )
    workers = args.workers if args.workers is not None else perf.sim_workers()
    if workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {workers}")
    shards = _resolve_shards(args)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise SystemExit(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    if args.gammas is None:
        gammas = [args.gamma]
    else:
        try:
            gammas = [float(g) for g in args.gammas.split(",")]
        except ValueError:
            raise SystemExit(
                f"--gammas must be comma-separated numbers, got {args.gammas!r}"
            )
    specs = sweep_specs(
        dataset=_build_dataset_spec(args),
        policies=policies,
        seeds=seeds,
        gammas=gammas,
        base_config=EarthPlusConfig(
            codec_backend=args.codec,
            n_quality_layers=args.layers,
            ground_sync_days=args.sync_days,
        ),
        uplink_bytes_per_contact=args.uplink_bytes,
        downlink_bytes_per_contact=args.downlink_bytes,
        downlink_severity=args.downlink_severity,
    )
    store = _resolve_store(args)
    baseline = metrics.counters().snapshot()
    progress = SweepProgress(total=len(specs))
    try:
        with _tracing(args.trace, "sweep", profile=args.profile) as tracer:
            sweep = run_scenarios_cached(
                specs,
                max_workers=workers,
                store=store,
                refresh=args.refresh,
                shards=shards,
                progress=progress,
            )
    finally:
        progress.close()
    delta = metrics.counters().diff(baseline)
    sections = []
    if args.profile:
        executed = len(sweep.executed) or len(specs)
        sections = _profile_sections(
            tracer,
            "sweep",
            delta,
            f"merged timing breakdown across {executed} simulated "
            "scenario(s) (kernels run inside phases)",
        )
    _emit_report(
        args.format,
        (
            _SCENARIO_COLUMNS,
            [_scenario_dict(s, r) for s, r in zip(specs, sweep.results)],
            (
                f"sweep on {args.dataset}: {len(specs)} scenarios "
                f"({len(policies)} policies x {len(seeds)} seeds x "
                f"{len(gammas)} gammas)"
            ),
        ),
        sections,
    )
    if store is not None and args.format == "table":
        print(f"store: {sweep.summary()} ({store.root})")
    in_process = not delta.get("sched.spawns")
    if args.profile and in_process and args.format == "table":
        print(
            "scheduler: sweep ran in-process "
            "(no worker pool; nothing simulated in parallel)"
        )
    return 0


#: Group-by columns ``repro query --aggregate`` accepts.
_AGGREGATE_COLUMNS = ("policy", "dataset", "gamma", "seed", "label")


def _aggregate_rows(rows: list[dict], by: list[str]) -> list[dict]:
    """Group run rows and average their metrics (mean over the group)."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row.get(c) for c in by), []).append(row)

    def mean(values: list) -> float | None:
        finite = [v for v in values if isinstance(v, (int, float))]
        return round(sum(finite) / len(finite), 4) if finite else None

    out = []
    for group_key in sorted(
        groups, key=lambda k: tuple(str(part) for part in k)
    ):
        members = groups[group_key]
        row = dict(zip(by, group_key))
        row["runs"] = len(members)
        for metric in (
            "psnr_db", "downloaded_fraction", "downlink_kb", "uplink_kb",
            "layers_shed", "updates_skipped", "dl_dropped",
        ):
            row[metric] = mean([m.get(metric) for m in members])
        out.append(row)
    return out


def cmd_query(args: argparse.Namespace) -> int:
    """Inspect the experiment store: list, filter, aggregate stored runs."""
    if args.store is not None:
        store = open_store(args.store)
    else:
        store = default_store()
    if store is None:
        raise SystemExit(
            "the experiment store is disabled (REPRO_STORE=off); "
            "pass --store PATH to query one explicitly"
        )
    if args.stats:
        stats = store.stats()
        print(
            format_rows(
                list(stats), [stats], fmt=args.format,
                title="experiment store",
            )
        )
        return 0
    rows = store.query(
        policy=args.policy,
        dataset=args.dataset,
        seed=args.seed,
        gamma=args.gamma,
        label=args.label,
        limit=args.limit,
    )
    if args.aggregate:
        by = args.aggregate.split(",")
        unknown = [c for c in by if c not in _AGGREGATE_COLUMNS]
        if unknown:
            raise SystemExit(
                f"unknown aggregate column(s) {unknown}; "
                f"expected a comma list of {_AGGREGATE_COLUMNS}"
            )
        rows = _aggregate_rows(rows, by)
        columns = by + [
            "runs", "psnr_db", "downloaded_fraction", "downlink_kb",
            "uplink_kb", "layers_shed", "updates_skipped", "dl_dropped",
        ]
        title = f"{len(rows)} group(s) by {','.join(by)} ({store.root})"
    else:
        columns = list(QUERY_COLUMNS)
        title = f"{len(rows)} stored run(s) ({store.root})"
    print(format_rows(columns, rows, fmt=args.format, title=title))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Inspect or convert a trace file saved by ``--trace``."""
    spans, meta = trace_export.read_trace(args.file)
    if args.action == "summary":
        title = f"{len(spans)} spans ({args.file})"
        dropped = meta.get("dropped", 0)
        if dropped:
            title += f" — {dropped} dropped at the ring buffer"
        print(
            format_rows(
                ["section", "seconds", "calls"],
                trace_export.summarize(spans),
                fmt=args.format,
                title=title,
            )
        )
        counter_values = meta.get("counters")
        if counter_values and args.format == "table":
            print()
            print(
                format_rows(
                    ["counter", "value"],
                    metrics.Counters(dict(counter_values)).rows(),
                    fmt="table",
                    title="counters (merged across workers)",
                )
            )
        return 0
    if args.action == "slowest":
        rows = trace_export.slowest(spans, limit=args.limit)
        print(
            format_rows(
                ["span", "seconds", "worker", "scenario", "shard", "epoch"],
                rows,
                fmt=args.format,
                title=(
                    f"slowest {len(rows)} of {len(spans)} spans "
                    f"({args.file})"
                ),
            )
        )
        return 0
    # export: rewrite into the format the output extension selects.
    if args.output is None:
        raise SystemExit("trace export needs --output FILE")
    if args.output.endswith(".jsonl"):
        count = trace_export.write_jsonl(args.output, spans)
    else:
        count = trace_export.write_chrome_trace(
            args.output,
            spans,
            dropped=meta.get("dropped", 0),
            counters=meta.get("counters"),
        )
    print(f"wrote {count} spans -> {args.output}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args)
    config = EarthPlusConfig(
        gamma_bpp=args.gamma,
        codec_backend=args.codec,
        n_quality_layers=args.layers,
    )
    result = run_policy(dataset, args.policy, config)
    print(
        format_table(
            _RESULT_HEADERS,
            [_result_row(args.policy, result)],
            title=f"{args.policy} on {dataset.name} "
            f"({dataset.n_satellites} satellites, {args.days:.0f} days)",
        )
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args)
    config = EarthPlusConfig(
        gamma_bpp=args.gamma,
        codec_backend=args.codec,
        n_quality_layers=args.layers,
    )
    rows = []
    for policy in ("earthplus", "kodan", "satroi"):
        result = run_policy(dataset, policy, config)
        rows.append(_result_row(policy, result))
    print(
        format_table(
            _RESULT_HEADERS,
            rows,
            title=f"policy comparison on {dataset.name}",
        )
    )
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.analysis.calibration import evaluate_theta, profile_theta

    dataset = sentinel2_dataset(
        locations=[args.location],
        bands=[args.band],
        horizon_days=args.days * 2,
        image_shape=(args.size, args.size),
    )
    theta = profile_theta(
        dataset, args.location, args.band, 0.0, args.days
    )
    evaluation = evaluate_theta(
        dataset, args.location, args.band, theta, args.days, args.days * 2
    )
    print(
        format_table(
            ["quantity", "value"],
            [
                ["calibrated theta", f"{theta:.4f}"],
                ["transfer FPR", f"{evaluation.false_positive_rate:.3f}"],
                ["transfer recall", f"{evaluation.recall:.3f}"],
                ["evaluation pairs", evaluation.n_pairs],
            ],
            title=f"theta calibration on location {args.location}, "
            f"band {args.band} (paper default: 0.01)",
        )
    )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis: enforce the repo's repro contracts (see repro.lint).

    Exit codes are CI-friendly: 0 clean, 1 active findings, 2 internal
    error (unknown rule, missing path, unreadable file).
    """
    import repro.lint as lint
    from repro.errors import LintError
    from repro.lint.rules import storekey

    try:
        if args.update_golden:
            from pathlib import Path

            from repro.lint.engine import find_project_root

            root = find_project_root(
                [Path(p) for p in args.paths] or [Path.cwd()]
            )
            written = storekey.update_golden(root)
            print(f"wrote {written}")
            return 0
        select = args.select.split(",") if args.select else None
        ignore = args.ignore.split(",") if args.ignore else None
        result = lint.run_lint(args.paths, select=select, ignore=ignore)
    except (LintError, ValueError) as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    rules = lint.resolve_rules(select=select, ignore=ignore)
    if args.format == "json":
        print(lint.render_json(result, rules))
    else:
        print(
            lint.render_table(result, show_suppressed=args.show_suppressed)
        )
    return result.exit_code


def cmd_specs(args: argparse.Namespace) -> int:
    from repro.analysis.figures import tab01_specs

    print(
        format_table(
            ["Property", "Value"], tab01_specs(),
            title="Doves constellation specification (paper Table 1)",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Earth+ reproduction: simulations and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate_parser = sub.add_parser(
        "simulate", help="run one scenario through the scenario layer"
    )
    _add_dataset_args(simulate_parser)
    simulate_parser.add_argument(
        "--policy", choices=POLICY_NAMES, default="earthplus"
    )
    simulate_parser.add_argument(
        "--seed", type=int, default=0, help="ground-segment seed"
    )
    simulate_parser.add_argument(
        "--uplink-bytes", type=int, default=None,
        help="uplink bytes per contact (default: Table-1 capacity)",
    )
    simulate_parser.add_argument(
        "--downlink-bytes", type=int, default=None,
        help="downlink bytes per contact (default: Table-1 capacity, "
        "which never constrains laptop-scale runs)",
    )
    simulate_parser.add_argument(
        "--downlink-severity", type=float, default=0.0,
        help="downlink-only bandwidth fluctuation severity (log-space "
        "sigma; 0 = constant downlink)",
    )
    simulate_parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output format",
    )
    simulate_parser.add_argument(
        "--profile", action="store_true",
        help="emit a per-phase timing breakdown (uplink/capture/ingest "
        "plus imagery/codec/dwt/scoring kernels, and scheduler tasks) "
        "summarized from the run's trace after the results; always "
        "simulates (never served from the store). Sharded runs add the "
        "sweep scheduler's counters",
    )
    _add_shard_args(simulate_parser)
    _add_store_args(simulate_parser)
    _add_trace_arg(simulate_parser)
    simulate_parser.set_defaults(func=cmd_simulate)

    sweep_parser = sub.add_parser(
        "sweep", help="run a policies x seeds x gammas scenario batch"
    )
    _add_dataset_args(sweep_parser)
    sweep_parser.add_argument(
        "--policies", default="earthplus,kodan,satroi",
        help="comma-separated policy names",
    )
    sweep_parser.add_argument(
        "--seeds", default="0", help="comma-separated ground-segment seeds"
    )
    sweep_parser.add_argument(
        "--gammas", default=None,
        help="comma-separated bits-per-pixel settings (default: --gamma)",
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker-pool size (default: REPRO_SIM_WORKERS or 1, i.e. "
        "in-process). Workers spawn once per sweep and run one task at "
        "a time: a whole scenario, or a scenario shard "
        "(--shards-per-scenario) when there are fewer scenarios than "
        "workers",
    )
    sweep_parser.add_argument(
        "--uplink-bytes", type=int, default=None,
        help="uplink bytes per contact (default: Table-1 capacity)",
    )
    sweep_parser.add_argument(
        "--downlink-bytes", type=int, default=None,
        help="downlink bytes per contact (default: Table-1 capacity)",
    )
    sweep_parser.add_argument(
        "--downlink-severity", type=float, default=0.0,
        help="downlink-only bandwidth fluctuation severity",
    )
    sweep_parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output format",
    )
    sweep_parser.add_argument(
        "--profile", action="store_true",
        help="print a merged timing breakdown summarized from the sweep's "
        "trace and, for pooled sweeps, the sweep scheduler's counters "
        "(worker spawns, tasks run, worker CPU, barrier-idle "
        "seconds) after the results",
    )
    _add_shard_args(sweep_parser)
    _add_store_args(sweep_parser, resumable=True)
    _add_trace_arg(sweep_parser)
    sweep_parser.set_defaults(func=cmd_sweep)

    trace_parser = sub.add_parser(
        "trace",
        help="inspect or convert a trace file saved by --trace",
    )
    trace_parser.add_argument(
        "action", choices=("summary", "slowest", "export"),
        help="summary: per-section totals (matches the merged --profile "
        "table); slowest: longest individual spans with attribution; "
        "export: rewrite into another trace format",
    )
    trace_parser.add_argument(
        "file", help="a trace written by --trace (Chrome JSON or .jsonl)"
    )
    trace_parser.add_argument(
        "--limit", type=int, default=10,
        help="rows to show for 'slowest' (default: 10)",
    )
    trace_parser.add_argument(
        "--output", "-o", default=None, metavar="FILE",
        help="output file for 'export': .jsonl writes a span log, "
        "anything else Chrome trace-event JSON",
    )
    trace_parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output format (summary/slowest)",
    )
    trace_parser.set_defaults(func=cmd_trace)

    query_parser = sub.add_parser(
        "query",
        help="inspect the experiment store without simulating anything",
    )
    query_parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="experiment-store directory (default: REPRO_STORE or "
        "~/.cache/repro)",
    )
    query_parser.add_argument(
        "--policy", choices=POLICY_NAMES, default=None,
        help="only runs of this policy",
    )
    query_parser.add_argument(
        "--dataset", choices=("sentinel2", "planet"), default=None,
        help="only runs on this dataset kind",
    )
    query_parser.add_argument(
        "--seed", type=int, default=None, help="only runs with this seed"
    )
    query_parser.add_argument(
        "--gamma", type=float, default=None,
        help="only runs with this gamma (bits per downloaded pixel)",
    )
    query_parser.add_argument(
        "--label", default=None,
        help="only runs whose label contains this substring",
    )
    query_parser.add_argument(
        "--limit", type=int, default=None, help="at most this many rows"
    )
    query_parser.add_argument(
        "--aggregate", default=None, metavar="COLS",
        help="group rows by a comma list of "
        f"{_AGGREGATE_COLUMNS} and average the metrics",
    )
    query_parser.add_argument(
        "--stats", action="store_true",
        help="print store totals (entries, payload size, budget) instead",
    )
    query_parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output format",
    )
    query_parser.set_defaults(func=cmd_query)

    run_parser = sub.add_parser("run", help="simulate one policy")
    _add_dataset_args(run_parser)
    run_parser.add_argument(
        "--policy", choices=POLICY_NAMES, default="earthplus"
    )
    run_parser.set_defaults(func=cmd_run)

    compare_parser = sub.add_parser(
        "compare", help="simulate Earth+ and both baselines"
    )
    _add_dataset_args(compare_parser)
    compare_parser.set_defaults(func=cmd_compare)

    calibrate_parser = sub.add_parser(
        "calibrate", help="profile the change threshold theta (paper §5)"
    )
    calibrate_parser.add_argument("--location", default="A")
    calibrate_parser.add_argument("--band", default="B4")
    calibrate_parser.add_argument("--days", type=float, default=180.0)
    calibrate_parser.add_argument("--size", type=int, default=192)
    calibrate_parser.set_defaults(func=cmd_calibrate)

    lint_parser = sub.add_parser(
        "lint",
        help="static analysis: enforce determinism/env-flag/monoid/"
        "store-key/fork-safety contracts",
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint_parser.add_argument(
        "--format", choices=["table", "json"], default="table"
    )
    lint_parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule codes/names to run (default: all)",
    )
    lint_parser.add_argument(
        "--ignore", default=None, metavar="RULES",
        help="comma-separated rule codes/names to skip",
    )
    lint_parser.add_argument(
        "--show-suppressed", action="store_true",
        help="also list findings silenced by `# repro: allow(...)`",
    )
    lint_parser.add_argument(
        "--update-golden", action="store_true",
        help="re-snapshot the RPR004 store-key golden from the current "
        "tree and exit",
    )
    lint_parser.set_defaults(func=cmd_lint)

    specs_parser = sub.add_parser("specs", help="print the Table-1 spec")
    specs_parser.set_defaults(func=cmd_specs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
