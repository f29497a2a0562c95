"""One benchmark process: set up, run the workload's sweep, report as JSON.

``run.py`` starts a fresh driver for every repetition, so each one pays
imports, dataset builds, detector training and pool spawn the way a user
invocation does.  Usage (the request is one JSON object)::

    python3 perfbench/driver.py '{"mode": "rep", "workload": "ladder",
        "seed": 0, "spawned_at": <time.perf_counter() of the parent>,
        "trace": false, "tmp": "<dir>", "out": "<result file>"}'

Modes:

* ``rep`` - one timed repetition.  ``spawned_at`` is the parent's
  ``time.perf_counter()`` just before it started this process (on Linux
  the clock is the system-wide ``CLOCK_MONOTONIC``), so ``setup_s`` runs
  from process start until the driver is ready to sweep.  ``probe_s`` is
  the mean time of :func:`host_probe_s` just before and just after the
  sweep.  With ``"trace": true`` the layer wrappers and a tracer are installed after
  set-up and the result carries the self-time table.
* ``prepare`` - load (building on first use) the compiled kernels, stamp
  provenance and, when ``"reference": true``, digest an in-process
  sequential run of every spec.

The result (or ``{"error": traceback}``) is written to ``out``; the exit
code is 0 only on success.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import layers
import workloads

#: Calls per batch of the disabled-span microbenchmark.
_SPAN_CALLS = 200_000


def _import_program() -> None:
    import repro  # noqa: F401
    import repro.store.runner  # noqa: F401  (the sweep entry point)


def _files(root: Path) -> set[Path]:
    return {path for path in root.rglob("*") if path.is_file()}


def prepare(request: dict) -> dict:
    """Kernels, provenance and (optionally) the sequential reference digests."""
    home = Path.home()
    before = _files(home)
    _import_program()
    import numpy
    from repro.codec import registry
    from repro.store.specs import SCHEMA_VERSION

    registry.kernels()
    built = [p for p in _files(home) - before if p.suffix == ".so"]
    library = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        for line in maps:
            path = line.split()[-1]
            if path.endswith(".so") and path.startswith(str(home)):
                library = Path(path)
                break
    result = {
        "kernel_built": len(built) > 0,
        "kernel_sha256": (
            hashlib.sha256(library.read_bytes()).hexdigest()
            if library is not None
            else None
        ),
        "codec_engine": registry.resolve_name(config_backend="real"),
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    if request.get("reference"):
        specs = workloads.build_specs(request["workload"], request["seed"])
        workloads.set_up(specs)
        results = workloads.run_sequential(specs)
        result["reference"] = {
            spec.resolved_label(): workloads.digest(r)
            for spec, r in zip(specs, results)
        }
    return result


def host_probe_s() -> float:
    """Seconds a fixed piece of work takes: the host's speed right now.

    An interpreter loop plus numpy transforms, the two kinds of work the
    sweep does, and no program code, so no change to the program moves it.
    """
    import numpy

    image = numpy.arange(256 * 256, dtype=numpy.float64).reshape(256, 256)
    started = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    for _ in range(30):
        numpy.fft.fft2(image)
    return time.perf_counter() - started


def _disabled_span_cost() -> float:
    """Seconds one ``trace.span()`` block costs with tracing off (median)."""
    from repro.obs import trace

    span = trace.span
    costs = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(_SPAN_CALLS):
            pass
        empty = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(_SPAN_CALLS):
            with span("x"):
                pass
        costs.append((time.perf_counter() - started - empty) / _SPAN_CALLS)
    costs.sort()
    return costs[len(costs) // 2]


def rep(request: dict) -> dict:
    """One repetition: set-up, the sweep (timed), digests and counters."""
    name = request["workload"]
    _import_program()
    imported = time.perf_counter()
    specs = workloads.build_specs(name, request["seed"])
    setup = workloads.set_up(specs)
    ready = time.perf_counter()
    setup["import_s"] = imported - request["spawned_at"]
    setup["setup_s"] = ready - request["spawned_at"]

    from repro.obs import metrics, trace

    missing: list[str] = []
    tracer = None
    if request.get("trace"):
        missing = layers.install()
        tracer = trace.enable_tracer(capacity=1 << 22)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=request["tmp"])
    probes = [host_probe_s()]
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        started = time.perf_counter()
        passes = workloads.run(name, specs, store_dir)
        wall_s = time.perf_counter() - started
    finally:
        trace.disable_tracer()
        shutil.rmtree(store_dir, ignore_errors=True)
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    probes.append(host_probe_s())

    def cpu(before, after) -> float:
        return (after.ru_utime - before.ru_utime) + (
            after.ru_stime - before.ru_stime
        )

    first = passes[0]
    result = {
        "labels": [spec.resolved_label() for spec in specs],
        "digests": [[workloads.digest(r) for r in results] for results in passes],
        "wall_s": wall_s,
        "probe_s": statistics.mean(probes),
        "setup": setup,
        "peak_rss_mb": max(self_after.ru_maxrss, children_after.ru_maxrss)
        / 1024.0,
        "driver_cpu_s": cpu(self_before, self_after),
        "worker_cpu_s": cpu(children_before, children_after),
        "counters": dict(metrics.counters().values),
        "downlink_offered": sum(
            r.downlink_stats.get("bytes_offered", 0) for r in first
        ),
        "downlink_delivered": sum(
            r.downlink_stats.get("bytes_delivered", 0) for r in first
        ),
        "uplink_bytes": sum(r.uplink_bytes for r in first),
    }
    if tracer is not None:
        spans = tracer.spans()
        result["table"] = layers.self_time_table(spans, wall_s)
        result["missing"] = missing
        result["spans"] = len(spans)
        result["spans_dropped"] = tracer.dropped
        result["program_spans"] = sum(
            1 for span in spans if not (span[3] or {}).get(layers.MARK)
        )
        result["disabled_span_s"] = _disabled_span_cost()
    return result


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    try:
        result = prepare(request) if request["mode"] == "prepare" else rep(request)
        code = 0
    except Exception:
        result = {"error": traceback.format_exc()}
        code = 1
    with open(request["out"], "w", encoding="utf-8") as out:
        json.dump(result, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
