"""Outside-in layer tracing for the traced run, and its self-time table.

:func:`install` wraps public entry points of each layer with the
program's own ``repro.obs.trace.span``, from this file; the program is not
edited.  Pool workers fork from the driver after the wrappers are in
place, and ship their spans home over the scheduler's result protocol.
A wrapper span carries the attribute :data:`MARK` naming its layer, which
is how the table tells the benchmark's spans from the program's.

:func:`self_time_table` turns the spans into rows.  Rows are the
wrapper spans plus the program's spans that sit outside every wrapper on
their track (``barrier_wait``, ``epoch_merge``, ``shard_task``...).  A
program span inside a wrapper is folded into that wrapper, so a row does
not move when the program adds or removes its own inner spans.  A row's
self time is its duration minus its child rows; per track (the driver and
each worker) the rows plus ``unattributed`` sum to the run's wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref

#: Span attribute that marks a benchmark wrapper span; its value is the layer.
MARK = "perfbench_layer"

#: Counter the capture wrapper bumps when a capture was synthesized rather
#: than served from the capture cache (the returned object is new).
SYNTHESIZED = "perfbench.imagery.synthesized"

#: Wrapped entry points: (row name, layer, targets "module:qualname").
ENTRY_POINTS = (
    ("scenarios.build_simulator", "analysis.scenarios",
     ("repro.analysis.scenarios:build_simulator",)),
    ("phase.uplink", "core.phases", ("repro.core.phases:UplinkPhase.run",)),
    ("phase.capture", "core.phases", ("repro.core.phases:CapturePhase.run",)),
    ("phase.downlink", "core.phases",
     ("repro.core.phases:DownlinkPhase.run",)),
    ("phase.ingest", "core.phases", ("repro.core.phases:IngestPhase.run",)),
    ("imagery.capture", "imagery",
     ("repro.imagery.sensor:SatelliteSensor.capture",)),
    ("cloud.detect", "core.cloud", ("repro.core.cloud:CloudDetector.detect",)),
    ("change.detect", "core.change_detection",
     ("repro.core.change_detection:detect_changes_many",)),
    ("reference.downsample", "core.reference",
     ("repro.core.reference:downsample_many",)),
    ("encoder.encode_roi", "core.encoder",
     ("repro.core.encoder:RoiRateController.encode_roi",)),
    ("ratemodel.prepare", "codec.ratemodel",
     ("repro.codec.ratemodel:RateModel.prepare",)),
    ("ratemodel.estimate", "codec.ratemodel",
     ("repro.codec.ratemodel:RateModel.estimate_with_stats",)),
    ("ratemodel.encode", "codec.ratemodel",
     ("repro.codec.ratemodel:RateModel.encode",)),
    ("ratemodel.search", "codec.ratemodel",
     ("repro.codec.ratemodel:RateModel.find_step_for_bytes",)),
    ("adapter.encode", "codec.adapter",
     ("repro.codec.adapter:RealCodecAdapter.encode",)),
    ("adapter.search", "codec.adapter",
     ("repro.codec.adapter:RealCodecAdapter.find_step_for_bytes",)),
    ("dwt.forward", "codec.dwt",
     ("repro.codec.dwt:dwt_many", "repro.codec.dwt:forward_dwt2d")),
    ("dwt.inverse", "codec.dwt",
     ("repro.codec.dwt:idwt_many", "repro.codec.dwt:inverse_dwt2d")),
    ("engine.encode", "codec.jpeg2000",
     ("repro.codec.jpeg2000:ImageCodec.encode",)),
    ("engine.decode", "codec.jpeg2000",
     ("repro.codec.jpeg2000:ImageCodec.decode",)),
    ("ground.plan_uploads", "core.ground_segment",
     ("repro.core.ground_segment:GroundSegment.plan_uploads",)),
    ("ground.ingest", "core.ground_segment",
     ("repro.core.ground_segment:GroundSegment.ingest",)),
    ("ground.apply_ingests", "core.ground_segment",
     ("repro.core.ground_segment:GroundSegment.apply_ingests",)),
    ("accounting.observe", "core.accounting",
     ("repro.core.accounting:MetricsAccumulator.observe",)),
    ("accounting.merge", "core.accounting",
     ("repro.core.accounting:RunResult.merge",)),
    ("store.put", "store", ("repro.store.backend:ExperimentStore.put",)),
    ("store.get", "store",
     ("repro.store.backend:ExperimentStore.get_many",
      "repro.store.backend:ExperimentStore.get")),
)

#: Layers of the program's own spans that can appear outside any wrapper.
PROGRAM_LAYERS = {
    "spec_task": "analysis.scheduler",
    "shard_task": "analysis.scheduler",
    "barrier_wait": "analysis.scheduler",
    "epoch_merge": "analysis.scheduler",
    "sync": "core.system",
    "uplink": "core.system",
    "capture": "core.system",
    "downlink": "core.system",
    "ingest": "core.system",
}


def _resolve(target: str):
    """``(owner, attribute, original)`` for ``module:qualname``."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, getattr(owner, attribute)


def _spanned(original, row: str, layer: str):
    from repro.obs import trace

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with trace.span(row, **{MARK: layer}):
            return original(*args, **kwargs)

    return wrapper


def _spanned_capture(original, row: str, layer: str):
    """The capture wrapper also counts captures it has not seen returned.

    A cache hit hands back the very object an earlier call returned; a
    synthesized capture is a new object.
    """
    from repro.obs import metrics, trace

    seen: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with trace.span(row, **{MARK: layer}):
            capture = original(*args, **kwargs)
        if seen.get(id(capture)) is not capture:
            seen[id(capture)] = capture
            metrics.counters().inc(SYNTHESIZED)
        return capture

    return wrapper


def install() -> list[str]:
    """Wrap every entry point that exists; returns the targets that do not.

    Module functions are replaced in every loaded ``repro`` module that
    bound them by name, so call sites that imported them directly see the
    wrapper too; modules imported later import the wrapper.  A target that
    a refactor removed is reported as missing, not fatal.
    """
    missing: list[str] = []
    for row, layer, targets in ENTRY_POINTS:
        make = _spanned_capture if row == "imagery.capture" else _spanned
        for target in targets:
            try:
                owner, attribute, original = _resolve(target)
            except (ImportError, AttributeError):
                missing.append(target)
                continue
            wrapper = make(original, row, layer)
            if isinstance(owner, type):
                setattr(owner, attribute, wrapper)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
    return missing


def self_time_table(spans, wall_s: float) -> dict:
    """Self time per row and per track; rows + unattributed == wall per track.

    Args:
        spans: Span records ``(name, begin_s, end_s, attrs)`` as
            ``Tracer.spans()`` returns them, from the driver and workers.
        wall_s: Wall time of the traced region; every track is charged
            against it (a worker's idle time is its unattributed time).

    Returns:
        ``{"rows": [...], "tracks": [...]}``.  Each row has ``row``,
        ``layer``, ``source`` (``bench`` or ``program``), ``calls``,
        ``self_s`` and ``per_track``; each track has ``track``,
        ``wall_s``, ``covered_s`` and ``unattributed_s``.
    """
    by_track: dict[str, list] = {"driver": []}
    for name, begin, end, attrs in spans:
        attrs = attrs or {}
        track = f"worker{attrs['worker']}" if "worker" in attrs else "driver"
        by_track.setdefault(track, []).append(
            (begin, -end, name, attrs.get(MARK))
        )
    rows: dict[str, dict] = {}
    tracks = []
    for track in sorted(by_track):
        instances = []  # [row name, self seconds] per row span
        # Open spans: (end, nearest enclosing row instance, inside a wrapper).
        stack: list[tuple] = []
        covered = 0.0
        for begin, neg_end, name, layer in sorted(by_track[track]):
            end = -neg_end
            while stack and stack[-1][0] <= begin:
                stack.pop()
            _, parent_row, inside = stack[-1] if stack else (None, None, False)
            if layer is None and inside:
                # A program span inside a wrapper: its time stays with
                # the wrapper.
                stack.append((end, parent_row, True))
                continue
            duration = end - begin
            instance = [name, duration]
            instances.append(instance)
            if parent_row is not None:
                parent_row[1] -= duration
            else:
                covered += duration
            if name not in rows:
                rows[name] = {
                    "row": name,
                    "layer": layer or PROGRAM_LAYERS.get(name, "(program)"),
                    "source": "bench" if layer else "program",
                    "calls": 0,
                    "self_s": 0.0,
                    "per_track": {},
                }
            rows[name]["calls"] += 1
            stack.append((end, instance, inside or layer is not None))
        for name, self_s in instances:
            row = rows[name]
            row["self_s"] += self_s
            row["per_track"][track] = row["per_track"].get(track, 0.0) + self_s
        tracks.append(
            {
                "track": track,
                "wall_s": wall_s,
                "covered_s": covered,
                "unattributed_s": wall_s - covered,
            }
        )
    ordered = sorted(rows.values(), key=lambda row: -row["self_s"])
    ordered.append(
        {
            "row": "unattributed",
            "layer": "-",
            "source": "-",
            "calls": 0,
            "self_s": sum(t["unattributed_s"] for t in tracks),
            "per_track": {t["track"]: t["unattributed_s"] for t in tracks},
        }
    )
    return {"rows": ordered, "tracks": tracks}
