"""Unified telemetry plane: span tracing, counters, trace export.

Three small facilities every layer of the stack reports through:

``repro.obs.trace``
    A span-based tracer: :func:`~repro.obs.trace.span` records begin/end
    on a monotonic clock into a bounded per-process ring buffer, with
    worker/scenario/shard/epoch attribution carried by an ambient
    context.  Near-zero cost when disabled, so hot kernels stay
    instrumented unconditionally.
``repro.obs.metrics``
    Named monotonic counters with a monoid ``merge()`` — the store
    (hit/miss/eviction/bytes), the sweep scheduler (steals/spawns/
    barrier idle), the downlink phase (shed/defer/drop), and the codec
    registry all count through one process-global instance; worker
    deltas ship back over the scheduler protocol and merge associatively.
``repro.obs.export``
    Chrome trace-event JSON (loadable in Perfetto / chrome://tracing,
    one track per worker) and a JSONL span log, plus the readers the
    ``repro trace`` CLI subcommand summarizes saved traces with.

Telemetry is a zero-perturbation overlay: tracing and counting never
change simulation results — a traced sweep is pickle-byte-identical to
an untraced one (differential-tested in ``tests/obs``).
"""

from repro.obs.metrics import Counters, counters, reset_counters
from repro.obs.progress import SweepProgress
from repro.obs.trace import (
    Tracer,
    active_tracer,
    clear_context,
    current_context,
    disable_tracer,
    enable_tracer,
    reset_context,
    set_context,
    span,
    trace_context,
)

__all__ = [
    "Counters",
    "counters",
    "reset_counters",
    "SweepProgress",
    "Tracer",
    "active_tracer",
    "clear_context",
    "current_context",
    "disable_tracer",
    "enable_tracer",
    "reset_context",
    "set_context",
    "span",
    "trace_context",
]
