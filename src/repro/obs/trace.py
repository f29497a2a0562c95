"""Span tracing: begin/end timestamps in a bounded per-process ring buffer.

:func:`span` is the one instrumentation point the whole stack shares:
when a :class:`Tracer` is enabled the span lands in its ring buffer with
full begin/end timestamps and attribution.  ``--trace`` writes that
timeline to a file and ``--profile`` prints its per-section totals
(:func:`repro.obs.export.summarize`), so both views read the same spans.

Design constraints, in order:

* **Zero perturbation.**  Spans only read the clock; simulation results
  are byte-identical with tracing on or off (differential-tested).
* **Near-zero cost when disabled.**  With no tracer installed,
  :func:`span` returns a shared no-op context manager after one
  module-attribute read — cheap enough to leave hot kernels
  instrumented unconditionally.
* **Bounded memory.**  The buffer is a fixed-capacity ring; overflow
  overwrites the oldest span and counts ``dropped`` so exports can say
  the timeline is clipped rather than silently lying.
* **Mergeable.**  Span records are plain picklable tuples; per-worker
  buffers ship back over the scheduler's result protocol and
  :meth:`Tracer.extend` folds them — associatively, like every other
  per-worker partial in this codebase — into one sweep-wide timeline.

Attribution rides on an ambient per-process context
(:func:`set_context` / :func:`trace_context`): the scheduler workers set
``worker``/``scenario``/``shard`` once per task and the epoch loop sets
``epoch`` once per epoch, so per-visit spans stay attribute-free (and
therefore cheap) while every recorded span still knows where it ran.

Timestamps are ``time.perf_counter()``, which on Linux is the system-wide
``CLOCK_MONOTONIC`` — forked worker processes and the driver share one
timebase, so merged timelines need no clock reconciliation.
"""

from __future__ import annotations

import os
import time

__all__ = [
    "DEFAULT_CAPACITY",
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

#: Ring-buffer capacity when :func:`enable_tracer` is not told otherwise.
#: At ~100 bytes/span this bounds a worker's buffer to a few megabytes.
DEFAULT_CAPACITY = 65536


class Tracer:
    """A bounded ring buffer of finished spans.

    Span records are plain tuples ``(name, begin_s, end_s, attrs)`` —
    ``attrs`` is a dict (ambient context merged with per-span attributes)
    or None.  Records are picklable by construction so worker buffers
    can ship over the scheduler's result queue.

    Args:
        capacity: Maximum retained spans; older spans are overwritten
            (and counted in :attr:`dropped`) once the buffer is full.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.pid = os.getpid()
        self.dropped = 0
        self._buffer: list[tuple] = []
        self._next = 0  # overwrite cursor once the buffer is full

    def add(
        self,
        name: str,
        begin_s: float,
        end_s: float,
        attrs: dict | None = None,
    ) -> None:
        """Record one finished span (oldest span evicted at capacity)."""
        record = (name, begin_s, end_s, attrs)
        if len(self._buffer) < self.capacity:
            self._buffer.append(record)
        else:
            self._buffer[self._next] = record
            self._next = (self._next + 1) % self.capacity
            self.dropped += 1

    def extend(self, spans, dropped: int = 0) -> None:
        """Fold another buffer's spans (a worker partial) into this one.

        Folding is associative and order-only — exporters sort by begin
        time, so the merged timeline is independent of arrival order.

        Args:
            spans: Span tuples as produced by :meth:`spans`.
            dropped: The source buffer's own drop count, carried over so
                the merged timeline still reports clipping.
        """
        for record in spans:
            self.add(*record)
        self.dropped += dropped

    def spans(self) -> list[tuple]:
        """Retained spans, oldest first."""
        if self._next == 0:
            return list(self._buffer)
        return self._buffer[self._next :] + self._buffer[: self._next]

    def __len__(self) -> int:
        return len(self._buffer)


#: The installed per-process tracer (None = tracing disabled).
_TRACER: Tracer | None = None

#: Ambient attribution merged into every recorded span.
# repro: allow(RPR005): per-process divergence is the feature — each worker sets its own worker/scenario/shard attribution, and span buffers ride the scheduler result protocol back to the driver explicitly
_CONTEXT: dict = {}


def enable_tracer(capacity: int = DEFAULT_CAPACITY) -> Tracer:
    """Install (and return) a fresh process-wide tracer."""
    global _TRACER
    _TRACER = Tracer(capacity=capacity)
    return _TRACER


def disable_tracer() -> None:
    """Remove the installed tracer (spans return to no-ops)."""
    global _TRACER
    _TRACER = None


def active_tracer() -> Tracer | None:
    """The installed tracer, if any."""
    return _TRACER


def set_context(**attrs) -> None:
    """Set ambient attribution keys merged into every recorded span.

    Keys set to None are removed — ``set_context(shard=None)`` clears
    the shard attribution rather than recording a null attribute.
    """
    for name, value in attrs.items():
        if value is None:
            _CONTEXT.pop(name, None)
        else:
            _CONTEXT[name] = value


def clear_context(*names: str) -> None:
    """Remove the named ambient attribution keys (missing keys are fine)."""
    for name in names:
        _CONTEXT.pop(name, None)


def reset_context() -> None:
    """Drop all ambient attribution (workers call this between tasks)."""
    _CONTEXT.clear()


def current_context() -> dict:
    """A copy of the ambient attribution (for tests and exporters)."""
    return dict(_CONTEXT)


class trace_context:
    """Context manager setting ambient attribution for a block.

    Previous values (including absence) are restored on exit, so nested
    blocks compose::

        with trace_context(scenario="earthplus/s0"):
            with trace_context(epoch=3):
                ...
    """

    def __init__(self, **attrs) -> None:
        self._attrs = attrs
        self._saved: dict = {}

    def __enter__(self) -> None:
        sentinel = self._saved
        for name, value in self._attrs.items():
            self._saved[name] = _CONTEXT.get(name, sentinel)
            if value is None:
                _CONTEXT.pop(name, None)
            else:
                _CONTEXT[name] = value

    def __exit__(self, exc_type, exc, tb) -> bool:
        sentinel = self._saved
        for name, previous in self._saved.items():
            if previous is sentinel:
                _CONTEXT.pop(name, None)
            else:
                _CONTEXT[name] = previous
        self._saved = {}
        return False


class _NullSpan:
    """Shared no-op context manager: the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """One active span: timestamps on entry/exit, recorded on exit.

    The tracer is re-read at exit (not captured at entry) so a span that
    straddles an enable/disable records consistently with the state at
    its end — the same call-time semantics as every other repro switch.
    """

    __slots__ = ("name", "attrs", "begin_s")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_LiveSpan":
        self.begin_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_s = time.perf_counter()
        tracer = _TRACER
        if tracer is not None:
            attrs = self.attrs
            if _CONTEXT:
                attrs = {**_CONTEXT, **attrs} if attrs else dict(_CONTEXT)
            tracer.add(self.name, self.begin_s, end_s, attrs or None)
        return False


def span(name: str, **attrs):
    """Time a block into the installed tracer, if any.

    Args:
        name: Section/span name (``uplink``, ``dwt``, ``spec_task``...).
        attrs: Per-span attributes recorded with the span (merged over
            the ambient context).

    Returns:
        A context manager.  With no tracer installed this is a shared
        no-op instance; the block runs untimed at near-zero cost.
    """
    if _TRACER is None:
        return _NULL_SPAN
    return _LiveSpan(name, attrs)
