"""Environment accessors and lightweight kernel profiling.

Small, dependency-free facilities the whole simulation stack shares:

* **Environment switches.**  :func:`env_flag` (and the lower-level
  :func:`parse_flag`) is the one parser every boolean ``REPRO_*``
  variable goes through, so ``off``/``FALSE``/``no`` disable a switch
  exactly like ``0`` everywhere.  :func:`sim_shards` and
  :func:`sim_workers` read the two positive-integer counts
  (``REPRO_SIM_SHARDS``, ``REPRO_SIM_WORKERS``) through one parser.
  Every accessor reads its variable at call time, so exporting it after
  ``import repro`` works.

* **The profiler.**  :func:`enable_profiler` installs a process-wide
  :class:`SimProfiler`; instrumented sections (simulation phases, DWT,
  codec/rate model, change-detection scoring, imagery synthesis) record
  wall time into it via :func:`profiled`.  When no profiler is installed
  the instrumentation is a near-zero-cost fast return, so hot kernels can
  stay instrumented unconditionally.  :func:`profiled` is a compatibility
  shim over :func:`repro.obs.trace.span`, so the same call sites feed the
  trace timeline (``--trace``) when a tracer is enabled.
"""

from __future__ import annotations

import os

#: Accepted spellings for boolean ``REPRO_*`` environment switches.
_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off", ""})


def parse_flag(value: str) -> bool | None:
    """Parse one boolean-switch spelling, case-insensitively.

    Returns True/False for a recognized spelling (``1/true/yes/on`` vs
    ``0/false/no/off`` or empty), or None when ``value`` is not a boolean
    word at all — callers with path-or-flag variables (``REPRO_STORE``)
    use None to mean "treat it as a path".
    """
    word = value.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    return None


def env_flag(name: str, default: bool) -> bool:
    """Read a boolean ``REPRO_*`` environment switch.

    The single parser every repro on/off switch goes through, so
    ``FALSE``/``off``/``no`` disable exactly like ``0`` (historically
    only ``0/false/no`` were recognized and ``FALSE`` silently enabled).

    Args:
        name: Environment variable name.
        default: Value when the variable is unset.

    Raises:
        ValueError: For a set value that is not a recognized boolean
            spelling — loud beats silently enabling.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    flag = parse_flag(raw)
    if flag is None:
        raise ValueError(
            f"{name}={raw!r} is not a boolean switch; expected one of "
            f"{sorted(_TRUE_WORDS)} or {sorted(_FALSE_WORDS - {''})}"
        )
    return flag


def _env_count(name: str, noun: str) -> int:
    """Read a positive-integer ``REPRO_*`` count at call time.

    Unset or blank means 1 (sequential).

    Raises:
        ValueError: For a set value that is not an integer >= 1; the
            message names the variable.
    """
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return 1
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not an integer {noun}") from None
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    return count


def sim_shards() -> int:
    """Default shard count for single-scenario sharding (``REPRO_SIM_SHARDS``).

    Read at call time (not import time) so tests and notebooks can flip
    the variable per run.  The shard count is engine configuration — it
    never changes results (see :mod:`repro.core.sharding`) — so callers
    that omit an explicit ``shards=`` pick this up transparently.

    Returns:
        The configured shard count (>= 1); 1 (sequential) when unset.

    Raises:
        ValueError: For a set value that is not a positive integer.
    """
    return _env_count("REPRO_SIM_SHARDS", "shard count")


def sim_workers() -> int:
    """Default sweep worker-pool size (``REPRO_SIM_WORKERS``).

    Read at call time (not import time), matching :func:`sim_shards`.
    The pool size is pure scheduling topology — the sweep scheduler
    (see :mod:`repro.analysis.scheduler`) produces byte-identical
    results at any value — so callers that omit an explicit
    ``max_workers=`` pick this up transparently.

    Returns:
        The configured worker count (>= 1); 1 (sequential) when unset.

    Raises:
        ValueError: For a set value that is not a positive integer.
    """
    return _env_count("REPRO_SIM_WORKERS", "worker count")


class SimProfiler:
    """Accumulates wall-clock time per named section.

    Sections are flat (no nesting semantics): a section's time is the sum
    of every ``profiled(name)`` span that ran while this profiler was
    installed.  Phase sections (``uplink``/``capture``/``ingest``) tile the
    simulation loop; kernel sections (``dwt``/``codec``/``scoring``/
    ``imagery``) run *inside* phases, so kernel times are a breakdown of
    where phase time goes, not an additional cost.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    @classmethod
    def identity(cls) -> "SimProfiler":
        """The merge unit: an empty profiler."""
        return cls()

    @classmethod
    def from_rows(cls, rows) -> "SimProfiler":
        """Rebuild a profiler from :meth:`rows` output (worker partials)."""
        profiler = cls()
        for row in rows:
            name = row["section"]
            profiler.seconds[name] = (
                profiler.seconds.get(name, 0.0) + row["seconds"]
            )
            profiler.calls[name] = profiler.calls.get(name, 0) + row["calls"]
        return profiler

    def merge(self, other: "SimProfiler") -> "SimProfiler":
        """Pointwise sum of section times and call counts.

        Associative with :meth:`identity` as the unit (section times are
        float sums, so associativity is approximate, like
        ``RunResult.merge``): per-shard/per-worker profiles fold into
        one sweep-wide table in any grouping.
        """
        merged = SimProfiler()
        merged.seconds = dict(self.seconds)
        merged.calls = dict(self.calls)
        for name, seconds in other.seconds.items():
            merged.seconds[name] = merged.seconds.get(name, 0.0) + seconds
        for name, calls in other.calls.items():
            merged.calls[name] = merged.calls.get(name, 0) + calls
        return merged

    def add(self, name: str, seconds: float) -> None:
        """Record one span of ``seconds`` against section ``name``."""
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1

    def rows(self) -> list[dict]:
        """Per-section summary rows, longest-running first."""
        return [
            {
                "section": name,
                "seconds": round(self.seconds[name], 6),
                "calls": self.calls[name],
            }
            for name in sorted(
                self.seconds, key=lambda n: self.seconds[n], reverse=True
            )
        ]


_PROFILER: SimProfiler | None = None


def enable_profiler() -> SimProfiler:
    """Install (and return) a fresh process-wide profiler."""
    global _PROFILER
    _PROFILER = SimProfiler()
    return _PROFILER


def disable_profiler() -> None:
    """Remove the installed profiler (instrumentation returns to no-op)."""
    global _PROFILER
    _PROFILER = None


def active_profiler() -> SimProfiler | None:
    """The installed profiler, if any."""
    return _PROFILER


# Lazily-bound repro.obs.trace.span: perf must stay importable by obs
# (obs.trace reads _PROFILER directly), so the import runs on first use,
# not at module load — there is no cycle at import time.
_SPAN = None


def profiled(name: str):
    """Time a block against section ``name`` when a profiler is installed.

    Compatibility shim over :func:`repro.obs.trace.span`: every
    pre-existing ``profiled(...)`` call site now also emits a trace span
    when a tracer is enabled, while keeping the historical near-zero-cost
    fast return when neither facility is installed.
    """
    global _SPAN
    if _SPAN is None:
        from repro.obs.trace import span as _SPAN  # noqa: PLW0603
    return _SPAN(name)
