"""Named monotonic counters with a monoid merge.

Every layer counts through one process-global :class:`Counters`
instance (:func:`counters`):

* the store bumps ``store.hit`` / ``store.miss`` / ``store.put`` /
  ``store.put_bytes`` / ``store.evict``;
* the sweep scheduler bumps ``sched.spawns`` (per worker spawned),
  ``sched.tasks_run`` / ``sched.spec_tasks`` / ``sched.shard_tasks``
  (per task dispatched), and ``sched.worker_cpu_s`` (per finished
  task) / ``sched.barrier_idle_s`` (while a shard task waits at an
  epoch barrier) in the process that ran the work;
* ``DownlinkPhase`` bumps ``downlink.visits`` /
  ``downlink.delivered_bytes`` / ``downlink.layers_shed`` /
  ``downlink.deferred`` / ``downlink.dropped``;
* the codec registry bumps ``codec.resolve.<engine>`` per resolution
  (``compiled`` in production; a test that registers the oracle engine
  counts ``codec.resolve.reference``);
* ``SatelliteSensor.capture`` bumps ``cache.capture.hit`` /
  ``cache.capture.miss`` (one per capture rendered) /
  ``cache.capture.evict``, and ``EarthModel`` bumps ``cache.block.hit``
  / ``cache.block.miss`` (one per change-cell block rendered) /
  ``cache.block.evict``.

Counters follow the same algebra as every other per-worker partial in
this codebase (``RunResult``, ``DownlinkStats``): :meth:`Counters.merge`
is associative with :meth:`Counters.identity` as the unit, so worker
deltas shipped over the scheduler's result protocol fold into one
sweep-wide view in any order.  Values are monotonic — only
:meth:`Counters.inc` with a non-negative amount — which is what makes
:meth:`Counters.diff` against an earlier snapshot a valid per-task
delta.
"""

from __future__ import annotations

__all__ = ["Counters", "counters", "reset_counters"]


class Counters:
    """A bag of named monotonic counters.

    Values are ints or floats (e.g. ``sched.barrier_idle_s`` accumulates
    seconds); names are dotted strings namespaced by subsystem.
    """

    def __init__(self, values: dict | None = None) -> None:
        self.values: dict = dict(values) if values else {}

    @classmethod
    def identity(cls) -> "Counters":
        """The merge unit: no counters."""
        return cls()

    def inc(self, name: str, amount=1) -> None:
        """Bump ``name`` by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {name!r}: negative increment {amount}")
        if amount:
            self.values[name] = self.values.get(name, 0) + amount

    def get(self, name: str, default=0):
        return self.values.get(name, default)

    def merge(self, other: "Counters") -> "Counters":
        """Pointwise sum with ``other`` — associative, identity-unital."""
        merged = dict(self.values)
        for name, value in other.values.items():
            merged[name] = merged.get(name, 0) + value
        return Counters(merged)

    def merge_in(self, other: "Counters") -> None:
        """In-place :meth:`merge` (the driver folding worker deltas)."""
        for name, value in other.values.items():
            self.values[name] = self.values.get(name, 0) + value

    def snapshot(self) -> "Counters":
        """An independent copy, usable later as a :meth:`diff` baseline."""
        return Counters(self.values)

    def diff(self, baseline: "Counters") -> "Counters":
        """Counters accumulated since ``baseline`` (a prior snapshot)."""
        delta = {}
        for name, value in self.values.items():
            change = value - baseline.values.get(name, 0)
            if change:
                delta[name] = change
        return Counters(delta)

    def rows(self) -> list[dict]:
        """``[{"counter", "value"}]`` sorted by name, for table output."""
        return [
            {"counter": name, "value": self.values[name]}
            for name in sorted(self.values)
        ]

    def __bool__(self) -> bool:
        return bool(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Counters):
            return NotImplemented
        return self.values == other.values

    def __repr__(self) -> str:
        return f"Counters({self.values!r})"


#: The process-global counter bag all subsystems bump.
_COUNTERS = Counters()


def counters() -> Counters:
    """The process-global :class:`Counters` instance."""
    return _COUNTERS


def reset_counters() -> Counters:
    """Replace the process-global bag with a fresh one (tests, workers)."""
    global _COUNTERS
    _COUNTERS = Counters()
    return _COUNTERS
