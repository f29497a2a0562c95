"""Environment accessors the whole simulation stack shares.

:func:`env_flag` (and the lower-level :func:`parse_flag`) is the one
parser every boolean ``REPRO_*`` variable goes through, so
``off``/``FALSE``/``no`` disable a switch exactly like ``0`` everywhere.
:func:`sim_shards` and :func:`sim_workers` read the two positive-integer
counts (``REPRO_SIM_SHARDS``, ``REPRO_SIM_WORKERS``) through one parser.
Every accessor reads its variable at call time, so exporting it after
``import repro`` works.

Timing lives in :mod:`repro.obs.trace`: instrumented sections call
:func:`~repro.obs.trace.span`, and ``--profile`` summarizes the spans.
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
