"""Codec backend registry: named engines, one resolution path.

Every entropy-coding engine the codec can run on is registered here as a
:class:`CodecBackend` — a name, capability flags, a plane-coder factory,
and an availability probe.  All layers that used to thread ad-hoc backend
strings around (``ImageCodec``, ``RealCodecAdapter``, the rate model, the
scenario workers, ``cli.py --codec``) now go through :func:`resolve`,
which applies one precedence order everywhere:

1. an explicit ``backend=`` argument,
2. the engine named by ``EarthPlusConfig.codec_backend``,
3. the ``REPRO_CODEC_BACKEND`` environment variable (read at call time),
4. the default, ``"real"`` (so a bare :class:`ImageCodec` runs the best
   available engine).

The name ``"real"`` is a virtual alias meaning "the best available
bit-exact engine" — ``compiled`` when the native kernels built, else
``vectorized``.  The per-bit ``reference`` engine stays registered and
runs only when named.  Requesting ``compiled`` on a machine without a C
toolchain warns once and falls back to ``vectorized`` (same bitstreams,
slower), so configs are portable across machines.

Backend choice is *engine-only*: all registered engines are differential-
tested byte-identical, so the choice never enters the experiment-store
key (see ``repro.store.specs``), exactly like the shard count.

Registering a new engine::

    from repro.codec import registry

    registry.register(registry.CodecBackend(
        name="mine",
        description="my experimental coder",
        coder_factory=MyPlaneCoder,      # (band_shapes) -> plane coder
        batched=True,                    # consumes whole (bits, ctxs) arrays
        compiled=False,                  # no native kernels
        availability=lambda: None,       # or a reason string when unusable
    ))

The only contract is the plane-coder API (``encode(bands, max_plane)`` /
``decode(segments, max_plane)``) and byte-identical output — add the new
name to the differential/golden/corruption parameterizations to enforce
that.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import CodecError
from repro.obs.metrics import counters

#: Environment variable naming the default engine (read at call time, so
#: exporting it after import works — unlike the old import-time reads).
ENV_BACKEND = "REPRO_CODEC_BACKEND"

#: Virtual name resolving to the best available bit-exact engine.
REAL_ALIAS = "real"

#: The engine every machine can run; unavailable engines fall back here.
FALLBACK_BACKEND = "vectorized"


@dataclass(frozen=True)
class CodecBackend:
    """One registered entropy-coding engine.

    Attributes:
        name: Registry key (``--codec`` value, config value, env value).
        description: One line for ``--help`` and error messages.
        coder_factory: ``(band_shapes) -> plane coder`` constructor; the
            coder must implement ``encode(bands, max_plane)`` and
            ``decode(segments, max_plane)``.
        batched: Capability — consumes whole (bits, contexts) arrays
            instead of coding bit by bit.
        compiled: Capability — runs on native compiled kernels.
        availability: Probe returning None when usable, else a human-
            readable reason (checked at resolve time, never at import).
    """

    name: str
    description: str
    coder_factory: Callable
    batched: bool = False
    compiled: bool = False
    availability: Callable[[], "str | None"] = field(
        default=lambda: None, repr=False
    )

    def available(self) -> bool:
        """Whether this engine can run on this machine right now."""
        return self.availability() is None


# repro: allow(RPR005): populated only by import-time register() calls, so every process (driver or forked worker) builds the identical registry; all engines are differential-tested byte-identical anyway
_REGISTRY: "dict[str, CodecBackend]" = {}
# repro: allow(RPR005): warn-once bookkeeping — divergence across workers only changes how many times a warning prints, never a result byte
_warned_fallback: "set[str]" = set()


def register(backend: CodecBackend, replace: bool = False) -> CodecBackend:
    """Register an engine; ``replace=True`` overrides an existing name."""
    if not replace and backend.name in _REGISTRY:
        raise CodecError(f"codec backend {backend.name!r} already registered")
    if backend.name == REAL_ALIAS:
        raise CodecError(f"{REAL_ALIAS!r} is reserved as a virtual alias")
    _REGISTRY[backend.name] = backend
    return backend


def names() -> "tuple[str, ...]":
    """Registered engine names, registration order."""
    return tuple(_REGISTRY)


def get(name: str) -> CodecBackend:
    """Look up an engine by exact name.

    Raises:
        CodecError: Unknown name (lists the valid ones).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CodecError(
            f"backend must be one of {sorted(_REGISTRY)}, got {name!r}"
        ) from None


def best_available() -> CodecBackend:
    """The fastest usable engine (what the ``"real"`` alias means).

    Engines register in speed order, so the last available one wins.
    """
    return _best_available()


def resolve(
    explicit: "str | None" = None,
    config_backend: "str | None" = None,
    default: str = REAL_ALIAS,
) -> CodecBackend:
    """Resolve the engine to use, applying the one true precedence order.

    ``explicit`` > ``config_backend`` > ``$REPRO_CODEC_BACKEND`` >
    ``default``.  The virtual name ``"real"`` picks the best available
    engine; a named engine that is unavailable on this machine warns once
    and falls back to ``vectorized`` (byte-identical output).

    Raises:
        CodecError: Unknown engine name.
    """
    requested = explicit or config_backend or _env_backend() or default
    if requested == REAL_ALIAS:
        backend = _best_available()
        counters().inc(f"codec.resolve.{backend.name}")
        return backend
    backend = get(requested)
    reason = backend.availability()
    if reason is None:
        counters().inc(f"codec.resolve.{backend.name}")
        return backend
    if backend.name not in _warned_fallback:
        _warned_fallback.add(backend.name)
        warnings.warn(
            f"codec backend {backend.name!r} is unavailable ({reason}); "
            f"falling back to {FALLBACK_BACKEND!r} (byte-identical, slower)",
            RuntimeWarning,
            stacklevel=2,
        )
    counters().inc("codec.fallback")
    counters().inc(f"codec.resolve.{FALLBACK_BACKEND}")
    return get(FALLBACK_BACKEND)


def resolve_name(
    explicit: "str | None" = None,
    config_backend: "str | None" = None,
    default: str = REAL_ALIAS,
) -> str:
    """:func:`resolve`, returning just the engine name (for worker args)."""
    return resolve(explicit, config_backend, default).name


# (raw env value, kernels-or-None): kernels() sits on per-tile hot
# paths (the fused DWT, rate-model histograms), so re-resolve only when
# $REPRO_CODEC_BACKEND actually changes — one dict lookup per call.
_KERNELS_CACHE: "tuple[str | None, object] | None" = None


def kernels_enabled() -> bool:
    """Whether the compiled kernels may accelerate shared fast paths.

    The DWT lifting and rate-model kernels are engine-independent and
    bit-exact, so they run whenever the native library is available —
    unless the environment pins a pure-Python engine
    (``REPRO_CODEC_BACKEND=reference|vectorized``), which benchmarks and
    tests use to measure/exercise the numpy paths unaccelerated.
    """
    return kernels() is not None


def kernels():
    """The loaded kernel library when enabled, else None (hot-path helper)."""
    global _KERNELS_CACHE
    raw = os.environ.get(ENV_BACKEND)
    cache = _KERNELS_CACHE
    if cache is not None and cache[0] == raw:
        return cache[1]
    value = raw.strip() if raw is not None else None
    if value in ("reference", FALLBACK_BACKEND):
        lib = None
    else:
        from repro.codec import _ckernels

        lib = _ckernels.load()
    _KERNELS_CACHE = (raw, lib)
    return lib


def _env_backend() -> "str | None":
    value = os.environ.get(ENV_BACKEND)
    if value is None:
        return None
    value = value.strip()
    return value or None


def _best_available() -> CodecBackend:
    best = None
    for backend in _REGISTRY.values():
        if backend.available():
            best = backend
    if best is None:  # cannot happen: reference/vectorized are always usable
        raise CodecError("no codec backend is available")
    return best


def reset_fallback_warnings() -> None:
    """Re-arm the once-per-backend fallback warning (tests)."""
    _warned_fallback.clear()


def reset_kernels_cache() -> None:
    """Drop the memoized kernel handle (after re-probing the toolchain)."""
    global _KERNELS_CACHE
    _KERNELS_CACHE = None


def _register_builtins() -> None:
    """Register the built-in engines (import-cycle-safe: lazy factories)."""
    from repro.codec.bitplane import SubbandPlaneCoder
    from repro.codec.fastpath import VectorizedPlaneCoder

    register(
        CodecBackend(
            name="reference",
            description="per-bit adaptive arithmetic coder (pure Python)",
            coder_factory=SubbandPlaneCoder,
        )
    )
    register(
        CodecBackend(
            name=FALLBACK_BACKEND,
            description="batched numpy fast path, byte-identical",
            coder_factory=VectorizedPlaneCoder,
            batched=True,
        )
    )

    def _compiled_factory(band_shapes):
        from repro.codec.compiled import CompiledPlaneCoder

        return CompiledPlaneCoder(band_shapes)

    def _compiled_availability() -> "str | None":
        from repro.codec import _ckernels

        return _ckernels.unavailable_reason()

    register(
        CodecBackend(
            name="compiled",
            description="native C kernels (built on first use), byte-identical",
            coder_factory=_compiled_factory,
            batched=True,
            compiled=True,
            availability=_compiled_availability,
        )
    )


_register_builtins()
