"""Codec backend registry: named engines, one resolution path.

Every entropy-coding engine the codec can run on is registered here as a
:class:`CodecBackend` — a name, a description and a plane-coder factory.
All layers that name an engine (``ImageCodec``, ``RealCodecAdapter``,
the encoder stack, ``cli.py --codec``) go through :func:`resolve`, which
applies one precedence order everywhere:

1. an explicit ``backend=`` argument,
2. the engine named by ``EarthPlusConfig.codec_backend``,
3. the default, ``"real"``.

The production build registers one engine, ``compiled`` (the native C
kernels of :mod:`repro.codec._ckernels`), and the virtual name
``"real"`` names it.  The per-bit coder it is checked against is a test
oracle (``tests/codec_oracle.py``); a test harness that wants the oracle
behind :class:`~repro.codec.jpeg2000.ImageCodec` registers it as
``reference`` for its own scope.

Backend choice is *engine-only*: every registered engine is
differential-tested byte-identical to the oracle, so the choice never
enters the experiment-store key (see ``repro.store.specs``), exactly
like the shard count.

Registering an engine::

    from repro.codec import registry

    registry.register(registry.CodecBackend(
        name="mine",
        description="my experimental coder",
        coder_factory=MyPlaneCoder,      # (band_shapes) -> plane coder
    ))

The only contract is the plane-coder API (``encode(bands, max_plane)`` /
``decode(segments, max_plane)``) and byte-identical output — run the new
engine through the differential/golden/corruption harnesses to enforce
that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.codec import _ckernels
from repro.codec.compiled import CompiledPlaneCoder
from repro.errors import CodecError
from repro.obs.metrics import counters

#: Virtual name resolving to the production engine.
REAL_ALIAS = "real"

#: The engine :data:`REAL_ALIAS` names.
REAL_ENGINE = "compiled"


@dataclass(frozen=True)
class CodecBackend:
    """One registered entropy-coding engine.

    Attributes:
        name: Registry key (``ImageCodec(backend=...)`` value).
        description: One line for error messages.
        coder_factory: ``(band_shapes) -> plane coder`` constructor; the
            coder must implement ``encode(bands, max_plane)`` and
            ``decode(segments, max_plane)``.
    """

    name: str
    description: str
    coder_factory: Callable


# repro: allow(RPR005): populated only by import-time register() calls, so every process (driver or forked worker) builds the identical registry; all engines are differential-tested byte-identical anyway
_REGISTRY: "dict[str, CodecBackend]" = {}


def register(backend: CodecBackend) -> CodecBackend:
    """Register an engine under a new name."""
    if backend.name in _REGISTRY:
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


def resolve(
    explicit: "str | None" = None,
    config_backend: "str | None" = None,
    default: str = REAL_ALIAS,
) -> CodecBackend:
    """Resolve the engine to use: ``explicit`` > ``config_backend`` >
    ``default``, with ``"real"`` naming :data:`REAL_ENGINE`.

    Raises:
        CodecError: Unknown engine name.
    """
    requested = explicit or config_backend or default
    backend = get(REAL_ENGINE if requested == REAL_ALIAS else requested)
    counters().inc(f"codec.resolve.{backend.name}")
    return backend


def resolve_name(
    explicit: "str | None" = None,
    config_backend: "str | None" = None,
    default: str = REAL_ALIAS,
) -> str:
    """:func:`resolve`, returning just the engine name (for worker args)."""
    return resolve(explicit, config_backend, default).name


def kernels() -> "_ckernels.CompiledKernels":
    """The compiled kernel library, built and loaded on first use.

    The shared hot paths (DWT, rate-model histograms, imagery synthesis)
    call this per use; after the first call it is one cached lookup.

    Raises:
        CodecError: No C compiler, or a failed kernel build (see
            :func:`repro.codec._ckernels.load`).
    """
    return _ckernels.load()


register(
    CodecBackend(
        name=REAL_ENGINE,
        description="native C kernels (built on first use)",
        coder_factory=CompiledPlaneCoder,
    )
)
