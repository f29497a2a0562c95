"""Canonical spec serialization: scenario specs as stable content keys.

A :class:`~repro.analysis.scenarios.ScenarioSpec` determines its
:class:`~repro.core.accounting.RunResult` byte-for-byte (the scenario
layer's determinism contract), so a stable serialization of the spec is a
content address for the result.  :func:`spec_document` renders a spec into
a canonical JSON document — defaults resolved, dict parameters sorted,
display-only fields (``label``, ``extras``) excluded — and
:func:`spec_key` hashes that document with sha256.

Versioning: the document embeds :data:`SCHEMA_VERSION`, which must be
bumped whenever *any* change alters simulation output for an unchanged
spec (codec wire format, kernel numerics, detector training, default
resolution).  Old store entries then simply stop matching; no migration
is ever attempted.

Specs that carry state this module cannot reproduce from plain data — an
already-built dataset instead of a :class:`DatasetSpec`, a custom
fluctuation-model subclass, non-scalar dataset parameters — raise
:class:`~repro.errors.UncacheableSpecError`; such scenarios still run,
they just bypass the store.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np

from repro.analysis.scenarios import (
    DEFAULT_DOWNLINK_BYTES_PER_CONTACT,
    DEFAULT_UPLINK_BYTES_PER_CONTACT,
    DatasetSpec,
    ScenarioSpec,
)
from repro.core.config import EarthPlusConfig
from repro.errors import UncacheableSpecError
from repro.orbit.links import FluctuationModel

#: Bump whenever simulation output changes for an unchanged spec (codec
#: wire format, kernel numerics, detector training, default resolution).
#: Old entries stop matching; the store never migrates payloads.
#: 2: the downlink budget is enforced (DownlinkPhase; RunResult gained
#: downlink_stats and per-record downlink columns).
#: 3: EarthPlusConfig gained ground_sync_days (epoch-synchronized ground
#: state — semantics, so it keys) and the canonical visit ordering
#: tie-breaks by (location, satellite), not time alone.  The shard count
#: deliberately does NOT enter the key: sharding never changes results.
#: 4: the tile-pool width left the spec document; results are unchanged.
SCHEMA_VERSION = 4


def _leaf(value):
    """Validate/normalize one scalar leaf of a canonical document."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    raise UncacheableSpecError(
        f"cannot canonicalize value of type {type(value).__name__}: {value!r}"
    )


def _jsonable(value):
    """Canonical tuples/dicts/lists as plain JSON-ready structures."""
    if isinstance(value, dict):
        return {
            str(k): _jsonable(v) for k, v in sorted(value.items())
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return _leaf(value)


def _dataset_document(dataset) -> dict:
    if not isinstance(dataset, DatasetSpec):
        raise UncacheableSpecError(
            f"dataset of type {type(dataset).__name__} is not content-"
            "addressable; use DatasetSpec so workers (and the store) can "
            "rebuild it from plain data"
        )
    return {"kind": dataset.kind, "params": _jsonable(dataset.params)}


def _config_document(config: EarthPlusConfig | None) -> dict:
    resolved = config if config is not None else EarthPlusConfig()
    if type(resolved) is not EarthPlusConfig:
        raise UncacheableSpecError(
            f"config of type {type(resolved).__name__} is not a plain "
            "EarthPlusConfig; unknown subclass state cannot be hashed"
        )
    document = _jsonable(asdict(resolved))
    # Engine-only settings never change results, so they must never enter
    # the key (mirroring the shard-count exclusion): every real-codec
    # value collapses to the canonical "real", the value the store keys
    # of earlier engine names (reference/vectorized/compiled, each byte-
    # identical) already hashed as; only the model-vs-real-codec choice
    # keys (it changes byte accounting).
    if document["codec_backend"] != "model":
        document["codec_backend"] = "real"
    return document


def _fluctuation_document(fluctuation) -> dict | None:
    if fluctuation is None:
        return None
    if type(fluctuation) is not FluctuationModel:
        raise UncacheableSpecError(
            f"fluctuation of type {type(fluctuation).__name__} is not a "
            "plain FluctuationModel; unknown subclass state cannot be hashed"
        )
    return {
        "seed": _leaf(fluctuation.seed),
        "severity": _leaf(fluctuation.severity),
        "floor": _leaf(fluctuation.floor),
        "ceiling": _leaf(fluctuation.ceiling),
    }


def spec_document(spec: ScenarioSpec) -> dict:
    """The canonical document a spec's content key hashes.

    Defaults are resolved (a ``config=None`` spec and an explicit
    default-config spec share one key — and a change to the defaults
    changes the key); ``label`` and ``extras`` are excluded because they
    are display-only and never affect the result.

    Raises:
        UncacheableSpecError: When the spec carries state that cannot be
            reproduced from plain data.
    """
    uplink = (
        spec.uplink_bytes_per_contact
        if spec.uplink_bytes_per_contact is not None
        else DEFAULT_UPLINK_BYTES_PER_CONTACT
    )
    downlink = (
        spec.downlink_bytes_per_contact
        if spec.downlink_bytes_per_contact is not None
        else DEFAULT_DOWNLINK_BYTES_PER_CONTACT
    )
    return {
        "schema": SCHEMA_VERSION,
        "policy": spec.policy,
        "dataset": _dataset_document(spec.dataset),
        "config": _config_document(spec.config),
        "uplink_bytes_per_contact": _leaf(uplink),
        "downlink_bytes_per_contact": _leaf(downlink),
        "fluctuation": _fluctuation_document(spec.fluctuation),
        "downlink_severity": _leaf(float(spec.downlink_severity)),
        "ground_detector_for_scoring": bool(spec.ground_detector_for_scoring),
        "seed": _leaf(spec.seed),
    }


def canonical_json(document: dict) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace)."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def spec_key(spec: ScenarioSpec) -> str:
    """The spec's content key: sha256 over its canonical document.

    Raises:
        UncacheableSpecError: When the spec cannot be content-addressed.
    """
    try:
        rendered = canonical_json(spec_document(spec))
    except ValueError as exc:  # e.g. a NaN parameter
        raise UncacheableSpecError(
            f"spec is not canonically serializable: {exc}"
        ) from exc
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def is_cacheable(spec: ScenarioSpec) -> bool:
    """Whether the spec can be content-addressed (never raises)."""
    try:
        spec_key(spec)
    except UncacheableSpecError:
        return False
    return True
