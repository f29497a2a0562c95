"""Spec canonicalization tests: stability, sensitivity, schema salting.

The content key is the store's entire correctness story — a key that
drifts between processes silently loses every cache hit, and a key blind
to some config field silently serves wrong results — so these tests pin
both directions: same content always hashes the same (dict order,
process boundary, default resolution), and any semantic change hashes
differently (every config field, every spec field, the schema version).
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.scenarios import (
    DEFAULT_DOWNLINK_BYTES_PER_CONTACT,
    DEFAULT_UPLINK_BYTES_PER_CONTACT,
    DatasetSpec,
    ScenarioSpec,
)
from repro.core.config import EarthPlusConfig
from repro.errors import UncacheableSpecError
from repro.orbit.links import FluctuationModel
from repro.store import specs as spec_hashing
from repro.store.specs import is_cacheable, spec_document, spec_key

BASE_DATASET = DatasetSpec.of(
    "sentinel2",
    locations=["A", "B"],
    bands=["B4", "B11"],
    horizon_days=30.0,
    image_shape=(128, 128),
)

BASE_SPEC = ScenarioSpec(policy="earthplus", dataset=BASE_DATASET, seed=3)

#: Key of BASE_SPEC under schema version 4, pinned so accidental
#: canonicalization changes (which would orphan every existing store
#: entry) fail loudly.  A deliberate change must bump SCHEMA_VERSION —
#: then regenerate with: python -c "from repro.store.specs import
#: spec_key; ..." on the spec above.
GOLDEN_KEY = "416f2e247a4fe41160ec57287dc74e238113ee9b919dfe0100f962e63ef00d7e"

_param_leaves = (
    st.integers(-1000, 1000)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.booleans()
    | st.text(max_size=8)
)
_param_dicts = st.dictionaries(
    keys=st.text(
        alphabet=st.characters(min_codepoint=48, max_codepoint=122),
        min_size=1,
        max_size=8,
    ),
    values=_param_leaves | st.lists(_param_leaves, max_size=4),
    max_size=6,
)


class TestStability:
    def test_golden_key(self):
        assert spec_key(BASE_SPEC) == GOLDEN_KEY

    def test_repeated_hashing_is_stable(self):
        assert spec_key(BASE_SPEC) == spec_key(BASE_SPEC)

    @settings(max_examples=50, deadline=None)
    @given(params=_param_dicts)
    def test_param_dict_order_is_irrelevant(self, params):
        items = list(params.items())
        forward = ScenarioSpec(
            policy="earthplus", dataset=DatasetSpec.of("planet", **dict(items))
        )
        backward = ScenarioSpec(
            policy="earthplus",
            dataset=DatasetSpec.of("planet", **dict(reversed(items))),
        )
        assert spec_key(forward) == spec_key(backward)

    def test_stable_across_processes(self):
        """The key a fresh interpreter computes matches this process's."""
        src_dir = Path(spec_hashing.__file__).parents[2]
        script = (
            "from repro.analysis.scenarios import DatasetSpec, ScenarioSpec\n"
            "from repro.store.specs import spec_key\n"
            "dataset = DatasetSpec.of('sentinel2', locations=['A', 'B'],"
            " bands=['B4', 'B11'], horizon_days=30.0,"
            " image_shape=(128, 128))\n"
            "print(spec_key(ScenarioSpec(policy='earthplus',"
            " dataset=dataset, seed=3)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(src_dir), "PATH": "/usr/bin:/bin"},
        )
        assert out.stdout.strip() == spec_key(BASE_SPEC)

    def test_defaults_resolve_to_one_key(self):
        """None config / explicit defaults / default links share a key."""
        explicit = ScenarioSpec(
            policy="earthplus",
            dataset=BASE_DATASET,
            config=EarthPlusConfig(),
            uplink_bytes_per_contact=DEFAULT_UPLINK_BYTES_PER_CONTACT,
            downlink_bytes_per_contact=DEFAULT_DOWNLINK_BYTES_PER_CONTACT,
            seed=3,
        )
        assert spec_key(explicit) == spec_key(BASE_SPEC)

    def test_label_and_extras_do_not_affect_key(self):
        decorated = ScenarioSpec(
            policy="earthplus",
            dataset=BASE_DATASET,
            seed=3,
            label="fig13/earthplus",
            extras={"gamma": 0.2, "note": "anything"},
        )
        assert spec_key(decorated) == spec_key(BASE_SPEC)

    def test_document_is_strict_json(self):
        document = spec_document(BASE_SPEC)
        assert json.loads(json.dumps(document)) == document


class TestSensitivity:
    """Any semantic change to the spec must change the key."""

    def test_every_scenario_field(self):
        variants = {
            "policy": ScenarioSpec(
                policy="kodan", dataset=BASE_DATASET, seed=3
            ),
            "dataset": ScenarioSpec(
                policy="earthplus",
                dataset=DatasetSpec.of(
                    "sentinel2",
                    locations=["A"],
                    bands=["B4", "B11"],
                    horizon_days=30.0,
                    image_shape=(128, 128),
                ),
                seed=3,
            ),
            "seed": ScenarioSpec(policy="earthplus", dataset=BASE_DATASET, seed=4),
            "uplink": ScenarioSpec(
                policy="earthplus",
                dataset=BASE_DATASET,
                seed=3,
                uplink_bytes_per_contact=1234,
            ),
            "fluctuation": ScenarioSpec(
                policy="earthplus",
                dataset=BASE_DATASET,
                seed=3,
                fluctuation=FluctuationModel(seed=1, severity=0.2),
            ),
            "downlink": ScenarioSpec(
                policy="earthplus",
                dataset=BASE_DATASET,
                seed=3,
                downlink_bytes_per_contact=4321,
            ),
            "downlink_severity": ScenarioSpec(
                policy="earthplus",
                dataset=BASE_DATASET,
                seed=3,
                downlink_severity=0.3,
            ),
            "ground_detector": ScenarioSpec(
                policy="earthplus",
                dataset=BASE_DATASET,
                seed=3,
                ground_detector_for_scoring=False,
            ),
        }
        base_key = spec_key(BASE_SPEC)
        keys = {name: spec_key(spec) for name, spec in variants.items()}
        for name, key in keys.items():
            assert key != base_key, f"varying {name} left the key unchanged"
        assert len(set(keys.values())) == len(keys)

    def test_every_config_field(self):
        """Each EarthPlusConfig field is either keyed or engine-only.

        Semantic fields must change the key; engine-only fields are
        differential-tested to never change results, so they must NOT
        (which entropy engine runs the real codec is an engine-only
        *value* of ``codec_backend``; see test_backend_engine_never_keys).
        Every field appears in exactly one of the two tables, enforced
        below, so a new field must take a side here.
        """
        semantic_alternates = {
            "tile_size": 32,
            "theta": 0.02,
            "gamma_bpp": 0.5,
            "reference_downsample": 4,
            "reference_max_cloud": 0.02,
            "drop_cloud_fraction": 0.4,
            "guaranteed_download_days": 15.0,
            "cache_references_onboard": False,
            "delta_reference_updates": False,
            "n_quality_layers": 2,
            "ground_sync_days": 1.0,
            "reference_bytes_per_pixel": 2,
            "raw_bytes_per_pixel": 1,
            # model vs real codec changes byte accounting, so it keys —
            # see test_backend_engine_never_keys for the engine names.
            "codec_backend": "real",
        }
        # No engine-only field today; a new one takes its side here.
        engine_only_alternates: dict = {}
        config_fields = {f.name for f in dataclasses.fields(EarthPlusConfig)}
        assert (
            set(semantic_alternates) | set(engine_only_alternates)
        ) == config_fields, (
            "a new EarthPlusConfig field needs an alternate here (and a "
            "SCHEMA_VERSION bump if it changes results)"
        )
        assert not set(semantic_alternates) & set(engine_only_alternates)
        base_key = spec_key(BASE_SPEC)

        def variant_key(name: str, value) -> str:
            overrides = {name: value}
            if name == "cache_references_onboard":
                overrides["delta_reference_updates"] = False
            variant = ScenarioSpec(
                policy="earthplus",
                dataset=BASE_DATASET,
                config=EarthPlusConfig().with_overrides(**overrides),
                seed=3,
            )
            return spec_key(variant)

        for name, value in semantic_alternates.items():
            assert variant_key(name, value) != base_key, (
                f"varying config.{name} left the key unchanged"
            )
        for name, value in engine_only_alternates.items():
            assert variant_key(name, value) == base_key, (
                f"engine-only config.{name} leaked into the key"
            )

    def test_backend_engine_never_keys(self):
        """Only the model-vs-real-codec choice may key.

        The config accepts no engine name, so "real" is the only real-
        codec value, and it keeps the key that every real-codec engine
        choice hashed to.
        """

        def key_for(backend: str) -> str:
            return spec_key(
                ScenarioSpec(
                    policy="earthplus",
                    dataset=BASE_DATASET,
                    config=EarthPlusConfig().with_overrides(
                        codec_backend=backend
                    ),
                    seed=3,
                )
            )

        engine_key = key_for("real")
        assert engine_key != spec_key(BASE_SPEC)  # real codec != model
        assert key_for("model") == spec_key(BASE_SPEC)
        document = spec_document(
            ScenarioSpec(
                policy="earthplus",
                dataset=BASE_DATASET,
                config=EarthPlusConfig(codec_backend="real"),
                seed=3,
            )
        )
        assert document["config"]["codec_backend"] == "real"

    def test_fluctuation_severity_changes_key(self):
        """Severity alone (same seed/floor/ceiling) is a distinct key."""

        def spec_with(severity: float) -> ScenarioSpec:
            return ScenarioSpec(
                policy="earthplus",
                dataset=BASE_DATASET,
                seed=3,
                fluctuation=FluctuationModel(seed=1, severity=severity),
            )

        assert spec_key(spec_with(0.2)) != spec_key(spec_with(0.4))

    def test_downlink_severity_changes_key(self):
        def spec_with(severity: float) -> ScenarioSpec:
            return ScenarioSpec(
                policy="earthplus",
                dataset=BASE_DATASET,
                seed=3,
                downlink_severity=severity,
            )

        assert spec_key(spec_with(0.1)) != spec_key(spec_with(0.25))

    def test_dataset_param_value_changes_key(self):
        variant = ScenarioSpec(
            policy="earthplus",
            dataset=DatasetSpec.of(
                "sentinel2",
                locations=["A", "B"],
                bands=["B4", "B11"],
                horizon_days=31.0,
                image_shape=(128, 128),
            ),
            seed=3,
        )
        assert spec_key(variant) != spec_key(BASE_SPEC)

    def test_schema_version_salts_key(self, monkeypatch):
        base_key = spec_key(BASE_SPEC)
        monkeypatch.setattr(
            spec_hashing, "SCHEMA_VERSION", spec_hashing.SCHEMA_VERSION + 1
        )
        assert spec_key(BASE_SPEC) != base_key


class TestUncacheable:
    def test_built_dataset(self, tiny_dataset):
        spec = ScenarioSpec(policy="earthplus", dataset=tiny_dataset.build())
        with pytest.raises(UncacheableSpecError):
            spec_key(spec)
        assert not is_cacheable(spec)

    def test_fluctuation_subclass(self):
        class Custom(FluctuationModel):
            pass

        spec = ScenarioSpec(
            policy="earthplus", dataset=BASE_DATASET, fluctuation=Custom()
        )
        with pytest.raises(UncacheableSpecError):
            spec_key(spec)

    def test_nan_parameter(self):
        spec = ScenarioSpec(
            policy="earthplus",
            dataset=DatasetSpec.of("planet", horizon_days=float("nan")),
        )
        with pytest.raises(UncacheableSpecError):
            spec_key(spec)

    def test_cacheable_spec_reports_true(self):
        assert is_cacheable(BASE_SPEC)
