"""Positive/negative fixture coverage for every ``repro lint`` rule.

Each rule family gets snippets that must be flagged and near-identical
snippets that must not be, so the rules stay sharp in both directions:
a rule that goes quiet regresses the contract, a rule that over-fires
gets suppressed into noise.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.errors import LintError
from repro.lint import resolve_rules, run_lint


def src(body: str) -> str:
    return textwrap.dedent(body).lstrip("\n")


def codes(result) -> list[str]:
    """Active finding codes, in report order."""
    return [f.rule for f in result.active]


class TestDeterminismRPR001:
    def test_wall_clock_flagged(self, lint_tree):
        result = lint_tree(
            {
                "core/clock.py": src(
                    """
                    import time

                    def stamp():
                        return time.time()
                    """
                )
            }
        )
        assert codes(result) == ["RPR001"]
        assert "wall-clock" in result.active[0].message

    def test_monotonic_clock_allowed(self, lint_tree):
        result = lint_tree(
            {
                "core/clock.py": src(
                    """
                    import time

                    def stamp():
                        return time.perf_counter() + time.monotonic()
                    """
                )
            }
        )
        assert codes(result) == []

    def test_random_module_flagged(self, lint_tree):
        result = lint_tree(
            {
                "codec/noise.py": src(
                    """
                    import random

                    def jitter():
                        return random.random()
                    """
                )
            }
        )
        assert codes(result) == ["RPR001"]

    def test_from_random_import_flagged(self, lint_tree):
        result = lint_tree(
            {
                "orbit/noise.py": src(
                    """
                    from random import randint

                    def pick():
                        return randint(0, 3)
                    """
                )
            }
        )
        assert codes(result) == ["RPR001"]

    def test_seeded_random_class_allowed(self, lint_tree):
        result = lint_tree(
            {
                "orbit/noise.py": src(
                    """
                    import random

                    def make(seed):
                        return random.Random(seed)
                    """
                )
            }
        )
        assert codes(result) == []

    def test_np_random_legacy_flagged(self, lint_tree):
        result = lint_tree(
            {
                "analysis/sample.py": src(
                    """
                    import numpy as np

                    def draw():
                        return np.random.rand(4)
                    """
                )
            }
        )
        assert codes(result) == ["RPR001"]

    def test_unseeded_default_rng_flagged(self, lint_tree):
        result = lint_tree(
            {
                "core/rng.py": src(
                    """
                    import numpy as np

                    def make():
                        return np.random.default_rng()
                    """
                )
            }
        )
        assert codes(result) == ["RPR001"]
        assert "seed" in result.active[0].message

    def test_seeded_default_rng_allowed(self, lint_tree):
        result = lint_tree(
            {
                "core/rng.py": src(
                    """
                    import numpy as np

                    def make(spec):
                        return np.random.default_rng(spec.seed)
                    """
                )
            }
        )
        assert codes(result) == []

    def test_set_iteration_flagged(self, lint_tree):
        result = lint_tree(
            {
                "core/iter.py": src(
                    """
                    def walk(names):
                        for name in set(names):
                            yield name
                    """
                )
            }
        )
        assert codes(result) == ["RPR001"]
        assert "sorted" in result.active[0].message

    def test_sorted_set_iteration_allowed(self, lint_tree):
        result = lint_tree(
            {
                "core/iter.py": src(
                    """
                    def walk(names):
                        for name in sorted(set(names)):
                            yield name
                    """
                )
            }
        )
        assert codes(result) == []

    def test_list_over_set_flagged(self, lint_tree):
        result = lint_tree(
            {
                "core/iter.py": src(
                    """
                    def order(names):
                        return list({n for n in names})
                    """
                )
            }
        )
        assert codes(result) == ["RPR001"]

    def test_out_of_scope_package_ignored(self, lint_tree):
        result = lint_tree(
            {
                "obs/clock.py": src(
                    """
                    import time

                    def stamp():
                        return time.time()
                    """
                )
            }
        )
        assert codes(result) == []


class TestEnvFlagsRPR002:
    def test_module_scope_read_flagged(self, lint_tree):
        result = lint_tree(
            {
                "pkg/mod.py": src(
                    """
                    import os

                    DEBUG = os.environ.get("ANY_VAR", "")
                    """
                )
            }
        )
        assert codes(result) == ["RPR002"]
        assert "import-time" in result.active[0].message

    def test_module_scope_subscript_flagged(self, lint_tree):
        result = lint_tree(
            {
                "pkg/mod.py": src(
                    """
                    import os

                    HOME = os.environ["HOME"]
                    """
                )
            }
        )
        assert codes(result) == ["RPR002"]

    def test_module_scope_contains_flagged(self, lint_tree):
        result = lint_tree(
            {
                "pkg/mod.py": src(
                    """
                    import os

                    HAVE = "REPRO_X" in os.environ
                    """
                )
            }
        )
        assert codes(result) == ["RPR002"]

    def test_call_time_repro_read_outside_accessor_flagged(self, lint_tree):
        result = lint_tree(
            {
                "pkg/mod.py": src(
                    """
                    import os

                    def flag():
                        return os.environ.get("REPRO_MY_FLAG")
                    """
                )
            }
        )
        assert codes(result) == ["RPR002"]
        assert "env_flag" in result.active[0].message

    def test_indirected_name_does_not_evade(self, lint_tree):
        result = lint_tree(
            {
                "pkg/mod.py": src(
                    """
                    import os

                    _VAR = "REPRO_MY_FLAG"

                    def flag():
                        return os.getenv(_VAR)
                    """
                )
            }
        )
        assert codes(result) == ["RPR002"]
        assert "REPRO_MY_FLAG" in result.active[0].message

    def test_call_time_non_repro_read_allowed(self, lint_tree):
        result = lint_tree(
            {
                "pkg/mod.py": src(
                    """
                    import os

                    def home():
                        return os.environ.get("HOME", "/")
                    """
                )
            }
        )
        assert codes(result) == []

    def test_accessor_module_may_read_repro_vars(self, lint_tree):
        result = lint_tree(
            {
                "repro/perf.py": src(
                    """
                    import os

                    def env_flag(name):
                        return os.environ.get("REPRO_" + name)

                    def raw():
                        return os.environ.get("REPRO_SIM_FASTPATH")
                    """
                )
            }
        )
        assert codes(result) == []

    def test_codec_registry_is_not_an_accessor(self, lint_tree):
        """The codec registry reads no environment variable, so a new
        REPRO_* read there is flagged like anywhere else."""
        result = lint_tree(
            {
                "repro/codec/registry.py": src(
                    """
                    import os

                    def default_engine():
                        return os.environ.get("REPRO_CODEC_ENGINE")
                    """
                )
            }
        )
        assert codes(result) == ["RPR002"]

    def test_env_write_allowed(self, lint_tree):
        result = lint_tree(
            {
                "pkg/mod.py": src(
                    """
                    import os

                    def pin():
                        os.environ["REPRO_STORE"] = "off"
                    """
                )
            }
        )
        assert codes(result) == []


class TestMonoidRPR003:
    def test_identity_without_merge_flagged(self, lint_tree):
        result = lint_tree(
            {
                "pkg/stats.py": src(
                    """
                    class Stats:
                        @classmethod
                        def identity(cls):
                            return cls()
                    """
                )
            }
        )
        assert codes(result) == ["RPR003"]
        assert "no merge()" in result.active[0].message

    def test_merge_without_identity_flagged(self, lint_tree):
        result = lint_tree(
            {
                "pkg/stats.py": src(
                    """
                    class Stats:
                        def merge(self, other):
                            return self
                    """
                )
            }
        )
        assert codes(result) == ["RPR003"]
        assert "no identity()" in result.active[0].message

    def test_merge_missing_field_flagged(self, lint_tree):
        result = lint_tree(
            {
                "pkg/stats.py": src(
                    """
                    from dataclasses import dataclass

                    @dataclass
                    class Stats:
                        sent: int = 0
                        dropped: int = 0

                        @classmethod
                        def identity(cls):
                            return cls()

                        def merge(self, other):
                            return Stats(sent=self.sent + other.sent)
                    """
                )
            }
        )
        assert codes(result) == ["RPR003"]
        assert "dropped" in result.active[0].message

    def test_complete_merge_allowed(self, lint_tree):
        result = lint_tree(
            {
                "pkg/stats.py": src(
                    """
                    from dataclasses import dataclass

                    @dataclass
                    class Stats:
                        sent: int = 0
                        dropped: int = 0

                        @classmethod
                        def identity(cls):
                            return cls()

                        def merge(self, other):
                            return Stats(
                                sent=self.sent + other.sent,
                                dropped=self.dropped + other.dropped,
                            )
                    """
                )
            }
        )
        assert codes(result) == []

    def test_fields_iteration_counts_as_full_coverage(self, lint_tree):
        result = lint_tree(
            {
                "pkg/stats.py": src(
                    """
                    import dataclasses
                    from dataclasses import dataclass

                    @dataclass
                    class Stats:
                        sent: int = 0
                        dropped: int = 0

                        @classmethod
                        def identity(cls):
                            return cls()

                        def merge(self, other):
                            kw = {
                                f.name: getattr(self, f.name)
                                + getattr(other, f.name)
                                for f in dataclasses.fields(self)
                            }
                            return Stats(**kw)
                    """
                )
            }
        )
        assert codes(result) == []

    def test_aliased_fields_import_counts(self, lint_tree):
        result = lint_tree(
            {
                "pkg/stats.py": src(
                    """
                    from dataclasses import dataclass, fields as dc_fields

                    @dataclass
                    class Stats:
                        sent: int = 0
                        dropped: int = 0

                        @classmethod
                        def identity(cls):
                            return cls()

                        def merge(self, other):
                            kw = {
                                f.name: getattr(self, f.name)
                                + getattr(other, f.name)
                                for f in dc_fields(self)
                            }
                            return Stats(**kw)
                    """
                )
            }
        )
        assert codes(result) == []

    def test_slots_fields_checked(self, lint_tree):
        result = lint_tree(
            {
                "pkg/stats.py": src(
                    """
                    class Stats:
                        __slots__ = ("sent", "dropped")

                        @classmethod
                        def identity(cls):
                            return cls()

                        def merge(self, other):
                            self.sent += other.sent
                            return self
                    """
                )
            }
        )
        assert codes(result) == ["RPR003"]
        assert "dropped" in result.active[0].message


class TestForkSafetyRPR005:
    def test_mutated_module_dict_flagged_at_definition(self, lint_tree):
        result = lint_tree(
            {
                "pkg/cache.py": src(
                    """
                    _CACHE = {}

                    def put(key, value):
                        _CACHE[key] = value
                    """
                )
            }
        )
        assert codes(result) == ["RPR005"]
        finding = result.active[0]
        assert finding.line == 1  # at the definition, not the mutation
        assert "allow(RPR005)" in finding.message

    def test_mutator_method_flagged(self, lint_tree):
        result = lint_tree(
            {
                "pkg/cache.py": src(
                    """
                    _SEEN = set()

                    def mark(key):
                        _SEEN.add(key)
                    """
                )
            }
        )
        assert codes(result) == ["RPR005"]

    def test_unmutated_module_dict_allowed(self, lint_tree):
        result = lint_tree(
            {
                "pkg/table.py": src(
                    """
                    _TABLE = {"a": 1, "b": 2}

                    def lookup(key):
                        return _TABLE[key]
                    """
                )
            }
        )
        assert codes(result) == []

    def test_local_shadow_not_miscounted(self, lint_tree):
        result = lint_tree(
            {
                "pkg/cache.py": src(
                    """
                    _CACHE = {}

                    def build():
                        _CACHE = {}
                        _CACHE["k"] = 1
                        return _CACHE
                    """
                )
            }
        )
        assert codes(result) == []

    def test_getstate_omitting_field_flagged(self, lint_tree):
        result = lint_tree(
            {
                "pkg/state.py": src(
                    """
                    from dataclasses import dataclass

                    @dataclass
                    class Packet:
                        payload: bytes
                        checksum: int

                        def __getstate__(self):
                            return (self.payload,)
                    """
                )
            }
        )
        assert codes(result) == ["RPR005"]
        assert "checksum" in result.active[0].message

    def test_getstate_via_dict_allowed(self, lint_tree):
        result = lint_tree(
            {
                "pkg/state.py": src(
                    """
                    from dataclasses import dataclass

                    @dataclass
                    class Packet:
                        payload: bytes
                        checksum: int

                        def __getstate__(self):
                            return dict(self.__dict__)
                    """
                )
            }
        )
        assert codes(result) == []


class TestSuppressions:
    def test_allow_on_same_line(self, lint_tree):
        result = lint_tree(
            {
                "pkg/cache.py": src(
                    """
                    _CACHE = {}  # repro: allow(RPR005): per-process cache is the design

                    def put(key, value):
                        _CACHE[key] = value
                    """
                )
            }
        )
        assert codes(result) == []
        assert len(result.suppressed) == 1
        assert (
            result.suppressed[0].justification
            == "per-process cache is the design"
        )

    def test_allow_on_line_above(self, lint_tree):
        result = lint_tree(
            {
                "core/clock.py": src(
                    """
                    import time

                    def stamp():
                        # repro: allow(RPR001): profiling only, never keyed
                        return time.time()
                    """
                )
            }
        )
        assert codes(result) == []
        assert len(result.suppressed) == 1

    def test_allow_by_mnemonic_name(self, lint_tree):
        result = lint_tree(
            {
                "core/clock.py": src(
                    """
                    import time

                    def stamp():
                        return time.time()  # repro: allow(determinism): display only
                    """
                )
            }
        )
        assert codes(result) == []

    def test_allow_wrong_rule_does_not_suppress(self, lint_tree):
        result = lint_tree(
            {
                "core/clock.py": src(
                    """
                    import time

                    def stamp():
                        return time.time()  # repro: allow(RPR005): wrong rule
                    """
                )
            }
        )
        assert codes(result) == ["RPR001"]

    def test_allow_inside_string_is_not_a_suppression(self, lint_tree):
        result = lint_tree(
            {
                "core/clock.py": src(
                    """
                    import time

                    def stamp():
                        note = "# repro: allow(RPR001): not a comment"
                        return time.time(), note
                    """
                )
            }
        )
        assert codes(result) == ["RPR001"]

    def test_suppressed_findings_do_not_affect_exit_code(self, lint_tree):
        result = lint_tree(
            {
                "pkg/cache.py": src(
                    """
                    _CACHE = {}  # repro: allow(RPR005): declared

                    def put(key, value):
                        _CACHE[key] = value
                    """
                )
            }
        )
        assert result.exit_code == 0
        assert result.findings  # still reported, just flagged


class TestEngine:
    def test_syntax_error_becomes_rpr000(self, lint_tree):
        result = lint_tree(
            {
                "pkg/broken.py": "def nope(:\n",
                "core/clock.py": src(
                    """
                    import time

                    def stamp():
                        return time.time()
                    """
                ),
            }
        )
        assert sorted(codes(result)) == ["RPR000", "RPR001"]
        rpr000 = next(f for f in result.active if f.rule == "RPR000")
        assert "does not parse" in rpr000.message

    def test_select_narrows_rules(self, lint_tree):
        files = {
            "core/clock.py": src(
                """
                import time

                def stamp():
                    return time.time()
                """
            ),
            "pkg/cache.py": src(
                """
                _CACHE = {}

                def put(key, value):
                    _CACHE[key] = value
                """
            ),
        }
        everything = lint_tree(files)
        assert sorted(codes(everything)) == ["RPR001", "RPR005"]
        only_fork = lint_tree({}, select=["forksafety"])
        assert codes(only_fork) == ["RPR005"]
        assert only_fork.rules_run == ["RPR005"]

    def test_ignore_drops_rules(self, lint_tree):
        result = lint_tree(
            {
                "core/clock.py": src(
                    """
                    import time

                    def stamp():
                        return time.time()
                    """
                )
            },
            ignore=["RPR001"],
        )
        assert codes(result) == []
        assert "RPR001" not in result.rules_run

    def test_unknown_rule_raises_lint_error(self, tmp_path):
        (tmp_path / "x.py").write_text("pass\n")
        with pytest.raises(LintError, match="unknown lint rule"):
            run_lint([tmp_path], select=["RPR999"])

    def test_missing_path_raises_lint_error(self, tmp_path):
        with pytest.raises(LintError, match="does not exist"):
            run_lint([tmp_path / "nope"])

    def test_findings_sorted_and_files_counted(self, lint_tree):
        result = lint_tree(
            {
                "core/b.py": src(
                    """
                    import time

                    def stamp():
                        return time.time()
                    """
                ),
                "core/a.py": src(
                    """
                    import time

                    def stamp():
                        return time.time()
                    """
                ),
            }
        )
        assert result.files_checked == 2
        paths = [f.path for f in result.findings]
        assert paths == sorted(paths)

    def test_resolve_rules_roundtrip(self):
        rules = resolve_rules()
        assert [r.code for r in rules] == [
            "RPR001",
            "RPR002",
            "RPR003",
            "RPR004",
            "RPR005",
        ]
        assert resolve_rules(select=["all"], ignore=["monoid"]) == [
            r for r in rules if r.code != "RPR003"
        ]
