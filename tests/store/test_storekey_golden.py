"""RPR004 store-key golden: the spec surface / SCHEMA_VERSION lockstep.

The committed ``tests/store/golden_spec_fields.json`` snapshots every
field that enters the experiment store's canonical spec document.  These
tests prove the rule's teeth on a sandbox copy of the real sources:

* adding an ``EarthPlusConfig`` field WITHOUT bumping ``SCHEMA_VERSION``
  is an active violation (the regression the rule exists for);
* the same change WITH a bump and a golden re-snapshot lints clean;
* the committed golden matches the live sources, so the real tree can
  never drift from its snapshot unnoticed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.rules import storekey
from repro.store.specs import SCHEMA_VERSION

REPO_ROOT = Path(__file__).resolve().parents[2]

CONFIG_ANCHOR = "tile_size: int = 64"
# Derived from the live version, so a real bump never breaks the sandbox.
VERSION_ANCHOR = f"SCHEMA_VERSION = {SCHEMA_VERSION}"
BUMPED_VERSION = SCHEMA_VERSION + 1


@pytest.fixture()
def sandbox(tmp_path):
    """A copy of the real config/specs sources plus a fresh golden."""
    root = tmp_path / "proj"
    for rel in (storekey.CONFIG_RELPATH, storekey.SPECS_RELPATH):
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text((REPO_ROOT / rel).read_text(encoding="utf-8"))
    storekey.update_golden(root)
    return root


def rpr004(root: Path):
    result = run_lint(
        [root / "src"], select=["RPR004"], project_root=root
    )
    return result.active


def add_config_field(root: Path) -> None:
    config = root / storekey.CONFIG_RELPATH
    source = config.read_text(encoding="utf-8")
    assert CONFIG_ANCHOR in source
    config.write_text(
        source.replace(
            CONFIG_ANCHOR, CONFIG_ANCHOR + "\n    extra_knob: float = 0.0"
        ),
        encoding="utf-8",
    )


def bump_schema_version(root: Path) -> None:
    specs = root / storekey.SPECS_RELPATH
    source = specs.read_text(encoding="utf-8")
    assert VERSION_ANCHOR in source
    specs.write_text(
        source.replace(VERSION_ANCHOR, f"SCHEMA_VERSION = {BUMPED_VERSION}"),
        encoding="utf-8",
    )


class TestGoldenLockstep:
    def test_committed_golden_matches_live_sources(self):
        surface = storekey.extract_surface(
            (REPO_ROOT / storekey.CONFIG_RELPATH).read_text(),
            (REPO_ROOT / storekey.SPECS_RELPATH).read_text(),
        )
        committed = json.loads(
            (REPO_ROOT / storekey.GOLDEN_RELPATH).read_text()
        )
        assert surface.as_golden() == committed

    def test_sandbox_baseline_is_clean(self, sandbox):
        assert rpr004(sandbox) == []


class TestUnbumpedChangeFails:
    def test_config_field_added_without_bump_is_violation(self, sandbox):
        add_config_field(sandbox)
        findings = rpr004(sandbox)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "RPR004"
        assert "extra_knob" in finding.message
        assert "bump SCHEMA_VERSION" in finding.message
        # the finding points at the class whose surface changed
        assert finding.path == storekey.CONFIG_RELPATH.as_posix()

    def test_violation_survives_rule_selection_by_name(self, sandbox):
        add_config_field(sandbox)
        result = run_lint(
            [sandbox / "src"], select=["storekey"], project_root=sandbox
        )
        assert result.exit_code == 1


class TestBumpedChangePasses:
    def test_bump_plus_resnapshot_is_clean(self, sandbox):
        add_config_field(sandbox)
        bump_schema_version(sandbox)
        # bumped but golden stale: a re-snapshot reminder, not silence
        [reminder] = rpr004(sandbox)
        assert "--update-golden" in reminder.message
        storekey.update_golden(sandbox)
        assert rpr004(sandbox) == []
        golden = json.loads(
            (sandbox / storekey.GOLDEN_RELPATH).read_text()
        )
        assert golden["schema_version"] == BUMPED_VERSION
        assert "extra_knob" in golden["config_fields"]

    def test_bump_without_surface_change_wants_reanchor(self, sandbox):
        bump_schema_version(sandbox)
        [finding] = rpr004(sandbox)
        assert "re-anchor" in finding.message
        storekey.update_golden(sandbox)
        assert rpr004(sandbox) == []


class TestGoldenPresence:
    def test_missing_golden_is_a_finding(self, sandbox):
        (sandbox / storekey.GOLDEN_RELPATH).unlink()
        [finding] = rpr004(sandbox)
        assert "missing" in finding.message

    def test_corrupt_golden_is_a_finding(self, sandbox):
        (sandbox / storekey.GOLDEN_RELPATH).write_text("{not json")
        [finding] = rpr004(sandbox)
        assert "unreadable" in finding.message
