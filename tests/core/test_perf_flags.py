"""Tests for the shared boolean environment-switch parser (repro.perf)."""

from __future__ import annotations

import pytest

from repro import perf


class TestParseFlag:
    @pytest.mark.parametrize("word", ["1", "true", "TRUE", "Yes", "on", " ON "])
    def test_true_words(self, word):
        assert perf.parse_flag(word) is True

    @pytest.mark.parametrize(
        "word", ["0", "false", "FALSE", "No", "off", "OFF", ""]
    )
    def test_false_words(self, word):
        assert perf.parse_flag(word) is False

    @pytest.mark.parametrize("word", ["~/.cache/repro", "2", "maybe"])
    def test_non_flags_are_none(self, word):
        assert perf.parse_flag(word) is None


class TestEnvFlag:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert perf.env_flag("REPRO_TEST_FLAG", True) is True
        assert perf.env_flag("REPRO_TEST_FLAG", False) is False

    @pytest.mark.parametrize(
        ("value", "expected"),
        [("1", True), ("on", True), ("0", False), ("FALSE", False),
         ("off", False), ("No", False)],
    )
    def test_set_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_TEST_FLAG", value)
        assert perf.env_flag("REPRO_TEST_FLAG", not expected) is expected

    def test_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG", "maybe")
        with pytest.raises(ValueError, match="REPRO_TEST_FLAG"):
            perf.env_flag("REPRO_TEST_FLAG", True)


class TestSimWorkersEnv:
    """REPRO_SIM_WORKERS is read at call time; unset/blank means 1.

    The class is parameterized over the variable and its accessor;
    :class:`TestSimShardsEnv` reruns every check for REPRO_SIM_SHARDS,
    which goes through the same positive-integer parser.
    """

    var = "REPRO_SIM_WORKERS"
    noun = "worker count"
    read = staticmethod(perf.sim_workers)

    def test_unset_is_sequential(self, monkeypatch):
        monkeypatch.delenv(self.var, raising=False)
        assert self.read() == 1

    def test_set_after_import_wins(self, monkeypatch):
        monkeypatch.setenv(self.var, "4")
        assert self.read() == 4

    @pytest.mark.parametrize("value", ["zero", "1.5", "-2", "0"])
    def test_garbage_raises(self, monkeypatch, value):
        monkeypatch.setenv(self.var, value)
        expected = (
            f"{self.var} must be >= 1"
            if value.lstrip("-").isdigit()
            else f"{self.var}=.* is not an integer {self.noun}"
        )
        with pytest.raises(ValueError, match=expected):
            self.read()

    def test_blank_is_unset(self, monkeypatch):
        monkeypatch.setenv(self.var, "  ")
        assert self.read() == 1


class TestSimShardsEnv(TestSimWorkersEnv):
    """REPRO_SIM_SHARDS: the same checks through :func:`perf.sim_shards`."""

    var = "REPRO_SIM_SHARDS"
    noun = "shard count"
    read = staticmethod(perf.sim_shards)


class TestStorePathResolution:
    """REPRO_STORE is path-or-flag, parsed through the same words."""

    def test_false_words_disable(self, monkeypatch):
        from repro.store.backend import resolve_store_path

        for word in ("off", "0", "FALSE"):
            monkeypatch.setenv("REPRO_STORE", word)
            assert resolve_store_path() is None

    def test_true_words_pick_default(self, monkeypatch):
        from repro.store.backend import DEFAULT_STORE_DIR, resolve_store_path

        monkeypatch.setenv("REPRO_STORE", "on")
        assert resolve_store_path() == DEFAULT_STORE_DIR.expanduser()

    def test_path_value(self, monkeypatch, tmp_path):
        from repro.store.backend import resolve_store_path

        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "mystore"))
        assert resolve_store_path() == tmp_path / "mystore"
