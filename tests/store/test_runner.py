"""Cache-aware runner tests: hits, streaming persistence, resume.

Simulations are counted by wrapping ``run_scenario`` at the scenarios
module, which both the in-process and (for these tests, unused) parallel
batch paths call — so "zero simulations" is asserted literally, not
inferred from timing.
"""

from __future__ import annotations

import pickle

import pytest

import repro.analysis.scenarios as scenarios
from repro.analysis.scenarios import ScenarioSpec
from repro.errors import ScenarioError
from repro.store.runner import run_scenario_cached, run_scenarios_cached


@pytest.fixture()
def sim_counter(monkeypatch):
    """Count (and optionally sabotage) run_scenario calls by label."""
    real = scenarios.run_scenario
    state = {"calls": [], "fail_labels": set()}

    def counting(spec, dataset=None):
        label = spec.resolved_label()
        state["calls"].append(label)
        if label in state["fail_labels"]:
            raise RuntimeError(f"injected failure for {label}")
        return real(spec, dataset=dataset)

    monkeypatch.setattr(scenarios, "run_scenario", counting)
    return state


def _specs(tiny_spec, n_seeds=2):
    return [
        tiny_spec(policy=policy, seed=seed)
        for policy in ("earthplus", "naive")
        for seed in range(n_seeds)
    ]


class TestCaching:
    def test_warm_batch_runs_zero_simulations(
        self, store, tiny_spec, sim_counter
    ):
        specs = _specs(tiny_spec)
        cold = run_scenarios_cached(specs, store=store)
        assert len(sim_counter["calls"]) == 4
        assert len(cold.cached) == 0 and len(cold.executed) == 4
        warm = run_scenarios_cached(specs, store=store)
        assert len(sim_counter["calls"]) == 4, "warm pass simulated"
        assert len(warm.cached) == 4 and len(warm.executed) == 0
        for a, b in zip(cold.results, warm.results):
            assert pickle.dumps(a) == pickle.dumps(b)

    def test_refresh_recomputes(self, store, tiny_spec, sim_counter):
        spec = tiny_spec()
        run_scenario_cached(spec, store=store)
        run_scenario_cached(spec, store=store, refresh=True)
        assert len(sim_counter["calls"]) == 2

    def test_store_none_bypasses(self, store, tiny_spec, sim_counter):
        spec = tiny_spec()
        run_scenario_cached(spec, store=None)
        run_scenario_cached(spec, store=None)
        assert len(sim_counter["calls"]) == 2
        assert store.stats()["entries"] == 0

    def test_duplicate_specs_simulate_once(self, store, tiny_spec, sim_counter):
        spec = tiny_spec()
        sweep = run_scenarios_cached([spec, spec, spec], store=store)
        assert len(sim_counter["calls"]) == 1
        assert len(sweep.results) == 3
        # The accounting distinguishes the one real simulation from the
        # in-batch duplicates that shared its result.
        assert sweep.executed == (0,)
        assert sweep.deduplicated == (1, 2)
        assert "1 simulated, 2 duplicate" in sweep.summary()
        assert (
            pickle.dumps(sweep.results[0])
            == pickle.dumps(sweep.results[1])
            == pickle.dumps(sweep.results[2])
        )

    def test_uncacheable_specs_run_and_bypass(
        self, store, tiny_dataset, sim_counter
    ):
        built = ScenarioSpec(policy="naive", dataset=tiny_dataset.build())
        sweep = run_scenarios_cached([built], store=store)
        assert sweep.uncacheable == (0,)
        assert sweep.keys == [None]
        assert sweep.results[0].records
        assert store.stats()["entries"] == 0
        # Bypassing means no reuse either: it simulates again.
        run_scenarios_cached([built], store=store)
        assert len(sim_counter["calls"]) == 2

    def test_store_write_failure_degrades_to_warning(
        self, store, tiny_spec, sim_counter, monkeypatch
    ):
        """Caching is best-effort: a broken store never kills a sweep."""

        def broken_put(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(store, "put", broken_put)
        with pytest.warns(UserWarning, match="store write failed"):
            sweep = run_scenarios_cached([tiny_spec()], store=store)
        assert sweep.results[0].records

    def test_unroundtrippable_extra_metrics_stay_uncached(
        self, store, tiny_spec, result_factory, monkeypatch
    ):
        """Tuple-valued extra_metrics would come back as lists — the
        backend refuses them, and the runner downgrades to a warning."""
        result = result_factory()
        result.extra_metrics = {"per_band": (1, 2)}
        monkeypatch.setattr(scenarios, "run_scenario", lambda spec: result)
        with pytest.warns(UserWarning, match="round-trip"):
            out = run_scenario_cached(tiny_spec(), store=store)
        assert out is result
        assert store.stats()["entries"] == 0

    def test_cached_matches_plain_run_scenarios(self, store, tiny_spec):
        """The store layer's contract: byte-identical to the plain path."""
        specs = _specs(tiny_spec)
        via_store = run_scenarios_cached(specs, store=store).results
        plain = scenarios.run_scenarios(specs)
        for a, b in zip(via_store, plain):
            assert pickle.dumps(a) == pickle.dumps(b)


class TestInterruptionAndResume:
    def test_failure_persists_finished_results(
        self, store, tiny_spec, sim_counter
    ):
        """Results that landed before a mid-batch failure are on disk."""
        specs = _specs(tiny_spec)  # sequential: runs in spec order
        sim_counter["fail_labels"].add(specs[2].resolved_label())
        with pytest.raises(ScenarioError) as excinfo:
            run_scenarios_cached(specs, store=store)
        assert specs[2].resolved_label() in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert store.stats()["entries"] == 2, "finished results not persisted"

    def test_resume_executes_only_missing(self, store, tiny_spec, sim_counter):
        specs = _specs(tiny_spec)
        sim_counter["fail_labels"].add(specs[2].resolved_label())
        with pytest.raises(ScenarioError):
            run_scenarios_cached(specs, store=store)
        calls_before = len(sim_counter["calls"])
        sim_counter["fail_labels"].clear()
        resumed = run_scenarios_cached(specs, store=store)
        resumed_calls = sim_counter["calls"][calls_before:]
        assert sorted(resumed_calls) == sorted(
            [specs[2].resolved_label(), specs[3].resolved_label()]
        ), "resume re-simulated specs that were already stored"
        assert len(resumed.cached) == 2
        # The resumed sweep equals a from-scratch run of the same specs.
        reference = run_scenarios_cached(specs, store=None)
        for a, b in zip(resumed.results, reference.results):
            assert pickle.dumps(a) == pickle.dumps(b)

    def test_failed_spec_is_not_poisoned(self, store, tiny_spec, sim_counter):
        """A failure leaves no store entry, so retries re-attempt it.

        Single-run failures propagate unwrapped (run_scenario's own
        contract); only the batch runner wraps in ScenarioError.
        """
        spec = tiny_spec()
        sim_counter["fail_labels"].add(spec.resolved_label())
        with pytest.raises(RuntimeError, match="injected"):
            run_scenario_cached(spec, store=store)
        assert store.stats()["entries"] == 0
        sim_counter["fail_labels"].clear()
        assert run_scenario_cached(spec, store=store).records
