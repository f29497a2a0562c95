"""Acceptance tests for the experiment store (the CI round-trip job).

Asserted here, end to end:

* re-running a completed sweep against a warm store performs **zero**
  simulations and returns ``RunResult``s byte-identical to the cold run
  (in-process and across worker processes);
* a sweep killed midway (real SIGKILL of a ``repro sweep`` subprocess)
  then resumed completes only the specs missing from the store;
* regenerating a figure whose sweep already ran is a pure cache read.
"""

from __future__ import annotations

import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
import repro.analysis.scenarios as scenarios
from repro.analysis.figures import fig13_timeseries
from repro.analysis.scenarios import DatasetSpec, sweep_specs
from repro.core.config import EarthPlusConfig
from repro.store.backend import ExperimentStore
from repro.store.runner import run_scenarios_cached

_SRC_DIR = str(Path(repro.__file__).parents[1])


@pytest.fixture()
def sim_counter(monkeypatch):
    real = scenarios.run_scenario
    calls = []

    def counting(spec, dataset=None):
        calls.append(spec.resolved_label())
        return real(spec, dataset=dataset)

    monkeypatch.setattr(scenarios, "run_scenario", counting)
    return calls


def _sweep(tiny_dataset):
    return sweep_specs(
        dataset=tiny_dataset,
        policies=("earthplus", "naive"),
        seeds=(0, 1),
        gammas=(0.2, 0.4),
    )


class TestWarmSweep:
    def test_second_pass_is_pure_cache_read(
        self, store, tiny_dataset, sim_counter
    ):
        specs = _sweep(tiny_dataset)
        cold = run_scenarios_cached(specs, store=store)
        assert len(sim_counter) == len(specs)
        warm = run_scenarios_cached(specs, store=store)
        assert len(sim_counter) == len(specs), (
            "warm sweep simulated instead of reading the store"
        )
        assert len(warm.cached) == len(specs)
        for spec, a, b in zip(specs, cold.results, warm.results):
            assert pickle.dumps(a) == pickle.dumps(b), (
                f"{spec.resolved_label()}: warm result not byte-identical"
            )

    def test_warm_read_matches_parallel_cold_run(self, store, tiny_dataset):
        """Cold across 2 worker processes, warm in-process: identical."""
        specs = _sweep(tiny_dataset)[:4]
        cold = run_scenarios_cached(specs, max_workers=2, store=store)
        warm = run_scenarios_cached(specs, store=store)
        assert len(warm.cached) == len(specs)
        for a, b in zip(cold.results, warm.results):
            assert pickle.dumps(a) == pickle.dumps(b)

    def test_figure_regeneration_is_cached(
        self, store, tiny_dataset, sim_counter
    ):
        kwargs = dict(
            dataset=tiny_dataset,
            location="A",
            config=EarthPlusConfig(gamma_bpp=0.2),
            policies=("earthplus", "naive"),
            store=store,
        )
        first = fig13_timeseries(**kwargs)
        n_cold = len(sim_counter)
        assert n_cold == 2
        second = fig13_timeseries(**kwargs)
        assert len(sim_counter) == n_cold, "figure re-run simulated"
        assert first == second


class TestKillAndResume:
    def test_killed_sweep_resumes_only_missing(self, tmp_path):
        """SIGKILL a real ``repro sweep`` midway; resume the identical
        sweep in-process and verify only the missing specs simulate."""
        store_root = tmp_path / "killstore"
        argv = [
            sys.executable, "-m", "repro", "sweep",
            "--locations", "A", "--bands", "B4", "--days", "20",
            "--size", "128", "--policies", "earthplus,naive",
            "--seeds", "0,1,2,3", "--store", str(store_root),
        ]
        proc = subprocess.Popen(
            argv,
            env={"PYTHONPATH": _SRC_DIR, "PATH": "/usr/bin:/bin"},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # The CLI sweep builds these same 8 specs (gamma defaults to 0.3).
        specs = sweep_specs(
            dataset=DatasetSpec.of(
                "sentinel2",
                locations=["A"],
                bands=["B4"],
                horizon_days=20.0,
                image_shape=(128, 128),
            ),
            policies=("earthplus", "naive"),
            seeds=(0, 1, 2, 3),
            gammas=(0.3,),
            base_config=EarthPlusConfig(codec_backend="model"),
        )
        try:
            deadline = time.time() + 120.0
            store = None
            while time.time() < deadline and proc.poll() is None:
                if store is None and (store_root / "index.sqlite").exists():
                    store = ExperimentStore(store_root)
                if store is not None and store.stats()["entries"] >= 2:
                    break
                time.sleep(0.05)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait()
        if store is None:
            pytest.fail("sweep subprocess never created the store")
        persisted = store.stats()["entries"]
        if persisted >= len(specs):
            pytest.skip("sweep finished before the kill landed")
        assert persisted >= 1, "no partial progress survived the kill"

        real = scenarios.run_scenario
        resumed_labels = []

        def counting(spec, dataset=None):
            resumed_labels.append(spec.resolved_label())
            return real(spec, dataset=dataset)

        scenarios.run_scenario = counting
        try:
            resumed = run_scenarios_cached(specs, store=store)
        finally:
            scenarios.run_scenario = real
        assert len(resumed_labels) == len(specs) - persisted, (
            "resume did not execute exactly the missing specs"
        )
        assert len(resumed.cached) == persisted
        # The resumed sweep equals a from-scratch (store-free) run.
        reference = run_scenarios_cached(specs, store=None)
        for a, b in zip(resumed.results, reference.results):
            assert pickle.dumps(a) == pickle.dumps(b)
        store.close()


class TestConstrainedDownlinkRoundTrip:
    def test_shed_run_warm_read_is_pickle_identical(self, store):
        """Downlink stats and per-record shedding columns survive the
        store round trip byte-identically."""
        from repro.analysis.scenarios import ScenarioSpec, run_scenario

        spec = ScenarioSpec(
            policy="earthplus",
            dataset=DatasetSpec.of(
                "sentinel2",
                locations=["A"],
                bands=["B4"],
                horizon_days=40.0,
                image_shape=(128, 128),
            ),
            config=EarthPlusConfig(gamma_bpp=0.3, n_quality_layers=3),
            downlink_bytes_per_contact=25,
            downlink_severity=0.3,
        )
        cold = run_scenario(spec)
        assert cold.downlink_stats["layers_shed"] > 0 or (
            cold.downlink_stats["captures_deferred"]
            + cold.downlink_stats["captures_dropped"]
        ) > 0
        store.put(spec, cold)
        warm = store.get(spec)
        assert warm is not None
        assert pickle.dumps(warm) == pickle.dumps(cold)
