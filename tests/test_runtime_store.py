"""Artifact store: content keys, round-trips, warm-run simulation skip."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    ArtifactStore,
    FaultTrajectoryATPG,
    PipelineConfig,
    parametric_universe,
    rc_lowpass,
)
from repro.errors import StoreError
from repro.faults import FaultDictionary
from repro.ga import GAConfig
from repro.runtime.store import (derive_key, ga_search_key,
                                 problem_key, trajectory_key)
from repro.trajectory import SignatureMapper, TrajectorySet
from repro.units import log_frequency_grid

QUICK_GA = GAConfig(population_size=8, generations=2)


@pytest.fixture()
def problem():
    info = rc_lowpass()
    config = PipelineConfig(dictionary_points=32, deviations=(-0.2, 0.2),
                            ga=QUICK_GA)
    universe = parametric_universe(info.circuit,
                                   components=info.faultable,
                                   deviations=config.deviations)
    grid = log_frequency_grid(info.f_min_hz, info.f_max_hz,
                              config.dictionary_points)
    return info, config, universe, grid


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
class TestKeys:
    def test_key_is_deterministic(self, problem):
        info, config, universe, grid = problem
        assert problem_key(info, universe) == problem_key(info, universe)
        assert ga_search_key("b" * 64, info, config, 1) == \
            ga_search_key("b" * 64, info, config, 1)

    def test_key_tracks_every_input(self, problem):
        info, config, universe, grid = problem
        base = problem_key(info, universe)
        # Different netlist value.
        other_info = rc_lowpass(f0_hz=2e3)
        other_universe = parametric_universe(
            other_info.circuit, components=other_info.faultable,
            deviations=config.deviations)
        assert problem_key(other_info, other_universe) != base
        # Different universe.
        small = parametric_universe(info.circuit,
                                    components=info.faultable,
                                    deviations=(-0.1, 0.1))
        assert problem_key(info, small) != base
        # Different grid changes the dictionary sub-key.
        assert derive_key(base, "dense", list(grid)) != \
            derive_key(base, "dense", list(grid[:-1]))
        # GA knobs change the search key.
        import dataclasses
        other = dataclasses.replace(config, fitness="margin")
        assert ga_search_key("b" * 64, info, other, 1) != \
            ga_search_key("b" * 64, info, config, 1)
        assert ga_search_key("b" * 64, info, config, 2) != \
            ga_search_key("b" * 64, info, config, 1)

    def test_keys_scope_only_real_dependencies(self, problem):
        """Downstream-only knobs never enter a key: the ambiguity
        threshold only affects post-processing, so both configs must
        share cache slots."""
        import dataclasses
        info, config, universe, grid = problem
        variant = dataclasses.replace(config, ambiguity_threshold=0.5)
        assert ga_search_key("b" * 64, info, variant, 1) == \
            ga_search_key("b" * 64, info, config, 1)
        assert trajectory_key("c" * 64, variant) == \
            trajectory_key("c" * 64, config)

    def test_key_stable_across_processes(self, problem):
        import os

        import repro

        info, config, universe, grid = problem
        local = problem_key(info, universe) + " " + \
            ga_search_key("b" * 64, info, config, 1)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "from repro import rc_lowpass, PipelineConfig, "
            "parametric_universe\n"
            "from repro.ga import GAConfig\n"
            "from repro.runtime.store import ga_search_key, "
            "problem_key\n"
            "info = rc_lowpass()\n"
            "config = PipelineConfig(dictionary_points=32, "
            "deviations=(-0.2, 0.2), "
            "ga=GAConfig(population_size=8, generations=2))\n"
            "universe = parametric_universe(info.circuit, "
            "components=info.faultable, deviations=config.deviations)\n"
            "print(problem_key(info, universe) + ' ' + "
            "ga_search_key('b' * 64, info, config, 1))\n")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == local

    def test_derive_key(self):
        assert derive_key("abc", "ga", 1) == derive_key("abc", "ga", 1)
        assert derive_key("abc", "ga", 1) != derive_key("abc", "ga", 2)
        assert derive_key("abc", "ga", None) != derive_key("abc", "ga", 0)

    def test_invalid_keys_and_kinds_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for bad_key in ("../escape", "..", ".", "", "short",
                        "G" * 64, "0" * 63):
            with pytest.raises(StoreError):
                store.has("dictionary", bad_key)
        for bad_kind in ("..", "", "Kind", "a/b"):
            with pytest.raises(StoreError):
                store.has(bad_kind, "0" * 64)


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------
class TestRoundTrips:
    def test_dictionary_round_trip(self, tmp_path, problem):
        info, _, universe, grid = problem
        store = ArtifactStore(tmp_path)
        built = FaultDictionary.build(universe, info.output_node, grid,
                                      input_source=info.input_source)
        assert store.load_dictionary("dictionary", "0" * 64) is None
        store.save_dictionary("dictionary", "0" * 64, built)
        assert store.has("dictionary", "0" * 64)
        loaded = store.load_dictionary("dictionary", "0" * 64)
        assert loaded.labels == built.labels
        assert np.array_equal(loaded.golden.values, built.golden.values)
        for a, b in zip(loaded.entries, built.entries):
            assert np.array_equal(a.response.values, b.response.values)
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.puts == 1

    def test_ga_result_round_trip(self, tmp_path, problem):
        info, config, universe, grid = problem
        store = ArtifactStore(tmp_path)
        result = FaultTrajectoryATPG(info, config).run(seed=5)
        store.save_ga_result("1" * 64, result.ga_result)
        loaded = store.load_ga_result("1" * 64)
        assert loaded.best_freqs_hz == result.ga_result.best_freqs_hz
        assert loaded.best_fitness == result.ga_result.best_fitness
        assert loaded.generations_run == result.ga_result.generations_run
        assert loaded.evaluations == result.ga_result.evaluations
        assert [s.best_fitness for s in loaded.history] == \
            [s.best_fitness for s in result.ga_result.history]
        assert np.array_equal(loaded.final_population,
                              result.ga_result.final_population)

    def test_trajectories_round_trip(self, tmp_path, biquad_trajectories):
        store = ArtifactStore(tmp_path)
        store.save_trajectories("2" * 64, biquad_trajectories)
        loaded = store.load_trajectories("2" * 64)
        assert loaded.components == biquad_trajectories.components
        assert loaded.mapper == biquad_trajectories.mapper
        for a, b in zip(loaded, biquad_trajectories):
            assert a.deviations == b.deviations
            assert np.array_equal(a.points, b.points)

    def test_save_is_idempotent_under_races(self, tmp_path, problem):
        """Two writers of the same key coexist: the loser's rename is
        discarded and the artifact stays readable."""
        info, _, universe, grid = problem
        store = ArtifactStore(tmp_path)
        built = FaultDictionary.build(universe, info.output_node, grid,
                                      input_source=info.input_source)
        store.save_dictionary("dictionary", "f" * 64, built)
        store.save_dictionary("dictionary", "f" * 64, built)
        assert store.load_dictionary("dictionary",
                                     "f" * 64).labels == built.labels


# ----------------------------------------------------------------------
# Store-accelerated pipeline runs
# ----------------------------------------------------------------------
class TestWarmRuns:
    def test_warm_run_skips_simulation_entirely(self, tmp_path, problem):
        info, config, _, _ = problem
        store = ArtifactStore(tmp_path)
        cold = FaultTrajectoryATPG(info, config).run(seed=5, store=store)
        assert cold.cache_hits == ()
        simulations_before = FaultDictionary.simulations_run
        hits_before = store.stats.hits
        warm = FaultTrajectoryATPG(info, config).run(seed=5, store=store)
        # The acceptance criterion: zero fault simulations on a warm run.
        assert FaultDictionary.simulations_run == simulations_before
        assert store.stats.hits == hits_before + 4
        assert set(warm.cache_hits) == {"dictionary", "ga", "exact",
                                        "trajectories"}
        # And the warmed result is the cold result, exactly.
        assert warm.test_vector_hz == cold.test_vector_hz
        assert warm.ga_result.best_fitness == cold.ga_result.best_fitness
        assert warm.metrics == cold.metrics
        assert warm.groups == cold.groups
        for a, b in zip(warm.trajectories, cold.trajectories):
            assert np.array_equal(a.points, b.points)

    def test_warm_run_diagnoses_identically(self, tmp_path, problem):
        info, config, _, _ = problem
        store = ArtifactStore(tmp_path)
        cold = FaultTrajectoryATPG(info, config).run(seed=5, store=store)
        warm = FaultTrajectoryATPG(info, config).run(seed=5, store=store)
        point = np.array([0.5, -0.25])
        assert warm.diagnose_point(point) == cold.diagnose_point(point)

    def test_different_seed_reuses_dictionary_not_ga(self, tmp_path,
                                                     problem):
        info, config, _, _ = problem
        store = ArtifactStore(tmp_path)
        FaultTrajectoryATPG(info, config).run(seed=5, store=store)
        other = FaultTrajectoryATPG(info, config).run(seed=6, store=store)
        assert "dictionary" in other.cache_hits
        assert "ga" not in other.cache_hits

    def test_unseeded_runs_never_cache_the_ga(self, tmp_path, problem):
        """seed=None means an independent random search per run; the
        store must not memoise it (only the simulations)."""
        info, config, _, _ = problem
        store = ArtifactStore(tmp_path)
        FaultTrajectoryATPG(info, config).run(seed=None, store=store)
        repeat = FaultTrajectoryATPG(info, config).run(seed=None,
                                                       store=store)
        assert "dictionary" in repeat.cache_hits
        assert "ga" not in repeat.cache_hits

    def test_ga_sweep_reuses_dictionary(self, tmp_path, problem):
        """Sweeping a search knob must not re-simulate the dictionary:
        artifacts are keyed on only their real dependencies."""
        import dataclasses
        info, config, _, _ = problem
        store = ArtifactStore(tmp_path)
        FaultTrajectoryATPG(info, config).run(seed=5, store=store)
        simulations_before = FaultDictionary.simulations_run
        swept = dataclasses.replace(config, fitness="margin")
        other = FaultTrajectoryATPG(info, swept).run(seed=5, store=store)
        assert "dictionary" in other.cache_hits
        assert "ga" not in other.cache_hits
        # Only the exact dictionary may need simulating (new vector).
        assert FaultDictionary.simulations_run <= simulations_before + 1

    def test_store_layout_is_content_addressed(self, tmp_path, problem):
        info, config, _, _ = problem
        store = ArtifactStore(tmp_path)
        FaultTrajectoryATPG(info, config).run(seed=5, store=store)
        slots = [p for p in Path(tmp_path).rglob("*") if p.is_dir()
                 and len(p.name) == 64]
        assert len(slots) == 4  # dictionary, ga, exact, trajectories
        for slot in slots:
            assert slot.parent.name == slot.name[:2]

    def test_engine_scopes_the_store(self, tmp_path):
        """The factored engine differs from batched in the last bits, so
        a store warmed by a batched run must not serve a factored run
        (it would hand back a different test vector than a cold factored
        run finds); scalar is bitwise-batched and shares its slots."""
        import dataclasses
        info = rc_lowpass()
        batched = PipelineConfig.paper()
        factored = dataclasses.replace(batched, engine="factored")
        store = ArtifactStore(tmp_path)
        FaultTrajectoryATPG(info, batched).run(seed=2012, store=store)
        warmed = FaultTrajectoryATPG(info, factored).run(seed=2012,
                                                         store=store)
        cold = FaultTrajectoryATPG(info, factored).run(seed=2012)
        assert "dictionary" not in warmed.cache_hits
        assert warmed.test_vector_hz == cold.test_vector_hz
        assert warmed.ga_result.best_fitness == cold.ga_result.best_fitness
        scalar = dataclasses.replace(batched, engine="scalar")
        shared = FaultTrajectoryATPG(info, scalar).run(seed=2012,
                                                       store=store)
        assert set(shared.cache_hits) == {"dictionary", "ga", "exact",
                                          "trajectories"}
