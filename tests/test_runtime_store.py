"""Artifact store: content keys, round-trips, warm-run simulation skip,
slot mechanics, maintenance, and byte-compatibility with the committed
legacy store root."""

import hashlib
import importlib.util
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import (
    ArtifactStore,
    DiagnosisService,
    FaultTrajectoryATPG,
    PipelineConfig,
    parametric_universe,
    rc_lowpass,
)
from repro.errors import StoreError
from repro.faults import FaultDictionary
from repro.ga import GAConfig
from repro.runtime.store import (as_store, derive_key, ga_search_key,
                                 problem_key, trajectory_key)
from repro.trajectory import SignatureMapper, TrajectorySet
from repro.units import log_frequency_grid

QUICK_GA = GAConfig(population_size=8, generations=2)

DATA_DIR = Path(__file__).resolve().parent / "data"

_spec = importlib.util.spec_from_file_location(
    "legacy_store_maker", DATA_DIR / "make_legacy_store.py")
legacy_maker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(legacy_maker)


def key_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def json_bytes(data: dict) -> int:
    """Size of the ``data.json`` file :meth:`save_json` writes."""
    return len(json.dumps(data, sort_keys=True).encode())


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

    def test_reopened_store_warm_run_skips_simulation(self, tmp_path):
        """A store reopened on the same root (a new process, say)
        warms the pipeline from disk alone: zero fault simulations and
        the cold run reproduced exactly."""
        info = legacy_maker.circuit_info()
        config = legacy_maker.CONFIG
        cold = FaultTrajectoryATPG(info, config).run(
            seed=5, store=ArtifactStore(tmp_path))
        reopened = ArtifactStore(tmp_path)
        simulations_before = FaultDictionary.simulations_run
        warm = FaultTrajectoryATPG(info, config).run(seed=5,
                                                     store=reopened)
        assert FaultDictionary.simulations_run == simulations_before
        assert reopened.stats.hits == 4 and reopened.stats.puts == 0
        assert set(warm.cache_hits) == {"dictionary", "ga", "exact",
                                        "trajectories"}
        assert warm.test_vector_hz == cold.test_vector_hz
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


# ----------------------------------------------------------------------
# Slots: publication, deletion, records, LRU prune
# ----------------------------------------------------------------------
class TestSlots:
    def test_publish_open_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "root")
        key = key_of("artifact-1")
        assert store.load_json("corpus", key) is None
        assert not store.has("corpus", key)
        store.save_json("corpus", key, {"answer": [1, 2]})
        assert store.has("corpus", key)
        assert store.load_json("corpus", key) == {"answer": [1, 2]}
        slot = tmp_path / "root" / "corpus" / key[:2] / key
        assert json.loads((slot / "data.json").read_text()) == \
            {"answer": [1, 2]}
        assert [p.name for p in slot.parent.iterdir()] == [key]

    def test_first_writer_wins(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = key_of("artifact-2")
        store.save_json("ga", key, {"writer": "first"})
        store.save_json("ga", key, {"writer": "second"})
        assert store.load_json("ga", key) == {"writer": "first"}
        assert store.stats.puts == 1

    def test_delete(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = key_of("artifact-3")
        assert not store.delete("exact", key)
        store.save_json("exact", key, {"x": 1})
        assert store.delete("exact", key)
        assert store.load_json("exact", key) is None
        assert not store.has("exact", key)

    def test_records_and_disk_usage(self, tmp_path):
        store = ArtifactStore(tmp_path)
        payloads = {key_of(f"a{i}"): {"blob": "x" * (10 * (i + 1))}
                    for i in range(3)}
        for key, payload in payloads.items():
            store.save_json("dictionary", key, payload)
        records = list(store.records())
        assert {r.key for r in records} == set(payloads)
        for record in records:
            assert record.n_bytes == json_bytes(payloads[record.key])
            assert record.kind == "dictionary"
        assert store.disk_usage() == sum(
            json_bytes(p) for p in payloads.values())

    def test_prune_evicts_lru_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys = [key_of(f"p{i}") for i in range(3)]
        payload = {"blob": "z" * 100}
        size = json_bytes(payload)
        for key in keys:
            store.save_json("dictionary", key, payload)
            time.sleep(0.02)          # strictly ordered mtimes
        # Touch the oldest artifact: a read refreshes its recency.
        assert store.load_json("dictionary", keys[0]) == payload
        evicted = store.prune(max_bytes=2 * size)
        assert [record.key for record in evicted] == [keys[1]]
        assert store.has("dictionary", keys[0])
        assert not store.has("dictionary", keys[1])
        assert store.has("dictionary", keys[2])
        assert store.disk_usage() <= 2 * size
        # Prune to zero clears everything; a second prune is a no-op.
        assert len(store.prune(max_bytes=0)) == 2
        assert store.disk_usage() == 0
        assert store.prune(max_bytes=0) == ()
        with pytest.raises(StoreError):
            store.prune(max_bytes=-1)

    def test_invalid_slots_rejected(self, tmp_path):
        """Every slot operation runs the path-traversal guard, so a
        bad key can neither read nor write outside the root."""
        root = tmp_path / "root"
        store = ArtifactStore(root)
        good_key = key_of("artifact-4")
        for kind, key in (("corpus", "../escape"), ("..", good_key),
                          ("a/b", good_key)):
            with pytest.raises(StoreError):
                store.save_json(kind, key, {"x": 1})
            with pytest.raises(StoreError):
                store.load_json(kind, key)
            with pytest.raises(StoreError):
                store.delete(kind, key)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["root"]
        assert list(store.records()) == []


# ----------------------------------------------------------------------
# Coercion, maintenance and self-healing over real pipeline artifacts
# ----------------------------------------------------------------------
class TestStoreMaintenance:
    def test_store_requires_a_root(self, tmp_path):
        with pytest.raises(TypeError):
            ArtifactStore()
        root = tmp_path / "nested" / "root"
        store = ArtifactStore(root)
        assert store.root == root and root.is_dir()

    def test_as_store_coercions(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert as_store(store) is store
        assert as_store(None) is None
        assert as_store(tmp_path).root == tmp_path
        assert as_store(str(tmp_path)).root == tmp_path
        with pytest.raises(StoreError):
            as_store(42)

    def test_service_accepts_path_stores(self, tmp_path):
        by_path = DiagnosisService(config=legacy_maker.CONFIG,
                                   store=tmp_path / "store", seed=3)
        assert isinstance(by_path.store, ArtifactStore)
        assert by_path.store.root == tmp_path / "store"

    def test_store_prune_and_disk_usage(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        info = legacy_maker.circuit_info()
        FaultTrajectoryATPG(info, legacy_maker.CONFIG).run(
            seed=5, store=store)
        total = store.disk_usage()
        assert total > 0
        records = list(store.records())
        assert {r.kind for r in records} == {"dictionary", "ga",
                                             "exact", "trajectories"}
        assert sum(r.n_bytes for r in records) == total
        # Keep roughly half: the least recently used artifacts go.
        evicted = store.prune(max_bytes=total // 2)
        assert evicted
        assert store.disk_usage() <= total // 2
        for record in evicted:
            assert not store.has(record.kind, record.key)

    def test_artifact_vanishing_mid_read_degrades_to_miss(
            self, tmp_path, monkeypatch):
        """A concurrent prune between the slot lookup and the file
        reads must read as a miss (caller recomputes), not crash the
        load."""
        store = ArtifactStore(tmp_path / "store")
        info = legacy_maker.circuit_info()
        FaultTrajectoryATPG(info, legacy_maker.CONFIG).run(
            seed=5, store=store)
        record = next(r for r in store.records()
                      if r.kind == "dictionary")
        load = FaultDictionary.load

        def racing_load(path):
            # Simulate the race: the slot was found, then a prune
            # deleted it before the loader touched the files.
            store.delete("dictionary", record.key)
            return load(path)

        monkeypatch.setattr(FaultDictionary, "load", racing_load)
        stats_before = store.stats.snapshot()
        assert store.load_dictionary("dictionary",
                                     record.key) is None
        assert store.stats.misses == stats_before["misses"] + 1
        assert store.stats.hits == stats_before["hits"]

    def test_corrupt_artifact_self_heals(self, tmp_path):
        """A corrupt artifact (present but unreadable) must read as a
        miss AND vacate its slot, so the recompute can republish --
        first-writer-wins would otherwise keep the bad copy forever."""
        store = ArtifactStore(tmp_path / "store")
        info = legacy_maker.circuit_info()
        config = legacy_maker.CONFIG
        FaultTrajectoryATPG(info, config).run(seed=5, store=store)
        record = next(r for r in store.records()
                      if r.kind == "dictionary")
        slot = store.root / "dictionary" / record.key[:2] / record.key
        (slot / "dictionary.npz").unlink()   # truncated/corrupt slot
        assert store.load_dictionary("dictionary", record.key) is None
        assert not store.has("dictionary", record.key)
        rerun = FaultTrajectoryATPG(info, config).run(seed=5,
                                                      store=store)
        assert "dictionary" not in rerun.cache_hits
        warm = FaultTrajectoryATPG(info, config).run(seed=5,
                                                     store=store)
        assert "dictionary" in warm.cache_hits

    def test_pruned_artifact_rebuilds_on_next_run(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        info = legacy_maker.circuit_info()
        config = legacy_maker.CONFIG
        FaultTrajectoryATPG(info, config).run(seed=5, store=store)
        store.prune(max_bytes=0)
        rerun = FaultTrajectoryATPG(info, config).run(seed=5,
                                                      store=store)
        assert rerun.cache_hits == ()        # everything was evicted
        warm = FaultTrajectoryATPG(info, config).run(seed=5,
                                                     store=store)
        assert set(warm.cache_hits) == {"dictionary", "ga", "exact",
                                        "trajectories"}


# ----------------------------------------------------------------------
# Byte-compatibility with store roots written by earlier versions
# ----------------------------------------------------------------------
class TestLegacyStoreCompatibility:
    """``tests/data/legacy_store`` was written by an earlier
    ArtifactStore. It must stay fully readable."""

    @pytest.fixture()
    def legacy_root(self, tmp_path):
        root = tmp_path / "legacy_store"
        shutil.copytree(legacy_maker.LEGACY_ROOT, root)
        return root

    def test_layout_matches_store_records(self, legacy_root):
        records = list(ArtifactStore(legacy_root).records())
        assert {r.kind for r in records} == {"dictionary", "ga",
                                             "exact", "trajectories"}
        for record in records:
            slot = legacy_root / record.kind / record.key[:2] / record.key
            assert slot.is_dir()

    def test_legacy_run_loads_all_artifacts(self, legacy_root):
        """Replaying the fixture's pipeline run against the committed
        tree must hit every artifact (same content keys, same bytes)
        and reproduce a fresh run bitwise."""
        store = ArtifactStore(legacy_root)
        info = legacy_maker.circuit_info()
        config = legacy_maker.CONFIG
        warm = FaultTrajectoryATPG(info, config).run(
            seed=legacy_maker.SEED, store=store)
        assert set(warm.cache_hits) == {"dictionary", "ga", "exact",
                                        "trajectories"}, (
            "committed legacy store no longer resolves -- the layout, "
            "content keys or serialisation format changed; see "
            "tests/data/make_legacy_store.py")
        fresh = FaultTrajectoryATPG(info, config).run(
            seed=legacy_maker.SEED)
        assert warm.test_vector_hz == fresh.test_vector_hz
        assert warm.metrics == fresh.metrics
        for a, b in zip(warm.trajectories, fresh.trajectories):
            assert np.array_equal(a.points, b.points)
        point = np.array([0.4, -0.2])
        assert warm.diagnose_point(point) == fresh.diagnose_point(point)
