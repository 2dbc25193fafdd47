"""The curated top-level API: ``repro.__all__``, ``repro.run`` and the
config wire format."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro import (
    CorpusSpec,
    EngineSpec,
    PipelineConfig,
    PosteriorConfig,
    ReproError,
)
from repro.corpus.runner import check_report
from repro.ga import GAConfig

REPO_ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# Facade integrity
# ----------------------------------------------------------------------
def test_every_public_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_core_surface_is_exported():
    required = {
        "Circuit", "CircuitInfo", "run", "generate", "CIRCUIT_FAMILIES",
        "FaultTrajectoryATPG", "ATPGResult", "PipelineConfig",
        "EngineSpec", "PosteriorConfig", "PosteriorDiagnoser",
        "CorpusSpec", "FamilySpec", "run_corpus", "DiagnosisService",
        "ArtifactStore", "errors", "ReproError", "FamilyError",
        "CorpusError", "synthesize_universe", "__version__",
    }
    missing = required - set(repro.__all__)
    assert not missing, f"facade lost public names: {sorted(missing)}"


def test_version_matches_package_metadata():
    assert repro.__version__ == "1.8.0"


def test_run_convenience_accepts_family_tuple():
    config = PipelineConfig(
        dictionary_points=48,
        ga=GAConfig.quick(seeded_generations=2, population_size=12))
    result = repro.run(("rc_ladder", 0), config=config, seed=1)
    assert result.info.circuit.name == "rc_ladder_n5_s0"
    assert len(result.test_vector_hz) == config.num_frequencies


def test_run_convenience_accepts_benchmark_name():
    config = PipelineConfig(
        dictionary_points=48,
        ga=GAConfig.quick(seeded_generations=2, population_size=12))
    result = repro.run("rc_lowpass", config=config, seed=1)
    assert result.info.circuit.name == "rc_lowpass"


# ----------------------------------------------------------------------
# Wire format: keys of the retired worker-pool knobs still load (and are
# dropped); any other unknown key is still an error.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [PipelineConfig, PosteriorConfig])
@pytest.mark.parametrize("key,value", [
    ("n_workers", 4),
    ("executor", "thread"),
    ("ga_workers", 2),
    ("ga_executor", "process"),
    ("parallelism", {"n_workers": 3, "executor": "thread"}),
])
def test_retired_worker_keys_are_ignored(cls, key, value):
    wire = cls().to_json_dict()
    assert key not in wire
    restored = cls.from_json_dict({**wire, key: value})
    assert restored == cls()
    assert restored.to_json_dict() == wire
    with pytest.raises(ReproError):
        cls.from_json_dict({**wire, key: value, "n_wrokers": 4})


def test_committed_corpus_baseline_still_loads():
    """CORPUS_baseline.json predates the worker-key removal: it still
    passes --check and its spec decodes to the baseline preset."""
    report = json.loads((REPO_ROOT / "CORPUS_baseline.json").read_text())
    assert "n_workers" in report["spec"]["pipeline"]
    check_report(report, "CORPUS_baseline.json")
    assert CorpusSpec.from_json_dict(report["spec"]) == \
        CorpusSpec.baseline()


def test_engine_spec_collapses_to_string_on_wire():
    assert EngineSpec("batched").to_json_value() == "batched"
    spec = EngineSpec.parse("factored:sparse=true")
    assert spec.to_json_value() == {"kind": "factored", "sparse": True}
    assert EngineSpec.coerce(spec.to_json_value()) == spec
