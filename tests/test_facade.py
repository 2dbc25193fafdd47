"""The curated top-level API: ``repro.__all__``, ``repro.run`` and the
config wire format."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import (
    CorpusSpec,
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
        "PosteriorConfig", "PosteriorDiagnoser",
        "CorpusSpec", "FamilySpec", "run_corpus", "DiagnosisService",
        "ArtifactStore", "errors", "ReproError", "FamilyError",
        "CorpusError", "synthesize_universe", "__version__",
    }
    missing = required - set(repro.__all__)
    assert not missing, f"facade lost public names: {sorted(missing)}"


def test_import_does_not_load_scipy():
    """scipy is optional: only the factored engine's sparse path
    imports it, lazily, through ``lowrank.scipy_sparse()``."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    probe = ("import repro, sys; "
             "print(sorted(m for m in sys.modules "
             "if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_small_factored_solve_does_not_load_scipy():
    """The factored engine's 'auto' sparse mode checks the dimension
    before it tries scipy: a circuit under ``sparse_min_dim`` solves
    its low-rank rows without importing scipy -- on the engine alone
    and through the pipeline, whose one engine it is."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    probe = (
        "import sys, numpy as np, repro; "
        "from repro import FactoredMnaEngine, PipelineConfig, "
        "parametric_universe, tow_thomas_biquad; "
        "info = tow_thomas_biquad(); "
        "engine = FactoredMnaEngine(info.circuit); "
        "assert engine.system.dim < engine.sparse_min_dim; "
        "engine.transfer_block(info.output_node, np.array([1e2, 1e3]), "
        "parametric_universe(info.circuit).variants(), "
        "info.input_source); "
        "assert engine.lowrank_updates > 0; "
        "result = repro.run('tow_thomas_biquad', PipelineConfig.quick(), "
        "seed=1); "
        "assert isinstance(result.engine, FactoredMnaEngine); "
        "assert result.engine.lowrank_updates > 0; "
        "print(sorted(m for m in sys.modules "
        "if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
# Wire format: keys of the retired worker-pool knobs are unknown keys.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [PipelineConfig, PosteriorConfig])
@pytest.mark.parametrize("key,value", [
    ("n_workers", 4),
    ("executor", "thread"),
    ("ga_workers", 2),
    ("ga_executor", "process"),
    ("parallelism", {"n_workers": 3, "executor": "thread"}),
])
def test_retired_worker_keys_are_refused(cls, key, value):
    wire = cls().to_json_dict()
    assert key not in wire
    assert cls.from_json_dict(wire) == cls()
    with pytest.raises(ReproError):
        cls.from_json_dict({**wire, key: value})


def test_committed_corpus_baseline_still_loads():
    """CORPUS_baseline.json passes --check and its spec decodes to the
    baseline preset."""
    report = json.loads((REPO_ROOT / "CORPUS_baseline.json").read_text())
    check_report(report, "CORPUS_baseline.json")
    assert CorpusSpec.from_json_dict(report["spec"]) == \
        CorpusSpec.baseline()
    assert report["spec"] == json.loads(
        json.dumps(CorpusSpec.baseline().to_json_dict()))


def test_engine_is_one_plain_name_on_wire():
    """No config carries an engine: the pipeline has one, so a persisted
    config that still names one (any name) is refused."""
    assert {"EngineSpec", "ScalarMnaEngine", "ENGINE_KINDS",
            "make_engine"}.isdisjoint(repro.__all__)
    assert "engine" not in PipelineConfig().to_json_dict()
    assert "engine" not in PosteriorConfig().to_json_dict()
    for engine in ("batched", "factored", "scalar"):
        with pytest.raises(ReproError, match="engine"):
            PipelineConfig.from_json_dict({"engine": engine})
        with pytest.raises(ReproError, match="engine"):
            PosteriorConfig.from_json_dict({"engine": engine})
        with pytest.raises(ReproError, match="engine"):
            CorpusSpec.from_json_dict({
                **CorpusSpec.quick().to_json_dict(),
                "pipeline": {"engine": engine}})
