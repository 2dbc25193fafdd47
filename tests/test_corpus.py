"""Corpus spec round-trip, end-to-end runs, resume, CLI, --check."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core import PipelineConfig
from repro.corpus import CorpusSpec, FamilySpec, check_report, run_corpus
from repro.corpus.cli import main as corpus_main
from repro.diagnosis import PosteriorConfig
from repro.errors import CorpusError
from repro.ga import GAConfig


def mini_spec(name="mini") -> CorpusSpec:
    """Three tiny circuits: fast enough for the unit tier."""
    return CorpusSpec(
        name=name,
        families=(FamilySpec("rc_ladder", count=2, size=3, max_targets=3),
                  FamilySpec("random_topology", count=1, size=3,
                             max_targets=3)),
        pipeline=PipelineConfig(
            dictionary_points=48,
            ga=GAConfig.quick(seeded_generations=2, population_size=12)),
        posterior=PosteriorConfig(n_samples=4, samples_per_block=4))


# ----------------------------------------------------------------------
# Spec validation + JSON round-trip
# ----------------------------------------------------------------------
def test_family_spec_rejects_unknown_family():
    with pytest.raises(CorpusError, match="unknown circuit family"):
        FamilySpec("no_such_family")


@pytest.mark.parametrize("kwargs", [
    {"count": 0}, {"size": 0}, {"max_targets": 0}])
def test_family_spec_rejects_bad_numbers(kwargs):
    with pytest.raises(CorpusError):
        FamilySpec("rc_ladder", **kwargs)


def test_corpus_spec_rejects_empty_matrix():
    with pytest.raises(CorpusError, match="no families"):
        CorpusSpec(name="x", families=())


def test_corpus_spec_rejects_unsafe_name():
    with pytest.raises(CorpusError, match="file-name-safe"):
        CorpusSpec(name="../evil",
                   families=(FamilySpec("rc_ladder"),))


@pytest.mark.parametrize("spec", [
    mini_spec(), CorpusSpec.quick(), CorpusSpec.baseline()])
def test_spec_round_trips_through_json(spec):
    wire = json.loads(json.dumps(spec.to_json_dict()))
    assert CorpusSpec.from_json_dict(wire) == spec


def test_baseline_is_at_least_100_circuits():
    assert CorpusSpec.baseline().total_circuits >= 100
    assert CorpusSpec.quick().total_circuits >= 15


def test_circuit_enumeration_order():
    spec = mini_spec()
    triples = list(spec.circuits())
    assert [index for index, _, _ in triples] == [0, 1, 2]
    assert [(fam.family, seed) for _, fam, seed in triples] == [
        ("rc_ladder", 0), ("rc_ladder", 1), ("random_topology", 0)]


# ----------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------
def test_run_corpus_end_to_end():
    spec = mini_spec()
    report = run_corpus(spec)
    results = report["results"]
    assert results["completed"] == spec.total_circuits
    assert results["failures"] == []
    assert set(results["per_family"]) == {"rc_ladder", "random_topology"}
    for record in results["circuits"]:
        assert 0.0 <= record["accuracy"] <= 1.0
        assert 0.0 <= record["posterior"]["accuracy"] <= 1.0
        assert record["content_hash"]
        assert len(record["test_vector_hz"]) == 2
    check_report(report, "mini report")


def test_run_corpus_results_deterministic():
    first = run_corpus(mini_spec())
    second = run_corpus(mini_spec())
    assert json.dumps(first["results"], sort_keys=True) == \
        json.dumps(second["results"], sort_keys=True)


def test_run_corpus_resume_idempotent(tmp_path):
    spec = mini_spec()
    store = tmp_path / "store"
    first = run_corpus(spec, store=store)
    second = run_corpus(spec, store=store)
    assert json.dumps(first["results"], sort_keys=True) == \
        json.dumps(second["results"], sort_keys=True)
    assert first["timings"]["from_cache"] == 0
    assert second["timings"]["from_cache"] == spec.total_circuits


def test_store_backed_run_generates_each_circuit_once(tmp_path,
                                                     monkeypatch):
    """The resume key and the run share one generated circuit."""
    from repro.corpus import runner
    calls = []

    def counting_generate(family, seed, **kwargs):
        calls.append((family, seed))
        return generate(family, seed, **kwargs)

    generate = runner.generate
    monkeypatch.setattr(runner, "generate", counting_generate)
    spec = CorpusSpec.quick()
    report = run_corpus(spec, store=tmp_path / "store")
    assert report["results"]["failures"] == []
    assert sorted(calls) == sorted(
        (family.family, seed) for _, family, seed in spec.circuits())


def test_resume_key_tracks_settings(tmp_path):
    """A settings change invalidates cached records (no stale reuse)."""
    store = tmp_path / "store"
    spec = mini_spec()
    run_corpus(spec, store=store)
    changed = dataclasses.replace(
        spec, held_out_deviations=(-0.22, 0.22))
    report = run_corpus(changed, store=store)
    assert report["timings"]["from_cache"] == 0


# ----------------------------------------------------------------------
# --check validation
# ----------------------------------------------------------------------
def test_check_report_catches_tampering():
    report = run_corpus(mini_spec())
    report["results"]["circuits"][0]["accuracy"] = 1.5
    with pytest.raises(SystemExit, match="invalid accuracy"):
        check_report(report, "tampered")


def test_check_report_rejects_class_accuracy_below_component():
    report = run_corpus(mini_spec())
    record = report["results"]["circuits"][0]
    kept = record["group_accuracy"]
    record["group_accuracy"] = record["accuracy"] - 0.01
    with pytest.raises(SystemExit, match="group_accuracy < accuracy"):
        check_report(report, "record")
    record["group_accuracy"] = kept
    family = next(iter(report["results"]["per_family"].values()))
    family["group_accuracy_mean"] = family["accuracy_mean"] - 0.01
    with pytest.raises(SystemExit, match="group_accuracy_mean"):
        check_report(report, "family")


def test_check_report_catches_count_mismatch():
    report = run_corpus(mini_spec())
    report["results"]["circuits"].pop()
    with pytest.raises(SystemExit):
        check_report(report, "short")


def test_check_report_requires_environment():
    report = run_corpus(mini_spec())
    del report["environment"]
    with pytest.raises(SystemExit, match="environment"):
        check_report(report, "no-env")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_runs_spec_file_and_checks(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(mini_spec("cli").to_json_dict()))
    out_dir = tmp_path / "out"
    code = corpus_main(["--spec", str(spec_file), "--out", str(out_dir),
                        "--store", str(tmp_path / "store"),
                        "--check", "--quiet"])
    assert code == 0
    artifact = out_dir / "CORPUS_cli.json"
    report = json.loads(artifact.read_text())
    assert report["artifact"] == "CORPUS_cli"
    assert report["results"]["completed"] == 3
    assert "check passed" in capsys.readouterr().out
