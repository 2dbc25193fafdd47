"""Corpus execution: enumerate, pipeline, diagnose, aggregate.

:func:`run_corpus` drives a :class:`~repro.corpus.spec.CorpusSpec`
end-to-end -- for every ``(family, seed)`` circuit: generate, build the
fault dictionary, run the GA test search, score hard classification on
held-out deviations and run the posterior tier over the same cases --
and returns the machine-readable report the ``repro-corpus`` CLI
writes as ``CORPUS_<name>.json``.

The report splits into a **deterministic** ``results`` section
(bitwise-reproducible for a given spec: every random draw is seeded
from the spec) and an environment-dependent ``timings`` section
(latency percentiles, cache hits). ``--check`` validates the former's
invariants and the artifact's environment stamp via
:func:`check_report`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..circuits.families import generate
from ..core.atpg import FaultTrajectoryATPG
from ..diagnosis.posterior import PosteriorDiagnoser
from ..errors import CorpusError
from ..faults.universe import synthesize_universe
from ..runtime.telemetry import REGISTRY
from .spec import CorpusSpec, FamilySpec

__all__ = ["run_corpus", "check_report", "environment_info",
           "check_environment"]

_circuits_total = REGISTRY.counter(
    "repro_corpus_circuits_total",
    "Corpus circuits completed end-to-end.", ("family",))
_failures_total = REGISTRY.counter(
    "repro_corpus_failures_total",
    "Corpus circuits that raised instead of completing.", ("family",))
_build_seconds = REGISTRY.histogram(
    "repro_corpus_build_seconds",
    "Per-circuit pipeline (dictionary+GA) wall seconds.", ("family",))


# ----------------------------------------------------------------------
# Environment stamp (single implementation; benchmarks/_helpers.py
# re-exports these so every BENCH_*/CORPUS_* artifact shares it).
# ----------------------------------------------------------------------
def environment_info() -> dict:
    """Hardware/runtime facts every corpus/bench artifact records.

    Latency claims are only auditable next to the core count they were
    measured on; platform and python version pin the rest of the
    variance.
    """
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def check_environment(report: dict, artefact: str) -> None:
    """``--check`` validator for the shared ``environment`` section."""
    env = report.get("environment")
    if not isinstance(env, dict) or \
            not isinstance(env.get("cpu_count"), int) or \
            env["cpu_count"] < 1:
        raise SystemExit(f"{artefact} missing a valid "
                         "environment.cpu_count")
    for key in ("platform", "python"):
        if not env.get(key):
            raise SystemExit(f"{artefact} missing environment.{key}")


# ----------------------------------------------------------------------
# Per-circuit execution
# ----------------------------------------------------------------------
def _round(value: float) -> float:
    """9-significant-digit float for the deterministic section.

    Quantising keeps the JSON repr short and shields the
    bitwise-reproducibility contract from last-ulp noise without
    hiding any real accuracy movement.
    """
    return float(f"{float(value):.9g}")


def _circuit_key(spec: CorpusSpec, family: FamilySpec,
                 content_hash: str) -> str:
    """Content-addressed resume key for one circuit's corpus record.

    Everything that shapes the *deterministic* record participates:
    the circuit itself plus the settings the run applies to it. A spec
    edit that changes outcomes changes the key; a pure rename (corpus
    ``name``) or timing-only context does not.
    """
    settings = {
        "circuit": content_hash,
        "max_targets": family.max_targets,
        "pipeline": spec.pipeline.to_json_dict(),
        "posterior": spec.posterior.to_json_dict(),
        "held_out": list(spec.held_out_deviations),
        "ga_seed": spec.ga_seed,
    }
    # Full SHA-256 hex: the artifact-store key grammar requires it.
    return hashlib.sha256(
        json.dumps(settings, sort_keys=True).encode()).hexdigest()


def _run_circuit(spec: CorpusSpec, family: FamilySpec, seed: int,
                 index: int, info, store=None) -> Tuple[dict, dict]:
    """One generated circuit end-to-end: ``(deterministic record,
    timing)``."""
    universe = synthesize_universe(
        info, deviations=spec.pipeline.deviations,
        max_targets=family.max_targets, seed=seed)

    started = time.perf_counter()
    atpg = FaultTrajectoryATPG(info, spec.pipeline,
                               components=universe.components)
    result = atpg.run(seed=spec.ga_seed + index, store=store)
    build_seconds = time.perf_counter() - started

    evaluation = result.evaluate(deviations=spec.held_out_deviations)
    cases = [case_result.case for case_result in evaluation.results]

    posterior_started = time.perf_counter()
    diagnoser = PosteriorDiagnoser.from_atpg(result,
                                             config=spec.posterior)
    points = np.stack([case.point for case in cases])
    posteriors = diagnoser.diagnose_points(points)
    posterior_seconds = time.perf_counter() - posterior_started

    posterior_correct = [
        diag.component == case.true_component
        for diag, case in zip(posteriors, cases)]
    record = {
        "family": family.family,
        "seed": seed,
        "size": family.effective_size,
        "circuit": info.circuit.name,
        "content_hash": info.circuit.content_hash(),
        "n_components": len(result.universe.components),
        "n_faults": len(result.universe),
        "test_vector_hz": [_round(f) for f in result.test_vector_hz],
        "ga_fitness": _round(result.ga_result.best_fitness),
        "min_separation": _round(result.metrics.min_separation),
        "isolability_classes": sum(
            1 for group in result.groups if len(group) > 1),
        "accuracy": _round(evaluation.accuracy),
        "group_accuracy": _round(evaluation.group_accuracy),
        "posterior": {
            "accuracy": _round(np.mean(posterior_correct)),
            "mean_entropy_bits": _round(np.mean(
                [diag.entropy_bits for diag in posteriors])),
            "mean_probability": _round(np.mean(
                [diag.probability for diag in posteriors])),
        },
    }
    timing = {
        "build_seconds": build_seconds,
        "posterior_seconds": posterior_seconds,
        "cache_hits": list(result.cache_hits),
    }
    return record, timing


def _percentiles(samples: List[float]) -> dict:
    values = np.asarray(samples, dtype=float)
    return {f"p{q}": round(float(np.percentile(values, q)), 6)
            for q in (50, 90, 99)}


def _aggregate_family(records: List[dict]) -> dict:
    def mean(key: str) -> float:
        return _round(np.mean([record[key] for record in records]))

    return {
        "n_circuits": len(records),
        "n_faults_mean": mean("n_faults"),
        "accuracy_mean": mean("accuracy"),
        "group_accuracy_mean": mean("group_accuracy"),
        "posterior_accuracy_mean": _round(np.mean(
            [record["posterior"]["accuracy"] for record in records])),
        "mean_entropy_bits": _round(np.mean(
            [record["posterior"]["mean_entropy_bits"]
             for record in records])),
        "isolability_classes_mean": mean("isolability_classes"),
    }


# ----------------------------------------------------------------------
# The corpus loop
# ----------------------------------------------------------------------
def run_corpus(spec: CorpusSpec, store=None,
               log: Optional[Callable[[str], None]] = None) -> dict:
    """Run the whole corpus matrix and return the report dict.

    ``store`` (an :class:`~repro.runtime.store.ArtifactStore` or a
    root path -- anything :func:`~repro.runtime.store.as_store` accepts)
    enables resume: each circuit's deterministic record is persisted
    under a content key covering the circuit and every setting that
    shapes its outcome, so an interrupted corpus re-run recomputes only
    what is missing (and the pipeline additionally reuses its own
    dictionary/GA artifacts through the same store). A circuit that
    raises is recorded under ``results.failures`` without aborting the
    run.
    """
    if store is not None:
        from ..runtime.store import as_store
        store = as_store(store)
    say = log or (lambda message: None)

    circuit_records: List[dict] = []
    failures: List[dict] = []
    timings_by_family: Dict[str, Dict[str, List[float]]] = {}
    from_cache = 0
    total_started = time.perf_counter()

    def fail(family: FamilySpec, seed: int, exc: Exception) -> None:
        _failures_total.labels(family=family.family).inc()
        failures.append({"family": family.family, "seed": seed,
                         "error": str(exc)})
        say(f"  FAILED: {exc}")

    for index, family, seed in spec.circuits():
        label = f"{family.family}[seed={seed}]"
        say(f"[{index + 1}/{spec.total_circuits}] {label}")
        # The circuit is generated once: its content hash keys the
        # resume record, and the same CircuitInfo is run.
        try:
            info = generate(family.family, seed, size=family.effective_size)
        except Exception as exc:
            fail(family, seed, exc)
            continue
        key = None
        if store is not None:
            key = _circuit_key(spec, family, info.circuit.content_hash())
            cached = store.load_json("corpus", key)
            if cached is not None:
                circuit_records.append(cached)
                from_cache += 1
                _circuits_total.labels(family=family.family).inc()
                continue
        try:
            record, timing = _run_circuit(spec, family, seed, index, info,
                                          store=store)
        except Exception as exc:
            fail(family, seed, exc)
            continue
        circuit_records.append(record)
        if store is not None and key is not None:
            store.save_json("corpus", key, record)
        _circuits_total.labels(family=family.family).inc()
        _build_seconds.labels(family=family.family).observe(
            timing["build_seconds"])
        bucket = timings_by_family.setdefault(
            family.family, {"build_seconds": [], "posterior_seconds": []})
        bucket["build_seconds"].append(timing["build_seconds"])
        bucket["posterior_seconds"].append(timing["posterior_seconds"])

    per_family: Dict[str, dict] = {}
    for family_name in sorted({record["family"]
                               for record in circuit_records}):
        per_family[family_name] = _aggregate_family(
            [record for record in circuit_records
             if record["family"] == family_name])

    report = {
        "artifact": f"CORPUS_{spec.name}",
        "spec": spec.to_json_dict(),
        "environment": environment_info(),
        "results": {
            "total_circuits": spec.total_circuits,
            "completed": len(circuit_records),
            "failures": failures,
            "per_family": per_family,
            "circuits": circuit_records,
        },
        "timings": {
            "total_seconds": round(
                time.perf_counter() - total_started, 3),
            "from_cache": from_cache,
            "per_family": {
                family_name: {metric: _percentiles(samples)
                              for metric, samples in buckets.items()
                              if samples}
                for family_name, buckets in
                sorted(timings_by_family.items())},
        },
    }
    return report


# ----------------------------------------------------------------------
# --check validation
# ----------------------------------------------------------------------
def check_report(report: dict, artefact: str = "corpus report") -> None:
    """Validate a ``CORPUS_*.json`` report; raises ``SystemExit``.

    Checks the environment stamp, that the embedded spec round-trips,
    and the internal consistency of the deterministic results section
    (counts add up, every metric is a valid probability, class-level
    accuracy is never below component accuracy, every circuit record
    carries its content hash).
    """
    check_environment(report, artefact)
    spec_dict = report.get("spec")
    if not isinstance(spec_dict, dict):
        raise SystemExit(f"{artefact} missing an embedded spec")
    try:
        spec = CorpusSpec.from_json_dict(spec_dict)
    except CorpusError as exc:
        raise SystemExit(
            f"{artefact} embedded spec does not round-trip: {exc}")
    results = report.get("results")
    if not isinstance(results, dict):
        raise SystemExit(f"{artefact} missing results")
    circuits = results.get("circuits")
    failures = results.get("failures")
    if not isinstance(circuits, list) or not isinstance(failures, list):
        raise SystemExit(f"{artefact} results.circuits/failures malformed")
    if results.get("total_circuits") != spec.total_circuits:
        raise SystemExit(
            f"{artefact} total_circuits disagrees with the spec")
    if results.get("completed") != len(circuits):
        raise SystemExit(f"{artefact} completed count disagrees with "
                         "the circuit list")
    if len(circuits) + len(failures) != spec.total_circuits:
        raise SystemExit(
            f"{artefact} circuits+failures != total_circuits")
    if not circuits:
        raise SystemExit(f"{artefact} completed no circuits")
    for record in circuits:
        where = (f"{artefact} circuit "
                 f"{record.get('family')}[seed={record.get('seed')}]")
        if not record.get("content_hash"):
            raise SystemExit(f"{where} missing content_hash")
        metrics = [record.get("accuracy"), record.get("group_accuracy"),
                   (record.get("posterior") or {}).get("accuracy")]
        for value in metrics:
            if not isinstance(value, (int, float)) or \
                    not 0.0 <= value <= 1.0:
                raise SystemExit(f"{where} has an invalid accuracy")
        if record["group_accuracy"] < record["accuracy"]:
            raise SystemExit(f"{where} group_accuracy < accuracy")
        if not record.get("test_vector_hz"):
            raise SystemExit(f"{where} missing its test vector")
    per_family = results.get("per_family")
    if not isinstance(per_family, dict) or not per_family:
        raise SystemExit(f"{artefact} missing per_family aggregates")
    for name, family in per_family.items():
        if family["group_accuracy_mean"] < family["accuracy_mean"]:
            raise SystemExit(f"{artefact} family {name} has "
                             "group_accuracy_mean < accuracy_mean")
    timings = report.get("timings")
    if not isinstance(timings, dict) or \
            not isinstance(timings.get("total_seconds"), (int, float)):
        raise SystemExit(f"{artefact} missing timings.total_seconds")
