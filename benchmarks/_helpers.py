"""Shared evaluation helpers for the benchmark harness."""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.circuits import CircuitInfo
from repro.diagnosis import (
    TrajectoryClassifier,
    evaluate_classifier,
    isolability_classes,
    make_test_cases,
)
from repro.faults import FaultDictionary, FaultUniverse
from repro.trajectory import SignatureMapper, TrajectorySet, \
    evaluate_metrics

HELD_OUT = (-0.35, -0.25, -0.15, 0.15, 0.25, 0.35)

# One fixed seed makes every benchmark artefact reproducible run-to-run.
SEED = 2005  # the paper's publication year


# The single implementation lives in the corpus runner; BENCH_* and
# CORPUS_* artifacts share one environment-stamp format and validator.
from repro.corpus.runner import check_environment, \
    environment_info  # noqa: E402,F401


def write_report(out_dir: Path, name: str, text: str) -> None:
    """Persist an experiment's human-readable report and echo it."""
    (out_dir / name).write_text(text + "\n")
    print(text)


# Re-exported so every bench keeps one import root for its helpers;
# the single implementation lives in the package (the test suites use
# the same one).
from repro.runtime.testing import noisy_golden_rows  # noqa: E402,F401


def build_exact_classifier(info: CircuitInfo, universe: FaultUniverse,
                           freqs: Tuple[float, ...],
                           scale: str = "db"):
    """Trajectories + classifier simulated exactly at a test vector,
    with the isolability classes of that exact dictionary."""
    mapper = SignatureMapper(freqs, scale=scale)
    exact = FaultDictionary.build(universe, info.output_node,
                                  np.array(sorted(freqs), dtype=float),
                                  input_source=info.input_source)
    trajectories = TrajectorySet.from_source(exact, mapper)
    classifier = TrajectoryClassifier(trajectories, golden=exact.golden)
    groups = isolability_classes(exact)
    metrics = evaluate_metrics(trajectories)
    return mapper, classifier, groups, metrics


def score_test_vector(info: CircuitInfo, universe: FaultUniverse,
                      freqs: Tuple[float, ...],
                      noise_db: float = 0.0,
                      repeats: int = 1,
                      seed: Optional[int] = 0,
                      deviations: Sequence[float] = HELD_OUT,
                      classifier=None,
                      mapper=None,
                      groups=None,
                      scale: str = "db"):
    """Evaluate one test vector on held-out faults.

    Returns an EvaluationResult; pass a prebuilt classifier to score a
    non-trajectory diagnoser (e.g. the dictionary-NN baseline) under
    identical measurement conditions.
    """
    if classifier is None or mapper is None:
        mapper, classifier, derived_groups, _ = build_exact_classifier(
            info, universe, freqs, scale=scale)
        if groups is None:
            groups = derived_groups
    cases = make_test_cases(info, mapper,
                            components=universe.components,
                            deviations=deviations, noise_db=noise_db,
                            repeats=repeats, seed=seed)
    return evaluate_classifier(classifier, cases, groups=groups or ())
