"""Fault diagnosis: trajectory classifier, baselines, evaluation."""

from .baselines import (
    NearestNeighborClassifier,
    exhaustive_search,
    random_test_vectors,
)
from .catastrophic import (
    CatastrophicDiagnosis,
    CatastrophicScreen,
    HybridClassifier,
)
from .classifier import Diagnosis, TrajectoryClassifier
from .posterior import (
    FAULT_FREE_LABEL,
    PosteriorConfig,
    PosteriorDiagnoser,
    PosteriorDiagnosis,
)
from .evaluate import (
    CaseResult,
    EvaluationResult,
    HELD_OUT_DEVIATIONS,
    DiagnosisCase,
    evaluate_classifier,
    isolability_classes,
    make_test_cases,
)

__all__ = [
    "Diagnosis",
    "TrajectoryClassifier",
    "FAULT_FREE_LABEL",
    "PosteriorConfig",
    "PosteriorDiagnoser",
    "PosteriorDiagnosis",
    "CatastrophicDiagnosis",
    "CatastrophicScreen",
    "HybridClassifier",
    "NearestNeighborClassifier",
    "random_test_vectors",
    "exhaustive_search",
    "DiagnosisCase",
    "CaseResult",
    "EvaluationResult",
    "HELD_OUT_DEVIATIONS",
    "make_test_cases",
    "evaluate_classifier",
    "isolability_classes",
]
