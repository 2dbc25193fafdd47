"""Declarative scenario corpus: circuit families x fault universes x
pipeline settings, run end-to-end at fleet scale.

``CorpusSpec`` (see :mod:`repro.corpus.spec`) declares which generated
circuit families to enumerate and the full pipeline / posterior
configuration every circuit runs under; :func:`repro.corpus.runner.
run_corpus` executes the matrix (dictionary build, GA test selection,
hard classification and posterior diagnosis per circuit) and emits the
machine-readable ``CORPUS_*.json`` accuracy/latency/isolability artifact
the ``repro-corpus`` CLI writes and ``--check`` validates.
"""

from .spec import CorpusSpec, FamilySpec
from .runner import (check_report, environment_info, check_environment,
                     run_corpus)

__all__ = [
    "CorpusSpec",
    "FamilySpec",
    "run_corpus",
    "check_report",
    "environment_info",
    "check_environment",
]
