"""The end-to-end fault-trajectory ATPG pipeline.

Chains every stage of the paper's method:

1. fault universe (parametric grid on the faultable components);
2. fault simulation -> fault dictionary on a dense AC grid;
3. response surface (fast signature interpolation);
4. GA search for the optimal test vector (fitness per configuration);
5. final trajectory set + perpendicular classifier + isolability classes.

``FaultTrajectoryATPG(info).run(seed=...)`` returns an
:class:`ATPGResult` that can diagnose unknown responses/points and
evaluate itself on held-out faults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, FrozenSet, List, Optional, Sequence,
                    Tuple)

import numpy as np

if TYPE_CHECKING:  # avoid a core <-> runtime import cycle
    from ..runtime.store import ArtifactStore

from ..circuits.library import CircuitInfo
from ..diagnosis.classifier import Diagnosis, TrajectoryClassifier
from ..diagnosis.evaluate import (
    EvaluationResult,
    HELD_OUT_DEVIATIONS,
    evaluate_classifier,
    isolability_classes,
    make_test_cases,
)
from ..errors import ReproError
from ..faults.dictionary import FaultDictionary
from ..faults.surface import ResponseSurface
from ..faults.universe import FaultUniverse, parametric_universe
from ..ga.encoding import FrequencySpace
from ..ga.engine import GAResult, GeneticAlgorithm
from ..ga.fitness import (
    CombinedFitness,
    MarginFitness,
    PaperFitness,
    TrajectoryFitness,
)
from ..sim.ac import FrequencyResponse
from ..sim.engine import FactoredMnaEngine, SimulationEngine
from ..tracing import TRACER
from ..trajectory.mapping import SignatureMapper
from ..trajectory.metrics import TrajectoryMetrics, evaluate_metrics
from ..trajectory.trajectory import TrajectorySet
from ..units import log_frequency_grid
from .config import PipelineConfig

__all__ = ["FaultTrajectoryATPG", "ATPGResult"]


@dataclass
class ATPGResult:
    """Everything the pipeline produced, ready for diagnosis."""

    info: CircuitInfo
    config: PipelineConfig
    universe: FaultUniverse
    dictionary: FaultDictionary
    ga_result: GAResult
    test_vector_hz: Tuple[float, ...]
    mapper: SignatureMapper
    trajectories: TrajectorySet
    classifier: TrajectoryClassifier
    metrics: TrajectoryMetrics
    groups: Tuple[FrozenSet[str], ...]
    elapsed_seconds: float
    #: Which artifacts a ``store=`` run loaded instead of recomputing
    #: (subset of {"dictionary", "ga", "exact"}).
    cache_hits: Tuple[str, ...] = ()
    #: The simulation engine the pipeline ran on (already stamped for
    #: this circuit); :meth:`evaluate` reuses it for case generation.
    engine: Optional[SimulationEngine] = None

    # ------------------------------------------------------------------
    @property
    def surface(self) -> ResponseSurface:
        """Response surface over the dense dictionary, built lazily.

        A store-warmed run never evaluates fitness, so the surface's
        magnitude matrix is only materialised when actually queried.
        """
        cached = getattr(self, "_surface_cache", None)
        if cached is None:
            cached = ResponseSurface(self.dictionary)
            self._surface_cache = cached
        return cached

    def diagnose_point(self, point: np.ndarray) -> Diagnosis:
        """Diagnose a signature-space point."""
        return self.classifier.classify_point(point)

    def diagnose_response(self, response: FrequencyResponse) -> Diagnosis:
        """Diagnose a measured magnitude response."""
        return self.classifier.classify_response(response)

    def batch_diagnoser(self) -> TrajectoryClassifier:
        """The classifier, which classifies whole batches itself."""
        return self.classifier

    def diagnose_many(self, responses) -> List[Diagnosis]:
        """Diagnose a batch of measured responses at once.

        Accepts a sequence of :class:`FrequencyResponse` objects or an
        (N, F) matrix of dB magnitudes sampled at the test vector (in
        ascending-frequency order). Diagnoses are bitwise-identical to
        calling :meth:`diagnose_response` per response, but the
        projection runs as one vectorised NumPy operation.
        """
        return self.classifier.classify_responses(responses)

    def diagnose_points(self, points: np.ndarray) -> List[Diagnosis]:
        """Batch version of :meth:`diagnose_point` ((N, D) array)."""
        return self.classifier.classify_points(points)

    def evaluate(self, deviations: Sequence[float] = HELD_OUT_DEVIATIONS,
                 noise_db: float = 0.0, tolerance: float = 0.0,
                 repeats: int = 1,
                 seed: Optional[int] = None) -> EvaluationResult:
        """Score the pipeline on held-out deviations (see evaluate.py)."""
        cases = make_test_cases(
            self.info, self.mapper,
            components=self.universe.components,
            deviations=deviations, noise_db=noise_db,
            tolerance=tolerance, repeats=repeats, seed=seed,
            engine=self.engine)
        return evaluate_classifier(self.classifier, cases,
                                   groups=self.groups)

    def report(self) -> str:
        """Human-readable run summary."""
        freqs = ", ".join(f"{f:,.4g} Hz" for f in self.test_vector_hz)
        groups = ", ".join("{" + ",".join(sorted(g)) + "}"
                           for g in self.groups if len(g) > 1)
        lines = [
            f"circuit: {self.info.circuit.name} "
            f"({len(self.universe.components)} fault targets, "
            f"{len(self.universe)} dictionary faults)",
            f"test vector: [{freqs}]",
            f"GA fitness: {self.ga_result.best_fitness:.4f} "
            f"({self.ga_result.generations_run} generations, "
            f"{self.ga_result.evaluations} evaluations)",
            f"trajectory conflicts: {self.metrics.intersections} "
            f"crossings, {self.metrics.common_pathways} overlaps",
            f"min separation: {self.metrics.min_separation:.4g}",
            f"isolability classes: {groups or 'none'}",
            f"pipeline time: {self.elapsed_seconds:.2f}s",
        ]
        return "\n".join(lines)


class FaultTrajectoryATPG:
    """Orchestrates the full paper flow for one circuit."""

    def __init__(self, info: CircuitInfo,
                 config: Optional[PipelineConfig] = None,
                 components: Optional[Sequence[str]] = None) -> None:
        self.info = info
        self.config = config or PipelineConfig.paper()
        self.components = tuple(components) if components \
            else tuple(info.faultable)
        if not self.components:
            raise ReproError(
                f"{info.circuit.name}: no faultable components")
        # One engine for the whole pipeline: the nominal circuit is
        # stamped once here and reused by the dense dictionary, the
        # exact test-vector dictionary and held-out case generation.
        self.engine = FactoredMnaEngine(info.circuit)

    # ------------------------------------------------------------------
    def _simulate_dictionary(self, universe: FaultUniverse,
                             freqs_hz: np.ndarray) -> FaultDictionary:
        """Fault-simulate ``universe`` on the pipeline's engine."""
        return FaultDictionary.build(
            universe, self.info.output_node, freqs_hz,
            input_source=self.info.input_source,
            engine=self.engine)

    def _stage_inputs(self) -> Tuple[FaultUniverse, np.ndarray]:
        """Stage 1: the fault universe and the dense dictionary grid."""
        universe = parametric_universe(
            self.info.circuit, components=self.components,
            deviations=self.config.deviations)
        grid = log_frequency_grid(self.info.f_min_hz, self.info.f_max_hz,
                                  self.config.dictionary_points)
        return universe, grid

    def build_dictionary(self) -> Tuple[FaultUniverse, FaultDictionary]:
        """Stages 1-2: fault universe + fault simulation."""
        universe, grid = self._stage_inputs()
        dictionary = self._simulate_dictionary(universe, grid)
        return universe, dictionary

    def make_fitness(self, surface: ResponseSurface) -> TrajectoryFitness:
        """Stage 4a: the configured fitness function."""
        # The template's frequencies are placeholders: the fitness swaps
        # in each candidate test vector via mapper.with_freqs().
        placeholder = tuple(float(i + 1)
                            for i in range(self.config.num_frequencies))
        mapper_template = SignatureMapper(
            placeholder, scale=self.config.signature_scale,
            relative_to_golden=self.config.relative_to_golden)
        kind = self.config.fitness
        if kind == "paper":
            return PaperFitness(surface, mapper_template,
                                overlap_weight=self.config.overlap_weight)
        if kind == "margin":
            return MarginFitness(surface, mapper_template,
                                 margin_scale=self.config.margin_scale)
        return CombinedFitness(
            surface, mapper_template,
            overlap_weight=self.config.overlap_weight,
            margin_weight=self.config.margin_weight,
            margin_scale=self.config.margin_scale)

    def run(self, seed: Optional[int] = None,
            store: Optional["ArtifactStore"] = None) -> ATPGResult:
        """Execute the full pipeline.

        With ``store=`` (an :class:`repro.runtime.store.ArtifactStore`
        or a store-root path) every expensive artifact -- the dense
        dictionary, the per-seed GA result and the exact test-vector
        dictionary -- is looked up by content key first and persisted
        after computation, so a repeat run of the same problem skips
        fault simulation and the GA search entirely.
        """
        if store is not None:
            from ..runtime.store import as_store
            store = as_store(store)
        started = time.perf_counter()
        universe, grid = self._stage_inputs()
        cache_hits: List[str] = []
        # Each artifact is keyed on only the inputs it depends on (see
        # repro.runtime.store): sweeping a GA knob reuses the cached
        # dictionary, and any config landing on the same test vector
        # shares the exact dictionary.
        # The factored engine's low-rank solves differ from the dense
        # ones in the last bits, so its artifacts keep a slot of their
        # own: a root written by a dense-engine build misses and is
        # recomputed, never served last-bit-different.
        base_key = store.derive_key(
            store.problem_key(self.info, universe), "engine", "factored") \
            if store else None
        dict_key = store.derive_key(
            base_key, "dense", [float(f) for f in grid]) if store else None

        dictionary = store.load_dictionary("dictionary", dict_key) \
            if store else None
        if dictionary is not None:
            cache_hits.append("dictionary")
        else:
            with TRACER.span("pipeline.dictionary",
                             circuit=self.info.circuit.name,
                             faults=len(universe), points=int(grid.size)):
                dictionary = self._simulate_dictionary(universe, grid)
            if store:
                store.save_dictionary("dictionary", dict_key, dictionary)

        # An unseeded GA run is an independent random search by
        # contract, so it must never be served from (or poison) the
        # cache -- only seeded searches are memoisable.
        ga_key = store.ga_search_key(dict_key, self.info, self.config,
                                     seed) if store and seed is not None \
            else None
        ga_result = store.load_ga_result(ga_key) if ga_key else None
        surface: Optional[ResponseSurface] = None
        if ga_result is not None:
            cache_hits.append("ga")
        else:
            space = FrequencySpace(self.info.f_min_hz, self.info.f_max_hz,
                                   self.config.num_frequencies)
            surface = ResponseSurface(dictionary)
            fitness = self.make_fitness(surface)
            ga = GeneticAlgorithm(space, fitness, self.config.ga)
            with TRACER.span("pipeline.ga_search",
                             circuit=self.info.circuit.name):
                ga_result = ga.run(seed=seed)
            if ga_key:
                store.save_ga_result(ga_key, ga_result)
        test_vector = ga_result.best_freqs_hz

        mapper = SignatureMapper(
            test_vector, scale=self.config.signature_scale,
            relative_to_golden=self.config.relative_to_golden)
        # Final artefacts are re-simulated *exactly at the test vector*:
        # a mini-dictionary whose grid is the test frequencies themselves.
        # Interpolating the dense-grid dictionary instead would inject a
        # few-mdB error -- larger than the separation of near-degenerate
        # trajectory pairs (R3/R5, R4/C2 on the biquad CUT).
        exact_key = store.derive_key(
            base_key, "exact", sorted(float(f) for f in test_vector)) \
            if store else None
        exact = store.load_dictionary("exact", exact_key) if store else None
        if exact is not None:
            cache_hits.append("exact")
        else:
            with TRACER.span("pipeline.exact",
                             circuit=self.info.circuit.name):
                exact = self._simulate_dictionary(
                    universe, np.array(sorted(test_vector), dtype=float))
            if store:
                store.save_dictionary("exact", exact_key, exact)
        with TRACER.span("pipeline.trajectories",
                         circuit=self.info.circuit.name):
            trajectories = TrajectorySet.from_source(exact, mapper)
        metrics = evaluate_metrics(trajectories)
        groups = isolability_classes(dictionary)
        classifier = TrajectoryClassifier(trajectories,
                                          golden=exact.golden)
        elapsed = time.perf_counter() - started
        result = ATPGResult(
            info=self.info,
            config=self.config,
            universe=universe,
            dictionary=dictionary,
            ga_result=ga_result,
            test_vector_hz=test_vector,
            mapper=mapper,
            trajectories=trajectories,
            classifier=classifier,
            metrics=metrics,
            groups=groups,
            elapsed_seconds=elapsed,
            cache_hits=tuple(cache_hits),
            engine=self.engine,
        )
        if surface is not None:     # reuse the fitness's surface
            result._surface_cache = surface
        return result
