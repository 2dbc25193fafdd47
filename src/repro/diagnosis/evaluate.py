"""Diagnosis evaluation harness.

Measures how well a classifier identifies *held-out* faults: deviations
that are not in the dictionary grid (the paper's dictionary stores +/-10,
20, 30, 40 %; realistic unknown faults fall between those points, which is
precisely what trajectories interpolate). Optional measurement noise and
component-tolerance Monte Carlo stress the method the way a bench
measurement would.

Also provides :func:`isolability_classes`: components whose faults give
the same response at every dictionary frequency have coincident
trajectories, which no test vector can split -- the honest unit of
accuracy for circuits with structural degeneracies (the ideal-op-amp
Tow-Thomas CUT has two: {R3,R5} and {R4,C2}).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Protocol, Sequence, \
    Tuple

import numpy as np

from ..circuits.library import CircuitInfo
from ..errors import DiagnosisError
from ..faults.dictionary import FaultDictionary
from ..faults.models import ParametricFault
from ..sim.engine import BatchedMnaEngine, SimulationEngine, VariantTable
from ..trajectory.mapping import SignatureMapper
from .classifier import Diagnosis

__all__ = [
    "DiagnosisCase",
    "CaseResult",
    "EvaluationResult",
    "PointClassifier",
    "make_test_cases",
    "evaluate_classifier",
    "isolability_classes",
    "HELD_OUT_DEVIATIONS",
]

# Default held-out deviations: between the dictionary's 10%-grid points.
HELD_OUT_DEVIATIONS = (-0.35, -0.25, -0.15, 0.15, 0.25, 0.35)


class PointClassifier(Protocol):
    """Anything that can diagnose an (N, D) batch of signature points."""

    def classify_points(self, points: np.ndarray) -> List[Diagnosis]: ...


@dataclass(frozen=True)
class DiagnosisCase:
    """One unknown fault presented to a classifier."""

    true_component: str
    true_deviation: float
    point: np.ndarray


@dataclass(frozen=True)
class CaseResult:
    """A test case together with the classifier's verdict."""

    case: DiagnosisCase
    diagnosis: Diagnosis

    @property
    def correct(self) -> bool:
        return self.diagnosis.component == self.case.true_component

    @property
    def deviation_error(self) -> float:
        return (self.diagnosis.estimated_deviation -
                self.case.true_deviation)


@dataclass
class EvaluationResult:
    """Aggregated diagnosis quality over a case set."""

    results: List[CaseResult]
    groups: Tuple[FrozenSet[str], ...] = ()

    # ------------------------------------------------------------------
    @property
    def num_cases(self) -> int:
        return len(self.results)

    @property
    def accuracy(self) -> float:
        """Fraction of cases whose exact component was identified."""
        if not self.results:
            raise DiagnosisError("no cases evaluated")
        return sum(r.correct for r in self.results) / len(self.results)

    @property
    def group_accuracy(self) -> float:
        """Accuracy at isolability-class granularity.

        A verdict inside the true component's isolability class counts
        as correct -- the finest resolution any test vector permits.
        """
        if not self.results:
            raise DiagnosisError("no cases evaluated")
        lookup: Dict[str, FrozenSet[str]] = {}
        for group in self.groups:
            for member in group:
                lookup[member] = group
        correct = 0
        for result in self.results:
            true = result.case.true_component
            predicted = result.diagnosis.component
            group = lookup.get(true, frozenset((true,)))
            correct += predicted in group
        return correct / len(self.results)

    def per_component_accuracy(self) -> Dict[str, float]:
        totals: Dict[str, int] = {}
        hits: Dict[str, int] = {}
        for result in self.results:
            name = result.case.true_component
            totals[name] = totals.get(name, 0) + 1
            hits[name] = hits.get(name, 0) + int(result.correct)
        return {name: hits[name] / totals[name] for name in totals}

    def confusion(self) -> Dict[Tuple[str, str], int]:
        """(true, predicted) -> count."""
        table: Dict[Tuple[str, str], int] = {}
        for result in self.results:
            key = (result.case.true_component,
                   result.diagnosis.component)
            table[key] = table.get(key, 0) + 1
        return table

    def deviation_mae(self) -> float:
        """Mean absolute deviation-estimation error on correct cases."""
        errors = [abs(r.deviation_error) for r in self.results
                  if r.correct]
        if not errors:
            return float("nan")
        return float(np.mean(errors))

    def deviation_rmse(self) -> float:
        errors = [r.deviation_error for r in self.results if r.correct]
        if not errors:
            return float("nan")
        return float(np.sqrt(np.mean(np.square(errors))))

    def summary(self) -> str:
        lines = [
            f"cases: {self.num_cases}",
            f"component accuracy: {self.accuracy * 100.0:.1f}%",
        ]
        if self.groups:
            groups = ", ".join("{" + ",".join(sorted(g)) + "}"
                               for g in self.groups if len(g) > 1)
            lines.append(
                f"group accuracy:     {self.group_accuracy * 100.0:.1f}% "
                f"(isolability classes: {groups or 'none'})")
        lines.append(
            f"deviation MAE (correct cases): "
            f"{self.deviation_mae() * 100.0:.2f} pp")
        for name, value in sorted(self.per_component_accuracy().items()):
            lines.append(f"  {name:<6} {value * 100.0:6.1f}%")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------
def make_test_cases(info: CircuitInfo, mapper: SignatureMapper,
                    components: Optional[Sequence[str]] = None,
                    deviations: Sequence[float] = HELD_OUT_DEVIATIONS,
                    noise_db: float = 0.0,
                    tolerance: float = 0.0,
                    repeats: int = 1,
                    rng: Optional[np.random.Generator] = None,
                    seed: Optional[int] = None,
                    engine: Optional[SimulationEngine] = None
                    ) -> List[DiagnosisCase]:
    """Simulate unknown-fault measurements for a circuit.

    For every (component, held-out deviation) pair the faulty circuit is
    solved exactly at the mapper's test frequencies. ``noise_db`` adds
    Gaussian measurement noise to each signature coordinate (dB scale);
    ``tolerance`` perturbs every *other* passive uniformly within
    +/-tolerance (manufacturing spread); ``repeats`` draws that many
    noisy/toleranced instances per pair.

    The whole case set is one simulation-engine variant table (golden
    first), so the circuit is stamped once and every case solved
    batched; ``engine`` optionally injects an already-stamped engine
    (the pipeline result's). Random draws happen per case in the same
    order the scalar loop used, so results for a given seed are
    unchanged; the signatures are mapped for the whole block at once.
    """
    if noise_db < 0.0 or tolerance < 0.0:
        raise DiagnosisError("noise_db and tolerance must be >= 0")
    if repeats < 1:
        raise DiagnosisError("repeats must be >= 1")
    if (noise_db > 0.0 or tolerance > 0.0) and rng is None:
        rng = np.random.default_rng(seed)
    if engine is None:
        engine = BatchedMnaEngine(info.circuit)
    elif engine.circuit is not info.circuit:
        raise DiagnosisError(
            f"engine was built for circuit {engine.circuit.name!r}, "
            f"cases target {info.circuit.name!r}")

    targets = tuple(components) if components else info.faultable
    freqs = np.array(sorted(mapper.test_freqs_hz))
    circuit = info.circuit

    # The golden row plus one row per (target, deviation) fault, over
    # a column per target and, under tolerance, per faultable component
    # (the fault model also rejects non-passive targets).
    faults = [ParametricFault(name, float(deviation))
              for name in targets for deviation in deviations]
    spread_names = tuple(info.faultable) if tolerance > 0.0 else ()
    table = VariantTable.of_faults(circuit, faults).with_columns(
        circuit, [(name, "value") for name in targets + spread_names])
    column = {name: index for index, (name, _) in enumerate(table.columns)}
    nominal = table.values[0]
    rows: List[np.ndarray] = [nominal]
    labels: List[str] = [circuit.name]
    truth: List[Tuple[str, float]] = []
    noises: List[np.ndarray] = []
    for index, fault in enumerate(faults, start=1):
        others = np.array([column[other] for other in spread_names
                           if other != fault.component], dtype=int)
        for _ in range(repeats):
            row = table.values[index].copy()
            if tolerance > 0.0:
                # One uniform per other faultable component, in
                # faultable order, then the noise draw.
                spread = rng.uniform(-tolerance, tolerance,
                                     size=others.size)
                row[others] = nominal[others] * (1.0 + spread)
            if noise_db > 0.0:
                noises.append(rng.normal(0.0, noise_db,
                                         size=mapper.dimension))
            rows.append(row)
            labels.append(table.labels[index])
            truth.append((fault.component, fault.deviation))
    if not truth:
        raise DiagnosisError("no test cases generated")

    variants = VariantTable(table.columns, np.array(rows), tuple(labels))
    block = engine.transfer_block(info.output_node, freqs, variants,
                                  info.input_source)
    # The block's columns are the sorted test vector; the mapper's
    # coordinates follow its own order.
    sampled = block.magnitude_db()[:, np.searchsorted(
        freqs, mapper.test_freqs_hz)]
    points = mapper.signatures_from_db(sampled[1:], sampled[0])
    if noises:
        points = points + np.array(noises)
    return [DiagnosisCase(name, deviation, point)
            for (name, deviation), point in zip(truth, points)]


def evaluate_classifier(classifier: PointClassifier,
                        cases: Sequence[DiagnosisCase],
                        groups: Tuple[FrozenSet[str], ...] = ()
                        ) -> EvaluationResult:
    """Run every case through the classifier and aggregate.

    The whole case suite is one ``(N, D)`` :meth:`classify_points` call.
    """
    if not cases:
        raise DiagnosisError("no cases to evaluate")
    points = np.vstack([case.point for case in cases])
    results = [CaseResult(case, diagnosis) for case, diagnosis in
               zip(cases, classifier.classify_points(points))]
    return EvaluationResult(results, groups)


# ----------------------------------------------------------------------
# Isolability analysis
# ----------------------------------------------------------------------
#: Largest |dB| gap at which two dictionary rows are the same response
#: (coincident pairs differ by < 1e-10 dB, separable ones by > 0.01 dB).
_COINCIDENT_DB = 1e-6


def isolability_classes(dictionary: FaultDictionary
                        ) -> Tuple[FrozenSet[str], ...]:
    """Components no test vector can split, as classes sorted by name.

    Two components merge (transitively) when they carry the same fault
    shapes (deviations, modes) and their dB rows agree within
    ``_COINCIDENT_DB`` everywhere: their trajectories then coincide at
    any frequencies. Every component is covered; singletons are isolable.
    """
    rows: Dict[str, Dict[str, np.ndarray]] = {}
    for entry, row in zip(dictionary.entries,
                          dictionary.response_matrix_db()[1:]):
        shape = replace(entry.fault, component="").label
        rows.setdefault(entry.fault.component, {})[shape] = row
    shapes = {name: sorted(by_shape) for name, by_shape in rows.items()}
    stacked = {name: np.array([rows[name][shape]
                               for shape in shapes[name]])
               for name in rows}
    names = list(rows)
    classes = {name: {name} for name in names}
    for index, a in enumerate(names):
        for b in names[index + 1:]:
            if shapes[a] == shapes[b] and classes[a] is not classes[b] \
                    and np.max(np.abs(stacked[a] - stacked[b])) \
                    <= _COINCIDENT_DB:
                merged = classes[a] | classes[b]
                for member in merged:
                    classes[member] = merged
    unique = {id(members): frozenset(members)
              for members in classes.values()}
    return tuple(sorted(unique.values(), key=lambda g: sorted(g)[0]))
