"""Baseline diagnosers and test-vector selectors.

The paper positions the trajectory method against two implicit
alternatives, both implemented here so the T-ACC benchmark can compare:

* :class:`NearestNeighborClassifier` -- the classical fault-dictionary
  approach: match the unknown point to the nearest *stored dictionary
  point* instead of the nearest trajectory segment. It cannot
  interpolate between grid deviations, which is exactly the weakness
  trajectories fix.
* :func:`random_test_vectors` -- test frequencies drawn at random (no
  GA), the paper's "first set of random test patterns".
* :func:`exhaustive_search` -- brute-force scan of a frequency-pair
  grid, the "frequency sweep generator" approach the paper calls
  unfeasible in practice; it bounds the achievable fitness and shows
  the GA's cost advantage.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DiagnosisError
from ..faults.dictionary import FaultDictionary
from ..faults.models import CatastrophicFault, OpAmpParamFault, \
    ParametricFault
from ..ga.encoding import FrequencySpace
from ..trajectory.mapping import SignatureMapper
from .classifier import Diagnosis

__all__ = [
    "NearestNeighborClassifier",
    "random_test_vectors",
    "exhaustive_search",
]


class NearestNeighborClassifier:
    """Classical fault-dictionary diagnosis: nearest stored point wins.

    Uses the same signature mapper as the trajectory classifier so the
    two methods see identical measurements.
    """

    def __init__(self, dictionary: FaultDictionary,
                 mapper: SignatureMapper) -> None:
        self.dictionary = dictionary
        self.mapper = mapper
        self._points = mapper.signature_matrix(dictionary)
        self._components: List[str] = []
        self._deviations: List[float] = []
        for entry in dictionary.entries:
            self._components.append(entry.fault.component)
            self._deviations.append(_fault_deviation(entry.fault))

    def classify_point(self, point: np.ndarray) -> Diagnosis:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.mapper.dimension,):
            raise DiagnosisError(
                f"point has dimension {point.shape}, mapper has "
                f"{self.mapper.dimension}")
        distances = np.linalg.norm(self._points - point[None, :], axis=1)
        winner = int(np.argmin(distances))
        ranking = self._component_ranking(distances)
        winner_component = self._components[winner]
        others = [d for c, d in ranking if c != winner_component]
        margin = float(min(others) - distances[winner]) if others \
            else float("inf")
        return Diagnosis(
            component=winner_component,
            estimated_deviation=self._deviations[winner],
            distance=float(distances[winner]),
            perpendicular=False,
            margin=margin,
            point=tuple(float(x) for x in point),
            ranking=ranking,
        )

    def classify_points(self, points: np.ndarray) -> List[Diagnosis]:
        return [self.classify_point(point) for point in points]

    def _component_ranking(self, distances: np.ndarray
                           ) -> Tuple[Tuple[str, float], ...]:
        best = {}
        for component, distance in zip(self._components, distances):
            stored = best.get(component)
            if stored is None or distance < stored:
                best[component] = float(distance)
        return tuple(sorted(best.items(), key=lambda item: item[1]))


def _fault_deviation(fault) -> float:
    if isinstance(fault, (ParametricFault, OpAmpParamFault)):
        return fault.deviation
    if isinstance(fault, CatastrophicFault):
        return float("inf") if fault.kind == "open" else float("-inf")
    return float("nan")


def random_test_vectors(space: FrequencySpace, count: int,
                        rng: Optional[np.random.Generator] = None,
                        seed: Optional[int] = None
                        ) -> List[Tuple[float, ...]]:
    """Draw ``count`` random test vectors from the search space."""
    if count < 1:
        raise DiagnosisError("count must be >= 1")
    if rng is None:
        rng = np.random.default_rng(seed)
    return [space.decode(space.random_genome(rng)) for _ in range(count)]


def exhaustive_search(space: FrequencySpace,
                      fitness: Callable[[Tuple[float, ...]], float],
                      points_per_decade: int = 10
                      ) -> Tuple[Tuple[float, ...], float, int]:
    """Brute-force the fitness over a log grid of frequency tuples.

    Returns ``(best_vector, best_fitness, evaluations)``. The number of
    combinations grows as C(grid, n): this is the cost the GA avoids.
    """
    low = np.log10(space.f_min_hz)
    high = np.log10(space.f_max_hz)
    count = max(2, int(round((high - low) * points_per_decade)) + 1)
    grid = np.logspace(low, high, count)
    best_vector: Optional[Tuple[float, ...]] = None
    best_fitness = -np.inf
    evaluations = 0
    for combo in combinations(grid, space.num_frequencies):
        value = fitness(tuple(float(f) for f in combo))
        evaluations += 1
        if value > best_fitness:
            best_fitness = value
            best_vector = tuple(float(f) for f in combo)
    if best_vector is None:
        raise DiagnosisError("exhaustive search evaluated nothing; "
                             "grid too small for the vector length")
    return best_vector, float(best_fitness), evaluations
