"""Catastrophic-fault screening and the hybrid diagnoser (extension).

The paper's flow targets parametric faults; real boards also fail hard
(opens/shorts). A hard fault throws the signature point far outside the
parametric trajectory cloud, so matching against a small dictionary of
catastrophic signatures *before* trajectory projection both catches hard
faults and protects the parametric diagnosis from nonsense extrapolation.

:class:`HybridClassifier` composes the two stages with a simple,
defensible rule: the catastrophic verdict wins when a stored hard-fault
point is closer to the observation than the best trajectory segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..errors import DiagnosisError
from ..faults.dictionary import FaultDictionary
from ..faults.models import CatastrophicFault
from ..sim.ac import FrequencyResponse
from ..trajectory.mapping import SignatureMapper
from .classifier import Diagnosis, TrajectoryClassifier

__all__ = ["CatastrophicDiagnosis", "CatastrophicScreen",
           "HybridClassifier"]


@dataclass(frozen=True)
class CatastrophicDiagnosis:
    """Verdict of the hard-fault screen."""

    component: str
    kind: str               # "open" or "short"
    distance: float
    margin: float
    point: Tuple[float, ...]

    @property
    def is_catastrophic(self) -> bool:
        return True

    def summary(self) -> str:
        return (f"catastrophic fault: {self.component} {self.kind} "
                f"(distance {self.distance:.4g}, "
                f"margin {self.margin:.4g})")


class CatastrophicScreen:
    """Nearest-point matcher over a catastrophic fault dictionary.

    The dictionary must be built from a catastrophic universe (see
    :func:`repro.faults.catastrophic_universe`) on a grid containing the
    mapper's test frequencies (an exact mini-dictionary is ideal).
    """

    def __init__(self, dictionary: FaultDictionary,
                 mapper: SignatureMapper) -> None:
        entries = [entry for entry in dictionary.entries
                   if isinstance(entry.fault, CatastrophicFault)]
        if not entries:
            raise DiagnosisError(
                "catastrophic screen needs a dictionary with "
                "catastrophic entries")
        self.mapper = mapper
        self.dictionary = dictionary
        self._faults = [entry.fault for entry in entries]
        golden = dictionary.golden if mapper.relative_to_golden else None
        self._points = np.vstack([
            mapper.signature(entry.response, golden)
            for entry in entries])

    def classify_point(self, point: np.ndarray) -> CatastrophicDiagnosis:
        """Nearest stored hard-fault signature (no thresholding here --
        the hybrid rule decides whether the match is credible)."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.mapper.dimension,):
            raise DiagnosisError(
                f"point has dimension {point.shape}, mapper has "
                f"{self.mapper.dimension}")
        distances = np.linalg.norm(self._points - point[None, :], axis=1)
        order = np.argsort(distances)
        winner = int(order[0])
        runner_up = float(distances[order[1]]) if distances.size > 1 \
            else float("inf")
        fault = self._faults[winner]
        return CatastrophicDiagnosis(
            component=fault.component,
            kind=fault.kind,
            distance=float(distances[winner]),
            margin=runner_up - float(distances[winner]),
            point=tuple(float(x) for x in point),
        )

    def distance_to_nearest(self, point: np.ndarray) -> float:
        return self.classify_point(point).distance


class HybridClassifier:
    """Hard-fault screen in front of the trajectory diagnoser.

    Classification rule: compute the nearest catastrophic signature and
    the nearest trajectory segment; whichever is closer wins. ``bias``
    scales the catastrophic distance before the comparison (> 1 makes
    the screen more conservative).
    """

    def __init__(self, screen: CatastrophicScreen,
                 trajectory_classifier: TrajectoryClassifier,
                 bias: float = 1.0) -> None:
        if bias <= 0.0:
            raise DiagnosisError("bias must be positive")
        if screen.mapper.dimension != \
                trajectory_classifier.trajectories.dimension:
            raise DiagnosisError(
                "screen and trajectory classifier use different "
                "signature dimensions")
        self.screen = screen
        self.trajectory_classifier = trajectory_classifier
        self.bias = float(bias)

    def classify_point(self, point: np.ndarray
                       ) -> Union[CatastrophicDiagnosis, Diagnosis]:
        hard = self.screen.classify_point(point)
        soft = self.trajectory_classifier.classify_point(point)
        if self.bias * hard.distance < soft.distance:
            return hard
        return soft

    def classify_points(self, points: np.ndarray
                        ) -> List[Union[CatastrophicDiagnosis, Diagnosis]]:
        return [self.classify_point(point) for point in points]

    def classify_response(self, response: FrequencyResponse
                          ) -> Union[CatastrophicDiagnosis, Diagnosis]:
        mapper = self.trajectory_classifier.trajectories.mapper
        golden = self.trajectory_classifier.golden
        if mapper.relative_to_golden and golden is None:
            raise DiagnosisError(
                "hybrid classifier needs the golden response for "
                "relative mappers")
        point = mapper.signature(
            response, golden if mapper.relative_to_golden else None)
        return self.classify_point(point)
