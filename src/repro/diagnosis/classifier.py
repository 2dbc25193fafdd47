"""The fault-trajectory diagnoser.

Section 2.3 / Fig. 3 (right): *"Given a point in the Cartesian plane due
to an unknown fault, it can be assigned to a PW segment, which would be
the segment with the highest probability to be the right one. Such
operation is done drawing perpendiculars from known fault trajectories to
the point where the unknown fault is."*

:class:`TrajectoryClassifier` implements exactly that rule:

1. project the unknown point onto every trajectory segment;
2. prefer segments onto which a perpendicular *foot* exists (the
   unclamped projection falls inside the segment) -- the paper's
   "segments from which perpendiculars exist";
3. among the preferred set, pick the smallest distance; fall back to
   endpoint distance when no perpendicular exists anywhere;
4. the winning segment's trajectory names the faulty component, and the
   foot parameter interpolates the estimated deviation.

The classifier works in any signature dimension, and classifies a whole
batch of points at once; a single point is a one-row batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import DiagnosisError
from ..sim.ac import FrequencyResponse
from ..trajectory.geometry import Segments, project_points
from ..trajectory.trajectory import TrajectoryLayout, TrajectorySet

__all__ = ["Diagnosis", "ResponseBatch", "TrajectoryClassifier"]

#: What the response-batch entry points accept: a sequence of
#: responses, or an (N, F) matrix of dB magnitudes at the test vector.
ResponseBatch = Union[np.ndarray, Sequence[FrequencyResponse]]


@dataclass(frozen=True)
class Diagnosis:
    """Outcome of classifying one unknown fault point."""

    component: str
    estimated_deviation: float
    distance: float
    perpendicular: bool
    margin: float
    point: Tuple[float, ...]
    ranking: Tuple[Tuple[str, float], ...]

    @property
    def ambiguous(self) -> bool:
        """True when the runner-up component is almost as close.

        The margin threshold is relative: a runner-up within 10 % of the
        winning distance (or within 1e-9 absolute for on-trajectory
        points) cannot be ruled out.
        """
        if len(self.ranking) < 2:
            return False
        runner_up = self.ranking[1][1]
        if not np.isfinite(runner_up):
            # The runner-up component has no candidate segment under the
            # perpendicular-foot rule: it cannot be confused with the
            # winner, however large the winning distance.
            return False
        return runner_up - self.distance <= max(0.1 * runner_up, 1e-9)

    def summary(self) -> str:
        kind = "perpendicular" if self.perpendicular else "endpoint"
        return (f"fault on {self.component} "
                f"(estimated {self.estimated_deviation * 100.0:+.1f}%), "
                f"{kind} distance {self.distance:.4g}, "
                f"margin {self.margin:.4g}")


def check_points(points: np.ndarray, dimension: int) -> np.ndarray:
    """An ``(N, dimension)`` float batch of finite signature points.

    A 1-D point is promoted to one row. Raises :class:`DiagnosisError`
    on a wrong shape, and on a non-finite coordinate (naming the first
    bad row): a NaN distance would otherwise win or lose every
    comparison silently.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[None, :]
    if points.ndim != 2 or points.shape[1] != dimension:
        raise DiagnosisError(
            f"expected an (N, {dimension}) point batch, got "
            f"shape {points.shape}")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise DiagnosisError(
            f"signature row {row} is not finite: {points[row].tolist()}")
    return points


def perpendicular_candidates(distances: np.ndarray, interior: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """The paper's candidate rule over the last (segment) axis.

    Where any segment offers an interior perpendicular foot, only those
    segments are candidates; otherwise every segment is, by endpoint
    distance. Returns ``(candidates, has_perpendicular)``: the distances
    with non-candidates at ``inf``, and the per-row flag.
    """
    has_perpendicular = np.any(interior, axis=-1)
    masked = np.where(interior, distances, np.inf)
    return (np.where(has_perpendicular[..., None], masked, distances),
            has_perpendicular)


class TrajectoryClassifier:
    """Nearest-segment classifier over a trajectory set.

    Precomputes the flat segment arrays once, then classifies whole
    ``(N, D)`` batches of signature points with one vectorised
    projection, one masked argmin per row and one gather for the
    deviation estimates. Every operation is row-independent, so a
    batch answers bitwise what one-row calls answer.
    """

    def __init__(self, trajectories: TrajectorySet,
                 golden: Optional[FrequencyResponse] = None) -> None:
        self.trajectories = trajectories
        self.golden = golden
        starts, ends, _ = trajectories.all_segments()
        self._segments = Segments.of(starts, ends)
        # Owners, deviation endpoints (vectorising
        # FaultTrajectory.interpolate_deviation) and the contiguous
        # owner groups, whose reduceat offsets give exact
        # per-trajectory distance minima.
        self._layout = TrajectoryLayout.of(trajectories)
        self._components: Tuple[str, ...] = trajectories.components

    @property
    def dimension(self) -> int:
        return self.trajectories.dimension

    # ------------------------------------------------------------------
    # Signatures
    # ------------------------------------------------------------------
    def _require_golden(self) -> FrequencyResponse:
        if self.golden is None:
            raise DiagnosisError(
                "classifier needs the golden response to map measured "
                "responses; pass golden= at construction")
        return self.golden

    def _golden_sample_db(self) -> np.ndarray:
        """Golden dB magnitudes at the mapper's test frequencies."""
        freqs = np.array(self.trajectories.mapper.test_freqs_hz)
        return np.atleast_1d(np.asarray(
            self._require_golden().magnitude_db_at(freqs)))

    def signatures_from_db(self, magnitudes_db: np.ndarray) -> np.ndarray:
        """Signature points for an (N, F) matrix of dB magnitudes.

        Each row holds the measured dB magnitudes at the mapper's test
        frequencies, in ascending-frequency order -- the wire format a
        measurement frontend produces without ever materialising
        :class:`FrequencyResponse` objects.
        """
        mapper = self.trajectories.mapper
        matrix = np.asarray(magnitudes_db, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != mapper.dimension:
            raise DiagnosisError(
                f"expected an (N, {mapper.dimension}) magnitude matrix, "
                f"got shape {matrix.shape}")
        golden_db = self._golden_sample_db() \
            if mapper.relative_to_golden else None
        return mapper.signatures_from_db(matrix, golden_db)

    def signatures(self, responses: ResponseBatch) -> np.ndarray:
        """Signature points for any accepted response batch.

        This is exactly the conversion :meth:`classify_responses`
        applies before classification; it is exposed so callers that
        coalesce several batches (the async serving front) can convert
        each batch independently, concatenate the points and classify
        once -- every operation is row-independent, so the result is
        bitwise-identical to converting per batch.
        """
        if isinstance(responses, np.ndarray):
            return self.signatures_from_db(responses)
        mapper = self.trajectories.mapper
        golden = self._require_golden() if mapper.relative_to_golden \
            else None
        return np.vstack([mapper.signature(response, golden)
                          for response in responses])

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def classify_point(self, point: np.ndarray) -> Diagnosis:
        """Diagnose a signature-space point (the paper's (*) point)."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dimension,):
            raise DiagnosisError(
                f"point has dimension {point.shape}, trajectories have "
                f"{self.dimension}")
        return self.classify_points(point[None, :])[0]

    def classify_points(self, points: np.ndarray) -> List[Diagnosis]:
        """Diagnose an (N, D) batch of signature-space points."""
        points = check_points(points, self.dimension)
        distances, t_clamped, interior = project_points(points,
                                                        self._segments)

        candidates, has_perpendicular = perpendicular_candidates(
            distances, interior)
        winners = np.argmin(candidates, axis=1)                # (N,)

        layout = self._layout
        rows = np.arange(points.shape[0])
        t_win = t_clamped[rows, winners]
        dev0 = layout.seg_dev0[winners]
        deviations = dev0 + t_win * (layout.seg_dev1[winners] - dev0)
        win_distances = distances[rows, winners]
        owners = layout.owners[winners]

        # Rank components over the *same* candidate distances the winner
        # was chosen from: exact minima over the contiguous owner groups
        # (non-candidate components rank at inf, margins stay >= 0).
        per_component = np.minimum.reduceat(
            candidates, layout.segment_offsets[:-1], axis=1)   # (N, T)
        orders = np.argsort(per_component, axis=1, kind="stable")
        names = self._components
        margins = _margins(per_component, owners, names)
        return [Diagnosis(
                    component=names[owner],
                    estimated_deviation=deviation,
                    distance=distance,
                    perpendicular=perpendicular,
                    margin=margin,
                    point=tuple(point),
                    ranking=tuple(zip([names[index] for index in order],
                                      ranked)))
                for owner, deviation, distance, perpendicular, margin,
                point, order, ranked in zip(
                    owners.tolist(), deviations.tolist(),
                    win_distances.tolist(), has_perpendicular.tolist(),
                    margins.tolist(), points.tolist(), orders.tolist(),
                    np.take_along_axis(per_component, orders,
                                       axis=1).tolist())]

    def classify_response(self, response: FrequencyResponse) -> Diagnosis:
        """Diagnose a measured/simulated response.

        Requires the classifier to have been built with the golden
        response when the mapper is golden-relative.
        """
        return self.classify_responses([response])[0]

    def classify_responses(self, responses: ResponseBatch
                           ) -> List[Diagnosis]:
        """Diagnose a batch of measured responses.

        Accepts either a sequence of :class:`FrequencyResponse` objects
        or an (N, F) matrix of dB magnitudes sampled at the mapper's
        test frequencies (see :meth:`signatures_from_db`).
        """
        return self.classify_points(self.signatures(responses))

    # ------------------------------------------------------------------
    def is_fault_free(self, point: np.ndarray,
                      threshold: float) -> bool:
        """Go/no-go test: the point is 'golden' if it sits within
        ``threshold`` of the origin (for golden-relative mappers)."""
        if not self.trajectories.mapper.relative_to_golden:
            raise DiagnosisError(
                "fault-free test requires a golden-relative mapper")
        point = np.asarray(point, dtype=float)
        return bool(np.linalg.norm(point) <= threshold)


def _margins(per_component: np.ndarray, owners: np.ndarray,
             names: Sequence[str]) -> np.ndarray:
    """Distance gap between each row's winner and its closest other
    component (infinite for a single-trajectory set).

    ``per_component`` is the ``(N, T)`` ranking distances, ``owners``
    the ``(N,)`` winning indices into the component ``names``.
    """
    n_rows, n_components = per_component.shape
    if n_components < 2:
        return np.full(n_rows, np.inf)
    rows = np.arange(n_rows)
    others = per_component.copy()
    others[rows, owners] = np.inf
    margins = others.min(axis=1) - per_component[rows, owners]
    bad = ~(margins >= 0.0)
    if bad.any():
        row = int(np.argmax(bad))
        raise DiagnosisError(
            f"negative margin {float(margins[row])!r} for winner "
            f"{names[owners[row]]!r}: ranking was not computed over the "
            "winner's candidate distances")
    return margins
