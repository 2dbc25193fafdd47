"""Fitness functions for test-vector quality.

The paper's fitness (Sec. 2.4)::

    fitness(fm, fn) = 1 / (1 + I)

where I is the number of trajectory intersections; the selection criteria
also penalise "common pathways", so I here is crossings + collinear
overlaps (the weight is configurable and ablated in T-ABL).

Two extensions address the paper fitness's plateau (every intersection-
free vector scores exactly 1.0, leaving the GA no gradient between them):

* :class:`MarginFitness` -- rewards the minimum inter-trajectory distance;
* :class:`CombinedFitness` -- the paper term plus a bounded margin bonus,
  which keeps the paper's ordering but breaks ties.

Every fitness memoises on the (rounded) test vector: the GA revisits the
same region constantly and trajectory construction is the dominant cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GAError
from ..faults.models import ParametricFault
from ..faults.surface import ResponseSurface
from ..trajectory.mapping import SignatureMapper, check_test_vectors
from ..trajectory.metrics import (
    TrajectoryMetrics,
    conflict_counts_batch,
    evaluate_metrics,
)
from ..trajectory.trajectory import TrajectorySet

__all__ = [
    "TrajectoryFitness",
    "PaperFitness",
    "MarginFitness",
    "CombinedFitness",
]

# Cache keys round log-frequencies to this many digits; two vectors that
# agree to 1e-9 decades are physically identical.
_CACHE_DIGITS = 9

@dataclass(frozen=True)
class _ConflictPlan:
    """Precomputed trajectory layout for population conflict counting.

    The trajectory *structure* (which dictionary rows form which
    trajectory, where the golden vertex sits, how vertices chain into
    segments) is a pure function of the dictionary and the component
    filter -- only the vertex coordinates change per candidate test
    vector. Precomputing it turns a whole population's conflict counts
    into two fancy-index gathers plus one batched orientation pass.
    """

    row_order: np.ndarray      # dictionary entry row per fault vertex
    fault_slots: np.ndarray    # vertex slot of each fault vertex
    golden_slots: np.ndarray   # vertex slot of each golden insertion
    seg_start: np.ndarray      # vertex slot of each segment start
    seg_end: np.ndarray        # vertex slot of each segment end
    owners: np.ndarray         # trajectory index per segment
    num_vertices: int


class TrajectoryFitness:
    """Base class: builds trajectories for a test vector and scores them.

    Subclasses implement :meth:`score` on the resulting metrics. Higher
    is better; values must be non-negative for roulette selection.
    Subclasses that never read the separation fields set
    ``needs_separations = False`` to skip the distance computation (the
    conflict counts alone are noticeably cheaper).
    """

    needs_separations = True

    def __init__(self, surface: ResponseSurface,
                 mapper: Optional[SignatureMapper] = None,
                 components: Optional[Tuple[str, ...]] = None) -> None:
        self.surface = surface
        # The mapper argument carries the mapping *options*; its test
        # vector is replaced per evaluation.
        self._mapper_template = mapper if mapper is not None else \
            SignatureMapper((1.0, 2.0))
        self.components = components
        self._cache: Dict[Tuple[float, ...], float] = {}
        self.evaluations = 0
        self._plan: Optional[_ConflictPlan] = None
        self._plan_built = False

    # ------------------------------------------------------------------
    def trajectories_for(self, freqs_hz: Tuple[float, ...]) -> TrajectorySet:
        mapper = self._mapper_template.with_freqs(freqs_hz)
        return TrajectorySet.from_source(self.surface, mapper,
                                         components=self.components)

    def metrics_for(self, freqs_hz: Tuple[float, ...],
                    include_separations: bool = True) -> TrajectoryMetrics:
        return evaluate_metrics(self.trajectories_for(freqs_hz),
                                include_separations=include_separations)

    def score(self, metrics: TrajectoryMetrics) -> float:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Evaluation: single vector and whole populations
    # ------------------------------------------------------------------
    @staticmethod
    def _cache_keys(freqs_hz: np.ndarray) -> List[Tuple[float, ...]]:
        """Memo keys of a ``(K, n)`` candidate array: rounded
        log-frequencies."""
        return [tuple(round(value, _CACHE_DIGITS) for value in row)
                for row in np.log10(freqs_hz).tolist()]

    def _score_vector(self, freqs_hz: Tuple[float, ...],
                      sampled_db: np.ndarray) -> float:
        """Uncached evaluation of one test vector from its presampled
        surface magnitudes (golden row first)."""
        mapper = self._mapper_template.with_freqs(freqs_hz)
        trajectories = TrajectorySet.from_source(
            self.surface, mapper, components=self.components,
            signature_matrix=mapper.signature_matrix_from_db(sampled_db),
            golden_point=mapper.golden_signature_from_db(sampled_db[0]))
        metrics = evaluate_metrics(
            trajectories, include_separations=self.needs_separations)
        value = float(self.score(metrics))
        if value < 0.0:
            raise GAError(
                f"{type(self).__name__} returned negative fitness "
                f"{value}; roulette selection requires >= 0")
        return value

    def __call__(self, freqs_hz: Tuple[float, ...]) -> float:
        """Fitness of one test vector: a one-row
        :meth:`score_population`."""
        return float(self.score_population([freqs_hz])[0])

    def score_population(self, vectors: Sequence[Tuple[float, ...]]
                         ) -> np.ndarray:
        """Fitness of a whole candidate population at once.

        ``vectors`` is a ``(K, n)`` array (or K equal-length test
        vectors). Deduplicates against the memo cache, samples the
        shared response surface *once* for every uncached candidate
        (one vectorised interpolation over the concatenated test
        vectors), then scores the uncached candidates. Conflict-count
        fitnesses over 2-D signatures (the paper configuration) are
        scored as a single array pass over the whole batch; otherwise
        candidates are scored one by one. Sampling is per-query-column
        independent, so scores are identical to calling the fitness per
        individual in any order.
        """
        freqs = np.asarray(vectors, dtype=float)
        if len(freqs) == 0:
            return np.empty(0)
        if freqs.ndim != 2:
            raise GAError(
                f"score_population needs (K, n) test vectors, got shape "
                f"{freqs.shape}")
        check_test_vectors(freqs)
        keys = self._cache_keys(freqs)
        pending: Dict[Tuple[float, ...], int] = {}
        for index, key in enumerate(keys):
            if key not in self._cache:
                pending.setdefault(key, index)
        if pending:
            values = self._score_candidates(freqs[list(pending.values())])
            for key, value in zip(pending, values):
                self._cache[key] = value
                self.evaluations += 1
        return np.array([self._cache[key] for key in keys], dtype=float)

    def _score_candidates(self, freqs: np.ndarray) -> List[float]:
        """Score uncached ``(K, n)`` candidates (one vectorised surface
        sample, then the batched or per-candidate path)."""
        count, genes = freqs.shape
        sampled = self.surface.sample_db(freqs.ravel())
        plan = self._conflict_plan() if not self.needs_separations \
            else None
        if plan is not None and genes == 2:
            return self._score_batch_conflicts(
                freqs, sampled.reshape(-1, count, genes), plan)
        return [self._score_vector(tuple(vector),
                                   sampled[:, index * genes:
                                           (index + 1) * genes])
                for index, vector in enumerate(freqs.tolist())]

    # ------------------------------------------------------------------
    # Population-level conflict counting (the paper-fitness fast path)
    # ------------------------------------------------------------------
    def _conflict_plan(self) -> Optional[_ConflictPlan]:
        """The precomputed trajectory layout, or None to fall back.

        Falling back (non-parametric-only sources, fewer than two
        trajectories, degenerate deviation grids) routes through the
        per-candidate path, which raises the exact errors the scalar
        evaluation would.
        """
        if self._plan_built:
            return self._plan
        self._plan_built = True
        dictionary = getattr(self.surface, "dictionary", None)
        if dictionary is None:
            return None
        groups: Dict[str, List[Tuple[float, int]]] = {}
        for row, entry in enumerate(dictionary.entries):
            if isinstance(entry.fault, ParametricFault):
                groups.setdefault(entry.fault.component, []).append(
                    (entry.fault.deviation, row))
        if self.components is not None:
            if set(self.components) - set(groups):
                return None
            groups = {name: groups[name] for name in self.components}
        if len(groups) < 2:
            return None
        row_order: List[int] = []
        fault_slots: List[int] = []
        golden_slots: List[int] = []
        seg_start: List[int] = []
        seg_end: List[int] = []
        owners: List[int] = []
        cursor = 0
        for index, pairs in enumerate(groups.values()):
            pairs = sorted(pairs, key=lambda item: item[0])
            deviations = [pair[0] for pair in pairs]
            if any(abs(d) < 1e-12 for d in deviations) or \
                    any(b <= a for a, b in
                        zip(deviations, deviations[1:])):
                return None
            insert_at = int(np.searchsorted(np.asarray(deviations), 0.0))
            count = len(pairs) + 1
            slots = list(range(cursor, cursor + count))
            golden_slots.append(slots[insert_at])
            fault_slots.extend(slots[:insert_at] + slots[insert_at + 1:])
            row_order.extend(pair[1] for pair in pairs)
            seg_start.extend(slots[:-1])
            seg_end.extend(slots[1:])
            owners.extend([index] * (count - 1))
            cursor += count
        self._plan = _ConflictPlan(
            row_order=np.array(row_order, dtype=int),
            fault_slots=np.array(fault_slots, dtype=int),
            golden_slots=np.array(golden_slots, dtype=int),
            seg_start=np.array(seg_start, dtype=int),
            seg_end=np.array(seg_end, dtype=int),
            owners=np.array(owners, dtype=int),
            num_vertices=cursor)
        return self._plan

    def _score_batch_conflicts(self, freqs: np.ndarray,
                               sampled: np.ndarray,
                               plan: _ConflictPlan) -> List[float]:
        """Score a 2-D candidate batch with one conflict-kernel pass.

        ``sampled`` is the ``(1 + n_faults, K, 2)`` surface block of the
        K candidates ``freqs``.
        """
        mapper = self._mapper_template
        signatures = mapper.signature_matrix_from_db(sampled)
        vertices = np.empty((len(freqs), plan.num_vertices, 2))
        vertices[:, plan.fault_slots] = \
            signatures[plan.row_order].transpose(1, 0, 2)
        vertices[:, plan.golden_slots] = \
            mapper.golden_signature_from_db(sampled[0])[:, None, :]
        intersections, overlaps = conflict_counts_batch(
            vertices[:, plan.seg_start], vertices[:, plan.seg_end],
            plan.owners)
        values = np.asarray(self.score_conflicts(intersections, overlaps),
                            dtype=float)
        if np.any(values < 0.0):
            raise GAError(
                f"{type(self).__name__} returned negative fitness "
                f"{values[np.argmax(values < 0.0)]}; roulette selection "
                f"requires >= 0")
        return values.tolist()

    def score_conflicts(self, intersections: np.ndarray,
                        overlaps: np.ndarray) -> np.ndarray:
        """Scores of per-candidate conflict counts (the population fast
        path, used when ``needs_separations`` is False).

        The default wraps each candidate's counts in a conflicts-only
        :class:`TrajectoryMetrics` and calls :meth:`score`; subclasses
        whose score is a formula of the counts override it with that
        formula over the arrays.
        """
        return np.array([self.score(TrajectoryMetrics(
            intersections=int(crossings), common_pathways=int(pathways),
            min_separation=float("nan"), mean_separation=float("nan"),
            per_pair_separation={}))
            for crossings, pathways in zip(intersections, overlaps)])

    def cache_clear(self) -> None:
        self._cache.clear()


class PaperFitness(TrajectoryFitness):
    """The paper's fitness: ``1 / (1 + I)``.

    ``I = intersections + overlap_weight * common_pathways``; with the
    default weight 1 every conflict counts once, matching the paper's
    "minimise common pathways and intersections" criterion.
    """

    needs_separations = False

    def __init__(self, surface: ResponseSurface,
                 mapper: Optional[SignatureMapper] = None,
                 components: Optional[Tuple[str, ...]] = None,
                 overlap_weight: float = 1.0) -> None:
        super().__init__(surface, mapper, components)
        if overlap_weight < 0.0:
            raise GAError("overlap_weight must be >= 0")
        self.overlap_weight = float(overlap_weight)

    def score_conflicts(self, intersections: np.ndarray,
                        overlaps: np.ndarray) -> np.ndarray:
        """``1 / (1 + I)`` of conflict counts (ints or count arrays)."""
        conflicts = intersections + self.overlap_weight * overlaps
        return 1.0 / (1.0 + conflicts)

    def score(self, metrics: TrajectoryMetrics) -> float:
        return float(self.score_conflicts(metrics.intersections,
                                          metrics.common_pathways))


class MarginFitness(TrajectoryFitness):
    """Extension: reward the minimum inter-trajectory separation.

    Bounded to [0, 1) as ``margin / (margin + margin_scale)`` so roulette
    probabilities stay sane. ``margin_scale`` is the separation (in
    signature units, dB by default) that earns fitness 0.5.
    """

    def __init__(self, surface: ResponseSurface,
                 mapper: Optional[SignatureMapper] = None,
                 components: Optional[Tuple[str, ...]] = None,
                 margin_scale: float = 1.0) -> None:
        super().__init__(surface, mapper, components)
        if margin_scale <= 0.0:
            raise GAError("margin_scale must be positive")
        self.margin_scale = float(margin_scale)

    def score(self, metrics: TrajectoryMetrics) -> float:
        margin = max(metrics.min_separation, 0.0)
        if not np.isfinite(margin):
            return 1.0
        return margin / (margin + self.margin_scale)


class CombinedFitness(PaperFitness):
    """Paper fitness with a bounded margin tie-break.

    ``fitness = 1/(1+I) + margin_weight * margin/(margin + scale)``.
    In 2-D the margin is zero whenever any pair of trajectories conflicts
    (crossing or overlap), so the bonus only differentiates conflict-free
    vectors: the paper's primary objective is preserved exactly and the
    margin breaks the tie on its 1.0 plateau.
    """

    needs_separations = True

    def __init__(self, surface: ResponseSurface,
                 mapper: Optional[SignatureMapper] = None,
                 components: Optional[Tuple[str, ...]] = None,
                 overlap_weight: float = 1.0,
                 margin_weight: float = 0.45,
                 margin_scale: float = 1.0) -> None:
        super().__init__(surface, mapper, components, overlap_weight)
        if not 0.0 < margin_weight < 1.0:
            raise GAError("margin_weight must be in (0, 1) so conflict "
                          "count stays the primary objective")
        if margin_scale <= 0.0:
            raise GAError("margin_scale must be positive")
        self.margin_weight = float(margin_weight)
        self.margin_scale = float(margin_scale)

    def score(self, metrics: TrajectoryMetrics) -> float:
        base = super().score(metrics)
        margin = max(metrics.min_separation, 0.0)
        if not np.isfinite(margin):
            bonus = 1.0
        else:
            bonus = margin / (margin + self.margin_scale)
        return base + self.margin_weight * bonus
