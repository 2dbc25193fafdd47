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

Every fitness scores a whole population as arrays, in any signature
dimension: the trajectory structure is one
:class:`~repro.trajectory.trajectory.TrajectoryLayout` built once per
fitness, so a generation is one surface sample, one ``(K, V, D)`` vertex
gather and one metric pass (the 2-D conflict kernel, the batched
vertex-to-segment separations) scored by one array formula. Every
fitness memoises on the (rounded) test vector, since the GA revisits the
same region constantly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GAError
from ..faults.surface import ResponseSurface
from ..trajectory.mapping import SignatureMapper, check_test_vectors
from ..trajectory.metrics import (
    TrajectoryMetrics,
    _metric_arrays,
    evaluate_metrics,
)
from ..trajectory.trajectory import TrajectoryLayout, TrajectorySet

__all__ = [
    "TrajectoryFitness",
    "PaperFitness",
    "MarginFitness",
    "CombinedFitness",
]

# Cache keys round log-frequencies to this many digits; two vectors that
# agree to 1e-9 decades are physically identical.
_CACHE_DIGITS = 9


class TrajectoryFitness:
    """Base class: scores the trajectories of candidate test vectors.

    Subclasses implement :meth:`_score_arrays`, the fitness of
    per-candidate metric arrays. Higher is better; values must be
    non-negative for roulette selection. Subclasses that never read the
    separations set ``needs_separations = False`` to skip the distance
    computation (the conflict counts alone are noticeably cheaper).
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
        self._layout: Optional[TrajectoryLayout] = None

    # ------------------------------------------------------------------
    def trajectories_for(self, freqs_hz: Tuple[float, ...]) -> TrajectorySet:
        mapper = self._mapper_template.with_freqs(freqs_hz)
        return TrajectorySet.from_source(self.surface, mapper,
                                         components=self.components)

    def metrics_for(self, freqs_hz: Tuple[float, ...],
                    include_separations: bool = True) -> TrajectoryMetrics:
        return evaluate_metrics(self.trajectories_for(freqs_hz),
                                include_separations=include_separations)

    def _score_arrays(self, intersections: np.ndarray,
                      overlaps: np.ndarray,
                      min_separation: np.ndarray) -> np.ndarray:
        """Fitness of ``(K,)`` conflict counts and minimum separations
        (``nan`` when not computed)."""
        raise NotImplementedError

    def score(self, metrics: TrajectoryMetrics) -> float:
        """Fitness of one configuration's metrics (a one-row
        :meth:`_score_arrays`)."""
        return float(self._score_arrays(
            np.array([metrics.intersections]),
            np.array([metrics.common_pathways]),
            np.array([metrics.min_separation]))[0])

    # ------------------------------------------------------------------
    # Evaluation: single vector and whole populations
    # ------------------------------------------------------------------
    @staticmethod
    def _cache_keys(freqs_hz: np.ndarray) -> List[Tuple[float, ...]]:
        """Memo keys of a ``(K, n)`` candidate array: log-frequencies,
        each equal to Python's ``round(value, _CACHE_DIGITS)``.

        ``np.round`` scales by ``10**_CACHE_DIGITS``, rounds to an
        integer and divides back, so it returns ``round``'s correctly
        rounded value whenever the scaled value (exact to 2e-6 below
        ``2**36``) is not within ``1e-5`` of a half; only those near
        ties, and larger values, go through ``round`` itself.
        """
        logs = np.log10(freqs_hz)
        keys = np.round(logs, _CACHE_DIGITS)
        scaled = logs * 10.0 ** _CACHE_DIGITS
        for index in zip(*np.nonzero(
                ~(np.abs(scaled - np.floor(scaled) - 0.5) >= 1e-5) |
                ~(np.abs(scaled) < 2.0 ** 36))):
            keys[index] = round(float(logs[index]), _CACHE_DIGITS)
        return list(map(tuple, keys.tolist()))

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
        vectors), then scores the uncached candidates as arrays in one
        pass. Sampling is per-query-column independent and every metric
        is per-candidate, so scores are identical to calling the fitness
        per individual in any order.
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
            for key, value in zip(pending, values.tolist()):
                self._cache[key] = value
                self.evaluations += 1
        return np.array([self._cache[key] for key in keys], dtype=float)

    def _score_candidates(self, freqs: np.ndarray) -> np.ndarray:
        """Score uncached ``(K, n)`` candidates: one vectorised surface
        sample, one vertex gather through the layout, one metric pass.

        The layout is built on first use and raises the
        :class:`~repro.errors.TrajectoryError` that
        :meth:`TrajectorySet.from_source` raises on the same source.
        """
        count, genes = freqs.shape
        sampled = self.surface.sample_db(freqs.ravel()).reshape(
            -1, count, genes)
        if self._layout is None:
            self._layout = TrajectoryLayout.from_faults(
                [entry.fault for entry in self.surface.dictionary.entries],
                self.components)
        mapper = self._mapper_template
        vertices = self._layout.vertices(
            mapper.signature_matrix_from_db(sampled),
            mapper.golden_signature_from_db(sampled[0]))    # (V, K, D)
        intersections, overlaps, _, minimum = _metric_arrays(
            vertices.transpose(1, 0, 2), self._layout,
            self.needs_separations)
        values = np.asarray(
            self._score_arrays(intersections, overlaps, minimum),
            dtype=float)
        if np.any(values < 0.0):
            raise GAError(
                f"{type(self).__name__} returned negative fitness "
                f"{values[np.argmax(values < 0.0)]}; roulette selection "
                f"requires >= 0")
        return values

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

    def _score_arrays(self, intersections: np.ndarray,
                      overlaps: np.ndarray,
                      min_separation: np.ndarray) -> np.ndarray:
        return self.score_conflicts(intersections, overlaps)


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

    def _score_arrays(self, intersections: np.ndarray,
                      overlaps: np.ndarray,
                      min_separation: np.ndarray) -> np.ndarray:
        return _bounded_margin(min_separation, self.margin_scale)


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

    def _score_arrays(self, intersections: np.ndarray,
                      overlaps: np.ndarray,
                      min_separation: np.ndarray) -> np.ndarray:
        return self.score_conflicts(intersections, overlaps) + \
            self.margin_weight * _bounded_margin(min_separation,
                                                 self.margin_scale)


def _bounded_margin(min_separation: np.ndarray, scale: float
                    ) -> np.ndarray:
    """``margin / (margin + scale)`` of the clipped-at-0 minimum
    separation; 1 where it is not finite (a single trajectory)."""
    margin = np.maximum(min_separation, 0.0)
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(margin),
                        margin / (margin + scale), 1.0)
