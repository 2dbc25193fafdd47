"""Trajectory separation metrics: the quantities the GA optimises.

The paper's fitness criterion searches for *"a graphical configuration for
the trajectories that minimizes the number of common pathways, and
intersections among the fault trajectories"* -- formalised here as:

* :func:`count_intersections` -- proper crossings between segments of
  *different* trajectories (2-D exact; n-D via a proximity surrogate);
* :func:`count_common_pathways` -- collinear overlapping segment pairs;
* :func:`min_separation` -- the smallest inter-trajectory distance with
  the structural origin contact excluded (margin; used by the extended
  fitness functions and by ambiguity analysis).

The GA calls these thousands of times per run, so the internals operate
on the trajectory set's *stacked* segment arrays: one vectorised kernel
resolves the crossings and overlaps of every cross-trajectory segment
pair, for one set or for a whole candidate population at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import TrajectoryError
from .geometry import _EPS
from .trajectory import TrajectorySet

__all__ = [
    "TrajectoryMetrics",
    "count_intersections",
    "count_common_pathways",
    "conflict_counts_batch",
    "min_separation",
    "pairwise_separations",
    "evaluate_metrics",
]

# In dimensions > 2 two random polylines generically never intersect;
# what breaks diagnosis there is *proximity*. Trajectory pairs closer
# than this fraction of the trajectory scale count as pseudo-intersecting.
_ND_CONTACT_FRACTION = 1e-3

# Collinearity epsilon scale for overlap ("common pathway") detection.
_OVERLAP_EPS_SCALE = 1e-9

# Rounding slack of the conflict kernel's bounding-box prefilter, as a
# share of the coordinate magnitude and of the overlap pad.
_BOX_SLACK = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class TrajectoryMetrics:
    """Summary of one trajectory configuration.

    ``min_separation``/``mean_separation`` are ``nan`` when the metrics
    were computed conflicts-only (the paper-fitness fast path).
    """

    intersections: int
    common_pathways: int
    min_separation: float
    mean_separation: float
    per_pair_separation: Dict[Tuple[str, str], float]

    @property
    def total_conflicts(self) -> int:
        """Crossings + overlaps: the I of the paper's fitness."""
        return self.intersections + self.common_pathways


# ----------------------------------------------------------------------
# Stacked-array internals
# ----------------------------------------------------------------------
def _dot_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, 2) arrays.

    ``matmul`` of (1, 2) @ (2, 1) stacks runs the same dot kernel as
    ``np.dot`` on two vectors, so each value is bitwise what a per-row
    ``np.dot`` gives (``einsum`` rounds differently).
    """
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _conflict_counts(starts: np.ndarray, ends: np.ndarray,
                     owners: np.ndarray, chunk_size: int = 32
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """(crossings, overlaps) per member of a (K, S, 2) segment batch.

    The one counting kernel behind :func:`conflict_counts_batch` and
    the scalar 2-D counters (which call it with K = 1). Only the
    cross-trajectory pairs ``a < b`` are evaluated; both relations are
    symmetric, so each unordered pair counts once. For a pair, d1/d2
    place a's endpoints relative to line b and d3/d4 place b's
    endpoints relative to line a. A collinear pair is a common pathway
    when b's projection onto a covers a stretch of positive length.

    Each chunk of members is laid out as contiguous ``(S, members)``
    planes, so gathering a pair's operands copies whole rows. A pair is
    evaluated only when its padded bounding boxes meet in at least one
    member of the chunk; the others can neither cross nor overlap (see
    the pad derivation below), so the counts are those of evaluating
    every pair.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    if starts.ndim != 3 or starts.shape[2] != 2 or \
            starts.shape != ends.shape:
        raise TrajectoryError(
            f"conflict_counts_batch needs matching (K, S, 2) arrays, "
            f"got {starts.shape} and {ends.shape}")
    if not (np.isfinite(starts).all() and np.isfinite(ends).all()):
        raise TrajectoryError(
            "conflict counting needs finite segment endpoints")
    if chunk_size < 1:
        raise TrajectoryError(
            f"chunk_size must be >= 1, got {chunk_size}")
    num_members, num_segments = starts.shape[:2]
    owners = np.asarray(owners)
    if owners.shape != (num_segments,):
        raise TrajectoryError(
            f"owners must have shape ({num_segments},), got "
            f"{owners.shape}")
    a, b = np.triu_indices(num_segments, 1)
    cross_owner = owners[a] != owners[b]
    a, b = a[cross_owner], b[cross_owner]
    intersections = np.empty(num_members, dtype=int)
    overlaps = np.zeros(num_members, dtype=int)
    for low in range(0, num_members, chunk_size):
        high = min(low + chunk_size, num_members)
        sx, sy, ex, ey = (np.ascontiguousarray(plane[low:high, :, axis].T)
                          for plane in (starts, ends) for axis in (0, 1))
        dx, dy = ex - sx, ey - sy
        lengths_sq = dx * dx + dy * dy
        scale = np.maximum(lengths_sq.max(axis=0, initial=0.0), _EPS)
        eps = _EPS * scale
        eps_overlap = _OVERLAP_EPS_SCALE * scale

        # Box pad. A crossing point lies inside both segments' boxes,
        # so crossings need none. A common pathway needs all four
        # |d| <= eps_overlap and b's projection overlapping a. Since
        # |d3| and |d4| are |a| times the distances of b's endpoints
        # from line a, every point of b lies within eps_overlap/|a| of
        # that line, and a point of b projecting inside a lies within
        # eps_overlap/|a| of segment a itself: padding a's box by
        # eps_overlap/|a| makes it meet b's box. The determinants, the
        # projections and the padded bounds are each a few roundings of
        # the member's coordinates, so each error is a few ulps of the
        # largest coordinate magnitude or of the pad; a slack of 64
        # machine epsilons of both covers them. Each box gets its own
        # segment's pad, so a's pad is there for every pair a is in. A
        # zero-length segment, or any member whose squared length
        # overflows, gets an infinite pad: its pairs are all evaluated.
        magnitude = np.max([np.abs(plane).max(axis=0)
                            for plane in (sx, sy, ex, ey)], axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            pad = (eps_overlap / np.sqrt(lengths_sq) * (1.0 + _BOX_SLACK) +
                   _BOX_SLACK * magnitude)
        pad[np.isnan(pad)] = np.inf
        low_x, high_x = np.minimum(sx, ex) - pad, np.maximum(sx, ex) + pad
        low_y, high_y = np.minimum(sy, ey) - pad, np.maximum(sy, ey) + pad
        meets = low_x[:, None] <= high_x[None, :]
        meets &= low_y[:, None] <= high_y[None, :]
        meets &= meets.transpose(1, 0, 2)
        near = meets.any(axis=2)[a, b]
        i, j = a[near], b[near]

        ax, ay, adx, ady = sx[i], sy[i], dx[i], dy[i]
        bx, by, bdx, bdy = sx[j], sy[j], dx[j], dy[j]
        d1 = bdx * (ay - by) - bdy * (ax - bx)
        d2 = bdx * (ey[i] - by) - bdy * (ex[i] - bx)
        d3 = adx * (by - ay) - ady * (bx - ax)
        d4 = adx * (ey[j] - ay) - ady * (ex[j] - ax)
        crossing = (d1 * d2 < -eps) & (d3 * d4 < -eps)
        intersections[low:high] = np.count_nonzero(crossing, axis=0)
        collinear = ((np.abs(d1) <= eps_overlap) &
                     (np.abs(d2) <= eps_overlap) &
                     (np.abs(d3) <= eps_overlap) &
                     (np.abs(d4) <= eps_overlap))
        pair, member = np.nonzero(collinear)
        if member.size == 0:
            continue
        # Project b onto a's direction: [s0, s1] in units of a's length.
        i, j = i[pair], j[pair]
        along = np.stack([dx[i, member], dy[i, member]], axis=1)
        origin_x, origin_y = sx[i, member], sy[i, member]
        norm = _dot_rows(along, along)
        positive = norm > _EPS
        norm = np.where(positive, norm, 1.0)
        s0 = _dot_rows(np.stack([sx[j, member] - origin_x,
                                 sy[j, member] - origin_y], axis=1),
                       along) / norm
        s1 = _dot_rows(np.stack([ex[j, member] - origin_x,
                                 ey[j, member] - origin_y], axis=1),
                       along) / norm
        lo = np.maximum(0.0, np.minimum(s0, s1))
        hi = np.minimum(1.0, np.maximum(s0, s1))
        overlaps[low:high] = np.bincount(
            member[positive & (hi - lo > 1e-9)], minlength=high - low)
    return intersections, overlaps


def _set_conflicts(trajectories: TrajectorySet) -> Tuple[int, int]:
    """(crossings, overlaps) of one 2-D set: the kernel with K = 1."""
    starts, ends, owners = trajectories.all_segments()
    intersections, overlaps = _conflict_counts(starts[None], ends[None],
                                               owners)
    return int(intersections[0]), int(overlaps[0])


def conflict_counts_batch(starts: np.ndarray, ends: np.ndarray,
                          owners: np.ndarray, chunk_size: int = 32
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """(intersections, common_pathways) for a 2-D trajectory-set batch.

    ``starts``/``ends`` are ``(K, S, 2)`` stacked segment arrays sharing
    one ``owners`` layout -- K candidate configurations of the *same*
    trajectory structure (the GA population case). Crossings and
    overlaps of every member are resolved together, ``chunk_size``
    members at a time; counts are identical to calling
    :func:`count_intersections` / :func:`count_common_pathways` per
    member, which run the same kernel with K = 1. Raises
    :class:`TrajectoryError` on non-finite endpoints and on
    ``chunk_size < 1``.
    """
    return _conflict_counts(starts, ends, owners, chunk_size)


def _vertex_segment_distances(trajectories: TrajectorySet
                              ) -> Tuple[np.ndarray, np.ndarray,
                                         np.ndarray, np.ndarray,
                                         np.ndarray]:
    """Distance matrix from every vertex to every segment, plus masks.

    Returns ``(distances, vertex_owner, segment_owner, is_origin,
    valid)`` where ``distances`` is (n_vertices, n_segments) and
    ``valid`` masks cross-trajectory, non-origin-vertex entries.
    """
    starts, ends, seg_owner = trajectories.all_segments()
    vertices = []
    vertex_owner = []
    is_origin = []
    for index, trajectory in enumerate(trajectories):
        vertices.append(trajectory.points)
        vertex_owner.append(np.full(trajectory.points.shape[0], index))
        is_origin.append(trajectory.vertex_is_origin())
    points = np.vstack(vertices)                      # (V, d)
    vertex_owner = np.concatenate(vertex_owner)
    is_origin = np.concatenate(is_origin)

    direction = ends - starts                         # (S, d)
    length_sq = np.sum(direction * direction, axis=1)  # (S,)
    safe = np.where(length_sq > _EPS, length_sq, 1.0)
    offset = points[:, None, :] - starts[None, :, :]   # (V, S, d)
    t = np.einsum("vsd,sd->vs", offset, direction) / safe[None, :]
    t = np.clip(np.where(length_sq[None, :] > _EPS, t, 0.0), 0.0, 1.0)
    closest = starts[None, :, :] + t[:, :, None] * direction[None, :, :]
    distances = np.linalg.norm(points[:, None, :] - closest, axis=2)

    valid = (vertex_owner[:, None] != seg_owner[None, :]) & \
            (~is_origin)[:, None]
    return distances, vertex_owner, seg_owner, is_origin, valid


def _pairwise_separations_fast(trajectories: TrajectorySet
                               ) -> Dict[Tuple[str, str], float]:
    distances, vertex_owner, seg_owner, _, valid = \
        _vertex_segment_distances(trajectories)
    masked = np.where(valid, distances, np.inf)
    names = trajectories.components
    count = len(names)
    result: Dict[Tuple[str, str], float] = {}
    for i, j in combinations(range(count), 2):
        a_to_b = masked[np.ix_(vertex_owner == i, seg_owner == j)]
        b_to_a = masked[np.ix_(vertex_owner == j, seg_owner == i)]
        best = np.inf
        if a_to_b.size:
            best = min(best, float(a_to_b.min()))
        if b_to_a.size:
            best = min(best, float(b_to_a.min()))
        result[(names[i], names[j])] = best
    return result


# ----------------------------------------------------------------------
# Public metrics
# ----------------------------------------------------------------------
def count_intersections(trajectories: TrajectorySet) -> int:
    """Crossings between segments of different trajectories.

    In 2-D this is the exact proper-crossing count (shared origin contact
    excluded by the strict orientation test). In higher dimensions it
    falls back to counting trajectory pairs that approach within a small
    fraction of the trajectory scale.
    """
    if len(trajectories) < 2:
        return 0
    if trajectories.dimension == 2:
        return _set_conflicts(trajectories)[0]
    threshold = _ND_CONTACT_FRACTION * _trajectory_scale(trajectories)
    separations = _pairwise_separations_fast(trajectories)
    return sum(1 for value in separations.values() if value < threshold)


def count_common_pathways(trajectories: TrajectorySet) -> int:
    """Collinear overlapping segment pairs between different trajectories.

    Only meaningful in 2-D (where the paper's fitness lives); returns 0
    for higher dimensions, where the proximity surrogate in
    :func:`count_intersections` already captures degeneracy.
    """
    if len(trajectories) < 2 or trajectories.dimension != 2:
        return 0
    return _set_conflicts(trajectories)[1]


def _trajectory_scale(trajectories: TrajectorySet) -> float:
    """Characteristic size: the largest point norm across the set."""
    largest = 0.0
    for trajectory in trajectories:
        largest = max(largest, float(
            np.max(np.linalg.norm(trajectory.points, axis=1))))
    return max(largest, 1e-30)


def pairwise_separations(trajectories: TrajectorySet
                         ) -> Dict[Tuple[str, str], float]:
    """Minimum distance per trajectory pair (origin contact excluded)."""
    if len(trajectories) < 2:
        raise TrajectoryError(
            "pairwise separation needs >= 2 trajectories")
    return _pairwise_separations_fast(trajectories)


def min_separation(trajectories: TrajectorySet) -> float:
    """Smallest inter-trajectory distance (0 if any pair crosses)."""
    separations = pairwise_separations(trajectories)
    if trajectories.dimension == 2 and \
            count_intersections(trajectories) > 0:
        return 0.0
    return min(separations.values())


def evaluate_metrics(trajectories: TrajectorySet,
                     include_separations: bool = True
                     ) -> TrajectoryMetrics:
    """All separation metrics of one configuration in one pass.

    ``include_separations=False`` skips the distance computation (the
    paper fitness only needs conflict counts) and reports separations as
    ``nan``.
    """
    if trajectories.dimension == 2 and len(trajectories) >= 2:
        # One kernel call yields both counts; the split counters
        # would run it twice.
        intersections, overlaps = _set_conflicts(trajectories)
    else:
        intersections = count_intersections(trajectories)
        overlaps = count_common_pathways(trajectories)
    if not include_separations or len(trajectories) < 2:
        return TrajectoryMetrics(
            intersections=intersections,
            common_pathways=overlaps,
            min_separation=float("nan"),
            mean_separation=float("nan"),
            per_pair_separation={},
        )
    separations = pairwise_separations(trajectories)
    values = np.array(list(separations.values()))
    minimum = 0.0 if (trajectories.dimension == 2 and
                      intersections > 0) else float(values.min())
    return TrajectoryMetrics(
        intersections=intersections,
        common_pathways=overlaps,
        min_separation=minimum,
        mean_separation=float(values.mean()),
        per_pair_separation=separations,
    )
