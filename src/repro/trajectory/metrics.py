"""Trajectory separation metrics: the quantities the GA optimises.

The paper's fitness criterion searches for *"a graphical configuration for
the trajectories that minimizes the number of common pathways, and
intersections among the fault trajectories"* -- formalised here as:

* :func:`count_intersections` -- proper crossings between segments of
  *different* trajectories (2-D exact; n-D via a proximity surrogate);
* :func:`count_common_pathways` -- collinear overlapping segment pairs;
* :func:`min_separation` -- the smallest inter-trajectory distance with
  the structural origin contact excluded (margin; used by the extended
  fitness functions).

The GA calls these thousands of times per run, so the internals work
on a ``(K, V, D)`` batch of vertex coordinates sharing one
:class:`~repro.trajectory.trajectory.TrajectoryLayout`: K candidate
configurations of the same trajectory structure. One vectorised kernel
resolves the crossings and overlaps of every cross-trajectory segment
pair (2-D), and one batched vertex-to-segment projection gives every
pair's separation (any dimension). The public functions on a single
:class:`TrajectorySet` are K = 1 calls of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import TrajectoryError
from .geometry import _EPS, Segments, _project
from .trajectory import TrajectoryLayout, TrajectorySet

__all__ = [
    "TrajectoryMetrics",
    "count_intersections",
    "count_common_pathways",
    "conflict_counts_batch",
    "min_separation",
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

# Vertex-segment pairs projected per chunk of the separation pass:
# each (pairs,) float plane is 256 KB, so a chunk's temporaries stay in
# a core's L2 cache (with 1 << 18 pairs the nine 3-frequency paper runs
# took ~20 % longer on a 2-core Xeon with 2 MB of L2 per core).
_PROJECTION_CHUNK = 1 << 15


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
                     owners: np.ndarray, chunk_size: int = 128
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """(crossings, overlaps) per member of a (K, S, 2) segment batch.

    The one counting kernel behind :func:`conflict_counts_batch` and
    the scalar 2-D counters (which call it with K = 1). Only the
    cross-trajectory pairs ``a < b`` are evaluated; both relations are
    symmetric, so each unordered pair counts once. For a pair, d1/d2
    place a's endpoints relative to line b and d3/d4 place b's
    endpoints relative to line a. A collinear pair is a common pathway
    when b's projection onto a covers a stretch of positive length.

    Pruning is per case, a case being one (pair, member): a case is
    evaluated only when the pair's padded bounding boxes meet in that
    member; the others can neither cross nor overlap (see the pad
    derivation below). The determinants come in two stages. Stage 1
    computes d1/d2 for every case whose boxes meet; stage 2 computes
    d3/d4 only where a's endpoints straddle line b (``d1*d2 < -eps``)
    or both lie within ``eps_overlap`` of it, the only cases that can
    cross or overlap. Every determinant is the same expression on the
    same operands as evaluating every pair, so the counts are bitwise
    those. ``chunk_size`` members are laid out at a time as contiguous
    ``(S, members)`` planes; it bounds memory only (the box test holds
    ``S * S * chunk_size`` booleans), not which cases are evaluated.
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
        width = high - low
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
        meets = meets[a, b] & meets[b, a]

        # Cases as flat indices into the (S * members,) planes.
        pair, member = np.divmod(np.flatnonzero(meets), width)
        i = a[pair] * width + member
        j = b[pair] * width + member
        sx, sy, ex, ey, dx, dy = (plane.ravel()
                                  for plane in (sx, sy, ex, ey, dx, dy))
        ax, ay, bx, by, bdx, bdy = sx[i], sy[i], sx[j], sy[j], dx[j], dy[j]
        # Stage 1: a's endpoints against line b.
        d1 = bdx * (ay - by) - bdy * (ax - bx)
        d2 = bdx * (ey[i] - by) - bdy * (ex[i] - bx)
        case_overlap = eps_overlap[member]
        straddles = d1 * d2 < -eps[member]
        level = (np.abs(d1) <= case_overlap) & \
            (np.abs(d2) <= case_overlap)
        keep = np.flatnonzero(straddles | level)
        # Stage 2: b's endpoints against line a, on the survivors.
        i, j, member = i[keep], j[keep], member[keep]
        ax, ay, bx, by = ax[keep], ay[keep], bx[keep], by[keep]
        adx, ady = dx[i], dy[i]
        d3 = adx * (by - ay) - ady * (bx - ax)
        d4 = adx * (ey[j] - ay) - ady * (ex[j] - ax)
        crossing = straddles[keep] & (d3 * d4 < -eps[member])
        intersections[low:high] = np.bincount(member[crossing],
                                              minlength=width)
        case_overlap = case_overlap[keep]
        collinear = np.flatnonzero(level[keep] &
                                   (np.abs(d3) <= case_overlap) &
                                   (np.abs(d4) <= case_overlap))
        if collinear.size == 0:
            continue
        # Project b onto a's direction: [s0, s1] in units of a's length.
        i, j, member = i[collinear], j[collinear], member[collinear]
        along = np.stack([dx[i], dy[i]], axis=1)
        origin_x, origin_y = sx[i], sy[i]
        norm = _dot_rows(along, along)
        positive = norm > _EPS
        norm = np.where(positive, norm, 1.0)
        s0 = _dot_rows(np.stack([sx[j] - origin_x, sy[j] - origin_y],
                                axis=1), along) / norm
        s1 = _dot_rows(np.stack([ex[j] - origin_x, ey[j] - origin_y],
                                axis=1), along) / norm
        lo = np.maximum(0.0, np.minimum(s0, s1))
        hi = np.minimum(1.0, np.maximum(s0, s1))
        overlaps[low:high] = np.bincount(
            member[positive & (hi - lo > 1e-9)], minlength=width)
    return intersections, overlaps


def conflict_counts_batch(starts: np.ndarray, ends: np.ndarray,
                          owners: np.ndarray, chunk_size: int = 128
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """(intersections, common_pathways) for a 2-D trajectory-set batch.

    ``starts``/``ends`` are ``(K, S, 2)`` stacked segment arrays sharing
    one ``owners`` layout -- K candidate configurations of the *same*
    trajectory structure (the GA population case). Each (segment pair,
    member) case is pruned on its own padded bounding boxes, and only
    the cases whose d1/d2 stage leaves a crossing or an overlap
    possible get the d3/d4 stage. ``chunk_size`` members are processed
    at a time; it bounds the memory of the box test and changes no
    count (the default holds one 128-genome GA generation in one
    chunk). Counts are identical to calling :func:`count_intersections`
    / :func:`count_common_pathways` per member, which run the same
    kernel with K = 1. Raises :class:`TrajectoryError` on non-finite
    endpoints and on ``chunk_size < 1``.
    """
    return _conflict_counts(starts, ends, owners, chunk_size)


def _separations(vertices: np.ndarray, layout: TrajectoryLayout
                 ) -> np.ndarray:
    """``(K, P)`` minimum distance of every trajectory pair.

    Pairs ``(a, b)``, ``a < b``, in :func:`itertools.combinations`
    order. A pair's distance is the smaller of (vertices of a to
    segments of b) and (vertices of b to segments of a), with origin
    vertices skipped as query points: every trajectory passes through
    the golden point, and that structural contact is not a separation.
    The projection broadcasts ``(K, V, 1, D)`` vertices against ``(K,
    1, S, D)`` segments, elementwise the expressions of a
    per-configuration :func:`~repro.trajectory.geometry.project_points`
    call, so each distance is bitwise what that call gives; the minima
    reduce over the layout's contiguous owner groups. Raises
    :class:`TrajectoryError` on a non-finite vertex, as the conflict
    kernel does: a nan distance would drop out of every minimum.
    """
    if not np.isfinite(vertices).all():
        raise TrajectoryError("separations need finite vertices")
    count, num_vertices = vertices.shape[:2]
    num_segments = layout.seg_start.size
    vertex_owner = np.repeat(np.arange(len(layout.components)),
                             np.diff(layout.vertex_offsets))
    valid = (vertex_owner[:, None] != layout.owners[None, :]) & \
        ~layout.is_origin[:, None]
    first, second = np.triu_indices(len(layout.components), 1)
    result = np.empty((count, first.size))
    step = max(1, _PROJECTION_CHUNK // (num_vertices * num_segments))
    for low in range(0, count, step):
        batch = vertices[low:low + step]
        segments = Segments.of(batch[:, None, layout.seg_start],
                               batch[:, None, layout.seg_end])
        distances, _, _ = _project(batch[:, :, None, :], segments)
        masked = np.where(valid, distances, np.inf)     # (k, V, S)
        to_owner = np.minimum.reduceat(
            masked, layout.segment_offsets[:-1], axis=2)  # (k, V, T)
        between = np.minimum.reduceat(
            to_owner, layout.vertex_offsets[:-1], axis=1)  # (k, T, T)
        result[low:low + step] = np.minimum(between[:, first, second],
                                            between[:, second, first])
    return result


def _metric_arrays(vertices: np.ndarray, layout: TrajectoryLayout,
                   include_separations: bool = True
                   ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray],
                              np.ndarray]:
    """Metrics of a ``(K, V, D)`` vertex batch sharing ``layout``.

    Returns ``(intersections, common_pathways, separations,
    min_separation)``: ``(K,)`` counts, the ``(K, P)`` pair separations
    (None when not computed) and the ``(K,)`` minimum separation (nan
    when not computed; 0 for a 2-D configuration with a crossing). In
    2-D the counts come from :func:`conflict_counts_batch`; in higher
    dimensions (and in 1-D) intersections count the pairs closer than
    ``_ND_CONTACT_FRACTION`` of the largest vertex norm and common
    pathways are 0. A single trajectory has no conflicts and no
    separations.
    """
    vertices = np.ascontiguousarray(vertices, dtype=float)
    count, _, dimension = vertices.shape
    intersections = np.zeros(count, dtype=int)
    overlaps = np.zeros(count, dtype=int)
    minimum = np.full(count, np.nan)
    if len(layout.components) < 2:
        return intersections, overlaps, None, minimum
    if dimension == 2:
        intersections, overlaps = conflict_counts_batch(
            vertices[:, layout.seg_start], vertices[:, layout.seg_end],
            layout.owners)
    separations = _separations(vertices, layout) \
        if include_separations or dimension != 2 else None
    if dimension != 2:
        scale = np.maximum(np.linalg.norm(vertices, axis=2).max(axis=1),
                           1e-30)
        threshold = _ND_CONTACT_FRACTION * scale
        intersections = np.count_nonzero(
            separations < threshold[:, None], axis=1)
    if separations is not None:
        minimum = separations.min(axis=1)
        if dimension == 2:
            minimum[intersections > 0] = 0.0
    return intersections, overlaps, separations, minimum


def _set_batch(trajectories: TrajectorySet
               ) -> Tuple[np.ndarray, TrajectoryLayout]:
    """One set as a K = 1 vertex batch and its layout."""
    return (np.vstack([t.points for t in trajectories])[None],
            TrajectoryLayout.of(trajectories))


def _set_arrays(trajectories: TrajectorySet,
                include_separations: bool = True):
    """:func:`_metric_arrays` of one set (K = 1)."""
    return _metric_arrays(*_set_batch(trajectories), include_separations)


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
    return int(_set_arrays(trajectories, include_separations=False)[0][0])


def count_common_pathways(trajectories: TrajectorySet) -> int:
    """Collinear overlapping segment pairs between different trajectories.

    Only meaningful in 2-D (where the paper's fitness lives); returns 0
    for higher dimensions, where the proximity surrogate in
    :func:`count_intersections` already captures degeneracy.
    """
    if trajectories.dimension != 2:
        return 0
    return int(_set_arrays(trajectories, include_separations=False)[1][0])


def _pair_dict(trajectories: TrajectorySet, separations: np.ndarray
               ) -> Dict[Tuple[str, str], float]:
    names = trajectories.components
    first, second = np.triu_indices(len(names), 1)
    return {(names[a], names[b]): float(value)
            for a, b, value in zip(first.tolist(), second.tolist(),
                                   separations.tolist())}


def _require_pairs(trajectories: TrajectorySet) -> None:
    if len(trajectories) < 2:
        raise TrajectoryError(
            "pairwise separation needs >= 2 trajectories")


def min_separation(trajectories: TrajectorySet) -> float:
    """Smallest inter-trajectory distance (0 if any pair crosses)."""
    _require_pairs(trajectories)
    return float(_set_arrays(trajectories)[3][0])


def evaluate_metrics(trajectories: TrajectorySet,
                     include_separations: bool = True
                     ) -> TrajectoryMetrics:
    """All separation metrics of one configuration in one pass.

    ``include_separations=False`` skips the distance computation (the
    paper fitness only needs conflict counts) and reports separations as
    ``nan``.
    """
    intersections, overlaps, separations, minimum = _set_arrays(
        trajectories, include_separations)
    if not include_separations or separations is None:
        return TrajectoryMetrics(
            intersections=int(intersections[0]),
            common_pathways=int(overlaps[0]),
            min_separation=float("nan"),
            mean_separation=float("nan"),
            per_pair_separation={},
        )
    return TrajectoryMetrics(
        intersections=int(intersections[0]),
        common_pathways=int(overlaps[0]),
        min_separation=float(minimum[0]),
        mean_separation=float(separations[0].mean()),
        per_pair_separation=_pair_dict(trajectories, separations[0]),
    )
