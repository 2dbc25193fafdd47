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

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import TrajectoryError
from ..tracing import TRACER
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

# Rounding slack of the conflict kernel's sector prefilter, as a share
# of the coordinate magnitude, of the overlap pad and of the angles.
_SECTOR_SLACK = 64 * np.finfo(float).eps

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


@functools.lru_cache(maxsize=16)
def _owner_pairs(owners: bytes, dtype: str) -> Tuple[np.ndarray, ...]:
    """``(a, b, ab, ba)``: the segment pairs ``a < b`` of different
    owners, row-major, and their flat indices ``a * S + b`` and ``b * S
    + a``; derived once per owner layout and returned read-only."""
    owners = np.frombuffer(owners, dtype=dtype)
    a, b = np.triu_indices(owners.size, 1)
    cross_owner = owners[a] != owners[b]
    a, b = a[cross_owner], b[cross_owner]
    pairs = (a, b, a * owners.size + b, b * owners.size + a)
    for array in pairs:
        array.flags.writeable = False
    return pairs


def _sectors(sx: np.ndarray, sy: np.ndarray, ex: np.ndarray,
             ey: np.ndarray, dx: np.ndarray, dy: np.ndarray,
             lengths_sq: np.ndarray, eps_overlap: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Padded polar sector ``[low, high]`` of every ``(S, members)``
    segment: the arc of angles around the origin its points take, from
    one endpoint's angle to the other's (an endpoint at the origin takes
    the other's), padded so that segments whose sectors are disjoint can
    neither cross nor overlap.

    Pad derivation. Write E for eps_overlap, h_s for a segment's
    distance from the origin and m_s for |s| when an endpoint is the
    origin, else min(h_s, |s|); the pad is 3 r_s, r_s = E / (|s| m_s).
    A crossing point lies on both segments and never at the origin (a
    proper crossing there needs both segments through it; for two ending
    there one of d1/d2 is exactly 0), so crossing sectors meet unpadded.
    A common pathway needs all four |d| <= E and b's projection on a to
    cover a stretch. (i) |d3|, |d4| are |a| times the distances of b's
    endpoints from line a, so a point of b lies within E/|a| of a point
    p of a, |p| >= h_a: their angles differ by <= arcsin r_a. (ii) If a
    ends at the origin and b does not, |d1|, |d2| put both ends of a
    within E/|b| of line b: a's angle is within arcsin(2E / (|a||b|)) <=
    arcsin(r_a + r_b) of line b's direction, and b's points within
    arcsin r_b of it (on a's side of the origin, or b passes within
    about E/|b| of it and r_a or r_b exceeds 1/8). (iii) If both end at
    the origin, |d3| <= E bounds the sine of their angle by E / (|a||b|)
    <= (r_a + r_b) / 2. With every r <= 1/8 each bound is below 3 r_a +
    3 r_b. Each quantity is a few roundings of the member's coordinates,
    an error of a few ulps of their largest magnitude M (an angle error
    of that over m_s), of E or of pi, so r_s is taken as ((1 + 64 eps)
    E/|s| + 64 eps M) / (m_s - 64 eps M) and the pad gets 64 eps more.
    A segment of zero length, through or within rounding of the origin,
    with r_s above 1/8 or not finite (a squared length overflowed), or
    whose padded arc reaches the +-pi cut takes every angle.
    """
    magnitude = np.max([np.abs(plane).max(axis=0)
                        for plane in (sx, sy, ex, ey)], axis=0)
    at_start = (sx == 0.0) & (sy == 0.0)
    at_end = (ex == 0.0) & (ey == 0.0)
    start_angle = np.arctan2(sy, sx)
    end_angle = np.arctan2(ey, ex)
    start_angle[at_start] = end_angle[at_start]
    end_angle[at_end] = start_angle[at_end]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        length = np.sqrt(lengths_sq)
        # h_s: to the line where the origin's foot falls inside the
        # segment, else to the nearer endpoint.
        foot_inside = (sx * dx + sy * dy < 0.0) & (ex * dx + ey * dy > 0.0)
        distance = np.where(
            foot_inside, np.abs(sx * dy - sy * dx) / length,
            np.sqrt(np.minimum(sx * sx + sy * sy, ex * ex + ey * ey)))
        reach = np.where(at_start | at_end, length,
                         np.minimum(distance, length)) - \
            _SECTOR_SLACK * magnitude
        ratio = (eps_overlap / length * (1.0 + _SECTOR_SLACK) +
                 _SECTOR_SLACK * magnitude) / reach
        pad = 3.0 * ratio + _SECTOR_SLACK
        low = np.minimum(start_angle, end_angle) - pad
        high = np.maximum(start_angle, end_angle) + pad
        keep = (reach > 0.0) & (ratio <= 0.125) & \
            (np.abs(end_angle - start_angle) <= np.pi) & \
            (low >= -np.pi) & (high <= np.pi)
    low[~keep] = -np.inf
    high[~keep] = np.inf
    return low, high


def conflict_counts_batch(starts: np.ndarray, ends: np.ndarray,
                          owners: np.ndarray, chunk_size: int = 128
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """(intersections, common_pathways) for a 2-D trajectory-set batch.

    ``starts``/``ends`` are ``(K, S, 2)`` stacked segment arrays sharing
    one ``owners`` layout -- K candidate configurations of the *same*
    trajectory structure (the GA population case). The scalar 2-D
    counters (:func:`count_intersections`, :func:`count_common_pathways`)
    are K = 1 calls, so counts are identical member by member. Only the
    cross-trajectory pairs ``a < b`` are evaluated; both relations are
    symmetric, so each unordered pair counts once. For a pair, d1/d2
    place a's endpoints relative to line b and d3/d4 place b's
    endpoints relative to line a. A collinear pair is a common pathway
    when b's projection onto a covers a stretch of positive length.

    Pruning is per case, a case being one (pair, member): a case is
    evaluated only when the pair's padded polar sectors around the
    origin (:func:`_sectors`) meet in that member; the others can
    neither cross nor overlap. Golden-relative trajectories all leave
    the origin, so their sectors stay apart where boxes would pile up.
    The determinants come in two stages. Stage 1 computes d1/d2 for
    every case whose sectors meet; stage 2 computes d3/d4 only where
    a's endpoints straddle line b (``d1*d2 < -eps``) or both lie within
    ``eps_overlap`` of it, the only cases that can cross or overlap.
    Every determinant is the same expression on the same operands as
    evaluating every pair, so the counts are bitwise those.
    ``chunk_size`` members are laid out at a time as contiguous ``(S,
    members)`` planes; it bounds memory only (the sector test holds ``S
    * S * chunk_size`` booleans) and changes no count (the default
    holds one 128-genome GA generation in one chunk). Each call records
    a ``trajectory.conflicts`` span with ``candidates`` (K), ``pairs``
    (cross-owner segment pairs), ``cases`` (pairs x K) and
    ``evaluated`` (the cases whose sectors meet). Raises
    :class:`TrajectoryError` on malformed or non-finite arrays and on
    ``chunk_size < 1``.
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
    if owners.dtype.hasobject:
        # The pairs are memoised on the owners' bytes, and the bytes of
        # objects are pointers: key integer codes instead.
        owners = np.unique(owners, return_inverse=True)[1]
    a, b, ab, ba = _owner_pairs(owners.tobytes(), owners.dtype.str)
    intersections = np.empty(num_members, dtype=int)
    overlaps = np.zeros(num_members, dtype=int)
    with TRACER.span("trajectory.conflicts", candidates=num_members,
                     pairs=a.size, cases=a.size * num_members) as span:
        evaluated = 0
        for low in range(0, num_members, chunk_size):
            high = min(low + chunk_size, num_members)
            width = high - low
            sx, sy, ex, ey = (
                np.ascontiguousarray(plane[low:high, :, axis].T)
                for plane in (starts, ends) for axis in (0, 1))
            dx, dy = ex - sx, ey - sy
            lengths_sq = dx * dx + dy * dy
            scale = np.maximum(lengths_sq.max(axis=0, initial=0.0), _EPS)
            eps = _EPS * scale
            eps_overlap = _OVERLAP_EPS_SCALE * scale
            first, last = _sectors(sx, sy, ex, ey, dx, dy, lengths_sq,
                                   eps_overlap)
            meets = (first[:, None] <= last[None, :]).reshape(-1, width)
            meets = meets.take(ab, axis=0) & meets.take(ba, axis=0)

            # Cases as flat indices into the (S * members,) planes.
            pair, member = np.divmod(np.flatnonzero(meets), width)
            evaluated += pair.size
            i = a[pair] * width + member
            j = b[pair] * width + member
            sx, sy, ex, ey, dx, dy = (plane.ravel()
                                      for plane in (sx, sy, ex, ey, dx, dy))
            ax, ay = sx[i], sy[i]
            bx, by, bdx, bdy = sx[j], sy[j], dx[j], dy[j]
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
            # Project b onto a's direction: [s0, s1] in units of a's
            # length.
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
        span.attrs["evaluated"] = evaluated
    return intersections, overlaps


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
