"""Computational geometry for fault trajectories.

Two families of primitives:

* **2-D segment crossing tests** -- the paper's fitness counts
  intersections between trajectories drawn in the (f1, f2) signature
  plane. ``count_segment_crossings`` performs a vectorised all-pairs
  proper-crossing count; endpoint contact (e.g. the shared origin where
  every trajectory starts) is *not* a proper crossing and is excluded by
  the strict orientation test. Collinear overlapping pairs ("common
  pathways" in the paper's wording) are counted separately.

* **n-D point/segment projection** -- diagnosis drops perpendiculars from
  an observed fault point onto trajectory segments; this works in any
  signature dimension, so the n-frequency extension reuses the same code.
  :func:`project_points` is the one projection kernel: the hard
  classifier, the posterior tier (one segment set per Monte-Carlo
  world) and the separation metric all call it.

All functions take plain numpy arrays: points are rows, segments are
(start, end) row pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import TrajectoryError

__all__ = [
    "cross2",
    "count_segment_crossings",
    "count_collinear_overlaps",
    "segment_crossing_matrix",
    "crossing_points",
    "Segments",
    "project_points",
    "project_point_onto_segments",
    "point_to_segments_distance",
    "polyline_arc_length",
    "polyline_min_distance",
]

# Orientation values with magnitude below this (relative to the segment
# scale) are treated as exactly collinear. Signature coordinates are dB
# differences of order 0.1..10, so 1e-12 is far below physical meaning.
_EPS = 1e-12


def _as_points(array: np.ndarray, name: str, dim: int | None = None
               ) -> np.ndarray:
    out = np.asarray(array, dtype=float)
    if out.ndim == 1:
        out = out[None, :]
    if out.ndim != 2:
        raise TrajectoryError(f"{name} must be a (n, d) array")
    if dim is not None and out.shape[1] != dim:
        raise TrajectoryError(
            f"{name} must have dimension {dim}, got {out.shape[1]}")
    return out


def cross2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """z-component of the 2-D cross product, broadcasting over rows."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _pairwise_orientations(a_start: np.ndarray, a_end: np.ndarray,
                           b_start: np.ndarray, b_end: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                      np.ndarray]:
    """Orientation determinants for every (segment_a, segment_b) pair.

    Shapes: inputs (na, 2) and (nb, 2); outputs (na, nb).
    d1/d2: where a's endpoints lie relative to line b;
    d3/d4: where b's endpoints lie relative to line a.
    """
    b_dir = (b_end - b_start)[None, :, :]          # (1, nb, 2)
    a_dir = (a_end - a_start)[:, None, :]          # (na, 1, 2)
    d1 = cross2(b_dir, a_start[:, None, :] - b_start[None, :, :])
    d2 = cross2(b_dir, a_end[:, None, :] - b_start[None, :, :])
    d3 = cross2(a_dir, b_start[None, :, :] - a_start[:, None, :])
    d4 = cross2(a_dir, b_end[None, :, :] - a_start[:, None, :])
    return d1, d2, d3, d4


def _scale(a_start, a_end, b_start, b_end) -> float:
    """Characteristic squared length used to normalise the epsilon."""
    lengths = [float(np.max(np.sum((e - s) ** 2, axis=-1), initial=0.0))
               for s, e in ((a_start, a_end), (b_start, b_end))]
    return max(max(lengths), _EPS)


def segment_crossing_matrix(a_start: np.ndarray, a_end: np.ndarray,
                            b_start: np.ndarray, b_end: np.ndarray
                            ) -> np.ndarray:
    """Boolean (na, nb) matrix of *proper* crossings.

    A proper crossing means the interiors intersect at a single point:
    strict sign changes on both orientation pairs. Segments that merely
    touch at an endpoint (shared trajectory origin) do not cross.
    """
    a_start = _as_points(a_start, "a_start", 2)
    a_end = _as_points(a_end, "a_end", 2)
    b_start = _as_points(b_start, "b_start", 2)
    b_end = _as_points(b_end, "b_end", 2)
    if a_start.shape != a_end.shape or b_start.shape != b_end.shape:
        raise TrajectoryError("segment start/end arrays must match")
    d1, d2, d3, d4 = _pairwise_orientations(a_start, a_end, b_start, b_end)
    eps = _EPS * _scale(a_start, a_end, b_start, b_end)
    strictly_opposite_a = (d1 * d2) < -eps
    strictly_opposite_b = (d3 * d4) < -eps
    return strictly_opposite_a & strictly_opposite_b


def count_segment_crossings(a_start: np.ndarray, a_end: np.ndarray,
                            b_start: np.ndarray, b_end: np.ndarray) -> int:
    """Number of proper crossings between two segment sets."""
    return int(np.count_nonzero(
        segment_crossing_matrix(a_start, a_end, b_start, b_end)))


def count_collinear_overlaps(a_start: np.ndarray, a_end: np.ndarray,
                             b_start: np.ndarray, b_end: np.ndarray,
                             eps_scale: float = 1e-9) -> int:
    """Pairs of collinear segments whose projections overlap.

    This is the paper's "common pathway" degeneracy: two trajectories
    sharing a stretch of the same line cannot be told apart there. The
    overlap must have positive length; touching at a single shared point
    does not count.
    """
    a_start = _as_points(a_start, "a_start", 2)
    a_end = _as_points(a_end, "a_end", 2)
    b_start = _as_points(b_start, "b_start", 2)
    b_end = _as_points(b_end, "b_end", 2)
    d1, d2, d3, d4 = _pairwise_orientations(a_start, a_end, b_start, b_end)
    eps = eps_scale * _scale(a_start, a_end, b_start, b_end)
    collinear = (np.abs(d1) <= eps) & (np.abs(d2) <= eps) & \
                (np.abs(d3) <= eps) & (np.abs(d4) <= eps)
    if not np.any(collinear):
        return 0
    # Project collinear pairs onto segment a's direction and test
    # 1-D interval overlap with positive length.
    count = 0
    rows, cols = np.nonzero(collinear)
    for i, j in zip(rows, cols):
        direction = a_end[i] - a_start[i]
        norm = float(np.dot(direction, direction))
        if norm <= _EPS:
            continue  # degenerate zero-length segment
        t0 = 0.0
        t1 = 1.0
        s0 = float(np.dot(b_start[j] - a_start[i], direction)) / norm
        s1 = float(np.dot(b_end[j] - a_start[i], direction)) / norm
        lo = max(min(t0, t1), min(s0, s1))
        hi = min(max(t0, t1), max(s0, s1))
        if hi - lo > 1e-9:
            count += 1
    return count


def crossing_points(a_start: np.ndarray, a_end: np.ndarray,
                    b_start: np.ndarray, b_end: np.ndarray) -> np.ndarray:
    """Coordinates of every proper crossing, shape (k, 2) (for plots)."""
    a_start = _as_points(a_start, "a_start", 2)
    a_end = _as_points(a_end, "a_end", 2)
    b_start = _as_points(b_start, "b_start", 2)
    b_end = _as_points(b_end, "b_end", 2)
    mask = segment_crossing_matrix(a_start, a_end, b_start, b_end)
    d1, d2, _, _ = _pairwise_orientations(a_start, a_end, b_start, b_end)
    points = []
    rows, cols = np.nonzero(mask)
    for i, j in zip(rows, cols):
        denominator = d1[i, j] - d2[i, j]
        if abs(denominator) <= _EPS:
            continue
        t = d1[i, j] / denominator
        points.append(a_start[i] + t * (a_end[i] - a_start[i]))
    if not points:
        return np.empty((0, 2))
    return np.vstack(points)


@dataclass(frozen=True)
class Segments:
    """Segment arrays precomputed once for :func:`project_points`.

    ``starts``/``ends``/``direction`` are ``(..., S, D)``; ``proper``
    (squared length above the degeneracy threshold) and
    ``safe_length_sq`` (squared length, 1 where degenerate) are
    ``(..., S)``. Leading axes (e.g. one per Monte-Carlo world)
    broadcast through the projection.
    """

    starts: np.ndarray
    ends: np.ndarray
    direction: np.ndarray
    proper: np.ndarray
    safe_length_sq: np.ndarray
    any_degenerate: bool

    @classmethod
    def of(cls, starts: np.ndarray, ends: np.ndarray) -> "Segments":
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        if starts.ndim < 2 or starts.shape != ends.shape:
            raise TrajectoryError(
                f"segment starts/ends must be matching (..., S, D) "
                f"arrays, got {starts.shape} and {ends.shape}")
        direction = ends - starts
        length_sq = np.sum(direction * direction, axis=-1)
        proper = length_sq > _EPS
        return cls(starts, ends, direction, proper,
                   np.where(proper, length_sq, 1.0),
                   bool(not proper.all()))


def _norm(delta: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...d,...d->...", delta, delta))


def project_points(points: np.ndarray, segments: Segments
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Perpendicular projection of N points onto many n-D segments.

    ``points`` is ``(N, D)`` and ``segments`` holds ``(..., S, D)``
    arrays. Returns ``(distances, t_clamped, interior)``, each of shape
    ``(N, ..., S)``:

    * ``distances`` -- Euclidean distance to the closest point of each
      segment;
    * ``t_clamped`` -- segment parameter of that closest point in [0, 1];
    * ``interior`` -- True where the *unclamped* perpendicular foot falls
      strictly inside the segment (the paper's "a perpendicular exists").

    A (near-)zero-length segment has no perpendicular foot; its closest
    point is whichever of its two float endpoints is nearer, so the
    projection distance never exceeds the distance to either endpoint.
    """
    lead = segments.starts.ndim - 1
    points = points.reshape(
        (points.shape[0],) + (1,) * lead + (points.shape[1],))
    diff = points - segments.starts                 # (N, ..., S, D)
    t_raw = np.sum(diff * segments.direction, axis=-1) / \
        segments.safe_length_sq
    t_raw = np.where(segments.proper, t_raw, 0.0)
    if segments.any_degenerate:
        nearer_end = _norm(points - segments.ends) < _norm(diff)
        t_raw = np.where(~segments.proper & nearer_end, 1.0, t_raw)
    interior = (t_raw > 0.0) & (t_raw < 1.0) & segments.proper
    t_clamped = np.clip(t_raw, 0.0, 1.0)
    closest = segments.starts + t_clamped[..., None] * segments.direction
    return _norm(points - closest), t_clamped, interior


def project_point_onto_segments(point: np.ndarray, starts: np.ndarray,
                                ends: np.ndarray
                                ) -> Tuple[np.ndarray, np.ndarray,
                                           np.ndarray]:
    """:func:`project_points` for one point: three ``(k,)`` arrays."""
    point = np.asarray(point, dtype=float)
    starts = _as_points(starts, "starts")
    ends = _as_points(ends, "ends", starts.shape[1])
    if point.shape != (starts.shape[1],):
        raise TrajectoryError(
            f"point dimension {point.shape} does not match segments "
            f"({starts.shape[1]})")
    distances, t_clamped, interior = project_points(
        point[None, :], Segments.of(starts, ends))
    return distances[0], t_clamped[0], interior[0]


def point_to_segments_distance(point: np.ndarray, starts: np.ndarray,
                               ends: np.ndarray) -> np.ndarray:
    """Distances only (see :func:`project_point_onto_segments`)."""
    distances, _, _ = project_point_onto_segments(point, starts, ends)
    return distances


def polyline_arc_length(points: np.ndarray) -> float:
    """Total length of a polyline given as (n, d) points."""
    points = _as_points(points, "points")
    if points.shape[0] < 2:
        return 0.0
    return float(np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1)))


def polyline_min_distance(poly_a: np.ndarray, poly_b: np.ndarray,
                          skip_a: np.ndarray | None = None,
                          skip_b: np.ndarray | None = None) -> float:
    """Approximate minimum distance between two polylines.

    Minimum over (vertices of A -> segments of B) and (vertices of B ->
    segments of A). Exact when the closest approach involves a vertex;
    for two skew interior points it overestimates slightly, which is
    acceptable for the separation *margin* metric (trajectories are
    densely sampled). ``skip_a``/``skip_b`` mask vertices to ignore as
    query points -- fault trajectories all pass through the golden origin,
    and that structural contact must not collapse the margin to zero.
    """
    poly_a = _as_points(poly_a, "poly_a")
    poly_b = _as_points(poly_b, "poly_b", poly_a.shape[1])
    if poly_a.shape[0] < 2 or poly_b.shape[0] < 2:
        raise TrajectoryError("polylines need at least 2 points")
    b_starts, b_ends = poly_b[:-1], poly_b[1:]
    a_starts, a_ends = poly_a[:-1], poly_a[1:]
    best = np.inf
    mask_a = np.ones(poly_a.shape[0], dtype=bool) if skip_a is None \
        else ~np.asarray(skip_a, dtype=bool)
    mask_b = np.ones(poly_b.shape[0], dtype=bool) if skip_b is None \
        else ~np.asarray(skip_b, dtype=bool)
    for keep, vertex in zip(mask_a, poly_a):
        if not keep:
            continue
        best = min(best, float(np.min(
            point_to_segments_distance(vertex, b_starts, b_ends))))
    for keep, vertex in zip(mask_b, poly_b):
        if not keep:
            continue
        best = min(best, float(np.min(
            point_to_segments_distance(vertex, a_starts, a_ends))))
    return best
