"""Computational geometry for fault trajectories.

**n-D point/segment projection** -- diagnosis drops perpendiculars from
an observed fault point onto trajectory segments; this works in any
signature dimension, so the n-frequency extension reuses the same code.
:func:`project_points` is the one projection kernel: the hard
classifier, the posterior tier (one segment set per Monte-Carlo world)
and the separation metric all call it. The 2-D crossing and overlap
tests of the paper's fitness live in one batched kernel,
:func:`repro.trajectory.metrics.conflict_counts_batch`.

All functions take plain numpy arrays: points are rows, segments are
(start, end) row pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import TrajectoryError

__all__ = [
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
    return _project(points.reshape(
        (points.shape[0],) + (1,) * lead + (points.shape[1],)), segments)


def _project(points: np.ndarray, segments: Segments
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`project_points` on ``points`` already shaped to broadcast
    against the segments' ``(..., S, D)`` arrays."""
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
