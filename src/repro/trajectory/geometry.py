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
]

# Orientation values with magnitude below this (relative to the segment
# scale) are treated as exactly collinear. Signature coordinates are dB
# differences of order 0.1..10, so 1e-12 is far below physical meaning.
_EPS = 1e-12


@dataclass(frozen=True)
class Segments:
    """Segment arrays precomputed once for :func:`project_points`.

    ``starts``/``ends``/``direction`` are ``(D, ..., S)``: one
    contiguous plane per coordinate, so the kernel's elementwise loops
    run along the segments and every coordinate sum is written out in
    one order, whatever layout the caller's arrays had. ``proper``
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
        """Planes of ``(..., S, D)`` start and end arrays."""
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        if starts.ndim < 2 or starts.shape != ends.shape:
            raise TrajectoryError(
                f"segment starts/ends must be matching (..., S, D) "
                f"arrays, got {starts.shape} and {ends.shape}")
        starts = np.ascontiguousarray(np.moveaxis(starts, -1, 0))
        ends = np.ascontiguousarray(np.moveaxis(ends, -1, 0))
        direction = ends - starts
        length_sq = _dot(direction, direction)
        proper = length_sq > _EPS
        return cls(starts, ends, direction, proper,
                   np.where(proper, length_sq, 1.0),
                   bool(not proper.all()))


def _dot(left, right) -> np.ndarray:
    """``left[0]*right[0] + left[1]*right[1] + ...``, summed left to
    right over the coordinate planes (no reduction whose order depends
    on memory layout)."""
    total = left[0] * right[0]
    for a, b in zip(left[1:], right[1:]):
        total += a * b
    return total


def _norm(delta) -> np.ndarray:
    return np.sqrt(_dot(delta, delta))


def project_points(points: np.ndarray, segments: Segments
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Perpendicular projection of N points onto many n-D segments.

    ``points`` is ``(N, D)`` and ``segments`` holds ``(..., S)``
    planes. Returns ``(distances, t_clamped, interior)``, each of shape
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
    lead = segments.proper.ndim
    return _project(points.reshape(
        (points.shape[0],) + (1,) * lead + (points.shape[1],)), segments)


def _project(points: np.ndarray, segments: Segments
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`project_points` on ``(..., D)`` points whose coordinate
    planes ``points[..., d]`` already broadcast against the segments'
    ``(..., S)`` planes."""
    coords = [points[..., d] for d in range(points.shape[-1])]
    diff = [x - start for x, start in zip(coords, segments.starts)]
    t_raw = _dot(diff, segments.direction)
    t_raw /= segments.safe_length_sq
    interior = (t_raw > 0.0) & (t_raw < 1.0)
    if segments.any_degenerate:
        interior &= segments.proper
        nearer_end = _norm([x - end for x, end in
                            zip(coords, segments.ends)]) < _norm(diff)
        t_raw = np.where(segments.proper, t_raw,
                         np.where(nearer_end, 1.0, 0.0))
    t_clamped = np.clip(t_raw, 0.0, 1.0, out=t_raw)
    # The distance to the foot, squared and summed plane by plane in
    # place: the same expressions as _norm(x - (start + t * direction)).
    total = None
    for x, start, direction in zip(coords, segments.starts,
                                   segments.direction):
        gap = t_clamped * direction
        gap += start
        np.subtract(x, gap, out=gap)
        gap *= gap
        if total is None:
            total = gap
        else:
            total += gap
    return np.sqrt(total, out=total), t_clamped, interior
