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
