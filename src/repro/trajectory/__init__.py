"""Fault-trajectory machinery: signature mapping, trajectories, geometry."""

from .mapping import SignatureMapper
from .metrics import (
    TrajectoryMetrics,
    count_common_pathways,
    count_intersections,
    evaluate_metrics,
    min_separation,
)
from .trajectory import FaultTrajectory, TrajectoryLayout, TrajectorySet

__all__ = [
    "SignatureMapper",
    "FaultTrajectory",
    "TrajectoryLayout",
    "TrajectorySet",
    "TrajectoryMetrics",
    "count_intersections",
    "count_common_pathways",
    "min_separation",
    "evaluate_metrics",
]
