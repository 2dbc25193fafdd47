"""Fault trajectories: ordered signature points per deviated component.

Section 2.3: *"Crescent/De-crescent parametric deviations on components
within a given range shall produce a set of coordinate points in the plane
which can be connected, to compose what we define a fault trajectory."*

A :class:`FaultTrajectory` is the polyline of one component's parametric
sweep: points ordered by deviation, with the 0 % (golden) point included
-- the origin when the mapper is golden-relative. A :class:`TrajectorySet`
bundles one trajectory per component plus the construction metadata, and
is the object the diagnoser consumes.

:class:`TrajectoryLayout` is the one rule that turns fault rows into
trajectory vertices and segments: group rows by component, sort them by
deviation, insert the golden point at 0, chain consecutive vertices.
:meth:`TrajectorySet.from_source`, the GA's population scoring, the
metrics, the classifier and the posterior all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TrajectoryError
from ..faults.dictionary import FaultDictionary
from ..faults.models import ParametricFault
from ..faults.surface import ResponseSurface
from .mapping import SignatureMapper

__all__ = ["FaultTrajectory", "TrajectoryLayout", "TrajectorySet"]


@dataclass(frozen=True)
class FaultTrajectory:
    """One component's fault trajectory.

    ``deviations`` are sorted ascending and include 0.0 (the golden
    point); ``points`` is the matching (n_points, dimension) array.
    """

    component: str
    deviations: Tuple[float, ...]
    points: np.ndarray

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        deviations = tuple(float(d) for d in self.deviations)
        if points.ndim != 2 or points.shape[0] != len(deviations):
            raise TrajectoryError(
                f"{self.component}: points shape {points.shape} does not "
                f"match {len(deviations)} deviations")
        if len(deviations) < 2:
            raise TrajectoryError(
                f"{self.component}: a trajectory needs >= 2 points")
        if any(b <= a for a, b in zip(deviations, deviations[1:])):
            raise TrajectoryError(
                f"{self.component}: deviations must be strictly "
                f"increasing, got {deviations}")
        if not any(abs(d) < 1e-12 for d in deviations):
            raise TrajectoryError(
                f"{self.component}: trajectory must include the golden "
                "point (deviation 0)")
        object.__setattr__(self, "deviations", deviations)
        object.__setattr__(self, "points", points)

    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    @property
    def num_segments(self) -> int:
        return len(self.deviations) - 1

    @property
    def origin_index(self) -> int:
        """Index of the golden (0 %) point."""
        return int(np.argmin(np.abs(np.asarray(self.deviations))))

    def segments(self) -> Tuple[np.ndarray, np.ndarray]:
        """(starts, ends) arrays of the polyline segments."""
        return self.points[:-1], self.points[1:]

    def point_for(self, deviation: float) -> np.ndarray:
        """Signature point at a stored deviation (exact match)."""
        for index, stored in enumerate(self.deviations):
            if abs(stored - deviation) < 1e-12:
                return self.points[index]
        raise TrajectoryError(
            f"{self.component}: no stored point at deviation {deviation}; "
            f"have {self.deviations}")

    def interpolate_deviation(self, segment_index: int, t: float) -> float:
        """Deviation value at parameter ``t`` along one segment.

        This inverts the trajectory parameterisation: the diagnoser finds
        the nearest segment and foot parameter, and this maps it back to
        an estimated % deviation.
        """
        if not 0 <= segment_index < self.num_segments:
            raise TrajectoryError(
                f"{self.component}: segment index {segment_index} out of "
                f"range [0, {self.num_segments})")
        t = float(np.clip(t, 0.0, 1.0))
        d0 = self.deviations[segment_index]
        d1 = self.deviations[segment_index + 1]
        return d0 + t * (d1 - d0)

    def vertex_is_origin(self) -> np.ndarray:
        """Boolean mask marking the golden vertex (for metric exclusion)."""
        mask = np.zeros(len(self.deviations), dtype=bool)
        mask[self.origin_index] = True
        return mask


@dataclass(frozen=True)
class TrajectoryLayout:
    """Vertex and segment structure of a trajectory set.

    The structure is a function of the fault list (and the component
    filter) alone; only the vertex coordinates depend on the test
    vector. Vertices are stacked trajectory by trajectory, each
    trajectory's vertices in ascending deviation, so every trajectory
    owns a contiguous run of vertices and of segments:

    * ``rows`` -- each vertex's source row, or :attr:`GOLDEN` (-1) for
      the inserted golden vertex; ``deviations`` -- each vertex's
      deviation (0.0 at the golden vertex); ``is_origin`` -- the golden
      vertex of every trajectory;
    * ``seg_start``/``seg_end`` -- vertex indices of each segment's
      endpoints; ``owners`` -- each segment's trajectory index;
      ``seg_dev0``/``seg_dev1`` -- each segment's endpoint deviations;
    * ``vertex_offsets``/``segment_offsets`` -- ``(T + 1,)`` bounds of
      each trajectory's vertex and segment runs.
    """

    #: ``rows`` marker of an inserted golden vertex.
    GOLDEN = -1

    components: Tuple[str, ...]
    rows: np.ndarray
    deviations: np.ndarray
    is_origin: np.ndarray
    seg_start: np.ndarray
    seg_end: np.ndarray
    owners: np.ndarray
    seg_dev0: np.ndarray
    seg_dev1: np.ndarray
    vertex_offsets: np.ndarray
    segment_offsets: np.ndarray

    @classmethod
    def _chain(cls, components: Sequence[str],
               rows: Sequence[Sequence[int]],
               deviations: Sequence[Sequence[float]],
               origins: Sequence[int]) -> "TrajectoryLayout":
        """Stack per-trajectory vertex runs and chain them into
        segments (each run has >= 2 vertices)."""
        counts = np.array([len(run) for run in deviations])
        vertex_offsets = np.concatenate(([0], np.cumsum(counts)))
        segment_offsets = np.concatenate(([0], np.cumsum(counts - 1)))
        # Every vertex but the last of its run starts a segment.
        seg_start = np.delete(np.arange(vertex_offsets[-1]),
                              vertex_offsets[1:] - 1)
        all_deviations = np.concatenate(
            [np.asarray(run, dtype=float) for run in deviations])
        is_origin = np.zeros(all_deviations.size, dtype=bool)
        is_origin[vertex_offsets[:-1] + np.asarray(origins)] = True
        return cls(
            components=tuple(components),
            rows=np.concatenate([np.asarray(run, dtype=int)
                                 for run in rows]),
            deviations=all_deviations,
            is_origin=is_origin,
            seg_start=seg_start,
            seg_end=seg_start + 1,
            owners=np.repeat(np.arange(len(counts)), counts - 1),
            seg_dev0=all_deviations[seg_start],
            seg_dev1=all_deviations[seg_start + 1],
            vertex_offsets=vertex_offsets,
            segment_offsets=segment_offsets)

    @classmethod
    def from_faults(cls, faults: Sequence[object],
                    components: Optional[Sequence[str]] = None
                    ) -> "TrajectoryLayout":
        """Layout of the parametric faults in ``faults`` (row ``r`` is
        ``faults[r]``; other fault kinds are skipped).

        Trajectories follow first appearance, or ``components`` when
        given. Raises :class:`TrajectoryError` when a filtered component
        has no rows, when no parametric fault is left, on a 0 % fault
        (the golden point is inserted automatically) and on a repeated
        deviation.
        """
        groups: Dict[str, List[Tuple[float, int]]] = {}
        for row, fault in enumerate(faults):
            if isinstance(fault, ParametricFault):
                groups.setdefault(fault.component, []).append(
                    (fault.deviation, row))
        if components is not None:
            missing = set(components) - set(groups)
            if missing:
                raise TrajectoryError(
                    f"no parametric entries for {sorted(missing)}")
            groups = {name: groups[name] for name in components}
        if not groups:
            raise TrajectoryError(
                "source contains no parametric fault entries")
        rows, deviations, origins = [], [], []
        for component, pairs in groups.items():
            pairs = sorted(pairs, key=lambda item: item[0])
            run = [float(pair[0]) for pair in pairs]
            if any(abs(d) < 1e-12 for d in run):
                raise TrajectoryError(
                    f"{component}: dictionary contains a 0% 'fault'; the "
                    "golden point is inserted automatically")
            # Insert the golden point at deviation 0, between the
            # negative and positive halves of the sweep.
            insert_at = int(np.searchsorted(np.asarray(run), 0.0))
            run.insert(insert_at, 0.0)
            if any(b <= a for a, b in zip(run, run[1:])):
                raise TrajectoryError(
                    f"{component}: deviations must be strictly "
                    f"increasing, got {tuple(run)}")
            source = [pair[1] for pair in pairs]
            source.insert(insert_at, cls.GOLDEN)
            rows.append(source)
            deviations.append(run)
            origins.append(insert_at)
        return cls._chain(tuple(groups), rows, deviations, origins)

    @classmethod
    def of(cls, trajectories: Sequence[FaultTrajectory]
           ) -> "TrajectoryLayout":
        """Layout of built trajectories (a :class:`TrajectorySet`, say):
        ``rows`` index their stacked points, and each origin is the
        vertex nearest deviation 0."""
        counts = [len(t.deviations) for t in trajectories]
        return cls._chain(
            [t.component for t in trajectories],
            np.split(np.arange(sum(counts)), np.cumsum(counts)[:-1]),
            [t.deviations for t in trajectories],
            [t.origin_index for t in trajectories])

    def vertices(self, signatures: np.ndarray,
                 golden_point: np.ndarray) -> np.ndarray:
        """Vertex coordinates ``(V, ...)``: source row ``rows[v]`` of
        ``signatures`` (rows on the first axis), and ``golden_point``
        (broadcast against one row) at the golden vertices."""
        vertices = np.asarray(signatures, dtype=float)[self.rows]
        vertices[self.rows == self.GOLDEN] = golden_point
        return vertices


class TrajectorySet:
    """One fault trajectory per component, under a fixed mapper.

    Construction inserts the golden point at deviation 0 into every
    component's sweep, producing trajectories that all pass through the
    origin (for a golden-relative mapper) exactly as in the paper's
    figures.
    """

    def __init__(self, mapper: SignatureMapper,
                 trajectories: Sequence[FaultTrajectory]) -> None:
        if not trajectories:
            raise TrajectoryError("TrajectorySet needs >= 1 trajectory")
        dimension = trajectories[0].dimension
        names = [t.component for t in trajectories]
        if len(set(names)) != len(names):
            raise TrajectoryError(
                f"duplicate components in trajectory set: {names}")
        for trajectory in trajectories:
            if trajectory.dimension != dimension:
                raise TrajectoryError(
                    "all trajectories must share one signature dimension")
        if mapper.dimension != dimension:
            raise TrajectoryError(
                f"mapper dimension {mapper.dimension} does not match "
                f"trajectories ({dimension})")
        self.mapper = mapper
        self.trajectories: Tuple[FaultTrajectory, ...] = tuple(trajectories)
        self._by_component: Dict[str, FaultTrajectory] = {
            t.component: t for t in trajectories}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_source(cls, source: FaultDictionary | ResponseSurface,
                    mapper: SignatureMapper,
                    components: Optional[Sequence[str]] = None
                    ) -> "TrajectorySet":
        """Build trajectories from a dictionary or response surface.

        Only parametric-fault entries form trajectories (a trajectory is
        a parametric sweep by definition); entries of other fault kinds
        are ignored here and handled by the catastrophic classifier.
        The vertices are gathered through
        :meth:`TrajectoryLayout.from_faults`, which raises the
        construction errors.
        """
        dictionary = source.dictionary if isinstance(
            source, ResponseSurface) else source
        signature_matrix = mapper.signature_matrix(source)
        golden_point = mapper.golden_signature(source)
        layout = TrajectoryLayout.from_faults(
            [entry.fault for entry in dictionary.entries], components)
        vertices = layout.vertices(signature_matrix, golden_point)
        bounds = layout.vertex_offsets
        return cls(mapper, [
            FaultTrajectory(component,
                            tuple(layout.deviations[low:high].tolist()),
                            vertices[low:high])
            for component, low, high in zip(layout.components, bounds[:-1],
                                            bounds[1:])])

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self) -> Iterator[FaultTrajectory]:
        return iter(self.trajectories)

    def __getitem__(self, component: str) -> FaultTrajectory:
        try:
            return self._by_component[component]
        except KeyError:
            raise TrajectoryError(
                f"no trajectory for component {component!r}; have "
                f"{sorted(self._by_component)}") from None

    @property
    def components(self) -> Tuple[str, ...]:
        return tuple(t.component for t in self.trajectories)

    @property
    def dimension(self) -> int:
        return self.trajectories[0].dimension

    def all_segments(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All segments stacked: (starts, ends, owner_index).

        ``owner_index[i]`` is the index into :attr:`trajectories` owning
        segment ``i`` -- the flat layout the diagnoser's vectorised
        nearest-segment query works on (see :meth:`TrajectoryLayout.of`).
        """
        vertices = np.vstack([t.points for t in self.trajectories])
        layout = TrajectoryLayout.of(self.trajectories)
        return (vertices[layout.seg_start], vertices[layout.seg_end],
                layout.owners)
