"""Tests for trajectory metrics on hand-constructed configurations."""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TrajectoryError
from repro.tracing import TRACER
from repro.trajectory import (
    FaultTrajectory,
    SignatureMapper,
    TrajectorySet,
    count_common_pathways,
    count_intersections,
    evaluate_metrics,
    min_separation,
)
from repro.trajectory.geometry import _EPS, Segments, project_points
from repro.trajectory.metrics import (
    _OVERLAP_EPS_SCALE,
    conflict_counts_batch,
)


# ----------------------------------------------------------------------
# The per-vertex polyline oracle of the vectorised separation matrix
# ----------------------------------------------------------------------
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


def point_to_segments_distance(point: np.ndarray, starts: np.ndarray,
                               ends: np.ndarray) -> np.ndarray:
    """Distances from one point to each ``(start, end)`` segment."""
    distances, _, _ = project_points(
        np.asarray(point, dtype=float)[None, :], Segments.of(starts, ends))
    return distances[0]


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


def straight_trajectory(component, angle_deg, dim=2,
                        deviations=(-0.2, -0.1, 0.0, 0.1, 0.2)):
    """A straight trajectory through the origin at a given angle."""
    direction = np.zeros(dim)
    direction[0] = math.cos(math.radians(angle_deg))
    direction[1] = math.sin(math.radians(angle_deg))
    points = np.outer(np.asarray(deviations), direction)
    return FaultTrajectory(component, tuple(deviations), points)


def make_set(*trajectories):
    dim = trajectories[0].dimension
    mapper = SignatureMapper(tuple(100.0 * (i + 1) for i in range(dim)))
    return TrajectorySet(mapper, trajectories)


class TestIntersections:
    def test_star_configuration_no_crossings(self):
        """Trajectories fanning out of the origin touch only there."""
        star = make_set(straight_trajectory("A", 0.0),
                        straight_trajectory("B", 45.0),
                        straight_trajectory("C", 110.0))
        assert count_intersections(star) == 0

    def test_offset_crossing_detected(self):
        a = straight_trajectory("A", 0.0)
        # A V-shaped trajectory crossing A away from the origin.
        crossing_points = np.array([
            [0.05, -0.1], [0.075, -0.05], [0.1, 0.0], [0.125, 0.05],
            [0.15, 0.1]])
        # Shift so its own 0-deviation point passes through origin.
        crossing_points -= crossing_points[2]
        b = FaultTrajectory("B", (-0.2, -0.1, 0.0, 0.1, 0.2),
                            crossing_points + np.array([0.0, -0.001]))
        pair = make_set(a, b)
        assert count_intersections(pair) >= 1

    def test_single_trajectory_zero(self):
        single = make_set(straight_trajectory("A", 30.0))
        assert count_intersections(single) == 0

    def test_collinear_pair_counted_as_overlap_not_crossing(self):
        overlap = make_set(straight_trajectory("A", 0.0),
                           straight_trajectory("B", 0.0))
        assert count_intersections(overlap) == 0
        assert count_common_pathways(overlap) > 0

    def test_perpendicular_star_in_3d(self):
        a = straight_trajectory("A", 0.0, dim=3)
        b = straight_trajectory("B", 90.0, dim=3)
        assert count_intersections(make_set(a, b)) == 0

    def test_3d_near_contact_counts(self):
        a = straight_trajectory("A", 0.0, dim=3)
        # Identical pathway, microscopically displaced in z.
        points = a.points.copy()
        points[:, 2] += 1e-9
        b = FaultTrajectory("B", a.deviations, points)
        assert count_intersections(make_set(a, b)) == 1


class TestOverlaps:
    def test_identical_trajectories_overlap(self):
        overlap = make_set(straight_trajectory("A", 0.0),
                           straight_trajectory("B", 0.0))
        # 4 segments each, pairwise collinear overlapping.
        assert count_common_pathways(overlap) >= 4

    def test_distinct_angles_no_overlap(self):
        fan = make_set(straight_trajectory("A", 0.0),
                       straight_trajectory("B", 30.0))
        assert count_common_pathways(fan) == 0

    def test_3d_returns_zero(self):
        fan = make_set(straight_trajectory("A", 0.0, dim=3),
                       straight_trajectory("B", 0.0, dim=3))
        assert count_common_pathways(fan) == 0


class TestSeparations:
    def test_pairwise_keys(self):
        star = make_set(straight_trajectory("A", 0.0),
                        straight_trajectory("B", 90.0),
                        straight_trajectory("C", 45.0))
        separations = evaluate_metrics(star).per_pair_separation
        assert set(separations) == {("A", "B"), ("A", "C"), ("B", "C")}

    def test_perpendicular_star_separation(self):
        """For two perpendicular trajectories of half-length 0.2 with
        vertices every 0.1, the smallest non-origin vertex-to-segment
        distance is 0.1 (the +/-10% vertex to the other's origin)."""
        star = make_set(straight_trajectory("A", 0.0),
                        straight_trajectory("B", 90.0))
        assert min_separation(star) == pytest.approx(0.1)

    def test_parallel_offset_separation(self):
        a = straight_trajectory("A", 0.0)
        b_points = a.points + np.array([0.0, 0.05])
        # b no longer passes through origin; build by hand with its own
        # origin inserted at the shifted position? Keep golden at 0 dev:
        b = FaultTrajectory("B", a.deviations, b_points)
        pair = make_set(a, b)
        separations = evaluate_metrics(pair).per_pair_separation
        assert separations[("A", "B")] == pytest.approx(0.05)

    def test_min_separation_zero_when_crossing(self):
        a = straight_trajectory("A", 0.0)
        # A steep trajectory crossing the x-axis at x = +0.05 (away from
        # the origin, so the contact is a genuine crossing).
        points = np.array([
            [0.025, -0.11], [0.0375, -0.06], [0.05, -0.01],
            [0.0625, 0.04], [0.075, 0.09]])
        b = FaultTrajectory("B", a.deviations, points)
        pair = make_set(a, b)
        assert count_intersections(pair) >= 1
        assert min_separation(pair) == 0.0

    def test_single_trajectory_raises(self):
        single = make_set(straight_trajectory("A", 0.0))
        with pytest.raises(TrajectoryError, match="2 trajectories"):
            min_separation(single)


def _degenerate_set():
    """A is one 1e-7-long segment ending at its golden vertex (skipped
    as a query point). B's first vertex is 0.3 from that golden vertex
    and 0.3 + 1e-7 from A's other one, so only the snap to the nearer
    endpoint finds 0.3."""
    a = FaultTrajectory("A", (-0.1, 0.0), np.array(
        [[1.0, 1.0], [1.0 + 1e-7, 1.0]]))
    b = FaultTrajectory("B", (-0.1, 0.0), np.array(
        [[1.3 + 1e-7, 1.0], [1.3 + 1e-7, 5.0]]))
    return make_set(a, b)


class TestSeparationsMatchPolylines:
    """The vectorised vertex-to-segment matrix equals the per-vertex
    polyline distance (origin vertices skipped as query points)."""

    @staticmethod
    def _polyline_oracle(trajectories):
        members = trajectories.trajectories
        return {
            (a.component, b.component): polyline_min_distance(
                a.points, b.points, skip_a=a.vertex_is_origin(),
                skip_b=b.vertex_is_origin())
            for index, a in enumerate(members)
            for b in members[index + 1:]}

    def test_star(self):
        star = make_set(straight_trajectory("A", 0.0),
                        straight_trajectory("B", 90.0),
                        straight_trajectory("C", 30.0, dim=2))
        assert evaluate_metrics(star).per_pair_separation == \
            self._polyline_oracle(star)

    def test_biquad(self, biquad_trajectories):
        assert evaluate_metrics(biquad_trajectories) \
            .per_pair_separation == \
            self._polyline_oracle(biquad_trajectories)

    def test_degenerate_segment_snaps_to_nearer_endpoint(self):
        degenerate = _degenerate_set()
        separations = evaluate_metrics(degenerate).per_pair_separation
        assert separations == self._polyline_oracle(degenerate)
        assert separations[("A", "B")] == pytest.approx(0.3, abs=1e-12)


class TestEvaluateMetrics:
    def test_full_metrics(self):
        star = make_set(straight_trajectory("A", 0.0),
                        straight_trajectory("B", 90.0))
        metrics = evaluate_metrics(star)
        assert metrics.intersections == 0
        assert metrics.common_pathways == 0
        assert metrics.total_conflicts == 0
        assert metrics.min_separation == pytest.approx(0.1)
        assert metrics.per_pair_separation[("A", "B")] == pytest.approx(
            0.1)

    def test_conflicts_only_fast_path(self):
        star = make_set(straight_trajectory("A", 0.0),
                        straight_trajectory("B", 90.0))
        metrics = evaluate_metrics(star, include_separations=False)
        assert metrics.intersections == 0
        assert math.isnan(metrics.min_separation)
        assert metrics.per_pair_separation == {}

    def test_single_trajectory_metrics(self):
        single = make_set(straight_trajectory("A", 0.0))
        metrics = evaluate_metrics(single)
        assert metrics.intersections == 0
        assert math.isnan(metrics.min_separation)

    def test_biquad_set_is_finite(self, biquad_trajectories):
        metrics = evaluate_metrics(biquad_trajectories)
        assert metrics.intersections >= 0
        assert metrics.common_pathways >= 0
        assert metrics.min_separation >= 0.0
        assert metrics.mean_separation >= metrics.min_separation


# ----------------------------------------------------------------------
# Oracle: the per-member counter the vectorised kernel replaced, kept
# verbatim (an all-pairs orientation matrix plus a Python overlap loop).
# ----------------------------------------------------------------------
def _cross2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """z-component of the 2-D cross product, broadcasting over rows."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _pairwise_orientations(a_start: np.ndarray, a_end: np.ndarray,
                           b_start: np.ndarray, b_end: np.ndarray):
    """Orientation determinants for every (segment_a, segment_b) pair.

    Shapes: inputs (na, 2) and (nb, 2); outputs (na, nb).
    d1/d2: where a's endpoints lie relative to line b;
    d3/d4: where b's endpoints lie relative to line a.
    """
    b_dir = (b_end - b_start)[None, :, :]          # (1, nb, 2)
    a_dir = (a_end - a_start)[:, None, :]          # (na, 1, 2)
    d1 = _cross2(b_dir, a_start[:, None, :] - b_start[None, :, :])
    d2 = _cross2(b_dir, a_end[:, None, :] - b_start[None, :, :])
    d3 = _cross2(a_dir, b_start[None, :, :] - a_start[:, None, :])
    d4 = _cross2(a_dir, b_end[None, :, :] - a_start[:, None, :])
    return d1, d2, d3, d4


def _orientation_data(starts: np.ndarray, ends: np.ndarray,
                      owners: np.ndarray):
    """All-pairs orientation determinants + cross-trajectory mask."""
    d1, d2, d3, d4 = _pairwise_orientations(starts, ends, starts, ends)
    different = owners[:, None] != owners[None, :]
    lengths_sq = np.sum((ends - starts) ** 2, axis=1)
    scale = max(float(lengths_sq.max(initial=0.0)), _EPS)
    return d1, d2, d3, d4, different, scale


def _overlap_loop(collinear: np.ndarray, starts: np.ndarray,
                  ends: np.ndarray) -> int:
    """Positive-length 1-D interval overlap count over a collinear mask.

    The single implementation behind the scalar and batched overlap
    counters, so both are the same floating-point code path.
    """
    count = 0
    rows, cols = np.nonzero(collinear)
    for i, j in zip(rows, cols):
        direction = ends[i] - starts[i]
        norm = float(np.dot(direction, direction))
        if norm <= _EPS:
            continue
        s0 = float(np.dot(starts[j] - starts[i], direction)) / norm
        s1 = float(np.dot(ends[j] - starts[i], direction)) / norm
        lo = max(0.0, min(s0, s1))
        hi = min(1.0, max(s0, s1))
        if hi - lo > 1e-9:
            count += 1
    return count


def _counts_2d(starts: np.ndarray, ends: np.ndarray,
               d1: np.ndarray, d2: np.ndarray, d3: np.ndarray,
               d4: np.ndarray, different: np.ndarray,
               scale: float):
    """(crossings, overlaps) from shared orientation determinants."""
    eps = _EPS * scale
    crossing = (d1 * d2 < -eps) & (d3 * d4 < -eps) & different
    # The relation is symmetric; each unordered pair appears twice.
    intersections = int(np.count_nonzero(crossing) // 2)
    eps_overlap = _OVERLAP_EPS_SCALE * scale
    collinear = ((np.abs(d1) <= eps_overlap) &
                 (np.abs(d2) <= eps_overlap) &
                 (np.abs(d3) <= eps_overlap) &
                 (np.abs(d4) <= eps_overlap) & different)
    collinear = np.triu(collinear)  # unordered pairs once
    overlaps = _overlap_loop(collinear, starts, ends) \
        if np.any(collinear) else 0
    return intersections, overlaps


def oracle_counts(starts, ends, owners):
    """Per-member (intersections, overlaps) from the oracle."""
    counts = [_counts_2d(s, e, *_orientation_data(s, e, owners))
              for s, e in zip(starts, ends)]
    crossings, overlaps = zip(*counts)
    return np.array(crossings), np.array(overlaps)


#: Vertex layouts the batch strategy draws from: GA-like fans through a
#: shared origin, everything on one line (exactly, or nudged across the
#: tolerances), short parallel lines far from the origin just inside or
#: just past the collinearity bound, rays from the origin rotated to
#: just inside or just past the kernel's padded polar sectors, lines
#: through or a hair off the origin, polylines across the negative x
#: axis (the sectors' +-pi cut, with +0.0 and -0.0 on it), integer and
#: rounded grids (exact touching, collinearity and ties) and
#: unconstrained floats.
KINDS = ("fan", "collinear", "near_collinear", "past_box", "past_sector",
         "near_origin", "angle_cut", "integer", "rounded", "float")


@st.composite
def segment_batches(draw):
    """(starts, ends, owners) of K polyline sets sharing one layout.

    Every trajectory is a polyline of 1..4 segments; ``repeat`` copies a
    vertex onto its successor to make zero-length segments.
    """
    kind = draw(st.sampled_from(KINDS))
    members = draw(st.integers(1, 4))
    segments = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    ticks = st.integers(-4, 4)
    # past_box: short unit-step segments along one axis, far from the
    # origin. With every length L, the collinearity bound eps_overlap is
    # 1e-9 L^2, so trajectories stacked 1e-9 L (1 +- small) apart
    # across the axis sit just inside or just past it, as do bounding
    # boxes padded by eps_overlap / L.
    if kind == "past_box":
        axis = draw(st.integers(0, 1))
        step = 10.0 ** -draw(st.integers(0, 4))
        offset = draw(st.sampled_from((0.0, 1e3, -2.5e5, 3e7)))
        gap = 1e-9 * step * (1.0 + draw(st.integers(-3, 3)) *
                             10.0 ** -draw(st.integers(1, 9)))
    # past_sector: each trajectory a ray of equal steps L from the
    # origin, the next one rotated by 1e-9 (1 +- small): rays sharing
    # the origin are collinear within eps_overlap = 1e-9 L^2 when their
    # angle is below 1e-9. Six times that, each ray's sector pad is
    # 3e-9, so their sectors just meet or just miss.
    if kind == "past_sector":
        base = draw(st.floats(-math.pi, math.pi))
        length = 10.0 ** draw(st.integers(-3, 3))
        turn = 1e-9 * draw(st.sampled_from((1.0, 6.0))) * (
            1.0 + draw(st.integers(-3, 3)) *
            10.0 ** -draw(st.integers(1, 9)))
    vertices = []
    for _ in range(members):
        member = []
        for trajectory, count in enumerate(segments):
            points = count + 1
            if kind == "past_box":
                start = draw(ticks)
                direction = draw(st.sampled_from((-1, 1)))
                along = offset + step * (start + direction *
                                         np.arange(points))
                across = np.full(points, trajectory * gap)
                line = np.column_stack((along, across) if axis == 0
                                       else (across, along))
            elif kind == "past_sector":
                angle = base + trajectory * turn
                steps = np.arange(points)[::draw(st.sampled_from((-1, 1)))]
                line = np.outer(length * steps,
                                (math.cos(angle), math.sin(angle)))
            elif kind == "near_origin":
                # Along a line through the origin, each vertex nudged
                # off it by 0 or by about 1e-12 of the coordinates.
                direction = draw(st.tuples(ticks, ticks))
                nudge = st.builds(lambda m, p: m * 10.0 ** -p,
                                  st.integers(-3, 3), st.integers(11, 14))
                line = np.outer(draw(st.lists(
                    ticks, min_size=points, max_size=points)), direction) + \
                    np.outer(draw(st.lists(nudge, min_size=points,
                                           max_size=points)),
                             (-direction[1], direction[0]))
            elif kind == "angle_cut":
                line = np.column_stack((
                    draw(st.lists(st.integers(-4, 0), min_size=points,
                                  max_size=points)),
                    draw(st.lists(st.sampled_from(
                        (0.0, -0.0, 1e-12, -1e-12, 0.5, -0.5, 2.0, -2.0)),
                        min_size=points, max_size=points))))
            elif kind == "fan":
                direction = draw(st.tuples(ticks, ticks))
                scales = draw(st.lists(ticks, min_size=points,
                                       max_size=points))
                scales[draw(st.integers(0, count))] = 0
                line = np.outer(scales, direction)
            elif kind == "collinear":
                line = np.outer(draw(st.lists(
                    ticks, min_size=points, max_size=points)), (3.0, -1.5))
                line += (0.25, 2.0)
            elif kind == "near_collinear":
                # Off the line and along it by amounts that straddle the
                # collinearity and positive-overlap tolerances.
                nudge = st.builds(lambda m, p: m * 10.0 ** -p,
                                  st.integers(-3, 3), st.integers(6, 11))
                along = [t + n for t, n in zip(
                    draw(st.lists(ticks, min_size=points,
                                  max_size=points)),
                    draw(st.lists(nudge, min_size=points,
                                  max_size=points)))]
                across = draw(st.lists(nudge, min_size=points,
                                       max_size=points))
                line = np.outer(along, (3.0, -1.5)) + \
                    np.outer(across, (1.5, 3.0)) + (0.25, 2.0)
            else:
                values = {
                    "integer": ticks,
                    "rounded": st.integers(-20, 20).map(lambda v: v / 10),
                    "float": st.floats(-10.0, 10.0, allow_nan=False),
                }[kind]
                line = np.array(draw(st.lists(
                    values, min_size=2 * points,
                    max_size=2 * points))).reshape(points, 2)
            line = np.asarray(line, dtype=float)
            for index in range(1, points):
                if draw(st.booleans()) and draw(st.booleans()):
                    line[index] = line[index - 1]
            member.append(line)
        vertices.append(member)
    starts = np.array([np.vstack([line[:-1] for line in member])
                       for member in vertices])
    ends = np.array([np.vstack([line[1:] for line in member])
                     for member in vertices])
    owners = np.repeat(np.arange(len(segments)), segments)
    return starts, ends, owners


@st.composite
def wide_segment_batches(draw):
    """A :func:`segment_batches` batch widened to 129..300 members.

    Each member is a copy of a drawn member under a random exact
    transform (axis swap, sign flips, a power-of-two scale), so the
    batch spans several default chunks while keeping the drawn kinds'
    exact touching, collinearity and ties.
    """
    starts, ends, owners = draw(segment_batches())
    count = draw(st.integers(129, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    source = rng.integers(0, len(starts), count)
    swap = rng.random(count) < 0.5
    signs = rng.choice((-1.0, 1.0), size=(count, 1, 2))
    scales = 2.0 ** rng.integers(-3, 4, size=(count, 1, 1))

    def widen(plane):
        plane = plane[source]
        plane[swap] = plane[swap][..., ::-1]
        return plane * signs * scales

    return widen(starts), widen(ends), owners


class TestConflictKernel:
    @settings(max_examples=300, deadline=None)
    @given(segment_batches())
    def test_batch_equals_per_member_oracle(self, batch):
        starts, ends, owners = batch
        intersections, overlaps = conflict_counts_batch(starts, ends,
                                                        owners)
        expected_i, expected_o = oracle_counts(starts, ends, owners)
        assert np.array_equal(intersections, expected_i)
        assert np.array_equal(overlaps, expected_o)

    @settings(max_examples=50, deadline=None)
    @given(segment_batches(), st.integers(1, 3))
    def test_chunk_size_does_not_change_counts(self, batch, chunk_size):
        starts, ends, owners = batch
        whole = conflict_counts_batch(starts, ends, owners)
        chunked = conflict_counts_batch(starts, ends, owners,
                                        chunk_size=chunk_size)
        assert np.array_equal(whole[0], chunked[0])
        assert np.array_equal(whole[1], chunked[1])

    @pytest.mark.slow
    @settings(max_examples=40, deadline=None)
    @given(wide_segment_batches())
    def test_multi_chunk_batch_equals_oracle(self, batch):
        starts, ends, owners = batch
        intersections, overlaps = conflict_counts_batch(starts, ends,
                                                        owners)
        expected_i, expected_o = oracle_counts(starts, ends, owners)
        assert np.array_equal(intersections, expected_i)
        assert np.array_equal(overlaps, expected_o)

    # Member 4 overflows on purpose, in the kernel and in the oracle.
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("chunk_size", [1, 2, None])
    def test_pruning_is_per_member(self, chunk_size):
        """One chunk whose members need different pairs evaluated.

        Two trajectories of two segments each. Member 0: the first
        segments cross. Member 1: the same pair's sectors are disjoint,
        so only member 0 needs that pair. Member 2: the first segments
        overlap collinearly on [1, 2]. Member 3: a zero-length segment
        (every angle) on the extension of the other trajectory's first
        segment, which reaches the overlap projection and counts
        nothing. Member 4: a segment whose squared length overflows
        makes the collinearity bound infinite, so the first segments,
        parallel with disjoint sectors, count as a common pathway; only
        the overflow giving every segment every angle keeps them from
        being pruned.
        """
        members = [
            ([(0, 0), (2, 2), (4, 2)], [(0, 2), (2, 0), (4, 0)]),
            ([(0, 0), (2, 2), (4, 2)], [(10, -12), (12, -10), (14, -10)]),
            ([(0, 0), (2, 0), (4, 1)], [(1, 0), (3, 0), (3, -5)]),
            ([(0, 0), (2, 2), (2, 2)], [(5, 5), (7, 7), (9, 0)]),
            ([(0, 0), (1, 0), (1e154, 1e154)], [(0, 5), (1, 5), (2, 5)]),
        ]
        lines = np.array(members, dtype=float)        # (K, T, 3, 2)
        starts = lines[:, :, :-1].reshape(len(members), -1, 2)
        ends = lines[:, :, 1:].reshape(len(members), -1, 2)
        owners = np.array([0, 0, 1, 1])
        options = {} if chunk_size is None else {"chunk_size": chunk_size}
        intersections, overlaps = conflict_counts_batch(starts, ends,
                                                        owners, **options)
        assert intersections.tolist() == [1, 0, 0, 0, 0]
        assert overlaps.tolist() == [0, 0, 1, 0, 1]
        expected_i, expected_o = oracle_counts(starts, ends, owners)
        assert np.array_equal(intersections, expected_i)
        assert np.array_equal(overlaps, expected_o)

    def test_sectors_prune_every_case_of_a_star(self):
        """Rays leaving the origin in different directions share no
        angle, so the sector test evaluates none of their cases (a
        segment ending at the origin takes its far end's angle)."""
        star = make_set(straight_trajectory("A", 20.0),
                        straight_trajectory("B", 65.0),
                        straight_trajectory("C", 130.0))
        with _kernel_spans() as spans:
            assert count_intersections(star) == 0
        [span] = spans
        assert span.attrs["candidates"] == 1
        assert span.attrs["pairs"] == span.attrs["cases"] == 3 * 4 * 4
        assert span.attrs["evaluated"] == 0

    def test_scalar_counts_equal_batch_on_biquad(self,
                                                 biquad_trajectories):
        metrics = evaluate_metrics(biquad_trajectories,
                                   include_separations=False)
        starts, ends, owners = biquad_trajectories.all_segments()
        intersections, overlaps = conflict_counts_batch(
            starts[None], ends[None], owners)
        assert metrics.intersections == intersections[0]
        assert metrics.common_pathways == overlaps[0]
        assert count_intersections(biquad_trajectories) == \
            intersections[0]
        assert count_common_pathways(biquad_trajectories) == overlaps[0]

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_chunk_size_below_one_raises(self, chunk_size):
        starts = np.zeros((2, 2, 2))
        ends = np.ones((2, 2, 2))
        with pytest.raises(TrajectoryError, match="chunk_size"):
            conflict_counts_batch(starts, ends, np.array([0, 1]),
                                  chunk_size=chunk_size)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_batch_raises(self, bad):
        starts = np.zeros((2, 2, 2))
        ends = np.ones((2, 2, 2))
        ends[1, 0, 1] = bad
        with pytest.raises(TrajectoryError, match="finite"):
            conflict_counts_batch(starts, ends, np.array([0, 1]))

    def test_non_finite_set_raises(self):
        broken = straight_trajectory("B", 90.0)
        points = broken.points.copy()
        points[-1, 0] = np.nan
        nan_set = make_set(straight_trajectory("A", 0.0),
                           FaultTrajectory("B", broken.deviations, points))
        for count in (count_intersections, count_common_pathways):
            with pytest.raises(TrajectoryError, match="finite"):
                count(nan_set)
        with pytest.raises(TrajectoryError, match="finite"):
            evaluate_metrics(nan_set, include_separations=False)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_non_finite_separations_raise(self, dim):
        """A nan vertex would vanish from every minimum; the separation
        pass rejects it in any dimension, like the conflict kernel."""
        a = straight_trajectory("A", 0.0, dim=max(dim, 2))
        b = straight_trajectory("B", 90.0, dim=max(dim, 2))
        points = b.points[:, :dim].copy()
        points[0, 0] = np.nan
        nan_set = make_set(
            FaultTrajectory("A", a.deviations, a.points[:, :dim]),
            FaultTrajectory("B", b.deviations, points))
        for measure in (min_separation, evaluate_metrics):
            with pytest.raises(TrajectoryError, match="finite"):
                measure(nan_set)


@contextmanager
def _kernel_spans():
    """The ``trajectory.conflicts`` spans finished inside the block."""
    spans = []

    def sink(span):
        if span.name == "trajectory.conflicts":
            spans.append(span)

    TRACER.add_sink(sink)
    try:
        yield spans
    finally:
        TRACER.remove_sink(sink)


@contextmanager
def _recorded_kernel_inputs():
    """The ``(name, starts, ends, owners)`` arrays handed to the kernel
    inside the block, ``name`` read from the recorder's ``name``."""
    from repro.trajectory import metrics

    batches = []
    kernel = metrics.conflict_counts_batch

    def record(starts, ends, owners, *args, **kwargs):
        batches.append((record.name, starts, ends, owners))
        return kernel(starts, ends, owners, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "conflict_counts_batch", record)
        yield record, batches


def _paper_search(name):
    """Paper-config fitness and frequency space of a paper circuit, as
    :class:`FaultTrajectoryATPG` builds them."""
    from repro import PipelineConfig
    from repro.circuits.library import get_benchmark
    from repro.core.atpg import FaultTrajectoryATPG
    from repro.faults.surface import ResponseSurface
    from repro.ga.encoding import FrequencySpace

    config = PipelineConfig.paper()
    info = get_benchmark(name)
    atpg = FaultTrajectoryATPG(info, config)
    _, dictionary = atpg.build_dictionary()
    fitness = atpg.make_fitness(ResponseSurface(dictionary))
    space = FrequencySpace(info.f_min_hz, info.f_max_hz,
                           config.num_frequencies)
    return config, fitness, space


def _generation_zero_batches():
    """Each paper circuit's generation-0 GA population as kernel input.

    ``GeneticAlgorithm.run(seed)`` draws its first population with
    ``space.random_population(default_rng(seed), population_size)``;
    scoring that population records the ``(starts, ends, owners)``
    arrays :class:`~repro.ga.fitness.PaperFitness` hands the kernel.
    """
    from repro.circuits.library import BENCHMARK_CIRCUITS

    with _recorded_kernel_inputs() as (recorder, batches):
        for index, name in enumerate(BENCHMARK_CIRCUITS):
            recorder.name = name
            config, fitness, space = _paper_search(name)
            population = space.random_population(
                np.random.default_rng(2005 + index),
                config.ga.population_size)
            fitness.score_population(space.decode_population(population))
    return batches


def _every_generation_batches(names):
    """Every uncached batch a whole paper-config GA search of each named
    circuit scores (one kernel call per generation), recorded as
    :func:`_generation_zero_batches` records generation 0, and each
    search's count of scored candidates."""
    from repro.circuits.library import BENCHMARK_CIRCUITS
    from repro.ga import GeneticAlgorithm

    evaluations = {}
    with _recorded_kernel_inputs() as (recorder, batches):
        for name in names:
            recorder.name = name
            index = list(BENCHMARK_CIRCUITS).index(name)
            config, fitness, space = _paper_search(name)
            GeneticAlgorithm(space, fitness, config.ga).run(
                seed=2005 + index)
            evaluations[name] = fitness.evaluations
    return batches, evaluations


class TestConflictKernelOnPaperPopulations:
    """The kernel against the all-pairs oracle on real GA inputs."""

    @pytest.fixture(scope="class")
    def batches(self):
        return [(name, starts, ends, owners,
                 oracle_counts(starts, ends, owners))
                for name, starts, ends, owners
                in _generation_zero_batches()]

    def test_every_paper_circuit_is_covered(self, batches):
        from repro.circuits.library import BENCHMARK_CIRCUITS
        assert [name for name, *_ in batches] == list(BENCHMARK_CIRCUITS)
        assert all(len(starts) == 128 for _, starts, *_ in batches)

    @pytest.mark.parametrize("chunk_size", [1, 7, None, 129])
    def test_counts_equal_oracle(self, batches, chunk_size):
        options = {} if chunk_size is None else {"chunk_size": chunk_size}
        for name, starts, ends, owners, expected in batches:
            intersections, overlaps = conflict_counts_batch(
                starts, ends, owners, **options)
            expected_i, expected_o = expected
            assert np.array_equal(intersections, expected_i), name
            assert np.array_equal(overlaps, expected_o), name

    def test_kernel_span_reports_the_pruning(self):
        """Scoring a population records one ``trajectory.conflicts``
        span per kernel call, with the cases its sector test kept."""
        config, fitness, space = _paper_search("tow_thomas_biquad")
        population = space.random_population(
            np.random.default_rng(2005), config.ga.population_size)
        with _kernel_spans() as spans:
            fitness.score_population(space.decode_population(population))
        [span] = spans
        attrs = span.attrs
        assert attrs["candidates"] == config.ga.population_size
        assert attrs["cases"] == attrs["pairs"] * attrs["candidates"]
        assert 0 < attrs["evaluated"] <= attrs["cases"]


class TestConflictKernelOnWholeSearches:
    """The kernel against the oracle on every generation's uncached
    batch of the two paper circuits with the most segments."""

    NAMES = ("rc_ladder", "khn_state_variable")

    @pytest.fixture(scope="class")
    def recorded(self):
        return _every_generation_batches(self.NAMES)

    def test_every_generation_is_covered(self, recorded):
        from repro import PipelineConfig

        batches, evaluations = recorded
        generations = PipelineConfig.paper().ga.generations
        for name in self.NAMES:
            sizes = [len(starts) for batch_name, starts, *_ in batches
                     if batch_name == name]
            assert len(sizes) == generations, name
            assert sum(sizes) == evaluations[name], name

    def test_counts_equal_oracle(self, recorded):
        for name, starts, ends, owners in recorded[0]:
            intersections, overlaps = conflict_counts_batch(starts, ends,
                                                            owners)
            expected_i, expected_o = oracle_counts(starts, ends, owners)
            assert np.array_equal(intersections, expected_i), name
            assert np.array_equal(overlaps, expected_o), name
