"""Tests for trajectory geometry primitives, incl. property-based ones.

The 2-D crossing and overlap cases run through the one conflict kernel,
:func:`repro.trajectory.metrics.conflict_counts_batch`, on two-trajectory
sets: trajectory 0 holds segments ``a`` and trajectory 1 segments ``b``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TrajectoryError
from repro.trajectory.geometry import Segments, project_points
from repro.trajectory.metrics import conflict_counts_batch

from test_metrics import polyline_min_distance


def seg(*pairs):
    """Build (starts, ends) arrays from ((x0,y0),(x1,y1)) tuples."""
    starts = np.array([p[0] for p in pairs], dtype=float)
    ends = np.array([p[1] for p in pairs], dtype=float)
    return starts, ends


def project(point, starts, ends):
    """``project_points`` for one point: three ``(k,)`` arrays."""
    distances, t, interior = project_points(
        np.asarray(point, dtype=float)[None, :], Segments.of(starts, ends))
    return distances[0], t[0], interior[0]


def conflicts(a, b):
    """(crossings, overlaps) between the segments of a and of b."""
    starts = np.vstack([a[0], b[0]])[None]
    ends = np.vstack([a[1], b[1]])[None]
    owners = np.repeat([0, 1], [len(a[0]), len(b[0])])
    crossings, overlaps = conflict_counts_batch(starts, ends, owners)
    assert crossings.shape == overlaps.shape == (1,)
    return int(crossings[0]), int(overlaps[0])


def count_crossings(a, b):
    return conflicts(a, b)[0]


def count_overlaps(a, b):
    return conflicts(a, b)[1]


class TestCrossings:
    def test_x_cross(self):
        a = seg(((0, 0), (1, 1)))
        b = seg(((0, 1), (1, 0)))
        assert count_crossings(a, b) == 1

    def test_parallel_no_cross(self):
        a = seg(((0, 0), (1, 0)))
        b = seg(((0, 1), (1, 1)))
        assert count_crossings(a, b) == 0

    def test_shared_endpoint_not_a_crossing(self):
        """Trajectories emanating from the origin touch there; the
        strict test must not count that contact."""
        a = seg(((0, 0), (1, 1)))
        b = seg(((0, 0), (1, -1)))
        assert count_crossings(a, b) == 0

    def test_t_touch_not_a_crossing(self):
        # b's endpoint lies on a's interior: not a proper crossing.
        a = seg(((0, 0), (2, 0)))
        b = seg(((1, 0), (1, 1)))
        assert count_crossings(a, b) == 0

    def test_collinear_overlap_not_a_crossing(self):
        a = seg(((0, 0), (2, 0)))
        b = seg(((1, 0), (3, 0)))
        assert count_crossings(a, b) == 0

    def test_multiple_crossings_counted(self):
        # A zig-zag crossing a horizontal line twice.
        a = seg(((0, 0), (2, 0)))
        b = seg(((0.2, -1), (0.8, 1)), ((0.8, 1), (1.4, -1)))
        assert count_crossings(a, b) == 2

    def test_counts_are_symmetric(self):
        """Swapping the two trajectories changes no count."""
        a = seg(((0, 0), (1, 1)), ((1, 1), (2, 0)))
        b = seg(((0, 1), (1, 0)), ((0, 0.5), (2, 0.5)))
        assert conflicts(a, b) == conflicts(b, a) == (3, 0)

    def test_dimension_checked(self):
        with pytest.raises(TrajectoryError):
            conflict_counts_batch(np.zeros((1, 2, 3)), np.ones((1, 2, 3)),
                                  np.array([0, 1]))

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 5))
    @settings(max_examples=50)
    def test_translation_invariance(self, dx, dy, scale):
        """Crossing count is invariant under translation and scaling."""
        a = seg(((0, 0), (1, 1)))
        b = seg(((0, 1), (1, 0)))
        offset = np.array([dx, dy])
        a2 = (a[0] * scale + offset, a[1] * scale + offset)
        b2 = (b[0] * scale + offset, b[1] * scale + offset)
        assert count_crossings(a2, b2) == 1


class TestOverlaps:
    def test_partial_overlap(self):
        a = seg(((0, 0), (2, 0)))
        b = seg(((1, 0), (3, 0)))
        assert count_overlaps(a, b) == 1

    def test_identical_segments(self):
        a = seg(((0, 0), (1, 1)))
        assert count_overlaps(a, a) == 1

    def test_collinear_but_disjoint(self):
        a = seg(((0, 0), (1, 0)))
        b = seg(((2, 0), (3, 0)))
        assert count_overlaps(a, b) == 0

    def test_collinear_touching_at_point(self):
        a = seg(((0, 0), (1, 0)))
        b = seg(((1, 0), (2, 0)))
        assert count_overlaps(a, b) == 0

    def test_crossing_segments_not_overlap(self):
        a = seg(((0, 0), (1, 1)))
        b = seg(((0, 1), (1, 0)))
        assert count_overlaps(a, b) == 0


class TestProjection:
    def test_interior_foot(self):
        starts = np.array([[0.0, 0.0]])
        ends = np.array([[2.0, 0.0]])
        distances, t, interior = project(
            np.array([1.0, 1.0]), starts, ends)
        assert distances[0] == pytest.approx(1.0)
        assert t[0] == pytest.approx(0.5)
        assert interior[0]

    def test_beyond_end_clamps(self):
        starts = np.array([[0.0, 0.0]])
        ends = np.array([[1.0, 0.0]])
        distances, t, interior = project(
            np.array([3.0, 0.0]), starts, ends)
        assert distances[0] == pytest.approx(2.0)
        assert t[0] == pytest.approx(1.0)
        assert not interior[0]

    def test_before_start_clamps(self):
        starts = np.array([[0.0, 0.0]])
        ends = np.array([[1.0, 0.0]])
        distances, t, interior = project(
            np.array([-2.0, 0.0]), starts, ends)
        assert distances[0] == pytest.approx(2.0)
        assert t[0] == pytest.approx(0.0)
        assert not interior[0]

    def test_degenerate_zero_length_segment(self):
        starts = np.array([[1.0, 1.0]])
        ends = np.array([[1.0, 1.0]])
        distances, t, interior = project(
            np.array([4.0, 5.0]), starts, ends)
        assert distances[0] == pytest.approx(5.0)
        assert not interior[0]

    def test_works_in_3d(self):
        starts = np.array([[0.0, 0.0, 0.0]])
        ends = np.array([[0.0, 0.0, 2.0]])
        distances, t, interior = project(
            np.array([1.0, 0.0, 1.0]), starts, ends)
        assert distances[0] == pytest.approx(1.0)
        assert interior[0]

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
           st.lists(st.floats(-10, 10), min_size=2, max_size=2),
           st.lists(st.floats(-10, 10), min_size=2, max_size=2))
    @settings(max_examples=80)
    def test_distance_bounded_by_endpoints(self, p, a, b):
        """Distance to a segment never exceeds the distance to either
        endpoint (property of the closest-point projection)."""
        point = np.array(p)
        starts = np.array([a])
        ends = np.array([b])
        distance = project(point, starts, ends)[0][0]
        to_start = np.linalg.norm(point - starts[0])
        to_end = np.linalg.norm(point - ends[0])
        assert distance <= min(to_start, to_end) + 1e-9

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
           st.lists(st.floats(-10, 10), min_size=2, max_size=2),
           st.floats(0.0, 1.0))
    @settings(max_examples=80)
    def test_point_on_segment_has_zero_distance(self, a, b, t):
        starts = np.array([a])
        ends = np.array([b])
        point = starts[0] + t * (ends[0] - starts[0])
        distance = project(point, starts, ends)[0][0]
        direction = ends[0] - starts[0]
        length_sq = float(np.dot(direction, direction))
        if length_sq <= 1e-12:
            # Below the degeneracy threshold (geometry._EPS, gated on
            # the squared length exactly as here) the segment is
            # treated as a point at its start, so the distance can be
            # as large as the segment itself.
            assert distance <= np.sqrt(length_sq) + 1e-12
        else:
            scale = max(np.sqrt(length_sq), 1.0)
            assert distance <= 1e-9 * scale + 1e-12


class TestPolylines:
    """The per-vertex polyline distance the separation metric is
    checked against (its oracle in ``test_metrics``)."""

    def test_min_distance_parallel_lines(self):
        a = np.array([[0, 0], [1, 0], [2, 0]], dtype=float)
        b = a + np.array([0.0, 0.5])
        assert polyline_min_distance(a, b) == pytest.approx(0.5)

    def test_min_distance_crossing_is_small(self):
        a = np.array([[0, 0], [2, 2]], dtype=float)
        b = np.array([[0, 2], [2, 0]], dtype=float)
        # Vertex-to-segment approximation: equals sqrt(2) here (every
        # vertex sits sqrt(2) away from the other diagonal).
        assert polyline_min_distance(a, b) == pytest.approx(np.sqrt(2.0))

    def test_skip_masks_shared_origin(self):
        a = np.array([[-1, -1], [0, 0], [1, 1]], dtype=float)
        b = np.array([[-1, 1], [0, 0], [1, -1]], dtype=float)
        touching = polyline_min_distance(a, b)
        assert touching == pytest.approx(0.0, abs=1e-12)
        skip_a = np.array([False, True, False])
        skip_b = np.array([False, True, False])
        masked = polyline_min_distance(a, b, skip_a=skip_a,
                                       skip_b=skip_b)
        assert masked > 0.0

    def test_too_short_polyline_rejected(self):
        with pytest.raises(TrajectoryError):
            polyline_min_distance(np.array([[0.0, 0.0]]),
                                  np.array([[1, 1], [2, 2]], dtype=float))
