"""One trajectory layout: every reader equals the code it replaced.

The references below are the pre-layout implementations, kept verbatim
as test oracles:

* ``reference_from_source`` -- the per-component grouping of
  ``TrajectorySet.from_source`` (with its presampled-signature entry);
* ``ReferencePlan`` / ``reference_conflict_plan`` -- the GA's
  precomputed 2-D conflict layout;
* ``reference_evaluate_metrics`` -- the per-set metrics with the
  per-pair ``np.ix_`` separation loop;
* ``reference_score_candidates`` -- the GA's per-candidate scoring path
  (one trajectory set per candidate) with the old ``score`` formulas;
* ``reference_assemble_segments`` -- the posterior's own grouping.

Scores, metrics and segment tensors must be bitwise equal.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import TrajectoryError
from repro.faults.dictionary import DictionaryEntry, FaultDictionary
from repro.faults.models import ParametricFault
from repro.faults.surface import ResponseSurface
from repro.ga import CombinedFitness, MarginFitness, PaperFitness
from repro.trajectory import (
    FaultTrajectory,
    SignatureMapper,
    TrajectoryLayout,
    TrajectoryMetrics,
    TrajectorySet,
    evaluate_metrics,
    min_separation,
)
from repro.trajectory.geometry import Segments, project_points
from repro.trajectory.metrics import (_ND_CONTACT_FRACTION,
                                      conflict_counts_batch)


# ----------------------------------------------------------------------
# References (verbatim from the pre-layout code)
# ----------------------------------------------------------------------
def reference_from_source(source, mapper, components=None, *,
                          signature_matrix=None, golden_point=None):
    dictionary = source.dictionary if isinstance(
        source, ResponseSurface) else source
    if signature_matrix is None:
        signature_matrix = mapper.signature_matrix(source)
    if golden_point is None:
        golden_point = mapper.golden_signature(source)
    matrix = np.asarray(signature_matrix, dtype=float)
    golden_point = np.asarray(golden_point, dtype=float)

    groups: Dict[str, List[Tuple[float, np.ndarray]]] = {}
    for row, entry in zip(matrix, dictionary.entries):
        if not isinstance(entry.fault, ParametricFault):
            continue
        groups.setdefault(entry.fault.component, []).append(
            (entry.fault.deviation, row))
    if components is not None:
        missing = set(components) - set(groups)
        if missing:
            raise TrajectoryError(
                f"no parametric entries for {sorted(missing)}")
        groups = {name: groups[name] for name in components}
    if not groups:
        raise TrajectoryError(
            "source contains no parametric fault entries")

    trajectories = []
    for component, pairs in groups.items():
        pairs = sorted(pairs, key=lambda item: item[0])
        deviations = [pair[0] for pair in pairs]
        if any(abs(d) < 1e-12 for d in deviations):
            raise TrajectoryError(
                f"{component}: dictionary contains a 0% 'fault'; the "
                "golden point is inserted automatically")
        points = [pair[1] for pair in pairs]
        insert_at = int(np.searchsorted(np.asarray(deviations), 0.0))
        deviations.insert(insert_at, 0.0)
        points.insert(insert_at, golden_point)
        trajectories.append(FaultTrajectory(
            component, tuple(deviations), np.vstack(points)))
    return TrajectorySet(mapper, trajectories)


@dataclass(frozen=True)
class ReferencePlan:
    row_order: np.ndarray
    fault_slots: np.ndarray
    golden_slots: np.ndarray
    seg_start: np.ndarray
    seg_end: np.ndarray
    owners: np.ndarray
    num_vertices: int


def reference_conflict_plan(dictionary, components) -> Optional[ReferencePlan]:
    groups: Dict[str, List[Tuple[float, int]]] = {}
    for row, entry in enumerate(dictionary.entries):
        if isinstance(entry.fault, ParametricFault):
            groups.setdefault(entry.fault.component, []).append(
                (entry.fault.deviation, row))
    if components is not None:
        if set(components) - set(groups):
            return None
        groups = {name: groups[name] for name in components}
    if len(groups) < 2:
        return None
    row_order: List[int] = []
    fault_slots: List[int] = []
    golden_slots: List[int] = []
    seg_start: List[int] = []
    seg_end: List[int] = []
    owners: List[int] = []
    cursor = 0
    for index, pairs in enumerate(groups.values()):
        pairs = sorted(pairs, key=lambda item: item[0])
        deviations = [pair[0] for pair in pairs]
        if any(abs(d) < 1e-12 for d in deviations) or \
                any(b <= a for a, b in zip(deviations, deviations[1:])):
            return None
        insert_at = int(np.searchsorted(np.asarray(deviations), 0.0))
        count = len(pairs) + 1
        slots = list(range(cursor, cursor + count))
        golden_slots.append(slots[insert_at])
        fault_slots.extend(slots[:insert_at] + slots[insert_at + 1:])
        row_order.extend(pair[1] for pair in pairs)
        seg_start.extend(slots[:-1])
        seg_end.extend(slots[1:])
        owners.extend([index] * (count - 1))
        cursor += count
    return ReferencePlan(
        row_order=np.array(row_order, dtype=int),
        fault_slots=np.array(fault_slots, dtype=int),
        golden_slots=np.array(golden_slots, dtype=int),
        seg_start=np.array(seg_start, dtype=int),
        seg_end=np.array(seg_end, dtype=int),
        owners=np.array(owners, dtype=int),
        num_vertices=cursor)


def reference_all_segments(trajectories):
    starts, ends, owners = [], [], []
    for index, trajectory in enumerate(trajectories.trajectories):
        s, e = trajectory.segments()
        starts.append(s)
        ends.append(e)
        owners.append(np.full(s.shape[0], index, dtype=int))
    return np.vstack(starts), np.vstack(ends), np.concatenate(owners)


def _reference_vertex_segment_distances(trajectories):
    starts, ends, seg_owner = reference_all_segments(trajectories)
    vertices = []
    vertex_owner = []
    is_origin = []
    for index, trajectory in enumerate(trajectories):
        vertices.append(trajectory.points)
        vertex_owner.append(np.full(trajectory.points.shape[0], index))
        is_origin.append(trajectory.vertex_is_origin())
    points = np.vstack(vertices)
    vertex_owner = np.concatenate(vertex_owner)
    is_origin = np.concatenate(is_origin)
    distances, _, _ = project_points(points, Segments.of(starts, ends))
    valid = (vertex_owner[:, None] != seg_owner[None, :]) & \
        (~is_origin)[:, None]
    return distances, vertex_owner, seg_owner, is_origin, valid


def reference_pairwise_separations(trajectories):
    distances, vertex_owner, seg_owner, _, valid = \
        _reference_vertex_segment_distances(trajectories)
    masked = np.where(valid, distances, np.inf)
    names = trajectories.components
    result = {}
    for i, j in combinations(range(len(names)), 2):
        a_to_b = masked[np.ix_(vertex_owner == i, seg_owner == j)]
        b_to_a = masked[np.ix_(vertex_owner == j, seg_owner == i)]
        best = np.inf
        if a_to_b.size:
            best = min(best, float(a_to_b.min()))
        if b_to_a.size:
            best = min(best, float(b_to_a.min()))
        result[(names[i], names[j])] = best
    return result


def _reference_set_conflicts(trajectories):
    starts, ends, owners = reference_all_segments(trajectories)
    intersections, overlaps = conflict_counts_batch(starts[None],
                                                    ends[None], owners)
    return int(intersections[0]), int(overlaps[0])


def _reference_scale(trajectories):
    largest = 0.0
    for trajectory in trajectories:
        largest = max(largest, float(
            np.max(np.linalg.norm(trajectory.points, axis=1))))
    return max(largest, 1e-30)


def reference_count_intersections(trajectories):
    if len(trajectories) < 2:
        return 0
    if trajectories.dimension == 2:
        return _reference_set_conflicts(trajectories)[0]
    threshold = _ND_CONTACT_FRACTION * _reference_scale(trajectories)
    separations = reference_pairwise_separations(trajectories)
    return sum(1 for value in separations.values() if value < threshold)


def reference_evaluate_metrics(trajectories, include_separations=True):
    if trajectories.dimension == 2 and len(trajectories) >= 2:
        intersections, overlaps = _reference_set_conflicts(trajectories)
    else:
        intersections = reference_count_intersections(trajectories)
        overlaps = 0
    if not include_separations or len(trajectories) < 2:
        return TrajectoryMetrics(intersections, overlaps, float("nan"),
                                 float("nan"), {})
    separations = reference_pairwise_separations(trajectories)
    values = np.array(list(separations.values()))
    minimum = 0.0 if (trajectories.dimension == 2 and
                      intersections > 0) else float(values.min())
    return TrajectoryMetrics(intersections, overlaps, minimum,
                             float(values.mean()), separations)


def reference_score(fitness, metrics):
    """The per-metrics ``score`` formulas of the three fitnesses."""
    def paper():
        conflicts = metrics.intersections + \
            fitness.overlap_weight * metrics.common_pathways
        return float(1.0 / (1.0 + conflicts))

    def bonus():
        margin = max(metrics.min_separation, 0.0)
        if not np.isfinite(margin):
            return 1.0
        return margin / (margin + fitness.margin_scale)

    if isinstance(fitness, CombinedFitness):
        return paper() + fitness.margin_weight * bonus()
    if isinstance(fitness, PaperFitness):
        return paper()
    return bonus()


def reference_score_candidates(fitness, freqs):
    """The per-candidate path: one trajectory set per test vector."""
    count, genes = freqs.shape
    sampled = fitness.surface.sample_db(freqs.ravel())
    scores = []
    for index, vector in enumerate(freqs.tolist()):
        sampled_db = sampled[:, index * genes:(index + 1) * genes]
        mapper = fitness._mapper_template.with_freqs(tuple(vector))
        trajectories = reference_from_source(
            fitness.surface, mapper, components=fitness.components,
            signature_matrix=mapper.signature_matrix_from_db(sampled_db),
            golden_point=mapper.golden_signature_from_db(sampled_db[0]))
        metrics = reference_evaluate_metrics(
            trajectories, include_separations=fitness.needs_separations)
        scores.append(reference_score(fitness, metrics))
    return scores


def reference_assemble_segments(faults, component_labels, anchors):
    by_component: Dict[str, List[Tuple[float, int]]] = {}
    for index, fault in enumerate(faults):
        by_component.setdefault(fault.component, []).append(
            (fault.deviation, 1 + index))
    starts, ends, dev0, dev1, offsets = [], [], [], [], []
    for component in component_labels[1:]:
        pairs = sorted(by_component[component], key=lambda item: item[0])
        deviations = [dev for dev, _ in pairs]
        rows = [row for _, row in pairs]
        if 0.0 not in deviations:
            position = int(np.searchsorted(deviations, 0.0))
            deviations.insert(position, 0.0)
            rows.insert(position, 0)
        offsets.append(len(dev0))
        for left in range(len(rows) - 1):
            starts.append(anchors[rows[left]])
            ends.append(anchors[rows[left + 1]])
            dev0.append(deviations[left])
            dev1.append(deviations[left + 1])
    return (Segments.of(np.stack(starts, axis=1), np.stack(ends, axis=1)),
            np.array(dev0), np.array(dev1), np.array(offsets, dtype=int))


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def _same_float(a: float, b: float) -> bool:
    """Bitwise float equality (nan equals nan)."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_same_metrics(got: TrajectoryMetrics, want: TrajectoryMetrics):
    assert got.intersections == want.intersections
    assert got.common_pathways == want.common_pathways
    assert _same_float(got.min_separation, want.min_separation)
    assert _same_float(got.mean_separation, want.mean_separation)
    assert list(got.per_pair_separation) == list(want.per_pair_separation)
    for key, value in want.per_pair_separation.items():
        assert _same_float(got.per_pair_separation[key], value), key


def assert_same_sets(got: TrajectorySet, want: TrajectorySet):
    assert got.components == want.components
    for a, b in zip(got, want):
        assert a.deviations == b.deviations
        assert a.points.tobytes() == b.points.tobytes()


FITNESSES = {
    "paper": lambda surface, mapper, components: PaperFitness(
        surface, mapper, components, overlap_weight=0.5),
    "margin": lambda surface, mapper, components: MarginFitness(
        surface, mapper, components, margin_scale=0.05),
    "combined": lambda surface, mapper, components: CombinedFitness(
        surface, mapper, components, margin_scale=0.05),
}


@st.composite
def search_problems(draw, components):
    """(fitness kind, mapper, component filter, (K, D) test vectors)."""
    dimension = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(sorted(FITNESSES)))
    scale = draw(st.sampled_from(("db", "linear")))
    relative = draw(st.booleans())
    subset = draw(st.none() | st.lists(
        st.sampled_from(components), min_size=1, max_size=len(components),
        unique=True).map(tuple))
    count = draw(st.integers(1, 5))
    decades = draw(st.lists(
        st.lists(st.floats(1.5, 4.5), min_size=dimension,
                 max_size=dimension, unique=True).map(sorted),
        min_size=count, max_size=count))
    mapper = SignatureMapper(tuple(float(i + 1) for i in range(dimension)),
                             scale=scale, relative_to_golden=relative)
    return kind, mapper, subset, np.power(10.0, np.array(decades))


_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestPopulationScoring:
    @_SETTINGS
    @given(data=st.data())
    def test_scores_equal_per_candidate_oracle(self, biquad_surface, data):
        kind, mapper, subset, freqs = data.draw(search_problems(
            biquad_surface.dictionary.components))
        fitness = FITNESSES[kind](biquad_surface, mapper, subset)
        got = fitness.score_population(freqs)
        want = reference_score_candidates(fitness, freqs)
        assert got.tobytes() == np.array(want).tobytes()

    @_SETTINGS
    @given(data=st.data())
    def test_metrics_equal_per_set_oracle(self, biquad_surface, data):
        _, template, subset, freqs = data.draw(search_problems(
            biquad_surface.dictionary.components))
        include = data.draw(st.booleans())
        mapper = template.with_freqs(tuple(freqs[0]))
        got_set = TrajectorySet.from_source(biquad_surface, mapper, subset)
        want_set = reference_from_source(biquad_surface, mapper, subset)
        assert_same_sets(got_set, want_set)
        assert_same_metrics(evaluate_metrics(got_set, include),
                            reference_evaluate_metrics(want_set, include))

    def test_exact_dictionary_sets_and_metrics(self, biquad_dictionary):
        """The dictionary entry (exact sampling) of from_source."""
        mapper = SignatureMapper((500.0, 1500.0, 4000.0))
        got = TrajectorySet.from_source(biquad_dictionary, mapper)
        want = reference_from_source(biquad_dictionary, mapper)
        assert_same_sets(got, want)
        assert_same_metrics(evaluate_metrics(got),
                            reference_evaluate_metrics(want))

    @pytest.mark.parametrize("subset", [None, ("R1", "C2", "R3"),
                                        ("C1", "R4")])
    def test_layout_equals_conflict_plan(self, biquad_dictionary, subset):
        plan = reference_conflict_plan(biquad_dictionary, subset)
        layout = TrajectoryLayout.from_faults(
            [entry.fault for entry in biquad_dictionary.entries], subset)
        golden = layout.rows == TrajectoryLayout.GOLDEN
        assert np.array_equal(np.flatnonzero(golden), plan.golden_slots)
        assert np.array_equal(np.flatnonzero(~golden), plan.fault_slots)
        assert np.array_equal(layout.rows[~golden], plan.row_order)
        assert np.array_equal(layout.is_origin, golden)
        assert np.array_equal(layout.seg_start, plan.seg_start)
        assert np.array_equal(layout.seg_end, plan.seg_end)
        assert np.array_equal(layout.owners, plan.owners)
        assert layout.rows.size == plan.num_vertices


@st.composite
def hand_built_sets(draw):
    """Sets built by hand: 1..4 trajectories of 2..5 points in D = 1..3,
    on a coarse grid (exact ties, repeated points, zero-length
    segments); the origin is the vertex nearest deviation 0."""
    dimension = draw(st.integers(1, 3))
    count = draw(st.integers(1, 4))
    trajectories = []
    for index in range(count):
        size = draw(st.integers(2, 5))
        first = draw(st.integers(-size + 1, 0))
        deviations = tuple(0.1 * (first + k) for k in range(size))
        points = np.array(draw(st.lists(
            st.integers(-3, 3).map(lambda v: v / 2), min_size=size *
            dimension, max_size=size * dimension))).reshape(size, dimension)
        if draw(st.booleans()):
            points[draw(st.integers(1, size - 1))] = points[0]
        trajectories.append(FaultTrajectory(f"T{index}", deviations,
                                            points))
    mapper = SignatureMapper(tuple(100.0 * (i + 1)
                                   for i in range(dimension)))
    return TrajectorySet(mapper, trajectories)


class TestHandBuiltSets:
    @settings(max_examples=200, deadline=None)
    @given(hand_built_sets(), st.booleans())
    def test_metrics_equal_oracle(self, trajectories, include):
        assert_same_metrics(
            evaluate_metrics(trajectories, include),
            reference_evaluate_metrics(trajectories, include))
        if len(trajectories) >= 2:
            assert _same_float(
                min_separation(trajectories),
                reference_evaluate_metrics(trajectories).min_separation)

    @settings(max_examples=100, deadline=None)
    @given(hand_built_sets())
    def test_segments_equal_oracle(self, trajectories):
        got = trajectories.all_segments()
        want = reference_all_segments(trajectories)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        layout = TrajectoryLayout.of(trajectories)
        assert np.array_equal(layout.seg_dev0, np.concatenate(
            [t.deviations[:-1] for t in trajectories]))
        assert np.array_equal(layout.seg_dev1, np.concatenate(
            [t.deviations[1:] for t in trajectories]))
        assert np.array_equal(layout.is_origin, np.concatenate(
            [t.vertex_is_origin() for t in trajectories]))


class TestPosteriorSegments:
    @pytest.mark.parametrize("freqs", [None, (300.0, 1500.0, 6000.0)])
    def test_assembled_segments_equal_oracle(self, quick_pipeline_result,
                                             monkeypatch, freqs):
        """Segment coordinate planes, and the request distances
        projected onto them, equal the posterior's own grouping bitwise
        (2 and 3 test frequencies)."""
        from repro.diagnosis import PosteriorConfig, PosteriorDiagnoser
        captured = {}
        original = PosteriorDiagnoser._assemble_segments

        def capture(self, anchors):
            captured["anchors"] = anchors
            original(self, anchors)

        monkeypatch.setattr(PosteriorDiagnoser, "_assemble_segments",
                            capture)
        result = quick_pipeline_result
        mapper = result.mapper if freqs is None else \
            result.mapper.with_freqs(freqs)
        posterior = PosteriorDiagnoser(
            result.info, result.universe, mapper,
            PosteriorConfig(n_samples=6, tolerance=0.05, seed=2),
            engine=result.engine)
        segments, dev0, dev1, offsets = reference_assemble_segments(
            posterior._faults, posterior.component_labels,
            captured["anchors"])
        layout = posterior._layout
        got_segments = posterior._segments
        for name in ("starts", "ends", "direction"):
            planes = getattr(got_segments, name)
            assert planes.shape == (mapper.dimension, 6,
                                    layout.seg_start.size), name
            for coordinate in range(mapper.dimension):
                plane = planes[coordinate]
                assert plane.flags.c_contiguous, (name, coordinate)
                assert plane.tobytes() == \
                    getattr(segments, name)[coordinate].tobytes(), \
                    (name, coordinate)
        for name in ("proper", "safe_length_sq"):
            assert getattr(got_segments, name).tobytes() == \
                getattr(segments, name).tobytes(), name
        assert layout.seg_dev0.tobytes() == dev0.tobytes()
        assert layout.seg_dev1.tobytes() == dev1.tobytes()
        assert np.array_equal(layout.segment_offsets[:-1], offsets)
        points = np.random.default_rng(4).normal(
            0.0, 0.5, size=(16, mapper.dimension))
        got = posterior._surface_distances(points)
        posterior._segments = segments
        want = posterior._surface_distances(points)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# Error parity: the layout raises what from_source raises
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Relabelled(ParametricFault):
    """A parametric fault under a distinct label, so a dictionary can
    hold two faults of one component at the same deviation."""

    @property
    def label(self) -> str:
        return super().label + "#again"


def _with_extra_fault(dictionary, fault):
    extra = DictionaryEntry(fault, dictionary.entries[0].response)
    return FaultDictionary(dictionary.circuit_name, dictionary.output_node,
                           dictionary.freqs_hz, dictionary.golden,
                           dictionary.entries + (extra,))


class TestErrorParity:
    VECTORS = np.array([[300.0, 2000.0], [800.0, 5000.0]])

    def _assert_same_error(self, surface, components):
        mapper = SignatureMapper((300.0, 2000.0))
        with pytest.raises(TrajectoryError) as expected:
            reference_from_source(surface, mapper, components)
        with pytest.raises(TrajectoryError) as built:
            TrajectorySet.from_source(surface, mapper, components)
        assert str(built.value) == str(expected.value)
        for make in FITNESSES.values():
            with pytest.raises(TrajectoryError) as scored:
                make(surface, mapper, components).score_population(
                    self.VECTORS)
            assert str(scored.value) == str(expected.value)
        return str(expected.value)

    def test_filter_naming_a_component_without_rows(self, biquad_surface):
        message = self._assert_same_error(biquad_surface, ("R1", "R99"))
        assert message == "no parametric entries for ['R99']"

    def test_zero_percent_row(self, biquad_dictionary):
        surface = ResponseSurface(_with_extra_fault(
            biquad_dictionary, ParametricFault("R2", 0.0)))
        message = self._assert_same_error(surface, None)
        assert message.startswith("R2: dictionary contains a 0% 'fault'")

    def test_non_increasing_deviations(self, biquad_dictionary):
        deviation = next(entry.fault.deviation
                         for entry in biquad_dictionary.entries
                         if entry.fault.component == "C1")
        surface = ResponseSurface(_with_extra_fault(
            biquad_dictionary, _Relabelled("C1", deviation)))
        message = self._assert_same_error(surface, None)
        assert message.startswith(
            "C1: deviations must be strictly increasing")

    def test_one_trajectory_scores_the_plateau(self, biquad_surface):
        for kind in ("paper", "margin"):
            fitness = FITNESSES[kind](biquad_surface, None, ("R1",))
            assert fitness.score_population(self.VECTORS).tolist() == \
                [1.0, 1.0]
