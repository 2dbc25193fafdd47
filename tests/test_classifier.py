"""Tests for the trajectory classifier and the paper's diagnosis rule."""

import numpy as np
import pytest

from repro.diagnosis import Diagnosis, TrajectoryClassifier
from repro.errors import DiagnosisError
from repro.sim import ACAnalysis
from repro.trajectory import (
    FaultTrajectory,
    SignatureMapper,
    TrajectorySet,
)
from repro.trajectory.geometry import _EPS


def axis_trajectory(component, direction,
                    deviations=(-0.2, -0.1, 0.0, 0.1, 0.2)):
    direction = np.asarray(direction, dtype=float)
    points = np.outer(np.asarray(deviations), direction)
    return FaultTrajectory(component, tuple(deviations), points)


# ----------------------------------------------------------------------
# Reference: the per-point classifier the batched kernel replaced, kept
# verbatim (one projection per point, a Python ranking loop).
# ----------------------------------------------------------------------
def _reference_project(point, starts, ends):
    direction = ends - starts
    length_sq = np.sum(direction * direction, axis=1)
    safe = np.where(length_sq > _EPS, length_sq, 1.0)
    t_raw = np.sum((point[None, :] - starts) * direction, axis=1) / safe
    t_raw = np.where(length_sq > _EPS, t_raw, 0.0)
    degenerate = length_sq <= _EPS
    if np.any(degenerate):
        nearer_end = (np.linalg.norm(point[None, :] - ends, axis=1) <
                      np.linalg.norm(point[None, :] - starts, axis=1))
        t_raw = np.where(degenerate & nearer_end, 1.0, t_raw)
    interior = (t_raw > 0.0) & (t_raw < 1.0) & (length_sq > _EPS)
    t_clamped = np.clip(t_raw, 0.0, 1.0)
    closest = starts + t_clamped[:, None] * direction
    distances = np.linalg.norm(point[None, :] - closest, axis=1)
    return distances, t_clamped, interior


def reference_classify_point(trajectories, point):
    """The paper's rule for one point, as the scalar classifier had it."""
    point = np.asarray(point, dtype=float)
    starts, ends, owners = trajectories.all_segments()
    local_index = np.concatenate(
        [np.arange(t.num_segments) for t in trajectories])
    distances, t_values, interior = _reference_project(point, starts,
                                                       ends)
    perpendicular = bool(np.any(interior))
    candidate_mask = interior if perpendicular \
        else np.ones_like(interior, dtype=bool)
    masked = np.where(candidate_mask, distances, np.inf)
    winner = int(np.argmin(masked))
    trajectory = trajectories.trajectories[int(owners[winner])]
    deviation = trajectory.interpolate_deviation(
        int(local_index[winner]), float(t_values[winner]))
    best = {}
    for index, member in enumerate(trajectories.trajectories):
        best[member.component] = float(masked[owners == index].min())
    ranking = tuple(sorted(best.items(), key=lambda item: item[1]))
    others = [distance for component, distance in ranking
              if component != trajectory.component]
    margin = float(min(others) - best[trajectory.component]) if others \
        else float("inf")
    return Diagnosis(
        component=trajectory.component,
        estimated_deviation=deviation,
        distance=float(distances[winner]),
        perpendicular=perpendicular,
        margin=margin,
        point=tuple(float(x) for x in point),
        ranking=ranking,
    )


@pytest.fixture()
def xy_classifier():
    """Component X along +x/-x, component Y along +y/-y."""
    mapper = SignatureMapper((100.0, 1000.0))
    trajectories = TrajectorySet(mapper, (
        axis_trajectory("X", [1.0, 0.0]),
        axis_trajectory("Y", [0.0, 1.0]),
    ))
    return TrajectoryClassifier(trajectories)


class TestClassifyPoint:
    def test_on_trajectory_exact(self, xy_classifier):
        diagnosis = xy_classifier.classify_point(np.array([0.15, 0.0]))
        assert diagnosis.component == "X"
        assert diagnosis.estimated_deviation == pytest.approx(0.15)
        assert diagnosis.distance == pytest.approx(0.0, abs=1e-12)

    def test_near_trajectory_perpendicular(self, xy_classifier):
        diagnosis = xy_classifier.classify_point(np.array([0.15, 0.02]))
        assert diagnosis.component == "X"
        assert diagnosis.perpendicular
        assert diagnosis.distance == pytest.approx(0.02)
        assert diagnosis.estimated_deviation == pytest.approx(0.15)

    def test_negative_deviation_side(self, xy_classifier):
        diagnosis = xy_classifier.classify_point(np.array([0.0, -0.12]))
        assert diagnosis.component == "Y"
        assert diagnosis.estimated_deviation == pytest.approx(-0.12)

    def test_beyond_trajectory_end_uses_endpoint(self, xy_classifier):
        # x = 0.5 lies beyond X's last point (0.2): deviation clamps to
        # the +20% end of the trajectory.
        diagnosis = xy_classifier.classify_point(np.array([0.5, 0.0]))
        assert diagnosis.component == "X"
        assert diagnosis.estimated_deviation == pytest.approx(0.2)

    def test_ranking_contains_all_components(self, xy_classifier):
        # The point sits exactly on X's vertex (t = 1 boundary, so no
        # interior foot on X) while Y offers a perpendicular: Y wins,
        # and the ranking is over the same candidate distances -- the
        # masked-out component ranks at inf rather than outranking the
        # winner with a distance the paper's rule already rejected.
        diagnosis = xy_classifier.classify_point(np.array([0.1, 0.05]))
        assert diagnosis.component == "Y"
        assert [c for c, _ in diagnosis.ranking] == ["Y", "X"]
        assert diagnosis.ranking[1][1] == float("inf")
        assert diagnosis.margin == float("inf")
        assert not diagnosis.ambiguous

    def test_margin_positive_for_clear_case(self, xy_classifier):
        diagnosis = xy_classifier.classify_point(np.array([0.15, 0.01]))
        assert diagnosis.margin > 0.0
        assert not diagnosis.ambiguous

    def test_diagonal_point_is_ambiguous(self, xy_classifier):
        # Off-vertex so both trajectories offer interior feet and the
        # runner-up distance is genuinely comparable.
        diagnosis = xy_classifier.classify_point(
            np.array([0.13, 0.130001]))
        assert diagnosis.ambiguous

    def test_dimension_mismatch(self, xy_classifier):
        with pytest.raises(DiagnosisError):
            xy_classifier.classify_point(np.array([1.0, 2.0, 3.0]))

    def test_summary_text(self, xy_classifier):
        diagnosis = xy_classifier.classify_point(np.array([0.15, 0.02]))
        text = diagnosis.summary()
        assert "X" in text and "perpendicular" in text


class TestDegenerateSegment:
    """A zero-length segment snaps to its nearer endpoint in the batch
    and one-row paths alike."""

    @pytest.fixture()
    def classifier(self):
        mapper = SignatureMapper((100.0, 1000.0))
        a = FaultTrajectory("A", (-0.2, 0.0, 0.1, 0.2), np.array(
            [[-2.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0 + 1e-7, 1.0]]))
        b = FaultTrajectory("B", (-0.2, 0.0, 0.2), np.array(
            [[0.0, -2.0], [0.0, 0.0], [0.0, 0.5]]))
        return TrajectoryClassifier(TrajectorySet(mapper, (a, b)))

    def test_snaps_to_the_nearer_endpoint(self, classifier):
        query = np.array([1.3 + 1e-7, 1.0])
        expected = reference_classify_point(classifier.trajectories, query)
        assert expected.component == "A"
        assert expected.distance == pytest.approx(0.3, abs=1e-12)
        assert expected.estimated_deviation == 0.2
        assert classifier.classify_point(query) == expected
        assert classifier.classify_points(query[None, :]) == [expected]


class TestNonFinitePoints:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_classify_point_names_the_row(self, xy_classifier, bad):
        with pytest.raises(DiagnosisError, match="row 0 is not finite"):
            xy_classifier.classify_point(np.array([bad, 0.1]))

    def test_classify_points_names_the_first_bad_row(self, xy_classifier):
        points = np.array([[0.1, 0.0], [0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(DiagnosisError, match="row 1 is not finite"):
            xy_classifier.classify_points(points)


class TestPerpendicularPreference:
    """The paper's rule: prefer segments where a perpendicular foot
    exists, even over a closer endpoint of another trajectory."""

    def test_prefers_interior_foot_over_closer_endpoint(self):
        """A's perpendicular distance (0.05) loses to C's endpoint
        distance (0.014) on raw proximity, but the paper's rule prefers
        the segment where the perpendicular exists -- so A wins."""
        mapper = SignatureMapper((100.0, 1000.0))
        a = axis_trajectory("A", [1.0, 0.0])
        c = axis_trajectory("C", [0.7, 0.3])  # ends at (0.14, 0.06)
        classifier = TrajectoryClassifier(TrajectorySet(mapper, (a, c)))
        query = np.array([0.15, 0.05])
        # Sanity: C's endpoint is closer than A's perpendicular foot.
        endpoint_distance = np.linalg.norm(query - np.array([0.14, 0.06]))
        assert endpoint_distance < 0.05
        diagnosis = classifier.classify_point(query)
        assert diagnosis.component == "A"
        assert diagnosis.perpendicular
        assert diagnosis.distance == pytest.approx(0.05)

    def test_endpoint_fallback_when_no_perpendicular(self):
        mapper = SignatureMapper((100.0, 1000.0))
        a = axis_trajectory("A", [1.0, 0.0])
        classifier = TrajectoryClassifier(
            TrajectorySet(mapper, (a,)))
        # Beyond the end and off-axis: no interior foot anywhere on the
        # single horizontal trajectory (feet clamp to the endpoint).
        diagnosis = classifier.classify_point(np.array([0.9, 0.3]))
        assert not diagnosis.perpendicular
        assert diagnosis.component == "A"


class TestClassifyResponse:
    def test_requires_golden_for_relative_mapper(self,
                                                 biquad_trajectories):
        classifier = TrajectoryClassifier(biquad_trajectories)
        from repro.sim import FrequencyResponse
        fake = FrequencyResponse(np.array([500.0, 1500.0]),
                                 np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(DiagnosisError, match="golden"):
            classifier.classify_response(fake)

    def test_end_to_end_response_diagnosis(self, biquad_info,
                                           biquad_dictionary):
        mapper = SignatureMapper((500.0, 1500.0))
        freqs = np.array([500.0, 1500.0])
        from repro.faults import parametric_universe, FaultDictionary
        universe = parametric_universe(biquad_info.circuit,
                                       components=biquad_info.faultable)
        exact = FaultDictionary.build(universe, biquad_info.output_node,
                                      freqs)
        trajectories = TrajectorySet.from_source(exact, mapper)
        classifier = TrajectoryClassifier(trajectories,
                                          golden=exact.golden)
        faulty = biquad_info.circuit.scaled_value("C1", 0.75)  # C1 -25%
        response = ACAnalysis(faulty).transfer(biquad_info.output_node,
                                               freqs)
        diagnosis = classifier.classify_response(response)
        assert diagnosis.component == "C1"
        assert diagnosis.estimated_deviation == pytest.approx(-0.25,
                                                              abs=0.03)


class TestFaultFree:
    def test_origin_is_fault_free(self, xy_classifier):
        assert xy_classifier.is_fault_free(np.array([0.001, 0.001]),
                                           threshold=0.01)
        assert not xy_classifier.is_fault_free(np.array([0.1, 0.1]),
                                               threshold=0.01)

    def test_requires_relative_mapper(self):
        mapper = SignatureMapper((100.0, 1000.0),
                                 relative_to_golden=False)
        trajectories = TrajectorySet(mapper, (
            axis_trajectory("X", [1.0, 0.0]),))
        classifier = TrajectoryClassifier(trajectories)
        with pytest.raises(DiagnosisError):
            classifier.is_fault_free(np.array([0.0, 0.0]), 0.01)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro import FaultTrajectoryATPG, PipelineConfig  # noqa: E402
from repro.circuits.library import get_benchmark  # noqa: E402
from repro.ga import GAConfig  # noqa: E402

#: Circuits spanning the library's shapes: single pole, a divider whose
#: R1/R2 trajectories overlap on one line (the historic negative-margin
#: trigger), a 2nd-order active filter, the paper CUT.
MARGIN_CIRCUITS = ("rc_lowpass", "voltage_divider",
                   "sallen_key_lowpass", "tow_thomas_biquad")


@pytest.fixture(scope="module")
def library_results():
    """Quick ATPG run per margin-property circuit, built once."""
    config = PipelineConfig(dictionary_points=32,
                            deviations=(-0.2, 0.2),
                            ga=GAConfig(population_size=8,
                                        generations=2))
    return {name: FaultTrajectoryATPG(get_benchmark(name),
                                      config).run(seed=7)
            for name in MARGIN_CIRCUITS}


class TestMarginProperty:
    """margin >= 0 must hold for *any* signature point.

    The regression this guards: ``_margin`` used to rank on unmasked
    distances while the winner came from masked ones, so a point whose
    nearest unmasked segment belonged to the winning component produced
    a negative margin. Coincident trajectories (voltage_divider) pin
    the margin at exactly zero.
    """

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_margin_non_negative_across_library(self, library_results,
                                                data):
        name = data.draw(st.sampled_from(MARGIN_CIRCUITS))
        result = library_results[name]
        classifier = result.classifier
        dim = result.trajectories.dimension
        coords = data.draw(st.lists(
            st.floats(min_value=-5.0, max_value=5.0,
                      allow_nan=False),
            min_size=dim, max_size=dim))
        point = np.array(coords)

        scalar = classifier.classify_point(point)
        assert scalar.margin >= 0.0
        masked = dict(scalar.ranking)
        assert scalar.distance == min(masked.values())

        batched = classifier.classify_points(point[None, :])[0]
        assert batched.margin >= 0.0
        assert batched.component == scalar.component
        assert batched.margin == pytest.approx(scalar.margin,
                                               rel=1e-9, abs=1e-12)


# ----------------------------------------------------------------------
# Batched classification against the per-point reference
# ----------------------------------------------------------------------
@st.composite
def trajectory_sets_and_points(draw):
    """A random set in 1-3 dimensions plus query points.

    Every trajectory passes through the origin. Optionally the first
    trajectory ends in a zero-length segment. The queries mix vertices,
    nudged vertices, nearby random points and far points (which mostly
    have no perpendicular foot, exercising the endpoint fallback).
    """
    dim = draw(st.sampled_from((1, 2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    degenerate = draw(st.booleans())
    members = []
    for index in range(draw(st.integers(1, 4))):
        n_neg = int(rng.integers(0, 3))
        n_pos = int(rng.integers(0 if n_neg else 1, 3))
        neg = -np.cumsum(rng.normal(size=(n_neg, dim)), axis=0)[::-1]
        pos = np.cumsum(rng.normal(size=(n_pos, dim)), axis=0)
        points = np.vstack([neg, np.zeros((1, dim)), pos])
        deviations = [0.1 * k for k in range(-n_neg, n_pos + 1)]
        if degenerate and index == 0:
            nudge = np.zeros(dim)
            nudge[0] = 1e-7
            points = np.vstack([points, points[-1] + nudge])
            deviations.append(deviations[-1] + 0.05)
        members.append(FaultTrajectory(f"T{index}", tuple(deviations),
                                       points))
    mapper = SignatureMapper(tuple(100.0 * (k + 1) for k in range(dim)))
    trajectories = TrajectorySet(mapper, tuple(members))
    vertices = np.vstack([t.points for t in members])
    queries = np.vstack([
        vertices,
        vertices + rng.normal(scale=0.01, size=vertices.shape),
        rng.normal(scale=2.0, size=(8, dim)),
        rng.normal(scale=50.0, size=(4, dim)),
    ])
    return trajectories, queries


class TestBatchEqualsReference:
    @settings(max_examples=150, deadline=None)
    @given(trajectory_sets_and_points())
    def test_classify_points_matches_reference(self, case):
        trajectories, points = case
        classifier = TrajectoryClassifier(trajectories)
        batched = classifier.classify_points(points)
        expected = [reference_classify_point(trajectories, point)
                    for point in points]
        # The kernel sums coordinates left to right, as the reference's
        # reductions over its short contiguous rows do: equal in 3-D too.
        assert batched == expected
        for row, diagnosis in enumerate(batched):
            assert classifier.classify_points(
                points[row:row + 1])[0] == diagnosis


# ----------------------------------------------------------------------
# Batched classification on every benchmark circuit: strict equivalence
# with the per-point reference classifier, through points, responses
# and dB matrices.
# ----------------------------------------------------------------------
from repro import BENCHMARK_CIRCUITS, parametric_universe  # noqa: E402
from repro.faults import FaultDictionary  # noqa: E402

BENCHMARK_DEVIATIONS = (-0.3, -0.1, 0.1, 0.3)


def _exact_setup(name):
    """Classifier simulated exactly at a 2-freq test vector for one
    benchmark circuit."""
    info = get_benchmark(name)
    universe = parametric_universe(info.circuit,
                                   components=info.faultable,
                                   deviations=BENCHMARK_DEVIATIONS)
    freqs = (float(np.sqrt(info.f_min_hz * info.f0_hz)),
             float(np.sqrt(info.f0_hz * info.f_max_hz)))
    mapper = SignatureMapper(freqs)
    exact = FaultDictionary.build(universe, info.output_node,
                                  np.array(sorted(freqs)),
                                  input_source=info.input_source)
    trajectories = TrajectorySet.from_source(exact, mapper)
    return info, TrajectoryClassifier(trajectories, golden=exact.golden)


def _probe_points(trajectories, rng):
    """On-vertex, on-segment and random off-trajectory query points."""
    vertices = np.vstack([t.points for t in trajectories])
    midpoints = np.vstack([(t.points[:-1] + t.points[1:]) / 2.0
                           for t in trajectories])
    span = float(np.abs(vertices).max()) or 1.0
    randoms = rng.normal(scale=span, size=(40, vertices.shape[1]))
    nudged = vertices + rng.normal(scale=0.01 * span, size=vertices.shape)
    return np.vstack([vertices, midpoints, randoms, nudged])


class TestBatchOnBenchmarks:
    """Batched classification equals the per-point reference on every
    benchmark circuit."""

    @pytest.mark.parametrize("name", sorted(BENCHMARK_CIRCUITS))
    def test_batch_equals_scalar_on_every_benchmark(self, name, rng):
        _, classifier = _exact_setup(name)
        points = _probe_points(classifier.trajectories, rng)
        diagnoses = classifier.classify_points(points)
        assert len(diagnoses) == points.shape[0]
        for point, batched in zip(points, diagnoses):
            assert batched == reference_classify_point(
                classifier.trajectories, point)
            assert batched == classifier.classify_point(point)

    def test_batch_equals_scalar_through_responses(self):
        info, classifier = _exact_setup("tow_thomas_biquad")
        freqs = np.array(
            sorted(classifier.trajectories.mapper.test_freqs_hz))
        responses = []
        for component, deviation in (("R1", 0.22), ("R2", -0.17),
                                     ("C1", 0.05), ("C2", -0.33)):
            faulty = info.circuit.scaled_value(component,
                                               1.0 + deviation)
            responses.append(ACAnalysis(faulty).transfer(
                info.output_node, freqs, input_source=info.input_source))
        batched = classifier.classify_responses(responses)
        assert batched == [classifier.classify_response(r)
                           for r in responses]
        golden = classifier.golden
        mapper = classifier.trajectories.mapper
        assert batched == [
            reference_classify_point(classifier.trajectories,
                                     mapper.signature(r, golden))
            for r in responses]

    def test_db_matrix_path_matches_response_path(self):
        _, classifier = _exact_setup("sallen_key_lowpass")
        info = get_benchmark("sallen_key_lowpass")
        freqs = np.array(
            sorted(classifier.trajectories.mapper.test_freqs_hz))
        responses = [ACAnalysis(
            info.circuit.scaled_value("R1", 1.3)).transfer(
                info.output_node, freqs, input_source=info.input_source)]
        matrix = np.vstack([r.magnitude_db_at(freqs) for r in responses])
        from_matrix = classifier.classify_responses(matrix)
        # The matrix rows *are* exact grid samples, so the interpolated
        # response path and the raw matrix path see identical signatures.
        assert from_matrix == classifier.classify_responses(responses)
        assert from_matrix[0].component == classifier.classify_response(
            responses[0]).component

    def test_single_point_convenience_and_labels(self):
        _, classifier = _exact_setup("rc_lowpass")
        point = np.array([0.4, -0.2])
        # A 1-D point promotes to (1, D).
        diagnoses = classifier.classify_points(point)
        assert len(diagnoses) == 1
        assert diagnoses[0] == classifier.classify_point(point)
        assert diagnoses[0] == reference_classify_point(
            classifier.trajectories, point)

    def test_dimension_validation(self):
        _, classifier = _exact_setup("rc_lowpass")
        with pytest.raises(DiagnosisError):
            classifier.classify_points(np.zeros((3, 5)))
        with pytest.raises(DiagnosisError):
            classifier.signatures_from_db(np.zeros((3, 5)))

    def test_needs_golden_for_relative_mapping(self, biquad_trajectories):
        classifier = TrajectoryClassifier(biquad_trajectories, golden=None)
        with pytest.raises(DiagnosisError):
            classifier.classify_responses(np.zeros((2, 2)))

    def test_result_diagnose_many(self, quick_pipeline_result,
                                  biquad_info):
        """The pipeline's batch API agrees with its scalar API."""
        result = quick_pipeline_result
        freqs = np.array(sorted(result.test_vector_hz))
        responses = []
        for component, deviation in (("R1", 0.25), ("R2", -0.15),
                                     ("C1", 0.35)):
            faulty = biquad_info.circuit.scaled_value(component,
                                                      1.0 + deviation)
            responses.append(ACAnalysis(faulty).transfer(
                biquad_info.output_node, freqs))
        batched = result.diagnose_many(responses)
        assert batched == [result.diagnose_response(r) for r in responses]
        # The batch entry point is the pipeline's own classifier.
        assert result.batch_diagnoser() is result.classifier
        points = np.vstack([d.point for d in batched])
        assert result.diagnose_points(points) == batched


# ----------------------------------------------------------------------
# Batched answer assembly against the per-row loop it replaced, kept
# here verbatim as the reference: same projection, then one Python
# ranking loop and one margin call per row.
# ----------------------------------------------------------------------
from repro.diagnosis import make_test_cases  # noqa: E402
from repro.diagnosis.classifier import (  # noqa: E402
    _margins, check_points, perpendicular_candidates)
from repro.trajectory.geometry import project_points  # noqa: E402


def _reference_margin(ranking, winner):
    others = [distance for component, distance in ranking
              if component != winner]
    if not others:
        return float("inf")
    winner_distance = dict(ranking)[winner]
    margin = float(min(others) - winner_distance)
    if not margin >= 0.0:
        raise DiagnosisError(
            f"negative margin {margin!r} for winner {winner!r}: "
            "ranking was not computed over the winner's candidate "
            "distances")
    return margin


def reference_classify_rows(classifier, points):
    points = check_points(points, classifier.dimension)
    distances, t_clamped, interior = project_points(
        points, classifier._segments)
    candidates, has_perpendicular = perpendicular_candidates(
        distances, interior)
    winners = np.argmin(candidates, axis=1)
    layout = classifier._layout
    rows = np.arange(points.shape[0])
    t_win = t_clamped[rows, winners]
    dev0 = layout.seg_dev0[winners]
    deviations = dev0 + t_win * (layout.seg_dev1[winners] - dev0)
    win_distances = distances[rows, winners]
    owners = layout.owners[winners]
    per_component = np.minimum.reduceat(
        candidates, layout.segment_offsets[:-1], axis=1)
    orders = np.argsort(per_component, axis=1, kind="stable")
    components = classifier.trajectories.components
    diagnoses = []
    for row in rows:
        ranking = tuple((components[index],
                         float(per_component[row, index]))
                        for index in orders[row])
        component = components[int(owners[row])]
        diagnoses.append(Diagnosis(
            component=component,
            estimated_deviation=float(deviations[row]),
            distance=float(win_distances[row]),
            perpendicular=bool(has_perpendicular[row]),
            margin=_reference_margin(ranking, component),
            point=tuple(float(x) for x in points[row]),
            ranking=ranking,
        ))
    return diagnoses


def _same_answers(got, want):
    """Bitwise equality of answer lists: ``repr`` spells every float
    exactly (and tells -0.0 from 0.0, unlike ``==``)."""
    assert len(got) == len(want)
    for row, (a, b) in enumerate(zip(got, want)):
        assert type(a) is type(b) and repr(a) == repr(b), row


class TestBatchedAnswersEqualRowLoop:
    @pytest.mark.parametrize("name", sorted(BENCHMARK_CIRCUITS))
    def test_toleranced_rows_on_every_benchmark(self, name):
        info, classifier = _exact_setup(name)
        cases = make_test_cases(info, classifier.trajectories.mapper,
                                tolerance=0.03, noise_db=0.05, repeats=3,
                                seed=29)
        points = np.vstack([case.point for case in cases])
        got = classifier.classify_points(points)
        _same_answers(got, reference_classify_rows(classifier, points))
        for diagnosis in got:
            assert type(diagnosis.margin) is float
            assert all(type(x) is float for x in diagnosis.point)
            assert all(type(d) is float for _, d in diagnosis.ranking)

    def test_single_trajectory_margin_is_infinite(self):
        classifier = TrajectoryClassifier(TrajectorySet(
            SignatureMapper((100.0, 200.0)),
            (axis_trajectory("R1", (1.0, 0.5)),)))
        points = np.array([[0.05, 0.02], [3.0, -1.0], [0.0, 0.0]])
        got = classifier.classify_points(points)
        assert all(d.margin == float("inf") for d in got)
        _same_answers(got, reference_classify_rows(classifier, points))

    def test_coincident_trajectories_tie_at_zero_margin(self):
        classifier = TrajectoryClassifier(TrajectorySet(
            SignatureMapper((100.0, 200.0)),
            (axis_trajectory("R1", (1.0, 0.0)),
             axis_trajectory("R2", (1.0, 0.0)),
             axis_trajectory("C1", (0.0, 1.0)))))
        points = np.array([[0.05, 0.001], [0.15, -0.02]])
        got = classifier.classify_points(points)
        assert [d.margin for d in got] == [0.0, 0.0]
        _same_answers(got, reference_classify_rows(classifier, points))

    def test_margin_of_a_tied_winner_ranked_second(self):
        """The vector margin excludes the winner wherever the ranking
        puts it: a winner tied with the first-ranked component has
        margin 0."""
        names = ("A", "B", "C")
        per_component = np.array([[1.0, 1.0, 2.0], [0.5, 3.0, 0.5],
                                  [4.0, 2.5, 2.5]])
        owners = np.array([1, 2, 2])
        margins = _margins(per_component, owners, names)
        for row, owner in enumerate(owners):
            order = np.argsort(per_component[row], kind="stable")
            ranking = tuple((names[i], float(per_component[row, i]))
                            for i in order)
            assert ranking[0][0] != names[owner]
            assert margins[row] == _reference_margin(ranking,
                                                     names[owner]) == 0.0

    def test_negative_margin_raises_naming_the_winner(self):
        with pytest.raises(DiagnosisError, match="negative margin -1.0 "
                           "for winner 'B'"):
            _margins(np.array([[0.5, 0.5], [1.0, 2.0]]), np.array([0, 1]),
                     ("A", "B"))
