"""Batched classification: strict equivalence with the per-point
reference classifier on every benchmark circuit."""

import numpy as np
import pytest

from repro import BENCHMARK_CIRCUITS, get_benchmark, parametric_universe
from repro.diagnosis import TrajectoryClassifier
from repro.errors import DiagnosisError
from repro.faults import FaultDictionary
from repro.sim import ACAnalysis
from repro.trajectory import SignatureMapper, TrajectorySet
from test_classifier import reference_classify_point

DEVIATIONS = (-0.3, -0.1, 0.1, 0.3)


def _exact_setup(name):
    """Classifier simulated exactly at a 2-freq test vector for one
    benchmark circuit."""
    info = get_benchmark(name)
    universe = parametric_universe(info.circuit,
                                   components=info.faultable,
                                   deviations=DEVIATIONS)
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


@pytest.mark.parametrize("name", sorted(BENCHMARK_CIRCUITS))
def test_batch_equals_scalar_on_every_benchmark(name, rng):
    _, classifier = _exact_setup(name)
    points = _probe_points(classifier.trajectories, rng)
    diagnoses = classifier.classify_points(points)
    assert len(diagnoses) == points.shape[0]
    for point, batched in zip(points, diagnoses):
        assert batched == reference_classify_point(
            classifier.trajectories, point)
        assert batched == classifier.classify_point(point)


def test_batch_equals_scalar_through_responses():
    info, classifier = _exact_setup("tow_thomas_biquad")
    freqs = np.array(sorted(classifier.trajectories.mapper.test_freqs_hz))
    responses = []
    for component, deviation in (("R1", 0.22), ("R2", -0.17),
                                 ("C1", 0.05), ("C2", -0.33)):
        faulty = info.circuit.scaled_value(component, 1.0 + deviation)
        responses.append(ACAnalysis(faulty).transfer(
            info.output_node, freqs, input_source=info.input_source))
    batched = classifier.classify_responses(responses)
    assert batched == [classifier.classify_response(r) for r in responses]
    golden = classifier.golden
    mapper = classifier.trajectories.mapper
    assert batched == [
        reference_classify_point(classifier.trajectories,
                                 mapper.signature(r, golden))
        for r in responses]


def test_db_matrix_path_matches_response_path():
    _, classifier = _exact_setup("sallen_key_lowpass")
    info = get_benchmark("sallen_key_lowpass")
    freqs = np.array(sorted(classifier.trajectories.mapper.test_freqs_hz))
    responses = [ACAnalysis(info.circuit.scaled_value("R1", 1.3)).transfer(
        info.output_node, freqs, input_source=info.input_source)]
    matrix = np.vstack([r.magnitude_db_at(freqs) for r in responses])
    from_matrix = classifier.classify_responses(matrix)
    # The matrix rows *are* exact grid samples, so the interpolated
    # response path and the raw matrix path see identical signatures.
    assert from_matrix == classifier.classify_responses(responses)
    assert from_matrix[0].component == classifier.classify_response(
        responses[0]).component


def test_single_point_convenience_and_labels():
    _, classifier = _exact_setup("rc_lowpass")
    point = np.array([0.4, -0.2])
    diagnoses = classifier.classify_points(point)  # 1-D promotes to (1, D)
    assert len(diagnoses) == 1
    assert diagnoses[0] == classifier.classify_point(point)
    assert diagnoses[0] == reference_classify_point(
        classifier.trajectories, point)


def test_dimension_validation():
    _, classifier = _exact_setup("rc_lowpass")
    with pytest.raises(DiagnosisError):
        classifier.classify_points(np.zeros((3, 5)))
    with pytest.raises(DiagnosisError):
        classifier.signatures_from_db(np.zeros((3, 5)))


def test_needs_golden_for_relative_mapping(biquad_trajectories):
    classifier = TrajectoryClassifier(biquad_trajectories, golden=None)
    with pytest.raises(DiagnosisError):
        classifier.classify_responses(np.zeros((2, 2)))


def test_result_diagnose_many(quick_pipeline_result, biquad_info):
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
