"""Tests for baseline diagnosers and the evaluation harness."""

import dataclasses

import numpy as np
import pytest

from repro import FaultTrajectoryATPG, PipelineConfig
from repro.diagnosis import (
    HELD_OUT_DEVIATIONS,
    NearestNeighborClassifier,
    TrajectoryClassifier,
    evaluate_classifier,
    exhaustive_search,
    isolability_classes,
    make_test_cases,
    random_test_vectors,
)
from repro.circuits import BENCHMARK_CIRCUITS, get_benchmark
from repro.diagnosis.evaluate import DiagnosisCase
from repro.errors import DiagnosisError
from repro.faults import DictionaryEntry, FaultDictionary, \
    ParametricFault
from repro.ga import FrequencySpace, GAConfig
from repro.sim import FrequencyResponse
from repro.trajectory import (
    FaultTrajectory,
    SignatureMapper,
    TrajectorySet,
)


@pytest.fixture(scope="module")
def nn_classifier(biquad_dictionary):
    mapper = SignatureMapper((500.0, 1500.0))
    return NearestNeighborClassifier(biquad_dictionary, mapper)


class TestNearestNeighbor:
    def test_stored_point_maps_to_its_fault(self, nn_classifier,
                                            biquad_dictionary):
        mapper = nn_classifier.mapper
        entry = biquad_dictionary.entry("R1+20%")
        point = mapper.signature(entry.response,
                                 biquad_dictionary.golden)
        diagnosis = nn_classifier.classify_point(point)
        assert diagnosis.component == "R1"
        assert diagnosis.estimated_deviation == pytest.approx(0.2)

    def test_cannot_interpolate_deviation(self, nn_classifier,
                                          biquad_info):
        """NN returns a grid deviation; a +25% fault snaps to +20% or
        +30% -- the structural weakness the trajectory method fixes."""
        from repro.sim import ACAnalysis
        freqs = np.array([500.0, 1500.0])
        golden = ACAnalysis(biquad_info.circuit).transfer(
            biquad_info.output_node, freqs)
        faulty = ACAnalysis(
            biquad_info.circuit.scaled_value("R1", 1.25)).transfer(
                biquad_info.output_node, freqs)
        point = nn_classifier.mapper.signature(faulty, golden)
        diagnosis = nn_classifier.classify_point(point)
        assert diagnosis.component == "R1"
        assert diagnosis.estimated_deviation in (
            pytest.approx(0.2), pytest.approx(0.3))

    def test_dimension_check(self, nn_classifier):
        with pytest.raises(DiagnosisError):
            nn_classifier.classify_point(np.zeros(3))

    def test_ranking_covers_components(self, nn_classifier):
        diagnosis = nn_classifier.classify_point(np.array([0.5, 0.5]))
        assert len(diagnosis.ranking) == 7


class TestVectorSelectors:
    def test_random_test_vectors(self):
        space = FrequencySpace(10.0, 1e6, 2)
        vectors = random_test_vectors(space, 5, seed=3)
        assert len(vectors) == 5
        for f1, f2 in vectors:
            assert 10.0 <= f1 < f2 <= 1e6 * (1 + 1e-9)

    def test_random_vectors_deterministic(self):
        space = FrequencySpace(10.0, 1e6, 2)
        assert random_test_vectors(space, 3, seed=7) == \
            random_test_vectors(space, 3, seed=7)

    def test_random_count_validation(self):
        space = FrequencySpace(10.0, 1e6, 2)
        with pytest.raises(DiagnosisError):
            random_test_vectors(space, 0)

    def test_exhaustive_search_finds_target(self):
        """Fitness peaked at (100, 10k): the grid scan must find the
        nearest grid pair and report its evaluation count."""
        space = FrequencySpace(10.0, 1e5, 2)

        def fitness(freqs):
            target = np.log10(np.array([100.0, 1e4]))
            got = np.log10(np.array(freqs))
            return float(np.exp(-np.sum((got - target) ** 2)))

        best, value, evaluations = exhaustive_search(
            space, fitness, points_per_decade=5)
        assert best[0] == pytest.approx(100.0, rel=0.3)
        assert best[1] == pytest.approx(1e4, rel=0.3)
        # C(21, 2) = 210 combinations for 4 decades at 5/decade.
        assert evaluations == 210


class TestMakeCases:
    def test_case_count(self, biquad_info):
        mapper = SignatureMapper((500.0, 1500.0))
        cases = make_test_cases(biquad_info, mapper,
                                deviations=(-0.15, 0.15))
        assert len(cases) == 7 * 2
        components = {case.true_component for case in cases}
        assert components == set(biquad_info.faultable)

    def test_repeats_and_noise_deterministic(self, biquad_info):
        mapper = SignatureMapper((500.0, 1500.0))
        kwargs = dict(deviations=(0.25,), noise_db=0.1, repeats=3,
                      seed=42)
        a = make_test_cases(biquad_info, mapper, **kwargs)
        b = make_test_cases(biquad_info, mapper, **kwargs)
        assert len(a) == 21
        for case_a, case_b in zip(a, b):
            assert np.allclose(case_a.point, case_b.point)

    def test_noise_changes_points(self, biquad_info):
        mapper = SignatureMapper((500.0, 1500.0))
        clean = make_test_cases(biquad_info, mapper, deviations=(0.25,))
        noisy = make_test_cases(biquad_info, mapper, deviations=(0.25,),
                                noise_db=0.1, seed=1)
        assert not np.allclose(clean[0].point, noisy[0].point)

    def test_tolerance_perturbs_other_components(self, biquad_info):
        mapper = SignatureMapper((500.0, 1500.0))
        clean = make_test_cases(biquad_info, mapper, deviations=(0.25,))
        spread = make_test_cases(biquad_info, mapper, deviations=(0.25,),
                                 tolerance=0.05, seed=1)
        assert not np.allclose(clean[0].point, spread[0].point)

    def test_validation(self, biquad_info):
        mapper = SignatureMapper((500.0, 1500.0))
        with pytest.raises(DiagnosisError):
            make_test_cases(biquad_info, mapper, noise_db=-1.0)
        with pytest.raises(DiagnosisError):
            make_test_cases(biquad_info, mapper, repeats=0)


class TestEvaluation:
    def make_xy_classifier(self):
        mapper = SignatureMapper((100.0, 1000.0))
        deviations = (-0.2, -0.1, 0.0, 0.1, 0.2)
        x = FaultTrajectory("X", deviations,
                            np.outer(deviations, [1.0, 0.0]))
        y = FaultTrajectory("Y", deviations,
                            np.outer(deviations, [0.0, 1.0]))
        return TrajectoryClassifier(TrajectorySet(mapper, (x, y)))

    def test_perfect_synthetic_evaluation(self):
        classifier = self.make_xy_classifier()
        cases = [
            DiagnosisCase("X", 0.15, np.array([0.15, 0.0])),
            DiagnosisCase("X", -0.05, np.array([-0.05, 0.0])),
            DiagnosisCase("Y", 0.12, np.array([0.0, 0.12])),
        ]
        result = evaluate_classifier(classifier, cases)
        assert result.accuracy == 1.0
        assert result.deviation_mae() == pytest.approx(0.0, abs=1e-9)
        assert result.num_cases == 3

    def test_confusion_and_per_component(self):
        classifier = self.make_xy_classifier()
        cases = [
            DiagnosisCase("X", 0.15, np.array([0.15, 0.0])),
            DiagnosisCase("Y", 0.15, np.array([0.15, 0.0])),  # mislabeled
        ]
        result = evaluate_classifier(classifier, cases)
        assert result.accuracy == 0.5
        confusion = result.confusion()
        assert confusion[("X", "X")] == 1
        assert confusion[("Y", "X")] == 1
        per = result.per_component_accuracy()
        assert per["X"] == 1.0
        assert per["Y"] == 0.0

    def test_group_accuracy(self):
        classifier = self.make_xy_classifier()
        cases = [DiagnosisCase("Y", 0.15, np.array([0.15, 0.0]))]
        groups = (frozenset({"X", "Y"}),)
        result = evaluate_classifier(classifier, cases, groups=groups)
        assert result.accuracy == 0.0
        assert result.group_accuracy == 1.0

    def test_summary_text(self):
        classifier = self.make_xy_classifier()
        cases = [DiagnosisCase("X", 0.15, np.array([0.15, 0.0]))]
        result = evaluate_classifier(classifier, cases,
                                     groups=(frozenset({"X", "Y"}),))
        text = result.summary()
        assert "component accuracy" in text
        assert "group accuracy" in text

    def test_empty_cases_rejected(self):
        with pytest.raises(DiagnosisError):
            evaluate_classifier(self.make_xy_classifier(), [])

    def test_held_out_deviations_are_off_grid(self):
        from repro.faults import paper_deviation_grid
        grid = set(paper_deviation_grid())
        assert not grid.intersection(HELD_OUT_DEVIATIONS)


def synthetic_dictionary(rows_by_fault):
    """A dictionary whose dB rows are given per ``(component,
    deviation)`` on a 3-point grid."""
    freqs = np.array([100.0, 1000.0, 10000.0])
    golden = FrequencyResponse(freqs, np.ones(3, dtype=complex))
    entries = [
        DictionaryEntry(ParametricFault(name, deviation),
                        FrequencyResponse(
                            freqs, 10.0 ** (np.asarray(db) / 20.0) + 0j))
        for (name, deviation), db in rows_by_fault.items()]
    return FaultDictionary("synthetic", "out", freqs, golden, entries)


class TestIsolabilityClasses:
    #: Exact classes of every registry circuit (all other parts are
    #: singletons).
    REGISTRY_CLASSES = {
        "tow_thomas_biquad": [{"R3", "R5"}, {"R4", "C2"}],
        "sallen_key_lowpass": [{"R1", "R2"}],
        "khn_state_variable": [{"R6", "C1"}, {"R7", "C2"}],
        "mfb_bandpass": [],
        "twin_t_notch": [],
        "lc_ladder_lowpass5": [{"C1", "C5"}, {"L2", "L4"}],
        "rc_ladder": [{"R1", "C5"}, {"C1", "R5"}, {"R2", "C4"},
                      {"C2", "R4"}, {"R3", "C3"}],
        "rc_lowpass": [{"R1", "C1"}],
        "voltage_divider": [],
    }

    def test_registry_circuit_classes(self):
        assert set(self.REGISTRY_CLASSES) == set(BENCHMARK_CIRCUITS)
        for name, expected in self.REGISTRY_CLASSES.items():
            info = get_benchmark(name)
            _, dictionary = FaultTrajectoryATPG(
                info, PipelineConfig.quick()).build_dictionary()
            classes = isolability_classes(dictionary)
            assert set().union(*classes) == set(info.faultable), name
            assert sorted(map(sorted, (c for c in classes
                                       if len(c) > 1))) == \
                sorted(map(sorted, expected)), name

    def test_macromodel_biquad_has_no_class(self, biquad_dictionary):
        classes = isolability_classes(biquad_dictionary)
        assert all(len(c) == 1 for c in classes)
        assert len(classes) == len(biquad_dictionary.components)

    def test_independent_of_ga_seed(self, biquad_ideal_info):
        config = dataclasses.replace(
            PipelineConfig.quick(),
            ga=GAConfig.quick(seeded_generations=2, population_size=8))
        first = FaultTrajectoryATPG(biquad_ideal_info, config).run(seed=1)
        second = FaultTrajectoryATPG(biquad_ideal_info, config).run(
            seed=2)
        assert first.test_vector_hz != second.test_vector_hz
        assert first.groups == second.groups
        assert frozenset({"R3", "R5"}) in first.groups

    def test_transitive_merge_and_sorted_output(self):
        # A-B and B-C differ by 0.8e-6 dB, A-C by 1.6e-6 dB: only the
        # transitive closure puts A and C together.
        base = [0.0, -3.0, -20.0]
        rows = {}
        for name, offset in (("C", 1.6e-6), ("A", 0.0), ("B", 0.8e-6)):
            for deviation in (-0.1, 0.1):
                rows[(name, deviation)] = np.add(base, offset + deviation)
        rows[("D", -0.1)] = np.add(base, 5.0)
        rows[("D", 0.1)] = np.add(base, 6.0)
        classes = isolability_classes(synthetic_dictionary(rows))
        assert classes == (frozenset({"A", "B", "C"}), frozenset({"D"}))

    def test_mismatched_deviation_sets_stay_apart(self):
        # B equals A at every shared deviation but carries an extra one;
        # E has A's rows under another deviation set; C lists A's
        # deviations in another order and still merges.
        base = [0.0, -3.0, -20.0]
        rows = {}
        for name, deviations in (("A", (-0.1, 0.1)),
                                 ("B", (-0.1, 0.1, 0.2)),
                                 ("C", (0.1, -0.1))):
            for deviation in deviations:
                rows[(name, deviation)] = np.add(base, deviation)
        rows[("E", -0.1)] = rows[("A", -0.1)]
        rows[("E", 0.2)] = rows[("A", 0.1)]
        classes = isolability_classes(synthetic_dictionary(rows))
        assert classes == (frozenset({"A", "C"}), frozenset({"B"}),
                           frozenset({"E"}))

    def test_single_component(self):
        rows = {("A", 0.1): [0.0, 1.0, 2.0]}
        assert isolability_classes(synthetic_dictionary(rows)) == \
            (frozenset({"A"}),)
