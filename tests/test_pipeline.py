"""End-to-end pipeline and integration tests."""

import dataclasses

import numpy as np
import pytest

from repro import (
    FaultTrajectoryATPG,
    PipelineConfig,
    mfb_bandpass,
    sallen_key_lowpass,
)
from repro.errors import ReproError
from repro.ga import GAConfig
from repro.sim import ACAnalysis


class TestPipelineConfig:
    def test_paper_defaults(self):
        config = PipelineConfig.paper()
        assert config.num_frequencies == 2
        assert config.fitness == "paper"
        assert config.ga.population_size == 128
        assert len(config.deviations) == 8

    def test_validation(self):
        with pytest.raises(ReproError):
            PipelineConfig(fitness="best")
        with pytest.raises(ReproError):
            PipelineConfig(dictionary_points=4)
        with pytest.raises(ReproError):
            PipelineConfig(num_frequencies=0)
        with pytest.raises(ReproError):
            PipelineConfig(deviations=())
        with pytest.raises(ReproError):
            PipelineConfig(ambiguity_threshold=-1.0)


class TestPipelineRun:
    def test_quick_run_artifacts(self, quick_pipeline_result,
                                 biquad_info):
        result = quick_pipeline_result
        assert len(result.universe) == 56
        assert len(result.dictionary) == 56
        assert len(result.test_vector_hz) == 2
        assert result.trajectories.components == biquad_info.faultable
        assert result.metrics.intersections >= 0
        assert result.elapsed_seconds > 0.0

    def test_test_vector_in_band(self, quick_pipeline_result,
                                 biquad_info):
        f1, f2 = quick_pipeline_result.test_vector_hz
        assert biquad_info.f_min_hz <= f1 < f2
        assert f2 <= biquad_info.f_max_hz * (1 + 1e-9)

    def test_report_mentions_key_facts(self, quick_pipeline_result):
        text = quick_pipeline_result.report()
        assert "tow_thomas_biquad" in text
        assert "test vector" in text
        assert "GA fitness" in text

    def test_deterministic(self, biquad_info):
        config = PipelineConfig.quick()
        a = FaultTrajectoryATPG(biquad_info, config).run(seed=11)
        b = FaultTrajectoryATPG(biquad_info, config).run(seed=11)
        assert a.test_vector_hz == b.test_vector_hz

    def test_diagnose_injected_faults(self, quick_pipeline_result,
                                      biquad_info):
        """Held-out faults on well-separated components diagnose
        correctly through the response path."""
        result = quick_pipeline_result
        freqs = np.array(sorted(result.test_vector_hz))
        for component, deviation in (("R1", 0.25), ("R2", -0.15),
                                     ("C1", 0.35)):
            faulty = biquad_info.circuit.scaled_value(
                component, 1.0 + deviation)
            response = ACAnalysis(faulty).transfer(
                biquad_info.output_node, freqs)
            diagnosis = result.diagnose_response(response)
            assert diagnosis.component == component, (component,
                                                      deviation)
            assert diagnosis.estimated_deviation == pytest.approx(
                deviation, abs=0.05)

    def test_clean_evaluation_perfect_at_group_level(
            self, quick_pipeline_result):
        evaluation = quick_pipeline_result.evaluate(
            deviations=(-0.25, 0.25))
        assert evaluation.group_accuracy == 1.0
        assert evaluation.accuracy >= 10.0 / 14.0

    def test_fault_free_point(self, quick_pipeline_result):
        assert quick_pipeline_result.classifier.is_fault_free(
            np.zeros(2), threshold=1e-6)

    def test_components_subset(self, biquad_info):
        config = PipelineConfig.quick()
        pipeline = FaultTrajectoryATPG(biquad_info, config,
                                       components=("R1", "R2", "C1"))
        result = pipeline.run(seed=3)
        assert result.trajectories.components == ("R1", "R2", "C1")
        assert len(result.universe) == 24


class TestFitnessVariants:
    @pytest.mark.parametrize("fitness", ["paper", "margin", "combined"])
    def test_all_fitness_kinds_run(self, biquad_info, fitness):
        config = dataclasses.replace(
            PipelineConfig.quick(), fitness=fitness,
            ga=GAConfig.quick(seeded_generations=2, population_size=8))
        result = FaultTrajectoryATPG(biquad_info, config).run(seed=5)
        assert result.ga_result.best_fitness >= 0.0


class TestCrossCircuit:
    def test_sallen_key_pipeline(self):
        info = sallen_key_lowpass()
        config = PipelineConfig.quick()
        result = FaultTrajectoryATPG(info, config).run(seed=2)
        assert result.trajectories.components == ("R1", "R2", "C1", "C2")
        evaluation = result.evaluate(deviations=(-0.25, 0.25))
        # The Sallen-Key has its own exact degeneracy (R1/R2 at unity
        # gain); group-level accuracy must still be perfect.
        assert evaluation.group_accuracy == 1.0

    def test_mfb_bandpass_pipeline(self):
        info = mfb_bandpass()
        config = PipelineConfig.quick()
        result = FaultTrajectoryATPG(info, config).run(seed=2)
        evaluation = result.evaluate(deviations=(0.25,))
        assert evaluation.group_accuracy == 1.0

    def test_three_frequency_pipeline(self, biquad_info):
        config = dataclasses.replace(
            PipelineConfig.quick(), num_frequencies=3,
            ga=GAConfig.quick(seeded_generations=2, population_size=8))
        result = FaultTrajectoryATPG(biquad_info, config).run(seed=4)
        assert len(result.test_vector_hz) == 3
        assert result.trajectories.dimension == 3
        evaluation = result.evaluate(deviations=(0.25,))
        assert evaluation.group_accuracy == 1.0
