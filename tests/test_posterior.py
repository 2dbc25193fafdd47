"""Probabilistic diagnosis tier: posterior sanity + determinism.

The load-bearing property is the zero-tolerance limit: with
``tolerance=0`` every Monte-Carlo world collapses onto the nominal
trajectories, and the posterior argmax must reproduce the hard
classifier's decision -- same masked candidate distances, same stable
tie-breaking -- on every registry circuit. Everything after the build
is deterministic NumPy, so repeated builds must agree bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FaultTrajectoryATPG, PipelineConfig
from repro.circuits.library import BENCHMARK_CIRCUITS, get_benchmark
from repro.diagnosis import (FAULT_FREE_LABEL, PosteriorConfig,
                             PosteriorDiagnoser)
from repro.errors import DiagnosisError, ReproError
from repro.ga import GAConfig
from repro.runtime import codec
from repro.sim import ACAnalysis

QUICK = PipelineConfig(dictionary_points=32, deviations=(-0.2, 0.2),
                       ga=GAConfig(population_size=8, generations=2))

#: Fault deviations never used to build trajectories or sample worlds.
HELD_OUT = (-0.25, -0.1, 0.1, 0.25)

ALL_CIRCUITS = tuple(sorted(BENCHMARK_CIRCUITS))


@pytest.fixture(scope="module")
def atpg_cache():
    """One quick ATPG run per circuit, shared across this module."""
    cache = {}

    def run(name):
        if name not in cache:
            cache[name] = FaultTrajectoryATPG(
                get_benchmark(name), QUICK).run(seed=11)
        return cache[name]

    return run


def _measured_rows(result, cases):
    """dB rows at the (sorted) test vector for (component, deviation)
    fault cases, plus the matching hard-classifier components."""
    info = result.info
    freqs = np.array(sorted(result.test_vector_hz))
    rows = [ACAnalysis(info.circuit.scaled_value(component,
                                                 1.0 + deviation))
            .transfer(info.output_node, freqs).magnitude_db_at(freqs)
            for component, deviation in cases]
    return np.array(rows)


class TestZeroToleranceLimit:
    @pytest.mark.parametrize("circuit_name", ALL_CIRCUITS)
    def test_argmax_matches_hard_classifier(self, atpg_cache,
                                            circuit_name):
        """tolerance -> 0: the posterior winner, tie-breaking and
        deviation estimate all reproduce the hard classifier on
        held-out fault responses, for every registry circuit."""
        result = atpg_cache(circuit_name)
        posterior = PosteriorDiagnoser.from_atpg(
            result, PosteriorConfig(n_samples=2, tolerance=0.0,
                                    seed=11))
        diagnoser = result.batch_diagnoser()
        cases = [(component, deviation)
                 for component in result.info.faultable
                 for deviation in HELD_OUT]
        rows = _measured_rows(result, cases)
        points = diagnoser.signatures(rows)
        hard = diagnoser.classify_points(points)
        soft = posterior.diagnose_points(points)
        for case, hard_one, soft_one in zip(cases, hard, soft):
            assert soft_one.component == hard_one.component, case
            assert soft_one.expected_deviation == pytest.approx(
                hard_one.estimated_deviation, rel=1e-9, abs=1e-12)

    def test_golden_response_wins_fault_free(self, atpg_cache):
        result = atpg_cache("rc_lowpass")
        posterior = PosteriorDiagnoser.from_atpg(
            result, PosteriorConfig(n_samples=2, tolerance=0.0,
                                    seed=11))
        origin = np.zeros((1, posterior.dimension))
        diagnosis = posterior.diagnose_points(origin)[0]
        assert diagnosis.component == FAULT_FREE_LABEL
        assert diagnosis.probability >= 1.0 / len(
            posterior.component_labels)


class TestPosteriorSanity:
    @pytest.fixture(scope="class")
    def sampled(self, atpg_cache):
        result = atpg_cache("sallen_key_lowpass")
        return result, PosteriorDiagnoser.from_atpg(
            result, PosteriorConfig(n_samples=16, tolerance=0.05,
                                    seed=11))

    def test_probabilities_normalised(self, sampled):
        result, posterior = sampled
        cases = [(component, deviation)
                 for component in result.info.faultable
                 for deviation in HELD_OUT]
        rows = _measured_rows(result, cases)
        for diagnosis in posterior.diagnose_db(rows):
            probs = [p for _, p in diagnosis.probabilities]
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)
            assert all(p >= 0.0 for p in probs)
            assert sorted(probs, reverse=True) == probs
            labels = {name for name, _ in diagnosis.probabilities}
            assert labels == set(posterior.component_labels)
            assert 0.0 <= diagnosis.entropy_bits <= np.log2(
                len(posterior.component_labels)) + 1e-12

    def test_test_ranking_covers_candidates(self, sampled):
        result, posterior = sampled
        rows = _measured_rows(result, [(result.info.faultable[0], 0.1)])
        diagnosis = posterior.diagnose_db(rows)[0]
        gains = [gain for _, gain in diagnosis.test_ranking]
        assert len(diagnosis.test_ranking) == posterior._cand_freqs.size
        assert all(np.isfinite(gain) and gain >= 0.0 for gain in gains)
        assert sorted(gains, reverse=True) == gains

    def test_bitwise_reproducible_build(self, sampled, atpg_cache):
        """Same config + seed -> bitwise-identical posteriors and test
        rankings, including over the wire."""
        result, posterior = sampled
        rebuilt = PosteriorDiagnoser.from_atpg(
            result, PosteriorConfig(n_samples=16, tolerance=0.05,
                                    seed=11))
        cases = [(component, deviation)
                 for component in result.info.faultable[:2]
                 for deviation in HELD_OUT]
        rows = _measured_rows(result, cases)
        first = posterior.diagnose_db(rows)
        second = rebuilt.diagnose_db(rows)
        assert first == second
        assert codec.encode_posterior_response(first) == \
            codec.encode_posterior_response(second)

    def test_batch_equals_single_row_calls(self, sampled):
        result, posterior = sampled
        cases = [(component, 0.25)
                 for component in result.info.faultable]
        rows = _measured_rows(result, cases)
        batched = posterior.diagnose_db(rows)
        single = [posterior.diagnose_db(rows[index:index + 1])[0]
                  for index in range(rows.shape[0])]
        assert batched == single


class TestPosteriorConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n_samples": 0},
        {"tolerance": -0.1},
        {"tolerance": 1.0},
        {"distribution": "cauchy"},
        {"noise_db": -1.0},
        {"n_candidates": 0},
        {"samples_per_block": 0},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ReproError):
            PosteriorConfig(**kwargs)

    def test_wire_round_trip(self, atpg_cache):
        result = atpg_cache("rc_lowpass")
        posterior = PosteriorDiagnoser.from_atpg(
            result, PosteriorConfig(n_samples=4, seed=11))
        rows = _measured_rows(result, [("R1", 0.25), ("C1", -0.25)])
        diagnoses = posterior.diagnose_db(rows)
        decoded = codec.decode_posterior_response(
            codec.encode_posterior_response(diagnoses))
        assert decoded == diagnoses
        many = codec.decode_response_many(
            codec.encode_response_many([diagnoses, []], "posterior"),
            "posterior")
        assert many == [diagnoses, []]


class TestBlockedBuild:
    """The build simulates worlds in blocks; every tolerance draw is made
    up front from the root seed, so blocking never changes a result."""

    def _diagnoses(self, result, config):
        posterior = PosteriorDiagnoser.from_atpg(result, config)
        rows = _measured_rows(result, [("R1", 0.25), ("C1", -0.25),
                                       ("R1", -0.1)])
        return posterior.diagnose_db(rows)

    def test_block_size_does_not_change_result(self, atpg_cache):
        result = atpg_cache("sallen_key_lowpass")
        one_block = self._diagnoses(
            result, PosteriorConfig(n_samples=24, samples_per_block=24,
                                    seed=11))
        blocked = self._diagnoses(
            result, PosteriorConfig(n_samples=24, samples_per_block=5,
                                    seed=11))
        assert blocked == one_block
        assert codec.encode_posterior_response(blocked) == \
            codec.encode_posterior_response(one_block)

    def test_per_seed_reproducible(self, atpg_cache):
        """Two builds with one seed agree bitwise; a different seed
        actually changes the sampled worlds."""
        import dataclasses
        result = atpg_cache("rc_lowpass")
        config = PosteriorConfig(n_samples=24, samples_per_block=4,
                                 seed=11)
        first = self._diagnoses(result, config)
        again = self._diagnoses(result, config)
        assert first == again
        other = self._diagnoses(
            result, dataclasses.replace(config, seed=12))
        assert other != first
