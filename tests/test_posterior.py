"""Probabilistic diagnosis tier: posterior sanity + determinism.

The load-bearing property is the zero-tolerance limit: with
``tolerance=0`` every Monte-Carlo world collapses onto the nominal
trajectories, and the posterior argmax must reproduce the hard
classifier's decision -- same masked candidate distances, same stable
tie-breaking -- on every registry circuit. Everything after the build
is deterministic NumPy, so repeated builds must agree bitwise.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import (FaultTrajectoryATPG, PipelineConfig, generate,
                   synthesize_universe)
from repro.circuits.library import BENCHMARK_CIRCUITS, get_benchmark
from repro.diagnosis import (FAULT_FREE_LABEL, PosteriorConfig,
                             PosteriorDiagnoser)
from repro.diagnosis import posterior as posterior_module
from repro.errors import DiagnosisError, ReproError
from repro.ga import GAConfig
from repro.runtime import codec
from repro.sim import ACAnalysis

from conftest import table_from_replacements

QUICK = PipelineConfig(dictionary_points=32, deviations=(-0.2, 0.2),
                       ga=GAConfig(population_size=8, generations=2))

#: Fault deviations never used to build trajectories or sample worlds.
HELD_OUT = (-0.25, -0.1, 0.1, 0.25)

ALL_CIRCUITS = tuple(sorted(BENCHMARK_CIRCUITS))


@pytest.fixture(scope="module")
def atpg_cache():
    """One quick ATPG run per circuit, shared across this module."""
    cache = {}

    def run(name, num_frequencies=QUICK.num_frequencies):
        key = (name, num_frequencies)
        if key not in cache:
            config = dataclasses.replace(QUICK,
                                         num_frequencies=num_frequencies)
            cache[key] = FaultTrajectoryATPG(
                get_benchmark(name), config).run(seed=11)
        return cache[key]

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
        classifier = result.classifier
        cases = [(component, deviation)
                 for component in result.info.faultable
                 for deviation in HELD_OUT]
        rows = _measured_rows(result, cases)
        points = classifier.signatures(rows)
        hard = classifier.classify_points(points)
        soft = posterior.diagnose_points(points)
        for case, hard_one, soft_one in zip(cases, hard, soft):
            assert soft_one.component == hard_one.component, case
            assert soft_one.expected_deviation == pytest.approx(
                hard_one.estimated_deviation, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("circuit_name", ALL_CIRCUITS)
    def test_distances_equal_hard_classifier_bitwise_d3(self, atpg_cache,
                                                       circuit_name):
        """tolerance -> 0 at three test frequencies: every world's
        per-component candidate distance is the hard classifier's
        ranking distance, bit for bit -- the projection's coordinate
        sum does not depend on how either tier lays out its segments."""
        result = atpg_cache(circuit_name, num_frequencies=3)
        assert result.trajectories.dimension == 3
        posterior = PosteriorDiagnoser.from_atpg(
            result, PosteriorConfig(n_samples=2, tolerance=0.0,
                                    seed=11))
        classifier = result.classifier
        cases = [(component, deviation)
                 for component in result.info.faultable
                 for deviation in HELD_OUT]
        points = classifier.signatures(_measured_rows(result, cases))
        distances, _ = posterior._surface_distances(points)  # (N, M, H)
        labels = posterior.component_labels[1:]
        hard = np.array([[dict(diagnosis.ranking)[label]
                          for label in labels]
                         for diagnosis in classifier.classify_points(points)])
        for world in range(distances.shape[1]):
            assert distances[:, world, 1:].tobytes() == hard.tobytes()

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

    def test_non_finite_point_names_the_row(self, sampled):
        _, posterior = sampled
        points = np.zeros((3, posterior.dimension))
        points[2, 0] = np.nan
        with pytest.raises(DiagnosisError, match="row 2 is not finite"):
            posterior.diagnose_points(points)


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


# ----------------------------------------------------------------------
# Oracle pins: the table-built worlds and cases against the historical
# one-Component-per-world builders, kept here as test-only references.
# ----------------------------------------------------------------------
class _ReferenceWorldEngine:
    """The pre-table world builder, verbatim, behind the engine seam.

    Each ``transfer_block`` call solves the Component-built reference
    of the world table it is handed: every row (named by its label's
    hypothesis and world) a set of ``with_value`` replacements.
    """

    def __init__(self, info, faults, config):
        from repro.sim.engine import BatchedMnaEngine
        self.circuit = info.circuit
        self.engine = BatchedMnaEngine(info.circuit)
        self.targets = tuple(info.faultable)
        self.faults = {fault.label: index
                       for index, fault in enumerate(faults)}
        self.fault_repl = [fault.replacement_component(info.circuit)
                           for fault in faults]
        rng = np.random.default_rng(config.seed)
        size = (config.n_samples, len(self.targets))
        if config.distribution == "uniform":
            self.eps = rng.uniform(-config.tolerance, config.tolerance,
                                   size=size)
        else:
            self.eps = np.clip(rng.normal(0.0, config.tolerance,
                                          size=size), -0.95, 0.95)

    def world_variant(self, label):
        circuit = self.circuit
        if label == circuit.name:
            return (), label
        hypothesis, sample = label.split("#posterior:", 1)[1] \
            .rsplit(":s", 1)
        fault_index = self.faults.get(hypothesis)
        base = {name: circuit[name] for name in self.targets}
        extra = None
        if fault_index is not None:
            faulty = self.fault_repl[fault_index]
            if faulty.name in base:
                base[faulty.name] = faulty
            else:
                extra = faulty
        parts = [base[name].with_value(
                     base[name].value * (1.0 + self.eps[int(sample), j]))
                 for j, name in enumerate(self.targets)]
        if extra is not None:
            parts.append(extra)
        return tuple(parts), label

    def transfer_block(self, output_node, grid, table, input_source):
        variants = [self.world_variant(label) for label in table.labels]
        return self.engine.transfer_block(
            output_node, grid, table_from_replacements(self.circuit,
                                                       variants),
            input_source)


def _reference_cases(info, mapper, components, deviations, noise_db,
                     tolerance, repeats, seed):
    """The pre-table ``make_test_cases`` loop: one Component per case
    and per toleranced component, verbatim."""
    from repro.diagnosis.evaluate import DiagnosisCase
    from repro.faults.models import ParametricFault
    from repro.sim.engine import BatchedMnaEngine
    rng = np.random.default_rng(seed)
    freqs = np.array(sorted(mapper.test_freqs_hz))
    variants = [((), info.circuit.name)]
    case_meta = []
    for name in components:
        for deviation in deviations:
            fault = ParametricFault(name, float(deviation))
            for _ in range(repeats):
                replacements = [fault.replacement_component(info.circuit)]
                if tolerance > 0.0:
                    for other in info.faultable:
                        if other == name:
                            continue
                        spread = float(rng.uniform(-tolerance, tolerance))
                        component = info.circuit[other]
                        replacements.append(component.with_value(
                            component.value * (1.0 + spread)))
                noise = rng.normal(0.0, noise_db, size=mapper.dimension) \
                    if noise_db > 0.0 else None
                variants.append((tuple(replacements),
                                 f"{info.circuit.name}#{fault.label}"))
                case_meta.append((name, float(deviation), noise))
    block = BatchedMnaEngine(info.circuit).transfer_block(
        info.output_node, freqs,
        table_from_replacements(info.circuit, variants), info.input_source)
    golden = block.response(0)
    cases = []
    for index, (name, deviation, noise) in enumerate(case_meta):
        point = mapper.signature(block.response(index + 1), golden)
        if noise is not None:
            point = point + noise
        cases.append(DiagnosisCase(name, deviation, point))
    return cases, block.labels


def _narrowed(result):
    """The result's circuit info with its last two faultable components
    dropped: the universe's faults on them lie outside ``faultable``."""
    import dataclasses
    info = result.info
    return dataclasses.replace(info, faultable=info.faultable[:-2])


class TestTableBuildOracle:
    @pytest.mark.parametrize("distribution", ["uniform", "normal"])
    @pytest.mark.parametrize("narrow", [False, True])
    def test_world_tensors_match_component_reference(
            self, atpg_cache, distribution, narrow):
        """Golden points, segment tensors and candidate moments of the
        table-built posterior equal the Component-built reference
        bitwise -- including faults outside ``faultable``."""
        from repro.faults.models import ParametricFault
        from repro.sim.engine import BatchedMnaEngine
        result = atpg_cache("tow_thomas_biquad")
        info = _narrowed(result) if narrow else result.info
        config = PosteriorConfig(n_samples=12, samples_per_block=5,
                                 tolerance=0.05, distribution=distribution,
                                 seed=3)

        def build(engine):
            return PosteriorDiagnoser(info, result.universe, result.mapper,
                                      config, engine=engine)

        table_built = build(BatchedMnaEngine(info.circuit))
        faults = [fault for fault in result.universe.faults
                  if isinstance(fault, ParametricFault)]
        if narrow:
            assert any(f.component not in info.faultable for f in faults)
        reference = build(_ReferenceWorldEngine(info, faults, config))
        for diagnoser in (table_built, reference):
            diagnoser.prepare_ranking()
        for name in ("_golden_points", "_cand_mean", "_cand_sigma"):
            assert np.array_equal(getattr(table_built, name),
                                  getattr(reference, name)), name
        for name in ("seg_dev0", "seg_dev1", "segment_offsets"):
            assert np.array_equal(getattr(table_built._layout, name),
                                  getattr(reference._layout, name)), name
        for name in ("starts", "ends", "direction", "proper",
                     "safe_length_sq"):
            assert np.array_equal(getattr(table_built._segments, name),
                                  getattr(reference._segments, name)), name

    @pytest.mark.parametrize("narrow", [False, True])
    @pytest.mark.parametrize("tolerance, noise_db", [
        (0.0, 0.0), (0.03, 0.05), (0.05, 0.0)])
    def test_case_points_match_component_reference(
            self, atpg_cache, narrow, tolerance, noise_db):
        """make_test_cases writes the same RNG draws into a table: the
        case points equal the Component-built loop bitwise."""
        from repro.diagnosis import make_test_cases
        result = atpg_cache("tow_thomas_biquad")
        info = _narrowed(result) if narrow else result.info
        components = result.universe.components
        kwargs = dict(deviations=(-0.25, 0.15), noise_db=noise_db,
                      tolerance=tolerance, repeats=2)
        cases = make_test_cases(info, result.mapper, components=components,
                                seed=5, **kwargs)
        expected, _ = _reference_cases(info, result.mapper, components,
                                       seed=5, **kwargs)
        assert len(cases) == len(expected)
        for got, want in zip(cases, expected):
            assert got.true_component == want.true_component
            assert got.true_deviation == want.true_deviation
            assert np.array_equal(got.point, want.point)


# ----------------------------------------------------------------------
# The world build on the factored engine: each world's fault-free row
# is the base of its fault rows.
# ----------------------------------------------------------------------
class TestFactoredWorlds:
    CONFIG = PosteriorConfig(n_samples=6, samples_per_block=4,
                             tolerance=0.03, seed=5)

    @staticmethod
    def _pair(result, config):
        from repro.sim.engine import BatchedMnaEngine, FactoredMnaEngine
        circuit = result.info.circuit
        factored = FactoredMnaEngine(circuit)
        tiers = [PosteriorDiagnoser(result.info, result.universe,
                                    result.mapper, config, engine=engine)
                 for engine in (BatchedMnaEngine(circuit), factored)]
        return tiers[0], tiers[1], factored

    @pytest.mark.parametrize("name", ALL_CIRCUITS)
    def test_factored_build_matches_batched(self, atpg_cache, name):
        """Golden points, candidate moments and segment tensors agree
        within the factored tolerance; no world row falls back. On
        toleranced cases the winners have equal probabilities and
        equal labels, up to the isolability class: members of one
        class have coinciding fault responses, so their tie is broken
        by rounding."""
        from repro.diagnosis import isolability_classes, make_test_cases
        result = atpg_cache(name)
        batched, factored, engine = self._pair(result, self.CONFIG)
        # The build sweeps the test vector: one update per fault row.
        updates = len(factored._faults) * self.CONFIG.n_samples
        assert engine.lowrank_updates == updates
        for diagnoser in (batched, factored):
            diagnoser.prepare_ranking()
        close = dict(rtol=1e-9, atol=1e-9)
        for field in ("_golden_points", "_cand_mean", "_cand_sigma"):
            np.testing.assert_allclose(getattr(factored, field),
                                       getattr(batched, field),
                                       err_msg=field, **close)
        for field in ("starts", "ends", "direction"):
            np.testing.assert_allclose(getattr(factored._segments, field),
                                       getattr(batched._segments, field),
                                       err_msg=field, **close)
        assert engine.lowrank_fallbacks == {
            "conditioning": 0, "rank": 0, "nonfinite": 0}
        # The ranking half sweeps the same worlds once more.
        assert engine.lowrank_updates == 2 * updates
        cases = make_test_cases(result.info, result.mapper,
                                components=result.universe.components,
                                deviations=HELD_OUT, tolerance=0.03,
                                noise_db=0.05, repeats=2, seed=9)
        points = np.stack([case.point for case in cases])
        got = factored.diagnose_points(points)
        want = batched.diagnose_points(points)
        np.testing.assert_allclose([d.probability for d in got],
                                   [d.probability for d in want], **close)
        class_of = {member: members for members in
                    isolability_classes(result.dictionary)
                    for member in members}
        assert [class_of.get(d.component, d.component) for d in got] == \
            [class_of.get(d.component, d.component) for d in want]

    def test_corpus_build_has_no_rank_fallbacks(self, corpus_result):
        """A corpus circuit's world rows change every target against
        the nominal, but only one component against their world's
        base: the build never reaches the rank fallback."""
        from repro import CorpusSpec
        _, _, engine = self._pair(corpus_result,
                                  CorpusSpec.baseline().posterior)
        assert engine.lowrank_fallbacks["rank"] == 0
        assert sum(engine.lowrank_fallbacks.values()) == 0
        assert engine.lowrank_updates > 0


# ----------------------------------------------------------------------
# Information-gain oracle: the per-row log-space quadrature the closed
# form replaced, kept here as the test-only reference.
# ----------------------------------------------------------------------
def _reference_information_gain(diagnoser, posterior, entropy_bits):
    """Expected posterior-entropy drop per candidate frequency, one row
    at a time in log space: the (C, H, K, H) log-likelihoods, a
    max-shifted softmax and a log2 entropy per outcome."""
    nodes, weights = np.polynomial.hermite.hermgauss(
        posterior_module._GH_ORDER)
    nodes = np.sqrt(2.0) * nodes
    weights = weights / np.sqrt(np.pi)
    mu = diagnoser._cand_mean.T                            # (C, H)
    sigma = diagnoser._cand_sigma.T                        # (C, H)
    y = mu[:, :, None] + sigma[:, :, None] * nodes[None, None, :]
    z = (y[:, :, :, None] - mu[:, None, None, :]) / \
        sigma[:, None, None, :]                            # (C, H, K, H)
    log_lik = -0.5 * z * z - np.log(sigma)[:, None, None, :]
    with np.errstate(divide="ignore"):
        log_prior = np.log(posterior)                      # -inf at 0
    log_q = log_prior[None, None, None, :] + log_lik
    log_q -= log_q.max(axis=3, keepdims=True)
    q = np.exp(log_q)
    q /= q.sum(axis=3, keepdims=True)
    post_entropy = posterior_module._entropy_bits(q)       # (C, H, K)
    expected = np.einsum("h,chk,k->c", posterior, post_entropy, weights)
    return np.maximum(entropy_bits - expected, 0.0)


#: Gains within this many bits count as tied.
GAIN_TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def corpus_result():
    """One generated corpus circuit through the quick pipeline."""
    info = generate("biquad_chain", 1)
    universe = synthesize_universe(
        info, deviations=QUICK.deviations, max_targets=5, seed=1)
    return FaultTrajectoryATPG(info, QUICK, components=universe.components
                               ).run(seed=11)


class TestInformationGainOracle:
    """The closed-form gains against the log-space quadrature."""

    @pytest.fixture(params=["tow_thomas_biquad", "sallen_key_lowpass",
                            "corpus"])
    def result(self, request, atpg_cache, corpus_result):
        if request.param == "corpus":
            return corpus_result
        return atpg_cache(request.param)

    @staticmethod
    def _posterior_vector(diagnoser, diagnosis):
        probabilities = dict(diagnosis.probabilities)
        return np.array([probabilities[label]
                         for label in diagnoser.component_labels])

    @pytest.mark.parametrize("tolerance, noise_db", [
        (0.05, 0.05), (0.0, 0.0), (0.03, 0.0)])
    def test_gains_and_order_match_the_oracle(self, result, tolerance,
                                              noise_db, monkeypatch):
        # Small chunks: the batch spans several, the last one partial.
        monkeypatch.setattr(posterior_module, "_GAIN_CHUNK_ROWS", 4)
        diagnoser = PosteriorDiagnoser.from_atpg(
            result, PosteriorConfig(n_samples=8, tolerance=tolerance,
                                    noise_db=noise_db, seed=5))
        diagnoser.prepare_ranking()
        cases = [(component, deviation)
                 for component in result.universe.components
                 for deviation in HELD_OUT]
        rows = _measured_rows(result, cases)
        points = result.classifier.signatures(rows)
        points = np.vstack([points, np.zeros((1, diagnoser.dimension))])
        diagnoses = diagnoser.diagnose_points(points)
        assert len(diagnoses) % 4 != 0
        saw_zero_weight = False
        for diagnosis in diagnoses:
            posterior = self._posterior_vector(diagnoser, diagnosis)
            saw_zero_weight |= bool((posterior == 0.0).any())
            expected = _reference_information_gain(
                diagnoser, posterior, diagnosis.entropy_bits)
            by_freq = dict(diagnosis.test_ranking)
            gains = np.array([by_freq[float(freq)]
                              for freq in diagnoser._cand_freqs])
            np.testing.assert_allclose(gains, expected, rtol=0.0,
                                       atol=GAIN_TOLERANCE)
            # No measurement can remove more entropy than there is.
            assert (gains <= diagnosis.entropy_bits).all()
            # Where the oracle separates two neighbours, the order is
            # the oracle's: compare the tie groups, in order.
            order = np.argsort(-expected, kind="stable")
            freqs = diagnoser._cand_freqs
            ranked = [freq for freq, _ in diagnosis.test_ranking]
            cuts = [0] + [position for position in range(1, order.size)
                          if expected[order[position - 1]] -
                          expected[order[position]] > GAIN_TOLERANCE] + \
                [order.size]
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                assert set(ranked[lo:hi]) == \
                    {float(freqs[index]) for index in order[lo:hi]}
        if tolerance == 0.0 and noise_db == 0.0:
            # Collapsed posteriors hold exact zeros, and some outcome's
            # mixture then sums to S == 0: the kernel's zero branch.
            assert saw_zero_weight
            weights = np.stack([self._posterior_vector(diagnoser, d)
                                for d in diagnoses])
            assert (weights @ diagnoser._lik == 0.0).any()

    def test_chunking_does_not_change_a_bit(self, atpg_cache,
                                            monkeypatch):
        result = atpg_cache("tow_thomas_biquad")
        diagnoser = PosteriorDiagnoser.from_atpg(
            result, PosteriorConfig(n_samples=8, seed=5))
        rows = _measured_rows(result, [(component, 0.25) for component
                                       in result.info.faultable])
        whole = diagnoser.diagnose_db(rows)
        monkeypatch.setattr(posterior_module, "_GAIN_CHUNK_ROWS", 3)
        assert diagnoser.diagnose_db(rows) == whole


class TestUninformativeRanking:
    def test_near_certain_row_names_no_frequency(self, atpg_cache):
        """A collapsed posterior's gains are rounding noise: its summary
        says no measurement is informative instead of advising one,
        while an uncertain row still names its best frequency."""
        result = atpg_cache("tow_thomas_biquad")
        diagnoser = PosteriorDiagnoser.from_atpg(
            result, PosteriorConfig(n_samples=16, tolerance=0.05,
                                    seed=11))
        cases = [(component, deviation)
                 for component in result.info.faultable
                 for deviation in HELD_OUT]
        diagnoses = diagnoser.diagnose_db(_measured_rows(result, cases))
        certain = min(diagnoses, key=lambda d: d.entropy_bits)
        assert certain.entropy_bits < 1e-12
        assert certain.test_ranking[0][1] < \
            posterior_module.INFORMATIVE_GAIN_BITS
        assert "no measurement is informative" in certain.summary()
        assert "next measure" not in certain.summary()
        # The wire ranking is unchanged: every candidate, descending.
        assert len(certain.test_ranking) == diagnoser._cand_freqs.size

        uncertain = max(diagnoses, key=lambda d: d.test_ranking[0][1])
        best_freq, best_gain = uncertain.test_ranking[0]
        assert best_gain >= posterior_module.INFORMATIVE_GAIN_BITS
        assert f"next measure {best_freq:.4g} Hz" in uncertain.summary()


# ----------------------------------------------------------------------
# Answer-assembly oracle: the per-row step the batched one replaced,
# kept here verbatim as the reference.
# ----------------------------------------------------------------------
def _reference_finish_row(diagnoser, posterior, entropy, gains, log_w,
                          peak, deviations):
    order = np.lexsort((-peak, -posterior))
    probabilities = tuple(
        (diagnoser.component_labels[index], float(posterior[index]))
        for index in order)
    winner_index = int(order[0])
    winner = diagnoser.component_labels[winner_index]
    if winner_index == 0 or not np.isfinite(peak[winner_index]):
        expected_deviation = 0.0
    else:
        world_w = np.exp(log_w[:, winner_index] - peak[winner_index])
        denom = float(world_w.sum())
        expected_deviation = 0.0 if denom <= 0.0 else float(
            np.dot(world_w, deviations[:, winner_index]) / denom)
    gain_order = np.argsort(-gains, kind="stable")
    test_ranking = tuple(
        (float(diagnoser._cand_freqs[index]), float(gains[index]))
        for index in gain_order)
    return posterior_module.PosteriorDiagnosis(
        component=winner, probabilities=probabilities,
        entropy_bits=float(entropy),
        expected_deviation=expected_deviation,
        test_ranking=test_ranking, n_samples=diagnoser.n_samples)


def _reference_answers(diagnoser, posterior, entropy, gains, log_w, peak,
                       deviations):
    return [_reference_finish_row(diagnoser, posterior[row], entropy[row],
                                  gains[row], log_w[row], peak[row],
                                  deviations[row])
            for row in range(posterior.shape[0])]


def _with_gains(diagnoser, tensors):
    """Captured ``_answers`` tensors with the deferred gains filled in
    the way a ranking read computes them."""
    posterior, entropy, *rest = tensors
    diagnoser.prepare_ranking()
    return (posterior, entropy,
            diagnoser._information_gains(posterior, entropy), *rest)


def _assert_same_answers(got, want):
    """Bitwise equality: ``repr`` spells every float exactly."""
    assert len(got) == len(want)
    for row, (a, b) in enumerate(zip(got, want)):
        assert repr(a) == repr(b), row


class TestAnswerAssemblyOracle:
    @pytest.mark.parametrize("circuit_name", ALL_CIRCUITS)
    def test_toleranced_rows_equal_the_row_loop(self, atpg_cache,
                                                monkeypatch, circuit_name):
        """Every answer of a toleranced batch equals the per-row
        reference applied to the same request tensors."""
        from repro.diagnosis import make_test_cases
        result = atpg_cache(circuit_name)
        diagnoser = PosteriorDiagnoser.from_atpg(
            result, PosteriorConfig(n_samples=16, tolerance=0.03,
                                    noise_db=0.05, seed=11))
        cases = make_test_cases(result.info, result.mapper, tolerance=0.03,
                                noise_db=0.05, repeats=2, seed=31)
        points = np.vstack([case.point for case in cases])
        captured = []
        batched = PosteriorDiagnoser._answers

        def capture(self, *tensors):
            captured.append(tensors)
            return batched(self, *tensors)

        monkeypatch.setattr(PosteriorDiagnoser, "_answers", capture)
        got = diagnoser.diagnose_points(points)
        (tensors,) = captured
        _assert_same_answers(got, _reference_answers(
            diagnoser, *_with_gains(diagnoser, tensors)))
        assert any(d.expected_deviation != 0.0 for d in got)

    def test_edge_rows_equal_the_row_loop(self, atpg_cache, monkeypatch):
        """Hand-made request tensors: a winner whose every world weight
        is zero (peak -inf: expected deviation 0.0), a fault-free
        winner, a posterior tie broken by peak, and ordinary rows."""
        result = atpg_cache("tow_thomas_biquad")
        diagnoser = PosteriorDiagnoser.from_atpg(
            result, PosteriorConfig(n_samples=5, tolerance=0.05, seed=4))
        rng = np.random.default_rng(8)
        n_rows, n_worlds = 6, diagnoser.n_samples
        n_outcomes = len(diagnoser.component_labels)
        log_w = -rng.uniform(0.0, 30.0, size=(n_rows, n_worlds, n_outcomes))
        deviations = rng.uniform(-0.3, 0.3, size=log_w.shape)
        posterior = rng.dirichlet(np.ones(n_outcomes), size=n_rows)
        posterior[0] = 0.0
        posterior[0, 2] = 1.0
        log_w[0, :, 2] = -np.inf
        posterior[1] = 0.0
        posterior[1, 0] = 0.75
        posterior[1, 3] = 0.25
        posterior[2] = 0.0
        posterior[2, 1] = posterior[2, 4] = 0.5
        log_w[2, :, 4] = log_w[2, :, 1] + 1.0
        peak = log_w.max(axis=1)
        entropy = posterior_module._entropy_bits(posterior)
        gains = rng.uniform(0.0, 1.0, size=(n_rows,
                                            diagnoser._cand_freqs.size))
        gains[3] = 0.0
        monkeypatch.setattr(diagnoser, "_information_gains",
                            lambda posterior, entropy: gains)
        got = diagnoser._answers(posterior, entropy, log_w, peak,
                                 deviations)
        _assert_same_answers(got, _reference_answers(
            diagnoser, posterior, entropy, gains, log_w, peak, deviations))
        labels = diagnoser.component_labels
        assert got[0].component == labels[2]
        assert got[0].expected_deviation == 0.0
        assert got[1].component == FAULT_FREE_LABEL
        assert got[1].expected_deviation == 0.0
        assert got[2].component == labels[4]


class TestSpans:
    def test_build_and_request_spans_reach_a_sink(self, atpg_cache):
        from repro.tracing import TRACER
        result = atpg_cache("sallen_key_lowpass")
        seen = []
        sink = TRACER.add_sink(seen.append)
        try:
            diagnoser = PosteriorDiagnoser.from_atpg(
                result, PosteriorConfig(n_samples=6, seed=1))
            first = diagnoser.diagnose_points(
                np.zeros((3, diagnoser.dimension)))
            second = diagnoser.diagnose_points(
                np.ones((2, diagnoser.dimension)))
            assert not any(span.name == "posterior.ranking"
                           for span in seen)
            first[1].test_ranking
            second[0].test_ranking
        finally:
            TRACER.remove_sink(sink)
        spans = {span.name: span for span in seen}
        build = spans["posterior.build"].attrs
        assert build == {"worlds": 6,
                         "hypotheses": len(diagnoser.component_labels)}
        request = spans["posterior.request"].attrs
        assert request["rows"] == 2 and request["worlds"] == 6
        assert "gain_seconds" not in request
        building, reading = [span for span in seen
                             if span.name == "posterior.ranking"]
        assert building.attrs["rows"] == 3
        assert building.attrs["planes_built"] is True
        assert building.attrs["candidates"] == diagnoser._cand_freqs.size
        assert reading.attrs["rows"] == 2
        assert reading.attrs["planes_built"] is False
        assert "candidates" not in reading.attrs
        for span in (building, reading):
            assert 0.0 < span.attrs["gain_seconds"] <= span.duration_s


# ----------------------------------------------------------------------
# The ranking half: built on the first ranking read, once per diagnoser;
# each request's rankings resolved together on their first read.
# ----------------------------------------------------------------------
class TestDeferredRanking:
    CONFIG = PosteriorConfig(n_samples=10, samples_per_block=4,
                             tolerance=0.03, seed=5)

    @staticmethod
    def _case_points(result):
        from repro.diagnosis import make_test_cases
        cases = make_test_cases(result.info, result.mapper, tolerance=0.03,
                                noise_db=0.05, repeats=1, seed=31)
        return np.vstack([case.point for case in cases])

    @staticmethod
    def _count_gains(monkeypatch):
        calls = []
        gains = PosteriorDiagnoser._information_gains

        def counted(self, posterior, entropy):
            calls.append(posterior.shape[0])
            return gains(self, posterior, entropy)

        monkeypatch.setattr(PosteriorDiagnoser, "_information_gains",
                            counted)
        return calls

    @pytest.mark.parametrize("name", ["tow_thomas_biquad", "rc_lowpass",
                                      "corpus"])
    def test_answers_never_touch_the_candidates(self, atpg_cache,
                                                corpus_result, monkeypatch,
                                                name):
        """The corpus path -- build, diagnose, read component,
        probabilities and entropy -- solves the test vector only and
        computes no gain. The first ranking read then sweeps the other
        candidates once (one call per table) and makes one gains call
        for the whole request; every row equals the answer oracle
        bitwise and every answer then holds a plain tuple."""
        from repro.tracing import TRACER
        result = corpus_result if name == "corpus" else atpg_cache(name)
        gain_calls = self._count_gains(monkeypatch)
        captured = []
        answers_of = PosteriorDiagnoser._answers

        def capture(self, *tensors):
            captured.append(tensors)
            return answers_of(self, *tensors)

        monkeypatch.setattr(PosteriorDiagnoser, "_answers", capture)
        points = self._case_points(result)
        solves = []

        def sink(span):
            if span.name == "engine.solve":
                solves.append(span.attrs["freqs"])

        TRACER.add_sink(sink)
        try:
            diagnoser = PosteriorDiagnoser.from_atpg(result, self.CONFIG)
            answers = diagnoser.diagnose_points(points)
            for answer in answers:
                answer.component, answer.probabilities
                answer.entropy_bits, answer.expected_deviation
            measured = np.unique(np.searchsorted(
                diagnoser._cand_freqs, result.mapper.test_freqs_hz)).size
            tables = 1 + -(-self.CONFIG.n_samples //
                           self.CONFIG.samples_per_block)
            assert solves == [measured] * tables
            assert gain_calls == []
            pending = {id(vars(answer)["test_ranking"])
                       for answer in answers}
            assert len(pending) == 1

            answers[len(answers) // 2].test_ranking
            candidates = diagnoser._cand_freqs.size - measured
            assert solves[tables:] == [candidates] * tables
            assert gain_calls == [len(answers)]
            assert all(type(vars(answer)["test_ranking"]) is tuple
                       for answer in answers)
            [answer.test_ranking for answer in answers]
            assert gain_calls == [len(answers)]
        finally:
            TRACER.remove_sink(sink)
        (tensors,) = captured
        _assert_same_answers(answers, _reference_answers(
            diagnoser, *_with_gains(diagnoser, tensors)))

    @pytest.mark.parametrize("name", ["khn_state_variable",
                                      "sallen_key_lowpass", "corpus"])
    def test_spliced_moments_equal_the_full_grid_solve(self, atpg_cache,
                                                       corpus_result, name):
        """The moments built from the test-vector and candidate sweeps
        equal those of one full-grid sweep of the same worlds, bit for
        bit (the historical build)."""
        result = corpus_result if name == "corpus" else atpg_cache(name)
        diagnoser = PosteriorDiagnoser.from_atpg(result, self.CONFIG)
        golden_db, mag_db = diagnoser._sweep(diagnoser._cand_freqs)
        diagnoser.prepare_ranking()
        cand = result.mapper.signatures_from_db(mag_db, golden_db)
        labels = diagnoser.component_labels
        floor = max(self.CONFIG.noise_db, posterior_module._SIGMA_FLOOR)
        for outcome, label in enumerate(labels):
            if outcome == 0:
                pool = cand[0]
            else:
                rows = [1 + index for index, fault in
                        enumerate(diagnoser._faults)
                        if fault.component == label]
                pool = cand[rows].reshape(-1, diagnoser._cand_freqs.size)
            assert diagnoser._cand_mean[outcome].tobytes() == \
                pool.mean(axis=0).tobytes(), label
            assert diagnoser._cand_sigma[outcome].tobytes() == \
                np.maximum(pool.std(axis=0), floor).tobytes(), label

    def test_threads_build_the_planes_once(self, atpg_cache, monkeypatch):
        """Two threads reading rankings of one request, then of two
        requests of one diagnoser: the ranking half is built once, one
        request's gains computed once."""
        import threading
        import time as time_module
        result = atpg_cache("tow_thomas_biquad")
        gain_calls = self._count_gains(monkeypatch)
        builds = []
        build_ranking = PosteriorDiagnoser._build_ranking

        def slow_build(self):
            builds.append(self)
            time_module.sleep(0.05)  # both readers arrive mid-build
            build_ranking(self)

        monkeypatch.setattr(PosteriorDiagnoser, "_build_ranking",
                            slow_build)

        def race(*readers):
            barrier = threading.Barrier(len(readers))
            rankings = [None] * len(readers)

            def read(slot, answer):
                barrier.wait()
                rankings[slot] = answer.test_ranking

            threads = [threading.Thread(target=read, args=(slot, answer))
                       for slot, answer in enumerate(readers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return rankings

        points = self._case_points(result)
        diagnoser = PosteriorDiagnoser.from_atpg(result, self.CONFIG)
        answers = diagnoser.diagnose_points(points)
        first, last = race(answers[0], answers[-1])
        assert len(builds) == 1 and gain_calls == [len(answers)]
        assert (first, last) == (answers[0].test_ranking,
                                 answers[-1].test_ranking)

        diagnoser = PosteriorDiagnoser.from_atpg(result, self.CONFIG)
        one = diagnoser.diagnose_points(points[:3])
        two = diagnoser.diagnose_points(points[3:])
        del builds[:], gain_calls[:]
        race(one[0], two[0])
        assert len(builds) == 1
        assert sorted(gain_calls) == sorted([3, len(points) - 3])
        assert [a.test_ranking for a in one + two] == \
            [a.test_ranking for a in answers]

    def test_answers_copy_pickle_and_compare_resolved(self, atpg_cache):
        """Equality, hashing, ``repr``, copies and pickles of unread
        answers all see the resolved ranking; a pickle never carries
        the diagnoser, and resolving drops the request's arrays."""
        import copy
        import pickle
        result = atpg_cache("sallen_key_lowpass")
        diagnoser = PosteriorDiagnoser.from_atpg(result, self.CONFIG)
        points = self._case_points(result)[:4]
        reference = diagnoser.diagnose_points(points)
        [answer.test_ranking for answer in reference]

        for read in (pickle.dumps, copy.copy, copy.deepcopy, hash, repr,
                     lambda a: dataclasses.replace(a, n_samples=1)):
            answers = diagnoser.diagnose_points(points)
            batch = vars(answers[0])["test_ranking"]
            read(answers[0])
            assert batch._diagnoser is None and batch._posterior is None
            assert answers == reference
        answers = diagnoser.diagnose_points(points)
        payload = pickle.dumps(answers)
        assert b"PosteriorDiagnoser" not in payload
        assert pickle.loads(payload) == reference
        assert answers[2].summary() == reference[2].summary()
        assert hash(answers[1]) == hash(reference[1])
