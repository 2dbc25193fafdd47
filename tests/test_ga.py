"""Tests for the GA: encoding, operators, fitness, engine."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GAError, TrajectoryError
from repro.ga import (
    CombinedFitness,
    FrequencySpace,
    GAConfig,
    GeneticAlgorithm,
    MarginFitness,
    PaperFitness,
    blend_crossover,
    gaussian_mutation,
    get_crossover,
    get_selection,
    one_point_crossover,
    rank_select,
    reset_mutation,
    roulette_wheel_select,
    tournament_select,
    uniform_crossover,
)


@pytest.fixture(scope="module")
def space():
    return FrequencySpace(10.0, 1e6, 2)


class TestConfig:
    def test_paper_defaults(self):
        config = GAConfig.paper()
        assert config.population_size == 128
        assert config.generations == 15
        assert config.crossover_rate == 0.5
        assert config.mutation_rate == 0.4
        assert config.selection == "roulette"

    def test_quick_is_smaller(self):
        quick = GAConfig.quick()
        assert quick.population_size < 128
        assert quick.generations < 15

    def test_validation(self):
        with pytest.raises(GAError):
            GAConfig(population_size=1)
        with pytest.raises(GAError):
            GAConfig(generations=0)
        with pytest.raises(GAError):
            GAConfig(crossover_rate=1.5)
        with pytest.raises(GAError):
            GAConfig(selection="lottery")
        with pytest.raises(GAError):
            GAConfig(elitism=-1)
        with pytest.raises(GAError):
            GAConfig(elitism=128)
        with pytest.raises(GAError):
            GAConfig(mutation_sigma_decades=0.0)
        with pytest.raises(GAError):
            GAConfig(crossover="cut")
        with pytest.raises(GAError):
            GAConfig(tournament_size=1)
        with pytest.raises(GAError):
            GAConfig(early_stop_fitness=-1.0)


class TestEncoding:
    def test_bounds_validation(self):
        with pytest.raises(GAError):
            FrequencySpace(-1.0, 100.0)
        with pytest.raises(GAError):
            FrequencySpace(100.0, 10.0)
        with pytest.raises(GAError):
            FrequencySpace(1.0, 100.0, num_frequencies=0)

    def test_random_genome_in_bounds(self, space, rng):
        genome = space.random_genome(rng)
        low, high = space.log_bounds
        assert np.all((genome >= low) & (genome <= high))

    def test_random_population_shape(self, space, rng):
        population = space.random_population(rng, 20)
        assert population.shape == (20, 2)

    def test_decode_sorted(self, space):
        freqs = space.decode(np.array([5.0, 2.0]))
        assert freqs[0] < freqs[1]
        assert freqs == (pytest.approx(100.0), pytest.approx(1e5))

    def test_decode_nudges_duplicates(self, space):
        freqs = space.decode(np.array([3.0, 3.0]))
        assert freqs[0] != freqs[1]
        assert freqs[1] / freqs[0] > 1.0

    def test_decode_clips(self, space):
        freqs = space.decode(np.array([-10.0, 100.0]))
        assert freqs[0] >= space.f_min_hz
        assert freqs[1] <= space.f_max_hz * (1 + 1e-9)

    def test_encode_roundtrip(self, space):
        freqs = (123.0, 45678.0)
        assert space.decode(space.encode(freqs)) == (
            pytest.approx(123.0), pytest.approx(45678.0))

    def test_contains(self, space):
        assert space.contains((100.0, 1000.0))
        assert not space.contains((1.0, 1000.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_genes_rejected(self, space, bad):
        with pytest.raises(GAError, match="finite"):
            space.decode(np.array([bad, 2.0]))
        with pytest.raises(GAError, match="finite"):
            space.clip(np.array([[3.0, 4.0], [2.0, bad]]))
        with pytest.raises(GAError, match="finite"):
            space.decode_population(np.array([[3.0, 4.0], [bad, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_encode_rejects_non_finite(self, space, bad):
        with pytest.raises(GAError, match="finite"):
            space.encode((100.0, bad))

    def test_decode_population_shape_checked(self, space):
        with pytest.raises(GAError):
            space.decode_population(np.zeros((3, 5)))
        with pytest.raises(GAError):
            space.decode_population(np.zeros(2))
        with pytest.raises(GAError):
            space.decode(np.zeros((1, 2)))

    @given(st.lists(st.lists(st.floats(-100, 100), min_size=3,
                             max_size=3), min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_decode_population_equals_row_oracle(self, genomes):
        """Each decoded row is bitwise the parent's one-genome decode."""
        space = FrequencySpace(10.0, 1e6, 3)
        decoded = space.decode_population(np.array(genomes))
        for row, genome in zip(decoded.tolist(), genomes):
            assert [f.hex() for f in row] == \
                [f.hex() for f in _decode_oracle(space, genome)]
            assert space.decode(np.array(genome)) == tuple(row)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=2))
    @settings(max_examples=100)
    def test_decode_always_valid(self, genes):
        """Any real genome decodes to sorted, distinct, in-band
        frequencies."""
        space = FrequencySpace(10.0, 1e6, 2)
        freqs = space.decode(np.array(genes))
        assert len(freqs) == 2
        assert freqs[0] < freqs[1]
        assert freqs[0] >= space.f_min_hz * (1 - 1e-9)
        assert freqs[1] <= space.f_max_hz * (1 + 1e-9)


class TestSelection:
    def test_roulette_prefers_fit(self, rng):
        fitness = np.array([0.0, 0.0, 1.0, 0.0])
        picks = roulette_wheel_select(fitness, 200, rng)
        assert np.all(picks == 2)

    def test_roulette_proportional(self, rng):
        fitness = np.array([1.0, 3.0])
        picks = roulette_wheel_select(fitness, 4000, rng)
        fraction = np.mean(picks == 1)
        assert fraction == pytest.approx(0.75, abs=0.05)

    def test_roulette_all_zero_uniform(self, rng):
        fitness = np.zeros(4)
        picks = roulette_wheel_select(fitness, 4000, rng)
        counts = np.bincount(picks, minlength=4) / 4000.0
        assert np.all(np.abs(counts - 0.25) < 0.05)

    def test_roulette_rejects_negative(self, rng):
        with pytest.raises(GAError):
            roulette_wheel_select(np.array([-1.0, 1.0]), 5, rng)

    def test_roulette_rejects_empty(self, rng):
        with pytest.raises(GAError):
            roulette_wheel_select(np.array([]), 5, rng)

    def test_tournament_prefers_fit(self, rng):
        fitness = np.array([0.1, 0.9, 0.2, 0.5])
        picks = tournament_select(fitness, 500, rng, tournament_size=3)
        assert np.mean(picks == 1) > 0.5

    def test_rank_insensitive_to_scale(self, rng):
        small = np.array([1e-9, 2e-9, 3e-9])
        picks = rank_select(small, 3000, rng)
        counts = np.bincount(picks, minlength=3) / 3000.0
        # Linear ranks 1:2:3 -> probabilities 1/6, 2/6, 3/6.
        assert counts[2] == pytest.approx(0.5, abs=0.05)

    @given(st.integers(1, 50))
    @settings(max_examples=20)
    def test_selection_indices_in_range(self, count):
        rng = np.random.default_rng(0)
        fitness = np.abs(np.sin(np.arange(7.0))) + 0.01
        for name in ("roulette", "tournament", "rank"):
            picks = get_selection(name)(fitness, count, rng)
            assert picks.shape == (count,)
            assert np.all((picks >= 0) & (picks < 7))


class TestCrossoverMutation:
    def test_blend_within_extended_interval(self, rng):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 6.0])
        for _ in range(50):
            child = blend_crossover(a, b, rng, alpha=0.5)
            assert np.all(child >= np.array([0.0, 0.0]) - 1e-12)
            assert np.all(child <= np.array([4.0, 8.0]) + 1e-12)

    def test_one_point_mixes_parents(self, rng):
        a = np.array([1.0, 1.0, 1.0])
        b = np.array([2.0, 2.0, 2.0])
        child = one_point_crossover(a, b, rng)
        assert set(np.unique(child)) <= {1.0, 2.0}
        assert child[0] == 1.0  # head always from parent a

    def test_one_point_single_gene(self, rng):
        a = np.array([1.0])
        assert one_point_crossover(a, np.array([2.0]), rng)[0] == 1.0

    def test_uniform_genes_from_parents(self, rng):
        a = np.zeros(8)
        b = np.ones(8)
        child = uniform_crossover(a, b, rng)
        assert set(np.unique(child)) <= {0.0, 1.0}

    def test_gaussian_mutation_clips(self, space, rng):
        genome = np.array([1.0, 6.0])  # at the log bounds
        for _ in range(20):
            mutated = gaussian_mutation(genome, space, rng,
                                        sigma_decades=5.0)
            low, high = space.log_bounds
            assert np.all((mutated >= low) & (mutated <= high))

    def test_reset_mutation_in_bounds(self, space, rng):
        genome = np.array([3.0, 4.0])
        mutated = reset_mutation(genome, space, rng, per_gene_rate=1.0)
        low, high = space.log_bounds
        assert np.all((mutated >= low) & (mutated <= high))

    @given(genomes=st.lists(st.floats(-5, 5), min_size=1, max_size=4)
           .flatmap(lambda a: st.tuples(
               st.just(a), st.lists(st.floats(-5, 5), min_size=len(a),
                                    max_size=len(a)))),
           seed=st.integers(0, 2 ** 32 - 1),
           alpha=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_crossovers_equal_parent_oracles(self, genomes, seed, alpha):
        """The one-row operators draw and compute bitwise what the
        per-pair operators they replaced did, leaving the stream at the
        same state."""
        parent_a, parent_b = (np.array(g) for g in genomes)
        cases = [
            (lambda a, b, r: blend_crossover(a, b, r, alpha=alpha),
             lambda a, b, r: _blend_oracle(a, b, r, alpha=alpha)),
            (one_point_crossover, _one_point_oracle),
            (uniform_crossover, _uniform_oracle),
        ]
        for operator, oracle in cases:
            rng, oracle_rng = (np.random.default_rng(seed)
                               for _ in range(2))
            child = operator(parent_a, parent_b, rng)
            expected = oracle(parent_a, parent_b, oracle_rng)
            assert [v.hex() for v in child.tolist()] == \
                [v.hex() for v in expected.tolist()]
            assert rng.random() == oracle_rng.random()

    @given(genome=st.lists(st.floats(-1, 8), min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1),
           sigma=st.floats(0.01, 3.0), rate=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_gaussian_mutation_equals_parent_oracle(self, space, genome,
                                                    seed, sigma, rate):
        rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
        mutated = gaussian_mutation(np.array(genome), space, rng,
                                    sigma_decades=sigma,
                                    per_gene_rate=rate)
        expected = _gaussian_oracle(np.array(genome), space, oracle_rng,
                                    sigma_decades=sigma,
                                    per_gene_rate=rate)
        assert [v.hex() for v in mutated.tolist()] == \
            [v.hex() for v in expected.tolist()]
        assert rng.random() == oracle_rng.random()

    def test_registries(self):
        assert get_crossover("blend") is blend_crossover
        with pytest.raises(GAError):
            get_crossover("nope")
        with pytest.raises(GAError):
            get_selection("nope")


class TestFitness:
    def test_paper_fitness_range(self, biquad_surface):
        fitness = PaperFitness(biquad_surface)
        for freqs in ((100.0, 1000.0), (500.0, 50000.0)):
            value = fitness(freqs)
            assert 0.0 < value <= 1.0

    def test_paper_fitness_formula(self, biquad_surface):
        fitness = PaperFitness(biquad_surface)
        freqs = (1000.0, 3000.0)
        metrics = fitness.metrics_for(freqs)
        expected = 1.0 / (1.0 + metrics.intersections +
                          metrics.common_pathways)
        assert fitness(freqs) == pytest.approx(expected)

    def test_cache_hits(self, biquad_surface):
        fitness = PaperFitness(biquad_surface)
        fitness((100.0, 1000.0))
        evaluations = fitness.evaluations
        fitness((100.0, 1000.0))
        assert fitness.evaluations == evaluations
        fitness.cache_clear()
        fitness((100.0, 1000.0))
        assert fitness.evaluations == evaluations + 1

    def test_margin_fitness_bounded(self, biquad_surface):
        fitness = MarginFitness(biquad_surface, margin_scale=0.1)
        value = fitness((500.0, 5000.0))
        assert 0.0 <= value < 1.0

    def test_combined_dominates_paper_on_clean_config(self,
                                                      biquad_surface):
        paper = PaperFitness(biquad_surface)
        combined = CombinedFitness(biquad_surface)
        freqs = (500.0, 1500.0)
        if paper(freqs) == 1.0:
            assert combined(freqs) > 1.0

    def test_combined_margin_weight_validation(self, biquad_surface):
        with pytest.raises(GAError):
            CombinedFitness(biquad_surface, margin_weight=1.5)

    def test_overlap_weight_validation(self, biquad_surface):
        with pytest.raises(GAError):
            PaperFitness(biquad_surface, overlap_weight=-1.0)

    def test_score_population_accepts_arrays_and_tuples(self,
                                                        biquad_surface):
        vectors = [(100.0, 1000.0), (500.0, 50000.0), (100.0, 1000.0)]
        from_tuples = PaperFitness(biquad_surface).score_population(vectors)
        fitness = PaperFitness(biquad_surface)
        from_array = fitness.score_population(np.array(vectors))
        assert np.array_equal(from_tuples, from_array)
        assert fitness.evaluations == 2
        assert [fitness(vector) for vector in vectors] == \
            from_array.tolist()
        assert fitness.score_population([]).shape == (0,)

    def test_score_population_rejects_bad_vectors(self, biquad_surface):
        fitness = PaperFitness(biquad_surface)
        with pytest.raises(TrajectoryError, match="duplicate"):
            fitness.score_population([(100.0, 1000.0), (300.0, 300.0)])
        with pytest.raises(TrajectoryError, match="positive"):
            fitness.score_population([(100.0, 1000.0), (-3.0, 300.0)])
        with pytest.raises(GAError):
            fitness.score_population([100.0, 1000.0])

    def test_score_conflicts_is_the_scalar_formula(self, biquad_surface):
        from repro.trajectory.metrics import TrajectoryMetrics
        fitness = PaperFitness(biquad_surface, overlap_weight=0.5)
        crossings = np.array([0, 3, 7, 0])
        pathways = np.array([0, 0, 2, 5])
        batch = fitness.score_conflicts(crossings, pathways)
        scalar = [fitness.score(TrajectoryMetrics(
            int(c), int(p), float("nan"), float("nan"), {}))
            for c, p in zip(crossings, pathways)]
        assert batch.tolist() == scalar

    def test_component_subset(self, biquad_surface):
        fitness = PaperFitness(biquad_surface,
                               components=("R1", "R2", "C1"))
        trajectories = fitness.trajectories_for((500.0, 1500.0))
        assert trajectories.components == ("R1", "R2", "C1")


class TestEngine:
    def test_deterministic_with_seed(self, space, biquad_surface):
        fitness = PaperFitness(biquad_surface)
        config = GAConfig.quick(seeded_generations=3, population_size=12)
        result_a = GeneticAlgorithm(space, fitness, config).run(seed=5)
        fitness.cache_clear()
        result_b = GeneticAlgorithm(space, fitness, config).run(seed=5)
        assert result_a.best_freqs_hz == result_b.best_freqs_hz
        assert result_a.best_fitness == result_b.best_fitness

    def test_history_and_monotone_best(self, space, biquad_surface):
        fitness = PaperFitness(biquad_surface)
        config = GAConfig(population_size=16, generations=6, elitism=1)
        result = GeneticAlgorithm(space, fitness, config).run(seed=3)
        assert len(result.history) == 6
        best = result.best_fitness_curve()
        assert np.all(np.diff(best) >= -1e-12)  # elitism: non-decreasing
        assert result.best_fitness == pytest.approx(best.max())

    def test_early_stop(self, space, biquad_surface):
        fitness = PaperFitness(biquad_surface)
        config = GAConfig(population_size=32, generations=15,
                          early_stop_fitness=1.0)
        result = GeneticAlgorithm(space, fitness, config).run(seed=2)
        if result.best_fitness >= 1.0:
            assert result.generations_run <= 15

    def test_initial_population_seeding(self, space, biquad_surface):
        fitness = PaperFitness(biquad_surface)
        config = GAConfig(population_size=8, generations=1, elitism=1)
        seeded = np.array([space.encode((500.0, 1500.0))])
        result = GeneticAlgorithm(space, fitness, config).run(
            seed=0, initial_population=seeded)
        # With one generation and elitism the seeded vector survives if
        # it is the best; at minimum the run must complete.
        assert result.generations_run == 1

    def test_bad_initial_population_shape(self, space, biquad_surface):
        fitness = PaperFitness(biquad_surface)
        engine = GeneticAlgorithm(space, fitness, GAConfig.quick())
        with pytest.raises(GAError):
            engine.run(seed=0, initial_population=np.zeros((2, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_population_rejected(self, space, bad):
        engine = GeneticAlgorithm(space, lambda freqs: 1.0,
                                  GAConfig(population_size=4,
                                           generations=2))
        with pytest.raises(GAError, match="finite"):
            engine.run(seed=0, initial_population=[[bad, 2.0]])

    def test_bad_fitness_rejected(self, space):
        config = GAConfig(population_size=4, generations=1)
        engine = GeneticAlgorithm(space, lambda freqs: float("nan"),
                                  config)
        with pytest.raises(GAError):
            engine.run(seed=0)

    def test_summary_text(self, space, biquad_surface):
        fitness = PaperFitness(biquad_surface)
        config = GAConfig.quick(seeded_generations=2, population_size=8)
        result = GeneticAlgorithm(space, fitness, config).run(seed=1)
        text = result.summary()
        assert "best fitness" in text
        assert "generations" in text

    def test_converged_flag(self, space, biquad_surface):
        fitness = PaperFitness(biquad_surface)
        config = GAConfig(population_size=32, generations=8)
        result = GeneticAlgorithm(space, fitness, config).run(seed=4)
        assert result.converged == (result.best_fitness >= 1.0)


#: Paper-config GA outcomes of the ratio-only circuits, whose collinear
#: trajectories make common pathways plentiful. Seeds are 2005 + the
#: circuit's index in ``BENCHMARK_CIRCUITS``. Floats are pinned as
#: ``float.hex`` so the comparison is bitwise: (test vector, best
#: fitness, per-generation best fitness, per-generation mean fitness).
PINNED_PAPER_GA = {
    "voltage_divider": (
        2013,
        ("0x1.29e2274de68fep+5",
         "0x1.52c3813e81aa2p+5"),
        "0x1.3b13b13b13b14p-4",
        ("0x1.3b13b13b13b14p-4",) * 15,
        ("0x1.3b13b13b13b12p-4",) * 15),
    "rc_ladder": (
        2011,
        ("0x1.ced6ce0cf1db9p+4",
         "0x1.0fc018d0f1180p+13"),
        "0x1.8f9c18f9c18fap-6",
        ("0x1.8f9c18f9c18fap-6",) * 15,
        (
            "0x1.7c7bec147ed96p-6", "0x1.80c5052789ddbp-6",
            "0x1.7d0e20002d9e2p-6", "0x1.8014990378babp-6",
            "0x1.86e170c876ec6p-6", "0x1.85e710b28bfc4p-6",
            "0x1.85ba092684b2ap-6", "0x1.87ef61fb040cap-6",
            "0x1.866a24247f9b0p-6", "0x1.87a1f6805afbep-6",
            "0x1.7ffa164af91c2p-6", "0x1.7d155c4548759p-6",
            "0x1.845c0337d1dfap-6", "0x1.81897c8a0ba38p-6",
            "0x1.855d56bfcadd3p-6",
        )),
    "rc_lowpass": (
        2012,
        ("0x1.6001c0ad4c643p+1",
         "0x1.ab985a5208fc1p+4"),
        "0x1.c71c71c71c71cp-4",
        ("0x1.c71c71c71c71cp-4",) * 15,
        ("0x1.c71c71c71c71fp-4",) * 15),
}


class TestPinnedPaperGA:
    """Same-seed paper-config GA runs stay bitwise where they were."""

    @pytest.mark.parametrize("name", sorted(PINNED_PAPER_GA))
    def test_paper_config_ga_is_bitwise_pinned(self, name):
        from repro import PipelineConfig, run
        from repro.circuits.library import BENCHMARK_CIRCUITS
        seed, vector, best, best_history, mean_history = \
            PINNED_PAPER_GA[name]
        assert seed == 2005 + list(BENCHMARK_CIRCUITS).index(name)
        result = run(name, PipelineConfig.paper(), seed=seed)
        history = result.ga_result.history
        assert [f.hex() for f in result.test_vector_hz] == list(vector)
        assert result.ga_result.best_fitness.hex() == best
        assert tuple(s.best_fitness.hex() for s in history) == \
            best_history
        assert tuple(s.mean_fitness.hex() for s in history) == \
            mean_history


# ----------------------------------------------------------------------
# Oracles: the one-genome decode and the per-pair operators the
# population versions replaced, kept verbatim.
# ----------------------------------------------------------------------
def _decode_oracle(space, genome):
    low, high = space.log_bounds
    genome = np.clip(np.asarray(genome, dtype=float), low, high)
    ordered = np.sort(genome)
    for index in range(1, ordered.size):
        if ordered[index] - ordered[index - 1] < 1e-6:
            ordered[index] = ordered[index - 1] + 1e-6
    overflow = ordered[-1] - high
    if overflow > 0.0:
        ordered -= overflow
    return tuple(float(f) for f in np.power(10.0, ordered))


def _blend_oracle(parent_a, parent_b, rng, alpha=0.5):
    low = np.minimum(parent_a, parent_b)
    high = np.maximum(parent_a, parent_b)
    span = high - low
    return rng.uniform(low - alpha * span, high + alpha * span)


def _one_point_oracle(parent_a, parent_b, rng):
    if parent_a.size < 2:
        return parent_a.copy()
    point = int(rng.integers(1, parent_a.size))
    return np.concatenate([parent_a[:point], parent_b[point:]])


def _uniform_oracle(parent_a, parent_b, rng):
    mask = rng.random(parent_a.shape) < 0.5
    return np.where(mask, parent_a, parent_b)


def _gaussian_oracle(genome, space, rng, sigma_decades=0.15,
                     per_gene_rate=1.0):
    genome = np.asarray(genome, dtype=float).copy()
    mask = rng.random(genome.shape) < per_gene_rate
    steps = rng.normal(0.0, sigma_decades, size=genome.shape)
    genome[mask] += steps[mask]
    return space.clip(genome)


# ----------------------------------------------------------------------
# Stream pins: every selection x crossover pair, plus no elitism and a
# seeded start, on a pure-arithmetic fitness of the decoded frequencies
# (no BLAS in the loop). Each pin is the SHA-256 of the run's final
# population, final fitness, per-generation stats and best vector, all
# as float.hex; they were recorded before reproduction was batched.
# ----------------------------------------------------------------------
def _target_fitness(freqs_hz):
    score = 1.0
    for f, target in zip(freqs_hz, (150.0, 1700.0, 4200.0)):
        ratio = f / target
        score += (ratio - 1.0) * (ratio - 1.0) + 0.25 / ratio
    return 1.0 / score


def _stream_text(result):
    lines = [" ".join(v.hex() for v in row)
             for row in result.final_population.tolist()]
    lines.append(" ".join(v.hex() for v in result.final_fitness.tolist()))
    for stats in result.history:
        lines.append(" ".join(
            [stats.best_fitness.hex(), stats.mean_fitness.hex(),
             stats.std_fitness.hex()] +
            [f.hex() for f in stats.best_freqs_hz]))
    lines.append(" ".join(f.hex() for f in result.best_freqs_hz))
    return "\n".join(lines)


#: name -> (genes, GAConfig overrides, initial population, SHA-256).
PINNED_GA_STREAMS = {
    "roulette-blend": (3, dict(selection="roulette", crossover="blend"),
                       None, "49c091e0caa249def7ed09fca78d8a87"
                       "c7c44acd04464a6ee2b1d2cb88572cba"),
    "roulette-one_point": (3, dict(selection="roulette",
                                   crossover="one_point"),
                           None, "53e77dd5707844f9457436d6d1b267fa"
                           "0ee6876c26a0da412703343b31971cd5"),
    "roulette-uniform": (3, dict(selection="roulette",
                                 crossover="uniform"),
                         None, "6cb69f0947bedf061edfa802ff6329ca"
                         "395d09fa86b7b0b191cd144c5a7744a4"),
    "tournament-blend": (3, dict(selection="tournament",
                                 crossover="blend"),
                         None, "5658c5b55e27f8fedce7bc7498f819b8"
                         "1c6c9b71ba7256678d1d368761a770e9"),
    "tournament-one_point": (3, dict(selection="tournament",
                                     crossover="one_point"),
                             None, "dfce72731edcb2c371858be6ea15c9b8"
                             "c6837369fb9cf801f11fd8fd2d24a81e"),
    "tournament-uniform": (3, dict(selection="tournament",
                                   crossover="uniform"),
                           None, "170bc0da563cfb94bf3757ecf8b15963"
                           "908c2440402839122e019a4a688b6655"),
    "rank-blend": (3, dict(selection="rank", crossover="blend"),
                   None, "39e66f9771520bfab98e0448e59ea093"
                   "45377c0169f742b484a1cb7a5651755f"),
    "rank-one_point": (3, dict(selection="rank", crossover="one_point"),
                       None, "56620fe81568a01da2080d6b0bf6afc9"
                       "67363d9d8192d54fa476a422bad79f2b"),
    "rank-uniform": (3, dict(selection="rank", crossover="uniform"),
                     None, "0bf3252ae32fd33687a243a2d03503ef"
                     "f250a0f12282d9645a1912044458e02a"),
    "roulette-blend-no-elite": (2, dict(elitism=0), None,
                                "357b575b1f7e397f320b1f6940f02e9c"
                                "543cbbf173721d58b99606824ac6d67f"),
    # Duplicated and out-of-band genes exercise the decode nudge and
    # the overflow shift.
    "roulette-blend-seeded": (2, dict(),
                              [[2.0, 2.0], [7.0, 7.0], [0.5, 3.5],
                               [3.9999999, 4.0]],
                              "9b17103e4d08b02bb6e86c295a3e2215"
                              "8d9d21fdd5517eaa1ceaf1a9242109d3"),
}


class TestPinnedGAStreams:
    """Same-seed GA runs of every operator pairing stay bitwise."""

    @pytest.mark.parametrize("name", list(PINNED_GA_STREAMS))
    def test_ga_stream_is_bitwise_pinned(self, name):
        genes, overrides, initial, digest = PINNED_GA_STREAMS[name]
        space = FrequencySpace(10.0, 1e4, genes)
        config = GAConfig(population_size=12, generations=6, **overrides)
        result = GeneticAlgorithm(space, _target_fitness, config).run(
            seed=17, initial_population=initial)
        text = _stream_text(result)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, text
