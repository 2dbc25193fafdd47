"""The genetic algorithm engine.

Generation loop (paper Sec. 2.4): evaluate the population, keep the
elite, select parents with the configured method (roulette wheel by
default), recombine with probability ``crossover_rate``, mutate with
probability ``mutation_rate``, repeat for a fixed number of generations.

Everything is driven by an explicit seed/Generator: the same seed always
reproduces the same search trajectory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..errors import GAError
from ..tracing import TRACER
from .config import GAConfig
from .encoding import FrequencySpace
from .operators import (
    ROW_CROSSOVERS,
    gaussian_draw,
    gaussian_step,
    get_selection,
)

__all__ = ["GenerationStats", "GAResult", "GeneticAlgorithm"]

FitnessFunction = Callable[[Tuple[float, ...]], float]


@dataclass(frozen=True)
class GenerationStats:
    """Per-generation summary recorded in the run history."""

    generation: int
    best_fitness: float
    mean_fitness: float
    std_fitness: float
    best_freqs_hz: Tuple[float, ...]


@dataclass
class GAResult:
    """Outcome of one GA run."""

    best_freqs_hz: Tuple[float, ...]
    best_fitness: float
    history: List[GenerationStats]
    generations_run: int
    evaluations: int
    elapsed_seconds: float
    final_population: np.ndarray
    final_fitness: np.ndarray

    @property
    def converged(self) -> bool:
        """Whether the best fitness reached the 1.0 plateau (I = 0)."""
        return self.best_fitness >= 1.0

    def best_fitness_curve(self) -> np.ndarray:
        return np.array([stats.best_fitness for stats in self.history])

    def mean_fitness_curve(self) -> np.ndarray:
        return np.array([stats.mean_fitness for stats in self.history])

    def summary(self) -> str:
        freqs = ", ".join(f"{f:.4g} Hz" for f in self.best_freqs_hz)
        return (f"GA: best fitness {self.best_fitness:.4f} with test "
                f"vector [{freqs}] after {self.generations_run} "
                f"generations ({self.evaluations} evaluations, "
                f"{self.elapsed_seconds:.2f}s)")


class GeneticAlgorithm:
    """Evolutionary search for an optimal test vector.

    Populations are evaluated at population level when the fitness
    supports it (``score_population``, as every
    :class:`~repro.ga.fitness.TrajectoryFitness` does): the whole
    generation becomes one call that samples the shared response surface
    once and scores every uncached individual in one vectorised pass.
    """

    def __init__(self, space: FrequencySpace, fitness: FitnessFunction,
                 config: Optional[GAConfig] = None) -> None:
        self.space = space
        self.fitness = fitness
        self.config = config or GAConfig.paper()

    # ------------------------------------------------------------------
    def _evaluate(self, population: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """(decoded test vectors, fitness) of a whole population."""
        decoded = self.space.decode_population(population)
        score_population = getattr(self.fitness, "score_population", None)
        if score_population is not None:
            scores = np.asarray(score_population(decoded), dtype=float)
            if scores.shape != (population.shape[0],):
                raise GAError(
                    f"score_population returned shape {scores.shape} "
                    f"for a population of {population.shape[0]}")
        else:
            scores = np.array([self.fitness(tuple(freqs))
                               for freqs in decoded.tolist()], dtype=float)
        if np.any(scores < 0.0) or not np.all(np.isfinite(scores)):
            raise GAError("fitness must return finite non-negative values")
        return decoded, scores

    def _reproduce(self, population: np.ndarray, scores: np.ndarray,
                   select: Callable, rng: np.random.Generator
                   ) -> np.ndarray:
        """The next population: elite, then one child per other slot.

        The loop over children only takes each child's random draws, in
        the order a child-by-child loop would (crossover coin, crossover
        draws, mutation coin, mutation draws); crossover, mutation and
        the clip then run once over the whole population.
        """
        config = self.config
        genes = self.space.num_frequencies
        crossover_draw, crossover_apply = ROW_CROSSOVERS[config.crossover]
        next_population = np.empty_like(population)
        cursor = 0
        if config.elitism > 0:
            elite = np.argsort(scores)[::-1][:config.elitism]
            next_population[:config.elitism] = population[elite]
            cursor = config.elitism
        needed = config.population_size - cursor
        parent_indices = select(scores, 2 * needed, rng)
        parents_a = population[parent_indices[:needed]]
        parents_b = population[parent_indices[needed:]]

        crossed = np.zeros(needed, dtype=bool)
        crossover_draws = []
        moved = np.zeros((needed, genes), dtype=bool)
        steps = np.zeros((needed, genes))
        for row in range(needed):
            if rng.random() < config.crossover_rate:
                crossed[row] = True
                crossover_draws.append(crossover_draw(rng, (genes,)))
            if rng.random() < config.mutation_rate:
                moved[row], steps[row] = gaussian_draw(
                    rng, (genes,), config.mutation_sigma_decades)

        children = parents_a.copy()
        if crossover_draws:
            children[crossed] = crossover_apply(
                parents_a[crossed], parents_b[crossed],
                np.array(crossover_draws))
        next_population[cursor:] = gaussian_step(children, moved, steps)
        return self.space.clip(next_population)

    def run(self, seed: Optional[int] = None,
            rng: Optional[np.random.Generator] = None,
            initial_population: Optional[np.ndarray] = None) -> GAResult:
        """Execute the configured number of generations.

        ``initial_population`` optionally seeds the search (e.g. with
        sensitivity-ranked frequencies); missing rows are filled with
        random genomes.
        """
        if rng is None:
            rng = np.random.default_rng(seed)
        config = self.config
        select = get_selection(config.selection, config.tournament_size)

        population = self.space.random_population(
            rng, config.population_size)
        if initial_population is not None:
            seeded = np.asarray(initial_population, dtype=float)
            if seeded.ndim != 2 or \
                    seeded.shape[1] != self.space.num_frequencies:
                raise GAError(
                    f"initial_population must be (k, "
                    f"{self.space.num_frequencies})")
            if not np.isfinite(seeded).all():
                raise GAError("initial_population genes must be finite")
            count = min(seeded.shape[0], config.population_size)
            population[:count] = self.space.clip(seeded[:count])

        history: List[GenerationStats] = []
        evaluations = 0
        started = time.perf_counter()

        decoded, scores = self._evaluate(population)
        evaluations += population.shape[0]

        best_index = int(np.argmax(scores))
        best_genome = population[best_index].copy()
        best_fitness = float(scores[best_index])

        generations_run = 0
        for generation in range(config.generations):
            generations_run = generation + 1
            history.append(GenerationStats(
                generation=generation,
                best_fitness=float(scores.max()),
                mean_fitness=float(scores.mean()),
                std_fitness=float(scores.std()),
                best_freqs_hz=tuple(
                    decoded[int(np.argmax(scores))].tolist()),
            ))
            if config.early_stop_fitness is not None and \
                    best_fitness >= config.early_stop_fitness:
                break
            if generation == config.generations - 1:
                break  # last generation is evaluated, not reproduced

            with TRACER.span("ga.generation", generation=generation,
                             population=int(population.shape[0])):
                population = self._reproduce(population, scores, select,
                                             rng)
                decoded, scores = self._evaluate(population)
            evaluations += population.shape[0]
            generation_best = int(np.argmax(scores))
            if scores[generation_best] > best_fitness:
                best_fitness = float(scores[generation_best])
                best_genome = population[generation_best].copy()

        elapsed = time.perf_counter() - started
        return GAResult(
            best_freqs_hz=self.space.decode(best_genome),
            best_fitness=best_fitness,
            history=history,
            generations_run=generations_run,
            evaluations=evaluations,
            elapsed_seconds=elapsed,
            final_population=population,
            final_fitness=scores,
        )
