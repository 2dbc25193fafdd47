"""Genetic operators: selection, crossover, mutation.

Selection returns *indices* into the population so it composes with any
genome representation. All operators take an explicit
``numpy.random.Generator``; nothing touches global random state, keeping
every run reproducible from a seed.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from ..errors import GAError
from .encoding import FrequencySpace

__all__ = [
    "roulette_wheel_select",
    "tournament_select",
    "rank_select",
    "blend_crossover",
    "one_point_crossover",
    "uniform_crossover",
    "gaussian_mutation",
    "reset_mutation",
    "get_selection",
    "get_crossover",
]


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def roulette_wheel_select(fitness: np.ndarray, count: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Fitness-proportionate ("roulette wheel") selection -- the paper's
    mining method.

    Fitness values must be non-negative (the paper's 1/(1+I) always is).
    If every individual has zero fitness the draw degrades gracefully to
    uniform.
    """
    fitness = np.asarray(fitness, dtype=float)
    if fitness.ndim != 1 or fitness.size == 0:
        raise GAError("fitness must be a non-empty 1-D array")
    if np.any(fitness < 0.0):
        raise GAError("roulette selection needs non-negative fitness")
    total = float(fitness.sum())
    if total <= 0.0:
        probabilities = np.full(fitness.size, 1.0 / fitness.size)
    else:
        probabilities = fitness / total
    return rng.choice(fitness.size, size=count, p=probabilities)


def tournament_select(fitness: np.ndarray, count: int,
                      rng: np.random.Generator,
                      tournament_size: int = 3) -> np.ndarray:
    """k-way tournament: sample k, keep the fittest. Repeated ``count``
    times."""
    fitness = np.asarray(fitness, dtype=float)
    if fitness.size == 0:
        raise GAError("fitness must be non-empty")
    k = min(tournament_size, fitness.size)
    entrants = rng.integers(0, fitness.size, size=(count, k))
    winners_in_row = np.argmax(fitness[entrants], axis=1)
    return entrants[np.arange(count), winners_in_row]


def rank_select(fitness: np.ndarray, count: int,
                rng: np.random.Generator) -> np.ndarray:
    """Linear rank selection: probability proportional to fitness rank.

    Insensitive to the fitness *scale* -- useful when 1/(1+I) saturates
    and most of the population sits at the same value.
    """
    fitness = np.asarray(fitness, dtype=float)
    if fitness.size == 0:
        raise GAError("fitness must be non-empty")
    order = np.argsort(np.argsort(fitness))  # rank of each individual
    weights = (order + 1).astype(float)
    return rng.choice(fitness.size, size=count, p=weights / weights.sum())


# ----------------------------------------------------------------------
# Crossover and mutation
#
# Each operator is split into its random draws for one row (taken in the
# order the generation loop visits its children, so the RNG stream is
# fixed) and one arithmetic step applied to every drawn row at once. The
# public per-pair operators are one-row calls of the same two pieces.
# ----------------------------------------------------------------------
def _blend_draw(rng: np.random.Generator,
                shape: Tuple[int, ...]) -> np.ndarray:
    return rng.random(shape)


def _blend_rows(parents_a: np.ndarray, parents_b: np.ndarray,
                unit: np.ndarray, alpha: float = 0.5) -> np.ndarray:
    # ``low + range * u`` with u from ``rng.random`` is bitwise what
    # ``rng.uniform(low, high)`` returns.
    low = np.minimum(parents_a, parents_b)
    high = np.maximum(parents_a, parents_b)
    span = high - low
    lower = low - alpha * span
    return lower + (high + alpha * span - lower) * unit


def _one_point_draw(rng: np.random.Generator,
                    shape: Tuple[int, ...]) -> np.ndarray:
    """Mask of the genes taken from parent a: the head up to the cut."""
    genes = shape[-1]
    point = int(rng.integers(1, genes)) if genes >= 2 else genes
    return np.arange(genes) < point


def _uniform_draw(rng: np.random.Generator,
                  shape: Tuple[int, ...]) -> np.ndarray:
    return rng.random(shape) < 0.5


def _take_rows(parents_a: np.ndarray, parents_b: np.ndarray,
               from_a: np.ndarray) -> np.ndarray:
    return np.where(from_a, parents_a, parents_b)


#: Every crossover of :func:`get_crossover` as ``(draw, apply)``:
#: ``draw(rng, shape)`` takes one child's random numbers and
#: ``apply(parents_a, parents_b, draws)`` combines stacked rows.
ROW_CROSSOVERS = {
    "blend": (_blend_draw, _blend_rows),
    "one_point": (_one_point_draw, _take_rows),
    "uniform": (_uniform_draw, _take_rows),
}


def blend_crossover(parent_a: np.ndarray, parent_b: np.ndarray,
                    rng: np.random.Generator,
                    alpha: float = 0.5) -> np.ndarray:
    """BLX-alpha: child genes sampled uniformly from the parent interval
    extended by ``alpha`` on each side. The workhorse for real genes."""
    parent_a = np.asarray(parent_a, dtype=float)
    parent_b = np.asarray(parent_b, dtype=float)
    shape = np.broadcast_shapes(parent_a.shape, parent_b.shape)
    return _blend_rows(parent_a, parent_b, _blend_draw(rng, shape), alpha)


def one_point_crossover(parent_a: np.ndarray, parent_b: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    """Classic one-point crossover (for 2 genes: swap the tail gene)."""
    parent_a = np.asarray(parent_a, dtype=float)
    parent_b = np.asarray(parent_b, dtype=float)
    return _take_rows(parent_a, parent_b,
                      _one_point_draw(rng, parent_a.shape))


def uniform_crossover(parent_a: np.ndarray, parent_b: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """Each gene taken from either parent with probability 1/2."""
    parent_a = np.asarray(parent_a, dtype=float)
    parent_b = np.asarray(parent_b, dtype=float)
    return _take_rows(parent_a, parent_b,
                      _uniform_draw(rng, parent_a.shape))


def gaussian_draw(rng: np.random.Generator, shape: Tuple[int, ...],
                  sigma_decades: float = 0.15,
                  per_gene_rate: float = 1.0
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """(mask, steps) of one Gaussian mutation: which genes move, and by
    how much."""
    mask = rng.random(shape) < per_gene_rate
    return mask, rng.normal(0.0, sigma_decades, size=shape)


def gaussian_step(genomes: np.ndarray, mask: np.ndarray,
                  steps: np.ndarray) -> np.ndarray:
    """Add the drawn steps to the masked genes (unclipped)."""
    return np.add(genomes, steps, out=np.array(genomes, dtype=float),
                  where=mask)


def gaussian_mutation(genome: np.ndarray, space: FrequencySpace,
                      rng: np.random.Generator,
                      sigma_decades: float = 0.15,
                      per_gene_rate: float = 1.0) -> np.ndarray:
    """Gaussian step in log-frequency space, clipped to bounds."""
    genome = np.asarray(genome, dtype=float)
    mask, steps = gaussian_draw(rng, genome.shape, sigma_decades,
                                per_gene_rate)
    return space.clip(gaussian_step(genome, mask, steps))


def reset_mutation(genome: np.ndarray, space: FrequencySpace,
                   rng: np.random.Generator,
                   per_gene_rate: float = 0.5) -> np.ndarray:
    """Re-draw selected genes uniformly (escapes local basins)."""
    genome = np.asarray(genome, dtype=float).copy()
    mask = rng.random(genome.shape) < per_gene_rate
    fresh = space.random_genome(rng)
    genome[mask] = fresh[mask]
    return genome


# ----------------------------------------------------------------------
# Registries (used by the engine to honour GAConfig strings)
# ----------------------------------------------------------------------
def get_selection(name: str, tournament_size: int = 3
                  ) -> Callable[[np.ndarray, int, np.random.Generator],
                                np.ndarray]:
    if name == "roulette":
        return roulette_wheel_select
    if name == "tournament":
        def tournament(fitness, count, rng):
            return tournament_select(fitness, count, rng, tournament_size)
        return tournament
    if name == "rank":
        return rank_select
    raise GAError(f"unknown selection method {name!r}")


def get_crossover(name: str
                  ) -> Callable[[np.ndarray, np.ndarray,
                                 np.random.Generator], np.ndarray]:
    if name == "blend":
        return blend_crossover
    if name == "one_point":
        return one_point_crossover
    if name == "uniform":
        return uniform_crossover
    raise GAError(f"unknown crossover method {name!r}")
