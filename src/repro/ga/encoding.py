"""Chromosome encoding: a test vector as log-frequency genes.

A test vector of n frequencies is encoded as n real genes in log10(Hz).
Frequencies of interest span decades, so log-space makes Gaussian
mutation and blend crossover scale-free: a 0.1-decade step means the same
relative move at 100 Hz and at 100 kHz.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from ..errors import GAError

__all__ = ["FrequencySpace"]

# Two genes closer than this (in decades) are considered degenerate and
# nudged apart on decode; exactly coincident axes would collapse the
# signature space dimension.
_MIN_GENE_GAP_DECADES = 1e-6


@dataclass(frozen=True)
class FrequencySpace:
    """Search space: ``num_frequencies`` genes in [f_min, f_max] (log)."""

    f_min_hz: float
    f_max_hz: float
    num_frequencies: int = 2

    def __post_init__(self) -> None:
        if self.f_min_hz <= 0.0 or self.f_max_hz <= self.f_min_hz:
            raise GAError(
                f"need 0 < f_min < f_max, got [{self.f_min_hz}, "
                f"{self.f_max_hz}]")
        if self.num_frequencies < 1:
            raise GAError("num_frequencies must be >= 1")

    @cached_property
    def log_bounds(self) -> Tuple[float, float]:
        return (float(np.log10(self.f_min_hz)),
                float(np.log10(self.f_max_hz)))

    # ------------------------------------------------------------------
    # Genome operations
    # ------------------------------------------------------------------
    def random_genome(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform random genome in log-frequency space."""
        low, high = self.log_bounds
        return rng.uniform(low, high, size=self.num_frequencies)

    def random_population(self, rng: np.random.Generator,
                          size: int) -> np.ndarray:
        """(size, num_frequencies) random genomes."""
        if size < 1:
            raise GAError("population size must be >= 1")
        low, high = self.log_bounds
        return rng.uniform(low, high, size=(size, self.num_frequencies))

    def clip(self, genomes: np.ndarray) -> np.ndarray:
        """Clamp genes (one genome or a population) into the bounds."""
        genomes = np.asarray(genomes, dtype=float)
        if not np.isfinite(genomes).all():
            raise GAError("genes must be finite")
        low, high = self.log_bounds
        return np.clip(genomes, low, high)

    def decode_population(self, genomes: np.ndarray) -> np.ndarray:
        """(P, n) genomes -> (P, n) sorted, distinct test frequencies (Hz).

        Genes are sorted ascending (a test vector is a *set* of
        frequencies; sorting canonicalises it) and near-coincident genes
        are nudged apart by a tiny log-step so the signature space never
        degenerates; a nudge past the upper bound shifts the whole row
        back inside the band.
        """
        genomes = self.clip(genomes)
        if genomes.ndim != 2 or genomes.shape[1] != self.num_frequencies:
            raise GAError(
                f"population shape {genomes.shape} does not match space "
                f"({self.num_frequencies} genes)")
        ordered = np.sort(genomes, axis=1)
        for index in range(1, self.num_frequencies):
            nudge = ordered[:, index] - ordered[:, index - 1] < \
                _MIN_GENE_GAP_DECADES
            ordered[nudge, index] = ordered[nudge, index - 1] + \
                _MIN_GENE_GAP_DECADES
        overflow = ordered[:, -1] - self.log_bounds[1]
        shift = overflow > 0.0
        ordered[shift] -= overflow[shift, None]
        return np.power(10.0, ordered)

    def decode(self, genome: np.ndarray) -> Tuple[float, ...]:
        """One genome -> its test frequencies: a one-row
        :meth:`decode_population`."""
        genome = np.asarray(genome, dtype=float)
        if genome.shape != (self.num_frequencies,):
            raise GAError(
                f"genome shape {genome.shape} does not match space "
                f"({self.num_frequencies} genes)")
        return tuple(self.decode_population(genome[None])[0].tolist())

    def encode(self, freqs_hz: Tuple[float, ...]) -> np.ndarray:
        """Frequencies in Hz -> genome (log10)."""
        freqs = np.asarray(freqs_hz, dtype=float)
        if freqs.shape != (self.num_frequencies,):
            raise GAError(
                f"expected {self.num_frequencies} frequencies, got "
                f"{freqs.shape}")
        if not np.isfinite(freqs).all():
            raise GAError("frequencies must be finite")
        if np.any(freqs <= 0.0):
            raise GAError("frequencies must be positive")
        return self.clip(np.log10(freqs))

    def contains(self, freqs_hz: Tuple[float, ...]) -> bool:
        """Whether every frequency lies within the search band."""
        freqs = np.asarray(freqs_hz, dtype=float)
        return bool(np.all((freqs >= self.f_min_hz) &
                           (freqs <= self.f_max_hz)))
