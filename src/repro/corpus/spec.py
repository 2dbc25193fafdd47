"""Declarative corpus specification: what to run, under which settings.

A :class:`CorpusSpec` is the single object a corpus run needs -- the
family matrix (which generators, how many seeds each, at what size and
fault-target cap) plus the full :class:`~repro.core.config.
PipelineConfig` and :class:`~repro.diagnosis.posterior.PosteriorConfig`
every circuit runs under. Like those configs it round-trips through
JSON, so a corpus is reproducible from its artifact's embedded spec
alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from ..circuits.families import CIRCUIT_FAMILIES, FAMILY_DEFAULT_SIZES
from ..core.config import PipelineConfig
from ..diagnosis.evaluate import HELD_OUT_DEVIATIONS
from ..diagnosis.posterior import PosteriorConfig
from ..errors import CorpusError
from ..ga.config import GAConfig

__all__ = ["FamilySpec", "CorpusSpec"]


@dataclass(frozen=True)
class FamilySpec:
    """One row of the corpus matrix: ``count`` seeds of one family.

    ``size`` defaults to the family's registry default;
    ``max_targets`` caps fault-target components per circuit (see
    :func:`~repro.faults.universe.synthesize_universe`) so dictionary
    cost stays bounded as generated circuits grow; seeds enumerate
    ``seed0 .. seed0 + count - 1``.
    """

    family: str
    count: int = 5
    size: Optional[int] = None
    seed0: int = 0
    max_targets: Optional[int] = None

    def __post_init__(self) -> None:
        if self.family not in CIRCUIT_FAMILIES:
            raise CorpusError(
                f"unknown circuit family {self.family!r}; "
                f"available: {sorted(CIRCUIT_FAMILIES)}")
        if self.count < 1:
            raise CorpusError(f"family {self.family}: count must be >= 1")
        if self.size is not None and self.size < 1:
            raise CorpusError(f"family {self.family}: size must be >= 1")
        if self.max_targets is not None and self.max_targets < 1:
            raise CorpusError(
                f"family {self.family}: max_targets must be >= 1")

    @property
    def effective_size(self) -> int:
        return self.size if self.size is not None \
            else FAMILY_DEFAULT_SIZES[self.family]

    @property
    def seeds(self) -> Tuple[int, ...]:
        return tuple(range(self.seed0, self.seed0 + self.count))

    def to_json_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "FamilySpec":
        try:
            return cls(**dict(data))
        except TypeError as exc:
            raise CorpusError(f"bad family-spec dict: {exc}") from exc


@dataclass(frozen=True)
class CorpusSpec:
    """A full corpus declaration.

    Attributes
    ----------
    name:
        Artifact stem: the runner writes ``CORPUS_<name>.json``.
    families:
        The family matrix (see :class:`FamilySpec`); circuits enumerate
        in declaration order, seeds ascending within each family.
    pipeline:
        Per-circuit ATPG settings (engine, GA budget, fitness --
        everything :class:`~repro.core.config.PipelineConfig` holds).
    posterior:
        Probabilistic-tier settings for the posterior diagnosis pass.
    held_out_deviations:
        Fault deviations the accuracy evaluation injects -- off the
        dictionary grid by construction of the default.
    ga_seed:
        Root seed for each circuit's GA search (offset by the circuit
        index so runs are deterministic yet seeds never collide).
    """

    families: Tuple[FamilySpec, ...]
    name: str = "corpus"
    pipeline: PipelineConfig = field(default_factory=PipelineConfig.quick)
    posterior: PosteriorConfig = field(default_factory=PosteriorConfig)
    held_out_deviations: Tuple[float, ...] = HELD_OUT_DEVIATIONS
    ga_seed: int = 2005

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").replace(
                "-", "").isalnum():
            raise CorpusError(
                f"corpus name must be a file-name-safe slug, "
                f"got {self.name!r}")
        families = tuple(
            spec if isinstance(spec, FamilySpec)
            else FamilySpec.from_json_dict(spec)
            for spec in self.families)
        if not families:
            raise CorpusError("corpus declares no families")
        object.__setattr__(self, "families", families)
        object.__setattr__(self, "held_out_deviations",
                           tuple(float(d) for d in self.held_out_deviations))
        if not self.held_out_deviations:
            raise CorpusError("held_out_deviations is empty")
        if not isinstance(self.pipeline, PipelineConfig):
            raise CorpusError("pipeline must be a PipelineConfig")
        if not isinstance(self.posterior, PosteriorConfig):
            raise CorpusError("posterior must be a PosteriorConfig")

    # ------------------------------------------------------------------
    @property
    def total_circuits(self) -> int:
        return sum(spec.count for spec in self.families)

    def circuits(self) -> Iterator[Tuple[int, FamilySpec, int]]:
        """Enumerate ``(index, family_spec, seed)`` in run order."""
        index = 0
        for spec in self.families:
            for seed in spec.seeds:
                yield index, spec, seed
                index += 1

    # ------------------------------------------------------------------
    # JSON round-trip (the artifact embeds the spec; repro-corpus
    # --spec reads one back).
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "families": [spec.to_json_dict() for spec in self.families],
            "pipeline": self.pipeline.to_json_dict(),
            "posterior": self.posterior.to_json_dict(),
            "held_out_deviations": list(self.held_out_deviations),
            "ga_seed": self.ga_seed,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "CorpusSpec":
        payload = dict(data)
        try:
            if "families" in payload:
                payload["families"] = tuple(
                    FamilySpec.from_json_dict(item)
                    for item in payload["families"])
            if isinstance(payload.get("pipeline"), dict):
                payload["pipeline"] = PipelineConfig.from_json_dict(
                    payload["pipeline"])
            if isinstance(payload.get("posterior"), dict):
                payload["posterior"] = PosteriorConfig.from_json_dict(
                    payload["posterior"])
            if "held_out_deviations" in payload:
                payload["held_out_deviations"] = tuple(
                    payload["held_out_deviations"])
            return cls(**payload)
        except TypeError as exc:
            raise CorpusError(f"bad corpus-spec dict: {exc}") from exc

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def baseline(cls) -> "CorpusSpec":
        """The committed 110-circuit baseline matrix.

        Budgets are tuned so the full corpus (dictionary build + GA +
        hard and posterior diagnosis per circuit) finishes in minutes
        on a laptop while still spanning four families and dozens of
        seeds per family.
        """
        return cls(
            name="baseline",
            families=(
                FamilySpec("rc_ladder", count=30, max_targets=6),
                FamilySpec("lc_ladder", count=25, max_targets=6),
                FamilySpec("biquad_chain", count=25, max_targets=6),
                FamilySpec("random_topology", count=30, max_targets=6),
            ),
            pipeline=PipelineConfig(
                dictionary_points=96,
                ga=GAConfig.quick(seeded_generations=4,
                                  population_size=24)),
            posterior=PosteriorConfig(n_samples=16, tolerance=0.03,
                                      samples_per_block=16),
        )

    @classmethod
    def quick(cls) -> "CorpusSpec":
        """~20-circuit smoke matrix for CI (``repro-corpus --quick``)."""
        return cls(
            name="quick",
            families=(
                FamilySpec("rc_ladder", count=6, size=4, max_targets=4),
                FamilySpec("lc_ladder", count=5, size=4, max_targets=4),
                FamilySpec("biquad_chain", count=4, size=1,
                           max_targets=4),
                FamilySpec("random_topology", count=5, size=4,
                           max_targets=4),
            ),
            pipeline=PipelineConfig(
                dictionary_points=64,
                ga=GAConfig.quick(seeded_generations=3,
                                  population_size=16)),
            posterior=PosteriorConfig(n_samples=8, tolerance=0.03,
                                      samples_per_block=8),
        )
