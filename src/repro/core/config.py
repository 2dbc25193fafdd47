"""End-to-end pipeline configuration."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Tuple, Union

from ..diagnosis.posterior import RETIRED_WORKER_KEYS
from ..errors import ReproError
from ..faults.models import paper_deviation_grid
from ..ga.config import GAConfig
from ..sim.engine import EngineSpec

__all__ = ["PipelineConfig"]

_FITNESS_KINDS = ("paper", "margin", "combined")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the ATPG pipeline needs beyond the circuit itself.

    Defaults follow the paper: the +/-40 % / 10 %-step fault grid, a
    two-frequency test vector, dB signatures with the golden point at the
    origin, the 1/(1+I) fitness and the 128x15 roulette GA.

    Attributes
    ----------
    deviations:
        Dictionary fault grid (relative deviations, 0 excluded).
    dictionary_points:
        Dense AC grid size used for the dictionary / response surface.
    num_frequencies:
        Test-vector length (the paper uses 2).
    signature_scale / relative_to_golden:
        Signature mapping options (see SignatureMapper).
    fitness:
        ``"paper"`` = 1/(1+I); ``"margin"`` = separation margin;
        ``"combined"`` = paper + bounded margin tie-break.
    overlap_weight / margin_weight / margin_scale:
        Fitness shape parameters (see repro.ga.fitness).
    ga:
        The GA hyper-parameters (defaults to the paper's).
    ambiguity_threshold:
        Trajectory separation (signature units) below which two
        components are reported as one ambiguity group.
    engine:
        Simulation engine for every fault-simulation stage, as an
        :class:`~repro.sim.engine.EngineSpec` (a plain kind string such
        as ``"batched"`` or a compact spec such as
        ``"factored:cond_limit=1e6,sparse=true"`` are coerced).
        ``"batched"`` (default) is the stamp-once/solve-many
        :class:`~repro.sim.engine.BatchedMnaEngine`; ``"scalar"`` is
        the reference path; ``"factored"`` solves fault variants via
        Sherman-Morrison-Woodbury low-rank updates. Batched and scalar
        produce bitwise-identical responses; factored matches them
        within tight tolerance (~1e-12 relative on the benchmark
        circuits).
    """

    deviations: Tuple[float, ...] = field(
        default_factory=paper_deviation_grid)
    dictionary_points: int = 401
    num_frequencies: int = 2
    signature_scale: str = "db"
    relative_to_golden: bool = True
    fitness: str = "paper"
    overlap_weight: float = 1.0
    margin_weight: float = 0.45
    margin_scale: float = 1.0
    ga: GAConfig = field(default_factory=GAConfig.paper)
    ambiguity_threshold: float = 0.01
    engine: Union[EngineSpec, str] = "batched"

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", EngineSpec.coerce(self.engine))
        if self.fitness not in _FITNESS_KINDS:
            raise ReproError(
                f"fitness must be one of {_FITNESS_KINDS}, "
                f"got {self.fitness!r}")
        if self.dictionary_points < 16:
            raise ReproError(
                "dictionary_points must be >= 16 for a usable surface")
        if self.num_frequencies < 1:
            raise ReproError("num_frequencies must be >= 1")
        if not self.deviations:
            raise ReproError("deviation grid is empty")
        if self.ambiguity_threshold < 0.0:
            raise ReproError("ambiguity_threshold must be >= 0")

    @classmethod
    def paper(cls) -> "PipelineConfig":
        """The configuration matching the paper's experiment."""
        return cls()

    @classmethod
    def quick(cls) -> "PipelineConfig":
        """Reduced budget for tests and examples."""
        return cls(dictionary_points=201, ga=GAConfig.quick())

    # ------------------------------------------------------------------
    # JSON round-trip (spawned cluster workers receive their config
    # over the command line; see repro.runtime.cli / cluster). The
    # engine rides as its compact string spelling.
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """A JSON-ready dict that :meth:`from_json_dict` restores
        exactly (tuples ride as lists)."""
        out = dataclasses.asdict(self)
        out["engine"] = self.engine.to_json_value()
        return out

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "PipelineConfig":
        """Rebuild a config from :meth:`to_json_dict` output (or any
        subset of its keys -- omitted fields keep their defaults).

        Keys of the retired worker-pool knobs (``n_workers``,
        ``executor``, ``ga_workers``, ``ga_executor``, ``parallelism``)
        are accepted and ignored, so persisted configs still load; any
        other unknown key raises :class:`~repro.errors.ReproError`.
        """
        payload = {key: value for key, value in data.items()
                   if key not in RETIRED_WORKER_KEYS}
        try:
            if isinstance(payload.get("ga"), dict):
                payload["ga"] = GAConfig(**payload["ga"])
            if "deviations" in payload:
                payload["deviations"] = tuple(payload["deviations"])
            return cls(**payload)
        except TypeError as exc:
            raise ReproError(f"bad pipeline-config dict: {exc}") from exc

