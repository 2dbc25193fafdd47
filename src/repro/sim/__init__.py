"""Analog simulation substrate: MNA small-signal AC analysis, the variant
engines, sensitivity and sweeps."""

from .ac import ACAnalysis, FrequencyResponse
from .engine import (
    BatchedMnaEngine,
    FactoredMnaEngine,
    ResponseBlock,
    SimulationEngine,
    VariantTable,
)
from .mna import ComponentOps, MnaSolution, MnaSystem
from .sensitivity import (
    SensitivityResult,
    rank_frequencies,
    sensitivity_analysis,
)
from .sweep import SweepResult, deviation_sweep, value_sweep

__all__ = [
    "MnaSystem",
    "MnaSolution",
    "ComponentOps",
    "SimulationEngine",
    "BatchedMnaEngine",
    "FactoredMnaEngine",
    "ResponseBlock",
    "VariantTable",
    "ACAnalysis",
    "FrequencyResponse",
    "SensitivityResult",
    "sensitivity_analysis",
    "rank_frequencies",
    "SweepResult",
    "value_sweep",
    "deviation_sweep",
]
