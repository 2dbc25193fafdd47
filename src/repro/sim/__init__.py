"""Analog simulation substrate: MNA, AC/DC/transient, sensitivity, sweeps."""

from .ac import ACAnalysis, FrequencyResponse
from .dc import DCAnalysis, OperatingPoint
from .engine import (
    BatchedMnaEngine,
    EngineSpec,
    FactoredMnaEngine,
    ResponseBlock,
    ScalarMnaEngine,
    SimulationEngine,
    VariantSpec,
    make_engine,
)
from .mna import ComponentOps, MnaSolution, MnaSystem
from .sensitivity import (
    SensitivityResult,
    rank_frequencies,
    sensitivity_analysis,
)
from .sweep import SweepResult, deviation_sweep, value_sweep
from .transient import (
    MultitoneWaveform,
    PulseWaveform,
    SineWaveform,
    StepWaveform,
    TransientAnalysis,
    TransientResult,
    Waveform,
)

__all__ = [
    "MnaSystem",
    "MnaSolution",
    "ComponentOps",
    "SimulationEngine",
    "BatchedMnaEngine",
    "FactoredMnaEngine",
    "ScalarMnaEngine",
    "ResponseBlock",
    "VariantSpec",
    "EngineSpec",
    "make_engine",
    "ACAnalysis",
    "FrequencyResponse",
    "DCAnalysis",
    "OperatingPoint",
    "TransientAnalysis",
    "TransientResult",
    "Waveform",
    "StepWaveform",
    "SineWaveform",
    "PulseWaveform",
    "MultitoneWaveform",
    "SensitivityResult",
    "sensitivity_analysis",
    "rank_frequencies",
    "SweepResult",
    "value_sweep",
    "deviation_sweep",
]
