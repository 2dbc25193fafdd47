"""repro: fault-trajectory fault diagnosis for analog circuits.

A full reproduction of *"Fault-Trajectory Approach for Fault Diagnosis on
Analog Circuits"* (Savioli, Szendrodi, Calvano, Mesquita -- DATE 2005),
including the analog simulation substrate it depends on:

* :mod:`repro.circuits` -- netlists, components, SPICE-like parser and a
  benchmark circuit library (the paper's biquad CUT among them);
* :mod:`repro.sim` -- MNA-based small-signal AC simulation, sensitivity;
* :mod:`repro.faults` -- parametric/catastrophic fault models, fault
  dictionaries, fast response surfaces;
* :mod:`repro.trajectory` -- signature mapping, fault trajectories,
  intersection/separation geometry;
* :mod:`repro.ga` -- the paper's genetic test-vector search (roulette
  wheel, fitness 1/(1+I)) plus margin-based extensions;
* :mod:`repro.diagnosis` -- the perpendicular nearest-segment classifier,
  baselines, an evaluation harness and a Monte-Carlo posterior tier
  with expected-information-gain test selection;
* :mod:`repro.core` -- the end-to-end ATPG pipeline;
* :mod:`repro.runtime` -- the serving layer: batched diagnosis, a
  content-addressed artifact store, the multi-circuit
  :class:`DiagnosisService` and its asyncio front
  (:class:`AsyncDiagnosisService`: request coalescing, backpressure,
  a stdlib JSON-over-HTTP server);
* :mod:`repro.viz` -- ASCII figures and CSV export.

Quickstart::

    from repro import FaultTrajectoryATPG, PipelineConfig, tow_thomas_biquad

    info = tow_thomas_biquad(ideal_opamps=False)
    result = FaultTrajectoryATPG(info, PipelineConfig.quick()).run(seed=1)
    print(result.report())
    faulty = info.circuit.scaled_value("R3", 1.25)   # R3 +25%
    from repro.sim import ACAnalysis
    import numpy as np
    response = ACAnalysis(faulty).transfer(
        info.output_node, np.array(sorted(result.test_vector_hz)))
    print(result.diagnose_response(response).summary())
"""

from .circuits import (
    BENCHMARK_CIRCUITS,
    CIRCUIT_FAMILIES,
    Circuit,
    CircuitInfo,
    generate,
    get_benchmark,
    khn_state_variable,
    lc_ladder_lowpass5,
    mfb_bandpass,
    parse_netlist,
    parse_netlist_file,
    rc_ladder,
    rc_lowpass,
    sallen_key_lowpass,
    tow_thomas_biquad,
    twin_t_notch,
    voltage_divider,
)
from .core import ATPGResult, FaultTrajectoryATPG, PipelineConfig
from .corpus import CorpusSpec, FamilySpec, run_corpus
from .diagnosis import (
    FAULT_FREE_LABEL,
    Diagnosis,
    NearestNeighborClassifier,
    PosteriorConfig,
    PosteriorDiagnoser,
    PosteriorDiagnosis,
    TrajectoryClassifier,
    evaluate_classifier,
    isolability_classes,
    make_test_cases,
)
from . import errors
from .errors import (
    CorpusError,
    FamilyError,
    ReproError,
)
from .faults import (
    CatastrophicFault,
    FaultDictionary,
    FaultUniverse,
    OpAmpParamFault,
    ParametricFault,
    ResponseSurface,
    catastrophic_universe,
    paper_deviation_grid,
    parametric_universe,
    synthesize_universe,
)
from .runtime import (
    ArtifactStore,
    AsyncDiagnosisService,
    CircuitRouter,
    ClusterService,
    DiagnosisHTTPServer,
    DiagnosisService,
    ServiceStats,
    serve,
)
from .ga import (
    CombinedFitness,
    FrequencySpace,
    GAConfig,
    GAResult,
    GeneticAlgorithm,
    MarginFitness,
    PaperFitness,
)
from .sim import (
    ACAnalysis,
    BatchedMnaEngine,
    FactoredMnaEngine,
    FrequencyResponse,
    MnaSystem,
    ResponseBlock,
    SimulationEngine,
    VariantTable,
    sensitivity_analysis,
)
from .trajectory import (
    FaultTrajectory,
    SignatureMapper,
    TrajectorySet,
    evaluate_metrics,
)
from .units import db, format_frequency, log_frequency_grid, parse_value

__version__ = "1.8.0"


def run(info, config=None, seed=None, store=None) -> ATPGResult:
    """One-call pipeline: build the dictionary, search the test vector,
    return a diagnosis-ready :class:`ATPGResult`.

    ``info`` is a :class:`CircuitInfo` -- or a benchmark name
    (``repro.run("tow_thomas_biquad")``) or a ``(family, seed)`` pair
    naming a generated circuit. ``config``/``seed``/``store`` forward
    to :class:`FaultTrajectoryATPG` and its :meth:`~repro.core.atpg.
    FaultTrajectoryATPG.run`.
    """
    if isinstance(info, str):
        info = get_benchmark(info)
    elif isinstance(info, tuple) and len(info) == 2 \
            and isinstance(info[0], str):
        info = generate(info[0], info[1])
    return FaultTrajectoryATPG(info, config).run(seed=seed, store=store)

__all__ = [
    "__version__",
    "run",
    # circuits
    "Circuit",
    "CircuitInfo",
    "BENCHMARK_CIRCUITS",
    "CIRCUIT_FAMILIES",
    "generate",
    "get_benchmark",
    "tow_thomas_biquad",
    "sallen_key_lowpass",
    "khn_state_variable",
    "mfb_bandpass",
    "twin_t_notch",
    "lc_ladder_lowpass5",
    "rc_ladder",
    "rc_lowpass",
    "voltage_divider",
    "parse_netlist",
    "parse_netlist_file",
    # sim
    "MnaSystem",
    "ACAnalysis",
    "FrequencyResponse",
    "sensitivity_analysis",
    "SimulationEngine",
    "BatchedMnaEngine",
    "FactoredMnaEngine",
    "ResponseBlock",
    "VariantTable",
    # faults
    "ParametricFault",
    "CatastrophicFault",
    "OpAmpParamFault",
    "paper_deviation_grid",
    "FaultUniverse",
    "parametric_universe",
    "catastrophic_universe",
    "synthesize_universe",
    "FaultDictionary",
    "ResponseSurface",
    # trajectory
    "SignatureMapper",
    "FaultTrajectory",
    "TrajectorySet",
    "evaluate_metrics",
    # ga
    "GAConfig",
    "FrequencySpace",
    "GeneticAlgorithm",
    "GAResult",
    "PaperFitness",
    "MarginFitness",
    "CombinedFitness",
    # diagnosis
    "Diagnosis",
    "TrajectoryClassifier",
    "FAULT_FREE_LABEL",
    "PosteriorConfig",
    "PosteriorDiagnoser",
    "PosteriorDiagnosis",
    "NearestNeighborClassifier",
    "make_test_cases",
    "evaluate_classifier",
    "isolability_classes",
    # core
    "FaultTrajectoryATPG",
    "ATPGResult",
    "PipelineConfig",
    # corpus
    "CorpusSpec",
    "FamilySpec",
    "run_corpus",
    # runtime
    "ArtifactStore",
    "DiagnosisService",
    "ServiceStats",
    "AsyncDiagnosisService",
    "DiagnosisHTTPServer",
    "serve",
    "CircuitRouter",
    "ClusterService",
    # misc
    "errors",
    "ReproError",
    "FamilyError",
    "CorpusError",
    "parse_value",
    "format_frequency",
    "log_frequency_grid",
    "db",
]
