"""Shared fixtures.

Expensive artefacts (the biquad fault dictionary, a quick pipeline run)
are session-scoped: they are deterministic pure functions of the seed, so
sharing them across tests only trades isolation we do not need for a
large speed-up.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    FaultTrajectoryATPG,
    PipelineConfig,
    ResponseSurface,
    SignatureMapper,
    TrajectorySet,
    parametric_universe,
    rc_lowpass,
    tow_thomas_biquad,
)
from repro.faults import FaultDictionary
from repro.ga import GAConfig
from repro.units import log_frequency_grid


@pytest.fixture(scope="session")
def biquad_info():
    """The paper's CUT with op-amp macromodels (the realistic variant)."""
    return tow_thomas_biquad(ideal_opamps=False)


@pytest.fixture(scope="session")
def biquad_ideal_info():
    """The CUT with ideal op-amps (exhibits exact ambiguity groups)."""
    return tow_thomas_biquad(ideal_opamps=True)


@pytest.fixture(scope="session")
def biquad_universe(biquad_info):
    return parametric_universe(biquad_info.circuit,
                               components=biquad_info.faultable)


@pytest.fixture(scope="session")
def biquad_dictionary(biquad_info, biquad_universe):
    grid = log_frequency_grid(biquad_info.f_min_hz, biquad_info.f_max_hz,
                              301)
    return FaultDictionary.build(biquad_universe, biquad_info.output_node,
                                 grid)


@pytest.fixture(scope="session")
def biquad_surface(biquad_dictionary):
    return ResponseSurface(biquad_dictionary)


@pytest.fixture(scope="session")
def biquad_trajectories(biquad_surface):
    mapper = SignatureMapper((500.0, 1500.0))
    return TrajectorySet.from_source(biquad_surface, mapper)


@pytest.fixture(scope="session")
def quick_pipeline_result(biquad_info):
    """One quick end-to-end ATPG run shared by the integration tests."""
    return FaultTrajectoryATPG(biquad_info,
                               PipelineConfig.quick()).run(seed=11)


@pytest.fixture(scope="session")
def rc_info():
    return rc_lowpass(f0_hz=1e3)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


# ----------------------------------------------------------------------
# Serving-layer scaffolding shared by the serving/cluster suites
# ----------------------------------------------------------------------
#: One quick config for every serving-layer suite -- a drift in these
#: knobs must hit all of them together.
QUICK_SERVING = PipelineConfig(
    dictionary_points=32, deviations=(-0.2, 0.2),
    ga=GAConfig(population_size=8, generations=2))

#: The >= 3 library circuits the serving equivalence properties range
#: over.
SERVING_CIRCUITS = ("rc_lowpass", "voltage_divider",
                    "sallen_key_lowpass")


#: Plausible measured dB rows (golden magnitudes +- a few dB) -- the
#: one implementation shared with the serving benchmarks.
from repro.runtime.testing import noisy_golden_rows as measured_rows


def sequential_answers(service, mode, requests):
    """The sync service's answers to ``(circuit, rows)`` requests, one
    call per request: the reference every serving mode must match."""
    answer = service.submit if mode == "hard" \
        else service.diagnose_posterior
    return [answer(circuit, rows) for circuit, rows in requests]


@pytest.fixture(scope="session")
def warm_service():
    """One warmed multi-circuit service shared by the serving suites.

    Engines are deterministic pure functions of (config, seed), and
    the diagnosers are read-only after warm-up, so sharing trades no
    isolation for a large speed-up.
    """
    from repro import DiagnosisService
    service = DiagnosisService(config=QUICK_SERVING, max_engines=8,
                               seed=3)
    for name in SERVING_CIRCUITS:
        service.warm(name)
    return service
