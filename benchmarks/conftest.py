"""Shared fixtures for the benchmark/reproduction harness.

Each ``bench_*`` file regenerates one experiment, named by the ID that
opens its docstring (FIG1-FIG3, T-GA, T-ACC, T-ABL, T-NFREQ, T-XCUT,
T-PERF). Benchmarks time the hot operation with pytest-benchmark and
write the figure/table data (CSV + ASCII rendering) to
``benchmarks/out/`` so the paper's artefacts can be inspected and
re-plotted.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import (
    FaultTrajectoryATPG,
    PipelineConfig,
    ResponseSurface,
    parametric_universe,
    tow_thomas_biquad,
)
from repro.faults import FaultDictionary
from repro.units import log_frequency_grid

from _helpers import SEED


@pytest.fixture(scope="session")
def out_dir():
    path = Path(__file__).parent / "out"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture(scope="session")
def cut():
    """The paper's CUT, its op-amps as finite-gain macromodels."""
    return tow_thomas_biquad(ideal_opamps=False)


@pytest.fixture(scope="session")
def cut_universe(cut):
    return parametric_universe(cut.circuit, components=cut.faultable)


@pytest.fixture(scope="session")
def cut_dictionary(cut, cut_universe):
    grid = log_frequency_grid(cut.f_min_hz, cut.f_max_hz, 401)
    return FaultDictionary.build(cut_universe, cut.output_node, grid,
                                 input_source=cut.input_source)


@pytest.fixture(scope="session")
def cut_surface(cut_dictionary):
    return ResponseSurface(cut_dictionary)


@pytest.fixture(scope="session")
def paper_pipeline_result(cut):
    """One full paper-configuration pipeline run shared by benchmarks."""
    return FaultTrajectoryATPG(cut, PipelineConfig.paper()).run(seed=SEED)
