"""Regenerate the per-circuit golden diagnosis files.

Each ``tests/golden/<circuit>.json`` pins the *structural* output of a
fixed-seed pipeline run: the GA-selected test vector and the full
diagnosis (predicted component, estimated deviation, distance, margin,
perpendicularity) for every injected fault on a fixed grid. The
regression test replays the same run and compares field by field, so
accuracy drift shows up as a named circuit/component/deviation diff --
not just a moved aggregate metric.

Regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python tests/golden/update_golden.py

then review the diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro import (BatchedMnaEngine, FactoredMnaEngine, FaultTrajectoryATPG,
                   PipelineConfig, get_benchmark)
from repro.ga import GAConfig
from repro.sim import ACAnalysis

GOLDEN_DIR = Path(__file__).resolve().parent

SEED = 2005
#: Every registry circuit is pinned (keep in sync with
#: repro.circuits.library.BENCHMARK_CIRCUITS).
CIRCUITS = ("rc_lowpass", "voltage_divider", "sallen_key_lowpass",
            "tow_thomas_biquad", "khn_state_variable", "mfb_bandpass",
            "twin_t_notch", "lc_ladder_lowpass5", "rc_ladder")
#: Held-out injected deviations (disjoint from the trajectory grid).
FAULT_DEVIATIONS = (-0.25, -0.1, 0.1, 0.25)

CONFIG = PipelineConfig(dictionary_points=48,
                        deviations=(-0.3, -0.15, 0.15, 0.3),
                        ga=GAConfig(population_size=10, generations=3))


#: The engines a golden run can be replayed on, by name.
ENGINES = {"batched": BatchedMnaEngine, "factored": FactoredMnaEngine}


def generate_golden(circuit_name: str, engine: str = "batched") -> dict:
    """One circuit's golden record (deterministic in SEED/CONFIG).

    ``engine`` names the engine the pipeline runs on (a key of
    :data:`ENGINES`). The golden files are pinned on the batched engine,
    the bitwise dense path the pipeline's factored engine falls back
    on; the regression test replays them on both to prove the factored
    engine reproduces the same diagnosis behaviour.
    """
    info = get_benchmark(circuit_name)
    atpg = FaultTrajectoryATPG(info, CONFIG)
    atpg.engine = ENGINES[engine](info.circuit)
    result = atpg.run(seed=SEED)
    freqs = np.array(sorted(result.test_vector_hz), dtype=float)

    labels = []
    rows = []
    for component in info.faultable:
        for deviation in FAULT_DEVIATIONS:
            faulty = info.circuit.scaled_value(component,
                                               1.0 + deviation)
            response = ACAnalysis(faulty).transfer(info.output_node,
                                                   freqs)
            rows.append(np.atleast_1d(response.magnitude_db_at(freqs)))
            labels.append((component, deviation))

    diagnoses = result.diagnose_many(np.vstack(rows))
    cases = []
    for (component, deviation), diagnosis in zip(labels, diagnoses):
        margin = diagnosis.margin
        cases.append({
            "injected_component": component,
            "injected_deviation": deviation,
            "predicted_component": diagnosis.component,
            "estimated_deviation": diagnosis.estimated_deviation,
            "distance": diagnosis.distance,
            "margin": margin if np.isfinite(margin) else None,
            "perpendicular": diagnosis.perpendicular,
        })
    return {
        "circuit": circuit_name,
        "seed": SEED,
        "fault_deviations": list(FAULT_DEVIATIONS),
        "test_vector_hz": freqs.tolist(),
        "cases": cases,
    }


def main() -> int:
    for circuit_name in CIRCUITS:
        record = generate_golden(circuit_name)
        path = GOLDEN_DIR / f"{circuit_name}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
        correct = sum(case["predicted_component"] ==
                      case["injected_component"]
                      for case in record["cases"])
        print(f"wrote {path} ({correct}/{len(record['cases'])} "
              f"cases diagnose their injected component)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
