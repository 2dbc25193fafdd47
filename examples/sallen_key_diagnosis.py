#!/usr/bin/env python3
"""Diagnosing a Sallen-Key low-pass, with an isolability-class lesson.

The unity-gain Sallen-Key has a structural degeneracy of its own: R1 and
R2 appear symmetrically in w0 and Q, so an R1 fault and an R2 fault of
the same size give the same output magnitude at every frequency. This
example shows how the library surfaces that as an isolability class
(`result.groups`, derived from the fault dictionary) instead of silently
guessing, and how the diagnosis margin flags low-confidence verdicts.

Run:  python examples/sallen_key_diagnosis.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    FaultTrajectoryATPG,
    PipelineConfig,
    sallen_key_lowpass,
)
from repro.sim import ACAnalysis


def main() -> None:
    info = sallen_key_lowpass(f0_hz=1e3)
    pipeline = FaultTrajectoryATPG(info, PipelineConfig.quick())
    result = pipeline.run(seed=7)
    print(result.report())
    print()

    # The pipeline reports which components no test vector can tell
    # apart.
    for group in result.groups:
        members = ", ".join(sorted(group))
        kind = "ambiguous" if len(group) > 1 else "separable"
        print(f"  [{kind}] {{{members}}}")
    print()

    # Diagnose each component at an off-grid deviation and inspect the
    # margin: verdicts inside an isolability class come back with a thin
    # margin and diagnosis.ambiguous set.
    freqs = np.array(sorted(result.test_vector_hz))
    for component in info.faultable:
        faulty = info.circuit.scaled_value(component, 1.0 - 0.25)
        response = ACAnalysis(faulty).transfer(info.output_node, freqs)
        diagnosis = result.diagnose_response(response)
        flag = "AMBIGUOUS" if diagnosis.ambiguous else "confident"
        print(f"injected {component} -25%  ->  {diagnosis.component} "
              f"{diagnosis.estimated_deviation * 100.0:+.1f}%  "
              f"margin={diagnosis.margin:.4f}  [{flag}]")

    # Class-level evaluation is the honest score for this topology.
    evaluation = result.evaluate(deviations=(-0.25, 0.25))
    print()
    print(f"component accuracy: {evaluation.accuracy * 100.0:.1f}%")
    print(f"group accuracy:     "
          f"{evaluation.group_accuracy * 100.0:.1f}%")
    assert evaluation.group_accuracy == 1.0


if __name__ == "__main__":
    main()
