"""T-XCUT -- method generality across circuits.

Runs the full pipeline (reduced GA budget) on four further benchmark
filters and reports test vector, conflicts, isolability classes and
held-out accuracy. Expected shape: class-level accuracy is never below
component accuracy and is perfect on the Sallen-Key and MFB filters;
the *composition* of the classes is circuit physics (e.g. R1/R2 of the
unity-gain Sallen-Key swap roles in w0).
"""

from __future__ import annotations

import dataclasses

from repro import FaultTrajectoryATPG, PipelineConfig
from repro.circuits import (
    khn_state_variable,
    mfb_bandpass,
    sallen_key_lowpass,
    twin_t_notch,
)
from repro.ga import GAConfig
from repro.viz import table, write_csv

from _helpers import SEED, write_report

CIRCUITS = (
    ("sallen_key", sallen_key_lowpass),
    ("khn_state_variable", khn_state_variable),
    ("mfb_bandpass", mfb_bandpass),
    ("twin_t_notch", twin_t_notch),
)

# Class-level accuracy at SEED on the +/-25 % held-out cases: the
# deterministic pins of the shape check. The khn pin went from 12/18 to
# 13/18 when the pipeline moved onto the factored engine: the same test
# vector, but its R5 +25 % case, a near-tie between R4 and R5 (margin
# 4e-7 on the batched engine), now names R5.
EXPECTED_GROUP_ACCURACY = {
    "sallen_key": 1.0,
    "khn_state_variable": 13 / 18,
    "mfb_bandpass": 1.0,
    "twin_t_notch": 11 / 12,
}

CONFIG = dataclasses.replace(
    PipelineConfig.quick(),
    ga=GAConfig(population_size=64, generations=8))


def bench_txcut_generality(benchmark, out_dir):
    def run_all():
        rows = []
        for name, factory in CIRCUITS:
            info = factory()
            result = FaultTrajectoryATPG(info, CONFIG).run(seed=SEED)
            evaluation = result.evaluate(deviations=(-0.25, 0.25))
            groups = "; ".join(
                "{" + ",".join(sorted(g)) + "}"
                for g in result.groups if len(g) > 1) or "none"
            rows.append([
                name,
                len(info.faultable),
                "/".join(f"{f:.0f}" for f in result.test_vector_hz),
                result.metrics.total_conflicts,
                evaluation.accuracy,
                evaluation.group_accuracy,
                groups,
            ])
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    headers = ["circuit", "targets", "test vector [Hz]", "conflicts",
               "comp acc", "group acc", "isolability classes"]
    formatted = [[r[0], r[1], r[2], r[3], f"{r[4] * 100:.1f}%",
                  f"{r[5] * 100:.1f}%", r[6]] for r in rows]
    write_csv(out_dir / "txcut.csv", headers, rows)
    lines = ["T-XCUT: cross-circuit generality (held-out +/-25%)", "",
             table(headers, formatted), ""]

    # --- Shape checks -------------------------------------------------
    for row in rows:
        assert row[5] >= row[4], \
            f"{row[0]}: class-level accuracy below component accuracy"
        assert row[5] == EXPECTED_GROUP_ACCURACY[row[0]], \
            f"{row[0]}: class-level accuracy {row[5]} moved from " \
            f"{EXPECTED_GROUP_ACCURACY[row[0]]}"
    lines.append("shape check PASSED: class-level accuracy >= component "
                 "accuracy and at its pinned value on all four circuits")
    write_report(out_dir, "txcut_report.txt", "\n".join(lines))