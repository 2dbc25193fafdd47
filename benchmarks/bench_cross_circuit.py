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

# The deterministic pins of the shape check, per circuit, on the +/-25 %
# held-out cases at SEED: the diagnosed component of every case whose
# margin (runner-up distance minus winner distance) is at least
# NEAR_TIE_MARGIN, keyed by (true component, deviation); and the cases
# that are near ties, whose verdict rounding noise may flip. The khn
# R5 +25 % case, for one, is a tie between R4 and R5 (margin 4e-7 on the
# batched engine, 7e-5 the other way on the factored one); a pin on the
# class-level accuracy counted it and moved from 12/18 to 13/18 with the
# test vector unchanged.
NEAR_TIE_MARGIN = 1e-3
EXPECTED_DIAGNOSES = {
    "sallen_key": {("C1", -0.25): "C1", ("C1", 0.25): "C1",
                   ("C2", -0.25): "C2", ("C2", 0.25): "C2"},
    "khn_state_variable": {("R1", -0.25): "R1", ("R1", 0.25): "R1",
                           ("R2", -0.25): "R2", ("R2", 0.25): "R2"},
    "mfb_bandpass": {(name, deviation): name
                     for name in ("R1", "R2", "R3", "C1", "C2")
                     for deviation in (-0.25, 0.25)},
    "twin_t_notch": {},
}
NEAR_TIES = {
    "sallen_key": {(name, deviation) for name in ("R1", "R2")
                   for deviation in (-0.25, 0.25)},
    "khn_state_variable": {(name, deviation) for name in
                           ("R3", "R4", "R5", "R6", "R7", "C1", "C2")
                           for deviation in (-0.25, 0.25)},
    "mfb_bandpass": set(),
    "twin_t_notch": {(name, deviation) for name in
                     ("R1", "R2", "R3", "C1", "C2", "C3")
                     for deviation in (-0.25, 0.25)},
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
                {(r.case.true_component, r.case.true_deviation):
                 (r.diagnosis.component, r.diagnosis.margin)
                 for r in evaluation.results},
            ])
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    headers = ["circuit", "targets", "test vector [Hz]", "conflicts",
               "comp acc", "group acc", "isolability classes"]
    formatted = [[r[0], r[1], r[2], r[3], f"{r[4] * 100:.1f}%",
                  f"{r[5] * 100:.1f}%", r[6]] for r in rows]
    write_csv(out_dir / "txcut.csv", headers, [r[:7] for r in rows])
    lines = ["T-XCUT: cross-circuit generality (held-out +/-25%)", "",
             table(headers, formatted), ""]

    # --- Shape checks -------------------------------------------------
    for row in rows:
        name, verdicts = row[0], row[7]
        assert row[5] >= row[4], \
            f"{name}: class-level accuracy below component accuracy"
        assert set(verdicts) == set(EXPECTED_DIAGNOSES[name]) | \
            NEAR_TIES[name], f"{name}: held-out cases changed"
        for case, (component, margin) in sorted(verdicts.items()):
            if case in NEAR_TIES[name]:
                assert margin < NEAR_TIE_MARGIN, \
                    f"{name} {case}: listed as a near tie, margin {margin}"
            else:
                assert margin >= NEAR_TIE_MARGIN, \
                    f"{name} {case}: margin {margin} is a near tie"
                assert component == EXPECTED_DIAGNOSES[name][case], \
                    f"{name} {case}: diagnosed {component}, pinned " \
                    f"{EXPECTED_DIAGNOSES[name][case]}"
    for name in ("sallen_key", "mfb_bandpass"):
        assert next(row[5] for row in rows if row[0] == name) == 1.0, \
            f"{name}: class-level accuracy below 1"
    lines.append("shape check PASSED: class-level accuracy >= component "
                 "accuracy (perfect on sallen_key and mfb_bandpass), and "
                 "every case off a near tie diagnoses its pinned "
                 "component")
    write_report(out_dir, "txcut_report.txt", "\n".join(lines))