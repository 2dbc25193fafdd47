"""T-ABL -- ablation of the design choices this reproduction adds.

Dimensions ablated (3 seeds each, reduced GA budget, accuracy accounted
at the CUT's structural classes {R1} {R2} {C1} {R3,R5} {R4,C2}; README
"Isolability classes" derives {R3,R5} and {R4,C2}):

* **fitness** -- paper 1/(1+I) vs margin vs combined. The paper fitness
  plateaus at 1.0 once trajectories are conflict-free, so it cannot
  prefer a *robust* conflict-free vector.
* **fault-target set** -- full 7-component universe vs one
  representative per structural class (the degenerate pairs R3/R5 and
  R4/C2 otherwise pin the margin at ~0 and starve the search signal).
* **selection** -- roulette (paper) vs tournament vs rank.
* **signature scale** -- dB vs linear magnitude mapping.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.ga import (
    CombinedFitness,
    FrequencySpace,
    GAConfig,
    GeneticAlgorithm,
    MarginFitness,
    PaperFitness,
)
from repro.trajectory import SignatureMapper
from repro.viz import table, write_csv

from _helpers import score_test_vector, write_report

NOISE_DB = 0.02
SEEDS = (0, 1, 2)
GA_BUDGET = GAConfig(population_size=64, generations=10)

STRUCTURAL_GROUPS = (frozenset({"R1"}), frozenset({"R2"}),
                     frozenset({"C1"}), frozenset({"R3", "R5"}),
                     frozenset({"R4", "C2"}))
CLASS_REPRESENTATIVES = ("R1", "R2", "C1", "R3", "R4")


def _make_fitness(kind, surface, components, scale="db"):
    mapper = SignatureMapper((1.0, 2.0), scale=scale)
    margin_scale = 0.1 if components else 0.01
    if kind == "paper":
        return PaperFitness(surface, mapper, components=components)
    if kind == "margin":
        return MarginFitness(surface, mapper, components=components,
                             margin_scale=margin_scale)
    return CombinedFitness(surface, mapper, components=components,
                           margin_scale=margin_scale)


def _run_variant(cut, cut_universe, cut_surface, kind,
                 selection="roulette", components=None, scale="db",
                 noise_db=NOISE_DB):
    """Mean (noisy class accuracy, margin) over the ablation seeds."""
    space = FrequencySpace(cut.f_min_hz, cut.f_max_hz, 2)
    config = dataclasses.replace(GA_BUDGET, selection=selection)
    class_accuracy = []
    margins = []
    for seed in SEEDS:
        fitness = _make_fitness(kind, cut_surface, components, scale)
        result = GeneticAlgorithm(space, fitness, config).run(seed=seed)
        evaluation = score_test_vector(
            cut, cut_universe, result.best_freqs_hz, noise_db=noise_db,
            repeats=3 if noise_db > 0 else 1, seed=seed, scale=scale,
            groups=STRUCTURAL_GROUPS)
        class_accuracy.append(evaluation.group_accuracy)
        margins.append(
            fitness.metrics_for(result.best_freqs_hz).min_separation)
    return float(np.mean(class_accuracy)), float(np.mean(margins))


def bench_tabl_fitness_and_targets(benchmark, cut, cut_universe,
                                   cut_surface, out_dir):
    variants = [
        ("paper", None),
        ("margin", None),
        ("combined", None),
        ("paper", CLASS_REPRESENTATIVES),
        ("margin", CLASS_REPRESENTATIVES),
        ("combined", CLASS_REPRESENTATIVES),
    ]

    def run_all():
        rows = []
        for kind, components in variants:
            accuracy, margin = _run_variant(cut, cut_universe,
                                            cut_surface, kind,
                                            components=components)
            target = "class reps" if components else "full universe"
            rows.append([kind, target, accuracy, margin])
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    headers = ["fitness", "targets", "noisy class acc",
               "search margin [dB]"]
    formatted = [[r[0], r[1], f"{r[2] * 100:.1f}%", f"{r[3]:.4f}"]
                 for r in rows]
    write_csv(out_dir / "tabl_fitness.csv", headers, rows)
    lines = [
        f"T-ABL: fitness / fault-target ablation (3 seeds each, "
        f"{GA_BUDGET.population_size}x{GA_BUDGET.generations} GA, "
        f"noise {NOISE_DB} dB, structural-class accuracy)", "",
        table(headers, formatted), "",
    ]

    # --- Shape checks -------------------------------------------------
    score_of = {(r[0], r[1]): r[2] for r in rows}
    margin_of = {(r[0], r[1]): r[3] for r in rows}
    best_full = max(score_of[(k, "full universe")]
                    for k in ("paper", "margin", "combined"))
    best_reps = max(score_of[(k, "class reps")]
                    for k in ("margin", "combined"))
    assert best_reps >= best_full - 1e-9, \
        "class-aware search must not lose to the degeneracy-starved one"
    assert margin_of[("margin", "class reps")] > \
        margin_of[("paper", "full universe")], \
        "margin fitness over representatives must open a real margin"
    lines.append(
        "shape check PASSED: optimising over class representatives "
        "opens real margins; the paper fitness's plateau leaves them "
        "on the table")
    write_report(out_dir, "tabl_report.txt", "\n".join(lines))


def bench_tabl_selection(benchmark, cut, cut_universe, cut_surface,
                         out_dir):
    """Selection-operator ablation, paper fitness (cheap fast path)."""

    def run_all():
        rows = []
        for selection in ("roulette", "tournament", "rank"):
            accuracy, margin = _run_variant(cut, cut_universe,
                                            cut_surface, "paper",
                                            selection=selection)
            rows.append([selection, accuracy, margin])
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    headers = ["selection", "noisy class acc", "search margin [dB]"]
    formatted = [[r[0], f"{r[1] * 100:.1f}%", f"{r[2]:.4f}"]
                 for r in rows]
    write_csv(out_dir / "tabl_selection.csv", headers, rows)
    text = "\n".join([
        "T-ABL: selection-operator ablation (paper fitness)", "",
        table(headers, formatted), "",
        "note: with the plateaued paper fitness the selection operator "
        "barely matters -- every conflict-free vector looks identical "
        "to the search.",
    ])
    write_report(out_dir, "tabl_selection_report.txt", text)


def bench_tabl_signature_scale(benchmark, cut, cut_universe, cut_surface,
                               out_dir):
    """dB vs linear signature mapping, combined fitness over class
    representatives, clean evaluation (noise semantics differ between
    the scales, so noisy numbers would not be comparable)."""

    def run_both():
        rows = []
        for scale in ("db", "linear"):
            accuracy, margin = _run_variant(
                cut, cut_universe, cut_surface, "combined",
                components=CLASS_REPRESENTATIVES, scale=scale,
                noise_db=0.0)
            rows.append([scale, accuracy, margin])
        return rows

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    headers = ["signature scale", "clean class acc", "search margin"]
    formatted = [[r[0], f"{r[1] * 100:.1f}%", f"{r[2]:.4f}"]
                 for r in rows]
    write_csv(out_dir / "tabl_scale.csv", headers, rows)
    text = "\n".join([
        "T-ABL: signature scale ablation (combined fitness, class "
        "representatives)", "",
        table(headers, formatted),
    ])
    for row in rows:
        assert row[1] > 0.9, f"{row[0]} scale collapsed"
    write_report(out_dir, "tabl_scale_report.txt", text)