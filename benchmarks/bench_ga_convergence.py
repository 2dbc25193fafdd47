"""T-GA -- GA convergence under the paper's exact settings.

128 individuals, 15 generations, 50 % reproduction, 40 % mutation,
roulette-wheel selection, fitness 1/(1+I). Expected shape:
best fitness is non-decreasing (elitism) and reaches the 1.0 plateau
(I = 0) within the 15-generation budget on the biquad CUT.

The benchmark times one full GA run.
"""

from __future__ import annotations

import numpy as np

from repro.ga import FrequencySpace, GAConfig, GeneticAlgorithm, \
    PaperFitness
from repro.viz import ga_history_csv, table

from _helpers import SEED, write_report


def bench_tga_paper_run(benchmark, cut, cut_surface, out_dir):
    space = FrequencySpace(cut.f_min_hz, cut.f_max_hz, 2)

    def run():
        fitness = PaperFitness(cut_surface)
        engine = GeneticAlgorithm(space, fitness, GAConfig.paper())
        return engine.run(seed=SEED)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    ga_history_csv(out_dir / "tga_history.csv", result)

    rows = [[s.generation, s.best_fitness, s.mean_fitness,
             s.std_fitness] for s in result.history]
    history = table(["gen", "best", "mean", "std"], rows,
                    float_format="{:.4f}")
    lines = [
        "T-GA: paper GA configuration (128 x 15, roulette, "
        "fitness 1/(1+I))", "", history, "",
        result.summary(),
    ]

    # --- Shape checks -------------------------------------------------
    best = result.best_fitness_curve()
    assert np.all(np.diff(best) >= -1e-12), "elitism: monotone best"
    assert result.best_fitness >= 1.0, \
        "paper budget suffices to reach I = 0 on the biquad"
    lines.append("shape check PASSED: monotone convergence to the "
                 "intersection-free plateau within 15 generations")
    write_report(out_dir, "tga_report.txt", "\n".join(lines))


def bench_tga_multiseed_reliability(benchmark, cut, cut_surface,
                                    out_dir):
    """How often does the paper budget reach I=0? (5 seeds)"""
    space = FrequencySpace(cut.f_min_hz, cut.f_max_hz, 2)

    def run_many():
        hits = []
        for seed in range(5):
            fitness = PaperFitness(cut_surface)
            result = GeneticAlgorithm(space, fitness,
                                      GAConfig.paper()).run(seed=seed)
            hits.append(result.best_fitness >= 1.0)
        return hits

    hits = benchmark.pedantic(run_many, rounds=1, iterations=1)
    rate = float(np.mean(hits))
    text = (f"T-GA reliability: {sum(hits)}/5 seeds reached fitness 1.0 "
            f"({rate * 100:.0f}%)")
    assert rate >= 0.8, "paper budget should almost always converge"
    write_report(out_dir, "tga_reliability.txt", text)