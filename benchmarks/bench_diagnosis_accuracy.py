"""T-ACC -- diagnosis accuracy: GA test vector vs the baselines.

Compares, on held-out deviations (+/-15/25/35 %, clean and with 0.02 dB
measurement noise):

* **GA (paper fitness)** -- the paper's flow verbatim: 1/(1+I) fitness,
  roulette GA, perpendicular nearest-segment classifier;
* **GA (combined fitness)** -- the margin-aware extension
  (:class:`~repro.ga.CombinedFitness`: the paper term plus a bounded
  margin bonus);
* **dictionary-NN** -- classical fault-dictionary nearest-point matching
  on the *same* test vector (no trajectory interpolation);
* **random vectors** -- no optimisation, averaged over 3 draws;
* **sensitivity-ranked** -- deterministic frequency picking (no GA);
* **exhaustive grid** -- brute-force fitness scan (the "frequency sweep"
  approach the paper calls unfeasible), with its evaluation count.

Accuracy is accounted at the CUT's *structural class* level: on the
Tow-Thomas biquad R3/R5 enter the ideal transfer function only through
R3*(R5/R6) and R4/C2 only through the product R4*C2, so magnitude
signatures cannot split those pairs -- {R3,R5} and {R4,C2} are the
finest honest diagnosis unit (README "Isolability classes"). Raw
component accuracy is reported alongside.

Expected shapes: every vector separates the 5 structural classes on
clean data; the margin-aware GA stays robust under noise where the
paper fitness's 1.0-plateau lets fragile vectors through (the T-ABL
ablation quantifies the fix); the trajectory classifier beats NN on
deviation estimation (NN snaps to the +/-10 % grid).
"""

from __future__ import annotations

import numpy as np

from repro.diagnosis import NearestNeighborClassifier, exhaustive_search, \
    random_test_vectors
from repro.faults import FaultDictionary
from repro.ga import CombinedFitness, FrequencySpace, GAConfig, \
    GeneticAlgorithm, PaperFitness
from repro.sim import rank_frequencies, sensitivity_analysis
from repro.trajectory import SignatureMapper
from repro.units import log_frequency_grid
from repro.viz import table, write_csv

from _helpers import HELD_OUT, SEED, build_exact_classifier, \
    score_test_vector, write_report

NOISE_DB = 0.02

# Structural ambiguity classes of the biquad CUT (exact for ideal
# op-amps, near-exact for the uA741-class macromodels in the passband).
STRUCTURAL_GROUPS = (frozenset({"R1"}), frozenset({"R2"}),
                     frozenset({"C1"}), frozenset({"R3", "R5"}),
                     frozenset({"R4", "C2"}))

# One representative component per structural class: the class-aware GA
# optimises the separation of what is physically separable instead of
# chasing the unreachable R3/R5 and R4/C2 splits.
CLASS_REPRESENTATIVES = ("R1", "R2", "C1", "R3", "R4")


def bench_tacc_comparison(benchmark, cut, cut_universe, cut_surface,
                          paper_pipeline_result, out_dir):
    space = FrequencySpace(cut.f_min_hz, cut.f_max_hz, 2)

    def evaluate_all():
        rows = []

        def add_row(method, freqs, evaluations, classifier=None,
                    mapper=None):
            clean = score_test_vector(cut, cut_universe, freqs,
                                      classifier=classifier,
                                      mapper=mapper,
                                      groups=STRUCTURAL_GROUPS)
            noisy = score_test_vector(cut, cut_universe, freqs,
                                      noise_db=NOISE_DB, repeats=3,
                                      seed=SEED, classifier=classifier,
                                      mapper=mapper,
                                      groups=STRUCTURAL_GROUPS)
            rows.append([
                method,
                f"{freqs[0]:.0f}/{freqs[1]:.0f}",
                evaluations,
                clean.accuracy, clean.group_accuracy,
                noisy.accuracy, noisy.group_accuracy,
                clean.deviation_mae(),
            ])

        # 1. The paper's GA flow, verbatim.
        ga_freqs = paper_pipeline_result.test_vector_hz
        add_row("GA paper fitness", ga_freqs,
                paper_pipeline_result.ga_result.evaluations)

        # 2. Class-aware margin GA (extension): combined fitness over
        # one representative per structural class.
        combined = CombinedFitness(cut_surface,
                                   components=CLASS_REPRESENTATIVES,
                                   margin_scale=0.1)
        robust = GeneticAlgorithm(space, combined,
                                  GAConfig.paper()).run(seed=SEED)
        add_row("GA class-aware margin", robust.best_freqs_hz,
                robust.evaluations)

        # 3. Dictionary-NN on the robust test vector.
        mapper = SignatureMapper(robust.best_freqs_hz)
        exact = FaultDictionary.build(
            cut_universe, cut.output_node,
            np.array(sorted(robust.best_freqs_hz)),
            input_source=cut.input_source)
        nn = NearestNeighborClassifier(exact, mapper)
        add_row("dictionary-NN", robust.best_freqs_hz,
                robust.evaluations, classifier=nn, mapper=mapper)

        # 4. Random test vectors (mean over 3 draws).
        random_rows = []
        for index, freqs in enumerate(random_test_vectors(space, 3,
                                                          seed=SEED)):
            clean = score_test_vector(cut, cut_universe, freqs,
                                      groups=STRUCTURAL_GROUPS)
            noisy = score_test_vector(cut, cut_universe, freqs,
                                      noise_db=NOISE_DB, repeats=3,
                                      seed=SEED + index,
                                      groups=STRUCTURAL_GROUPS)
            random_rows.append([clean.accuracy, clean.group_accuracy,
                                noisy.accuracy, noisy.group_accuracy,
                                clean.deviation_mae()])
        mean = np.mean(np.array(random_rows), axis=0)
        rows.append(["random (mean of 3)", "-", 0, mean[0], mean[1],
                     mean[2], mean[3], mean[4]])

        # 5. Sensitivity-ranked frequencies (deterministic, no GA).
        grid = log_frequency_grid(cut.f_min_hz, cut.f_max_hz, 61)
        sens = sensitivity_analysis(cut.circuit, cut.output_node, grid,
                                    components=cut.faultable)
        sens_freqs = rank_frequencies(sens, count=2)
        add_row("sensitivity-ranked", sens_freqs, 61)

        # 6. Exhaustive grid scan of the paper fitness.
        fitness = PaperFitness(cut_surface)
        best_freqs, best_fitness, evaluations = exhaustive_search(
            space, fitness, points_per_decade=6)
        add_row(f"exhaustive (fitness {best_fitness:.2f})", best_freqs,
                evaluations)
        return rows

    rows = benchmark.pedantic(evaluate_all, rounds=1, iterations=1)
    headers = ["method", "f1/f2 [Hz]", "evals", "clean comp",
               "clean class", "noisy comp", "noisy class", "dev MAE"]
    formatted = []
    for row in rows:
        formatted.append(
            [row[0], row[1], row[2]] +
            [f"{value * 100:.1f}%" for value in row[3:7]] +
            [f"{row[7] * 100:.2f}pp"])
    report = table(headers, formatted)
    write_csv(out_dir / "tacc_accuracy.csv", headers, rows)

    lines = ["T-ACC: diagnosis accuracy on held-out deviations "
             f"({', '.join(f'{d * 100:+.0f}%' for d in HELD_OUT)}), "
             f"noise {NOISE_DB} dB, structural classes "
             "{R1} {R2} {C1} {R3,R5} {R4,C2}", "", report, ""]

    # --- Shape checks -------------------------------------------------
    by_method = {row[0].split(" (")[0]: row for row in rows}
    paper_ga = by_method["GA paper fitness"]
    robust_ga = by_method["GA class-aware margin"]
    nn = by_method["dictionary-NN"]
    rnd = by_method["random"]
    exhaustive = by_method["exhaustive"]
    # The paper's GA reaches I = 0 (the exhaustive scan confirms the
    # plateau exists) -- but 1/(1+I) is blind to margins, so its vector
    # may be fragile; that finding is quantified by the rows below and
    # ablated in T-ABL.
    assert float(exhaustive[0].split("fitness ")[1].rstrip(")")) >= 1.0
    assert paper_pipeline_result.ga_result.best_fitness >= 1.0
    # The class-aware margin GA separates all 5 structural classes on
    # clean data and stays at least as robust as random under noise.
    assert robust_ga[4] == 1.0
    assert robust_ga[6] >= rnd[6] - 1e-9
    assert robust_ga[6] >= paper_ga[6], \
        "margin awareness must not lose to the plateau fitness"
    # Trajectory interpolation estimates off-grid deviations; NN snaps
    # to the +/-10% grid, so its MAE is bounded below by ~5pp.
    assert robust_ga[7] < 0.02, "trajectory deviation MAE within 2pp"
    assert nn[7] >= 0.04, "NN cannot interpolate off-grid deviations"
    lines.append(
        "shape check PASSED: class-aware margin GA separates all "
        "structural classes cleanly and dominates under noise; the "
        "paper fitness reaches I=0 but its plateau admits fragile "
        "vectors (see T-ABL); trajectory beats dictionary-NN on "
        "deviation estimation")
    write_report(out_dir, "tacc_report.txt", "\n".join(lines))