"""T-ENGINE -- stamp-once/solve-many simulation engine performance.

Measures the two hot paths the ``repro.sim.engine`` layer accelerates
and writes a machine-readable ``BENCH_engine.json``:

* **dictionary build, scalar vs batched** -- ``FaultDictionary.build``
  through :class:`ScalarMnaEngine` (one circuit assembly + sweep per
  fault, the historical path) against :class:`BatchedMnaEngine`
  (delta-stamped variants, chunked batched solves), in two regimes:

  - *dense*: the 401-point dictionary grid. Here LAPACK factorisation
    time dominates and is identical on both paths (same per-matrix
    solves, bitwise-equal results), so the speedup is modest;
  - *test_vector*: the exact dictionary at a 2-frequency test vector --
    the per-run pipeline stage and the serving-shaped workload. Here
    per-fault assembly overhead dominates the scalar path and
    stamp-once wins big.

* **GA generation evaluation, per-individual vs population** --
  ``fitness(vector)`` in a Python loop against
  ``fitness.score_population`` (one shared response-surface sampling
  pass + memo-deduplicated scoring) on identical fresh-cache
  populations, plus the conflict kernel alone
  (``conflict_counts_batch``) on the same population's segments, so
  its share of a generation's scoring is on record, with the (segment
  pair, candidate) cases its sector test evaluated out of all cases
  (``conflict_evaluated`` / ``conflict_cases``, read from its
  ``trajectory.conflicts`` span).

Both dictionary-build regimes additionally time
:class:`FactoredMnaEngine` (factor-once Sherman-Morrison-Woodbury
low-rank updates), and a **size sweep** over uniform RC ladders with a
fixed fault set maps where the low-rank path overtakes the dense one
as the MNA dimension grows.

* **posterior block** -- one 16-world Monte-Carlo block at the corpus
  baseline's tolerance, built like the posterior build's by
  :meth:`~repro.sim.engine.VariantTable.of_worlds` (a row per (world,
  hypothesis), each world's fault-free row the base of its fault
  rows), through the scalar, batched and factored engines; the
  factored engine also without the recorded bases.

The factored runs of both regimes and of the posterior block also
record their stage split (``factored_stages``): the assemble, factor
and update seconds and the stacked update passes of the fastest run's
``engine.solve`` spans.

Every comparison asserts result equality (bitwise for batched, scaled
tolerance for factored) before timing is trusted.

Run standalone (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick] [--out F]

``--quick`` shrinks every workload for the CI smoke job; ``--check``
additionally validates the emitted JSON structure and exits non-zero on
a malformed report, so the harness cannot rot silently.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import (
    BatchedMnaEngine,
    CorpusSpec,
    FactoredMnaEngine,
    parametric_universe,
    tow_thomas_biquad,
)
from repro.circuits.library import rc_ladder
from repro.faults import FaultDictionary, ResponseSurface
from repro.ga import PaperFitness
from repro.ga.encoding import FrequencySpace
from repro.sim import VariantTable
from repro.sim.engine import ScalarMnaEngine
from repro.tracing import TRACER
from repro.trajectory.metrics import conflict_counts_batch
from repro.units import log_frequency_grid

from _helpers import check_environment, environment_info

SEED = 2005

REQUIRED_KEYS = {
    "dictionary_build": ("dense", "test_vector"),
    "ga_evaluation": ("per_individual_s", "population_s", "speedup",
                      "conflict_s", "conflict_share", "conflict_cases",
                      "conflict_evaluated"),
    "size_sweep": ("points", "fault_components", "cases"),
    "posterior_block": ("worlds", "rows", "columns", "points",
                        "scalar_s", "batched_s", "factored_s",
                        "factored_without_bases_s", "lowrank_fallbacks",
                        "factored_stages"),
    "telemetry_overhead": ("instrumented_s", "bare_s",
                           "overhead_fraction"),
}

#: Factored-vs-scalar agreement bound (scaled; see the engine docs --
#: the low-rank path is a different floating-point computation).
FACTORED_RTOL = 1e-9

#: Ceiling on the relative cost of the always-on trace spans over
#: a dictionary build (the serving acceptance bar).
MAX_TELEMETRY_OVERHEAD = 0.02


def _best_of(repeats, func):
    """Minimum wall time over ``repeats`` runs (noise-robust)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - started)
    return best, result


#: The factored engine's ``engine.solve`` stage attributes, as recorded.
STAGES = {"assemble_s": "assemble_seconds", "factor_s": "factor_seconds",
          "update_s": "update_seconds", "update_passes": "update_passes"}


def _best_with_stages(repeats, func):
    """:func:`_best_of` plus the factored engine's stage split of the
    fastest run: assemble/factor/update seconds and update passes,
    summed over its ``engine.solve`` spans."""
    best, result, stages = float("inf"), None, None
    for _ in range(repeats):
        spans = []
        sink = TRACER.add_sink(spans.append)
        try:
            started = time.perf_counter()
            value = func()
            elapsed = time.perf_counter() - started
        finally:
            TRACER.remove_sink(sink)
        if elapsed < best:
            solves = [span.attrs for span in spans
                      if span.name == "engine.solve"
                      and span.attrs["engine"] == "factored"]
            best, result = elapsed, value
            stages = {key: sum(attrs[name] for attrs in solves)
                      for key, name in STAGES.items()}
    return best, result, stages


def _assert_identical(built, reference):
    assert built.labels == reference.labels
    assert np.array_equal(built.golden.values, reference.golden.values)
    for a, b in zip(built.entries, reference.entries):
        assert np.array_equal(a.response.values, b.response.values)


def _assert_close(values, reference, context=""):
    """Scaled-tolerance agreement (the factored-engine contract)."""
    scale = max(float(np.max(np.abs(reference))), 1e-30)
    if not np.allclose(values, reference, rtol=FACTORED_RTOL,
                       atol=FACTORED_RTOL * scale):
        worst = float(np.max(np.abs(values - reference))) / scale
        raise AssertionError(
            f"factored path drifted {worst:.2e} (scaled) past "
            f"{FACTORED_RTOL:.0e} {context}")


def _assert_dictionary_close(built, reference):
    assert built.labels == reference.labels
    _assert_close(built.golden.values, reference.golden.values,
                  "on the golden response")
    for a, b in zip(built.entries, reference.entries):
        _assert_close(a.response.values, b.response.values,
                      f"on {a.response.label}")


def bench_dictionary_build(info, universe, grid, repeats):
    """Scalar vs batched vs factored build on one grid.

    Batched is asserted bitwise-equal to scalar; factored is asserted
    within the scaled ``FACTORED_RTOL`` band before its timing is
    trusted.
    """
    scalar_s, scalar = _best_of(repeats, lambda: FaultDictionary.build(
        universe, info.output_node, grid,
        input_source=info.input_source,
        engine=ScalarMnaEngine(info.circuit)))
    batched_s, batched = _best_of(repeats, lambda: FaultDictionary.build(
        universe, info.output_node, grid,
        input_source=info.input_source,
        engine=BatchedMnaEngine(info.circuit)))
    factored_s, factored, stages = _best_with_stages(
        repeats, lambda: FaultDictionary.build(
            universe, info.output_node, grid,
            input_source=info.input_source,
            engine=FactoredMnaEngine(info.circuit)))
    # Warm: the pipeline stamps once and reuses the engine across the
    # dense grid, the exact grid and held-out case generation.
    engine = BatchedMnaEngine(info.circuit)
    warm_s, _ = _best_of(repeats, lambda: FaultDictionary.build(
        universe, info.output_node, grid,
        input_source=info.input_source, engine=engine))
    factored_engine = FactoredMnaEngine(info.circuit)
    factored_warm_s, _ = _best_of(
        repeats, lambda: FaultDictionary.build(
            universe, info.output_node, grid,
            input_source=info.input_source, engine=factored_engine))
    _assert_identical(batched, scalar)
    _assert_dictionary_close(factored, scalar)
    return {
        "points": int(np.asarray(grid).size),
        "n_variants": len(universe) + 1,
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "batched_warm_s": warm_s,
        "factored_s": factored_s,
        "factored_warm_s": factored_warm_s,
        "speedup": scalar_s / batched_s,
        "speedup_warm": scalar_s / warm_s,
        "speedup_factored": scalar_s / factored_s,
        "factored_vs_batched": batched_s / factored_s,
        "lowrank_fallbacks": sum(
            factored_engine.lowrank_fallbacks.values()),
        "factored_stages": stages,
    }


def bench_ga_evaluation(info, universe, grid, population_size, repeats):
    """Per-individual loop vs score_population on fresh caches, and
    the conflict kernel alone on the population's segment batch."""
    dictionary = FaultDictionary.build(
        universe, info.output_node, grid,
        input_source=info.input_source)
    space = FrequencySpace(info.f_min_hz, info.f_max_hz, 2)
    rng = np.random.default_rng(SEED)
    population = space.random_population(rng, population_size)
    decoded = [space.decode(genome) for genome in population]

    def per_individual():
        fitness = PaperFitness(ResponseSurface(dictionary))
        return np.array([fitness(freqs) for freqs in decoded])

    def population_level():
        fitness = PaperFitness(ResponseSurface(dictionary))
        return fitness.score_population(decoded)

    fitness = PaperFitness(ResponseSurface(dictionary))
    segments = [fitness.trajectories_for(freqs).all_segments()
                for freqs in decoded]
    starts = np.stack([start for start, _, _ in segments])
    ends = np.stack([end for _, end, _ in segments])
    owners = segments[0][2]

    individual_s, individual_scores = _best_of(repeats, per_individual)
    population_s, population_scores = _best_of(repeats, population_level)
    assert np.array_equal(individual_scores, population_scores)
    conflict_s, (intersections, overlaps) = _best_of(
        repeats, lambda: conflict_counts_batch(starts, ends, owners))
    # One more call, outside the timing, for the kernel's own span.
    spans = []
    sink = TRACER.add_sink(spans.append)
    try:
        conflict_counts_batch(starts, ends, owners)
    finally:
        TRACER.remove_sink(sink)
    [kernel] = [span.attrs for span in spans
                if span.name == "trajectory.conflicts"]
    for freqs, crossings, pathways in zip(decoded, intersections,
                                          overlaps):
        metrics = fitness.metrics_for(freqs, include_separations=False)
        assert (metrics.intersections, metrics.common_pathways) == \
            (crossings, pathways)
    return {
        "population": population_size,
        "per_individual_s": individual_s,
        "population_s": population_s,
        "speedup": individual_s / population_s,
        "conflict_s": conflict_s,
        "conflict_share": conflict_s / population_s,
        "conflict_cases": kernel["cases"],
        "conflict_evaluated": kernel["evaluated"],
    }


#: Fault components timed at every ladder size -- fixed so the sweep
#: isolates circuit *dimension*, not fault count.
SWEEP_FAULT_COMPONENTS = 12
SWEEP_GRID_POINTS = 31


def bench_size_sweep(sections_list, repeats):
    """Engine times vs circuit size on uniform RC ladders.

    The MNA dimension grows linearly with ``sections`` while the fault
    set stays fixed, exposing the dense-vs-low-rank crossover: per
    variant the batched path refactors the full matrix at every
    frequency (O(n^3)) where the factored path reuses the nominal
    factorisation and solves a rank-<=2 capacitance system.
    """
    cases = []
    for sections in sections_list:
        info = rc_ladder(sections=sections)
        names = list(info.circuit.passive_names)
        step = max(1, len(names) // SWEEP_FAULT_COMPONENTS)
        chosen = tuple(names[::step][:SWEEP_FAULT_COMPONENTS])
        universe = parametric_universe(info.circuit,
                                       components=chosen,
                                       deviations=(-0.2, 0.2))
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz,
                                  SWEEP_GRID_POINTS)
        variants = universe.variants()

        blocks = {}
        times = {}
        for kind in ("scalar", "batched", "factored"):
            def solve(kind=kind):
                engine = {"scalar": ScalarMnaEngine,
                          "batched": BatchedMnaEngine,
                          "factored": FactoredMnaEngine}[kind](
                              info.circuit)
                block = engine.transfer_block(
                    info.output_node, grid, variants,
                    info.input_source)
                return engine, block
            times[kind], (engine, blocks[kind]) = _best_of(repeats,
                                                           solve)
        assert np.array_equal(blocks["batched"].values,
                              blocks["scalar"].values)
        _assert_close(blocks["factored"].values,
                      blocks["scalar"].values,
                      f"on the {sections}-section ladder")
        cases.append({
            "sections": sections,
            "dim": int(engine.system.dim),
            "n_variants": len(variants),
            "sparse_factorisation": bool(engine.uses_sparse),
            "scalar_s": times["scalar"],
            "batched_s": times["batched"],
            "factored_s": times["factored"],
            "factored_vs_batched":
                times["batched"] / times["factored"],
        })
    return {
        "points": SWEEP_GRID_POINTS,
        "fault_components": SWEEP_FAULT_COMPONENTS,
        "cases": cases,
    }


#: Monte-Carlo worlds in the posterior-block regime (the corpus
#: baseline's posterior size).
POSTERIOR_WORLDS = 16


def bench_posterior_block(info, universe, repeats):
    """One 16-world, corpus-tolerance block through every engine.

    The table is built as a posterior build builds it, by
    ``VariantTable.of_worlds``: per world the fault-free circuit (the
    world's base) and every fault, each faultable component scaled by
    ``1 + eps`` with ``eps`` uniform in ``[-tolerance, tolerance]``.
    The factored engine is timed with the recorded bases and on the
    same rows without them: then every row perturbs every faultable
    component of the nominal, an update too wide to pay on this
    circuit, so the rows go to the dense path as rank fallbacks.
    Batched is asserted
    bitwise-equal to scalar, factored within the scaled tolerance,
    before the timings are trusted.
    """
    hypotheses = VariantTable.of_faults(info.circuit, universe.faults) \
        .with_columns(info.circuit,
                      [(name, "value") for name in info.faultable])
    tolerance = CorpusSpec.baseline().posterior.tolerance
    eps = np.random.default_rng(SEED).uniform(
        -tolerance, tolerance, size=(POSTERIOR_WORLDS,
                                     len(info.faultable)))
    table = VariantTable.of_worlds(hypotheses, 1.0 + eps)
    without_bases = table.take(np.arange(len(table)))
    grid = np.unique(np.concatenate([
        [500.0, 1500.0], np.geomspace(info.f_min_hz, info.f_max_hz,
                                      12)]))

    def solve(engine_type, variants=table):
        def run():
            engine = engine_type(info.circuit)
            return engine, engine.transfer_block(
                info.output_node, grid, variants, info.input_source)
        return run

    scalar_s, (_, scalar) = _best_of(
        max(1, repeats // 2), solve(ScalarMnaEngine))
    batched_s, (_, batched) = _best_of(repeats, solve(BatchedMnaEngine))
    factored_s, (factored_engine, factored), stages = _best_with_stages(
        repeats, solve(FactoredMnaEngine))
    nominal_s, (nominal_engine, nominal) = _best_of(
        repeats, solve(FactoredMnaEngine, without_bases))
    assert np.array_equal(batched.values, scalar.values)
    assert batched.labels == scalar.labels == table.labels
    _assert_close(factored.values, scalar.values, "on the world block")
    _assert_close(nominal.values, scalar.values,
                  "on the world block without bases")
    return {
        "worlds": POSTERIOR_WORLDS,
        "rows": len(table),
        "columns": len(table.columns),
        "points": int(grid.size),
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "factored_s": factored_s,
        "factored_without_bases_s": nominal_s,
        "speedup": scalar_s / batched_s,
        "factored_vs_batched": batched_s / factored_s,
        "lowrank_updates": factored_engine.lowrank_updates,
        "lowrank_fallbacks": dict(factored_engine.lowrank_fallbacks),
        "without_bases_fallbacks": dict(
            nominal_engine.lowrank_fallbacks),
        "factored_stages": stages,
    }


def bench_telemetry_overhead(info, universe, grid, pairs):
    """Dictionary build with trace spans live vs suspended.

    The default instrumentation (installed on import of the runtime
    layer) stays on for the instrumented leg; the bare leg runs under
    ``TRACER.suspended()``, where a span reads no clock and calls no
    sink. The legs run in ``pairs`` back-to-back pairs whose order
    alternates, and the overhead is the median of the per-pair time
    ratios: each instrumented build is compared with the bare build
    next to it, so machine drift between pairs and any first-run
    penalty land on both legs alike. Results are asserted identical --
    observability must not change the computation.
    """
    from repro.runtime import telemetry

    telemetry.install_default_instrumentation()

    def build():
        return FaultDictionary.build(
            universe, info.output_node, grid,
            input_source=info.input_source,
            engine=BatchedMnaEngine(info.circuit))

    def bare():
        with telemetry.TRACER.suspended():
            return build()

    legs = {"instrumented": build, "bare": bare}
    times = {leg: [] for leg in legs}
    results = {}
    for pair in range(pairs):
        order = ("instrumented", "bare") if pair % 2 == 0 \
            else ("bare", "instrumented")
        for leg in order:
            started = time.perf_counter()
            results[leg] = legs[leg]()
            times[leg].append(time.perf_counter() - started)
    _assert_identical(results["instrumented"], results["bare"])
    ratios = np.divide(times["instrumented"], times["bare"])
    return {
        "points": int(np.asarray(grid).size),
        "pairs": pairs,
        "instrumented_s": float(np.median(times["instrumented"])),
        "bare_s": float(np.median(times["bare"])),
        "overhead_fraction": float(np.median(ratios)) - 1.0,
    }


def run(quick: bool) -> dict:
    info = tow_thomas_biquad(ideal_opamps=False)
    universe = parametric_universe(info.circuit,
                                   components=info.faultable)
    dense_points = 101 if quick else 401
    repeats = 2 if quick else 5
    dense_grid = log_frequency_grid(info.f_min_hz, info.f_max_hz,
                                    dense_points)
    test_vector = np.array([500.0, 1500.0])

    report = {
        "benchmark": "T-ENGINE",
        "quick": quick,
        "environment": environment_info(),
        "circuit": info.circuit.name,
        "n_faults": len(universe),
        "dictionary_build": {
            "dense": bench_dictionary_build(info, universe, dense_grid,
                                            repeats),
            "test_vector": bench_dictionary_build(
                info, universe, test_vector,
                repeats=10 if quick else 30),
        },
        "ga_evaluation": bench_ga_evaluation(
            info, universe, dense_grid,
            population_size=32 if quick else 128,
            # A 128-genome kernel call takes ~2 ms: with best of 3 the
            # recorded kernel share read 58 % and 91 % in two full runs
            # on a 2-core host, with best of 10 59 % and 61 %.
            repeats=3 if quick else 10),
        "size_sweep": bench_size_sweep(
            (10, 30) if quick else (10, 25, 50, 100, 200),
            repeats=1 if quick else 2),
        "posterior_block": bench_posterior_block(
            info, universe, repeats=2 if quick else 6),
        # Quick builds are 4x cheaper, so quick mode affords twice the
        # full-mode pairs: with 30, host noise alone pushed the median
        # over the 2 % budget in 2 of 24 quick runs on a 2-core host.
        "telemetry_overhead": bench_telemetry_overhead(
            info, universe, dense_grid,
            pairs=80 if quick else 40),
        "notes": (
            "Scalar and batched paths are asserted bitwise-equal, the "
            "factored path within its scaled tolerance band, before "
            "the numbers are trusted. 'test_vector' is the "
            "exact-dictionary stage every pipeline run and diagnosis "
            "request executes; 'dense' is LAPACK-bound for scalar/"
            "batched, which is exactly the per-variant refactorisation "
            "the factored engine's Sherman-Morrison-Woodbury updates "
            "avoid. The size sweep fixes the fault set and grows the "
            "RC-ladder dimension to expose the dense-vs-low-rank "
            "crossover. 'posterior_block' is one posterior-build "
            "world block from VariantTable.of_worlds: the factored "
            "engine factors each world's fault-free row once and "
            "solves the world's fault rows as rank-<=2 updates from "
            "it ('factored_s'); without the recorded bases every row "
            "perturbs every faultable component of the nominal, an "
            "update too wide to pay on the dim-11 biquad, so those rows "
            "take the dense path ('factored_without_bases_s', "
            "'without_bases_fallbacks'). 'factored_stages' splits the "
            "fastest cold factored run (a fresh engine, so the table's "
            "routing is derived, not reused) into the assemble, factor "
            "and update seconds and stacked update passes of its "
            "engine.solve spans."),
    }
    report["dictionary_build_speedup"] = \
        report["dictionary_build"]["test_vector"]["speedup"]
    report["factored_vs_batched_dense"] = \
        report["dictionary_build"]["dense"]["factored_vs_batched"]
    return report


def check(report: dict) -> None:
    """Validate the report structure (the CI smoke contract)."""
    check_environment(report, "BENCH_engine.json")
    for key, fields in REQUIRED_KEYS.items():
        section = report[key]
        for field in fields:
            if field not in section:
                raise SystemExit(
                    f"BENCH_engine.json missing {key}.{field}")
    for regime in ("dense", "test_vector"):
        for field in ("scalar_s", "batched_s", "factored_s",
                      "speedup", "factored_vs_batched"):
            value = report["dictionary_build"][regime][field]
            if not (isinstance(value, float) and value > 0.0):
                raise SystemExit(
                    f"BENCH_engine.json has bad "
                    f"dictionary_build.{regime}.{field}: {value!r}")
    for name, stages in (
            ("dictionary_build.dense",
             report["dictionary_build"]["dense"]["factored_stages"]),
            ("dictionary_build.test_vector",
             report["dictionary_build"]["test_vector"]["factored_stages"]),
            ("posterior_block",
             report["posterior_block"]["factored_stages"])):
        if set(stages) != set(STAGES) or not all(
                isinstance(stages[key], float) and stages[key] >= 0.0
                for key in ("assemble_s", "factor_s", "update_s")) or \
                not (isinstance(stages["update_passes"], int)
                     and stages["update_passes"] >= 1):
            raise SystemExit(
                f"BENCH_engine.json has bad {name}.factored_stages: "
                f"{stages!r}")
    if report["dictionary_build_speedup"] <= 0.0:
        raise SystemExit("bad headline dictionary_build_speedup")
    for case in report["size_sweep"]["cases"]:
        for field in ("scalar_s", "batched_s", "factored_s"):
            if not case[field] > 0.0:
                raise SystemExit(
                    f"bad size_sweep time {field} at "
                    f"{case['sections']} sections")
    ga = report["ga_evaluation"]
    for field in ("population_s", "conflict_s"):
        if not (isinstance(ga[field], float) and ga[field] > 0.0):
            raise SystemExit(
                f"BENCH_engine.json has bad ga_evaluation.{field}: "
                f"{ga[field]!r}")
    if not (isinstance(ga["conflict_evaluated"], int) and
            isinstance(ga["conflict_cases"], int) and
            0 < ga["conflict_evaluated"] <= ga["conflict_cases"]):
        raise SystemExit(
            f"BENCH_engine.json has bad ga_evaluation conflict cases: "
            f"{ga['conflict_evaluated']!r} evaluated of "
            f"{ga['conflict_cases']!r}")
    block = report["posterior_block"]
    for field in ("scalar_s", "batched_s", "factored_s",
                  "factored_without_bases_s", "speedup"):
        value = block[field]
        if not (isinstance(value, float) and value > 0.0):
            raise SystemExit(
                f"BENCH_engine.json has bad posterior_block.{field}: "
                f"{value!r}")
    if block["rows"] != block["worlds"] * (1 + report["n_faults"]):
        raise SystemExit("posterior_block rows do not match "
                         "worlds x (golden + faults)")
    if set(block["lowrank_fallbacks"]) != {"conditioning", "rank",
                                           "nonfinite"}:
        raise SystemExit("posterior_block.lowrank_fallbacks must count "
                         "every fallback reason")
    if not report["quick"]:
        # Full-mode performance bars (quick mode only checks shape --
        # CI machines are too noisy for ratio assertions on tiny
        # workloads).
        headline = report["factored_vs_batched_dense"]
        if headline < 2.0:
            raise SystemExit(
                f"factored engine only {headline:.2f}x vs batched on "
                f"the dense build (bar: 2x)")
        if not any(case["factored_vs_batched"] > 1.0 for case in
                   report["size_sweep"]["cases"]):
            raise SystemExit(
                "size sweep shows no dense-vs-low-rank crossover")
        if block["factored_vs_batched"] < 2.0:
            raise SystemExit(
                f"factored engine only {block['factored_vs_batched']:.2f}x "
                "vs batched on the posterior block (bar: 2x)")
    overhead = report["telemetry_overhead"]["overhead_fraction"]
    if overhead > MAX_TELEMETRY_OVERHEAD:
        raise SystemExit(
            f"telemetry overhead {overhead:.2%} exceeds the "
            f"{MAX_TELEMETRY_OVERHEAD:.0%} budget")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="tiny workloads (CI smoke mode)")
    parser.add_argument("--check", action="store_true",
                        help="validate the emitted JSON structure")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).parent / "out" /
                        "BENCH_engine.json")
    args = parser.parse_args(argv)

    report = run(quick=args.quick)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    build = report["dictionary_build"]
    dense = build["dense"]
    print(f"dictionary build (dense, {dense['points']} pts): "
          f"scalar {dense['scalar_s'] * 1e3:.1f} ms, "
          f"batched {dense['batched_s'] * 1e3:.1f} ms "
          f"({dense['speedup']:.2f}x), "
          f"factored {dense['factored_s'] * 1e3:.1f} ms "
          f"({dense['factored_vs_batched']:.2f}x vs batched)")
    for regime, section in (("dense", dense),
                            ("test vector", build["test_vector"]),
                            ("posterior block", report["posterior_block"])):
        stages = section["factored_stages"]
        print(f"factored stages ({regime}): assemble "
              f"{stages['assemble_s'] * 1e3:.2f} ms, factor "
              f"{stages['factor_s'] * 1e3:.2f} ms, update "
              f"{stages['update_s'] * 1e3:.2f} ms in "
              f"{stages['update_passes']} update passes")
    tv = build["test_vector"]
    print(f"dictionary build (test vector, {tv['points']} pts): "
          f"scalar {tv['scalar_s'] * 1e3:.2f} ms, "
          f"batched {tv['batched_s'] * 1e3:.2f} ms "
          f"({tv['speedup']:.2f}x cold, {tv['speedup_warm']:.2f}x "
          f"warm), factored {tv['factored_s'] * 1e3:.2f} ms")
    for case in report["size_sweep"]["cases"]:
        mode = "sparse" if case["sparse_factorisation"] else "dense"
        print(f"size sweep ({case['sections']} sections, dim "
              f"{case['dim']}, {mode} factorisation): scalar "
              f"{case['scalar_s'] * 1e3:.1f} ms, batched "
              f"{case['batched_s'] * 1e3:.1f} ms, factored "
              f"{case['factored_s'] * 1e3:.1f} ms "
              f"({case['factored_vs_batched']:.2f}x vs batched)")
    block = report["posterior_block"]
    print(f"posterior block ({block['worlds']} worlds, {block['rows']} "
          f"rows x {block['columns']} columns, {block['points']} pts): "
          f"scalar {block['scalar_s'] * 1e3:.1f} ms, batched "
          f"{block['batched_s'] * 1e3:.1f} ms "
          f"({block['speedup']:.2f}x), factored "
          f"{block['factored_s'] * 1e3:.1f} ms "
          f"({block['factored_vs_batched']:.2f}x vs batched; "
          f"{block['factored_without_bases_s'] * 1e3:.1f} ms without "
          f"bases), fallbacks {block['lowrank_fallbacks']}")
    ga = report["ga_evaluation"]
    print(f"GA evaluation ({ga['population']} individuals): "
          f"per-individual {ga['per_individual_s'] * 1e3:.1f} ms, "
          f"population {ga['population_s'] * 1e3:.1f} ms "
          f"({ga['speedup']:.2f}x), of which conflict kernel "
          f"{ga['conflict_s'] * 1e3:.1f} ms "
          f"({ga['conflict_share']:.0%}; {ga['conflict_evaluated']} of "
          f"{ga['conflict_cases']} cases evaluated)")
    overhead = report["telemetry_overhead"]
    print(f"telemetry overhead (dictionary build, "
          f"{overhead['points']} pts, {overhead['pairs']} pairs): "
          f"instrumented {overhead['instrumented_s'] * 1e3:.1f} ms, "
          f"bare {overhead['bare_s'] * 1e3:.1f} ms (median pair "
          f"{overhead['overhead_fraction']:+.2%})")
    print(f"wrote {args.out}")
    if args.check:
        check(report)
        print("structure check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
