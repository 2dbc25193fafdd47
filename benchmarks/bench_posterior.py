"""T-POSTERIOR -- probabilistic diagnosis cost vs the hard classifier.

Times the request-side cost of ``repro.diagnosis.posterior`` -- a
Monte-Carlo sampled-response-surface posterior with adaptive
test-selection ranking -- against the hard nearest-trajectory
classifier it generalises, and writes ``BENCH_posterior.json``:

* **build** -- one 256-world Monte-Carlo sweep of the paper CUT's
  fault universe through the factored (Sherman-Morrison-Woodbury)
  engine at the test vector (``build_s``), then the ranking half the
  first ranking read builds: the same worlds at the other candidate
  frequencies plus the information gain's likelihood planes
  (``ranking_build_s``). Each is the best-of-N wall time; the number
  of variant simulations amortised into the sampled surface is
  recorded too;
* **request** -- best-of-N wall time of a single hard diagnosis vs a
  single posterior diagnosis (plus an 8-row coalesced batch of each)
  on measured-looking rows. Each posterior request is timed twice:
  answer only (``posterior_answer_*``: what a caller that never reads
  ``test_ranking`` pays, like the corpus runner) and answer with the
  ranking read (``posterior_*``: what the wire pays, since the codec
  encodes every ranking). The headline ``ratio`` is the ranked
  single-row path over the hard one. The acceptance bar: a full
  posterior at 256 MC samples, ranking included, costs at most **25x**
  one hard diagnosis.

Before any timing is trusted the harness asserts correctness: the
zero-tolerance posterior argmax must match the hard classifier on
every measured row, a from-scratch rebuild with the same seed must
reproduce the posteriors bitwise (over the wire codec included), the
8-row batch must equal its 8 single-row calls bitwise, test ranking
included, and the answer-only and ranked paths must give bitwise-equal
answers (``request.paths_equal``).

Run standalone (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_posterior.py [--quick] [--out F]

``--quick`` drops to 64 worlds and fewer repeats for the CI smoke job;
``--check`` validates the emitted JSON structure and the two paths'
equality (and, in full mode, the 25x ratio gate) and exits non-zero on
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import FaultTrajectoryATPG, PipelineConfig
from repro.circuits.library import get_benchmark
from repro.diagnosis import PosteriorConfig, PosteriorDiagnoser
from repro.diagnosis.posterior import INFORMATIVE_GAIN_BITS
from repro.runtime import codec

from _helpers import check_environment, environment_info

SEED = 2005  # the paper's publication year

CIRCUIT = "tow_thomas_biquad"

#: Acceptance bar: posterior-at-256-worlds vs one hard diagnosis.
MAX_POSTERIOR_RATIO = 25.0

REQUIRED_KEYS = {
    "build": ("n_samples", "samples_simulated", "build_s",
              "ranking_build_s", "repeats"),
    "request": ("hard_single_s", "posterior_single_s",
                "posterior_answer_single_s", "ratio", "hard_batch_s",
                "posterior_batch_s", "posterior_answer_batch_s",
                "batch_rows", "paths_equal"),
    "posterior": ("mean_entropy_bits", "next_best_freq_hz",
                  "n_hypotheses"),
}


def _best_of(repeats, func):
    """Minimum wall time over ``repeats`` runs (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - started)
    return best


def _measured_points(classifier, n_rows):
    """Signature points for golden-plus-noise request rows."""
    golden_db = classifier._golden_sample_db()
    rng = np.random.default_rng(SEED)
    rows = golden_db[None, :] + rng.normal(
        0.0, 3.0, size=(n_rows, golden_db.shape[0]))
    return classifier.signatures(rows)


def _assert_zero_tolerance_agrees(result, classifier, points):
    """tolerance -> 0 must reproduce the hard classifier's argmax."""
    limit = PosteriorDiagnoser.from_atpg(
        result, PosteriorConfig(n_samples=2, tolerance=0.0, seed=SEED))
    hard = classifier.classify_points(points)
    soft = limit.diagnose_points(points)
    for row, (hard_one, soft_one) in enumerate(zip(hard, soft)):
        if hard_one.component != soft_one.component:
            raise AssertionError(
                f"zero-tolerance posterior disagrees with the hard "
                f"classifier on row {row}: {soft_one.component!r} != "
                f"{hard_one.component!r}")


def _assert_bitwise_rebuild(result, config, reference, points):
    """Same config + seed -> bitwise-identical posteriors on the wire."""
    rebuilt = PosteriorDiagnoser.from_atpg(result, config)
    again = rebuilt.diagnose_points(points)
    if codec.encode_posterior_response(again) != \
            codec.encode_posterior_response(reference):
        raise AssertionError(
            "posterior rebuild is not bitwise reproducible")


def _assert_batch_equals_single(posterior, reference, points):
    """The coalesced batch equals one call per row bitwise, test
    ranking included: every request-path kernel is row-independent."""
    single = [posterior.diagnose_points(points[row:row + 1])[0]
              for row in range(points.shape[0])]
    if codec.encode_posterior_response(single) != \
            codec.encode_posterior_response(reference):
        raise AssertionError(
            "batched posteriors differ from single-row calls")


def _answer_fields(diagnoses):
    """Everything but the ranking, spelled exactly."""
    return [repr((d.component, d.probabilities, d.entropy_bits,
                  d.expected_deviation, d.n_samples)) for d in diagnoses]


def _paths_equal(result, config, ranked, points):
    """The answer-only path (a fresh diagnoser, no ranking read until
    its answers are compared) equals the ranked path bitwise: the same
    answers, then the same rankings once read."""
    answers = PosteriorDiagnoser.from_atpg(result, config) \
        .diagnose_points(points)
    return _answer_fields(answers) == _answer_fields(ranked) and \
        codec.encode_posterior_response(answers) == \
        codec.encode_posterior_response(ranked)


def _ranked(posterior, points):
    """A request with its rankings read, as the wire reads them."""
    diagnoses = posterior.diagnose_points(points)
    diagnoses[0].test_ranking
    return diagnoses


def run(quick: bool = False) -> dict:
    n_samples = 64 if quick else 256
    repeats = 5 if quick else 20
    build_repeats = 1 if quick else 3
    batch_rows = 8

    result = FaultTrajectoryATPG(get_benchmark(CIRCUIT),
                                 PipelineConfig.quick()).run(seed=SEED)
    classifier = result.classifier

    config = PosteriorConfig(n_samples=n_samples, seed=SEED)
    build_s = ranking_build_s = float("inf")
    for _ in range(build_repeats):
        started = time.perf_counter()
        posterior = PosteriorDiagnoser.from_atpg(result, config)
        built = time.perf_counter()
        posterior.prepare_ranking()
        build_s = min(build_s, built - started)
        ranking_build_s = min(ranking_build_s,
                              time.perf_counter() - built)

    points = _measured_points(classifier, batch_rows)
    _assert_zero_tolerance_agrees(result, classifier, points)
    diagnoses = posterior.diagnose_points(points)
    _assert_bitwise_rebuild(result, config, diagnoses, points)
    _assert_batch_equals_single(posterior, diagnoses, points)
    paths_equal = _paths_equal(result, config, diagnoses, points)

    # Warm every path once, then time best-of-N.
    classifier.classify_points(points[:1])
    _ranked(posterior, points[:1])
    hard_single = _best_of(repeats,
                           lambda: classifier.classify_points(points[:1]))
    answer_single = _best_of(
        repeats, lambda: posterior.diagnose_points(points[:1]))
    soft_single = _best_of(repeats,
                           lambda: _ranked(posterior, points[:1]))
    hard_batch = _best_of(repeats,
                          lambda: classifier.classify_points(points))
    answer_batch = _best_of(repeats,
                            lambda: posterior.diagnose_points(points))
    soft_batch = _best_of(repeats, lambda: _ranked(posterior, points))
    # A near-certain row's gains are rounding noise; advise from the
    # first row with an informative ranking (None if there is none).
    next_best = next((d.test_ranking[0][0] for d in diagnoses
                      if d.test_ranking[0][1] >= INFORMATIVE_GAIN_BITS),
                     None)

    return {
        "benchmark": "T-POSTERIOR",
        "quick": quick,
        "environment": environment_info(),
        "circuit": CIRCUIT,
        "n_faults": len(result.universe.faults),
        "build": {
            "n_samples": n_samples,
            "samples_simulated": posterior.samples_simulated,
            "build_s": build_s,
            "ranking_build_s": ranking_build_s,
            "repeats": build_repeats,
        },
        "request": {
            "hard_single_s": hard_single,
            "posterior_single_s": soft_single,
            "posterior_answer_single_s": answer_single,
            "ratio": soft_single / hard_single,
            "hard_batch_s": hard_batch,
            "posterior_batch_s": soft_batch,
            "posterior_answer_batch_s": answer_batch,
            "batch_rows": batch_rows,
            "repeats": repeats,
            "paths_equal": paths_equal,
        },
        "posterior": {
            "mean_entropy_bits": float(np.mean(
                [d.entropy_bits for d in diagnoses])),
            "next_best_freq_hz": next_best,
            "n_hypotheses": len(posterior.component_labels),
        },
        "max_ratio": MAX_POSTERIOR_RATIO,
    }


def check(report: dict) -> None:
    """Validate the report structure (the CI smoke contract)."""
    check_environment(report, "BENCH_posterior.json")
    for key, fields in REQUIRED_KEYS.items():
        section = report[key]
        for field in fields:
            if field not in section:
                raise SystemExit(
                    f"BENCH_posterior.json missing {key}.{field}")
    for key, field in [("request", field) for field in (
            "hard_single_s", "posterior_single_s",
            "posterior_answer_single_s", "hard_batch_s",
            "posterior_batch_s", "posterior_answer_batch_s", "ratio")] + \
            [("build", "build_s"), ("build", "ranking_build_s")]:
        value = report[key][field]
        if not (isinstance(value, float) and value > 0.0):
            raise SystemExit(
                f"BENCH_posterior.json has bad {key}.{field}: "
                f"{value!r}")
    if report["request"]["paths_equal"] is not True:
        raise SystemExit("the answer-only and ranked posterior paths "
                         "give different answers")
    if report["build"]["samples_simulated"] < \
            report["build"]["n_samples"]:
        raise SystemExit("bad build.samples_simulated")
    if not report["quick"]:
        # Performance bar only in full mode -- CI machines are too
        # noisy for ratio assertions on tiny workloads.
        ratio = report["request"]["ratio"]
        if ratio > MAX_POSTERIOR_RATIO:
            raise SystemExit(
                f"posterior diagnosis costs {ratio:.1f}x a hard "
                f"diagnosis (bar: {MAX_POSTERIOR_RATIO:.0f}x at "
                f"{report['build']['n_samples']} MC samples)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="64 worlds, fewer repeats (CI smoke mode)")
    parser.add_argument("--check", action="store_true",
                        help="validate the emitted JSON structure")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).parent / "out" /
                        "BENCH_posterior.json")
    args = parser.parse_args(argv)

    report = run(quick=args.quick)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    build = report["build"]
    print(f"posterior build ({build['n_samples']} worlds, "
          f"{build['samples_simulated']} variant simulations): "
          f"{build['build_s']:.3f} s at the test vector, "
          f"{build['ranking_build_s']:.3f} s for the ranking half")
    request = report["request"]
    print(f"request: hard {request['hard_single_s'] * 1e3:.3f} ms, "
          f"posterior {request['posterior_answer_single_s'] * 1e3:.3f} ms"
          f" answer only, {request['posterior_single_s'] * 1e3:.3f} ms "
          f"ranked ({request['ratio']:.1f}x; bar "
          f"{MAX_POSTERIOR_RATIO:.0f}x); {request['batch_rows']}-row "
          f"batch: hard {request['hard_batch_s'] * 1e3:.3f} ms, posterior "
          f"{request['posterior_answer_batch_s'] * 1e3:.3f} ms answer "
          f"only, {request['posterior_batch_s'] * 1e3:.3f} ms ranked")
    summary = report["posterior"]
    next_best = summary["next_best_freq_hz"]
    advice = ("no measurement is informative" if next_best is None
              else f"next best measurement {next_best:.4g} Hz")
    print(f"posterior ({summary['n_hypotheses']} hypotheses): mean "
          f"entropy {summary['mean_entropy_bits']:.3f} b, {advice}")
    print(f"wrote {args.out}")
    if args.check:
        check(report)
        print("structure check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
