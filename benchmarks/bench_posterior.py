"""T-POSTERIOR -- probabilistic diagnosis cost vs the hard classifier.

Times the request-side cost of ``repro.diagnosis.posterior`` -- a
Monte-Carlo sampled-response-surface posterior with adaptive
test-selection ranking -- against the hard nearest-trajectory
classifier it generalises, and writes ``BENCH_posterior.json``:

* **build** -- one 256-world Monte-Carlo sweep of the paper CUT's
  fault universe through the factored (Sherman-Morrison-Woodbury)
  engine: best-of-N wall time and the number of variant simulations
  amortised into the sampled surface;
* **request** -- best-of-N wall time of a single hard diagnosis vs a
  single posterior diagnosis (plus an 8-row coalesced batch of each)
  on measured-looking rows, and the headline ``ratio`` between the
  single-row paths. The acceptance bar: a full posterior at 256 MC
  samples costs at most **25x** one hard diagnosis.

Before any timing is trusted the harness asserts correctness: the
zero-tolerance posterior argmax must match the hard classifier on
every measured row, a from-scratch rebuild with the same seed must
reproduce the posteriors bitwise (over the wire codec included), and
the 8-row batch must equal its 8 single-row calls bitwise, test
ranking included.

Run standalone (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_posterior.py [--quick] [--out F]

``--quick`` drops to 64 worlds and fewer repeats for the CI smoke job;
``--check`` validates the emitted JSON structure (and, in full mode,
the 25x ratio gate) and exits non-zero on failure.
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
    "build": ("n_samples", "samples_simulated", "build_s", "repeats"),
    "request": ("hard_single_s", "posterior_single_s", "ratio",
                "hard_batch_s", "posterior_batch_s", "batch_rows"),
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


def run(quick: bool = False) -> dict:
    n_samples = 64 if quick else 256
    repeats = 5 if quick else 20
    build_repeats = 1 if quick else 3
    batch_rows = 8

    result = FaultTrajectoryATPG(get_benchmark(CIRCUIT),
                                 PipelineConfig.quick()).run(seed=SEED)
    classifier = result.classifier

    config = PosteriorConfig(n_samples=n_samples, seed=SEED)
    built = []

    def build():
        built[:] = [PosteriorDiagnoser.from_atpg(result, config)]

    build_s = _best_of(build_repeats, build)
    posterior = built[0]

    points = _measured_points(classifier, batch_rows)
    _assert_zero_tolerance_agrees(result, classifier, points)
    diagnoses = posterior.diagnose_points(points)
    _assert_bitwise_rebuild(result, config, diagnoses, points)
    _assert_batch_equals_single(posterior, diagnoses, points)

    # Warm both paths once, then time best-of-N.
    classifier.classify_points(points[:1])
    posterior.diagnose_points(points[:1])
    hard_single = _best_of(repeats,
                           lambda: classifier.classify_points(points[:1]))
    soft_single = _best_of(repeats,
                           lambda: posterior.diagnose_points(points[:1]))
    hard_batch = _best_of(repeats,
                          lambda: classifier.classify_points(points))
    soft_batch = _best_of(repeats,
                          lambda: posterior.diagnose_points(points))
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
            "repeats": build_repeats,
        },
        "request": {
            "hard_single_s": hard_single,
            "posterior_single_s": soft_single,
            "ratio": soft_single / hard_single,
            "hard_batch_s": hard_batch,
            "posterior_batch_s": soft_batch,
            "batch_rows": batch_rows,
            "repeats": repeats,
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
    for field in ("hard_single_s", "posterior_single_s",
                  "hard_batch_s", "posterior_batch_s", "ratio"):
        value = report["request"][field]
        if not (isinstance(value, float) and value > 0.0):
            raise SystemExit(
                f"BENCH_posterior.json has bad request.{field}: "
                f"{value!r}")
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
          f"{build['build_s']:.2f} s")
    request = report["request"]
    print(f"request: hard {request['hard_single_s'] * 1e3:.3f} ms, "
          f"posterior {request['posterior_single_s'] * 1e3:.3f} ms "
          f"({request['ratio']:.1f}x; bar {MAX_POSTERIOR_RATIO:.0f}x); "
          f"{request['batch_rows']}-row batch: hard "
          f"{request['hard_batch_s'] * 1e3:.3f} ms, posterior "
          f"{request['posterior_batch_s'] * 1e3:.3f} ms")
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
