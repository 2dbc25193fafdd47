"""T-CLUSTER -- does a spawned cluster buy cores?

Drives a multi-circuit request mix (every registry circuit,
round-robin, ``CONCURRENCY`` concurrent clients) against the
production cluster shape -- ``repro-serve`` worker processes spoken to
over keep-alive HTTP -- with one worker and with two. Every worker
holds the whole catalogue warm (``max_engines >= len(CIRCUITS)``), so
neither side evicts an engine and the ratio measures cores, not a
bigger aggregate engine cache.

Before any timing is trusted, the harness asserts the two-worker
cluster answers **bitwise-identically** to sequential single-service
submits, per request and through ``submit_many``. The timed streams
then run in alternated 1-worker/2-worker pairs (7 in full mode); the
report (``BENCH_cluster.json``) records every pair's speedup and their
median and quartiles next to ``cpu_count``.

Run standalone (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_cluster.py [--quick] [--check]

``--quick`` shrinks the streams for the CI smoke job; ``--check``
validates the emitted JSON structure and (in full mode, on a box with
at least two cores) enforces the criterion: median two-worker speedup
above 1.2x. A 1-core box records the ratio without gating.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro import ArtifactStore, ClusterService, DiagnosisService, \
    PipelineConfig
from _helpers import check_environment, environment_info
from _helpers import noisy_golden_rows as request_rows
from repro.circuits.library import BENCHMARK_CIRCUITS
from repro.ga import GAConfig

SEED = 2005
CONCURRENCY = 16
CIRCUITS = tuple(sorted(BENCHMARK_CIRCUITS))
#: Every process holds the whole catalogue warm: zero evictions.
MAX_ENGINES = len(CIRCUITS)
#: Speedup floor for the full-mode run on a multi-core box.
SPEEDUP_FLOOR = 1.2

CONFIG = PipelineConfig(dictionary_points=48,
                        deviations=(-0.3, -0.15, 0.15, 0.3),
                        ga=GAConfig(population_size=10, generations=3))

MODE_KEYS = ("requests", "seconds", "requests_per_second", "evictions")
SIDES = ("single_worker", "two_workers")


def make_stream(reference: DiagnosisService, total: int) -> list:
    """Round-robin multi-circuit single-row request stream."""
    return [(CIRCUITS[index % len(CIRCUITS)],
             request_rows(reference, CIRCUITS[index % len(CIRCUITS)],
                          1, seed=index))
            for index in range(total)]


async def assert_equivalence(cluster: ClusterService,
                             reference: DiagnosisService) -> None:
    """Spawned-cluster answers must match sequential single-service
    submits bitwise, per request and as one ``submit_many`` burst."""
    requests = []
    for index, circuit in enumerate(CIRCUITS):
        rows = request_rows(reference, circuit, 4, seed=SEED + index)
        requests.extend((circuit, rows[i:i + 1]) for i in range(4))
        requests.append((circuit, rows))      # one multi-row request
    sequential = [reference.submit(circuit, rows)
                  for circuit, rows in requests]
    results = await asyncio.gather(
        *(cluster.submit(circuit, rows) for circuit, rows in requests))
    assert results == sequential, \
        "spawned cluster diverges from sequential submits"
    assert await cluster.submit_many(requests) == sequential, \
        "spawned cluster submit_many diverges from sequential submits"


async def evictions(cluster: ClusterService) -> int:
    """Engine evictions summed over the workers' stats snapshots."""
    return (await cluster.stats_snapshot())["merged"]["evictions"]


async def time_stream(cluster: ClusterService, stream: list) -> dict:
    """Time the stream split over ``CONCURRENCY`` async clients."""
    async def client(shard):
        for circuit, rows in shard:
            await cluster.submit(circuit, rows)

    shards = [stream[index::CONCURRENCY] for index in range(CONCURRENCY)]
    started = time.perf_counter()
    await asyncio.gather(*(client(shard) for shard in shards))
    elapsed = time.perf_counter() - started
    return {"requests": len(stream), "seconds": elapsed,
            "requests_per_second": len(stream) / elapsed}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4,
                                          method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


async def bench_spawned(store_root: Path, reference: DiagnosisService,
                        total: int, pairs: int) -> dict:
    """One worker vs two, ``pairs`` alternated timed streams each."""
    stream = make_stream(reference, total)
    clusters = {}
    try:
        for side, n_workers in zip(SIDES, (1, 2)):
            clusters[side] = await ClusterService.spawn(
                n_workers, store_root=store_root, config=CONFIG,
                seed=SEED, max_engines=MAX_ENGINES, window_ms=1.0,
                max_batch=CONCURRENCY)
        await assert_equivalence(clusters["two_workers"], reference)
        for cluster in clusters.values():
            for circuit, rows in stream[:len(CIRCUITS)]:
                await cluster.submit(circuit, rows)       # warm-up
        runs = {side: [] for side in SIDES}
        for pair in range(pairs):
            # Alternate which side goes first so slow drift of the
            # box cancels out of the pair ratios.
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(await time_stream(clusters[side],
                                                    stream))
        side_evictions = {side: await evictions(clusters[side])
                          for side in SIDES}
    finally:
        for cluster in clusters.values():
            await cluster.aclose()

    speedups = [two["requests_per_second"] / one["requests_per_second"]
                for one, two in zip(runs["single_worker"],
                                    runs["two_workers"])]
    result: dict = {"max_engines": MAX_ENGINES, "pairs": pairs}
    for side in SIDES:
        result[side] = {
            "requests": total,
            "seconds": statistics.median(run["seconds"]
                                         for run in runs[side]),
            "requests_per_second": statistics.median(
                run["requests_per_second"] for run in runs[side]),
            "evictions": side_evictions[side],
            "runs": runs[side]}
    result["speedup"] = {"pairs": speedups,
                         "cpu_count": environment_info()["cpu_count"],
                         **quartiles(speedups)}
    return result


def run(quick: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-cluster-") as tmp:
        store_root = Path(tmp) / "store"
        reference = DiagnosisService(config=CONFIG,
                                     store=ArtifactStore(store_root),
                                     max_engines=MAX_ENGINES, seed=SEED)
        for name in CIRCUITS:
            reference.warm(name)
        spawned = asyncio.run(bench_spawned(
            store_root, reference, total=64 if quick else 1440,
            pairs=2 if quick else 7))

    return {
        "benchmark": "T-CLUSTER",
        "quick": quick,
        "environment": environment_info(),
        "circuits": list(CIRCUITS),
        "concurrency": CONCURRENCY,
        "scenarios": {"spawned_http": spawned},
        "cluster_speedup": spawned["speedup"]["median"],
        "notes": (
            "Two-worker cluster answers asserted bitwise-equal to "
            "sequential single-service submits (per request and "
            "submit_many) before timing. 'spawned_http' times the "
            "production shape end-to-end (repro-serve workers, "
            "keep-alive HTTP, shared artifact store) with one worker "
            "and with two, in alternated pairs. Every worker holds "
            f"the whole catalogue warm (max_engines={MAX_ENGINES}), so "
            "evictions are zero on both sides and the ratio measures "
            "cores alone; the router and its clients share the box "
            "with the workers. 'cluster_speedup' is the median pair "
            "ratio; the --check floor applies in full mode when "
            "cpu_count >= 2."),
    }


def check(report: dict, quick: bool) -> None:
    """Validate the report structure (the CI smoke contract)."""
    check_environment(report, "BENCH_cluster.json")
    if set(report["scenarios"]) != {"spawned_http"}:
        raise SystemExit(f"BENCH_cluster.json scenarios "
                         f"{sorted(report['scenarios'])} != "
                         f"['spawned_http']")
    spawned = report["scenarios"]["spawned_http"]
    for side in SIDES:
        for key in MODE_KEYS:
            if key not in spawned[side]:
                raise SystemExit(f"BENCH_cluster.json missing "
                                 f"spawned_http.{side}.{key}")
        rps = spawned[side]["requests_per_second"]
        if not (isinstance(rps, float) and rps > 0.0):
            raise SystemExit(f"bad {side} throughput: {rps!r}")
        if spawned[side]["evictions"] != 0:
            raise SystemExit(f"{side} evicted engines "
                             f"({spawned[side]['evictions']}): the "
                             f"ratio would not measure cores alone")
    speedup = spawned["speedup"]
    for key in ("pairs", "cpu_count", "q1", "median", "q3"):
        if key not in speedup:
            raise SystemExit(f"BENCH_cluster.json missing "
                             f"spawned_http.speedup.{key}")
    if len(speedup["pairs"]) != spawned["pairs"]:
        raise SystemExit("spawned_http.speedup.pairs length mismatch")
    # Full mode only: quick mode's tiny streams are a structure check,
    # not a timing gate (a noisy shared CI runner must not flake the
    # smoke job), and a 1-core box has no cores to buy.
    if not quick:
        if spawned["pairs"] < 5:
            raise SystemExit(f"only {spawned['pairs']} pairs; the "
                             f"full run needs >= 5")
        if speedup["cpu_count"] >= 2 and \
                speedup["median"] <= SPEEDUP_FLOOR:
            raise SystemExit(
                f"median two-worker speedup {speedup['median']:.2f}x "
                f"not above the {SPEEDUP_FLOOR}x floor on "
                f"{speedup['cpu_count']} cores")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="tiny streams (CI smoke mode)")
    parser.add_argument("--check", action="store_true",
                        help="validate the emitted JSON structure")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).parent / "out" /
                        "BENCH_cluster.json")
    args = parser.parse_args(argv)

    report = run(quick=args.quick)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    spawned = report["scenarios"]["spawned_http"]
    for side in SIDES:
        entry = spawned[side]
        print(f"[spawned_http] {side}: "
              f"{entry['requests_per_second']:.0f} rps median "
              f"({entry['evictions']} evictions)")
    speedup = spawned["speedup"]
    print(f"[spawned_http] speedup over {spawned['pairs']} pairs: "
          f"median {speedup['median']:.2f}x "
          f"(q1 {speedup['q1']:.2f}x, q3 {speedup['q3']:.2f}x; pairs "
          + " / ".join(f"{ratio:.2f}" for ratio in speedup["pairs"])
          + f") on {speedup['cpu_count']} cores")
    print(f"wrote {args.out}")
    if args.check:
        check(report, quick=args.quick)
        print("structure check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
