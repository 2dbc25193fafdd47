"""T-RUNTIME -- serving-layer performance.

Measures the two hot paths the ``repro.runtime`` subsystem
industrialises:

* **batch vs per-response classification** -- one vectorised
  ``TrajectoryClassifier.classify_points`` call against a Python loop
  of one-row ``classify_point`` calls on the same point batch;
* **cold vs store-warmed pipeline runs** -- a full
  ``FaultTrajectoryATPG.run()`` against a repeat run served from a
  content-addressed :class:`ArtifactStore`.

Writes ``truntime_report.txt`` / ``truntime.csv`` with the measured
throughputs and speedups.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro import FaultTrajectoryATPG, PipelineConfig
from repro.runtime import ArtifactStore
from repro.viz import table, write_csv

from _helpers import SEED, write_report

BATCH_SIZE = 2048


@pytest.fixture(scope="module")
def engine(cut):
    """One quick pipeline run and a point batch drawn around its
    trajectories (mixed on/off-trajectory)."""
    result = FaultTrajectoryATPG(cut, PipelineConfig.quick()).run(
        seed=SEED)
    rng = np.random.default_rng(SEED)
    vertices = np.vstack([t.points for t in result.trajectories])
    span = float(np.abs(vertices).max()) or 1.0
    base = vertices[rng.integers(0, vertices.shape[0], BATCH_SIZE)]
    points = base + rng.normal(scale=0.05 * span, size=base.shape)
    return result, points


def bench_truntime_scalar_classify(benchmark, engine):
    result, points = engine
    diagnoses = benchmark(
        lambda: [result.classifier.classify_point(p) for p in points])
    assert len(diagnoses) == BATCH_SIZE


def bench_truntime_batch_classify(benchmark, engine):
    result, points = engine
    diagnoses = benchmark(
        lambda: result.classifier.classify_points(points))
    assert len(diagnoses) == BATCH_SIZE


def bench_truntime_store_warmed_run(benchmark, cut):
    """A warmed run (everything cache-hit) -- the repeat-query cost."""
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        atpg = FaultTrajectoryATPG(cut, PipelineConfig.quick())
        atpg.run(seed=SEED, store=store)        # populate

        result = benchmark(lambda: atpg.run(seed=SEED, store=store))
        assert set(result.cache_hits) == {"dictionary", "ga", "exact"}


def bench_truntime_summary(benchmark, engine, cut, out_dir):
    """One-shot throughput/speedup table for the report."""
    result, points = engine

    def measure():
        started = time.perf_counter()
        scalar = [result.classifier.classify_point(p) for p in points]
        scalar_s = time.perf_counter() - started
        started = time.perf_counter()
        batched = result.classifier.classify_points(points)
        batch_s = time.perf_counter() - started
        assert batched == scalar

        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            atpg = FaultTrajectoryATPG(cut, PipelineConfig.quick())
            started = time.perf_counter()
            atpg.run(seed=SEED, store=store)
            cold_s = time.perf_counter() - started
            started = time.perf_counter()
            atpg.run(seed=SEED, store=store)
            warm_s = time.perf_counter() - started
        return scalar_s, batch_s, cold_s, warm_s

    scalar_s, batch_s, cold_s, warm_s = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    rows = [
        ["per-response classify", f"{BATCH_SIZE / scalar_s:,.0f}",
         f"{scalar_s * 1e3:.1f}", "1.0x"],
        ["batch classify", f"{BATCH_SIZE / batch_s:,.0f}",
         f"{batch_s * 1e3:.1f}", f"{scalar_s / batch_s:.1f}x"],
        ["cold pipeline run", "-", f"{cold_s * 1e3:.1f}", "1.0x"],
        ["store-warmed run", "-", f"{warm_s * 1e3:.1f}",
         f"{cold_s / warm_s:.1f}x"],
    ]
    headers = ["path", "points/s", "time [ms]", "speedup"]
    write_csv(out_dir / "truntime.csv", headers, rows)
    text = "\n".join([
        f"T-RUNTIME: serving-layer throughput "
        f"({BATCH_SIZE}-point batch, biquad CUT)",
        "",
        table(headers, rows),
    ])
    write_report(out_dir, "truntime_report.txt", text)
