"""Regenerate ``tests/data/legacy_store`` -- the byte-compat fixture.

The committed tree under ``legacy_store/`` is a real artifact-store
root written by the original on-disk layout:
``<root>/<kind>/<key[:2]>/<key>/``. The byte-compatibility test in
``tests/test_runtime_store.py`` replays the same fixed-seed pipeline
run against this tree through :class:`ArtifactStore` and requires every
artifact to load (all four cache hits) with bitwise-identical results
-- so any change to the layout, the content keys or the artifact
serialisation formats that would orphan existing production store
roots fails loudly.

Regenerate only after an *intentional* storage-format change::

    PYTHONPATH=src python tests/data/make_legacy_store.py

then review the diff like any other code change.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro import (ArtifactStore, FaultTrajectoryATPG, PipelineConfig,
                   voltage_divider)
from repro.ga import GAConfig

LEGACY_ROOT = Path(__file__).resolve().parent / "legacy_store"

SEED = 7
CONFIG = PipelineConfig(dictionary_points=16, deviations=(-0.2, 0.2),
                        ga=GAConfig(population_size=8, generations=2))


def circuit_info():
    return voltage_divider()


def main() -> int:
    shutil.rmtree(LEGACY_ROOT, ignore_errors=True)
    store = ArtifactStore(LEGACY_ROOT)
    result = FaultTrajectoryATPG(circuit_info(), CONFIG).run(seed=SEED,
                                                             store=store)
    slots = sorted(p.relative_to(LEGACY_ROOT)
                   for p in LEGACY_ROOT.rglob("*") if p.is_dir()
                   and len(p.name) == 64)
    print(f"wrote {len(slots)} artifacts under {LEGACY_ROOT}:")
    for slot in slots:
        print(f"  {slot}")
    print(f"test vector: {sorted(result.test_vector_hz)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
