"""Shared scaffolding for the serving test suites and benchmarks.

Tiny utilities that both ``tests/`` and ``benchmarks/`` need and that
must stay byte-for-byte identical between them (a drift would silently
desynchronise what the benchmarks measure from what the tests prove).
Not part of the public serving API.
"""

from __future__ import annotations

import numpy as np

__all__ = ["noisy_golden_rows"]


def noisy_golden_rows(service, circuit: str, count: int,
                      seed: int) -> np.ndarray:
    """Measured-looking request rows for a warmed circuit.

    The circuit's golden dB magnitudes at its test vector, plus a few
    dB of seeded Gaussian noise per row -- the standard request shape
    the serving equivalence tests and throughput benchmarks drive.
    """
    golden_db = service._engine(circuit).classifier._golden_sample_db()
    rng = np.random.default_rng(seed)
    return golden_db[None, :] + rng.normal(
        0.0, 3.0, size=(count, golden_db.shape[0]))
