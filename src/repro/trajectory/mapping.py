"""Signature mapping: frequency samples -> Cartesian coordinates.

Section 2.2 of the paper: stimulating the CUT with a test vector of
frequencies (f1, f2, ...) is equivalent to sampling its magnitude response
at those frequencies; the samples become the coordinates of a point in a
Cartesian space, and *"some simplification is introduced if we consider
the golden behaviour point as the Cartesian coordinate plan origin"*.

:class:`SignatureMapper` encapsulates the test vector and the two mapping
choices (dB vs linear magnitude scale; absolute vs golden-relative) and
converts responses, dictionaries and response surfaces into signature
points/matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import TrajectoryError
from ..faults.dictionary import FaultDictionary
from ..faults.surface import ResponseSurface
from ..sim.ac import FrequencyResponse
from ..units import db_to_linear

__all__ = ["SignatureMapper"]

_SCALES = ("db", "linear")


def check_test_vectors(freqs_hz: Sequence[float] | np.ndarray) -> None:
    """Validate one test vector, or a ``(K, n)`` array of them.

    Raises :class:`TrajectoryError` unless every vector has at least one
    frequency, all of them positive and none repeated (a duplicated
    axis is degenerate).
    """
    freqs = np.atleast_2d(np.asarray(freqs_hz, dtype=float))
    if freqs.shape[1] < 1:
        raise TrajectoryError("test vector needs at least 1 frequency")
    if np.any(freqs <= 0.0):
        raise TrajectoryError("test frequencies must be positive")
    ordered = np.sort(freqs, axis=1)
    repeated = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
    if repeated.any():
        vector = tuple(freqs[int(np.argmax(repeated))].tolist())
        raise TrajectoryError(
            f"test vector has duplicate frequencies: {vector}; "
            "duplicated axes are degenerate")


@dataclass(frozen=True)
class SignatureMapper:
    """Maps magnitude responses to points in signature space.

    Parameters
    ----------
    test_freqs_hz:
        The test vector: one coordinate axis per frequency. The paper's
        example uses two frequencies (an XY plane); any count >= 1 works
        and the diagnosis geometry generalises to n dimensions.
    scale:
        ``"db"`` (default) uses dB magnitudes -- deviations act roughly
        additively and the origin translation is a gain ratio. ``"linear"``
        uses plain magnitudes (the paper's figures; ablated in T-ABL).
    relative_to_golden:
        Subtract the golden signature, putting the golden behaviour at
        the origin (the paper's simplification). Disable to work in
        absolute coordinates.
    """

    test_freqs_hz: Tuple[float, ...]
    scale: str = "db"
    relative_to_golden: bool = True

    def __post_init__(self) -> None:
        freqs = tuple(float(f) for f in self.test_freqs_hz)
        check_test_vectors(freqs)
        if self.scale not in _SCALES:
            raise TrajectoryError(
                f"scale must be one of {_SCALES}, got {self.scale!r}")
        object.__setattr__(self, "test_freqs_hz", freqs)

    @property
    def dimension(self) -> int:
        """Signature space dimension (= number of test frequencies)."""
        return len(self.test_freqs_hz)

    # ------------------------------------------------------------------
    # Single responses
    # ------------------------------------------------------------------
    def _sample(self, response: FrequencyResponse) -> np.ndarray:
        values_db = np.atleast_1d(np.asarray(
            response.magnitude_db_at(np.array(self.test_freqs_hz))))
        if self.scale == "db":
            return values_db
        return np.asarray(db_to_linear(values_db), dtype=float)

    def signature(self, response: FrequencyResponse,
                  golden: Optional[FrequencyResponse] = None) -> np.ndarray:
        """Signature point of one measured/simulated response.

        ``golden`` is required when ``relative_to_golden`` is set.
        """
        point = self._sample(response)
        if self.relative_to_golden:
            if golden is None:
                raise TrajectoryError(
                    "relative mapper needs the golden response")
            point = point - self._sample(golden)
        return point

    # ------------------------------------------------------------------
    # Batched over a dictionary / surface
    # ------------------------------------------------------------------
    def signature_matrix_from_db(self, sampled_db: np.ndarray
                                 ) -> np.ndarray:
        """Signature matrix from presampled dB magnitudes.

        ``sampled_db`` is ``(1 + n_faults, dimension)`` with the golden
        row first -- exactly what
        :meth:`~repro.faults.surface.ResponseSurface.sample_db` returns
        at this mapper's test frequencies. Splitting the sampling from
        the mapping lets population-level GA evaluation sample the
        surface once for many candidate vectors: a ``(1 + n_faults, K,
        dimension)`` block of K candidates maps to ``(n_faults, K,
        dimension)`` signatures in one call (the mapping is elementwise,
        so each candidate's values are those of its own call).
        """
        sampled_db = np.asarray(sampled_db, dtype=float)
        golden_db = sampled_db[0]
        faults_db = sampled_db[1:]
        if self.scale == "db":
            if self.relative_to_golden:
                return faults_db - golden_db[None, :]
            return faults_db
        faults_lin = np.asarray(db_to_linear(faults_db), dtype=float)
        if self.relative_to_golden:
            golden_lin = np.asarray(db_to_linear(golden_db), dtype=float)
            return faults_lin - golden_lin[None, :]
        return faults_lin

    def golden_signature_from_db(self, golden_db: np.ndarray) -> np.ndarray:
        """Golden point from its presampled dB magnitudes (one
        ``(dimension,)`` row, or ``(K, dimension)`` for K candidates)."""
        if self.relative_to_golden:
            return np.zeros(np.shape(golden_db))
        if self.scale == "db":
            return np.asarray(golden_db, dtype=float)
        return np.asarray(db_to_linear(golden_db), dtype=float)

    def signature_matrix(self, source: FaultDictionary | ResponseSurface
                         ) -> np.ndarray:
        """Signatures of every fault entry, shape (n_faults, dimension).

        Accepts a dictionary (exact sampling of each stored response) or
        a response surface (vectorised interpolation -- the fast path the
        GA uses). Row order matches the dictionary entry order.
        """
        freqs = np.array(self.test_freqs_hz)
        if isinstance(source, ResponseSurface):
            return self.signature_matrix_from_db(source.sample_db(freqs))
        if isinstance(source, FaultDictionary):
            golden = source.golden if self.relative_to_golden else None
            return np.vstack([self.signature(entry.response, golden)
                              for entry in source.entries])
        raise TrajectoryError(
            f"signature_matrix expects a FaultDictionary or "
            f"ResponseSurface, got {type(source).__name__}")

    def golden_signature(self, source: FaultDictionary | ResponseSurface
                         ) -> np.ndarray:
        """Golden point: the origin for a relative mapper."""
        if self.relative_to_golden:
            return np.zeros(self.dimension)
        freqs = np.array(self.test_freqs_hz)
        if isinstance(source, ResponseSurface):
            golden_db = source.golden_db(freqs)
            if self.scale == "db":
                return golden_db
            return np.asarray(db_to_linear(golden_db), dtype=float)
        if isinstance(source, FaultDictionary):
            return self._sample(source.golden)
        raise TrajectoryError(
            f"golden_signature expects a FaultDictionary or "
            f"ResponseSurface, got {type(source).__name__}")

    def with_freqs(self, test_freqs_hz: Sequence[float]) -> "SignatureMapper":
        """Same mapping options, different test vector."""
        return SignatureMapper(tuple(test_freqs_hz), self.scale,
                               self.relative_to_golden)
