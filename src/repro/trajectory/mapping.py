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
from ..faults.surface import ResponseSurface, interpolate_db
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
    # The dB-to-signature transform
    # ------------------------------------------------------------------
    def _scaled(self, values_db: np.ndarray) -> np.ndarray:
        values = np.asarray(values_db, dtype=float)
        if self.scale == "db":
            return values
        return np.asarray(db_to_linear(values), dtype=float)

    def signatures_from_db(self, values_db: np.ndarray,
                           golden_db: Optional[np.ndarray] = None
                           ) -> np.ndarray:
        """Signature points from dB magnitudes at the test frequencies.

        The one dB-to-signature transform: ``values_db`` is any
        ``(..., dimension)`` array, mapped to the mapper's scale and,
        for a golden-relative mapper, shifted by the golden
        ``golden_db`` (which broadcasts against ``values_db``; it is
        ignored by an absolute mapper). The mapping is elementwise, so
        each row's result does not depend on the other rows.
        """
        values = self._scaled(values_db)
        if not self.relative_to_golden:
            return values
        if golden_db is None:
            raise TrajectoryError(
                "relative mapper needs the golden response")
        return values - self._scaled(golden_db)

    def _sample_db(self, response: FrequencyResponse) -> np.ndarray:
        return np.atleast_1d(np.asarray(
            response.magnitude_db_at(np.array(self.test_freqs_hz))))

    def _dictionary_db(self, dictionary: FaultDictionary) -> np.ndarray:
        """The dictionary's dB matrix (golden row first) at the test
        frequencies."""
        return interpolate_db(np.log10(dictionary.freqs_hz),
                              dictionary.response_matrix_db(),
                              np.array(self.test_freqs_hz))

    def signature(self, response: FrequencyResponse,
                  golden: Optional[FrequencyResponse] = None) -> np.ndarray:
        """Signature point of one measured/simulated response.

        ``golden`` is required when ``relative_to_golden`` is set.
        """
        golden_db = None
        if self.relative_to_golden and golden is not None:
            golden_db = self._sample_db(golden)
        return self.signatures_from_db(self._sample_db(response),
                                       golden_db)

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
        dimension)`` signatures in one call.
        """
        sampled_db = np.asarray(sampled_db, dtype=float)
        return self.signatures_from_db(sampled_db[1:], sampled_db[0])

    def golden_signature_from_db(self, golden_db: np.ndarray) -> np.ndarray:
        """Golden point from its presampled dB magnitudes (one
        ``(dimension,)`` row, or ``(K, dimension)`` for K candidates)."""
        if self.relative_to_golden:
            return np.zeros(np.shape(golden_db))
        return self._scaled(golden_db)

    def signature_matrix(self, source: FaultDictionary | ResponseSurface
                         ) -> np.ndarray:
        """Signatures of every fault entry, shape (n_faults, dimension).

        Accepts a dictionary or a response surface (the GA's path); both
        are sampled by the one rule of
        :meth:`~repro.faults.surface.ResponseSurface.sample_db`, in one
        array pass over the dB matrix. Row order matches the dictionary
        entry order.
        """
        if isinstance(source, ResponseSurface):
            return self.signature_matrix_from_db(
                source.sample_db(np.array(self.test_freqs_hz)))
        if isinstance(source, FaultDictionary):
            return self.signature_matrix_from_db(
                self._dictionary_db(source))
        raise TrajectoryError(
            f"signature_matrix expects a FaultDictionary or "
            f"ResponseSurface, got {type(source).__name__}")

    def golden_signature(self, source: FaultDictionary | ResponseSurface
                         ) -> np.ndarray:
        """Golden point: the origin for a relative mapper."""
        if self.relative_to_golden:
            return np.zeros(self.dimension)
        if isinstance(source, ResponseSurface):
            return self._scaled(
                source.golden_db(np.array(self.test_freqs_hz)))
        if isinstance(source, FaultDictionary):
            return self._scaled(self._dictionary_db(source)[0])
        raise TrajectoryError(
            f"golden_signature expects a FaultDictionary or "
            f"ResponseSurface, got {type(source).__name__}")

    def with_freqs(self, test_freqs_hz: Sequence[float]) -> "SignatureMapper":
        """Same mapping options, different test vector."""
        return SignatureMapper(tuple(test_freqs_hz), self.scale,
                               self.relative_to_golden)
