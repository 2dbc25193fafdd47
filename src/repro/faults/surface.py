"""Fast response surface: vectorised signature sampling for the GA.

GA fitness evaluation needs ``|H|`` of *every* dictionary entry at a few
candidate frequencies, thousands of times per run. Re-solving MNA each
time would dominate the runtime, so the surface precomputes the dense
dB-magnitude matrix once and answers queries by vectorised log-frequency
linear interpolation -- the same interpolation
:class:`~repro.sim.ac.FrequencyResponse` uses, but batched over all
entries and all query frequencies in one shot.

The interpolation error against an exact MNA solve is bounded in the test
suite (the responses are smooth rational functions; a 400-point grid over
five decades keeps the error far below the separations that matter).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import DictionaryError
from ..tracing import TRACER
from .dictionary import FaultDictionary
from .models import GOLDEN_LABEL

__all__ = ["ResponseSurface", "interpolate_db"]


def interpolate_db(log_f: np.ndarray, matrix_db: np.ndarray,
                   query: np.ndarray) -> np.ndarray:
    """Rows of ``matrix_db`` sampled at the ``query`` frequencies.

    The one sampling rule of signatures: linear interpolation in
    log-frequency between the bracketing points of the grid whose
    ``log10`` is ``log_f``, queries clamped to the grid ends. A query
    on a grid point reads that point's value exactly. Returns
    ``(n_rows, n_query)``.
    """
    log_q = np.clip(np.log10(query), log_f[0], log_f[-1])
    # Bracketing indices + interpolation weights, shared by all rows.
    upper = np.clip(np.searchsorted(log_f, log_q, side="left"),
                    min(1, log_f.size - 1), log_f.size - 1)
    lower = np.maximum(upper - 1, 0)
    span = log_f[upper] - log_f[lower]
    weight = np.where(span > 0.0,
                      (log_q - log_f[lower]) / np.where(span > 0.0, span,
                                                        1.0),
                      0.0)
    return matrix_db[:, lower] * (1.0 - weight) + \
        matrix_db[:, upper] * weight


class ResponseSurface:
    """Precomputed dB-magnitude matrix over the dictionary grid.

    Row 0 is the golden response; row ``1 + i`` is dictionary entry ``i``.
    """

    def __init__(self, dictionary: FaultDictionary) -> None:
        self.dictionary = dictionary
        self._log_f = np.log10(dictionary.freqs_hz)
        if self._log_f.size < 2:
            raise DictionaryError(
                "response surface needs a grid of at least 2 points")
        self._matrix_db = dictionary.response_matrix_db()
        self._labels: Tuple[str, ...] = (GOLDEN_LABEL,) + dictionary.labels

    @property
    def labels(self) -> Tuple[str, ...]:
        """Row labels: golden first, then fault labels in entry order."""
        return self._labels

    @property
    def f_min_hz(self) -> float:
        return float(self.dictionary.freqs_hz[0])

    @property
    def f_max_hz(self) -> float:
        return float(self.dictionary.freqs_hz[-1])

    @property
    def num_rows(self) -> int:
        return self._matrix_db.shape[0]

    @property
    def matrix_db(self) -> np.ndarray:
        """The dense dB-magnitude matrix, golden row first."""
        return self._matrix_db

    def sample_db(self, freqs_hz: Sequence[float] | np.ndarray,
                  rows: Optional[np.ndarray] = None) -> np.ndarray:
        """dB magnitudes at the query frequencies.

        Returns shape ``(n_rows, n_freqs)``. Queries are clamped to the
        grid ends (consistent with FrequencyResponse interpolation).
        ``rows`` optionally restricts to a subset of row indices.
        """
        with TRACER.span("surface.sample") as trace:
            query = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
            if query.ndim != 1 or query.size == 0:
                raise DictionaryError(
                    "need a non-empty 1-D frequency query")
            if np.any(query <= 0.0):
                raise DictionaryError(
                    "query frequencies must be positive")
            matrix = self._matrix_db if rows is None \
                else self._matrix_db[rows]
            sampled = interpolate_db(self._log_f, matrix, query)
            trace.attrs.update(rows=int(sampled.shape[0]),
                               freqs=int(query.size))
        return sampled

    def golden_db(self, freqs_hz: Sequence[float] | np.ndarray
                  ) -> np.ndarray:
        """Golden dB magnitude at the query frequencies, shape (n_freqs,)."""
        return self.sample_db(freqs_hz, rows=np.array([0]))[0]
