"""AC small-signal analysis and the :class:`FrequencyResponse` container.

``ACAnalysis`` drives a batched MNA sweep and returns transfer functions
normalised by the stimulus phasor, so a source with ``AC 1 0`` gives
``H(f) = V(out)(f)`` directly (SPICE ``.AC`` semantics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..circuits.components import CurrentSource, VoltageSource
from ..circuits.netlist import Circuit
from ..errors import SimulationError
from ..units import db, log_frequency_grid
from .mna import MnaSystem, ac_phasor

__all__ = ["FrequencyResponse", "ACAnalysis", "source_phasor"]


def source_phasor(component, source_name: str, magnitude=None,
                  phase_deg=None):
    """AC stimulus phasor of an independent source, with validation.

    Shared by :class:`ACAnalysis` and the simulation engines so the
    stimulus normalisation (and its error surface) cannot diverge
    between the scalar and batched paths. ``magnitude`` / ``phase_deg``
    override the component's stimulus; arrays give one phasor per
    variant (see :func:`~repro.sim.mna.ac_phasor`).
    """
    if not isinstance(component, (VoltageSource, CurrentSource)):
        raise SimulationError(
            f"{source_name!r} is not an independent source")
    if magnitude is None:
        magnitude = component.ac_magnitude
    if phase_deg is None:
        phase_deg = component.ac_phase_deg
    if np.any(magnitude <= 0.0):
        raise SimulationError(
            f"{source_name!r} has no AC magnitude; set ac=... on the "
            "stimulus source")
    return ac_phasor(magnitude, phase_deg)


@dataclass(frozen=True)
class FrequencyResponse:
    """A complex transfer function sampled on a frequency grid.

    Interpolation is performed on a log-frequency axis: magnitudes are
    interpolated in dB and phases in unwrapped radians, which is accurate
    for the smooth rational responses of linear analog networks.
    """

    freqs_hz: np.ndarray
    values: np.ndarray
    output: str = "out"
    label: str = ""

    def __post_init__(self) -> None:
        freqs = np.asarray(self.freqs_hz, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if freqs.ndim != 1 or values.shape != freqs.shape:
            raise SimulationError(
                "FrequencyResponse needs 1-D freqs and values of equal "
                f"length, got {freqs.shape} and {values.shape}")
        if freqs.size < 1:
            raise SimulationError("FrequencyResponse needs at least 1 point")
        if np.any(freqs <= 0.0):
            raise SimulationError("frequencies must be positive")
        if np.any(np.diff(freqs) <= 0.0):
            raise SimulationError("frequency grid must be strictly "
                                  "increasing")
        object.__setattr__(self, "freqs_hz", freqs)
        object.__setattr__(self, "values", values)

    @classmethod
    def _trusted(cls, freqs_hz: np.ndarray, values: np.ndarray,
                 output: str, label: str) -> "FrequencyResponse":
        """Construct without re-validating an already-checked grid.

        Internal fast path for :class:`~repro.sim.engine.ResponseBlock`,
        which validates the shared grid once and slices many responses
        out of one value matrix. ``freqs_hz``/``values`` must already be
        float/complex arrays satisfying the ``__post_init__`` contract.
        """
        response = object.__new__(cls)
        object.__setattr__(response, "freqs_hz", freqs_hz)
        object.__setattr__(response, "values", values)
        object.__setattr__(response, "output", output)
        object.__setattr__(response, "label", label)
        return response

    def __len__(self) -> int:
        return int(self.freqs_hz.size)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    @property
    def magnitude_db(self) -> np.ndarray:
        return np.asarray(db(self.values), dtype=float)

    @property
    def phase_rad(self) -> np.ndarray:
        return np.unwrap(np.angle(self.values))

    @property
    def phase_deg(self) -> np.ndarray:
        return np.degrees(self.phase_rad)

    def group_delay(self) -> np.ndarray:
        """Group delay ``-d(phase)/d(omega)`` in seconds."""
        omega = 2.0 * np.pi * self.freqs_hz
        return -np.gradient(self.phase_rad, omega)

    # ------------------------------------------------------------------
    # Interpolation
    # ------------------------------------------------------------------
    def _log_f(self) -> np.ndarray:
        return np.log10(self.freqs_hz)

    def magnitude_db_at(self, freqs_hz) -> np.ndarray | float:
        """dB magnitude at arbitrary frequencies (log-f interpolation).

        Queries outside the grid clamp to the endpoints.
        """
        query = np.asarray(freqs_hz, dtype=float)
        scalar = query.ndim == 0
        query = np.atleast_1d(query)
        if np.any(query <= 0.0):
            raise SimulationError("query frequencies must be positive")
        result = np.interp(np.log10(query), self._log_f(),
                           self.magnitude_db)
        return float(result[0]) if scalar else result

    def magnitude_at(self, freqs_hz) -> np.ndarray | float:
        out = self.magnitude_db_at(freqs_hz)
        return np.power(10.0, np.asarray(out) / 20.0) if not np.isscalar(
            out) else 10.0 ** (out / 20.0)

    def phase_rad_at(self, freqs_hz) -> np.ndarray | float:
        query = np.asarray(freqs_hz, dtype=float)
        scalar = query.ndim == 0
        query = np.atleast_1d(query)
        result = np.interp(np.log10(query), self._log_f(), self.phase_rad)
        return float(result[0]) if scalar else result

    def at(self, freqs_hz) -> np.ndarray | complex:
        """Complex response at arbitrary frequencies (mag/phase interp)."""
        magnitude = np.atleast_1d(np.asarray(self.magnitude_at(freqs_hz)))
        phase = np.atleast_1d(np.asarray(self.phase_rad_at(freqs_hz)))
        values = magnitude * np.exp(1j * phase)
        if np.asarray(freqs_hz).ndim == 0:
            return complex(values[0])
        return values

    def resampled(self, freqs_hz: np.ndarray) -> "FrequencyResponse":
        """Response interpolated onto a new grid."""
        values = np.atleast_1d(np.asarray(self.at(freqs_hz)))
        return FrequencyResponse(np.asarray(freqs_hz, dtype=float), values,
                                 self.output, self.label)

    # ------------------------------------------------------------------
    # Characteristics
    # ------------------------------------------------------------------
    def dc_gain_db(self) -> float:
        """Magnitude at the lowest simulated frequency."""
        return float(self.magnitude_db[0])

    def peak(self) -> tuple[float, float]:
        """(frequency, dB) of the magnitude maximum."""
        index = int(np.argmax(self.magnitude_db))
        return float(self.freqs_hz[index]), float(self.magnitude_db[index])

    def notch(self) -> tuple[float, float]:
        """(frequency, dB) of the magnitude minimum."""
        index = int(np.argmin(self.magnitude_db))
        return float(self.freqs_hz[index]), float(self.magnitude_db[index])

    def cutoff_3db(self, reference_db: Optional[float] = None) -> float:
        """First frequency where magnitude falls 3 dB below the reference.

        The reference defaults to the low-frequency gain. Raises if the
        response never crosses the threshold.
        """
        reference = (self.dc_gain_db() if reference_db is None
                     else float(reference_db))
        threshold = reference - 3.0103
        mags = self.magnitude_db
        below = np.nonzero(mags <= threshold)[0]
        if below.size == 0:
            raise SimulationError(
                f"{self.label or self.output}: response never falls 3 dB "
                "below the reference within the simulated band")
        index = int(below[0])
        if index == 0:
            return float(self.freqs_hz[0])
        # Log-linear interpolation between the bracketing grid points.
        f_lo, f_hi = self.freqs_hz[index - 1], self.freqs_hz[index]
        m_lo, m_hi = mags[index - 1], mags[index]
        if m_hi == m_lo:
            return float(f_hi)
        fraction = (threshold - m_lo) / (m_hi - m_lo)
        return float(10.0 ** (math.log10(f_lo) +
                              fraction * math.log10(f_hi / f_lo)))


class ACAnalysis:
    """Small-signal frequency-domain analysis of one circuit."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.system = MnaSystem(circuit)

    def _source_phasor(self, source_name: str) -> complex:
        return source_phasor(self.circuit[source_name], source_name)

    def transfer(self, output_node: str,
                 freqs_hz: np.ndarray | Sequence[float],
                 input_source: Optional[str] = None) -> FrequencyResponse:
        """Transfer function ``V(output) / stimulus`` over a grid."""
        source_name = input_source or self.circuit.ac_source_name()
        phasor = self._source_phasor(source_name)
        freqs = np.asarray(freqs_hz, dtype=float)
        solutions = self.system.solve_frequencies(freqs)
        index = self.system.node_index(output_node)
        if index < 0:
            values = np.zeros(freqs.size, dtype=complex)
        else:
            values = solutions[:, index] / phasor
        return FrequencyResponse(freqs, values, output=output_node,
                                 label=f"{self.circuit.name}:{output_node}")

    def transfer_auto(self, output_node: str, f_min_hz: float,
                      f_max_hz: float, points: int = 401,
                      input_source: Optional[str] = None
                      ) -> FrequencyResponse:
        """Transfer over an auto-built log grid."""
        grid = log_frequency_grid(f_min_hz, f_max_hz, points)
        return self.transfer(output_node, grid, input_source)

    def node_voltages(self, freqs_hz: np.ndarray
                      ) -> Dict[str, FrequencyResponse]:
        """Raw node-voltage phasors (not normalised) for every node."""
        freqs = np.asarray(freqs_hz, dtype=float)
        solutions = self.system.solve_frequencies(freqs)
        result: Dict[str, FrequencyResponse] = {}
        for name in self.system.node_names:
            index = self.system.node_index(name)
            result[name] = FrequencyResponse(
                freqs, solutions[:, index], output=name,
                label=f"{self.circuit.name}:{name}")
        return result
