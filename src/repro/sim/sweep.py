"""Parameter sweeps: families of frequency responses.

The fault dictionary is conceptually a value sweep per component; this
module provides the generic machinery (used directly by Fig. 1 of the
paper: the "golden behaviour & fault dictionary items" response family).

Sweeps are variant families over one circuit, so they ride the batched
simulation engine: the nominal circuit is stamped once and every swept
value becomes a delta-stamped variant in a single
:meth:`~repro.sim.engine.BatchedMnaEngine.transfer_block` request --
bitwise-identical to simulating each value's circuit clone separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuits.components import TwoTerminal
from ..circuits.netlist import Circuit
from ..errors import SimulationError
from .ac import FrequencyResponse
from .engine import BatchedMnaEngine, SimulationEngine, VariantTable

__all__ = ["SweepResult", "value_sweep", "deviation_sweep"]


@dataclass(frozen=True)
class SweepResult:
    """Family of responses indexed by the swept parameter value."""

    component: str
    parameter_values: Tuple[float, ...]
    responses: Tuple[FrequencyResponse, ...]
    nominal: FrequencyResponse

    def __post_init__(self) -> None:
        # Exact value -> index map for O(1) lookups, plus a scale-aware
        # absolute tolerance for approximate queries: an rtol-only
        # comparison cannot match a swept value of 0.0, and numpy's
        # default atol (1e-8) would lump together every point of a
        # nano-scale sweep (e.g. capacitances).
        index: Dict[float, int] = {}
        for position, value in enumerate(self.parameter_values):
            index.setdefault(float(value), position)
        object.__setattr__(self, "_value_index", index)
        scale = max((abs(float(v)) for v in self.parameter_values),
                    default=0.0)
        object.__setattr__(self, "_value_atol", 1e-9 * scale)

    def __len__(self) -> int:
        return len(self.responses)

    def response_at(self, value: float) -> FrequencyResponse:
        position = self._value_index.get(float(value))
        if position is None:
            for candidate, parameter in enumerate(self.parameter_values):
                if np.isclose(parameter, value, rtol=1e-9,
                              atol=self._value_atol):
                    position = candidate
                    break
        if position is None:
            raise SimulationError(
                f"no sweep point at {value!r}; have "
                f"{self.parameter_values}")
        return self.responses[position]

    def spread_db(self) -> np.ndarray:
        """Per-frequency spread (max - min dB) across the family.

        Large spread means the swept component visibly moves the response
        there -- exactly what Fig. 1 of the paper illustrates.
        """
        stack = np.vstack([r.magnitude_db for r in self.responses])
        return stack.max(axis=0) - stack.min(axis=0)


def value_sweep(circuit: Circuit, output_node: str, component: str,
                values: Sequence[float], freqs_hz: np.ndarray,
                engine: Optional[SimulationEngine] = None) -> SweepResult:
    """Simulate the circuit once per component value (one engine block)."""
    if not values:
        raise SimulationError("value_sweep needs at least one value")
    target = circuit[component]
    if not isinstance(target, TwoTerminal):
        raise SimulationError(
            f"{circuit.name}: {component!r} has no scalar value "
            f"(it is a {type(target).__name__})")
    freqs = np.asarray(freqs_hz, dtype=float)
    if engine is None:
        engine = BatchedMnaEngine(circuit)
    # Row 0 is the nominal circuit, row i + 1 the i-th value.
    column = [target.value] + [float(value) for value in values]
    variants = VariantTable(((component, "value"),),
                            np.array(column, dtype=float)[:, None],
                            (circuit.name,) * len(column))
    block = engine.transfer_block(output_node, freqs, variants)
    return SweepResult(component, tuple(float(v) for v in values),
                       tuple(block.response(i + 1)
                             for i in range(len(values))),
                       block.response(0))


def deviation_sweep(circuit: Circuit, output_node: str, component: str,
                    deviations: Sequence[float], freqs_hz: np.ndarray,
                    engine: Optional[SimulationEngine] = None
                    ) -> SweepResult:
    """Sweep a component by relative deviations (e.g. -0.4 ... +0.4).

    A deviation of ``-0.4`` means 60 % of nominal -- the paper's fault
    grid is ``deviation_sweep(..., deviations=[-0.4, -0.3, ..., +0.4])``.
    """
    nominal_value = circuit[component].value  # type: ignore[attr-defined]
    values = [nominal_value * (1.0 + float(d)) for d in deviations]
    if any(value <= 0.0 for value in values):
        raise SimulationError(
            f"deviation sweep of {component} produces non-positive values; "
            "deviations must stay above -100%")
    result = value_sweep(circuit, output_node, component, values, freqs_hz,
                         engine=engine)
    return SweepResult(component, tuple(float(d) for d in deviations),
                       result.responses, result.nominal)
