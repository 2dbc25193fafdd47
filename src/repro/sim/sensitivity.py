"""Component sensitivity analysis of the magnitude response.

Computes normalised (semi-relative) sensitivities::

    S_c(f) = d |H(f)|_dB / d ln(value_c)

by central finite differences on the component value. The two
perturbed circuits per component form one variant family, solved in a
single :meth:`~repro.sim.engine.BatchedMnaEngine.transfer_block`
request -- bitwise-identical to simulating each perturbed clone
separately. Frequencies where components have large *and distinct*
sensitivities are good test-frequency candidates;
:func:`rank_frequencies` exposes that heuristic as a deterministic
baseline for the GA (used in the T-ACC benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuits.components import TwoTerminal
from ..circuits.netlist import Circuit
from ..errors import SimulationError
from .engine import BatchedMnaEngine, VariantTable

__all__ = ["SensitivityResult", "sensitivity_analysis", "rank_frequencies"]


@dataclass(frozen=True)
class SensitivityResult:
    """dB-magnitude sensitivities per component over a frequency grid."""

    freqs_hz: np.ndarray
    sensitivities: Dict[str, np.ndarray]  # component -> dB per ln(value)

    def component(self, name: str) -> np.ndarray:
        try:
            return self.sensitivities[name]
        except KeyError:
            raise SimulationError(
                f"no sensitivity computed for {name!r}; have "
                f"{sorted(self.sensitivities)}") from None

    def most_sensitive_frequency(self, name: str) -> float:
        curve = np.abs(self.component(name))
        return float(self.freqs_hz[int(np.argmax(curve))])

    def matrix(self, order: Optional[Sequence[str]] = None) -> np.ndarray:
        """Sensitivities stacked as (n_components, n_freqs)."""
        names = list(order) if order else sorted(self.sensitivities)
        return np.vstack([self.component(name) for name in names])


def sensitivity_analysis(circuit: Circuit, output_node: str,
                         freqs_hz: np.ndarray,
                         components: Optional[Sequence[str]] = None,
                         rel_step: float = 0.01) -> SensitivityResult:
    """Central-difference sensitivity of the output dB magnitude.

    ``rel_step`` is the relative perturbation applied to each component
    value (1 % by default, well inside the linear regime for the smooth
    responses this library targets).
    """
    if not 0.0 < rel_step < 0.5:
        raise SimulationError("rel_step must be in (0, 0.5)")
    freqs = np.asarray(freqs_hz, dtype=float)
    targets = tuple(components) if components else circuit.passive_names
    if not targets:
        raise SimulationError(
            f"{circuit.name}: no components to analyse")

    for name in targets:
        component = circuit[name]
        if not isinstance(component, TwoTerminal):
            raise SimulationError(
                f"{circuit.name}: {name!r} has no scalar value "
                f"(it is a {type(component).__name__})")
    # One up/down variant pair per component: rows 2i and 2i + 1, a
    # value column per distinct component.
    names = tuple(dict.fromkeys(targets))
    column = [names.index(name) for name in targets]
    nominal = np.array([circuit[name].value for name in names])
    values = np.tile(nominal, (2 * len(targets), 1))
    for i, j in enumerate(column):
        values[2 * i, j] = nominal[j] * (1.0 + rel_step)
        values[2 * i + 1, j] = nominal[j] * (1.0 - rel_step)
    variants = VariantTable(tuple((name, "value") for name in names),
                            values, (circuit.name,) * len(values))
    magnitude = BatchedMnaEngine(circuit).transfer_block(
        output_node, freqs, variants).magnitude_db()
    # d(dB)/d ln v  ~  (dB(v*(1+e)) - dB(v*(1-e))) / (2e)
    sensitivities: Dict[str, np.ndarray] = {
        name: (magnitude[2 * i] - magnitude[2 * i + 1]) / (2.0 * rel_step)
        for i, name in enumerate(targets)}
    return SensitivityResult(freqs, sensitivities)


def rank_frequencies(result: SensitivityResult, count: int = 2,
                     min_decade_gap: float = 0.3) -> Tuple[float, ...]:
    """Pick ``count`` frequencies with high, mutually-distinct sensitivity.

    Scores each grid frequency by the *spread* of component sensitivities
    (a frequency where all components react identically cannot separate
    them), then greedily picks the best frequencies at least
    ``min_decade_gap`` decades apart.
    """
    if count < 1:
        raise SimulationError("count must be >= 1")
    matrix = result.matrix()            # (n_components, n_freqs)
    spread = np.std(matrix, axis=0)     # distinguishing power per frequency
    order = np.argsort(spread)[::-1]
    chosen: list[float] = []
    for index in order:
        freq = float(result.freqs_hz[index])
        if all(abs(np.log10(freq / other)) >= min_decade_gap
               for other in chosen):
            chosen.append(freq)
        if len(chosen) == count:
            break
    if len(chosen) < count:
        raise SimulationError(
            f"could only find {len(chosen)} frequencies {min_decade_gap} "
            f"decades apart; relax the gap or enlarge the grid")
    return tuple(sorted(chosen))
