"""Fault models: the functional parametric fault paradigm of the paper.

Section 2.1: *"a fault in a circuit will be the result of a parametric
deviation in a component value. This way, faults in R & C are represented
as % deviations on their values, and faults on active devices will be
represented as % deviation on the values of their macro model."*

Three fault kinds are provided:

* :class:`ParametricFault` -- relative deviation of a passive value (the
  paper's model);
* :class:`OpAmpParamFault` -- relative deviation of one op-amp macromodel
  parameter (the paper's active-device model);
* :class:`CatastrophicFault` -- open/short extremes (extension; classical
  hard faults, approximated by extreme value substitution).

A fault knows how to *apply* itself to a circuit, returning a new faulty
circuit; circuits are immutable so injection is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..circuits.components import (
    Capacitor,
    Inductor,
    OpAmpMacro,
    Resistor,
    TwoTerminal,
)
from ..circuits.netlist import Circuit
from ..errors import FaultError

__all__ = [
    "Fault",
    "ParametricFault",
    "CatastrophicFault",
    "OpAmpParamFault",
    "GOLDEN_LABEL",
    "paper_deviation_grid",
]

GOLDEN_LABEL = "golden"

# Extreme substitution values for catastrophic faults. AC analyses see an
# open resistor as a near-zero admittance and a shorted capacitor as a
# near-infinite one; exact zeros/infinities would make the MNA singular.
_OPEN_RESISTANCE = 1e12
_SHORT_RESISTANCE = 1e-3
_OPEN_CAPACITANCE = 1e-18
_SHORT_CAPACITANCE = 1.0
_OPEN_INDUCTANCE = 1e6
_SHORT_INDUCTANCE = 1e-12


def paper_deviation_grid(max_deviation: float = 0.4,
                         step: float = 0.1) -> Tuple[float, ...]:
    """The paper's fault grid: +/-step ... +/-max, zero excluded.

    Defaults give (-0.4, -0.3, -0.2, -0.1, +0.1, +0.2, +0.3, +0.4) --
    component values from 60 % to 140 % of nominal in 10 % steps.
    """
    if not 0.0 < step <= max_deviation:
        raise FaultError("need 0 < step <= max_deviation")
    count = int(round(max_deviation / step))
    if abs(count * step - max_deviation) > 1e-9:
        raise FaultError(
            f"max_deviation {max_deviation} is not a multiple of "
            f"step {step}")
    positive = [round(step * k, 10) for k in range(1, count + 1)]
    negative = [-d for d in reversed(positive)]
    return tuple(negative + positive)


@dataclass(frozen=True)
class Fault:
    """Base class: something wrong with one named component."""

    component: str

    @property
    def label(self) -> str:
        """Unique human-readable identifier, used as dictionary key."""
        raise NotImplementedError

    def replacement_component(self, circuit: Circuit):
        """The faulted component that replaces the nominal one.

        This is the single-component delta every fault reduces to;
        :meth:`~repro.sim.engine.VariantTable.of_faults` turns it into
        the fault's row of engine variants instead of cloning the
        circuit, and :meth:`apply` wraps it into a faulty copy.

        Subclasses that only override :meth:`apply` (the historical
        extension contract) are still supported: the base
        implementation applies the fault and diffs the faulty circuit
        against the nominal one. Faults that add, remove or rewire
        components cannot be expressed as a replacement and raise
        :class:`FaultError`.
        """
        if type(self).apply is Fault.apply:
            raise NotImplementedError(
                f"{type(self).__name__} must implement "
                "replacement_component() or apply()")
        faulty = self.apply(circuit)
        if faulty.component_names != circuit.component_names:
            raise FaultError(
                f"{self.label}: apply() changes the component set; such "
                "faults cannot be delta-stamped by the simulation "
                "engine -- implement replacement_component() or keep "
                "the topology fixed")
        changed = [component for component in faulty
                   if component != circuit[component.name]]
        if len(changed) != 1:
            raise FaultError(
                f"{self.label}: apply() changed {len(changed)} "
                "components; replacement_component() expects exactly "
                "one -- override it for multi-component faults")
        return changed[0]

    def apply(self, circuit: Circuit) -> Circuit:
        """Return a faulty copy of ``circuit``."""
        return circuit.with_component(
            self.replacement_component(circuit),
            name=f"{circuit.name}#{self.label}")

    def _require(self, circuit: Circuit):
        if self.component not in circuit:
            raise FaultError(
                f"fault target {self.component!r} not in circuit "
                f"{circuit.name!r}")
        return circuit[self.component]


@dataclass(frozen=True)
class ParametricFault(Fault):
    """Relative deviation of a passive component value.

    ``deviation`` is relative: ``+0.2`` means 120 % of nominal, ``-0.4``
    means 60 % of nominal. Must stay above -1 (values stay positive).
    """

    deviation: float = 0.0

    def __post_init__(self) -> None:
        if self.deviation <= -1.0:
            raise FaultError(
                f"{self.component}: deviation {self.deviation} would make "
                "the value non-positive")

    @property
    def label(self) -> str:
        return f"{self.component}{self.deviation * 100.0:+.6g}%"

    def replacement_component(self, circuit: Circuit) -> TwoTerminal:
        target = self._require(circuit)
        if not isinstance(target, TwoTerminal):
            raise FaultError(
                f"{self.component!r} is a {type(target).__name__}; "
                "parametric faults target two-terminal passives "
                "(use OpAmpParamFault for active devices)")
        return target.with_value(target.value * (1.0 + self.deviation))


@dataclass(frozen=True)
class CatastrophicFault(Fault):
    """Open or short of a passive component (extension to the paper).

    Approximated by extreme value substitution so the network stays
    solvable; the substituted values are component-type aware.
    """

    kind: str = "open"

    _VALUES = {
        (Resistor, "open"): _OPEN_RESISTANCE,
        (Resistor, "short"): _SHORT_RESISTANCE,
        (Capacitor, "open"): _OPEN_CAPACITANCE,
        (Capacitor, "short"): _SHORT_CAPACITANCE,
        (Inductor, "open"): _OPEN_INDUCTANCE,
        (Inductor, "short"): _SHORT_INDUCTANCE,
    }

    def __post_init__(self) -> None:
        if self.kind not in ("open", "short"):
            raise FaultError(
                f"{self.component}: catastrophic kind must be 'open' or "
                f"'short', got {self.kind!r}")

    @property
    def label(self) -> str:
        return f"{self.component}:{self.kind}"

    def replacement_component(self, circuit: Circuit) -> TwoTerminal:
        target = self._require(circuit)
        for component_type in (Resistor, Capacitor, Inductor):
            if isinstance(target, component_type):
                return target.with_value(
                    self._VALUES[(component_type, self.kind)])
        raise FaultError(
            f"{self.component!r} is a {type(target).__name__}; "
            "catastrophic faults target R, C or L")


@dataclass(frozen=True)
class OpAmpParamFault(Fault):
    """Relative deviation of one op-amp macromodel parameter.

    This is the paper's active-device fault: a % deviation on a macromodel
    value (a0, pole_hz, rin or rout).
    """

    param: str = "a0"
    deviation: float = 0.0

    def __post_init__(self) -> None:
        if self.deviation <= -1.0:
            raise FaultError(
                f"{self.component}.{self.param}: deviation "
                f"{self.deviation} would make the parameter non-positive")

    @property
    def label(self) -> str:
        return (f"{self.component}.{self.param}"
                f"{self.deviation * 100.0:+.6g}%")

    def replacement_component(self, circuit: Circuit) -> OpAmpMacro:
        target = self._require(circuit)
        if not isinstance(target, OpAmpMacro):
            raise FaultError(
                f"{self.component!r} is a {type(target).__name__}; "
                "OpAmpParamFault targets OpAmpMacro devices (build the "
                "circuit with ideal_opamps=False)")
        nominal = target.params[self.param] if self.param in target.params \
            else None
        if nominal is None:
            raise FaultError(
                f"{self.component}: macromodel has no parameter "
                f"{self.param!r}")
        return target.with_param(self.param,
                                 nominal * (1.0 + self.deviation))
