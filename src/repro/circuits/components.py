"""Circuit component definitions.

Components are plain dataclasses: they carry nominal values and terminal
node names but no simulation logic. The MNA builder in :mod:`repro.sim.mna`
knows how to stamp each type; keeping the two layers separate lets fault
injection clone and mutate components without touching the simulator.

Conventions
-----------
* Node names are strings; ``"0"`` (or the :data:`GROUND` constant) is ground.
* Every component has a unique ``name`` (its reference designator, e.g.
  ``"R3"``). Fault specifications address components by this name.
* Two-terminal passives expose a single ``value`` attribute; the op-amp
  macromodel exposes a parameter dictionary instead (its parameters are the
  fault targets for active devices, per the FFM fault model).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..errors import ComponentError

__all__ = [
    "GROUND",
    "Component",
    "TwoTerminal",
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "VCVS",
    "VCCS",
    "CCVS",
    "CCCS",
    "IdealOpAmp",
    "OpAmpMacro",
    "OPAMP_MACRO_PARAMS",
]

GROUND = "0"


def _check_name(name: str) -> str:
    if not name or not isinstance(name, str):
        raise ComponentError("component name must be a non-empty string")
    if any(ch.isspace() for ch in name):
        raise ComponentError(f"component name may not contain spaces: {name!r}")
    return name


def _check_node(node: str, what: str) -> str:
    if not isinstance(node, str) or not node:
        raise ComponentError(f"{what} must be a non-empty string node name")
    if any(ch.isspace() for ch in node):
        raise ComponentError(f"node name may not contain spaces: {node!r}")
    return node


def _check_positive(value: float, what: str) -> float:
    value = float(value)
    if not value > 0.0:
        raise ComponentError(f"{what} must be positive, got {value}")
    if value != value or value in (float("inf"), float("-inf")):
        raise ComponentError(f"{what} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class Component:
    """Base class for all circuit elements."""

    name: str

    def __post_init__(self) -> None:
        _check_name(self.name)

    @property
    def nodes(self) -> Tuple[str, ...]:
        """All node names this component touches (overridden by subclasses)."""
        raise NotImplementedError

    def renamed(self, name: str) -> "Component":
        """Copy of this component under a new reference designator."""
        return dataclasses.replace(self, name=name)


@dataclass(frozen=True)
class TwoTerminal(Component):
    """A two-terminal element with a scalar ``value``."""

    positive: str
    negative: str
    value: float

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_node(self.positive, "positive terminal")
        _check_node(self.negative, "negative terminal")
        if self.positive == self.negative:
            raise ComponentError(
                f"{self.name}: both terminals connect to node "
                f"{self.positive!r}; a two-terminal element may not be "
                "shorted onto a single node")

    @property
    def nodes(self) -> Tuple[str, ...]:
        return (self.positive, self.negative)

    def with_value(self, value: float) -> "TwoTerminal":
        """Copy of this element with a different value (fault injection)."""
        return dataclasses.replace(self, value=value)


@dataclass(frozen=True)
class Resistor(TwoTerminal):
    """Linear resistor; ``value`` in ohms."""

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_positive(self.value, f"{self.name}: resistance")


@dataclass(frozen=True)
class Capacitor(TwoTerminal):
    """Linear capacitor; ``value`` in farads."""

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_positive(self.value, f"{self.name}: capacitance")


@dataclass(frozen=True)
class Inductor(TwoTerminal):
    """Linear inductor; ``value`` in henries.

    Stamped with an explicit branch current, so ``A(s) = G + s B`` stays
    affine in ``s`` and the system is well-posed down to ``s = 0``
    (where the inductor is a short).
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_positive(self.value, f"{self.name}: inductance")


@dataclass(frozen=True)
class VoltageSource(TwoTerminal):
    """Independent voltage source.

    ``value`` is the DC value; ``ac_magnitude``/``ac_phase_deg`` define the
    phasor used by AC analysis (SPICE ``AC`` specification). The branch
    current is an MNA unknown, so this source can also serve as an ammeter
    for current-controlled sources.
    """

    ac_magnitude: float = 0.0
    ac_phase_deg: float = 0.0

    def __post_init__(self) -> None:
        _check_name(self.name)
        _check_node(self.positive, "positive terminal")
        _check_node(self.negative, "negative terminal")
        if self.positive == self.negative:
            raise ComponentError(
                f"{self.name}: source terminals must differ")
        if self.ac_magnitude < 0:
            raise ComponentError(
                f"{self.name}: AC magnitude must be non-negative")


@dataclass(frozen=True)
class CurrentSource(TwoTerminal):
    """Independent current source (current flows positive -> negative)."""

    ac_magnitude: float = 0.0
    ac_phase_deg: float = 0.0

    def __post_init__(self) -> None:
        _check_name(self.name)
        _check_node(self.positive, "positive terminal")
        _check_node(self.negative, "negative terminal")
        if self.positive == self.negative:
            raise ComponentError(
                f"{self.name}: source terminals must differ")
        if self.ac_magnitude < 0:
            raise ComponentError(
                f"{self.name}: AC magnitude must be non-negative")


@dataclass(frozen=True)
class VCVS(Component):
    """Voltage-controlled voltage source (SPICE ``E``): Vout = gain * Vctrl."""

    positive: str
    negative: str
    ctrl_positive: str
    ctrl_negative: str
    gain: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        for node, what in ((self.positive, "output+"),
                           (self.negative, "output-"),
                           (self.ctrl_positive, "control+"),
                           (self.ctrl_negative, "control-")):
            _check_node(node, f"{self.name}: {what}")
        if self.positive == self.negative:
            raise ComponentError(f"{self.name}: output terminals must differ")

    @property
    def nodes(self) -> Tuple[str, ...]:
        return (self.positive, self.negative,
                self.ctrl_positive, self.ctrl_negative)


@dataclass(frozen=True)
class VCCS(Component):
    """Voltage-controlled current source (SPICE ``G``): I = gm * Vctrl."""

    positive: str
    negative: str
    ctrl_positive: str
    ctrl_negative: str
    transconductance: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        for node, what in ((self.positive, "output+"),
                           (self.negative, "output-"),
                           (self.ctrl_positive, "control+"),
                           (self.ctrl_negative, "control-")):
            _check_node(node, f"{self.name}: {what}")

    @property
    def nodes(self) -> Tuple[str, ...]:
        return (self.positive, self.negative,
                self.ctrl_positive, self.ctrl_negative)


@dataclass(frozen=True)
class CCVS(Component):
    """Current-controlled voltage source (SPICE ``H``).

    The controlling current is the branch current of the named voltage
    source ``ctrl_source`` (SPICE semantics: a 0 V source acts as ammeter).
    """

    positive: str
    negative: str
    ctrl_source: str
    transresistance: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_node(self.positive, f"{self.name}: output+")
        _check_node(self.negative, f"{self.name}: output-")
        _check_name(self.ctrl_source)
        if self.positive == self.negative:
            raise ComponentError(f"{self.name}: output terminals must differ")

    @property
    def nodes(self) -> Tuple[str, ...]:
        return (self.positive, self.negative)


@dataclass(frozen=True)
class CCCS(Component):
    """Current-controlled current source (SPICE ``F``)."""

    positive: str
    negative: str
    ctrl_source: str
    gain: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_node(self.positive, f"{self.name}: output+")
        _check_node(self.negative, f"{self.name}: output-")
        _check_name(self.ctrl_source)

    @property
    def nodes(self) -> Tuple[str, ...]:
        return (self.positive, self.negative)


@dataclass(frozen=True)
class IdealOpAmp(Component):
    """Ideal op-amp (nullor): infinite gain, zero input current.

    Stamped as the constraint ``V(in+) == V(in-)`` with the output free to
    supply whatever current satisfies it. Requires negative feedback to be
    well-posed, as in real life.
    """

    in_positive: str
    in_negative: str
    output: str

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_node(self.in_positive, f"{self.name}: in+")
        _check_node(self.in_negative, f"{self.name}: in-")
        _check_node(self.output, f"{self.name}: output")
        if self.in_positive == self.in_negative:
            raise ComponentError(
                f"{self.name}: differential inputs must be distinct nodes")

    @property
    def nodes(self) -> Tuple[str, ...]:
        return (self.in_positive, self.in_negative, self.output)


# Fault-targetable parameters of the op-amp macromodel (the FFM parameter
# set): DC gain, dominant pole frequency, input and output resistance.
OPAMP_MACRO_PARAMS = ("a0", "pole_hz", "rin", "rout")


@dataclass(frozen=True)
class OpAmpMacro(Component):
    """Single-pole finite-gain op-amp macromodel.

    Open-loop transfer: ``A(s) = a0 / (1 + s / (2*pi*pole_hz))`` with input
    resistance ``rin`` across the differential inputs and output resistance
    ``rout`` in series with the output. This is the functional macromodel
    whose parameters carry the active-device parametric faults (Sec. 2.1 of
    the paper / the FFM of Calvano et al.).

    The MNA builder expands the macro into primitive stamps (Rin, a VCCS
    into an internal RC pole node, a unity VCVS and Rout) on the fly; the
    internal nodes are namespaced by the component name.
    """

    in_positive: str
    in_negative: str
    output: str
    params: Dict[str, float] = field(default_factory=dict)

    DEFAULTS = {
        "a0": 2.0e5,        # DC open-loop gain (e.g. a uA741-class part)
        "pole_hz": 5.0,     # dominant pole -> GBW = a0 * pole_hz = 1 MHz
        "rin": 2.0e6,       # differential input resistance [ohm]
        "rout": 75.0,       # output resistance [ohm]
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_node(self.in_positive, f"{self.name}: in+")
        _check_node(self.in_negative, f"{self.name}: in-")
        _check_node(self.output, f"{self.name}: output")
        if self.in_positive == self.in_negative:
            raise ComponentError(
                f"{self.name}: differential inputs must be distinct nodes")
        merged = dict(self.DEFAULTS)
        for key, value in self.params.items():
            if key not in OPAMP_MACRO_PARAMS:
                raise ComponentError(
                    f"{self.name}: unknown macro parameter {key!r}; "
                    f"expected one of {OPAMP_MACRO_PARAMS}")
            merged[key] = _check_positive(value, f"{self.name}: {key}")
        object.__setattr__(self, "params", merged)

    @property
    def nodes(self) -> Tuple[str, ...]:
        return (self.in_positive, self.in_negative, self.output)

    @property
    def a0(self) -> float:
        return self.params["a0"]

    @property
    def pole_hz(self) -> float:
        return self.params["pole_hz"]

    @property
    def rin(self) -> float:
        return self.params["rin"]

    @property
    def rout(self) -> float:
        return self.params["rout"]

    @property
    def gbw_hz(self) -> float:
        """Gain-bandwidth product in Hz."""
        return self.a0 * self.pole_hz

    def with_param(self, param: str, value: float) -> "OpAmpMacro":
        """Copy of this macro with one parameter replaced (fault injection)."""
        if param not in OPAMP_MACRO_PARAMS:
            raise ComponentError(
                f"{self.name}: unknown macro parameter {param!r}")
        new_params = dict(self.params)
        new_params[param] = value
        return dataclasses.replace(self, params=new_params)
