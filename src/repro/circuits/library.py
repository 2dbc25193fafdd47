"""Benchmark circuit library.

Provides the paper's circuit under test -- a normalized biquad
negative-feedback low-pass filter with seven faultable passive components
(Tow-Thomas topology, per the FFM benchmark of Calvano et al.) -- plus the
standard active-filter benchmarks used by the cross-circuit experiments
(Sallen-Key, KHN state-variable, MFB band-pass, twin-T notch) and passive
ladders for simulator scaling studies.

Every factory returns a :class:`CircuitInfo`: the circuit itself plus the
metadata the diagnosis pipeline needs (stimulus source, observed output
node, which components are fault targets, and a sensible frequency band).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from ..errors import CircuitError
from ..units import TWO_PI
from .netlist import Circuit

__all__ = [
    "CircuitInfo",
    "tow_thomas_biquad",
    "sallen_key_lowpass",
    "khn_state_variable",
    "mfb_bandpass",
    "twin_t_notch",
    "lc_ladder_lowpass5",
    "rc_ladder",
    "rc_lowpass",
    "voltage_divider",
    "BENCHMARK_CIRCUITS",
    "get_benchmark",
]


@dataclass(frozen=True)
class CircuitInfo:
    """A benchmark circuit plus the metadata the test pipeline consumes."""

    circuit: Circuit
    input_source: str
    output_node: str
    faultable: Tuple[str, ...]
    f0_hz: float
    f_min_hz: float
    f_max_hz: float
    description: str = ""
    extra_outputs: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.input_source not in self.circuit:
            raise CircuitError(
                f"{self.circuit.name}: input source {self.input_source!r} "
                "not in circuit")
        nodes = set(self.circuit.nodes)
        if self.output_node not in nodes:
            raise CircuitError(
                f"{self.circuit.name}: output node {self.output_node!r} "
                "not in circuit")
        for name in self.faultable:
            if name not in self.circuit:
                raise CircuitError(
                    f"{self.circuit.name}: faultable component {name!r} "
                    "not in circuit")


def tow_thomas_biquad(f0_hz: float = 1e3, q: float = 1.0,
                      gain: float = 1.0, r_base: float = 1e4,
                      normalized: bool = False,
                      ideal_opamps: bool = True) -> CircuitInfo:
    """The paper's CUT: normalized biquad negative-feedback low-pass filter.

    Three-op-amp Tow-Thomas topology. The low-pass transfer function with
    ideal op-amps is::

        H(s) = (1 / (R1 R4 C1 C2)) / (s^2 + s/(R2 C1) + 1/(R3 R4 C1 C2))

    giving ``w0 = 1/sqrt(R3 R4 C1 C2)``, ``Q = w0 R2 C1`` and DC gain
    ``R3/R1``. The seven faultable passives of the paper's example are
    R1-R5, C1, C2; the inverter's second resistor R6 is treated as the
    fault-free half of a matched pair (a substitution this library makes,
    so the faultable set is the paper's seven passives).

    With ``normalized=True`` the element values are the textbook normalized
    design (R = 1 ohm, C = 1 F, w0 = 1 rad/s) and ``f0_hz``/``r_base`` are
    ignored.
    """
    if q <= 0 or gain <= 0:
        raise CircuitError("tow_thomas_biquad: q and gain must be positive")
    if normalized:
        r = 1.0
        c = 1.0
        f0 = 1.0 / TWO_PI
    else:
        r = float(r_base)
        c = 1.0 / (TWO_PI * f0_hz * r)
        f0 = float(f0_hz)

    ckt = Circuit("tow_thomas_biquad")
    ckt.add_voltage_source("VIN", "in", "0", dc=0.0, ac=1.0)
    # Stage 1 -- lossy inverting integrator (summing node x1, output "bp").
    ckt.add_resistor("R1", "in", "x1", r / gain)      # input, sets DC gain
    ckt.add_resistor("R2", "x1", "bp", q * r)         # damping, sets Q
    ckt.add_capacitor("C1", "x1", "bp", c)
    ckt.add_resistor("R3", "inv", "x1", r)            # loop feedback
    # Stage 2 -- inverting integrator (output "lp" is the observed output).
    ckt.add_resistor("R4", "bp", "x2", r)
    ckt.add_capacitor("C2", "x2", "lp", c)
    # Stage 3 -- unity inverter closing the loop.
    ckt.add_resistor("R5", "lp", "x3", r)
    ckt.add_resistor("R6", "x3", "inv", r)            # matched pair, not faulted
    if ideal_opamps:
        ckt.add_ideal_opamp("OA1", "0", "x1", "bp")
        ckt.add_ideal_opamp("OA2", "0", "x2", "lp")
        ckt.add_ideal_opamp("OA3", "0", "x3", "inv")
    else:
        ckt.add_opamp_macro("OA1", "0", "x1", "bp")
        ckt.add_opamp_macro("OA2", "0", "x2", "lp")
        ckt.add_opamp_macro("OA3", "0", "x3", "inv")
    ckt.validate()
    return CircuitInfo(
        circuit=ckt,
        input_source="VIN",
        output_node="lp",
        faultable=("R1", "R2", "R3", "R4", "R5", "C1", "C2"),
        f0_hz=f0,
        f_min_hz=f0 / 100.0,
        f_max_hz=f0 * 1000.0,
        description=("Normalized biquad negative-feedback low-pass filter "
                     "(Tow-Thomas, 3 op-amps); the DATE'05 paper's CUT with "
                     "seven faultable passives."),
        extra_outputs={"bandpass": "bp", "inverter": "inv"},
    )


def sallen_key_lowpass(f0_hz: float = 1e3, q: float = 1.0 / math.sqrt(2.0),
                       r_base: float = 1e4,
                       ideal_opamps: bool = True) -> CircuitInfo:
    """Unity-gain Sallen-Key low-pass (2nd order, one op-amp).

    With equal resistors R and capacitor ratio ``C1/C2 = 4 Q^2``::

        w0 = 1 / (R sqrt(C1 C2)),   Q = sqrt(C1/C2) / 2
    """
    if q <= 0:
        raise CircuitError("sallen_key_lowpass: q must be positive")
    r = float(r_base)
    c2 = 1.0 / (TWO_PI * f0_hz * r * 2.0 * q)
    c1 = 4.0 * q * q * c2

    ckt = Circuit("sallen_key_lowpass")
    ckt.add_voltage_source("VIN", "in", "0", dc=0.0, ac=1.0)
    ckt.add_resistor("R1", "in", "a", r)
    ckt.add_resistor("R2", "a", "b", r)
    ckt.add_capacitor("C1", "a", "out", c1)   # positive-feedback capacitor
    ckt.add_capacitor("C2", "b", "0", c2)
    if ideal_opamps:
        ckt.add_ideal_opamp("OA1", "b", "out", "out")
    else:
        ckt.add_opamp_macro("OA1", "b", "out", "out")
    ckt.validate()
    return CircuitInfo(
        circuit=ckt,
        input_source="VIN",
        output_node="out",
        faultable=("R1", "R2", "C1", "C2"),
        f0_hz=float(f0_hz),
        f_min_hz=f0_hz / 100.0,
        f_max_hz=f0_hz * 1000.0,
        description="Unity-gain Sallen-Key 2nd-order low-pass.",
    )


def khn_state_variable(f0_hz: float = 1e3, q: float = 1.0,
                       r_base: float = 1e4,
                       ideal_opamps: bool = True) -> CircuitInfo:
    """KHN state-variable biquad (HP/BP/LP outputs, 3 op-amps).

    Summer with equal resistors Ra and band-pass feedback through the
    non-inverting divider R4/R5 with ratio ``alpha = R5/(R4+R5) = 1/(3Q)``::

        Hhp(s) = -s^2 / (s^2 + 3 alpha w0 s + w0^2)

    The observed output is the low-pass node.
    """
    if q <= 1.0 / 3.0 + 1e-12:
        raise CircuitError(
            "khn_state_variable: q must exceed 1/3 for a positive R4")
    r = float(r_base)
    c = 1.0 / (TWO_PI * f0_hz * r)
    alpha = 1.0 / (3.0 * q)
    r5 = r
    r4 = r5 * (1.0 - alpha) / alpha  # R4 = R5 (3Q - 1)

    ckt = Circuit("khn_state_variable")
    ckt.add_voltage_source("VIN", "in", "0", dc=0.0, ac=1.0)
    # Summer A1: inverting input sums vin, vlp and vhp through equal Ra.
    ckt.add_resistor("R1", "in", "ns", r)
    ckt.add_resistor("R2", "lp", "ns", r)
    ckt.add_resistor("R3", "hp", "ns", r)
    # Non-inverting side: band-pass feedback divider.
    ckt.add_resistor("R4", "bp", "np", r4)
    ckt.add_resistor("R5", "np", "0", r5)
    # Integrators.
    ckt.add_resistor("R6", "hp", "xi1", r)
    ckt.add_capacitor("C1", "xi1", "bp", c)
    ckt.add_resistor("R7", "bp", "xi2", r)
    ckt.add_capacitor("C2", "xi2", "lp", c)
    if ideal_opamps:
        ckt.add_ideal_opamp("OA1", "np", "ns", "hp")
        ckt.add_ideal_opamp("OA2", "0", "xi1", "bp")
        ckt.add_ideal_opamp("OA3", "0", "xi2", "lp")
    else:
        ckt.add_opamp_macro("OA1", "np", "ns", "hp")
        ckt.add_opamp_macro("OA2", "0", "xi1", "bp")
        ckt.add_opamp_macro("OA3", "0", "xi2", "lp")
    ckt.validate()
    return CircuitInfo(
        circuit=ckt,
        input_source="VIN",
        output_node="lp",
        faultable=("R1", "R2", "R3", "R4", "R5", "R6", "R7", "C1", "C2"),
        f0_hz=float(f0_hz),
        f_min_hz=f0_hz / 100.0,
        f_max_hz=f0_hz * 1000.0,
        description="KHN state-variable biquad; LP output observed.",
        extra_outputs={"highpass": "hp", "bandpass": "bp"},
    )


def mfb_bandpass(f0_hz: float = 1e3, q: float = 2.0, gain: float = 1.0,
                 c_base: float = 1e-8,
                 ideal_opamps: bool = True) -> CircuitInfo:
    """Multiple-feedback (infinite-gain) band-pass, one op-amp.

    Equal capacitors C; design equations for centre frequency ``f0``,
    quality ``q`` and centre-band gain ``gain``::

        R3 = 2 q / (w0 C)            (feedback)
        R1 = R3 / (2 gain)           (input)
        R2 = q / ((2 q^2 - gain) w0 C)  (shunt; needs 2 q^2 > gain)
    """
    if 2.0 * q * q <= gain:
        raise CircuitError(
            "mfb_bandpass: needs 2*q^2 > gain for a positive shunt resistor")
    w0 = TWO_PI * f0_hz
    c = float(c_base)
    r3 = 2.0 * q / (w0 * c)
    r1 = r3 / (2.0 * gain)
    r2 = q / ((2.0 * q * q - gain) * w0 * c)

    ckt = Circuit("mfb_bandpass")
    ckt.add_voltage_source("VIN", "in", "0", dc=0.0, ac=1.0)
    ckt.add_resistor("R1", "in", "a", r1)
    ckt.add_resistor("R2", "a", "0", r2)
    ckt.add_capacitor("C1", "a", "x", c)
    ckt.add_capacitor("C2", "a", "out", c)
    ckt.add_resistor("R3", "x", "out", r3)
    if ideal_opamps:
        ckt.add_ideal_opamp("OA1", "0", "x", "out")
    else:
        ckt.add_opamp_macro("OA1", "0", "x", "out")
    ckt.validate()
    return CircuitInfo(
        circuit=ckt,
        input_source="VIN",
        output_node="out",
        faultable=("R1", "R2", "R3", "C1", "C2"),
        f0_hz=float(f0_hz),
        f_min_hz=f0_hz / 100.0,
        f_max_hz=f0_hz * 100.0,
        description="Multiple-feedback band-pass (infinite-gain MFB).",
    )


def twin_t_notch(f0_hz: float = 1e3, r_base: float = 1e4,
                 buffered: bool = True,
                 ideal_opamps: bool = True) -> CircuitInfo:
    """Passive twin-T notch (optionally output-buffered).

    Notch at ``f0 = 1/(2 pi R C)`` with legs R-R/2C and C-C/(R/2).
    """
    r = float(r_base)
    c = 1.0 / (TWO_PI * f0_hz * r)

    ckt = Circuit("twin_t_notch")
    ckt.add_voltage_source("VIN", "in", "0", dc=0.0, ac=1.0)
    # Resistive T with shunt capacitor 2C.
    ckt.add_resistor("R1", "in", "tr", r)
    ckt.add_resistor("R2", "tr", "out", r)
    ckt.add_capacitor("C3", "tr", "0", 2.0 * c)
    # Capacitive T with shunt resistor R/2.
    ckt.add_capacitor("C1", "in", "tc", c)
    ckt.add_capacitor("C2", "tc", "out", c)
    ckt.add_resistor("R3", "tc", "0", r / 2.0)
    if buffered:
        if ideal_opamps:
            ckt.add_ideal_opamp("OA1", "out", "buf", "buf")
        else:
            ckt.add_opamp_macro("OA1", "out", "buf", "buf")
        output = "buf"
    else:
        # Unbuffered: add a light load so the output node is well-defined.
        ckt.add_resistor("RL", "out", "0", 100.0 * r)
        output = "out"
    ckt.validate()
    return CircuitInfo(
        circuit=ckt,
        input_source="VIN",
        output_node=output,
        faultable=("R1", "R2", "R3", "C1", "C2", "C3"),
        f0_hz=float(f0_hz),
        f_min_hz=f0_hz / 100.0,
        f_max_hz=f0_hz * 100.0,
        description="Twin-T notch filter (passive, buffered output).",
    )


# Normalized element values (g-parameters) of a 5th-order Butterworth
# low-pass ladder with 1-ohm terminations.
_BUTTERWORTH5_G = (0.6180, 1.6180, 2.0000, 1.6180, 0.6180)


def lc_ladder_lowpass5(f0_hz: float = 1e4,
                       r0: float = 600.0) -> CircuitInfo:
    """Doubly-terminated 5th-order Butterworth LC ladder low-pass.

    Shunt-C / series-L prototype denormalized to cut-off ``f0_hz`` and
    impedance level ``r0``. Passband voltage gain is 0.5 (matched divider).
    """
    w0 = TWO_PI * f0_hz
    ckt = Circuit("lc_ladder_lowpass5")
    ckt.add_voltage_source("VIN", "in", "0", dc=0.0, ac=1.0)
    ckt.add_resistor("RS", "in", "n1", r0)
    ckt.add_capacitor("C1", "n1", "0", _BUTTERWORTH5_G[0] / (w0 * r0))
    ckt.add_inductor("L2", "n1", "n2", _BUTTERWORTH5_G[1] * r0 / w0)
    ckt.add_capacitor("C3", "n2", "0", _BUTTERWORTH5_G[2] / (w0 * r0))
    ckt.add_inductor("L4", "n2", "n3", _BUTTERWORTH5_G[3] * r0 / w0)
    ckt.add_capacitor("C5", "n3", "0", _BUTTERWORTH5_G[4] / (w0 * r0))
    ckt.add_resistor("RL", "n3", "0", r0)
    ckt.validate()
    return CircuitInfo(
        circuit=ckt,
        input_source="VIN",
        output_node="n3",
        faultable=("C1", "L2", "C3", "L4", "C5"),
        f0_hz=float(f0_hz),
        f_min_hz=f0_hz / 100.0,
        f_max_hz=f0_hz * 100.0,
        description="Doubly-terminated 5th-order Butterworth LC ladder.",
    )


def rc_ladder(sections: int = 5, r: float = 1e3,
              c: float = 1e-7) -> CircuitInfo:
    """Uniform RC ladder of ``sections`` series-R / shunt-C sections.

    Used by the simulator scaling benchmarks: the MNA matrix grows
    linearly with ``sections``.
    """
    if sections < 1:
        raise CircuitError("rc_ladder: needs at least one section")
    ckt = Circuit(f"rc_ladder_{sections}")
    ckt.add_voltage_source("VIN", "in", "0", dc=0.0, ac=1.0)
    previous = "in"
    for index in range(1, sections + 1):
        node = f"n{index}"
        ckt.add_resistor(f"R{index}", previous, node, r)
        ckt.add_capacitor(f"C{index}", node, "0", c)
        previous = node
    ckt.validate()
    f0 = 1.0 / (TWO_PI * r * c)
    return CircuitInfo(
        circuit=ckt,
        input_source="VIN",
        output_node=previous,
        faultable=tuple(ckt.passive_names),
        f0_hz=f0,
        f_min_hz=f0 / 1000.0,
        f_max_hz=f0 * 100.0,
        description=f"Uniform RC ladder, {sections} sections.",
    )


def rc_lowpass(f0_hz: float = 1e3, r: float = 1e4) -> CircuitInfo:
    """Single-pole RC low-pass; the simplest sanity-check circuit."""
    c = 1.0 / (TWO_PI * f0_hz * r)
    ckt = Circuit("rc_lowpass")
    ckt.add_voltage_source("VIN", "in", "0", dc=0.0, ac=1.0)
    ckt.add_resistor("R1", "in", "out", r)
    ckt.add_capacitor("C1", "out", "0", c)
    ckt.validate()
    return CircuitInfo(
        circuit=ckt,
        input_source="VIN",
        output_node="out",
        faultable=("R1", "C1"),
        f0_hz=float(f0_hz),
        f_min_hz=f0_hz / 1000.0,
        f_max_hz=f0_hz * 1000.0,
        description="First-order RC low-pass.",
    )


def voltage_divider(ratio: float = 0.5, r_total: float = 2e4) -> CircuitInfo:
    """Purely resistive divider; frequency-flat response of ``ratio``."""
    if not 0.0 < ratio < 1.0:
        raise CircuitError("voltage_divider: ratio must be in (0, 1)")
    r2 = r_total * ratio
    r1 = r_total - r2
    ckt = Circuit("voltage_divider")
    ckt.add_voltage_source("VIN", "in", "0", dc=1.0, ac=1.0)
    ckt.add_resistor("R1", "in", "out", r1)
    ckt.add_resistor("R2", "out", "0", r2)
    ckt.validate()
    return CircuitInfo(
        circuit=ckt,
        input_source="VIN",
        output_node="out",
        faultable=("R1", "R2"),
        f0_hz=1e3,
        f_min_hz=1.0,
        f_max_hz=1e6,
        description="Resistive voltage divider (flat response).",
    )


BENCHMARK_CIRCUITS: Dict[str, Callable[[], CircuitInfo]] = {
    "tow_thomas_biquad": tow_thomas_biquad,
    "sallen_key_lowpass": sallen_key_lowpass,
    "khn_state_variable": khn_state_variable,
    "mfb_bandpass": mfb_bandpass,
    "twin_t_notch": twin_t_notch,
    "lc_ladder_lowpass5": lc_ladder_lowpass5,
    "rc_ladder": rc_ladder,
    "rc_lowpass": rc_lowpass,
    "voltage_divider": voltage_divider,
}


def get_benchmark(name: str, **kwargs) -> CircuitInfo:
    """Instantiate a benchmark circuit by registry name."""
    try:
        factory = BENCHMARK_CIRCUITS[name]
    except KeyError:
        raise CircuitError(
            f"unknown benchmark circuit {name!r}; "
            f"available: {sorted(BENCHMARK_CIRCUITS)}") from None
    return factory(**kwargs)
