"""Property-based checks of simulator physics (hypothesis).

These pin invariants that hold for *any* linear circuit this library can
express: superposition, source scaling, passivity of RC dividers, and
reciprocity-flavoured consistency between analyses. Violations here mean
MNA stamps are wrong in a way individual example circuits might miss.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit
from repro.sim import ACAnalysis, MnaSystem
from repro.units import TWO_PI

from conftest import solve_dc

resistances = st.floats(min_value=10.0, max_value=1e6)
capacitances = st.floats(min_value=1e-12, max_value=1e-5)
frequencies = st.floats(min_value=1.0, max_value=1e6)
voltages = st.floats(min_value=-100.0, max_value=100.0)


def two_source_network(v1, v2, r1, r2, r3):
    ckt = Circuit("two_sources")
    ckt.add_voltage_source("V1", "a", "0", dc=v1)
    ckt.add_voltage_source("V2", "b", "0", dc=v2)
    ckt.add_resistor("R1", "a", "m", r1)
    ckt.add_resistor("R2", "b", "m", r2)
    ckt.add_resistor("R3", "m", "0", r3)
    return ckt


def dc_voltage(ckt, node):
    return solve_dc(ckt).node_voltage(node).real


class TestSuperposition:
    @given(voltages, voltages, resistances, resistances, resistances)
    @settings(max_examples=40, deadline=None)
    def test_dc_superposition(self, v1, v2, r1, r2, r3):
        """V(m) with both sources = sum of single-source solutions."""
        both = dc_voltage(two_source_network(v1, v2, r1, r2, r3), "m")
        only1 = dc_voltage(two_source_network(v1, 0.0, r1, r2, r3), "m")
        only2 = dc_voltage(two_source_network(0.0, v2, r1, r2, r3), "m")
        assert both == pytest.approx(only1 + only2, rel=1e-9,
                                     abs=1e-12)

    @given(voltages, resistances, resistances, resistances)
    @settings(max_examples=40, deadline=None)
    def test_dc_source_scaling(self, v1, r1, r2, r3):
        """Doubling the only source doubles every node voltage."""
        base = dc_voltage(two_source_network(v1, 0.0, r1, r2, r3), "m")
        doubled = dc_voltage(
            two_source_network(2.0 * v1, 0.0, r1, r2, r3), "m")
        assert doubled == pytest.approx(2.0 * base, rel=1e-9,
                                        abs=1e-12)


class TestPassivity:
    @given(resistances, capacitances, frequencies)
    @settings(max_examples=60, deadline=None)
    def test_rc_divider_gain_at_most_unity(self, r, c, f):
        """A passive RC low-pass never amplifies."""
        ckt = Circuit("rc")
        ckt.add_voltage_source("VIN", "in", "0", ac=1.0)
        ckt.add_resistor("R1", "in", "out", r)
        ckt.add_capacitor("C1", "out", "0", c)
        value = MnaSystem(ckt).solve_at(1j * TWO_PI * f) \
            .node_voltage("out")
        assert abs(value) <= 1.0 + 1e-9

    @given(resistances, capacitances, frequencies)
    @settings(max_examples=60, deadline=None)
    def test_rc_phase_in_fourth_quadrant(self, r, c, f):
        """RC low-pass phase lies in (-90 deg, 0]."""
        ckt = Circuit("rc")
        ckt.add_voltage_source("VIN", "in", "0", ac=1.0)
        ckt.add_resistor("R1", "in", "out", r)
        ckt.add_capacitor("C1", "out", "0", c)
        value = MnaSystem(ckt).solve_at(1j * TWO_PI * f) \
            .node_voltage("out")
        phase = np.angle(value)
        assert -np.pi / 2.0 - 1e-9 <= phase <= 1e-9


class TestAnalysisConsistency:
    @given(resistances, resistances, voltages)
    @settings(max_examples=40, deadline=None)
    def test_ac_at_low_frequency_matches_dc_ratio(self, r1, r2, v):
        """For a resistive divider the AC transfer equals the DC ratio
        at any frequency."""
        ckt = Circuit("div")
        ckt.add_voltage_source("VIN", "in", "0", dc=v, ac=1.0)
        ckt.add_resistor("R1", "in", "out", r1)
        ckt.add_resistor("R2", "out", "0", r2)
        expected = r2 / (r1 + r2)
        transfer = ACAnalysis(ckt).transfer("out", np.array([123.0]))
        assert abs(transfer.values[0]) == pytest.approx(expected,
                                                        rel=1e-9)

    @given(resistances, capacitances)
    @settings(max_examples=40, deadline=None)
    def test_conjugate_symmetry(self, r, c):
        """H(-jw) = conj(H(jw)) for real networks."""
        ckt = Circuit("rc")
        ckt.add_voltage_source("VIN", "in", "0", ac=1.0)
        ckt.add_resistor("R1", "in", "out", r)
        ckt.add_capacitor("C1", "out", "0", c)
        system = MnaSystem(ckt)
        omega = TWO_PI * 997.0
        positive = system.solve_at(1j * omega).node_voltage("out")
        negative = system.solve_at(-1j * omega).node_voltage("out")
        assert negative == pytest.approx(np.conj(positive), rel=1e-12)

    @given(st.floats(min_value=0.5, max_value=5.0),
           st.floats(min_value=0.5, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_biquad_dc_gain_tracks_design(self, gain, q):
        """Library design equations: simulated DC gain == requested."""
        from repro.circuits import tow_thomas_biquad
        info = tow_thomas_biquad(gain=gain, q=q)
        transfer = ACAnalysis(info.circuit).transfer(
            info.output_node, np.array([info.f0_hz / 1000.0]))
        assert abs(transfer.values[0]) == pytest.approx(gain, rel=1e-3)
