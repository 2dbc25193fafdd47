"""Tests for MNA assembly and solving against hand-computed circuits."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.errors import SimulationError, SingularCircuitError
from repro.sim import MnaSystem
from repro.sim import mna as mna_module
from repro.units import TWO_PI

from conftest import solve_dc


class TestResistiveNetworks:
    def test_voltage_divider(self):
        ckt = Circuit("div")
        ckt.add_voltage_source("V1", "in", "0", dc=10.0)
        ckt.add_resistor("R1", "in", "out", 6000.0)
        ckt.add_resistor("R2", "out", "0", 4000.0)
        sol = solve_dc(ckt)
        assert sol.node_voltage("out").real == pytest.approx(4.0)
        # Source current: 10V over 10k, flowing out of the + terminal.
        assert sol.branch_current("V1").real == pytest.approx(-1e-3)

    def test_negative_source_value(self):
        ckt = Circuit("div")
        ckt.add_voltage_source("V1", "in", "0", dc=-10.0)
        ckt.add_resistor("R1", "in", "out", 6000.0)
        ckt.add_resistor("R2", "out", "0", 4000.0)
        assert solve_dc(ckt).node_voltage("out").real == \
            pytest.approx(-4.0)

    def test_current_source_into_resistor(self):
        ckt = Circuit("cs")
        ckt.add_current_source("I1", "0", "a", dc=2e-3)
        ckt.add_resistor("R1", "a", "0", 1000.0)
        sol = solve_dc(ckt)
        # 2 mA from ground into node a through the source -> +2 V.
        assert sol.node_voltage("a").real == pytest.approx(2.0)

    def test_wheatstone_balanced(self):
        ckt = Circuit("bridge")
        ckt.add_voltage_source("V1", "top", "0", dc=10.0)
        ckt.add_resistor("R1", "top", "l", 1000.0)
        ckt.add_resistor("R2", "l", "0", 1000.0)
        ckt.add_resistor("R3", "top", "r", 2000.0)
        ckt.add_resistor("R4", "r", "0", 2000.0)
        ckt.add_resistor("RB", "l", "r", 500.0)
        sol = solve_dc(ckt)
        assert sol.voltage_between("l", "r").real == pytest.approx(0.0,
                                                                   abs=1e-12)

    def test_voltage_between(self):
        ckt = Circuit("div")
        ckt.add_voltage_source("V1", "in", "0", dc=9.0)
        ckt.add_resistor("R1", "in", "m", 1000.0)
        ckt.add_resistor("R2", "m", "0", 2000.0)
        sol = solve_dc(ckt)
        assert sol.voltage_between("in", "m").real == pytest.approx(3.0)

    def test_node_voltages_includes_ground(self):
        ckt = Circuit("div")
        ckt.add_voltage_source("V1", "in", "0", dc=1.0)
        ckt.add_resistor("R1", "in", "0", 1.0)
        assert solve_dc(ckt).node_voltages()["0"] == 0.0


class TestControlledSources:
    def test_vcvs_gain(self):
        ckt = Circuit("e")
        ckt.add_voltage_source("V1", "a", "0", dc=1.0)
        ckt.add_resistor("R1", "a", "0", 1000.0)
        ckt.add_vcvs("E1", "out", "0", "a", "0", gain=7.5)
        ckt.add_resistor("RL", "out", "0", 1000.0)
        sol = solve_dc(ckt)
        assert sol.node_voltage("out").real == pytest.approx(7.5)

    def test_vccs_into_load(self):
        ckt = Circuit("g")
        ckt.add_voltage_source("V1", "a", "0", dc=2.0)
        ckt.add_resistor("R1", "a", "0", 1000.0)
        # I = gm * V(a) extracted from 'out' node -> V(out) = -gm*V*RL
        ckt.add_vccs("G1", "out", "0", "a", "0", transconductance=1e-3)
        ckt.add_resistor("RL", "out", "0", 500.0)
        sol = solve_dc(ckt)
        assert sol.node_voltage("out").real == pytest.approx(-1.0)

    def test_ccvs_transresistance(self):
        ckt = Circuit("h")
        ckt.add_voltage_source("V1", "a", "0", dc=1.0)
        ckt.add_resistor("R1", "a", "0", 100.0)    # I(V1) = -10 mA
        ckt.add_ccvs("H1", "out", "0", "V1", transresistance=200.0)
        ckt.add_resistor("RL", "out", "0", 1000.0)
        sol = solve_dc(ckt)
        assert sol.node_voltage("out").real == pytest.approx(-2.0)

    def test_cccs_gain(self):
        ckt = Circuit("f")
        ckt.add_voltage_source("V1", "a", "0", dc=1.0)
        ckt.add_resistor("R1", "a", "0", 100.0)    # I(V1) = -10 mA
        ckt.add_cccs("F1", "out", "0", "V1", gain=2.0)
        ckt.add_resistor("RL", "out", "0", 100.0)
        sol = solve_dc(ckt)
        # F extracts 2*I(V1) = -20 mA from 'out' -> V(out) = +2 V.
        assert sol.node_voltage("out").real == pytest.approx(2.0)


class TestOpAmps:
    def test_ideal_inverting_amplifier(self):
        ckt = Circuit("inv")
        ckt.add_voltage_source("V1", "in", "0", dc=0.5)
        ckt.add_resistor("RI", "in", "x", 1000.0)
        ckt.add_resistor("RF", "x", "out", 4700.0)
        ckt.add_ideal_opamp("OA", "0", "x", "out")
        sol = solve_dc(ckt)
        assert sol.node_voltage("out").real == pytest.approx(-2.35)
        assert sol.node_voltage("x").real == pytest.approx(0.0, abs=1e-12)

    def test_ideal_noninverting_amplifier(self):
        ckt = Circuit("noninv")
        ckt.add_voltage_source("V1", "in", "0", dc=1.0)
        ckt.add_resistor("RG", "x", "0", 1000.0)
        ckt.add_resistor("RF", "x", "out", 9000.0)
        ckt.add_ideal_opamp("OA", "in", "x", "out")
        sol = solve_dc(ckt)
        assert sol.node_voltage("out").real == pytest.approx(10.0)

    def test_ideal_follower(self):
        ckt = Circuit("buf")
        ckt.add_voltage_source("V1", "in", "0", dc=3.3)
        ckt.add_ideal_opamp("OA", "in", "out", "out")
        ckt.add_resistor("RL", "out", "0", 1000.0)
        sol = solve_dc(ckt)
        assert sol.node_voltage("out").real == pytest.approx(3.3)

    def test_macro_open_loop_dc_gain(self):
        ckt = Circuit("ol")
        ckt.add_voltage_source("V1", "p", "0", dc=1e-6)
        ckt.add_opamp_macro("OA", "p", "0", "out", a0=1e5)
        ckt.add_resistor("RL", "out", "0", 1e6)
        sol = solve_dc(ckt)
        # Open loop: Vout ~ a0 * Vin (lightly loaded).
        expected = 1e-6 * 1e5 * (1e6 / (1e6 + 75.0))
        assert sol.node_voltage("out").real == pytest.approx(expected,
                                                             rel=1e-6)

    def test_macro_closed_loop_matches_ideal(self):
        def inverting(ideal):
            ckt = Circuit("inv")
            ckt.add_voltage_source("V1", "in", "0", dc=1.0)
            ckt.add_resistor("RI", "in", "x", 1000.0)
            ckt.add_resistor("RF", "x", "out", 10000.0)
            if ideal:
                ckt.add_ideal_opamp("OA", "0", "x", "out")
            else:
                ckt.add_opamp_macro("OA", "0", "x", "out")
            ckt.add_resistor("RL", "out", "0", 10e3)
            return solve_dc(ckt).node_voltage("out").real
        # a0 = 2e5 -> loop-gain error of order 1e-4.
        assert inverting(False) == pytest.approx(inverting(True), rel=1e-3)

    def test_macro_single_pole_rolloff(self):
        ckt = Circuit("pole")
        ckt.add_voltage_source("V1", "p", "0", ac=1.0)
        ckt.add_opamp_macro("OA", "p", "0", "out", a0=1e5, pole_hz=10.0)
        ckt.add_resistor("RL", "out", "0", 1e9)
        system = MnaSystem(ckt)
        gain_dc = abs(system.solve_at(1j * TWO_PI * 0.001).node_voltage(
            "out"))
        gain_pole = abs(system.solve_at(1j * TWO_PI * 10.0).node_voltage(
            "out"))
        gain_decade = abs(system.solve_at(1j * TWO_PI * 100.0).node_voltage(
            "out"))
        assert gain_dc == pytest.approx(1e5, rel=1e-3)
        assert gain_pole == pytest.approx(1e5 / np.sqrt(2.0), rel=1e-3)
        assert gain_decade == pytest.approx(1e4, rel=2e-2)


class TestReactive:
    def test_inductor_is_dc_short(self):
        ckt = Circuit("l")
        ckt.add_voltage_source("V1", "in", "0", dc=1.0)
        ckt.add_inductor("L1", "in", "out", 1e-3)
        ckt.add_resistor("R1", "out", "0", 100.0)
        sol = solve_dc(ckt)
        assert sol.node_voltage("out").real == pytest.approx(1.0)
        assert sol.branch_current("L1").real == pytest.approx(0.01)

    def test_rc_complex_response(self):
        ckt = Circuit("rc")
        ckt.add_voltage_source("V1", "in", "0", ac=1.0)
        ckt.add_resistor("R1", "in", "out", 1000.0)
        ckt.add_capacitor("C1", "out", "0", 1e-6)
        system = MnaSystem(ckt)
        f0 = 1.0 / (TWO_PI * 1000.0 * 1e-6)
        sol = system.solve_at(1j * TWO_PI * f0)
        value = sol.node_voltage("out")
        assert abs(value) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-9)
        assert np.angle(value) == pytest.approx(-np.pi / 4.0, rel=1e-9)

    def test_lc_resonance(self):
        ckt = Circuit("rlc")
        ckt.add_voltage_source("V1", "in", "0", ac=1.0)
        ckt.add_resistor("R1", "in", "a", 100.0)
        ckt.add_inductor("L1", "a", "out", 1e-3)
        ckt.add_capacitor("C1", "out", "0", 1e-6)
        system = MnaSystem(ckt)
        f_res = 1.0 / (TWO_PI * np.sqrt(1e-3 * 1e-6))
        sol = system.solve_at(1j * TWO_PI * f_res)
        # Series LC at resonance is a short: V(out)=V(in)... the full
        # source voltage appears across the capacitor bottom? No: at
        # resonance L and C impedances cancel, so the divider sees only
        # R1 and |V(out)| = |Z_C|/R1.
        z_c = 1.0 / (TWO_PI * f_res * 1e-6)
        assert abs(sol.node_voltage("out")) == pytest.approx(z_c / 100.0,
                                                             rel=1e-6)


class TestBatchedSolve:
    def test_matches_per_frequency(self, biquad_info):
        system = MnaSystem(biquad_info.circuit)
        freqs = np.logspace(1, 5, 17)
        batch = system.solve_frequencies(freqs)
        for index in (0, 8, 16):
            single = system.solve_at(1j * TWO_PI * freqs[index])
            assert np.allclose(batch[index], single.vector, rtol=1e-9)

    def test_rejects_empty_grid(self, biquad_info):
        system = MnaSystem(biquad_info.circuit)
        with pytest.raises(SimulationError):
            system.solve_frequencies(np.array([]))

    def test_rejects_nonpositive_frequency(self, biquad_info):
        system = MnaSystem(biquad_info.circuit)
        with pytest.raises(SimulationError):
            system.solve_frequencies(np.array([0.0, 10.0]))


class TestSolveStack:
    @pytest.mark.parametrize("matrices, chunks", [
        (None, 1), (10, 2), (2, 9), (1, 15)], ids=[
        "default", "whole-k", "frequency-slices", "one-matrix"])
    def test_chunk_geometry_keeps_every_value(self, monkeypatch, matrices,
                                              chunks):
        """Three (4, 4) systems over five frequencies, chunked under a
        budget of ``matrices`` matrices: rectangles of whole ``k`` while
        a ``k``'s frequencies fit, else slices of one ``k``'s
        frequencies. Each matrix solves to the bits of its own
        ``np.linalg.solve``."""
        rng = np.random.default_rng(7)
        g = (rng.normal(size=(3, 4, 4)) + 4.0 * np.eye(4)).astype(complex)
        b = (rng.normal(size=(3, 4, 4)) * 1e-3).astype(complex)
        rhs = rng.normal(size=(3, 4, 2)).astype(complex)
        s_values = 1j * TWO_PI * np.logspace(1, 4, 5)
        if matrices is not None:
            monkeypatch.setattr(mna_module, "_STACK_MEMORY_BUDGET",
                                matrices * 16 * 4 * 4)
        out, made = mna_module.solve_stack(g, b, s_values, rhs,
                                           ("a", "b", "c"))
        assert made == chunks
        assert out.shape == (3, 5, 4, 2)
        for k, f in np.ndindex(3, 5):
            expected = np.linalg.solve(s_values[f] * b[k] + g[k], rhs[k])
            assert np.array_equal(out[k, f], expected)


class TestSingularities:
    def test_floating_node_detected(self):
        ckt = Circuit("float")
        ckt.add_voltage_source("V1", "in", "0", dc=1.0)
        ckt.add_capacitor("C1", "in", "mid", 1e-9)
        ckt.add_capacitor("C2", "mid", "0", 1e-9)
        with pytest.raises(SingularCircuitError):
            solve_dc(ckt)

    def test_voltage_source_loop_detected(self):
        ckt = Circuit("loop")
        ckt.add_voltage_source("V1", "a", "0", dc=1.0)
        ckt.add_voltage_source("V2", "a", "0", dc=2.0)
        ckt.add_resistor("R1", "a", "0", 1.0)
        with pytest.raises(SingularCircuitError):
            solve_dc(ckt)

    def test_unknown_node_query(self):
        ckt = Circuit("div")
        ckt.add_voltage_source("V1", "in", "0", dc=1.0)
        ckt.add_resistor("R1", "in", "0", 1.0)
        sol = solve_dc(ckt)
        with pytest.raises(SimulationError, match="unknown node"):
            sol.node_voltage("nope")

    def test_unknown_branch_query(self):
        ckt = Circuit("div")
        ckt.add_voltage_source("V1", "in", "0", dc=1.0)
        ckt.add_resistor("R1", "in", "0", 1.0)
        sol = solve_dc(ckt)
        with pytest.raises(SimulationError, match="no branch current"):
            sol.branch_current("R1")
