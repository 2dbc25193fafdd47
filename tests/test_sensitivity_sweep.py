"""Tests for sensitivity analysis and parameter sweeps."""

import numpy as np
import pytest

from repro.circuits import rc_lowpass, voltage_divider
from repro.circuits.components import TwoTerminal
from repro.circuits.library import BENCHMARK_CIRCUITS, get_benchmark
from repro.errors import SimulationError
from repro.sim import (
    deviation_sweep,
    rank_frequencies,
    sensitivity_analysis,
    value_sweep,
)
from repro.units import log_frequency_grid


@pytest.fixture(scope="module")
def rc():
    return rc_lowpass(f0_hz=1e3)


@pytest.fixture(scope="module")
def rc_sensitivity(rc):
    grid = log_frequency_grid(10.0, 1e5, 81)
    return sensitivity_analysis(rc.circuit, rc.output_node, grid)


class TestSensitivity:
    def test_rc_r_and_c_sensitivities_equal(self, rc_sensitivity):
        """R and C enter H only through the product RC, so their
        log-sensitivities must be identical."""
        assert np.allclose(rc_sensitivity.component("R1"),
                           rc_sensitivity.component("C1"), atol=1e-6)

    def test_rc_analytic_value_at_pole(self, rc_sensitivity):
        """|H|dB = -10 log10(1 + (f/f0)^2) with f0 = 1/(2 pi R C):
        d|H|dB/dln R = -(20/ln10) * x/(1+x), x=(f/f0)^2 -> -4.34 at f0."""
        value = np.interp(np.log10(1000.0),
                          np.log10(rc_sensitivity.freqs_hz),
                          rc_sensitivity.component("R1"))
        expected = -(20.0 / np.log(10.0)) * 0.5
        assert value == pytest.approx(expected, rel=1e-3)

    def test_dc_sensitivity_is_zero(self, rc_sensitivity):
        assert rc_sensitivity.component("R1")[0] == pytest.approx(0.0,
                                                                  abs=1e-3)

    def test_most_sensitive_frequency_in_stopband(self, rc_sensitivity):
        """x/(1+x) is monotone: sensitivity magnitude saturates above
        f0, so the argmax sits in the upper part of the grid."""
        assert rc_sensitivity.most_sensitive_frequency("R1") > 2000.0

    def test_unknown_component_raises(self, rc_sensitivity):
        with pytest.raises(SimulationError):
            rc_sensitivity.component("R9")

    def test_matrix_shape(self, rc_sensitivity):
        matrix = rc_sensitivity.matrix(order=("R1", "C1"))
        assert matrix.shape == (2, 81)

    def test_explicit_components(self, rc):
        grid = log_frequency_grid(10.0, 1e4, 11)
        result = sensitivity_analysis(rc.circuit, rc.output_node, grid,
                                      components=("R1",))
        assert set(result.sensitivities) == {"R1"}

    def test_bad_rel_step(self, rc):
        with pytest.raises(SimulationError):
            sensitivity_analysis(rc.circuit, rc.output_node,
                                 np.array([100.0]), rel_step=0.9)


def reference_sensitivities(circuit, output_node, freqs, rel_step=0.01):
    """The per-clone loop sensitivity_analysis replaced: one circuit
    clone and one AC analysis per perturbed value."""
    from repro.sim import ACAnalysis

    def magnitude_db(clone):
        return ACAnalysis(clone).transfer(output_node, freqs).magnitude_db

    out = {}
    for name in circuit.passive_names:
        up = magnitude_db(circuit.scaled_value(name, 1.0 + rel_step))
        down = magnitude_db(circuit.scaled_value(name, 1.0 - rel_step))
        out[name] = (up - down) / (2.0 * rel_step)
    return out


class TestSensitivityMatchesPerCloneReference:
    @pytest.mark.parametrize("name", sorted(BENCHMARK_CIRCUITS))
    def test_bitwise_equal_on_registry(self, name):
        info = get_benchmark(name)
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 57)
        got = sensitivity_analysis(info.circuit, info.output_node, grid)
        expected = reference_sensitivities(info.circuit, info.output_node,
                                           grid)
        assert list(got.sensitivities) == list(expected)
        for component, curve in expected.items():
            assert np.array_equal(got.component(component), curve), \
                component

    def test_component_without_value_rejected(self, biquad_info):
        circuit = biquad_info.circuit
        valueless = next(c.name for c in circuit
                         if not isinstance(c, TwoTerminal))
        with pytest.raises(SimulationError, match="no scalar value"):
            sensitivity_analysis(circuit, biquad_info.output_node,
                                 np.array([100.0]),
                                 components=(valueless,))


class TestRankFrequencies:
    def test_biquad_ranking(self, biquad_info):
        from repro.sim import sensitivity_analysis as sens
        grid = log_frequency_grid(biquad_info.f_min_hz,
                                  biquad_info.f_max_hz, 61)
        result = sens(biquad_info.circuit, biquad_info.output_node, grid,
                      components=biquad_info.faultable)
        picked = rank_frequencies(result, count=2, min_decade_gap=0.3)
        assert len(picked) == 2
        assert picked[0] < picked[1]
        assert abs(np.log10(picked[1] / picked[0])) >= 0.3

    def test_impossible_gap_raises(self, rc):
        grid = log_frequency_grid(100.0, 200.0, 11)  # 0.3 decades only
        result = sensitivity_analysis(rc.circuit, rc.output_node, grid)
        with pytest.raises(SimulationError, match="decades apart"):
            rank_frequencies(result, count=3, min_decade_gap=0.3)

    def test_count_validation(self, rc_sensitivity):
        with pytest.raises(SimulationError):
            rank_frequencies(rc_sensitivity, count=0)


class TestSweeps:
    def test_value_sweep_family(self, rc):
        grid = log_frequency_grid(10.0, 1e5, 41)
        result = value_sweep(rc.circuit, rc.output_node, "R1",
                             [5e3, 1e4, 2e4], grid)
        assert len(result) == 3
        # Larger R -> lower cutoff -> lower magnitude at fixed f > f0.
        mags = [resp.magnitude_db_at(5e3) for resp in result.responses]
        assert mags[0] > mags[1] > mags[2]

    def test_deviation_sweep_paper_grid(self, rc):
        grid = log_frequency_grid(10.0, 1e5, 41)
        deviations = [-0.4, -0.2, 0.2, 0.4]
        result = deviation_sweep(rc.circuit, rc.output_node, "C1",
                                 deviations, grid)
        assert result.parameter_values == tuple(deviations)
        nominal_c = rc.circuit["C1"].value
        # The swept responses used scaled capacitor values; check the
        # -40% case matches an explicit 0.6x simulation.
        from repro.sim import ACAnalysis
        explicit = ACAnalysis(
            rc.circuit.with_value("C1", 0.6 * nominal_c)).transfer(
                rc.output_node, grid)
        assert np.allclose(result.responses[0].magnitude_db,
                           explicit.magnitude_db, atol=1e-12)

    def test_response_at(self, rc):
        grid = log_frequency_grid(10.0, 1e4, 11)
        result = deviation_sweep(rc.circuit, rc.output_node, "R1",
                                 [-0.1, 0.1], grid)
        assert result.response_at(0.1) is result.responses[1]
        with pytest.raises(SimulationError):
            result.response_at(0.3)

    def test_spread_db_positive_above_cutoff(self, rc):
        grid = log_frequency_grid(10.0, 1e5, 41)
        result = deviation_sweep(rc.circuit, rc.output_node, "R1",
                                 [-0.4, 0.4], grid)
        spread = result.spread_db()
        # Above f0 the deviations clearly separate the curves ...
        assert spread[-1] > 2.0
        # ... and far below f0 they barely do (gain ~ R-independent).
        assert spread[0] < 0.01

    def test_empty_values_rejected(self, rc):
        with pytest.raises(SimulationError):
            value_sweep(rc.circuit, rc.output_node, "R1", [],
                        np.array([100.0]))

    def test_overdeviation_rejected(self, rc):
        with pytest.raises(SimulationError, match="non-positive"):
            deviation_sweep(rc.circuit, rc.output_node, "R1", [-1.5],
                            np.array([100.0]))
