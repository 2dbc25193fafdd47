"""Tests for the fault dictionary and the interpolating response surface."""

import numpy as np
import pytest

from repro.errors import DictionaryError
from repro.faults import (
    FaultDictionary,
    GOLDEN_LABEL,
    ParametricFault,
    ResponseSurface,
    parametric_universe,
)
from repro.sim import ACAnalysis
from repro.trajectory import SignatureMapper
from repro.units import log_frequency_grid


class TestDictionaryBuild:
    def test_entry_count_and_order(self, biquad_dictionary,
                                   biquad_universe):
        assert len(biquad_dictionary) == len(biquad_universe)
        assert biquad_dictionary.labels == biquad_universe.labels

    def test_components(self, biquad_dictionary):
        assert biquad_dictionary.components == ("R1", "R2", "R3", "R4",
                                                "R5", "C1", "C2")

    def test_entry_lookup(self, biquad_dictionary):
        entry = biquad_dictionary.entry("R3+20%")
        assert isinstance(entry.fault, ParametricFault)
        assert entry.fault.component == "R3"
        assert entry.fault.deviation == pytest.approx(0.2)

    def test_missing_entry(self, biquad_dictionary):
        with pytest.raises(DictionaryError):
            biquad_dictionary.entry("R3+99%")

    def test_contains(self, biquad_dictionary):
        assert "R3+20%" in biquad_dictionary
        assert "nope" not in biquad_dictionary

    def test_entries_for_component(self, biquad_dictionary):
        entries = biquad_dictionary.entries_for("C1")
        assert len(entries) == 8
        assert all(e.fault.component == "C1" for e in entries)

    def test_entries_for_unknown(self, biquad_dictionary):
        with pytest.raises(DictionaryError):
            biquad_dictionary.entries_for("C9")

    def test_response_matrix_shape(self, biquad_dictionary):
        matrix = biquad_dictionary.response_matrix_db()
        assert matrix.shape == (57, len(biquad_dictionary.freqs_hz))

    def test_golden_row_first(self, biquad_dictionary, biquad_info):
        matrix = biquad_dictionary.response_matrix_db()
        golden = ACAnalysis(biquad_info.circuit).transfer(
            biquad_info.output_node, biquad_dictionary.freqs_hz)
        assert np.allclose(matrix[0], golden.magnitude_db, atol=1e-12)

    def test_faulty_responses_differ_from_golden(self, biquad_dictionary):
        matrix = biquad_dictionary.response_matrix_db()
        for row in matrix[1:]:
            assert np.max(np.abs(row - matrix[0])) > 0.05


class TestDictionaryPersistence:
    def test_roundtrip(self, biquad_dictionary, tmp_path):
        stem = tmp_path / "dict"
        biquad_dictionary.save(stem)
        loaded = FaultDictionary.load(stem)
        assert loaded.labels == biquad_dictionary.labels
        assert loaded.circuit_name == biquad_dictionary.circuit_name
        assert loaded.output_node == biquad_dictionary.output_node
        assert np.allclose(loaded.freqs_hz, biquad_dictionary.freqs_hz)
        assert np.allclose(loaded.golden.values,
                           biquad_dictionary.golden.values)
        entry = loaded.entry("C2-40%")
        assert entry.fault.deviation == pytest.approx(-0.4)

    def test_load_missing_files(self, tmp_path):
        with pytest.raises(DictionaryError, match="missing"):
            FaultDictionary.load(tmp_path / "nothing")

    def test_golden_label_preserved(self, biquad_dictionary, tmp_path):
        stem = tmp_path / "dict"
        biquad_dictionary.save(stem)
        loaded = FaultDictionary.load(stem)
        assert loaded.golden.label == GOLDEN_LABEL


class TestResponseSurface:
    def test_labels(self, biquad_surface, biquad_dictionary):
        assert biquad_surface.labels[0] == GOLDEN_LABEL
        assert biquad_surface.labels[1:] == biquad_dictionary.labels

    def test_exact_at_grid_points(self, biquad_surface,
                                  biquad_dictionary):
        grid = biquad_dictionary.freqs_hz
        sample = biquad_surface.sample_db(grid[[3, 17, 120]])
        matrix = biquad_dictionary.response_matrix_db()
        assert np.allclose(sample, matrix[:, [3, 17, 120]], atol=1e-12)

    def test_interpolation_error_bounded(self, biquad_surface,
                                         biquad_info, rng):
        """Surface error vs exact MNA stays below 0.02 dB everywhere."""
        queries = 10.0 ** rng.uniform(
            np.log10(biquad_info.f_min_hz),
            np.log10(biquad_info.f_max_hz), size=25)
        queries = np.sort(queries)
        exact = ACAnalysis(biquad_info.circuit).transfer(
            biquad_info.output_node, queries)
        approx = biquad_surface.golden_db(queries)
        assert np.max(np.abs(exact.magnitude_db - approx)) < 0.02

    def test_clamps_out_of_band(self, biquad_surface):
        low = biquad_surface.sample_db([biquad_surface.f_min_hz / 100.0])
        at_edge = biquad_surface.sample_db([biquad_surface.f_min_hz])
        assert np.allclose(low, at_edge)

    def test_signatures_relative(self, biquad_surface):
        freqs = (500.0, 1500.0)
        signatures = SignatureMapper(freqs).signature_matrix(
            biquad_surface)
        assert signatures.shape == (56, 2)
        absolute = SignatureMapper(
            freqs, relative_to_golden=False).signature_matrix(
            biquad_surface)
        golden = biquad_surface.golden_db(np.array(freqs))
        assert np.allclose(signatures, absolute - golden[None, :])

    def test_rejects_bad_queries(self, biquad_surface):
        with pytest.raises(DictionaryError):
            biquad_surface.sample_db([])
        with pytest.raises(DictionaryError):
            biquad_surface.sample_db([-10.0])

    def test_row_subset(self, biquad_surface):
        rows = np.array([0, 5])
        out = biquad_surface.sample_db([1000.0], rows=rows)
        full = biquad_surface.sample_db([1000.0])
        assert np.allclose(out, full[rows])


class TestSmallUniverseDictionary:
    def test_build_with_input_source(self, rc_info):
        universe = parametric_universe(rc_info.circuit,
                                       deviations=(-0.2, 0.2))
        grid = log_frequency_grid(10.0, 1e5, 51)
        dictionary = FaultDictionary.build(universe, rc_info.output_node,
                                           grid,
                                           input_source="VIN")
        assert len(dictionary) == 4

    def test_grid_mismatch_rejected(self, rc_info):
        universe = parametric_universe(rc_info.circuit,
                                       deviations=(-0.2, 0.2))
        grid = log_frequency_grid(10.0, 1e5, 51)
        dictionary = FaultDictionary.build(universe, rc_info.output_node,
                                           grid)
        other_grid = log_frequency_grid(10.0, 1e5, 11)
        from repro.faults.dictionary import DictionaryEntry
        from repro.sim import FrequencyResponse
        bad = DictionaryEntry(
            ParametricFault("R1", 0.33),
            FrequencyResponse(other_grid,
                              np.ones(11, dtype=complex)))
        with pytest.raises(DictionaryError, match="different grid"):
            FaultDictionary(dictionary.circuit_name,
                            dictionary.output_node, grid,
                            dictionary.golden,
                            list(dictionary.entries) + [bad])
