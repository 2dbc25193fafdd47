"""Tests for signature mapping and trajectory construction."""

import numpy as np
import pytest

from repro.errors import TrajectoryError
from repro.faults import GOLDEN_LABEL
from repro.trajectory import (
    FaultTrajectory,
    SignatureMapper,
    TrajectorySet,
)


class TestMapperValidation:
    def test_needs_frequencies(self):
        with pytest.raises(TrajectoryError):
            SignatureMapper(())

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(TrajectoryError, match="duplicate"):
            SignatureMapper((100.0, 100.0))

    def test_nonpositive_rejected(self):
        with pytest.raises(TrajectoryError):
            SignatureMapper((0.0, 100.0))

    def test_bad_scale(self):
        with pytest.raises(TrajectoryError, match="scale"):
            SignatureMapper((1.0, 2.0), scale="bel")

    def test_dimension(self):
        assert SignatureMapper((1.0, 2.0, 3.0)).dimension == 3

    def test_with_freqs_keeps_options(self):
        mapper = SignatureMapper((1.0, 2.0), scale="linear",
                                 relative_to_golden=False)
        other = mapper.with_freqs((5.0, 6.0))
        assert other.scale == "linear"
        assert not other.relative_to_golden
        assert other.test_freqs_hz == (5.0, 6.0)


class TestSignatures:
    def test_golden_signature_is_origin_when_relative(self,
                                                      biquad_surface):
        mapper = SignatureMapper((500.0, 1500.0))
        assert np.allclose(mapper.golden_signature(biquad_surface), 0.0)

    def test_golden_signature_absolute(self, biquad_surface):
        mapper = SignatureMapper((500.0, 1500.0),
                                 relative_to_golden=False)
        golden = mapper.golden_signature(biquad_surface)
        expected = biquad_surface.golden_db(np.array([500.0, 1500.0]))
        assert np.allclose(golden, expected)

    def test_signature_requires_golden_when_relative(self,
                                                     biquad_dictionary):
        mapper = SignatureMapper((500.0, 1500.0))
        entry = biquad_dictionary.entries[0]
        with pytest.raises(TrajectoryError, match="golden"):
            mapper.signature(entry.response)

    def test_matrix_matches_per_entry_path(self, biquad_dictionary,
                                           biquad_surface):
        """The surface path and the dictionary path agree."""
        mapper = SignatureMapper((500.0, 1500.0))
        from_dict = mapper.signature_matrix(biquad_dictionary)
        from_surface = mapper.signature_matrix(biquad_surface)
        assert from_dict.shape == from_surface.shape == (56, 2)
        assert np.allclose(from_dict, from_surface, atol=0.02)

    @pytest.mark.parametrize("relative", [True, False])
    def test_dictionary_is_sampled_by_the_surface_rule(
            self, biquad_info, biquad_universe, biquad_dictionary,
            biquad_surface, relative):
        """A dictionary's signatures are its dB matrix sampled by the
        surface's rule: bitwise the surface's off the grid (and within
        rounding of each response's own interpolation), bitwise each
        response's own samples on an exact test-vector grid."""
        from repro.faults import FaultDictionary
        mapper = SignatureMapper((1500.0, 500.0),
                                 relative_to_golden=relative)
        assert np.array_equal(mapper.signature_matrix(biquad_dictionary),
                              mapper.signature_matrix(biquad_surface))
        assert np.array_equal(mapper.golden_signature(biquad_dictionary),
                              mapper.golden_signature(biquad_surface))
        golden = biquad_dictionary.golden
        per_entry = np.vstack([mapper.signature(entry.response, golden)
                               for entry in biquad_dictionary.entries])
        assert np.allclose(mapper.signature_matrix(biquad_dictionary),
                           per_entry, rtol=0.0, atol=1e-12)
        exact = FaultDictionary.build(biquad_universe,
                                      biquad_info.output_node,
                                      np.array([500.0, 1500.0]))
        per_entry = np.vstack([mapper.signature(entry.response,
                                                exact.golden)
                               for entry in exact.entries])
        assert np.array_equal(mapper.signature_matrix(exact), per_entry)
        if not relative:
            assert np.array_equal(mapper.golden_signature(exact),
                                  mapper.signature(exact.golden))

    def test_linear_scale_consistency(self, biquad_dictionary):
        mapper_db = SignatureMapper((500.0, 1500.0),
                                    relative_to_golden=False)
        mapper_lin = SignatureMapper((500.0, 1500.0), scale="linear",
                                     relative_to_golden=False)
        entry = biquad_dictionary.entries[0]
        sig_db = mapper_db.signature(entry.response)
        sig_lin = mapper_lin.signature(entry.response)
        assert np.allclose(sig_lin, 10.0 ** (sig_db / 20.0))

    def test_matrix_linear_relative(self, biquad_surface):
        mapper = SignatureMapper((500.0, 1500.0), scale="linear")
        matrix = mapper.signature_matrix(biquad_surface)
        absolute = SignatureMapper(
            (500.0, 1500.0), scale="linear",
            relative_to_golden=False).signature_matrix(biquad_surface)
        golden = 10.0 ** (biquad_surface.golden_db(
            np.array([500.0, 1500.0])) / 20.0)
        assert np.allclose(matrix, absolute - golden[None, :])

    def test_signature_matrix_rejects_other_types(self):
        mapper = SignatureMapper((1.0, 2.0))
        with pytest.raises(TrajectoryError):
            mapper.signature_matrix("not a source")


class TestFaultTrajectory:
    def make(self, deviations=(-0.2, -0.1, 0.0, 0.1, 0.2)):
        points = np.column_stack([np.asarray(deviations),
                                  2.0 * np.asarray(deviations)])
        return FaultTrajectory("R1", tuple(deviations), points)

    def test_basic_properties(self):
        trajectory = self.make()
        assert trajectory.dimension == 2
        assert trajectory.num_segments == 4
        assert trajectory.origin_index == 2

    def test_segments(self):
        starts, ends = self.make().segments()
        assert starts.shape == (4, 2)
        assert np.allclose(ends[:-1], starts[1:])

    def test_point_for(self):
        trajectory = self.make()
        assert np.allclose(trajectory.point_for(0.1), [0.1, 0.2])
        with pytest.raises(TrajectoryError):
            trajectory.point_for(0.15)

    def test_interpolate_deviation(self):
        trajectory = self.make()
        # Segment 2 spans deviations [0, 0.1].
        assert trajectory.interpolate_deviation(2, 0.5) == pytest.approx(
            0.05)
        assert trajectory.interpolate_deviation(0, 0.0) == pytest.approx(
            -0.2)

    def test_interpolate_bad_segment(self):
        with pytest.raises(TrajectoryError):
            self.make().interpolate_deviation(99, 0.5)

    def test_vertex_is_origin(self):
        mask = self.make().vertex_is_origin()
        assert mask.tolist() == [False, False, True, False, False]

    def test_must_include_golden(self):
        with pytest.raises(TrajectoryError, match="golden"):
            FaultTrajectory("R1", (0.1, 0.2),
                            np.array([[1.0, 1.0], [2.0, 2.0]]))

    def test_must_be_sorted(self):
        with pytest.raises(TrajectoryError, match="increasing"):
            FaultTrajectory("R1", (0.1, 0.0, -0.1), np.zeros((3, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(TrajectoryError):
            FaultTrajectory("R1", (-0.1, 0.0, 0.1), np.zeros((2, 2)))


class TestTrajectorySet:
    def test_from_surface(self, biquad_trajectories):
        assert len(biquad_trajectories) == 7
        assert biquad_trajectories.dimension == 2
        for trajectory in biquad_trajectories:
            # 8 dictionary deviations + inserted golden point.
            assert len(trajectory.deviations) == 9
            assert trajectory.deviations[4] == 0.0
            assert np.allclose(trajectory.points[4], 0.0)

    def test_origin_insertion_order(self, biquad_trajectories):
        trajectory = biquad_trajectories["R3"]
        assert trajectory.deviations == (-0.4, -0.3, -0.2, -0.1, 0.0,
                                         0.1, 0.2, 0.3, 0.4)

    def test_getitem_missing(self, biquad_trajectories):
        with pytest.raises(TrajectoryError):
            biquad_trajectories["R99"]

    def test_component_subset(self, biquad_surface):
        mapper = SignatureMapper((500.0, 1500.0))
        subset = TrajectorySet.from_source(biquad_surface, mapper,
                                           components=("R1", "C1"))
        assert subset.components == ("R1", "C1")

    def test_component_subset_missing(self, biquad_surface):
        mapper = SignatureMapper((500.0, 1500.0))
        with pytest.raises(TrajectoryError):
            TrajectorySet.from_source(biquad_surface, mapper,
                                      components=("R99",))

    def test_from_dictionary_close_to_surface(self, biquad_dictionary,
                                              biquad_surface):
        mapper = SignatureMapper((500.0, 1500.0))
        exact = TrajectorySet.from_source(biquad_dictionary, mapper)
        fast = TrajectorySet.from_source(biquad_surface, mapper)
        for component in exact.components:
            assert np.allclose(exact[component].points,
                               fast[component].points, atol=0.02)

    def test_all_segments_owners(self, biquad_trajectories):
        starts, ends, owners = biquad_trajectories.all_segments()
        assert starts.shape == ends.shape == (7 * 8, 2)
        assert owners.shape == (56,)
        # 8 segments per trajectory, contiguous owner blocks.
        assert owners.tolist() == sum(([i] * 8 for i in range(7)), [])

    def test_mapper_dimension_must_match(self, biquad_trajectories):
        mapper3 = SignatureMapper((1.0, 2.0, 3.0))
        with pytest.raises(TrajectoryError):
            TrajectorySet(mapper3, biquad_trajectories.trajectories)

    def test_duplicate_components_rejected(self, biquad_trajectories):
        mapper = biquad_trajectories.mapper
        duplicated = (biquad_trajectories.trajectories[0],) * 2
        with pytest.raises(TrajectoryError, match="duplicate"):
            TrajectorySet(mapper, duplicated)

    def test_empty_rejected(self, biquad_trajectories):
        with pytest.raises(TrajectoryError):
            TrajectorySet(biquad_trajectories.mapper, ())
