"""Equivalence suite for the stamp-once/solve-many simulation engine.

The refactor contract is strict: `BatchedMnaEngine` must reproduce the
scalar path (one `MnaSystem` + `solve_frequencies` per faulty circuit)
*bitwise* -- the assertions below use exact equality, with a <= 1 ULP
helper only as documentation of the acceptance bound.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    BatchedMnaEngine,
    FactoredMnaEngine,
    PipelineConfig,
    parametric_universe,
    rc_lowpass,
    tow_thomas_biquad,
)
from repro.circuits.library import BENCHMARK_CIRCUITS
from repro.errors import ReproError, SimulationError
from repro.sim import lowrank
from repro.faults import FaultDictionary, catastrophic_universe
from repro.faults.universe import parametric_universe as build_universe
from repro.sim import ACAnalysis, VariantTable
from repro.sim.engine import ResponseBlock, ScalarMnaEngine
from repro.sim.sweep import deviation_sweep, value_sweep
from repro.units import log_frequency_grid

# A small but structurally diverse fault grid for the sweep tests.
_DEVIATIONS = (-0.4, -0.1, 0.1, 0.4)


def _ulp_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Largest component-wise ULP distance between two complex arrays."""
    worst = 0
    for part in (np.real, np.imag):
        x = np.asarray(part(a), dtype=np.float64)
        y = np.asarray(part(b), dtype=np.float64)
        same = x == y
        spacing = np.spacing(np.maximum(np.abs(x), np.abs(y)))
        ulps = np.where(same, 0.0, np.abs(x - y) / spacing)
        worst = max(worst, int(np.ceil(ulps.max())))
    return worst


def _scalar_reference(info, universe, grid):
    """The historical per-fault scalar path, verbatim."""
    responses = [ACAnalysis(info.circuit).transfer(
        info.output_node, grid, info.input_source)]
    for _, faulty in universe.faulty_circuits():
        responses.append(ACAnalysis(faulty).transfer(
            info.output_node, grid, info.input_source))
    return responses


class TestBatchedEquivalence:
    @pytest.mark.parametrize("name", sorted(BENCHMARK_CIRCUITS))
    def test_bitwise_equal_on_library(self, name):
        """Batched == per-frequency MnaSystem.solve_frequencies, every
        library circuit, every fault, every grid point."""
        info = BENCHMARK_CIRCUITS[name]()
        universe = build_universe(info.circuit,
                                  components=info.faultable,
                                  deviations=_DEVIATIONS)
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 31)

        engine = BatchedMnaEngine(info.circuit)
        variants = universe.variants()
        block = engine.transfer_block(info.output_node, grid, variants,
                                      info.input_source)
        reference = _scalar_reference(info, universe, grid)
        assert len(block) == len(reference)
        for index, expected in enumerate(reference):
            got = block.values[index]
            assert _ulp_distance(got, expected.values) <= 1
            # In practice the equality is exact, not just <= 1 ULP.
            assert np.array_equal(got, expected.values), \
                f"{name} variant {index} differs from the scalar path"

    def test_macromodel_and_catastrophic_faults(self):
        """Delta-stamps cover op-amp macro parameters and open/short
        extremes, not just passive value deviations."""
        info = tow_thomas_biquad(ideal_opamps=False)
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 21)
        parametric = build_universe(info.circuit,
                                    components=info.faultable,
                                    deviations=(-0.3, 0.3),
                                    include_opamp_params=True)
        hard = catastrophic_universe(info.circuit,
                                     components=("R1", "C1"))
        for universe in (parametric, hard):
            engine = BatchedMnaEngine(info.circuit)
            block = engine.transfer_block(
                info.output_node, grid,
                universe.variants(),
                info.input_source)
            reference = _scalar_reference(info, universe, grid)
            for index, expected in enumerate(reference):
                assert np.array_equal(block.values[index],
                                      expected.values)

    @pytest.mark.parametrize("engine_type", [
        BatchedMnaEngine, ScalarMnaEngine])
    @pytest.mark.parametrize("matrices", [2 * 37, 8, 1], ids=[
        "whole-variants", "variant-frequencies", "one-matrix"])
    def test_freq_chunked_path_bitwise(self, monkeypatch, engine_type,
                                       matrices):
        """With a small stack budget the solve is chunked into two whole
        variants, slices of one variant's frequencies or single matrices
        -- still bitwise-equal. The scalar engine solves through
        ``MnaSystem.solve_frequencies``."""
        import repro.sim.mna as mna_module
        info = tow_thomas_biquad(ideal_opamps=False)
        universe = build_universe(info.circuit,
                                  components=("R1", "C1"),
                                  deviations=(-0.2, 0.2))
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 37)
        variants = universe.variants()
        reference = engine_type(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        # Budget for ``matrices`` matrices of the 37-point grid.
        dim = BatchedMnaEngine(info.circuit).system.dim
        monkeypatch.setattr(mna_module, "_STACK_MEMORY_BUDGET",
                            matrices * 16 * dim * dim)
        chunked = engine_type(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        assert np.array_equal(chunked.values, reference.values)

    def test_scalar_engine_matches_batched(self):
        info = rc_lowpass()
        universe = build_universe(info.circuit,
                                  deviations=_DEVIATIONS)
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 11)
        variants = universe.variants()
        batched = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        scalar = ScalarMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        assert np.array_equal(batched.values, scalar.values)
        assert batched.labels == scalar.labels

    def test_dictionary_build_engines_identical(self):
        info = tow_thomas_biquad(ideal_opamps=False)
        universe = build_universe(info.circuit,
                                  components=info.faultable,
                                  deviations=_DEVIATIONS)
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 24)
        batched = FaultDictionary.build(
            universe, info.output_node, grid,
            input_source=info.input_source,
            engine=BatchedMnaEngine(info.circuit))
        scalar = FaultDictionary.build(
            universe, info.output_node, grid,
            input_source=info.input_source,
            engine=ScalarMnaEngine(info.circuit))
        assert batched.labels == scalar.labels
        assert np.array_equal(batched.golden.values, scalar.golden.values)
        for built, reference in zip(batched.entries, scalar.entries):
            assert np.array_equal(built.response.values,
                                  reference.response.values)
            assert built.response.label == reference.response.label

    def test_engine_reuse_across_grids(self):
        """One stamped engine serves both the dense and the exact grid."""
        info = rc_lowpass()
        universe = build_universe(info.circuit, deviations=_DEVIATIONS)
        engine = BatchedMnaEngine(info.circuit)
        dense = log_frequency_grid(info.f_min_hz, info.f_max_hz, 16)
        exact = np.array([500.0, 1500.0])
        for grid in (dense, exact):
            built = FaultDictionary.build(
                universe, info.output_node, grid,
                input_source=info.input_source, engine=engine)
            fresh = FaultDictionary.build(
                universe, info.output_node, grid,
                input_source=info.input_source)
            assert np.array_equal(built.golden.values,
                                  fresh.golden.values)

    def test_engine_circuit_mismatch_rejected(self):
        info = rc_lowpass()
        other = tow_thomas_biquad()
        universe = build_universe(info.circuit, deviations=(0.1,))
        from repro.errors import DictionaryError
        with pytest.raises(DictionaryError, match="engine was built"):
            FaultDictionary.build(
                universe, info.output_node, np.array([100.0, 200.0]),
                engine=BatchedMnaEngine(other.circuit))


class TestApplyOnlyFaultCompat:
    def test_apply_only_subclass_still_builds(self):
        """Fault subclasses implementing only apply() (the historical
        extension contract) still feed both engines."""
        from dataclasses import dataclass
        from repro.circuits.netlist import Circuit
        from repro.faults.models import Fault
        from repro.faults.universe import FaultUniverse

        @dataclass(frozen=True)
        class HalvedFault(Fault):
            @property
            def label(self):
                return f"{self.component}:halved"

            def apply(self, circuit: Circuit) -> Circuit:
                return circuit.scaled_value(
                    self.component, 0.5,
                    name=f"{circuit.name}#{self.label}")

        info = rc_lowpass()
        universe = FaultUniverse(info.circuit,
                                 (HalvedFault("R1"), HalvedFault("C1")))
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 9)
        batched = FaultDictionary.build(
            universe, info.output_node, grid,
            input_source=info.input_source)
        reference = _scalar_reference(info, universe, grid)
        assert np.array_equal(batched.golden.values, reference[0].values)
        for entry, expected in zip(batched.entries, reference[1:]):
            assert np.array_equal(entry.response.values, expected.values)

    def test_fault_with_neither_method_raises(self):
        from repro.faults.models import Fault
        info = rc_lowpass()
        with pytest.raises(NotImplementedError,
                           match="replacement_component"):
            Fault("R1").replacement_component(info.circuit)


def _replacing_fault(replacement):
    """A fault on R1 whose replacement is ``replacement`` as given."""
    from repro.faults.models import Fault

    @dataclasses.dataclass(frozen=True)
    class ReplacingFault(Fault):
        @property
        def label(self):
            return f"{self.component}:replaced"

        def replacement_component(self, circuit):
            return replacement

    return ReplacingFault("R1")


class TestVariantSpecs:
    """Variant rows: fault replacements and hand-built tables."""

    def test_unknown_replacement_rejected(self):
        """A fault whose replacement names a component the circuit
        lacks is rejected by the one fault-to-table rule."""
        from repro.faults.universe import FaultUniverse
        info = rc_lowpass()
        foreign = tow_thomas_biquad().circuit["R3"]
        universe = FaultUniverse(info.circuit, (_replacing_fault(foreign),))
        with pytest.raises(SimulationError,
                           match="replaces unknown component 'R3'"):
            universe.variants()

    def test_multi_component_variant(self):
        """Tolerance-style variants replace several components at once."""
        info = tow_thomas_biquad()
        grid = np.array([300.0, 900.0])
        r1 = info.circuit["R1"]
        c1 = info.circuit["C1"]
        table = VariantTable((("R1", "value"), ("C1", "value")),
                             [[r1.value * 1.07, c1.value * 0.93]],
                             ("perturbed",))
        block = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, table, info.input_source)
        perturbed = info.circuit.with_value("R1", r1.value * 1.07) \
            .with_value("C1", c1.value * 0.93)
        expected = ACAnalysis(perturbed).transfer(
            info.output_node, grid, info.input_source)
        assert np.array_equal(block.values[0], expected.values)

    @pytest.mark.parametrize("budget", [None, 1])
    def test_singular_variant_is_named(self, monkeypatch, budget):
        """A singular variant's error names that variant, on the fused
        path and (with a one-byte stack budget) the per-variant one; a
        singular nominal's names the circuit, on the factored engine's
        base solve and on ``MnaSystem.solve_frequencies``."""
        from repro.circuits.netlist import Circuit
        from repro.errors import SingularCircuitError
        from repro.sim import mna as mna_module
        from repro.sim.mna import MnaSystem
        if budget is not None:
            monkeypatch.setattr(mna_module, "_STACK_MEMORY_BUDGET",
                                budget)

        def buffer(gain):
            circuit = Circuit("buffer")
            circuit.add_voltage_source("V1", "in", "0", ac=1.0)
            circuit.add_resistor("R1", "in", "out", 1e3)
            circuit.add_vcvs("E1", "buf", "0", "buf", "out", gain=gain)
            circuit.add_resistor("R2", "buf", "0", 1e3)
            return circuit

        freqs = np.array([10.0, 100.0, 1000.0])
        # Unit gain around the E1 loop leaves its branch row all zero.
        variants = VariantTable((("E1", "gain"),), [[2.0], [1.0], [2.0]],
                                ("first", "buffer#E1_unit", "third"))
        with pytest.raises(SingularCircuitError, match="buffer#E1_unit"):
            BatchedMnaEngine(buffer(2.0)).transfer_block(
                "buf", freqs, variants)
        singular = buffer(1.0)
        nominal_first = VariantTable((("E1", "gain"),), [[1.0], [2.0]],
                                     ("buffer", "buffer#E1_double"))
        with pytest.raises(SingularCircuitError,
                           match="^buffer: MNA matrix singular at s="):
            FactoredMnaEngine(singular).transfer_block(
                "buf", freqs, nominal_first)
        with pytest.raises(SingularCircuitError,
                           match="^buffer: MNA matrix singular at s="):
            MnaSystem(singular).solve_frequencies(freqs)

    @pytest.mark.parametrize("engine_type", [
        BatchedMnaEngine, FactoredMnaEngine, ScalarMnaEngine])
    def test_only_tables_are_accepted(self, engine_type):
        info = rc_lowpass()
        table = VariantTable.nominal(info.circuit.name)
        with pytest.raises(SimulationError,
                           match="needs a VariantTable, got list"):
            engine_type(info.circuit).transfer_block(
                info.output_node, np.array([100.0]), [table],
                info.input_source)


class TestResponseBlock:
    @pytest.fixture()
    def block(self):
        info = rc_lowpass()
        universe = build_universe(info.circuit, deviations=(-0.2, 0.2))
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 9)
        engine = BatchedMnaEngine(info.circuit)
        return engine.transfer_block(
            info.output_node, grid,
            universe.variants(),
            info.input_source)

    def test_len_and_iteration(self, block):
        assert len(block) == 5
        assert len(list(block)) == 5

    def test_response_by_label_and_index(self, block):
        by_index = block.response(1)
        by_label = block.response(block.labels[1])
        assert by_index is by_label  # lazily built once, cached

    def test_response_values_are_rows(self, block):
        for index in range(len(block)):
            assert np.array_equal(block.response(index).values,
                                  block.values[index])

    def test_unknown_label(self, block):
        with pytest.raises(SimulationError, match="no variant"):
            block.response("nope")

    def test_magnitude_db_shape(self, block):
        assert block.magnitude_db().shape == block.values.shape


class TestSweepEquivalence:
    def test_value_sweep_matches_scalar(self):
        info = rc_lowpass()
        grid = log_frequency_grid(10.0, 1e5, 21)
        values = [5e3, 1e4, 2e4]
        result = value_sweep(info.circuit, info.output_node, "R1",
                             values, grid)
        for value, response in zip(values, result.responses):
            expected = ACAnalysis(
                info.circuit.with_value("R1", value)).transfer(
                    info.output_node, grid)
            assert np.array_equal(response.values, expected.values)
        nominal = ACAnalysis(info.circuit).transfer(info.output_node,
                                                    grid)
        assert np.array_equal(result.nominal.values, nominal.values)


class TestSweepResultLookup:
    def test_zero_deviation_lookup(self):
        """An rtol-only comparison can never match a swept value of 0."""
        info = rc_lowpass()
        grid = log_frequency_grid(10.0, 1e4, 9)
        result = deviation_sweep(info.circuit, info.output_node, "R1",
                                 [-0.2, 0.0, 0.2], grid)
        assert result.response_at(0.0) is result.responses[1]

    def test_nano_scale_values_not_conflated(self):
        """numpy's default atol (1e-8) would match every point of a
        capacitance sweep; the scale-aware atol keeps them distinct."""
        info = rc_lowpass()
        grid = log_frequency_grid(10.0, 1e4, 9)
        c1 = info.circuit["C1"].value   # ~1.6e-8 F
        values = [0.8 * c1, c1, 1.2 * c1]
        result = value_sweep(info.circuit, info.output_node, "C1",
                             values, grid)
        for value, expected in zip(values, result.responses):
            assert result.response_at(value) is expected

    def test_missing_value_raises(self):
        info = rc_lowpass()
        grid = log_frequency_grid(10.0, 1e4, 9)
        result = deviation_sweep(info.circuit, info.output_node, "R1",
                                 [-0.1, 0.1], grid)
        with pytest.raises(SimulationError, match="no sweep point"):
            result.response_at(0.3)

    def test_near_match_within_tolerance(self):
        info = rc_lowpass()
        grid = log_frequency_grid(10.0, 1e4, 9)
        result = deviation_sweep(info.circuit, info.output_node, "R1",
                                 [-0.1, 0.1], grid)
        assert result.response_at(0.1 * (1.0 + 1e-12)) is \
            result.responses[1]


class TestDictionaryMatrixCache:
    def test_cached_and_read_only(self):
        info = rc_lowpass()
        universe = build_universe(info.circuit, deviations=(-0.2, 0.2))
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 16)
        dictionary = FaultDictionary.build(universe, info.output_node,
                                           grid)
        first = dictionary.response_matrix_db()
        second = dictionary.response_matrix_db()
        assert first is second
        assert not first.flags.writeable
        expected = np.vstack(
            [dictionary.golden.magnitude_db] +
            [entry.response.magnitude_db for entry in dictionary.entries])
        assert np.array_equal(first, expected)


class TestGADeterminism:
    @pytest.fixture(scope="class")
    def fitness_factory(self, request):
        from repro.faults import ResponseSurface
        from repro.ga import PaperFitness
        from repro.ga.encoding import FrequencySpace
        info = rc_lowpass()
        universe = build_universe(info.circuit, deviations=_DEVIATIONS)
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 64)
        dictionary = FaultDictionary.build(
            universe, info.output_node, grid,
            input_source=info.input_source)
        space = FrequencySpace(info.f_min_hz, info.f_max_hz, 2)

        def factory():
            return space, PaperFitness(ResponseSurface(dictionary))
        return factory

    def test_population_matches_per_individual_calls(self,
                                                     fitness_factory):
        space, fitness_a = fitness_factory()
        _, fitness_b = fitness_factory()
        rng = np.random.default_rng(3)
        population = space.random_population(rng, 12)
        decoded = [space.decode(genome) for genome in population]
        batch = fitness_a.score_population(decoded)
        single = np.array([fitness_b(freqs) for freqs in decoded])
        assert np.array_equal(batch, single)
        # Re-scoring hits the cache and stays stable.
        assert np.array_equal(fitness_a.score_population(decoded), batch)
        assert fitness_a.evaluations == fitness_b.evaluations


class TestPipelineEngineKnob:
    def test_invalid_engine_rejected(self):
        """The pipeline has one engine, so a config cannot name any."""
        with pytest.raises(TypeError, match="engine"):
            PipelineConfig(engine="magic")
        with pytest.raises(ReproError, match="engine"):
            PipelineConfig.from_json_dict({"engine": "factored"})

    def test_scalar_and_batched_pipelines_agree(self):
        """The pipeline run on the batched engine (the factored engine's
        dense fallback) equals the same pipeline run on the per-clone
        reference engine (the test oracle no config names)."""
        from repro import FaultTrajectoryATPG
        info = rc_lowpass()
        config = PipelineConfig(dictionary_points=64,
                                ga=PipelineConfig.quick().ga)
        dense = FaultTrajectoryATPG(info, config)
        dense.engine = BatchedMnaEngine(info.circuit)
        batched = dense.run(seed=3)
        oracle = FaultTrajectoryATPG(info, config)
        oracle.engine = ScalarMnaEngine(info.circuit)
        scalar = oracle.run(seed=3)
        assert batched.test_vector_hz == scalar.test_vector_hz
        assert np.array_equal(batched.dictionary.golden.values,
                              scalar.dictionary.golden.values)
        evaluation_b = batched.evaluate(deviations=(-0.25, 0.25))
        evaluation_s = scalar.evaluate(deviations=(-0.25, 0.25))
        assert evaluation_b.accuracy == evaluation_s.accuracy


class TestEvaluateClassifierBatched:
    def test_batched_matches_per_point(self, quick_pipeline_result):
        """evaluate_classifier's (N, F) batch path reproduces the scalar
        per-point loop diagnosis-for-diagnosis."""
        from repro.diagnosis import evaluate_classifier, make_test_cases
        result = quick_pipeline_result
        cases = make_test_cases(result.info, result.mapper,
                                components=result.universe.components,
                                deviations=(-0.25, 0.25))
        batched = evaluate_classifier(result.classifier, cases,
                                      groups=result.groups)
        scalar_results = [
            (case, result.classifier.classify_point(case.point))
            for case in cases]
        assert len(batched.results) == len(scalar_results)
        for got, (case, expected) in zip(batched.results,
                                         scalar_results):
            assert got.diagnosis.component == expected.component
            assert got.diagnosis.estimated_deviation == \
                expected.estimated_deviation
            assert got.diagnosis.distance == expected.distance
            assert got.diagnosis.ranking == expected.ranking

    def test_case_generation_engine_matches_scalar_engine(self):
        """make_test_cases under the batched engine equals the scalar
        engine, including noise/tolerance randomisation."""
        from repro.diagnosis import make_test_cases
        from repro.trajectory import SignatureMapper
        info = tow_thomas_biquad(ideal_opamps=False)
        mapper = SignatureMapper((500.0, 1500.0))
        kwargs = dict(deviations=(-0.15, 0.15), noise_db=0.1,
                      tolerance=0.05, repeats=2, seed=42)
        batched = make_test_cases(info, mapper,
                                  engine=BatchedMnaEngine(info.circuit),
                                  **kwargs)
        scalar = make_test_cases(info, mapper,
                                 engine=ScalarMnaEngine(info.circuit),
                                 **kwargs)
        assert len(batched) == len(scalar)
        for got, expected in zip(batched, scalar):
            assert got.true_component == expected.true_component
            assert got.true_deviation == expected.true_deviation
            assert np.array_equal(got.point, expected.point)


def _assert_block_close(got, expected, *, rtol, context=""):
    """Scaled-error comparison for the factored engine's contract.

    The Sherman-Morrison-Woodbury correction is computed against the
    *base* solution, so its error is naturally bounded relative to
    the largest response in the block, not point-by-point -- the atol
    below anchors the comparison to that scale.
    """
    got = np.asarray(got)
    expected = np.asarray(expected)
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    np.testing.assert_allclose(got, expected, rtol=rtol,
                               atol=rtol * max(scale, 1e-30),
                               err_msg=context)


class TestFactoredEquivalence:
    """FactoredMnaEngine vs the scalar reference: tight tolerance.

    Unlike batched<->scalar (bitwise), the low-rank path is a different
    floating-point computation; the contract is agreement within
    ~1e-9 scaled on parametric faults and ~1e-6 on catastrophic
    extremes (where the dense fallback handles the genuinely
    ill-conditioned updates).
    """

    @pytest.mark.parametrize("name", sorted(BENCHMARK_CIRCUITS))
    def test_tight_tolerance_on_library(self, name):
        info = BENCHMARK_CIRCUITS[name]()
        universe = build_universe(info.circuit,
                                  components=info.faultable,
                                  deviations=_DEVIATIONS)
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 31)
        engine = FactoredMnaEngine(info.circuit)
        variants = universe.variants()
        block = engine.transfer_block(info.output_node, grid, variants,
                                      info.input_source)
        reference = _scalar_reference(info, universe, grid)
        assert len(block) == len(reference)
        for index, expected in enumerate(reference):
            _assert_block_close(
                block.values[index], expected.values, rtol=1e-9,
                context=f"{name} variant {index}")
        # Parametric deviations really exercise the low-rank path.
        assert engine.lowrank_updates > 0

    def test_macromodel_and_catastrophic_within_tolerance(self):
        """Op-amp macro parameters and open/short extremes stay within
        tolerance; the extremes route through the conditioning
        fallback rather than producing garbage."""
        info = tow_thomas_biquad(ideal_opamps=False)
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 21)
        parametric = build_universe(info.circuit,
                                    components=info.faultable,
                                    deviations=(-0.3, 0.3),
                                    include_opamp_params=True)
        hard = catastrophic_universe(info.circuit,
                                     components=("R1", "C1"))
        for universe, rtol in ((parametric, 1e-9), (hard, 1e-6)):
            engine = FactoredMnaEngine(info.circuit)
            block = engine.transfer_block(
                info.output_node, grid,
                universe.variants(),
                info.input_source)
            reference = _scalar_reference(info, universe, grid)
            for index, expected in enumerate(reference):
                _assert_block_close(block.values[index],
                                    expected.values, rtol=rtol,
                                    context=f"variant {index}")
            if universe is hard:
                assert engine.lowrank_fallbacks["conditioning"] > 0

    def test_conditioning_fallback_is_bitwise_dense(self):
        """A near-singular update (R1 scaled by 1e-12) is detected by
        the conditioning guard and recomputed on the dense path --
        the fallback rows equal BatchedMnaEngine exactly."""
        info = rc_lowpass()
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 15)
        r1 = info.circuit["R1"]
        variants = VariantTable(
            (("R1", "value"),),
            [[r1.value], [r1.value * 1e-12], [r1.value * 1.1]],
            ("nominal", "R1:short", "R1:+10%"))
        engine = FactoredMnaEngine(info.circuit)
        block = engine.transfer_block(info.output_node, grid, variants,
                                      info.input_source)
        assert engine.lowrank_fallbacks["conditioning"] == 1
        assert engine.lowrank_updates == 1
        dense = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        assert np.array_equal(block.values[1], dense.values[1])
        _assert_block_close(block.values, dense.values, rtol=1e-9)

    def test_cond_limit_one_forces_dense_everywhere(self):
        """cond_limit=1.0 flags every update as ill-conditioned, so the
        whole block equals the batched engine bitwise -- the fallback
        is a true superset path, not an approximation."""
        info = tow_thomas_biquad()
        universe = build_universe(info.circuit,
                                  components=("R1", "C1"),
                                  deviations=(-0.2, 0.2))
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 11)
        variants = universe.variants()
        engine = FactoredMnaEngine(info.circuit, cond_limit=1.0)
        block = engine.transfer_block(info.output_node, grid, variants,
                                      info.input_source)
        assert engine.lowrank_updates == 0
        assert engine.lowrank_fallbacks["conditioning"] == \
            len(variants) - 1
        dense = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        assert np.array_equal(block.values, dense.values)
        assert block.labels == dense.labels

    def test_nonfinite_update_falls_back(self, monkeypatch):
        """A low-rank row whose update overflows downstream of a finite
        capacitance matrix (here: an infinite correction at the last
        frequency) goes to the dense path as 'nonfinite' and equals
        the batched engine bitwise."""
        info = tow_thomas_biquad()
        universe = build_universe(info.circuit, components=("R1", "C1"),
                                  deviations=(-0.2, 0.2))
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 5)
        solve = lowrank.solve_capacitance

        def overflowing(cap, rhs):
            out = solve(cap, rhs)
            out[..., -1, :] = np.inf
            return out
        monkeypatch.setattr(lowrank, "solve_capacitance", overflowing)
        engine = FactoredMnaEngine(info.circuit)
        with np.errstate(invalid="ignore"):
            block = engine.transfer_block(info.output_node, grid,
                                          universe.variants(),
                                          info.input_source)
        assert engine.lowrank_updates == 0
        assert engine.lowrank_fallbacks == {
            "conditioning": 0, "rank": 0, "nonfinite": len(universe)}
        dense = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, universe.variants(), info.input_source)
        assert np.array_equal(block.values, dense.values)

    def test_rank_overflow_falls_back(self):
        """Support wider than max_rank is decided upfront ('rank'
        reason) and still matches the dense path bitwise."""
        info = tow_thomas_biquad()
        grid = np.array([300.0, 900.0])
        r1 = info.circuit["R1"]
        c1 = info.circuit["C1"]
        pair = VariantTable((("R1", "value"), ("C1", "value")),
                            [[r1.value * 1.07, c1.value * 0.93]],
                            ("pair",))
        engine = FactoredMnaEngine(info.circuit, max_rank=1)
        block = engine.transfer_block(info.output_node, grid, pair,
                                      info.input_source)
        assert engine.lowrank_fallbacks["rank"] == 1
        dense = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, pair, info.input_source)
        assert np.array_equal(block.values, dense.values)

    def test_wide_update_pays_only_on_a_large_circuit(self):
        """A row changing three resistors is a rank-3+ update: on the
        dim-11 biquad it goes to the dense path ('rank', bitwise), on a
        dim-27 ladder it stays low-rank."""
        from repro.circuits.library import rc_ladder
        for info, low_rank in ((tow_thomas_biquad(), False),
                               (rc_ladder(25), True)):
            engine = FactoredMnaEngine(info.circuit)
            names = [c.name for c in info.circuit
                     if c.name.startswith("R")][1:4]
            nominal = [info.circuit[name].value for name in names]
            table = VariantTable(tuple((name, "value") for name in names),
                                 [nominal, [v * 1.05 for v in nominal]],
                                 ("nominal", "three"))
            grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 7)
            block = engine.transfer_block(info.output_node, grid, table,
                                          info.input_source)
            dense = BatchedMnaEngine(info.circuit).transfer_block(
                info.output_node, grid, table, info.input_source)
            if low_rank:
                assert engine.lowrank_updates == 1
                _assert_block_close(block.values, dense.values, rtol=1e-9)
            else:
                assert engine.lowrank_fallbacks["rank"] == 1
                assert np.array_equal(block.values[1], dense.values[1])

    def test_stimulus_replacement_rides_the_lowrank_path(self):
        """Changing the input source's AC magnitude/phase is a pure
        RHS delta -- handled low-rank (no fallback), matching the
        batched engine."""
        info = rc_lowpass()
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 9)
        source = info.circuit[info.input_source]
        variants = VariantTable(
            ((source.name, "ac_magnitude"), (source.name, "ac_phase_deg")),
            [[source.ac_magnitude, source.ac_phase_deg],
             [source.ac_magnitude * 2.0, 30.0]],
            ("nominal", "boosted"))
        engine = FactoredMnaEngine(info.circuit)
        block = engine.transfer_block(info.output_node, grid, variants,
                                      info.input_source)
        assert engine.lowrank_updates == 1
        assert sum(engine.lowrank_fallbacks.values()) == 0
        dense = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        _assert_block_close(block.values, dense.values, rtol=1e-12)

    @pytest.mark.parametrize("matrices", [2 * 37, 8, 1], ids=[
        "whole-variants", "variant-frequencies", "one-matrix"])
    def test_freq_chunked_path_matches(self, monkeypatch, matrices):
        """A small stack budget forces several frequency chunks through
        the factored solver; results match the unchunked run."""
        import repro.sim.mna as mna_module
        info = tow_thomas_biquad(ideal_opamps=False)
        universe = build_universe(info.circuit,
                                  components=("R1", "C1"),
                                  deviations=(-0.2, 0.2))
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 37)
        variants = universe.variants()
        reference = FactoredMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        dim = BatchedMnaEngine(info.circuit).system.dim
        monkeypatch.setattr(mna_module, "_STACK_MEMORY_BUDGET",
                            matrices * 16 * dim * dim)
        chunked = FactoredMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        _assert_block_close(chunked.values, reference.values,
                            rtol=1e-12)

    def test_ground_output_short_circuits_to_zero(self):
        info = rc_lowpass()
        grid = np.array([100.0, 1000.0])
        block = FactoredMnaEngine(info.circuit).transfer_block(
            "0", grid, VariantTable.nominal("nominal"),
            info.input_source)
        assert np.array_equal(block.values,
                              np.zeros((1, 2), dtype=complex))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_variants_match_batched(self, data):
        """Hypothesis: any random multi-component row agrees with the
        batched engine within tolerance (or falls back to it
        exactly)."""
        info = tow_thomas_biquad()
        names = sorted(info.faultable)
        chosen = data.draw(st.lists(st.sampled_from(names),
                                    min_size=1, max_size=3,
                                    unique=True))
        nominal = [info.circuit[name].value for name in chosen]
        scaled = []
        for value in nominal:
            log2_scale = data.draw(st.floats(min_value=-6.0,
                                             max_value=6.0,
                                             allow_nan=False))
            scaled.append(value * 2.0 ** log2_scale)
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 7)
        variants = VariantTable(tuple((name, "value") for name in chosen),
                                [nominal, scaled],
                                (info.circuit.name, "random"))
        factored = FactoredMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        batched = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        _assert_block_close(factored.values, batched.values, rtol=1e-8,
                            context=f"components {chosen}")


def _world_table(info, worlds=3, tolerance=0.03, seed=7):
    """A posterior-shaped world table: the fault-free row plus one row
    per single-component fault, the faultable targets scaled per world."""
    universe = build_universe(info.circuit, components=info.faultable,
                              deviations=(-0.2, 0.3))
    hypotheses = universe.variants().with_columns(
        info.circuit, [(name, "value") for name in info.faultable])
    eps = np.random.default_rng(seed).uniform(
        -tolerance, tolerance, size=(worlds, len(info.faultable)))
    return VariantTable.of_worlds(hypotheses, 1.0 + eps)


class TestWorldTables:
    """``VariantTable.of_worlds``: each world's fault-free row is the
    base its fault rows are low-rank updates of."""

    def test_layout_labels_and_bases(self):
        info = tow_thomas_biquad()
        hypotheses = build_universe(info.circuit, components=("R1", "C1"),
                                    deviations=(-0.2, 0.2)).variants()
        scale = np.array([[1.01], [0.98]])
        table = VariantTable.of_worlds(hypotheses, scale)
        count = len(hypotheses)
        assert len(table) == 2 * count
        assert table.bases.tolist() == [0] * count + [count] * count
        assert not table.bases.flags.writeable
        assert table.labels[count + 1] == f"{hypotheses.labels[1]}@w1"
        expected = np.repeat(hypotheses.values[None], 2, axis=0)
        expected[:, :, 0] *= scale
        assert np.array_equal(
            table.values, expected.reshape(-1, len(hypotheses.columns)))
        assert table.take([0, 1]).bases is None
        assert VariantTable.of_faults(info.circuit, []).bases is None
        with pytest.raises(SimulationError, match="world scale"):
            VariantTable.of_worlds(hypotheses, np.ones((2, 3)))

    @pytest.mark.parametrize("name", sorted(BENCHMARK_CIRCUITS))
    def test_world_rows_match_scalar_at_rank_two(self, name):
        """Every registry circuit: each fault row is an update of its
        own world's base at support <= 2 (passive single-component
        faults), never a fallback, within the factored tolerance of
        the scalar reference."""
        info = BENCHMARK_CIRCUITS[name]()
        table = _world_table(info)
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 9)
        engine = FactoredMnaEngine(info.circuit)
        plan = engine._plan(table, table.bind(info.circuit))
        assert not plan.too_wide.size
        assert sorted(plan.identity.tolist()) == \
            sorted(set(table.bases.tolist()))
        assert max(max(len(update.touched), len(update.cols))
                   for update in plan.passes) <= 2
        block = engine.transfer_block(info.output_node, grid, table,
                                      info.input_source)
        assert engine.lowrank_fallbacks == {
            "conditioning": 0, "rank": 0, "nonfinite": 0}
        assert engine.lowrank_updates == len(table) - plan.identity.size
        scalar = ScalarMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, table, info.input_source)
        for index in range(len(table)):
            _assert_block_close(block.values[index], scalar.values[index],
                                rtol=1e-9, context=f"{name} row {index}")

    def test_tiny_cond_limit_falls_back_to_batched_bitwise(self):
        """With the guard forced to reject every update, each fault row
        falls back and the block equals the batched block bitwise --
        the world bases themselves are exact factorisations."""
        info = tow_thomas_biquad(ideal_opamps=False)
        table = _world_table(info)
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 11)
        engine = FactoredMnaEngine(info.circuit, cond_limit=1e-300)
        block = engine.transfer_block(info.output_node, grid, table,
                                      info.input_source)
        bases = len(set(table.bases.tolist()))
        assert engine.lowrank_updates == 0
        assert engine.lowrank_fallbacks["conditioning"] == \
            len(table) - bases
        dense = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, table, info.input_source)
        assert np.array_equal(block.values, dense.values)
        assert block.labels == dense.labels

    def test_stimulus_world_row_rides_the_lowrank_path(self):
        """A world row that changes the input source (an RHS delta on
        the world's base) stays on the low-rank path."""
        info = rc_lowpass()
        source = info.circuit[info.input_source]
        r1 = info.circuit["R1"].value
        c1 = info.circuit["C1"].value
        hypotheses = VariantTable(
            (("R1", "value"), ("C1", "value"),
             (source.name, "ac_magnitude"), (source.name, "ac_phase_deg")),
            [[r1, c1, source.ac_magnitude, source.ac_phase_deg],
             [r1 * 1.2, c1, source.ac_magnitude, source.ac_phase_deg],
             [r1, c1, source.ac_magnitude * 2.0, 30.0]],
            ("golden", "R1:+20%", "boosted"))
        table = VariantTable.of_worlds(hypotheses,
                                       [[1.02, 0.97], [0.99, 1.03]])
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 9)
        engine = FactoredMnaEngine(info.circuit)
        block = engine.transfer_block(info.output_node, grid, table,
                                      info.input_source)
        assert engine.lowrank_updates == 4
        assert sum(engine.lowrank_fallbacks.values()) == 0
        dense = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, table, info.input_source)
        _assert_block_close(block.values, dense.values, rtol=1e-12)


class TestFrequencySubsets:
    """A ``transfer_block`` on a subset of a grid equals those columns of
    the full grid's block, bit for bit: every (row, frequency) solve is
    its own. The posterior tier rests on it -- its build solves the
    worlds at the test vector, its ranking half at the other candidate
    frequencies, and it splices the two."""

    @staticmethod
    def _subsets(size):
        rng = np.random.default_rng(size)
        return ([0], [size - 1], [2, 5], list(range(1, size, 2)),
                sorted(rng.choice(size, size=size // 2, replace=False)))

    def _assert_columns(self, engine_factory, info, table, grid):
        full = engine_factory().transfer_block(
            info.output_node, grid, table, info.input_source)
        engine = engine_factory()
        for subset in self._subsets(grid.size):
            missing = np.setdiff1d(np.arange(grid.size), subset)
            for columns in (subset, missing):
                # One engine for both halves: the second call reuses
                # the first's routing of the table.
                block = engine.transfer_block(
                    info.output_node, grid[columns], table,
                    info.input_source)
                assert block.values.tobytes() == \
                    full.values[:, columns].tobytes(), columns
        return engine

    @pytest.mark.parametrize("engine_type", [ScalarMnaEngine,
                                             BatchedMnaEngine,
                                             FactoredMnaEngine])
    @pytest.mark.parametrize("name", ["tow_thomas_biquad", "rc_ladder",
                                      "khn_state_variable"])
    def test_fault_table_columns(self, engine_type, name):
        info = BENCHMARK_CIRCUITS[name]()
        table = build_universe(info.circuit, components=info.faultable,
                               deviations=(-0.2, 0.3)).variants()
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 12)
        self._assert_columns(lambda: engine_type(info.circuit), info,
                             table, grid)

    @pytest.mark.parametrize("name", sorted(BENCHMARK_CIRCUITS))
    def test_world_table_columns(self, name):
        """Factored, each world's fault rows updates of their base."""
        info = BENCHMARK_CIRCUITS[name]()
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 12)
        engine = self._assert_columns(
            lambda: FactoredMnaEngine(info.circuit), info,
            _world_table(info), grid)
        assert sum(engine.lowrank_fallbacks.values()) == 0
        assert engine.lowrank_updates > 0

    def test_sparse_world_table_columns(self):
        """Factored with the bases factored by ``splu``."""
        if lowrank.scipy_sparse() is None:
            pytest.skip("scipy not available")
        info = tow_thomas_biquad(ideal_opamps=False)
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 12)
        engine = self._assert_columns(
            lambda: FactoredMnaEngine(info.circuit, sparse=True), info,
            _world_table(info), grid)
        assert engine.uses_sparse

    def test_world_table_rank_fallback_columns(self):
        """Factored with ``max_rank=1``: every rank-2 world row (a
        floating resistor) falls back to the dense path, every rank-1
        row (a grounded capacitor) stays an update, on every subset
        alike."""
        info = BENCHMARK_CIRCUITS["rc_ladder"]()
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 12)
        engine = self._assert_columns(
            lambda: FactoredMnaEngine(info.circuit, max_rank=1), info,
            _world_table(info), grid)
        assert engine.lowrank_fallbacks["rank"] > 0
        assert engine.lowrank_updates > 0


class TestFactoredSparsePath:
    def test_sparse_and_dense_factorisations_agree(self):
        """With scipy present the large-circuit sparse path matches the
        dense numpy path within tolerance."""
        if lowrank.scipy_sparse() is None:
            pytest.skip("scipy not available")
        info = BENCHMARK_CIRCUITS["rc_ladder"]()
        universe = build_universe(info.circuit,
                                  components=info.faultable,
                                  deviations=(-0.2, 0.2))
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 13)
        variants = universe.variants()
        sparse_engine = FactoredMnaEngine(info.circuit, sparse=True)
        dense_engine = FactoredMnaEngine(info.circuit, sparse=False)
        assert sparse_engine.uses_sparse
        assert not dense_engine.uses_sparse
        sparse_block = sparse_engine.transfer_block(
            info.output_node, grid, variants, info.input_source)
        dense_block = dense_engine.transfer_block(
            info.output_node, grid, variants, info.input_source)
        _assert_block_close(sparse_block.values, dense_block.values,
                            rtol=1e-9)

    def test_auto_mode_keys_off_dimension(self):
        if lowrank.scipy_sparse() is None:
            pytest.skip("scipy not available")
        small = rc_lowpass()
        assert not FactoredMnaEngine(small.circuit).uses_sparse
        assert FactoredMnaEngine(small.circuit,
                                 sparse_min_dim=1).uses_sparse

    def test_without_scipy_auto_falls_back_to_numpy(self, monkeypatch):
        """No scipy: 'auto' quietly uses the dense numpy factorisation
        and stays correct; explicit sparse=True fails loudly."""
        monkeypatch.setattr(lowrank, "scipy_sparse", lambda: None)
        info = rc_lowpass()
        engine = FactoredMnaEngine(info.circuit, sparse_min_dim=1)
        assert not engine.uses_sparse
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 9)
        universe = build_universe(info.circuit, deviations=(-0.1, 0.1))
        variants = universe.variants()
        block = engine.transfer_block(info.output_node, grid, variants,
                                      info.input_source)
        reference = _scalar_reference(info, universe, grid)
        for index, expected in enumerate(reference):
            _assert_block_close(block.values[index], expected.values,
                                rtol=1e-9)
        with pytest.raises(SimulationError, match="scipy"):
            FactoredMnaEngine(info.circuit, sparse=True)


class TestFactoredSelection:
    def test_make_engine_factored(self):
        """Every pipeline builds the factored engine; nothing selects
        another."""
        from repro import FaultTrajectoryATPG
        engine = FaultTrajectoryATPG(rc_lowpass()).engine
        assert isinstance(engine, FactoredMnaEngine)

    def test_config_accepts_and_round_trips_factored(self):
        """A config round-trips without an engine field and still
        builds the factored engine."""
        from repro import FaultTrajectoryATPG
        config = PipelineConfig.quick()
        restored = PipelineConfig.from_json_dict(config.to_json_dict())
        assert restored == config
        assert "engine" not in config.to_json_dict()
        assert isinstance(FaultTrajectoryATPG(rc_lowpass(), restored).engine,
                          FactoredMnaEngine)

    def test_invalid_factored_knobs_rejected(self):
        circuit = rc_lowpass().circuit
        with pytest.raises(SimulationError, match="cond_limit"):
            FactoredMnaEngine(circuit, cond_limit=0.0)
        with pytest.raises(SimulationError, match="max_rank"):
            FactoredMnaEngine(circuit, max_rank=0)
        with pytest.raises(SimulationError, match="sparse"):
            FactoredMnaEngine(circuit, sparse="always")

    def test_factored_pipeline_agrees_with_batched(self):
        from repro import FaultTrajectoryATPG
        info = rc_lowpass()
        config = PipelineConfig(dictionary_points=64,
                                ga=PipelineConfig.quick().ga)
        factored = FaultTrajectoryATPG(info, config).run(seed=3)
        dense = FaultTrajectoryATPG(info, config)
        dense.engine = BatchedMnaEngine(info.circuit)
        batched = dense.run(seed=3)
        assert batched.test_vector_hz == factored.test_vector_hz
        _assert_block_close(factored.dictionary.golden.values,
                            batched.dictionary.golden.values,
                            rtol=1e-9)
        evaluation_b = batched.evaluate(deviations=(-0.25, 0.25))
        evaluation_f = factored.evaluate(deviations=(-0.25, 0.25))
        assert evaluation_b.accuracy == evaluation_f.accuracy


# ----------------------------------------------------------------------
# Variant tables: the engines' native input
# ----------------------------------------------------------------------
def _controlled_sources_info():
    """Every controlled-source type, an inductor and a second (current)
    source: the stamps the registry circuits do not exercise."""
    from repro.circuits.netlist import Circuit
    circuit = Circuit("controlled")
    circuit.add_voltage_source("V1", "in", "0", ac=1.0)
    circuit.add_resistor("R1", "in", "a", 1e3)
    circuit.add_resistor("R2", "a", "0", 2e3)
    circuit.add_vcvs("E1", "b", "0", "a", "0", gain=2.0)
    circuit.add_resistor("R3", "b", "c", 1e3)
    circuit.add_capacitor("C1", "c", "0", 1e-7)
    circuit.add_vccs("G1", "0", "d", "c", "0", transconductance=1e-3)
    circuit.add_resistor("R4", "d", "e", 1e3)
    circuit.add_voltage_source("VS", "e", "0")
    circuit.add_ccvs("H1", "f", "0", "VS", transresistance=500.0)
    circuit.add_resistor("R5", "f", "g", 1e3)
    circuit.add_cccs("F1", "0", "g", "VS", gain=2.0)
    circuit.add_resistor("R6", "g", "0", 1e3)
    circuit.add_current_source("I1", "0", "g", ac=0.5)
    circuit.add_inductor("L1", "g", "0", 1e-2)
    return dataclasses.make_dataclass(
        "Info", ["circuit", "output_node", "input_source", "f_min_hz",
                 "f_max_hz"])(circuit, "g", "V1", 10.0, 1e5)


def _table_circuits():
    import repro
    return (
        rc_lowpass(),
        tow_thomas_biquad(ideal_opamps=False),
        BENCHMARK_CIRCUITS["lc_ladder_lowpass5"](),
        BENCHMARK_CIRCUITS["khn_state_variable"](),
        repro.generate("random_topology", 0),
        repro.generate("biquad_chain", 1),
        _controlled_sources_info(),
    )


_TABLE_CIRCUITS = _table_circuits()


def _circuit_for_row(circuit, cells, label):
    """One table row as a circuit whose replaced components are built
    through their constructors, independently of the engines' own row
    readers."""
    from repro.circuits.components import OpAmpMacro
    from repro.circuits.netlist import Circuit
    per_component = {}
    for (name, param), value in cells.items():
        per_component.setdefault(name, {})[param] = value
    replacements = {}
    for name, params in per_component.items():
        component = circuit[name]
        if isinstance(component, OpAmpMacro):
            for param, value in params.items():
                component = component.with_param(param, value)
        else:
            component = dataclasses.replace(component, **params)
        replacements[name] = component
    return Circuit(label, [replacements.get(component.name, component)
                           for component in circuit])


@st.composite
def _random_tables(draw):
    """(info, table, circuits): a random table over a registry,
    generated or hand-built circuit and the same rows as circuits."""
    from repro.sim.mna import parameter_value, stamp_parameters
    info = draw(st.sampled_from(_TABLE_CIRCUITS))
    circuit = info.circuit
    pairs = [(component.name, param) for component in circuit
             for param in stamp_parameters(component)]
    columns = draw(st.lists(st.sampled_from(pairs), min_size=1,
                            max_size=6, unique=True))
    nominal = [float(parameter_value(circuit[name], param))
               for name, param in columns]
    num_rows = draw(st.integers(min_value=1, max_value=5))
    values = np.tile(np.array(nominal), (num_rows, 1))
    circuits = []
    for row in range(num_rows):
        cells = {}
        for index, (name, param) in enumerate(columns):
            if not draw(st.booleans()):
                continue
            if param == "ac_phase_deg":
                value = draw(st.floats(-180.0, 180.0))
            elif nominal[index] == 0.0:
                value = draw(st.floats(0.1, 2.0))
            else:
                value = nominal[index] * 2.0 ** draw(st.floats(-3.0, 3.0))
            values[row, index] = value
            cells[(name, param)] = value
        circuits.append(_circuit_for_row(circuit, cells, f"row{row}"))
    table = VariantTable(tuple(columns), values,
                         tuple(f"row{row}" for row in range(num_rows)))
    return info, table, circuits


class TestVariantTableEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(case=_random_tables())
    def test_batched_table_equals_scalar_specs(self, case):
        """Hypothesis: any table -- random column subsets, multi-column
        rows, op-amp-macro, stimulus and controlled-source columns --
        stamped column-wise equals a per-row ACAnalysis of the same
        rows built as circuits, bitwise, and so does the scalar engine;
        the factored engine agrees within its tolerance."""
        info, table, circuits = case
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 7)
        batched = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, table, info.input_source)
        oracle = np.array([ACAnalysis(circuit).transfer(
            info.output_node, grid, info.input_source).values
            for circuit in circuits])
        assert np.array_equal(batched.values, oracle)
        assert batched.labels == table.labels == \
            tuple(circuit.name for circuit in circuits)
        assert len(batched) == len(table)
        scalar = ScalarMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, table, info.input_source)
        assert np.array_equal(scalar.values, oracle)
        assert scalar.labels == batched.labels
        factored = FactoredMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, table, info.input_source)
        _assert_block_close(factored.values, batched.values, rtol=1e-8,
                            context=f"columns {table.columns}")

    def test_specs_and_table_paths_agree(self):
        """universe.variants() -- passive and op-amp-macro faults --
        equals the per-fault ``fault.apply`` circuits under ACAnalysis,
        bitwise and label for label, through the batched and the
        scalar engine."""
        info = tow_thomas_biquad(ideal_opamps=False)
        universe = build_universe(info.circuit, components=info.faultable,
                                  deviations=(-0.3, 0.3),
                                  include_opamp_params=True)
        table = universe.variants()
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 9)
        circuits = [info.circuit] + [faulty for _, faulty in
                                     universe.faulty_circuits()]
        oracle = np.array([ACAnalysis(circuit).transfer(
            info.output_node, grid, info.input_source).values
            for circuit in circuits])
        labels = tuple(circuit.name for circuit in circuits)
        for engine_type in (BatchedMnaEngine, ScalarMnaEngine):
            block = engine_type(info.circuit).transfer_block(
                info.output_node, grid, table, info.input_source)
            assert np.array_equal(block.values, oracle), engine_type
            assert block.labels == labels

    def test_solve_span_splits_stamping_from_solving(self):
        """engine.solve carries the column count and the seconds spent
        stamping the table, on both engines."""
        from repro.tracing import TRACER
        info = rc_lowpass()
        universe = build_universe(info.circuit, deviations=(-0.2, 0.2))
        grid = np.array([100.0, 1000.0])
        events = []
        sink = TRACER.add_sink(events.append)
        try:
            for engine in (BatchedMnaEngine(info.circuit),
                           FactoredMnaEngine(info.circuit)):
                engine.transfer_block(info.output_node, grid,
                                      universe.variants(),
                                      info.input_source)
        finally:
            TRACER.remove_sink(sink)
        solves = [span for span in events if span.name == "engine.solve"]
        assert [span.attrs["engine"] for span in solves] == \
            ["batched", "factored"]
        for span in solves:
            assert span.attrs["columns"] == 2
            assert 0.0 <= span.attrs["assemble_seconds"] <= \
                span.duration_s


class TestVariantTableChecks:
    @staticmethod
    def _table(columns, rows, labels):
        from repro.sim.engine import VariantTable
        return VariantTable(columns, np.array(rows, dtype=float), labels)

    @pytest.mark.parametrize("engine_type", [
        BatchedMnaEngine, FactoredMnaEngine, ScalarMnaEngine])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"),
                                     float("inf"), float("-inf")])
    def test_bad_cell_raises_the_constructor_error(self, engine_type,
                                                   bad):
        """A zero, negative, NaN or infinite resistance raises the
        Resistor constructor's ComponentError, naming the first bad
        row."""
        from repro.errors import ComponentError
        info = rc_lowpass()
        r1, c1 = info.circuit["R1"], info.circuit["C1"]
        with pytest.raises(ComponentError) as constructor:
            r1.with_value(bad)
        table = self._table(
            (("C1", "value"), ("R1", "value")),
            [[c1.value, r1.value], [c1.value * 1.1, bad],
             [c1.value, bad]],
            ("ok", "first-bad", "second-bad"))
        with pytest.raises(ComponentError) as got:
            engine_type(info.circuit).transfer_block(
                info.output_node, np.array([100.0]), table,
                info.input_source)
        assert str(got.value) == f"first-bad: {constructor.value}"

    @pytest.mark.parametrize("column, bad", [
        (("OA1", "pole_hz"), 0.0), (("OA2", "a0"), float("nan")),
        (("VIN", "ac_magnitude"), -1.0)])
    def test_macro_and_stimulus_cells_are_checked(self, column, bad):
        from repro.errors import ComponentError
        from repro.sim.mna import with_parameters
        info = tow_thomas_biquad(ideal_opamps=False)
        name, param = column
        with pytest.raises(ComponentError) as constructor:
            with_parameters(info.circuit[name], {param: bad})
        table = self._table((column,), [[bad]], ("bad",))
        with pytest.raises(ComponentError) as got:
            BatchedMnaEngine(info.circuit).transfer_block(
                info.output_node, np.array([100.0]), table,
                info.input_source)
        assert str(got.value) == f"bad: {constructor.value}"

    def test_unchecked_parameters_pass(self):
        """Parameters their constructor does not check (a stimulus
        phase, a negative controlled-source gain) are not rejected."""
        info = _controlled_sources_info()
        table = self._table((("V1", "ac_phase_deg"), ("E1", "gain")),
                            [[-90.0, -2.0]], ("inverted",))
        block = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, np.array([100.0]), table, info.input_source)
        assert np.all(np.isfinite(block.values))

    @pytest.mark.parametrize("column, match", [
        (("R9", "value"), "unknown component 'R9'"),
        (("R1", "gain"), "no parameter 'gain'"),
        (("C1", "a0"), "no parameter 'a0'")])
    def test_unknown_column_raises_simulation_error(self, column, match):
        info = rc_lowpass()
        table = self._table((column,), [[1.0]], ("x",))
        for engine_type in (BatchedMnaEngine, FactoredMnaEngine,
                            ScalarMnaEngine):
            with pytest.raises(SimulationError, match=match):
                engine_type(info.circuit).transfer_block(
                    info.output_node, np.array([100.0]), table)

    def test_malformed_tables_rejected(self):
        from repro.sim.engine import VariantTable
        with pytest.raises(SimulationError, match="value matrix"):
            VariantTable((("R1", "value"),), np.ones((2, 2)), ("a", "b"))
        with pytest.raises(SimulationError, match="twice"):
            VariantTable((("R1", "value"), ("R1", "value")),
                         np.ones((1, 2)), ("a",))
        table = VariantTable((("R1", "value"),), np.ones((1, 1)), ("a",))
        assert not table.values.flags.writeable

    def test_structure_changing_replacement_rejected(self):
        """A fault whose replacement rewires its component cannot
        become a table row."""
        info = rc_lowpass()
        r1 = info.circuit["R1"]
        rewired = dataclasses.replace(r1, negative="elsewhere")
        with pytest.raises(SimulationError, match="stamp structure"):
            VariantTable.of_faults(info.circuit,
                                   [_replacing_fault(rewired)])

    def test_non_finite_solution_names_the_row(self):
        """A huge but finite transconductance passes the constructor
        but overflows the solve: one array check names the row."""
        from repro.errors import SingularCircuitError
        info = _controlled_sources_info()
        table = self._table((("G1", "transconductance"),),
                            [[1e-3], [1e308]], ("finite", "runaway"))
        with pytest.raises(SingularCircuitError,
                           match="runaway: non-finite solution"):
            BatchedMnaEngine(info.circuit).transfer_block(
                info.output_node, np.array([100.0, 1000.0]), table,
                info.input_source)


def _paper_dictionary_case():
    """tow_thomas_biquad's 401-point paper dictionary table."""
    info = BENCHMARK_CIRCUITS["tow_thomas_biquad"]()
    config = PipelineConfig.paper()
    universe = build_universe(info.circuit, components=info.faultable,
                              deviations=config.deviations)
    grid = log_frequency_grid(info.f_min_hz, info.f_max_hz,
                              config.dictionary_points)
    return info, grid, universe.variants()


def _corpus_world_case():
    """One corpus world block: a generated biquad chain's fault rows in
    16 Monte-Carlo worlds at the corpus baseline's tolerance, on a
    posterior-shaped grid (two test frequencies plus the candidates)."""
    from repro import CorpusSpec, generate, synthesize_universe
    spec = CorpusSpec.baseline()
    info = generate("biquad_chain", 0)
    universe = synthesize_universe(info, deviations=spec.pipeline.deviations,
                                   max_targets=6, seed=0)
    hypotheses = universe.variants().with_columns(
        info.circuit, [(name, "value") for name in info.faultable])
    eps = np.random.default_rng(2005).uniform(
        -spec.posterior.tolerance, spec.posterior.tolerance,
        size=(spec.posterior.n_samples, len(info.faultable)))
    grid = np.unique(np.concatenate([
        np.geomspace(info.f_min_hz, info.f_max_hz,
                     spec.posterior.n_candidates),
        [np.sqrt(info.f_min_hz * info.f_max_hz) * 1.5]]))
    return info, grid, VariantTable.of_worlds(hypotheses, 1.0 + eps)


def _mixed_update_case():
    """A table whose rows cover every update shape on the macromodel
    biquad: 1x1 (op-amp parameters), 2x2 (passives), 3x3, a stimulus
    replacement alone (RHS only) and with a resistor, and one row wide
    enough to go dense."""
    from repro.sim.mna import parameter_value
    info = tow_thomas_biquad(ideal_opamps=False)
    columns = (("R1", "value"), ("C1", "value"), ("C2", "value"),
               ("OA1", "a0"), ("OA2", "pole_hz"), ("VIN", "ac_magnitude"),
               ("VIN", "ac_phase_deg"), ("R4", "value"))
    nominal = [parameter_value(info.circuit[name], param)
               for name, param in columns]
    changes = ({}, {0: 1.1}, {1: 0.8}, {2: 1.3}, {3: 0.5}, {4: 2.0},
               {5: 2.0, 6: None}, {0: 1.1, 1: 0.8}, {7: 1.2, 5: 0.5},
               {0: 0.9, 1: 1.2, 2: 0.7, 7: 1.4})
    rows = []
    for change in changes:
        row = list(nominal)
        for column, factor in change.items():
            row[column] = 30.0 if factor is None else row[column] * factor
        rows.append(row)
    table = VariantTable(columns, rows,
                         tuple(f"mixed{i}" for i in range(len(rows))))
    grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 21)
    return info, grid, table


class TestFactoredBitwiseGuard:
    """The factored engine's values, pinned bitwise.

    The digests, update counts and fallback counts were recorded from
    the engine that solved each column-set group in its own Woodbury
    pass. The stacked update passes keep every row's arithmetic, so not
    one bit may move.
    """

    CASES = {
        "paper_dictionary": (
            _paper_dictionary_case,
            "330e31632f79daaa4354307c1f0446289a91839a868fdacc06ab276ed328bb1a",
            56, {}),
        "corpus_worlds": (
            _corpus_world_case,
            "507e624f9ebfeb158778c451ab5fd1e4c6a1dffcd5574049fba37e44f4344441",
            768, {}),
        "mixed_updates": (
            _mixed_update_case,
            "349d872a1786b0c32b67c32f22e4bd9a92340d56bd9a6e8eb2dd8acb570af0db",
            8, {"rank": 1}),
    }

    @staticmethod
    def _digest(values):
        import hashlib
        return hashlib.sha256(
            np.ascontiguousarray(values, dtype=complex).tobytes()
        ).hexdigest()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_values_and_counts_are_pinned(self, case):
        from repro.tracing import TRACER
        build, digest, updates, fallbacks = self.CASES[case]
        info, grid, table = build()
        engine = FactoredMnaEngine(info.circuit)
        events = []
        sink = TRACER.add_sink(events.append)
        try:
            first, second = (engine.transfer_block(
                info.output_node, grid, table, info.input_source)
                for _ in range(2))
        finally:
            TRACER.remove_sink(sink)
        assert self._digest(first.values) == digest
        assert self._digest(second.values) == digest
        expected = {"conditioning": 0, "rank": 0, "nonfinite": 0}
        expected.update(fallbacks)
        assert engine.lowrank_updates == 2 * updates
        assert engine.lowrank_fallbacks == {
            reason: 2 * count for reason, count in expected.items()}
        solves = [span.attrs for span in events
                  if span.name == "engine.solve"
                  and span.attrs["engine"] == "factored"]
        assert [attrs["groups_reused"] for attrs in solves] == \
            [False, True]
        assert solves[0]["update_passes"] == solves[1]["update_passes"] > 0
