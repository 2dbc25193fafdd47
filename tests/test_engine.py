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
    ScalarMnaEngine,
    make_engine,
    parametric_universe,
    rc_lowpass,
    tow_thomas_biquad,
)
from repro.circuits.library import BENCHMARK_CIRCUITS
from repro.errors import ReproError, SimulationError
from repro.sim import lowrank
from repro.faults import FaultDictionary, catastrophic_universe
from repro.faults.universe import parametric_universe as build_universe
from repro.sim import ACAnalysis, VariantSpec
from repro.sim.engine import ResponseBlock
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
        variants = (VariantSpec(name=info.circuit.name),) + \
            universe.variants()
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
                (VariantSpec(name=info.circuit.name),) +
                universe.variants(),
                info.input_source)
            reference = _scalar_reference(info, universe, grid)
            for index, expected in enumerate(reference):
                assert np.array_equal(block.values[index],
                                      expected.values)

    def test_freq_chunked_path_bitwise(self, monkeypatch):
        """With a tiny stack budget the engine falls back to one variant
        at a time with chunked frequencies -- still bitwise-equal."""
        import repro.sim.engine as engine_module
        info = tow_thomas_biquad(ideal_opamps=False)
        universe = build_universe(info.circuit,
                                  components=("R1", "C1"),
                                  deviations=(-0.2, 0.2))
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 37)
        variants = (VariantSpec(name=info.circuit.name),) + \
            universe.variants()
        reference = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        # Budget for ~8 matrices: forces variants_per_chunk == 1 and
        # several frequency chunks per variant.
        dim = BatchedMnaEngine(info.circuit).system.dim
        monkeypatch.setattr(engine_module, "_STACK_MEMORY_BUDGET",
                            8 * 16 * dim * dim)
        chunked = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        assert np.array_equal(chunked.values, reference.values)

    def test_scalar_engine_matches_batched(self):
        info = rc_lowpass()
        universe = build_universe(info.circuit,
                                  deviations=_DEVIATIONS)
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 11)
        variants = (VariantSpec(name=info.circuit.name),) + \
            universe.variants()
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
            engine=make_engine(info.circuit, "batched"))
        scalar = FaultDictionary.build(
            universe, info.output_node, grid,
            input_source=info.input_source,
            engine=make_engine(info.circuit, "scalar"))
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


class TestVariantSpecs:
    def test_unknown_replacement_rejected(self):
        info = rc_lowpass()
        engine = BatchedMnaEngine(info.circuit)
        foreign = tow_thomas_biquad().circuit["R3"]
        with pytest.raises(SimulationError, match="unknown"):
            engine.transfer_block(
                info.output_node, np.array([100.0]),
                [VariantSpec((foreign,))])

    def test_duplicate_replacement_rejected(self):
        info = rc_lowpass()
        r1 = info.circuit["R1"]
        with pytest.raises(SimulationError, match="twice"):
            VariantSpec((r1.with_value(1.0), r1.with_value(2.0)))

    def test_multi_component_variant(self):
        """Tolerance-style variants replace several components at once."""
        info = tow_thomas_biquad()
        grid = np.array([300.0, 900.0])
        r1 = info.circuit["R1"]
        c1 = info.circuit["C1"]
        spec = VariantSpec((r1.with_value(r1.value * 1.07),
                            c1.with_value(c1.value * 0.93)))
        block = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, [spec], info.input_source)
        perturbed = info.circuit.with_value("R1", r1.value * 1.07) \
            .with_value("C1", c1.value * 0.93)
        expected = ACAnalysis(perturbed).transfer(
            info.output_node, grid, info.input_source)
        assert np.array_equal(block.values[0], expected.values)

    @pytest.mark.parametrize("budget", [None, 1])
    def test_singular_variant_is_named(self, monkeypatch, budget):
        """A singular variant's error names that variant, on the fused
        path and (with a one-byte stack budget) the per-variant one."""
        from repro.circuits.components import VCVS
        from repro.circuits.netlist import Circuit
        from repro.errors import SingularCircuitError
        from repro.sim import engine as engine_module
        if budget is not None:
            monkeypatch.setattr(engine_module, "_STACK_MEMORY_BUDGET",
                                budget)
        circuit = Circuit("buffer")
        circuit.add_voltage_source("V1", "in", "0", ac=1.0)
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_vcvs("E1", "buf", "0", "buf", "out", gain=2.0)
        circuit.add_resistor("R2", "buf", "0", 1e3)
        # Unit gain around the E1 loop leaves its branch row all zero.
        unit_loop = VariantSpec(
            (VCVS("E1", "buf", "0", "buf", "out", gain=1.0),),
            name="buffer#E1_unit")
        variants = [VariantSpec(name="first"), unit_loop,
                    VariantSpec(name="third")]
        with pytest.raises(SingularCircuitError, match="buffer#E1_unit"):
            BatchedMnaEngine(circuit).transfer_block(
                "buf", np.array([10.0, 100.0, 1000.0]), variants)


class TestResponseBlock:
    @pytest.fixture()
    def block(self):
        info = rc_lowpass()
        universe = build_universe(info.circuit, deviations=(-0.2, 0.2))
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 9)
        engine = BatchedMnaEngine(info.circuit)
        return engine.transfer_block(
            info.output_node, grid,
            (VariantSpec(name=info.circuit.name),) + universe.variants(),
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
        with pytest.raises(ReproError, match="kind must be one of"):
            PipelineConfig(engine="magic")

    def test_scalar_and_batched_pipelines_agree(self):
        from repro import FaultTrajectoryATPG
        info = rc_lowpass()
        results = {}
        for kind in ("batched", "scalar"):
            config = PipelineConfig.quick()
            config = PipelineConfig(
                dictionary_points=64, ga=config.ga, engine=kind)
            results[kind] = FaultTrajectoryATPG(info, config).run(seed=3)
        batched, scalar = results["batched"], results["scalar"]
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
    *nominal* solution, so its error is naturally bounded relative to
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
        variants = (VariantSpec(name=info.circuit.name),) + \
            universe.variants()
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
                (VariantSpec(name=info.circuit.name),) +
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
        variants = (VariantSpec(name="nominal"),
                    VariantSpec((r1.with_value(r1.value * 1e-12),),
                                name="R1:short"),
                    VariantSpec((r1.with_value(r1.value * 1.1),),
                                name="R1:+10%"))
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
        variants = (VariantSpec(name=info.circuit.name),) + \
            universe.variants()
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

    def test_rank_overflow_falls_back(self):
        """Support wider than max_rank is decided upfront ('rank'
        reason) and still matches the dense path bitwise."""
        info = tow_thomas_biquad()
        grid = np.array([300.0, 900.0])
        r1 = info.circuit["R1"]
        c1 = info.circuit["C1"]
        spec = VariantSpec((r1.with_value(r1.value * 1.07),
                            c1.with_value(c1.value * 0.93)),
                           name="pair")
        engine = FactoredMnaEngine(info.circuit, max_rank=1)
        block = engine.transfer_block(info.output_node, grid, [spec],
                                      info.input_source)
        assert engine.lowrank_fallbacks["rank"] == 1
        dense = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, [spec], info.input_source)
        assert np.array_equal(block.values, dense.values)

    def test_stimulus_replacement_rides_the_lowrank_path(self):
        """Changing the input source's AC magnitude/phase is a pure
        RHS delta -- handled low-rank (no fallback), matching the
        batched engine."""
        info = rc_lowpass()
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 9)
        source = info.circuit[info.input_source]
        boosted = dataclasses.replace(
            source, ac_magnitude=source.ac_magnitude * 2.0,
            ac_phase_deg=30.0)
        variants = (VariantSpec(name="nominal"),
                    VariantSpec((boosted,), name="boosted"))
        engine = FactoredMnaEngine(info.circuit)
        block = engine.transfer_block(info.output_node, grid, variants,
                                      info.input_source)
        assert engine.lowrank_updates == 1
        assert sum(engine.lowrank_fallbacks.values()) == 0
        dense = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        _assert_block_close(block.values, dense.values, rtol=1e-12)

    def test_freq_chunked_path_matches(self, monkeypatch):
        """A tiny stack budget forces several frequency chunks through
        the factored solver; results match the unchunked run."""
        import repro.sim.engine as engine_module
        info = tow_thomas_biquad(ideal_opamps=False)
        universe = build_universe(info.circuit,
                                  components=("R1", "C1"),
                                  deviations=(-0.2, 0.2))
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 37)
        variants = (VariantSpec(name=info.circuit.name),) + \
            universe.variants()
        reference = FactoredMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        dim = BatchedMnaEngine(info.circuit).system.dim
        monkeypatch.setattr(engine_module, "_STACK_MEMORY_BUDGET",
                            8 * 16 * dim * dim)
        chunked = FactoredMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        _assert_block_close(chunked.values, reference.values,
                            rtol=1e-12)

    def test_ground_output_short_circuits_to_zero(self):
        info = rc_lowpass()
        grid = np.array([100.0, 1000.0])
        block = FactoredMnaEngine(info.circuit).transfer_block(
            "0", grid, [VariantSpec(name="nominal")],
            info.input_source)
        assert np.array_equal(block.values,
                              np.zeros((1, 2), dtype=complex))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_variants_match_batched(self, data):
        """Hypothesis: any random multi-component VariantSpec agrees
        with the batched engine within tolerance (or falls back to it
        exactly)."""
        info = tow_thomas_biquad()
        names = sorted(info.faultable)
        chosen = data.draw(st.lists(st.sampled_from(names),
                                    min_size=1, max_size=3,
                                    unique=True))
        replacements = []
        for name in chosen:
            log2_scale = data.draw(st.floats(min_value=-6.0,
                                             max_value=6.0,
                                             allow_nan=False))
            component = info.circuit[name]
            replacements.append(component.with_value(
                component.value * 2.0 ** log2_scale))
        spec = VariantSpec(tuple(replacements), name="random")
        grid = log_frequency_grid(info.f_min_hz, info.f_max_hz, 7)
        variants = (VariantSpec(name=info.circuit.name), spec)
        factored = FactoredMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        batched = BatchedMnaEngine(info.circuit).transfer_block(
            info.output_node, grid, variants, info.input_source)
        _assert_block_close(factored.values, batched.values, rtol=1e-8,
                            context=f"components {chosen}")


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
        variants = (VariantSpec(name=info.circuit.name),) + \
            universe.variants()
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
        variants = (VariantSpec(name=info.circuit.name),) + \
            universe.variants()
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
        engine = make_engine(rc_lowpass().circuit, "factored")
        assert isinstance(engine, FactoredMnaEngine)

    def test_config_accepts_and_round_trips_factored(self):
        config = PipelineConfig(engine="factored")
        restored = PipelineConfig.from_json_dict(config.to_json_dict())
        assert restored.engine.kind == "factored"
        assert restored.engine == config.engine
        # The wire format keeps the original string spelling.
        assert config.to_json_dict()["engine"] == "factored"

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
        results = {}
        for kind in ("batched", "factored"):
            config = PipelineConfig.quick()
            config = PipelineConfig(
                dictionary_points=64, ga=config.ga, engine=kind)
            results[kind] = FaultTrajectoryATPG(info, config).run(seed=3)
        batched, factored = results["batched"], results["factored"]
        assert batched.test_vector_hz == factored.test_vector_hz
        _assert_block_close(factored.dictionary.golden.values,
                            batched.dictionary.golden.values,
                            rtol=1e-9)
        evaluation_b = batched.evaluate(deviations=(-0.25, 0.25))
        evaluation_f = factored.evaluate(deviations=(-0.25, 0.25))
        assert evaluation_b.accuracy == evaluation_f.accuracy
