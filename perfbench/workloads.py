"""The benchmark's three workloads.

Each workload is a fixed cycle of ops run by one closed-loop caller.
``setup()`` builds the inputs and runs the warm-up, ``op(position)``
runs one timed op and returns a comparable summary of its output, and
``verify(canonical)`` checks the first cycle's summaries against an
independent reference after timing and derives the deterministic
metrics (accuracies, GA fitness).

The workload seed only drives the measurement draws (component
tolerance and noise of the held-out cases and request rows). Circuits,
GA seeds and posterior seeds are constants, so every run of a workload
does the same work.

Functions of the program are looked up through their module
(``repro.make_test_cases``, ``codec.encode_request``) at call time, so
the ledger's wrappers see these calls in the traced run.
"""

from __future__ import annotations

import statistics
from typing import List, Sequence, Tuple

import numpy as np

import repro
from repro import (
    BENCHMARK_CIRCUITS,
    CorpusSpec,
    DiagnosisService,
    FamilySpec,
    FaultTrajectoryATPG,
    PipelineConfig,
    PosteriorDiagnoser,
)
from repro.runtime import codec

#: Held-out case draws: component tolerance and measurement noise.
TOLERANCE = 0.03
NOISE_DB = 0.05

#: The committed corpus baseline: 96-point dictionary, 24x4 GA and a
#: 16-world posterior.
CORPUS = CorpusSpec.baseline()


#: The four generated-circuit families, in corpus_mix cycle order.
FAMILIES = ("rc_ladder", "lc_ladder", "biquad_chain", "random_topology")


def _hits(diagnoses, truth: Sequence[str]) -> int:
    return sum(d.component == t for d, t in zip(diagnoses, truth))


def _cases(result, repeats: int, rng: np.random.Generator):
    """Toleranced, noisy held-out cases for one pipeline result."""
    cases = repro.make_test_cases(
        result.info, result.mapper, components=result.universe.components,
        tolerance=TOLERANCE, noise_db=NOISE_DB, repeats=repeats, rng=rng,
        engine=result.engine)
    points = np.stack([case.point for case in cases])
    return points, [case.true_component for case in cases]


def _accuracies(pairs, repeats: int, seed: int) -> dict:
    """Hard and posterior accuracy over held-out cases of every
    ``(pipeline result, posterior tier)`` pair.

    Enough cases (several thousand) that the accuracies move by a few
    percent at most from one workload seed to the next.
    """
    hard = posterior = total = 0
    for index, (result, tier) in enumerate(pairs):
        points, truth = _cases(result, repeats,
                               np.random.default_rng([seed, index, 1]))
        hard += _hits(result.diagnose_points(points), truth)
        posterior += _hits(tier.diagnose_points(points), truth)
        total += len(truth)
    return {"hard_accuracy": hard / total,
            "posterior_accuracy": posterior / total}


def _round9(value: float) -> float:
    """The 9-significant-digit rounding ``run_corpus`` records."""
    return float(f"{float(value):.9g}")


class Workload:
    name = ""
    #: Ops in one cycle; a run times whole cycles only.
    cycle_length = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, position: int):
        raise NotImplementedError

    def verify(self, canonical: list) -> Tuple[List[bool], dict]:
        """Per-position validity of ``canonical`` and the metrics."""
        raise NotImplementedError


class PaperATPG(Workload):
    """``repro.run`` under the paper's configuration, nine circuits."""

    name = "paper_atpg"
    circuits = tuple(BENCHMARK_CIRCUITS)
    cycle_length = len(circuits)
    #: One fixed GA seed per circuit.
    ga_seeds = tuple(2005 + index for index in range(len(circuits)))
    #: Cases per (component, held-out deviation) pair for the accuracy.
    accuracy_repeats = 12

    def setup(self) -> None:
        self.config = PipelineConfig.paper()
        self.results = {}
        self.op(self.circuits.index("rc_lowpass"))

    def op(self, position: int):
        name = self.circuits[position]
        result = repro.run(name, self.config, seed=self.ga_seeds[position])
        self.results[name] = result
        return (tuple(result.test_vector_hz),
                result.ga_result.best_fitness)

    def verify(self, canonical: list) -> Tuple[List[bool], dict]:
        # The op check is that every op equals the first pass; here the
        # first pass only needs to be a well-formed search result.
        valid = []
        for name, summary in zip(self.circuits, canonical):
            info = repro.get_benchmark(name)
            valid.append(summary is not None and all(
                info.f_min_hz <= f <= info.f_max_hz for f in summary[0])
                and 0.0 < summary[1] <= 1.0)
        # The paper flow has no posterior tier; the accuracy uses the
        # corpus baseline's.
        pairs = [(self.results[name], PosteriorDiagnoser.from_atpg(
            self.results[name], CORPUS.posterior)) for name in self.circuits]
        return valid, dict(
            _accuracies(pairs, self.accuracy_repeats, self.seed),
            ga_fitness=statistics.fmean(s[1] for s in canonical))


class CorpusMix(Workload):
    """Generated circuits through the corpus path, four families."""

    name = "corpus_mix"
    circuits = tuple((family, circuit_seed) for circuit_seed in range(3)
                     for family in FAMILIES)
    cycle_length = len(circuits)
    max_targets = 6
    repeats = 3
    accuracy_repeats = 12

    def setup(self) -> None:
        self.pairs = [None] * self.cycle_length
        self.op(0)

    def ga_seed(self, position: int) -> int:
        return CORPUS.ga_seed + position

    def op(self, position: int):
        family, circuit_seed = self.circuits[position]
        info = repro.generate(family, circuit_seed)
        universe = repro.synthesize_universe(
            info, deviations=CORPUS.pipeline.deviations,
            max_targets=self.max_targets, seed=circuit_seed)
        result = FaultTrajectoryATPG(
            info, CORPUS.pipeline, components=universe.components,
        ).run(seed=self.ga_seed(position))
        # The case seed is the workload seed, never the posterior's.
        points, _ = _cases(result, self.repeats,
                           np.random.default_rng([self.seed, position]))
        hard = result.diagnose_points(points)
        tier = PosteriorDiagnoser.from_atpg(result, CORPUS.posterior)
        posterior = tier.diagnose_points(points)
        self.pairs[position] = (result, tier)
        return (tuple(result.test_vector_hz),
                result.ga_result.best_fitness,
                tuple(d.component for d in hard),
                tuple((p.component, p.probabilities) for p in posterior))

    def verify(self, canonical: list) -> Tuple[List[bool], dict]:
        valid = [summary is not None for summary in canonical]
        # One circuit per family against what run_corpus records for a
        # one-circuit spec with the same settings and GA seed.
        for family in FAMILIES:
            position = next(index for index, (name, _) in
                            enumerate(self.circuits) if name == family)
            if not valid[position]:
                continue
            spec = CorpusSpec(
                name="perfbench",
                families=(FamilySpec(
                    family, count=1, seed0=self.circuits[position][1],
                    max_targets=self.max_targets),),
                pipeline=CORPUS.pipeline, posterior=CORPUS.posterior,
                ga_seed=self.ga_seed(position))
            report = repro.run_corpus(spec)
            records = report["results"]["circuits"]
            summary = canonical[position]
            valid[position] = len(records) == 1 and \
                records[0]["test_vector_hz"] == \
                [_round9(f) for f in summary[0]] and \
                records[0]["ga_fitness"] == _round9(summary[1])
        # The op's own three cases per pair are too few for a steady
        # accuracy; score the op's result and tier on more.
        return valid, dict(
            _accuracies(self.pairs, self.accuracy_repeats, self.seed),
            ga_fitness=statistics.fmean(s[1] for s in canonical))


class ServeMix(Workload):
    """Encoded 32-row requests against a warmed DiagnosisService."""

    name = "serve_mix"
    circuits = ("tow_thomas_biquad", "sallen_key_lowpass")
    rows_per_request = 32
    #: 4096 rows per cycle: enough for accuracies steady across seeds.
    requests_per_circuit = 64
    #: Every fourth request goes to the posterior tier.
    posterior_every = 4
    cycle_length = len(circuits) * requests_per_circuit

    def setup(self) -> None:
        service = DiagnosisService(PipelineConfig.paper())
        rows, self.truth = {}, {}
        for index, name in enumerate(self.circuits):
            rows[name], self.truth[name] = self._rows(
                service.warm(name), np.random.default_rng([self.seed, index]))
            service.diagnose_posterior(name, rows[name][:1])
        codec.decode_response(codec.encode_response(
            service.submit(self.circuits[0], rows[self.circuits[0]][:1])))
        size = self.rows_per_request
        self.requests = [
            (name, rows[name][k * size:(k + 1) * size])
            for k in range(self.requests_per_circuit)
            for name in self.circuits]
        self.rows = rows
        self.service = service

    def _rows(self, result, rng: np.random.Generator):
        """Faulty dB rows at the circuit's test vector (mapper order,
        as the service's signature transform expects them) and the
        faulty component of each row."""
        mapper = result.mapper
        if mapper.scale != "db" or not mapper.relative_to_golden:
            raise ValueError("serve_mix needs golden-relative dB signatures")
        count = self.rows_per_request * self.requests_per_circuit
        per_repeat = len(result.universe.components) * 6
        points, truth = _cases(result, -(-count // per_repeat), rng)
        keep = rng.permutation(len(points))[:count]
        golden_db = result.classifier.golden.magnitude_db_at(
            np.array(mapper.test_freqs_hz))
        return points[keep] + golden_db[None, :], [truth[i] for i in keep]

    def is_posterior(self, position: int) -> bool:
        return position % self.posterior_every == self.posterior_every - 1

    def op(self, position: int):
        circuit, rows = self.requests[position]
        payload = codec.encode_request(circuit, rows)
        if self.is_posterior(position):
            (request,), _ = codec.decode_posterior_request(payload)
            answer = self.service.diagnose_posterior(
                request.circuit, request.magnitudes_db)
            return tuple(codec.decode_posterior_response(
                codec.encode_posterior_response(answer)))
        request = codec.decode_request(payload)
        answer = self.service.submit(request.circuit, request.magnitudes_db)
        return tuple(codec.decode_response(codec.encode_response(answer)))

    def verify(self, canonical: list) -> Tuple[List[bool], dict]:
        # An independent pipeline run with the service's GA seed and
        # posterior settings is the reference for both tiers.
        size = self.rows_per_request
        hard, posterior, fitness = {}, {}, []
        for name in self.circuits:
            result = FaultTrajectoryATPG(
                repro.get_benchmark(name), self.service.config,
            ).run(seed=self.service.seed)
            rows = self.rows[name]
            hard[name] = result.diagnose_many(rows)
            tier = PosteriorDiagnoser.from_atpg(
                result, self.service.posterior_config)
            points = result.batch_diagnoser().signatures(rows)
            # Request-sized batches keep the distance tensors small.
            posterior[name] = [
                diagnosis for start in range(0, len(points), size)
                for diagnosis in tier.diagnose_points(
                    points[start:start + size])]
            fitness.append(result.ga_result.best_fitness)
        valid = []
        for position, summary in enumerate(canonical):
            name = self.requests[position][0]
            k = position // len(self.circuits)
            tier = posterior if self.is_posterior(position) else hard
            valid.append(summary == tuple(
                tier[name][k * size:(k + 1) * size]))
        total = sum(len(t) for t in self.truth.values())
        return valid, {
            "hard_accuracy": sum(_hits(hard[n], self.truth[n])
                                 for n in self.circuits) / total,
            "posterior_accuracy": sum(_hits(posterior[n], self.truth[n])
                                      for n in self.circuits) / total,
            "ga_fitness": statistics.fmean(fitness),
        }
