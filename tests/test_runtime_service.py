"""DiagnosisService: warm-up, batched submits, LRU and counters.

The concurrency classes at the bottom are the stress tier: they hammer
``submit``/``warm`` from many threads and pin down the service's
thread-safety contract -- one pipeline build per circuit no matter how
many threads race, exact counters, and LRU eviction invariants that
hold under churn.
"""

import functools
import threading

import numpy as np
import pytest

from repro import ArtifactStore, DiagnosisService, PipelineConfig, \
    rc_lowpass
from repro.core.atpg import FaultTrajectoryATPG
from repro.errors import ServiceError
from repro.ga import GAConfig
from repro.runtime.service import ServiceStats
from repro.sim import ACAnalysis

QUICK = PipelineConfig(dictionary_points=32, deviations=(-0.2, 0.2),
                       ga=GAConfig(population_size=8, generations=2))


@pytest.fixture()
def service(tmp_path):
    return DiagnosisService(config=QUICK,
                            store=ArtifactStore(tmp_path / "store"),
                            max_engines=2, seed=3)


def _measured_batch(info, freqs, specs):
    rows = []
    for component, deviation in specs:
        faulty = info.circuit.scaled_value(component, 1.0 + deviation)
        response = ACAnalysis(faulty).transfer(info.output_node, freqs)
        rows.append(response.magnitude_db_at(freqs))
    return np.vstack(rows)


class TestServiceRequests:
    def test_submit_diagnoses_batches(self, service):
        info = rc_lowpass()
        service.register("dut", info)
        freqs = np.array(sorted(service.test_vector_hz("dut")))
        batch = _measured_batch(info, freqs, (("R1", 0.15),
                                              ("C1", -0.12),
                                              ("R1", -0.18)))
        diagnoses = service.submit("dut", batch)
        assert len(diagnoses) == 3
        assert all(d.component in info.faultable for d in diagnoses)
        # submit() agrees with the warmed engine's scalar classifier.
        result = service.warm("dut")
        scalar = [result.diagnose_response(
            ACAnalysis(info.circuit.scaled_value(c, 1.0 + d)).transfer(
                info.output_node, freqs))
            for c, d in (("R1", 0.15), ("C1", -0.12), ("R1", -0.18))]
        assert [d.component for d in diagnoses] == \
            [d.component for d in scalar]

    def test_benchmark_circuits_resolve_by_name(self, service):
        result = service.warm("rc_lowpass")
        assert result.info.circuit.name == "rc_lowpass"
        assert service.warmed_circuits == ("rc_lowpass",)

    def test_unknown_circuit_rejected(self, service):
        with pytest.raises(ServiceError):
            service.submit("not_a_circuit", np.zeros((1, 2)))

    def test_counters_accumulate(self, service):
        info = rc_lowpass()
        service.register("dut", info)
        freqs = np.array(sorted(service.test_vector_hz("dut")))
        batch = _measured_batch(info, freqs, (("R1", 0.15),
                                              ("C1", -0.12)))
        service.submit("dut", batch)
        service.submit("dut", batch)
        assert service.stats.requests == 2
        assert service.stats.responses_diagnosed == 4
        assert service.stats.total_latency_seconds > 0.0
        per = service.stats.per_circuit["dut"]
        assert per.requests == 2
        assert per.responses_diagnosed == 4
        assert per.warm_loads == 1
        assert per.mean_latency_seconds > 0.0


class TestServiceLru:
    def test_lru_evicts_least_recently_used(self, tmp_path):
        service = DiagnosisService(config=QUICK, max_engines=1, seed=3,
                                   store=ArtifactStore(tmp_path))
        service.warm("rc_lowpass")
        service.warm("voltage_divider")
        assert service.warmed_circuits == ("voltage_divider",)
        assert service.stats.evictions == 1
        # Re-warming the evicted circuit hits the artifact store, so no
        # fault simulation reruns.
        from repro.faults import FaultDictionary
        before = FaultDictionary.simulations_run
        service.warm("rc_lowpass")
        assert FaultDictionary.simulations_run == before

    def test_warm_hits_keep_engine_hot(self, service):
        service.warm("rc_lowpass")
        first = service._engine("rc_lowpass")
        assert service._engine("rc_lowpass") is first
        assert service.stats.per_circuit["rc_lowpass"].warm_loads == 1

    def test_max_engines_validated(self):
        with pytest.raises(ServiceError):
            DiagnosisService(max_engines=0)


CIRCUITS = ("rc_lowpass", "voltage_divider", "sallen_key_lowpass")


def _count_pipeline_runs(monkeypatch):
    """Monkeypatch the pipeline so every real build is counted."""
    counts = {}
    lock = threading.Lock()
    real_run = FaultTrajectoryATPG.run

    def counting_run(self, *args, **kwargs):
        with lock:
            name = self.info.circuit.name
            counts[name] = counts.get(name, 0) + 1
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(FaultTrajectoryATPG, "run", counting_run)
    return counts


def _run_threads(jobs, timeout=120.0):
    """Run each zero-argument callable on its own thread, join them
    all, and re-raise the first exception any of them raised."""
    errors = []

    def guarded(job):
        try:
            job()
        except Exception as exc:  # re-raised after the join
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(job,))
               for job in jobs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive(), "worker thread did not finish"
    if errors:
        raise errors[0]


class TestStatsThreadSafety:
    """ServiceStats mutation is internally locked: counters stay exact
    no matter how many threads record into one object."""

    def test_record_request_is_exact_under_contention(self):
        stats = ServiceStats()
        threads, per_thread = 8, 500

        def hammer(thread_index):
            for _ in range(per_thread):
                stats.record_request(f"c{thread_index % 2}", 3, 0.001)

        _run_threads([functools.partial(hammer, index)
                      for index in range(threads)])

        total = threads * per_thread
        assert stats.requests == total
        assert stats.responses_diagnosed == 3 * total
        assert stats.total_latency_seconds == pytest.approx(0.001 * total)
        assert sum(per.requests
                   for per in stats.per_circuit.values()) == total

    def test_mixed_recording_is_exact_under_contention(self):
        stats = ServiceStats()
        rounds = 300

        def submits():
            for _ in range(rounds):
                stats.record_request("a", 1, 0.002)

        def coalesced():
            for _ in range(rounds):
                stats.record_coalesced("a", [(1, 0.001), (2, 0.001)],
                                       n_rows=3)

        def churn():
            for _ in range(rounds):
                stats.record_warm_load("a")
                stats.record_eviction()
                stats.record_rejection()
                stats.observe_queue_depth(5)

        _run_threads([submits, submits, coalesced, coalesced,
                      churn, churn])

        assert stats.requests == 2 * rounds + 2 * 2 * rounds
        assert stats.responses_diagnosed == 2 * rounds + 2 * 3 * rounds
        assert stats.coalesced_batches == 2 * rounds
        assert stats.coalesced_requests == 2 * 2 * rounds
        assert stats.evictions == 2 * rounds
        assert stats.rejections == 2 * rounds
        assert stats.per_circuit["a"].warm_loads == 2 * rounds
        assert stats.peak_queue_depth == 5
        assert sum(stats.batch_size_histogram.values()) == 2 * rounds
        assert stats.latency_p95_seconds >= stats.latency_p50_seconds


@pytest.mark.slow
class TestServiceConcurrency:
    """Hammer the engine LRU from many threads."""

    def test_no_duplicate_warm_builds(self, monkeypatch):
        """Racing warms of the same circuit build the pipeline once."""
        counts = _count_pipeline_runs(monkeypatch)
        service = DiagnosisService(config=QUICK, max_engines=8, seed=3)

        def warm_all(_):
            for name in CIRCUITS:
                service.warm(name)

        _run_threads([functools.partial(warm_all, index)
                      for index in range(12)])

        assert counts == {name: 1 for name in CIRCUITS}
        for name in CIRCUITS:
            assert service.stats.per_circuit[name].warm_loads == 1
        assert service.stats.evictions == 0
        assert sorted(service.warmed_circuits) == sorted(CIRCUITS)

    def test_counters_exact_under_concurrent_submit(self):
        service = DiagnosisService(config=QUICK, max_engines=8, seed=3)
        rows = {}
        for name in CIRCUITS:
            result = service.warm(name)
            freqs = np.array(sorted(result.test_vector_hz))
            rng = np.random.default_rng(hash(name) % (2 ** 32))
            rows[name] = rng.normal(0.0, 3.0, size=(3, freqs.size))
        threads, per_thread = 8, 40

        def hammer(thread_index):
            name = CIRCUITS[thread_index % len(CIRCUITS)]
            for _ in range(per_thread):
                assert len(service.submit(name, rows[name])) == 3

        _run_threads([functools.partial(hammer, index)
                      for index in range(threads)])

        total = threads * per_thread
        assert service.stats.requests == total
        assert service.stats.responses_diagnosed == 3 * total
        assert sum(per.requests for per
                   in service.stats.per_circuit.values()) == total

    def test_eviction_invariants_under_churn(self, tmp_path,
                                             monkeypatch):
        """max_engines=2 with 3 circuits: capacity and accounting hold
        while threads force constant eviction/re-warm churn."""
        counts = _count_pipeline_runs(monkeypatch)
        service = DiagnosisService(
            config=QUICK, max_engines=2, seed=3,
            store=ArtifactStore(tmp_path / "store"))

        def churn(thread_index):
            for round_index in range(6):
                name = CIRCUITS[(thread_index + round_index)
                                % len(CIRCUITS)]
                result = service.warm(name)
                assert result.info.circuit.name == name

        _run_threads([functools.partial(churn, index)
                      for index in range(6)])

        warmed = service.warmed_circuits
        assert len(warmed) <= 2
        assert set(warmed) <= set(CIRCUITS)
        total_builds = sum(
            per.warm_loads for per in service.stats.per_circuit.values())
        # Every build either still occupies an LRU slot or was evicted.
        assert total_builds == sum(counts.values())
        assert total_builds - service.stats.evictions == len(warmed)
