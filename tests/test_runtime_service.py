"""DiagnosisService: warm-up, batched submits, LRU and counters.

The concurrency classes at the bottom are the stress tier: they hammer
``submit``/``warm`` from many threads and pin down the service's
thread-safety contract -- one pipeline build per circuit no matter how
many threads race, exact counters, and LRU eviction invariants that
hold under churn.
"""

import asyncio
import functools
import json
import threading

import numpy as np
import pytest

from repro import ArtifactStore, DiagnosisService, PipelineConfig, \
    rc_lowpass
from repro.core.atpg import FaultTrajectoryATPG
from repro.errors import DiagnosisError, ServiceError
from repro.diagnosis import PosteriorConfig
from repro.ga import GAConfig
from repro.runtime import AsyncDiagnosisService, codec, telemetry
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

    def test_non_finite_rows_rejected(self, service):
        """An in-process ndarray skips the codec's finite check; the
        classifier still refuses it, naming the row."""
        rows = np.zeros((2, 2))
        rows[1, 1] = np.nan
        with pytest.raises(DiagnosisError, match="row 1 is not finite"):
            service.submit("rc_lowpass", rows)

    def test_counters_accumulate(self, service):
        info = rc_lowpass()
        service.register("dut", info)
        freqs = np.array(sorted(service.test_vector_hz("dut")))
        batch = _measured_batch(info, freqs, (("R1", 0.15),
                                              ("C1", -0.12)))
        service.submit("dut", batch)
        service.submit("dut", batch)
        snapshot = service.stats.snapshot()
        assert snapshot["requests"] == 2
        assert snapshot["responses_diagnosed"] == 4
        assert snapshot["total_latency_seconds"] > 0.0
        per = snapshot["per_circuit"]["dut"]
        assert per["requests"] == 2
        assert per["responses_diagnosed"] == 4
        assert per["warm_loads"] == 1
        assert per["mean_latency_seconds"] > 0.0


class TestServiceLru:
    def test_lru_evicts_least_recently_used(self, tmp_path):
        service = DiagnosisService(config=QUICK, max_engines=1, seed=3,
                                   store=ArtifactStore(tmp_path))
        service.warm("rc_lowpass")
        service.warm("voltage_divider")
        assert service.warmed_circuits == ("voltage_divider",)
        assert service.stats.snapshot()["evictions"] == 1
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
        snapshot = service.stats.snapshot()
        assert snapshot["per_circuit"]["rc_lowpass"]["warm_loads"] == 1

    def test_max_engines_validated(self):
        with pytest.raises(ServiceError):
            DiagnosisService(max_engines=0)


#: The ``GET /v1/stats`` key set, and the per-circuit one.
STATS_KEYS = {
    "requests", "responses_diagnosed",
    "total_latency_seconds", "evictions", "coalesced_batches",
    "coalesced_requests", "rejections", "posterior_requests",
    "posterior_rows", "posterior_builds", "posterior_samples",
    "peak_queue_depth", "batch_size_histogram", "per_circuit",
    "latency_p50_seconds", "latency_p95_seconds"}
PER_CIRCUIT_KEYS = {"requests", "responses_diagnosed",
                    "total_latency_seconds", "mean_latency_seconds",
                    "warm_loads"}
FLOAT_KEYS = {"total_latency_seconds", "mean_latency_seconds",
              "latency_p50_seconds", "latency_p95_seconds"}


def _stats_from_scrape(text):
    """The counts of ``/v1/stats`` recomputed from a Prometheus scrape,
    independently of :meth:`ServiceStats.snapshot`."""
    families = telemetry.parse_exposition(text)

    def samples(family, suffix=""):
        return [(labels, value) for name, labels, value
                in families[family]["samples"] if name == family + suffix]

    def by_circuit(family, suffix=""):
        # Summed over the ``mode`` children of a service family.
        totals = {}
        for labels, value in samples(family, suffix):
            totals[labels["circuit"]] = \
                totals.get(labels["circuit"], 0.0) + value
        return totals

    def total(family, suffix=""):
        return sum(value for _, value in samples(family, suffix))

    def posterior(family):
        return sum(value for labels, value in samples(family)
                   if labels["mode"] == "posterior")

    latency = "repro_service_request_latency_seconds"
    requests = by_circuit("repro_service_requests_total")
    responses = by_circuit("repro_service_responses_total")
    warm_loads = by_circuit("repro_service_warm_loads_total")
    latency_sums = by_circuit(latency, "_sum")
    histogram, previous = {}, 0.0
    for labels, cumulative in samples("repro_service_coalesce_batch_rows",
                                      "_bucket"):
        if cumulative > previous:
            le = labels["le"]
            histogram[le if le == "+Inf" else int(float(le))] = \
                cumulative - previous
        previous = cumulative
    return {
        "requests": sum(requests.values()),
        "responses_diagnosed": sum(responses.values()),
        "total_latency_seconds": sum(latency_sums.values()),
        "evictions": total("repro_service_engine_evictions_total"),
        "coalesced_batches": total("repro_service_coalesced_batches_total"),
        "coalesced_requests":
            total("repro_service_coalesced_requests_total"),
        "rejections": total("repro_service_rejections_total"),
        "posterior_requests": posterior("repro_service_requests_total"),
        "posterior_rows": posterior("repro_service_responses_total"),
        "posterior_builds": total("repro_posterior_build_seconds",
                                  "_count"),
        "posterior_samples": total("repro_posterior_samples_total"),
        "peak_queue_depth": total("repro_service_peak_queue_depth"),
        "batch_size_histogram": histogram,
        "per_circuit": {
            circuit: {
                "requests": requests.get(circuit, 0.0),
                "responses_diagnosed": responses.get(circuit, 0.0),
                "total_latency_seconds": latency_sums.get(circuit, 0.0),
                "warm_loads": warm_loads.get(circuit, 0.0),
            } for circuit in {*warm_loads, *requests}},
    }


class TestStatsAreReadFromTheRegistry:
    """``/v1/stats`` is a JSON view of the service's metric families:
    every count it reports is the one the scrape reports."""

    def test_snapshot_matches_the_scrape_on_every_record_path(
            self, tmp_path):
        service = DiagnosisService(
            config=QUICK, store=ArtifactStore(tmp_path / "store"),
            max_engines=1, seed=3,
            posterior=PosteriorConfig(n_samples=2, seed=3))
        width = len(service.test_vector_hz("rc_lowpass"))
        rows = np.zeros((2, width))
        service.submit("rc_lowpass", rows)
        service.diagnose_posterior("rc_lowpass", rows)

        async def bursts():
            # One coalesced call per burst: 3 rows, then 600.
            front = AsyncDiagnosisService(service)
            await front.submit_many([("rc_lowpass", rows),
                                     ("rc_lowpass", rows[:1])])
            await front.submit_many(
                [("rc_lowpass", np.zeros((600, width)))])
            await front.aclose()

        async def coalesce_and_reject():
            front = AsyncDiagnosisService(
                service, max_pending=2, overflow="reject",
                max_batch=1024, window_seconds=5.0)
            queued = [asyncio.ensure_future(
                front.submit("rc_lowpass", rows)) for _ in range(2)]
            await asyncio.sleep(0)
            with pytest.raises(ServiceError):
                await front.submit("rc_lowpass", rows)
            front.flush()
            await asyncio.gather(*queued)
            await front.aclose()

        asyncio.run(bursts())
        asyncio.run(coalesce_and_reject())
        service.warm("voltage_divider")      # evicts rc_lowpass
        service.warm("rc_lowpass")           # warm load from the store

        snapshot = service.stats.snapshot()
        expected = _stats_from_scrape(service.metrics_text())
        for key, value in expected.items():
            if key in ("per_circuit", "total_latency_seconds"):
                continue
            assert snapshot[key] == value, key
        assert snapshot["total_latency_seconds"] == pytest.approx(
            expected["total_latency_seconds"])
        assert set(snapshot["per_circuit"]) == \
            set(expected["per_circuit"]) == {"rc_lowpass",
                                              "voltage_divider"}
        for circuit, per in expected["per_circuit"].items():
            for key, value in per.items():
                assert snapshot["per_circuit"][circuit][key] == value, \
                    (circuit, key)
        # Every record path moved its count; both modes book requests.
        assert snapshot["requests"] == 1 + 1 + 3 + 2
        assert snapshot["responses_diagnosed"] == 2 + 2 + 3 + 600 + 4
        assert snapshot["coalesced_batches"] == 3
        assert snapshot["coalesced_requests"] == 2 + 1 + 2
        assert snapshot["batch_size_histogram"] == {4: 2, "+Inf": 1}
        assert snapshot["rejections"] == 1
        assert snapshot["evictions"] == 2
        assert snapshot["peak_queue_depth"] == 2
        assert (snapshot["posterior_requests"], snapshot["posterior_rows"],
                snapshot["posterior_builds"]) == (1, 2, 1)
        assert snapshot["posterior_samples"] >= 1
        assert snapshot["per_circuit"]["rc_lowpass"]["warm_loads"] == 2
        assert snapshot["per_circuit"]["voltage_divider"] == {
            "requests": 0, "responses_diagnosed": 0,
            "total_latency_seconds": 0.0, "mean_latency_seconds": 0.0,
            "warm_loads": 1}

        # The wire view: the parent's key set, every count an int.
        wire = json.loads(codec.encode_stats(snapshot))
        assert set(wire) == STATS_KEYS
        for key in STATS_KEYS - FLOAT_KEYS - {"per_circuit",
                                              "batch_size_histogram"}:
            assert type(wire[key]) is int, key
        assert all(type(count) is int
                   for count in wire["batch_size_histogram"].values())
        for per in wire["per_circuit"].values():
            assert set(per) == PER_CIRCUIT_KEYS
            for key in PER_CIRCUIT_KEYS - FLOAT_KEYS:
                assert type(per[key]) is int, key
        assert wire["batch_size_histogram"] == {"4": 2, "+Inf": 1}

    def test_batch_above_the_last_bound_lands_under_inf(self):
        stats = ServiceStats()
        for rows in (600, 512, 3):
            stats.record_answers("a", "hard", [(rows, 0.001)],
                                 [None] * rows, coalesced=True)
        assert stats.snapshot()["batch_size_histogram"] == \
            {4: 1, 512: 1, "+Inf": 1}

    def test_coalesced_posterior_request_books_like_a_hard_one(
            self, tmp_path):
        """A posterior request through the async front moves the
        service-wide request count, the coalescing counters and the
        latency reservoir, exactly as a hard request does."""
        service = DiagnosisService(
            config=QUICK, store=ArtifactStore(tmp_path / "store"),
            seed=3, posterior=PosteriorConfig(n_samples=2, seed=3))
        rows = np.zeros((2, len(service.test_vector_hz("rc_lowpass"))))
        service.diagnose_posterior("rc_lowpass", rows)   # build the tier
        before = service.stats.snapshot()
        reservoir = len(service.stats._latencies)

        async def one_request():
            front = AsyncDiagnosisService(service)
            await front.submit("rc_lowpass", rows, mode="posterior")
            await front.aclose()

        asyncio.run(one_request())
        after = service.stats.snapshot()
        for key in ("requests", "coalesced_batches", "coalesced_requests",
                    "posterior_requests"):
            assert after[key] - before[key] == 1, key
        assert after["posterior_rows"] - before["posterior_rows"] == 2
        assert len(service.stats._latencies) - reservoir == 1


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
                stats.record_answers(f"c{thread_index % 2}", "hard",
                                     [(3, 0.001)], [None] * 3)

        _run_threads([functools.partial(hammer, index)
                      for index in range(threads)])

        total = threads * per_thread
        snapshot = stats.snapshot()
        assert snapshot["requests"] == total
        assert snapshot["responses_diagnosed"] == 3 * total
        assert snapshot["total_latency_seconds"] == \
            pytest.approx(0.001 * total)
        assert sum(per["requests"] for per
                   in snapshot["per_circuit"].values()) == total

    def test_mixed_recording_is_exact_under_contention(self):
        stats = ServiceStats()
        rounds = 300

        def submits():
            for _ in range(rounds):
                stats.record_answers("a", "hard", [(1, 0.002)], [None])

        def coalesced():
            for _ in range(rounds):
                stats.record_answers("a", "hard",
                                     [(1, 0.001), (2, 0.001)],
                                     [None] * 3, coalesced=True)

        def churn():
            for _ in range(rounds):
                stats.record_warm_load("a")
                stats.record_eviction()
                stats.record_rejection()
                stats.observe_queue_depth(5)

        _run_threads([submits, submits, coalesced, coalesced,
                      churn, churn])

        snapshot = stats.snapshot()
        assert snapshot["requests"] == 2 * rounds + 2 * 2 * rounds
        assert snapshot["responses_diagnosed"] == \
            2 * rounds + 2 * 3 * rounds
        assert snapshot["coalesced_batches"] == 2 * rounds
        assert snapshot["coalesced_requests"] == 2 * 2 * rounds
        assert snapshot["evictions"] == 2 * rounds
        assert snapshot["rejections"] == 2 * rounds
        assert snapshot["per_circuit"]["a"]["warm_loads"] == 2 * rounds
        assert snapshot["peak_queue_depth"] == 5
        assert sum(snapshot["batch_size_histogram"].values()) == \
            2 * rounds
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
        snapshot = service.stats.snapshot()
        for name in CIRCUITS:
            assert snapshot["per_circuit"][name]["warm_loads"] == 1
        assert snapshot["evictions"] == 0
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
        snapshot = service.stats.snapshot()
        assert snapshot["requests"] == total
        assert snapshot["responses_diagnosed"] == 3 * total
        assert sum(per["requests"] for per
                   in snapshot["per_circuit"].values()) == total

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
        snapshot = service.stats.snapshot()
        total_builds = sum(
            per["warm_loads"] for per in snapshot["per_circuit"].values())
        # Every build either still occupies an LRU slot or was evicted.
        assert total_builds == sum(counts.values())
        assert total_builds - snapshot["evictions"] == len(warmed)
