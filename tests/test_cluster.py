"""Diagnosis cluster: routing equivalence, failover, wire transport.

The heart of this suite is the Hypothesis property: for random circuit
mixes, replica counts (2 and 3), knob settings and arrival
interleavings, a consistent-hash :class:`ClusterService` answers every
request **bitwise-identically** to a single sequential
:meth:`DiagnosisService.submit` -- the correctness contract that makes
replica routing transparent to clients.

Every cluster here runs over the real transport: one loopback HTTP
server per replica, spoken to by :class:`HTTPReplica`. Killing a
replica is closing its server; reviving it is serving again on the
same address.
"""

from __future__ import annotations

import asyncio
import contextlib

import numpy as np
import pytest

from repro import (
    ArtifactStore,
    AsyncDiagnosisService,
    ClusterService,
    DiagnosisService,
    PipelineConfig,
    serve,
)
from repro.errors import (ClusterError, ReplicaUnavailableError,
                          ServiceError)
from repro.runtime import codec, telemetry
from repro.runtime.cluster import (CircuitRouter, HTTPReplica,
                                   SpawnedReplica)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

pytestmark = pytest.mark.serving

# Shared serving scaffolding (config, circuits, warm_service fixture,
# measured-row generator) lives in conftest.py -- the serving suite
# uses the same definitions.
from conftest import (QUICK_SERVING as QUICK,
                      SERVING_CIRCUITS as CIRCUITS, measured_rows,
                      sequential_answers)

#: Cheap two-component circuits for tests that must build *separate*
#: engines per replica.
CHEAP_CIRCUITS = ("rc_lowpass", "voltage_divider")


@contextlib.asynccontextmanager
async def loopback_cluster(services, **async_kwargs):
    """A :class:`ClusterService` over one loopback server per replica.

    ``services`` holds one :class:`DiagnosisService` per replica
    (repeat one object for a cheap shared engine cache); each is served
    behind ``AsyncDiagnosisService(service, **async_kwargs)``. Yields
    ``(cluster, servers)`` with ``servers`` keyed by replica name;
    teardown closes the cluster and every server still in ``servers``.
    """
    servers = {}
    try:
        for index, service in enumerate(services):
            servers[f"replica-{index}"] = await serve(
                AsyncDiagnosisService(service, **async_kwargs),
                host="127.0.0.1", port=0)
        cluster = ClusterService([HTTPReplica(name, *server.address)
                                  for name, server in servers.items()])
        try:
            yield cluster, servers
        finally:
            await cluster.aclose()
    finally:
        for server in servers.values():
            await server.aclose()


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
class TestCircuitRouter:
    def test_placement_is_deterministic_and_total(self):
        router = CircuitRouter(("replica-0", "replica-1", "replica-2"))
        names = [f"circuit_{i}" for i in range(60)]
        placed = {name: router.replica_for(name) for name in names}
        again = CircuitRouter(("replica-0", "replica-1", "replica-2"))
        assert placed == {name: again.replica_for(name)
                          for name in names}
        assert set(placed.values()) == set(router.replica_names)

    def test_placement_ignores_replica_order(self):
        router = CircuitRouter(("a", "b", "c"))
        shuffled = CircuitRouter(("c", "a", "b"))
        for name in (f"circuit-{i}" for i in range(100)):
            assert router.replica_for(name) == shuffled.replica_for(name)
            assert router.failover_order(name) == \
                shuffled.failover_order(name)

    def test_failover_order_starts_at_owner(self):
        router = CircuitRouter(("a", "b", "c"))
        for name in ("rc_lowpass", "voltage_divider"):
            order = router.failover_order(name)
            assert order[0] == router.replica_for(name)
            assert sorted(order) == ["a", "b", "c"]

    def test_exclusion_walks_failover_order(self):
        router = CircuitRouter(("a", "b", "c"))
        for name in ("x", "y", "z"):
            order = router.failover_order(name)
            for n_down in range(len(order)):
                down = frozenset(order[:n_down])
                assert router.replica_for(name, exclude=down) == \
                    order[n_down]

    def test_down_replica_only_remaps_its_circuits(self):
        router = CircuitRouter(("a", "b", "c"))
        names = [f"circuit_{i}" for i in range(120)]
        before = {name: router.replica_for(name) for name in names}
        for name in names:
            moved = router.replica_for(name, exclude=frozenset({"c"}))
            if before[name] != "c":
                assert moved == before[name]

    def test_rebuilt_ring_only_remaps_lost_replica(self):
        """The consistent-hashing property: rebuilding the router
        without one replica moves only the circuits it owned."""
        router = CircuitRouter(("a", "b", "c"))
        survivors = CircuitRouter(("a", "b"))
        for name in (f"circuit-{i}" for i in range(200)):
            owner = router.replica_for(name)
            if owner != "c":
                assert survivors.replica_for(name) == owner, \
                    f"{name} moved although its replica survived"

    def test_empty_and_exhausted_rings_raise(self):
        with pytest.raises(ClusterError):
            CircuitRouter(())
        router = CircuitRouter(("a",))
        with pytest.raises(ClusterError, match="no live replica"):
            router.replica_for("x", exclude=frozenset({"a"}))

    def test_all_excluded_error_names_circuit_and_down_set(self):
        router = CircuitRouter(("a", "b"))
        with pytest.raises(
                ClusterError,
                match=r"circuit 'x' \(down: \['a', 'b', 'zz'\]\)"):
            router.replica_for("x", exclude=frozenset({"b", "a", "zz"}))
        # Names outside the ring are not replicas and change nothing.
        assert router.replica_for("x", exclude=frozenset({"zz"})) == \
            router.replica_for("x")

    def test_invalid_rings_rejected(self):
        for names, vnodes in ((("a", "a"), 64), (("a", "b", "a"), 64),
                              (("a",), 0), (("a",), -1)):
            with pytest.raises(ClusterError):
                CircuitRouter(names, vnodes=vnodes)


# ----------------------------------------------------------------------
# Property: cluster == single service, bitwise
# ----------------------------------------------------------------------
request_lists = st.lists(
    st.tuples(st.integers(0, len(CIRCUITS) - 1),   # circuit
              st.integers(1, 4),                   # rows in the request
              st.integers(0, 2 ** 31)),            # measurement seed
    min_size=1, max_size=12)


class TestClusterEquivalence:
    @pytest.mark.parametrize("mode", codec.MODES)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(requests=request_lists,
           n_replicas=st.sampled_from([2, 3]),
           max_batch=st.integers(1, 32),
           window_ms=st.sampled_from([0.0, 0.5, 2.0]),
           stagger=st.lists(st.integers(0, 2), min_size=12,
                            max_size=12))
    def test_routed_results_bitwise_equal_single_service(
            self, warm_service, mode, requests, n_replicas, max_batch,
            window_ms, stagger):
        """N interleaved cluster submits == N sequential sync calls,
        whatever the replica count, in either diagnosis mode."""
        batches = [(CIRCUITS[index], measured_rows(
            warm_service, CIRCUITS[index], rows, seed))
            for index, rows, seed in requests]
        expected = sequential_answers(warm_service, mode, batches)

        async def clustered():
            async with loopback_cluster(
                    [warm_service] * n_replicas,
                    window_seconds=window_ms / 1e3,
                    max_batch=max_batch) as (cluster, _):

                async def one(position, circuit, rows):
                    for _ in range(stagger[position % len(stagger)]):
                        await asyncio.sleep(0)
                    return await cluster.submit(circuit, rows, mode)

                return await asyncio.gather(
                    *(one(position, circuit, rows)
                      for position, (circuit, rows)
                      in enumerate(batches)))

        results = asyncio.run(clustered())
        # Diagnosis and PosteriorDiagnosis are frozen dataclasses: ==
        # compares every float exactly, so this is the bitwise claim.
        assert results == expected

    @pytest.mark.parametrize("mode", codec.MODES)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(requests=request_lists, n_replicas=st.sampled_from([2, 3]))
    def test_burst_submit_many_bitwise_equal_single_service(
            self, warm_service, mode, requests, n_replicas):
        """A mixed-circuit burst through the cluster == sequential."""
        batches = [(CIRCUITS[index], measured_rows(
            warm_service, CIRCUITS[index], rows, seed))
            for index, rows, seed in requests]
        expected = sequential_answers(warm_service, mode, batches)

        async def clustered():
            async with loopback_cluster([warm_service] * n_replicas,
                                        window_seconds=0.001) \
                    as (cluster, _):
                return await cluster.submit_many(batches, mode)

        assert asyncio.run(clustered()) == expected


class TestCrossReplicaDeterminism:
    def test_separate_replica_services_answer_identically(self):
        """Independently built replicas (own engine caches, same
        config+seed) return bitwise-identical diagnoses -- the
        property that makes failover transparent."""
        services = [DiagnosisService(config=QUICK, seed=3)
                    for _ in range(2)]
        reference = DiagnosisService(config=QUICK, seed=3)
        for name in CHEAP_CIRCUITS:
            reference.warm(name)
        batches = [(name, measured_rows(reference, name, 3, seed=42 + i))
                   for i, name in enumerate(CHEAP_CIRCUITS)]
        expected = [reference.submit(name, rows)
                    for name, rows in batches]

        async def clustered():
            async with loopback_cluster(services, window_seconds=0.001) \
                    as (cluster, _):
                return [await cluster.submit(name, rows)
                        for name, rows in batches]

        assert asyncio.run(clustered()) == expected


# ----------------------------------------------------------------------
# Failover / health
# ----------------------------------------------------------------------
class TestFailover:
    def test_dead_replica_reroutes_and_results_stay_identical(
            self, warm_service):
        circuit = "rc_lowpass"
        rows = measured_rows(warm_service, circuit, 2, seed=9)
        expected = warm_service.submit(circuit, rows)

        async def run():
            async with loopback_cluster([warm_service] * 3,
                                        window_seconds=0.001) \
                    as (cluster, servers):
                owner = cluster.replica_for(circuit)
                await servers[owner.name].aclose()   # kill the owner
                result = await cluster.submit(circuit, rows)
                assert owner.name in cluster.down
                snapshot = await cluster.stats_snapshot()
                assert snapshot["cluster"]["failovers"] >= 1
                # The re-route is sticky until health says otherwise.
                assert cluster.replica_for(circuit).name != owner.name
                return result

        assert asyncio.run(run()) == expected

    def test_burst_reroutes_only_the_dead_replicas_share(
            self, warm_service):
        batches = [(name, measured_rows(warm_service, name, 1,
                                        seed=17 + i))
                   for i, name in enumerate(CIRCUITS * 2)]
        expected = [warm_service.submit(name, rows)
                    for name, rows in batches]

        async def run():
            async with loopback_cluster([warm_service] * 3,
                                        window_seconds=0.001) \
                    as (cluster, servers):
                victim = cluster.replica_for(CIRCUITS[0])
                await servers[victim.name].aclose()
                results = await cluster.submit_many(batches)
                assert victim.name in cluster.down
                return results

        assert asyncio.run(run()) == expected

    def test_every_replica_down_raises_cluster_error(self, warm_service):
        async def run():
            async with loopback_cluster([warm_service] * 2,
                                        window_seconds=0.001) \
                    as (cluster, servers):
                for server in servers.values():
                    await server.aclose()
                with pytest.raises(ClusterError,
                                   match="no live replica"):
                    await cluster.submit(
                        "rc_lowpass",
                        measured_rows(warm_service, "rc_lowpass", 1, 0))

        asyncio.run(run())

    def test_check_health_marks_down_and_revives(self, warm_service):
        async def run():
            async with loopback_cluster([warm_service] * 3,
                                        window_seconds=0.001) \
                    as (cluster, servers):
                assert await cluster.check_health() == {
                    name: True for name in cluster.replicas}
                victim = next(iter(cluster.replicas.values()))
                await servers[victim.name].aclose()
                health = await cluster.check_health()
                assert health[victim.name] is False
                assert victim.name in cluster.down
                # A replacement server on the same address rejoins the
                # ring under the same name.
                servers[victim.name] = await serve(
                    AsyncDiagnosisService(warm_service,
                                          window_seconds=0.001),
                    host=victim.host, port=victim.port)
                health = await cluster.check_health()
                assert health[victim.name] is True
                assert victim.name not in cluster.down

        asyncio.run(run())

    def test_closed_cluster_rejects_submits(self, warm_service):
        rows = measured_rows(warm_service, "rc_lowpass", 1, 0)

        async def run():
            async with loopback_cluster([warm_service] * 2) \
                    as (cluster, _):
                await cluster.aclose()
                with pytest.raises(ServiceError, match="closed"):
                    await cluster.submit("rc_lowpass", rows)
                with pytest.raises(ServiceError, match="closed"):
                    await cluster.submit_many([("rc_lowpass", rows)])
                # A refused request was never accepted: no counter moves.
                counts = (await cluster.stats_snapshot())["cluster"]
                assert (counts["requests"], counts["bursts"]) == (0, 0)
                families = telemetry.parse_exposition(
                    cluster.registry.render())
                for family in ("repro_cluster_requests_total",
                               "repro_cluster_bursts_total"):
                    assert [value for _, _, value
                            in families[family]["samples"]] == [0.0]

        asyncio.run(run())

    def test_invalid_clusters_rejected(self):
        with pytest.raises(ClusterError):
            ClusterService([])
        with pytest.raises(ClusterError, match="duplicate"):
            ClusterService([HTTPReplica("twin", "127.0.0.1", 1),
                            HTTPReplica("twin", "127.0.0.1", 1)])


# ----------------------------------------------------------------------
# Introspection
# ----------------------------------------------------------------------
class TestClusterIntrospection:
    def test_stats_snapshot_aggregates(self, warm_service):
        async def run():
            async with loopback_cluster([warm_service] * 2,
                                        window_seconds=0.001) \
                    as (cluster, _):
                await cluster.submit(
                    "rc_lowpass",
                    measured_rows(warm_service, "rc_lowpass", 1, 3))
                await cluster.submit_many(
                    [("voltage_divider",
                      measured_rows(warm_service, "voltage_divider",
                                    1, 4))])
                await cluster.submit(
                    "rc_lowpass",
                    measured_rows(warm_service, "rc_lowpass", 2, 5),
                    "posterior")
                await cluster.submit_many(
                    [("voltage_divider",
                      measured_rows(warm_service, "voltage_divider",
                                    1, 6))],
                    "posterior")
                return await cluster.stats_snapshot()

        snapshot = asyncio.run(run())
        assert snapshot["cluster"]["replicas"] == 2
        assert snapshot["cluster"]["requests"] == 4
        assert snapshot["cluster"]["bursts"] == 2
        assert snapshot["cluster"]["failovers"] == 0
        assert set(snapshot["per_replica"]) == {"replica-0",
                                                "replica-1"}
        for replica_snapshot in snapshot["per_replica"].values():
            assert "requests" in replica_snapshot
        merged = snapshot["merged"]
        for key in ("requests", "posterior_requests", "posterior_rows",
                    "posterior_builds", "posterior_samples"):
            assert merged[key] == sum(
                replica_snapshot[key] for replica_snapshot
                in snapshot["per_replica"].values())
        assert merged["posterior_requests"] > 0
        assert "per_circuit" in merged
        assert "batch_size_histogram" in merged

    def test_metrics_text_merges_replica_scrapes(self, warm_service):
        async def run():
            async with loopback_cluster([warm_service] * 2,
                                        window_seconds=0.001) \
                    as (cluster, _):
                await cluster.submit(
                    "rc_lowpass",
                    measured_rows(warm_service, "rc_lowpass", 1, 9))
                return await cluster.metrics_text()

        text = asyncio.run(run())
        families = telemetry.parse_exposition(text)
        # The cluster's own registry renders first...
        assert families["repro_cluster_requests_total"]["samples"] \
            [0][2] == 1
        up = {labels["replica"]: value for _, labels, value
              in families["repro_cluster_replica_up"]["samples"]}
        assert up == {"replica-0": 1.0, "replica-1": 1.0}
        assert "repro_cluster_replica_call_seconds" in families
        # ...then every replica scrape, tagged with a replica label.
        replicas = {labels.get("replica") for _, labels, _
                    in families["repro_service_requests_total"]
                    ["samples"]}
        assert replicas == {"replica-0", "replica-1"}

    def test_known_and_warmed_circuits(self, warm_service):
        async def run():
            async with loopback_cluster([warm_service] * 2,
                                        window_seconds=0.001) \
                    as (cluster, _):
                # Replica introspection rides the health probe.
                await cluster.check_health()
                known = cluster.known_circuits()
                assert "rc_lowpass" in known["benchmarks"]
                assert set(CIRCUITS) <= set(cluster.warmed_circuits())
                assert cluster.queue_depth == 0

        asyncio.run(run())

    def test_registered_circuits_surface_through_cluster(self):
        """Circuits registered on a replica's service appear in the
        cluster's /v1/circuits view (own service: the shared session
        fixture must stay read-only)."""
        from repro import rc_lowpass

        async def run():
            service = DiagnosisService(config=QUICK, seed=3)
            service.register("custom_dut", rc_lowpass())
            async with loopback_cluster([service] * 2,
                                        window_seconds=0.001) \
                    as (cluster, _):
                await cluster.check_health()
                assert "custom_dut" in \
                    cluster.known_circuits()["registered"]

        asyncio.run(run())


class TestClusterBehindHTTP:
    def test_fully_down_cluster_answers_503_not_404(self, warm_service):
        """An outage must look retryable to HTTP clients: routing
        failure (every owning replica down) is 503, never 404."""
        from repro.runtime import codec as wire

        body = wire.encode_request(
            "rc_lowpass", measured_rows(warm_service, "rc_lowpass", 1, 0))

        async def run():
            async with loopback_cluster([warm_service] * 2,
                                        window_seconds=0.001) \
                    as (cluster, servers):
                for replica_server in servers.values():
                    await replica_server.aclose()
                front = await serve(cluster, host="127.0.0.1", port=0)
                host, port = front.address
                try:
                    reader, writer = await asyncio.open_connection(host,
                                                                   port)
                    writer.write((f"POST /v1/diagnose HTTP/1.1\r\n"
                                  f"Host: {host}\r\n"
                                  f"Content-Length: {len(body)}\r\n"
                                  f"Connection: close\r\n\r\n"
                                  ).encode("latin1") + body)
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    await writer.wait_closed()
                finally:
                    await front.aclose()
            status = int(raw.split(b" ", 2)[1])
            assert status == 503
            assert b"ClusterError" in raw

        asyncio.run(run())


class TestConfigAndCliValidation:
    def test_pipeline_config_json_round_trip_and_errors(self):
        from repro.errors import ReproError
        restored = PipelineConfig.from_json_dict(QUICK.to_json_dict())
        assert restored == QUICK
        with pytest.raises(ReproError, match="bad pipeline-config"):
            PipelineConfig.from_json_dict({"ga": {"bogus": 1}})
        with pytest.raises(ReproError, match="bad pipeline-config"):
            PipelineConfig.from_json_dict({"no_such_field": 1})


# ----------------------------------------------------------------------
# Wire transport (HTTPReplica against a loopback HTTP server)
# ----------------------------------------------------------------------
class TestHTTPReplica:
    def test_http_replica_round_trip_and_keep_alive(self, warm_service):
        rows = measured_rows(warm_service, "rc_lowpass", 3, seed=21)
        expected = warm_service.submit("rc_lowpass", rows)
        burst = [("rc_lowpass", rows[0:1]), ("voltage_divider",
                 measured_rows(warm_service, "voltage_divider", 1, 22))]
        expected_burst = [warm_service.submit(name, r)
                          for name, r in burst]
        expected_posterior = warm_service.diagnose_posterior("rc_lowpass",
                                                             rows)
        expected_posterior_burst = sequential_answers(
            warm_service, "posterior", burst)

        async def run():
            server = await serve(
                AsyncDiagnosisService(warm_service,
                                      window_seconds=0.001),
                host="127.0.0.1", port=0)
            host, port = server.address
            replica = HTTPReplica("wire", host, port)
            try:
                assert await replica.healthy()
                result = await replica.submit("rc_lowpass", rows)
                assert result == expected
                # The keep-alive connection went back to the pool and
                # is reused by the next request.
                assert len(replica._idle) == 1
                conn_before = replica._idle[0]
                assert await replica.submit_many(burst) == expected_burst
                assert replica._idle[0] is conn_before
                assert await replica.submit(
                    "rc_lowpass", rows, mode="posterior") == \
                    expected_posterior
                assert await replica.submit_many(
                    burst, mode="posterior") == expected_posterior_burst
                freqs = await replica.test_vector_hz("rc_lowpass")
                assert freqs == tuple(sorted(
                    warm_service.test_vector_hz("rc_lowpass")))
                snapshot = await replica.stats_snapshot()
                assert "requests" in snapshot
            finally:
                await replica.aclose()
                await server.aclose()

        asyncio.run(run())

    def test_request_errors_do_not_trip_failover(self, warm_service):
        """Bad requests raise ServiceError (not
        ReplicaUnavailableError): the cluster must not mark a healthy
        replica down for a client's bad payload."""

        async def run():
            server = await serve(
                AsyncDiagnosisService(warm_service,
                                      window_seconds=0.001),
                host="127.0.0.1", port=0)
            host, port = server.address
            replica = HTTPReplica("wire", host, port)
            try:
                with pytest.raises(ServiceError, match="unknown"):
                    await replica.submit("no_such_circuit",
                                         np.zeros((1, 2)))
                # Request-level errors cross the wire as the same
                # type the service raises.
                from repro.errors import DiagnosisError
                with pytest.raises(DiagnosisError):
                    await replica.submit("rc_lowpass",
                                         np.zeros((1, 7)))
                assert await replica.healthy()
            finally:
                await replica.aclose()
                await server.aclose()

        asyncio.run(run())

    def test_unreachable_replica_raises_unavailable(self):
        async def run():
            replica = HTTPReplica("ghost", "127.0.0.1", 1,
                                  health_timeout=0.5)
            with pytest.raises(ReplicaUnavailableError):
                await replica.submit("rc_lowpass", np.zeros((1, 2)))
            assert not await replica.healthy()

        asyncio.run(run())

    def test_truncated_response_reads_as_replica_failure(self):
        """A replica dying mid-response (partial status line, then
        EOF) must surface as ReplicaUnavailableError so the cluster
        fails over -- not as a raw ValueError/IndexError."""

        async def broken(reader, writer):
            await reader.readline()       # request line arrives
            writer.write(b"HTTP/")        # dies mid-status-line
            await writer.drain()
            writer.close()

        async def broken_after_status(reader, writer):
            await reader.readline()
            # Status line flushed, then death mid-headers: must not
            # read as a complete zero-length 200 response.
            writer.write(b"HTTP/1.1 200 OK\r\n")
            await writer.drain()
            writer.close()

        async def run():
            for handler in (broken, broken_after_status):
                server = await asyncio.start_server(handler,
                                                    "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                replica = HTTPReplica("flaky", "127.0.0.1", port)
                try:
                    with pytest.raises(ReplicaUnavailableError):
                        await replica.submit("rc_lowpass",
                                             np.zeros((1, 2)))
                finally:
                    await replica.aclose()
                    server.close()
                    await server.wait_closed()

        asyncio.run(run())

    def test_stale_pool_survives_replica_restart(self, warm_service):
        """A restarted replica leaves several stale keep-alive
        connections in the pool; the next request must still reach it
        (the retry connects fresh instead of burning both attempts on
        stale connections)."""
        rows = measured_rows(warm_service, "rc_lowpass", 1, seed=77)
        expected = warm_service.submit("rc_lowpass", rows)

        async def run():
            server = await serve(
                AsyncDiagnosisService(warm_service,
                                      window_seconds=0.001),
                host="127.0.0.1", port=0)
            host, port = server.address
            replica = HTTPReplica("wire", host, port)
            # Two concurrent requests pool two keep-alive connections.
            await asyncio.gather(replica.submit("rc_lowpass", rows),
                                 replica.submit("rc_lowpass", rows))
            assert len(replica._idle) == 2
            await server.aclose()
            restarted = await serve(
                AsyncDiagnosisService(warm_service,
                                      window_seconds=0.001),
                host=host, port=port)
            try:
                assert await replica.submit("rc_lowpass",
                                            rows) == expected
            finally:
                await replica.aclose()
                await restarted.aclose()

        asyncio.run(run())


# ----------------------------------------------------------------------
# Spawned worker processes (the full production shape)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestSpawnedCluster:
    def test_spawned_workers_end_to_end_with_failover(self, tmp_path):
        """Two repro-serve worker processes behind the router: results
        bitwise-equal a local reference service, health checks pass,
        and killing a worker re-routes its circuits transparently."""
        store_root = tmp_path / "store"
        reference = DiagnosisService(config=QUICK,
                                     store=ArtifactStore(store_root),
                                     seed=3)
        for name in CHEAP_CIRCUITS:
            reference.warm(name)
        batches = [(name, measured_rows(reference, name, 2, seed=5 + i))
                   for i, name in enumerate(CHEAP_CIRCUITS)]
        expected = [reference.submit(name, rows)
                    for name, rows in batches]

        async def run():
            cluster = await ClusterService.spawn(
                2, store_root=store_root, config=QUICK, seed=3,
                window_ms=1.0, warm=CHEAP_CIRCUITS)
            try:
                results = [await cluster.submit(name, rows)
                           for name, rows in batches]
                assert results == expected
                assert await cluster.submit_many(batches) == expected
                health = await cluster.check_health()
                assert health == {name: True for name in
                                  cluster.replicas}
                # The health probes feed the sync introspection
                # caches, so a spawned cluster reports its warmed
                # circuits over /v1/healthz too.
                assert set(CHEAP_CIRCUITS) <= \
                    set(cluster.warmed_circuits())
                snapshot = await cluster.stats_snapshot()
                assert snapshot["cluster"]["requests"] == \
                    len(batches) * 2
                # Kill the worker owning the first circuit: its
                # traffic must fail over to the survivor, identically.
                victim = cluster.replica_for(CHEAP_CIRCUITS[0])
                victim.process.terminate()
                await victim.process.wait()
                rerouted = await cluster.submit(CHEAP_CIRCUITS[0],
                                                batches[0][1])
                assert rerouted == expected[0]
                snapshot = await cluster.stats_snapshot()
                assert snapshot["cluster"]["failovers"] >= 1
                assert victim.name in cluster.down
                health = await cluster.check_health()
                assert health[victim.name] is False
            finally:
                await cluster.aclose()

        asyncio.run(run())

    def test_spawn_failure_reaps_the_worker(self):
        """A worker that dies before announcing (unwritable store
        root) raises ClusterError and leaves no orphan process."""
        from pathlib import Path

        async def run():
            with pytest.raises(ClusterError, match="before announcing"):
                await SpawnedReplica.spawn(
                    "doomed", store_root=Path("/proc/no/such/store"),
                    config=QUICK, start_timeout=60.0)

        asyncio.run(run())

    def test_failed_post_spawn_step_reaps_the_workers(self, tmp_path):
        """A post-spawn failure (bad --warm name) must terminate the
        worker processes it already started, not orphan them."""

        async def run():
            started = []
            original = ClusterService.__init__

            def spy(self, replicas, **kwargs):
                started.extend(replicas)
                original(self, replicas, **kwargs)

            ClusterService.__init__ = spy
            try:
                with pytest.raises(ServiceError, match="unknown"):
                    await ClusterService.spawn(
                        1, store_root=tmp_path / "store", config=QUICK,
                        seed=3, warm=("no_such_circuit",))
            finally:
                ClusterService.__init__ = original
            assert started, "spawn never constructed the cluster"
            for replica in started:
                assert replica.process.returncode is not None, \
                    f"{replica.name} left an orphan worker process"

        asyncio.run(run())
