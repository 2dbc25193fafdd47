"""Serving layer: coalescer equivalence, backpressure, codec, HTTP.

The heart of this suite is the Hypothesis property: for random circuit
mixes, batch sizes, knob settings and arrival interleavings, the
coalescing :class:`AsyncDiagnosisService` answers every request
**bitwise-identically** to a sequential
:meth:`DiagnosisService.submit` -- which is the whole correctness
contract of micro-batching.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import re

import numpy as np
import pytest

from repro import AsyncDiagnosisService, serve
from repro.diagnosis import Diagnosis
from repro.errors import (CodecError, DiagnosisError, ServiceError,
                          ServiceOverloadedError)
from repro.runtime import codec, telemetry
from repro.runtime.server import DiagnosisHTTPServer

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

pytestmark = pytest.mark.serving

# Shared serving scaffolding (config, circuits, warm_service fixture,
# measured-row generator) lives in conftest.py -- the cluster suite
# uses the same definitions.
from conftest import (QUICK_SERVING as QUICK,
                      SERVING_CIRCUITS as CIRCUITS, measured_rows,
                      sequential_answers)


# ----------------------------------------------------------------------
# Property: coalesced == sequential, bitwise
# ----------------------------------------------------------------------
request_lists = st.lists(
    st.tuples(st.integers(0, len(CIRCUITS) - 1),   # circuit
              st.integers(1, 4),                   # rows in the request
              st.integers(0, 2 ** 31)),            # measurement seed
    min_size=1, max_size=12)


class TestCoalescerEquivalence:
    @pytest.mark.parametrize("mode", codec.MODES)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(requests=request_lists,
           max_batch=st.integers(1, 32),
           window_ms=st.sampled_from([0.0, 0.5, 2.0]),
           eager=st.booleans(),
           stagger=st.lists(st.integers(0, 2), min_size=12,
                            max_size=12))
    def test_results_bitwise_equal_sequential(
            self, warm_service, mode, requests, max_batch, window_ms,
            eager, stagger):
        """N interleaved async submits == N sequential sync calls, in
        either diagnosis mode."""
        batches = [(CIRCUITS[index], measured_rows(
            warm_service, CIRCUITS[index], rows, seed))
            for index, rows, seed in requests]
        expected = sequential_answers(warm_service, mode, batches)

        async def coalesced():
            front = AsyncDiagnosisService(
                warm_service, window_seconds=window_ms / 1e3,
                max_batch=max_batch, eager_flush=eager)

            async def one(position, circuit, rows):
                # Random arrival interleaving: yield to the loop 0-2
                # times before submitting.
                for _ in range(stagger[position % len(stagger)]):
                    await asyncio.sleep(0)
                return await front.submit(circuit, rows, mode)

            results = await asyncio.gather(
                *(one(position, circuit, rows)
                  for position, (circuit, rows) in enumerate(batches)))
            await front.aclose()
            return results

        results = asyncio.run(coalesced())
        # Diagnosis and PosteriorDiagnosis are frozen dataclasses: ==
        # compares every float exactly, so this is the bitwise claim.
        assert results == expected

    @settings(max_examples=15, deadline=None)
    @given(n_rows=st.integers(1, 8), seed=st.integers(0, 2 ** 31))
    def test_wire_round_trip_preserves_diagnoses(self, warm_service,
                                                 n_rows, seed):
        """encode -> decode over the JSON codec is lossless."""
        rows = measured_rows(warm_service, "rc_lowpass", n_rows, seed)
        diagnoses = warm_service.submit("rc_lowpass", rows)
        payload = codec.encode_response(diagnoses)
        assert codec.decode_response(payload) == diagnoses
        request = codec.decode_request(
            codec.encode_request("rc_lowpass", rows))
        assert request.circuit == "rc_lowpass"
        assert np.array_equal(request.magnitudes_db, rows)


# ----------------------------------------------------------------------
# Coalescing behaviour
# ----------------------------------------------------------------------
class TestCoalescingBehaviour:
    def test_concurrent_submits_share_one_classify(self, warm_service):
        """max_batch reached -> exactly one coalesced flush."""
        rows = [measured_rows(warm_service, "rc_lowpass", 1, seed)
                for seed in range(4)]
        before = warm_service.stats.snapshot()

        async def run():
            front = AsyncDiagnosisService(warm_service, max_batch=4,
                                          window_seconds=5.0,
                                          eager_flush=False)
            results = await asyncio.gather(
                *(front.submit("rc_lowpass", r) for r in rows))
            await front.aclose()
            return results

        results = asyncio.run(run())
        after = warm_service.stats.snapshot()
        assert len(results) == 4
        assert after["coalesced_batches"] - \
            before["coalesced_batches"] == 1
        assert after["coalesced_requests"] - \
            before["coalesced_requests"] == 4
        assert after["requests"] - before["requests"] == 4

    def test_window_flush_without_max_batch(self, warm_service):
        """A lone request is answered after the window, not stuck."""
        rows = measured_rows(warm_service, "rc_lowpass", 2, seed=7)

        async def run():
            front = AsyncDiagnosisService(warm_service, max_batch=1024,
                                          window_seconds=0.005)
            result = await front.submit("rc_lowpass", rows)
            await front.aclose()
            return result

        assert len(asyncio.run(run())) == 2

    def test_bad_request_fails_alone(self, warm_service):
        """A malformed request must not poison its batch peers."""
        good = measured_rows(warm_service, "rc_lowpass", 1, seed=1)
        bad = np.zeros((1, 7))             # wrong signature width

        async def run():
            front = AsyncDiagnosisService(warm_service, max_batch=16,
                                          window_seconds=0.005)
            results = await asyncio.gather(
                front.submit("rc_lowpass", good),
                front.submit("rc_lowpass", bad),
                front.submit("rc_lowpass", good),
                return_exceptions=True)
            await front.aclose()
            return results

        first, second, third = asyncio.run(run())
        assert isinstance(second, DiagnosisError)
        for result in (first, third):
            assert isinstance(result, list) and len(result) == 1

    def test_unknown_circuit_raises(self, warm_service):
        async def run():
            front = AsyncDiagnosisService(warm_service,
                                          window_seconds=0.001)
            try:
                with pytest.raises(ServiceError, match="unknown"):
                    await front.submit("no_such_circuit",
                                       np.zeros((1, 2)))
                # Rejected before any per-circuit state is allocated:
                # bogus names must not grow the queue map (or the
                # service's build-lock map) unboundedly.
                assert "no_such_circuit" not in front._queues
                assert "no_such_circuit" not in \
                    warm_service._build_locks
            finally:
                await front.aclose()

        asyncio.run(run())

    def test_closed_service_rejects_submits(self, warm_service):
        rows = measured_rows(warm_service, "rc_lowpass", 1, seed=2)

        async def run():
            front = AsyncDiagnosisService(warm_service)
            await front.aclose()
            with pytest.raises(ServiceError, match="closed"):
                await front.submit("rc_lowpass", rows)

        asyncio.run(run())

    def test_invalid_knobs_rejected(self, warm_service):
        for kwargs in ({"max_batch": 0}, {"max_pending": 0},
                       {"window_seconds": -1.0},
                       {"overflow": "drop"}):
            with pytest.raises(ServiceError):
                AsyncDiagnosisService(warm_service, **kwargs)
        with pytest.raises(ServiceError, match="not both"):
            AsyncDiagnosisService(warm_service, config=QUICK)


class TestBackpressure:
    def test_reject_overflow(self, warm_service):
        rows = measured_rows(warm_service, "rc_lowpass", 1, seed=3)
        rejections_before = warm_service.stats.rejections

        async def run():
            front = AsyncDiagnosisService(
                warm_service, max_pending=2, overflow="reject",
                max_batch=1024, window_seconds=5.0, eager_flush=False)
            first = asyncio.ensure_future(
                front.submit("rc_lowpass", rows))
            second = asyncio.ensure_future(
                front.submit("rc_lowpass", rows))
            await asyncio.sleep(0)         # both queued
            with pytest.raises(ServiceOverloadedError):
                await front.submit("rc_lowpass", rows)
            front.flush()
            results = await asyncio.gather(first, second)
            await front.aclose()
            return results

        results = asyncio.run(run())
        assert all(len(r) == 1 for r in results)
        assert warm_service.stats.rejections == rejections_before + 1

    def test_wait_overflow_completes_everything(self, warm_service):
        rows = measured_rows(warm_service, "rc_lowpass", 1, seed=4)

        async def run():
            front = AsyncDiagnosisService(
                warm_service, max_pending=2, overflow="wait",
                max_batch=2, window_seconds=0.005)
            results = await asyncio.gather(
                *(front.submit("rc_lowpass", rows) for _ in range(7)))
            await front.aclose()
            return results

        results = asyncio.run(run())
        assert len(results) == 7
        assert all(len(r) == 1 for r in results)

    def test_drain_waits_for_parked_submits(self, warm_service):
        """drain() must cover submits parked on backpressure too."""
        rows = measured_rows(warm_service, "rc_lowpass", 1, seed=6)

        async def run():
            front = AsyncDiagnosisService(
                warm_service, max_pending=1, overflow="wait",
                max_batch=1, window_seconds=0.005)
            submits = [asyncio.ensure_future(
                front.submit("rc_lowpass", rows)) for _ in range(4)]
            await asyncio.sleep(0)         # 1 admitted, 3 parked
            await front.drain()
            assert all(task.done() for task in submits), \
                "drain returned with parked submits still unserved"
            return await asyncio.gather(*submits)

        results = asyncio.run(run())
        assert all(len(r) == 1 for r in results)

    def test_queue_depth_and_latency_stats(self, warm_service):
        rows = measured_rows(warm_service, "rc_lowpass", 1, seed=5)

        async def run():
            front = AsyncDiagnosisService(warm_service, max_batch=8,
                                          window_seconds=0.005)
            await asyncio.gather(
                *(front.submit("rc_lowpass", rows) for _ in range(8)))
            await front.aclose()

        asyncio.run(run())
        stats = warm_service.stats
        assert stats.peak_queue_depth >= 1
        assert stats.latency_p95_seconds >= \
            stats.latency_p50_seconds > 0.0
        assert sum(stats.batch_size_histogram.values()) >= 1
        snapshot = stats.snapshot()
        assert snapshot["latency_p50_seconds"] > 0.0
        assert snapshot["peak_queue_depth"] == stats.peak_queue_depth


# ----------------------------------------------------------------------
# Engine selection end to end (config -> service -> stats, CLI flag)
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_stats_report_active_engine_kind(self):
        import dataclasses
        from repro import DiagnosisService
        for kind in ("batched", "scalar", "factored"):
            config = dataclasses.replace(QUICK, engine=kind)
            service = DiagnosisService(config=config, seed=3)
            assert service.stats.snapshot()["engine_kind"] == kind

    def test_factored_service_serves_diagnoses(self):
        import dataclasses
        from repro import DiagnosisService
        config = dataclasses.replace(QUICK, engine="factored")
        service = DiagnosisService(config=config, seed=3)
        service.warm("rc_lowpass")
        rows = measured_rows(service, "rc_lowpass", 2, seed=7)
        diagnoses = service.submit("rc_lowpass", rows)
        assert len(diagnoses) == 2
        assert all(d.component for d in diagnoses)

    def test_cli_engine_flag_overrides_config(self):
        from repro.runtime.cli import build_parser, load_config
        args = build_parser().parse_args(
            ["--engine", "factored", "--config", "quick"])
        assert load_config(args).engine.kind == "factored"
        # Without the flag the config's own engine field stands.
        assert load_config(
            build_parser().parse_args([])).engine.kind == "batched"

    def test_cli_engine_flag_accepts_knob_specs(self):
        from repro.runtime.cli import build_parser, load_config
        args = build_parser().parse_args(
            ["--engine", "factored:cond_limit=1e6,sparse=false"])
        engine = load_config(args).engine
        assert engine.kind == "factored"
        assert engine.cond_limit == 1e6
        assert engine.sparse is False
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--engine", "magic"])

    def test_cli_engine_flag_documented_in_help(self):
        from repro.runtime.cli import build_parser
        help_text = build_parser().format_help()
        assert "--engine" in help_text
        for kind in ("scalar", "batched", "factored"):
            assert kind in help_text


# ----------------------------------------------------------------------
# Burst batching (submit_many)
# ----------------------------------------------------------------------
class TestSubmitMany:
    def burst(self, warm_service):
        """A mixed-circuit burst interleaving the three circuits."""
        return [(CIRCUITS[index % len(CIRCUITS)],
                 measured_rows(warm_service,
                               CIRCUITS[index % len(CIRCUITS)],
                               1 + index % 3, seed=100 + index))
                for index in range(7)]

    def test_sync_burst_bitwise_equals_per_request_submit(
            self, warm_service):
        burst = self.burst(warm_service)
        expected = [warm_service.submit(circuit, rows)
                    for circuit, rows in burst]
        assert warm_service.submit_many(burst) == expected
        assert warm_service.submit_many([]) == []

    def test_sync_burst_issues_one_classify_per_circuit(
            self, warm_service):
        burst = self.burst(warm_service)
        before = warm_service.stats.snapshot()
        warm_service.submit_many(burst)
        after = warm_service.stats.snapshot()
        assert after["coalesced_batches"] - \
            before["coalesced_batches"] == len(CIRCUITS)
        assert after["coalesced_requests"] - \
            before["coalesced_requests"] == len(burst)
        assert after["requests"] - before["requests"] == len(burst)

    def test_sync_burst_unknown_circuit_fails_whole_burst(
            self, warm_service):
        rows = measured_rows(warm_service, "rc_lowpass", 1, seed=1)
        with pytest.raises(ServiceError, match="unknown"):
            warm_service.submit_many([("rc_lowpass", rows),
                                      ("ghost", rows)])

    def test_async_burst_bitwise_equals_sequential(self, warm_service):
        burst = self.burst(warm_service)
        expected = [warm_service.submit(circuit, rows)
                    for circuit, rows in burst]
        before = warm_service.stats.snapshot()

        async def run():
            front = AsyncDiagnosisService(warm_service, max_batch=64,
                                          window_seconds=0.005)
            results = await front.submit_many(burst)
            await front.aclose()
            return results

        assert asyncio.run(run()) == expected
        after = warm_service.stats.snapshot()
        # The whole burst lands in one loop pass, so the coalescer
        # serves it with exactly one classify call per circuit.
        assert after["coalesced_batches"] - \
            before["coalesced_batches"] == len(CIRCUITS)

    def test_async_burst_with_multiple_failures_settles_cleanly(
            self, warm_service):
        """Two bad entries in one burst: the first failure is raised
        only after every request settled (no unretrieved futures),
        and good peers were still classified."""
        good = measured_rows(warm_service, "rc_lowpass", 1, seed=8)
        bad = np.zeros((1, 7))             # wrong signature width

        async def run():
            front = AsyncDiagnosisService(warm_service, max_batch=16,
                                          window_seconds=0.005)
            with pytest.raises(DiagnosisError):
                await front.submit_many([("rc_lowpass", good),
                                         ("rc_lowpass", bad),
                                         ("voltage_divider", bad),
                                         ("rc_lowpass", good)])
            await front.aclose()

        asyncio.run(run())

    def test_http_diagnose_many_route(self, warm_service):
        burst = self.burst(warm_service)
        expected = [warm_service.submit(circuit, rows)
                    for circuit, rows in burst]

        async def run():
            server = await serve(
                AsyncDiagnosisService(warm_service,
                                      window_seconds=0.001),
                host="127.0.0.1", port=0)
            host, port = server.address
            try:
                status, payload = await _http(
                    host, port, "POST", "/v1/diagnose-many",
                    codec.encode_request_many(burst))
                assert status == 200
                assert codec.decode_response_many(payload) == expected

                status, _ = await _http(host, port, "GET",
                                        "/v1/diagnose-many")
                assert status == 405

                status, payload = await _http(host, port, "POST",
                                              "/v1/diagnose-many",
                                              b'{"requests": []}')
                assert status == 400 and b"CodecError" in payload
            finally:
                await server.aclose()

        asyncio.run(run())


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
class TestCodec:
    def test_request_round_trip(self):
        matrix = np.array([[1.5, -2.25], [0.125, 3.0]])
        request = codec.decode_request(
            codec.encode_request("dut", matrix))
        assert request.circuit == "dut"
        assert request.n_rows == 2
        assert np.array_equal(request.magnitudes_db, matrix)

    def test_infinite_margin_round_trips(self):
        diagnosis = Diagnosis(component="R1", estimated_deviation=0.1,
                              distance=0.5, perpendicular=True,
                              margin=math.inf, point=(1.0, 2.0),
                              ranking=(("R1", 0.5),))
        decoded = codec.decode_response(
            codec.encode_response([diagnosis]))
        assert decoded == [diagnosis]

    @settings(max_examples=60, deadline=None)
    @given(margin=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([math.inf, -math.inf])),
        runner_up=st.one_of(
            st.floats(min_value=0.0, allow_nan=False,
                      allow_infinity=False),
            st.just(math.inf)))
    def test_margin_and_ranking_round_trip_property(self, margin,
                                                    runner_up):
        """Every finite or infinite margin (and ranking distance)
        survives the wire bitwise -- inf is encoded distinguishably,
        never collapsed to null."""
        diagnosis = Diagnosis(component="R1", estimated_deviation=0.1,
                              distance=0.5, perpendicular=True,
                              margin=margin, point=(1.0, 2.0),
                              ranking=(("R1", 0.5),
                                       ("R2", runner_up)))
        payload = codec.encode_response([diagnosis])
        assert b"null" not in payload
        decoded = codec.decode_response(payload)
        assert decoded == [diagnosis]

    def test_nan_margin_rejected_at_encode(self):
        diagnosis = Diagnosis(component="R1", estimated_deviation=0.1,
                              distance=0.5, perpendicular=True,
                              margin=math.nan, point=(1.0, 2.0),
                              ranking=(("R1", 0.5),))
        with pytest.raises(CodecError, match="margin"):
            codec.encode_response([diagnosis])

    def test_nan_token_and_legacy_null_decode(self):
        """The decoder still understands an explicit "nan" token and
        the legacy null-means-infinity encoding of old peers."""
        template = {"component": "R1", "estimated_deviation": 0.1,
                    "distance": 0.5, "perpendicular": True,
                    "point": [1.0, 2.0], "ranking": [["R1", 0.5]]}
        nan_payload = json.dumps(
            {"diagnoses": [dict(template, margin="nan")]}).encode()
        decoded = codec.decode_response(nan_payload)
        assert math.isnan(decoded[0].margin)
        null_payload = json.dumps(
            {"diagnoses": [dict(template, margin=None)]}).encode()
        decoded = codec.decode_response(null_payload)
        assert decoded[0].margin == math.inf

    @pytest.mark.parametrize("payload", [
        b"not json",
        b"[]",
        b'{"circuit": "", "magnitudes_db": [[1.0]]}',
        b'{"circuit": "x"}',
        b'{"circuit": "x", "magnitudes_db": []}',
        b'{"circuit": "x", "magnitudes_db": [[1.0], [1.0, 2.0]]}',
        b'{"circuit": "x", "magnitudes_db": [["a"]]}',
        b'{"circuit": "x", "magnitudes_db": [[NaN]]}',
        b'{"circuit": "x", "magnitudes_db": [1.0, 2.0]}',
    ])
    def test_malformed_requests_rejected(self, payload):
        with pytest.raises(CodecError):
            codec.decode_request(payload)

    def test_malformed_responses_rejected(self):
        with pytest.raises(CodecError):
            codec.decode_response(b'{"diagnoses": [{"component": "R1"}]}')
        with pytest.raises(CodecError):
            codec.decode_response(b'{"nope": 1}')

    def test_burst_request_round_trip(self):
        burst = [("a", np.array([[1.5, -2.25]])),
                 ("b", np.array([[0.125, 3.0], [4.0, -1.0]]))]
        decoded = codec.decode_request_many(
            codec.encode_request_many(burst))
        assert [(r.circuit, r.n_rows) for r in decoded] == \
            [("a", 1), ("b", 2)]
        for request, (_, matrix) in zip(decoded, burst):
            assert np.array_equal(request.magnitudes_db, matrix)

    @pytest.mark.parametrize("payload", [
        b"not json",
        b"[]",
        b'{"requests": []}',
        b'{"requests": {"circuit": "x"}}',
        b'{"requests": [{"circuit": "x"}]}',
        b'{"requests": [{"circuit": "", "magnitudes_db": [[1.0]]}]}',
    ])
    def test_malformed_burst_requests_rejected(self, payload):
        with pytest.raises(CodecError):
            codec.decode_request_many(payload)

    def test_malformed_burst_responses_rejected(self):
        with pytest.raises(CodecError):
            codec.decode_response_many(b'{"nope": 1}')
        with pytest.raises(CodecError):
            codec.decode_response_many(b'{"batches": [1]}')

    def test_non_numeric_rows_raise_codec_error(self):
        """FrequencyResponse-shaped objects cannot ride the wire: the
        encoder must answer with CodecError, not a NumPy TypeError."""
        with pytest.raises(CodecError, match="numeric"):
            codec.encode_request("x", [object()])
        with pytest.raises(CodecError, match="numeric"):
            codec.encode_request_many([("x", [object()])])

    def test_error_payload_shape(self):
        import json
        payload = json.loads(codec.encode_error("boom", kind="TestKind"))
        assert payload == {"error": {"kind": "TestKind",
                                     "message": "boom"}}


# ----------------------------------------------------------------------
# HTTP front
# ----------------------------------------------------------------------
async def _http(host, port, method, path, body=b""):
    reader, writer = await asyncio.open_connection(host, port)
    head = (f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode("latin1")
    writer.write(head + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header_blob, _, payload = raw.partition(b"\r\n\r\n")
    status = int(header_blob.split(b" ", 2)[1])
    return status, payload


class TestHTTPServer:
    def test_diagnose_and_introspection_routes(self, warm_service):
        rows = measured_rows(warm_service, "rc_lowpass", 3, seed=11)
        expected = warm_service.submit("rc_lowpass", rows)

        async def run():
            server = await serve(
                AsyncDiagnosisService(warm_service,
                                      window_seconds=0.001),
                host="127.0.0.1", port=0)
            host, port = server.address
            try:
                status, payload = await _http(
                    host, port, "POST", "/v1/diagnose",
                    codec.encode_request("rc_lowpass", rows))
                assert status == 200
                assert codec.decode_response(payload) == expected

                status, payload = await _http(host, port, "GET",
                                              "/v1/healthz")
                assert status == 200
                assert b'"status":"ok"' in payload

                status, payload = await _http(host, port, "GET",
                                              "/v1/stats")
                assert status == 200
                assert b"batch_size_histogram" in payload
                assert json.loads(payload)["engine_kind"] == \
                    warm_service.config.engine.kind

                status, payload = await _http(host, port, "GET",
                                              "/v1/circuits")
                assert status == 200
                assert b"rc_lowpass" in payload

                status, payload = await _http(
                    host, port, "GET", "/v1/test-vector/rc_lowpass")
                assert status == 200
                assert b"test_vector_hz" in payload
            finally:
                await server.aclose()

        asyncio.run(run())

    def test_http_error_statuses(self, warm_service):
        async def run():
            server = await serve(
                AsyncDiagnosisService(warm_service,
                                      window_seconds=0.001),
                host="127.0.0.1", port=0)
            host, port = server.address
            try:
                status, payload = await _http(host, port, "POST",
                                              "/v1/diagnose",
                                              b"not json")
                assert status == 400 and b"CodecError" in payload

                status, payload = await _http(
                    host, port, "POST", "/v1/diagnose",
                    codec.encode_request("ghost", [[0.0, 0.0]]))
                assert status == 404 and b"unknown circuit" in payload

                status, _ = await _http(host, port, "GET",
                                        "/v1/diagnose")
                assert status == 405

                status, _ = await _http(host, port, "GET",
                                        "/v1/nowhere")
                assert status == 404

                # Oversized request line: a clean 400, not a dropped
                # connection (StreamReader's limit raises ValueError).
                status, _ = await _http(host, port, "GET",
                                        "/v1/" + "x" * 100_000)
                assert status == 400

                # Declared body beyond the cap is refused up front.
                reader, writer = await asyncio.open_connection(host,
                                                               port)
                writer.write(b"POST /v1/diagnose HTTP/1.1\r\n"
                             b"Content-Length: 999999999999\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
                assert int(raw.split(b" ", 2)[1]) == 413
            finally:
                await server.aclose()

        asyncio.run(run())

    #: The diagnosis routes' modes, and the (route, body) cells that
    #: answer 200; every other cell of the table answers 400.
    ROUTE_MODES = {"/v1/diagnose": "hard", "/v1/diagnose-many": "hard",
                   "/v1/diagnose-posterior": "posterior"}
    ANSWERED = {("/v1/diagnose", "single"),
                ("/v1/diagnose-many", "burst"),
                ("/v1/diagnose-posterior", "single"),
                ("/v1/diagnose-posterior", "burst")}

    @pytest.mark.parametrize("body", ["single", "burst", "empty_burst",
                                      "array"])
    @pytest.mark.parametrize("path", sorted(ROUTE_MODES))
    def test_diagnosis_route_body_table(self, warm_service, path, body):
        """Each diagnosis route x body shape keeps its status; a 200
        body is the codec encoding of the sync service's answers."""
        rows = measured_rows(warm_service, "rc_lowpass", 2, seed=5)
        burst = [("rc_lowpass", rows),
                 ("voltage_divider",
                  measured_rows(warm_service, "voltage_divider", 1, 6))]
        payloads = {
            "single": codec.encode_request("rc_lowpass", rows),
            "burst": codec.encode_request_many(burst),
            "empty_burst": b'{"requests": []}',
            "array": json.dumps([{"circuit": "rc_lowpass",
                                  "magnitudes_db": rows.tolist()}]
                                ).encode("utf-8"),
        }
        mode = self.ROUTE_MODES[path]

        async def run():
            server = await serve(
                AsyncDiagnosisService(warm_service,
                                      window_seconds=0.001),
                host="127.0.0.1", port=0)
            try:
                return await _http(*server.address, "POST", path,
                                   payloads[body])
            finally:
                await server.aclose()

        status, payload = asyncio.run(run())
        if (path, body) not in self.ANSWERED:
            assert status == 400 and b"CodecError" in payload
        elif body == "single":
            assert status == 200
            (expected,) = sequential_answers(warm_service, mode,
                                             [("rc_lowpass", rows)])
            assert payload == codec.encode_answers(expected, mode)
        else:
            assert status == 200
            assert payload == codec.encode_response_many(
                sequential_answers(warm_service, mode, burst), mode)


# ----------------------------------------------------------------------
# HTTP keep-alive / pipelining
# ----------------------------------------------------------------------
async def _read_one_response(reader):
    """Frame exactly one HTTP response off a persistent connection."""
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    payload = await reader.readexactly(length) if length else b""
    return status, headers, payload


class TestKeepAlive:
    def test_pipelined_requests_on_one_connection(self, warm_service):
        """Two diagnose requests written back-to-back before reading
        anything come back in order on the same connection; an
        explicit Connection: close then ends it."""
        rows = measured_rows(warm_service, "rc_lowpass", 1, seed=31)
        expected = warm_service.submit("rc_lowpass", rows)
        body = codec.encode_request("rc_lowpass", rows)

        async def run():
            server = await serve(
                AsyncDiagnosisService(warm_service,
                                      window_seconds=0.001),
                host="127.0.0.1", port=0)
            host, port = server.address
            try:
                reader, writer = await asyncio.open_connection(host,
                                                               port)
                request = (f"POST /v1/diagnose HTTP/1.1\r\n"
                           f"Host: {host}\r\n"
                           f"Content-Length: {len(body)}\r\n\r\n"
                           ).encode("latin1") + body
                writer.write(request + request)    # pipelined pair
                await writer.drain()
                for _ in range(2):
                    status, headers, payload = await \
                        _read_one_response(reader)
                    assert status == 200
                    assert headers["connection"] == "keep-alive"
                    assert codec.decode_response(payload) == expected
                writer.write((f"GET /v1/healthz HTTP/1.1\r\n"
                              f"Host: {host}\r\n"
                              f"Connection: close\r\n\r\n"
                              ).encode("latin1"))
                await writer.drain()
                status, headers, _ = await _read_one_response(reader)
                assert status == 200
                assert headers["connection"] == "close"
                assert await reader.read() == b""  # server hung up
                writer.close()
                await writer.wait_closed()
            finally:
                await server.aclose()

        asyncio.run(run())

    def test_http10_closes_unless_keep_alive_requested(self,
                                                       warm_service):
        async def exchange(host, port, version, extra=""):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write((f"GET /v1/healthz {version}\r\n"
                          f"Host: {host}\r\n{extra}\r\n"
                          ).encode("latin1"))
            await writer.drain()
            status, headers, _ = await _read_one_response(reader)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
            return status, headers

        async def run():
            server = await serve(
                AsyncDiagnosisService(warm_service,
                                      window_seconds=0.001),
                host="127.0.0.1", port=0)
            host, port = server.address
            try:
                status, headers = await exchange(host, port,
                                                 "HTTP/1.0")
                assert status == 200
                assert headers["connection"] == "close"
                status, headers = await exchange(
                    host, port, "HTTP/1.0",
                    extra="Connection: keep-alive\r\n")
                assert status == 200
                assert headers["connection"] == "keep-alive"
            finally:
                await server.aclose()

        asyncio.run(run())

    def test_aclose_returns_promptly_with_idle_keepalive_client(
            self, warm_service):
        """Shutdown must not wait on clients idling between requests
        (Python >= 3.12.1 Server.wait_closed() waits for connection
        handlers, so the parked tasks must be reaped first)."""
        rows = measured_rows(warm_service, "rc_lowpass", 1, seed=41)
        body = codec.encode_request("rc_lowpass", rows)

        async def run():
            server = await serve(
                AsyncDiagnosisService(warm_service,
                                      window_seconds=0.001),
                host="127.0.0.1", port=0)
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write((f"POST /v1/diagnose HTTP/1.1\r\n"
                          f"Host: {host}\r\n"
                          f"Content-Length: {len(body)}\r\n\r\n"
                          ).encode("latin1") + body)
            await writer.drain()
            status, headers, _ = await _read_one_response(reader)
            assert status == 200
            assert headers["connection"] == "keep-alive"
            # The connection now idles; aclose must not stall on it.
            await asyncio.wait_for(server.aclose(), timeout=5.0)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

        asyncio.run(run())

    def test_idle_connection_reclaimed_after_timeout(self,
                                                     warm_service):
        """A keep-alive connection that goes quiet is closed by the
        server's idle timeout instead of parking a handler forever."""

        async def run():
            front = AsyncDiagnosisService(warm_service,
                                          window_seconds=0.001)
            from repro import DiagnosisHTTPServer
            server = DiagnosisHTTPServer(front, host="127.0.0.1",
                                         port=0, idle_timeout=0.2)
            await server.start()
            host, port = server.address
            try:
                reader, writer = await asyncio.open_connection(host,
                                                               port)
                # Send nothing: the server must hang up on its own.
                data = await asyncio.wait_for(reader.read(),
                                              timeout=5.0)
                assert data == b""
                writer.close()
                await writer.wait_closed()
                # A half-sent request (line, then stall mid-headers)
                # is reclaimed too: the timeout covers the whole read
                # phase, not just the first line.
                reader, writer = await asyncio.open_connection(host,
                                                               port)
                writer.write(b"POST /v1/diagnose HTTP/1.1\r\n"
                             b"Content-Length: 100\r\n")
                await writer.drain()
                data = await asyncio.wait_for(reader.read(),
                                              timeout=5.0)
                assert data == b""
                writer.close()
                await writer.wait_closed()
            finally:
                await server.aclose()

        asyncio.run(run())

    def test_chunked_transfer_encoding_rejected_and_closed(
            self, warm_service):
        """Chunked bodies are unsupported; answering keep-alive with
        the chunk framing unread would desynchronise the stream, so
        the server must refuse and close."""

        async def run():
            server = await serve(
                AsyncDiagnosisService(warm_service,
                                      window_seconds=0.001),
                host="127.0.0.1", port=0)
            host, port = server.address
            try:
                reader, writer = await asyncio.open_connection(host,
                                                               port)
                writer.write((f"POST /v1/diagnose HTTP/1.1\r\n"
                              f"Host: {host}\r\n"
                              f"Transfer-Encoding: chunked\r\n\r\n"
                              f"5\r\nhello\r\n0\r\n\r\n"
                              ).encode("latin1"))
                await writer.drain()
                status, headers, payload = await \
                    _read_one_response(reader)
                assert status == 400
                assert b"Transfer-Encoding" in payload
                assert headers["connection"] == "close"
                assert await reader.read() == b""
                writer.close()
                await writer.wait_closed()
                # Conflicting Content-Length copies: same refusal.
                reader, writer = await asyncio.open_connection(host,
                                                               port)
                writer.write((f"POST /v1/diagnose HTTP/1.1\r\n"
                              f"Host: {host}\r\n"
                              f"Content-Length: 10\r\n"
                              f"Content-Length: 0\r\n\r\n"
                              f"0123456789").encode("latin1"))
                await writer.drain()
                status, headers, payload = await \
                    _read_one_response(reader)
                assert status == 400
                assert b"conflicting Content-Length" in payload
                assert headers["connection"] == "close"
                assert await reader.read() == b""
                writer.close()
                await writer.wait_closed()
            finally:
                await server.aclose()

        asyncio.run(run())

    def test_oversized_header_block_rejected(self, warm_service):
        """Streaming endless header lines must hit the head-bytes cap
        (431 + close), not grow server memory for the idle window."""

        async def run():
            server = await serve(
                AsyncDiagnosisService(warm_service,
                                      window_seconds=0.001),
                host="127.0.0.1", port=0)
            host, port = server.address
            try:
                reader, writer = await asyncio.open_connection(host,
                                                               port)
                writer.write(b"GET /v1/healthz HTTP/1.1\r\n")
                filler = b"x" * 1000
                for index in range(100):       # ~100 KB of headers
                    writer.write(b"h%d: %s\r\n" % (index, filler))
                await writer.drain()
                status, headers, _ = await _read_one_response(reader)
                assert status == 431
                assert headers["connection"] == "close"
                assert await reader.read() == b""
                writer.close()
                await writer.wait_closed()
            finally:
                await server.aclose()

        asyncio.run(run())

    def test_parse_error_closes_the_connection(self, warm_service):
        """A framing error leaves the stream unsynchronised: answer
        400 and close, never try to read a next request."""

        async def run():
            server = await serve(
                AsyncDiagnosisService(warm_service,
                                      window_seconds=0.001),
                host="127.0.0.1", port=0)
            host, port = server.address
            try:
                reader, writer = await asyncio.open_connection(host,
                                                               port)
                writer.write(b"BOGUS\r\n\r\n")
                await writer.drain()
                status, headers, _ = await _read_one_response(reader)
                assert status == 400
                assert headers["connection"] == "close"
                assert await reader.read() == b""
                writer.close()
                await writer.wait_closed()
            finally:
                await server.aclose()

        asyncio.run(run())


# ----------------------------------------------------------------------
# Telemetry over HTTP: /v1/metrics, request ids, trace embed, access log
# ----------------------------------------------------------------------
async def _http_full(host, port, method, path, body=b"",
                     extra_headers=()):
    """One request with custom headers; returns (status, headers,
    payload)."""
    reader, writer = await asyncio.open_connection(host, port)
    extra = "".join(f"{name}: {value}\r\n"
                    for name, value in extra_headers)
    head = (f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n{extra}"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode("latin1")
    writer.write(head + body)
    await writer.drain()
    status, headers, payload = await _read_one_response(reader)
    writer.close()
    await writer.wait_closed()
    return status, headers, payload


class TestTelemetryHTTP:
    def test_metrics_route_serves_valid_exposition(self, warm_service,
                                                   tmp_path):
        rows = measured_rows(warm_service, "rc_lowpass", 2, seed=5)
        # Store families register on the process registry when a store
        # exists; give the scrape one to cover.
        from repro.runtime import ArtifactStore
        ArtifactStore(tmp_path)

        async def run():
            server = await serve(
                AsyncDiagnosisService(warm_service,
                                      window_seconds=0.001),
                host="127.0.0.1", port=0)
            host, port = server.address
            try:
                status, _, _ = await _http_full(
                    host, port, "POST", "/v1/diagnose",
                    codec.encode_request("rc_lowpass", rows))
                assert status == 200
                status, headers, payload = await _http_full(
                    host, port, "GET", "/v1/metrics")
                assert status == 200
                assert headers["content-type"] == telemetry.CONTENT_TYPE
                return payload.decode("utf-8")
            finally:
                await server.aclose()

        text = asyncio.run(run())
        families = telemetry.parse_exposition(text)
        # Service-level counters moved onto the registry.
        requests = families["repro_service_requests_total"]
        assert requests["type"] == "counter"
        assert sum(value for _, _, value in requests["samples"]) >= 1
        assert "repro_service_request_latency_seconds" in families
        assert "repro_service_queue_depth" in families
        assert "repro_service_coalesce_batch_rows" in families
        # Process-wide engine/pipeline/store families ride along.
        assert "repro_engine_solve_seconds" in families
        assert "repro_pipeline_stage_seconds" in families
        # One store layout, so the store families carry no labels.
        store_hits = families["repro_store_hits_total"]["samples"]
        assert store_hits
        assert all("backend" not in labels
                   for _, labels, _ in store_hits)

    def test_request_id_echo_and_generation(self, warm_service):
        async def run():
            server = await serve(
                AsyncDiagnosisService(warm_service,
                                      window_seconds=0.001),
                host="127.0.0.1", port=0)
            host, port = server.address
            try:
                _, headers, _ = await _http_full(
                    host, port, "GET", "/v1/healthz",
                    extra_headers=[("X-Request-Id", "req-42.alpha")])
                assert headers["x-request-id"] == "req-42.alpha"

                _, headers, _ = await _http_full(
                    host, port, "GET", "/v1/healthz")
                generated = headers["x-request-id"]
                assert re.fullmatch(r"[A-Za-z0-9._-]{1,128}", generated)

                # Header-injection attempts are replaced, not echoed.
                _, headers, _ = await _http_full(
                    host, port, "GET", "/v1/healthz",
                    extra_headers=[("X-Request-Id", "a b\tc")])
                assert headers["x-request-id"] != "a b\tc"
            finally:
                await server.aclose()

        asyncio.run(run())

    def test_debug_header_embeds_span_tree(self, warm_service):
        rows = measured_rows(warm_service, "rc_lowpass", 2, seed=7)

        async def run():
            server = await serve(
                AsyncDiagnosisService(warm_service,
                                      window_seconds=0.001),
                host="127.0.0.1", port=0)
            host, port = server.address
            try:
                status, _, payload = await _http_full(
                    host, port, "POST", "/v1/diagnose",
                    codec.encode_request("rc_lowpass", rows),
                    extra_headers=[("X-Repro-Debug", "trace")])
                assert status == 200
                data = json.loads(payload)
                trace = data["trace"]
                assert trace["name"] == "http.request"
                assert trace["attrs"]["path"] == "/v1/diagnose"
                assert trace["attrs"]["status"] == 200
                child_names = {child["name"] for child
                               in trace.get("children", ())}
                assert "service.submit" in child_names
                # The decorated payload still decodes as a response.
                assert codec.decode_response(payload) == \
                    warm_service.submit("rc_lowpass", rows)

                # Without the header there is no trace key.
                _, _, payload = await _http_full(
                    host, port, "POST", "/v1/diagnose",
                    codec.encode_request("rc_lowpass", rows))
                assert "trace" not in json.loads(payload)
            finally:
                await server.aclose()

        asyncio.run(run())

    def test_cold_build_nests_under_the_request_span(self):
        """A cold ``GET /v1/test-vector`` builds inside its request's
        context: the pipeline and engine spans hang under
        ``http.request`` and carry the request id."""
        from repro import DiagnosisService
        cold = DiagnosisService(config=QUICK, seed=3)

        async def run():
            server = await serve(AsyncDiagnosisService(cold),
                                 host="127.0.0.1", port=0)
            host, port = server.address
            try:
                return await _http_full(
                    host, port, "GET", "/v1/test-vector/rc_lowpass",
                    extra_headers=[("X-Repro-Debug", "trace"),
                                   ("X-Request-Id", "cold-1")])
            finally:
                await server.aclose()

        status, _, payload = asyncio.run(run())
        assert status == 200
        trace = json.loads(payload)["trace"]
        assert trace["name"] == "http.request"

        def child(span, name):
            (found,) = [c for c in span.get("children", ())
                        if c["name"] == name]
            return found

        build = child(trace, "service.warm_build")
        dictionary = child(build, "pipeline.dictionary")
        solve = child(dictionary, "engine.solve")
        assert solve["attrs"]["engine"] == "batched"
        assert {build["request_id"], solve["request_id"]} == {"cold-1"}

    def test_json_access_log_lines(self, warm_service, caplog):
        async def run():
            front = AsyncDiagnosisService(warm_service,
                                          window_seconds=0.001)
            server = DiagnosisHTTPServer(front, host="127.0.0.1",
                                         port=0, log_json=True)
            await server.start()
            host, port = server.address
            try:
                await _http_full(
                    host, port, "GET", "/v1/healthz",
                    extra_headers=[("X-Request-Id", "log-probe")])
            finally:
                await server.aclose()

        with caplog.at_level(logging.INFO, logger="repro.access"):
            asyncio.run(run())
        lines = [json.loads(record.getMessage())
                 for record in caplog.records
                 if record.name == "repro.access"]
        probe = [line for line in lines
                 if line["request_id"] == "log-probe"]
        assert probe, f"no access line for the probe in {lines}"
        assert probe[0]["method"] == "GET"
        assert probe[0]["path"] == "/v1/healthz"
        assert probe[0]["status"] == 200
        assert probe[0]["duration_ms"] >= 0.0

    def test_access_log_can_be_disabled(self, warm_service, caplog):
        async def run():
            front = AsyncDiagnosisService(warm_service,
                                          window_seconds=0.001)
            server = DiagnosisHTTPServer(front, host="127.0.0.1",
                                         port=0, access_log=False)
            await server.start()
            host, port = server.address
            try:
                await _http_full(host, port, "GET", "/v1/healthz")
            finally:
                await server.aclose()

        with caplog.at_level(logging.INFO, logger="repro.access"):
            asyncio.run(run())
        assert not [record for record in caplog.records
                    if record.name == "repro.access"]
