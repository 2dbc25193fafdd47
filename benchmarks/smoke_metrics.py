"""Metrics smoke: boot ``repro-serve``, drive traffic, validate the scrape.

The CI job for the observability surface:

1. boots a 2-replica ``repro-serve`` cluster on an ephemeral port
   (quick pipeline config, a throwaway on-disk artifact store, JSON
   access logs);
2. warms a circuit through ``GET /v1/test-vector/<circuit>``;
3. fires a small diagnose burst with an explicit ``X-Request-Id`` and
   checks the id is echoed back;
4. reads ``GET /v1/stats``, then scrapes ``GET /v1/metrics`` and
   validates the payload with the same exposition parser the test
   suite uses (:func:`repro.runtime.telemetry.parse_exposition`),
   asserting that engine, store, service and cluster metric families
   are all present with sane values;
5. cross-checks the two surfaces: ``/v1/stats`` is a JSON view of the
   registry, so its merged and cluster request counts must equal the
   scrape's ``repro_service_requests_total`` and
   ``repro_cluster_requests_total``.

Run standalone::

    python benchmarks/smoke_metrics.py
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np                                     # noqa: E402

from repro.runtime import codec, telemetry             # noqa: E402
from repro.runtime.cluster import LISTENING_PREFIX     # noqa: E402

CIRCUIT = "rc_lowpass"
BURST = 6

#: Families the scrape must cover: engine, store, service and cluster.
REQUIRED_FAMILIES = (
    "repro_engine_stamp_seconds",
    "repro_engine_solve_seconds",
    "repro_engine_variants_solved_total",
    "repro_pipeline_stage_seconds",
    "repro_store_hits_total",
    "repro_store_misses_total",
    "repro_service_requests_total",
    "repro_service_request_latency_seconds",
    "repro_service_coalesce_batch_rows",
    "repro_service_queue_depth",
    "repro_cluster_requests_total",
    "repro_cluster_replica_up",
    "repro_cluster_replica_call_seconds",
)


def _get(url: str, timeout: float = 600.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read()


def _post(url: str, body: bytes, headers: dict, timeout: float = 600.0):
    request = urllib.request.Request(url, data=body, headers=headers,
                                     method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read()


def _spawn_server(store_root: str) -> tuple:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.runtime.cli",
         "--host", "127.0.0.1", "--port", "0",
         "--replicas", "2", "--config", "quick",
         "--store-root", store_root, "--window-ms", "1",
         "--log-json"],
        stdout=subprocess.PIPE, env=env)
    deadline = time.monotonic() + 600.0
    assert process.stdout is not None
    while True:
        if time.monotonic() > deadline:
            raise SystemExit("server never announced its address")
        line = process.stdout.readline()
        if not line:
            raise SystemExit(
                f"server exited before announcing its address "
                f"(rc={process.poll()})")
        text = line.decode("utf-8", "replace").strip()
        if text.startswith(LISTENING_PREFIX):
            _, _, address = text.partition(LISTENING_PREFIX)
            host, port = address.split()
            return process, host, int(port)


def main() -> int:
    store_root = tempfile.mkdtemp(prefix="repro-smoke-")
    process, host, port = _spawn_server(store_root)
    base = f"http://{host}:{port}"
    try:
        # Warm the circuit and learn its test-vector width.
        status, _, payload = _get(f"{base}/v1/test-vector/{CIRCUIT}")
        assert status == 200, status
        width = len(json.loads(payload)["test_vector_hz"])
        print(f"warmed {CIRCUIT} ({width}-frequency test vector)")

        # Diagnose burst with request-id propagation.
        body = codec.encode_request(CIRCUIT, np.zeros((3, width)))
        for index in range(BURST):
            request_id = f"smoke-{index}"
            status, headers, _ = _post(
                f"{base}/v1/diagnose", body,
                {"X-Request-Id": request_id})
            assert status == 200, status
            assert headers.get("X-Request-Id") == request_id, headers
        print(f"diagnose burst: {BURST} requests, ids echoed")

        # Read the JSON view, then scrape and validate.
        status, _, payload = _get(f"{base}/v1/stats", timeout=60.0)
        assert status == 200, status
        stats = json.loads(payload)
        status, headers, payload = _get(f"{base}/v1/metrics",
                                        timeout=60.0)
        assert status == 200, status
        assert headers.get("Content-Type") == telemetry.CONTENT_TYPE, \
            headers.get("Content-Type")
        families = telemetry.parse_exposition(
            payload.decode("utf-8"))
        missing = [name for name in REQUIRED_FAMILIES
                   if name not in families]
        if missing:
            raise SystemExit(f"/v1/metrics missing families: {missing}")

        requests_total = sum(
            value for _, _, value
            in families["repro_cluster_requests_total"]["samples"])
        if requests_total < BURST:
            raise SystemExit(
                f"repro_cluster_requests_total {requests_total} < "
                f"burst size {BURST}")
        service_requests = sum(
            value for _, _, value
            in families["repro_service_requests_total"]["samples"])
        if stats["merged"]["requests"] != service_requests:
            raise SystemExit(
                f"/v1/stats merged requests {stats['merged']['requests']}"
                f" != Σ repro_service_requests_total {service_requests}")
        if stats["cluster"]["requests"] != requests_total:
            raise SystemExit(
                f"/v1/stats cluster requests "
                f"{stats['cluster']['requests']} != "
                f"repro_cluster_requests_total {requests_total}")
        up = {labels.get("replica"): value for _, labels, value
              in families["repro_cluster_replica_up"]["samples"]}
        if sorted(up) != ["replica-0", "replica-1"] or \
                set(up.values()) != {1.0}:
            raise SystemExit(f"bad replica-up gauges: {up}")
        print(f"/v1/metrics: {len(families)} families, "
              f"{requests_total:.0f} cluster requests, "
              f"{len(up)} replicas up -- ok")
        print(f"/v1/stats: {stats['merged']['requests']} merged and "
              f"{stats['cluster']['requests']} cluster requests, equal "
              f"to the scrape -- ok")
        return 0
    finally:
        # SIGINT, not SIGTERM: the CLI's KeyboardInterrupt path tears
        # the spawned worker processes down with it.
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        shutil.rmtree(store_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
