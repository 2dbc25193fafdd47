"""Posterior smoke: boot ``repro-serve``, drive the probabilistic tier.

The CI job for ``POST /v1/diagnose-posterior``:

1. boots a 2-replica ``repro-serve`` cluster on an ephemeral port
   (quick pipeline config, a throwaway on-disk artifact store, 16
   Monte-Carlo worlds so the cold posterior build stays cheap);
2. warms a circuit through ``GET /v1/test-vector/<circuit>``;
3. fires a single posterior request and a burst, validating every
   returned posterior: probabilities normalised and descending, the
   fault-free hypothesis present, a non-empty information-gain test
   ranking, and burst rows bitwise-identical to the single-request
   rows (the coalescing path must not change results);
4. scrapes ``GET /v1/metrics`` and asserts the ``mode="posterior"``
   children of the service request families and the
   ``repro_posterior_*`` build/entropy families report the traffic.

Run standalone::

    python benchmarks/smoke_posterior.py
"""

from __future__ import annotations

import json
import math
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

from repro.diagnosis import FAULT_FREE_LABEL           # noqa: E402
from repro.runtime import codec, telemetry             # noqa: E402
from repro.runtime.cluster import LISTENING_PREFIX     # noqa: E402

CIRCUIT = "rc_lowpass"
ROWS = 3
BURST = 4

REQUIRED_FAMILIES = (
    "repro_service_requests_total",
    "repro_service_responses_total",
    "repro_service_request_latency_seconds",
    "repro_posterior_samples_total",
    "repro_posterior_build_seconds",
    "repro_posterior_entropy_bits",
)


def _get(url: str, timeout: float = 600.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read()


def _post(url: str, body: bytes, timeout: float = 600.0):
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"},
        method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, response.read()


def _spawn_server(store_root: str) -> tuple:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.runtime.cli",
         "--host", "127.0.0.1", "--port", "0",
         "--replicas", "2", "--config", "quick",
         "--store-root", store_root, "--window-ms", "1",
         "--posterior-samples", "16", "--log-json"],
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


def _validate(diagnosis) -> None:
    probabilities = [p for _, p in diagnosis.probabilities]
    if not math.isclose(sum(probabilities), 1.0, abs_tol=1e-9):
        raise SystemExit(
            f"posterior does not normalise: sum={sum(probabilities)}")
    if any(p < 0.0 for p in probabilities):
        raise SystemExit(f"negative probability: {probabilities}")
    if sorted(probabilities, reverse=True) != probabilities:
        raise SystemExit("probabilities not descending")
    labels = {name for name, _ in diagnosis.probabilities}
    if FAULT_FREE_LABEL not in labels:
        raise SystemExit(f"no {FAULT_FREE_LABEL!r} hypothesis: {labels}")
    if not diagnosis.test_ranking:
        raise SystemExit("empty test ranking")
    if any(not math.isfinite(gain) or gain < 0.0
           for _, gain in diagnosis.test_ranking):
        raise SystemExit(f"bad info gains: {diagnosis.test_ranking}")


def main() -> int:
    store_root = tempfile.mkdtemp(prefix="repro-smoke-")
    process, host, port = _spawn_server(store_root)
    base = f"http://{host}:{port}"
    try:
        status, _, payload = _get(f"{base}/v1/test-vector/{CIRCUIT}")
        assert status == 200, status
        width = len(json.loads(payload)["test_vector_hz"])
        print(f"warmed {CIRCUIT} ({width}-frequency test vector)")

        rng = np.random.default_rng(2005)
        rows = rng.normal(0.0, 1.0, size=(ROWS, width))

        # Single posterior request (cold build happens here).
        body = codec.encode_request(CIRCUIT, rows)
        status, payload = _post(f"{base}/v1/diagnose-posterior", body)
        assert status == 200, status
        single = codec.decode_posterior_response(payload)
        assert len(single) == ROWS, len(single)
        for diagnosis in single:
            _validate(diagnosis)
        print(f"single request: {ROWS} posteriors validated "
              f"({single[0].n_samples} MC worlds, top "
              f"{single[0].component!r} at {single[0].probability:.1%})")

        # Burst: coalesced rows must be bitwise-identical to the
        # single-request results.
        burst_body = codec.encode_request_many(
            [(CIRCUIT, rows)] * BURST)
        status, payload = _post(f"{base}/v1/diagnose-posterior",
                                burst_body)
        assert status == 200, status
        batches = codec.decode_response_many(payload, "posterior")
        assert len(batches) == BURST, len(batches)
        for batch in batches:
            if batch != single:
                raise SystemExit(
                    "burst posteriors differ from the single request")
        print(f"burst: {BURST} requests x {ROWS} rows, "
              f"bitwise-identical to the single request")

        status, _, payload = _get(f"{base}/v1/metrics", timeout=60.0)
        assert status == 200, status
        families = telemetry.parse_exposition(payload.decode("utf-8"))
        missing = [name for name in REQUIRED_FAMILIES
                   if name not in families]
        if missing:
            raise SystemExit(f"/v1/metrics missing families: {missing}")
        def posterior_total(family: str) -> float:
            return sum(value for _, labels, value
                       in families[family]["samples"]
                       if labels.get("mode") == "posterior")

        requests_total = posterior_total("repro_service_requests_total")
        rows_total = posterior_total("repro_service_responses_total")
        if requests_total < 1 + BURST:
            raise SystemExit(
                f'repro_service_requests_total{{mode="posterior"}} '
                f"{requests_total} < {1 + BURST}")
        if rows_total < (1 + BURST) * ROWS:
            raise SystemExit(
                f'repro_service_responses_total{{mode="posterior"}} '
                f"{rows_total} < {(1 + BURST) * ROWS}")
        print(f"/v1/metrics: {len(REQUIRED_FAMILIES)} families, "
              f"{requests_total:.0f} posterior requests, "
              f"{rows_total:.0f} rows -- ok")
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
