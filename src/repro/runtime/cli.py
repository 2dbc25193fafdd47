"""``repro-serve``: command-line launcher for the diagnosis server.

Single process::

    repro-serve --port 8080 --store-root /var/cache/repro \
                --warm rc_lowpass --warm sallen_key_lowpass

Consistent-hash cluster (spawns N worker processes, fronts them with a
:class:`~repro.runtime.cluster.ClusterService` router on the public
port)::

    repro-serve --port 8080 --replicas 3 --store-root /var/cache/repro

With ``--store-root`` every process caches its artifacts in that
directory (cluster workers share it); without it nothing is cached.
Workers announce their bound address on stdout as
``REPRO-SERVE LISTENING <host> <port>`` -- with ``--port 0`` that is
how a parent (or a script) discovers the ephemeral port.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import logging
import sys
from pathlib import Path
from typing import Optional

from ..core.config import PipelineConfig
from ..diagnosis.posterior import PosteriorConfig
from ..errors import ReproError
from ..sim.engine import EngineSpec
from .cluster import LISTENING_PREFIX, WORKER_DEFAULTS, ClusterService
from .server import AsyncDiagnosisService, DiagnosisHTTPServer
from .service import DiagnosisService
from .store import ArtifactStore

__all__ = ["main", "build_parser"]


def _engine_arg(text: str) -> EngineSpec:
    try:
        return EngineSpec.parse(text)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve fault-trajectory diagnosis over HTTP.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=8080,
                        help="bind port; 0 picks an ephemeral port "
                             "(default: %(default)s)")
    parser.add_argument("--replicas", type=int, default=1,
                        help="1 serves in-process; N>1 spawns N worker "
                             "processes behind a consistent-hash "
                             "router (default: %(default)s)")
    parser.add_argument("--store-root", type=Path, default=None,
                        help="artifact-store root directory (omit to "
                             "serve without a store)")
    parser.add_argument("--max-engines", type=int,
                        default=WORKER_DEFAULTS["max_engines"],
                        help="per-process warmed-engine LRU capacity "
                             "(default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="GA seed for engine warm-ups; every "
                             "replica must share it (default: "
                             "%(default)s)")
    parser.add_argument("--config", choices=("paper", "quick"),
                        default="paper",
                        help="pipeline configuration preset "
                             "(default: %(default)s)")
    parser.add_argument("--config-json", default=None, metavar="JSON",
                        help="PipelineConfig as inline JSON or "
                             "@path/to/file.json (overrides --config)")
    parser.add_argument("--engine", type=_engine_arg,
                        default=None, metavar="SPEC",
                        help="simulation engine for circuit warm-ups: "
                             "'batched' (stamp-once dense solves), "
                             "'scalar' (reference path) or 'factored' "
                             "(factor-once Sherman-Morrison-Woodbury "
                             "low-rank updates, dense fallback on "
                             "ill-conditioned faults), with optional "
                             "knobs as 'factored:cond_limit=1e6,"
                             "sparse=true'; overrides the "
                             "--config/--config-json engine field "
                             "(default: use the config's engine)")
    parser.add_argument("--window-ms", type=float,
                        default=WORKER_DEFAULTS["window_ms"],
                        help="coalescing window in milliseconds "
                             "(default: %(default)s)")
    parser.add_argument("--max-batch", type=int,
                        default=WORKER_DEFAULTS["max_batch"],
                        help="row budget per coalesced batch "
                             "(default: %(default)s)")
    parser.add_argument("--max-pending", type=int,
                        default=WORKER_DEFAULTS["max_pending"],
                        help="backpressure bound on queued requests "
                             "(default: %(default)s)")
    parser.add_argument("--overflow", choices=("wait", "reject"),
                        default=WORKER_DEFAULTS["overflow"],
                        help="behaviour past --max-pending "
                             "(default: %(default)s)")
    parser.add_argument("--posterior-samples", type=int,
                        default=WORKER_DEFAULTS["posterior_samples"],
                        help="Monte-Carlo worlds per posterior build "
                             "(POST /v1/diagnose-posterior; default: "
                             "%(default)s)")
    parser.add_argument("--posterior-tolerance", type=float,
                        default=WORKER_DEFAULTS["posterior_tolerance"],
                        help="relative component tolerance for the "
                             "posterior sampling (0.05 = 5%%; "
                             "default: %(default)s)")
    parser.add_argument("--warm", action="append", default=[],
                        metavar="CIRCUIT",
                        help="circuit to warm at startup (repeatable)")
    parser.add_argument("--health-interval", type=float, default=5.0,
                        help="cluster replica health-probe period in "
                             "seconds (default: %(default)s)")
    parser.add_argument("--log-level",
                        choices=("debug", "info", "warning", "error"),
                        default="info",
                        help="logging threshold on stderr "
                             "(default: %(default)s)")
    parser.add_argument("--access-log", default=True,
                        action=argparse.BooleanOptionalAction,
                        help="log one line per served request "
                             "(default: on)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit access-log lines as structured "
                             "JSON instead of plain text")
    return parser


def configure_logging(args: argparse.Namespace) -> None:
    """Wire stderr logging for the server process.

    The ``repro.access`` logger gets its own bare-message handler (an
    access line -- plain or JSON -- is already fully formatted), while
    everything else goes through the root logger's standard format.
    """
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(levelname)s %(name)s %(message)s")
    access = logging.getLogger("repro.access")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    access.addHandler(handler)
    access.propagate = False


def load_config(args: argparse.Namespace) -> PipelineConfig:
    if args.config_json:
        text = args.config_json
        if text.startswith("@"):
            text = Path(text[1:]).read_text()
        config = PipelineConfig.from_json_dict(json.loads(text))
    else:
        config = PipelineConfig.paper() if args.config == "paper" \
            else PipelineConfig.quick()
    if getattr(args, "engine", None):
        config = dataclasses.replace(config, engine=args.engine)
    return config


def make_store(args: argparse.Namespace) -> Optional[ArtifactStore]:
    return ArtifactStore(args.store_root) if args.store_root else None


async def _amain(args: argparse.Namespace) -> None:
    if args.replicas < 1:
        raise SystemExit("--replicas must be >= 1")
    health_task: Optional[asyncio.Task] = None
    if args.replicas == 1:
        service = DiagnosisService(config=load_config(args),
                                   store=make_store(args),
                                   max_engines=args.max_engines,
                                   seed=args.seed,
                                   posterior=PosteriorConfig(
                                       n_samples=args.posterior_samples,
                                       tolerance=args.posterior_tolerance,
                                       seed=args.seed))
        front = AsyncDiagnosisService(
            service, window_seconds=args.window_ms / 1e3,
            max_batch=args.max_batch, max_pending=args.max_pending,
            overflow=args.overflow)
    else:
        front = await ClusterService.spawn(
            args.replicas,
            store_root=args.store_root, config=load_config(args),
            seed=args.seed, max_engines=args.max_engines,
            window_ms=args.window_ms, max_batch=args.max_batch,
            max_pending=args.max_pending, overflow=args.overflow,
            posterior_samples=args.posterior_samples,
            posterior_tolerance=args.posterior_tolerance)
        if args.health_interval > 0:
            health_task = asyncio.ensure_future(
                front.run_health_loop(args.health_interval))
    server = DiagnosisHTTPServer(front, host=args.host, port=args.port,
                                 access_log=args.access_log,
                                 log_json=args.log_json)
    # Everything after the spawn runs under the finally: a startup
    # failure (port already bound, bad --warm name) must tear the
    # worker processes down with it, not orphan them.
    try:
        await server.start()
        host, port = server.address
        # The machine-readable announcement parents parse (see
        # SpawnedReplica.spawn); humans get the mode detail after it.
        print(f"{LISTENING_PREFIX} {host} {port}", flush=True)
        mode = "single process" if args.replicas == 1 else \
            f"{args.replicas}-replica cluster"
        print(f"repro-serve: {mode} on http://{host}:{port}",
              flush=True)
        for circuit_name in args.warm:
            await front.warm(circuit_name)
        await server.serve_forever()
    finally:
        if health_task is not None:
            health_task.cancel()
        await server.aclose()


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args)
    try:
        asyncio.run(_amain(args))
    except KeyboardInterrupt:
        pass
    except (ReproError, OSError, ValueError) as exc:
        # Startup failures (port in use, bad --warm name, malformed
        # --config-json) exit non-zero with one line, not a traceback.
        print(f"repro-serve: error: {exc}", file=sys.stderr,
              flush=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
