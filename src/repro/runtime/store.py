"""Content-addressed artifact store for pipeline products.

Every expensive artifact of the ATPG flow -- the dense fault
dictionary, the GA search result, the exact test-vector dictionary and
the trajectory set -- is a deterministic function of (netlist canonical
form, fault universe spec, frequency grid, pipeline config [, seed]).
This module hashes that tuple into a stable SHA-256 key and persists
the artifacts under it, so a repeat ``FaultTrajectoryATPG.run()`` with
``store=`` loads everything back instead of re-simulating.

*Where* the artifacts live is pluggable (see
:mod:`repro.runtime.backends`): the default
:class:`~repro.runtime.backends.LocalDirBackend` keeps the original
``<root>/<kind>/<key[:2]>/<key>/`` on-disk layout (byte-compatible with
pre-refactor store roots), :class:`~repro.runtime.backends.InMemoryBackend`
holds them in process memory, and
:class:`~repro.runtime.backends.ShardedBackend` consistent-hashes keys
across several child backends. The store itself owns key construction,
artifact (de)serialisation and hit/miss/put accounting.

Each artifact is keyed on *only* the inputs it depends on, so sweeping
a GA knob reuses the cached dictionary and two configs landing on the
same test vector share the exact dictionary:

* dictionary      <- problem (netlist, ports, universe) + dense grid
* ga              <- dictionary key + search config + seed
* exact           <- problem + test vector
* trajectories    <- exact key + mapper options

The simulation engine enters the problem key only when it is
``factored``: ``batched`` and ``scalar`` produce bitwise-identical
responses and share their slots, while the factored engine's low-rank
solves differ in the last bits (see ``FaultTrajectoryATPG.run``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from ..circuits.library import CircuitInfo
from ..errors import DictionaryError, StoreError
from ..faults.dictionary import FaultDictionary, fault_to_json
from ..faults.universe import FaultUniverse
from ..ga.engine import GAResult, GenerationStats
from ..trajectory.mapping import SignatureMapper
from ..trajectory.trajectory import FaultTrajectory, TrajectorySet
from . import telemetry
from .backends import (ArtifactRecord, LocalDirBackend, StorageBackend,
                       coerce_backend)

__all__ = ["ArtifactStore", "StoreStats", "as_store", "problem_key",
           "derive_key", "ga_search_key", "trajectory_key"]


@dataclass
class StoreStats:
    """Hit/miss/put counters for one store instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0

    def snapshot(self) -> dict:
        return dataclasses.asdict(self)


def as_store(source: Union["ArtifactStore", StorageBackend, str, Path,
                           None]) -> Optional["ArtifactStore"]:
    """Coerce anything store-shaped into an :class:`ArtifactStore`.

    Accepts an existing store (returned as-is), a bare
    :class:`~repro.runtime.backends.StorageBackend`, a local root path,
    or ``None`` (no caching). The seam every ``store=`` parameter in
    the pipeline and serving layers runs through.
    """
    if source is None or isinstance(source, ArtifactStore):
        return source
    return ArtifactStore(backend=coerce_backend(source))


# ----------------------------------------------------------------------
# Key construction
# ----------------------------------------------------------------------
def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def problem_key(info: CircuitInfo, universe: FaultUniverse) -> str:
    """Stable content key of one diagnosis problem statement.

    Hashes the netlist canonical form, the measurement ports and the
    fault universe spec -- the inputs every simulation artifact depends
    on. Identical inputs produce the identical key in any process on
    any machine (floats are rendered in shortest round-trip form).
    Artifact-specific inputs (grid, search config, seed, test vector)
    are layered on with :func:`derive_key`.
    """
    payload = {
        "netlist": universe.circuit.canonical_form(),
        "output_node": info.output_node,
        "input_source": info.input_source,
        "universe": [fault_to_json(fault) for fault in universe.faults],
    }
    return _digest(payload)


def derive_key(base_key: str, *parts) -> str:
    """Sub-key of a problem key (e.g. per-grid dictionary)."""
    return _digest([base_key, list(parts)])


def ga_search_key(dictionary_key: str, info: CircuitInfo, config,
                  seed) -> str:
    """Key of one GA search: the surface it ran on + every knob that
    steers it (frequency space bounds, fitness shape, GA hyper-
    parameters, seed). ``ambiguity_threshold`` never changes the
    search and stays out, so sweeping it reuses the cached result. The
    deviation grid and the simulation engine reach this key through
    ``dictionary_key``: the grid reshapes the universe the surface was
    built from, and a ``factored`` engine is folded into the problem
    key the dictionary key derives from."""
    payload = {
        "f_min_hz": float(info.f_min_hz),
        "f_max_hz": float(info.f_max_hz),
        "num_frequencies": config.num_frequencies,
        "signature_scale": config.signature_scale,
        "relative_to_golden": config.relative_to_golden,
        "fitness": config.fitness,
        "overlap_weight": config.overlap_weight,
        "margin_weight": config.margin_weight,
        "margin_scale": config.margin_scale,
        "ga": dataclasses.asdict(config.ga),
        "seed": seed,
    }
    return _digest([dictionary_key, "ga", payload])


def trajectory_key(exact_key: str, config) -> str:
    """Key of a trajectory set: the exact dictionary it was mapped
    from (test vector included there) + the mapper options."""
    return _digest([exact_key, "trajectories", config.signature_scale,
                    config.relative_to_golden])


# ----------------------------------------------------------------------
# GA result (de)serialisation
# ----------------------------------------------------------------------
def _ga_result_to_json(result: GAResult) -> dict:
    return {
        "best_freqs_hz": [float(f) for f in result.best_freqs_hz],
        "best_fitness": result.best_fitness,
        "generations_run": result.generations_run,
        "evaluations": result.evaluations,
        "elapsed_seconds": result.elapsed_seconds,
        "history": [dataclasses.asdict(stats) for stats in result.history],
        "final_population": np.asarray(result.final_population,
                                       dtype=float).tolist(),
        "final_fitness": np.asarray(result.final_fitness,
                                    dtype=float).tolist(),
    }


def _ga_result_from_json(data: dict) -> GAResult:
    history = [GenerationStats(
        generation=entry["generation"],
        best_fitness=entry["best_fitness"],
        mean_fitness=entry["mean_fitness"],
        std_fitness=entry["std_fitness"],
        best_freqs_hz=tuple(entry["best_freqs_hz"]),
    ) for entry in data["history"]]
    return GAResult(
        best_freqs_hz=tuple(data["best_freqs_hz"]),
        best_fitness=data["best_fitness"],
        history=history,
        generations_run=data["generations_run"],
        evaluations=data["evaluations"],
        elapsed_seconds=data["elapsed_seconds"],
        final_population=np.asarray(data["final_population"], dtype=float),
        final_fitness=np.asarray(data["final_fitness"], dtype=float),
    )


class ArtifactStore:
    """Content-addressed cache of pipeline artifacts.

    Parameters
    ----------
    root:
        Store root directory: shorthand for
        ``backend=LocalDirBackend(root)`` (the original on-disk store,
        byte-compatible with pre-backend roots).
    backend:
        Any :class:`~repro.runtime.backends.StorageBackend` --
        in-memory, sharded, or a custom implementation. Exactly one of
        ``root`` / ``backend`` must be given.
    registry:
        Metrics registry receiving ``repro_store_*`` families (labelled
        by backend class); defaults to the process registry. The
        per-instance :class:`StoreStats` is kept alongside for the
        JSON ``snapshot()`` surface.
    """

    def __init__(self, root: Union[str, Path, None] = None, *,
                 backend: Optional[StorageBackend] = None,
                 registry: Optional[telemetry.MetricsRegistry] = None,
                 ) -> None:
        if (root is None) == (backend is None):
            raise StoreError(
                "pass exactly one of a store root path or backend=")
        self.backend = backend if backend is not None \
            else LocalDirBackend(root)
        self.stats = StoreStats()
        self.registry = registry if registry is not None \
            else telemetry.REGISTRY
        label = type(self.backend).__name__
        reg = self.registry
        self._hits_total = reg.counter(
            "repro_store_hits_total",
            "Artifact reads served from the store.",
            ("backend",)).labels(label)
        self._misses_total = reg.counter(
            "repro_store_misses_total",
            "Artifact reads that missed (absent or unreadable).",
            ("backend",)).labels(label)
        self._puts_total = reg.counter(
            "repro_store_puts_total",
            "Artifacts published to the store.", ("backend",)).labels(label)
        self._evictions_total = reg.counter(
            "repro_store_evictions_total",
            "Artifacts evicted by prune().", ("backend",)).labels(label)
        self._evicted_bytes_total = reg.counter(
            "repro_store_evicted_bytes_total",
            "Bytes reclaimed by prune().", ("backend",)).labels(label)
        # Lazy gauge: backend disk usage is computed at scrape time.
        reg.gauge(
            "repro_store_bytes",
            "Total artifact bytes held by the backend.",
            ("backend",)).labels(label).set_function(
                self.backend.disk_usage)

    @property
    def root(self) -> Optional[Path]:
        """The local root directory, when the backend has one."""
        return getattr(self.backend, "root", None)

    # -- key helpers exposed on the instance so callers need no extra
    # -- imports (core.atpg stays free of runtime imports).
    problem_key = staticmethod(problem_key)
    derive_key = staticmethod(derive_key)
    ga_search_key = staticmethod(ga_search_key)
    trajectory_key = staticmethod(trajectory_key)

    # ------------------------------------------------------------------
    # Backend plumbing
    # ------------------------------------------------------------------
    def has(self, kind: str, key: str) -> bool:
        return self.backend.has(kind, key)

    def _open(self, kind: str, key: str) -> Optional[Path]:
        slot = self.backend.open(kind, key)
        if slot is not None:
            self.stats.hits += 1
            return slot
        self.stats.misses += 1
        self._misses_total.inc()
        return None

    #: Read failures that mean "this cached artifact is gone or
    #: unreadable" -- vanished mid-read (concurrent prune), a
    #: transient I/O fault, or corrupt bytes on disk. All degrade to a
    #: miss via :meth:`_vanished`; anything else still raises.
    _UNREADABLE = (FileNotFoundError, OSError, EOFError, ValueError,
                   KeyError, zipfile.BadZipFile, DictionaryError)

    #: The corruption-shaped subset: the slot's *content* is bad, so
    #: the slot is deleted to let a recompute republish. Transient
    #: faults (plain OSError: EIO, EMFILE, stale NFS handles) must NOT
    #: delete a healthy artifact other replicas rely on.
    _CORRUPT = (EOFError, ValueError, KeyError, zipfile.BadZipFile,
                DictionaryError)

    def _vanished(self, kind: str, key: str,
                  error: BaseException) -> None:
        """The artifact could not be read after a successful open.

        Degrades to an honest miss so the caller recomputes. A
        corruption-shaped failure additionally vacates the slot --
        first-writer-wins publication would otherwise keep the bad
        copy forever and every future run would re-simulate without
        ever self-healing."""
        if isinstance(error, self._CORRUPT):
            try:
                if self.backend.has(kind, key):
                    self.backend.delete(kind, key)
            except OSError:
                pass             # read-only/flaky root: miss anyway
        self.stats.hits -= 1
        self.stats.misses += 1
        # Registry hits are only counted on a *completed* load, so this
        # correction path just records the miss (counters stay monotonic).
        self._misses_total.inc()

    def _publish(self, kind: str, key: str, populate) -> None:
        """Write an artifact atomically through the backend.

        ``populate`` receives a scratch directory path. If another
        writer wins the publication race the scratch copy is discarded
        -- both writers produced identical content by construction.
        """
        published = self.backend.publish(kind, key, populate)
        if published:
            self.stats.puts += 1
            self._puts_total.inc()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def disk_usage(self) -> int:
        """Total artifact bytes held by the backend."""
        return self.backend.disk_usage()

    def prune(self, max_bytes: int) -> Tuple[ArtifactRecord, ...]:
        """Evict least-recently-used artifacts until at most
        ``max_bytes`` remain; returns the evicted records. Reads touch
        an artifact's recency, so the hot working set survives."""
        evicted = self.backend.prune(max_bytes)
        if evicted:
            self._evictions_total.inc(len(evicted))
            self._evicted_bytes_total.inc(
                sum(record.n_bytes for record in evicted))
        return evicted

    # ------------------------------------------------------------------
    # Fault dictionaries
    # ------------------------------------------------------------------
    def load_dictionary(self, kind: str, key: str
                        ) -> Optional[FaultDictionary]:
        slot = self._open(kind, key)
        if slot is None:
            return None
        try:
            dictionary = FaultDictionary.load(slot / "dictionary")
        except self._UNREADABLE as exc:
            self._vanished(kind, key, exc)
            return None
        self._hits_total.inc()
        return dictionary

    def save_dictionary(self, kind: str, key: str,
                        dictionary: FaultDictionary) -> None:
        self._publish(kind, key,
                      lambda scratch: dictionary.save(scratch / "dictionary"))

    # ------------------------------------------------------------------
    # Generic JSON artifacts (corpus per-circuit results, ...)
    # ------------------------------------------------------------------
    def load_json(self, kind: str, key: str) -> Optional[dict]:
        """Load a JSON artifact saved by :meth:`save_json`, or ``None``
        on a miss (including unreadable/corrupt slots, which self-heal
        like every other artifact kind)."""
        slot = self._open(kind, key)
        if slot is None:
            return None
        try:
            data = json.loads((slot / "data.json").read_text())
        except self._UNREADABLE as exc:
            self._vanished(kind, key, exc)
            return None
        self._hits_total.inc()
        return data

    def save_json(self, kind: str, key: str, data: dict) -> None:
        """Publish a JSON-serialisable dict under ``(kind, key)``.

        First-writer-wins like every artifact: concurrent writers must
        produce identical content for one key (content-addressed keys
        make that true by construction)."""
        payload = json.dumps(data, sort_keys=True)
        self._publish(
            kind, key,
            lambda scratch: (scratch / "data.json").write_text(payload))

    # ------------------------------------------------------------------
    # GA results
    # ------------------------------------------------------------------
    def load_ga_result(self, key: str) -> Optional[GAResult]:
        slot = self._open("ga", key)
        if slot is None:
            return None
        try:
            data = json.loads((slot / "result.json").read_text())
            result = _ga_result_from_json(data)
        except self._UNREADABLE as exc:
            self._vanished("ga", key, exc)
            return None
        self._hits_total.inc()
        return result

    def save_ga_result(self, key: str, result: GAResult) -> None:
        payload = json.dumps(_ga_result_to_json(result))
        self._publish(
            "ga", key,
            lambda scratch: (scratch / "result.json").write_text(payload))

    # ------------------------------------------------------------------
    # Trajectory sets
    # ------------------------------------------------------------------
    def load_trajectories(self, key: str) -> Optional[TrajectorySet]:
        slot = self._open("trajectories", key)
        if slot is None:
            return None
        try:
            metadata = json.loads(
                (slot / "trajectories.json").read_text())
            arrays = np.load(slot / "trajectories.npz")
            mapper = SignatureMapper(
                tuple(metadata["mapper"]["test_freqs_hz"]),
                scale=metadata["mapper"]["scale"],
                relative_to_golden=metadata["mapper"]
                ["relative_to_golden"])
            trajectories = []
            for index, component in enumerate(metadata["components"]):
                trajectories.append(FaultTrajectory(
                    component,
                    tuple(metadata["deviations"][index]),
                    arrays[f"points_{index}"]))
        except self._UNREADABLE as exc:
            self._vanished("trajectories", key, exc)
            return None
        self._hits_total.inc()
        return TrajectorySet(mapper, trajectories)

    def save_trajectories(self, key: str,
                          trajectories: TrajectorySet) -> None:
        mapper = trajectories.mapper
        metadata = {
            "mapper": {
                "test_freqs_hz": [float(f) for f in mapper.test_freqs_hz],
                "scale": mapper.scale,
                "relative_to_golden": mapper.relative_to_golden,
            },
            "components": list(trajectories.components),
            "deviations": [[float(d) for d in t.deviations]
                           for t in trajectories],
        }
        arrays = {f"points_{index}": t.points
                  for index, t in enumerate(trajectories)}

        def populate(scratch: Path) -> None:
            (scratch / "trajectories.json").write_text(
                json.dumps(metadata))
            np.savez_compressed(scratch / "trajectories.npz", **arrays)

        self._publish("trajectories", key, populate)
