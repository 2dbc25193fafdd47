"""Content-addressed artifact store for pipeline products.

Every expensive artifact of the ATPG flow -- the dense fault
dictionary, the GA search result and the exact test-vector dictionary
-- is a deterministic function of (netlist canonical form, fault
universe spec, frequency grid, pipeline config [, seed]).
This module hashes that tuple into a stable SHA-256 key and persists
the artifacts under it, so a repeat ``FaultTrajectoryATPG.run()`` with
``store=`` loads everything back instead of re-simulating.

Artifacts live on local disk under ``<root>/<kind>/<key[:2]>/<key>/``
and are published by rename-into-place, so concurrent writers and
readers (replicas sharing one root) only ever observe complete
artifacts. Reads touch an artifact's mtime, which makes
:meth:`ArtifactStore.prune` a least-recently-used eviction. The store
owns key construction, artifact (de)serialisation and hit/miss/put
accounting.

Each artifact is keyed on *only* the inputs it depends on, so sweeping
a GA knob reuses the cached dictionary and two configs landing on the
same test vector share the exact dictionary:

* dictionary      <- problem (netlist, ports, universe) + dense grid
* ga              <- dictionary key + search config + seed
* exact           <- problem + test vector

The trajectory set is not stored: it is a function of the exact
dictionary and the mapper, and rebuilding it costs about as much as
loading it.

The pipeline's engine enters the problem key as ``factored``: its
low-rank solves differ from the dense ones in the last bits, so a root
written by a dense-engine build misses rather than serving them (see
``FaultTrajectoryATPG.run``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shutil
import uuid
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from ..circuits.library import CircuitInfo
from ..errors import DictionaryError, StoreError
from ..faults.dictionary import FaultDictionary, fault_to_json
from ..faults.universe import FaultUniverse
from ..ga.engine import GAResult, GenerationStats
from . import telemetry

__all__ = ["ArtifactStore", "ArtifactRecord", "as_store",
           "problem_key", "derive_key", "ga_search_key"]

_KEY_PATTERN = re.compile(r"[0-9a-f]{64}")
_KIND_PATTERN = re.compile(r"[a-z][a-z0-9_-]*")


def check_slot(kind: str, key: str) -> None:
    """Reject anything that is not a plain kind + SHA-256 hex key.

    Keys address directories, so an unvalidated ``'../escape'`` could
    walk out of the store root.
    """
    if not _KEY_PATTERN.fullmatch(key or ""):
        raise StoreError(f"invalid artifact key {key!r}")
    if not _KIND_PATTERN.fullmatch(kind or ""):
        raise StoreError(f"invalid artifact kind {kind!r}")


@dataclass(frozen=True)
class ArtifactRecord:
    """One stored artifact, as seen by maintenance operations."""

    kind: str
    key: str
    n_bytes: int
    mtime: float


def as_store(source: Union["ArtifactStore", str, Path, None]
             ) -> Optional["ArtifactStore"]:
    """Coerce anything store-shaped into an :class:`ArtifactStore`.

    Accepts an existing store (returned as-is), a store root path, or
    ``None`` (no caching). The seam every ``store=`` parameter in the
    pipeline and serving layers runs through.
    """
    if source is None or isinstance(source, ArtifactStore):
        return source
    if isinstance(source, (str, Path)):
        return ArtifactStore(source)
    raise StoreError(
        f"expected an ArtifactStore or a store root path, "
        f"got {type(source).__name__}")


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
    parameters, seed). The deviation grid and the simulation engine
    reach this key through ``dictionary_key``: the grid reshapes the
    universe the surface was built from, and the engine is folded into
    the problem key the dictionary key derives from."""
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

    Hits, misses, puts and evictions are counted in the
    ``repro_store_*`` families of the process registry
    (:data:`~repro.runtime.telemetry.REGISTRY`), summed over every
    store instance in the process.

    Parameters
    ----------
    root:
        Store root directory (created if missing). Artifacts live
        under ``<root>/<kind>/<key[:2]>/<key>/``.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        reg = telemetry.REGISTRY
        self._hits_total = reg.counter(
            "repro_store_hits_total",
            "Artifact reads served from the store.")
        self._misses_total = reg.counter(
            "repro_store_misses_total",
            "Artifact reads that missed (absent or unreadable).")
        self._puts_total = reg.counter(
            "repro_store_puts_total", "Artifacts published to the store.")
        self._evictions_total = reg.counter(
            "repro_store_evictions_total", "Artifacts evicted by prune().")
        self._evicted_bytes_total = reg.counter(
            "repro_store_evicted_bytes_total",
            "Bytes reclaimed by prune().")
        # Lazy gauge: disk usage is computed at scrape time.
        reg.gauge(
            "repro_store_bytes",
            "Total artifact bytes held by the store.").set_function(
                self.disk_usage)

    # -- key helpers exposed on the instance so callers need no extra
    # -- imports (core.atpg stays free of runtime imports).
    problem_key = staticmethod(problem_key)
    derive_key = staticmethod(derive_key)
    ga_search_key = staticmethod(ga_search_key)

    # ------------------------------------------------------------------
    # Slots
    # ------------------------------------------------------------------
    def _slot(self, kind: str, key: str) -> Path:
        check_slot(kind, key)
        return self.root / kind / key[:2] / key

    def has(self, kind: str, key: str) -> bool:
        return self._slot(kind, key).is_dir()

    def _open(self, kind: str, key: str) -> Optional[Path]:
        slot = self._slot(kind, key)
        if not slot.is_dir():
            self._misses_total.inc()
            return None
        try:                     # LRU bookkeeping; never worth failing a read
            os.utime(slot)
        except OSError:
            pass
        return slot

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
                self.delete(kind, key)
            except OSError:
                pass             # read-only/flaky root: miss anyway
        # Hits are only counted on a *completed* load, so the race
        # reads as one miss and no hit.
        self._misses_total.inc()

    def _publish(self, kind: str, key: str, populate) -> None:
        """Write an artifact atomically: ``populate`` fills a scratch
        directory that is then renamed into the slot.

        First writer wins: if another writer's rename landed first the
        scratch copy is discarded -- both writers produced identical
        content by construction, and readers only ever observe
        complete artifacts.
        """
        slot = self._slot(kind, key)
        slot.parent.mkdir(parents=True, exist_ok=True)
        scratch = slot.parent / f".tmp-{key[:8]}-{uuid.uuid4().hex}"
        scratch.mkdir()
        try:
            populate(scratch)
            try:
                os.rename(scratch, slot)
            except OSError:
                if not slot.is_dir():
                    raise
                shutil.rmtree(scratch, ignore_errors=True)
                return
        except BaseException:
            shutil.rmtree(scratch, ignore_errors=True)
            raise
        self._puts_total.inc()

    def delete(self, kind: str, key: str) -> bool:
        """Remove one artifact; ``True`` if something was deleted."""
        slot = self._slot(kind, key)
        if not slot.is_dir():
            return False
        try:
            shutil.rmtree(slot)
        except FileNotFoundError:
            return False         # concurrent prune on a shared root won
        # The empty fan-out dir is left behind deliberately: removing
        # it would race a concurrent _publish that already mkdir'd it
        # but not yet created its scratch dir (shared-root fleets).
        # At most 256 empty prefix dirs per kind -- harmless.
        return True

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def records(self) -> Iterator[ArtifactRecord]:
        """Every stored artifact (order unspecified)."""
        if not self.root.is_dir():
            return
        for kind_dir in sorted(self.root.iterdir()):
            if not kind_dir.is_dir() or \
                    not _KIND_PATTERN.fullmatch(kind_dir.name):
                continue
            for slot in sorted(kind_dir.glob("??/*")):
                if not slot.is_dir() or \
                        not _KEY_PATTERN.fullmatch(slot.name):
                    continue
                try:
                    n_bytes = sum(path.stat().st_size
                                  for path in slot.rglob("*")
                                  if path.is_file())
                    mtime = slot.stat().st_mtime
                except FileNotFoundError:
                    # A concurrent prune (another worker sharing this
                    # root) deleted the slot mid-scan: skip it.
                    continue
                yield ArtifactRecord(kind=kind_dir.name, key=slot.name,
                                     n_bytes=n_bytes, mtime=mtime)

    def disk_usage(self) -> int:
        """Total bytes of artifact payload held by the store."""
        return sum(record.n_bytes for record in self.records())

    def prune(self, max_bytes: int) -> Tuple[ArtifactRecord, ...]:
        """Evict least-recently-used artifacts until at most
        ``max_bytes`` remain; returns the evicted records. Reads touch
        an artifact's recency, so the hot working set survives."""
        if max_bytes < 0:
            raise StoreError("max_bytes must be >= 0")
        records = sorted(self.records(),
                         key=lambda r: (r.mtime, r.kind, r.key))
        total = sum(record.n_bytes for record in records)
        evicted: List[ArtifactRecord] = []
        for record in records:
            if total <= max_bytes:
                break
            if self.delete(record.kind, record.key):
                total -= record.n_bytes
                evicted.append(record)
                self._evictions_total.inc()
                self._evicted_bytes_total.inc(record.n_bytes)
        return tuple(evicted)

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
