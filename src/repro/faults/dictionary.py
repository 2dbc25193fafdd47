"""Fault dictionary: simulated responses of golden + every faulty circuit.

Section 2.1's fault-simulation product: one AC magnitude response per
fault, plus the golden response, all on a shared dense log-frequency grid.
The dictionary is the single simulation artefact the rest of the flow
consumes -- trajectory construction, GA fitness and diagnosis all sample
it (directly or through the fast :class:`~repro.faults.surface.
ResponseSurface` interpolator) instead of re-running MNA.

Dictionaries persist to an ``.npz`` file (grid + complex response matrix)
paired with the metadata needed to rebuild fault objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import DictionaryError
from ..sim.ac import FrequencyResponse
from ..sim.engine import BatchedMnaEngine, SimulationEngine
from .models import (
    CatastrophicFault,
    Fault,
    GOLDEN_LABEL,
    OpAmpParamFault,
    ParametricFault,
)
from .universe import FaultUniverse

__all__ = ["DictionaryEntry", "FaultDictionary", "fault_to_json",
           "fault_from_json"]


@dataclass(frozen=True)
class DictionaryEntry:
    """One fault and its simulated response."""

    fault: Fault
    response: FrequencyResponse

    @property
    def label(self) -> str:
        return self.fault.label


class FaultDictionary:
    """Golden response + one entry per fault of a universe.

    Build with :meth:`build`; query entries by label, component or index.
    The entry order follows the universe order (deterministic).
    """

    #: Process-wide count of fault-simulation builds (incremented only
    #: by :meth:`build`). Lets tests and the artifact store assert that
    #: a store-warmed pipeline run skipped fault simulation entirely.
    simulations_run = 0

    def __init__(self, circuit_name: str, output_node: str,
                 freqs_hz: np.ndarray, golden: FrequencyResponse,
                 entries: Sequence[DictionaryEntry]) -> None:
        self.circuit_name = circuit_name
        self.output_node = output_node
        self.freqs_hz = np.asarray(freqs_hz, dtype=float)
        self.golden = golden
        self.entries: Tuple[DictionaryEntry, ...] = tuple(entries)
        self._by_label: Dict[str, DictionaryEntry] = {}
        for entry in self.entries:
            if entry.label in self._by_label:
                raise DictionaryError(
                    f"duplicate dictionary label {entry.label!r}")
            # Entries sliced from one ResponseBlock share the grid array
            # itself; the identity check skips a per-entry allclose scan.
            if entry.response.freqs_hz is not self.freqs_hz and (
                    entry.response.freqs_hz.shape != self.freqs_hz.shape
                    or not np.allclose(entry.response.freqs_hz,
                                       self.freqs_hz)):
                raise DictionaryError(
                    f"entry {entry.label!r} simulated on a different grid")
            self._by_label[entry.label] = entry

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, universe: FaultUniverse, output_node: str,
              freqs_hz: np.ndarray,
              input_source: Optional[str] = None,
              engine: Optional[SimulationEngine] = None
              ) -> "FaultDictionary":
        """Fault-simulate the whole universe over a frequency grid.

        The build requests one :class:`~repro.sim.engine.ResponseBlock`
        covering golden + every fault from a simulation engine. By
        default a fresh :class:`~repro.sim.engine.BatchedMnaEngine` is
        constructed (stamp once, solve the whole universe batched);
        pass ``engine=`` to reuse an already-stamped engine across
        builds or to force the scalar reference path. The responses are
        bitwise-identical either way.
        """
        FaultDictionary.simulations_run += 1
        freqs = np.asarray(freqs_hz, dtype=float)
        circuit = universe.circuit
        if engine is None:
            engine = BatchedMnaEngine(circuit)
        elif engine.circuit is not circuit:
            raise DictionaryError(
                f"engine was built for circuit "
                f"{engine.circuit.name!r}, universe targets "
                f"{circuit.name!r}")
        block = engine.transfer_block(output_node, freqs,
                                      universe.variants(), input_source)
        golden = block.response(0)
        entries = [DictionaryEntry(fault, block.response(index + 1))
                   for index, fault in enumerate(universe.faults)]
        return cls(circuit.name, output_node, freqs, golden, entries)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[DictionaryEntry]:
        return iter(self.entries)

    def __contains__(self, label: str) -> bool:
        return label in self._by_label

    def entry(self, label: str) -> DictionaryEntry:
        try:
            return self._by_label[label]
        except KeyError:
            raise DictionaryError(
                f"no dictionary entry {label!r}; have "
                f"{sorted(self._by_label)[:10]}...") from None

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(entry.label for entry in self.entries)

    @property
    def components(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for entry in self.entries:
            seen.setdefault(entry.fault.component, None)
        return tuple(seen)

    def entries_for(self, component: str) -> Tuple[DictionaryEntry, ...]:
        """All entries whose fault targets ``component``."""
        found = tuple(e for e in self.entries
                      if e.fault.component == component)
        if not found:
            raise DictionaryError(
                f"no entries for component {component!r}; have "
                f"{self.components}")
        return found

    def response_matrix_db(self) -> np.ndarray:
        """(1 + n_faults, n_grid) dB magnitudes; row 0 is golden.

        Entries are immutable after construction, so the matrix is
        computed once and memoised; the cached array is returned
        read-only (invalidation-by-construction -- there is nothing
        that could invalidate it).
        """
        cached = getattr(self, "_matrix_db_cache", None)
        if cached is None:
            rows = [self.golden.magnitude_db]
            rows.extend(entry.response.magnitude_db
                        for entry in self.entries)
            cached = np.vstack(rows)
            cached.setflags(write=False)
            self._matrix_db_cache = cached
        return cached

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Persist to ``<path>.npz`` (arrays) + ``<path>.json`` (metadata).

        ``path`` is used as a stem; both files are written next to each
        other and :meth:`load` expects the same layout.
        """
        stem = Path(path)
        stem.parent.mkdir(parents=True, exist_ok=True)
        matrix = np.vstack(
            [self.golden.values] +
            [entry.response.values for entry in self.entries])
        np.savez_compressed(stem.with_suffix(".npz"),
                            freqs_hz=self.freqs_hz, responses=matrix)
        metadata = {
            "circuit_name": self.circuit_name,
            "output_node": self.output_node,
            "faults": [_fault_to_json(entry.fault)
                       for entry in self.entries],
        }
        stem.with_suffix(".json").write_text(
            json.dumps(metadata, indent=2))
        return stem

    @classmethod
    def load(cls, path: str | Path) -> "FaultDictionary":
        """Load a dictionary saved by :meth:`save`."""
        stem = Path(path)
        npz_path = stem.with_suffix(".npz")
        json_path = stem.with_suffix(".json")
        if not npz_path.exists() or not json_path.exists():
            raise DictionaryError(
                f"missing dictionary files {npz_path} / {json_path}")
        arrays = np.load(npz_path)
        metadata = json.loads(json_path.read_text())
        freqs = arrays["freqs_hz"]
        matrix = arrays["responses"]
        if matrix.shape[0] != len(metadata["faults"]) + 1:
            raise DictionaryError(
                "dictionary npz/json mismatch: "
                f"{matrix.shape[0]} responses vs "
                f"{len(metadata['faults'])} faults + golden")
        output_node = metadata["output_node"]
        golden = FrequencyResponse(freqs, matrix[0], output=output_node,
                                   label=GOLDEN_LABEL)
        entries = []
        for row, fault_json in zip(matrix[1:], metadata["faults"]):
            fault = _fault_from_json(fault_json)
            entries.append(DictionaryEntry(
                fault,
                FrequencyResponse(freqs, row, output=output_node,
                                  label=fault.label)))
        return cls(metadata["circuit_name"], output_node, freqs, golden,
                   entries)


def fault_to_json(fault: Fault) -> dict:
    """JSON-serialisable description of one fault (stable field order)."""
    return _fault_to_json(fault)


def fault_from_json(data: dict) -> Fault:
    """Inverse of :func:`fault_to_json`."""
    return _fault_from_json(data)


def _fault_to_json(fault: Fault) -> dict:
    if isinstance(fault, ParametricFault):
        return {"kind": "parametric", "component": fault.component,
                "deviation": fault.deviation}
    if isinstance(fault, CatastrophicFault):
        return {"kind": "catastrophic", "component": fault.component,
                "mode": fault.kind}
    if isinstance(fault, OpAmpParamFault):
        return {"kind": "opamp_param", "component": fault.component,
                "param": fault.param, "deviation": fault.deviation}
    raise DictionaryError(
        f"cannot serialise fault type {type(fault).__name__}")


def _fault_from_json(data: dict) -> Fault:
    kind = data.get("kind")
    if kind == "parametric":
        return ParametricFault(data["component"], data["deviation"])
    if kind == "catastrophic":
        return CatastrophicFault(data["component"], data["mode"])
    if kind == "opamp_param":
        return OpAmpParamFault(data["component"], data["param"],
                               data["deviation"])
    raise DictionaryError(f"unknown fault kind in metadata: {kind!r}")
