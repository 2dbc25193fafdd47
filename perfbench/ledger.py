"""Per-layer ledger: spans around calls into each ``repro`` layer.

The traced run wraps public functions of the ``repro`` modules from
outside the program (the program itself is not edited). Each wrapped
call records a span -- layer, start, end, parent span -- in memory, and
the counters a layer's work is measured in. Self time of a span is its
duration minus the durations of the spans nested directly inside it.

Wrappers are installed only by :meth:`Ledger.install`, which only the
``--trace 1`` run calls, and are removed again by :meth:`Ledger.remove`.
Spans are recorded only while :attr:`Ledger.active` is set, i.e. inside
timed ops.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

MARK = "__perfbench_wrapped__"


def _arg(args, kwargs, index: int, name: str):
    """A call argument by keyword or by position (``self`` included)."""
    return kwargs[name] if name in kwargs else args[index]


def _count_blocks(counts, args, kwargs, result, parent_layer):
    # A FactoredMnaEngine falling back onto BatchedMnaEngine nests one
    # transfer_block in another: count the systems of the outer call only.
    if parent_layer == "sim.transfer_block":
        return
    counts["sim.transfer_block_calls"] += 1
    freqs = _arg(args, kwargs, 2, "freqs_hz")
    variants = _arg(args, kwargs, 3, "variants")
    counts["sim.systems_solved"] += len(variants) * len(freqs)


def _count(name: str, measure: Callable) -> Callable:
    def counter(counts, args, kwargs, result, parent_layer):
        counts[name] += measure(args, kwargs, result)
    return counter


_ENCODED = _count("runtime.codec_bytes", lambda a, k, r: len(r))
_DECODED = _count("runtime.codec_bytes", lambda a, k, r: len(a[0]))

#: (layer, module, attribute path, counter). Attribute paths with a dot
#: name a method; each is wrapped on the class that defines it.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("trajectory.conflict_counts", "repro.trajectory.metrics",
     "conflict_counts_batch",
     _count("trajectory.candidates_scored", lambda a, k, r: len(a[0]))),
    ("trajectory.build", "repro.trajectory.trajectory",
     "TrajectorySet.from_source", None),
    ("trajectory.metrics", "repro.trajectory.metrics",
     "evaluate_metrics", None),
    ("ga.search", "repro.ga.engine", "GeneticAlgorithm.run",
     _count("ga.evaluations", lambda a, k, r: r.evaluations)),
    ("ga.score_population", "repro.ga.fitness",
     "TrajectoryFitness.score_population", None),
    ("faults.surface_sample", "repro.faults.surface",
     "ResponseSurface.sample_db", None),
    ("faults.dictionary_build", "repro.faults.dictionary",
     "FaultDictionary.build", None),
    ("faults.universe", "repro.faults.universe",
     "parametric_universe", None),
    ("faults.universe", "repro.faults.universe",
     "synthesize_universe", None),
    ("circuits.generate", "repro.circuits.families", "generate", None),
    ("sim.transfer_block", "repro.sim.engine",
     "ScalarMnaEngine.transfer_block", _count_blocks),
    ("sim.transfer_block", "repro.sim.engine",
     "BatchedMnaEngine.transfer_block", _count_blocks),
    ("sim.transfer_block", "repro.sim.engine",
     "FactoredMnaEngine.transfer_block", _count_blocks),
    ("diagnosis.posterior_build", "repro.diagnosis.posterior",
     "PosteriorDiagnoser.__init__",
     _count("diagnosis.posterior_worlds", lambda a, k, r: a[0].n_samples)),
    ("diagnosis.posterior_request", "repro.diagnosis.posterior",
     "PosteriorDiagnoser.diagnose_points",
     _count("diagnosis.posterior_rows", lambda a, k, r: len(r))),
    ("diagnosis.cases", "repro.diagnosis.evaluate", "make_test_cases",
     _count("diagnosis.cases", lambda a, k, r: len(r))),
    ("runtime.submit", "repro.runtime.service", "DiagnosisService.submit",
     _count("runtime.rows_classified", lambda a, k, r: len(r))),
    ("runtime.submit", "repro.runtime.service",
     "DiagnosisService.diagnose_posterior",
     _count("runtime.rows_classified", lambda a, k, r: len(r))),
    ("runtime.codec", "repro.runtime.codec", "encode_request", _ENCODED),
    ("runtime.codec", "repro.runtime.codec", "decode_request", _DECODED),
    ("runtime.codec", "repro.runtime.codec", "decode_posterior_request",
     _DECODED),
    ("runtime.codec", "repro.runtime.codec", "encode_response", _ENCODED),
    ("runtime.codec", "repro.runtime.codec", "decode_response", _DECODED),
    ("runtime.codec", "repro.runtime.codec", "encode_posterior_response",
     _ENCODED),
    ("runtime.codec", "repro.runtime.codec", "decode_posterior_response",
     _DECODED),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))
COUNTS: Tuple[str, ...] = (
    "trajectory.candidates_scored", "ga.evaluations",
    "sim.transfer_block_calls", "sim.systems_solved",
    "diagnosis.posterior_worlds", "diagnosis.cases",
    "diagnosis.posterior_rows", "runtime.rows_classified",
    "runtime.codec_bytes")


def installed() -> List[str]:
    """Targets currently carrying a ledger wrapper (empty when clean)."""
    found = []
    for layer, module_name, path, _ in TARGETS:
        owner, name = _resolve(module_name, path)
        raw = owner.__dict__[name]
        if getattr(getattr(raw, "__func__", raw), MARK, False):
            found.append(f"{module_name}.{path}")
    return found


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class Ledger:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        #: [layer, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {name: 0.0 for name in COUNTS}
        self.active = False
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable,
              counter: Optional[Callable]) -> Callable:
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ledger.active:
                return fn(*args, **kwargs)
            stack = getattr(ledger._local, "stack", None)
            if stack is None:
                stack = ledger._local.stack = []
            parent = stack[-1] if stack else -1
            span = [layer, 0.0, 0.0, parent]
            index = len(ledger.spans)
            ledger.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                parent_layer = ledger.spans[parent][0] if parent >= 0 \
                    else None
                counter(ledger.counts, args, kwargs, result, parent_layer)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self) -> None:
        """Wrap every target, rebinding module-level functions wherever
        a ``repro`` module imported them by name."""
        for layer, module_name, path, counter in TARGETS:
            owner, name = _resolve(module_name, path)
            raw = owner.__dict__[name]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(layer, raw.__func__, counter))
            else:
                wrapped = self._wrap(layer, raw, counter)
            self._restore.append((owner, name, raw))
            setattr(owner, name, wrapped)
            if isinstance(owner, type):
                continue
            for module_key, module in list(sys.modules.items()):
                if module is owner or not (
                        module_key == "repro" or
                        module_key.startswith("repro.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        self._restore.append((module, attr, raw))
                        setattr(module, attr, wrapped)

    def remove(self) -> None:
        for owner, name, raw in reversed(self._restore):
            setattr(owner, name, raw)
        self._restore.clear()

    # ------------------------------------------------------------------
    def summarize(self, op_windows: List[Tuple[float, float]]) -> dict:
        """Self time per layer, counters, and the time no span covers.

        ``op_windows`` are the (start, end) of every traced op. Covered
        time is the union of top-level span intervals, computed apart
        from the self times, so that overlapping spans (a wrapped call
        on another thread) break the accounting instead of hiding.
        """
        self_s = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            self_s[span[0]] += span[2] - span[1]
            if span[3] >= 0:
                parent = self.spans[span[3]]
                self_s[parent[0]] -= span[2] - span[1]
        top = sorted((span[1], span[2]) for span in self.spans
                     if span[3] < 0)
        covered = 0.0
        reach = float("-inf")
        for start, end in top:
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        wall = sum(end - start for start, end in op_windows)
        return {
            "self_s": self_s,
            "covered_s": covered,
            "wall_s": wall,
            "counts": dict(self.counts),
        }
