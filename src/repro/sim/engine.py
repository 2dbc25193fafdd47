"""Simulation engines: stamp-once / solve-many AC analysis.

The scalar flow re-assembles an :class:`~repro.sim.mna.MnaSystem` per
faulty circuit: parse, validate, stamp, then solve a frequency sweep.
For a fault universe that repeats the assembly work hundreds of times on
circuits that differ from the nominal one in a single component value.

This module factors the "solve a family of single-deviation variants"
operation behind a :class:`SimulationEngine` protocol with three
implementations:

* :class:`ScalarMnaEngine` -- the reference: one circuit clone + one
  ``ACAnalysis`` per variant, exactly the historical code path;
* :class:`BatchedMnaEngine` -- stamps the nominal circuit once, records
  every component's ordered stamp contributions, materialises each
  variant's ``G``/``B`` matrices by re-folding only the entries the
  deviated component touches (delta-stamps, no circuit re-parse), and
  solves all variants x all grid frequencies with chunked batched
  ``np.linalg.solve``;
* :class:`FactoredMnaEngine` -- factors the *nominal* system once per
  frequency and solves every variant through batched
  Sherman-Morrison-Woodbury low-rank updates (each single-component
  fault only perturbs a handful of MNA entries), falling back to the
  batched dense path per variant when an update is ill-conditioned.
  Optionally assembles the nominal system with ``scipy.sparse`` on
  large circuits (graceful numpy-dense fallback when scipy is absent).

Equivalence contract: the scalar and batched engines produce *bitwise
identical* response blocks. The batched engine re-folds affected matrix
entries in the exact accumulation order of the direct stamper and feeds
the same per-matrix ``A(s) = G + s B`` systems to the same LAPACK
routine, so no tolerance is needed anywhere -- the test suite asserts
exact equality across the whole circuit library. The factored engine
computes the same transfers through an algebraically different route,
so its contract is *tight-tolerance* agreement with the scalar
reference (asserted across the registry and backstopped by the golden
suite), with the conditioning guard routing numerically risky updates
back onto the bitwise dense path.

Both engines return a :class:`ResponseBlock`, a ``(n_variants, n_freqs)``
complex transfer matrix that lazily slices into the familiar
:class:`~repro.sim.ac.FrequencyResponse` objects.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Protocol, \
    Sequence, Tuple, runtime_checkable

import numpy as np

from ..circuits.components import Component
from ..circuits.netlist import Circuit
from ..errors import SimulationError, SingularCircuitError
from ..tracing import TRACER
from ..units import TWO_PI, db
from . import lowrank
from .ac import ACAnalysis, FrequencyResponse, source_phasor
from .lowrank import LowRankDelta, NominalFactorSolver
from .mna import ComponentOps, MnaSystem

__all__ = [
    "VariantSpec",
    "ResponseBlock",
    "SimulationEngine",
    "ScalarMnaEngine",
    "BatchedMnaEngine",
    "FactoredMnaEngine",
    "EngineSpec",
    "make_engine",
    "ENGINE_KINDS",
]

ENGINE_KINDS = ("batched", "scalar", "factored")

#: Knobs only the factored engine understands (EngineSpec validation).
_FACTORED_KNOBS = ("cond_limit", "max_rank", "sparse", "sparse_min_dim")


@dataclass(frozen=True)
class EngineSpec:
    """One engine selection, uniformly spelled everywhere.

    Replaces the historical string-only engine spellings
    (``make_engine`` kind, ``PipelineConfig.engine``,
    ``repro-serve --engine``, ...) with a single value object carrying
    the engine *name* plus its knobs. A knob of ``None`` means "the
    engine's own default", so ``EngineSpec("factored")`` and the plain
    string ``"factored"`` are interchangeable.

    Accepted spellings (see :meth:`coerce`):

    * an :class:`EngineSpec` -- passed through;
    * a plain name string -- ``"batched"``, ``"scalar"``,
      ``"factored"``;
    * a compact knob string -- ``"factored:cond_limit=1e6,sparse=true"``
      (what ``repro-serve --engine`` and ``repro-corpus`` accept);
    * a JSON dict -- ``{"kind": "factored", "cond_limit": 1e6}``.

    :meth:`to_json_value` renders the spec back to the plain name
    string whenever every knob is default, so configs that never used
    knobs keep their historical JSON byte-for-byte.
    """

    kind: str = "batched"
    gmin: float = 0.0
    cond_limit: Optional[float] = None
    max_rank: Optional[int] = None
    sparse: Optional[object] = None
    sparse_min_dim: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ENGINE_KINDS:
            raise SimulationError(
                f"engine kind must be one of {ENGINE_KINDS}, "
                f"got {self.kind!r}")
        if self.gmin < 0.0:
            raise SimulationError("engine gmin must be >= 0")
        if self.kind != "factored":
            set_knobs = [name for name in _FACTORED_KNOBS
                         if getattr(self, name) is not None]
            if set_knobs:
                raise SimulationError(
                    f"engine knobs {set_knobs} only apply to the "
                    f"'factored' engine, not {self.kind!r}")
        if self.cond_limit is not None and not self.cond_limit > 0.0:
            raise SimulationError("cond_limit must be > 0")
        if self.max_rank is not None and self.max_rank < 1:
            raise SimulationError("max_rank must be >= 1")
        if self.sparse is not None and \
                self.sparse not in ("auto", True, False):
            raise SimulationError(
                f"sparse must be 'auto', True or False, "
                f"got {self.sparse!r}")
        if self.sparse_min_dim is not None and self.sparse_min_dim < 1:
            raise SimulationError("sparse_min_dim must be >= 1")

    # ------------------------------------------------------------------
    @classmethod
    def coerce(cls, value) -> "EngineSpec":
        """Normalise any accepted engine spelling to an EngineSpec."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, dict):
            try:
                return cls(**{str(key): val
                              for key, val in value.items()})
            except TypeError as exc:
                raise SimulationError(
                    f"bad engine spec dict: {exc}") from exc
        raise SimulationError(
            "engine must be an EngineSpec, a name string or a dict, "
            f"got {type(value).__name__}")

    @classmethod
    def parse(cls, text: str) -> "EngineSpec":
        """Parse ``"name"`` or ``"name:knob=value,knob=value"``."""
        name, _, tail = text.partition(":")
        knobs: Dict[str, object] = {}
        if tail:
            for item in tail.split(","):
                key, sep, raw = item.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise SimulationError(
                        f"bad engine spec {text!r}: expected "
                        "knob=value, got " f"{item!r}")
                knobs[key] = cls._parse_knob_value(raw.strip())
        return cls.coerce({"kind": name.strip(), **knobs})

    @staticmethod
    def _parse_knob_value(raw: str) -> object:
        lowered = raw.lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        if lowered == "auto":
            return "auto"
        try:
            return int(raw)
        except ValueError:
            pass
        try:
            return float(raw)
        except ValueError:
            raise SimulationError(
                f"bad engine knob value {raw!r}") from None

    # ------------------------------------------------------------------
    def to_json_value(self) -> object:
        """Plain name string when every knob is default, else a dict
        (both accepted back by :meth:`coerce` -- and by the historical
        string-only consumers when no knobs are set)."""
        knobs: Dict[str, object] = {}
        if self.gmin != 0.0:
            knobs["gmin"] = self.gmin
        for name in _FACTORED_KNOBS:
            value = getattr(self, name)
            if value is not None:
                knobs[name] = value
        if not knobs:
            return self.kind
        return {"kind": self.kind, **knobs}

    def make(self, circuit: Circuit) -> "SimulationEngine":
        """Instantiate this spec's engine for ``circuit``."""
        if self.kind == "scalar":
            return ScalarMnaEngine(circuit, gmin=self.gmin)
        if self.kind == "batched":
            return BatchedMnaEngine(circuit, gmin=self.gmin)
        knobs = {name: getattr(self, name)
                 for name in _FACTORED_KNOBS
                 if getattr(self, name) is not None}
        return FactoredMnaEngine(circuit, gmin=self.gmin, **knobs)

# The (K, N, N) stacks handed to np.linalg.solve are chunked to roughly
# this many bytes: big enough to amortise the gufunc dispatch, small
# enough that the stack stays resident in cache across construction and
# factorisation (4 MB measured fastest on the benchmark circuits).
_STACK_MEMORY_BUDGET = 4 * 1024 * 1024  # bytes


@dataclass(frozen=True)
class VariantSpec:
    """One circuit variant: a set of same-name component replacements.

    ``replacements`` is empty for the nominal circuit. ``name`` is the
    variant circuit's name (used for response labels and error
    messages); ``None`` keeps the nominal circuit's name -- matching how
    fault injection names faulty clones ``<circuit>#<fault label>``.
    """

    replacements: Tuple[Component, ...] = ()
    name: Optional[str] = None

    def __post_init__(self) -> None:
        seen = set()
        for component in self.replacements:
            if component.name in seen:
                raise SimulationError(
                    f"variant {self.name or '<nominal>'} replaces "
                    f"component {component.name!r} twice")
            seen.add(component.name)


class ResponseBlock:
    """Responses of a whole variant family on one shared grid.

    ``values[i, j]`` is the complex transfer of variant ``i`` at grid
    frequency ``j`` (already normalised by the stimulus phasor, SPICE
    ``.AC`` semantics). :meth:`response` slices a row into a
    :class:`FrequencyResponse` whose arrays are views of the block --
    bitwise-compatible with the per-circuit scalar result.
    """

    def __init__(self, freqs_hz: np.ndarray, values: np.ndarray,
                 labels: Sequence[str], output: str) -> None:
        self.freqs_hz = np.asarray(freqs_hz, dtype=float)
        self.values = np.asarray(values, dtype=complex)
        self.labels: Tuple[str, ...] = tuple(labels)
        self.output = output
        if self.values.ndim != 2 or \
                self.values.shape != (len(self.labels),
                                      self.freqs_hz.size):
            raise SimulationError(
                f"ResponseBlock needs a ({len(self.labels)}, "
                f"{self.freqs_hz.size}) value matrix, got "
                f"{self.values.shape}")
        # The FrequencyResponse grid contract, validated once for the
        # whole block; rows then use the trusted fast constructor.
        if self.freqs_hz.ndim != 1 or self.freqs_hz.size < 1:
            raise SimulationError(
                "ResponseBlock needs a non-empty 1-D frequency grid")
        if np.any(self.freqs_hz <= 0.0):
            raise SimulationError("frequencies must be positive")
        if np.any(np.diff(self.freqs_hz) <= 0.0):
            raise SimulationError("frequency grid must be strictly "
                                  "increasing")
        self._index: Dict[str, int] = {}
        for position, label in enumerate(self.labels):
            self._index.setdefault(label, position)
        self._responses: List[Optional[FrequencyResponse]] = \
            [None] * len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[FrequencyResponse]:
        for index in range(len(self.labels)):
            yield self.response(index)

    @property
    def num_freqs(self) -> int:
        return int(self.freqs_hz.size)

    def magnitude_db(self) -> np.ndarray:
        """(n_variants, n_freqs) dB magnitudes of the whole block."""
        return np.asarray(db(self.values), dtype=float)

    def response(self, key: int | str) -> FrequencyResponse:
        """Variant response by position or label (lazily built, cached)."""
        if isinstance(key, str):
            try:
                index = self._index[key]
            except KeyError:
                raise SimulationError(
                    f"no variant labelled {key!r} in response block; "
                    f"have {self.labels[:10]}...") from None
        else:
            index = int(key)
            if not -len(self.labels) <= index < len(self.labels):
                raise SimulationError(
                    f"variant index {index} out of range "
                    f"[0, {len(self.labels)})")
            index %= len(self.labels)
        cached = self._responses[index]
        if cached is None:
            cached = FrequencyResponse._trusted(
                self.freqs_hz, self.values[index], self.output,
                f"{self.labels[index]}:{self.output}")
            self._responses[index] = cached
        return cached

    def responses(self) -> Tuple[FrequencyResponse, ...]:
        """Every variant response, in block order."""
        return tuple(self.response(i) for i in range(len(self)))


@runtime_checkable
class SimulationEngine(Protocol):
    """Anything that can AC-solve a family of circuit variants."""

    @property
    def circuit(self) -> Circuit: ...

    def transfer_block(self, output_node: str, freqs_hz: np.ndarray,
                       variants: Sequence[VariantSpec],
                       input_source: Optional[str] = None
                       ) -> ResponseBlock: ...


class ScalarMnaEngine:
    """Reference engine: one full circuit assembly + sweep per variant.

    This is the historical code path (clone the netlist, build an
    :class:`ACAnalysis`, run ``solve_frequencies``) wrapped in the
    engine protocol. It exists as the equivalence baseline and as the
    conservative fallback (``PipelineConfig(engine="scalar")``).
    """

    def __init__(self, circuit: Circuit, gmin: float = 0.0) -> None:
        self._circuit = circuit
        self.gmin = float(gmin)

    @property
    def circuit(self) -> Circuit:
        return self._circuit

    def _variant_circuit(self, spec: VariantSpec) -> Circuit:
        if not spec.replacements and spec.name is None:
            return self._circuit
        replaced = {c.name: c for c in spec.replacements}
        missing = set(replaced) - set(self._circuit.component_names)
        if missing:
            raise SimulationError(
                f"{self._circuit.name}: variant replaces unknown "
                f"component(s) {sorted(missing)}")
        return Circuit(spec.name or self._circuit.name,
                       [replaced.get(c.name, c) for c in self._circuit])

    def transfer_block(self, output_node: str, freqs_hz: np.ndarray,
                       variants: Sequence[VariantSpec],
                       input_source: Optional[str] = None
                       ) -> ResponseBlock:
        freqs = np.asarray(freqs_hz, dtype=float)
        if not variants:
            raise SimulationError("transfer_block needs >= 1 variant")
        with TRACER.span("engine.solve", engine="scalar",
                         freqs=int(freqs.size)) as span:
            values = np.empty((len(variants), freqs.size), dtype=complex)
            labels = []
            for index, spec in enumerate(variants):
                circuit = self._variant_circuit(spec)
                response = ACAnalysis(circuit, gmin=self.gmin).transfer(
                    output_node, freqs, input_source)
                values[index] = response.values
                labels.append(circuit.name)
            span.attrs.update(variants=len(variants), chunks=len(variants))
        return ResponseBlock(freqs, values, labels, output_node)


class BatchedMnaEngine:
    """Stamp-once / solve-many engine over a fixed nominal circuit.

    Construction assembles the nominal MNA system and records every
    component's ordered stamp contributions. Each variant's matrices are
    the nominal arrays with only the replaced components' entries
    re-folded -- in the exact accumulation order of a fresh assembly, so
    the variant matrices are bitwise-identical to re-stamping the faulty
    circuit. All variant x frequency systems are then solved through
    chunked batched ``np.linalg.solve`` calls (the same per-matrix
    LAPACK operation the scalar sweep performs).
    """

    #: Span label for engine construction (``engine.stamp``).
    _kind = "batched"
    #: Span label for the dense ``transfer_block`` solve
    #: (``engine.solve``); the factored subclass relabels its fallback
    #: calls so dashboards can tell main-path from fallback work.
    _dense_solve_kind = "batched"

    def __init__(self, circuit: Circuit, gmin: float = 0.0) -> None:
        with TRACER.span("engine.stamp", engine=self._kind,
                         circuit=circuit.name) as span:
            self._circuit = circuit
            self.gmin = float(gmin)
            self.system = MnaSystem(circuit, gmin=gmin)
            # The assembled arrays (gmin already applied to _g's diagonal).
            self._base_g = self.system.g_matrix
            self._base_b = self.system.b_matrix
            self._base_z_ac = self.system.rhs("ac")
            # Per-component ordered stamp ops + per-entry contribution
            # streams: entry -> [(component, op position), ...] in stamp
            # order. Re-folding a stream with one component's values swapped
            # reproduces a fresh assembly of that entry bitwise.
            self._ops: Dict[str, ComponentOps] = {}
            self._matrix_streams: Dict[Tuple[str, int, int],
                                       List[Tuple[str, int]]] = {}
            self._rhs_streams: Dict[Tuple[str, int],
                                    List[Tuple[str, int]]] = {}
            # Per component: the distinct entries it touches and its stamp
            # structure (entry sequence without values) for replacement
            # validation -- both precomputed so per-variant patching only
            # re-stamps and re-folds.
            self._touched_matrix: Dict[str, Tuple[Tuple[str, int, int],
                                                  ...]] = {}
            self._touched_rhs: Dict[str, Tuple[Tuple[str, int], ...]] = {}
            self._structure: Dict[str, Tuple[tuple, tuple]] = {}
            for component in circuit:
                ops = self.system.component_ops(component)
                self._ops[component.name] = ops
                for position, (target, row, col, _) in \
                        enumerate(ops.matrix_ops):
                    self._matrix_streams.setdefault(
                        (target, row, col), []).append(
                            (component.name, position))
                for position, (target, row, _) in enumerate(ops.rhs_ops):
                    self._rhs_streams.setdefault((target, row), []).append(
                        (component.name, position))
                matrix_structure = tuple(op[:3] for op in ops.matrix_ops)
                rhs_structure = tuple(op[:2] for op in ops.rhs_ops)
                self._structure[component.name] = (matrix_structure,
                                                   rhs_structure)
                self._touched_matrix[component.name] = tuple(
                    dict.fromkeys(matrix_structure))
                self._touched_rhs[component.name] = tuple(
                    dict.fromkeys(rhs_structure))
            span.attrs["dim"] = self.system.dim

    @property
    def circuit(self) -> Circuit:
        return self._circuit

    # ------------------------------------------------------------------
    # Delta-stamping
    # ------------------------------------------------------------------
    def _replacement_ops(self, spec: VariantSpec
                         ) -> Dict[str, ComponentOps]:
        """Stamp ops of every replaced component, structure-checked."""
        replaced: Dict[str, ComponentOps] = {}
        for component in spec.replacements:
            structure = self._structure.get(component.name)
            if structure is None:
                raise SimulationError(
                    f"{self._circuit.name}: variant "
                    f"{spec.name or '<nominal>'} replaces unknown "
                    f"component {component.name!r}")
            ops = self.system.component_ops(component)
            if tuple(op[:3] for op in ops.matrix_ops) != structure[0] \
                    or tuple(op[:2] for op in ops.rhs_ops) != \
                    structure[1]:
                raise SimulationError(
                    f"{self._circuit.name}: replacement for "
                    f"{component.name!r} changes the stamp structure; "
                    "delta-stamping needs same-name, same-terminal "
                    "replacements")
            replaced[component.name] = ops
        return replaced

    def _fold_matrix_entry(self, key: Tuple[str, int, int],
                           replaced: Dict[str, ComponentOps]) -> complex:
        """Re-accumulate one matrix entry in fresh-assembly order."""
        total = 0.0 + 0.0j
        for name, position in self._matrix_streams[key]:
            ops = replaced.get(name) or self._ops[name]
            total = total + ops.matrix_ops[position][3]
        if self.gmin > 0.0 and key[0] == "g" and key[1] == key[2] and \
                key[1] < self.system.num_nodes:
            total = total + self.gmin
        return total

    def _fold_rhs_entry(self, key: Tuple[str, int],
                        replaced: Dict[str, ComponentOps]) -> complex:
        total = 0.0 + 0.0j
        for name, position in self._rhs_streams[key]:
            ops = replaced.get(name) or self._ops[name]
            total = total + ops.rhs_ops[position][2]
        return total

    def _variant_arrays(self, spec: VariantSpec,
                        g: np.ndarray, b: np.ndarray,
                        z_ac: np.ndarray) -> None:
        """Patch preallocated nominal copies into the variant's arrays."""
        replaced = self._replacement_ops(spec)
        touched_matrix: Dict[Tuple[str, int, int], None] = {}
        touched_rhs: Dict[Tuple[str, int], None] = {}
        for name in replaced:
            for key in self._touched_matrix[name]:
                touched_matrix.setdefault(key)
            for key in self._touched_rhs[name]:
                touched_rhs.setdefault(key)
        for key in touched_matrix:
            value = self._fold_matrix_entry(key, replaced)
            (g if key[0] == "g" else b)[key[1], key[2]] = value
        for key in touched_rhs:
            if key[0] == "ac":
                z_ac[key[1]] = self._fold_rhs_entry(key, replaced)

    # ------------------------------------------------------------------
    # Batched solving
    # ------------------------------------------------------------------
    def _solve_stack(self, stack: np.ndarray, rhs: np.ndarray,
                     label_of: Callable[[int], str],
                     s_values: np.ndarray) -> np.ndarray:
        """Solve a (K, N, N) stack, falling back per matrix on failure.

        ``label_of(k)`` names the variant of matrix k; it is only called
        to word the error of a singular matrix.
        """
        try:
            return np.linalg.solve(stack, rhs)[..., 0]
        except np.linalg.LinAlgError:
            out = np.empty((stack.shape[0], stack.shape[1]),
                           dtype=complex)
            for index in range(stack.shape[0]):
                try:
                    out[index] = np.linalg.solve(
                        stack[index], rhs[index][:, 0])
                except np.linalg.LinAlgError as exc:
                    raise SingularCircuitError(
                        f"{label_of(index)}: MNA matrix singular at "
                        f"s={s_values[index]!r}; check for floating "
                        "nodes, voltage-source loops or op-amps without "
                        "feedback") from exc
            return out

    def _check_block_args(self, freqs: np.ndarray,
                          variants: Sequence[VariantSpec],
                          input_source: Optional[str]) -> str:
        """Shared ``transfer_block`` validation; returns the source name."""
        if freqs.ndim != 1 or freqs.size == 0:
            raise SimulationError("frequency grid must be a non-empty "
                                  "1-D array")
        if np.any(freqs <= 0.0):
            raise SimulationError("AC analysis frequencies must be "
                                  "positive")
        if not variants:
            raise SimulationError("transfer_block needs >= 1 variant")
        source_name = input_source or self._circuit.ac_source_name()
        if source_name not in self._circuit:
            raise SimulationError(
                f"{self._circuit.name}: no component named "
                f"{source_name!r}")
        return source_name

    def transfer_block(self, output_node: str, freqs_hz: np.ndarray,
                       variants: Sequence[VariantSpec],
                       input_source: Optional[str] = None
                       ) -> ResponseBlock:
        freqs = np.asarray(freqs_hz, dtype=float)
        source_name = self._check_block_args(freqs, variants,
                                             input_source)

        num_variants = len(variants)
        num_freqs = freqs.size
        dim = self.system.dim
        labels: List[str] = []
        phasors = np.empty(num_variants, dtype=complex)

        # Materialise the variant matrix stacks: nominal copies with
        # only the replaced components' entries re-folded.
        g_stack = np.repeat(self._base_g[None, :, :], num_variants, axis=0)
        b_stack = np.repeat(self._base_b[None, :, :], num_variants, axis=0)
        z_stack = np.repeat(self._base_z_ac[None, :], num_variants, axis=0)
        for index, spec in enumerate(variants):
            labels.append(spec.name or self._circuit.name)
            if spec.replacements:
                self._variant_arrays(spec, g_stack[index], b_stack[index],
                                     z_stack[index])
            source = next((c for c in spec.replacements
                           if c.name == source_name),
                          self._circuit[source_name])
            phasors[index] = source_phasor(source, source_name)

        with TRACER.span("engine.solve", engine=self._dense_solve_kind,
                         freqs=num_freqs) as span:
            chunks_solved = 0
            s_all = 1j * TWO_PI * freqs
            solutions = np.empty((num_variants, num_freqs, dim),
                                 dtype=complex)
            bytes_per_matrix = 16 * dim * dim
            chunk = max(1, int(_STACK_MEMORY_BUDGET //
                               max(1, bytes_per_matrix)))
            variants_per_chunk = max(1, chunk // num_freqs)
            if variants_per_chunk > 1:
                # Fused path: several whole variants per stacked solve.
                for lo in range(0, num_variants, variants_per_chunk):
                    hi = min(lo + variants_per_chunk, num_variants)
                    count = (hi - lo) * num_freqs
                    stack = (g_stack[lo:hi, None, :, :] +
                             s_all[None, :, None, None] *
                             b_stack[lo:hi, None, :, :]).reshape(
                                 count, dim, dim)
                    rhs = np.ascontiguousarray(
                        np.broadcast_to(z_stack[lo:hi, None, :, None],
                                        (hi - lo, num_freqs, dim, 1))
                    ).reshape(count, dim, 1)
                    chunk_s = np.tile(s_all, hi - lo)
                    solved = self._solve_stack(
                        stack, rhs,
                        lambda k, lo=lo: labels[lo + k // num_freqs],
                        chunk_s)
                    solutions[lo:hi] = solved.reshape(hi - lo, num_freqs,
                                                      dim)
                    chunks_solved += 1
            else:
                # One variant at a time, frequencies chunked (the scalar
                # sweep's own shape) -- for grids too large to fuse.
                for index in range(num_variants):
                    rhs_row = z_stack[index]
                    for start in range(0, num_freqs, chunk):
                        stop = min(start + chunk, num_freqs)
                        s_values = s_all[start:stop]
                        stack = (g_stack[index][None, :, :] +
                                 s_values[:, None, None] *
                                 b_stack[index][None, :, :])
                        rhs = np.ascontiguousarray(np.broadcast_to(
                            rhs_row[None, :, None],
                            (stop - start, dim, 1)))
                        solved = self._solve_stack(
                            stack, rhs, lambda k, index=index: labels[index],
                            s_values)
                        solutions[index, start:stop] = solved
                        chunks_solved += 1

            for index in range(num_variants):
                if not np.all(np.isfinite(solutions[index])):
                    raise SingularCircuitError(
                        f"{labels[index]}: non-finite solution in AC sweep")

            out_index = self.system.node_index(output_node)
            if out_index < 0:
                values = np.zeros((num_variants, num_freqs), dtype=complex)
            else:
                values = solutions[:, :, out_index] / phasors[:, None]
            span.attrs.update(variants=num_variants, chunks=chunks_solved)
        return ResponseBlock(freqs, values, labels, output_node)


class FactoredMnaEngine(BatchedMnaEngine):
    """Factor-once / low-rank-update engine (Sherman-Morrison-Woodbury).

    Every fault variant only perturbs the handful of MNA entries its
    replaced component stamps, so ``A_v(s) = A(s) + U M(s) V.T`` with a
    tiny ``(r, c)`` block ``M(s) = delta_g + s * delta_b`` (``r``, ``c``
    <= ``max_rank``). Instead of one dense LU per variant per frequency
    (the batched path), this engine:

    1. solves the *nominal* system once per frequency against a shared
       multi-column RHS -- the stimulus vector plus one identity column
       per touched row (one LU amortised over all columns; optionally
       ``scipy.sparse`` ``splu`` on large circuits);
    2. forms each variant's ``r x r`` capacitance matrix
       ``C = I + M(s) * V.T A(s)^{-1} U`` and solves it **batched over
       same-support variant groups and frequencies**;
    3. combines ``x_v[out] = y0[out] - (A^{-1}U)[out] C^{-1} M y0[V]``
       -- the Woodbury identity evaluated only at the observed output.

    Numerics are guarded per variant: a capacitance matrix that is
    non-finite, near-singular or worse-conditioned than ``cond_limit``
    routes that variant to the inherited batched dense path (bitwise
    the historical result), as do updates wider than ``max_rank``.
    Stimulus-source replacements (RHS deltas) stay on the low-rank path
    via extra nominal columns at the touched RHS rows.

    Counters (``lowrank_updates``, ``lowrank_fallbacks``) accumulate
    across calls; each call's counts, mode and per-stage factor/update
    seconds are also attributes of its ``engine.solve`` span.
    """

    _kind = "factored"
    _dense_solve_kind = "factored_fallback"

    def __init__(self, circuit: Circuit, gmin: float = 0.0, *,
                 cond_limit: float = 1e8, max_rank: int = 8,
                 sparse: object = "auto",
                 sparse_min_dim: int = 50) -> None:
        super().__init__(circuit, gmin=gmin)
        if not cond_limit > 0.0:
            raise SimulationError("cond_limit must be positive")
        if max_rank < 1:
            raise SimulationError("max_rank must be >= 1")
        if sparse not in ("auto", True, False):
            raise SimulationError(
                f"sparse must be 'auto', True or False, got {sparse!r}")
        if sparse is True and lowrank.scipy_sparse() is None:
            raise SimulationError(
                f"{circuit.name}: sparse=True requires scipy; install "
                "it or use sparse='auto' for the numpy fallback")
        self.cond_limit = float(cond_limit)
        self.max_rank = int(max_rank)
        self.sparse_min_dim = int(sparse_min_dim)
        self._sparse_mode = sparse
        self._solver: Optional[NominalFactorSolver] = None
        #: Variants solved via low-rank updates, across all calls.
        self.lowrank_updates = 0
        #: Dense-fallback counts by reason, across all calls.
        self.lowrank_fallbacks: Dict[str, int] = {
            "conditioning": 0, "rank": 0, "nonfinite": 0}

    @property
    def uses_sparse(self) -> bool:
        """Whether nominal factorisation runs through scipy.sparse."""
        if self._sparse_mode == "auto":
            return lowrank.scipy_sparse() is not None and \
                self.system.dim >= self.sparse_min_dim
        return bool(self._sparse_mode)

    def _nominal_solver(self) -> NominalFactorSolver:
        if self._solver is None:
            self._solver = NominalFactorSolver(
                self._base_g, self._base_b, sparse=self.uses_sparse,
                label=self._circuit.name)
        return self._solver

    def transfer_block(self, output_node: str, freqs_hz: np.ndarray,
                       variants: Sequence[VariantSpec],
                       input_source: Optional[str] = None
                       ) -> ResponseBlock:
        freqs = np.asarray(freqs_hz, dtype=float)
        source_name = self._check_block_args(freqs, variants,
                                             input_source)
        num_variants = len(variants)
        num_freqs = freqs.size
        dim = self.system.dim

        labels: List[str] = []
        phasors = np.empty(num_variants, dtype=complex)
        deltas: List[Optional[LowRankDelta]] = [None] * num_variants
        fallback: Dict[int, str] = {}
        for index, spec in enumerate(variants):
            labels.append(spec.name or self._circuit.name)
            source = next((c for c in spec.replacements
                           if c.name == source_name),
                          self._circuit[source_name])
            phasors[index] = source_phasor(source, source_name)
            if not spec.replacements:
                continue
            delta = lowrank.variant_delta(
                self._ops, self._replacement_ops(spec))
            if delta.rank > self.max_rank:
                fallback[index] = "rank"
            else:
                deltas[index] = delta

        out_index = self.system.node_index(output_node)
        if out_index < 0:
            # Observing ground: every transfer is identically zero, no
            # solves needed (matches the batched result).
            return ResponseBlock(
                freqs, np.zeros((num_variants, num_freqs),
                                dtype=complex), labels, output_node)

        with TRACER.span("engine.solve", engine="factored",
                         freqs=num_freqs) as span:
            factor_seconds = 0.0
            update_seconds = 0.0
            chunks_solved = 0

            # Group low-rank variants by support signature so capacitance
            # solves batch over (variants in group) x (frequency chunk);
            # all deviations of one component share a signature.
            identity_indices: List[int] = []
            grouped: Dict[tuple, List[int]] = {}
            for index in range(num_variants):
                if index in fallback:
                    continue
                delta = deltas[index]
                if delta is None or delta.is_identity:
                    identity_indices.append(index)
                else:
                    grouped.setdefault(delta.signature, []).append(index)

            union_rows: List[int] = sorted(
                {row for signature in grouped for row in signature[0]} |
                {row for signature in grouped for row in signature[2]})
            cols_union: List[int] = sorted(
                {col for signature in grouped for col in signature[1]})
            union_pos = {row: i for i, row in enumerate(union_rows)}
            cols_pos = {col: i for i, col in enumerate(cols_union)}
            num_cols = len(union_rows)

            prepared = []
            for (rows, cols, rhs_rows), indices in grouped.items():
                group_deltas = [deltas[i] for i in indices]
                prepared.append((
                    np.asarray(indices, dtype=int),
                    np.asarray([union_pos[r] for r in rows], dtype=int),
                    np.asarray([cols_pos[c] for c in cols], dtype=int),
                    np.asarray([union_pos[r] for r in rhs_rows], dtype=int),
                    np.stack([d.delta_g for d in group_deltas]),
                    np.stack([d.delta_b for d in group_deltas]),
                    np.stack([d.rhs_delta for d in group_deltas])
                    if rhs_rows else None,
                    len(rows)))

            x_out = np.empty((num_variants, num_freqs), dtype=complex)
            if prepared or identity_indices:
                # Shared RHS: the stimulus vector plus one identity column
                # per touched (matrix or RHS) row.
                rhs_mat = np.zeros((dim, 1 + num_cols), dtype=complex)
                rhs_mat[:, 0] = self._base_z_ac
                for position, row in enumerate(union_rows):
                    rhs_mat[row, 1 + position] = 1.0
                solver = self._nominal_solver()
                s_all = 1j * TWO_PI * freqs
                bytes_per_freq = 16 * dim * \
                    (dim if not solver.sparse else 4 * (1 + num_cols))
                chunk = max(1, int(_STACK_MEMORY_BUDGET //
                                   max(1, bytes_per_freq)))
                for start in range(0, num_freqs, chunk):
                    stop = min(start + chunk, num_freqs)
                    s_chunk = s_all[start:stop]
                    tick = time.perf_counter()
                    solution = solver.solve(s_chunk, rhs_mat)
                    now = time.perf_counter()
                    factor_seconds += now - tick
                    tick = now
                    chunks_solved += 1
                    y0_out = solution[:, out_index, 0]
                    w_out = solution[:, out_index, 1:]
                    y0_cols = solution[:, cols_union, 0]
                    w_cols = solution[:, cols_union, 1:]
                    if identity_indices:
                        x_out[identity_indices, start:stop] = y0_out
                    for indices, rowsel, colsel, rhssel, mg, mb, dz, \
                            rank in prepared:
                        if dz is not None:
                            y0v_out = y0_out[None, :] + np.einsum(
                                "vR,fR->vf", dz, w_out[:, rhssel])
                            y0v_cols = y0_cols[None, :, colsel] + np.einsum(
                                "vR,fcR->vfc", dz,
                                w_cols[:, colsel][:, :, rhssel])
                        else:
                            y0v_out = y0_out[None, :]
                            y0v_cols = y0_cols[None, :, colsel]
                        if rank == 0:
                            # Pure RHS update (stimulus replacement): the
                            # matrix is nominal, no capacitance solve.
                            x_out[indices, start:stop] = y0v_out
                            continue
                        m_block = mg[:, None, :, :] + \
                            s_chunk[None, :, None, None] * mb[:, None, :, :]
                        s_block = w_cols[:, colsel][:, :, rowsel]
                        cap = np.eye(rank) + m_block @ s_block[None]
                        finite = np.isfinite(cap).all(axis=(-2, -1))
                        if not finite.all():
                            cap[~finite] = np.eye(rank)
                        smax, smin = lowrank.singular_bounds(cap)
                        bad = ~finite | (smin * self.cond_limit <=
                                         np.maximum(smax, 1.0))
                        if bad.any():
                            cap[bad] = np.eye(rank)
                            for local in np.nonzero(bad.any(axis=1))[0]:
                                fallback.setdefault(int(indices[local]),
                                                    "conditioning")
                        rhs_small = m_block @ y0v_cols[..., None]
                        t_small = lowrank.solve_capacitance(cap, rhs_small)
                        corr = np.einsum("fr,vfr->vf", w_out[:, rowsel],
                                         t_small)
                        x_out[indices, start:stop] = y0v_out - corr
                    update_seconds += time.perf_counter() - tick

            # A finite capacitance matrix can still overflow downstream;
            # route any non-finite low-rank row to the dense path too.
            for indices, *_ in prepared:
                for index in indices:
                    index = int(index)
                    if index not in fallback and \
                            not np.all(np.isfinite(x_out[index])):
                        fallback[index] = "nonfinite"

            values = x_out / phasors[:, None]
            fallback_indices = sorted(fallback)
            if fallback_indices:
                dense_block = BatchedMnaEngine.transfer_block(
                    self, output_node, freqs,
                    [variants[i] for i in fallback_indices], input_source)
                values[fallback_indices] = dense_block.values

            updates = sum(
                1 for indices, *_ in prepared for index in indices
                if int(index) not in fallback)
            self.lowrank_updates += updates
            reason_counts = {"conditioning": 0, "rank": 0, "nonfinite": 0}
            for reason in fallback.values():
                reason_counts[reason] += 1
            for reason, count in reason_counts.items():
                self.lowrank_fallbacks[reason] += count

            solver = self._solver
            span.attrs.update(
                variants=num_variants, chunks=chunks_solved,
                mode="sparse" if solver is not None and solver.sparse
                else "dense",
                rhs_columns=1 + num_cols, factor_seconds=factor_seconds,
                update_seconds=update_seconds, updates=updates,
                fallbacks=len(fallback),
                fallback_conditioning=reason_counts["conditioning"],
                fallback_rank=reason_counts["rank"],
                fallback_nonfinite=reason_counts["nonfinite"])
        return ResponseBlock(freqs, values, labels, output_node)


def make_engine(circuit: Circuit, kind: object = "batched",
                gmin: float = 0.0) -> SimulationEngine:
    """Engine factory keyed by :class:`PipelineConfig`'s ``engine`` knob.

    ``kind`` accepts any :meth:`EngineSpec.coerce` spelling: a plain
    name string (the historical API), a compact knob string, a dict or
    an :class:`EngineSpec`. A non-zero ``gmin`` argument overrides the
    spec's own ``gmin``.
    """
    spec = EngineSpec.coerce(kind)
    if gmin:
        spec = dataclasses.replace(spec, gmin=float(gmin))
    return spec.make(circuit)

