"""Simulation engines: stamp-once / solve-many AC analysis.

The scalar flow re-assembles an :class:`~repro.sim.mna.MnaSystem` per
faulty circuit: parse, validate, stamp, then solve a frequency sweep.
For a fault universe that repeats the assembly work hundreds of times on
circuits that differ from the nominal one only in component values.

A variant family is a :class:`VariantTable`: a ``(K, C)`` value matrix
over ``C`` ``(component, parameter)`` columns plus ``K`` row labels, so
``len(variants)`` is the row count. The table is the only variant
format: every engine's ``transfer_block`` takes one, and faults become
table rows through one rule, :meth:`VariantTable.of_faults`. This
module factors the "solve a family of value-deviated variants"
operation behind a :class:`SimulationEngine` protocol with three
implementations:

* :class:`ScalarMnaEngine` -- the reference: one circuit clone + one
  ``ACAnalysis`` per table row, each row's components built through
  their constructors (the test oracle);
* :class:`BatchedMnaEngine` -- stamps the nominal circuit once, records
  every component's ordered stamp contributions, and stamps a table
  column-wise: each component a column names is stamped once with
  ``(K,)`` parameter arrays, and every entry it touches is re-folded as
  an ordered sum of ``(K,)`` arrays (one fold path, no circuit
  re-parse, no per-variant Python); it then solves all variants x all
  grid frequencies in one :func:`~repro.sim.mna.solve_stack` call;
* :class:`FactoredMnaEngine` -- factors each *base* system once per
  frequency (the nominal, or on a :meth:`VariantTable.of_worlds` table
  each Monte-Carlo world's fault-free row) and solves every variant
  through batched Sherman-Morrison-Woodbury low-rank updates from its
  base (rows grouped by the columns in which they differ from their
  base, each update shape solved in one stacked pass), falling back to the
  batched dense path for rows whose update is ill-conditioned or too
  wide to pay. Optionally factors with ``scipy.sparse`` on large
  circuits (graceful numpy-dense fallback when scipy is absent).

Every dense ``A(s) = G + s B`` stack -- a scalar sweep, a batched table,
the factored engine's base systems -- is built, chunked, solved and
checked by :func:`~repro.sim.mna.solve_stack`: batched LAPACK calls of
at most ``_STACK_MEMORY_BUDGET`` (4 MB) of matrices each, whole
variants per call while all of one variant's frequencies fit, slices of
one variant's frequencies otherwise; a singular system is named by its
label and ``s``, and a non-finite solution is caught by one check.

Equivalence contract: the scalar and batched engines produce *bitwise
identical* response blocks. Each elementwise IEEE operation of the
batched stamp and fold is the operation the scalar stamper performs on
that variant, in the same accumulation order, and the same per-matrix
``A(s) = G + s B`` systems go through the same solve to the same LAPACK
routine, which solves each matrix of a batch on its own, so the chunking
never moves a bit. No tolerance is needed anywhere -- the test suite
asserts exact equality across the whole circuit library and on random
tables. The factored
engine computes the same transfers through an algebraically different
route, so its contract is *tight-tolerance* agreement with the scalar
reference (asserted across the registry and backstopped by the golden
suite), with the conditioning guard routing numerically risky updates
back onto the bitwise dense path.

All engines return a :class:`ResponseBlock`, a ``(n_variants, n_freqs)``
complex transfer matrix that lazily slices into the familiar
:class:`~repro.sim.ac.FrequencyResponse` objects.
"""

from __future__ import annotations

import dataclasses
import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Protocol, Sequence, \
    Tuple, runtime_checkable

import numpy as np

from ..circuits.components import (
    Capacitor,
    Component,
    Inductor,
    OpAmpMacro,
    Resistor,
)
from ..circuits.netlist import Circuit
from ..errors import ComponentError, SimulationError
from ..tracing import TRACER
from ..units import TWO_PI, db
from . import lowrank, mna
from .ac import ACAnalysis, FrequencyResponse, source_phasor
from .mna import ComponentOps, MnaSystem, parameter_value, \
    stamp_parameters, with_parameters

__all__ = [
    "VariantTable",
    "ResponseBlock",
    "SimulationEngine",
    "ScalarMnaEngine",
    "BatchedMnaEngine",
    "FactoredMnaEngine",
]

def _stamp_structure(component: Component) -> tuple:
    """Everything but the value parameters: type, name, terminals."""
    params = stamp_parameters(component)
    return (type(component),) + tuple(
        getattr(component, field.name)
        for field in dataclasses.fields(component)
        if field.name not in params and field.name != "params")


@dataclass(frozen=True, eq=False)
class VariantTable:
    """A family of circuit variants as one value table.

    ``columns`` names one ``(component, parameter)`` pair per column:
    ``value`` for two-terminal parts, one of
    :data:`~repro.circuits.components.OPAMP_MACRO_PARAMS` for an
    op-amp macromodel, the stimulus ``ac_magnitude`` / ``ac_phase_deg``
    of a source, the gain of a controlled source (see
    :func:`~repro.sim.mna.stamp_parameters`). ``values[k, c]`` is
    variant ``k``'s value of column ``c``; every parameter no column
    names keeps its nominal value. ``labels[k]`` names variant ``k``
    (its response label and the name its errors carry), so
    ``len(table)`` is the row count.

    The table is a plain value container; an engine checks it against
    its circuit (:meth:`bind`) before stamping.

    ``bases`` is ``None``, or -- on a table from :meth:`of_worlds` --
    a read-only ``(K,)`` index array naming each row's base row (a base
    row is its own base); a table derived by :meth:`take` or
    :meth:`with_columns` has none. The factored engine factors each
    base once and solves the other rows as low-rank updates from their
    base; the scalar and batched engines ignore it.
    """

    columns: Tuple[Tuple[str, str], ...]
    values: np.ndarray
    labels: Tuple[str, ...]
    bases: Optional[np.ndarray] = field(default=None, init=False,
                                        repr=False)

    def __post_init__(self) -> None:
        columns = tuple((name, param) for name, param in self.columns)
        labels = tuple(self.labels)
        values = np.array(self.values, dtype=float)
        if values.shape != (len(labels), len(columns)):
            raise SimulationError(
                f"variant table needs a ({len(labels)}, {len(columns)}) "
                f"value matrix, got {values.shape}")
        if len(set(columns)) != len(columns):
            twice = sorted({c for c in columns if columns.count(c) > 1})
            raise SimulationError(
                f"variant table names column(s) {twice} twice")
        values.flags.writeable = False
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def nominal(cls, label: str) -> "VariantTable":
        """One row, no columns: the nominal circuit named ``label``."""
        return cls((), np.empty((1, 0)), (label,))

    @classmethod
    def of_faults(cls, circuit: Circuit,
                  faults: Sequence) -> "VariantTable":
        """The golden circuit plus one row per fault.

        Row 0 is the fault-free circuit, labelled with the circuit
        name; row ``i + 1`` is ``faults[i]``, labelled
        ``<circuit>#<fault label>`` like the clone ``fault.apply``
        makes. A fault's row holds the stamp parameters its
        ``replacement_component(circuit)`` changes, in columns of first
        appearance; every other cell is the nominal value. A
        replacement of an unknown component, or one that changes a
        component's type or terminals (its stamp structure), raises
        :class:`SimulationError`.
        """
        columns: Dict[Tuple[str, str], int] = {}
        cells: List[Dict[int, float]] = []
        labels = [circuit.name]
        for fault in faults:
            label = f"{circuit.name}#{fault.label}"
            replacement = fault.replacement_component(circuit)
            name = replacement.name
            if name not in circuit:
                raise SimulationError(
                    f"{circuit.name}: variant {label} replaces unknown "
                    f"component {name!r}")
            nominal = circuit[name]
            if _stamp_structure(replacement) != _stamp_structure(nominal):
                raise SimulationError(
                    f"{circuit.name}: replacement for {name!r} "
                    "changes the stamp structure; delta-stamping "
                    "needs same-name, same-terminal replacements")
            row: Dict[int, float] = {}
            for param in stamp_parameters(nominal):
                value = parameter_value(replacement, param)
                if value != parameter_value(nominal, param):
                    row[columns.setdefault((name, param),
                                           len(columns))] = value
            cells.append(row)
            labels.append(label)
        keys = tuple(columns)
        values = np.tile(_nominal_values(circuit, keys),
                         (1 + len(cells), 1))
        for index, row in enumerate(cells, start=1):
            for column, value in row.items():
                values[index, column] = value
        return cls(keys, values, tuple(labels))

    @classmethod
    def of_worlds(cls, hypotheses: "VariantTable", scale: np.ndarray,
                  labels: Optional[Sequence[str]] = None
                  ) -> "VariantTable":
        """Every row of ``hypotheses`` in every Monte-Carlo world.

        ``scale`` is ``(W, T)``: world ``w`` multiplies the first ``T``
        columns of every hypothesis row by ``scale[w]``; the other
        columns keep the hypothesis value. Rows are world-major: row
        ``w * H + h`` is hypothesis ``h`` in world ``w``, labelled
        ``labels[w * H + h]`` (default ``<hypothesis label>@w<w>``).
        Hypothesis row 0 -- the fault-free row of :meth:`of_faults` --
        is each world's base, recorded in ``bases``.
        """
        scale = np.asarray(scale, dtype=float)
        count = len(hypotheses)
        if scale.ndim != 2 or scale.shape[1] > len(hypotheses.columns):
            raise SimulationError(
                f"world scale needs a (worlds, <= "
                f"{len(hypotheses.columns)}) matrix, got {scale.shape}")
        targets = scale.shape[1]
        worlds = np.repeat(hypotheses.values[None], scale.shape[0], axis=0)
        worlds[:, :, :targets] = \
            hypotheses.values[None, :, :targets] * scale[:, None, :]
        if labels is None:
            labels = [f"{label}@w{world}"
                      for world in range(scale.shape[0])
                      for label in hypotheses.labels]
        table = cls(hypotheses.columns,
                    worlds.reshape(-1, len(hypotheses.columns)), labels)
        bases = np.repeat(np.arange(0, len(table), count), count)
        bases.flags.writeable = False
        object.__setattr__(table, "bases", bases)
        return table

    def with_columns(self, circuit: Circuit,
                     columns: Sequence[Tuple[str, str]]
                     ) -> "VariantTable":
        """The table over ``columns`` followed by its own other
        columns; a column it did not have holds the nominal value."""
        order = tuple(dict.fromkeys(tuple(columns) + self.columns))
        values = np.tile(_nominal_values(circuit, order), (len(self), 1))
        values[:, [order.index(c) for c in self.columns]] = self.values
        return VariantTable(order, values, self.labels)

    def take(self, indices: Sequence[int]) -> "VariantTable":
        """The sub-table of the given rows, in the given order."""
        indices = np.asarray(indices, dtype=int)
        return VariantTable(self.columns, self.values[indices],
                            tuple(self.labels[i] for i in indices))

    def bind(self, circuit: Circuit) -> Dict[str, Dict[str, int]]:
        """Check the table against ``circuit``; map each component to
        its ``{parameter: column}``.

        A column naming an unknown component or a parameter the
        component does not have raises :class:`SimulationError`. A cell
        the component constructor rejects (e.g. a zero, negative, NaN
        or infinite resistance) raises that constructor's
        :class:`ComponentError`, prefixed with the first bad row's
        label.
        """
        bound: Dict[str, Dict[str, int]] = {}
        # Cells the component constructors may reject: a superset of
        # their checks, computed per kind of column; each constructor
        # then decides its flagged cells.
        positive: List[int] = []
        magnitude: List[int] = []
        for index, (name, param) in enumerate(self.columns):
            if name not in circuit:
                raise SimulationError(
                    f"{circuit.name}: variant table column "
                    f"{name}.{param} names unknown component {name!r}")
            component = circuit[name]
            allowed = stamp_parameters(component)
            if param not in allowed:
                raise SimulationError(
                    f"{circuit.name}: variant table column "
                    f"{name}.{param}: a {type(component).__name__} has "
                    f"no parameter {param!r}; expected one of {allowed}")
            bound.setdefault(name, {})[param] = index
            if isinstance(component, (Resistor, Capacitor, Inductor,
                                      OpAmpMacro)):
                positive.append(index)
            elif param == "ac_magnitude":
                magnitude.append(index)
        suspects = np.zeros(self.values.shape, dtype=bool)
        cells = self.values[:, positive]
        suspects[:, positive] = ~(cells > 0.0) | ~np.isfinite(cells)
        suspects[:, magnitude] = self.values[:, magnitude] < 0.0
        for row, index in np.argwhere(suspects):
            name, param = self.columns[index]
            try:
                with_parameters(circuit[name],
                                {param: float(self.values[row, index])})
            except ComponentError as exc:
                raise ComponentError(
                    f"{self.labels[row]}: {exc}") from None
        return bound


def _nominal_values(circuit: Circuit,
                    columns: Sequence[Tuple[str, str]]) -> np.ndarray:
    """The circuit's own value of every column."""
    return np.array([parameter_value(circuit[name], param)
                     for name, param in columns], dtype=float)


def _small_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over stacks of tiny matrices.

    An explicit sum over the short inner axis: on ``(..., 2, 2)``
    stacks ``np.matmul`` pays a per-matrix dispatch that costs several
    times the arithmetic.
    """
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for k in range(1, a.shape[-1]):
        out = out + a[..., :, k, None] * b[..., None, k, :]
    return out


def _row_groups(mask: np.ndarray) -> List[np.ndarray]:
    """The row indices of each distinct row of a boolean ``(K, C)``
    matrix: ``np.unique(axis=0)``'s grouping (in another order) without
    its per-row byte comparisons -- each row is read as 63-bit words
    and the rows are lexsorted."""
    words = np.stack([mask[:, start:start + 63] @ (1 << np.arange(
        min(63, mask.shape[1] - start), dtype=np.int64))
        for start in range(0, mask.shape[1], 63)] or [np.zeros(len(mask))])
    order = np.lexsort(words)
    ordered = words[:, order]
    bounds = [0, *(1 + np.flatnonzero((ordered[:, 1:] != ordered[:, :-1])
                                     .any(axis=0))).tolist(), len(mask)]
    return [order[low:high] for low, high in zip(bounds, bounds[1:])]


def _require_table(variants: VariantTable) -> VariantTable:
    """``variants`` itself, checked to be a non-empty table."""
    if not isinstance(variants, VariantTable):
        raise SimulationError(
            "transfer_block needs a VariantTable, got "
            f"{type(variants).__name__}")
    if not len(variants):
        raise SimulationError("transfer_block needs >= 1 variant")
    return variants


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
        # Label -> first position, built on the first lookup by label.
        self._index: Optional[Dict[str, int]] = None
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
            if self._index is None:
                self._index = {}
                for position, label in enumerate(self.labels):
                    self._index.setdefault(label, position)
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
                       variants: VariantTable,
                       input_source: Optional[str] = None
                       ) -> ResponseBlock: ...


class ScalarMnaEngine:
    """Reference engine: one full circuit assembly + sweep per variant.

    This is the historical code path (clone the netlist, build an
    :class:`ACAnalysis`, run ``solve_frequencies``) wrapped in the
    engine protocol. Each table row becomes a circuit whose bound
    components are rebuilt through their constructors
    (:func:`~repro.sim.mna.with_parameters`). It is the test oracle the
    batched engine is checked against bitwise; no configuration selects
    it.
    """

    def __init__(self, circuit: Circuit) -> None:
        self._circuit = circuit

    @property
    def circuit(self) -> Circuit:
        return self._circuit

    def transfer_block(self, output_node: str, freqs_hz: np.ndarray,
                       variants: VariantTable,
                       input_source: Optional[str] = None
                       ) -> ResponseBlock:
        freqs = np.asarray(freqs_hz, dtype=float)
        table = _require_table(variants)
        bound = table.bind(self._circuit)
        with TRACER.span("engine.solve", engine="scalar",
                         freqs=int(freqs.size)) as span:
            values = np.empty((len(table), freqs.size), dtype=complex)
            for row, label in enumerate(table.labels):
                replaced = {
                    name: with_parameters(self._circuit[name], {
                        param: float(table.values[row, column])
                        for param, column in params.items()})
                    for name, params in bound.items()}
                circuit = Circuit(label, [replaced.get(c.name, c)
                                          for c in self._circuit])
                values[row] = ACAnalysis(circuit).transfer(
                    output_node, freqs, input_source).values
            span.attrs.update(variants=len(table), chunks=len(table))
        return ResponseBlock(freqs, values, table.labels, output_node)


class BatchedMnaEngine:
    """Stamp-once / solve-many engine over a fixed nominal circuit.

    Construction assembles the nominal MNA system and records every
    component's ordered stamp contributions. A variant table is stamped
    column-wise: each component a column names is stamped once with
    ``(K,)`` parameter arrays, and each entry it touches is re-folded
    as an ordered sum of ``(K,)`` arrays -- in the exact accumulation
    order of a fresh assembly, so every variant matrix is
    bitwise-identical to re-stamping that variant's circuit. All
    variant x frequency systems are then solved by
    :func:`~repro.sim.mna.solve_stack`, the chunked dense solve the
    scalar sweep runs too (same stack, same per-matrix LAPACK call),
    which names a singular variant by its row label.
    """

    #: Span label for engine construction (``engine.stamp``).
    _kind = "batched"
    #: Span label for the dense ``transfer_block`` solve
    #: (``engine.solve``); the factored subclass relabels its fallback
    #: calls so dashboards can tell main-path from fallback work.
    _dense_solve_kind = "batched"

    def __init__(self, circuit: Circuit) -> None:
        with TRACER.span("engine.stamp", engine=self._kind,
                         circuit=circuit.name) as span:
            self._circuit = circuit
            self.system = MnaSystem(circuit)
            # The assembled nominal arrays.
            self._base_g = self.system.g_matrix
            self._base_b = self.system.b_matrix
            self._base_z = self.system.rhs()
            # Per-component ordered stamp ops + per-entry contribution
            # streams: entry -> [(component, op position), ...] in stamp
            # order. Re-folding a stream with some components' values
            # swapped reproduces a fresh assembly of that entry bitwise.
            self._ops: Dict[str, ComponentOps] = self.system.stamp_ops
            self._matrix_streams: Dict[Tuple[str, int, int],
                                       List[Tuple[str, int]]] = {}
            self._rhs_streams: Dict[int, List[Tuple[str, int]]] = {}
            # Per component: the distinct entries it touches.
            self._touched_matrix: Dict[str, Tuple[Tuple[str, int, int],
                                                  ...]] = {}
            self._touched_rhs: Dict[str, Tuple[int, ...]] = {}
            for name, ops in self._ops.items():
                for position, (target, row, col, _) in \
                        enumerate(ops.matrix_ops):
                    self._matrix_streams.setdefault(
                        (target, row, col), []).append((name, position))
                for position, (row, _) in enumerate(ops.rhs_ops):
                    self._rhs_streams.setdefault(row, []).append(
                        (name, position))
                self._touched_matrix[name] = tuple(
                    dict.fromkeys(op[:3] for op in ops.matrix_ops))
                self._touched_rhs[name] = tuple(
                    dict.fromkeys(op[0] for op in ops.rhs_ops))
            span.attrs["dim"] = self.system.dim

    @property
    def circuit(self) -> Circuit:
        return self._circuit

    # ------------------------------------------------------------------
    # Delta-stamping
    # ------------------------------------------------------------------
    def _stamp_columns(self, table: VariantTable,
                       bound: Dict[str, Dict[str, int]],
                       rows: Optional[np.ndarray] = None
                       ) -> Dict[str, ComponentOps]:
        """Ops of every bound component, stamped with its columns'
        ``(K,)`` values (all rows, or just ``rows``)."""
        values = table.values if rows is None else table.values[rows]
        return {name: self.system.component_ops(
                    self._circuit[name],
                    {param: values[:, column]
                     for param, column in params.items()})
                for name, params in bound.items()}

    def _fold(self, stream: List[Tuple[str, int]], field: str,
              stamped: Dict[str, ComponentOps],
              count: int) -> np.ndarray:
        """Re-accumulate one entry for every variant, in fresh-assembly
        order: element ``k`` is the scalar fold of variant ``k``."""
        total = np.zeros(count, dtype=complex)
        for name, position in stream:
            ops = stamped.get(name) or self._ops[name]
            total = total + getattr(ops, field)[position][-1]
        return total

    def _stamp_table(self, table: VariantTable,
                     bound: Dict[str, Dict[str, int]]
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(K, N, N)`` G/B stacks and ``(K, N)`` AC RHS stack."""
        count = len(table)
        g_stack = np.repeat(self._base_g[None, :, :], count, axis=0)
        b_stack = np.repeat(self._base_b[None, :, :], count, axis=0)
        z_stack = np.repeat(self._base_z[None, :], count, axis=0)
        stamped = self._stamp_columns(table, bound)
        for key in dict.fromkeys(key for name in stamped
                                 for key in self._touched_matrix[name]):
            target, row, col = key
            (g_stack if target == "g" else b_stack)[:, row, col] = \
                self._fold(self._matrix_streams[key], "matrix_ops",
                           stamped, count)
        for row in dict.fromkeys(row for name in stamped
                                 for row in self._touched_rhs[name]):
            z_stack[:, row] = self._fold(
                self._rhs_streams[row], "rhs_ops", stamped, count)
        return g_stack, b_stack, z_stack

    def _phasors(self, table: VariantTable,
                 bound: Dict[str, Dict[str, int]],
                 source_name: str) -> np.ndarray:
        """Each variant's stimulus phasor (the response normaliser)."""
        source = self._circuit[source_name]
        columns = bound.get(source_name, {})
        stimulus = {param: table.values[:, columns[param]]
                    for param in ("ac_magnitude", "ac_phase_deg")
                    if param in columns}
        phasors = source_phasor(source, source_name,
                                stimulus.get("ac_magnitude"),
                                stimulus.get("ac_phase_deg"))
        return np.broadcast_to(np.asarray(phasors, dtype=complex),
                               (len(table),))

    def _check_block_args(self, freqs: np.ndarray,
                          variants: VariantTable,
                          input_source: Optional[str]
                          ) -> Tuple[VariantTable, str]:
        """Shared ``transfer_block`` validation; returns the variant
        table and the source name."""
        if freqs.ndim != 1 or freqs.size == 0:
            raise SimulationError("frequency grid must be a non-empty "
                                  "1-D array")
        if np.any(freqs <= 0.0):
            raise SimulationError("AC analysis frequencies must be "
                                  "positive")
        table = _require_table(variants)
        source_name = input_source or self._circuit.ac_source_name()
        if source_name not in self._circuit:
            raise SimulationError(
                f"{self._circuit.name}: no component named "
                f"{source_name!r}")
        return table, source_name

    def transfer_block(self, output_node: str, freqs_hz: np.ndarray,
                       variants: VariantTable,
                       input_source: Optional[str] = None
                       ) -> ResponseBlock:
        freqs = np.asarray(freqs_hz, dtype=float)
        num_freqs = freqs.size
        with TRACER.span("engine.solve", engine=self._dense_solve_kind,
                         freqs=num_freqs) as span:
            # Materialise the variant matrix stacks: nominal copies with
            # only the bound components' entries re-folded.
            tick = time.perf_counter()
            table, source_name = self._check_block_args(
                freqs, variants, input_source)
            bound = table.bind(self._circuit)
            g_stack, b_stack, z_stack = self._stamp_table(table, bound)
            phasors = self._phasors(table, bound, source_name)
            assemble_seconds = time.perf_counter() - tick
            num_variants = len(table)
            labels = table.labels

            solutions, chunks_solved = mna.solve_stack(
                g_stack, b_stack, 1j * TWO_PI * freqs, z_stack[:, :, None],
                labels)
            out_index = self.system.node_index(output_node)
            if out_index < 0:
                values = np.zeros((num_variants, num_freqs), dtype=complex)
            else:
                values = solutions[:, :, out_index, 0] / phasors[:, None]
            span.attrs.update(variants=num_variants, chunks=chunks_solved,
                              columns=len(table.columns),
                              assemble_seconds=assemble_seconds)
        return ResponseBlock(freqs, values, labels, output_node)


class FactoredMnaEngine(BatchedMnaEngine):
    """Factor-once / low-rank-update engine (Sherman-Morrison-Woodbury).

    Every fault variant only perturbs the handful of MNA entries its
    replaced component stamps, so ``A_v(s) = A(s) + U M(s) V.T`` with a
    tiny ``(r, c)`` block ``M(s) = delta_g + s * delta_b`` (``r``, ``c``
    <= ``max_rank``). ``A`` is the variant's *base* system: the nominal
    circuit, or -- on a table with recorded ``bases``
    (:meth:`VariantTable.of_worlds`) -- the variant's own base row, so a
    Monte-Carlo world's fault rows are rank-<=2 updates of that world's
    fault-free row. Instead of one dense LU per variant per frequency
    (the batched path), this engine:

    1. solves every base system once per frequency against a
       multi-column RHS -- the base's stimulus vector plus one identity
       column per touched row (one LU amortised over all columns;
       optionally ``scipy.sparse`` ``splu`` on large circuits);
    2. forms each variant's ``r x r`` capacitance matrix
       ``C = I + M(s) * V.T A(s)^{-1} U`` and solves it in **one
       stacked pass per update shape** (``r``, ``c``, RHS rows) and
       frequency chunk;
    3. combines ``x_v[out] = y0[out] - (A^{-1}U)[out] C^{-1} M y0[V]``
       -- the Woodbury identity evaluated only at the observed output.

    Numerics are guarded per variant: a capacitance matrix that is
    non-finite, near-singular or worse-conditioned than ``cond_limit``
    routes that variant to the inherited batched dense path (bitwise
    the historical result), as do updates wider than ``max_rank`` or
    too wide to pay on a small circuit (:attr:`_rank_limit`).
    Stimulus-source replacements (RHS deltas) stay on the low-rank path
    via extra base columns at the touched RHS rows.

    The routing of a table's rows is derived once and reused by later
    calls on the same table while it lives. Counters (``lowrank_updates``,
    ``lowrank_fallbacks``) accumulate across calls; each call's counts,
    mode, per-stage seconds, update passes and whether the routing was
    reused are also attributes of its ``engine.solve`` span.

    This is the engine :class:`~repro.core.atpg.FaultTrajectoryATPG`
    builds for every pipeline stage; there is no other to select.
    """

    _kind = "factored"
    _dense_solve_kind = "factored_fallback"

    def __init__(self, circuit: Circuit, *,
                 cond_limit: float = 1e8, max_rank: int = 8,
                 sparse: object = "auto",
                 sparse_min_dim: int = 50) -> None:
        super().__init__(circuit)
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
        #: Variants solved via low-rank updates, across all calls.
        self.lowrank_updates = 0
        #: Dense-fallback counts by reason, across all calls.
        self.lowrank_fallbacks: Dict[str, int] = {
            "conditioning": 0, "rank": 0, "nonfinite": 0}
        #: Each live table's plan, derived once; dropped with the table.
        self._plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @property
    def uses_sparse(self) -> bool:
        """Whether base factorisation runs through scipy.sparse."""
        if self._sparse_mode == "auto":
            # The dimension first: a small circuit never imports scipy.
            return self.system.dim >= self.sparse_min_dim and \
                lowrank.scipy_sparse() is not None
        return bool(self._sparse_mode)

    @property
    def _rank_limit(self) -> int:
        """The widest update solved low-rank (wider rows go dense).

        Ranks 1 and 2 have closed-form bounds and solves. A wider
        capacitance matrix needs a batched SVD per (row, frequency)
        for its conditioning bound, which pays only while the rank
        stays under a quarter of the dimension: on RC ladders (200
        rows, 3-14 frequencies) a rank-3 update cost 1.5-2.2x the dense
        solve at dim 7 and broke even at dim 12, and a rank-5 one was
        2.2-2.6x cheaper at dim 27.
        """
        return min(self.max_rank, max(2, self.system.dim // 4))

    def _plan(self, table: VariantTable,
              bound: Dict[str, Dict[str, int]]) -> "_LowRankPlan":
        """Route every row of ``table`` and stack its low-rank updates.

        Without recorded bases the nominal circuit is the one base;
        otherwise each distinct base row is stamped on the batched path.
        Rows are grouped by their set of columns that differ from their
        base, and each group's delta is one array expression over its
        rows (:func:`~repro.sim.lowrank.table_delta`). A group that
        changes nothing is identity rows, one wider than
        :attr:`_rank_limit` goes dense, and the others are stacked into
        one :class:`_UpdatePass` per update shape.
        """
        if table.bases is None:
            of_base = np.zeros(len(table), dtype=np.intp)
            base_g, base_b, base_z = \
                self._base_g[None], self._base_b[None], self._base_z[None]
            reference = _nominal_values(self._circuit, table.columns)
        else:
            rows, of_base = np.unique(table.bases, return_inverse=True)
            base_g, base_b, base_z = self._stamp_table(table.take(rows),
                                                       bound)
            reference = table.values[table.bases]
        changed = table.values != reference
        identity: List[np.ndarray] = []
        too_wide: List[np.ndarray] = []
        shapes: Dict[Tuple[int, int, int], list] = {}
        for rows in _row_groups(changed):
            columns = set(np.flatnonzero(changed[rows[0]]).tolist())
            touched = {name: params for name, params in bound.items()
                       if columns.intersection(params.values())}
            delta = None if not touched else lowrank.table_delta(
                self._ops if table.bases is None else
                self._stamp_columns(table, touched, table.bases[rows]),
                self._stamp_columns(table, touched, rows), rows.size,
                self._rank_limit)
            if touched and delta is None:
                too_wide.append(rows)
            elif not touched or not (delta[0] or delta[2]):
                identity.append(rows)
            else:
                shapes.setdefault(tuple(map(len, delta[:3])), []).append(
                    (rows,) + delta)

        # Per base: its stimulus vector plus one identity column per
        # touched (matrix or RHS) row.
        union = sorted({row for groups in shapes.values()
                        for group in groups for row in group[1] + group[3]})
        rhs = np.zeros(base_z.shape + (1 + len(union),), dtype=complex)
        rhs[:, :, 0] = base_z
        rhs[:, union, np.arange(1, 1 + len(union))] = 1.0
        passes = []
        for groups in shapes.values():
            rows = np.concatenate([group[0] for group in groups])
            touched, cols, stimulus = (
                np.repeat(np.array([group[i] for group in groups],
                                   dtype=np.intp).T,
                          [group[0].size for group in groups], axis=1)
                for i in (1, 2, 3))
            passes.append(_UpdatePass(
                rows, of_base[rows], 1 + np.searchsorted(union, touched),
                cols, 1 + np.searchsorted(union, stimulus),
                np.concatenate([group[4] for group in groups], axis=3),
                np.concatenate([group[5] for group in groups], axis=1)))
        empty = np.empty(0, dtype=np.intp)
        return _LowRankPlan(bound, of_base.reshape(-1), base_g,
                            base_b, rhs, np.concatenate(identity or [empty]),
                            np.concatenate(too_wide or [empty]),
                            tuple(passes))

    def _update(self, update: "_UpdatePass", solution: np.ndarray,
                out_index: int, s_chunk: np.ndarray,
                fallback: Dict[int, str]) -> np.ndarray:
        """The output of every row of one update pass on one frequency
        chunk: ``x[out] = y0[out] - (A^{-1}U)[out] C^{-1} M y0[V]``
        from the chunk's ``(F, nb, N, m)`` base solutions.

        A row whose capacitance matrix is non-finite or fails the
        conditioning guard at any frequency is recorded in
        ``fallback``.
        """
        # Per-row gathers of the base solutions. Each array is stored
        # with the small matrix axes outermost, so every (row, frequency)
        # plane is contiguous, and is presented to the formulas as a
        # (V, F, ...) view.
        sol = solution.transpose(1, 2, 3, 0)            # (nb, N, m, F)
        bases, touched, cols = update.bases, update.touched, update.cols
        dz = update.rhs_delta.T if update.rhs.size else None
        y0_out = sol[bases, out_index, 0]
        if dz is not None:
            y0_out = y0_out + np.einsum(
                "vR,vfR->vf", dz,
                sol[bases, out_index, update.rhs].transpose(1, 2, 0))
        rank = len(touched)
        if rank == 0:
            # Pure RHS update (stimulus replacement): the matrix is the
            # base's, no capacitance solve.
            return y0_out
        y0_cols = sol[bases, cols, 0].transpose(1, 2, 0)
        if dz is not None:
            y0_cols = y0_cols + np.einsum(
                "vR,vfcR->vfc", dz, sol[bases, cols[:, None], update.rhs]
                .transpose(2, 3, 0, 1))
        m_block = (update.delta[0, ..., None] + s_chunk *
                   update.delta[1, ..., None]).transpose(2, 3, 0, 1)
        cap = np.eye(rank) + _small_matmul(
            m_block, sol[bases, cols[:, None], touched].transpose(2, 3, 0, 1))
        finite = np.isfinite(cap).all(axis=(-2, -1))
        if not finite.all():
            cap[~finite] = np.eye(rank)
        smax, smin = lowrank.singular_bounds(cap)
        bad = ~finite | (smin * self.cond_limit <= np.maximum(smax, 1.0))
        if bad.any():
            cap[bad] = np.eye(rank)
            for row in update.rows[bad.any(axis=1)].tolist():
                fallback.setdefault(row, "conditioning")
        rhs_small = _small_matmul(m_block, y0_cols[..., None])
        t_small = lowrank.solve_capacitance(cap, rhs_small)
        corr = np.einsum(
            "vfr,vfr->vf", sol[bases, out_index, touched].transpose(1, 2, 0),
            t_small)
        return y0_out - corr

    def transfer_block(self, output_node: str, freqs_hz: np.ndarray,
                       variants: VariantTable,
                       input_source: Optional[str] = None
                       ) -> ResponseBlock:
        freqs = np.asarray(freqs_hz, dtype=float)
        table, source_name = self._check_block_args(freqs, variants,
                                                    input_source)
        plan = self._plans.get(table)
        reused = plan is not None
        bound = plan.bound if reused else table.bind(self._circuit)
        phasors = self._phasors(table, bound, source_name)
        num_variants = len(table)
        num_freqs = freqs.size
        dim = self.system.dim
        labels = table.labels

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
            update_passes = 0

            # Route and stack the rows once per table; a later call on
            # the same table (the exact dictionary after the dense one)
            # reuses the plan.
            tick = time.perf_counter()
            if not reused:
                plan = self._plans[table] = self._plan(table, bound)
            assemble_seconds = time.perf_counter() - tick
            fallback: Dict[int, str] = dict.fromkeys(
                plan.too_wide.tolist(), "rank")
            nonfinite: set = set()
            identity = plan.identity
            x_out = np.zeros((num_variants, num_freqs), dtype=complex)
            sparse = self.uses_sparse
            num_bases, _, num_columns = plan.rhs.shape
            if plan.passes or identity.size:
                solver = lowrank.FactorSolver(
                    plan.base_g, plan.base_b, sparse=sparse,
                    label=self._circuit.name)
                s_all = 1j * TWO_PI * freqs
                # Frequency chunks under the dense solve's budget; each
                # chunk's base solutions feed every update pass.
                bytes_per_freq = 16 * dim * num_bases * \
                    (dim if not sparse else 4 * num_columns)
                chunk = max(1, int(mna._STACK_MEMORY_BUDGET //
                                   max(1, bytes_per_freq)))
                for start in range(0, num_freqs, chunk):
                    stop = min(start + chunk, num_freqs)
                    s_chunk = s_all[start:stop]
                    tick = time.perf_counter()
                    solution = solver.solve(s_chunk, plan.rhs)
                    now = time.perf_counter()
                    factor_seconds += now - tick
                    tick = now
                    chunks_solved += 1
                    if identity.size:
                        x_out[identity, start:stop] = solution[
                            :, plan.of_base[identity], out_index, 0].T
                    for update in plan.passes:
                        out = self._update(update, solution, out_index,
                                           s_chunk, fallback)
                        x_out[update.rows, start:stop] = out
                        nonfinite.update(update.rows[
                            ~np.isfinite(out).all(axis=1)].tolist())
                    update_passes += len(plan.passes)
                    update_seconds += time.perf_counter() - tick

            # A finite capacitance matrix can still overflow downstream;
            # route any non-finite low-rank row to the dense path too.
            for index in nonfinite:
                fallback.setdefault(index, "nonfinite")

            values = x_out / phasors[:, None]
            fallback_indices = sorted(fallback)
            if fallback_indices:
                dense_block = BatchedMnaEngine.transfer_block(
                    self, output_node, freqs, table.take(fallback_indices),
                    input_source)
                values[fallback_indices] = dense_block.values

            # Conditioning and non-finite fallbacks are low-rank rows.
            updates = sum(update.rows.size for update in plan.passes) - \
                sum(reason != "rank" for reason in fallback.values())
            self.lowrank_updates += updates
            reasons = list(fallback.values())
            reason_counts = {reason: reasons.count(reason)
                             for reason in self.lowrank_fallbacks}
            for reason, count in reason_counts.items():
                self.lowrank_fallbacks[reason] += count

            span.attrs.update(
                variants=num_variants, chunks=chunks_solved,
                mode="sparse" if sparse else "dense", bases=num_bases,
                rhs_columns=num_columns, columns=len(table.columns),
                assemble_seconds=assemble_seconds,
                factor_seconds=factor_seconds,
                update_seconds=update_seconds, updates=updates,
                update_passes=update_passes, groups_reused=reused,
                fallbacks=len(fallback),
                fallback_conditioning=reason_counts["conditioning"],
                fallback_rank=reason_counts["rank"],
                fallback_nonfinite=reason_counts["nonfinite"])
        return ResponseBlock(freqs, values, labels, output_node)


@dataclass(frozen=True, eq=False)
class _UpdatePass:
    """Every low-rank row of one update shape (support rows, support
    columns, RHS rows), stacked: row ``v`` is table row ``rows[v]``,
    solved from base ``bases[v]``; ``touched[:, v]`` / ``rhs[:, v]`` are
    the base-solution columns of its touched matrix and RHS rows,
    ``cols[:, v]`` its touched matrix columns, and ``delta[..., v]`` /
    ``rhs_delta[:, v]`` its deltas (:func:`~repro.sim.lowrank.table_delta`).
    """

    rows: np.ndarray
    bases: np.ndarray
    touched: np.ndarray
    cols: np.ndarray
    rhs: np.ndarray
    delta: np.ndarray
    rhs_delta: np.ndarray


@dataclass(frozen=True, eq=False)
class _LowRankPlan:
    """A table's routing on the factored engine, kept for reuse while
    the table lives: the bound table, each row's base, the base systems
    and their ``(nb, N, m)`` right-hand sides (stimulus, then one
    identity column per touched row), the identity rows, the rows that
    go dense and the low-rank passes."""

    bound: Dict[str, Dict[str, int]]
    of_base: np.ndarray
    base_g: np.ndarray
    base_b: np.ndarray
    rhs: np.ndarray
    identity: np.ndarray
    too_wide: np.ndarray
    passes: Tuple[_UpdatePass, ...]
