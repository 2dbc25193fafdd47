"""Modified Nodal Analysis (MNA) system assembly and solving.

For a linear circuit every stamp is affine in the complex frequency ``s``,
so the MNA matrix decomposes exactly as ``A(s) = G + s*B`` where

* ``G`` holds resistors, sources, controlled sources and op-amp constraints;
* ``B`` holds capacitor admittances (``+C``) and inductor branch terms
  (``-L``).

The builder assembles ``G``/``B`` and the AC stimulus vector once per
circuit; AC sweeps then solve through :func:`solve_stack`, the chunked
dense solve every simulation engine shares.

Unknown ordering: node voltages (ground eliminated) first, then branch
currents (voltage sources, inductors, VCVS/CCVS outputs, ideal op-amp
outputs, op-amp-macro internal VCVS), in component insertion order.

Op-amp macromodels are expanded on the fly into primitive stamps (input
resistance, a transconductance into an internal RC pole node, a unity
buffer VCVS and an output resistance); the two internal nodes are
namespaced ``<name>::pole`` and ``<name>::buf``.
"""

from __future__ import annotations

import cmath
import copy
import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuits.components import (
    CCCS,
    CCVS,
    Capacitor,
    CurrentSource,
    GROUND,
    IdealOpAmp,
    Inductor,
    OPAMP_MACRO_PARAMS,
    OpAmpMacro,
    Resistor,
    TwoTerminal,
    VCCS,
    VCVS,
    VoltageSource,
)
from ..circuits.netlist import Circuit
from ..errors import SimulationError, SingularCircuitError
from ..units import TWO_PI

__all__ = ["MnaSystem", "MnaSolution", "ComponentOps", "OPAMP_MACRO_GM",
           "ac_phasor", "solve_stack", "stamp_parameters",
           "parameter_value", "with_parameters"]

# Transconductance used when expanding the op-amp macromodel; the pole
# resistor is scaled as a0/gm so the DC open-loop gain is exactly a0.
OPAMP_MACRO_GM = 1e-3

# The matrix stacks handed to np.linalg.solve are chunked to roughly this
# many bytes: big enough to amortise the gufunc dispatch, small enough
# that the stack stays resident in cache across construction and
# factorisation (4 MB measured fastest on the benchmark circuits).
_STACK_MEMORY_BUDGET = 4 * 1024 * 1024  # bytes


def stamp_parameters(component) -> Tuple[str, ...]:
    """The value parameters of ``component`` a variant may change.

    Everything else a component carries (name, terminals, controlling
    source) fixes its stamp structure. Op-amp macromodels expose their
    :data:`OPAMP_MACRO_PARAMS`; independent sources their DC ``value``
    and AC stimulus; controlled sources their gain. A source's DC
    ``value`` is part of the circuit model (and so of its content hash)
    but does not change the AC response: only the stimulus is stamped.
    """
    if isinstance(component, OpAmpMacro):
        return OPAMP_MACRO_PARAMS
    if isinstance(component, (VoltageSource, CurrentSource)):
        return ("value", "ac_magnitude", "ac_phase_deg")
    if isinstance(component, TwoTerminal):
        return ("value",)
    if isinstance(component, (VCVS, CCCS)):
        return ("gain",)
    if isinstance(component, VCCS):
        return ("transconductance",)
    if isinstance(component, CCVS):
        return ("transresistance",)
    return ()


def parameter_value(component, param: str) -> float:
    """The value of one of ``component``'s :func:`stamp_parameters`."""
    if isinstance(component, OpAmpMacro):
        return component.params[param]
    return getattr(component, param)


def with_parameters(component, values: Mapping[str, float]):
    """Copy of ``component`` with some parameters replaced.

    Goes through the component constructor, so an invalid value raises
    the constructor's :class:`~repro.errors.ComponentError`.
    """
    if isinstance(component, OpAmpMacro):
        return dataclasses.replace(component,
                                   params={**component.params, **values})
    return dataclasses.replace(component, **values)


def ac_phasor(magnitude, phase_deg):
    """SPICE AC stimulus phasor ``magnitude * exp(j * phase)``.

    Array arguments give one phasor per element, each computed by the
    scalar expression so a phasor never depends on how many variants
    share the call.
    """
    if np.ndim(magnitude) == 0 and np.ndim(phase_deg) == 0:
        return magnitude * cmath.exp(1j * math.radians(phase_deg))
    magnitudes, phases = np.broadcast_arrays(magnitude, phase_deg)
    return np.array([float(m) * cmath.exp(1j * math.radians(float(p)))
                     for m, p in zip(magnitudes, phases)], dtype=complex)


def solve_stack(g: np.ndarray, b: np.ndarray, s_values: np.ndarray,
                rhs: np.ndarray, labels: Sequence[str]
                ) -> Tuple[np.ndarray, int]:
    """Solve ``(g[k] + s * b[k]) x = rhs[k]`` for every ``k`` and ``s``.

    ``g`` and ``b`` are ``(K, N, N)`` stacks, ``s_values`` the ``(F,)``
    complex frequencies and ``rhs`` a ``(K, N, M)`` stack. Returns the
    ``(K, F, N, M)`` solutions and the number of batched
    ``np.linalg.solve`` calls made. Each call stacks at most
    ``_STACK_MEMORY_BUDGET`` bytes of matrices (at least one matrix): a
    rectangle of whole ``k`` while all ``F`` frequencies of one ``k``
    fit, otherwise a slice of one ``k``'s frequencies. LAPACK solves
    every matrix on its own, so the chunking never changes a value.

    A singular matrix raises :class:`SingularCircuitError` naming its
    ``labels[k]`` and ``s`` (its chunk is retried matrix by matrix to
    find it); so does a non-finite solution.
    """
    count, dim = g.shape[:2]
    num_freqs = s_values.size
    per_chunk = max(1, _STACK_MEMORY_BUDGET // (16 * dim * dim))
    if per_chunk >= num_freqs:
        step = per_chunk // num_freqs
        chunks = [(low, low + step, 0, num_freqs)
                  for low in range(0, count, step)]
    else:
        chunks = [(k, k + 1, low, low + per_chunk) for k in range(count)
                  for low in range(0, num_freqs, per_chunk)]
    out = np.empty((count, num_freqs, dim, rhs.shape[-1]), dtype=complex)
    for k_lo, k_hi, f_lo, f_hi in chunks:
        s_chunk = s_values[f_lo:f_hi]
        # G + sB, built in one buffer (addition commutes bitwise).
        stack = s_chunk[None, :, None, None] * b[k_lo:k_hi, None]
        stack += g[k_lo:k_hi, None]
        try:
            out[k_lo:k_hi, f_lo:f_hi] = np.linalg.solve(
                stack, rhs[k_lo:k_hi, None])
        except np.linalg.LinAlgError:
            for k, f in np.ndindex(*stack.shape[:2]):
                try:
                    out[k_lo + k, f_lo + f] = np.linalg.solve(
                        stack[k, f], rhs[k_lo + k])
                except np.linalg.LinAlgError as exc:
                    raise SingularCircuitError(
                        f"{labels[k_lo + k]}: MNA matrix singular at "
                        f"s={complex(s_chunk[f])!r}; check for floating "
                        "nodes, voltage-source loops or op-amps without "
                        "feedback") from exc
    finite = np.isfinite(out).all(axis=(2, 3))
    if not finite.all():
        k, f = np.argwhere(~finite)[0]
        raise SingularCircuitError(
            f"{labels[k]}: non-finite solution at "
            f"s={complex(s_values[f])!r}")
    return out, len(chunks)


def _array_stand_in(component, params: Mapping[str, np.ndarray]):
    """Unvalidated copy of ``component`` whose ``params`` are arrays.

    Every stamp is elementwise arithmetic on parameter values, so
    stamping the stand-in yields one ``(K,)`` array per contribution --
    element ``k`` bitwise equal to stamping the component with the
    ``k``-th values. The caller validates the values.
    """
    stand_in = copy.copy(component)
    if isinstance(component, OpAmpMacro):
        object.__setattr__(stand_in, "params",
                           {**component.params, **params})
    else:
        for name, value in params.items():
            object.__setattr__(stand_in, name, value)
    return stand_in


class _RecordingSink:
    """Stamp sink that records a component's ordered contributions.

    Assembly replays them in order; the batched engine also reads them
    to learn which entries a component touches and with what values.
    """

    __slots__ = ("matrix_ops", "rhs_ops")

    def __init__(self) -> None:
        self.matrix_ops: List[Tuple[str, int, int, complex]] = []
        self.rhs_ops: List[Tuple[int, complex]] = []

    def add(self, target: str, row: int, col: int, value: complex) -> None:
        if row >= 0 and col >= 0:
            self.matrix_ops.append((target, row, col, value))

    def add_rhs(self, row: int, value: complex) -> None:
        if row >= 0:
            self.rhs_ops.append((row, value))


@dataclass(frozen=True)
class ComponentOps:
    """Ordered stamp contributions of one component.

    ``matrix_ops`` entries are ``(target, row, col, value)`` with target
    ``"g"`` or ``"b"``; ``rhs_ops`` entries are ``(row, value)`` AC
    stimulus contributions. Replaying every component's ops in circuit
    order, each an in-place ``+=`` on one entry, assembles the system.
    """

    matrix_ops: Tuple[Tuple[str, int, int, complex], ...]
    rhs_ops: Tuple[Tuple[int, complex], ...]


class MnaSystem:
    """Assembled small-signal AC system ``(G + s B) x = z`` of one circuit.

    ``z`` holds the sources' AC stimulus phasors. The circuit is
    validated first. :attr:`stamp_ops` maps every component name, in
    circuit order, to the :class:`ComponentOps` the system was
    assembled from.
    """

    def __init__(self, circuit: Circuit) -> None:
        circuit.validate()
        self.circuit = circuit

        self._node_index: Dict[str, int] = {}
        self._branch_index: Dict[str, int] = {}
        self._collect_unknowns()
        self.num_nodes = len(self._node_index)
        self.dim = self.num_nodes + len(self._branch_index)

        self._g = np.zeros((self.dim, self.dim), dtype=complex)
        self._b = np.zeros((self.dim, self.dim), dtype=complex)
        self._z = np.zeros(self.dim, dtype=complex)
        self._stamp_all()

    # ------------------------------------------------------------------
    # Unknown bookkeeping
    # ------------------------------------------------------------------
    def _collect_unknowns(self) -> None:
        def node(name: str) -> None:
            if name != GROUND and name not in self._node_index:
                self._node_index[name] = len(self._node_index)

        branch_names: List[str] = []
        for component in self.circuit:
            if isinstance(component, OpAmpMacro):
                node(component.in_positive)
                node(component.in_negative)
                node(component.output)
                node(f"{component.name}::pole")
                node(f"{component.name}::buf")
                branch_names.append(f"{component.name}::buffer")
                continue
            for terminal in component.nodes:
                node(terminal)
            if isinstance(component, (VoltageSource, Inductor, VCVS, CCVS,
                                      IdealOpAmp)):
                branch_names.append(component.name)
        for offset, name in enumerate(branch_names):
            self._branch_index[name] = len(self._node_index) + offset

    def node_index(self, name: str) -> int:
        """Row/column of a node voltage unknown; ``-1`` for ground."""
        if name == GROUND:
            return -1
        try:
            return self._node_index[name]
        except KeyError:
            raise SimulationError(
                f"{self.circuit.name}: unknown node {name!r}; "
                f"nodes: {sorted(self._node_index)}") from None

    def branch_index(self, name: str) -> int:
        """Row/column of a branch-current unknown."""
        try:
            return self._branch_index[name]
        except KeyError:
            raise SimulationError(
                f"{self.circuit.name}: no branch current for {name!r} "
                "(only voltage sources, inductors, VCVS/CCVS and op-amps "
                "carry branch unknowns)") from None

    @property
    def node_names(self) -> Tuple[str, ...]:
        return tuple(self._node_index)

    @property
    def branch_names(self) -> Tuple[str, ...]:
        return tuple(self._branch_index)

    # ------------------------------------------------------------------
    # Stamping
    # ------------------------------------------------------------------
    def _stamp_conductance(self, sink, target: str, positive: int,
                           negative: int, value: complex) -> None:
        sink.add(target, positive, positive, value)
        sink.add(target, negative, negative, value)
        sink.add(target, positive, negative, -value)
        sink.add(target, negative, positive, -value)

    def _stamp_all(self) -> None:
        self.stamp_ops: Dict[str, ComponentOps] = {
            component.name: self.component_ops(component)
            for component in self.circuit}
        matrices = {"g": self._g, "b": self._b}
        for ops in self.stamp_ops.values():
            for target, row, col, value in ops.matrix_ops:
                matrices[target][row, col] += value
            for row, value in ops.rhs_ops:
                self._z[row] += value

    def component_ops(self, component,
                      params: Optional[Mapping[str, np.ndarray]] = None
                      ) -> ComponentOps:
        """Ordered stamp contributions of ``component`` in this system.

        The component must be structurally compatible with this system's
        unknown indexing (same name, same terminals) -- e.g. the nominal
        component itself or a value-deviated replacement. ``params``
        maps some of its :func:`stamp_parameters` to ``(K,)`` value
        arrays: the op values then are arrays too, one element per
        variant. The batched engine uses these ops to delta-stamp a
        whole variant table without re-assembling the circuit.
        """
        if params:
            component = _array_stand_in(component, params)
        sink = _RecordingSink()
        self._stamp(component, sink)
        return ComponentOps(tuple(sink.matrix_ops), tuple(sink.rhs_ops))

    def _stamp(self, component, sink) -> None:
        if isinstance(component, Resistor):
            p = self.node_index(component.positive)
            n = self.node_index(component.negative)
            self._stamp_conductance(sink, "g", p, n, 1.0 / component.value)
        elif isinstance(component, Capacitor):
            p = self.node_index(component.positive)
            n = self.node_index(component.negative)
            self._stamp_conductance(sink, "b", p, n, component.value)
        elif isinstance(component, Inductor):
            p = self.node_index(component.positive)
            n = self.node_index(component.negative)
            k = self.branch_index(component.name)
            sink.add("g", p, k, 1.0)
            sink.add("g", n, k, -1.0)
            sink.add("g", k, p, 1.0)
            sink.add("g", k, n, -1.0)
            sink.add("b", k, k, -component.value)
        elif isinstance(component, VoltageSource):
            p = self.node_index(component.positive)
            n = self.node_index(component.negative)
            k = self.branch_index(component.name)
            sink.add("g", p, k, 1.0)
            sink.add("g", n, k, -1.0)
            sink.add("g", k, p, 1.0)
            sink.add("g", k, n, -1.0)
            sink.add_rhs(k, ac_phasor(component.ac_magnitude,
                                      component.ac_phase_deg))
        elif isinstance(component, CurrentSource):
            p = self.node_index(component.positive)
            n = self.node_index(component.negative)
            phasor = ac_phasor(component.ac_magnitude,
                               component.ac_phase_deg)
            sink.add_rhs(p, -phasor)
            sink.add_rhs(n, phasor)
        elif isinstance(component, VCVS):
            self._stamp_vcvs(sink, component.name, component.positive,
                             component.negative, component.ctrl_positive,
                             component.ctrl_negative, component.gain)
        elif isinstance(component, VCCS):
            self._stamp_vccs(sink, component.positive, component.negative,
                             component.ctrl_positive,
                             component.ctrl_negative,
                             component.transconductance)
        elif isinstance(component, CCVS):
            p = self.node_index(component.positive)
            n = self.node_index(component.negative)
            k = self.branch_index(component.name)
            j = self.branch_index(component.ctrl_source)
            sink.add("g", p, k, 1.0)
            sink.add("g", n, k, -1.0)
            sink.add("g", k, p, 1.0)
            sink.add("g", k, n, -1.0)
            sink.add("g", k, j, -component.transresistance)
        elif isinstance(component, CCCS):
            p = self.node_index(component.positive)
            n = self.node_index(component.negative)
            j = self.branch_index(component.ctrl_source)
            sink.add("g", p, j, component.gain)
            sink.add("g", n, j, -component.gain)
        elif isinstance(component, IdealOpAmp):
            inp = self.node_index(component.in_positive)
            inn = self.node_index(component.in_negative)
            out = self.node_index(component.output)
            k = self.branch_index(component.name)
            sink.add("g", out, k, 1.0)   # output supplies current
            sink.add("g", k, inp, 1.0)   # constraint V+ - V- = 0
            sink.add("g", k, inn, -1.0)
        elif isinstance(component, OpAmpMacro):
            self._stamp_opamp_macro(component, sink)
        else:
            raise SimulationError(
                f"no MNA stamp for component type "
                f"{type(component).__name__}")

    def _stamp_vcvs(self, sink, name: str, positive: str, negative: str,
                    ctrl_positive: str, ctrl_negative: str,
                    gain: float) -> None:
        p = self.node_index(positive)
        n = self.node_index(negative)
        cp = self.node_index(ctrl_positive)
        cn = self.node_index(ctrl_negative)
        k = self.branch_index(name)
        sink.add("g", p, k, 1.0)
        sink.add("g", n, k, -1.0)
        sink.add("g", k, p, 1.0)
        sink.add("g", k, n, -1.0)
        sink.add("g", k, cp, -gain)
        sink.add("g", k, cn, gain)

    def _stamp_vccs(self, sink, positive: str, negative: str,
                    ctrl_positive: str, ctrl_negative: str,
                    gm: float) -> None:
        p = self.node_index(positive)
        n = self.node_index(negative)
        cp = self.node_index(ctrl_positive)
        cn = self.node_index(ctrl_negative)
        sink.add("g", p, cp, gm)
        sink.add("g", p, cn, -gm)
        sink.add("g", n, cp, -gm)
        sink.add("g", n, cn, gm)

    def _stamp_opamp_macro(self, macro: OpAmpMacro, sink) -> None:
        """Expand the single-pole macromodel into primitive stamps.

        Rin across the inputs; gm*(V+ - V-) injected into the internal pole
        node loaded by Rp || Cp with ``Rp = a0/gm`` and
        ``Cp = 1/(2 pi pole_hz Rp)``; a unity VCVS buffers the pole node and
        Rout connects the buffer to the external output.
        """
        pole_node = f"{macro.name}::pole"
        buf_node = f"{macro.name}::buf"

        # Input resistance.
        inp = self.node_index(macro.in_positive)
        inn = self.node_index(macro.in_negative)
        self._stamp_conductance(sink, "g", inp, inn, 1.0 / macro.rin)
        # Transconductance into the pole node (current injected INTO the
        # node for positive differential input, hence output+ = ground).
        self._stamp_vccs(sink, GROUND, pole_node, macro.in_positive,
                         macro.in_negative, OPAMP_MACRO_GM)
        # Pole load.
        rp = macro.a0 / OPAMP_MACRO_GM
        cp = 1.0 / (TWO_PI * macro.pole_hz * rp)
        pole = self.node_index(pole_node)
        self._stamp_conductance(sink, "g", pole, -1, 1.0 / rp)
        self._stamp_conductance(sink, "b", pole, -1, cp)
        # Unity buffer and output resistance.
        self._stamp_vcvs(sink, f"{macro.name}::buffer", buf_node, GROUND,
                         pole_node, GROUND, 1.0)
        buf = self.node_index(buf_node)
        out = self.node_index(macro.output)
        self._stamp_conductance(sink, "g", buf, out, 1.0 / macro.rout)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    @property
    def g_matrix(self) -> np.ndarray:
        """The frequency-independent part of A(s) (copy)."""
        return self._g.copy()

    @property
    def b_matrix(self) -> np.ndarray:
        """The coefficient of s in A(s) (copy)."""
        return self._b.copy()

    def matrix_at(self, s: complex) -> np.ndarray:
        """Dense MNA matrix ``A(s) = G + s*B``."""
        return self._g + s * self._b

    def rhs(self) -> np.ndarray:
        """The AC stimulus vector ``z`` (copy)."""
        return self._z.copy()

    def solve_at(self, s: complex) -> "MnaSolution":
        """Solve the system at one complex frequency."""
        solution, _ = solve_stack(
            self._g[None], self._b[None], np.array([s], dtype=complex),
            self._z[None, :, None], (self.circuit.name,))
        return MnaSolution(self, solution[0, 0, :, 0])

    def solve_frequencies(self, freqs_hz: np.ndarray) -> np.ndarray:
        """Batched AC solve over a frequency grid.

        Returns an array of shape ``(len(freqs), dim)`` with the full
        unknown vector per frequency, solved through :func:`solve_stack`.
        """
        freqs = np.asarray(freqs_hz, dtype=float)
        if freqs.ndim != 1 or freqs.size == 0:
            raise SimulationError("frequency grid must be a non-empty 1-D "
                                  "array")
        if np.any(freqs <= 0.0):
            raise SimulationError("AC analysis frequencies must be positive")
        solutions, _ = solve_stack(
            self._g[None], self._b[None], 1j * TWO_PI * freqs,
            self._z[None, :, None], (self.circuit.name,))
        return solutions[0, :, :, 0]


@dataclass
class MnaSolution:
    """Solved MNA unknown vector with named accessors."""

    system: MnaSystem
    vector: np.ndarray

    def node_voltage(self, name: str) -> complex:
        """Voltage of a node (0 for ground)."""
        index = self.system.node_index(name)
        if index < 0:
            return 0.0 + 0.0j
        return complex(self.vector[index])

    def voltage_between(self, positive: str, negative: str) -> complex:
        return self.node_voltage(positive) - self.node_voltage(negative)

    def branch_current(self, name: str) -> complex:
        """Branch current of a source/inductor/op-amp output."""
        return complex(self.vector[self.system.branch_index(name)])

    def node_voltages(self) -> Dict[str, complex]:
        """All node voltages, ground included."""
        result = {GROUND: 0.0 + 0.0j}
        for name in self.system.node_names:
            result[name] = self.node_voltage(name)
        return result
