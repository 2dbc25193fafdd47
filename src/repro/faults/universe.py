"""Fault universe construction: the set of faults a test must diagnose.

Section 2.1: the fault-simulation process builds, from the original
circuit, a set of faulty circuits *"inserting faults on all its components
(systematic % deviation on its values) within a given range"*. A
:class:`FaultUniverse` is that enumerated set plus iteration helpers;
:meth:`FaultUniverse.variants` hands it to the simulation engines as
one variant table, golden row first, one row per fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..circuits.components import OpAmpMacro, TwoTerminal
from ..circuits.netlist import Circuit
from ..errors import FaultError
from .models import (
    CatastrophicFault,
    Fault,
    OpAmpParamFault,
    ParametricFault,
    paper_deviation_grid,
)

__all__ = ["FaultUniverse", "parametric_universe",
           "catastrophic_universe", "synthesize_universe"]


@dataclass(frozen=True)
class FaultUniverse:
    """An ordered, label-unique collection of faults for one circuit."""

    circuit: Circuit
    faults: Tuple[Fault, ...]

    def __post_init__(self) -> None:
        labels = [fault.label for fault in self.faults]
        duplicates = {label for label in labels if labels.count(label) > 1}
        if duplicates:
            raise FaultError(
                f"duplicate fault labels in universe: {sorted(duplicates)}")
        for fault in self.faults:
            if fault.component not in self.circuit:
                raise FaultError(
                    f"fault {fault.label} targets missing component "
                    f"{fault.component!r}")

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(fault.label for fault in self.faults)

    @property
    def components(self) -> Tuple[str, ...]:
        """Distinct fault-target components, in first-appearance order."""
        seen: Dict[str, None] = {}
        for fault in self.faults:
            seen.setdefault(fault.component, None)
        return tuple(seen)

    def by_component(self) -> Dict[str, Tuple[Fault, ...]]:
        """Faults grouped per target component (insertion order kept)."""
        groups: Dict[str, List[Fault]] = {}
        for fault in self.faults:
            groups.setdefault(fault.component, []).append(fault)
        return {name: tuple(faults) for name, faults in groups.items()}

    def faulty_circuits(self) -> Iterator[Tuple[Fault, Circuit]]:
        """Yield ``(fault, faulty_circuit)`` pairs -- fault simulation."""
        for fault in self.faults:
            yield fault, fault.apply(self.circuit)

    def variants(self) -> "VariantTable":
        """The golden circuit plus the universe, as one engine table
        (:meth:`~repro.sim.engine.VariantTable.of_faults`).

        Row 0 is the fault-free circuit (labelled with the circuit
        name); row ``i + 1`` is fault ``i``, labelled like the faulty
        circuit clones ``fault.apply`` produces, so engine responses
        carry the same labels as the scalar fault simulation. Memoised:
        the universe is immutable, and a pipeline run builds several
        dictionaries (dense grid, exact test vector) from the same
        universe.
        """
        cached = getattr(self, "_variants_cache", None)
        if cached is None:
            from ..sim.engine import VariantTable
            cached = VariantTable.of_faults(self.circuit, self.faults)
            object.__setattr__(self, "_variants_cache", cached)
        return cached

    def restricted_to(self, components: Sequence[str]) -> "FaultUniverse":
        """Sub-universe containing only faults on the given components."""
        wanted = set(components)
        missing = wanted - set(self.components)
        if missing:
            raise FaultError(
                f"universe has no faults on {sorted(missing)}")
        return FaultUniverse(
            self.circuit,
            tuple(f for f in self.faults if f.component in wanted))


def parametric_universe(circuit: Circuit,
                        components: Optional[Sequence[str]] = None,
                        deviations: Optional[Sequence[float]] = None,
                        include_opamp_params: bool = False
                        ) -> FaultUniverse:
    """The paper's universe: every component deviated over the grid.

    ``components`` defaults to all passives; ``deviations`` defaults to the
    paper grid (+/-10 % ... +/-40 %). With ``include_opamp_params`` the
    macromodel parameters of every :class:`OpAmpMacro` get the same grid
    (the paper's active-device model).
    """
    targets = tuple(components) if components else circuit.passive_names
    if not targets:
        raise FaultError(f"{circuit.name}: no fault targets")
    grid = tuple(deviations) if deviations is not None \
        else paper_deviation_grid()
    if not grid:
        raise FaultError("deviation grid is empty")
    if any(abs(d) < 1e-12 for d in grid):
        raise FaultError(
            "deviation grid must not contain 0 (that is the golden "
            "circuit, stored separately)")

    faults: List[Fault] = []
    for name in targets:
        component = circuit[name]
        if not isinstance(component, TwoTerminal):
            raise FaultError(
                f"{name!r} is not a two-terminal passive; pass "
                "include_opamp_params=True for active devices instead")
        for deviation in grid:
            faults.append(ParametricFault(name, float(deviation)))
    if include_opamp_params:
        for component in circuit.components_of_type(OpAmpMacro):
            for param in sorted(component.params):
                for deviation in grid:
                    faults.append(OpAmpParamFault(component.name, param,
                                                  float(deviation)))
    return FaultUniverse(circuit, tuple(faults))


def catastrophic_universe(circuit: Circuit,
                          components: Optional[Sequence[str]] = None
                          ) -> FaultUniverse:
    """Open + short fault per component (hard-fault extension)."""
    targets = tuple(components) if components else circuit.passive_names
    if not targets:
        raise FaultError(f"{circuit.name}: no fault targets")
    faults: List[Fault] = []
    for name in targets:
        faults.append(CatastrophicFault(name, "open"))
        faults.append(CatastrophicFault(name, "short"))
    return FaultUniverse(circuit, tuple(faults))


def synthesize_universe(info, deviations: Optional[Sequence[float]] = None,
                        include_catastrophic: bool = False,
                        max_targets: Optional[int] = None,
                        seed: int = 0) -> FaultUniverse:
    """Fault universe for a generated circuit (corpus runner path).

    Builds the paper's parametric universe over the circuit's
    ``faultable`` components (a :class:`~repro.circuits.library.
    CircuitInfo` is expected), optionally appending open/short
    catastrophic faults per target. ``max_targets`` deterministically
    caps the number of fault-target components -- large generated
    ladders would otherwise blow the dictionary up quadratically with
    circuit size. The cap picks an evenly-spread, seed-shuffled subset
    via ``numpy.random.default_rng((seed, ...))``, so the same
    ``(circuit, seed)`` always yields the same universe.
    """
    targets = tuple(info.faultable)
    if not targets:
        raise FaultError(f"{info.circuit.name}: no faultable components")
    if max_targets is not None:
        if max_targets < 1:
            raise FaultError("max_targets must be >= 1")
        if len(targets) > max_targets:
            import numpy as np
            rng = np.random.default_rng((int(seed), 0xFA17))
            chosen = sorted(rng.choice(len(targets), size=max_targets,
                                       replace=False).tolist())
            targets = tuple(targets[index] for index in chosen)
    universe = parametric_universe(info.circuit, components=targets,
                                   deviations=deviations)
    if include_catastrophic:
        hard = catastrophic_universe(info.circuit, components=targets)
        universe = FaultUniverse(info.circuit,
                                 universe.faults + hard.faults)
    return universe
