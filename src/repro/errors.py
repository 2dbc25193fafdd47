"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so a
caller embedding the pipeline can catch one type. Subclasses are grouped by
subsystem: circuit construction, netlist parsing, simulation, fault handling,
and the GA/diagnosis layers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CircuitError(ReproError):
    """Invalid circuit construction (duplicate names, bad nodes, ...)."""


class ComponentError(CircuitError):
    """Invalid component definition (non-positive value, bad terminals)."""


class NetlistParseError(CircuitError):
    """A SPICE-like netlist file/string could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None,
                 line: str | None = None) -> None:
        location = f" (line {line_number}: {line!r})" if line_number else ""
        super().__init__(f"{message}{location}")
        self.line_number = line_number
        self.line = line


class SimulationError(ReproError):
    """The simulator could not produce a result."""


class SingularCircuitError(SimulationError):
    """The MNA matrix is singular.

    Usually caused by a floating node (no DC path to ground), a loop of
    ideal voltage sources, or an op-amp without feedback at DC.
    """


class FaultError(ReproError):
    """Invalid fault specification or injection target."""


class DictionaryError(ReproError):
    """Fault dictionary construction, persistence or lookup failed."""


class FamilyError(CircuitError):
    """A parameterised circuit-family generator could not produce a
    well-posed circuit.

    Carries the family name and seed so fleet-scale corpus runs can
    report exactly which generated instance failed.
    """

    def __init__(self, message: str, family: str | None = None,
                 seed: int | None = None) -> None:
        context = ""
        if family is not None:
            context = f" [family={family}" + \
                (f" seed={seed}]" if seed is not None else "]")
        super().__init__(f"{message}{context}")
        self.family = family
        self.seed = seed


class CorpusError(ReproError):
    """A corpus spec is invalid or a corpus run could not complete."""


class TrajectoryError(ReproError):
    """Trajectory construction or geometry query failed."""


class GAError(ReproError):
    """Genetic-algorithm configuration or execution error."""


class DiagnosisError(ReproError):
    """Diagnosis could not be performed (empty trajectory set, ...)."""


class StoreError(ReproError):
    """Artifact-store persistence or lookup failed."""


class ServiceError(ReproError):
    """The diagnosis service could not handle a request."""


class ServiceOverloadedError(ServiceError):
    """Backpressure refused a request (pending queue at capacity).

    Raised by the async serving front when ``overflow="reject"`` and
    more than ``max_pending`` requests are already queued or in flight.
    Clients should retry with backoff.
    """


class CodecError(ServiceError):
    """A serving-layer request/response payload could not be
    encoded or decoded."""


class ClusterError(ServiceError):
    """The diagnosis cluster could not route or serve a request."""


class ReplicaUnavailableError(ClusterError):
    """A cluster replica is unreachable or failed mid-request.

    The cluster catches this internally to re-route the request onto
    the next replica of the hash ring; it only reaches the caller when
    every replica that could own the circuit is down.
    """


class ReplicaTimeoutError(ReplicaUnavailableError):
    """A replica did not answer within the request timeout.

    The replica may simply be saturated, not dead: the cluster
    re-routes the affected request to the next ring replica but does
    NOT mark the slow replica down -- only failed transport or a
    failed health probe does that.
    """
