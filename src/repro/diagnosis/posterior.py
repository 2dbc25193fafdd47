"""Tolerance-aware probabilistic diagnosis + adaptive test selection.

The paper's classifier is a *hard* nearest-trajectory decision, but real
analog components live inside tolerance bands: a measured point near a
trajectory may be produced by several faults once every healthy
component is allowed to wander a few percent. This module turns each
fault component's trajectory (plus the fault-free "golden" hypothesis)
into a *sampled response-surface distribution*:

1. **Monte-Carlo tolerance sampling through the engine.** Each of
   ``n_samples`` draws perturbs every faultable component by a random
   relative ``eps`` from the tolerance model -- one "world". Within a
   world, every fault hypothesis additionally applies its deviation on
   top, so each component's trajectory is re-simulated under that
   world's tolerances. All hypotheses share the draw (common random
   numbers), and each sample batch rides one
   :meth:`~repro.sim.engine.SimulationEngine.transfer_block` call as a
   family of multi-replacement :class:`~repro.sim.engine.VariantSpec`
   variants -- the batched/factored engine does the solving,
   NumPy-native, no external inference framework.
2. **Posterior via importance weighting over the sampled surface.** A
   measured signature point is scored, per world, against every
   hypothesis's perturbed trajectory polyline using the paper's own
   interior-preferred segment distance (exactly the hard classifier's
   candidate rule); each world contributes an importance weight
   ``exp(-d^2 / 2 h^2)`` with kernel bandwidth ``h`` equal to the
   configured measurement noise. The normalised per-hypothesis weight
   sums are the posterior fault probabilities -- aggregated per
   component plus a fault-free outcome, summing to one, instead of a
   single label. With ``tolerance -> 0`` every world collapses onto the
   nominal trajectories and the posterior argmax reproduces the hard
   classifier's winner (same masked distances, same stable
   tie-breaking).
3. **Adaptive test selection.** Candidate measurement frequencies (a
   log grid over the circuit's band plus the existing test vector) are
   ranked by *expected information gain*: the expected drop in
   posterior entropy from observing the response there, computed from
   moment-matched per-hypothesis Gaussians with fixed Gauss--Hermite
   quadrature. Everything after the build is deterministic -- no
   request-time randomness -- so results are bitwise-reproducible under
   a fixed seed.

All sampling happens once at build time; a diagnosis request is pure
(and cheap) NumPy against the cached sample tensors.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits.library import CircuitInfo
from ..errors import DiagnosisError, ReproError
from ..faults.models import ParametricFault
from ..faults.universe import FaultUniverse
from ..sim.engine import (EngineSpec, SimulationEngine, VariantSpec,
                          make_engine)
from ..trajectory.geometry import _EPS
from ..trajectory.mapping import SignatureMapper
from ..units import db_to_linear

__all__ = [
    "FAULT_FREE_LABEL",
    "PosteriorConfig",
    "PosteriorDiagnosis",
    "PosteriorDiagnoser",
]

#: Label of the fault-free outcome in posterior probability lists.
FAULT_FREE_LABEL = "golden"

#: Distributions the tolerance model understands.
TOLERANCE_DISTRIBUTIONS = ("uniform", "normal")

#: Gauss--Hermite order for the expected-information-gain quadrature.
_GH_ORDER = 7

#: Bandwidth / standard-deviation floor: keeps the kernels proper even
#: in the zero-tolerance, zero-noise limit (where the posterior must
#: collapse onto the hard classifier's decision).
_SIGMA_FLOOR = 1e-9

#: JSON keys of the worker-pool knobs the configs no longer have.
#: Persisted pipeline/posterior configs (and corpus specs) still carry
#: them, so ``from_json_dict`` accepts and drops them.
RETIRED_WORKER_KEYS = frozenset(
    ("n_workers", "executor", "ga_workers", "ga_executor", "parallelism"))


@dataclass(frozen=True)
class PosteriorConfig:
    """Tolerance model + sampling knobs for the probabilistic tier.

    ``tolerance`` is the relative component tolerance (0.05 = 5 %);
    ``distribution`` draws perturbations ``uniform`` on ``[-tol, +tol]``
    or ``normal`` with sigma ``tol`` (clipped to keep values positive).
    ``noise_db`` is the measurement noise a signature coordinate
    carries, in the mapper's signature units -- it sets the importance
    kernel bandwidth. ``n_candidates`` log-spaced frequencies over the
    circuit's band are ranked (together with the test vector itself) by
    expected information gain. ``samples_per_block`` bounds how many
    Monte-Carlo worlds share one engine ``transfer_block`` call; every
    tolerance draw comes from the root seed up front, so the block size
    never changes the result.

    ``engine`` optionally pins the simulation engine
    (:class:`~repro.sim.engine.EngineSpec`, or a spec string such as
    ``"factored:cond_limit=1e6"``); ``None`` inherits the engine the
    diagnoser was handed (the pipeline's warm engine via
    :meth:`PosteriorDiagnoser.from_atpg`, else batched).
    """

    n_samples: int = 64
    tolerance: float = 0.05
    distribution: str = "uniform"
    noise_db: float = 0.05
    n_candidates: int = 12
    samples_per_block: int = 32
    seed: int = 0
    engine: Optional[EngineSpec] = None

    def __post_init__(self) -> None:
        if self.engine is not None:
            object.__setattr__(self, "engine",
                               EngineSpec.coerce(self.engine))
        if self.n_samples < 1:
            raise DiagnosisError(
                f"n_samples must be >= 1, got {self.n_samples}")
        if not 0.0 <= self.tolerance < 1.0:
            raise DiagnosisError(
                f"tolerance must be in [0, 1), got {self.tolerance}")
        if self.distribution not in TOLERANCE_DISTRIBUTIONS:
            raise DiagnosisError(
                f"distribution must be one of {TOLERANCE_DISTRIBUTIONS}, "
                f"got {self.distribution!r}")
        if self.noise_db < 0.0:
            raise DiagnosisError(
                f"noise_db must be >= 0, got {self.noise_db}")
        if self.n_candidates < 1:
            raise DiagnosisError(
                f"n_candidates must be >= 1, got {self.n_candidates}")
        if self.samples_per_block < 1:
            raise DiagnosisError(
                f"samples_per_block must be >= 1, "
                f"got {self.samples_per_block}")

    # ------------------------------------------------------------------
    # JSON round-trip (retired worker keys are accepted and dropped).
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out.pop("engine")
        if self.engine is not None:
            out["engine"] = self.engine.to_json_value()
        return out

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "PosteriorConfig":
        payload = {key: value for key, value in data.items()
                   if key not in RETIRED_WORKER_KEYS}
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ReproError(
                f"bad posterior-config dict: {exc}") from exc


@dataclass(frozen=True)
class PosteriorDiagnosis:
    """Probabilistic outcome for one measured signature point.

    ``probabilities`` maps the fault-free label plus every fault-target
    component to its posterior probability, descending (exact ties
    break by nearest sampled surface, then label order); they sum to
    one. ``component`` is the argmax.
    ``expected_deviation`` is the posterior-mean fault deviation of the
    winning component (0.0 when the winner is fault-free).
    ``test_ranking`` lists candidate measurement frequencies with their
    expected information gain in bits, most informative first.
    """

    component: str
    probabilities: Tuple[Tuple[str, float], ...]
    entropy_bits: float
    expected_deviation: float
    test_ranking: Tuple[Tuple[float, float], ...]
    n_samples: int

    @property
    def probability(self) -> float:
        """Posterior probability of the winning component."""
        return self.probabilities[0][1]

    def summary(self) -> str:
        top = ", ".join(f"{name} {prob:.1%}"
                        for name, prob in self.probabilities[:3])
        best_freq, best_gain = self.test_ranking[0]
        return (f"posterior [{top}] entropy {self.entropy_bits:.3f} b, "
                f"next measure {best_freq:.4g} Hz "
                f"(+{best_gain:.3f} b expected)")


@dataclass
class _WorldSpec:
    """Everything the build needs to simulate sample blocks."""

    circuit: object
    output_node: str
    input_source: Optional[str]
    grid: np.ndarray
    targets: Tuple[str, ...]
    nominal: Dict[str, object]
    fault_repl: Tuple[object, ...]
    fault_labels: Tuple[str, ...]
    eps: np.ndarray


def _world_variant(spec: _WorldSpec, fault_index: Optional[int],
                   sample: int) -> VariantSpec:
    """World ``sample`` with fault ``fault_index`` applied
    (``None`` = the world's fault-free circuit)."""
    base = dict(spec.nominal)
    extra = None
    if fault_index is not None:
        faulty = spec.fault_repl[fault_index]
        if faulty.name in base:
            base[faulty.name] = faulty
        else:
            extra = faulty
    parts = [base[name].with_value(
                 base[name].value * (1.0 + spec.eps[sample, j]))
             for j, name in enumerate(spec.targets)]
    if extra is not None:
        parts.append(extra)
    label = FAULT_FREE_LABEL if fault_index is None else \
        spec.fault_labels[fault_index]
    return VariantSpec(
        tuple(parts),
        name=f"{spec.circuit.name}#posterior:{label}:s{sample}")


def _run_world_block(spec: _WorldSpec, engine: SimulationEngine,
                     out: np.ndarray, start: int, stop: int
                     ) -> Optional[np.ndarray]:
    """Simulate samples ``[start, stop)`` into ``out``.

    One ``transfer_block`` call per block; per world, the fault-free
    circuit plus every fault. The nominal (tolerance-free) reference
    rides the first block and is returned as the golden row.
    """
    samples = range(start, stop)
    include_nominal = start == 0
    n_faults = len(spec.fault_repl)
    variants: List[VariantSpec] = []
    if include_nominal:
        variants.append(VariantSpec(name=spec.circuit.name))
    for sample in samples:
        variants.append(_world_variant(spec, None, sample))
        variants.extend(_world_variant(spec, index, sample)
                        for index in range(n_faults))
    block = engine.transfer_block(spec.output_node, spec.grid, variants,
                                  spec.input_source)
    values = block.magnitude_db()
    rows_per_sample = 1 + n_faults
    offset = 1 if include_nominal else 0
    for position, sample in enumerate(samples):
        out[:, sample, :] = values[
            offset + position * rows_per_sample:
            offset + (position + 1) * rows_per_sample]
    return values[0].copy() if include_nominal else None


class PosteriorDiagnoser:
    """Sampled-response-surface posterior over a fault universe.

    Build cost: one Monte-Carlo sweep of
    ``(1 + n_faults) * n_samples + 1`` engine variants (chunked into
    sample batches). Request cost: pure NumPy segment projection +
    quadrature against the cached tensors, deterministic given the
    build.
    """

    def __init__(self, info: CircuitInfo, universe: FaultUniverse,
                 mapper: SignatureMapper,
                 config: Optional[PosteriorConfig] = None,
                 engine: Optional[SimulationEngine] = None) -> None:
        self.info = info
        self.config = config or PosteriorConfig()
        self.mapper = mapper
        if self.config.engine is not None:
            # An explicit engine pin on the config beats the inherited
            # (warm) engine: the caller asked for these numerics.
            self._engine = make_engine(info.circuit, self.config.engine)
        elif engine is not None:
            self._engine = engine
        else:
            self._engine = make_engine(info.circuit, "batched")

        faults = [fault for fault in universe.faults
                  if isinstance(fault, ParametricFault)]
        if not faults:
            raise DiagnosisError(
                f"{info.circuit.name}: posterior diagnosis needs a "
                "parametric fault universe (no parametric faults found)")
        components: List[str] = []
        for fault in faults:
            if fault.component not in components:
                components.append(fault.component)
        if FAULT_FREE_LABEL in components:
            raise DiagnosisError(
                f"component name {FAULT_FREE_LABEL!r} collides with the "
                "fault-free hypothesis label")
        self._faults: Tuple[ParametricFault, ...] = tuple(faults)
        #: Posterior outcome labels: fault-free first, then every fault
        #: component in trajectory (first-appearance) order.
        self.component_labels: Tuple[str, ...] = \
            (FAULT_FREE_LABEL,) + tuple(components)
        self.n_samples = self.config.n_samples

        self._build()

    @classmethod
    def from_atpg(cls, result, config: Optional[PosteriorConfig] = None
                  ) -> "PosteriorDiagnoser":
        """Build from a pipeline :class:`~repro.core.atpg.ATPGResult`,
        reusing its fault universe, mapper and (warm) engine."""
        return cls(result.info, result.universe, result.mapper,
                   config=config, engine=result.engine)

    # ------------------------------------------------------------------
    # Build: Monte-Carlo sample the response surface through the engine
    # ------------------------------------------------------------------
    def _build(self) -> None:
        info, config = self.info, self.config
        mapper = self.mapper
        test_freqs = np.asarray(mapper.test_freqs_hz, dtype=float)
        candidates = np.geomspace(info.f_min_hz, info.f_max_hz,
                                  config.n_candidates)
        grid = np.unique(np.concatenate([test_freqs, candidates]))
        test_idx = np.searchsorted(grid, test_freqs)
        self._cand_freqs = grid

        # Tolerance draws: one eps row per Monte-Carlo world, one
        # column per faultable component -- shared by every hypothesis
        # (common random numbers), drawn up front so results do not
        # depend on the block chunking.
        rng = np.random.default_rng(config.seed)
        targets = tuple(info.faultable)
        if config.distribution == "uniform":
            eps = rng.uniform(-config.tolerance, config.tolerance,
                              size=(config.n_samples, len(targets)))
        else:
            eps = np.clip(
                rng.normal(0.0, config.tolerance,
                           size=(config.n_samples, len(targets))),
                -0.95, 0.95)

        circuit = info.circuit
        nominal = {name: circuit[name] for name in targets}
        fault_repl = [fault.replacement_component(circuit)
                      for fault in self._faults]
        n_faults = len(self._faults)

        rows_per_sample = 1 + n_faults
        spec = _WorldSpec(
            circuit=circuit, output_node=info.output_node,
            input_source=info.input_source, grid=grid, targets=targets,
            nominal=nominal, fault_repl=tuple(fault_repl),
            fault_labels=tuple(fault.label for fault in self._faults),
            eps=eps)
        mag_db = np.empty((rows_per_sample, config.n_samples, grid.size))
        golden_db = None
        for start in range(0, config.n_samples, config.samples_per_block):
            stop = min(start + config.samples_per_block, config.n_samples)
            row = _run_world_block(spec, self._engine, mag_db, start, stop)
            if row is not None:
                golden_db = row
        assert golden_db is not None
        #: Engine variants simulated during the build (telemetry).
        self.samples_simulated = rows_per_sample * config.n_samples + 1

        # Signature-space anchors at the test vector (the same scale /
        # golden-relative transform the hard classifier uses), per
        # world: row 0 is the world's fault-free anchor, rows 1.. its
        # fault anchors.
        anchors = self._to_signature(mag_db[:, :, test_idx],
                                     golden_db[test_idx])
        self._golden_points = anchors[0]                   # (M, D)
        self._assemble_segments(anchors)

        # Moment-matched per-hypothesis Gaussians at every candidate
        # frequency, for the information-gain quadrature: the fault-free
        # hypothesis pools its per-world responses, each component pools
        # its faults' responses across worlds.
        cand = self._to_signature(mag_db, golden_db)       # (R, M, G)
        floor = max(config.noise_db, _SIGMA_FLOOR)
        n_outcomes = len(self.component_labels)
        self._cand_mean = np.empty((n_outcomes, grid.size))
        self._cand_sigma = np.empty((n_outcomes, grid.size))
        fault_outcome = np.array(
            [self.component_labels.index(f.component)
             for f in self._faults])
        for outcome in range(n_outcomes):
            if outcome == 0:
                pool = cand[0]
            else:
                rows = 1 + np.flatnonzero(fault_outcome == outcome)
                pool = cand[rows].reshape(-1, grid.size)
            self._cand_mean[outcome] = pool.mean(axis=0)
            self._cand_sigma[outcome] = np.maximum(pool.std(axis=0),
                                                   floor)

        nodes, weights = np.polynomial.hermite.hermgauss(_GH_ORDER)
        self._gh_nodes = math.sqrt(2.0) * nodes
        self._gh_weights = weights / math.sqrt(math.pi)
        self._bandwidth = floor

    def _assemble_segments(self, anchors: np.ndarray) -> None:
        """Per-world trajectory polylines as flat segment tensors.

        Mirrors :meth:`TrajectorySet.all_segments`: each component's
        anchors ordered by ascending deviation (its world's fault-free
        anchor standing in for deviation 0), consecutive pairs forming
        segments, components stacked in trajectory order.
        """
        by_component: Dict[str, List[Tuple[float, int]]] = {}
        for index, fault in enumerate(self._faults):
            by_component.setdefault(fault.component, []).append(
                (fault.deviation, 1 + index))
        starts: List[np.ndarray] = []
        ends: List[np.ndarray] = []
        dev0: List[float] = []
        dev1: List[float] = []
        offsets: List[int] = []
        for component in self.component_labels[1:]:
            pairs = sorted(by_component[component],
                           key=lambda item: item[0])
            deviations = [dev for dev, _ in pairs]
            rows = [row for _, row in pairs]
            if 0.0 not in deviations:
                position = int(np.searchsorted(deviations, 0.0))
                deviations.insert(position, 0.0)
                rows.insert(position, 0)
            offsets.append(len(dev0))
            for left in range(len(rows) - 1):
                starts.append(anchors[rows[left]])
                ends.append(anchors[rows[left + 1]])
                dev0.append(deviations[left])
                dev1.append(deviations[left + 1])
        # (S, M, D) stacked -> (M, S, D) worlds-major for projection.
        self._seg_starts = np.stack(starts, axis=1)        # (M, S, D)
        self._seg_ends = np.stack(ends, axis=1)
        self._seg_dev0 = np.array(dev0)                    # (S,)
        self._seg_dev1 = np.array(dev1)
        self._group_offsets = np.array(offsets, dtype=int)
        direction = self._seg_ends - self._seg_starts
        self._seg_direction = direction
        self._seg_length_sq = np.sum(direction * direction, axis=2)
        self._seg_safe = np.where(self._seg_length_sq > _EPS,
                                  self._seg_length_sq, 1.0)

    def _to_signature(self, db_values: np.ndarray,
                      golden_db: np.ndarray) -> np.ndarray:
        """Apply the mapper's scale / golden-relative transform."""
        values = np.asarray(db_values, dtype=float)
        golden = np.asarray(golden_db, dtype=float)
        if self.mapper.scale != "db":
            values = np.asarray(db_to_linear(values), dtype=float)
            golden = np.asarray(db_to_linear(golden), dtype=float)
        if self.mapper.relative_to_golden:
            values = values - golden
        return values

    # ------------------------------------------------------------------
    # Request path: deterministic NumPy against the cached tensors
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return len(self.mapper.test_freqs_hz)

    def diagnose_point(self, point: np.ndarray) -> PosteriorDiagnosis:
        """Posterior for a single signature-space point."""
        return self.diagnose_points(
            np.asarray(point, dtype=float)[None, :])[0]

    def diagnose_points(self, points: np.ndarray
                        ) -> List[PosteriorDiagnosis]:
        """Posteriors for an (N, D) batch of signature-space points.

        Every operation is row-independent, so coalesced batches are
        bitwise-identical to sequential single-row calls.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise DiagnosisError(
                f"expected an (N, {self.dimension}) point batch, got "
                f"shape {points.shape}")

        distances, deviations = self._surface_distances(points)
        # Importance weights: per world, a Gaussian noise kernel of the
        # point's interior-preferred distance to each hypothesis's
        # perturbed surface, log-sum-exp'd over worlds and normalised
        # across hypotheses.
        log_w = -(distances * distances) / \
            (2.0 * self._bandwidth * self._bandwidth)      # (N, M, H)
        peak = log_w.max(axis=1)                           # (N, H)
        with np.errstate(invalid="ignore"):
            log_lik = peak + np.log(
                np.exp(log_w - peak[:, None, :]).sum(axis=1))
        log_lik = np.where(np.isfinite(peak), log_lik, -np.inf)
        log_post = log_lik - log_lik.max(axis=1, keepdims=True)
        weights = np.exp(log_post)
        posterior = weights / weights.sum(axis=1, keepdims=True)

        results: List[PosteriorDiagnosis] = []
        for row in range(points.shape[0]):
            results.append(self._finish_row(
                posterior[row], log_w[row], peak[row], deviations[row]))
        return results

    def _surface_distances(self, points: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Interior-preferred distances to every sampled surface.

        Returns ``(distances, deviations)`` of shape (N, M, H) with
        ``H = 1 + n_components``: column 0 is the distance to the
        world's fault-free anchor; column ``c`` the masked candidate
        distance to component ``c``'s perturbed polyline (``inf`` when
        the world's perpendicular-foot rule excludes it) and the
        interpolated deviation of its nearest candidate segment. The
        reductions mirror the hard classifier's batched projection, so
        the zero-tolerance limit reproduces its decisions bitwise.
        """
        # (N, M, S, D) projection onto every world's segments.
        diff = points[:, None, None, :] - self._seg_starts[None, :, :, :]
        t_raw = np.sum(diff * self._seg_direction[None, :, :, :],
                       axis=3) / self._seg_safe[None, :, :]
        t_raw = np.where(self._seg_length_sq[None, :, :] > _EPS,
                         t_raw, 0.0)
        interior = (t_raw > 0.0) & (t_raw < 1.0) & \
            (self._seg_length_sq[None, :, :] > _EPS)
        t_clamped = np.clip(t_raw, 0.0, 1.0)
        closest = self._seg_starts[None, :, :, :] + \
            t_clamped[:, :, :, None] * self._seg_direction[None, :, :, :]
        delta = points[:, None, None, :] - closest
        seg_dist = np.sqrt(
            np.einsum("nmsd,nmsd->nms", delta, delta))     # (N, M, S)

        # The paper rule per world: worlds with any interior foot
        # restrict candidates to interior segments.
        has_perpendicular = np.any(interior, axis=2)       # (N, M)
        masked = np.where(interior, seg_dist, np.inf)
        candidates = np.where(has_perpendicular[:, :, None], masked,
                              seg_dist)

        seg_dev = self._seg_dev0[None, None, :] + t_clamped * \
            (self._seg_dev1 - self._seg_dev0)[None, None, :]

        n_points, n_worlds = points.shape[0], self._seg_starts.shape[0]
        n_outcomes = len(self.component_labels)
        distances = np.empty((n_points, n_worlds, n_outcomes))
        deviations = np.zeros((n_points, n_worlds, n_outcomes))
        anchor = points[:, None, :] - self._golden_points[None, :, :]
        distances[:, :, 0] = np.sqrt(
            np.einsum("nmd,nmd->nm", anchor, anchor))
        bounds = list(self._group_offsets) + [self._seg_dev0.size]
        # Open-grid fancy indexing: ~4x cheaper than take_along_axis on
        # the request path, where this gather loop is the hot spot.
        grid_n = np.arange(n_points)[:, None]
        grid_m = np.arange(n_worlds)[None, :]
        for outcome in range(1, n_outcomes):
            group = slice(bounds[outcome - 1], bounds[outcome])
            local = candidates[:, :, group]
            best = np.argmin(local, axis=2)                # (N, M)
            distances[:, :, outcome] = local[grid_n, grid_m, best]
            deviations[:, :, outcome] = \
                seg_dev[:, :, group][grid_n, grid_m, best]
        return distances, deviations

    def _finish_row(self, posterior: np.ndarray, log_w: np.ndarray,
                    peak: np.ndarray, deviations: np.ndarray
                    ) -> PosteriorDiagnosis:
        # Exact posterior ties happen on perfect ambiguity groups (a
        # divider's R1/R2 trajectories coincide); break them by best
        # single-world distance -- ``peak`` is monotone decreasing in
        # it -- so the zero-tolerance argmax reproduces the hard
        # classifier's nearest-trajectory pick, then by label order.
        order = np.lexsort((-peak, -posterior))
        probabilities = tuple(
            (self.component_labels[index], float(posterior[index]))
            for index in order)
        winner_index = int(order[0])
        winner = self.component_labels[winner_index]
        entropy = float(_entropy_bits(posterior))

        if winner_index == 0 or not np.isfinite(peak[winner_index]):
            expected_deviation = 0.0
        else:
            # Posterior-mean deviation across worlds, weighted by each
            # world's importance weight for the winning component.
            world_w = np.exp(log_w[:, winner_index] - peak[winner_index])
            denom = float(world_w.sum())
            expected_deviation = 0.0 if denom <= 0.0 else float(
                np.dot(world_w, deviations[:, winner_index]) / denom)

        gains = self._information_gain(posterior, entropy)
        gain_order = np.argsort(-gains, kind="stable")
        test_ranking = tuple(
            (float(self._cand_freqs[index]), float(gains[index]))
            for index in gain_order)
        return PosteriorDiagnosis(
            component=winner,
            probabilities=probabilities,
            entropy_bits=entropy,
            expected_deviation=expected_deviation,
            test_ranking=test_ranking,
            n_samples=self.n_samples,
        )

    def _information_gain(self, posterior: np.ndarray,
                          entropy_bits: float) -> np.ndarray:
        """Expected posterior-entropy drop per candidate frequency.

        The predictive response at a candidate frequency is modelled as
        a mixture of the moment-matched per-hypothesis Gaussians; the
        expectation over outcomes uses fixed Gauss--Hermite nodes, so
        the ranking is deterministic for a given posterior.
        """
        mu = self._cand_mean.T                             # (C, H)
        sigma = self._cand_sigma.T                         # (C, H)
        # Candidate outcomes: GH nodes of each mixture component.
        y = mu[:, :, None] + sigma[:, :, None] * \
            self._gh_nodes[None, None, :]                  # (C, H, K)
        z = (y[:, :, :, None] - mu[:, None, None, :]) / \
            sigma[:, None, None, :]                        # (C, H, K, H)
        log_lik = -0.5 * z * z - np.log(sigma)[:, None, None, :]
        with np.errstate(divide="ignore"):
            log_prior = np.log(posterior)                  # -inf at 0
        log_q = log_prior[None, None, None, :] + log_lik
        log_q -= log_q.max(axis=3, keepdims=True)
        q = np.exp(log_q)
        q /= q.sum(axis=3, keepdims=True)
        post_entropy = _entropy_bits(q)                    # (C, H, K)
        expected = np.einsum("h,chk,k->c", posterior, post_entropy,
                             self._gh_weights)
        return np.maximum(entropy_bits - expected, 0.0)

    # ------------------------------------------------------------------
    def diagnose_db(self, magnitudes_db: np.ndarray
                    ) -> List[PosteriorDiagnosis]:
        """Posteriors for an (N, F) matrix of measured dB magnitudes at
        the mapper's test frequencies (standalone convenience; the
        serving layer converts through its batch diagnoser instead so
        hard and probabilistic tiers share one signature transform)."""
        matrix = np.asarray(magnitudes_db, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != self.dimension:
            raise DiagnosisError(
                f"expected an (N, {self.dimension}) magnitude matrix, "
                f"got shape {matrix.shape}")
        points = self._to_signature(matrix, self._golden_test_db)
        return self.diagnose_points(points)

    @property
    def _golden_test_db(self) -> np.ndarray:
        cached = getattr(self, "_golden_test_cache", None)
        if cached is None:
            freqs = np.asarray(self.mapper.test_freqs_hz, dtype=float)
            order = np.argsort(freqs, kind="stable")
            block = self._engine.transfer_block(
                self.info.output_node, freqs[order],
                [VariantSpec(name=self.info.circuit.name)],
                self.info.input_source)
            db_row = block.magnitude_db()[0]
            cached = np.empty_like(db_row)
            cached[order] = db_row
            self._golden_test_cache = cached
        return cached


def _entropy_bits(probabilities: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis (0 log 0 = 0)."""
    p = np.asarray(probabilities, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log2(np.maximum(p, 1e-300)),
                         0.0)
    return -terms.sum(axis=-1)
