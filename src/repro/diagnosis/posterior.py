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
   :meth:`~repro.sim.engine.SimulationEngine.transfer_block` call as
   one :meth:`~repro.sim.engine.VariantTable.of_worlds` table (a row
   per world and hypothesis, a column per perturbed component, each
   world's fault-free row the base of its fault rows) -- the
   batched/factored engine does the solving, NumPy-native, no external
   inference framework.
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
3. **Adaptive test selection, on demand.** Candidate measurement
   frequencies (a log grid over the circuit's band plus the existing
   test vector) are ranked by *expected information gain*: the expected
   drop in posterior entropy from observing the response there,
   computed from moment-matched per-hypothesis Gaussians with fixed
   Gauss--Hermite quadrature. Only the ranking reads the worlds away
   from the test vector, so it is a second half of the diagnoser,
   built at most once, on the first read of any answer's
   ``test_ranking``: the build's worlds are swept again over the
   candidate frequencies the test vector lacks (a frequency subset's
   solve equals those columns of a full-grid solve, bit for bit), and
   the quadrature's likelihoods, which do not depend on the
   posterior, are stored as two ``(H, C*H*K)`` planes (``exp(rel)``
   and ``exp(rel) * rel`` of the max-shifted log-likelihoods). A
   batch's rankings are computed together on its first read: the
   planes weighted by each row's posterior give every outcome's
   entropy in closed form, with no exp or log per outcome. Everything
   after the sampling is deterministic -- no request-time randomness
   -- so results are bitwise-reproducible under a fixed seed.

All sampling happens once, at build time; the build solves every world
at the test vector only. A diagnosis request is pure (and cheap) NumPy
against the cached sample tensors, and a caller that never reads
``test_ranking`` never pays for the candidate sweep or the gains.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits.library import CircuitInfo
from ..errors import DiagnosisError, ReproError
from ..faults.models import ParametricFault
from ..faults.universe import FaultUniverse
from ..sim.engine import BatchedMnaEngine, SimulationEngine, VariantTable
from ..tracing import TRACER
from ..trajectory.geometry import Segments, project_points
from ..trajectory.mapping import SignatureMapper
from ..trajectory.trajectory import TrajectoryLayout
from .classifier import check_points, perpendicular_candidates

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

#: Rows per chunk of the information-gain sums: bounds the request's
#: ``(rows, C*H*K)`` temporaries to a few MB.
_GAIN_CHUNK_ROWS = 64

#: Expected gains below this many bits are rounding, not information:
#: the closed-form gains agree with a log-space quadrature to this
#: bound, so a ranking whose top gain falls under it orders noise.
INFORMATIVE_GAIN_BITS = 1e-12

#: Bandwidth / standard-deviation floor: keeps the kernels proper even
#: in the zero-tolerance, zero-noise limit (where the posterior must
#: collapse onto the hard classifier's decision).
_SIGMA_FLOOR = 1e-9

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

    The Monte-Carlo worlds are simulated on the engine the diagnoser is
    handed (the pipeline's warm engine via
    :meth:`PosteriorDiagnoser.from_atpg`), else on a fresh
    :class:`~repro.sim.engine.BatchedMnaEngine`.
    """

    n_samples: int = 64
    tolerance: float = 0.05
    distribution: str = "uniform"
    noise_db: float = 0.05
    n_candidates: int = 12
    samples_per_block: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
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
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "PosteriorConfig":
        try:
            return cls(**data)
        except TypeError as exc:
            raise ReproError(
                f"bad posterior-config dict: {exc}") from exc


class _Ranking:
    """:attr:`PosteriorDiagnosis.test_ranking`: a tuple, or the pending
    :class:`_RankingBatch` of the answer's request, resolved on first
    read.

    A data descriptor on the one field, so every other attribute read
    stays a plain instance-dict lookup; the dataclass's ``__init__``,
    ``__eq__``, ``__repr__`` and ``__hash__`` go through it and so see
    the resolved tuple.
    """

    def __get__(self, answer, owner=None):
        if answer is None:
            # No class-level default: the field stays required.
            raise AttributeError("test_ranking")
        ranking = answer.__dict__["test_ranking"]
        if isinstance(ranking, _RankingBatch):
            ranking.resolve()
            ranking = answer.__dict__["test_ranking"]
        return ranking

    def __set__(self, answer, ranking) -> None:
        answer.__dict__["test_ranking"] = ranking


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
    expected information gain in bits, most informative first; when
    even the top gain is below :data:`INFORMATIVE_GAIN_BITS` the order
    is rounding noise and no measurement is informative.

    An answer from :meth:`PosteriorDiagnoser.diagnose_points` computes
    its ranking on first read, together with every other answer of its
    request, and then holds the tuple; equality, ``repr``, hashing,
    :meth:`summary`, copies and pickles all read it, so an answer never
    carries (or pickles) its diagnoser once compared or copied.
    """

    component: str
    probabilities: Tuple[Tuple[str, float], ...]
    entropy_bits: float
    expected_deviation: float
    test_ranking: Tuple[Tuple[float, float], ...] = _Ranking()
    n_samples: int

    @property
    def probability(self) -> float:
        """Posterior probability of the winning component."""
        return self.probabilities[0][1]

    def summary(self) -> str:
        top = ", ".join(f"{name} {prob:.1%}"
                        for name, prob in self.probabilities[:3])
        best_freq, best_gain = self.test_ranking[0]
        if best_gain < INFORMATIVE_GAIN_BITS:
            advice = "no measurement is informative"
        else:
            advice = (f"next measure {best_freq:.4g} Hz "
                      f"(+{best_gain:.3f} b expected)")
        return (f"posterior [{top}] entropy {self.entropy_bits:.3f} b, "
                f"{advice}")

    def __reduce__(self):
        # Copies and pickles take the resolved ranking, never a batch.
        return (type(self), (self.component, self.probabilities,
                             self.entropy_bits, self.expected_deviation,
                             self.test_ranking, self.n_samples))


class _RankingBatch:
    """The pending test rankings of one request's answers.

    The first read of any answer's ranking computes them all in one
    :meth:`PosteriorDiagnoser._rankings` call, hands every live answer
    its tuple and drops the diagnoser and the posterior arrays.
    Concurrent readers wait on the batch's lock; one computes.
    """

    __slots__ = ("_diagnoser", "_posterior", "_entropy", "_answers",
                 "_lock")

    def __init__(self, diagnoser: "PosteriorDiagnoser",
                 posterior: np.ndarray, entropy: np.ndarray) -> None:
        self._diagnoser = diagnoser
        self._posterior = posterior
        self._entropy = entropy
        # Weak, so an unread answer does not keep its batch in a cycle.
        self._answers: List[weakref.ref] = []
        self._lock = threading.Lock()

    def track(self, answers: List[PosteriorDiagnosis]) -> None:
        self._answers = [weakref.ref(answer) for answer in answers]

    def resolve(self) -> None:
        with self._lock:
            if self._diagnoser is None:  # resolved while we waited
                return
            rankings = self._diagnoser._rankings(self._posterior,
                                                 self._entropy)
            for ref, ranking in zip(self._answers, rankings):
                answer = ref()
                if answer is not None:
                    answer.__dict__["test_ranking"] = ranking
            self._diagnoser = self._posterior = self._entropy = None
            self._answers = []


class PosteriorDiagnoser:
    """Sampled-response-surface posterior over a fault universe.

    Build cost: one Monte-Carlo sweep of
    ``(1 + n_faults) * n_samples + 1`` engine variants at the test
    vector only (chunked into sample batches). Request cost: pure NumPy
    segment projection against the cached tensors; deterministic given
    the build.

    The test rankings cost nothing until read. The first read of any
    answer's ``test_ranking`` (or :meth:`prepare_ranking`) builds the
    ranking half once, under a lock: the same worlds swept over
    the candidate frequencies the test vector lacks, then the
    information gain's likelihood planes. Each request's rankings are
    then one posterior-weighted sum over the planes per hypothesis, for
    the whole request at once, on the first read of any of them.
    """

    def __init__(self, info: CircuitInfo, universe: FaultUniverse,
                 mapper: SignatureMapper,
                 config: Optional[PosteriorConfig] = None,
                 engine: Optional[SimulationEngine] = None) -> None:
        self.info = info
        self.config = config or PosteriorConfig()
        self.mapper = mapper
        self._engine = engine if engine is not None \
            else BatchedMnaEngine(info.circuit)

        faults = [fault for fault in universe.faults
                  if isinstance(fault, ParametricFault)]
        if not faults:
            raise DiagnosisError(
                f"{info.circuit.name}: posterior diagnosis needs a "
                "parametric fault universe (no parametric faults found)")
        # Golden is anchor row 0 and fault f anchor row 1 + f, so the
        # layout's rows (golden = -1) index the anchors shifted by one.
        self._layout = TrajectoryLayout.from_faults(faults)
        components = self._layout.components
        if FAULT_FREE_LABEL in components:
            raise DiagnosisError(
                f"component name {FAULT_FREE_LABEL!r} collides with the "
                "fault-free hypothesis label")
        self._faults: Tuple[ParametricFault, ...] = tuple(faults)
        # Their engine rows, from the universe's memoised table: row 0
        # is the fault-free circuit and row 1 + i fault i.
        self._fault_variants = universe.variants().take(
            [0] + [1 + index for index, fault in enumerate(universe.faults)
                   if isinstance(fault, ParametricFault)])
        #: Posterior outcome labels: fault-free first, then every fault
        #: component in trajectory (first-appearance) order.
        self.component_labels: Tuple[str, ...] = \
            (FAULT_FREE_LABEL,) + components
        self.n_samples = self.config.n_samples

        # The ranking half: built by the first ranking read.
        self._ranking_lock = threading.Lock()
        self._ranked = False

        with TRACER.span("posterior.build", worlds=self.n_samples,
                         hypotheses=len(self.component_labels)):
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
        #: The grid columns of the test vector, ascending: the build
        #: solves these, the ranking half the others.
        self._measured = np.unique(test_idx)

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

        # The hypotheses: the golden row plus one row per fault, over
        # a column per target, then every fault component outside the
        # targets.
        circuit = info.circuit
        hypotheses = self._fault_variants.with_columns(
            circuit, [(name, "value") for name in targets])

        # The sweeps' inputs, kept until the ranking half is built: the
        # hypotheses and every world's scale, not the world tables. A
        # table would keep the factored engine's routing of it alive in
        # every diagnoser whose ranking is never read.
        self._hypotheses, self._scale = hypotheses, 1.0 + eps
        golden_db, mag_db = self._sweep(grid[self._measured])
        self._measured_db = (golden_db, mag_db)
        #: Engine variants simulated during the build (telemetry).
        self.samples_simulated = len(hypotheses) * config.n_samples + 1

        # Signature-space anchors at the test vector (the same scale /
        # golden-relative transform the hard classifier uses), per
        # world: row 0 is the world's fault-free anchor, rows 1.. its
        # fault anchors.
        at_test = np.searchsorted(self._measured, test_idx)
        self._golden_test_db = golden_db[at_test]
        anchors = mapper.signatures_from_db(mag_db[:, :, at_test],
                                            self._golden_test_db)
        self._golden_points = anchors[0]                   # (M, D)
        self._assemble_segments(anchors)
        self._bandwidth = max(config.noise_db, _SIGMA_FLOOR)

    def _sweep(self, freqs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The golden row's ``(F,)`` and every world row's ``(R, M, F)``
        dB responses at ``freqs`` (``R`` hypotheses, ``M`` worlds).

        First the nominal (tolerance-free) golden row every signature
        is relative to, then one ``transfer_block`` call per sample
        block: per world, the fault-free circuit (the world's base)
        plus every fault, each with the world's ``nominal * (1 + eps)``
        on every target.
        """
        info, engine = self.info, self._engine
        hypotheses, block = self._hypotheses, self.config.samples_per_block
        golden_db = engine.transfer_block(
            info.output_node, freqs, hypotheses.take([0]),
            info.input_source).magnitude_db()[0]
        rows_per_sample = len(hypotheses)
        row_labels = (FAULT_FREE_LABEL,) + tuple(
            fault.label for fault in self._faults)
        mag_db = np.empty((rows_per_sample, self.n_samples, freqs.size))
        for start in range(0, self.n_samples, block):
            stop = min(start + block, self.n_samples)
            labels = [f"{info.circuit.name}#posterior:{label}:s{sample}"
                      for sample in range(start, stop)
                      for label in row_labels]
            block_db = engine.transfer_block(
                info.output_node, freqs,
                VariantTable.of_worlds(hypotheses, self._scale[start:stop],
                                       labels),
                info.input_source).magnitude_db()
            mag_db[:, start:stop, :] = block_db.reshape(
                stop - start, rows_per_sample, -1).transpose(1, 0, 2)
        return golden_db, mag_db

    # ------------------------------------------------------------------
    # The ranking half: built once, on first read
    # ------------------------------------------------------------------
    def prepare_ranking(self) -> None:
        """Build the ranking half now, if no ranking read has yet.

        The serving layer calls this while it builds the diagnoser:
        every answer it serves puts its ranking on the wire, so the
        build's cost belongs with the build, not the first request.
        """
        with TRACER.span("posterior.ranking", rows=0) as span:
            self._ensure_ranking(span)

    def _ensure_ranking(self, span) -> None:
        """Build the ranking half unless built; record on ``span``
        whether this call built it (and then over how many
        candidates)."""
        built = False
        if not self._ranked:
            with self._ranking_lock:
                if not self._ranked:  # not built while we waited
                    self._build_ranking()
                    built = True
        span.attrs["planes_built"] = built
        if built:
            span.attrs["candidates"] = self._cand_freqs.size

    def _build_ranking(self) -> None:
        """Every world at every candidate frequency, then the
        information gain's moments and likelihood planes.

        The worlds are swept only over the grid columns the build did
        not solve, and the build's test-vector columns are spliced in:
        a solve on a frequency subset equals those columns of the
        full-grid solve, bit for bit (on the factored engine, as long
        as no row's conditioning fallback depends on the frequencies),
        so the planes are the full grid's.
        """
        grid, measured = self._cand_freqs, self._measured
        measured_golden, measured_mag = self._measured_db
        golden_db = np.empty(grid.size)
        mag_db = np.empty(measured_mag.shape[:2] + (grid.size,))
        golden_db[measured] = measured_golden
        mag_db[:, :, measured] = measured_mag
        missing = np.setdiff1d(np.arange(grid.size), measured)
        if missing.size:
            golden_db[missing], mag_db[:, :, missing] = \
                self._sweep(grid[missing])

        # Moment-matched per-hypothesis Gaussians at every candidate
        # frequency, for the information-gain quadrature: the fault-free
        # hypothesis pools its per-world responses, each component pools
        # its faults' responses across worlds.
        cand = self.mapper.signatures_from_db(mag_db, golden_db)  # (R, M, G)
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
                                                   self._bandwidth)

        nodes, weights = np.polynomial.hermite.hermgauss(_GH_ORDER)
        self._gh_weights = weights / math.sqrt(math.pi)
        self._build_likelihood_planes(math.sqrt(2.0) * nodes)
        self._hypotheses = self._scale = self._measured_db = None
        self._ranked = True

    def _build_likelihood_planes(self, nodes: np.ndarray) -> None:
        """The information gain's posterior-free half, as two planes.

        Outcome ``y`` is Gauss--Hermite node ``k`` of hypothesis ``h``'s
        Gaussian at candidate ``c``; ``ell_j`` is its log-likelihood
        under hypothesis ``j`` and ``rel_j = ell_j - max_j ell_j``. The
        planes are ``L_j = exp(rel_j)`` and ``L_j * rel_j``, each stored
        as one contiguous ``(H, C*H*K)`` array, row ``j`` a plane over
        the flattened ``(c, h, k)`` outcomes.
        """
        mu = self._cand_mean.T                             # (C, H)
        sigma = self._cand_sigma.T                         # (C, H)
        y = mu[:, :, None] + sigma[:, :, None] * \
            nodes[None, None, :]                           # (C, H, K)
        z = (y[:, :, :, None] - mu[:, None, None, :]) / \
            sigma[:, None, None, :]                        # (C, H, K, H)
        log_lik = -0.5 * z * z - np.log(sigma)[:, None, None, :]
        rel = log_lik - log_lik.max(axis=3, keepdims=True)
        lik = np.exp(rel)
        n_outcomes = len(self.component_labels)
        self._lik = np.ascontiguousarray(lik.reshape(-1, n_outcomes).T)
        self._lik_rel = np.ascontiguousarray(
            (lik * rel).reshape(-1, n_outcomes).T)

    def _assemble_segments(self, anchors: np.ndarray) -> None:
        """Per-world trajectory polylines as one :class:`Segments` set
        of ``(D, M, S)`` coordinate planes, worlds-major for
        projection."""
        vertices = anchors[self._layout.rows + 1].transpose(1, 0, 2)
        self._segments = Segments.of(vertices[:, self._layout.seg_start],
                                     vertices[:, self._layout.seg_end])

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
        bitwise-identical to sequential single-row calls. The answers'
        test rankings are computed together on the first read of any
        of them (see :class:`PosteriorDiagnosis`).
        """
        points = check_points(points, self.dimension)
        with TRACER.span("posterior.request", rows=points.shape[0],
                         worlds=self.n_samples):
            distances, deviations = self._surface_distances(points)
            # Importance weights: per world, a Gaussian noise kernel of
            # the point's interior-preferred distance to each
            # hypothesis's perturbed surface, log-sum-exp'd over worlds
            # and normalised across hypotheses.
            log_w = -(distances * distances) / \
                (2.0 * self._bandwidth * self._bandwidth)  # (N, M, H)
            peak = log_w.max(axis=1)                       # (N, H)
            with np.errstate(invalid="ignore"):
                log_lik = peak + np.log(
                    np.exp(log_w - peak[:, None, :]).sum(axis=1))
            log_lik = np.where(np.isfinite(peak), log_lik, -np.inf)
            log_post = log_lik - log_lik.max(axis=1, keepdims=True)
            weights = np.exp(log_post)
            posterior = weights / weights.sum(axis=1, keepdims=True)
            entropy = _entropy_bits(posterior)             # (N,)
            return self._answers(posterior, entropy, log_w, peak,
                                 deviations)

    def _surface_distances(self, points: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Interior-preferred distances to every sampled surface.

        Returns ``(distances, deviations)`` of shape (N, M, H) with
        ``H = 1 + n_components``: column 0 is the distance to the
        world's fault-free anchor; column ``c`` the masked candidate
        distance to component ``c``'s perturbed polyline (``inf`` when
        the world's perpendicular-foot rule excludes it) and the
        interpolated deviation of its nearest candidate segment. The
        projection is the hard classifier's kernel over one segment set
        per world, so the zero-tolerance limit reproduces its decisions
        bitwise.
        """
        seg_dist, t_clamped, interior = project_points(
            points, self._segments)                        # (N, M, S)

        # The paper rule, per world.
        candidates, _ = perpendicular_candidates(seg_dist, interior)

        layout = self._layout
        seg_dev = layout.seg_dev0[None, None, :] + t_clamped * \
            (layout.seg_dev1 - layout.seg_dev0)[None, None, :]

        n_points, n_worlds = points.shape[0], self._golden_points.shape[0]
        n_outcomes = len(self.component_labels)
        distances = np.empty((n_points, n_worlds, n_outcomes))
        deviations = np.zeros((n_points, n_worlds, n_outcomes))
        anchor = points[:, None, :] - self._golden_points[None, :, :]
        distances[:, :, 0] = np.sqrt(
            np.einsum("nmd,nmd->nm", anchor, anchor))
        bounds = layout.segment_offsets
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

    def _answers(self, posterior: np.ndarray, entropy: np.ndarray,
                 log_w: np.ndarray, peak: np.ndarray,
                 deviations: np.ndarray) -> List[PosteriorDiagnosis]:
        """One :class:`PosteriorDiagnosis` per row of an ``(N, H)``
        posterior batch (``log_w``/``deviations`` are ``(N, M, H)``),
        their rankings pending on one :class:`_RankingBatch`."""
        # Exact posterior ties happen on coincident trajectories (an
        # isolability class, or a divider's R1/R2); break them by best
        # single-world distance -- ``peak`` is monotone decreasing in
        # it -- so the zero-tolerance argmax reproduces the hard
        # classifier's nearest-trajectory pick, then by label order.
        orders = np.lexsort((-peak, -posterior), axis=1)
        winners = orders[:, 0]
        rows = np.arange(winners.size)

        # Posterior-mean deviation across worlds, weighted by each
        # world's importance weight for the winning component (0.0 for
        # a fault-free winner or one no world admits).
        peak_w = peak[rows, winners]
        with np.errstate(invalid="ignore"):
            world_w = np.exp(log_w[rows, :, winners] - peak_w[:, None])
        denom = world_w.sum(axis=1)
        expected = np.zeros(winners.size)
        live = (winners != 0) & np.isfinite(peak_w) & (denom > 0.0)
        for row in np.flatnonzero(live):
            # The dot of a contiguous weight row with the strided
            # deviation column: a contiguous copy of the column changes
            # the BLAS summation, and the answer's last bits with it.
            expected[row] = np.dot(world_w[row],
                                   deviations[row, :, winners[row]]) / \
                denom[row]

        batch = _RankingBatch(self, posterior, entropy)
        labels = self.component_labels
        answers = [PosteriorDiagnosis(
                       component=labels[order[0]],
                       probabilities=tuple(zip([labels[i] for i in order],
                                               probabilities)),
                       entropy_bits=entropy_bits,
                       expected_deviation=deviation,
                       test_ranking=batch,
                       n_samples=self.n_samples)
                   for order, probabilities, entropy_bits, deviation in zip(
                       orders.tolist(),
                       np.take_along_axis(posterior, orders, axis=1).tolist(),
                       entropy.tolist(), expected.tolist())]
        batch.track(answers)
        return answers

    def _rankings(self, posterior: np.ndarray, entropy: np.ndarray
                  ) -> List[Tuple[Tuple[float, float], ...]]:
        """Every row's test ranking, ``(freq_hz, gain_bits)`` pairs
        most informative first (ties in grid order), building the
        ranking half first if no read has."""
        with TRACER.span("posterior.ranking",
                         rows=posterior.shape[0]) as span:
            self._ensure_ranking(span)
            tick = time.perf_counter()
            gains = self._information_gains(posterior, entropy)
            span.attrs["gain_seconds"] = time.perf_counter() - tick
        gain_orders = np.argsort(-gains, axis=1, kind="stable")
        freqs = self._cand_freqs.tolist()
        return [tuple(zip([freqs[i] for i in gain_order], ranked_gains))
                for gain_order, ranked_gains in zip(
                    gain_orders.tolist(),
                    np.take_along_axis(gains, gain_orders, axis=1).tolist())]

    def _information_gains(self, posterior: np.ndarray,
                           entropy_bits: np.ndarray) -> np.ndarray:
        """Expected posterior-entropy drop per candidate frequency.

        ``posterior`` is ``(N, H)``, ``entropy_bits`` its ``(N,)`` row
        entropies; returns ``(N, C)`` gains in bits. The predictive
        response at a candidate frequency is modelled as a mixture of
        the moment-matched per-hypothesis Gaussians, and the expectation
        over outcomes uses fixed Gauss--Hermite nodes, so the ranking is
        deterministic for a given posterior.

        With ``w`` the posterior, the updated posterior after outcome
        ``(c, h, k)`` is ``q_j = w_j L_j / S`` with ``S = sum_j w_j
        L_j``, so its entropy in nats is ``log S - T / S`` with ``T =
        sum_j w_j (L rel)_j + (w_j log w_j) L_j`` -- sums over the
        ranking half's planes, with no exp or log per outcome. Each sum is
        a left-to-right loop of elementwise operations, so every row is
        bitwise independent of its batch; rows go in chunks of
        ``_GAIN_CHUNK_ROWS`` to bound the ``(N, C*H*K)`` temporaries.
        """
        lik, lik_rel = self._lik, self._lik_rel
        n_outcomes, width = lik.shape
        n_rows, n_cands = posterior.shape[0], self._cand_freqs.size
        with np.errstate(divide="ignore", invalid="ignore"):
            w_log_w = np.where(posterior > 0.0,
                               posterior * np.log(posterior), 0.0)
        gains = np.empty((n_rows, n_cands))
        for start in range(0, n_rows, _GAIN_CHUNK_ROWS):
            stop = min(start + _GAIN_CHUNK_ROWS, n_rows)
            w, wlw = posterior[start:stop], w_log_w[start:stop]
            total = np.zeros((stop - start, width))
            moment = np.zeros((stop - start, width))
            term = np.empty((stop - start, width))
            for j in range(n_outcomes):
                np.multiply(w[:, j, None], lik[j], out=term)
                total += term
                np.multiply(w[:, j, None], lik_rel[j], out=term)
                moment += term
                np.multiply(wlw[:, j, None], lik[j], out=term)
                moment += term
            # An outcome with S == 0 contributes 0. That is safe: the
            # outcome's own hypothesis h has z = node, so rel_h >=
            # -node**2 / 2 - log(sigma_h / sigma_min) > -60 (node**2 / 2
            # <= 7.1 at order 7; sigma ratios stay below 1e20 above the
            # 1e-9 floor). S >= w_h exp(rel_h) is then 0 only for w_h <
            # ~1e-297, and w_h weights the outcome's entropy below.
            with np.errstate(divide="ignore", invalid="ignore"):
                entropy_nats = np.where(
                    total > 0.0, np.log(total) - moment / total, 0.0)
            # Rounding can take a near-certain outcome's entropy a few
            # ulps below 0; clipping keeps every gain <= the entropy.
            np.maximum(entropy_nats, 0.0, out=entropy_nats)
            outcome_w = w[:, :, None] * self._gh_weights[None, None, :]
            expected = (entropy_nats.reshape(stop - start, n_cands, -1) *
                        outcome_w.reshape(stop - start, 1, -1)).sum(axis=2)
            gains[start:stop] = np.maximum(
                entropy_bits[start:stop, None] - expected / math.log(2.0),
                0.0)
        return gains

    # ------------------------------------------------------------------
    def diagnose_db(self, magnitudes_db: np.ndarray
                    ) -> List[PosteriorDiagnosis]:
        """Posteriors for an (N, F) matrix of measured dB magnitudes at
        the mapper's test frequencies.

        The rows go through the mapper's
        :meth:`~SignatureMapper.signatures_from_db`, the one
        dB-to-signature transform every tier uses, against the build's
        nominal (tolerance-free) response at the test vector. The
        serving layer instead converts rows with the hard classifier's
        :meth:`~repro.diagnosis.classifier.TrajectoryClassifier.signatures`
        (the same transform against the pipeline's exact golden
        response), so both tiers of a served request see one point set.
        """
        matrix = np.asarray(magnitudes_db, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != self.dimension:
            raise DiagnosisError(
                f"expected an (N, {self.dimension}) magnitude matrix, "
                f"got shape {matrix.shape}")
        points = self.mapper.signatures_from_db(matrix,
                                                self._golden_test_db)
        return self.diagnose_points(points)


def _entropy_bits(probabilities: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis (0 log 0 = 0)."""
    p = np.asarray(probabilities, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log2(np.maximum(p, 1e-300)),
                         0.0)
    return -terms.sum(axis=-1)
