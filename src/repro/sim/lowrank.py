"""Low-rank delta factorisation + factor-once base solves.

Support machinery for :class:`~repro.sim.engine.FactoredMnaEngine`:

* :func:`table_delta` turns a group of variants' stamp-ops into per
  variant dense ``(r, c)`` blocks ``delta_g`` / ``delta_b`` such that
  its MNA matrix is
  ``A_v(s) = A(s) + E_rows @ (delta_g + s * delta_b) @ E_cols.T``,
  ``A`` the variant's base system (``E_*`` are identity-column
  selections). Single-component faults touch 1-4 rows/columns, so the
  blocks are tiny.
* :class:`FactorSolver` factors each base system ``A_b(s) = G_b + s
  B_b`` (the nominal, or one per Monte-Carlo world) once per frequency
  and solves a multi-column right-hand side (the base's stimulus
  vector plus one identity column per touched row) -- either through
  :func:`~repro.sim.mna.solve_stack`, the dense solve every engine
  shares, or through :func:`scipy.sparse.linalg.splu` when scipy is
  importable and the circuit is large enough for sparsity to pay.

The module deliberately knows nothing about circuits or engines: it
consumes :class:`~repro.sim.mna.ComponentOps` streams and numpy arrays,
so it is unit-testable in isolation and free of import cycles.

scipy is **optional**: every entry point degrades to the numpy dense
path when it is absent (the CI tier runs without scipy to pin this).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import SimulationError, SingularCircuitError
from .mna import ComponentOps, solve_stack

__all__ = [
    "FactorSolver",
    "scipy_sparse",
    "singular_bounds",
    "solve_capacitance",
    "table_delta",
]


def scipy_sparse():
    """The ``scipy.sparse`` module, or ``None`` when scipy is absent.

    Import is attempted lazily on every call (cheap: ``sys.modules``
    hit after the first) so tests can simulate a scipy-less install by
    patching this function rather than the import machinery.
    """
    try:
        import scipy.sparse  # noqa: PLC0415
        import scipy.sparse.linalg  # noqa: PLC0415
    except Exception:
        return None
    return scipy.sparse


def table_delta(base_ops: Mapping[str, ComponentOps],
                stamped: Mapping[str, ComponentOps], count: int,
                max_rank: int) -> Optional[Tuple[
                    List[int], List[int], List[int], np.ndarray,
                    np.ndarray]]:
    """Exact stamp delta of ``count`` variants vs their base ops.

    ``stamped`` holds the changed components' ops stamped with
    ``(count,)`` parameter arrays (scalar op values are shared by every
    variant); each must be structurally identical to its stream in
    ``base_ops`` -- the nominal ops, or the same components stamped
    with each variant's base values. An entry's delta is the sum, from
    zero and in stamp order, of ``new - old``; entries whose delta is
    zero for every variant are dropped (the *numerically* touched set).

    Returns the sorted touched matrix ``rows`` and ``cols`` and AC
    right-hand-side rows (stimulus replacements), variant ``k``'s exact
    changes ``delta[0 or 1, i, j, k]`` to ``G`` or ``B[rows[i],
    cols[j]]`` and ``rhs_delta[i, k]`` to ``z[rhs_rows[i]]``; or
    ``None`` when the support is wider than ``max_rank`` (such rows go
    dense, so no delta arrays are built).
    """
    def deltas(field: str) -> Dict[tuple, np.ndarray]:
        pairs = [pair for name, ops in stamped.items()
                 for pair in zip(getattr(ops, field),
                                 getattr(base_ops[name], field))]
        if not pairs:
            return {}
        new = np.empty((len(pairs), count), dtype=complex)
        old = np.empty_like(new)
        for index, (new_op, old_op) in enumerate(pairs):
            new[index] = new_op[-1]
            old[index] = old_op[-1]
        slots: Dict[tuple, int] = {}
        slot = [slots.setdefault(new_op[:-1], len(slots))
                for new_op, _ in pairs]
        if len(slots) == len(slot):     # one op per entry: 0 + change
            total = (new - old) + 0.0
        else:
            total = np.zeros((len(slots), count), dtype=complex)
            np.add.at(total, slot, new - old)
        keep = (total != 0).any(axis=1)
        return {key: total[i] for i, key in enumerate(slots) if keep[i]}

    entries = deltas("matrix_ops")
    rows = sorted({row for _, row, _ in entries})
    cols = sorted({col for _, _, col in entries})
    if max(len(rows), len(cols)) > max_rank:
        return None
    delta = np.zeros((2, len(rows), len(cols), count), dtype=complex)
    for (target, row, col), change in entries.items():
        delta[int(target == "b"), rows.index(row), cols.index(col)] = change
    stimulus = deltas("rhs_ops")
    rhs_rows = sorted(row for row, in stimulus)
    return rows, cols, rhs_rows, delta, np.array(
        [stimulus[row,] for row in rhs_rows]).reshape(-1, count)


def singular_bounds(cap: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(smax, smin)`` of each trailing ``r x r`` block of ``cap``.

    Ranks 1 and 2 -- the overwhelmingly common capacitance sizes for
    single-component faults -- use closed forms (``smax*smin = |det|``
    and ``smax^2+smin^2 = ||.||_F^2``), avoiding one LAPACK SVD call
    per tiny matrix; larger blocks fall back to batched
    ``np.linalg.svd``. Inputs must be finite.
    """
    rank = cap.shape[-1]
    if rank == 1:
        magnitude = np.abs(cap[..., 0, 0])
        return magnitude, magnitude
    if rank == 2:
        frob2 = np.abs(cap[..., 0, 0]) ** 2 + \
            np.abs(cap[..., 0, 1]) ** 2 + \
            np.abs(cap[..., 1, 0]) ** 2 + np.abs(cap[..., 1, 1]) ** 2
        absdet = np.abs(cap[..., 0, 0] * cap[..., 1, 1] -
                        cap[..., 0, 1] * cap[..., 1, 0])
        disc = np.sqrt(np.maximum(frob2 * frob2 - 4.0 * absdet * absdet,
                                  0.0))
        smax = np.sqrt((frob2 + disc) / 2.0)
        # smin from the product identity: exact and immune to the
        # cancellation the subtractive form suffers when smin << smax.
        smin = np.divide(absdet, smax, out=np.zeros_like(absdet),
                         where=smax > 0.0)
        return smax, smin
    singulars = np.linalg.svd(cap, compute_uv=False)
    return singulars[..., 0], singulars[..., -1]


def solve_capacitance(cap: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each ``(r, r)`` block against its ``(r, 1)`` column.

    Returns shape ``(..., r)``. Ranks 1 and 2 use division / Cramer's
    rule (the conditioning guard has already bounded ``cond(cap)``, so
    the closed forms are as accurate as an LU here); larger blocks use
    batched ``np.linalg.solve``.
    """
    rank = cap.shape[-1]
    if rank == 1:
        return rhs[..., 0] / cap[..., 0]
    if rank == 2:
        a = cap[..., 0, 0]
        b = cap[..., 0, 1]
        c = cap[..., 1, 0]
        d = cap[..., 1, 1]
        r0 = rhs[..., 0, 0]
        r1 = rhs[..., 1, 0]
        det = a * d - b * c
        return np.stack(((d * r0 - b * r1) / det,
                         (a * r1 - c * r0) / det), axis=-1)
    return np.linalg.solve(cap, rhs)[..., 0]


class FactorSolver:
    """Factor base systems ``A_b(s) = G_b + s B_b`` once per frequency.

    ``g`` / ``b`` are ``(nb, n, n)`` stacks of base systems; the
    nominal circuit alone is the one-base case. ``solve`` returns the
    ``(F, nb, n, m)`` solutions of every base against its own
    ``(n, m)`` right-hand-side block. The dense path is
    :func:`~repro.sim.mna.solve_stack` over the bases (one LU per base
    and frequency, amortised over all ``m`` columns -- the factor-once
    economy the engine is built on; a singular base is named by
    ``label``); the sparse path assembles ``scipy.sparse`` CSC matrices
    once and runs ``splu`` per base and frequency so factorisation cost
    scales with nonzeros instead of ``n^2``.
    """

    def __init__(self, g: np.ndarray, b: np.ndarray, *,
                 sparse: bool = False, label: str = "circuit") -> None:
        self.label = label
        self.sparse = bool(sparse)
        if self.sparse:
            sp = scipy_sparse()
            if sp is None:
                raise SimulationError(
                    f"{label}: sparse base factorisation requested "
                    "but scipy is not installed")
            self._g_sp = [sp.csc_matrix(matrix) for matrix in g]
            self._b_sp = [sp.csc_matrix(matrix) for matrix in b]
            self._splu = sp.linalg.splu
        else:
            self._g = np.asarray(g, dtype=complex)
            self._b = np.asarray(b, dtype=complex)

    def solve(self, s_values: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A_b(s) x = rhs[b]`` for every ``s`` and base ``b``;
        returns ``(F, nb, n, m)``."""
        s_values = np.asarray(s_values, dtype=complex)
        rhs = np.asarray(rhs, dtype=complex)
        if self.sparse:
            return self._solve_sparse(s_values, rhs)
        solutions, _ = solve_stack(self._g, self._b, s_values, rhs,
                                   (self.label,) * len(self._g))
        return solutions.transpose(1, 0, 2, 3)

    def _solve_sparse(self, s_values: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
        out = np.empty((s_values.size,) + rhs.shape, dtype=complex)
        for base, (g_sp, b_sp) in enumerate(zip(self._g_sp, self._b_sp)):
            for index, s in enumerate(s_values):
                matrix = (g_sp + s * b_sp).tocsc()
                try:
                    factor = self._splu(matrix)
                except (RuntimeError, ValueError) as exc:
                    raise SingularCircuitError(
                        f"{self.label}: base MNA matrix singular at "
                        f"s={s!r}; check for floating nodes, "
                        "voltage-source loops or op-amps without "
                        "feedback") from exc
                out[index, base] = factor.solve(rhs[base])
        if not np.all(np.isfinite(out)):
            raise SingularCircuitError(
                f"{self.label}: non-finite base solution in AC "
                "sweep; check for floating nodes, voltage-source loops "
                "or op-amps without feedback")
        return out
