"""Exact one-to-one assignment oracle and the divergence against it.

``hungarian_solve`` returns the globally optimal matching of cardinality
min(M, K), with a deterministic tie-break: among all optimal matchings it
returns the lexicographically smallest pair list.  The underlying linear
assignment subproblems are solved with scipy; the tie-break is enforced by
re-solving with pairs forced in lexicographic order, so optimality is never
sacrificed for determinism.  Committed rows only ever shrink the free rows
to a suffix.  So at each slot every free column gets one C-ordered block,
the free rows by the other free columns, and each forced sub-problem is a
row view of a block: a probe makes no copy of its own, and scipy needs no
C-order copy of it.  A forced pair counts as optimal when it is within the
rounding error of an n-term sum of the optimum, so it can neither reject a
true optimum nor admit a pair that is measurably worse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import xlogy

from .cost import CostMatrix, cost_values
from .sinkhorn import SoftAssignment, coupling_values

# Rounding error of an n-term sum, in units of n**2 * eps * max(1, max|C|),
# allowed when testing whether a forced partial matching can still be
# completed to an optimal one.
_OPT_TOL = 4.0 * np.finfo(np.float64).eps

# Added to every entry of the 0/1 matching before it is normalized, so the
# divergence stays finite wherever the coupling spreads mass.
KL_SMOOTHING_EPS = 1e-6


@dataclass(frozen=True, eq=False)
class Assignment:
    """Discrete matching: (row, column) pairs, total cost, and 0/1 indicator."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float
    indicator: np.ndarray


def _lap_cost(values: np.ndarray) -> float:
    # Never empty: a cost matrix has a row and a column, and a probe keeps
    # at least as many free rows and columns as pairs still to be placed.
    rows, cols = linear_sum_assignment(values)
    return float(values[rows, cols].sum())


def hungarian_solve(C: CostMatrix | np.ndarray) -> Assignment:
    """Globally minimal matching of cardinality min(M, K).

    Rectangular matrices leave |M - K| rows or columns unmatched.  Among all
    optimal matchings the lexicographically smallest pair list (pairs sorted
    by row index, compared element-wise) is returned: the matching is rebuilt
    pair by pair, committing at each step to the smallest (row, column) whose
    forced inclusion still admits an optimal completion.
    """
    values = cost_values(C)
    M, K = values.shape
    n = min(M, K)
    optimum = _lap_cost(values)
    tol = _OPT_TOL * n * n * max(1.0, float(np.abs(values).max()))

    rows = values.tolist()
    pairs: list[tuple[int, int]] = []
    fixed_cost = 0.0
    start = 0  # the free rows are always the suffix start..M-1
    cols = list(range(K))
    for slot in range(n):
        need = n - slot - 1
        # The free columns without each one in turn, and for each the
        # C-ordered sub-problem on the free rows; a probe below row j is
        # then a row view of it.
        others = [cols[:i] + cols[i + 1 :] for i in range(len(cols))]
        blocks = [values[start:].take(c, axis=1) for c in others] if need else []
        # Rows skipped here stay unmatched, which is only affordable when
        # enough rows remain below the candidate to complete the matching.
        for j in range(start, M - need):
            row = rows[j]
            for i, k in enumerate(cols):
                rest = _lap_cost(blocks[i][j + 1 - start :]) if need else 0.0
                if fixed_cost + row[k] + rest <= optimum + tol:
                    break
            else:
                continue
            break
        else:  # pragma: no cover - optimum always admits completion
            raise RuntimeError("failed to reconstruct an optimal matching")
        pairs.append((j, k))
        fixed_cost += row[k]
        start = j + 1
        cols = others[i]

    indicator = np.zeros((M, K), dtype=np.float64)
    for j, k in pairs:
        indicator[j, k] = 1.0
    return Assignment(pairs=tuple(pairs), total_cost=fixed_cost, indicator=indicator)


def kl_divergence(S: SoftAssignment | np.ndarray, Pstar: Assignment) -> float:
    """KL divergence between the normalized coupling and the smoothed matching.

    Both arguments are normalized to total mass one; the indicator is
    smoothed by ``KL_SMOOTHING_EPS`` before normalization because it has zero
    entries wherever the coupling may spread mass.  Terms where the coupling
    is zero contribute nothing.  A coupling with a non-finite entry or
    without positive total mass is rejected.
    """
    Sm = coupling_values(S)
    P = Pstar.indicator
    if Sm.shape != P.shape:
        raise ValueError(f"shape mismatch: {Sm.shape} vs {P.shape}")
    total = float(Sm.sum())
    if not (np.isfinite(Sm).all() and total > 0):
        raise ValueError(f"S must have finite entries and positive total mass, got sum {total!r}")
    s_bar = Sm / total
    p_bar = (P + KL_SMOOTHING_EPS) / (P + KL_SMOOTHING_EPS).sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = xlogy(s_bar, np.where(s_bar > 0, s_bar / p_bar, 1.0))
    return max(0.0, float(terms.sum()))
