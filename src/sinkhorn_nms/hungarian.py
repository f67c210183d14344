"""Exact one-to-one assignment oracle and the divergence against it.

``hungarian_solve`` returns the globally optimal matching of cardinality
min(M, K), with a deterministic tie-break: among all optimal matchings it
returns the lexicographically smallest pair list.  The underlying linear
assignment subproblems are solved with scipy; the tie-break is enforced by
re-solving with pairs forced in lexicographic order, so optimality is never
sacrificed for determinism.  Each forced sub-problem that is solved is
taken as one C-ordered copy, so scipy makes none of its own.  A forced pair
counts as optimal when it is within the rounding error of an n-term sum of
the optimum, so it can neither reject a true optimum nor admit a pair that
is measurably worse.

Most probes need no LAP solve.  Within a slot the free columns are fixed,
and moving down to a later row only removes rows from the completion
sub-problem (rows below the candidate, free columns but its own), so the
exact completion cost for a column never goes down from row to row.  Each
column therefore keeps the last completion cost computed for it as a
bound, and a probe is skipped when the fixed cost, its entry and that
bound already exceed the optimum by two tolerances: one for the probe's
own test, one for the rounding of the two n-term sums.  Float addition is
monotone, so a skipped probe is one that would have failed; the probes
that do run, their LAP inputs, the pairs and the cost bits are those of
the loop without the bound.
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
        # The last completion cost computed for each free column: a later
        # row's completion has fewer rows to choose from, so it is no lower.
        bound = [-np.inf] * len(cols)
        # Rows skipped here stay unmatched, which is only affordable when
        # enough rows remain below the candidate to complete the matching.
        for j in range(start, M - need):
            row = rows[j]
            for i, k in enumerate(cols):
                head = fixed_cost + row[k]
                if head + bound[i] > optimum + 2 * tol:
                    continue  # fails the test below whatever its LAP returns
                others = cols[:i] + cols[i + 1 :]
                rest = bound[i] = _lap_cost(values[j + 1 :].take(others, axis=1)) if need else 0.0
                if head + rest <= optimum + tol:
                    break
            else:
                continue
            break
        else:  # pragma: no cover - optimum always admits completion
            raise RuntimeError("failed to reconstruct an optimal matching")
        pairs.append((j, k))
        fixed_cost += row[k]
        start = j + 1
        del cols[i]

    indicator = np.zeros((M, K), dtype=np.float64)
    for j, k in pairs:
        indicator[j, k] = 1.0
    return Assignment(pairs=tuple(pairs), total_cost=fixed_cost, indicator=indicator)


def _smoothed_kl(S: SoftAssignment | np.ndarray, Pstar: Assignment):
    """The divergence and its parts: ``(kl, total, s_bar, p_bar)``.

    ``total`` is the coupling's mass, ``s_bar`` the coupling over it and
    ``p_bar`` the smoothed matching over its own mass.
    """
    Sm = coupling_values(S)
    P = Pstar.indicator
    if Sm.shape != P.shape:
        raise ValueError(f"shape mismatch: {Sm.shape} vs {P.shape}")
    total = float(Sm.sum())
    if not (np.isfinite(Sm).all() and total > 0):
        raise ValueError(f"S must have finite entries and positive total mass, got sum {total!r}")
    if Sm.min() < 0:
        raise ValueError(f"S must have nonnegative entries, got {float(Sm.min())!r}")
    s_bar = Sm / total
    p_bar = (P + KL_SMOOTHING_EPS) / (P + KL_SMOOTHING_EPS).sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = xlogy(s_bar, np.where(s_bar > 0, s_bar / p_bar, 1.0))
    return max(0.0, float(terms.sum())), total, s_bar, p_bar


def kl_divergence(S: SoftAssignment | np.ndarray, Pstar: Assignment) -> float:
    """KL divergence between the normalized coupling and the smoothed matching.

    Both arguments are normalized to total mass one; the indicator is
    smoothed by ``KL_SMOOTHING_EPS`` before normalization because it has zero
    entries wherever the coupling may spread mass.  Terms where the coupling
    is zero contribute nothing.  A coupling with a non-finite or negative
    entry, or without positive total mass, is rejected.
    """
    return _smoothed_kl(S, Pstar)[0]
