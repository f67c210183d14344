"""Loss terms: matching cost, binary cross-entropy, mask smoothness, and totals.

The matching loss couples the cost matrix with the soft assignment and pulls
the assignment toward the discrete optimum through a smoothed KL term.  Its
gradient with respect to the costs treats the discrete matching as constant
(it is piecewise constant in the costs, so its derivative vanishes almost
everywhere) and routes the rest through the unrolled solver derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Box, Mask, box_array, quality_scores, total_variation
from .hungarian import KL_SMOOTHING_EPS, Assignment, kl_divergence
from .sinkhorn import (
    Marginals,
    SinkhornParams,
    SoftAssignment,
    coupling_values,
    grad_unrolled,
    solve,
)
from .cost import CostMatrix, cost_values

BCE_EPS = 1e-7
LABEL_IOU_THRESH = 0.5


@dataclass(frozen=True)
class LossWeights:
    """Weights for the KL pull (``lambda_kl``) and the total-loss combination.

    The total is ``l_cls + lambda1 * l_match + lambda2 * l_reg``.
    """

    lambda_kl: float = 1.0
    lambda1: float = 1.0
    lambda2: float = 1.0

    def __post_init__(self):
        for name in ("lambda_kl", "lambda1", "lambda2"):
            val = getattr(self, name)
            if not math.isfinite(val) or val < 0:
                raise ValueError(f"{name} must be finite and nonnegative")


@dataclass(frozen=True)
class LossReport:
    """Per-term values, the weighted total, and the total's term gradients.

    ``term_gradients`` holds (d total / d l_cls, d total / d l_match,
    d total / d l_reg) = (1, lambda1, lambda2) for chain-rule composition
    with the per-term derivative operations.
    """

    l_cls: float
    l_match: float
    l_reg: float
    total: float
    weights: LossWeights
    term_gradients: tuple[float, float, float]


def matching_loss(
    C: CostMatrix | np.ndarray,
    S: SoftAssignment | np.ndarray,
    Pstar: Assignment,
    lambda_kl: float,
) -> float:
    """Frobenius inner product <C, S> plus ``lambda_kl`` times the smoothed KL."""
    values = cost_values(C)
    Sm = coupling_values(S)
    if values.shape != Sm.shape:
        raise ValueError(f"shape mismatch: {values.shape} vs {Sm.shape}")
    transport = float((values * Sm).sum())
    if lambda_kl == 0.0:
        return transport
    return transport + lambda_kl * kl_divergence(Sm, Pstar)


def bce(p: float, y: int) -> float:
    """Binary cross-entropy -y log p - (1 - y) log(1 - p), p clamped by ``BCE_EPS``."""
    p = min(1.0 - BCE_EPS, max(BCE_EPS, p))
    return float(-y * math.log(p) - (1 - y) * math.log(1.0 - p))


def bce_mean(ps: Sequence[float], ys: Sequence[int]) -> float:
    """Mean binary cross-entropy over a batch."""
    if len(ps) != len(ys):
        raise ValueError("probability and label batches must have equal length")
    if len(ps) == 0:
        raise ValueError("empty batch")
    return float(np.mean([bce(p, y) for p, y in zip(ps, ys)]))


def tv_loss(masks: Sequence[Mask]) -> float:
    """Sum of total variations over all masks."""
    return float(sum(total_variation(m) for m in masks))


def total_loss(l_cls: float, l_match: float, l_reg: float, w: LossWeights) -> LossReport:
    """Weighted total l_cls + lambda1 * l_match + lambda2 * l_reg."""
    for name, val in (("l_cls", l_cls), ("l_match", l_match), ("l_reg", l_reg)):
        if not math.isfinite(val):
            raise ValueError(f"{name} must be finite")
    total = l_cls + w.lambda1 * l_match + w.lambda2 * l_reg
    return LossReport(
        l_cls=l_cls,
        l_match=l_match,
        l_reg=l_reg,
        total=total,
        weights=w,
        term_gradients=(1.0, w.lambda1, w.lambda2),
    )


def kl_grad_wrt_assignment(S: SoftAssignment | np.ndarray, Pstar: Assignment) -> np.ndarray:
    """Derivative of the smoothed, normalized KL with respect to the coupling.

    With s_bar = S / T, T = sum(S):
    d KL / d S[a, b] = (log(s_bar[a, b] / p_bar[a, b]) - KL) / T.
    """
    Sm = coupling_values(S)
    kl = kl_divergence(Sm, Pstar)  # rejects a coupling that is not one
    total = float(Sm.sum())
    s_bar = Sm / total
    P = Pstar.indicator
    p_bar = (P + KL_SMOOTHING_EPS) / (P + KL_SMOOTHING_EPS).sum()
    with np.errstate(divide="ignore"):
        log_ratio = np.log(s_bar) - np.log(p_bar)
    return (log_ratio - kl) / total


def grad_matching_wrt_cost(
    C: CostMatrix | np.ndarray,
    params: SinkhornParams,
    marg: Marginals,
    Pstar: Assignment,
    lambda_kl: float,
) -> np.ndarray:
    """Derivative of ``matching_loss`` with S produced by the solver.

    The explicit <C, S> term contributes S itself; the dependence of S on C
    flows through the unrolled solver derivative with upstream
    C + lambda_kl * dKL/dS.  The discrete matching is held constant.
    """
    values = cost_values(C)
    S = solve(values, params, marg)
    upstream = values.copy()
    if lambda_kl != 0.0:
        upstream = upstream + lambda_kl * kl_grad_wrt_assignment(S, Pstar)
    return S.matrix + grad_unrolled(values, params, marg, upstream)


def quality_labels(boxes: Sequence[Box], gts: Sequence[Box]) -> np.ndarray:
    """Binary targets: 1 where the best ground-truth IoU reaches ``LABEL_IOU_THRESH``."""
    return (quality_scores(box_array(boxes), gts) >= LABEL_IOU_THRESH).astype(np.int64)
