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

from ._checks import check_real
from .geometry import Box, Mask, box_array, quality_scores, total_variation
from .hungarian import Assignment, _smoothed_kl, kl_divergence
from .sinkhorn import (
    Marginals,
    SinkhornParams,
    SoftAssignment,
    _backward,
    _iterate,
    coupling_values,
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
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0.0))


def _check_matching(values: np.ndarray, Pstar: Assignment, lambda_kl: float) -> None:
    # Checked even when lambda_kl is 0 and the matching goes unused: a
    # matching of another scene is a caller error either way.
    check_real("lambda_kl", lambda_kl, 0.0)
    if Pstar.indicator.shape != values.shape:
        raise ValueError(
            f"matching shape {Pstar.indicator.shape} does not match cost shape {values.shape}"
        )


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
    """Frobenius inner product <C, S> plus ``lambda_kl`` times the smoothed KL.

    ``lambda_kl`` must be finite and nonnegative, and ``Pstar`` must be a
    matching of C's shape.
    """
    values = cost_values(C)
    _check_matching(values, Pstar, lambda_kl)
    Sm = coupling_values(S)
    if values.shape != Sm.shape:
        raise ValueError(f"shape mismatch: {values.shape} vs {Sm.shape}")
    transport = float((values * Sm).sum())
    if lambda_kl == 0.0:
        return transport
    return transport + lambda_kl * kl_divergence(Sm, Pstar)


def bce(p: float, y: int) -> float:
    """Binary cross-entropy -y log p - (1 - y) log(1 - p), p clamped by ``BCE_EPS``.

    A non-finite ``p`` is rejected; clamping would hide it.
    """
    p = min(1.0 - BCE_EPS, max(BCE_EPS, check_real("p", p)))
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
    l_cls = check_real("l_cls", l_cls)
    l_match = check_real("l_match", l_match)
    l_reg = check_real("l_reg", l_reg)
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
    d KL / d S[a, b] = (log(s_bar[a, b] / p_bar[a, b]) - KL) / T, -inf where
    s_bar is 0.  A T too small to divide by (subnormal) raises ``ValueError``.
    """
    kl, total, s_bar, p_bar = _smoothed_kl(S, Pstar)  # rejects a coupling that is not one
    with np.errstate(divide="ignore", over="ignore"):
        log_ratio = np.log(s_bar) - np.log(p_bar)
        grad = (log_ratio - kl) / total
    if np.isinf(grad[np.isfinite(log_ratio)]).any():
        raise ValueError(f"S total mass {total!r} is too small to divide the KL gradient by")
    return grad


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
    ``lambda_kl`` and ``Pstar`` are checked as in ``matching_loss``.
    """
    values = cost_values(C)
    _check_matching(values, Pstar, lambda_kl)
    # one taped forward serves both S and the unrolled derivative
    S, phi, tape = _iterate(values, params, marg, keep_tape=True)
    upstream = values.copy()
    if lambda_kl != 0.0:
        upstream = upstream + lambda_kl * kl_grad_wrt_assignment(S, Pstar)
    return S.matrix + _backward(S, phi, tape, params.tau, upstream)


def quality_labels(boxes: Sequence[Box], gts: Sequence[Box]) -> np.ndarray:
    """Binary targets: 1 where the best ground-truth IoU reaches ``LABEL_IOU_THRESH``."""
    return (quality_scores(box_array(boxes), gts) >= LABEL_IOU_THRESH).astype(np.int64)
