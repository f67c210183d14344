"""Entropy-constrained refinement of proposal probabilities.

The problem is to maximize the linear objective <q, p> over the probability
simplex intersected with the entropy superlevel set {H(p) >= tau_H}.  The
linear maximization oracle has the closed form softmax(q / lambda); the
multiplier lambda is found by bisection so that the entropy constraint is
met, and the conditional-gradient loop with exact line search reaches the
optimum of the linear objective in at most two iterations.

Entropy is measured in nats throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy


class UnreachableEntropyWarning(UserWarning):
    """The entropy target cannot be met even at the largest multiplier."""


@dataclass(frozen=True, eq=False)
class SimplexVector:
    """Probability vector: entries in [0, 1] summing to 1 within 1e-10."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("simplex vector must be 1-d and non-empty")
        if (p < -1e-12).any() or (p > 1.0 + 1e-12).any():
            raise ValueError("simplex vector entries must lie in [0, 1]")
        if abs(float(p.sum()) - 1.0) > 1e-10:
            raise ValueError(f"simplex vector must sum to 1, got {p.sum()!r}")
        object.__setattr__(self, "p", p)

    def __len__(self) -> int:
        return int(self.p.shape[0])


@dataclass(frozen=True)
class RefineParams:
    tau_H: float = 0.6
    t_max: int = 50
    delta: float = 1e-8
    lambda_min: float = 0.001
    lambda_max: float = 100.0
    bisect_eps: float = 1e-6

    def __post_init__(self):
        for name in ("tau_H", "delta", "lambda_min", "lambda_max", "bisect_eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.tau_H < 0:
            raise ValueError("tau_H must be nonnegative")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.delta <= 0 or self.bisect_eps <= 0:
            raise ValueError("delta and bisect_eps must be positive")
        if not (0 < self.lambda_min < self.lambda_max):
            raise ValueError("require 0 < lambda_min < lambda_max")


@dataclass(frozen=True, eq=False)
class FrankWolfeResult:
    p: SimplexVector
    iterations: int
    objective_trace: tuple[float, ...]


def entropy(p: SimplexVector | np.ndarray) -> float:
    """Natural-log entropy -sum p log p, with 0 log 0 = 0."""
    values = p.p if isinstance(p, SimplexVector) else np.asarray(p, dtype=np.float64)
    return float(-xlogy(values, values).sum())


def _softmax_scaled(q: np.ndarray, lam: float) -> np.ndarray:
    z = q / lam
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def lmo_entropy(q: np.ndarray, params: RefineParams) -> SimplexVector:
    """Feasible maximizer of <q, s> over the entropy-constrained simplex.

    If the softmax at ``lambda_min`` already meets the entropy target it is
    returned directly; otherwise lambda is bisected until the bracket width
    drops below ``bisect_eps`` and the larger-lambda endpoint is returned, so
    the entropy constraint holds exactly on the output.  When the target is
    unreachable even at ``lambda_max`` the uniform vector is returned with an
    :class:`UnreachableEntropyWarning`.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("q must be a 1-d non-empty vector")
    K = q.shape[0]
    max_entropy = math.log(K)
    if params.tau_H > max_entropy + 1e-12:
        raise ValueError(
            f"infeasible entropy threshold: tau_H={params.tau_H} > ln(K)={max_entropy}"
        )
    uniform = np.full(K, 1.0 / K)
    if K == 1 or params.tau_H >= max_entropy - 1e-12:
        # The feasible set collapses to the entropy maximizer.
        return SimplexVector(uniform)

    lo, hi = params.lambda_min, params.lambda_max
    s_lo = _softmax_scaled(q, lo)
    if entropy(s_lo) >= params.tau_H:
        return SimplexVector(s_lo)
    s_hi = _softmax_scaled(q, hi)
    if entropy(s_hi) < params.tau_H:
        warnings.warn(
            "entropy target unreachable at lambda_max; returning uniform",
            UnreachableEntropyWarning,
        )
        return SimplexVector(uniform)
    while hi - lo > params.bisect_eps:
        mid = 0.5 * (lo + hi)
        if entropy(_softmax_scaled(q, mid)) < params.tau_H:
            lo = mid
        else:
            hi = mid
    return SimplexVector(_softmax_scaled(q, hi))


def line_search(p: SimplexVector, s: SimplexVector, q: np.ndarray) -> float:
    """Exact step size for the linear objective: 1.0 on improvement, else 0.0.

    The objective is linear in the step, so the maximizer over [0, 1] is an
    endpoint; ties keep the current iterate.
    """
    q = np.asarray(q, dtype=np.float64)
    return 1.0 if float(q @ s.p) > float(q @ p.p) else 0.0


def frank_wolfe(q: np.ndarray, params: RefineParams) -> FrankWolfeResult:
    """Conditional-gradient maximization of <q, p> under the entropy constraint.

    Starts from the uniform distribution, moves toward the oracle point with
    exact line search, and stops when the objective change falls below
    ``delta`` or after ``t_max`` iterations.  The returned point is feasible:
    it sums to one and its entropy is at least ``tau_H``.
    """
    q = np.asarray(q, dtype=np.float64)
    K = q.shape[0]
    p = np.full(K, 1.0 / K)
    f_prev = float(q @ p)
    trace = [f_prev]
    iterations = 0
    for _ in range(params.t_max):
        s = lmo_entropy(q, params)
        gamma = line_search(SimplexVector(p), s, q)
        p = (1.0 - gamma) * p + gamma * s.p
        f = float(q @ p)
        trace.append(f)
        iterations += 1
        if abs(f - f_prev) < params.delta:
            break
        f_prev = f
    return FrankWolfeResult(p=SimplexVector(p), iterations=iterations, objective_trace=tuple(trace))


def duality_gap(p: SimplexVector, q: np.ndarray, params: RefineParams) -> float:
    """Suboptimality certificate <q, s_oracle - p>, clamped at zero."""
    q = np.asarray(q, dtype=np.float64)
    s = lmo_entropy(q, params)
    return max(0.0, float(q @ (s.p - p.p)))
