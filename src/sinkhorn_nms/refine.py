"""Entropy-constrained refinement of proposal probabilities.

The problem is to maximize the linear objective <q, p> over the probability
simplex intersected with the entropy superlevel set {H(p) >= tau_H}.  The
linear maximization oracle has the closed form softmax(q / lambda); the
multiplier lambda is found by safeguarded Newton steps inside a bracket, with
a bisection's stopping rule and guarantee, so that the entropy constraint is
met, and the conditional-gradient loop with exact line search reaches the
optimum of the linear objective in at most two iterations, so it runs at
most two.  For ``tau_H >= ln K - 1e-12`` the oracle and the loop return the
uniform vector, every entry exactly ``1/K``, whose computed entropy can fall
short of ``tau_H`` by rounding.  Only ``tau_H`` is settable; the bracket and
stopping numerics are module constants.

Entropy is measured in nats throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from ._checks import check_real

# Bracket of the softmax multiplier lambda and the width at which its search stops.
LAMBDA_MIN = 0.001
LAMBDA_MAX = 100.0
BISECT_EPS = 1e-6
# Objective change below which the conditional-gradient loop stops.
DELTA = 1e-8


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
        if not np.isfinite(p).all():  # NaN passes both range checks below
            raise ValueError("simplex vector entries must be finite")
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

    def __post_init__(self):
        object.__setattr__(self, "tau_H", check_real("tau_H", self.tau_H, 0.0))


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


def _check_q(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("q must be a 1-d non-empty vector")
    if not np.isfinite(q).all():
        raise ValueError("q must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # _softmax_scaled's z - z.max() at LAMBDA_MIN
        if not np.isfinite(q / LAMBDA_MIN - q.max() / LAMBDA_MIN).all():
            raise ValueError(f"q too large for the softmax at LAMBDA_MIN: max |q| = {abs(q).max():.6g}")
    return q


def lmo_entropy(q: np.ndarray, params: RefineParams) -> SimplexVector:
    """Feasible maximizer of <q, s> over the entropy-constrained simplex.

    If the softmax at ``LAMBDA_MIN`` already meets the entropy target it is
    returned directly.  Otherwise lambda solves ``H(softmax(q / lambda)) =
    tau_H`` by Newton steps in log lambda, where the slope of H is
    ``Var_p(q) / lambda**2``, starting from the infeasible end of the bracket
    ``[LAMBDA_MIN, LAMBDA_MAX]``; each evaluated point replaces the bracket
    end on its side.  A step that leaves the bracket, or that is longer than
    half the move before last (the safeguard of Numerical Recipes'
    ``rtsafe``), is replaced by the geometric midpoint, and a step ending
    within ``BISECT_EPS`` of an end probes ``BISECT_EPS`` from that end.  As
    in a bisection, the loop stops once the bracket is at most ``BISECT_EPS``
    wide and returns the softmax at its larger-lambda end, so the entropy
    constraint holds exactly on the output and lambda lies within
    ``BISECT_EPS`` of a crossing of the target.  When the target is
    unreachable even at ``LAMBDA_MAX`` the uniform vector is returned with an
    :class:`UnreachableEntropyWarning`.  For ``tau_H >= ln K - 1e-12`` it is
    the entropy maximiser, every entry exactly ``1/K``, whose computed
    entropy can fall short of ``tau_H`` by rounding.
    """
    q = _check_q(q)
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

    lo, hi = LAMBDA_MIN, LAMBDA_MAX
    s_lo = _softmax_scaled(q, lo)
    h = entropy(s_lo)
    if h >= params.tau_H:
        return SimplexVector(s_lo)
    s_hi = _softmax_scaled(q, hi)
    if entropy(s_hi) < params.tau_H:
        warnings.warn(
            "entropy target unreachable at LAMBDA_MAX; returning uniform",
            UnreachableEntropyWarning,
        )
        return SimplexVector(uniform)
    # Scores rescaled to [0, 1], so that their variance cannot overflow.
    q_min = q.min()
    spread = float(q.max() - q_min)
    u = (q - q_min) / spread
    lam, p, newton = lo, s_lo, True
    last = before = math.log(hi / lo)  # lengths in log lambda of the last two moves
    while hi - lo > BISECT_EPS:
        step = math.inf
        if newton:
            d = u - p @ u
            slope = float(p @ (d * d)) * (spread / lam) * (spread / lam)
            if slope > 0.0:
                step = (params.tau_H - h) / slope
        if math.log(lo / lam) <= step <= math.log(hi / lam) and 2.0 * abs(step) <= before:
            new = lam * math.exp(step)
        else:
            new = math.sqrt(lo * hi)
        # A step ending within BISECT_EPS of an end probes BISECT_EPS from it,
        # which closes the bracket if the root lies in between; if it does
        # not, H is flat to rounding there and the next step is a midpoint.
        probe = min(max(new, _within_eps(lo, 1.0)), _within_eps(hi, -1.0))
        newton = probe == new
        before, last, lam = last, abs(math.log(probe / lam)), probe
        p = _softmax_scaled(q, lam)
        h = entropy(p)
        if h < params.tau_H:
            lo = lam
        else:
            hi, s_hi = lam, p
    return SimplexVector(s_hi)


def _within_eps(end: float, direction: float) -> float:
    """The float ``BISECT_EPS`` from ``end`` in ``direction``, rounded toward ``end``."""
    x = end + direction * BISECT_EPS
    return x if abs(x - end) <= BISECT_EPS else math.nextafter(x, end)


def frank_wolfe(q: np.ndarray, params: RefineParams) -> FrankWolfeResult:
    """Conditional-gradient maximization of <q, p> under the entropy constraint.

    Starts from the uniform distribution, moves toward the oracle point with
    exact line search, and stops when the objective change falls below
    ``DELTA``, which it does by the second iteration.  The returned point
    sums to one and its entropy is at least ``tau_H``, except for ``tau_H >=
    ln K - 1e-12``: there it is the uniform vector, every entry exactly
    ``1/K``, whose computed entropy can fall short of ``tau_H`` by rounding.
    """
    q = _check_q(q)
    K = q.shape[0]
    p = np.full(K, 1.0 / K)
    f_prev = float(q @ p)
    trace = [f_prev]
    iterations = 0
    # The oracle point is the same on every iteration.  The first sets p to
    # 0.0 * p + 1.0 * s.p, which is s.p bit for bit, or keeps p; either way
    # the second finds no improvement, takes gamma = 0 and changes nothing.
    for _ in range(2):
        s = lmo_entropy(q, params)
        # Exact line search on a linear objective: an endpoint, ties keep p.
        gamma = 1.0 if float(q @ s.p) > float(q @ p) else 0.0
        p = (1.0 - gamma) * p + gamma * s.p
        f = float(q @ p)
        trace.append(f)
        iterations += 1
        if abs(f - f_prev) < DELTA:
            break
        f_prev = f
    return FrankWolfeResult(p=SimplexVector(p), iterations=iterations, objective_trace=tuple(trace))

