"""The Newton search for the entropy multiplier against the bisection it replaced.

``bisection_lmo_entropy`` below is the earlier ``lmo_entropy``, kept
verbatim as the reference oracle except that it also returns the multiplier
it stopped at (``None`` on its early returns).  Both stop once their bracket
is at most ``BISECT_EPS`` wide and return the softmax at its larger-lambda
end, so each multiplier lies within ``BISECT_EPS`` above a crossing of the
target.  With eps the float64 machine epsilon and lambda_B the bisection's
multiplier:

* the early returns (already feasible at ``LAMBDA_MIN``, ``tau_H >= ln K``,
  unreachable target with its warning) are byte-equal;
* past them the output is feasible: its entropy is at least ``tau_H``;
* ``q . p`` lies between ``q . softmax(q / (lambda_B + BISECT_EPS))`` and
  ``q . softmax(q / (lambda_B - BISECT_EPS))``, up to
  ``WINDOW_SLACK * eps * (max|q| + lambda_B ln K)``: the rounding of each
  objective, and the entropy's own rounding (about eps ln K), which can move a
  crossing and moves the objective by lambda times as much, because
  ``d(q . p) / dH = -lambda`` along the softmax path.  The largest excess
  seen over 120 000 generated problems was 3.3 of these units;
* over a fixed sample, the mean number of softmax evaluations past the early
  returns is at most half the bisection's.
"""

from __future__ import annotations

import math
import warnings
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkhorn_nms import refine
from sinkhorn_nms.refine import (
    BISECT_EPS,
    LAMBDA_MAX,
    LAMBDA_MIN,
    RefineParams,
    SimplexVector,
    UnreachableEntropyWarning,
    entropy,
)

EPS = float(np.finfo(np.float64).eps)
WINDOW_SLACK = 8.0

# reference implementation


def _softmax_scaled(q: np.ndarray, lam: float) -> np.ndarray:
    z = q / lam
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def bisection_lmo_entropy(q: np.ndarray, params: RefineParams) -> tuple[SimplexVector, float | None]:
    """Feasible maximizer of <q, s> over the entropy-constrained simplex.

    If the softmax at ``LAMBDA_MIN`` already meets the entropy target it is
    returned directly; otherwise lambda is bisected until the bracket width
    drops below ``BISECT_EPS`` and the larger-lambda endpoint is returned, so
    the entropy constraint holds exactly on the output.  When the target is
    unreachable even at ``LAMBDA_MAX`` the uniform vector is returned with an
    :class:`UnreachableEntropyWarning`.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("q must be a 1-d non-empty vector")
    if not np.isfinite(q).all():
        raise ValueError("q must be finite")
    K = q.shape[0]
    max_entropy = math.log(K)
    if params.tau_H > max_entropy + 1e-12:
        raise ValueError(
            f"infeasible entropy threshold: tau_H={params.tau_H} > ln(K)={max_entropy}"
        )
    uniform = np.full(K, 1.0 / K)
    if K == 1 or params.tau_H >= max_entropy - 1e-12:
        # The feasible set collapses to the entropy maximizer.
        return SimplexVector(uniform), None

    lo, hi = LAMBDA_MIN, LAMBDA_MAX
    s_lo = _softmax_scaled(q, lo)
    if entropy(s_lo) >= params.tau_H:
        return SimplexVector(s_lo), None
    s_hi = _softmax_scaled(q, hi)
    if entropy(s_hi) < params.tau_H:
        warnings.warn(
            "entropy target unreachable at LAMBDA_MAX; returning uniform",
            UnreachableEntropyWarning,
        )
        return SimplexVector(uniform), None
    while hi - lo > BISECT_EPS:
        mid = 0.5 * (lo + hi)
        if entropy(_softmax_scaled(q, mid)) < params.tau_H:
            lo = mid
        else:
            hi = mid
    return SimplexVector(_softmax_scaled(q, hi)), hi


# problems


def problem(seed: int) -> tuple[np.ndarray, float]:
    """Scores for K in 2..64 scaled by 1e-2..1e2, and a target in [0, ln K].

    Some score vectors tie half their entries at the maximum, where the
    entropy is flat to rounding near ln(K // 2); some targets sit near 0,
    near ln K or on such a level.
    """
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 65))
    kind = rng.integers(0, 4)
    if kind == 0:
        q = rng.uniform(0.0, 1.0, K)
    elif kind == 1:
        q = rng.normal(size=K)
    elif kind == 2:
        q = np.round(rng.uniform(0.0, 1.0, K), 1)
    else:
        q = rng.uniform(0.0, 1.0, K)
        q[: K // 2] = q.max()
    q *= 10.0 ** rng.uniform(-2.0, 2.0)
    ln_k = math.log(K)
    where = rng.integers(0, 4)
    if where == 0:
        tau = ln_k * (1.0 - 10.0 ** rng.uniform(-13.0, -1.0))
    elif where == 1:
        tau = ln_k * 10.0 ** rng.uniform(-13.0, -1.0)
    elif where == 2:
        tau = float(rng.choice([0.0, math.log(2.0), math.log(max(K // 2, 1)), ln_k]))
    else:
        tau = rng.uniform(0.0, ln_k)
    return q, tau


def _run(fn, q, tau):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(q, RefineParams(tau_H=tau))
    return out, [(w.category, str(w.message)) for w in caught]


def _objective(q: np.ndarray, lam: float) -> float:
    return float(q @ _softmax_scaled(q, lam))


@settings(max_examples=600, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_newton_lands_in_the_bisection_window(seed):
    q, tau = problem(seed)
    (ref, lam_b), ref_warnings = _run(bisection_lmo_entropy, q, tau)
    out, out_warnings = _run(refine.lmo_entropy, q, tau)
    assert out_warnings == ref_warnings
    if lam_b is None:
        assert out.p.tobytes() == ref.p.tobytes()
        return
    assert entropy(out) >= tau
    f = float(q @ out.p)
    slack = WINDOW_SLACK * EPS * (np.abs(q).max() + lam_b * math.log(len(q)))
    assert _objective(q, lam_b + BISECT_EPS) - slack <= f <= _objective(q, lam_b - BISECT_EPS) + slack


def test_early_returns_are_the_bisections():
    # one problem for each early return
    cases = [
        (np.array([0.3, 0.2, 0.1]), 0.0),  # feasible at LAMBDA_MIN
        (np.array([0.3, 0.2, 0.1]), math.log(3.0)),  # tau_H >= ln K
        (np.array([1e4, 0.0, 0.0]), math.log(3.0) - 1e-9),  # unreachable
    ]
    for q, tau in cases:
        (ref, lam_b), ref_warnings = _run(bisection_lmo_entropy, q, tau)
        out, out_warnings = _run(refine.lmo_entropy, q, tau)
        assert lam_b is None
        assert out.p.tobytes() == ref.p.tobytes()
        assert out_warnings == ref_warnings
    assert ref_warnings[0][0] is UnreachableEntropyWarning


def _evaluations(fn, q, tau) -> int:
    """Softmax evaluations of one call to ``fn``, counted in its own module."""
    calls = 0
    inner = fn.__globals__["_softmax_scaled"]

    def counting(q, lam):
        nonlocal calls
        calls += 1
        return inner(q, lam)

    with patch.dict(fn.__globals__, {"_softmax_scaled": counting}):
        _run(fn, q, tau)
    return calls


def test_mean_evaluations_at_most_half_the_bisections():
    # over the problems past the early returns, which cost both the same
    newton, bisection = [], []
    for seed in range(400):
        q, tau = problem(seed)
        if _run(bisection_lmo_entropy, q, tau)[0][1] is not None:
            newton.append(_evaluations(refine.lmo_entropy, q, tau))
            bisection.append(_evaluations(bisection_lmo_entropy, q, tau))
    assert len(newton) > 100
    assert np.mean(newton) <= 0.5 * np.mean(bisection)
