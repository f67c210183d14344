"""Empirical verification harnesses: gradient checks and convergence sweeps.

All three derivative checks (the unrolled solver, the matching loss and the
closed-form coupling Jacobian) run on one driver that compares derivatives
against central finite differences on seeded random instances.  Errors are
normalized by the largest finite-difference magnitude, so the reported
number is max|g - g_fd| / max|g_fd|.  Convergence sweeps run the
Hilbert-metric contraction check across a temperature grid and confirm that
the entropy-constrained refinement returns a feasible point whose linear
objective is no worse than the best feasible point of a dense multiplier grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import xlogy

from ._checks import check_int, check_real
from .hungarian import hungarian_solve
from .losses import grad_matching_wrt_cost, matching_loss
from .refine import BISECT_EPS, LAMBDA_MAX, LAMBDA_MIN, RefineParams, _softmax_scaled
from .refine import entropy, frank_wolfe
from .rng import SplitMix64
from .sinkhorn import (
    NO_EARLY_STOP_TOL,
    Marginals,
    SinkhornParams,
    grad_analytic,
    grad_unrolled,
    solve,
    verify_contraction,
)

DEFAULT_FD_STEP = 1e-5
# Beyond this step the central difference no longer approximates a derivative.
ABSURD_FD_STEP = 0.1
# Iteration budget of each measured contraction run.
CONTRACTION_ITERS = 5000
# The refinement sweep draws K from 2 to FW_K_MAX and compares its objective
# with softmax(q / lambda) at each multiplier of this grid.
FW_K_MAX = 12
FW_LAMBDA_GRID = np.geomspace(LAMBDA_MIN, LAMBDA_MAX, 4001)


def fd_threshold(tau: float) -> float:
    """Pass threshold for normalized gradient error as a function of temperature.

    Sharpness of the coupling grows like exp(range / tau), which inflates
    both the true curvature and the finite-difference truncation error:

        tau >= 0.5   -> 1e-4
        0.1 <= tau < 0.5 -> 1e-2
        tau < 0.1    -> 1e-1
    """
    if tau >= 0.5:
        return 1e-4
    if tau >= 0.1:
        return 1e-2
    return 1e-1


@dataclass(frozen=True)
class GradCheckTrial:
    seed: int
    m: int
    k: int
    error: float


@dataclass(frozen=True)
class GradCheckReport:
    kind: str
    tau: float
    iters: int
    fd_step: float
    threshold: float
    trials: tuple[GradCheckTrial, ...]
    max_error: float
    passed: bool
    note: str | None = None


def random_matrix(rng: SplitMix64, m: int, k: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    return np.array([[rng.uniform(lo, hi) for _ in range(k)] for _ in range(m)])


def central_difference(f: Callable[[np.ndarray], float], X: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of a scalar function of a matrix."""
    grad = np.zeros_like(X)
    for idx in np.ndindex(*X.shape):
        plus = X.copy()
        plus[idx] += step
        minus = X.copy()
        minus[idx] -= step
        grad[idx] = (f(plus) - f(minus)) / (2.0 * step)
    return grad


def normalized_error(grad: np.ndarray, fd: np.ndarray) -> float:
    scale = max(float(np.abs(fd).max()), 1e-12)
    return float(np.abs(grad - fd).max()) / scale


def _sizes(rng: SplitMix64, m_max: int, k_max: int) -> tuple[int, int]:
    # Instances are at least 2 x 2, so m_max and k_max must be >= 2.
    return 2 + rng.randint(m_max - 1), 2 + rng.randint(k_max - 1)


def _gradcheck(
    kind: str,
    case: Callable,
    m_max: int,
    k_max: int,
    tau: float,
    iters: int,
    trials: int,
    seed: int,
    fd_step: float,
    threshold: float | None,
) -> GradCheckReport:
    """Finite-difference check loop shared by the three derivative checks.

    Each trial draws its sizes and C from ``rng``; ``case(rng, C, params,
    marg)`` may draw further inputs and returns the derivative under test
    together with the scalar loss of C that it differentiates.
    """
    trials = check_int("trials", trials, 1)
    fd_step = check_real("fd_step", fd_step, 0.0, strict=True)
    threshold = check_real("threshold", fd_threshold(tau) if threshold is None else threshold)
    m_max, k_max = check_int("m_max", m_max, 2), check_int("k_max", k_max, 2)
    rng = SplitMix64(seed)
    # Early stopping is disabled: a perturbed input could otherwise change the
    # number of executed iterations and make the loss discontinuous at the
    # finite-difference scale.
    params = SinkhornParams(tau=tau, iters=iters, tol=NO_EARLY_STOP_TOL)
    results = []
    for t in range(trials):
        m, k = _sizes(rng, m_max, k_max)
        C = random_matrix(rng, m, k)
        grad, loss = case(rng, C, params, Marginals.uniform(m, k))
        fd = central_difference(loss, C, fd_step)
        results.append(GradCheckTrial(seed=t, m=m, k=k, error=normalized_error(grad, fd)))
    max_error = max(r.error for r in results)
    return GradCheckReport(
        kind=kind,
        tau=tau,
        iters=iters,
        fd_step=fd_step,
        threshold=threshold,
        trials=tuple(results),
        max_error=max_error,
        passed=max_error < threshold,
        note=_step_note(fd_step),
    )


def gradcheck_unrolled(
    m_max: int = 5,
    k_max: int = 4,
    tau: float = 1.0,
    iters: int = 10,
    trials: int = 10,
    seed: int = 0,
    fd_step: float = DEFAULT_FD_STEP,
    threshold: float | None = None,
) -> GradCheckReport:
    """Unrolled solver derivative versus central differences of <U, S(C)>."""

    def case(rng, C, params, marg):
        U = random_matrix(rng, *C.shape, -1.0, 1.0)
        return (
            grad_unrolled(C, params, marg, U),
            lambda X: float((U * solve(X, params, marg).matrix).sum()),
        )

    return _gradcheck("unrolled", case, m_max, k_max, tau, iters, trials, seed, fd_step, threshold)


def gradcheck_matching(
    m_max: int = 5,
    k_max: int = 4,
    tau: float = 1.0,
    iters: int = 10,
    trials: int = 10,
    seed: int = 0,
    fd_step: float = DEFAULT_FD_STEP,
    lambda_kl: float = 0.5,
    threshold: float | None = None,
) -> GradCheckReport:
    """Matching-loss derivative versus central differences.

    The discrete matching is frozen at the base point, matching the
    derivative's piecewise-constant treatment of it.
    """
    lambda_kl = check_real("lambda_kl", lambda_kl, 0.0)

    def case(rng, C, params, marg):
        Pstar = hungarian_solve(C)
        return (
            grad_matching_wrt_cost(C, params, marg, Pstar, lambda_kl),
            lambda X: matching_loss(X, solve(X, params, marg), Pstar, lambda_kl),
        )

    return _gradcheck("matching", case, m_max, k_max, tau, iters, trials, seed, fd_step, threshold)


def _step_note(fd_step: float) -> str | None:
    if fd_step >= ABSURD_FD_STEP:
        return (
            f"finite-difference step {fd_step:g} is far too large for a meaningful "
            "derivative comparison; use a step near 1e-5"
        )
    return None


@dataclass(frozen=True)
class JacobianCheckReport:
    """Closed-form coupling Jacobian checked where it is provably exact.

    ``softmax_max_error`` compares the formula against finite differences of
    the single-global-normalization map.  ``sinkhorn_gap`` measures its
    deviation from the unrolled derivative of the fully scaled solver; this
    is reported, not asserted.
    """

    softmax_max_error: float
    sinkhorn_gap: float
    trials: int
    passed: bool
    threshold: float


def jacobian_formula_check(
    trials: int = 20,
    m_max: int = 4,
    k_max: int = 3,
    tau: float = 1.0,
    iters: int = 10,
    seed: int = 0,
    fd_step: float = DEFAULT_FD_STEP,
    threshold: float = 1e-6,
) -> JacobianCheckReport:
    gaps = []

    def case(rng, C, params, marg):
        U = random_matrix(rng, *C.shape, -1.0, 1.0)
        g_analytic = grad_analytic(solve(C, params, marg), tau, U)
        gaps.append(normalized_error(g_analytic, grad_unrolled(C, params, marg, U)))
        return (
            grad_analytic(_softmax_scaled(-C, tau), tau, U),
            lambda X: float((U * _softmax_scaled(-X, tau)).sum()),
        )

    check = _gradcheck("jacobian", case, m_max, k_max, tau, iters, trials, seed, fd_step, threshold)
    return JacobianCheckReport(
        softmax_max_error=check.max_error,
        sinkhorn_gap=max(0.0, *gaps),
        trials=trials,
        passed=check.passed,
        threshold=threshold,
    )


@dataclass(frozen=True)
class ContractionRow:
    tau: float
    trial: int
    m: int
    k: int
    max_ratio: float | None
    rate_bound: float
    passed: bool


@dataclass(frozen=True)
class FrankWolfeRow:
    trial: int
    k: int
    tau_H: float
    gap: float
    iterations: int
    passed: bool


@dataclass(frozen=True)
class ConvergenceSweepReport:
    contraction: tuple[ContractionRow, ...]
    frank_wolfe: tuple[FrankWolfeRow, ...]
    passed: bool


def contraction_sweep(
    taus: tuple[float, ...] = (0.5, 1.0, 2.0),
    trials: int = 20,
    m_max: int = 10,
    k_max: int = 6,
    seed: int = 0,
) -> tuple[ContractionRow, ...]:
    """Hilbert-ratio contraction check over a grid of temperatures."""
    trials = check_int("trials", trials, 1)
    m_max, k_max = check_int("m_max", m_max, 2), check_int("k_max", k_max, 2)
    # every temperature is checked before the first trial
    grid = [SinkhornParams(tau=tau, iters=CONTRACTION_ITERS) for tau in taus]
    rng = SplitMix64(seed)
    rows = []
    for params in grid:
        for t in range(trials):
            m, k = _sizes(rng, m_max, k_max)
            C = random_matrix(rng, m, k)
            report = verify_contraction(C, params, Marginals.uniform(m, k))
            rows.append(
                ContractionRow(
                    tau=params.tau,
                    trial=t,
                    m=m,
                    k=k,
                    max_ratio=report.max_ratio,
                    rate_bound=report.rate_bound,
                    passed=report.passed,
                )
            )
    return tuple(rows)


def frank_wolfe_sweep(trials: int = 100, seed: int = 0) -> tuple[FrankWolfeRow, ...]:
    """Optimality of the linear refinement objective on random inputs.

    For each random (q, tau_H) draw the returned point must be feasible, and
    ``gap``, by which its objective falls short of the best feasible point on
    a dense multiplier grid, within a bound derived from ``BISECT_EPS``.  The
    check makes no call to the oracle the refinement itself uses.
    """
    trials = check_int("trials", trials, 1)
    rng = SplitMix64(seed)
    rows = []
    for t in range(trials):
        k = 2 + rng.randint(FW_K_MAX - 1)
        q = np.array([rng.uniform(0.0, 1.0) for _ in range(k)])
        tau_H = rng.uniform(0.0, math.log(k))
        result = frank_wolfe(q, RefineParams(tau_H=tau_H))
        feasible = (
            abs(float(result.p.p.sum()) - 1.0) <= 1e-10
            and entropy(result.p) >= tau_H - 1e-6
        )
        # softmax(q / lambda) on the grid, then the uniform vector (lambda -> inf)
        z = q / FW_LAMBDA_GRID[:, None]
        P = np.exp(z - z.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        f = np.append(np.where(-xlogy(P, P).sum(axis=1) >= tau_H, P @ q, -np.inf), q.mean())
        i = int(np.argmax(f))
        gap = max(0.0, float(f[i]) - float(q @ result.p.p))
        # The objective of softmax(q / lambda) falls as lambda grows, at rate
        # Var(q) / lambda**2 <= ptp(q)**2 / (4 lambda**2).  The optimal lambda
        # exceeds the grid point before i, which is infeasible, and bisection
        # returns one at most BISECT_EPS above it; the last term is rounding.
        lam = float(FW_LAMBDA_GRID[max(i - 1, 0)])
        tol = BISECT_EPS * float(np.ptp(q)) ** 2 / (4.0 * lam**2)
        tol += FW_K_MAX * math.ulp(1.0) * float(np.abs(q).max())
        passed = feasible and gap <= tol
        rows.append(
            FrankWolfeRow(
                trial=t,
                k=k,
                tau_H=tau_H,
                gap=gap,
                iterations=result.iterations,
                passed=passed,
            )
        )
    return tuple(rows)


def convergence_sweep(
    taus: tuple[float, ...] = (0.5, 1.0, 2.0),
    trials: int = 20,
    m_max: int = 10,
    k_max: int = 6,
    seed: int = 0,
) -> ConvergenceSweepReport:
    contraction = contraction_sweep(taus=taus, trials=trials, m_max=m_max, k_max=k_max, seed=seed)
    fw = frank_wolfe_sweep(trials=max(trials, 20), seed=seed + 1)
    passed = all(r.passed for r in contraction) and all(r.passed for r in fw)
    return ConvergenceSweepReport(contraction=contraction, frank_wolfe=fw, passed=passed)
