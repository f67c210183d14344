"""Entropic optimal-transport solver with convergence instrumentation and gradients.

The solver scales the Gibbs kernel exp(-C / tau) so that its row sums match a
source marginal ``a`` and its column sums match a target marginal ``b``
(both probability vectors, uniform by default).  Each full iteration scales
rows to ``a`` and then columns to ``b``; the column marginal is therefore
exact by construction after every iteration and the recorded violation trace
measures the residual row drift.

One iteration driver serves both computation modes.  It keeps the
log-scaled dual potentials ``uh = u / tau`` and ``vh = v / tau``; each
half-step sets one of them to the log marginal minus a row or column
log-partition of ``-C / tau`` plus the other potential.  The mode picks only
how that log-partition is reduced:

* linear mode takes the log of a Gibbs-kernel matrix-vector product, which is
  cheaper but underflows when every cost of a row or column exceeds about
  700 tau (small temperatures or large cost weights), and
* log mode takes a max-shifted log-sum-exp, which survives that.

In auto mode (``log_domain=None``) a linear run whose reduction goes
non-finite is rerun from scratch in log mode; an explicit linear request
raises ``NumericalError`` instead.  Both modes form the coupling as
``S = exp(uh + vh - C / tau)``, i.e.
``S = diag(exp(u / tau)) @ exp(-C / tau) @ diag(exp(v / tau))``.

Convergence is measured in the Hilbert projective metric, under which one
positive-kernel scaling pass contracts distances by at most
``rho = tanh(kappa / (4 tau))`` with ``kappa`` the cost diameter.
``verify_contraction`` checks this bound empirically against a long-run
reference solution.

Two derivative paths are exposed.  ``grad_unrolled`` is the exact
reverse-mode derivative through the iterations actually executed and serves
as the correctness reference.  ``grad_analytic`` applies a closed-form
coupling Jacobian,

    d S[i, j] / d C[k, l] = -(1 / tau) S[i, j] (delta_ik delta_jl - S[k, l]),

which is exact for a single global softmax normalization of -C / tau; its
deviation from the unrolled gradient under full alternating scaling is
measured by the verification harness rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cost import CostMatrix, cost_values, kappa

# Log-domain computation is the default below this temperature; the linear
# kernel exp(-C / tau) underflows for moderate costs there.  Auto mode also
# switches to log mode when a linear run underflows above it.
LOG_DOMAIN_TAU_THRESHOLD = 0.5

# Hilbert distances below this floor are dominated by the accuracy of the
# long-run reference plan and are excluded from ratio measurements.
_DH_FLOOR = 1e-10

_REFERENCE_ITERS = 10_000
_REFERENCE_TOL = 1e-14

# A tolerance below any achievable violation: a run with it never stops early.
NO_EARLY_STOP_TOL = 1e-300


class NumericalError(RuntimeError):
    """Raised when a solve produces non-finite intermediates."""


def require_positive(name: str, value: float) -> None:
    """Reject a scalar argument that is not finite and > 0, naming it.

    NaN passes ``value <= 0``, so an ordering check alone lets it through.
    """
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class SinkhornParams:
    tau: float = 0.1
    iters: int = 10
    tol: float = 1e-9
    log_domain: bool | None = None  # None: log mode for tau < 0.5 or on underflow

    def __post_init__(self):
        for name in ("tau", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau!r}")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")

    def resolve_log_domain(self) -> bool:
        if self.log_domain is None:
            return self.tau < LOG_DOMAIN_TAU_THRESHOLD
        return self.log_domain


@dataclass(frozen=True, eq=False)
class Marginals:
    """Strictly positive probability vectors prescribing row and column sums."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        for name, vec in (("a", a), ("b", b)):
            if vec.ndim != 1 or vec.size == 0:
                raise ValueError(f"marginal {name} must be a 1-d non-empty vector")
            if not np.isfinite(vec).all():
                raise ValueError(f"marginal {name} must be finite")
            if (vec <= 0).any():
                raise ValueError(f"marginal {name} must be strictly positive")
            if abs(float(vec.sum()) - 1.0) > 1e-12:
                raise ValueError(f"marginal {name} must sum to 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def uniform(cls, M: int, K: int) -> "Marginals":
        return cls(np.full(M, 1.0 / M), np.full(K, 1.0 / K))


@dataclass(frozen=True, eq=False)
class SoftAssignment:
    """Soft coupling with duals and the per-iteration marginal-violation trace.

    ``log_domain`` records the mode that produced the result, which differs
    from the requested one after an auto-mode fallback.
    """

    matrix: np.ndarray
    marginals: Marginals
    u: np.ndarray
    v: np.ndarray
    violations: tuple[float, ...]
    iterations: int
    converged: bool
    log_domain: bool


def coupling_values(S: SoftAssignment | np.ndarray) -> np.ndarray:
    """Accept either a SoftAssignment or a raw array and return float64 values."""
    return S.matrix if isinstance(S, SoftAssignment) else np.asarray(S, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class ContractionReport:
    """Observed Hilbert-metric contraction ratios against the tanh bound."""

    ratios: tuple[float, ...]
    max_ratio: float | None
    rate_bound: float
    passed: bool
    iterations: int
    distances: tuple[float, ...]


def _check_dims(values: np.ndarray, marg: Marginals) -> None:
    M, K = values.shape
    if marg.a.shape[0] != M or marg.b.shape[0] != K:
        raise ValueError(
            f"marginal sizes ({marg.a.shape[0]}, {marg.b.shape[0]}) do not match "
            f"cost matrix {M}x{K}"
        )


def _violation(S: np.ndarray, marg: Marginals) -> float:
    row = float(np.abs(S.sum(axis=1) - marg.a).sum())
    col = float(np.abs(S.sum(axis=0) - marg.b).sum())
    return max(row, col)


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along ``axis`` of a finite matrix.

    Bitwise equal to ``scipy.special.logsumexp``: entries tied at the maximum
    are counted apart from the shifted sum, which is then folded in by log1p.
    """
    xmax = x.max(axis=axis, keepdims=True)
    tied = x == xmax
    n = tied.sum(axis=axis, keepdims=True, dtype=np.float64)
    s = np.exp(np.where(tied, -np.inf, x) - xmax).sum(axis=axis, keepdims=True)
    return (np.log1p(s / n) + np.log(n) + xmax).squeeze(axis)


def _plan(phi: np.ndarray, uh: np.ndarray, vh: np.ndarray) -> np.ndarray:
    return np.exp(uh[:, None] + vh[None, :] + phi)


def _iterate(values, params, marg, keep_tape=False):
    """Alternate row and column scaling on the log-scaled duals (uh, vh).

    Returns the assignment, the log kernel ``phi = -C / tau`` and, with
    ``keep_tape``, the per-iteration duals ``(vh_in, uh, vh)``.
    """
    log_mode = params.resolve_log_domain()
    phi = -values / params.tau
    if log_mode:
        def row_lp(vh):
            return _lse(phi + vh[None, :], axis=1)

        def col_lp(uh):
            return _lse(phi + uh[:, None], axis=0)
    else:
        Km = np.exp(phi)

        def row_lp(vh):
            return np.log(Km @ np.exp(vh))

        def col_lp(uh):
            return np.log(Km.T @ np.exp(uh))
    log_a = np.log(marg.a)
    log_b = np.log(marg.b)
    uh = np.zeros(values.shape[0])
    vh = np.zeros(values.shape[1])
    tape = []
    violations = []
    for _ in range(params.iters):
        vh_in = vh
        # non-finite intermediates (kernel underflow) are detected explicitly
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            uh = log_a - row_lp(vh_in)
            vh = log_b - col_lp(uh)
        if not (log_mode or (np.isfinite(uh).all() and np.isfinite(vh).all())):
            if params.log_domain is None:
                return _iterate(values, replace(params, log_domain=True), marg, keep_tape)
            raise NumericalError("numerical failure; retry with log_domain")
        if keep_tape:
            tape.append((vh_in, uh, vh))
        S = _plan(phi, uh, vh)
        violations.append(_violation(S, marg))
        if violations[-1] < params.tol:
            break
    assignment = SoftAssignment(
        matrix=S,
        marginals=marg,
        u=params.tau * uh,
        v=params.tau * vh,
        violations=tuple(violations),
        iterations=len(violations),
        converged=violations[-1] < params.tol,
        log_domain=log_mode,
    )
    return assignment, phi, tape


def solve(C: CostMatrix | np.ndarray, params: SinkhornParams, marg: Marginals) -> SoftAssignment:
    """Run alternating row/column scaling for at most ``params.iters`` iterations.

    Stops early once the larger of the row and column L1 marginal violations
    drops below ``params.tol``.  The trace records that violation after every
    full iteration; the column marginal is exact by construction because the
    column scaling is applied last.
    """
    values = cost_values(C)
    _check_dims(values, marg)
    return _iterate(values, params, marg)[0]


def hilbert_distance(P: np.ndarray, Q: np.ndarray) -> float:
    """Hilbert projective metric log(max P/Q) + log(max Q/P) for positive arrays.

    Invariant under positive scaling of either argument, so it measures the
    distance between rays of positive matrices.
    """
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if P.shape != Q.shape:
        raise ValueError(f"shape mismatch: {P.shape} vs {Q.shape}")
    if (P <= 0).any() or (Q <= 0).any():
        raise ValueError("hilbert_distance requires strictly positive entries")
    L = np.log(P) - np.log(Q)
    return float(L.max() - L.min())


def contraction_rate(C: CostMatrix | np.ndarray, tau: float) -> float:
    """Worst-case per-pass contraction factor tanh(kappa(C) / (4 tau))."""
    require_positive("tau", tau)
    return float(np.tanh(kappa(C) / (4.0 * tau)))


def verify_contraction(
    C: CostMatrix | np.ndarray, params: SinkhornParams, marg: Marginals
) -> ContractionReport:
    """Measure Hilbert-metric convergence ratios against the tanh rate bound.

    A reference plan is computed with a 10^4-iteration, 1e-14-tolerance run.
    The measured run then records the plan after each full scaling pass; the
    report contains the consecutive distance ratios
    d(P_{t+1}, P*) / d(P_t, P*) for all iterates whose distance exceeds a
    small floor (below it the reference accuracy dominates).  The check
    passes when every ratio is at most ``contraction_rate(C, tau) + 1e-9``;
    an instance that converges before producing any measurable ratio passes
    trivially.
    """
    values = cost_values(C)
    _check_dims(values, marg)
    ref_params = replace(params, iters=_REFERENCE_ITERS, tol=_REFERENCE_TOL)
    reference = solve(values, ref_params, marg)
    if not reference.converged:
        raise NumericalError("reference solve failed to converge")
    Pstar = reference.matrix
    if (Pstar <= 0).any():
        raise NumericalError("reference plan has nonpositive entries; increase tau")

    # Without early stopping the plan sequence is governed purely by the
    # distance floor.
    run, phi, tape = _iterate(values, replace(params, tol=NO_EARLY_STOP_TOL), marg, keep_tape=True)
    distances = []
    for _, uh, vh in tape:
        d = hilbert_distance(_plan(phi, uh, vh), Pstar)
        distances.append(d)
        if d < _DH_FLOOR:
            break
    ratios = tuple(
        distances[t + 1] / distances[t]
        for t in range(len(distances) - 1)
        if distances[t] >= _DH_FLOOR and distances[t + 1] >= _DH_FLOOR
    )
    bound = contraction_rate(values, params.tau)
    max_ratio = max(ratios) if ratios else None
    passed = max_ratio is None or max_ratio <= bound + 1e-9
    return ContractionReport(
        ratios=ratios,
        max_ratio=max_ratio,
        rate_bound=bound,
        passed=passed,
        iterations=run.iterations,
        distances=tuple(distances),
    )


def grad_unrolled(
    C: CostMatrix | np.ndarray,
    params: SinkhornParams,
    marg: Marginals,
    upstream: np.ndarray,
) -> np.ndarray:
    """Exact reverse-mode derivative of <upstream, S> with respect to the costs.

    Re-runs the forward pass recording the duals of every scaling step, then
    accumulates adjoints backward through the iterations actually executed
    (including any early stop).  Each half-step's row or column softmax
    weights are rebuilt from the recorded duals.
    """
    values = cost_values(C)
    _check_dims(values, marg)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != values.shape:
        raise ValueError("upstream must match the cost matrix shape")
    S, phi, tape = _iterate(values, params, marg, keep_tape=True)
    log_a = np.log(marg.a)
    log_b = np.log(marg.b)
    G = upstream * S.matrix
    dphi = G.copy()
    duh = G.sum(axis=1)
    dvh = G.sum(axis=0)
    for vh_in, uh, vh in reversed(tape):
        # vh = log b - LSE_i(phi + uh): column softmax weights times dvh.
        Bd = np.exp(phi + uh[:, None] + (vh - log_b)[None, :]) * dvh[None, :]
        dphi -= Bd
        duh = duh - Bd.sum(axis=1)
        # uh = log a - LSE_j(phi + vh_in): row softmax weights times duh.
        Ad = np.exp(phi + (uh - log_a)[:, None] + vh_in[None, :]) * duh[:, None]
        dphi -= Ad
        dvh = -Ad.sum(axis=0)
        # uh feeds only the S of the last iteration and this iteration's vh.
        duh = 0.0
    return dphi * (-1.0 / params.tau)


def grad_analytic(
    S: SoftAssignment | np.ndarray, tau: float, upstream: np.ndarray
) -> np.ndarray:
    """Contract ``upstream`` against the closed-form coupling Jacobian.

    out[k, l] = -(1 / tau) (upstream[k, l] S[k, l]
                            - S[k, l] * sum_ij upstream[i, j] S[i, j])

    Exact when ``S`` is a single global softmax of -C / tau; for fully scaled
    couplings it is an approximation whose gap is reported by the harness.
    """
    require_positive("tau", tau)
    Sm = coupling_values(S)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != Sm.shape:
        raise ValueError("upstream must match the coupling shape")
    total = float((upstream * Sm).sum())
    return -(1.0 / tau) * (upstream * Sm - Sm * total)
