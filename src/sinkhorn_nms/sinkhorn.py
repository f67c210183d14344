"""Entropic optimal-transport solver with convergence instrumentation and gradients.

The solver scales the Gibbs kernel exp(-C / tau) so that its row sums match a
source marginal ``a`` and its column sums match a target marginal ``b``
(both probability vectors, uniform by default).  Each full iteration scales
rows to ``a`` and then columns to ``b``; the column marginal is therefore
exact by construction after every iteration and the recorded violation trace
measures the residual row drift.

One iteration driver serves both computation modes.  It iterates on scaling
vectors ``u``, ``v`` of a kernel ``Kt = exp(uh + vh - C / tau)`` into which
log duals ``uh``, ``vh`` are absorbed, so ``S = diag(u) @ Kt @ diag(v)``.  An
iteration takes two matrix-vector products: ``r = Kt @ v`` gives the row sums
of the previous coupling (its row violation) and ``u = a / r``, and
``c = Kt.T @ u`` gives ``v = b / c``; S is formed once, at exit.  Linear mode
starts from ``Kt = exp(-C / tau)``, which underflows when every cost of a row
or column exceeds about 700 tau.  Log mode takes the first iteration with
max-shifted log-sum-exps on the duals and starts from its coupling, which
does not.  When ``u`` or ``v`` leaves ``[1 / ABSORB_BOUND, ABSORB_BOUND]``,
both are absorbed (``uh += log u``, ``vh += log v``, one new exp) and restart
at one.  The solver picks the mode itself: log mode below
``LOG_DOMAIN_TAU_THRESHOLD``, linear mode otherwise, and a linear run whose
absorbed duals are non-finite is rerun in log mode.  A coupling with a
non-finite entry, which only an overflow of ``C / tau`` produces, raises
``NumericalError``.  The returned duals are ``tau (uh + log u)`` and
``tau (vh + log v)``, and the gradient tape holds the log duals.

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

from dataclasses import dataclass, replace

import numpy as np

from ._checks import check_int, check_real
from .cost import CostMatrix, cost_values, kappa

# Log-domain computation is used below this temperature; the linear kernel
# exp(-C / tau) underflows for moderate costs there.  Above it a linear run
# that underflows is rerun in log mode.
LOG_DOMAIN_TAU_THRESHOLD = 0.5

# An absorbed kernel is a coupling, with entries at most one, so scalings
# inside [1 / ABSORB_BOUND, ABSORB_BOUND] keep every product far from overflow.
ABSORB_BOUND = 1e100

# Hilbert distances below this floor are dominated by the accuracy of the
# long-run reference plan and are excluded from ratio measurements.
_DH_FLOOR = 1e-10

_REFERENCE_ITERS = 10_000
_REFERENCE_TOL = 1e-14

# Below any nonzero violation: a run with it stops early only on an exact fit.
NO_EARLY_STOP_TOL = 1e-300


class NumericalError(RuntimeError):
    """Raised when a solve produces non-finite intermediates."""


@dataclass(frozen=True)
class SinkhornParams:
    tau: float = 0.1
    iters: int = 10
    tol: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "tau", check_real("tau", self.tau, 0.0, strict=True))
        object.__setattr__(self, "iters", check_int("iters", self.iters, 1))
        object.__setattr__(self, "tol", check_real("tol", self.tol, 0.0, strict=True))


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
        M, K = check_int("M", M, 1), check_int("K", K, 1)
        return cls(np.full(M, 1.0 / M), np.full(K, 1.0 / K))


@dataclass(frozen=True, eq=False)
class SoftAssignment:
    """Soft coupling with duals and the per-iteration marginal-violation trace.

    ``log_domain`` records the mode that produced the result: log mode below
    ``LOG_DOMAIN_TAU_THRESHOLD``, and above it after a linear run underflowed.
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


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along ``axis`` of a finite matrix.

    Bitwise equal to ``scipy.special.logsumexp``: entries tied at the maximum
    are counted apart from the shifted sum, which is then folded in by log1p.
    The shift, the tied entries' ``-inf - xmax`` and the exp are written into
    one buffer, the same operations as ``exp(where(tied, -inf, x) - xmax)``.
    """
    xmax = x.max(axis=axis, keepdims=True)
    tied = x == xmax
    n = np.count_nonzero(tied, axis=axis, keepdims=True).astype(np.float64)
    e = np.subtract(x, xmax)
    np.copyto(e, -np.inf - xmax, where=tied)
    s = np.exp(e, out=e).sum(axis=axis, keepdims=True)
    return (np.log1p(s / n) + np.log(n) + xmax).squeeze(axis)


def _plan(phi: np.ndarray, uh: np.ndarray, vh: np.ndarray) -> np.ndarray:
    return np.exp(uh[:, None] + vh[None, :] + phi)


def _iterate(C, params, marg, keep_tape=False, log_mode=None):
    """Alternate row and column scaling on a kernel with the duals absorbed.

    Returns the assignment, the log kernel ``phi = -C / tau`` and, with
    ``keep_tape``, the per-iteration log duals ``(vh_in, uh, vh)``.
    ``log_mode=None`` picks the mode from ``tau``; a linear run that
    underflows is rerun with ``log_mode=True``.
    """
    values = cost_values(C)
    _check_dims(values, marg)
    if log_mode is None:
        log_mode = params.tau < LOG_DOMAIN_TAU_THRESHOLD
    a, b = marg.a, marg.b
    uh, u = np.zeros(a.shape[0]), np.ones(a.shape[0])
    vh, v = np.zeros(b.shape[0]), np.ones(b.shape[0])
    vh_in = vh
    tape = []
    violations = []
    # non-finite intermediates (kernel underflow, C / tau overflow) are checked
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi = -values / params.tau
        if log_mode:
            uh = np.log(a) - _lse(phi + vh[None, :], axis=1)
            vh = np.log(b) - _lse(phi + uh[:, None], axis=0)
        Kt = _plan(phi, uh, vh)
        r = Kt.sum(axis=1)
        if log_mode:
            c = Kt.sum(axis=0)
        for it in range(params.iters):
            if it or not log_mode:
                u = a / r
                c = Kt.T @ u
                v = b / c
                if not (1 / ABSORB_BOUND <= u.min() and u.max() <= ABSORB_BOUND
                        and 1 / ABSORB_BOUND <= v.min() and v.max() <= ABSORB_BOUND):
                    uh = uh + np.log(u)
                    vh = vh + np.log(v)
                    if not (log_mode or (np.isfinite(uh).all() and np.isfinite(vh).all())):
                        return _iterate(values, params, marg, keep_tape, log_mode=True)
                    Kt = _plan(phi, uh, vh)
                    u, v = np.ones_like(u), np.ones_like(v)
                    c = Kt.T @ u
                r = Kt @ v
            if keep_tape:
                tape.append((vh_in, uh + np.log(u), vh + np.log(v)))
                vh_in = tape[-1][2]
            violations.append(max(float(np.abs(u * r - a).sum()), float(np.abs(v * c - b).sum())))
            if violations[-1] < params.tol:
                break
        matrix = u[:, None] * Kt * v[None, :]
    if not np.isfinite(matrix).all():
        raise NumericalError(f"C / tau overflows at tau = {params.tau!r}: the coupling is not finite")
    assignment = SoftAssignment(
        matrix=matrix,
        marginals=marg,
        u=params.tau * (uh + np.log(u)),
        v=params.tau * (vh + np.log(v)),
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
    return _iterate(C, params, marg)[0]


def hilbert_distance(P: np.ndarray, Q: np.ndarray) -> float:
    """Hilbert projective metric log(max P/Q) + log(max Q/P) for positive arrays.

    Invariant under positive scaling of either argument, so it measures the
    distance between rays of positive matrices.
    """
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if P.shape != Q.shape:
        raise ValueError(f"shape mismatch: {P.shape} vs {Q.shape}")
    # NaN fails ``> 0`` but would pass ``<= 0``
    if not all(np.isfinite(X).all() and (X > 0).all() for X in (P, Q)):
        raise ValueError("hilbert_distance requires finite, strictly positive entries")
    L = np.log(P) - np.log(Q)
    return float(L.max() - L.min())


def contraction_rate(C: CostMatrix | np.ndarray, tau: float) -> float:
    """Worst-case per-pass contraction factor tanh(kappa(C) / (4 tau))."""
    tau = check_real("tau", tau, 0.0, strict=True)
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
    # only the last distance can lie below the floor
    ratios = tuple(b / a for a, b in zip(distances, distances[1:]) if b >= _DH_FLOOR)
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

    Re-runs the forward pass recording the log duals of every scaling step,
    then accumulates adjoints backward through the iterations actually
    executed (including any early stop).
    """
    values = cost_values(C)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != values.shape:
        raise ValueError("upstream must match the cost matrix shape")
    return _backward(*_iterate(values, params, marg, keep_tape=True), params.tau, upstream)


def _backward(S, phi, tape, tau, upstream):
    """Adjoint of <upstream, S> through the iterations taped by ``_iterate``."""
    log_a = np.log(S.marginals.a)
    log_b = np.log(S.marginals.b)
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
    return dphi * (-1.0 / tau)


def grad_analytic(
    S: SoftAssignment | np.ndarray, tau: float, upstream: np.ndarray
) -> np.ndarray:
    """Contract ``upstream`` against the closed-form coupling Jacobian.

    out[k, l] = -(1 / tau) (upstream[k, l] S[k, l]
                            - S[k, l] * sum_ij upstream[i, j] S[i, j])

    Exact when ``S`` is a single global softmax of -C / tau; for fully scaled
    couplings it is an approximation whose gap is reported by the harness.
    """
    tau = check_real("tau", tau, 0.0, strict=True)
    Sm = coupling_values(S)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != Sm.shape:
        raise ValueError("upstream must match the coupling shape")
    total = float((upstream * Sm).sum())
    return -(1.0 / tau) * (upstream * Sm - Sm * total)
