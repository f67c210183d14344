"""The absorbed-kernel Sinkhorn driver against the driver it replaced.

``_iterate`` below is the earlier driver, kept verbatim with its helpers as
the reference oracle.  Every iteration took two log-partitions of -C / tau
(max-shifted log-sum-exps in log mode, logs of Gibbs-kernel products in
linear mode) and rebuilt S from the duals with one full exp.  The current
driver scales a kernel with the duals absorbed and forms S once, so it agrees
with the reference within rounding bounds rather than bitwise.  With T the
iterations run and eps the float64 machine epsilon:

* each entry of S lies within ``S_BOUND * (1 + max|C| / tau) * T * eps``;
* each entry of the duals u, v lies within
  ``DUAL_BOUND * (1 + max|C|) * T * eps``, relative to the cost scale that
  the duals are differences of;
* each recorded violation lies within ``M K`` times the S bound plus
  ``8 (M + K) eps``;
* iterations, convergence and mode are equal, except where a violation lies
  within that violation bound of ``tol``: the two drivers may then stop one
  iteration apart.

The reference's linear mode is an oracle only where every entry of
exp(-C / tau) is a normal float.  Past that its duals come from a kernel that
lost entries while S is rebuilt from the full exponent, so S can miss the
marginals by orders of magnitude: row sums of 2e43 on a 6x7 case at tau 0.2
with costs up to 2000 tau.  There a linear run is held to what it must do by
itself: after falling back to log mode, return the bits of a run started in
log mode.  Where the reference raises, which it did when linear mode was
forced, the current driver falls back too and is held to the same.  Its
recorded violations are checked against its own S, in every mode, by
``test_each_violation_is_that_of_the_returned_coupling``.

The reference reads its mode from ``OracleParams``, the solver parameters as
they were when it was written; the current driver is started in that mode
through ``conftest.solve_in_mode``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sinkhorn_nms as sn
from sinkhorn_nms.sinkhorn import (
    LOG_DOMAIN_TAU_THRESHOLD,
    NO_EARLY_STOP_TOL,
    Marginals,
    NumericalError,
    SinkhornParams,
    SoftAssignment,
)
from conftest import solve_in_mode

EPS = float(np.finfo(np.float64).eps)
S_BOUND = 2.0
DUAL_BOUND = 16.0

# reference implementation


@dataclass(frozen=True)
class OracleParams:
    """The solver parameters the reference was written against.

    ``log_domain`` None picks log mode below the threshold; True or False
    forces the mode, and a forced linear run that underflows raises.
    """

    tau: float
    iters: int
    tol: float
    log_domain: bool | None = None

    def resolve_log_domain(self) -> bool:
        if self.log_domain is None:
            return self.tau < LOG_DOMAIN_TAU_THRESHOLD
        return self.log_domain


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


# comparison


def reference_solve(values, params, marg):
    try:
        return _iterate(values, params, marg)[0]
    except NumericalError:
        return None


def current_solve(values, params, marg):
    solver_params = SinkhornParams(tau=params.tau, iters=params.iters, tol=params.tol)
    return solve_in_mode(values, solver_params, marg, params.log_domain)


def assert_within_bounds(got: SoftAssignment, want: SoftAssignment, values, params) -> None:
    M, K = values.shape
    T = want.iterations
    scale = float(np.abs(values).max())
    s_bound = S_BOUND * (1.0 + scale / params.tau) * T * EPS
    viol_bound = M * K * s_bound + 8 * (M + K) * EPS
    assert got.log_domain == want.log_domain
    n = min(got.iterations, want.iterations)
    dv = np.abs(np.subtract(got.violations[:n], want.violations[:n]))
    assert (dv <= viol_bound).all(), (dv.max(), viol_bound)
    if (got.iterations, got.converged) != (want.iterations, want.converged):
        # the one allowed difference: a stop decided within rounding of tol
        assert abs(got.violations[n - 1] - params.tol) <= viol_bound, (got.violations, want.violations)
        return
    dS = np.abs(got.matrix - want.matrix).max()
    assert dS <= s_bound, (dS, s_bound)
    d_bound = DUAL_BOUND * (1.0 + scale) * T * EPS
    du = max(np.abs(got.u - want.u).max(), np.abs(got.v - want.v).max())
    assert du <= d_bound, (du, d_bound)


def check_case(values, params):
    marg = Marginals.uniform(*values.shape)
    got = current_solve(values, params, marg)
    linear_oracle = (np.exp(-values / params.tau) >= np.finfo(np.float64).tiny).all()
    if params.resolve_log_domain() or linear_oracle:
        want = reference_solve(values, params, marg)
        if want is not None:
            assert_within_bounds(got, want, values, params)
            return
        # the reference raised: linear mode was forced and underflowed
        assert params.log_domain is False and got.log_domain
    if got.log_domain:
        log_params = replace(params, log_domain=True)
        again = current_solve(values, log_params, marg)
        for field in ("matrix", "u", "v"):
            assert np.array_equal(getattr(got, field), getattr(again, field))
        assert got.violations == again.violations
        assert_within_bounds(got, reference_solve(values, log_params, marg), values, params)


TAUS = (2.0, 1.0, 0.5, 0.2, 0.1, 0.05)
# cost spreads in units of tau: well inside the linear kernel's range, at its
# edge, and past the point where every entry of a row underflows
SPREADS = (0.01, 1.0, 10.0, 100.0, 700.0, 710.0, 750.0, 2000.0)
TOLS = (1e-6, 1e-9, 1e-12, NO_EARLY_STOP_TOL)

cases = st.tuples(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(1, 8)),
        elements=st.floats(0.0, 1.0),
    ),
    st.sampled_from(TAUS),
    st.sampled_from(SPREADS),
    st.sampled_from([None, 1]),
    st.sampled_from([None, True, False]),
    st.sampled_from([1, 2, 3, 10, 50]),
    st.sampled_from(TOLS),
)


def build(case):
    unit, tau, spread, decimals, log_domain, iters, tol = case
    if decimals is not None:
        # rounding creates tied costs
        unit = np.round(unit, decimals)
    values = unit * (spread * tau)
    return values, OracleParams(tau=tau, iters=iters, tol=tol, log_domain=log_domain)


@settings(max_examples=300, deadline=None)
@given(cases)
def test_agrees_with_reference_driver(case):
    check_case(*build(case))


def scene_costs(regions: int, per_region: int, K: int, seed: int) -> np.ndarray:
    pset, _ = sn.synth_generate(
        sn.SynthConfig(
            num_regions=regions,
            proposals_per_region=per_region,
            jitter=4.0,
            score_noise=0.05,
            seed=seed,
        )
    )
    return sn.build_cost(pset, sn.init_centroids(pset, K, 0), sn.CostWeights()).values


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("tau", TAUS)
def test_agrees_on_inference_scenes(seed, tau):
    # 256 x 16, the desk-scale operating point of dnms
    values = scene_costs(16, 16, 16, seed)
    for log_domain in (None, True, False):
        check_case(values, OracleParams(tau=tau, iters=10, tol=1e-9, log_domain=log_domain))


@settings(max_examples=150, deadline=None)
@given(cases)
def test_each_violation_is_that_of_the_returned_coupling(case):
    # The violation comes from the matrix-vector products of the next
    # iteration, not from S: it must still be S's own L1 marginal error.
    values, params = build(case)
    marg = Marginals.uniform(*values.shape)
    M, K = values.shape
    full = current_solve(values, replace(params, tol=NO_EARLY_STOP_TOL), marg)
    for t in range(1, min(full.iterations, 6) + 1):
        run = current_solve(values, replace(params, iters=t, tol=NO_EARLY_STOP_TOL), marg)
        if run.log_domain == full.log_domain:
            assert run.violations == full.violations[:t]
        S = run.matrix
        row = float(np.abs(S.sum(axis=1) - marg.a).sum())
        col = float(np.abs(S.sum(axis=0) - marg.b).sum())
        bound = 8 * (M + K) * EPS * (1.0 + run.violations[-1])
        assert abs(run.violations[-1] - max(row, col)) <= bound, (run.violations[-1], row, col)
