"""The shared gradient-check driver against the three loops it replaced.

``gradcheck_unrolled``, ``gradcheck_matching`` and ``jacobian_formula_check``
below are the earlier stand-alone implementations, kept verbatim as the
reference oracle.  The helpers they call did not change and are imported from
the library, except the argument checks of the Jacobian check, which call
the library's scalar checks that replaced the harness's own.  Reports must
be equal as dataclasses, which compares every float exactly.  The one
deliberate difference: a NaN error in the first Jacobian trial now fails
the check, where the reference dropped it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sinkhorn_nms import verification
from sinkhorn_nms._checks import check_int, check_real
from sinkhorn_nms.hungarian import hungarian_solve
from sinkhorn_nms.losses import grad_matching_wrt_cost, matching_loss
from sinkhorn_nms.refine import _softmax_scaled
from sinkhorn_nms.rng import SplitMix64
from sinkhorn_nms.sinkhorn import NO_EARLY_STOP_TOL as _NO_EARLY_STOP_TOL
from sinkhorn_nms.sinkhorn import (
    Marginals,
    SinkhornParams,
    grad_analytic,
    grad_unrolled,
    solve,
)
from sinkhorn_nms.verification import (
    DEFAULT_FD_STEP,
    GradCheckReport,
    GradCheckTrial,
    JacobianCheckReport,
    _sizes,
    _step_note,
    central_difference,
    fd_threshold,
    normalized_error,
    random_matrix,
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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    threshold = fd_threshold(tau) if threshold is None else threshold
    rng = SplitMix64(seed)
    params = SinkhornParams(tau=tau, iters=iters, tol=_NO_EARLY_STOP_TOL)
    results = []
    for t in range(trials):
        m, k = _sizes(rng, m_max, k_max)
        C = random_matrix(rng, m, k)
        U = random_matrix(rng, m, k, -1.0, 1.0)
        marg = Marginals.uniform(m, k)
        grad = grad_unrolled(C, params, marg, U)
        fd = central_difference(
            lambda X: float((U * solve(X, params, marg).matrix).sum()), C, fd_step
        )
        results.append(GradCheckTrial(seed=t, m=m, k=k, error=normalized_error(grad, fd)))
    max_error = max(r.error for r in results)
    return GradCheckReport(
        kind="unrolled",
        tau=tau,
        iters=iters,
        fd_step=fd_step,
        threshold=threshold,
        trials=tuple(results),
        max_error=max_error,
        passed=max_error < threshold,
        note=_step_note(fd_step),
    )


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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    threshold = fd_threshold(tau) if threshold is None else threshold
    rng = SplitMix64(seed)
    params = SinkhornParams(tau=tau, iters=iters, tol=_NO_EARLY_STOP_TOL)
    results = []
    for t in range(trials):
        m, k = _sizes(rng, m_max, k_max)
        C = random_matrix(rng, m, k)
        marg = Marginals.uniform(m, k)
        Pstar = hungarian_solve(C)
        grad = grad_matching_wrt_cost(C, params, marg, Pstar, lambda_kl)
        fd = central_difference(
            lambda X: matching_loss(X, solve(X, params, marg), Pstar, lambda_kl),
            C,
            fd_step,
        )
        results.append(GradCheckTrial(seed=t, m=m, k=k, error=normalized_error(grad, fd)))
    max_error = max(r.error for r in results)
    return GradCheckReport(
        kind="matching",
        tau=tau,
        iters=iters,
        fd_step=fd_step,
        threshold=threshold,
        trials=tuple(results),
        max_error=max_error,
        passed=max_error < threshold,
        note=_step_note(fd_step),
    )


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
    check_int("trials", trials, 1)
    check_real("fd_step", fd_step, 0.0, strict=True)
    check_real("threshold", threshold)
    check_int("m_max", m_max, 2)
    check_int("k_max", k_max, 2)
    rng = SplitMix64(seed)
    softmax_err = 0.0
    sink_gap = 0.0
    params = SinkhornParams(tau=tau, iters=iters, tol=_NO_EARLY_STOP_TOL)
    for _ in range(trials):
        m, k = _sizes(rng, m_max, k_max)
        C = random_matrix(rng, m, k)
        U = random_matrix(rng, m, k, -1.0, 1.0)
        S = _softmax_scaled(-C, tau)
        grad = grad_analytic(S, tau, U)
        fd = central_difference(
            lambda X: float((U * _softmax_scaled(-X, tau)).sum()), C, fd_step
        )
        softmax_err = max(softmax_err, normalized_error(grad, fd))

        marg = Marginals.uniform(m, k)
        S_full = solve(C, params, marg)
        g_analytic = grad_analytic(S_full, tau, U)
        g_unrolled = grad_unrolled(C, params, marg, U)
        sink_gap = max(sink_gap, normalized_error(g_analytic, g_unrolled))
    return JacobianCheckReport(
        softmax_max_error=softmax_err,
        sinkhorn_gap=sink_gap,
        trials=trials,
        passed=softmax_err < threshold,
        threshold=threshold,
    )


def _global_softmax(values: np.ndarray, tau: float) -> np.ndarray:
    z = -values / tau
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


CASES = [
    dict(tau=1.0),
    dict(tau=0.2),
    dict(tau=0.05, iters=20),
    dict(tau=1.0, threshold=0.3),
    dict(tau=1.0, fd_step=10.0),
    dict(tau=0.5, m_max=7, k_max=6),
]


@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize("case", CASES)
def test_unrolled_report_equals_reference(case, seed):
    new = verification.gradcheck_unrolled(trials=3, seed=seed, **case)
    assert new == gradcheck_unrolled(trials=3, seed=seed, **case)


@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize("lambda_kl", [0.0, 0.5])
@pytest.mark.parametrize("case", CASES)
def test_matching_report_equals_reference(case, lambda_kl, seed):
    new = verification.gradcheck_matching(trials=3, seed=seed, lambda_kl=lambda_kl, **case)
    assert new == gradcheck_matching(trials=3, seed=seed, lambda_kl=lambda_kl, **case)


@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize("case", CASES)
def test_jacobian_report_equals_reference(case, seed):
    new = verification.jacobian_formula_check(trials=3, seed=seed, **case)
    assert new == jacobian_formula_check(trials=3, seed=seed, **case)


def test_jacobian_nan_error_fails_where_reference_passed():
    # The reference folded the errors into 0.0 with max(), which drops a NaN
    # in the first trial and reported a pass; the driver keeps it.
    kwargs = dict(trials=3, tau=1e-150, fd_step=1e200)
    with np.errstate(all="ignore"):
        assert jacobian_formula_check(**kwargs).passed
        new = verification.jacobian_formula_check(**kwargs)
    assert math.isnan(new.softmax_max_error) and not new.passed


@pytest.mark.parametrize(
    "kwargs", [dict(trials=0), dict(fd_step=0.0), dict(threshold=math.nan), dict(m_max=1)]
)
def test_jacobian_check_rejects_like_reference(kwargs):
    with pytest.raises(ValueError) as want:
        jacobian_formula_check(**kwargs)
    with pytest.raises(ValueError) as got:
        verification.jacobian_formula_check(**kwargs)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "check", [verification.gradcheck_unrolled, verification.gradcheck_matching]
)
def test_zero_trials_raises(check):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        check(trials=0)


@settings(max_examples=60, deadline=None)
@given(
    values=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        elements=st.floats(0.0, 5.0),
    ),
    tau=st.sampled_from([2.0, 1.0, 0.3, 0.1, 0.05, 0.01]),
)
def test_scaled_softmax_bitwise_equals_global_softmax(values, tau):
    assert _softmax_scaled(-values, tau).tobytes() == _global_softmax(values, tau).tobytes()
