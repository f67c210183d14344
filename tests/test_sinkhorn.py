import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

from sinkhorn_nms import (
    Marginals,
    NumericalError,
    SinkhornParams,
    contraction_rate,
    grad_analytic,
    grad_unrolled,
    hilbert_distance,
    hungarian_solve,
    solve,
    verify_contraction,
)
from sinkhorn_nms.rng import SplitMix64
from sinkhorn_nms.sinkhorn import _lse
import kernel_oracles
from conftest import grad_in_mode, solve_in_mode
from sinkhorn_nms.verification import central_difference, normalized_error, random_matrix

# Closed form for C=[[0,1],[1,0]], tau=1, uniform marginals: the scaled
# kernel is symmetric, so S = [[z, w], [w, z]] with z + w = 1/2, z/w = e.
Z_2X2 = 0.36552928931500245
W_2X2 = 0.13447071068499758


def converged_params(tau, iters=5000, tol=1e-12):
    return SinkhornParams(tau=tau, iters=iters, tol=tol)


class TestSolve:
    def test_singleton(self):
        S = solve(np.array([[0.0]]), converged_params(1.0), Marginals.uniform(1, 1))
        assert np.allclose(S.matrix, [[1.0]])

    def test_symmetric_2x2_closed_form(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        S = solve(C, converged_params(1.0), Marginals.uniform(2, 2))
        assert S.matrix[0, 0] == pytest.approx(Z_2X2, abs=1e-10)
        assert S.matrix[1, 1] == pytest.approx(Z_2X2, abs=1e-10)
        assert S.matrix[0, 1] == pytest.approx(W_2X2, abs=1e-10)
        assert S.matrix[1, 0] == pytest.approx(W_2X2, abs=1e-10)

    def test_closed_form_agrees_with_long_run(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        S = solve(C, SinkhornParams(tau=1.0, iters=10_000, tol=1e-15), Marginals.uniform(2, 2))
        assert S.matrix[0, 0] == pytest.approx(Z_2X2, abs=1e-12)

    def test_constant_cost_gives_uniform(self):
        S = solve(np.full((3, 4), 7.0), converged_params(0.5), Marginals.uniform(3, 4))
        assert np.allclose(S.matrix, 1.0 / 12.0, atol=1e-12)

    @pytest.mark.parametrize("tau,log_mode", [(1.0, False), (1.0, True), (0.1, True)])
    def test_marginal_feasibility(self, tau, log_mode):
        rng = SplitMix64(3)
        for trial in range(5):
            C = random_matrix(rng, 6, 4)
            marg = Marginals.uniform(6, 4)
            S = solve_in_mode(C, converged_params(tau, tol=1e-10), marg, log_mode)
            assert S.converged
            assert np.abs(S.matrix.sum(axis=1) - marg.a).sum() <= 1e-10
            assert np.abs(S.matrix.sum(axis=0) - marg.b).sum() <= 1e-10

    def test_last_applied_marginal_exact(self):
        rng = SplitMix64(4)
        C = random_matrix(rng, 5, 3)
        marg = Marginals.uniform(5, 3)
        # stop far from convergence: columns were scaled last, so they are
        # exact to machine precision while rows still drift
        S = solve_in_mode(C, SinkhornParams(tau=0.5, iters=2, tol=1e-300), marg, False)
        assert np.abs(S.matrix.sum(axis=0) - marg.b).max() < 1e-15

    def test_violation_trace_non_increasing(self):
        rng = SplitMix64(5)
        for trial in range(10):
            m, k = 3 + rng.randint(8), 2 + rng.randint(6)
            C = random_matrix(rng, m, k)
            tau = (0.1, 0.5, 1.0)[trial % 3]
            S = solve(C, converged_params(tau), Marginals.uniform(m, k))
            trace = np.array(S.violations)
            assert (trace[1:] <= trace[:-1] + 1e-14).all()

    def test_duals_reconstruct_matrix(self):
        rng = SplitMix64(6)
        C = random_matrix(rng, 4, 3)
        params = converged_params(1.0)
        for log_mode in (False, True):
            S = solve_in_mode(C, params, Marginals.uniform(4, 3), log_mode)
            rebuilt = np.exp((S.u[:, None] + S.v[None, :] - C) / params.tau)
            assert np.allclose(rebuilt, S.matrix, atol=1e-12)

    def test_log_and_linear_agree(self):
        rng = SplitMix64(7)
        C = random_matrix(rng, 5, 4)
        marg = Marginals.uniform(5, 4)
        lin = solve_in_mode(C, converged_params(0.6), marg, False)
        log = solve_in_mode(C, converged_params(0.6), marg, True)
        assert np.allclose(lin.matrix, log.matrix, atol=1e-12)

    def test_linear_mode_underflow_reruns_in_log_mode(self):
        # the first row of exp(-C) underflows to zero entirely
        C = np.array([[4000.0, 4000.0], [0.0, 1.0]])
        marg = Marginals.uniform(2, 2)
        params = SinkhornParams(tau=1.0, iters=10, tol=1e-9)
        S = solve_in_mode(C, params, marg, True)
        assert np.isfinite(S.matrix).all()
        # tau = 1 starts linear and falls back to the same log run
        auto = solve(C, params, marg)
        assert auto.log_domain is True
        for field in ("matrix", "u", "v"):
            assert np.array_equal(getattr(auto, field), getattr(S, field))
        assert auto.violations == S.violations
        assert auto.iterations == S.iterations
        U = np.array([[1.0, -1.0], [0.5, 0.0]])
        assert np.array_equal(grad_unrolled(C, params, marg, U),
                              grad_in_mode(C, params, marg, U, True))

    def test_overflow_of_cost_over_tau_raises(self):
        # -C / tau is -inf in three entries and +inf in the fourth
        C = np.array([[1e300, 1e300], [1e300, -1e300]])
        params, marg = SinkhornParams(tau=1e-10), Marginals.uniform(2, 2)
        with pytest.raises(NumericalError, match="C / tau"):
            solve(C, params, marg)
        for log_mode in (True, False):
            with pytest.raises(NumericalError, match="C / tau"):
                solve_in_mode(C, params, marg, log_mode)

    def test_costs_past_the_kernel_range_give_zero_entries(self):
        # -C / tau is -inf off the anti-diagonal: a finite coupling, no warning
        C = np.array([[1e300, 0.0], [0.0, 1e300]])
        params, marg = SinkhornParams(tau=1e-10), Marginals.uniform(2, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = [solve(C, params, marg)]
            runs += [solve_in_mode(C, params, marg, log_mode) for log_mode in (True, False)]
        for S in runs:
            assert np.array_equal(S.matrix, [[0.0, 0.5], [0.5, 0.0]])
            assert S.converged

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve(np.zeros((2, 3)), converged_params(1.0), Marginals.uniform(3, 2))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="tau must be positive"):
            SinkhornParams(tau=0.0)
        with pytest.raises(ValueError):
            SinkhornParams(iters=0)
        with pytest.raises(ValueError):
            Marginals(np.array([0.5, 0.5]), np.array([0.7, 0.2]))

    @pytest.mark.parametrize("a, message", [
        (np.full((1, 2), 0.5), "marginal a must be a 1-d non-empty vector"),
        (np.zeros(0), "marginal a must be a 1-d non-empty vector"),
        (np.array([1.0, 0.0]), "marginal a must be strictly positive"),
        (np.array([1.5, -0.5]), "marginal a must be strictly positive"),
    ])
    def test_rejects_marginal_not_1d_or_not_positive(self, a, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Marginals(a, np.array([0.5, 0.5]))

    def test_auto_log_domain_threshold(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        marg = Marginals.uniform(2, 2)
        assert solve(C, SinkhornParams(tau=0.1), marg).log_domain is True
        assert solve(C, SinkhornParams(tau=0.5), marg).log_domain is False
        assert solve_in_mode(C, SinkhornParams(tau=0.1), marg, False).log_domain is False


class TestLogSumExp:
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.floats(0.1, 100.0),
        ),
        st.sampled_from([None, 0, 1]),
        st.booleans(),
        st.sampled_from([0, 1]),
    )
    def test_bitwise_equal_to_scipy(self, x, decimals, negate, axis):
        # rounding creates tied maxima; negation covers both signs
        if decimals is not None:
            x = np.round(x, decimals)
        if negate:
            x = -x
        assert np.array_equal(_lse(x, axis), logsumexp(x, axis=axis))


    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1),
           st.sampled_from([0, 1]), st.booleans())
    def test_bitwise_equal_to_the_where_expression(self, M, K, seed, axis, fortran):
        # Ties, multiples of -700 (whose exps underflow), floats and a few
        # non-finite entries all give the bits of the expression that _lse
        # replaced, in either memory layout.
        rng = np.random.default_rng(seed)
        families = np.stack([
            rng.integers(-30, 31, (M, K)) / 10,
            rng.integers(-4, 1, (M, K)) * 700.0,
            rng.uniform(-1e3, 1e3, (M, K)),
            rng.choice([-np.inf, np.inf, np.nan], (M, K)),
        ])
        weights = rng.dirichlet(np.ones(4)) * [1, 1, 1, rng.choice([0.0, 0.05])]
        pick = rng.choice(4, (M, K), p=weights / weights.sum())
        x = np.take_along_axis(families, pick[None], axis=0)[0]
        if fortran:
            x = np.asfortranarray(x)
        with np.errstate(all="ignore"):
            got, want = _lse(x, axis), kernel_oracles.lse(x, axis)
        assert got.tobytes() == want.tobytes()


positive_matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
    elements=st.floats(min_value=0.01, max_value=100.0),
)


class TestHilbertDistance:
    def test_identical(self):
        P = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert hilbert_distance(P, P) == 0.0

    def test_projective_scale_invariance(self):
        P = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert hilbert_distance(P, 2.0 * P) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        # max P/Q = 2 and max Q/P = 1, so log(2 * 1) = ln 2
        P = np.array([[1.0, 2.0], [2.0, 1.0]])
        Q = np.ones((2, 2))
        assert hilbert_distance(P, Q) == pytest.approx(0.6931471805599453)

    def test_hand_value_with_spread_ratios(self):
        # ratios span [1/2, 2]: log(2 * 2) = ln 4
        P = np.array([[1.0, 2.0], [2.0, 1.0]])
        Q = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert hilbert_distance(P, Q) == pytest.approx(1.3862943611198906)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hilbert_distance(np.array([[1.0, 0.0]]), np.ones((1, 2)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match=r"^shape mismatch: \(1, 2\) vs \(2, 1\)$"):
            hilbert_distance(np.ones((1, 2)), np.ones((2, 1)))

    @given(positive_matrices.flatmap(
        lambda P: st.tuples(
            st.just(P),
            hnp.arrays(np.float64, P.shape, elements=st.floats(0.01, 100.0)),
            hnp.arrays(np.float64, P.shape, elements=st.floats(0.01, 100.0)),
        )
    ))
    def test_metric_properties(self, pqr):
        P, Q, R = pqr
        dpq = hilbert_distance(P, Q)
        assert dpq >= 0.0
        assert dpq == pytest.approx(hilbert_distance(Q, P), rel=1e-12, abs=1e-12)
        assert dpq <= hilbert_distance(P, R) + hilbert_distance(R, Q) + 1e-9


class TestContractionRate:
    def test_constant_cost(self):
        assert contraction_rate(np.full((3, 3), 4.0), 1.0) == 0.0

    def test_tanh_values(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])  # kappa = 2
        assert contraction_rate(C, 1.0) == pytest.approx(0.46211715726000974)
        assert contraction_rate(C, 0.1) == pytest.approx(0.9999092042625951)

    def test_in_unit_interval(self):
        rng = SplitMix64(8)
        for _ in range(5):
            C = random_matrix(rng, 4, 3)
            assert 0.0 <= contraction_rate(C, 0.5) < 1.0


class TestVerifyContraction:
    def test_constant_cost_trivial_pass(self):
        report = verify_contraction(
            np.full((3, 3), 1.0), converged_params(1.0), Marginals.uniform(3, 3)
        )
        assert report.passed
        assert report.max_ratio is None

    def test_symmetric_2x2_within_bound(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        report = verify_contraction(C, converged_params(1.0), Marginals.uniform(2, 2))
        assert report.passed
        if report.max_ratio is not None:
            assert report.max_ratio <= 0.462118

    def test_random_sweep(self):
        rng = SplitMix64(9)
        for trial in range(6):
            m, k = 3 + rng.randint(6), 2 + rng.randint(4)
            C = random_matrix(rng, m, k)
            tau = (0.5, 1.0, 2.0)[trial % 3]
            report = verify_contraction(C, converged_params(tau), Marginals.uniform(m, k))
            assert report.passed
            assert report.rate_bound == contraction_rate(C, tau)

    def test_distances_decay(self):
        rng = SplitMix64(10)
        C = random_matrix(rng, 6, 4)
        report = verify_contraction(C, converged_params(0.5), Marginals.uniform(6, 4))
        d = np.array(report.distances)
        assert (np.diff(d) <= 0).all()


class TestGradUnrolled:
    def test_upstream_of_another_shape_raises(self):
        with pytest.raises(ValueError, match="^upstream must match the cost matrix shape$"):
            grad_unrolled(np.zeros((2, 3)), SinkhornParams(tau=1.0), Marginals.uniform(2, 3),
                          np.ones((3, 2)))

    def test_singleton_constant_output(self):
        params = SinkhornParams(tau=1.0, iters=5, tol=1e-300)
        g = grad_unrolled(np.array([[3.0]]), params, Marginals.uniform(1, 1),
                          np.array([[1.0]]))
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_zero_upstream(self):
        rng = SplitMix64(11)
        C = random_matrix(rng, 3, 2)
        params = SinkhornParams(tau=1.0, iters=5, tol=1e-300)
        g = grad_unrolled(C, params, Marginals.uniform(3, 2), np.zeros((3, 2)))
        assert np.array_equal(g, np.zeros((3, 2)))

    @pytest.mark.parametrize("log_mode", [False, True])
    def test_matches_finite_differences(self, log_mode):
        rng = SplitMix64(12)
        params = SinkhornParams(tau=1.0, iters=10, tol=1e-300)
        for _ in range(3):
            C = random_matrix(rng, 4, 3)
            U = random_matrix(rng, 4, 3, -1.0, 1.0)
            marg = Marginals.uniform(4, 3)
            g = grad_in_mode(C, params, marg, U, log_mode)
            fd = central_difference(
                lambda X: float((U * solve_in_mode(X, params, marg, log_mode).matrix).sum()),
                C,
                1e-5,
            )
            assert normalized_error(g, fd) < 1e-4

    def test_log_linear_gradient_agreement(self):
        rng = SplitMix64(13)
        C = random_matrix(rng, 5, 3)
        U = random_matrix(rng, 5, 3, -1.0, 1.0)
        marg = Marginals.uniform(5, 3)
        params = SinkhornParams(1.0, 8, 1e-300)
        g_lin = grad_in_mode(C, params, marg, U, False)
        g_log = grad_in_mode(C, params, marg, U, True)
        assert np.allclose(g_lin, g_log, atol=1e-12)

    def test_differentiates_executed_iterations_after_early_stop(self):
        rng = SplitMix64(14)
        C = random_matrix(rng, 4, 3)
        U = random_matrix(rng, 4, 3, -1.0, 1.0)
        marg = Marginals.uniform(4, 3)
        # generous tol stops early; the gradient must match FD of the solver
        # run with the same stopping rule
        params = SinkhornParams(tau=1.0, iters=500, tol=1e-6)
        S = solve(C, params, marg)
        assert S.converged and S.iterations < 500
        g = grad_unrolled(C, params, marg, U)
        fd = central_difference(
            lambda X: float((U * solve(X, params, marg).matrix).sum()), C, 1e-6
        )
        assert normalized_error(g, fd) < 1e-3


class TestGradAnalytic:
    def test_upstream_of_another_shape_raises(self):
        with pytest.raises(ValueError, match="^upstream must match the coupling shape$"):
            grad_analytic(np.full((1, 2), 0.5), 1.0, np.ones((2, 1)))

    def test_global_softmax_hand_case(self):
        # 1x2 all-zero costs: softmax is (1/2, 1/2); picking the first entry
        # has gradient (-1/4, +1/4)
        S = np.array([[0.5, 0.5]])
        g = grad_analytic(S, 1.0, np.array([[1.0, 0.0]]))
        assert np.allclose(g, [[-0.25, 0.25]])

    def test_zero_upstream(self):
        g = grad_analytic(np.full((2, 2), 0.25), 1.0, np.zeros((2, 2)))
        assert np.array_equal(g, np.zeros((2, 2)))

    def test_matches_fd_of_global_softmax(self):
        rng = SplitMix64(15)

        def global_softmax(values, tau):
            z = -values / tau
            z = z - z.max()
            e = np.exp(z)
            return e / e.sum()

        for _ in range(3):
            C = random_matrix(rng, 4, 3)
            U = random_matrix(rng, 4, 3, -1.0, 1.0)
            S = global_softmax(C, 1.0)
            g = grad_analytic(S, 1.0, U)
            fd = central_difference(
                lambda X: float((U * global_softmax(X, 1.0)).sum()), C, 1e-5
            )
            assert normalized_error(g, fd) < 1e-6

    def test_accepts_soft_assignment_object(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        S = solve(C, converged_params(1.0), Marginals.uniform(2, 2))
        g = grad_analytic(S, 1.0, np.ones((2, 2)))
        assert g.shape == (2, 2)

    def test_agrees_with_unrolled_in_degenerate_configuration(self):
        # a 1x1 problem has a single normalization and a constant coupling,
        # so both derivative paths vanish identically
        params = SinkhornParams(tau=1.0, iters=5, tol=1e-300)
        marg = Marginals.uniform(1, 1)
        C = np.array([[2.0]])
        U = np.array([[0.7]])
        S = solve(C, params, marg)
        g_closed = grad_analytic(S, 1.0, U)
        g_unrolled = grad_unrolled(C, params, marg, U)
        assert np.allclose(g_closed, g_unrolled, atol=1e-15)
        assert np.allclose(g_closed, 0.0, atol=1e-15)


class TestTemperatureLimit:
    def test_column_argmax_matches_hungarian(self):
        import itertools

        rng = SplitMix64(16)
        checked = 0
        while checked < 8:
            n = 3 + rng.randint(4)
            C = random_matrix(rng, n, n)
            costs = sorted(
                sum(C[i, p[i]] for i in range(n))
                for p in itertools.permutations(range(n))
            )
            if costs[1] - costs[0] < 0.05:
                continue
            checked += 1
            S = solve(C, SinkhornParams(tau=0.01, iters=500, tol=1e-12),
                      Marginals.uniform(n, n))
            assignment = hungarian_solve(C)
            pairs = {(int(S.matrix[:, k].argmax()), k) for k in range(n)}
            assert pairs == set(assignment.pairs)
