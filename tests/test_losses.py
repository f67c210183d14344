import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sinkhorn_nms import (
    Box,
    LossWeights,
    Marginals,
    Mask,
    SinkhornParams,
    bce,
    bce_mean,
    grad_matching_wrt_cost,
    grad_unrolled,
    hungarian_solve,
    kl_divergence,
    losses,
    matching_loss,
    quality_labels,
    solve,
    total_loss,
    tv_loss,
)
from sinkhorn_nms.hungarian import KL_SMOOTHING_EPS
from sinkhorn_nms.losses import kl_grad_wrt_assignment
from sinkhorn_nms.rng import SplitMix64
from sinkhorn_nms.sinkhorn import coupling_values
from sinkhorn_nms.verification import central_difference, normalized_error, random_matrix
from conftest import grad_in_mode, solve_in_mode

HUNGARIAN_FIXTURE = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])


class TestMatchingLoss:
    def test_mass_on_optimal_pairs_recovers_scaled_cost(self):
        # uniform-marginal coupling carries total mass 1, so concentrating it
        # on the optimal pairs yields optimal_cost / min(M, K)
        Pstar = hungarian_solve(HUNGARIAN_FIXTURE)
        S = Pstar.indicator / 3.0
        got = matching_loss(HUNGARIAN_FIXTURE, S, Pstar, lambda_kl=0.0)
        assert got == pytest.approx(Pstar.total_cost / 3.0)
        assert got == pytest.approx(5.0 / 3.0)

    def test_zero_cost(self):
        Pstar = hungarian_solve(np.zeros((2, 2)))
        assert matching_loss(np.zeros((2, 2)), np.full((2, 2), 0.25), Pstar, 0.0) == 0.0

    def test_uniform_coupling_mean(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        Pstar = hungarian_solve(C)
        got = matching_loss(C, np.full((2, 2), 0.25), Pstar, 0.0)
        assert got == pytest.approx(0.5)

    def test_kl_term_added(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        Pstar = hungarian_solve(C)
        S = np.full((2, 2), 0.25)
        base = matching_loss(C, S, Pstar, 0.0)
        with_kl = matching_loss(C, S, Pstar, 2.0)
        assert with_kl > base

    def test_linear_in_coupling_and_cost(self):
        rng = SplitMix64(41)
        C = random_matrix(rng, 3, 3)
        S = random_matrix(rng, 3, 3, 0.01, 1.0)
        Pstar = hungarian_solve(C)
        assert matching_loss(2.0 * C, S, Pstar, 0.0) == pytest.approx(
            2.0 * matching_loss(C, S, Pstar, 0.0)
        )
        assert matching_loss(C, 2.0 * S, Pstar, 0.0) == pytest.approx(
            2.0 * matching_loss(C, S, Pstar, 0.0)
        )

    def test_entropic_upper_bounds_scaled_optimum_and_tightens(self):
        rng = SplitMix64(43)
        C = random_matrix(rng, 4, 4)
        Pstar = hungarian_solve(C)
        opt = Pstar.total_cost / 4.0
        marg = Marginals.uniform(4, 4)
        gaps = []
        previous = None
        for tau in (2.0, 1.0, 0.5, 0.2, 0.1, 0.05, 0.02):
            S = solve(C, SinkhornParams(tau=tau, iters=50_000, tol=1e-12), marg)
            cost = matching_loss(C, S, Pstar, 0.0)
            assert cost >= opt - 1e-9
            if previous is not None:
                assert cost <= previous + 1e-9
            previous = cost
            gaps.append(cost - opt)
        assert gaps[-1] < 0.01
        assert gaps[-1] < gaps[0] / 10.0


class TestMatchingArguments:
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    PARAMS = SinkhornParams(tau=1.0, iters=5, tol=1e-300)

    def call_both(self, Pstar, lambda_kl):
        S = np.full((2, 2), 0.25)
        yield lambda: matching_loss(self.C, S, Pstar, lambda_kl)
        yield lambda: grad_matching_wrt_cost(
            self.C, self.PARAMS, Marginals.uniform(2, 2), Pstar, lambda_kl
        )

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0, -1e-300])
    def test_rejects_non_finite_or_negative_lambda_kl(self, lam):
        # unchecked, NaN would give a NaN loss and gradient and -1 would subtract the KL
        word = "nonnegative" if math.isfinite(lam) else "finite"
        for call in self.call_both(hungarian_solve(self.C), lam):
            with pytest.raises(ValueError, match=rf"^lambda_kl must be {word}, got {lam!r}$"):
                call()

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_rejects_matching_of_another_shape(self, lam):
        # checked even at lambda_kl = 0, where the matching is otherwise unused
        Pstar = hungarian_solve(np.eye(3))
        for call in self.call_both(Pstar, lam):
            with pytest.raises(ValueError, match=r"^matching shape \(3, 3\) does not match"):
                call()


class TestBce:
    def test_confident_correct(self):
        assert bce(1.0 - 1e-7, 1) == pytest.approx(0.0, abs=1e-6)

    def test_half_is_ln2(self):
        assert bce(0.5, 0) == pytest.approx(math.log(2))
        assert bce(0.5, 1) == pytest.approx(math.log(2))

    def test_confident_wrong(self):
        assert bce(0.9, 0) == pytest.approx(2.3025850929940455, rel=1e-6)

    def test_clamps_extremes(self):
        assert np.isfinite(bce(0.0, 1))
        assert np.isfinite(bce(1.0, 0))

    def test_nonnegative_with_minimum_at_truth(self):
        for y in (0, 1):
            values = [bce(p, y) for p in np.linspace(0.01, 0.99, 33)]
            assert min(values) >= 0.0
            best = np.argmin(values)
            assert best == (len(values) - 1 if y == 1 else 0)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_probability(self, p):
        # clamping into [BCE_EPS, 1 - BCE_EPS] would turn NaN into a finite loss
        for y in (0, 1):
            with pytest.raises(ValueError, match=r"^p must be finite"):
                bce(p, y)
            with pytest.raises(ValueError, match=r"^p must be finite"):
                bce_mean([0.5, p], [1, y])

    def test_batched_mean(self):
        got = bce_mean([0.5, 0.5], [0, 1])
        assert got == pytest.approx(math.log(2))
        with pytest.raises(ValueError):
            bce_mean([0.5], [0, 1])
        with pytest.raises(ValueError):
            bce_mean([], [])


class TestTvLoss:
    def test_constant_masks(self):
        masks = [Mask(np.full((3, 3), 0.2)), Mask(np.ones((2, 2)))]
        assert tv_loss(masks) == 0.0

    def test_checkerboard(self):
        board = Mask(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert tv_loss([board]) == 4.0
        assert tv_loss([board, board]) == 8.0

    def test_empty_list(self):
        assert tv_loss([]) == 0.0


class TestTotalLoss:
    def test_all_zero(self):
        report = total_loss(0.0, 0.0, 0.0, LossWeights())
        assert report.total == 0.0

    def test_weighted_sum(self):
        w = LossWeights(lambda1=0.5, lambda2=0.1)
        report = total_loss(1.0, 2.0, 3.0, w)
        assert report.total == pytest.approx(2.3)
        assert report.total == report.l_cls + w.lambda1 * report.l_match + w.lambda2 * report.l_reg
        assert report.term_gradients == (1.0, 0.5, 0.1)
        g = report.term_gradients
        assert report.total == g[0] * report.l_cls + g[1] * report.l_match + g[2] * report.l_reg

    def test_zero_weights(self):
        report = total_loss(4.2, 100.0, 50.0, LossWeights(lambda1=0.0, lambda2=0.0))
        assert report.total == 4.2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            total_loss(float("nan"), 0.0, 0.0, LossWeights())


class TestGradMatching:
    def test_singleton_only_explicit_term(self):
        params = SinkhornParams(tau=1.0, iters=5, tol=1e-300)
        Pstar = hungarian_solve(np.array([[1.0]]))
        g = grad_matching_wrt_cost(np.array([[1.0]]), params, Marginals.uniform(1, 1),
                                   Pstar, lambda_kl=0.0)
        assert np.allclose(g, [[1.0]])

    def test_matches_finite_differences_without_kl(self):
        rng = SplitMix64(47)
        params = SinkhornParams(tau=1.0, iters=10, tol=1e-300)
        for _ in range(3):
            C = random_matrix(rng, 3, 3)
            marg = Marginals.uniform(3, 3)
            Pstar = hungarian_solve(C)
            g = grad_matching_wrt_cost(C, params, marg, Pstar, 0.0)
            fd = central_difference(
                lambda X: matching_loss(X, solve(X, params, marg), Pstar, 0.0), C, 1e-5
            )
            assert normalized_error(g, fd) < 1e-4

    def test_matches_finite_differences_with_kl(self):
        rng = SplitMix64(53)
        params = SinkhornParams(tau=1.0, iters=10, tol=1e-300)
        C = random_matrix(rng, 4, 3)
        marg = Marginals.uniform(4, 3)
        Pstar = hungarian_solve(C)
        lam = 0.7
        g = grad_matching_wrt_cost(C, params, marg, Pstar, lam)
        fd = central_difference(
            lambda X: matching_loss(X, solve(X, params, marg), Pstar, lam), C, 1e-5
        )
        assert normalized_error(g, fd) < 1e-4

    @pytest.mark.parametrize("tau,log_mode", [(1.0, None), (1.0, True), (0.1, None), (0.1, False)])
    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_one_taped_forward_matches_solve_then_unrolled(self, tau, log_mode, lam, monkeypatch):
        # the shared forward must give the bits of a separate solve followed
        # by grad_unrolled with the same upstream, in either mode
        monkeypatch.setattr(losses, "_iterate", functools.partial(losses._iterate, log_mode=log_mode))
        rng = SplitMix64(61)
        C = random_matrix(rng, 5, 3)
        marg = Marginals.uniform(5, 3)
        Pstar = hungarian_solve(C)
        params = SinkhornParams(tau=tau, iters=10, tol=1e-9)
        S = solve_in_mode(C, params, marg, log_mode)
        upstream = C + lam * kl_grad_wrt_assignment(S, Pstar) if lam else C
        want = S.matrix + grad_in_mode(C, params, marg, upstream, log_mode)
        assert np.array_equal(grad_matching_wrt_cost(C, params, marg, Pstar, lam), want)

    def test_constant_cost_gradient_is_uniform_coupling(self):
        params = SinkhornParams(tau=1.0, iters=10, tol=1e-300)
        C = np.full((3, 3), 2.0)
        marg = Marginals.uniform(3, 3)
        Pstar = hungarian_solve(C)
        g = grad_matching_wrt_cost(C, params, marg, Pstar, 0.0)
        # scaling absorbs uniform cost shifts, so only the explicit term
        # (the uniform coupling) survives
        assert np.allclose(g, 1.0 / 9.0, atol=1e-8)
        fd = central_difference(
            lambda X: matching_loss(X, solve(X, params, marg), Pstar, 0.0), C, 1e-5
        )
        assert normalized_error(g, fd) < 1e-4

    def test_kl_grad_formula_against_fd(self):
        rng = SplitMix64(59)
        S = random_matrix(rng, 3, 3, 0.05, 1.0)
        Pstar = hungarian_solve(random_matrix(rng, 3, 3))
        g = kl_grad_wrt_assignment(S, Pstar)
        fd = central_difference(lambda X: kl_divergence(X, Pstar), S, 1e-6)
        assert normalized_error(g, fd) < 1e-6

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_kl_grad_equals_the_inline_formula(self, data):
        # Oracle: the gradient as it was computed before the normalized pair
        # moved into ``hungarian``, with its own copy of every step.
        shape = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
        S = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1e6)))
        C = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-10.0, 10.0)))
        assume(S.sum() > 0)
        Pstar = hungarian_solve(C)
        Sm = coupling_values(S)
        kl = kl_divergence(Sm, Pstar)
        total = float(Sm.sum())
        s_bar = Sm / total
        P = Pstar.indicator
        p_bar = (P + KL_SMOOTHING_EPS) / (P + KL_SMOOTHING_EPS).sum()
        with np.errstate(divide="ignore", over="ignore"):
            log_ratio = np.log(s_bar) - np.log(p_bar)
            want = (log_ratio - kl) / total
        # -inf where s_bar is 0, as in the library; anything else non-finite
        # is an overflow of the division by a subnormal total mass
        if np.isinf(want[np.isfinite(log_ratio)]).any():
            with pytest.raises(ValueError, match=r"^S total mass .* is too small"):
                kl_grad_wrt_assignment(S, Pstar)
        else:
            assert np.array_equal(kl_grad_wrt_assignment(S, Pstar), want)


class TestQualityLabels:
    def test_threshold_rule(self):
        gts = [Box(0, 0, 10, 10)]
        boxes = [Box(0, 0, 10, 10), Box(0, 0, 10, 5.0), Box(40, 40, 50, 50)]
        labels = quality_labels(boxes, gts)
        assert labels.tolist() == [1, 1, 0]

    def test_empty_ground_truth(self):
        assert quality_labels([Box(0, 0, 1, 1)], []).tolist() == [0]
