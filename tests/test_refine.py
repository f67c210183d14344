import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkhorn_nms import (
    RefineParams,
    SimplexVector,
    UnreachableEntropyWarning,
    entropy,
    frank_wolfe,
    lmo_entropy,
    verification,
)
from sinkhorn_nms.refine import BISECT_EPS


# ``line_search`` is the step ``frank_wolfe`` takes inline, and ``duality_gap``
# is a suboptimality certificate; the library calls neither, so both live
# here as oracles.


def line_search(p: SimplexVector, s: SimplexVector, q: np.ndarray) -> float:
    """Exact step size for the linear objective: 1.0 on improvement, else 0.0.

    The objective is linear in the step, so the maximizer over [0, 1] is an
    endpoint; ties keep the current iterate.
    """
    q = np.asarray(q, dtype=np.float64)
    return 1.0 if float(q @ s.p) > float(q @ p.p) else 0.0


def duality_gap(p: SimplexVector, q: np.ndarray, params: RefineParams) -> float:
    """Suboptimality certificate <q, s_oracle - p>, clamped at zero."""
    q = np.asarray(q, dtype=np.float64)
    s = lmo_entropy(q, params)
    return max(0.0, float(q @ (s.p - p.p)))


# Frozen by independent scalar bisection of the binary entropy H(p) = 0.5
# on p in [1/2, 1].
P_BINARY_HALF = 0.8002900974460228

q_vectors = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=2, max_size=8
).map(np.array)


class TestEntropy:
    def test_uniform(self):
        assert entropy(np.full(4, 0.25)) == pytest.approx(math.log(4))

    def test_one_hot(self):
        assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_binary_frozen_value(self):
        assert entropy(np.array([0.8, 0.2])) == pytest.approx(0.5004024235381879)

    def test_accepts_simplex_vector(self):
        assert entropy(SimplexVector(np.array([0.5, 0.5]))) == pytest.approx(math.log(2))


class TestSimplexVector:
    def test_rejects_non_simplex(self):
        with pytest.raises(ValueError):
            SimplexVector(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            SimplexVector(np.array([1.5, -0.5]))

    @pytest.mark.parametrize("p", [np.zeros(0), np.full((1, 2), 0.5)])
    def test_rejects_empty_or_not_1d(self, p):
        with pytest.raises(ValueError, match="^simplex vector must be 1-d and non-empty$"):
            SimplexVector(p)

    def test_length(self):
        assert len(SimplexVector(np.array([0.25, 0.75]))) == 2


class TestLmoEntropy:
    def test_constant_scores_give_uniform(self):
        s = lmo_entropy(np.full(5, 0.3), RefineParams(tau_H=0.5))
        assert np.allclose(s.p, 0.2)

    def test_maximum_entropy_threshold(self):
        s = lmo_entropy(np.array([1.0, 0.0]), RefineParams(tau_H=math.log(2)))
        assert np.allclose(s.p, 0.5)

    def test_uniform_at_ln_k_can_fall_short_by_rounding(self):
        # the oracle and the loop return the entropy maximiser, every entry
        # exactly 1/39, whose computed entropy lies 4 ulp below ln 39
        q, params = np.linspace(-1.0, 1.0, 39), RefineParams(tau_H=math.log(39))
        for p in (lmo_entropy(q, params).p, frank_wolfe(q, params).p.p):
            assert (p == 1.0 / 39).all()
            assert entropy(p) == 3.6635616461296445 < params.tau_H == 3.6635616461296463

    def test_binary_fixture(self):
        s = lmo_entropy(np.array([1.0, 0.0]), RefineParams(tau_H=0.5))
        assert s.p[0] == pytest.approx(P_BINARY_HALF, abs=1e-3)
        assert s.p[1] == pytest.approx(1.0 - P_BINARY_HALF, abs=1e-3)
        assert entropy(s) >= 0.5

    def test_binary_fixture_is_grid_maximal(self):
        # oracle: the best feasible objective on a 10^4-point grid of the
        # binary simplex cannot beat the returned point by more than the
        # grid resolution
        q = np.array([1.0, 0.0])
        s = lmo_entropy(q, RefineParams(tau_H=0.5))
        got = float(q @ s.p)
        best = 0.0
        for p1 in np.linspace(0.0, 1.0, 10_001):
            p = np.array([p1, 1.0 - p1])
            if entropy(p) >= 0.5:
                best = max(best, float(q @ p))
        assert got >= best - 1e-3

    def test_low_threshold_returns_sharp_softmax(self):
        params = RefineParams(tau_H=0.001)
        s = lmo_entropy(np.array([1.0, 0.0]), params)
        # LAMBDA_MIN softmax is feasible here and nearly one-hot
        assert s.p[0] > 0.99
        assert entropy(s) >= 0.001

    def test_infeasible_threshold_raises(self):
        with pytest.raises(ValueError, match="infeasible entropy threshold"):
            lmo_entropy(np.array([1.0, 0.0]), RefineParams(tau_H=1.0))

    def test_unreachable_threshold_warns_and_returns_uniform(self):
        # enormous spread keeps the softmax sharp even at LAMBDA_MAX
        q = np.array([1000.0, 0.0])
        with pytest.warns(UnreachableEntropyWarning):
            s = lmo_entropy(q, RefineParams(tau_H=0.5))
        assert np.allclose(s.p, 0.5)

    def test_single_element(self):
        s = lmo_entropy(np.array([2.0]), RefineParams(tau_H=0.0))
        assert np.array_equal(s.p, [1.0])

    @settings(max_examples=50)
    @given(q_vectors, st.floats(min_value=0.0, max_value=1.0))
    def test_output_always_feasible(self, q, frac):
        tau_h = frac * math.log(len(q))
        params = RefineParams(tau_H=tau_h)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnreachableEntropyWarning)
            s = lmo_entropy(q, params)
        assert abs(float(s.p.sum()) - 1.0) <= 1e-10
        assert entropy(s) >= tau_h - 1e-6

    @settings(max_examples=40)
    @given(q_vectors, st.floats(min_value=0.01, max_value=50.0),
           st.floats(min_value=1.1, max_value=4.0))
    def test_entropy_monotone_in_lambda(self, q, lam, factor):
        from sinkhorn_nms.refine import _softmax_scaled

        h_small = entropy(_softmax_scaled(q, lam))
        h_large = entropy(_softmax_scaled(q, lam * factor))
        assert h_large >= h_small - 1e-9


# |q| / LAMBDA_MIN passes the float range above about 1.798e305; so does the
# spread (max q - q) / LAMBDA_MIN of [1e305, -1e305]
@pytest.mark.parametrize("q", [[1.7995e305, 0.0], [-1.7995e305, 0.0], [1e305, -1e305]])
@pytest.mark.parametrize("fn", [lmo_entropy, frank_wolfe])
def test_q_past_the_softmax_range_raises_by_name(fn, q):
    with pytest.raises(ValueError, match="^q too large for the softmax at LAMBDA_MIN"):
        fn(np.array(q), RefineParams())


@pytest.mark.parametrize("q", [[1.7959e305, 0.0], [-1.7959e305, 0.0]])
@pytest.mark.parametrize("fn", [lmo_entropy, frank_wolfe])
def test_q_just_inside_the_softmax_range_still_returns_uniform(fn, q):
    with pytest.warns(UnreachableEntropyWarning):
        out = fn(np.array(q), RefineParams())
    p = out.p if fn is lmo_entropy else out.p.p
    assert p.tolist() == [0.5, 0.5]


class TestLineSearch:
    def test_improvement_steps_fully(self):
        q = np.array([1.0, 0.0])
        p = SimplexVector(np.array([0.5, 0.5]))
        s = SimplexVector(np.array([0.8, 0.2]))
        assert line_search(p, s, q) == 1.0

    def test_tie_keeps_current(self):
        q = np.array([1.0, 0.0])
        p = SimplexVector(np.array([0.5, 0.5]))
        assert line_search(p, p, q) == 0.0

    def test_worse_candidate_rejected(self):
        q = np.array([1.0, 0.0])
        p = SimplexVector(np.array([0.8, 0.2]))
        s = SimplexVector(np.array([0.5, 0.5]))
        assert line_search(p, s, q) == 0.0


class TestFrankWolfe:
    def test_binary_fixture(self):
        result = frank_wolfe(np.array([1.0, 0.0]), RefineParams(tau_H=0.5))
        assert result.p.p[0] == pytest.approx(P_BINARY_HALF, abs=1e-3)
        assert result.iterations <= 2

    def test_max_entropy_threshold_returns_uniform(self):
        for q in (np.array([3.0, -1.0, 0.5]), np.array([0.0, 0.0, 9.0])):
            result = frank_wolfe(q, RefineParams(tau_H=math.log(3)))
            assert np.allclose(result.p.p, 1.0 / 3.0)

    def test_constant_scores(self):
        q = np.full(4, 0.7)
        result = frank_wolfe(q, RefineParams(tau_H=0.5))
        assert np.allclose(result.p.p, 0.25)
        assert result.objective_trace[-1] == pytest.approx(0.7)

    def test_objective_trace_monotone(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            k = int(rng.integers(2, 9))
            q = rng.uniform(-1, 1, size=k)
            tau_h = float(rng.uniform(0, math.log(k)))
            result = frank_wolfe(q, RefineParams(tau_H=tau_h))
            trace = np.array(result.objective_trace)
            assert (np.diff(trace) >= -1e-12).all()

    @settings(max_examples=50, deadline=None)
    @given(q_vectors, st.floats(min_value=0.0, max_value=1.0))
    def test_feasibility_and_two_step_convergence(self, q, frac):
        tau_h = frac * math.log(len(q))
        params = RefineParams(tau_H=tau_h)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnreachableEntropyWarning)
            result = frank_wolfe(q, params)
            oracle = lmo_entropy(q, params)
        assert abs(float(result.p.p.sum()) - 1.0) <= 1e-10
        assert entropy(result.p) >= tau_h - 1e-6
        assert result.iterations <= 2
        gap = abs(float(q @ oracle.p) - result.objective_trace[-1])
        assert gap <= 1e-6 * max(1e-12, float(np.abs(q).max()))


class TestFrankWolfeSweep:
    def test_fails_a_refinement_that_returns_uniform(self, monkeypatch):
        # The objective trace is left as computed: the sweep must look at p.
        def uniform(q, params):
            result = frank_wolfe(q, params)
            return dataclasses.replace(result, p=SimplexVector(np.full(len(q), 1.0 / len(q))))

        monkeypatch.setattr(verification, "frank_wolfe", uniform)
        assert not any(r.passed for r in verification.frank_wolfe_sweep(trials=50))


class TestDualityGap:
    def test_zero_at_oracle_point(self):
        q = np.array([1.0, 0.0])
        params = RefineParams(tau_H=0.5)
        p = lmo_entropy(q, params)
        assert duality_gap(p, q, params) <= BISECT_EPS

    def test_uniform_binary_fixture(self):
        q = np.array([1.0, 0.0])
        params = RefineParams(tau_H=0.5)
        gap = duality_gap(SimplexVector(np.array([0.5, 0.5])), q, params)
        assert gap == pytest.approx(P_BINARY_HALF - 0.5, abs=1e-3)

    def test_constant_scores_zero_gap(self):
        q = np.full(3, 0.4)
        params = RefineParams(tau_H=0.3)
        gap = duality_gap(SimplexVector(np.array([0.2, 0.3, 0.5])), q, params)
        assert gap == 0.0


class TestRefineParams:
    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            RefineParams(tau_H=-0.1)
