import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sinkhorn_nms import Marginals, SinkhornParams, hungarian_solve, kl_divergence, solve
from sinkhorn_nms import hungarian
from sinkhorn_nms.hungarian import KL_SMOOTHING_EPS, _OPT_TOL


def bruteforce_cost(values: np.ndarray) -> float:
    """Independent oracle: enumerate all maximal matchings."""
    M, K = values.shape
    if M <= K:
        return min(
            sum(values[i, cols[i]] for i in range(M))
            for cols in itertools.permutations(range(K), M)
        )
    return min(
        sum(values[rows[j], j] for j in range(K))
        for rows in itertools.permutations(range(M), K)
    )


@st.composite
def large_tied_costs(draw):
    """Entries from a few values near one base of magnitude up to 1e6.

    Most optima tie exactly; the rest differ by as little as 1e-3.
    """
    base = draw(st.floats(-1e6, 1e6))
    offsets = draw(st.lists(st.sampled_from([0.0, 1e-3, 0.5, 3.0]), min_size=1, max_size=4))
    return draw(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.sampled_from([base + d for d in offsets]),
        )
    )


class TestHungarianSolve:
    def test_diagonal_optimum(self):
        result = hungarian_solve(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert result.pairs == ((0, 0), (1, 1))
        assert result.total_cost == 0.0
        assert np.array_equal(result.indicator, np.eye(2))

    def test_three_by_three_fixture(self):
        # brute force over all 6 permutations gives cost 5 via rows (0,1,2)
        # matched to columns (1, 0, 2)
        C = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        result = hungarian_solve(C)
        assert result.total_cost == pytest.approx(5.0)
        assert result.pairs == ((0, 1), (1, 0), (2, 2))
        assert bruteforce_cost(C) == pytest.approx(5.0)

    def test_constant_matrix_lexicographic_tiebreak(self):
        result = hungarian_solve(np.full((3, 3), 2.0))
        assert result.pairs == ((0, 0), (1, 1), (2, 2))
        assert result.total_cost == pytest.approx(6.0)
        wide = hungarian_solve(np.full((2, 4), 1.0))
        assert wide.pairs == ((0, 0), (1, 1))
        tall = hungarian_solve(np.full((4, 2), 1.0))
        assert tall.pairs == ((0, 0), (1, 1))

    def test_rectangular_leaves_surplus_unmatched(self):
        C = np.array([[1.0, 9.0], [9.0, 1.0], [0.0, 0.0]])
        result = hungarian_solve(C)
        assert len(result.pairs) == 2
        assert result.total_cost == pytest.approx(bruteforce_cost(C))

    def test_tall_prefers_smaller_rows_among_optima(self):
        # both matchings {(0,0)} and {(1,0)} cost 1; the smaller row wins
        C = np.array([[1.0], [1.0]])
        assert hungarian_solve(C).pairs == ((0, 0),)

    def test_matches_bruteforce_on_random_matrices(self):
        rng = np.random.default_rng(17)
        for trial in range(40):
            m = int(rng.integers(1, 7))
            k = int(rng.integers(1, 7))
            values = rng.uniform(-5, 5, size=(m, k))
            result = hungarian_solve(values)
            assert result.total_cost == pytest.approx(bruteforce_cost(values), abs=1e-9)
            assert len(result.pairs) == min(m, k)
            rows = [j for j, _ in result.pairs]
            cols = [k_ for _, k_ in result.pairs]
            assert len(set(rows)) == len(rows)
            assert len(set(cols)) == len(cols)
            assert result.total_cost == pytest.approx(
                sum(values[j, k_] for j, k_ in result.pairs)
            )

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        )
    )
    # Committing (0, 0) then (1, 1) costs 1e-8 more than the optimum -9.
    @example(np.array([[-9.0, 1e-8, 1e-8], [1e-8, 1e-8, 0.0]]))
    def test_property_matches_bruteforce(self, values):
        assert hungarian_solve(values).total_cost == pytest.approx(
            bruteforce_cost(values), abs=1e-9
        )

    @settings(max_examples=100, deadline=None)
    @given(large_tied_costs())
    # (0, 0) costs 1e-3 more than the optimum: within a relative 1e-9 of 2e6.
    @example(np.array([[1e6 + 1e-3, 1e6], [1e6, 1e6]]))
    def test_property_large_magnitudes_with_exact_ties(self, values):
        n = min(values.shape)
        rounding = _OPT_TOL * n * n * max(1.0, float(np.abs(values).max()))
        assert hungarian_solve(values).total_cost == pytest.approx(
            bruteforce_cost(values), rel=0, abs=2 * rounding
        )

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(23)
        values = rng.uniform(0, 1, size=(3, 5))  # M <= K: every row matched
        base = hungarian_solve(values).total_cost
        shifted = values.copy()
        shifted[1, :] += 7.5
        assert hungarian_solve(shifted).total_cost == pytest.approx(base + 7.5)

    def test_pairs_sorted_by_row(self):
        rng = np.random.default_rng(29)
        values = rng.uniform(0, 1, size=(5, 3))
        pairs = hungarian_solve(values).pairs
        assert list(pairs) == sorted(pairs)


class TestKLDivergence:
    def make_assignment(self, n):
        return hungarian_solve(np.eye(n) * -1.0)  # diagonal optimum

    def test_zero_when_equal(self):
        Pstar = self.make_assignment(2)
        eps = KL_SMOOTHING_EPS
        smoothed = (Pstar.indicator + eps) / (Pstar.indicator + eps).sum()
        assert kl_divergence(smoothed, Pstar) == 0.0

    def test_uniform_vs_identity_frozen_value(self):
        # direct scalar evaluation of sum 0.25 ln(0.25 / p_bar) with
        # p_bar = (I + 1e-6) / (2 + 4e-6)
        Pstar = self.make_assignment(2)
        S = np.full((2, 2), 0.25)
        assert kl_divergence(S, Pstar) == pytest.approx(6.2146095984204415, rel=1e-12)

    def test_large_eps_approaches_uniform_reference(self, monkeypatch):
        monkeypatch.setattr(hungarian, "KL_SMOOTHING_EPS", 1e9)
        Pstar = self.make_assignment(2)
        S = np.array([[0.4, 0.1], [0.2, 0.3]])
        s_bar = S / S.sum()
        kl_uniform = float((s_bar * np.log(s_bar / 0.25)).sum())
        assert kl_divergence(S, Pstar) == pytest.approx(kl_uniform, abs=1e-6)

    def test_zero_coupling_entries_contribute_nothing(self):
        Pstar = self.make_assignment(2)
        S = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = kl_divergence(S, Pstar)
        assert np.isfinite(got)
        assert got == pytest.approx(0.0, abs=1e-5)

    def test_nonnegative_on_random_couplings(self):
        rng = np.random.default_rng(31)
        Pstar = self.make_assignment(3)
        for _ in range(20):
            S = rng.uniform(0.0, 1.0, size=(3, 3))
            assert kl_divergence(S, Pstar) >= 0.0

    def test_soft_assignment_input(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        S = solve(C, SinkhornParams(tau=1.0, iters=100, tol=1e-12), Marginals.uniform(2, 2))
        Pstar = hungarian_solve(C)
        assert kl_divergence(S, Pstar) > 0.0

    def test_shape_mismatch(self):
        Pstar = self.make_assignment(2)
        with pytest.raises(ValueError):
            kl_divergence(np.full((3, 2), 1.0), Pstar)
