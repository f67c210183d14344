"""The probe loop of ``hungarian_solve`` against the loop it replaced.

``hungarian_solve`` and ``_lap_cost`` below are the earlier implementation,
which rebuilt the free row and column lists and an ``np.ix_`` sub-matrix for
every probe, and ran every probe.  They are kept verbatim as the reference
oracle except for the one tolerance line, which uses the library's
rounding-scale tolerance in place of the former ``1e-9 * (1 + |optimum|)``.
Both oracles must return the same pairs, the same total-cost bits and the
same indicator.  The library skips the probes that a per-column bound shows
would fail, so the forced sub-problems it hands scipy must be the
reference's, byte for byte and in order, with some left out; the first is
always the full matrix.  At training scale the bound must leave out at least
two calls in three.
"""

import contextlib
import hashlib
import sys
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from sinkhorn_nms import (
    CostWeights,
    SynthConfig,
    build_cost,
    hungarian,
    init_centroids,
    synth_generate,
)
from sinkhorn_nms.cost import CostMatrix, cost_values
from sinkhorn_nms.hungarian import Assignment


def _lap_cost(values: np.ndarray) -> float:
    if values.shape[0] == 0 or values.shape[1] == 0:
        return 0.0
    rows, cols = linear_sum_assignment(values)
    return float(values[rows, cols].sum())


def hungarian_solve(C: CostMatrix | np.ndarray) -> Assignment:
    """Globally minimal matching of cardinality min(M, K).

    Rectangular matrices leave |M - K| rows or columns unmatched.  Among all
    optimal matchings the lexicographically smallest pair list (pairs sorted
    by row index, compared element-wise) is returned: the matching is rebuilt
    pair by pair, committing at each step to the smallest (row, column) whose
    forced inclusion still admits an optimal completion.
    """
    values = cost_values(C)
    M, K = values.shape
    n = min(M, K)
    optimum = _lap_cost(values)
    # The one edit: the library's rounding-scale tolerance.
    tol = hungarian._OPT_TOL * n * n * max(1.0, float(np.abs(values).max()))

    pairs: list[tuple[int, int]] = []
    fixed_cost = 0.0
    rows = list(range(M))
    cols = list(range(K))
    for slot in range(n):
        need = n - slot - 1
        committed = False
        for ji, j in enumerate(rows):
            # Rows skipped here stay unmatched, which is only affordable when
            # enough rows remain to complete the matching.
            rows_after = rows[ji + 1 :]
            if len(rows_after) < need:
                break
            for k in cols:
                cols_after = [c for c in cols if c != k]
                rest = (
                    _lap_cost(values[np.ix_(rows_after, cols_after)]) if need else 0.0
                )
                if fixed_cost + values[j, k] + rest <= optimum + tol:
                    pairs.append((j, k))
                    fixed_cost += float(values[j, k])
                    rows = rows_after
                    cols = cols_after
                    committed = True
                    break
            if committed:
                break
        if not committed:  # pragma: no cover - optimum always admits completion
            raise RuntimeError("failed to reconstruct an optimal matching")

    indicator = np.zeros((M, K), dtype=np.float64)
    for j, k in pairs:
        indicator[j, k] = 1.0
    total = float(sum(values[j, k] for j, k in pairs))
    return Assignment(pairs=tuple(pairs), total_cost=total, indicator=indicator)


def recorded_input(values):
    data = np.ascontiguousarray(values)
    return data.shape, hashlib.sha256(data.tobytes()).hexdigest()


@contextlib.contextmanager
def recorded_laps(module):
    """Record the shape and a digest of every LAP input ``module`` solves."""
    calls = []
    lap = module.linear_sum_assignment

    def recorder(values):
        calls.append(recorded_input(values))
        return lap(values)

    with mock.patch.object(module, "linear_sum_assignment", recorder):
        yield calls


def assert_same_as_reference(C):
    with recorded_laps(hungarian) as got_calls:
        got = hungarian.hungarian_solve(C)
    with recorded_laps(sys.modules[__name__]) as want_calls:
        want = hungarian_solve(C)
    assert got.pairs == want.pairs
    assert all(type(i) is int for pair in got.pairs for i in pair)
    assert np.float64(got.total_cost).tobytes() == np.float64(want.total_cost).tobytes()
    assert np.array_equal(got.indicator, want.indicator)
    # The library's LAP inputs are an ordered subsequence of the reference's.
    want_iter = iter(want_calls)
    assert all(call in want_iter for call in got_calls)
    assert got_calls[0] == want_calls[0] == recorded_input(cost_values(C))
    return got_calls, want_calls


SHAPES = st.tuples(st.integers(1, 10), st.integers(1, 10))


@st.composite
def near_ties(draw):
    """Integers plus small multiples of the rounding scale of the tolerance."""
    shape = draw(SHAPES)
    base = draw(hnp.arrays(np.float64, shape, elements=st.integers(-3, 3).map(float)))
    m = draw(hnp.arrays(np.float64, shape, elements=st.integers(-8, 8).map(float)))
    n = min(shape)
    scale = n * n * np.finfo(np.float64).eps * max(1.0, float(np.abs(base).max()))
    return base + m * scale


COSTS = st.one_of(
    # integer costs: many exactly tied optima
    hnp.arrays(np.float64, SHAPES, elements=st.integers(-3, 3).map(float)),
    # tenths: ties whose sums round differently in different orders
    hnp.arrays(
        np.float64,
        SHAPES,
        elements=st.floats(-2, 2, allow_nan=False).map(lambda x: round(x, 1)),
    ),
    hnp.arrays(
        np.float64,
        SHAPES,
        elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    ),
    # large magnitudes: the tolerance and the bound's margin scale with max|C|
    hnp.arrays(
        np.float64,
        SHAPES,
        elements=st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
    ),
    # near-ties that straddle the tolerance and the bound's margin
    near_ties(),
)


@settings(max_examples=200, deadline=None)
@given(COSTS)
@example(np.array([[-9.0, 1e-8, 1e-8], [1e-8, 1e-8, 0.0]]))
@example(np.zeros((1, 6)))  # M = 1
@example(np.zeros((6, 1)))  # K = 1
@example(np.zeros((3, 7)))  # M < K, all tied
@example(np.zeros((7, 3)))  # M > K, all tied
@example(np.zeros((40, 3)))  # M >> K, all tied
@example(np.round(np.random.default_rng(5).uniform(-1, 1, (8, 8)), 1))
def test_matches_reference_oracle(values):
    assert_same_as_reference(values)


def test_matches_reference_oracle_on_training_scenes():
    for seed in range(4):
        pset, _ = synth_generate(SynthConfig(num_regions=4, proposals_per_region=6, seed=seed))
        C = build_cost(pset, init_centroids(pset, 6, seed), CostWeights())
        assert_same_as_reference(C)


def test_matches_reference_oracle_at_training_scale():
    # The train-128x16 shape, where each slot probes many rows per column
    # block, and its transpose, where every row is matched and M < K.
    for seed in range(2):
        pset, _ = synth_generate(SynthConfig(num_regions=16, proposals_per_region=8, seed=seed))
        C = build_cost(pset, init_centroids(pset, 16, seed), CostWeights())
        assert C.values.shape == (128, 16)
        got_calls, want_calls = assert_same_as_reference(C)
        # a bound that stops pruning fails here
        assert 3 * len(got_calls) <= len(want_calls)
        assert_same_as_reference(np.ascontiguousarray(C.values.T))
