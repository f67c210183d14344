"""``kmeans`` and the spatial cost term against the code they replaced.

``kmeans`` below is the earlier implementation, which took each cluster's
mean with its own ``pts[labels == k].mean(axis=0)`` in the Lloyd update and
in the final pass, and each squared distance from an (M, K, D) broadcast,
kept as the reference oracle.  Its one deliberate change is the stop rule:
the updates end at the first assignment that equals any earlier one, not
only the one before it, so that a cycle closed by rounded means, ties or
re-seeding ends like a fixed point.  Both must return the same centroid
bytes, the same assignment and the same ``wcss`` bits, also when duplicate
points leave clusters empty and get them re-seeded, when entries are
``±0.0``, when the iteration budget runs out mid-update, for point
dimensions in every branch of numpy's summation order, for magnitudes from
1e-150 to 1e150, and on the near ties that the library's matrix-product
distances cannot order and must recheck with the broadcast: lattice points
with duplicates, symmetric sets, points with a tiny spread about a large
offset, and coordinates whose product form overflows; and on tenths-lattice
points, where Lloyd's updates often cycle.  ``build_cost``'s
spatial term is checked byte for byte against the broadcast it replaced.
"""

from __future__ import annotations

from typing import Sequence
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sinkhorn_nms import (
    Centroids,
    CostWeights,
    ProposalArrays,
    ProposalSet,
    SynthConfig,
    build_cost,
    clustering,
    synth_generate,
)
from sinkhorn_nms.clustering import DEFAULT_MAX_ITERS, KMeansResult
from sinkhorn_nms.geometry import box_centers
from sinkhorn_nms.rng import SplitMix64

# reference implementation


def kmeans(
    points: Sequence[Sequence[float]] | np.ndarray,
    K: int,
    seed: int,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> KMeansResult:
    """Lloyd's algorithm with seeded farthest-point initialization.

    The first centroid is a seeded random point; each further centroid is the
    point farthest from its nearest chosen centroid.  Empty clusters are
    re-seeded to the point currently farthest from its own centroid.  The
    ``wcss`` trace records the within-cluster sum of squares after every
    assignment step.  The updates stop at the first assignment seen before.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    n = pts.shape[0]
    if K > n:
        raise ValueError(f"insufficient points: K={K} > {n}")
    if K < 1:
        raise ValueError("K must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    rng = SplitMix64(seed)
    centroids = np.empty((K, pts.shape[1]), dtype=np.float64)
    centroids[0] = pts[rng.randint(n)]
    nearest = ((pts - centroids[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        centroids[k] = pts[int(np.argmax(nearest))]
        nearest = np.minimum(nearest, ((pts - centroids[k]) ** 2).sum(axis=1))

    def assign(cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d2 = ((pts[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        return labels, d2[np.arange(n), labels]

    labels, own_d2 = assign(centroids)
    wcss = [float(own_d2.sum())]
    history = [labels]
    for _ in range(max_iters):
        new_centroids = centroids.copy()
        reseeded: set[int] = set()
        for k in range(K):
            members = labels == k
            if members.any():
                new_centroids[k] = pts[members].mean(axis=0)
        # Re-seed empty clusters to the point farthest from its own centroid,
        # excluding points already consumed by this round of re-seeding.
        for k in range(K):
            if not (labels == k).any():
                candidates = own_d2.copy()
                candidates[list(reseeded)] = -np.inf
                far = int(np.argmax(candidates))
                new_centroids[k] = pts[far]
                reseeded.add(far)
        centroids = new_centroids
        new_labels, own_d2 = assign(centroids)
        wcss.append(float(own_d2.sum()))
        if any((new_labels == old).all() for old in history):
            labels = new_labels
            break
        history.append(new_labels)
        labels = new_labels

    # Make every centroid the mean of its assigned points even when the
    # iteration budget ran out mid-update.
    for k in range(K):
        members = labels == k
        if members.any():
            centroids[k] = pts[members].mean(axis=0)
    return KMeansResult(centroids=centroids, assignment=labels, wcss=tuple(wcss))


def assert_same_as_reference(points, K, seed, max_iters):
    # The library's Lloyd budget is a module constant; the reference takes it
    # as an argument.
    with patch.object(clustering, "DEFAULT_MAX_ITERS", max_iters):
        got = clustering.kmeans(points, K, seed)
    want = kmeans(points, K, seed, max_iters)
    assert got.centroids.dtype == want.centroids.dtype
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.assignment.dtype == want.assignment.dtype
    assert np.array_equal(got.assignment, want.assignment)
    assert np.array(got.wcss).tobytes() == np.array(want.wcss).tobytes()
    assert all(type(w) is float for w in got.wcss)


# A few distinct rows drawn many times: duplicates tie the farthest-point
# initialisation and the nearest-centroid choice, which leaves clusters empty.
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def problems(draw):
    dim = draw(st.integers(1, 4))
    pool = draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), dim), elements=ENTRIES))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    points = pool[picks]
    K = draw(st.integers(1, len(points)))
    max_iters = draw(st.sampled_from([1, 2, DEFAULT_MAX_ITERS]))
    return points, K, draw(st.integers(0, 2**32)), max_iters


def test_matches_reference_oracle_on_training_scenes():
    # The joint [center / diag ; feature] points that ``init_centroids`` clusters.
    for seed in range(4):
        pset, _ = synth_generate(SynthConfig(num_regions=16, proposals_per_region=8, seed=seed))
        joint = np.hstack([box_centers(pset.proposals.boxes) / pset.image_diag, pset.proposals.features])
        for max_iters in (1, DEFAULT_MAX_ITERS):
            assert_same_as_reference(joint, 16, seed, max_iters)


# D from each branch of numpy's order for summing a contiguous axis: left to
# right below 8 terms, 8 partial sums over one, two or more whole blocks of 8,
# and the split in halves above 128 terms
DIMS = st.one_of(st.integers(0, 7), st.integers(8, 15), st.integers(16, 23),
                 st.integers(24, 64), st.integers(129, 140))


@st.composite
def coordinates(draw, shape):
    """Normal draws scaled entry by entry from 1e-150 to 1e150, some ``±0.0``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = rng.choice([1e-150, 1e-40, 1e-3, 1.0, 1e3, 1e40, 1e150], size=shape)
    values = rng.normal(size=shape) * scale
    zero = rng.random(shape) < draw(st.sampled_from([0.0, 0.3]))
    return np.where(zero, np.where(rng.random(shape) < 0.5, -0.0, 0.0), values)


@st.composite
def wide_problems(draw):
    pool = draw(coordinates((draw(st.integers(1, 8)), draw(DIMS))))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60))
    points = pool[picks]
    K = draw(st.integers(1, min(len(points), 8)))
    max_iters = draw(st.sampled_from([1, 2, DEFAULT_MAX_ITERS]))
    return points, K, draw(st.integers(0, 2**32)), max_iters


@st.composite
def near_ties(draw):
    """Points whose distances to two centroids agree to within rounding."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, D = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    family = draw(st.sampled_from(["lattice", "symmetric", "offset", "overflow"]))
    if family == "lattice":  # tenths, with many duplicates
        points = rng.integers(-3, 4, size=(n, D)) * 0.1
    elif family == "symmetric":  # each x with its -x
        half = rng.normal(size=((n + 1) // 2, D))
        if draw(st.booleans()):
            half = rng.integers(-3, 4, size=half.shape) * 0.1
        points = np.vstack([half, -half])[:n]
    elif family == "offset":  # |x|**2 swamps the distances
        points = 1e6 + 1e-3 * rng.normal(size=(n, D))
    else:  # |x|**2 or x.c overflows, the differences do not
        points = 1e154 * (1.0 + 1e-3 * rng.normal(size=(n, D)))
    K = draw(st.integers(1, n))
    max_iters = draw(st.sampled_from([1, 2, DEFAULT_MAX_ITERS]))
    return points, K, draw(st.integers(0, 2**32)), max_iters


def tenths_lattice(s: int):
    """Coordinates in {-0.3, ..., 0.3}, D 1-5, n 1-39 and K 1-n from seed ``s``.

    In this family about one run in twelve cycled through all 100 updates
    before the stop at a repeated assignment.
    """
    rng = np.random.default_rng(s)
    n, D = int(rng.integers(1, 40)), int(rng.integers(1, 6))
    points = rng.integers(-3, 4, size=(n, D)) * 0.1
    return points, int(rng.integers(1, n + 1)), 0, DEFAULT_MAX_ITERS


# Updates 2 and 4 give the same assignment: two duplicate points swap between
# two centroids at the same place, one of them re-seeded.
CYCLE = [[0.1], [0.3], [0.3], [-0.1], [-0.1], [0.0], [0.2], [-0.3], [-0.1], [-0.3], [0.1]]


@settings(max_examples=600, deadline=None)
@given(st.one_of(problems(), wide_problems(), near_ties(),
                 st.integers(0, 2**32 - 1).map(tenths_lattice)))
@example((np.array(CYCLE), 10, 598, DEFAULT_MAX_ITERS))
@example(tenths_lattice(3))  # a cycle whose wcss rises, D 1
@example(tenths_lattice(720))  # a cycle whose wcss rises, D 2
@example(tenths_lattice(202))  # a cycle at constant wcss, D 2
@example((np.array([[-0.0, 0.0], [-0.0, -0.0], [3.0, -0.0]]), 2, 0, 1))  # signed zeros
@example((np.zeros((5, 3)), 5, 1, DEFAULT_MAX_ITERS))  # every cluster but one empty
@example((np.random.default_rng(2).normal(size=(37, 1)), 2, 3, 1))  # pairwise column sums
@example((np.random.default_rng(4).normal(size=(37, 10)), 3, 5, 1))
@example((1e6 + 1e-3 * np.random.default_rng(1).normal(size=(30, 3)), 4, 1, DEFAULT_MAX_ITERS))
def test_matches_reference_oracle(problem):
    assert_same_as_reference(*problem)


def test_stops_at_the_first_repeated_assignment():
    with patch.object(clustering, "DEFAULT_MAX_ITERS", 2):
        second = clustering.kmeans(CYCLE, 10, 598)
    with patch.object(clustering, "DEFAULT_MAX_ITERS", 3):
        third = clustering.kmeans(CYCLE, 10, 598)
    got = clustering.kmeans(CYCLE, 10, 598)
    assert not np.array_equal(third.assignment, second.assignment)
    assert len(got.wcss) == 5
    assert np.array_equal(got.assignment, second.assignment)
    assert got.centroids.tobytes() == second.centroids.tobytes()


def test_matches_reference_oracle_on_the_cli_scene():
    pset, _ = synth_generate(SynthConfig(num_regions=32, proposals_per_region=64, jitter=4.0,
                                         score_noise=0.05, seed=1))
    joint = np.hstack([box_centers(pset.proposals.boxes) / pset.image_diag, pset.proposals.features])
    assert_same_as_reference(joint, 31, 1, DEFAULT_MAX_ITERS)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_spatial_cost_term_matches_the_broadcast(data):
    M, K = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 8))
    corners = data.draw(coordinates((M, 2)))
    sizes = np.abs(data.draw(coordinates((M, 2))))
    boxes = np.hstack([corners, corners + sizes])
    arrays = ProposalArrays(ids=np.arange(M), scores=np.full(M, 0.5), boxes=boxes,
                            features=np.ones((M, 1)))
    pset = ProposalSet(proposals=arrays, image_width=640.0, image_height=480.0, feature_dim=1)
    nu = data.draw(coordinates((K, 2)))
    cents = Centroids(feature_centroids=np.ones((K, 1)), spatial_centroids=nu)
    # with only gamma, each entry is +0.0 + +0.0 + the spatial term
    got = build_cost(pset, cents, CostWeights(alpha=0.0, beta=0.0, gamma=1.0)).values
    diffs = box_centers(boxes)[:, None, :] - nu[None, :, :]
    want = np.sqrt((diffs**2).sum(axis=2)) / pset.image_diag
    assert got.tobytes() == want.tobytes()
