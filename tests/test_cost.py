"""``build_cost`` and ``kappa``, with per-entry oracles for the cost terms.

``feature_distance`` and ``spatial_distance`` below are the scalar cosine and
spatial distances that ``build_cost`` vectorises; the library does not call
them, so they live here as the per-entry oracle of the cost matrix.  The
whole matrix and ``kappa`` are also compared bit for bit with the code they
replaced, in ``kernel_oracles``.
"""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kernel_oracles
from sinkhorn_nms import (
    Box,
    Centroids,
    CostMatrix,
    CostWeights,
    SynthConfig,
    build_cost,
    cost,
    init_centroids,
    kappa,
    synth_generate,
)
from sinkhorn_nms._checks import check_real

from conftest import with_columns

logger = logging.getLogger(__name__)


def feature_distance(f: np.ndarray, mu: np.ndarray) -> float:
    """Cosine distance 1 - <f, mu> / (|f| |mu|), in [0, 2].

    A zero vector on either side carries no directional information; the
    distance falls back to 1.0 and the event is logged.
    """
    f = np.asarray(f, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if f.shape != mu.shape:
        raise ValueError(f"dimension mismatch: {f.shape} vs {mu.shape}")
    nf = float(np.linalg.norm(f))
    nmu = float(np.linalg.norm(mu))
    if nf == 0.0 or nmu == 0.0:
        logger.warning("feature_distance: zero vector, returning neutral distance 1.0")
        return 1.0
    return 1.0 - float(np.dot(f, mu)) / (nf * nmu)


def spatial_distance(box: Box, nu: tuple[float, float], image_diag: float) -> float:
    """Euclidean distance from the box center to ``nu``, over the image diagonal."""
    image_diag = check_real("image_diag", image_diag, 0.0, strict=True)
    cx, cy = box.center
    return math.hypot(cx - nu[0], cy - nu[1]) / image_diag


finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=finite,
)


def kappa_bruteforce(values: np.ndarray) -> float:
    """Independent oracle: explicit loop over all index quadruples."""
    M, K = values.shape
    best = 0.0
    for i in range(M):
        for k in range(M):
            for j in range(K):
                for l in range(K):
                    best = max(
                        best,
                        abs(values[i, j] - values[i, l] - values[k, j] + values[k, l]),
                    )
    return best


def kappa_column_pairs(values: np.ndarray) -> float:
    """Reference: the earlier double loop over column pairs, unchanged."""
    best = 0.0
    K = values.shape[1]
    for j in range(K):
        for l in range(j + 1, K):
            d = values[:, j] - values[:, l]
            best = max(best, float(d.max() - d.min()))
    return best


@st.composite
def kappa_inputs(draw) -> np.ndarray:
    shape = st.tuples(st.integers(1, 59), st.integers(1, 19))
    values = draw(hnp.arrays(np.float64, shape, elements=finite))
    if draw(st.booleans()):
        values = np.round(values, 1)  # ties in the column differences
    return values


@st.composite
def kappa_families(draw) -> np.ndarray:
    """Ties, additive ``a_i + b_j`` (kappa 0, nothing prunes), uniform noise,
    and any of them scaled to magnitudes from 1e-150 to 1e150; columns near
    +-1.7e308 whose differences overflow; M or K may be 1."""
    M = draw(st.one_of(st.just(1), st.integers(1, 70)))
    K = draw(st.one_of(st.just(1), st.integers(1, 24)))
    family = draw(st.sampled_from(["tenths", "additive", "uniform", "floats", "overflow"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "overflow":
        values = rng.uniform(-1, 1, (M, K))
        big = rng.random(K) < 0.4
        values[:, big] = rng.choice([-1.7e308, 1.7e308], big.sum()) * rng.uniform(0.5, 1, (M, big.sum()))
        return values
    if family == "tenths":
        values = rng.integers(-30, 31, (M, K)) / 10.0
    elif family == "additive":
        values = rng.uniform(-1, 1, (M, 1)) + rng.uniform(-1, 1, (1, K))
    elif family == "uniform":
        values = rng.uniform(0.0, 3.0, (M, K))
    else:
        values = draw(hnp.arrays(np.float64, (M, K), elements=finite))
    return values * 10.0 ** draw(st.sampled_from([0, -150, -75, 75, 150]))


def additive(M: int, K: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (M, 1)) + rng.uniform(0, 1, (1, K))


def scene_cost(regions: int, per_region: int, K: int, seed: int) -> np.ndarray:
    pset, _ = synth_generate(SynthConfig(num_regions=regions, proposals_per_region=per_region,
                                         jitter=4.0, score_noise=0.05, seed=seed))
    return build_cost(pset, init_centroids(pset, K, 0), CostWeights()).values


class TestFeatureDistance:
    def test_identical(self):
        f = np.array([0.3, 0.4])
        assert feature_distance(f, f) == pytest.approx(0.0, abs=1e-12)

    def test_antipodal(self):
        f = np.array([1.0, 2.0])
        assert feature_distance(f, -f) == pytest.approx(2.0)

    def test_hand_cosine(self):
        got = feature_distance(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(0.29289321881345254)

    def test_zero_vector_neutral(self, caplog):
        with caplog.at_level(logging.WARNING):
            got = feature_distance(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        assert got == 1.0
        assert any("zero vector" in r.message for r in caplog.records)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            feature_distance(np.zeros(3), np.zeros(2))


class TestSpatialDistance:
    def test_centered(self):
        box = Box(0, 0, 4, 4)
        assert spatial_distance(box, (2.0, 2.0), 10.0) == 0.0

    def test_three_four_five(self):
        box = Box(-1, -1, 1, 1)  # center (0, 0)
        assert spatial_distance(box, (3.0, 4.0), 10.0) == pytest.approx(0.5)

    def test_within_unit_for_in_image_points(self):
        box = Box(0, 0, 0, 0)
        diag = np.hypot(100.0, 50.0)
        assert spatial_distance(box, (100.0, 50.0), diag) <= 1.0

    def test_requires_positive_diag(self):
        with pytest.raises(ValueError):
            spatial_distance(Box(0, 0, 1, 1), (0.0, 0.0), 0.0)


class TestBuildCost:
    @pytest.fixture
    def scene(self):
        pset, _ = synth_generate(
            SynthConfig(num_regions=2, proposals_per_region=3, jitter=2.0, seed=5)
        )
        return pset, init_centroids(pset, K=2, seed=0)

    def test_alpha_only_perfect_scores(self):
        pset, _ = synth_generate(
            SynthConfig(num_regions=2, proposals_per_region=2, jitter=0.0, score_noise=0.0, seed=1)
        )
        cents = init_centroids(pset, K=2, seed=0)
        C = build_cost(pset, cents, CostWeights(alpha=1.0, beta=0.0, gamma=0.0))
        assert np.allclose(C.values, 0.0)

    def test_score_term_broadcast(self, scene):
        pset, cents = scene
        two = pset.take(np.arange(2), scores=np.array([1.0, 0.5]))
        C = build_cost(two, cents, CostWeights(alpha=1.0, beta=0.0, gamma=0.0))
        assert np.allclose(C.values[0], 0.0)
        assert np.allclose(C.values[1], 0.5)

    def test_single_proposal_on_own_centroid(self):
        pset, _ = synth_generate(
            SynthConfig(num_regions=1, proposals_per_region=1, jitter=0.0, score_noise=0.0, seed=2)
        )
        cents = init_centroids(pset, K=1, seed=0)
        C = build_cost(pset, cents, CostWeights())
        assert C.values[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative(self, scene):
        pset, cents = scene
        C = build_cost(pset, cents, CostWeights(alpha=0.5, beta=2.0, gamma=0.1))
        assert (C.values >= 0.0).all()

    def test_permutation_equivariant(self, scene):
        pset, cents = scene
        w = CostWeights()
        base = build_cost(pset, cents, w).values
        perm = [3, 1, 5, 0, 2, 4]
        shuffled = pset.take(np.array(perm))
        got = build_cost(shuffled, cents, w).values
        assert np.array_equal(got, base[perm])

    def test_zero_feature_row_uses_neutral_distance(self, scene, caplog):
        pset, cents = scene
        features = pset.proposals.features.copy()
        features[2] = 0.0
        zeroed = with_columns(pset, features=features)
        rows = list(zeroed)
        w = CostWeights(alpha=0.5, beta=2.0, gamma=0.1)
        with caplog.at_level(logging.WARNING):
            C = build_cost(zeroed, cents, w).values
        assert any("zero feature vector" in r.message for r in caplog.records)
        for j, p in enumerate(rows):
            for k in range(C.shape[1]):
                d_feat = feature_distance(p.feature, cents.feature_centroids[k])
                d_spatial = spatial_distance(p.box, cents.spatial_centroids[k], pset.image_diag)
                want = w.alpha * (1.0 - p.score) + w.beta * d_feat + w.gamma * d_spatial
                assert C[j, k] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_dimension_mismatch_raises(self, scene):
        pset, cents = scene
        import dataclasses

        bad = dataclasses.replace(
            cents, feature_centroids=np.zeros((2, pset.feature_dim + 1))
        )
        with pytest.raises(ValueError):
            build_cost(pset, bad, CostWeights())


@pytest.mark.parametrize("values", [np.zeros((0, 3)), np.zeros((2, 0)), np.zeros(3)])
def test_empty_or_not_2d_cost_matrix_rejected(values):
    with pytest.raises(ValueError, match="^cost matrix must be 2-d and non-empty$"):
        CostMatrix(values)


class TestCostWeights:
    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            CostWeights(alpha=0.0, beta=0.0, gamma=0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CostWeights(alpha=-1.0)


class TestKappa:
    def test_constant_matrix(self):
        assert kappa(np.full((3, 4), 2.5)) == 0.0

    def test_two_by_two(self):
        assert kappa(np.array([[0.0, 1.0], [1.0, 0.0]])) == 2.0

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            values = rng.uniform(-3, 3, size=(5, 4))
            assert kappa(values) == pytest.approx(kappa_bruteforce(values), abs=1e-12)

    @settings(max_examples=40)
    @given(matrices, st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_row_and_column_shift_invariance(self, values, c):
        base = kappa(values)
        shifted_row = values.copy()
        shifted_row[0, :] += c
        shifted_col = values.copy()
        shifted_col[:, -1] += c
        assert kappa(shifted_row) == pytest.approx(base, rel=1e-9, abs=1e-9)
        assert kappa(shifted_col) == pytest.approx(base, rel=1e-9, abs=1e-9)

    @settings(max_examples=40)
    @given(matrices, st.floats(min_value=-4, max_value=4, allow_nan=False))
    def test_absolute_homogeneity(self, values, c):
        assert kappa(c * values) == pytest.approx(abs(c) * kappa(values), rel=1e-9, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(kappa_inputs())
    def test_bitwise_equal_to_column_pair_loop(self, values):
        assert kappa(values) == kappa_column_pairs(values)
        assert kappa(CostMatrix(values)) == kappa_column_pairs(values)

    @settings(max_examples=300, deadline=None)
    @given(kappa_families())
    def test_bitwise_equal_to_the_plain_scan(self, values):
        with np.errstate(over="ignore", invalid="ignore"):  # the overflow family, in both
            assert kappa(values).hex() == kernel_oracles.kappa(values).hex()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bitwise_equal_to_the_plain_scan_on_scenes(self, seed):
        for regions, per_region, K in ((16, 16, 16), (32, 32, 32), (32, 64, 31)):
            values = scene_cost(regions, per_region, K, seed)
            assert kappa(values).hex() == kernel_oracles.kappa(values).hex()

    @pytest.mark.parametrize("values, plain", [
        # (0, 1) overflows to a NaN spread, which hides the rest of its block
        (np.array([[-1.5e308, 1.4e308, -1.0], [-1.5e308, 1.5e308, -1.0]]), True),
        (additive(2048, 12), False),  # nothing pruned, in many gathered blocks
        (np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 5.0]]), False),  # nothing left after the first round
        (scene_cost(16, 16, 16, 1), False),  # pruned
    ])
    def test_plain_scan_only_when_a_bound_is_not_finite(self, values, plain, monkeypatch):
        scans = []
        scan_rows = cost._scan_rows
        monkeypatch.setattr(cost, "_scan_rows", lambda *a, **kw: scans.append(a) or scan_rows(*a, **kw))
        with np.errstate(over="ignore", invalid="ignore"):
            assert kappa(values) == kernel_oracles.kappa(values)
        assert len(scans) == plain

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CostMatrix(np.array([[np.nan, 0.0]]))


weights = st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, 3.7])


@st.composite
def cost_problems(draw):
    """A synthesized scene with some feature rows and centroids zeroed, and
    cost weights that may be zero."""
    pset, _ = synth_generate(SynthConfig(
        num_regions=draw(st.integers(1, 5)), proposals_per_region=draw(st.integers(1, 8)),
        jitter=4.0, score_noise=0.3, feature_dim=draw(st.integers(3, 12)),
        seed=draw(st.integers(0, 2**32 - 1)),
    ))
    M = len(pset)
    K = draw(st.integers(1, M))
    cents = init_centroids(pset, K, draw(st.integers(0, 9)))
    features = pset.proposals.features.copy()
    features[draw(st.lists(st.integers(0, M - 1), max_size=M))] = 0.0
    mu = cents.feature_centroids.copy()
    mu[draw(st.lists(st.integers(0, K - 1), max_size=K))] = 0.0
    alpha, beta, gamma = draw(weights), draw(weights), draw(weights)
    if alpha == beta == gamma == 0.0:
        gamma = 1.0
    return (with_columns(pset, features=features), Centroids(mu, cents.spatial_centroids),
            CostWeights(alpha, beta, gamma))


@settings(max_examples=150, deadline=None)
@given(cost_problems())
def test_build_cost_bitwise_equal_to_the_expression(problem):
    got = build_cost(*problem).values
    want = kernel_oracles.build_cost(*problem).values
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
