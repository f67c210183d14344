from unittest.mock import patch

import numpy as np
import pytest

from sinkhorn_nms import (
    Centroids,
    SynthConfig,
    clustering,
    estimate_k,
    init_centroids,
    kmeans,
    synth_generate,
)
from sinkhorn_nms.rng import SplitMix64


class TestKMeans:
    def test_two_separated_pairs(self):
        pts = [(0.0, 0.0), (0.0, 0.1), (10.0, 10.0), (10.0, 10.1)]
        result = kmeans(pts, K=2, seed=0)
        got = sorted(map(tuple, np.round(result.centroids, 6).tolist()))
        assert got == [(0.0, 0.05), (10.0, 10.05)]

    def test_k_equals_n(self):
        pts = np.array([[0.0, 0.0], [1.0, 5.0], [7.0, 2.0]])
        result = kmeans(pts, K=3, seed=1)
        assert sorted(map(tuple, result.centroids.tolist())) == sorted(
            map(tuple, pts.tolist())
        )

    def test_points_not_2d_raise(self):
        with pytest.raises(ValueError, match="^points must be a 2-d array$"):
            kmeans(np.zeros(4), K=1, seed=0)

    def test_k_larger_than_n_raises(self):
        with pytest.raises(ValueError, match="insufficient points"):
            kmeans([(0.0, 0.0)], K=2, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(30, 3))
        r1 = kmeans(pts, K=4, seed=9)
        r2 = kmeans(pts, K=4, seed=9)
        assert np.array_equal(r1.centroids, r2.centroids)
        assert np.array_equal(r1.assignment, r2.assignment)
        assert r1.wcss == r2.wcss

    def test_independent_of_memory_layout(self):
        # a Fortran-ordered or strided copy of the points clusters bit for bit
        # as the C-ordered one: each squared distance sums its 12 coordinates
        # in one order
        rng = np.random.default_rng(3)
        for seed in range(20):
            pts = rng.normal(size=(60, 12)) * 10.0 ** rng.integers(-3, 3, size=(60, 12))
            want = kmeans(pts, 5, seed)
            for other in (np.asfortranarray(pts), np.repeat(pts, 2, axis=1)[:, ::2]):
                got = kmeans(other, 5, seed)
                assert got.centroids.tobytes() == want.centroids.tobytes()
                assert np.array_equal(got.assignment, want.assignment)
                assert got.wcss == want.wcss

    def test_wcss_trace_non_increasing(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            pts = rng.normal(size=(40, 3))
            result = kmeans(pts, K=5, seed=trial)
            trace = np.array(result.wcss)
            assert (trace[1:] <= trace[:-1] + 1e-9).all()

    def test_centroids_are_cluster_means(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(25, 2))
        result = kmeans(pts, K=3, seed=2)
        for k in range(3):
            members = pts[result.assignment == k]
            if len(members):
                assert np.allclose(result.centroids[k], members.mean(axis=0))

    def test_beats_worst_of_random_restarts(self):
        # independent oracle: plain Lloyd from random initial subsets
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(50, 4))

        def lloyd_random_init(seed):
            r = np.random.default_rng(seed)
            cents = pts[r.choice(50, size=3, replace=False)].copy()
            for _ in range(200):
                d2 = ((pts[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
                labels = d2.argmin(axis=1)
                new = cents.copy()
                for k in range(3):
                    if (labels == k).any():
                        new[k] = pts[labels == k].mean(axis=0)
                if np.allclose(new, cents):
                    break
                cents = new
            d2 = ((pts[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            return d2.min(axis=1).sum()

        worst = max(lloyd_random_init(s) for s in range(100))
        result = kmeans(pts, K=3, seed=0)
        assert result.wcss[-1] <= worst + 1e-9


@pytest.mark.parametrize("mu, nu, message", [
    (np.zeros((2, 3)), np.zeros((3, 2)), "inconsistent centroid shapes"),
    (np.zeros((2, 3)), np.zeros((2, 3)), "inconsistent centroid shapes"),
    (np.zeros((0, 3)), np.zeros((0, 2)), "need at least one centroid"),
    (np.array([[np.nan]]), np.zeros((1, 2)), "centroids must be finite"),
    (np.zeros((1, 1)), np.array([[0.0, np.inf]]), "centroids must be finite"),
])
def test_centroids_rejected(mu, nu, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Centroids(mu, nu)


class TestInitCentroids:
    def test_recovers_zero_jitter_centers(self):
        pset, gt = synth_generate(
            SynthConfig(num_regions=3, proposals_per_region=5, jitter=0.0, score_noise=0.0, seed=21)
        )
        cents = init_centroids(pset, K=3, seed=0)
        want = sorted((b.center for b in gt.boxes))
        got = sorted(map(tuple, cents.spatial_centroids.tolist()))
        for (wx, wy), (gx, gy) in zip(want, got):
            assert abs(wx - gx) <= 1e-6
            assert abs(wy - gy) <= 1e-6

    def test_single_cluster_is_global_mean(self):
        pset, _ = synth_generate(
            SynthConfig(num_regions=2, proposals_per_region=4, jitter=2.0, seed=4)
        )
        cents = init_centroids(pset, K=1, seed=0)
        centers = np.array([p.box.center for p in pset])
        assert np.allclose(cents.spatial_centroids[0], centers.mean(axis=0), atol=1e-9)
        assert np.allclose(
            cents.feature_centroids[0], pset.proposals.features.mean(axis=0), atol=1e-9
        )

    def test_k_equals_m(self):
        pset, _ = synth_generate(
            SynthConfig(num_regions=2, proposals_per_region=2, jitter=3.0, seed=8)
        )
        cents = init_centroids(pset, K=len(pset), seed=0)
        centers = sorted(p.box.center for p in pset)
        got = sorted(map(tuple, cents.spatial_centroids.tolist()))
        for (wx, wy), (gx, gy) in zip(centers, got):
            assert abs(wx - gx) <= 1e-9
            assert abs(wy - gy) <= 1e-9


class TestEstimateK:
    def test_three_box_fixture(self, three_box_set):
        assert (clustering.DEFAULT_IOU_THRESH, clustering.DEFAULT_SCORE_FLOOR) == (0.5, 0.05)
        assert estimate_k(three_box_set) == 2

    def test_all_identical_gives_one(self):
        pset, _ = synth_generate(
            SynthConfig(num_regions=1, proposals_per_region=6, jitter=0.0, seed=2)
        )
        assert estimate_k(pset) == 1
        # also via clamping: k_max smaller than survivors
        spread, _ = synth_generate(
            SynthConfig(num_regions=5, proposals_per_region=1, jitter=0.0, seed=3)
        )
        with patch.object(clustering, "DEFAULT_K_MAX", 2):
            assert estimate_k(spread) <= 2

    def test_clamped_to_k_max(self):
        pset, _ = synth_generate(
            SynthConfig(num_regions=40, proposals_per_region=1, seed=13,
                        image_width=4000.0, image_height=4000.0)
        )
        assert clustering.DEFAULT_K_MAX == 32
        assert estimate_k(pset) == 32

    def test_empty_raises(self):
        pset, _ = synth_generate(SynthConfig(num_regions=1, proposals_per_region=1, seed=0))
        with pytest.raises(ValueError, match="no proposals"):
            estimate_k(pset.take(np.arange(0)))

    def test_floor_excludes_everything_clamps_to_one(self, three_box_set):
        with patch.object(clustering, "DEFAULT_SCORE_FLOOR", 0.99):
            assert estimate_k(three_box_set) == 1

    def test_range_invariant(self, three_box_set):
        for thresh in (0.1, 0.5, 0.9):
            with patch.object(clustering, "DEFAULT_IOU_THRESH", thresh):
                k = estimate_k(three_box_set)
            assert 1 <= k <= 3


def test_splitmix_reference_values():
    # first outputs for seed 0, frozen from an independent transcription of
    # the standard recurrence (golden-ratio increment, two xor-multiplies)
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [
        14062913342209655702,
        8609350359453760831,
        10971379974863400223,
    ]
    stream = SplitMix64(9)
    assert all(0.0 <= stream.uniform() < 1.0 for _ in range(5))
