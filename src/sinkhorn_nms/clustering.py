"""Latent region initialization: seeded k-means and adaptive estimation of K.

Proposals are clustered jointly on [normalized box center ; feature] so that
the spatial and feature terms of the assignment cost both see O(1) inputs;
centers are normalized by the image diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .baselines import greedy_nms
from .geometry import box_centers
from .proposals import ProposalSet
from .rng import SplitMix64

DEFAULT_IOU_THRESH = 0.5
DEFAULT_SCORE_FLOOR = 0.05
DEFAULT_K_MAX = 32
DEFAULT_MAX_ITERS = 100


@dataclass(frozen=True, eq=False)
class Centroids:
    """Per-region feature centroids (K, F) and spatial centroids (K, 2)."""

    feature_centroids: np.ndarray
    spatial_centroids: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.feature_centroids, dtype=np.float64)
        nu = np.asarray(self.spatial_centroids, dtype=np.float64)
        if mu.ndim != 2 or nu.ndim != 2 or nu.shape[1] != 2 or mu.shape[0] != nu.shape[0]:
            raise ValueError("inconsistent centroid shapes")
        if mu.shape[0] < 1:
            raise ValueError("need at least one centroid")
        if not (np.isfinite(mu).all() and np.isfinite(nu).all()):
            raise ValueError("centroids must be finite")
        object.__setattr__(self, "feature_centroids", mu)
        object.__setattr__(self, "spatial_centroids", nu)


@dataclass(frozen=True)
class AdaptiveKParams:
    """Arguments of ``estimate_k``, checked once for every caller."""

    iou_thresh: float = DEFAULT_IOU_THRESH
    score_floor: float = DEFAULT_SCORE_FLOOR
    k_max: int = DEFAULT_K_MAX

    def __post_init__(self):
        if not math.isfinite(self.score_floor):
            raise ValueError(f"score_floor must be finite, got {self.score_floor!r}")
        if not 0.0 < self.iou_thresh < 1.0:  # NaN fails this too
            raise ValueError("iou_thresh must lie strictly between 0 and 1")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")


@dataclass(frozen=True, eq=False)
class KMeansResult:
    centroids: np.ndarray
    assignment: np.ndarray
    wcss: tuple[float, ...]


def _member_means(
    pts: np.ndarray, labels: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each cluster's member mean, or its centroid when it has no members.

    The means equal ``pts[labels == k].mean(axis=0)`` bit for bit: numpy's
    axis-0 sum of several columns starts from ``+0.0`` and adds the member
    rows one after another in index order, as ``np.add.at`` into zeros does.
    A single column sums pairwise instead, so that case takes each cluster's
    sum with the same reduction.
    """
    K = centroids.shape[0]
    counts = np.bincount(labels, minlength=K)
    sums = np.zeros(centroids.shape)
    if pts.shape[1] == 1:
        for k in np.flatnonzero(counts):
            sums[k] = pts[labels == k].sum(axis=0)
    else:
        np.add.at(sums, labels, pts)
    means = centroids.copy()
    filled = counts > 0
    means[filled] = sums[filled] / counts[filled, None]
    return means, counts


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
    assignment step and is non-increasing by construction.
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
    for _ in range(max_iters):
        new_centroids, counts = _member_means(pts, labels, centroids)
        # Re-seed empty clusters to the point farthest from its own centroid,
        # excluding points already consumed by this round of re-seeding.
        reseeded: list[int] = []
        for k in np.flatnonzero(counts == 0):
            candidates = own_d2.copy()
            candidates[reseeded] = -np.inf
            far = int(np.argmax(candidates))
            new_centroids[k] = pts[far]
            reseeded.append(far)
        centroids = new_centroids
        new_labels, own_d2 = assign(centroids)
        wcss.append(float(own_d2.sum()))
        if (new_labels == labels).all():
            labels = new_labels
            break
        labels = new_labels

    # Make every centroid the mean of its assigned points even when the
    # iteration budget ran out mid-update.
    centroids, _ = _member_means(pts, labels, centroids)
    return KMeansResult(centroids=centroids, assignment=labels, wcss=tuple(wcss))


def init_centroids(pset: ProposalSet, K: int, seed: int) -> Centroids:
    """Cluster proposals on [center / diag ; feature] and split the result."""
    diag = pset.image_diag
    centers = box_centers(pset.boxes()) / diag
    joint = np.hstack([centers, pset.features()])
    result = kmeans(joint, K, seed)
    nu = result.centroids[:, :2] * diag
    mu = result.centroids[:, 2:]
    return Centroids(feature_centroids=mu, spatial_centroids=nu)


def estimate_k(
    pset: ProposalSet,
    iou_thresh: float = DEFAULT_IOU_THRESH,
    score_floor: float = DEFAULT_SCORE_FLOOR,
    k_max: int = DEFAULT_K_MAX,
) -> int:
    """Estimate the latent region count as the greedy-NMS survivor count.

    Survivors of greedy suppression at ``iou_thresh`` over proposals scoring
    at least ``score_floor``, clamped to [1, min(M, k_max)].  This is a
    heuristic stand-in for a model-based estimate; it is cheap and grows
    with scene complexity.  The arguments are checked by ``AdaptiveKParams``.
    """
    AdaptiveKParams(iou_thresh, score_floor, k_max)
    if len(pset) == 0:
        raise ValueError("no proposals")
    eligible = np.flatnonzero(pset.scores() >= score_floor)
    if eligible.size:
        survivors = len(greedy_nms(pset.take(eligible), iou_thresh))
    else:
        survivors = 0
    return max(1, min(survivors, min(len(pset), k_max)))
