"""Latent region initialization: seeded k-means and adaptive estimation of K.

Proposals are clustered jointly on [normalized box center ; feature] so that
the spatial and feature terms of the assignment cost both see O(1) inputs;
centers are normalized by the image diagonal.
"""

from __future__ import annotations

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

    @property
    def K(self) -> int:
        return int(self.feature_centroids.shape[0])


@dataclass(frozen=True, eq=False)
class KMeansResult:
    centroids: np.ndarray
    assignment: np.ndarray
    wcss: tuple[float, ...]


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
        if (new_labels == labels).all():
            labels = new_labels
            break
        labels = new_labels

    # Make every centroid the mean of its assigned points even when the
    # iteration budget ran out mid-update.
    for k in range(K):
        members = labels == k
        if members.any():
            centroids[k] = pts[members].mean(axis=0)
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
    with scene complexity.
    """
    if len(pset) == 0:
        raise ValueError("no proposals")
    if not (0.0 < iou_thresh < 1.0):
        raise ValueError("iou_thresh must lie strictly between 0 and 1")
    eligible = np.flatnonzero(pset.scores() >= score_floor)
    if eligible.size:
        survivors = len(greedy_nms(pset.take(eligible), iou_thresh))
    else:
        survivors = 0
    return max(1, min(survivors, min(len(pset), k_max)))
