"""Latent region initialization: seeded k-means and adaptive estimation of K.

Proposals are clustered jointly on [normalized box center ; feature] so that
the spatial and feature terms of the assignment cost both see O(1) inputs;
centers are normalized by the image diagonal.

Each Lloyd assignment ranks the centroids by one matrix product
``|x|**2 - 2 x.c + |c|**2`` and rechecks with the (M, K, D) broadcast the
rows that the product's rounding cannot decide, so its labels are the
broadcast's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import check_int
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
    rows one after another in index order.  One weighted ``np.bincount`` over
    the flattened bins ``label * D + column`` does the same: it starts every
    bin from ``+0.0`` and adds the C-order entries of ``pts`` in turn, so each
    bin receives its cluster's entries of that column in index order.  A
    single column sums pairwise instead, so that case takes each cluster's
    sum with the same reduction.
    """
    K, D = centroids.shape
    counts = np.bincount(labels, minlength=K)
    if D == 1:
        sums = np.zeros(centroids.shape)
        for k in np.flatnonzero(counts):
            sums[k] = pts[labels == k].sum(axis=0)
    else:
        bins = (labels[:, None] * D + np.arange(D)).ravel()
        sums = np.bincount(bins, weights=pts.ravel(), minlength=K * D).reshape(K, D)
    means = centroids.copy()
    np.divide(sums, counts[:, None], out=means, where=counts[:, None] > 0)
    return means, counts


def kmeans(
    points: Sequence[Sequence[float]] | np.ndarray,
    K: int,
    seed: int,
) -> KMeansResult:
    """Lloyd's algorithm with seeded farthest-point initialization.

    The first centroid is a seeded random point; each further centroid is the
    point farthest from its nearest chosen centroid.  Empty clusters are
    re-seeded to the point currently farthest from its own centroid.  The
    ``wcss`` trace records the within-cluster sum of squares after every
    assignment step; it is non-increasing only up to the rounding of the
    member means (``kmeans([[-0.1]] * 3, 1, 0).wcss`` is ``(0.0, 5.78e-34)``
    to three digits).  The updates stop at the first assignment that equals
    an earlier one, which they keep: a fixed point, or a cycle that the
    rounded means, ties or re-seeding can close.  At most
    ``DEFAULT_MAX_ITERS`` update steps run.
    """
    # C order fixes the order in which each distance sums its coordinates
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    n = pts.shape[0]
    K = check_int("K", K, 1)
    if K > n:
        raise ValueError(f"insufficient points: K={K} > {n}")

    # Every centroid lies in the points' bounding box, so no squared distance below
    # exceeds its squared diagonal, nor a wcss n times that (|x|**2 may overflow).
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf: the seeding warns as before
        span = pts.max(axis=0) - pts.min(axis=0)
        if n * (span**2).sum() > np.finfo(np.float64).max / 2:
            raise ValueError(f"points too far apart: a sum of {n} squared distances up to the "
                             f"bounding-box diagonal {np.hypot.reduce(span):.6g} could overflow")

    rng = SplitMix64(seed)
    centroids = np.empty((K, pts.shape[1]), dtype=np.float64)
    centroids[0] = pts[rng.randint(n)]
    nearest = ((pts - centroids[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        centroids[k] = pts[int(np.argmax(nearest))]
        nearest = np.minimum(nearest, ((pts - centroids[k]) ** 2).sum(axis=1))

    # Every centroid lies in the ball of radius R = max|x| about 0 that holds
    # the points, and an inner product errs by at most gamma_D |x| |c| in any
    # order (Higham 3.1), so with u = eps / 2 an entry of d2 below errs by at
    # most (4 D + 7) u R**2 and the broadcast's by 4 (D + 2) u R**2: entries
    # more than ``tol`` apart compare alike in both.  ``tiny`` covers underflow.
    with np.errstate(over="ignore"):
        sq = (pts * pts).sum(axis=1)
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    tol = 8 * (pts.shape[1] + 3) * eps * (sq.max() + tiny)

    def assign(cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = pts @ (-2.0 * cents.T)
            d2 += sq[:, None]
            d2 += (cents * cents).sum(axis=1)
            labels = d2.argmin(axis=1)
            near = d2 <= (d2[np.arange(n), labels] + tol)[:, None]
        # Rows where a rival lies within tol of the best, or where an entry is
        # not finite, take their argmin from the broadcast.
        redo = np.flatnonzero((np.count_nonzero(near, axis=1) != 1) | ~np.isfinite(d2).all(axis=1))
        if redo.size:
            labels[redo] = ((pts[redo, None] - cents[None]) ** 2).sum(axis=2).argmin(axis=1)
        return labels, ((pts - cents[labels]) ** 2).sum(axis=1)

    labels, own_d2 = assign(centroids)
    wcss = [float(own_d2.sum())]
    key = labels.tobytes()
    seen = {key}
    settled = False
    for _ in range(DEFAULT_MAX_ITERS):
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
        left = key
        labels, own_d2 = assign(centroids)
        wcss.append(float(own_d2.sum()))
        key = labels.tobytes()
        if key in seen:
            # Back on the assignment it just left with no cluster re-seeded,
            # the centroids are already that assignment's member means.
            settled = key == left and not reseeded
            break
        seen.add(key)

    # Make every centroid the mean of its assigned points even when the
    # iteration budget ran out mid-update or the updates closed a cycle.
    if not settled:
        centroids, _ = _member_means(pts, labels, centroids)
    return KMeansResult(centroids=centroids, assignment=labels, wcss=tuple(wcss))


def init_centroids(pset: ProposalSet, K: int, seed: int) -> Centroids:
    """Cluster proposals on [center / diag ; feature] and split the result."""
    diag = pset.image_diag
    centers = box_centers(pset.proposals.boxes) / diag
    joint = np.hstack([centers, pset.proposals.features])
    result = kmeans(joint, K, seed)
    nu = result.centroids[:, :2] * diag
    mu = result.centroids[:, 2:]
    return Centroids(feature_centroids=mu, spatial_centroids=nu)


def estimate_k(pset: ProposalSet) -> int:
    """Estimate the latent region count as the greedy-NMS survivor count.

    Survivors of greedy suppression at ``DEFAULT_IOU_THRESH`` over proposals
    scoring at least ``DEFAULT_SCORE_FLOOR``, clamped to
    [1, min(M, DEFAULT_K_MAX)].  This is a heuristic stand-in for a
    model-based estimate; it is cheap and grows with scene complexity.
    """
    if len(pset) == 0:
        raise ValueError("no proposals")
    eligible = np.flatnonzero(pset.proposals.scores >= DEFAULT_SCORE_FLOOR)
    survivors = len(greedy_nms(pset.take(eligible), DEFAULT_IOU_THRESH))
    return max(1, min(survivors, min(len(pset), DEFAULT_K_MAX)))
