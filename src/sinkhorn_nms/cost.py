"""Proposal-to-region assignment costs and the cost-structure diameter.

Each cost entry combines three bounded, scale-free terms:

    C[j, k] = alpha * (1 - score_j)
            + beta  * cosine_distance(feature_j, feature_centroid_k)
            + gamma * |center_j - spatial_centroid_k| / image_diag

The diameter ``kappa`` is the largest absolute second difference
|C[i,j] - C[i,l] - C[k,j] + C[k,l]| over all index quadruples; it controls
the linear convergence rate of the scaling solver.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._checks import check_real
from .clustering import Centroids
from .geometry import box_centers
from .proposals import ProposalSet

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CostWeights:
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0.0))
        if self.alpha == self.beta == self.gamma == 0.0:
            raise ValueError("cost weights must not all be zero")


@dataclass(frozen=True, eq=False)
class CostMatrix:
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError("cost matrix must be 2-d and non-empty")
        if not np.isfinite(values).all():
            raise ValueError("cost matrix entries must be finite")
        object.__setattr__(self, "values", values)


def cost_values(C: CostMatrix | np.ndarray) -> np.ndarray:
    """Accept either a CostMatrix or a raw array and return float64 values."""
    if isinstance(C, CostMatrix):
        return C.values
    return CostMatrix(np.asarray(C)).values


def build_cost(pset: ProposalSet, cents: Centroids, w: CostWeights) -> CostMatrix:
    """Assemble the (M, K) cost matrix from scores, features, and centers."""
    feats = pset.proposals.features
    if feats.shape[1] != cents.feature_centroids.shape[1]:
        raise ValueError(
            f"feature dimension mismatch: proposals {feats.shape[1]} vs "
            f"centroids {cents.feature_centroids.shape[1]}"
        )
    scores = pset.proposals.scores
    centers = box_centers(pset.proposals.boxes)

    nf = np.linalg.norm(feats, axis=1)
    nmu = np.linalg.norm(cents.feature_centroids, axis=1)
    # Each step below is an elementwise operation of the expression
    # alpha (1 - s) + beta (1 - dots / (|f| |mu|)) + gamma |c - nu| / diag,
    # in its order, so the bits are the expression's; written into three
    # (M, K) buffers, since a fresh 1 MiB temporary at 2048 x 64 costs a page
    # fault per 4 KiB.  A weight of 1.0 multiplies every entry exactly, so it
    # is skipped.
    nu = cents.spatial_centroids
    d_spatial = centers[:, :1] - nu[:, 0]
    d_spatial *= d_spatial
    buf = centers[:, 1:] - nu[:, 1]
    buf *= buf
    d_spatial += buf
    np.sqrt(d_spatial, out=d_spatial)
    d_spatial /= pset.image_diag
    if w.gamma != 1.0:
        d_spatial *= w.gamma

    d_feat = feats @ cents.feature_centroids.T
    denom = np.multiply(nf[:, None], nmu, out=buf)
    # a zero or NaN norm product takes the neutral distance 1.0
    neutral = None if denom.min(initial=np.inf) > 0.0 else ~(denom > 0.0)
    if neutral is not None:
        if (denom == 0.0).any():
            logger.warning("build_cost: zero feature vector(s), using neutral distance 1.0")
        denom[neutral] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        d_feat /= denom
    np.subtract(1.0, d_feat, out=d_feat)
    if neutral is not None:
        d_feat[neutral] = 1.0
    if w.beta != 1.0:
        d_feat *= w.beta
    d_feat += (w.alpha * (1.0 - scores))[:, None]
    d_feat += d_spatial
    return CostMatrix(d_feat)


def _widest_spread(d: np.ndarray) -> float:
    """The largest ``max - min`` over the rows of ``d``."""
    return float((d.max(axis=1) - d.min(axis=1)).max())


def _scan_rows(V: np.ndarray) -> float:
    """The widest spread of ``V[l] - V[j]`` over ``j < l``, row ``j`` by row."""
    best = 0.0
    for j in range(V.shape[0] - 1):
        best = max(best, _widest_spread(V[j + 1 :] - V[j]))
    return best


def kappa(C: CostMatrix | np.ndarray) -> float:
    """Exact maximum absolute second difference over all index quadruples.

    Reduced over column pairs: for columns (j, l) the quadruple difference
    equals (C[i,j]-C[i,l]) - (C[k,j]-C[k,l]), whose maximum over rows is the
    spread of the column-difference vector ``d = V_l - V_j``, and kappa is the
    widest spread.  A pair's spread is the same bits in either order, so the
    result is that of a plain scan over all pairs, bit for bit.

    Rounding is monotone, so the computed spread of a pair is at most its
    bound ``fl(fl(max V_l - min V_j) - fl(min V_l - max V_j))``, about the sum
    of the two column ranges.  The first round scans the widest column
    against all others.  The other pairs whose bound exceeds the best spread
    so far are then gathered in blocks of at most 256 KiB, in decreasing order
    of bound, and the scan stops at the first block whose leading bound is at
    most the best spread.  When every bound is finite, so is every
    difference and spread, and the maximum does not depend on how the pairs
    are grouped.  Otherwise a NaN spread hides the rest of the block it falls
    in, so the whole scan is the plain one, row by row.
    """
    V = np.ascontiguousarray(cost_values(C).T)
    K, M = V.shape
    if K < 2:
        return 0.0
    lo, hi = V.min(axis=1), V.max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (hi - lo[:, None]) - (lo - hi[:, None])  # [j, l] for the pair (j, l)
    if not np.isfinite(bound).all():
        return _scan_rows(V)
    w = int(np.argmax(hi - lo))
    best = max(0.0, _widest_spread(V - V[w]))
    live = np.triu(bound > best, 1)
    live[w] = live[:, w] = False
    js, ls = np.nonzero(live)
    ub = bound[js, ls]
    by = np.argsort(-ub, kind="stable")
    js, ls, ub = js[by], ls[by], ub[by]
    step = max(1, 2**15 // M)
    for s in range(0, ub.size, step):
        if ub[s] <= best:
            break
        d = V[ls[s : s + step]]
        d -= V[js[s : s + step]]
        best = max(best, _widest_spread(d))
    return best
