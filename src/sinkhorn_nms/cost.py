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
import math
from dataclasses import dataclass

import numpy as np

from .clustering import Centroids
from .geometry import Box, box_centers
from .proposals import ProposalSet

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CostWeights:
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValueError("cost weights must be nonnegative")
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
    if image_diag <= 0:
        raise ValueError("image_diag must be positive")
    cx, cy = box.center
    return math.hypot(cx - nu[0], cy - nu[1]) / image_diag


def build_cost(pset: ProposalSet, cents: Centroids, w: CostWeights) -> CostMatrix:
    """Assemble the (M, K) cost matrix from scores, features, and centers."""
    feats = pset.features()
    if feats.shape[1] != cents.feature_centroids.shape[1]:
        raise ValueError(
            f"feature dimension mismatch: proposals {feats.shape[1]} vs "
            f"centroids {cents.feature_centroids.shape[1]}"
        )
    scores = pset.scores()
    centers = box_centers(pset.boxes())

    nf = np.linalg.norm(feats, axis=1)
    nmu = np.linalg.norm(cents.feature_centroids, axis=1)
    dots = feats @ cents.feature_centroids.T
    denom = np.outer(nf, nmu)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_feat = np.where(denom > 0.0, 1.0 - dots / np.where(denom > 0, denom, 1.0), 1.0)
    if (denom == 0.0).any():
        logger.warning("build_cost: zero feature vector(s), using neutral distance 1.0")

    diffs = centers[:, None, :] - cents.spatial_centroids[None, :, :]
    d_spatial = np.sqrt((diffs**2).sum(axis=2)) / pset.image_diag

    values = w.alpha * (1.0 - scores)[:, None] + w.beta * d_feat + w.gamma * d_spatial
    return CostMatrix(values)


def kappa(C: CostMatrix | np.ndarray) -> float:
    """Exact maximum absolute second difference over all index quadruples.

    Computed exhaustively by reducing over column pairs: for columns (j, l)
    the quadruple difference equals (C[i,j]-C[i,l]) - (C[k,j]-C[k,l]), whose
    maximum over rows is the spread of the column-difference vector.
    """
    V = np.ascontiguousarray(cost_values(C).T)
    best = 0.0
    for j in range(V.shape[0] - 1):
        d = V[j + 1 :] - V[j]
        best = max(best, float((d.max(axis=1) - d.min(axis=1)).max()))
    return best
