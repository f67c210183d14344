"""The expressions that the ``dnms`` kernels replaced, kept as bitwise oracles.

Each function below is the library code as it stood before the kernel was
rewritten into fewer numpy passes: ``kappa``'s plain scan over every column
pair, the ``np.add.at`` scatter-add of the member means, the log-sum-exp
through ``np.where`` and fresh temporaries, ``build_cost``'s one expression,
and ``dnms`` building ``aggregate``'s refined proposals and then replacing
each to attach its probability.  The kernel tests compare the library with
them bit for bit, and ``test_kernel_oracles_end_to_end`` patches them all
back in and compares whole run reports.
"""

from __future__ import annotations

import logging
import math
from dataclasses import replace

import numpy as np

from sinkhorn_nms import pipeline
from sinkhorn_nms.cost import CostMatrix, CostWeights, cost_values
from sinkhorn_nms.geometry import box_array, box_centers
from sinkhorn_nms.sinkhorn import Marginals

logger = logging.getLogger("sinkhorn_nms.cost")


def kappa(C) -> float:
    """Every column pair, scanned row by row in index order."""
    V = np.ascontiguousarray(cost_values(C).T)
    best = 0.0
    for j in range(V.shape[0] - 1):
        d = V[j + 1 :] - V[j]
        best = max(best, float((d.max(axis=1) - d.min(axis=1)).max()))
    return best


def member_means(pts, labels, centroids):
    """Member sums scatter-added into zeros with ``np.add.at``."""
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


def lse(x: np.ndarray, axis: int) -> np.ndarray:
    """log-sum-exp with the tied entries masked by ``np.where``."""
    xmax = x.max(axis=axis, keepdims=True)
    tied = x == xmax
    n = tied.sum(axis=axis, keepdims=True, dtype=np.float64)
    s = np.exp(np.where(tied, -np.inf, x) - xmax).sum(axis=axis, keepdims=True)
    return (np.log1p(s / n) + np.log(n) + xmax).squeeze(axis)


def build_cost(pset, cents, w: CostWeights) -> CostMatrix:
    """The cost as one expression, each term a fresh (M, K) array."""
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
    dots = feats @ cents.feature_centroids.T
    denom = np.outer(nf, nmu)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_feat = np.where(denom > 0.0, 1.0 - dots / np.where(denom > 0, denom, 1.0), 1.0)
    if (denom == 0.0).any():
        logger.warning("build_cost: zero feature vector(s), using neutral distance 1.0")

    nu = cents.spatial_centroids
    dx = centers[:, :1] - nu[:, 0]
    dy = centers[:, 1:] - nu[:, 1]
    d_spatial = np.sqrt(dx * dx + dy * dy) / pset.image_diag

    values = w.alpha * (1.0 - scores)[:, None] + w.beta * d_feat + w.gamma * d_spatial
    return CostMatrix(values)


def dnms(pset, gt, cfg):
    """``aggregate``'s refined proposals, each replaced to attach its probability.

    Every stage is looked up on ``pipeline`` at call time, so kernels patched
    there take effect.
    """
    M = len(pset)
    if M == 0:
        raise ValueError("no proposals")
    K = min(cfg.k, M) if cfg.k is not None else pipeline.estimate_k(pset)
    cents = pipeline.init_centroids(pset, K, cfg.seed)
    C = pipeline.build_cost(pset, cents, cfg.weights)
    S = pipeline.solve(C, cfg.sinkhorn, Marginals.uniform(M, K))
    refined = pipeline.aggregate(S, pset)
    if gt is not None:
        q = pipeline.quality_scores(box_array([r.box for r in refined]), gt.boxes)
    else:
        q = np.array([r.score for r in refined])
    fw = pipeline.frank_wolfe(q, replace(cfg.refine, tau_H=min(cfg.refine.tau_H, math.log(K))))
    refined = [replace(r, probability=float(fw.p.p[k])) for k, r in enumerate(refined)]
    v = S.violations
    diag = pipeline.PipelineDiagnostics(
        k=K,
        kappa=pipeline.kappa(C),
        rate_bound=pipeline.contraction_rate(C, cfg.sinkhorn.tau),
        marginal_violations=v,
        sinkhorn_iterations=S.iterations,
        converged=S.converged,
        observed_rate=v[-1] / v[-2] if len(v) >= 2 and v[-2] != 0 else None,
        log_domain=S.log_domain,
        fw_iterations=fw.iterations,
        fw_objective=fw.objective_trace,
    )
    return refined, diag
