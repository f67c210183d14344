"""End-to-end differentiable suppression pipeline and baseline comparison.

The pipeline clusters proposals into K latent regions, builds the assignment
cost matrix, solves for the soft assignment with uniform marginals,
aggregates the proposals of all regions in one contraction with the
normalized assignment weights (masks one region at a time), and refines
per-region probabilities under the entropy constraint.  With ground truth
present the refinement objective uses box-overlap quality scores; at
inference the aggregated scores stand in for them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import greedy_nms, soft_nms  # noqa: F401  (re-exported surface)
from .clustering import DEFAULT_IOU_THRESH, DEFAULT_SCORE_FLOOR, estimate_k, init_centroids
from .cost import CostWeights, build_cost, kappa
from .geometry import Box, Mask, box_array, quality_scores
from .proposals import GroundTruth, ProposalSet
from .refine import RefineParams, frank_wolfe
from .sinkhorn import (
    Marginals,
    SinkhornParams,
    SoftAssignment,
    contraction_rate,
    coupling_values,
    solve,
)

DEFAULT_SOFT_NMS_SIGMA = 0.5


@dataclass(frozen=True, eq=False)
class RefinedProposal:
    """Aggregate of the proposals softly assigned to one latent region."""

    box: Box
    score: float
    feature: np.ndarray
    mask: Mask | None
    source_weights: np.ndarray
    probability: float | None = None


@dataclass(frozen=True)
class PipelineConfig:
    """Operating point for the full pipeline; ``k=None`` selects adaptive K."""

    sinkhorn: SinkhornParams = field(default_factory=SinkhornParams)
    weights: CostWeights = field(default_factory=CostWeights)
    refine: RefineParams = field(default_factory=RefineParams)
    k: int | None = None
    seed: int = 0


@dataclass(frozen=True, eq=False)
class PipelineDiagnostics:
    k: int
    kappa: float
    rate_bound: float
    marginal_violations: tuple[float, ...]
    sinkhorn_iterations: int
    log_domain: bool
    fw_iterations: int
    fw_objective: tuple[float, ...]


@dataclass(frozen=True)
class MethodMetrics:
    mean_quality: float
    count: int
    wall_clock_s: float


def _combine(values: np.ndarray, W: np.ndarray, lo, hi) -> np.ndarray:
    """Each row of ``W`` as convex weights over ``values``, clipped to ``[lo, hi]``.

    Each row is centred on its heaviest contributor, which keeps the
    combination bit-exact when all contributors coincide; the clip enforces
    the convex envelope against rounding.
    """
    base = values[np.argmax(W, axis=1)]
    diff = values[None] - base[:, None]
    diff *= W.reshape(W.shape + (1,) * (values.ndim - 1))
    return np.clip(base + diff.sum(axis=1), lo, hi)


def aggregate(S: SoftAssignment | np.ndarray, pset: ProposalSet) -> list[RefinedProposal]:
    """Collapse proposals into one refined proposal per latent region.

    Column k of the assignment is renormalized to sum to one and used as
    convex-combination weights for boxes, scores, features, and masks.
    Proposals without masks contribute nothing to the mask average; if no
    contributor has a mask the refined mask is absent.
    """
    Sm = coupling_values(S)
    M, K = Sm.shape
    if M != len(pset):
        raise ValueError(f"assignment has {M} rows but the set has {len(pset)} proposals")
    boxes = pset.boxes()
    scores = pset.scores()[:, None]
    feats = pset.features()
    mask_list = pset.arrays.masks or ()
    carriers = [i for i, m in enumerate(mask_list) if m is not None]
    grids = [mask_list[i].values for i in carriers]
    if len({g.shape for g in grids}) > 1:
        raise ValueError("masks must share a common grid to be aggregated")
    # Contiguous rows make each total sum in the same order as the column alone.
    St = np.ascontiguousarray(Sm.T)
    totals = St.sum(axis=1)
    empty = np.flatnonzero(totals <= 0.0)
    if empty.size:
        raise ValueError(f"empty latent region: column {empty[0]} has no mass")
    if K == 0:
        return []
    W = St / totals[:, None]
    # The envelope is repeated per row: np.clip resolves a tie between +0.0
    # and -0.0 differently when one bound value spans its whole inner loop.
    box_vals, score_vals, feat_vals = (
        _combine(v, W, np.tile(v.min(axis=0), (K, 1)), np.tile(v.max(axis=0), (K, 1)))
        for v in (boxes, scores, feats)
    )
    # Masks go one column at a time: a (K, M, H, W) stack has no size bound.
    masks: list[Mask | None] = [None] * K
    if carriers:
        stack = np.stack(grids)
        for k in range(K):
            sub = W[k, carriers]
            total = sub.sum()
            if total <= 0.0:
                continue
            masks[k] = Mask(_combine(stack, (sub / total)[None], 0.0, 1.0)[0])
    return [
        RefinedProposal(box=Box(*b), score=float(s), feature=f, mask=m, source_weights=w)
        for b, s, f, m, w in zip(box_vals, score_vals[:, 0], feat_vals, masks, W)
    ]


def dnms(
    pset: ProposalSet, gt: GroundTruth | None, cfg: PipelineConfig
) -> tuple[list[RefinedProposal], PipelineDiagnostics]:
    """Differentiable suppression: cluster, assign softly, aggregate, refine.

    Returns K refined proposals and the run diagnostics (cost diameter, rate
    bound, solver trace, refinement trace).  The entropy threshold is capped
    at ln(K), the largest value feasible for a K-point simplex.
    """
    M = len(pset)
    if M == 0:
        raise ValueError("no proposals")
    if cfg.k is not None:
        if cfg.k < 1:
            raise ValueError("k must be >= 1")
        K = min(cfg.k, M)
    else:
        K = estimate_k(pset)
    cents = init_centroids(pset, K, cfg.seed)
    C = build_cost(pset, cents, cfg.weights)
    marg = Marginals.uniform(M, K)
    S = solve(C, cfg.sinkhorn, marg)
    refined = aggregate(S, pset)
    if gt is not None:
        q = quality_scores(box_array([r.box for r in refined]), gt.boxes)
    else:
        q = np.array([r.score for r in refined])
    fw_params = replace(cfg.refine, tau_H=min(cfg.refine.tau_H, math.log(K)))
    fw = frank_wolfe(q, fw_params)
    refined = [
        replace(r, probability=float(fw.p.p[k])) for k, r in enumerate(refined)
    ]
    diag = PipelineDiagnostics(
        k=K,
        kappa=kappa(C),
        rate_bound=contraction_rate(C, cfg.sinkhorn.tau),
        marginal_violations=S.violations,
        sinkhorn_iterations=S.iterations,
        log_domain=S.log_domain,
        fw_iterations=fw.iterations,
        fw_objective=fw.objective_trace,
    )
    return refined, diag


def compare(
    pset: ProposalSet, gt: GroundTruth, cfg: PipelineConfig
) -> dict[str, MethodMetrics]:
    """Run the pipeline and both baselines, reporting quality, count, and time."""
    if gt is None or len(gt.boxes) == 0:
        raise ValueError("compare requires non-empty ground truth")

    methods = {
        "dnms": lambda: dnms(pset, gt, cfg)[0],
        "greedy_nms": lambda: greedy_nms(pset, DEFAULT_IOU_THRESH),
        "soft_nms": lambda: soft_nms(pset, DEFAULT_SOFT_NMS_SIGMA, DEFAULT_SCORE_FLOOR),
    }
    out: dict[str, MethodMetrics] = {}
    for name, method in methods.items():
        start = time.perf_counter()
        kept = method()
        elapsed = time.perf_counter() - start
        if isinstance(kept, ProposalSet):
            boxes = kept.boxes()
        else:
            boxes = box_array([r.box for r in kept])
        out[name] = MethodMetrics(
            mean_quality=float(np.mean(quality_scores(boxes, gt.boxes))),
            count=len(kept),
            wall_clock_s=elapsed,
        )
    return out
