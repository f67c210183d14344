"""End-to-end differentiable suppression pipeline and baseline comparison.

The pipeline clusters proposals into K latent regions, builds the assignment
cost matrix, solves for the soft assignment with uniform marginals,
aggregates the proposals of all regions with one matrix product of the
normalized assignment weights (one more for masks) into one ``RefinedSet``
of columns, whose rows are read as ``RefinedProposal`` values, and refines
per-region probabilities under the entropy constraint, scoring box overlap
with the ground truth if given and the aggregated scores otherwise.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from ._checks import check_int
from .baselines import greedy_nms, soft_nms
from .clustering import DEFAULT_IOU_THRESH, DEFAULT_SCORE_FLOOR, estimate_k, init_centroids
from .cost import CostWeights, build_cost, kappa
from .geometry import Box, Mask, quality_scores
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


@dataclass(frozen=True, eq=False)
class RefinedSet(Sequence):
    """The K refined regions as columns: ``boxes`` (K, 4), ``scores`` (K,),
    ``features`` (K, F), a mask or ``None`` each and ``source_weights`` (K, M).
    Indexing builds a new ``RefinedProposal`` from row k, so rows are built only
    when read.  ``probabilities`` is ``None`` until the refinement sets it."""

    boxes: np.ndarray
    scores: np.ndarray
    features: np.ndarray
    masks: tuple[Mask | None, ...]
    source_weights: np.ndarray
    probabilities: np.ndarray | None = None

    def __len__(self) -> int:
        return self.scores.shape[0]

    def __getitem__(self, k):
        if isinstance(k, slice):  # a list of rows
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]
        return RefinedProposal(
            box=Box(*self.boxes[k].tolist()),
            score=float(self.scores[k]),
            feature=self.features[k],
            mask=self.masks[k],
            source_weights=self.source_weights[k],
            probability=None if self.probabilities is None else float(self.probabilities[k]),
        )


@dataclass(frozen=True)
class PipelineConfig:
    """Operating point for the full pipeline; ``k=None`` selects adaptive K."""

    sinkhorn: SinkhornParams = field(default_factory=SinkhornParams)
    weights: CostWeights = field(default_factory=CostWeights)
    refine: RefineParams = field(default_factory=RefineParams)
    k: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.k is not None:
            object.__setattr__(self, "k", check_int("k", self.k, 1))
        object.__setattr__(self, "seed", check_int("seed", self.seed))


@dataclass(frozen=True, eq=False)
class PipelineDiagnostics:
    k: int
    kappa: float
    rate_bound: float
    marginal_violations: tuple[float, ...]
    sinkhorn_iterations: int
    converged: bool
    # last violation over the one before it; None with fewer than two or a 0
    observed_rate: float | None
    log_domain: bool
    fw_iterations: int
    fw_objective: tuple[float, ...]


@dataclass(frozen=True)
class MethodMetrics:
    mean_quality: float
    count: int
    wall_clock_s: float


def _combine(values: np.ndarray, W: np.ndarray, lo, hi) -> np.ndarray:
    """Each row of ``W`` as convex weights over the rows of ``values``, clipped to ``[lo, hi]``.

    One matrix product gives both ``W @ values`` and ``W @ |values|``.  Each
    row is taken relative to its heaviest contributor, ``base``, and a
    difference ``W @ values - W.sum(1) * base`` within the product's own
    rounding bound ``(M + 2) * eps * (W @ |values|)`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, section 3.1) is dropped, so a row
    whose weight sits on coincident values gets that value exactly.  The clip
    enforces the convex envelope against rounding.
    """
    M, D = values.shape
    prod = W @ np.hstack((values, np.abs(values)))
    base = values[np.argmax(W, axis=1)]
    delta = prod[:, :D] - W.sum(axis=1)[:, None] * base
    delta[np.abs(delta) <= (M + 2) * np.finfo(np.float64).eps * prod[:, D:]] = 0.0
    return np.clip(base + delta, lo, hi)


def aggregate(S: SoftAssignment | np.ndarray, pset: ProposalSet) -> RefinedSet:
    """Collapse proposals into one refined proposal per latent region.

    Column k of the assignment is renormalized to sum to one and used as
    convex-combination weights for boxes, scores, features, and masks: one
    :func:`_combine` product for the boxes, scores and features side by side,
    clipped to their column envelope, and one for the masks.  Proposals
    without masks contribute nothing to the mask average; if no contributor
    has a mask the refined mask is absent.  A bad refined box raises ``Box``'s error.
    """
    Sm = coupling_values(S)
    M, K = Sm.shape
    if M != len(pset):
        raise ValueError(f"assignment has {M} rows but the set has {len(pset)} proposals")
    mask_list = pset.proposals.masks or ()
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
    W = St / totals[:, None]
    if K == 0:  # covers M = 0, where _combine's argmax has no row to pick
        return RefinedSet(np.empty((0, 4)), np.empty(0), np.empty((0, pset.feature_dim)), (), W)
    fields = np.hstack((pset.proposals.boxes, pset.proposals.scores[:, None], pset.proposals.features))
    out = _combine(fields, W, fields.min(axis=0), fields.max(axis=0))
    masks: list[Mask | None] = [None] * K
    if carriers:
        sub = W[:, carriers]
        sub_totals = sub.sum(axis=1)
        rows = np.flatnonzero(sub_totals > 0.0)
        stack = np.stack(grids).reshape(len(grids), -1)
        values = _combine(stack, sub[rows] / sub_totals[rows, None], 0.0, 1.0)
        for k, v in zip(rows, values):
            masks[k] = Mask(v.reshape(grids[0].shape))
    bad = ~(np.isfinite(out[:, :4]).all(axis=1) & (out[:, :2] <= out[:, 2:4]).all(axis=1))
    if bad.any():
        Box(*out[np.argmax(bad), :4].tolist())  # raises Box's error for the first bad row
    return RefinedSet(out[:, :4], out[:, 4], out[:, 5:], tuple(masks), W)


def dnms(
    pset: ProposalSet, gt: GroundTruth | None, cfg: PipelineConfig
) -> tuple[RefinedSet, PipelineDiagnostics]:
    """Differentiable suppression: cluster, assign softly, aggregate, refine.

    Returns the K refined proposals as a :class:`RefinedSet` with their
    probabilities, and the run diagnostics (cost diameter, rate bound, solver
    trace with its convergence and observed rate, refinement trace).  The entropy
    threshold is capped at ln(K), the largest value feasible for a K-point simplex.
    """
    M = len(pset)
    if M == 0:
        raise ValueError("no proposals")
    K = min(cfg.k, M) if cfg.k is not None else estimate_k(pset)
    cents = init_centroids(pset, K, cfg.seed)
    C = build_cost(pset, cents, cfg.weights)
    S = solve(C, cfg.sinkhorn, Marginals.uniform(M, K))
    refined = aggregate(S, pset)
    # q contiguous: a strided q dots in another summation order in the refinement
    q = refined.scores.copy() if gt is None else quality_scores(refined.boxes, gt.boxes)
    fw = frank_wolfe(q, replace(cfg.refine, tau_H=min(cfg.refine.tau_H, math.log(K))))
    refined = replace(refined, probabilities=fw.p.p)
    v = S.violations
    diag = PipelineDiagnostics(
        k=K,
        kappa=kappa(C),
        rate_bound=contraction_rate(C, cfg.sinkhorn.tau),
        marginal_violations=v,
        sinkhorn_iterations=S.iterations,
        converged=S.converged,
        observed_rate=v[-1] / v[-2] if len(v) >= 2 and v[-2] != 0 else None,
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
        boxes = kept.proposals.boxes if isinstance(kept, ProposalSet) else kept.boxes
        out[name] = MethodMetrics(
            mean_quality=float(np.mean(quality_scores(boxes, gt.boxes))),
            count=len(kept),
            wall_clock_s=elapsed,
        )
    return out
