"""Classical suppression baselines: greedy NMS and Gaussian soft-NMS.

Both are deterministic: candidates are processed in descending score order
with ties broken by lower proposal id, and outputs preserve the input order.
Memory is O(M): each visited proposal computes one IoU row against the
remaining candidates, and no M x M overlap matrix is ever formed.
"""

from __future__ import annotations

import numpy as np

from ._checks import check_real
from .geometry import iou_matrix
from .proposals import ProposalSet


def _processing_order(pset: ProposalSet) -> np.ndarray:
    return np.lexsort((pset.proposals.ids, -pset.proposals.scores))


def greedy_nms(pset: ProposalSet, iou_thresh: float) -> ProposalSet:
    """Keep proposals greedily by score, suppressing overlaps above the threshold.

    A candidate is suppressed when its IoU with any already-kept proposal is
    strictly greater than ``iou_thresh``.
    """
    if not (0.0 < iou_thresh < 1.0):
        raise ValueError("iou_thresh must lie strictly between 0 and 1")
    if len(pset) == 0:
        return pset
    boxes = pset.proposals.boxes
    suppressed = np.zeros(len(pset), dtype=bool)
    kept = np.zeros(len(pset), dtype=bool)
    for i in _processing_order(pset):
        if suppressed[i]:
            continue
        kept[i] = True
        # only kept boxes suppress; a box never outlives its own row update
        # because it is marked kept first
        suppressed |= iou_matrix(boxes[i : i + 1], boxes)[0] > iou_thresh
    return pset.take(np.flatnonzero(kept))


def soft_nms(pset: ProposalSet, sigma: float, score_floor: float) -> ProposalSet:
    """Gaussian score-decay suppression.

    Proposals are visited in descending original-score order; each visit keeps
    the current proposal and decays every later candidate by
    exp(-iou^2 / sigma) against it, discarding candidates whose decayed score
    drops below ``score_floor``.
    """
    sigma = check_real("sigma", sigma, 0.0, strict=True)
    score_floor = check_real("score_floor", score_floor)
    if len(pset) == 0:
        return pset
    boxes = pset.proposals.boxes
    scores = pset.proposals.scores.copy()
    order = _processing_order(pset)
    # a proposal leaves ``alive`` only before its visit, so it ends as the kept set
    alive = np.ones(len(pset), dtype=bool)
    for pos, i in enumerate(order):
        if not alive[i]:
            continue
        later = order[pos + 1 :]
        later = later[alive[later]]
        row = iou_matrix(boxes[i : i + 1], boxes[later])[0]
        scores[later] *= np.exp(-(row**2) / sigma)
        alive[later] = ~(scores[later] < score_floor)
    return pset.take(np.flatnonzero(alive), scores[alive])
