"""Agreement of the single IoU kernel and the NMS baselines with their
previous implementations.

The functions below ``# reference implementations`` are the earlier scalar
IoU, the full M x M ``pairwise_iou`` and the baselines built on it, kept
verbatim as the oracle, except that the baselines read the box column as
``pset.proposals.boxes``: a 1 x 1 ``iou_matrix``, a one-row
``quality_scores`` and ``greedy_nms`` must agree exactly, ``soft_nms`` up
to the last-ulp difference between ``np.exp`` and ``math.exp``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import replace
from typing import Sequence

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sinkhorn_nms import Box, Proposal, ProposalSet, baselines, geometry

# reference implementations


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0.0 when the union has no area.

    Degenerate (zero-area) boxes are allowed and never intersect anything
    with positive measure, so two degenerate boxes give 0.0.
    """
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(0.0, iw) * max(0.0, ih)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def quality_score(p: Box, gts: Sequence[Box]) -> float:
    """Maximum IoU between ``p`` and any ground-truth box; 0.0 when none exist."""
    if not gts:
        return 0.0
    return max(iou(p, gt) for gt in gts)


def pairwise_iou(boxes: np.ndarray) -> np.ndarray:
    """Symmetric (n, n) IoU matrix for boxes given as an (n, 4) array."""
    x1, y1, x2, y2 = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    areas = (x2 - x1) * (y2 - y1)
    iw = np.minimum(x2[:, None], x2[None, :]) - np.maximum(x1[:, None], x1[None, :])
    ih = np.minimum(y2[:, None], y2[None, :]) - np.maximum(y1[:, None], y1[None, :])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    union = areas[:, None] + areas[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(union > 0.0, inter / union, 0.0)
    return out


def _processing_order(pset: ProposalSet) -> list[int]:
    return sorted(range(len(pset)), key=lambda i: (-pset.proposals[i].score, pset.proposals[i].id))


def greedy_nms(pset: ProposalSet, iou_thresh: float) -> ProposalSet:
    """Keep proposals greedily by score, suppressing overlaps above the threshold.

    A candidate is suppressed when its IoU with any already-kept proposal is
    strictly greater than ``iou_thresh``.
    """
    if not (0.0 < iou_thresh < 1.0):
        raise ValueError("iou_thresh must lie strictly between 0 and 1")
    if len(pset) == 0:
        return pset
    ious = pairwise_iou(pset.proposals.boxes)
    suppressed = np.zeros(len(pset), dtype=bool)
    kept: list[int] = []
    for i in _processing_order(pset):
        if suppressed[i]:
            continue
        kept.append(i)
        # only kept boxes suppress; a box never outlives its own row update
        # because it is appended first
        suppressed |= ious[i] > iou_thresh
    kept_set = set(kept)
    survivors = tuple(p for idx, p in enumerate(pset) if idx in kept_set)
    return replace(pset, proposals=survivors)


def soft_nms(pset: ProposalSet, sigma: float, score_floor: float) -> ProposalSet:
    """Gaussian score-decay suppression.

    Proposals are visited in descending original-score order; each visit keeps
    the current proposal and decays every later candidate by
    exp(-iou^2 / sigma) against it, discarding candidates whose decayed score
    drops below ``score_floor``.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if len(pset) == 0:
        return pset
    ious = pairwise_iou(pset.proposals.boxes)
    order = _processing_order(pset)
    scores = {i: pset.proposals[i].score for i in order}
    dropped: set[int] = set()
    kept: list[int] = []
    for pos, i in enumerate(order):
        if i in dropped:
            continue
        kept.append(i)
        for j in order[pos + 1 :]:
            if j in dropped:
                continue
            scores[j] *= math.exp(-(ious[i, j] ** 2) / sigma)
            if scores[j] < score_floor:
                dropped.add(j)
    kept_set = set(kept)
    survivors = tuple(
        replace(p, score=scores[idx]) for idx, p in enumerate(pset) if idx in kept_set
    )
    return replace(pset, proposals=survivors)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _row_bits(p: Proposal) -> tuple:
    """A proposal bit for bit: id, score, box and feature bytes, and its mask object."""
    return (p.id, _bits(p.score), p.box.as_array().tobytes(), p.feature.tobytes(), id(p.mask))


@st.composite
def box_lists(draw, min_size: int, max_size: int) -> list[Box]:
    """Boxes on one coarse grid, or at general float positions.

    On a shared grid, duplicate, touching and zero-area boxes and exact IoU
    values such as 1/2 and 1/3 are common.
    """
    if draw(st.booleans()):
        scale = draw(st.sampled_from([1.0, 0.5, 0.1, 3.7]))
        corner = st.integers(0, 4).map(lambda v: scale * v)
        side = st.integers(0, 2).map(lambda v: scale * v)
    else:
        corner = side = st.floats(0.0, 100.0)
    box = st.tuples(corner, corner, side, side).map(
        lambda t: Box(t[0], t[1], t[0] + t[2], t[1] + t[3])
    )
    return draw(st.lists(box, min_size=min_size, max_size=max_size))


@st.composite
def proposal_sets(draw, max_size: int = 40) -> ProposalSet:
    box_list = draw(box_lists(0, max_size))
    n = len(box_list)
    ids = draw(st.lists(st.integers(-(10**12), 10**12), min_size=n, max_size=n, unique=True))
    if draw(st.booleans()):
        # rounded scores create ties that only the id order breaks
        score = st.sampled_from([0.1, 0.3, 0.5, 0.5, 0.9, 1.0])
    else:
        score = st.floats(0.0, 1.0, allow_nan=False)
    proposals = tuple(
        Proposal(id=i, score=draw(score), box=b, feature=np.zeros(1))
        for i, b in zip(ids, box_list)
    )
    return ProposalSet(proposals=proposals, image_width=500.0, image_height=500.0, feature_dim=1)


class _RecordingFloor(float):
    """A score floor that records every decayed score compared against it.

    ``score < floor`` dispatches to this subclass's reflected ``__gt__``, so
    the unmodified reference reports each candidate score it tests.
    """

    def __new__(cls, value: float):
        obj = super().__new__(cls, value)
        obj.seen = []
        return obj

    def __gt__(self, other):
        self.seen.append(float(other))
        return float(self) > other


class TestIoUAgreement:
    @given(box_lists(2, 2))
    @settings(max_examples=400, deadline=None)
    def test_iou_bitwise(self, pair):
        a, b = pair
        got = geometry.iou_matrix(a.as_array()[None], b.as_array()[None])[0, 0]
        assert _bits(got) == _bits(iou(a, b))

    @given(box_lists(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_quality_score_bitwise(self, box_list):
        p, gts = box_list[0], box_list[1:]
        assert _bits(geometry.quality_scores(p.as_array()[None], gts)[0]) == _bits(quality_score(p, gts))

    @given(box_lists(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_iou_matrix_bitwise_against_pairwise(self, box_list):
        arr = np.array([b.as_array() for b in box_list])
        got = geometry.iou_matrix(arr, arr)
        assert got.tobytes() == pairwise_iou(arr).tobytes()
        # rectangular blocks are the matching sub-blocks of the square matrix
        k = len(box_list) // 2
        block = geometry.iou_matrix(arr[:k], arr[k:])
        assert block.tobytes() == pairwise_iou(arr)[:k, k:].tobytes()

    def test_iou_matrix_shapes(self):
        a = np.array([[0.0, 0.0, 2.0, 2.0], [1.0, 1.0, 3.0, 3.0]])
        b = np.array([[0.0, 0.0, 2.0, 2.0], [5.0, 5.0, 6.0, 6.0], [1.0, 0.0, 3.0, 2.0]])
        out = geometry.iou_matrix(a, b)
        assert out.shape == (2, 3)
        assert out[0, 0] == 1.0 and out[0, 1] == 0.0 and out[0, 2] == 2.0 / 6.0
        assert geometry.iou_matrix(a, b[:0]).shape == (2, 0)


# IoU values the coarse grid produces exactly, so that ``>`` against the
# threshold is exercised at equality
_thresholds = st.one_of(st.floats(0.05, 0.95), st.sampled_from([0.25, 1 / 3, 0.5]))


class TestNMSAgreement:
    @given(proposal_sets(), _thresholds)
    @settings(max_examples=300, deadline=None)
    def test_greedy_same_survivor_objects(self, pset, thresh):
        got = baselines.greedy_nms(pset, thresh)
        want = greedy_nms(pset, thresh)
        assert [p.id for p in got] == [p.id for p in want]
        assert list(map(_row_bits, got)) == list(map(_row_bits, want))

    @given(
        proposal_sets(),
        st.floats(0.05, 2.0),
        st.sampled_from([0.0, 0.001, 0.05, 0.2, 0.5]),
    )
    @settings(max_examples=300, deadline=None)
    def test_soft_nms_same_survivors(self, pset, sigma, floor):
        recorder = _RecordingFloor(floor)
        want = soft_nms(pset, sigma, recorder)
        # a score this close to the floor may fall on either side of it
        # under the last-ulp difference between np.exp and math.exp; with a
        # zero floor no nonnegative score can cross it
        assume(floor == 0.0 or all(abs(s - floor) > 1e-12 * floor for s in recorder.seen))
        got = baselines.soft_nms(pset, sigma, floor)
        assert [p.id for p in got] == [p.id for p in want]
        for g, w in zip(got, want):
            assert type(g.score) is float
            assert abs(g.score - w.score) <= 1e-14 * abs(w.score)
            assert _row_bits(replace(g, score=w.score)) == _row_bits(w)


class TestQualityScoresAgreement:
    @given(box_lists(0, 8), box_lists(0, 6))
    @settings(max_examples=300, deadline=None)
    def test_one_matrix_bitwise_per_box(self, boxes, gts):
        arr = geometry.box_array(boxes)
        got = geometry.quality_scores(arr, gts)
        assert got.shape == (len(boxes),)
        assert [_bits(float(v)) for v in got] == [_bits(quality_score(b, gts)) for b in boxes]
