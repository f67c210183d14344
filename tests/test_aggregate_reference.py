"""Agreement of the matrix-product ``aggregate`` with its per-column loop.

The functions below ``# reference implementations`` are the earlier
``aggregate``, which weighted boxes, scores and features one column at a
time, kept verbatim as the oracle.  The current ``aggregate`` forms every
region's combination in one matrix product, whose sums run in another order,
so the two agree within a stated bound rather than bitwise.  With M the
number of proposals, eps the float64 machine epsilon and ``max|v|`` the
largest magnitude among a field's inputs (boxes, scores, features, or the
carriers' mask cells), every aggregated value lies within
``BOUND * M * eps * max|v|`` of the oracle's.  ``BOUND`` is about twice the
largest ratio seen, 0.62, over 100 000 generated scenes.

Both must still agree exactly on the rest: the ``source_weights`` rows, which
masks are absent, the exception and its message, and every byte of a region
whose contributors are all copies of one proposal.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkhorn_nms import (
    Box,
    Mask,
    Proposal,
    ProposalSet,
    RefinedProposal,
    SinkhornParams,
    SoftAssignment,
    SynthConfig,
    build_cost,
    init_centroids,
    pipeline,
    solve,
    synth_generate,
)
from sinkhorn_nms.cost import CostWeights
from sinkhorn_nms.sinkhorn import Marginals

EPS = float(np.finfo(np.float64).eps)
BOUND = 1.25

# reference implementations


def _weighted_aggregate(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Convex combination computed relative to the heaviest contributor.

    Centering on the dominant value keeps the aggregate bit-exact when all
    contributors coincide; the final clip enforces the convex envelope
    against rounding.
    """
    base = values[int(np.argmax(weights))]
    out = base + (weights[:, None] * (values - base)).sum(axis=0)
    return np.clip(out, values.min(axis=0), values.max(axis=0))


def aggregate(S: SoftAssignment | np.ndarray, pset: ProposalSet) -> list[RefinedProposal]:
    """Collapse proposals into one refined proposal per latent region.

    Column k of the assignment is renormalized to sum to one and used as
    convex-combination weights for boxes, scores, features, and masks.
    Proposals without masks contribute nothing to the mask average; if no
    contributor has a mask the refined mask is absent.
    """
    Sm = S.matrix if isinstance(S, SoftAssignment) else np.asarray(S, dtype=np.float64)
    M, K = Sm.shape
    if M != len(pset):
        raise ValueError(f"assignment has {M} rows but the set has {len(pset)} proposals")
    boxes = pset.proposals.boxes
    scores = pset.proposals.scores
    feats = pset.proposals.features
    carriers = _mask_carriers(pset)
    refined: list[RefinedProposal] = []
    for k in range(K):
        col = Sm[:, k]
        total = float(col.sum())
        if total <= 0.0:
            raise ValueError(f"empty latent region: column {k} has no mass")
        w = col / total
        box_vals = _weighted_aggregate(boxes, w)
        score = float(_weighted_aggregate(scores[:, None], w)[0])
        feature = _weighted_aggregate(feats, w)
        mask = _aggregate_masks(carriers, w)
        refined.append(
            RefinedProposal(
                box=Box(*box_vals),
                score=score,
                feature=feature,
                mask=mask,
                source_weights=w,
            )
        )
    return refined


def _mask_carriers(pset: ProposalSet) -> tuple[np.ndarray, np.ndarray] | None:
    """Indices of the proposals that carry a mask, and their stacked grids."""
    idx = [i for i, p in enumerate(pset) if p.mask is not None]
    grids = [pset.proposals[i].mask.values for i in idx]
    if len({g.shape for g in grids}) > 1:
        raise ValueError("masks must share a common grid to be aggregated")
    return (np.array(idx), np.stack(grids)) if idx else None


def _aggregate_masks(carriers: tuple[np.ndarray, np.ndarray] | None, w: np.ndarray) -> Mask | None:
    if carriers is None:
        return None
    idx, stack = carriers
    sub = w[idx]
    total = float(sub.sum())
    if total <= 0.0:
        return None
    sub = sub / total
    base = stack[int(np.argmax(sub))]
    values = base + (sub[:, None, None] * (stack - base)).sum(axis=0)
    return Mask(np.clip(values, 0.0, 1.0))


# property test


def _digest(r: RefinedProposal) -> tuple:
    mask = None if r.mask is None else (r.mask.values.shape, r.mask.values.tobytes())
    return (
        np.array([r.box.x1, r.box.y1, r.box.x2, r.box.y2], dtype=np.float64).tobytes(),
        struct.pack("<d", r.score),
        r.feature.shape,
        r.feature.tobytes(),
        r.source_weights.tobytes(),
        mask,
    )


def _outcome(fn, S, pset):
    try:
        return "ok", [_digest(r) for r in fn(S, pset)]
    except Exception as exc:  # the exception itself is the compared outcome
        return type(exc), str(exc)


def _fields(r: RefinedProposal) -> tuple:
    return np.array([r.box.x1, r.box.y1, r.box.x2, r.box.y2]), np.array([r.score]), r.feature, r.mask


def deviation(S, pset) -> float:
    """Largest ``|new - oracle| / (M eps max|v|)`` over every aggregated value.

    Asserts that everything else agrees exactly: the exception and its
    message, the number of regions, the ``source_weights`` bytes, and which
    masks are absent and their shapes.
    """
    try:
        ref = aggregate(S, pset)
    except Exception as exc:  # the exception itself is the compared outcome
        with pytest.raises(type(exc)) as info:
            pipeline.aggregate(S, pset)
        assert str(info.value) == str(exc)
        return 0.0
    out = pipeline.aggregate(S, pset)
    assert len(out) == len(ref)
    masks = [p.mask.values for p in pset if p.mask is not None]
    arrays = pset.proposals
    scales = [np.abs(v).max() if v.size else 0.0
              for v in (arrays.boxes, arrays.scores, arrays.features, np.array(masks))]
    worst = 0.0
    for r, o in zip(ref, out):
        assert o.source_weights.tobytes() == r.source_weights.tobytes()
        assert (o.mask is None) == (r.mask is None)
        for a, b, scale in zip(_fields(o), _fields(r), scales):
            if b is None:
                continue
            a, b = (a.values, b.values) if isinstance(b, Mask) else (a, b)
            assert a.shape == b.shape
            diff = np.abs(a - b).max(initial=0.0)
            if diff:
                worst = max(worst, diff / (len(pset) * EPS * scale))
    return worst


@st.composite
def scenes(draw):
    M = draw(st.integers(0, 40))
    K = draw(st.integers(0, 10))
    F = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    on_grid = draw(st.booleans())

    def coords(n):
        return rng.integers(0, 8, n) * 2.0 if on_grid else rng.uniform(0.0, 100.0, n)

    def signed(v):
        return np.where((v == 0.0) & (rng.random(v.shape) < 0.5), -0.0, v)

    x1, y1, w, h = signed(coords(M)), signed(coords(M)), coords(M), coords(M)
    scores = rng.uniform(0.0, 1.0, M)
    feats = rng.normal(size=(M, F))
    if on_grid:
        # many zeros of either sign
        scores = signed(np.round(scores, 1) * (rng.random(M) < 0.3))
        feats = signed(np.round(feats, 1) * (rng.random((M, F)) < 0.3))

    mask_mode = draw(st.sampled_from(["none", "shared", "shared", "shared", "mismatched"]))
    grid = draw(st.sampled_from([(1, 1), (1, 3), (2, 2), (3, 4)]))
    carry = rng.random(M) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    masks = []
    for i in range(M):
        if mask_mode == "none" or not carry[i]:
            masks.append(None)
            continue
        shape = (grid[0] + 1, grid[1]) if mask_mode == "mismatched" and i % 2 else grid
        values = rng.uniform(0.0, 1.0, shape)
        masks.append(Mask(signed(np.round(values, 1) * (rng.random(shape) < 0.5)) if on_grid else values))

    proposals = tuple(
        Proposal(
            id=i,
            score=float(scores[i]),
            box=Box(x1[i], y1[i], x1[i] + w[i], y1[i] + h[i]),
            feature=feats[i],
            mask=masks[i],
        )
        for i in range(M)
    )
    pset = ProposalSet(proposals=proposals, image_width=200.0, image_height=200.0, feature_dim=F)

    kind = draw(st.sampled_from(["uniform", "rounded", "one_hot"]))
    if kind == "one_hot":
        S = np.zeros((M, K))
        if K:
            S[np.arange(M), rng.integers(0, K, M)] = 1.0
    else:
        S = rng.uniform(0.0, 1.0, (M, K))
        if kind == "rounded":
            S = np.round(S, 1)  # forces argmax ties within a column
    if M and draw(st.booleans()):
        S[rng.random(M) < 0.3] = 0.0  # zero rows
    carriers = [i for i in range(M) if masks[i] is not None]
    if carriers and K and draw(st.booleans()):
        # every carrier weightless in some columns: the mask is absent there
        cols = rng.random(K) < 0.5
        S[np.ix_(carriers, np.flatnonzero(cols))] = 0.0
    if K and draw(st.integers(0, 5)) == 0:
        S[:, rng.integers(0, K)] = 0.0  # zero column
    if draw(st.booleans()):
        S = np.asfortranarray(S)
    return S, pset


@settings(max_examples=700, deadline=None)
@given(scenes())
def test_aggregate_matches_reference(scene):
    S, pset = scene
    assert deviation(S, pset) <= BOUND


@st.composite
def copies_scenes(draw):
    """Distinct proposals, each repeated; every region weighs copies of one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))
    repeats = draw(st.integers(1, 6))
    K = draw(st.integers(1, 8))
    F = draw(st.integers(1, 4))
    grid = draw(st.sampled_from([(1, 1), (2, 3)]))

    def signed(v):
        return np.where(rng.random(v.shape) < 0.3, -0.0, v)

    originals = []
    for i in range(n):
        x1, y1 = signed(rng.uniform(0.0, 100.0, 2))
        w, h = rng.uniform(0.0, 50.0, 2)
        mask = Mask(signed(rng.uniform(0.0, 1.0, grid))) if rng.random() < 0.7 else None
        originals.append((float(rng.uniform(0.0, 1.0)), Box(x1, y1, x1 + w, y1 + h),
                          signed(rng.normal(size=F)), mask))
    order = rng.permutation(n * repeats)
    source = order % n
    proposals = tuple(
        Proposal(id=i, score=originals[j][0], box=originals[j][1], feature=originals[j][2], mask=originals[j][3])
        for i, j in enumerate(source)
    )
    pset = ProposalSet(proposals=proposals, image_width=200.0, image_height=200.0, feature_dim=F)
    S = np.zeros((len(proposals), K))
    for k in range(K):
        rows = np.flatnonzero(source == rng.integers(0, n))
        S[rows, k] = rng.uniform(0.01, 1.0, len(rows))
    return S, pset


@settings(max_examples=300, deadline=None)
@given(copies_scenes())
def test_aggregate_of_copies_is_exact(scene):
    S, pset = scene
    assert _outcome(pipeline.aggregate, S, pset) == _outcome(aggregate, S, pset)


@pytest.mark.parametrize("K", [31, 150])
def test_aggregate_matches_reference_on_cli_scenes(K):
    # 2048 proposals with F 8, as in a cli run
    pset, _ = synth_generate(SynthConfig(num_regions=32, proposals_per_region=64, jitter=4.0,
                                         score_noise=0.05, seed=1))
    S = solve(build_cost(pset, init_centroids(pset, K, 1), CostWeights()),
              SinkhornParams(), Marginals.uniform(len(pset), K))
    assert deviation(S, pset) <= BOUND
