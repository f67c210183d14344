"""Proposal containers and a deterministic synthetic scene generator.

A ``ProposalSet`` is built from a ``ProposalArrays`` (``pset.proposals``):
ids, scores, boxes, features and an optional mask tuple, all read-only, which
the pipeline reads directly.  Its constructor checks each column's dtype
before the cast, so ids are integers that fit in int64 and the other columns
numbers.  ``Proposal`` is the row view: each read of a row builds a new
``Proposal`` value from it, so two reads of one row are equal by value, not
the same object.

``synth_generate`` builds desk-scale scenes with known structure: ground-truth
regions at seeded pseudo-random positions, proposals jittered around them,
scores tied to overlap with the source region, and per-region feature
prototypes that are guaranteed to be separable.  Identical configurations
(including the seed) produce bit-identical output.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from ._checks import check_int, check_real
from .geometry import Box, Mask, iou_matrix
from .rng import SplitMix64

# Per-component magnitude of the uniform noise added to feature prototypes.
FEATURE_NOISE = 0.01

# Generated region side lengths, as fractions of the short image side.
_SIZE_LO_FRAC = 0.06
_SIZE_HI_FRAC = 0.14

# Feature prototypes are redrawn until pairwise cosine similarity drops
# below this bound, which keeps the synthetic clusters separable.
_PROTO_COS_MAX = 0.9
_PROTO_MAX_TRIES = 1000


@dataclass(frozen=True, eq=False)
class Proposal:
    """One detection candidate: score, box, feature vector, optional mask."""

    id: int
    score: float
    box: Box
    feature: np.ndarray
    mask: Mask | None = None

    def __post_init__(self):
        object.__setattr__(self, "feature", np.asarray(self.feature, dtype=np.float64))


def _outside_int64(ids) -> int | None:
    """The first id outside int64 in a list or tuple of integers, else None.

    numpy types such a list as float64 (``[2**63, 0]``) or object
    (``[-2**63 - 1]``); a list with any other element keeps its dtype message.
    """
    if not isinstance(ids, (list, tuple)) or not all(
        isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in ids
    ):
        return None
    return next((int(i) for i in ids if not -(2**63) <= i < 2**63), None)


@dataclass(frozen=True, eq=False)
class ProposalArrays(Sequence):
    """Column storage of M proposals, read as a sequence of ``Proposal`` values.

    ``ids`` is (M,) int64, ``scores`` (M,), ``boxes`` (M, 4) corner-encoded,
    ``features`` (M, F), all float64 and read-only.  ``masks`` holds one
    ``Mask`` or ``None`` per proposal, or is ``None`` when no proposal has a
    mask.  Indexing builds a new ``Proposal`` with Python ``int``/``float``
    scalars, a read-only feature row and the row's ``Mask`` object.
    """

    ids: np.ndarray
    scores: np.ndarray
    boxes: np.ndarray
    features: np.ndarray
    masks: tuple[Mask | None, ...] | None = None

    def __post_init__(self):
        # Each column's dtype is checked as given: the casts below would
        # truncate float ids, read bools as 0 and 1, wrap uint64 ids past
        # int64 and parse strings as numbers.
        for name, dtype, kinds in (("ids", np.int64, "iu"), ("scores", np.float64, "iuf"),
                                   ("boxes", np.float64, "iuf"), ("features", np.float64, "iuf")):
            try:
                given = np.asarray(getattr(self, name))
            except ValueError as exc:  # ragged rows
                raise ValueError(f"{name}: {exc}") from exc
            if given.dtype.kind not in kinds:
                if name == "ids" and (big := _outside_int64(getattr(self, name))) is not None:
                    raise ValueError(f"ids must fit in int64, got {big}")
                what = "integers" if name == "ids" else "numbers"
                raise ValueError(f"{name} must be {what}, got dtype {given.dtype}")
            # a read-only view; the caller's array stays writable
            view = np.asarray(given, dtype=dtype).view()
            if given.dtype.kind == "u" and (view < 0).any():  # wrapped past int64
                raise ValueError(f"{name} must fit in int64, got {given.max()}")
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        M = len(self.ids) if self.ids.ndim == 1 else -1  # -1 matches no shape
        if self.scores.shape != (M,) or self.boxes.shape != (M, 4):
            raise ValueError("ids, scores and boxes must be (M,), (M,) and (M, 4) arrays")
        if self.features.ndim < 1 or self.features.shape[0] != M:
            raise ValueError("features must hold one row per proposal")
        if self.masks is not None:
            object.__setattr__(self, "masks", tuple(self.masks))
            if len(self.masks) != M:
                raise ValueError("masks must hold one entry per proposal")

    def __reduce__(self):
        # pickle through the constructor, which makes the copy's arrays
        # read-only again; unpickled as plain arrays they would be writable
        return (ProposalArrays, (self.ids, self.scores, self.boxes, self.features, self.masks))

    def __len__(self) -> int:
        return self.ids.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(len(self))[i])
        i = range(len(self))[i]
        return Proposal(
            id=int(self.ids[i]),
            score=float(self.scores[i]),
            box=Box(*self.boxes[i].tolist()),
            feature=self.features[i],
            mask=None if self.masks is None else self.masks[i],
        )

    def __iter__(self) -> Iterator[Proposal]:
        return map(self.__getitem__, range(len(self)))

    def take(self, index: np.ndarray, scores: np.ndarray | None = None) -> "ProposalArrays":
        """Rows ``index`` in that order, with ``scores`` in place of theirs if given."""
        index = np.asarray(index, dtype=np.intp)
        masks = None
        if self.masks is not None and any(self.masks[i] is not None for i in index):
            masks = tuple(self.masks[i] for i in index)
        return ProposalArrays(
            ids=self.ids[index],
            scores=self.scores[index] if scores is None else scores,
            boxes=self.boxes[index],
            features=self.features[index],
            masks=masks,
        )


@dataclass(frozen=True, eq=False)
class ProposalSet:
    """Ordered proposals plus the image extent and shared feature dimension.

    ``proposals`` must be a ``ProposalArrays``, whose constructor checks ids
    and column types, and whose columns callers read directly
    (``pset.proposals.boxes``); anything else raises ``TypeError``.

    Construction is lenient about values so that malformed sets can be
    inspected; use :func:`validate` to obtain the list of invariant
    violations.
    """

    proposals: ProposalArrays
    image_width: float
    image_height: float
    feature_dim: int

    def __post_init__(self):
        if not isinstance(self.proposals, ProposalArrays):
            raise TypeError(
                f"proposals must be a ProposalArrays, got {type(self.proposals).__name__}"
            )

    def __len__(self) -> int:
        return len(self.proposals)

    def __iter__(self) -> Iterator[Proposal]:
        return iter(self.proposals)

    @property
    def image_diag(self) -> float:
        return math.hypot(self.image_width, self.image_height)

    def take(self, index: np.ndarray, scores: np.ndarray | None = None) -> "ProposalSet":
        """The proposals at ``index``, in that order, with ``scores`` if given."""
        return replace(self, proposals=self.proposals.take(index, scores))


@dataclass(frozen=True)
class GroundTruth:
    """Annotated region boxes with parallel integer category labels."""

    boxes: tuple[Box, ...]
    labels: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))
        labels = tuple(self.labels) if self.labels else tuple(0 for _ in self.boxes)
        if len(labels) != len(self.boxes):
            raise ValueError("labels must parallel boxes")
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class SynthConfig:
    num_regions: int
    proposals_per_region: int
    jitter: float = 0.0
    score_noise: float = 0.0
    feature_dim: int = 8
    image_width: float = 640.0
    image_height: float = 640.0
    seed: int = 0

    def __post_init__(self):
        # Stored as Python scalars, so the proposal file header takes them.
        for name in ("num_regions", "proposals_per_region", "feature_dim"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1))
        for name in ("jitter", "score_noise"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0.0))
        for name in ("image_width", "image_height"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0.0, strict=True))
        object.__setattr__(self, "seed", check_int("seed", self.seed))


def _draw_prototype(rng: SplitMix64, dim: int, existing: list[np.ndarray]) -> np.ndarray:
    for _ in range(_PROTO_MAX_TRIES):
        raw = np.array([rng.uniform(-1.0, 1.0) for _ in range(dim)])
        norm = float(np.linalg.norm(raw))
        if norm == 0.0:
            continue
        proto = raw / norm
        if all(float(np.dot(proto, other)) < _PROTO_COS_MAX for other in existing):
            return proto
    raise ValueError(
        "cannot draw separated feature prototypes; "
        "increase feature_dim or reduce num_regions"
    )


def synth_generate(cfg: SynthConfig) -> tuple[ProposalSet, GroundTruth]:
    """Generate a synthetic scene with known region structure.

    Each region contributes ``proposals_per_region`` proposals whose boxes are
    the region box with the center shifted by uniform jitter, whose features
    are the region prototype plus small uniform noise, and whose scores are
    the IoU with the region box plus bounded noise, clamped to [0, 1].
    """
    rng = SplitMix64(cfg.seed)
    short = min(cfg.image_width, cfg.image_height)
    size_lo, size_hi = _SIZE_LO_FRAC * short, _SIZE_HI_FRAC * short
    margin = 0.5 * size_hi + cfg.jitter
    if 2.0 * margin >= cfg.image_width or 2.0 * margin >= cfg.image_height:
        raise ValueError(
            f"regions of size up to {size_hi:.3g} with jitter {cfg.jitter:.3g} "
            f"cannot fit inside a {cfg.image_width:g}x{cfg.image_height:g} image"
        )

    gt_boxes: list[Box] = []
    prototypes: list[np.ndarray] = []
    for _ in range(cfg.num_regions):
        w = rng.uniform(size_lo, size_hi)
        h = rng.uniform(size_lo, size_hi)
        cx = rng.uniform(margin, cfg.image_width - margin)
        cy = rng.uniform(margin, cfg.image_height - margin)
        gt_boxes.append(Box(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h))
        prototypes.append(_draw_prototype(rng, cfg.feature_dim, prototypes))

    n = cfg.proposals_per_region
    M = cfg.num_regions * n
    boxes = np.empty((M, 4))
    scores = np.empty(M)
    features = np.empty((M, cfg.feature_dim))
    for r, (gt_box, proto) in enumerate(zip(gt_boxes, prototypes)):
        rows = slice(r * n, (r + 1) * n)
        noises = []
        for j in range(rows.start, rows.stop):
            dx = rng.uniform(-cfg.jitter, cfg.jitter)
            dy = rng.uniform(-cfg.jitter, cfg.jitter)
            boxes[j] = (gt_box.x1 + dx, gt_box.y1 + dy, gt_box.x2 + dx, gt_box.y2 + dy)
            noises.append(rng.uniform(-cfg.score_noise, cfg.score_noise))
            features[j] = proto + FEATURE_NOISE * np.array(
                [rng.uniform(-1.0, 1.0) for _ in range(cfg.feature_dim)]
            )
        # scored once per region after the draws, which keeps the RNG order
        overlaps = iou_matrix(boxes[rows], gt_box.as_array()[None])[:, 0]
        scores[rows] = [min(1.0, max(0.0, float(o) + e)) for o, e in zip(overlaps, noises)]

    pset = ProposalSet(
        proposals=ProposalArrays(ids=np.arange(M), scores=scores, boxes=boxes, features=features),
        image_width=cfg.image_width,
        image_height=cfg.image_height,
        feature_dim=cfg.feature_dim,
    )
    gt = GroundTruth(boxes=tuple(gt_boxes), labels=tuple(range(cfg.num_regions)))
    return pset, gt


def validate(pset: ProposalSet) -> list[str]:
    """Return human-readable descriptions of every invariant violation.

    An empty list means the set is well-formed.  The checks run on the
    arrays; an image size that is not finite and positive and a
    ``feature_dim`` that is no integer (which the proposal writer rejects)
    come first, then the messages in proposal order, each proposal's in the
    order duplicate id, score, box corners, box extent, feature.
    """
    violations: list[str] = []
    W, H = pset.image_width, pset.image_height
    if not (0.0 < W < math.inf and 0.0 < H < math.inf):
        violations.append(f"image size {W}x{H} must be finite and positive")
    try:
        check_int("feature_dim", pset.feature_dim)
    except ValueError as exc:
        violations.append(str(exc))
    if len(pset) == 0:
        violations.append("proposal set is empty")
        return violations
    a = pset.proposals
    ids, scores, boxes, feats = a.ids, a.scores, a.boxes, a.features
    _, first_index, inverse = np.unique(ids, return_index=True, return_inverse=True)
    first_seen = first_index[inverse]
    rows = np.arange(len(ids))
    duplicate = first_seen != rows
    bad_score = ~((scores >= 0.0) & (scores <= 1.0))
    # what Box rejects; NaN fails the ordering too
    bad_corners = ~((boxes[:, 0] <= boxes[:, 2]) & (boxes[:, 1] <= boxes[:, 3])
                    & np.isfinite(boxes).all(axis=1))
    outside = (boxes[:, 0] < 0) | (boxes[:, 1] < 0) | (boxes[:, 2] > W) | (boxes[:, 3] > H)
    shape = feats.shape[1:]
    bad_dim = len(shape) != 1 or shape[0] != pset.feature_dim
    nonfinite = np.zeros(len(ids), bool) if bad_dim else ~np.isfinite(feats).all(axis=1)
    bad = duplicate | bad_score | bad_corners | outside | nonfinite
    for i in rows if bad_dim else np.flatnonzero(bad):
        # read from the arrays: a Proposal cannot hold a box with bad corners
        box = "({}, {}, {}, {})".format(*boxes[i].tolist())
        if duplicate[i]:
            violations.append(f"duplicate id {ids[i]} at indices {first_seen[i]} and {i}")
        if bad_score[i]:
            violations.append(f"proposal id {ids[i]}: score {float(scores[i])} outside [0, 1]")
        if bad_corners[i]:
            violations.append(f"proposal id {ids[i]}: box {box} must be finite, x1 <= x2, y1 <= y2")
        if outside[i]:
            violations.append(f"proposal id {ids[i]}: box {box} outside image {W}x{H}")
        if bad_dim:
            violations.append(
                f"proposal id {ids[i]}: feature dimension {shape} "
                f"does not match set feature_dim {pset.feature_dim}"
            )
        elif nonfinite[i]:
            violations.append(f"proposal id {ids[i]}: feature has non-finite entries")
    return violations
