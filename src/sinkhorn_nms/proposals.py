"""Proposal containers and a deterministic synthetic scene generator.

``synth_generate`` builds desk-scale scenes with known structure: ground-truth
regions at seeded pseudo-random positions, proposals jittered around them,
scores tied to overlap with the source region, and per-region feature
prototypes that are guaranteed to be separable.  Identical configurations
(including the seed) produce bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

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


@dataclass(frozen=True, eq=False)
class ProposalSet:
    """Ordered proposals plus the image extent and shared feature dimension.

    Construction is lenient so that malformed sets can be inspected; use
    :func:`validate` to obtain the list of invariant violations.
    """

    proposals: tuple[Proposal, ...]
    image_width: float
    image_height: float
    feature_dim: int

    def __post_init__(self):
        object.__setattr__(self, "proposals", tuple(self.proposals))

    def __len__(self) -> int:
        return len(self.proposals)

    def __iter__(self) -> Iterator[Proposal]:
        return iter(self.proposals)

    @property
    def image_diag(self) -> float:
        return math.hypot(self.image_width, self.image_height)

    def boxes(self) -> np.ndarray:
        """All boxes stacked as an (M, 4) array."""
        return np.array([(p.box.x1, p.box.y1, p.box.x2, p.box.y2) for p in self.proposals], float)

    def scores(self) -> np.ndarray:
        return np.array([p.score for p in self.proposals], dtype=np.float64)

    def features(self) -> np.ndarray:
        return np.array([p.feature for p in self.proposals], dtype=np.float64)


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
        if self.num_regions < 1 or self.proposals_per_region < 1:
            raise ValueError("num_regions and proposals_per_region must be >= 1")
        if self.jitter < 0 or self.score_noise < 0:
            raise ValueError("jitter and score_noise must be nonnegative")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image size must be positive")


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

    proposals: list[Proposal] = []
    for r, (gt_box, proto) in enumerate(zip(gt_boxes, prototypes)):
        drawn = []
        for _ in range(cfg.proposals_per_region):
            dx = rng.uniform(-cfg.jitter, cfg.jitter)
            dy = rng.uniform(-cfg.jitter, cfg.jitter)
            box = Box(gt_box.x1 + dx, gt_box.y1 + dy, gt_box.x2 + dx, gt_box.y2 + dy)
            noise = rng.uniform(-cfg.score_noise, cfg.score_noise)
            feature = proto + FEATURE_NOISE * np.array(
                [rng.uniform(-1.0, 1.0) for _ in range(cfg.feature_dim)]
            )
            drawn.append((box, noise, feature))
        # scored once per region after the draws, which keeps the RNG order
        region = np.array([b.as_array() for b, _, _ in drawn])
        overlaps = iou_matrix(region, gt_box.as_array()[None])[:, 0]
        for p, ((box, noise, feature), overlap) in enumerate(zip(drawn, overlaps)):
            proposals.append(
                Proposal(
                    id=r * cfg.proposals_per_region + p,
                    score=min(1.0, max(0.0, float(overlap) + noise)),
                    box=box,
                    feature=feature,
                )
            )

    pset = ProposalSet(
        proposals=tuple(proposals),
        image_width=cfg.image_width,
        image_height=cfg.image_height,
        feature_dim=cfg.feature_dim,
    )
    gt = GroundTruth(boxes=tuple(gt_boxes), labels=tuple(range(cfg.num_regions)))
    return pset, gt


def validate(pset: ProposalSet) -> list[str]:
    """Return human-readable descriptions of every invariant violation.

    An empty list means the set is well-formed.
    """
    violations: list[str] = []
    if len(pset) == 0:
        violations.append("proposal set is empty")
    seen: dict[int, int] = {}
    for idx, p in enumerate(pset):
        if p.id in seen:
            violations.append(
                f"duplicate id {p.id} at indices {seen[p.id]} and {idx}"
            )
        else:
            seen[p.id] = idx
        if not (0.0 <= p.score <= 1.0) or not math.isfinite(p.score):
            violations.append(f"proposal id {p.id}: score {p.score} outside [0, 1]")
        b = p.box
        if b.x1 < 0 or b.y1 < 0 or b.x2 > pset.image_width or b.y2 > pset.image_height:
            violations.append(
                f"proposal id {p.id}: box ({b.x1}, {b.y1}, {b.x2}, {b.y2}) "
                f"outside image {pset.image_width}x{pset.image_height}"
            )
        if p.feature.ndim != 1 or p.feature.shape[0] != pset.feature_dim:
            violations.append(
                f"proposal id {p.id}: feature dimension {p.feature.shape} "
                f"does not match set feature_dim {pset.feature_dim}"
            )
        elif not np.isfinite(p.feature).all():
            violations.append(f"proposal id {p.id}: feature has non-finite entries")
    return violations
