"""Axis-aligned box and soft-mask primitives.

Boxes are corner-encoded real rectangles; area is (x2 - x1) * (y2 - y1) with
no pixel convention attached, and ``iou_matrix`` is the package's single IoU
kernel: every overlap, scalar or batched, is computed by it. Masks are 2-d
grids of occupancy values in [0, 1]; binary masks are the {0, 1} special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Box:
    """Rectangle with x1 <= x2 and y1 <= y2, all coordinates finite."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        coords = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"box coordinates must be finite, got {coords}")
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(f"box corners out of order: {coords}")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)


@dataclass(frozen=True, eq=False)
class Mask:
    """Grid of occupancy values in [0, 1], stored row-major as (height, width)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("mask must be a non-empty 2-d grid")
        if not np.isfinite(values).all():
            raise ValueError("mask values must be finite")
        if (values < 0.0).any() or (values > 1.0).any():
            raise ValueError("mask values must lie in [0, 1]")
        object.__setattr__(self, "values", values)

    @property
    def height(self) -> int:
        return int(self.values.shape[0])

    @property
    def width(self) -> int:
        return int(self.values.shape[1])


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) IoU between corner-encoded (n, 4) and (m, 4) box arrays.

    Entries whose union has no area are 0.0. Degenerate (zero-area) boxes are
    allowed and never intersect anything with positive measure, so two
    degenerate boxes give 0.0.
    """
    ax1, ay1, ax2, ay2 = (a[:, c, None] for c in range(4))
    bx1, by1, bx2, by2 = (b[:, c] for c in range(4))
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0.0, inter / union, 0.0)


def box_array(boxes: Sequence[Box]) -> np.ndarray:
    """The boxes stacked as a corner-encoded (n, 4) array."""
    return np.array([b.as_array() for b in boxes]).reshape(-1, 4)


def box_centers(boxes: np.ndarray) -> np.ndarray:
    """(n, 2) centers of corner-encoded (n, 4) boxes, as ``Box.center`` computes them."""
    return 0.5 * (boxes[:, :2] + boxes[:, 2:])


def quality_scores(boxes: np.ndarray, gts: Sequence[Box]) -> np.ndarray:
    """Maximum IoU of each of the (n, 4) ``boxes`` with any ground-truth box.

    One (n, G) IoU matrix; every entry is 0.0 when no ground truth exists.
    """
    if not gts:
        return np.zeros(len(boxes))
    return iou_matrix(boxes, box_array(gts)).max(axis=1)


def total_variation(m: Mask) -> float:
    """Anisotropic total variation: sum of |forward differences| along both axes.

    Out-of-bounds neighbours are skipped (no wraparound), so a constant mask
    has total variation exactly 0.
    """
    v = m.values
    return float(np.abs(np.diff(v, axis=0)).sum() + np.abs(np.diff(v, axis=1)).sum())
