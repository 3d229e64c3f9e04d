"""Axis-aligned box geometry: areas, IoU, and the 1-IoU box distance."""

from __future__ import annotations

from dataclasses import dataclass
import sys
from math import isfinite

_CORNERS = ("x_min", "y_min", "x_max", "y_max")

# A number is exactly an int or a float, as JSON numbers parse; a bool has
# its own type and would collide with the ids 0 and 1 and the coordinates
# and scores 0 and 1.
_NUMBER_TYPES = frozenset((int, float))

# The largest box area: the union of two boxes, at most the sum of their
# areas, must stay a finite float.
MAX_AREA = sys.float_info.max / 2


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned rectangle in pixel coordinates, stored in corner form.

    Degenerate boxes are rejected at construction: they are annotation
    errors and failing fast localizes the bug. A box is degenerate unless
    its area is in (0, MAX_AREA], so no IoU divides by an area that
    underflowed to 0 or by a union that overflowed.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        x_min, y_min, x_max, y_max = self.x_min, self.y_min, self.x_max, self.y_max
        if not (
            type(x_min) is type(y_min) is type(x_max) is type(y_max) is float
            and isfinite(x_min) and isfinite(y_min) and isfinite(x_max) and isfinite(y_max)
        ):
            # Not four finite floats: ints are fine, anything else is named.
            for name, value in zip(_CORNERS, (x_min, y_min, x_max, y_max)):
                try:
                    finite = type(value) in _NUMBER_TYPES and isfinite(value)
                except OverflowError:  # an int beyond float range; its repr may not print
                    raise ValueError(
                        f"box coordinate {name} must fit a float, got an integer of "
                        f"{value.bit_length()} bits"
                    ) from None
                if not finite:
                    raise ValueError(f"box coordinate {name} must be finite, got {value!r}")
        if not (
            x_max > x_min and y_max > y_min and 0 < (x_max - x_min) * (y_max - y_min) <= MAX_AREA
        ):
            raise ValueError(
                "degenerate box: need x_max > x_min, y_max > y_min and an area in "
                f"(0, {MAX_AREA:g}], got ({x_min}, {y_min}, {x_max}, {y_max})"
            )

    @classmethod
    def from_xywh(cls, x: float, y: float, w: float, h: float) -> "BoundingBox":
        """Build a box from (x, y, width, height) as used by COCO files."""
        return cls(x, y, x + w, y + h)

    def as_xywh(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max - self.x_min, self.y_max - self.y_min)


def area(box: BoundingBox) -> float:
    """Area of a box; in (0, MAX_AREA] by the box invariants."""
    return (box.x_max - box.x_min) * (box.y_max - box.y_min)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes, in [0, 1].

    0 for disjoint boxes, exactly 1 for identical boxes.
    """
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = area(a) + area(b) - inter
    return inter / union


def iou_distance(a: BoundingBox, b: BoundingBox) -> float:
    """1 - IoU(a, b).

    Symmetric, zero exactly for identical boxes, and satisfies the
    triangle inequality, so it is usable as a metric between boxes.
    """
    return 1.0 - iou(a, b)
