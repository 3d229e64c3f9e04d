"""Axis-aligned box geometry: areas, IoU, the 1-IoU box distance, and the
corner-row kernel (`_corners`, `_ious`) that evaluation and linking run,
bitwise equal to the scalar `area` and `iou`."""

from __future__ import annotations

import sys
from functools import reduce
from math import isfinite
from operator import add
from typing import Iterable, NamedTuple

# A number is exactly an int or a float, as JSON numbers parse; a bool has
# its own type and would collide with the ids 0 and 1 and the coordinates
# and scores 0 and 1.
_NUMBER_TYPES = frozenset((int, float))


def ordered_sum(values: Iterable[float]) -> float:
    """0 + v0 + v1 + ..., added left to right: the builtin `sum` before
    Python 3.12, whose float sums are compensated and so may differ in the
    last bits. Every float sum that feeds an output uses this one, so the
    bytes do not depend on the interpreter."""
    return reduce(add, values, 0)


# The largest box area: the union of two boxes, at most the sum of their
# areas, must stay a finite float.
MAX_AREA = sys.float_info.max / 2


def _checked_make(cls, iterable):
    """`_make`, and so `_replace`, of a record that checks its fields: it
    builds through the record's `__new__`, not around it."""
    return cls(*iterable)


class _Corners(NamedTuple):
    x_min: float
    y_min: float
    x_max: float
    y_max: float


class BoundingBox(_Corners):
    """Axis-aligned rectangle in pixel coordinates, stored in corner form:
    a named tuple (x_min, y_min, x_max, y_max), so it also unpacks.

    Degenerate boxes are rejected at construction: they are annotation
    errors and failing fast localizes the bug. A box is degenerate unless
    its area is in (0, MAX_AREA], so no IoU divides by an area that
    underflowed to 0 or by a union that overflowed.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, x_min: float, y_min: float, x_max: float, y_max: float):
        if not (
            type(x_min) is type(y_min) is type(x_max) is type(y_max) is float
            and isfinite(x_min) and isfinite(y_min) and isfinite(x_max) and isfinite(y_max)
        ):
            # Not four finite floats: ints are fine, anything else is named.
            for name, value in zip(cls._fields, (x_min, y_min, x_max, y_max)):
                try:
                    finite = type(value) in _NUMBER_TYPES and isfinite(value)
                except OverflowError:  # an int beyond float range; its repr may not print
                    raise ValueError(
                        f"box coordinate {name} must fit a float, got an integer of "
                        f"{value.bit_length()} bits"
                    ) from None
                if not finite:
                    raise ValueError(f"box coordinate {name} must be finite, got {value!r}")
        if _box_area(x_min, y_min, x_max, y_max) is None:
            raise ValueError(
                "degenerate box: need x_max > x_min, y_max > y_min and an area in "
                f"(0, {MAX_AREA:g}], got ({x_min}, {y_min}, {x_max}, {y_max})"
            )
        return tuple.__new__(cls, (x_min, y_min, x_max, y_max))

    @classmethod
    def from_xywh(cls, x: float, y: float, w: float, h: float) -> "BoundingBox":
        """Build a box from (x, y, width, height) as used by COCO files."""
        return cls(x, y, x + w, y + h)

    def as_xywh(self) -> tuple[float, float, float, float]:
        x_min, y_min, x_max, y_max = self
        return (x_min, y_min, x_max - x_min, y_max - y_min)


def _box_area(x_min, y_min, x_max, y_max):
    """The area of the box with these corners, or None where the box rule
    fails: x_max > x_min, y_max > y_min and an area in (0, MAX_AREA]. Where
    x_max = x_min + w and y_max = y_min + h in floats, only finite corners
    pass: an infinite or NaN corner or side makes a comparison false or the
    area infinite or NaN."""
    area = (x_max - x_min) * (y_max - y_min)
    return area if x_max > x_min and y_max > y_min and 0 < area <= MAX_AREA else None


# A box as evaluation reads it: (x_min, y_min, x_max, y_max, area), the
# area with `area`'s float steps.
CornerRow = tuple[float, float, float, float, float]


def corner_row(x: float, y: float, w: float, h: float) -> CornerRow:
    """The corners and area (x_min, y_min, x_max, y_max, area) of
    `BoundingBox.from_xywh(x, y, w, h)` for four floats, by the box rule of
    `_box_area`, without building the box; where the rule fails, the box is
    built to raise its message."""
    x_max, y_max = x + w, y + h
    area = _box_area(x, y, x_max, y_max)
    if area is None:
        BoundingBox(x, y, x_max, y_max)  # raises, naming the first broken rule
    return x, y, x_max, y_max, area


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


def _corners(box: BoundingBox) -> CornerRow:
    """A box's corners and its area, with `area`'s float steps."""
    x1, y1, x2, y2 = box
    return x1, y1, x2, y2, (x2 - x1) * (y2 - y1)


def _ious(x1, y1, x2, y2, a, gts) -> list[tuple[float, int]]:
    """(IoU, GT index) of one box, given as corners and area, against
    (GT index, corners, area) rows, with `iou`'s float steps: min - max
    widths (min(p, q) is q if q < p else p), 0.0 unless both are > 0, then
    inter / (area_a + area_b - inter)."""
    out = []
    for gi, gx1, gy1, gx2, gy2, g_area in gts:
        iw = (gx2 if gx2 < x2 else x2) - (gx1 if gx1 > x1 else x1)
        ih = (gy2 if gy2 < y2 else y2) - (gy1 if gy1 > y1 else y1)
        if iw <= 0.0 or ih <= 0.0:
            out.append((0.0, gi))
        else:
            inter = iw * ih
            out.append((inter / (a + g_area - inter), gi))
    return out


def iou_distance(a: BoundingBox, b: BoundingBox) -> float:
    """1 - IoU(a, b).

    Symmetric, zero exactly for identical boxes, and satisfies the
    triangle inequality, so it is usable as a metric between boxes.
    """
    return 1.0 - iou(a, b)
