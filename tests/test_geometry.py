import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpeval import BoundingBox, area, iou, iou_distance
from oracles import box_corner_check, grid_area, grid_iou

_CORNER = st.one_of(
    st.sampled_from([0, 1, 10, -3, 0.0, -0.0, 1.0, 10.5, 1e308, -1e308, math.nan, math.inf,
                     -math.inf, True, False, None, "1", [1.0]]),
    st.floats(-20, 20),
)
# Corners around the float range's ends, where an area underflows to 0.0
# or a union of two areas overflows to infinity.
_EXTREME_CORNER = st.sampled_from(
    [0, 1, -1, 0.0, 1e-200, -1e-200, 1e-160, 5e-324, 1e153, 1e154, -1e154, 1e155, -1e155,
     1.7e308, -1e308]
)


def _box(coordinate, side):
    return st.builds(BoundingBox.from_xywh, coordinate, coordinate, side, side)


# Boxes on a half-unit grid share edges, nest and repeat exactly. Free
# floats add the rest, but two of those can differ by less than their
# widths' rounding, so that their IoU is exactly 1.
_GRID_BOX = _box(st.integers(0, 40).map(lambda k: k / 2), st.integers(1, 20).map(lambda k: k / 2))
_BOX = st.one_of(
    _GRID_BOX,
    _box(st.one_of(st.integers(0, 20), st.floats(0, 20)),
         st.one_of(st.integers(1, 10), st.floats(0.5, 10))),
)


class TestBoundingBox:
    def test_rejects_degenerate_boxes(self):
        with pytest.raises(ValueError, match="degenerate"):
            BoundingBox(0, 0, 0, 1)
        with pytest.raises(ValueError, match="degenerate"):
            BoundingBox(0, 0, 1, 0)
        with pytest.raises(ValueError, match="degenerate"):
            BoundingBox(2, 2, 1, 3)

    def test_rejects_non_finite_coordinates(self):
        with pytest.raises(ValueError, match="finite"):
            BoundingBox(0, 0, math.inf, 1)
        with pytest.raises(ValueError, match="finite"):
            BoundingBox(math.nan, 0, 1, 1)

    @pytest.mark.parametrize("corners, name", [
        ((10 ** 400, 0, 1, 1), "x_min"),
        ((0, 0, 1, -10 ** 5000), "y_max"),
    ])
    def test_rejects_integers_beyond_float_range(self, corners, name):
        with pytest.raises(ValueError, match=f"box coordinate {name} must fit a float"):
            BoundingBox(*corners)

    @settings(max_examples=500, deadline=None)
    @given(_CORNER, _CORNER, _CORNER, _CORNER)
    def test_checks_match_per_coordinate_reference(self, x_min, y_min, x_max, y_max):
        expected = box_corner_check(x_min, y_min, x_max, y_max)
        if expected is None:
            box = BoundingBox(x_min, y_min, x_max, y_max)
            assert (box.x_min, box.y_min, box.x_max, box.y_max) == (x_min, y_min, x_max, y_max)
        else:
            with pytest.raises(ValueError) as info:
                BoundingBox(x_min, y_min, x_max, y_max)
            assert str(info.value) == str(expected)

    @pytest.mark.parametrize("corners", [
        (0, 0, 1e-200, 1e-200),
        (0.0, 0.0, 5e-324, 1e-10),
        (-1e308, -1e308, 0.7e308, 0.7e308),
        (-1e308, 0, 1e308, 1),
        (0.0, 0.0, 1e154, 1e154),
        (0, 0, 10 ** 154, 2 * 10 ** 154),
    ], ids=["area-underflows", "subnormal-width", "area-overflows", "width-overflows",
            "union-overflows", "integer-area-beyond-float"])
    def test_rejects_area_outside_float_range(self, corners):
        with pytest.raises(ValueError, match=r"degenerate box: .* an area in \(0, "):
            BoundingBox(*corners)

    def test_largest_boxes_keep_identity_at_iou_one(self):
        box = BoundingBox(0.0, 0.0, 1e154, 8.9e153)
        assert area(box) + area(box) < math.inf
        assert iou(box, box) == 1.0

    @settings(max_examples=500, deadline=None)
    @given(_EXTREME_CORNER, _EXTREME_CORNER, _EXTREME_CORNER, _EXTREME_CORNER)
    def test_area_rule_matches_per_coordinate_reference(self, x_min, y_min, x_max, y_max):
        expected = box_corner_check(x_min, y_min, x_max, y_max)
        if expected is None:
            assert 0.0 < area(BoundingBox(x_min, y_min, x_max, y_max)) < math.inf
        else:
            with pytest.raises(ValueError) as info:
                BoundingBox(x_min, y_min, x_max, y_max)
            assert str(info.value) == str(expected)

    def test_xywh_round_trip(self):
        box = BoundingBox.from_xywh(10, 20, 30, 40)
        assert box == BoundingBox(10, 20, 40, 60)
        assert box.as_xywh() == (10, 20, 30, 40)


class TestArea:
    def test_unit_square_arithmetic(self):
        assert area(BoundingBox(0, 0, 2, 2)) == 4
        assert area(BoundingBox(0, 0, 1, 3)) == 3

    def test_subpixel_box_against_rasterization(self):
        box = BoundingBox(0.5, 0.5, 2.5, 1.5)
        assert grid_area(box, step=0.5) == pytest.approx(2.0)
        assert area(box) == pytest.approx(2.0)


class TestIou:
    def test_identical_boxes(self):
        box = BoundingBox(3.5, 1.25, 9.0, 4.75)
        assert iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 6, 6)) == 0.0
        # touching edges share no area
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(1, 0, 2, 1)) == 0.0

    def test_partial_overlap_against_rasterization(self):
        a = BoundingBox(0, 0, 2, 2)
        b = BoundingBox(1, 1, 3, 3)
        expected = grid_iou(a, b, step=1.0)
        assert expected == pytest.approx(1 / 7)
        assert iou(a, b) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(_BOX, _BOX)
    def test_symmetry(self, a, b):
        assert iou(a, b) == iou(b, a)

    @settings(max_examples=500, deadline=None)
    @given(_BOX, _BOX)
    def test_range(self, a, b):
        assert 0.0 <= iou(a, b) <= 1.0


class TestIouDistance:
    def test_identity(self):
        box = BoundingBox(0, 0, 2, 2)
        assert iou_distance(box, box) == 0.0

    def test_disjoint(self):
        assert iou_distance(BoundingBox(0, 0, 2, 2), BoundingBox(10, 10, 12, 12)) == 1.0

    def test_partial_overlap(self):
        assert iou_distance(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 3, 3)) == pytest.approx(6 / 7)

    @settings(max_examples=500, deadline=None)
    @given(_GRID_BOX, _GRID_BOX)
    def test_identity_of_indiscernibles(self, a, b):
        assert (iou_distance(a, b) > 0.0) == (a != b)

    @settings(max_examples=1000, deadline=None)
    @given(_BOX, _BOX, _BOX)
    def test_triangle_inequality_sampled(self, x, y, z):
        assert iou_distance(x, y) <= iou_distance(x, z) + iou_distance(z, y) + 1e-12
