import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpeval import BoundingBox, area, iou, iou_distance
from oracles import box_corner_check, grid_area, grid_iou, random_box

_CORNER = st.one_of(
    st.sampled_from([0, 1, 10, -3, 0.0, -0.0, 1.0, 10.5, 1e308, -1e308, math.nan, math.inf,
                     -math.inf, True, False, None, "1", [1.0]]),
    st.floats(-20, 20),
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

    def test_symmetry(self):
        rng = random.Random(7)
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == iou(b, a)

    def test_range(self):
        rng = random.Random(8)
        for _ in range(500):
            v = iou(random_box(rng), random_box(rng))
            assert 0.0 <= v <= 1.0


class TestIouDistance:
    def test_identity(self):
        box = BoundingBox(0, 0, 2, 2)
        assert iou_distance(box, box) == 0.0

    def test_disjoint(self):
        assert iou_distance(BoundingBox(0, 0, 2, 2), BoundingBox(10, 10, 12, 12)) == 1.0

    def test_partial_overlap(self):
        assert iou_distance(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 3, 3)) == pytest.approx(6 / 7)

    def test_identity_of_indiscernibles(self):
        rng = random.Random(9)
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            if a != b:
                assert iou_distance(a, b) > 0.0

    def test_triangle_inequality_sampled(self):
        # larger sample lives in the acceptance suite
        rng = random.Random(10)
        for _ in range(20000):
            x, y, z = random_box(rng), random_box(rng), random_box(rng)
            assert iou_distance(x, y) <= iou_distance(x, z) + iou_distance(z, y) + 1e-12
