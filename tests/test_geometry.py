import builtins
import importlib
import math
import pkgutil
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrpeval
from lrpeval import (
    BoundingBox, DasaParams, GroundTruth, StreamDetection, area, build_report, dasa,
    iou, iou_distance, match_optimal,
)
from lrpeval import ap as ap_module
from lrpeval.ap import AP_VARIANTS
from lrpeval import dataio, video
from lrpeval.geometry import corner_row, ordered_sum
from lrpeval.matching import FP, TP, TauLabels
from lrpeval.sweep import SweepResult, aggregate_molrp
from oracles import box_corner_check, grid_area, grid_iou, same_bits
from synth import report_inputs

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

    @settings(max_examples=500, deadline=None)
    @given(*[st.one_of(_EXTREME_CORNER.map(float), st.floats(-20, 20),
                       st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))] * 4)
    def test_corner_row_applies_the_box_rule_of_from_xywh(self, x, y, w, h):
        # The loaders' rows skip the box; they must pass and fail where it
        # does, with its message, and carry its corners and `area`.
        try:
            box = BoundingBox.from_xywh(x, y, w, h)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                corner_row(x, y, w, h)
            assert str(info.value) == str(exc)
        else:
            assert same_bits(corner_row(x, y, w, h), (*box, area(box)))

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


def _loop_sum(values):
    """0 + v0 + v1 + ..., one addition at a time."""
    total = 0
    for value in values:
        total += value
    return total


def _compensated_sum(values, start=0):
    """`sum` as Python 3.12 and later compute it: exact for ints, compensated
    for floats (here `math.fsum`, which rounds once)."""
    values = list(values)
    if all(type(v) is int for v in (start, *values)):
        return builtins.sum(values, start)
    return math.fsum([start, *values])


class TestOrderedSum:
    """Every float sum in `src` adds left to right, so its bits do not
    depend on the Python version. Each test swaps the builtin `sum` of every
    `lrpeval` module for a compensated one, as from Python 3.12 on, and
    feeds one summing site an input on which the two sums differ."""

    @pytest.fixture(autouse=True)
    def compensated_builtin_sum(self, monkeypatch):
        for info in pkgutil.iter_modules(lrpeval.__path__, "lrpeval."):
            module = importlib.import_module(info.name)
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)

    @staticmethod
    def differing(values):
        values = list(values)
        assert _loop_sum(values) != math.fsum(values)  # the input tells the sums apart
        return values

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64)))
    def test_helper_adds_left_to_right(self, values):
        total = ordered_sum(values)
        assert total == _loop_sum(values)
        assert math.copysign(1.0, total) == math.copysign(1.0, _loop_sum(values))

    def test_helper_keeps_ints_exact(self):
        assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
        assert ordered_sum([]) == 0 and type(ordered_sum([])) is int
        assert ordered_sum([2 ** 60, 1, -(2 ** 60)]) == 1

    def test_stream_detection_sum_check(self):
        scores = self.differing((0.1, 0.2, 0.3))
        message = f"class_scores must sum to 1, got {_loop_sum(scores)!r}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            StreamDetection(1, BoundingBox(0, 0, 1, 1), tuple(scores))

    def test_rescored_tolerance_check(self):
        # The scaled bins sum to 1 + 1e-9 left to right, just inside the
        # tolerance, and just outside it compensated, which would cap them.
        scores = (0.6, 0.1550933224297831, 0.24490667837021687)
        scale = (1.0 - 0.5) / (1.0 - 0.6)
        scaled = (0.5, scores[1] * scale, scores[2] * scale)
        assert abs(_loop_sum(scaled) - 1.0) <= 1e-9 < abs(math.fsum(scaled) - 1.0)
        det = StreamDetection(1, BoundingBox(0, 0, 1, 1), scores)
        assert video._rescored(det, 0.5).class_scores == scaled

    def test_capped_mass(self):
        free = self.differing((0.1, 0.2, 0.3))
        mass, left = _loop_sum(free), 1.0 - 0.4
        expected = (0.4, *(v * left / mass for v in free))
        assert video._capped((0.4, *free), 0, 0.4) == expected

    def test_molrp_mean(self):
        olrps = self.differing((0.1, 0.2, 0.3))
        per_class = {
            cid: SweepResult(cid, 0.5, (), True, 0.0, olrp, None, None, None)
            for cid, olrp in enumerate(olrps)
        }
        assert aggregate_molrp(per_class).molrp == _loop_sum(olrps) / 3

    def test_ap_grid_mean(self):
        # TPs at precisions 1, 2/3 and 3/5 over three ground truths.
        labels = TauLabels(0.5, 3, [0, 1, 2, 3, 4], [0.9, 0.8, 0.7, 0.6, 0.5],
                           [TP, FP, TP, FP, TP], [0, -1, 1, -1, 2], [1.0, 0.0, 1.0, 0.0, 1.0])
        samples = self.differing([1.0] * 34 + [2 / 3] * 33 + [0.6] * 34)
        assert ap_module.ap(labels, "coco101") == _loop_sum(samples) / 101

    def test_report_mean_ap_over_taus_and_classes(self, monkeypatch):
        values = self.differing((0.1, 0.2, 0.3))
        box = BoundingBox(0, 0, 1, 1)
        # One class at three taus: the mean over the taus.
        monkeypatch.setattr(dataio, "ap_variants", lambda labels, variants=AP_VARIANTS:
                            [values[round(labels.tau * 10) - 5]] * len(variants))
        report = build_report(*report_inputs({0: (None, None)}, {1: "a"}, [GroundTruth(0, 1, box)]),
                              tau_list=(0.5, 0.6, 0.7))
        assert report["summary"]["mean_ap"] == _loop_sum(values) / 3
        # Three classes at one tau: the mean over the classes; class c has c ground truths.
        monkeypatch.setattr(dataio, "ap_variants", lambda labels, variants=AP_VARIANTS:
                            [values[labels.n_real - 1]] * len(variants))
        gts = tuple(GroundTruth(i, c, box) for c in (1, 2, 3) for i in range(c))
        three = report_inputs(dict.fromkeys(range(3), (None, None)), {1: "a", 2: "b", 3: "c"}, gts)
        report = build_report(*three, tau_list=(0.5,))
        assert report["summary"]["mean_ap"] == _loop_sum(values) / 3

    def test_dasa_tail(self):
        xs = [BoundingBox(100 * i, 0, 100 * i + 10, 10) for i in range(4)]
        ys = [BoundingBox(100 * i + d, 0, 100 * i + 10 + d, 10) for i, d in enumerate((1, 3, 3, 2))]
        match = match_optimal(xs, ys, 0.5)
        tail = self.differing(1.0 - overlap for _, _, overlap in match.tp_pairs)
        assert match.n_tp == 4
        assert dasa(xs, ys, DasaParams()) == _loop_sum(tail) / 4
