import random
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from lrpeval import (
    BoundingBox,
    Detection,
    GroundTruth,
    RPCurve,
    TauLabels,
    ap,
    build_report,
    curve_from_labels,
    label_classes,
    rp_curve,
)
from lrpeval.dataio import Category, Dataset, ImageInfo
from lrpeval.ap import AP_VARIANTS
from lrpeval.matching import FP, IGNORED, TP
from oracles import integrate_rp_points, rematch_rp_points
from synth import reference_detectors


def box_at(i: int, side: float = 10.0) -> BoundingBox:
    return BoundingBox(i * 100.0, 0.0, i * 100.0 + side, side)


def shrunk(box: BoundingBox, overlap: float) -> BoundingBox:
    return BoundingBox(box.x_min, box.y_min, box.x_min + overlap * (box.x_max - box.x_min), box.y_max)


def labels_at(gts, dets, tau):
    """Greedy labels of class 1 at tau, as `build_report` reads them."""
    ((_, labels),) = label_classes(gts, dets, (1,), (tau,))
    return labels


_BOX = st.builds(BoundingBox.from_xywh, st.floats(0.0, 20.0), st.floats(0.0, 20.0),
                 st.floats(0.5, 10.0), st.floats(0.5, 10.0))


@st.composite
def instances(draw, n_gt_max=8, n_det_max=25, images=3):
    """Single-class instance over a few images, with at least one ground
    truth and distinct detection scores."""
    image = st.integers(0, images - 1)
    gts = draw(st.lists(st.builds(GroundTruth, image, st.just(1), _BOX),
                        min_size=1, max_size=n_gt_max))
    scores = draw(st.lists(st.integers(1, 9999), unique=True, max_size=n_det_max))
    dets = [Detection(draw(image), 1, draw(_BOX), s / 10000) for s in scores]
    return gts, dets


class TestRpCurve:
    def test_perfect_single_detection(self):
        gts = [GroundTruth(0, 1, box_at(0))]
        dets = [Detection(0, 1, box_at(0), 0.8)]
        curve = rp_curve(gts, dets, 1, tau=0.5)
        assert curve.points == ((1.0, 1.0, 0.8),)
        assert ap(labels_at(gts, dets, 0.5), "continuous") == 1.0

    def test_duplicate_heavy_final_point(self):
        gts, dets = reference_detectors()["duplicate_heavy"]
        curve = rp_curve(gts, dets, 1, tau=0.5)
        assert len(curve.points) == 8
        assert curve.points[-1][:2] == (1.0, 0.5)

    def test_three_detection_cumulative_table(self):
        # hand-unrolled: TP(0.9), FP(0.8), TP(0.7) over 2 gts
        gts = [GroundTruth(0, 1, box_at(0)), GroundTruth(0, 1, box_at(1))]
        dets = [
            Detection(0, 1, box_at(0), 0.9),
            Detection(0, 1, box_at(7), 0.8),
            Detection(0, 1, box_at(1), 0.7),
        ]
        curve = rp_curve(gts, dets, 1, tau=0.5)
        assert curve.points == (
            (0.5, 1.0, 0.9),
            (0.5, 0.5, 0.8),
            (1.0, 2 / 3, 0.7),
        )
        # Interpolated: precision 1 up to recall 0.5, then 2/3 up to recall 1.
        labels = labels_at(gts, dets, 0.5)
        assert ap(labels, "continuous") == 0.5 * 1.0 + 0.5 * (2 / 3)
        assert ap(labels, "pascal11") == sum([1.0] * 6 + [2 / 3] * 5) / 11
        assert ap(labels, "coco101") == sum([1.0] * 51 + [2 / 3] * 50) / 101

    @settings(deadline=None)
    @given(instances())
    def test_recall_non_decreasing(self, instance):
        gts, dets = instance
        recalls = [p[0] for p in rp_curve(gts, dets, 1, tau=0.5).points]
        assert recalls == sorted(recalls)

    def test_requires_ground_truth(self):
        with pytest.raises(ValueError, match="no ground truth"):
            rp_curve([], [Detection(0, 1, box_at(0), 0.5)], 1, tau=0.5)

    def test_ignored_detections_contribute_no_point(self):
        gts = [GroundTruth(0, 1, box_at(0)), GroundTruth(0, 1, box_at(1), ignore=True)]
        dets = [Detection(0, 1, box_at(0), 0.9), Detection(0, 1, box_at(1), 0.8)]
        curve = rp_curve(gts, dets, 1, tau=0.5)
        assert len(curve.points) == 1


class TestAp:
    def test_perfect_detector_all_variants(self):
        gts = [GroundTruth(0, 1, box_at(0))]
        dets = [Detection(0, 1, box_at(0), 0.8)]
        labels = labels_at(gts, dets, 0.5)
        for variant in AP_VARIANTS:
            assert ap(labels, variant) == 1.0

    def test_reference_trio_has_continuous_ap_half(self):
        for name, (gts, dets) in reference_detectors().items():
            labels = labels_at(gts, dets, 0.5)
            assert ap(labels, "continuous") == pytest.approx(0.5, abs=1e-9), name

    def test_empty_curve_scores_zero(self):
        gts = [GroundTruth(0, 1, box_at(0))]
        labels = labels_at(gts, [], 0.5)
        for variant in AP_VARIANTS:
            assert ap(labels, variant) == 0.0

    def test_unknown_variant_rejected(self):
        gts = [GroundTruth(0, 1, box_at(0))]
        with pytest.raises(ValueError, match="variant"):
            ap(labels_at(gts, [], 0.5), "voc2007")

    def test_requires_ground_truth(self):
        labels = labels_at([], [Detection(0, 1, box_at(0), 0.5)], 0.5)
        for variant in AP_VARIANTS:
            with pytest.raises(ValueError, match="no ground truth"):
                ap(labels, variant)

    def test_build_report_builds_no_curve(self, monkeypatch):
        def no_curve(*args, **kwargs):
            raise AssertionError("build_report built an RPCurve")

        monkeypatch.setattr(RPCurve, "__init__", no_curve)
        gts, dets = reference_detectors()["tradeoff"]
        assert map_over_taus(gts, dets, [1], (0.5, 0.75)) > 0

    @settings(deadline=None)
    @given(instances())
    def test_all_variants_against_rematch_oracle(self, instance):
        gts, dets = instance
        labels = labels_at(gts, dets, 0.5)
        points = rematch_rp_points(gts, dets, 1, tau=0.5)
        for variant in AP_VARIANTS:
            expected = integrate_rp_points(points, variant)
            assert ap(labels, variant) == pytest.approx(expected, abs=1e-9), variant

    @settings(deadline=None)
    @given(instances())
    def test_score_transform_invariance(self, instance):
        gts, dets = instance
        squared = [Detection(d.image_id, d.class_id, d.box, d.score**2) for d in dets]
        for variant in AP_VARIANTS:
            a = ap(labels_at(gts, dets, 0.5), variant)
            b = ap(labels_at(gts, squared, 0.5), variant)
            assert a == b

    def test_grid_variants_converge_on_dense_curves(self):
        # a smooth curve with >= 100 evenly spread recall points
        rng = random.Random(104)
        gts = [GroundTruth(0, 1, box_at(i)) for i in range(120)]
        dets = []
        scores = rng.sample(range(1, 100000), 240)
        for i in range(120):
            dets.append(Detection(0, 1, box_at(i), scores[2 * i] / 100000))
            dets.append(Detection(0, 1, box_at(i + 500), scores[2 * i + 1] / 100000))
        labels = labels_at(gts, dets, 0.5)
        cont = ap(labels, "continuous")
        assert ap(labels, "pascal11") == pytest.approx(cont, abs=0.02)
        assert ap(labels, "coco101") == pytest.approx(cont, abs=0.02)


def map_over_taus(gts, dets, class_ids, taus):
    """Mean AP over classes and taus, as the evaluation report computes it."""
    dataset = Dataset((ImageInfo(0),), tuple(Category(c, str(c)) for c in class_ids), tuple(gts))
    return build_report(dataset, dets, tau_list=taus).mean_ap


def labels_from_kinds(kinds, n_real, tau=0.5):
    """A class's columnar labels with the given kind codes in descending
    score order; TPs claim ground truths 0, 1, ... at IoU 1."""
    n = len(kinds)
    tps = accumulate(k == TP for k in kinds)
    return TauLabels(
        tau, n_real, list(range(n)), [1.0 - i / n for i in range(n)], list(kinds),
        [tp - 1 if k == TP else -1 for tp, k in zip(tps, kinds)],
        [1.0 if k == TP else 0.0 for k in kinds],
    )


@st.composite
def tau_labels(draw):
    """Labels from kind sequences: n_real of 4, 10 or 100 puts recalls
    exactly on 11- and 101-point grid recalls, FP runs repeat a recall,
    and all-ignored or empty sequences give no point."""
    n_real = draw(st.sampled_from((4, 10, 100)) | st.integers(1, 30))
    kinds = draw(st.lists(st.sampled_from((TP, FP, IGNORED)), max_size=60))
    # A class cannot have more TPs than ground truths.
    tp_seen = accumulate(k == TP for k in kinds)
    kinds = [FP if k == TP and seen > n_real else k for k, seen in zip(kinds, tp_seen)]
    return labels_from_kinds(kinds, n_real)


class TestApMergeWalk:
    """`ap` reads only the TPs of the labels; for every variant it gives
    the float of the bisect-per-grid-point reference on the full curve."""

    @settings(max_examples=400, deadline=None)
    @given(tau_labels())
    @example(labels_from_kinds([], 4))
    @example(labels_from_kinds([FP] * 5, 10))
    @example(labels_from_kinds([IGNORED] * 3, 100))
    @example(labels_from_kinds([IGNORED, TP, FP, IGNORED, TP], 4))
    @example(labels_from_kinds([TP, FP, TP, FP, TP, TP], 4))
    @example(labels_from_kinds([TP] * 10 + [FP] * 3, 10))
    @example(labels_from_kinds([FP, TP] * 100, 100))
    def test_equals_bisect_reference(self, labels):
        curve = curve_from_labels(labels, 1)
        for variant in AP_VARIANTS:
            assert ap(labels, variant) == oracles.ap(curve, variant), variant


class TestMapOverTaus:
    TAUS = tuple(i / 100 for i in range(50, 100, 5))

    def test_perfect_detector(self):
        gts = [GroundTruth(0, 1, box_at(0))]
        dets = [Detection(0, 1, box_at(0), 0.8)]
        assert map_over_taus(gts, dets, [1], self.TAUS) == 1.0

    def test_loose_boxes_only_score_at_low_tau(self):
        gts = [GroundTruth(0, 1, box_at(0))]
        dets = [Detection(0, 1, shrunk(box_at(0), 0.52), 0.9)]
        value = map_over_taus(gts, dets, [1], self.TAUS)
        at_half = ap(labels_at(gts, dets, 0.5), "coco101")
        assert at_half > 0
        assert value == pytest.approx(at_half / 10)

    @settings(deadline=None)
    @given(instances())
    def test_composition_equals_mean_of_per_tau_aps(self, instance):
        gts, dets = instance
        value = map_over_taus(gts, dets, [1], self.TAUS)
        singles = [ap(labels_at(gts, dets, t), "coco101") for t in self.TAUS]
        assert value == pytest.approx(sum(singles) / len(singles), abs=1e-15)

    def test_classes_without_gt_are_excluded(self):
        gts = [GroundTruth(0, 1, box_at(0))]
        dets = [
            Detection(0, 1, box_at(0), 0.8),
            Detection(0, 2, box_at(5), 0.9),
        ]
        assert map_over_taus(gts, dets, [1, 2], self.TAUS) == 1.0

    def test_no_scorable_class_leaves_mean_ap_unset(self, caplog):
        assert map_over_taus([], [Detection(0, 1, box_at(0), 0.8)], [1], self.TAUS) is None
        assert "mean AP left unset" in caplog.text
