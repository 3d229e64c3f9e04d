import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrpeval import (
    BoundingBox,
    Detection,
    GroundTruth,
    UndefinedLrp,
    label_classes,
    label_detections,
    lrp_components,
    molrp,
    sweep_class,
    sweep_labels,
    threshold_grid,
)
from oracles import eager_sweep, random_boxes, rematch
from synth import reference_detectors
from test_matching import labeling_scenes


def box_at(i: int, side: float = 10.0) -> BoundingBox:
    return BoundingBox(i * 100.0, 0.0, i * 100.0 + side, side)


def shrunk(box: BoundingBox, overlap: float) -> BoundingBox:
    return BoundingBox(box.x_min, box.y_min, box.x_min + overlap * (box.x_max - box.x_min), box.y_max)


class TestThresholdGrid:
    def test_default_grid_has_101_points(self):
        grid = threshold_grid()
        assert len(grid) == 101
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert grid[37] == 0.37

    def test_custom_step(self):
        assert threshold_grid(0.25) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_rejects_uneven_step(self):
        with pytest.raises(ValueError):
            threshold_grid(0.03)
        with pytest.raises(ValueError):
            threshold_grid(0.0)


class TestSweepClass:
    def test_perfect_detector(self):
        gts = [GroundTruth(0, 1, box_at(0))]
        dets = [Detection(0, 1, box_at(0), 0.7)]
        result = sweep_class(gts, dets, 1, tau=0.5)
        assert result.evaluable
        assert result.olrp == 0.0
        assert result.s_star == 0.70
        assert len(result.samples) == 101
        for sample in result.samples:
            assert sample.breakdown is not None  # above 0.7 the lone GT is a FN
            if sample.s <= 0.70:
                assert sample.breakdown.total == 0.0
            else:
                assert sample.breakdown.total == 1.0

    def test_two_detection_plateau_against_raw_count_oracle(self):
        gts = [GroundTruth(0, 1, box_at(0))]
        dets = [
            Detection(0, 1, box_at(0), 0.9),        # TP at IoU 1
            Detection(0, 1, box_at(5), 0.4),        # FP far away
        ]
        result = sweep_class(gts, dets, 1, tau=0.5)
        # independent recomputation from raw counts at every grid point
        for sample in result.samples:
            n_det = sum(1 for d in dets if d.score >= sample.s)
            n_tp = 1 if 0.9 >= sample.s else 0
            n_fp = n_det - n_tp
            n_fn = 1 - n_tp
            expected = (0.0 / 0.5 + n_fp + n_fn) / (n_tp + n_fp + n_fn)
            assert sample.breakdown.total == pytest.approx(expected, abs=1e-15)
        assert 0.40 < result.s_star <= 0.90
        assert result.s_star == 0.90  # largest grid point on the optimal plateau
        assert result.olrp == 0.0

    def test_tradeoff_detector_optimum(self):
        gts, dets = reference_detectors()["tradeoff"]
        result = sweep_class(gts, dets, 1, tau=0.5)
        assert result.olrp == pytest.approx(0.93, abs=0.01)
        assert result.olrp_iou == pytest.approx(0.395, abs=1e-9)
        assert result.olrp_fp == pytest.approx(0.5)
        assert result.olrp_fn == pytest.approx(0.5)

    def test_class_with_nothing_is_not_evaluable(self):
        result = sweep_class([], [], 1, tau=0.5)
        assert not result.evaluable
        assert result.olrp is None and result.s_star is None
        assert all(s.breakdown is None for s in result.samples)

    def test_class_with_gts_but_no_detections(self):
        gts = [GroundTruth(0, 1, box_at(i)) for i in range(3)]
        result = sweep_class(gts, [], 1, tau=0.5)
        assert result.evaluable
        assert result.olrp == 1.0
        assert result.olrp_iou is None  # no TP anywhere
        assert result.olrp_fp is None  # no detections at all
        assert result.olrp_fn == 1.0

    def test_class_with_detections_but_no_gts(self):
        dets = [Detection(0, 1, box_at(0), 0.6)]
        result = sweep_class([], dets, 1, tau=0.5)
        assert result.evaluable
        assert result.olrp == 1.0
        # beyond the top score there is nothing left to evaluate
        defined = [s.s for s in result.samples if s.breakdown is not None]
        assert max(defined) == 0.60

    def test_samples_match_direct_evaluation_bitwise(self):
        rng = random.Random(71)
        gts = [GroundTruth(rng.randint(0, 2), 1, b) for b in random_boxes(rng, 8)]
        dets = [
            Detection(rng.randint(0, 2), 1, b, rng.randint(1, 99) / 100)
            for b in random_boxes(rng, 14)
        ]
        result = sweep_class(gts, dets, 1, tau=0.5)
        for sample in result.samples:
            m = rematch(gts, dets, s=sample.s, tau=0.5)
            if m.n_tp + m.n_fp + m.n_fn == 0:
                assert sample.breakdown is None
                continue
            direct = lrp_components(m, tau=0.5)
            assert sample.breakdown == direct

    def test_optimum_bounds_every_sample(self):
        rng = random.Random(72)
        for trial in range(20):
            gts = [GroundTruth(0, 1, b) for b in random_boxes(rng, rng.randint(0, 6))]
            dets = [
                Detection(0, 1, b, rng.randint(1, 99) / 100)
                for b in random_boxes(rng, rng.randint(0, 10))
            ]
            result = sweep_class(gts, dets, 1, tau=0.5)
            if not result.evaluable:
                continue
            for sample in result.samples:
                if sample.breakdown is not None:
                    assert result.olrp <= sample.breakdown.total

    def test_plateau_samples_are_identical(self):
        gts = [GroundTruth(0, 1, box_at(0))]
        dets = [Detection(0, 1, box_at(0), 0.75)]
        result = sweep_class(gts, dets, 1, tau=0.5)
        # every s in (0, 0.75] retains the same detection set
        reference = result.samples[10].breakdown
        for sample in result.samples[1:76]:
            assert sample.breakdown == reference

    def test_tp_set_shrinks_as_s_grows(self):
        rng = random.Random(73)
        gts = [GroundTruth(0, 1, b) for b in random_boxes(rng, 10)]
        dets = [
            Detection(0, 1, b, rng.randint(1, 99) / 100) for b in random_boxes(rng, 15)
        ]
        full = label_detections(gts, dets, tau=0.3)
        prev = None
        for s in threshold_grid():
            tp_set = {
                (lab.det_index, lab.gt_index, lab.iou)
                for lab in full
                if lab.kind == "tp" and lab.score >= s
            }
            assert tp_set == set(rematch(gts, dets, s=s, tau=0.3).tp_pairs)
            if prev is not None:
                assert tp_set <= prev
            prev = tp_set


class TestLazySamplesProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        labeling_scenes(),
        # taus whose 1 / (1 - tau) is inexact, so a changed total formula shows
        st.lists(st.sampled_from((0.0, 0.1, 0.3, 0.5, 0.7)), min_size=1, max_size=3),
        st.sampled_from((0.01, 0.1, 0.25, 1.0)),
    )
    @example(  # two false positives: total 1 at every s, so s* is the last grid point
        ([GroundTruth(0, "a", BoundingBox(0, 0, 4, 4))],
         [Detection(1, "a", BoundingBox(0, 0, 4, 4), 0.9),
          Detection(1, "a", BoundingBox(0, 0, 4, 4), 0.5)], [0.5]),
        [0.5],
        0.01,
    )
    def test_equals_eager_sweep_with_tie_rule(self, scene, taus, grid_step):
        gts, dets, _ = scene
        for cid, labels in label_classes(gts, dets, ("a", "b"), taus):
            result = sweep_labels(labels, cid, grid_step)
            samples, evaluable, optimum = eager_sweep(labels, grid_step)
            assert result.evaluable == evaluable
            assert result.optimum() == optimum
            assert result.samples == samples
            assert [s.s for s in result.samples] == threshold_grid(grid_step)


class TestRematchProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        labeling_scenes(),
        st.sampled_from((0.0, 0.3, 0.5, 0.7, 0.999)),
        st.sampled_from((0.01, 0.1, 0.25)),
    )
    @example(  # total 0 at every s from 0.3 to 0.9: s* is the largest, 0.9
        ([GroundTruth(0, "a", BoundingBox(0, 0, 4, 4))],
         [Detection(0, "a", BoundingBox(0, 0, 4, 4), 0.9),
          Detection(0, "a", BoundingBox(0, 0, 4, 4), 0.2)], [0.5]),
        0.5,
        0.1,
    )
    def test_every_grid_point_equals_a_fresh_rematch(self, scene, tau, grid_step):
        gts, dets, _ = scene
        for cid in ("a", "b"):
            class_gts = [g for g in gts if g.class_id == cid]
            class_dets = [d for d in dets if d.class_id == cid]
            result = sweep_class(class_gts, class_dets, cid, tau, grid_step)
            totals = {}
            for sample in result.samples:
                m = rematch(class_gts, class_dets, s=sample.s, tau=tau)
                if m.n_tp + m.n_fp + m.n_fn == 0:
                    assert sample.breakdown is None
                else:
                    assert sample.breakdown == lrp_components(m, tau)
                    totals[sample.s] = sample.breakdown.total
            if not totals:
                assert not result.evaluable
                continue
            best = min(totals.values())
            assert result.olrp == best
            assert result.s_star == max(s for s, total in totals.items() if total == best)


class TestMolrp:
    def test_single_perfect_class(self):
        gts = [GroundTruth(0, 1, box_at(0))]
        dets = [Detection(0, 1, box_at(0), 0.9)]
        report = molrp(gts, dets, [1], tau=0.5)
        assert report.molrp == 0.0
        assert report.s_star_min == report.s_star_max == 0.90

    def test_mean_of_two_classes(self):
        # class 1: 5 gts, 3 perfect detections -> oLRP 2/5
        # class 2: 5 gts, 2 perfect detections -> oLRP 3/5
        gts = [GroundTruth(0, 1, box_at(i)) for i in range(5)]
        gts += [GroundTruth(1, 2, box_at(i)) for i in range(5)]
        dets = [Detection(0, 1, box_at(i), 0.9 - i / 100) for i in range(3)]
        dets += [Detection(1, 2, box_at(i), 0.9 - i / 100) for i in range(2)]
        report = molrp(gts, dets, [1, 2], tau=0.5)
        assert report.per_class[1].olrp == pytest.approx(0.4)
        assert report.per_class[2].olrp == pytest.approx(0.6)
        assert report.molrp == pytest.approx(0.5)

    def test_equals_hand_average_of_class_sweeps(self):
        rng = random.Random(81)
        gts, dets = [], []
        for cid in (1, 2, 3):
            for b in random_boxes(rng, rng.randint(1, 5)):
                gts.append(GroundTruth(0, cid, b))
            for b in random_boxes(rng, rng.randint(1, 8)):
                dets.append(Detection(0, cid, b, rng.randint(1, 99) / 100))
        report = molrp(gts, dets, [1, 2, 3], tau=0.5)
        singles = [sweep_class(gts, dets, cid, 0.5).olrp for cid in (1, 2, 3)]
        assert report.molrp == pytest.approx(sum(singles) / 3, abs=1e-15)

    def test_not_evaluable_classes_are_excluded_and_listed(self):
        gts = [GroundTruth(0, 1, box_at(0))]
        dets = [Detection(0, 1, box_at(0), 0.9)]
        report = molrp(gts, dets, [1, 2], tau=0.5)
        assert report.not_evaluable == (2,)
        assert report.molrp == 0.0

    def test_requires_an_evaluable_class(self):
        with pytest.raises(UndefinedLrp):
            molrp([], [], [1, 2], tau=0.5)


class TestOlrpAtTau:
    def test_perfect_detector_is_zero_at_every_tau(self):
        gts = [GroundTruth(0, 1, box_at(0))]
        dets = [Detection(0, 1, box_at(0), 0.8)]
        for tau in (0.5, 0.75, 0.9):
            assert sweep_class(gts, dets, 1, tau).olrp == 0.0, f"tau={tau}"

    def test_loose_boxes_flip_to_fp_above_their_overlap(self):
        # all TPs at IoU 0.55: validated at tau 0.5, pure FP from tau 0.6 on
        gts = [GroundTruth(0, 1, box_at(i)) for i in range(2)]
        dets = [Detection(0, 1, shrunk(box_at(i), 0.55), 0.9 - i / 10) for i in range(2)]
        results = {tau: sweep_class(gts, dets, 1, tau) for tau in (0.5, 0.6, 0.75)}
        assert results[0.5].olrp < 1.0
        assert results[0.6].olrp == 1.0
        assert results[0.75].olrp == 1.0

    def test_constructed_instance_is_non_decreasing_in_tau(self):
        rng = random.Random(91)
        gts = [GroundTruth(0, 1, box_at(i)) for i in range(6)]
        dets = [
            Detection(0, 1, shrunk(box_at(i), rng.uniform(0.5, 1.0)), rng.randint(40, 99) / 100)
            for i in range(6)
        ]
        taus = [0.5, 0.6, 0.7, 0.8, 0.9]
        values = [sweep_class(gts, dets, 1, tau).olrp for tau in taus]
        assert values == sorted(values)
