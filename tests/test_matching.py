import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from lrpeval import (
    BoundingBox,
    Detection,
    GroundTruth,
    StreamDetection,
    hungarian,
    label_classes,
    match_optimal,
    sweep_class,
)
from lrpeval.geometry import iou
from lrpeval.matching import TauLabels, iou_table, label_detections
from oracles import brute_force_assignment_cost, count_real, random_boxes


def box_at(i: int, side: float = 10.0) -> BoundingBox:
    return BoundingBox(i * 100.0, 0.0, i * 100.0 + side, side)


def gt(i, image_id=0, class_id=1, ignore=False):
    return GroundTruth(image_id, class_id, box_at(i), ignore)


def det(i, score, image_id=0, class_id=1, box=None):
    return Detection(image_id, class_id, box or box_at(i), score)


def counts(gts, labels):
    """(TP, FP, FN) of one class's greedy labels."""
    n_tp = sum(lab.kind == "tp" for lab in labels)
    return n_tp, sum(lab.kind == "fp" for lab in labels), count_real(gts) - n_tp


def tp_pairs(labels):
    return [(lab.det_index, lab.gt_index, lab.iou) for lab in labels if lab.kind == "tp"]


def sample_at(result, s):
    (sample,) = [x for x in result.samples if x.s == s]
    return sample.breakdown


class TestConstructorNumberTypes:
    """Constructors take exactly ints and floats as numbers, as the loaders do."""

    @pytest.mark.parametrize("score", [True, False, "0.5", None, 1.5, float("nan")])
    def test_detection_score(self, score):
        with pytest.raises(ValueError, match="detection score must be a number in"):
            Detection(0, 1, box_at(0), score)

    def test_box_corners(self):
        with pytest.raises(ValueError, match="x_min must be finite, got True"):
            BoundingBox(True, False, 2, 2)
        assert BoundingBox(0, 0.0, 2, 2.5).x_max == 2

    def test_class_scores(self):
        with pytest.raises(ValueError, match="entries must be numbers"):
            StreamDetection(1, box_at(0), (True, False))
        assert StreamDetection(1, box_at(0), (1, 0)).score == 1


class TestMatchGreedy:
    def test_half_recall_scene(self):
        # four objects, two perfect detections
        gts = [gt(i) for i in range(4)]
        dets = [det(0, 0.9), det(1, 0.8)]
        labels = label_detections(gts, dets, tau=0.5)
        assert counts(gts, labels) == (2, 0, 2)
        assert all(overlap == 1.0 for _, _, overlap in tp_pairs(labels))

    def test_empty_inputs(self):
        assert label_detections([], [], tau=0.5) == []

    def test_score_order_decides_double_detection(self):
        gts = [gt(0)]
        dets = [det(0, 0.6), det(0, 0.9)]
        labels = label_detections(gts, dets, tau=0.5)
        assert counts(gts, labels) == (1, 1, 0)
        assert tp_pairs(labels)[0][0] == 1  # the higher-scored detection claimed the box

    def test_brute_force_confirms_score_order(self):
        # against both processing orders: the higher scored one must win
        gts = [gt(0)]
        for high_first in (True, False):
            dets = [det(0, 0.9), det(0, 0.6)] if high_first else [det(0, 0.6), det(0, 0.9)]
            labels = label_detections(gts, dets, tau=0.5)
            winner = 0 if high_first else 1
            assert tp_pairs(labels)[0][0] == winner

    def test_score_threshold_is_closed(self):
        gts = [gt(0)]
        dets = [det(0, 0.5)]
        assert sample_at(sweep_class(gts, dets, 1, tau=0.5), 0.5).n_tp == 1

    def test_detection_below_s_discarded(self):
        gts = [gt(0)]
        dets = [det(0, 0.49)]
        bd = sample_at(sweep_class(gts, dets, 1, tau=0.5), 0.5)
        assert (bd.n_tp, bd.n_fp, bd.n_fn) == (0, 0, 1)

    def test_iou_below_tau_is_fp(self):
        gts = [gt(0)]
        low_overlap = BoundingBox(0.0, 0.0, 4.0, 10.0)  # IoU 0.4 with box 0
        dets = [det(0, 0.9, box=low_overlap)]
        assert counts(gts, label_detections(gts, dets, tau=0.5)) == (0, 1, 1)

    def test_iou_exactly_tau_is_tp(self):
        gts = [gt(0)]
        half = BoundingBox(0.0, 0.0, 5.0, 10.0)  # IoU exactly 0.5
        labels = label_detections(gts, [det(0, 0.9, box=half)], tau=0.5)
        assert counts(gts, labels)[0] == 1

    def test_matching_is_per_image(self):
        gts = [gt(0, image_id="a")]
        dets = [det(0, 0.9, image_id="b")]
        assert counts(gts, label_detections(gts, dets, tau=0.5)) == (0, 1, 1)

    def test_rejects_mixed_classes(self):
        with pytest.raises(ValueError, match="mixed classes"):
            label_detections([gt(0, class_id=1)], [det(0, 0.9, class_id=2)], tau=0.5)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            label_detections([], [], tau=1.0)
        with pytest.raises(ValueError):
            label_detections([], [], tau=-0.1)

    def test_ignore_region_absorbs_overlapping_fp(self):
        gts = [gt(0), gt(1, ignore=True)]
        dets = [det(0, 0.9), det(1, 0.8)]
        # the second detection overlaps only the ignore region: not an FP
        assert counts(gts, label_detections(gts, dets, tau=0.5)) == (1, 0, 0)

    def test_ignore_region_never_counts_as_fn(self):
        gts = [gt(0, ignore=True)]
        assert counts(gts, label_detections(gts, [], tau=0.5)) == (0, 0, 0)

    def test_detection_far_from_ignore_region_stays_fp(self):
        gts = [gt(0, ignore=True)]
        dets = [det(3, 0.9)]
        assert counts(gts, label_detections(gts, dets, tau=0.5)) == (0, 1, 0)

    def test_ignore_absorbs_multiple_detections(self):
        gts = [gt(0, ignore=True)]
        dets = [det(0, 0.9), det(0, 0.8)]
        assert counts(gts, label_detections(gts, dets, tau=0.5)) == (0, 0, 0)

    def test_monotonicity_in_s(self):
        rng = random.Random(11)
        gts = [GroundTruth(rng.randint(0, 2), 1, b) for b in random_boxes(rng, 12)]
        dets = [
            Detection(rng.randint(0, 2), 1, b, rng.random()) for b in random_boxes(rng, 20)
        ]
        result = sweep_class(gts, dets, 1, tau=0.3)
        prev_tp = prev_fp = None
        for s in [i / 20 for i in range(21)]:
            bd = sample_at(result, s)
            if prev_tp is not None:
                assert bd.n_tp <= prev_tp
                assert bd.n_fp <= prev_fp
            prev_tp, prev_fp = bd.n_tp, bd.n_fp

    def test_deterministic_and_permutation_consistent(self):
        rng = random.Random(12)
        gts = [GroundTruth(0, 1, b) for b in random_boxes(rng, 6)]
        scores = rng.sample(range(1, 100), 10)
        dets = [Detection(0, 1, b, s / 100) for b, s in zip(random_boxes(rng, 10), scores)]
        base = label_detections(gts, dets, tau=0.3)
        assert base == label_detections(gts, dets, tau=0.3)

        perm = list(range(len(dets)))
        rng.shuffle(perm)
        shuffled = [dets[i] for i in perm]
        labels = label_detections(gts, shuffled, tau=0.3)
        remapped = {(perm[di], gi, ov) for di, gi, ov in tp_pairs(labels)}
        assert remapped == set(tp_pairs(base))
        assert counts(gts, labels) == counts(gts, base)

    def test_equal_scores_resolved_by_input_index(self):
        gts = [gt(0)]
        dets = [det(0, 0.7), det(0, 0.7)]
        assert tp_pairs(label_detections(gts, dets, tau=0.5))[0][0] == 0

    def test_equal_iou_candidates_resolved_by_gt_index(self):
        shared = BoundingBox(0, 0, 10, 10)
        gts = [GroundTruth(0, 1, shared), GroundTruth(0, 1, shared)]
        labels = label_detections(gts, [Detection(0, 1, shared, 0.9)], tau=0.5)
        assert tp_pairs(labels)[0][1] == 0

    def test_labels_are_prefix_stable(self):
        rng = random.Random(13)
        gts = [GroundTruth(0, 1, b) for b in random_boxes(rng, 8)]
        scores = rng.sample(range(1, 200), 15)
        dets = [Detection(0, 1, b, s / 200) for b, s in zip(random_boxes(rng, 15), scores)]
        full = label_detections(gts, dets, tau=0.3)
        for cut in (0.25, 0.5, 0.75):
            kept = [d for d in dets if d.score >= cut]
            index_map = [i for i, d in enumerate(dets) if d.score >= cut]
            sub = label_detections(gts, kept, tau=0.3)
            expected = [lab for lab in full if lab.score >= cut]
            assert len(sub) == len(expected)
            for lab, exp in zip(sub, expected):
                assert index_map[lab.det_index] == exp.det_index
                assert (lab.kind, lab.gt_index, lab.iou) == (exp.kind, exp.gt_index, exp.iou)


class TestCrowdRegion:
    """Crowd regions absorb by IoU >= tau, the rule that decides TPs, not
    by COCO's intersection over detection area (IoD)."""

    CROWD = GroundTruth(0, 1, BoundingBox(0.0, 0.0, 50.0, 50.0), ignore=True)

    def kinds(self, box, tau=0.5):
        return [lab.kind for lab in label_detections([self.CROWD], [det(0, 0.9, box=box)], tau)]

    def test_small_box_inside_crowd_stays_fp(self):
        # 10x10 inside 50x50: IoD = 100 / 100 = 1.0, IoU = 100 / 2500 = 0.04
        assert self.kinds(BoundingBox(20.0, 20.0, 30.0, 30.0)) == ["fp"]

    def test_box_covering_crowd_is_ignored(self):
        # 40x50 inside 50x50: IoU = 2000 / 2500 = 0.8 >= 0.5
        assert self.kinds(BoundingBox(5.0, 0.0, 45.0, 50.0)) == ["ignored"]

    def test_iou_exactly_tau_is_ignored(self):
        # 50x25 inside 50x50: IoU = 1250 / 2500 = 0.5, closed at tau
        assert self.kinds(BoundingBox(0.0, 0.0, 50.0, 25.0)) == ["ignored"]
        assert self.kinds(BoundingBox(0.0, 0.0, 50.0, 25.0), tau=0.51) == ["fp"]

    def test_crowd_absorbs_only_what_no_real_gt_takes(self):
        # a real GT on the same spot takes the detection first
        real = GroundTruth(0, 1, BoundingBox(5.0, 0.0, 45.0, 50.0))
        labels = label_detections(
            [self.CROWD, real], [det(0, 0.9, box=BoundingBox(5.0, 0.0, 45.0, 50.0))], 0.5
        )
        assert [(lab.kind, lab.gt_index) for lab in labels] == [("tp", 1)]


_GRID_BOXES = st.builds(
    lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
    st.integers(0, 6), st.integers(0, 6), st.integers(1, 6), st.integers(1, 6),
)


@st.composite
def labeling_scenes(draw):
    """Two classes over three images. Boxes come from a small pool, so
    duplicated boxes (equal IoUs) and tied scores are common."""
    box = st.sampled_from(draw(st.lists(_GRID_BOXES, min_size=1, max_size=5)))
    image, cls = st.integers(0, 2), st.sampled_from(("a", "b"))
    crowd = st.sampled_from((False, False, True))
    gts = draw(st.lists(st.builds(GroundTruth, image, cls, box, crowd), max_size=12))
    score = st.sampled_from((0.2, 0.5, 0.9))
    dets = draw(st.lists(st.builds(Detection, image, cls, box, score), max_size=14))
    taus = draw(st.lists(st.sampled_from((0.0, 0.5, 0.999)), min_size=1, max_size=4))
    return gts, dets, taus


class TestLabelClassesProperty:
    @settings(max_examples=300, deadline=None)
    @given(labeling_scenes())
    def test_matches_full_scan_reference_at_every_class_and_tau(self, scene):
        gts, dets, taus = scene
        expected = []
        for cid in ("a", "b"):
            class_gts = [g for g in gts if g.class_id == cid]
            class_dets = [d for d in dets if d.class_id == cid]
            for tau in taus:
                labels = oracles.label_detections(class_gts, class_dets, tau)
                expected.append((tau, cid, labels, count_real(class_gts)))
        got = []
        for cid, labels in label_classes(gts, dets, ("a", "b"), taus):
            assert isinstance(labels, TauLabels)
            got.append((labels.tau, cid, labels.detection_labels(), labels.n_real))
        assert got == expected


# Corners on a small integer grid make disjoint, touching (shared edge or
# corner), nested and identical pairs common; float corners cover the rest.
_IOU_BOXES = st.one_of(
    _GRID_BOXES,
    st.builds(
        lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
        st.floats(0, 20), st.floats(0, 20), st.floats(0.01, 20), st.floats(0.01, 20),
    ),
)


class TestIouTableProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 2), _IOU_BOXES, st.booleans()), max_size=10),
        st.lists(st.tuples(st.integers(0, 2), _IOU_BOXES), max_size=10),
    )
    @example([(0, BoundingBox(0, 0, 4, 4), False), (0, BoundingBox(4, 0, 6, 4), True),
              (0, BoundingBox(1, 1, 2, 2), False), (0, BoundingBox(9, 9, 10, 10), False)],
             [(0, BoundingBox(0, 0, 4, 4))])
    def test_every_iou_equals_geometry_iou(self, gt_specs, det_specs):
        gts = [GroundTruth(i, 1, box, crowd) for i, box, crowd in gt_specs]
        dets = [Detection(i, 1, box, 0.5) for i, box in det_specs]
        table = iou_table(gts, dets)
        assert table.scores == [dets[di].score for di in table.order]
        for di, pairs, crowd_iou in zip(table.order, table.candidates, table.crowd_iou):
            det = dets[di]
            same_image = [gi for gi, g in enumerate(gts) if g.image_id == det.image_id]
            real = [gi for gi in same_image if not gts[gi].ignore]
            assert sorted(gi for _, gi in pairs) == real
            for overlap, gi in pairs:
                assert overlap == iou(det.box, gts[gi].box)
            assert crowd_iou == max(
                (iou(det.box, gts[gi].box) for gi in same_image if gts[gi].ignore), default=-1.0
            )


@st.composite
def _cost_matrices(draw):
    """Random, tie-heavy and constant matrices of either orientation,
    1x1 up to 9x9."""
    n_rows, n_cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    kind = draw(st.sampled_from(("random", "ties", "constant")))
    if kind == "constant":
        value = draw(st.floats(-10.0, 10.0))
        return [[value] * n_cols for _ in range(n_rows)]
    if kind == "ties":
        cells = st.sampled_from((0.0, 0.25, 0.5, 1.0))
    else:
        cells = st.floats(-1e6, 1e6)
    row = st.lists(cells, min_size=n_cols, max_size=n_cols)
    return draw(st.lists(row, min_size=n_rows, max_size=n_rows))


@pytest.fixture(scope="module")
def linear_sum_assignment():
    return pytest.importorskip("scipy.optimize").linear_sum_assignment


class TestHungarian:
    def test_two_by_two(self):
        assert hungarian([[1, 2], [2, 4]]) == [(0, 1), (1, 0)]

    def test_diagonal_dominant(self):
        assert hungarian([[0, 9], [9, 0]]) == [(0, 0), (1, 1)]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            hungarian([[1.0, float("nan")], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            hungarian([[1.0, float("inf")], [0.0, 1.0]])

    def test_empty(self):
        assert hungarian(np.zeros((0, 3))) == []

    def test_five_by_five_against_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            cost = rng.random((5, 5))
            pairs = hungarian(cost)
            total = sum(cost[r, c] for r, c in pairs)
            assert total == pytest.approx(brute_force_assignment_cost(cost), abs=1e-12)

    def test_rectangular_against_brute_force(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            shape = (rng.integers(1, 6), rng.integers(1, 6))
            cost = rng.random(shape)
            pairs = hungarian(cost)
            assert len(pairs) == min(shape)
            total = sum(cost[r, c] for r, c in pairs)
            assert total == pytest.approx(brute_force_assignment_cost(cost), abs=1e-12)

    @pytest.mark.parametrize("shape", [(6, 6), (1, 6), (6, 1), (4, 6), (6, 4)])
    def test_up_to_six_wide_against_brute_force(self, shape):
        rng = np.random.default_rng(23)
        for _ in range(20):
            for cost in (rng.random(shape), rng.choice([0.0, 0.25, 0.5, 1.0], size=shape)):
                pairs = hungarian(cost.tolist())
                assert sorted({r for r, _ in pairs}) == [r for r, _ in pairs]
                assert len({c for _, c in pairs}) == len(pairs) == min(shape)
                total = sum(cost[r, c] for r, c in pairs)
                assert total == pytest.approx(brute_force_assignment_cost(cost), abs=1e-12)

    def test_rejects_ragged_and_non_2d(self):
        with pytest.raises(ValueError):
            hungarian([[1.0, 2.0], [3.0]])
        with pytest.raises(ValueError, match="2-d"):
            hungarian([1.0, 2.0])
        with pytest.raises(ValueError, match="2-d"):
            hungarian(np.zeros((2, 2, 2)))

    # SciPy's solver is the oracle: the same pairs, ties included.
    @settings(max_examples=600, deadline=None)
    @given(_cost_matrices())
    @example([[0.5, 0.25, 0.5, 0.0, 0.0, 1.0, 0.25]])
    @example([[0.5], [0.25], [0.5], [0.0], [0.0], [1.0], [0.25]])
    def test_same_pairs_as_linear_sum_assignment(self, linear_sum_assignment, cost):
        rows, cols = linear_sum_assignment(np.array(cost))
        assert hungarian(cost) == sorted(zip(rows.tolist(), cols.tolist()))


class TestMatchOptimal:
    def test_identical_sets(self):
        rng = random.Random(31)
        boxes = random_boxes(rng, 5)
        m = match_optimal(boxes, list(boxes), tau=0.5)
        assert m.n_tp == 5 and m.n_fp == 0 and m.n_fn == 0
        assert all(overlap == 1.0 for _, _, overlap in m.tp_pairs)

    def test_fully_disjoint_sets(self):
        xs = [box_at(i) for i in range(3)]
        ys = [box_at(i + 10) for i in range(4)]
        m = match_optimal(xs, ys, tau=0.5)
        assert (m.n_tp, m.n_fp, m.n_fn) == (0, 4, 3)

    def test_empty_sides(self):
        boxes = [box_at(0)]
        m = match_optimal([], boxes, tau=0.5)
        assert (m.n_tp, m.n_fp, m.n_fn) == (0, 1, 0)
        m = match_optimal(boxes, [], tau=0.5)
        assert (m.n_tp, m.n_fp, m.n_fn) == (0, 0, 1)

    def test_three_by_three_against_permutations(self):
        rng = random.Random(32)
        for _ in range(50):
            xs, ys = random_boxes(rng, 3), random_boxes(rng, 3)
            m = match_optimal(xs, ys, tau=0.0)
            total = sum(1.0 - overlap for _, _, overlap in m.tp_pairs)
            best = min(
                sum(1.0 - _iou(xs[i], ys[p[i]]) for i in range(3))
                for p in itertools.permutations(range(3))
            )
            assert total == pytest.approx(best, abs=1e-12)

    def test_matched_distance_no_worse_than_any_pairing(self):
        rng = random.Random(33)
        for _ in range(30):
            n = rng.randint(1, 6)
            xs, ys = random_boxes(rng, n), random_boxes(rng, n)
            m = match_optimal(xs, ys, tau=0.0)
            total = sum(1.0 - overlap for _, _, overlap in m.tp_pairs)
            for p in itertools.permutations(range(n)):
                other = sum(1.0 - _iou(xs[i], ys[p[i]]) for i in range(n))
                assert total <= other + 1e-12

    def test_swap_symmetry(self):
        rng = random.Random(34)
        for _ in range(200):
            xs = random_boxes(rng, rng.randint(0, 6))
            ys = random_boxes(rng, rng.randint(0, 6))
            a = match_optimal(xs, ys, tau=0.5)
            b = match_optimal(ys, xs, tau=0.5)
            assert (a.n_tp, a.n_fp, a.n_fn) == (b.n_tp, b.n_fn, b.n_fp)
            assert sorted(ov for _, _, ov in a.tp_pairs) == sorted(ov for _, _, ov in b.tp_pairs)

    def test_ious_are_plain_floats(self):
        xs = [BoundingBox(0, 0, 10, 10), box_at(3)]
        ys = [BoundingBox(1, 0, 10, 10), box_at(3)]
        m = match_optimal(xs, ys, tau=0.5)
        assert m.n_tp == 2
        assert all(type(overlap) is float for _, _, overlap in m.tp_pairs)

    def test_cutoff_severs_weak_pairs(self):
        xs = [BoundingBox(0, 0, 10, 10)]
        ys = [BoundingBox(0, 0, 4, 10)]  # IoU 0.4 < tau
        m = match_optimal(xs, ys, tau=0.5)
        assert (m.n_tp, m.n_fp, m.n_fn) == (0, 1, 1)


def _iou(a, b):
    from lrpeval import iou

    return iou(a, b)
