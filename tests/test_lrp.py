import math
import random

import pytest

from lrpeval import (
    DasaParams,
    MatchResult,
    UndefinedLrp,
    dasa,
    lrp_components,
    lrp_total,
    match_optimal,
)
from oracles import random_boxes, weighted_form_total


def synthetic_match(rng: random.Random, tau: float, max_size: int = 20) -> MatchResult:
    """A consistent random MatchResult."""
    n_gt = rng.randint(0, max_size)
    n_det = rng.randint(0, max_size)
    n_tp = rng.randint(0, min(n_gt, n_det))
    pairs = tuple((i, i, rng.uniform(tau, 1.0)) for i in range(n_tp))
    return MatchResult(pairs, n_tp, n_det - n_tp, n_gt - n_tp)


class TestLrpComponents:
    def test_half_recall_scene(self):
        # 4 ground truths, 2 perfect TPs, no FPs
        m = MatchResult(((0, 0, 1.0), (1, 1, 1.0)), 2, 0, 2)
        bd = lrp_components(m, tau=0.5)
        assert bd.loc_component == 0.0
        assert bd.fp_component == 0.0
        assert bd.fn_component == 0.5
        assert bd.total == 0.5

    def test_no_ground_truth_all_fp(self):
        m = MatchResult((), 0, 3, 0)
        bd = lrp_components(m, tau=0.5)
        assert bd.loc_component is None
        assert bd.fp_component == 1.0
        assert bd.fn_component is None
        assert bd.total == 1.0

    def test_hand_computed_mixed_case(self):
        m = MatchResult(((0, 0, 0.7), (1, 1, 0.9)), 2, 1, 1)
        bd = lrp_components(m, tau=0.5)
        assert bd.loc_component == pytest.approx((0.3 + 0.1) / 2)
        assert bd.fp_component == pytest.approx(1 / 3)
        assert bd.fn_component == pytest.approx(1 / 3)
        assert bd.total == pytest.approx(weighted_form_total(bd), abs=1e-12)

    def test_undefined_when_nothing_to_evaluate(self):
        with pytest.raises(UndefinedLrp):
            lrp_components(MatchResult((), 0, 0, 0), tau=0.5)
        with pytest.raises(UndefinedLrp):
            lrp_total(MatchResult((), 0, 0, 0), tau=0.5)

    def test_rejects_inconsistent_counts(self):
        # one pair cannot be two TPs
        with pytest.raises(ValueError, match="inconsistent"):
            MatchResult(((0, 0, 1.0),), 2, 0, 0)
        with pytest.raises(ValueError, match="inconsistent"):
            MatchResult(((0, 0, 1.0),), 0, 1, 1)
        with pytest.raises(ValueError, match="inconsistent"):
            MatchResult(((0, 0, 1.0),), 1, -1, 0)
        with pytest.raises(ValueError, match="inconsistent"):
            MatchResult(((0, 0, 1.0),), 1, 0, -1)

    def test_rejects_tau_near_one(self):
        m = MatchResult((), 0, 1, 0)
        with pytest.raises(ValueError, match="tau"):
            lrp_components(m, tau=0.9999)

    def test_rejects_pair_below_tau(self):
        m = MatchResult(((0, 0, 0.4),), 1, 0, 0)
        with pytest.raises(ValueError, match="below tau"):
            lrp_components(m, tau=0.5)

    def test_weights(self):
        m = MatchResult(((0, 0, 0.8),), 1, 2, 3)
        bd = lrp_components(m, tau=0.5)
        assert bd.w_iou == pytest.approx(1 / 0.5)
        assert bd.w_fp == 3
        assert bd.w_fn == 4
        assert bd.z == 6


class TestLrpTotal:
    def test_half_recall_scene(self):
        m = MatchResult(((0, 0, 1.0), (1, 1, 1.0)), 2, 0, 2)
        assert lrp_total(m, tau=0.5) == 0.5

    def test_duplicate_heavy_scene(self):
        pairs = tuple((i, i, 1.0) for i in range(4))
        m = MatchResult(pairs, 4, 4, 0)
        assert lrp_total(m, tau=0.5) == 0.5

    def test_tradeoff_scene_and_perfect_localization_variant(self):
        loose = MatchResult(((0, 0, 0.61), (1, 1, 0.60)), 2, 2, 2)
        assert lrp_total(loose, tau=0.5) == pytest.approx(0.93, abs=1e-12)
        perfect = MatchResult(((0, 0, 1.0), (1, 1, 1.0)), 2, 2, 2)
        assert lrp_total(perfect, tau=0.5) == pytest.approx(2 / 3, abs=1e-12)

    def test_one_exactly_when_nothing_matches(self):
        rng = random.Random(41)
        for _ in range(200):
            n_fp = rng.randint(0, 10)
            n_fn = rng.randint(0, 10)
            if n_fp + n_fn == 0:
                continue
            m = MatchResult((), 0, n_fp, n_fn)
            assert lrp_total(m, tau=0.5) == 1.0

    def test_zero_only_for_perfect_detection(self):
        m = MatchResult(((0, 0, 1.0),), 1, 0, 0)
        assert lrp_total(m, tau=0.5) == 0.0
        near = MatchResult(((0, 0, 0.999),), 1, 0, 0)
        assert lrp_total(near, tau=0.5) > 0.0

    def test_range_and_equivalence_on_random_match_results(self):
        rng = random.Random(42)
        for _ in range(2000):
            tau = rng.choice([0.0, 0.25, 0.5, 0.75])
            m = synthetic_match(rng, tau)
            if m.n_tp + m.n_fp + m.n_fn == 0:
                continue
            bd = lrp_components(m, tau)
            assert 0.0 <= bd.total <= 1.0
            assert abs(bd.total - weighted_form_total(bd)) <= 1e-12
            if m.n_tp == 0:
                assert bd.total == 1.0

    def test_per_box_penalty_decomposition(self):
        # each FP and FN costs exactly 1, each TP costs (1-IoU)/(1-tau) in [0, 1]
        rng = random.Random(43)
        for _ in range(500):
            tau = rng.choice([0.25, 0.5, 0.75])
            m = synthetic_match(rng, tau, max_size=10)
            if m.n_tp + m.n_fp + m.n_fn == 0:
                continue
            penalties = [(1.0 - ov) / (1.0 - tau) for _, _, ov in m.tp_pairs]
            assert all(0.0 <= p <= 1.0 for p in penalties)
            penalties += [1.0] * (m.n_fp + m.n_fn)
            expected = sum(penalties) / len(penalties)
            assert lrp_total(m, tau) == pytest.approx(expected, abs=1e-12)


class TestDasa:
    def test_identical_sets_are_at_distance_zero(self):
        rng = random.Random(51)
        boxes = random_boxes(rng, 4)
        for p in (1.0, 2.0):
            for c in (0.25, 0.5, 1.0):
                assert dasa(boxes, list(boxes), DasaParams(p=p, c=c)) == 0.0

    def test_empty_against_k_gives_cutoff(self):
        rng = random.Random(52)
        for k in (1, 3, 7):
            boxes = random_boxes(rng, k)
            assert dasa([], boxes, DasaParams(p=1.0, c=0.3)) == pytest.approx(0.3)
            assert dasa(boxes, [], DasaParams(p=2.0, c=0.4)) == pytest.approx(0.4)

    def test_both_empty_is_undefined(self):
        with pytest.raises(UndefinedLrp):
            dasa([], [], DasaParams())

    def test_reduction_identity_on_random_instances(self):
        rng = random.Random(53)
        for _ in range(500):
            xs = random_boxes(rng, rng.randint(0, 10))
            ys = random_boxes(rng, rng.randint(0, 10))
            if not xs and not ys:
                continue
            for tau in (0.5, 0.75):
                m = match_optimal(xs, ys, tau)
                z = m.n_tp + m.n_fp + m.n_fn
                if z == 0:
                    continue
                total = lrp_total(m, tau)
                e = dasa(xs, ys, DasaParams(p=1.0, c=1.0 - tau))
                scaled = e * max(len(xs), len(ys)) / ((1.0 - tau) * z)
                assert total == pytest.approx(scaled, rel=1e-9)

    def test_symmetry(self):
        rng = random.Random(54)
        for _ in range(200):
            xs = random_boxes(rng, rng.randint(0, 5))
            ys = random_boxes(rng, rng.randint(0, 5))
            if not xs and not ys:
                continue
            params = DasaParams(p=1.0, c=0.5)
            assert dasa(xs, ys, params) == dasa(ys, xs, params)

    def test_results_are_plain_floats(self):
        rng = random.Random(55)
        xs = random_boxes(rng, 4)
        ys = [*xs[:3], *random_boxes(rng, 2)]
        m = match_optimal(xs, ys, 0.5)
        assert m.n_tp >= 3
        bd = lrp_components(m, 0.5)
        reals = [bd.total, bd.loc_component, bd.fp_component, bd.fn_component,
                 bd.w_iou, bd.w_fp, bd.w_fn]
        assert [type(x) for x in reals] == [float] * len(reals)
        assert type(dasa(xs, ys, DasaParams(p=2.0, c=0.5))) is float

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            DasaParams(p=0.5)
        with pytest.raises(ValueError):
            DasaParams(c=0.0)
        with pytest.raises(ValueError):
            DasaParams(c=1.5)

    @pytest.mark.parametrize("params", [
        {"c": 0.0005}, {"c": math.nan}, {"p": math.nan}, {"p": math.inf},
    ])
    def test_rejects_params_dasa_cannot_use(self, params):
        # c = 0.0005 would match at tau 0.9995, above the largest valid tau;
        # p = inf would put identical sets at distance 1
        (name,) = params
        with pytest.raises(ValueError, match=f"{name} must be"):
            DasaParams(**params)

    def test_accepts_the_smallest_cutoff(self):
        boxes = random_boxes(random.Random(56), 3)
        assert dasa(boxes, boxes, DasaParams(c=0.001)) == 0.0


class TestMetricModeProperties:
    def metric_lrp(self, xs, ys, tau=0.5):
        m = match_optimal(xs, ys, tau)
        return lrp_total(m, tau=tau)

    def test_symmetry_swaps_fp_fn(self):
        rng = random.Random(61)
        for _ in range(500):
            xs = random_boxes(rng, rng.randint(0, 6))
            ys = random_boxes(rng, rng.randint(0, 6))
            if not xs and not ys:
                continue
            assert self.metric_lrp(xs, ys) == self.metric_lrp(ys, xs)

    def test_triangle_inequality_sampled(self):
        # the full-size sample lives in the acceptance suite; violations
        # here must fail loudly, never be skipped
        rng = random.Random(62)
        checked = 0
        for _ in range(3000):
            xs = random_boxes(rng, rng.randint(0, 5))
            ys = random_boxes(rng, rng.randint(0, 5))
            zs = random_boxes(rng, rng.randint(0, 5))
            if (not xs and not ys) or (not ys and not zs) or (not xs and not zs):
                continue
            checked += 1
            d_xy = self.metric_lrp(xs, ys)
            d_xz = self.metric_lrp(xs, zs)
            d_zy = self.metric_lrp(zs, ys)
            assert d_xy <= d_xz + d_zy + 1e-9, (
                f"triangle violation: d(X,Y)={d_xy} > d(X,Z)+d(Z,Y)={d_xz + d_zy}"
            )
        assert checked > 2000

    def test_identity(self):
        rng = random.Random(63)
        boxes = random_boxes(rng, 5)
        assert self.metric_lrp(boxes, list(boxes)) == 0.0
