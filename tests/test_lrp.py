import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpeval import (
    BoundingBox,
    DasaParams,
    MatchResult,
    UndefinedLrp,
    dasa,
    lrp_components,
    lrp_total,
    match_optimal,
)
from oracles import weighted_form_total

def unpack_box(code: int) -> BoundingBox:
    """A box in the range `oracles.random_box` draws from (corner in
    [0, 20]^2, sides in [0.5, 10]) on a 1/64 grid for an odd code, and on
    the unit grid, where boxes repeat and tie exactly, for an even one."""
    code, fine = divmod(code, 2)
    scale, side_min = (64, 0.5) if fine else (1, 1)
    n_corner, n_side = 20 * scale + 1, round((10 - side_min) * scale) + 1
    code, x = divmod(code, n_corner)
    code, y = divmod(code, n_corner)
    code, w = divmod(code, n_side)
    h = code % n_side
    return BoundingBox.from_xywh(x / scale, y / scale, side_min + w / scale, side_min + h / scale)


# One integer draw per box: drawing its four values apart, and the grid
# besides, took most of this module's run time. The odd codes cover every
# box of the 1/64 grid, (1281 * 609)^2 of them.
BOXES = st.integers(0, 2 * (1281 * 609) ** 2 - 1).map(unpack_box)


@st.composite
def box_sets(draw, max_size: int, n_sets: int = 2):
    """n_sets lists of up to max_size boxes, at most one of them empty, so
    that every pair of them has something to evaluate."""
    empty = draw(st.integers(-1, n_sets - 1))  # -1: none is empty
    return [
        [] if k == empty else draw(st.lists(BOXES, min_size=1, max_size=max_size))
        for k in range(n_sets)
    ]


# Any float box in the range `oracles.random_box` draws from: corner in
# [0, 20]^2, sides in [0.5, 10]. It holds every box of BOXES.
REAL_BOXES = st.builds(
    lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
    st.floats(0.0, 20.0), st.floats(0.0, 20.0), st.floats(0.5, 10.0), st.floats(0.5, 10.0),
)


@st.composite
def match_results(draw, taus, max_size: int = 20):
    """A tau drawn from taus and a consistent MatchResult at it with
    something to evaluate: up to max_size ground truths and detections,
    each TP overlap in [tau, 1]."""
    tau = draw(st.sampled_from(taus))
    n_gt, n_det = draw(st.integers(0, max_size)), draw(st.integers(0, max_size))
    n_tp = draw(st.integers(0, min(n_gt, n_det)))
    overlaps = draw(st.lists(st.floats(tau, 1.0), min_size=n_tp, max_size=n_tp))
    pairs = tuple((i, i, overlap) for i, overlap in enumerate(overlaps))
    return tau, MatchResult(pairs, n_tp, n_det - n_tp, n_gt - n_tp)


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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10), st.integers(0, 10))
    def test_one_exactly_when_nothing_matches(self, n_fp, n_fn):
        if n_fp + n_fn == 0:
            return
        m = MatchResult((), 0, n_fp, n_fn)
        assert lrp_total(m, tau=0.5) == 1.0

    def test_zero_only_for_perfect_detection(self):
        m = MatchResult(((0, 0, 1.0),), 1, 0, 0)
        assert lrp_total(m, tau=0.5) == 0.0
        near = MatchResult(((0, 0, 0.999),), 1, 0, 0)
        assert lrp_total(near, tau=0.5) > 0.0

    @settings(max_examples=2000, deadline=None)
    @given(match_results([0.0, 0.25, 0.5, 0.75]))
    def test_range_and_equivalence_on_random_match_results(self, instance):
        tau, m = instance
        if m.n_tp + m.n_fp + m.n_fn == 0:
            return
        bd = lrp_components(m, tau)
        assert 0.0 <= bd.total <= 1.0
        assert abs(bd.total - weighted_form_total(bd)) <= 1e-12
        if m.n_tp == 0:
            assert bd.total == 1.0

    @settings(max_examples=500, deadline=None)
    @given(match_results([0.25, 0.5, 0.75], max_size=10))
    def test_per_box_penalty_decomposition(self, instance):
        # each FP and FN costs exactly 1, each TP costs (1-IoU)/(1-tau) in [0, 1]
        tau, m = instance
        if m.n_tp + m.n_fp + m.n_fn == 0:
            return
        penalties = [(1.0 - ov) / (1.0 - tau) for _, _, ov in m.tp_pairs]
        assert all(0.0 <= p <= 1.0 for p in penalties)
        penalties += [1.0] * (m.n_fp + m.n_fn)
        expected = sum(penalties) / len(penalties)
        assert lrp_total(m, tau) == pytest.approx(expected, abs=1e-12)


class TestDasa:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(REAL_BOXES, min_size=1, max_size=8))
    def test_identical_sets_are_at_distance_zero(self, boxes):
        for p in (1.0, 2.0):
            for c in (0.25, 0.5, 1.0):
                assert dasa(boxes, list(boxes), DasaParams(p=p, c=c)) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(REAL_BOXES, min_size=1, max_size=7))
    def test_empty_against_k_gives_cutoff(self, boxes):
        assert dasa([], boxes, DasaParams(p=1.0, c=0.3)) == pytest.approx(0.3)
        assert dasa(boxes, [], DasaParams(p=2.0, c=0.4)) == pytest.approx(0.4)

    def test_both_empty_is_undefined(self):
        with pytest.raises(UndefinedLrp):
            dasa([], [], DasaParams())

    @settings(max_examples=500, deadline=None)
    @given(box_sets(10))
    def test_reduction_identity_on_random_instances(self, sets):
        xs, ys = sets
        for tau in (0.5, 0.75):
            m = match_optimal(xs, ys, tau)
            z = m.n_tp + m.n_fp + m.n_fn
            total = lrp_total(m, tau)
            e = dasa(xs, ys, DasaParams(p=1.0, c=1.0 - tau))
            scaled = e * max(len(xs), len(ys)) / ((1.0 - tau) * z)
            assert total == pytest.approx(scaled, rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(box_sets(5))
    def test_symmetry(self, sets):
        xs, ys = sets
        params = DasaParams(p=1.0, c=0.5)
        assert dasa(xs, ys, params) == dasa(ys, xs, params)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(REAL_BOXES, min_size=3, max_size=6), st.lists(REAL_BOXES, max_size=3))
    def test_results_are_plain_floats(self, xs, extra):
        ys = [*xs[:3], *extra]
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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(REAL_BOXES, min_size=1, max_size=6))
    def test_accepts_the_smallest_cutoff(self, boxes):
        assert dasa(boxes, boxes, DasaParams(c=0.001)) == 0.0


class TestMetricModeProperties:
    def metric_lrp(self, xs, ys, tau=0.5):
        m = match_optimal(xs, ys, tau)
        return lrp_total(m, tau=tau)

    @settings(max_examples=500, deadline=None)
    @given(box_sets(6))
    def test_symmetry_swaps_fp_fn(self, sets):
        xs, ys = sets
        assert self.metric_lrp(xs, ys) == self.metric_lrp(ys, xs)

    # Every drawn triple is checked: at most one of the sets is empty.
    @settings(max_examples=3000, deadline=None)
    @given(box_sets(5, n_sets=3))
    def test_triangle_inequality_sampled(self, sets):
        xs, ys, zs = sets
        d_xy = self.metric_lrp(xs, ys)
        d_xz = self.metric_lrp(xs, zs)
        d_zy = self.metric_lrp(zs, ys)
        assert d_xy <= d_xz + d_zy + 1e-9, (
            f"triangle violation: d(X,Y)={d_xy} > d(X,Z)+d(Z,Y)={d_xz + d_zy}"
        )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(BOXES, min_size=1, max_size=5))
    def test_identity(self, boxes):
        assert self.metric_lrp(boxes, list(boxes)) == 0.0
