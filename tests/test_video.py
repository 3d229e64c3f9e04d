import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpeval import video
from lrpeval import (
    BoundingBox,
    FrameDetections,
    StreamDetection,
    bayes_update,
    emit_stream,
    hungarian,
    link_frames,
    molrp,
    run_stream,
    stream_to_detections,
    track_stream,
)
from oracles import class_scores_check, link_cost
from synth import StreamClassSpec, generate_stream


def sd(class_id, box, score, n_slots=3, slot=0):
    rest = (1.0 - score) / (n_slots - 1)
    scores = tuple(score if i == slot else rest for i in range(n_slots))
    return StreamDetection(class_id, box, scores)


def box_at(i: int, side: float = 10.0) -> BoundingBox:
    return BoundingBox(i * 100.0, 0.0, i * 100.0 + side, side)


_SCORE_BIN = st.one_of(
    st.sampled_from([0, 1, 0.0, 1.0, 0.5, 0.25, 0.75, -0.0, 1e-10, -1e-10, 1.0 + 1e-10,
                     math.nan, math.inf, -math.inf, True, False]),
    st.floats(-0.5, 1.5),
)


class TestStreamDetection:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.lists(_SCORE_BIN, max_size=5).map(tuple),
        st.sampled_from([(0.25, 0.75), (1, 0), (True, False), (0.2, 0.3, 0.5), (1.0,),
                         (0.1 + 0.2, 0.7), (0.5, 0.5 + 2e-9), (math.nan, 1.0)]),
    ))
    def test_checks_match_per_entry_reference(self, class_scores):
        # Numeric entries only: the loader rejects anything else first.
        expected = class_scores_check(class_scores)
        if expected is None:
            assert StreamDetection("cat", box_at(0), class_scores).class_scores == class_scores
        else:
            with pytest.raises(ValueError) as info:
                StreamDetection("cat", box_at(0), class_scores)
            assert str(info.value) == str(expected)

    def test_score_is_peak_of_distribution(self):
        det = sd("cat", box_at(0), 0.8)
        assert det.score == 0.8

    def test_rejects_unnormalized_distribution(self):
        with pytest.raises(ValueError, match="sum to 1"):
            StreamDetection("cat", box_at(0), (0.5, 0.4))
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            StreamDetection("cat", box_at(0), (1.2, -0.2))
        with pytest.raises(ValueError, match="empty"):
            StreamDetection("cat", box_at(0), ())


class TestBayesUpdate:
    def test_uninformative_prior_returns_likelihood(self):
        for q in (0.1, 0.25, 0.5, 0.9):
            assert bayes_update(0.5, q) == pytest.approx(q, abs=1e-12)

    def test_hand_computed_values(self):
        assert bayes_update(0.6, 0.9) == pytest.approx(0.54 / 0.58)
        assert bayes_update(0.9, 0.9) == pytest.approx(0.81 / 0.82)

    def test_symmetry_on_grid(self):
        grid = [i / 100 for i in range(1, 100)]
        for p in grid:
            for q in grid:
                assert bayes_update(p, q) == bayes_update(q, p)

    def test_monotone_in_each_argument(self):
        grid = [i / 100 for i in range(1, 100)]
        for fixed in (0.2, 0.5, 0.8):
            values = [bayes_update(fixed, q) for q in grid]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_evidence_above_chance_raises_score(self):
        for p in (0.1, 0.4, 0.6, 0.9):
            assert bayes_update(p, 0.7) > p
            assert bayes_update(p, 0.3) < p
            assert bayes_update(p, 0.5) == pytest.approx(p, abs=1e-12)

    def test_repeated_updates_converge_to_one(self):
        score = 0.6
        history = [score]
        for _ in range(5):
            score = bayes_update(score, 0.6)
            history.append(score)
        assert all(a < b for a, b in zip(history, history[1:]))
        assert history[-1] > 0.9

    def test_boundary_inputs_are_clamped(self):
        assert 0.0 < bayes_update(0.0, 0.5) < 1.0
        assert 0.0 < bayes_update(1.0, 1.0) < 1.0


class TestLinkFrames:
    def test_identical_frames_link_identically(self):
        frame = FrameDetections(0, (sd(1, box_at(0), 0.8), sd(2, box_at(1), 0.7, slot=1)))
        nxt = FrameDetections(1, frame.detections)
        assert link_frames(frame, nxt) == [(0, 0), (1, 1)]

    def test_crossed_boxes_match_brute_force(self):
        a = FrameDetections(0, (sd(1, box_at(0), 0.8), sd(1, box_at(1), 0.8)))
        b = FrameDetections(1, (sd(1, box_at(1), 0.8), sd(1, box_at(0), 0.8)))
        links = link_frames(a, b)
        costs = {
            (i, j): link_cost(a.detections[i], b.detections[j], 0.7)
            for i in range(2)
            for j in range(2)
        }
        identity = costs[(0, 0)] + costs[(1, 1)]
        crossed = costs[(0, 1)] + costs[(1, 0)]
        assert crossed < identity
        assert links == [(0, 1), (1, 0)]

    def test_orthogonal_disjoint_detections_sever(self):
        a = FrameDetections(0, (StreamDetection(1, box_at(0), (1.0, 0.0)),))
        b = FrameDetections(1, (StreamDetection(2, box_at(5), (0.0, 1.0)),))
        assert link_frames(a, b) == []

    def test_empty_frames_yield_no_links(self):
        empty = FrameDetections(0, ())
        full = FrameDetections(1, (sd(1, box_at(0), 0.9),))
        assert link_frames(empty, full) == []
        assert link_frames(full, empty) == []

    def test_alpha_one_uses_box_overlap_only(self):
        # same boxes, orthogonal class distributions: alpha=1 still links
        a = FrameDetections(0, (StreamDetection(1, box_at(0), (1.0, 0.0)),))
        b = FrameDetections(1, (StreamDetection(2, box_at(0), (0.0, 1.0)),))
        assert link_frames(a, b, alpha=1.0) == [(0, 0)]
        assert link_frames(a, b, alpha=0.0) == []

    def test_mismatched_class_score_lengths_raise(self):
        a = FrameDetections(0, (StreamDetection(1, box_at(0), (1.0, 0.0)),))
        b = FrameDetections(1, (StreamDetection(1, box_at(0), (1.0, 0.0, 0.0)),))
        with pytest.raises(ValueError, match="differ in length: 2 vs 3"):
            link_frames(a, b)


# Corners on a 5-pixel grid with sides of 5 or 10: disjoint, touching,
# overlapping and identical boxes are all common.
_CORNER = st.sampled_from((0.0, 5.0, 10.0, 15.0))
_SIDE = st.sampled_from((5.0, 10.0))
_GRID_BOXES = st.builds(
    lambda x, y, w, h: BoundingBox(x, y, x + w, y + h), _CORNER, _CORNER, _SIDE, _SIDE
)
_DISTRIBUTIONS = st.sampled_from(
    ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.5, 0.0), (0.2, 0.3, 0.5), (0.7, 0.1, 0.2))
)
_FRAME = st.lists(st.builds(StreamDetection, st.just(1), _GRID_BOXES, _DISTRIBUTIONS),
                  min_size=1, max_size=6)


class TestLinkFramesProperty:
    # Cutoff 0.5 equals many grid costs exactly, so any drift in a cost shows.
    @settings(max_examples=300, deadline=None)
    @given(_FRAME, _FRAME, st.sampled_from((0.0, 0.7, 1.0)),
           st.sampled_from((0.0, 0.3, 0.5, 0.7, 1.0)))
    def test_matches_hungarian_over_reference_costs(self, prev, curr, alpha, cutoff):
        cost = [[link_cost(p, c, alpha) for c in curr] for p in prev]
        expected = [(i, j) for i, j in hungarian(cost) if cost[i][j] <= cutoff]
        got = link_frames(FrameDetections(0, tuple(prev)), FrameDetections(1, tuple(curr)),
                          alpha, cutoff)
        assert got == expected


class TestRunStream:
    def test_single_frame_is_pure_thresholding(self):
        frame = FrameDetections(
            0, (sd(1, box_at(0), 0.8), sd(1, box_at(1), 0.4), sd(2, box_at(2), 0.6, slot=1))
        )
        result = run_stream([frame], {1: 0.5, 2: 0.5})
        assert len(result.frames) == 1
        out = result.frames[0].detections
        assert [d.score for d in out] == [0.8, 0.6]
        assert out[0] == frame.detections[0]  # scores untouched

    def test_static_scene_scores_increase(self):
        frames = [
            FrameDetections(i, (sd(1, box_at(0), 0.6),)) for i in range(5)
        ]
        result = run_stream(frames, {}, default_threshold=0.0)
        scores = [f.detections[0].score for f in result.frames]
        assert all(a < b for a, b in zip(scores, scores[1:]))
        expected = 0.6
        for got in scores[1:]:
            expected = bayes_update(expected, 0.6)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_per_class_thresholds_filter_independently(self):
        frame = FrameDetections(0, (sd("a", box_at(0), 0.3, n_slots=4), sd("b", box_at(1), 0.3, n_slots=4, slot=1)))
        result = run_stream([frame], {"a": 0.27, "b": 0.91})
        kept = [d.class_id for d in result.frames[0].detections]
        assert kept == ["a"]

    def test_linked_detections_keep_one_tubelet(self):
        frames = [FrameDetections(i, (sd(1, box_at(0), 0.7),)) for i in range(4)]
        result = run_stream(frames, {}, default_threshold=0.0)
        assert len(result.tubelets) == 1
        assert len(result.tubelets[0].boxes) == 4
        assert len(result.tubelets[0].score_history) == 4

    def test_severed_chain_starts_fresh_tubelet(self):
        # disjoint boxes and slightly different distributions: cost above cutoff
        frames = [
            FrameDetections(0, (sd(1, box_at(0), 0.7),)),
            FrameDetections(1, (sd(1, box_at(50), 0.65),)),
        ]
        result = run_stream(frames, {}, default_threshold=0.0)
        assert len(result.tubelets) == 2
        assert result.frames[1].detections[0].score == 0.65  # raw, not updated

    def test_dominance_flag_set_after_enough_rise(self):
        frames = [FrameDetections(i, (sd(1, box_at(0), 0.75),)) for i in range(4)]
        result = run_stream(frames, {}, default_threshold=0.0)
        tube = result.tubelets[0]
        # 0.75 -> 0.9 -> 0.964...: rise over 0.2 by frame 3
        assert tube.dominant
        short = run_stream(frames[:2], {}, default_threshold=0.0)
        assert not short.tubelets[0].dominant

    def test_rescored_distribution_stays_normalized(self):
        frames = [FrameDetections(i, (sd(1, box_at(0), 0.6),)) for i in range(3)]
        result = run_stream(frames, {}, default_threshold=0.0)
        for frame in result.frames:
            for det in frame.detections:
                assert abs(sum(det.class_scores) - 1.0) <= 1e-9
                assert det.score == max(det.class_scores)

    def test_emitted_peak_is_the_tubelet_score(self):
        # Proportional scaling alone would emit (0.35, 0.52, 0.13), scored 0.52.
        frames = [
            FrameDetections(0, (StreamDetection(1, box_at(0), (0.35, 0.33, 0.32)),)),
            FrameDetections(1, (StreamDetection(1, box_at(0), (0.5, 0.4, 0.1)),)),
        ]
        result = run_stream(frames, {}, default_threshold=0.3)
        (tube,) = result.tubelets
        emitted = result.frames[1].detections[0]
        assert tube.updated_score == pytest.approx(0.35, abs=1e-12)
        assert emitted.score == tube.updated_score
        assert emitted.class_scores == pytest.approx((0.35, 0.35, 0.3), abs=1e-12)

    def test_capping_keeps_proportions_of_the_other_bins(self):
        frames = [
            FrameDetections(0, (StreamDetection(1, box_at(0), (0.3, 0.2, 0.2, 0.15, 0.15)),)),
            FrameDetections(1, (StreamDetection(1, box_at(0), (0.45, 0.4, 0.06, 0.05, 0.04)),)),
        ]
        result = run_stream(frames, {}, default_threshold=0.0)
        score = result.tubelets[0].updated_score
        emitted = result.frames[1].detections[0]
        assert emitted.score == score
        # bin 1 is capped at the score; bins 2 to 4 keep their 6:5:4 ratio
        assert emitted.class_scores[:2] == (score, score)
        assert max(emitted.class_scores[2:]) < score
        assert emitted.class_scores[2] / emitted.class_scores[4] == pytest.approx(1.5)
        assert emitted.class_scores[3] / emitted.class_scores[4] == pytest.approx(1.25)
        assert abs(sum(emitted.class_scores) - 1.0) <= 1e-9

    def test_score_below_uniform_emits_uniform_distribution(self):
        # 0.3 then 0.3 updates to about 0.155, below 1/3: no distribution peaks there
        frames = [FrameDetections(i, (sd(1, box_at(0), 0.3, n_slots=3),)) for i in range(2)]
        result = run_stream(frames, {}, default_threshold=0.0)
        assert result.tubelets[0].updated_score < 1 / 3
        assert result.frames[1].detections[0].class_scores == (1 / 3,) * 3

    def test_track_once_emit_per_threshold_map(self):
        frames, _ = generate_stream(
            [StreamClassSpec(1, n_objects=2, tp_score=0.7, fp_score=0.3, fp_per_frame=1),
             StreamClassSpec(2, n_objects=1, tp_score=0.5)],
            n_frames=6, seed=5, score_noise=0.05,
        )
        tracked = track_stream(frames, alpha=0.5, cost_cutoff=0.6)
        for thresholds, default in (({}, 0.5), ({1: 0.6, 2: 0.2}, 0.5), ({}, 0.0)):
            emitted = emit_stream(tracked, thresholds, default)
            direct = run_stream(frames, thresholds, 0.5, 0.6, default)
            assert emitted.frames == direct.frames
            assert [(t.boxes, t.score_history) for t in emitted.tubelets] == [
                (t.boxes, t.score_history) for t in direct.tubelets
            ]

    def test_each_linked_detection_rescored_once_for_any_maps(self, monkeypatch):
        frames, _ = generate_stream(
            [StreamClassSpec(1, n_objects=3, tp_score=0.7, fp_score=0.3, fp_per_frame=2),
             StreamClassSpec(2, n_objects=2, tp_score=0.45)],
            n_frames=8, seed=11, score_noise=0.05,
        )
        calls = []
        rescored = video._rescored
        monkeypatch.setattr(video, "_rescored", lambda det, s: calls.append(det) or rescored(det, s))
        tracked = track_stream(frames)
        maps = (({}, 0.5), ({1: 0.6, 2: 0.3}, 0.5), ({}, 0.0))
        results = [emit_stream(tracked, thresholds, default) for thresholds, default in maps]
        n_linked = sum(len(t.boxes) - 1 for t in tracked.tubelets)
        assert n_linked > 0 and len(calls) == n_linked
        monkeypatch.undo()

        # Reference: each tubelet entry after its first is a linked detection
        # with that entry's score, rescored afresh for every map.
        entries = {
            (index, id(box)): (score, k > 0)
            for t in tracked.tubelets
            for k, ((index, box), score) in enumerate(zip(t.boxes, t.score_history))
        }
        for (thresholds, default), result in zip(maps, results):
            expected = []
            for frame in frames:
                kept = []
                for det in frame.detections:
                    score, linked = entries[frame.frame_index, id(det.box)]
                    if score >= thresholds.get(det.class_id, default):
                        kept.append(video._rescored(det, score) if linked else det)
                expected.append(FrameDetections(frame.frame_index, tuple(kept)))
            assert list(result.frames) == expected

    def test_track_checks_link_params_before_any_frame(self):
        frame = FrameDetections(0, (sd(1, box_at(0), 0.8),))
        with pytest.raises(ValueError, match="alpha"):
            emit_stream(track_stream([frame], alpha=5.0), {}, math.nan)
        for alpha, cutoff in ((5.0, 0.7), (math.nan, 0.7), (0.7, math.nan)):
            with pytest.raises(ValueError, match="alpha|cost cutoff"):
                track_stream([frame], alpha=alpha, cost_cutoff=cutoff)

    @pytest.mark.parametrize("default", [math.nan, -0.1, 1.5, math.inf])
    def test_emit_rejects_default_threshold_outside_unit_interval(self, default):
        tracked = track_stream([FrameDetections(0, (sd(1, box_at(0), 0.8),))])
        with pytest.raises(ValueError, match="default threshold must be in"):
            emit_stream(tracked, {}, default)

    def test_rejects_non_increasing_frame_indices(self):
        frames = [
            FrameDetections(1, ()),
            FrameDetections(1, ()),
        ]
        with pytest.raises(ValueError, match="strictly increasing"):
            run_stream(frames, {})

    def test_determinism(self):
        frames, _ = generate_stream(
            [StreamClassSpec(1, n_objects=2, tp_score=0.7, fp_score=0.3, fp_per_frame=1)],
            n_frames=5,
            seed=7,
            score_noise=0.02,
        )
        a = run_stream(frames, {1: 0.5})
        b = run_stream(frames, {1: 0.5})
        assert a.frames == b.frames


class TestClassSpecificThresholding:
    def test_devised_thresholds_beat_general_threshold(self):
        # class "low" peaks around 0.42: a general 0.5 cut silences it while
        # its designed threshold 0.3 keeps early frames; class "high" carries
        # junk at 0.6 that its designed threshold 0.8 removes.
        specs = [
            StreamClassSpec("low", n_objects=2, tp_score=0.42),
            StreamClassSpec("high", n_objects=2, tp_score=0.92, fp_score=0.6, fp_per_frame=2),
        ]
        frames, gts = generate_stream(specs, n_frames=6, seed=3, score_noise=0.01)
        class_ids = ["low", "high"]

        general = run_stream(frames, {}, default_threshold=0.5)
        specific = run_stream(frames, {"low": 0.3, "high": 0.8}, default_threshold=0.5)

        general_eval = molrp(gts, stream_to_detections(general.frames), class_ids, 0.5)
        specific_eval = molrp(gts, stream_to_detections(specific.frames), class_ids, 0.5)

        for cid in class_ids:
            assert (
                specific_eval.per_class[cid].olrp <= general_eval.per_class[cid].olrp
            ), cid
        # the low-threshold class is where the general cut actually hurts
        assert specific_eval.per_class["low"].olrp < general_eval.per_class["low"].olrp
        assert general_eval.per_class["low"].olrp == 1.0
        assert specific_eval.molrp < general_eval.molrp
