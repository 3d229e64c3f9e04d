"""Frame-to-frame box linking with Bayesian confidence updating.

A detection stream is processed online: each frame's boxes are associated
with the previous frame's boxes by optimal assignment over a blended
box-overlap / class-distribution cost, linked detections have their
confidence updated by a two-hypothesis Bayes rule (prior = running
tubelet score, likelihood = current detection score), and the emitted
stream is filtered by per-class score thresholds. Tubelet state always
evolves on the unfiltered detections, so runs with different thresholds
stay comparable; the thresholds shape only the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .geometry import _NUMBER_TYPES, BoundingBox
from .matching import ClassId, Detection, hungarian

DEFAULT_ALPHA = 0.7
DEFAULT_COST_CUTOFF = 0.7
DOMINANCE_RISE = 0.2
_SCORE_EPS = 1e-6


@dataclass(frozen=True, slots=True)
class StreamDetection:
    """A detection inside a video frame, carrying its full per-class
    confidence distribution. The scalar score is the largest entry."""

    class_id: ClassId
    box: BoundingBox
    class_scores: tuple[float, ...]

    def __post_init__(self):
        scores = self.class_scores
        if not scores:
            raise ValueError("class_scores must not be empty")
        if not _NUMBER_TYPES.issuperset(map(type, scores)):
            raise ValueError(f"class_scores entries must be numbers: {scores}")
        total = sum(scores)
        # A NaN entry passes min and max but makes the sum NaN.
        if not (0.0 <= min(scores) and max(scores) <= 1.0 and total == total):
            raise ValueError(f"class_scores entries must be in [0, 1]: {scores}")
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"class_scores must sum to 1, got {total}")

    @property
    def score(self) -> float:
        return max(self.class_scores)


@dataclass(frozen=True, slots=True)
class FrameDetections:
    """All detections of one frame."""

    frame_index: int
    detections: tuple[StreamDetection, ...]


@dataclass
class Tubelet:
    """A chain of linked detections with a running updated confidence.

    A tubelet becomes "dominant" once its updated score has risen by at
    least DOMINANCE_RISE over the minimum of its history; the flag is
    informational output metadata.
    """

    id: int
    class_id: ClassId
    boxes: list[tuple[int, BoundingBox]] = field(default_factory=list)
    score_history: list[float] = field(default_factory=list)
    updated_score: float = 0.0
    dominant: bool = False


def bayes_update(prior: float, likelihood: float) -> float:
    """Two-hypothesis Bayes posterior of "object present".

    Both inputs are clamped slightly inside (0, 1). The update is
    symmetric in its arguments, increasing in each, and leaves the
    likelihood untouched when the prior is uninformative (0.5).
    """
    p = min(max(prior, _SCORE_EPS), 1.0 - _SCORE_EPS)
    q = min(max(likelihood, _SCORE_EPS), 1.0 - _SCORE_EPS)
    joint = p * q
    return joint / (joint + (1.0 - p) * (1.0 - q))


def _link_costs(prev: Sequence[StreamDetection], curr: Sequence[StreamDetection], alpha: float):
    """Matrix of alpha * (1 - IoU) + (1 - alpha) * L1 / 2 over all
    (prev, curr) pairs: box distance blended with class-distribution
    distance, in [0, 1]. Every cell takes the float steps of the scalar
    formula in the same order, the L1 sum accumulated bin by bin."""
    import numpy as np

    n_bins = len(prev[0].class_scores)
    for det in (*prev, *curr):
        if len(det.class_scores) != n_bins:
            raise ValueError(
                f"class score vectors differ in length: {n_bins} vs {len(det.class_scores)}"
            )

    def rows(dets):
        return np.array(
            [(d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max, *d.class_scores) for d in dets],
            dtype=float,
        )

    # Features on axis 1: x_min, y_min, x_max, y_max, then the class bins.
    p, c = rows(prev)[:, :, None], rows(curr).T[None, :, :]
    iw = np.minimum(p[:, 2], c[:, 2]) - np.maximum(p[:, 0], c[:, 0])
    ih = np.minimum(p[:, 3], c[:, 3]) - np.maximum(p[:, 1], c[:, 1])
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    area_p = (p[:, 2] - p[:, 0]) * (p[:, 3] - p[:, 1])
    area_c = (c[:, 2] - c[:, 0]) * (c[:, 3] - c[:, 1])
    overlap = inter / (area_p + area_c - inter)
    l1 = np.zeros_like(overlap)
    for k in range(4, 4 + n_bins):
        l1 += np.abs(p[:, k] - c[:, k])
    return alpha * (1.0 - overlap) + (1.0 - alpha) * 0.5 * l1


def check_link_params(alpha: float, cost_cutoff: float) -> None:
    """Reject an alpha outside [0, 1], and a NaN cost cutoff, under which
    every pair would be severed without a word."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if cost_cutoff != cost_cutoff:
        raise ValueError(f"cost cutoff must be a number, got {cost_cutoff}")


def link_frames(
    prev: FrameDetections,
    curr: FrameDetections,
    alpha: float = DEFAULT_ALPHA,
    cost_cutoff: float = DEFAULT_COST_CUTOFF,
) -> list[tuple[int, int]]:
    """Associate two frames' detections; returns (prev index, curr index)
    pairs. Assigned pairs costing more than cost_cutoff are severed."""
    check_link_params(alpha, cost_cutoff)
    if not prev.detections or not curr.detections:
        return []
    cost = _link_costs(prev.detections, curr.detections, alpha)
    return [(i, j) for i, j in hungarian(cost) if cost[i, j] <= cost_cutoff]


def _rescored(det: StreamDetection, new_score: float) -> StreamDetection:
    """Rewrite the class distribution so its peak equals new_score.

    Non-peak mass is scaled proportionally (or spread uniformly when the
    original peak was exactly 1 with other bins present). Where that
    lifts a bin above new_score, such bins are capped at new_score and
    the rest of the mass is spread proportionally over the others,
    repeating until none exceeds it. A one-bin distribution cannot
    represent a score below 1 and is left unchanged; below 1/len(scores)
    no distribution peaks at new_score, and the uniform one is emitted.
    """
    scores = det.class_scores
    n = len(scores)
    if n == 1:
        return det
    k = max(range(n), key=scores.__getitem__)
    rest = 1.0 - scores[k]
    if rest > 0.0:
        scale = (1.0 - new_score) / rest
        new = tuple(new_score if i == k else v * scale for i, v in enumerate(scores))
    else:
        fill = (1.0 - new_score) / (n - 1)
        new = tuple(new_score if i == k else fill for i in range(n))
    if max(new) > new_score:
        new = _capped(scores, k, new_score)
    return StreamDetection(det.class_id, det.box, new)


def _capped(scores: tuple[float, ...], k: int, new_score: float) -> tuple[float, ...]:
    """The distribution peaking at new_score (in bin k and any capped
    bin) whose uncapped bins keep the proportions of scores."""
    n = len(scores)
    if new_score < 1.0 / n:
        return (1.0 / n,) * n
    capped, free = {k}, [i for i in range(n) if i != k]
    while free:
        left = 1.0 - new_score * len(capped)
        mass = sum(scores[i] for i in free)
        new = {i: scores[i] * left / mass if mass > 0.0 else left / len(free) for i in free}
        over = {i for i in free if new[i] > new_score}
        if not over:
            break
        capped |= over
        free = [i for i in free if i not in over]
    return tuple(new_score if i in capped else new[i] for i in range(n))


@dataclass(frozen=True)
class StreamResult:
    """Filtered, rescored frames plus the tubelet bookkeeping behind them."""

    frames: tuple[FrameDetections, ...]
    tubelets: tuple[Tubelet, ...]


@dataclass(frozen=True)
class TrackedStream:
    """The threshold-free outcome of tracking a stream: each frame's
    detections as they are emitted (a linked one with its distribution
    rescored to its Bayes-updated score, one that starts a fresh tubelet
    as given), the score each is filtered by, and the tubelets."""

    frames: tuple[FrameDetections, ...]
    scores: tuple[tuple[float, ...], ...]
    tubelets: tuple[Tubelet, ...]


def track_stream(
    frames: Sequence[FrameDetections],
    alpha: float = DEFAULT_ALPHA,
    cost_cutoff: float = DEFAULT_COST_CUTOFF,
) -> TrackedStream:
    """Link a detection stream into tubelets, once for any thresholds.

    Each frame is associated with the previous raw frame; linked
    detections continue their tubelet with a Bayes-updated score and are
    rescored to it, the rest start fresh tubelets at their raw score.
    """
    check_link_params(alpha, cost_cutoff)
    for prev_f, curr_f in zip(frames, frames[1:]):
        if curr_f.frame_index <= prev_f.frame_index:
            raise ValueError(
                f"frame indices must be strictly increasing: "
                f"{prev_f.frame_index} then {curr_f.frame_index}"
            )

    tubelets: list[Tubelet] = []
    prev_frame: FrameDetections | None = None
    prev_tubelets: dict[int, Tubelet] = {}
    out_frames, scores = [], []
    for frame in frames:
        links: dict[int, int] = {}
        if prev_frame is not None:
            links = {c: p for p, c in link_frames(prev_frame, frame, alpha, cost_cutoff)}
        curr_tubelets: dict[int, Tubelet] = {}
        out_dets, frame_scores = [], []
        for di, det in enumerate(frame.detections):
            parent = prev_tubelets.get(links.get(di, -1))
            if parent is not None:
                tub = parent
                new_score = bayes_update(tub.updated_score, det.score)
                tub.class_id = det.class_id
            else:
                tub = Tubelet(id=len(tubelets), class_id=det.class_id)
                tubelets.append(tub)
                new_score = det.score
            out_dets.append(det if parent is None else _rescored(det, new_score))
            frame_scores.append(new_score)
            tub.boxes.append((frame.frame_index, det.box))
            tub.score_history.append(new_score)
            tub.updated_score = new_score
            if new_score - min(tub.score_history) >= DOMINANCE_RISE:
                tub.dominant = True
            curr_tubelets[di] = tub
        out_frames.append(FrameDetections(frame.frame_index, tuple(out_dets)))
        scores.append(tuple(frame_scores))
        prev_frame = frame
        prev_tubelets = curr_tubelets
    return TrackedStream(tuple(out_frames), tuple(scores), tuple(tubelets))


def emit_stream(
    tracked: TrackedStream,
    thresholds: Mapping[ClassId, float],
    default_threshold: float = 0.5,
) -> StreamResult:
    """Keep the tracked detections whose updated score reaches their
    class threshold (default_threshold, in [0, 1], for unlisted classes);
    linked ones come out with their distribution rescored to that score."""
    if not 0.0 <= default_threshold <= 1.0:
        raise ValueError(f"default threshold must be in [0, 1], got {default_threshold}")
    out_frames = []
    for frame, frame_scores in zip(tracked.frames, tracked.scores):
        kept = tuple(
            det for det, score in zip(frame.detections, frame_scores)
            if score >= thresholds.get(det.class_id, default_threshold)
        )
        out_frames.append(FrameDetections(frame.frame_index, kept))
    return StreamResult(tuple(out_frames), tracked.tubelets)


def run_stream(
    frames: Sequence[FrameDetections],
    thresholds: Mapping[ClassId, float],
    alpha: float = DEFAULT_ALPHA,
    cost_cutoff: float = DEFAULT_COST_CUTOFF,
    default_threshold: float = 0.5,
) -> StreamResult:
    """Link, rescore and threshold a detection stream: `track_stream`
    followed by `emit_stream`. To filter one stream under several
    threshold maps, track it once and emit once per map."""
    return emit_stream(track_stream(frames, alpha, cost_cutoff), thresholds, default_threshold)


def stream_to_detections(frames: Sequence[FrameDetections]) -> list[Detection]:
    """Flatten stream frames into detections (image id = frame index) so
    the standard evaluation machinery applies."""
    return [
        Detection(frame.frame_index, det.class_id, det.box, det.score)
        for frame in frames
        for det in frame.detections
    ]
