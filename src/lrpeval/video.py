"""Frame-to-frame box linking with Bayesian confidence updating.

A detection stream is processed online: each frame's boxes are associated
with the previous frame's boxes by optimal assignment over a blended
box-overlap / class-distribution cost, linked detections have their
confidence updated by a two-hypothesis Bayes rule (prior = the tracked
score of the previous-frame partner, likelihood = current detection
score), and the emitted stream is filtered by per-class score
thresholds. A chain of linked detections is a tubelet; the tracker keeps
only the previous frame's scores and tubelet indices, and each
tubelet's length. Tracking always runs on the unfiltered detections, so
runs with different thresholds stay comparable; the thresholds shape
only the output.

Link rule: the assignment is solved over all (previous, current) pairs,
then an assigned pair is severed if it costs more than the cutoff or its
boxes do not overlap (IoU 0): far-apart boxes never link, however alike
their class distributions, as SORT's IoU floor has it. A pair of boxes
that do not overlap costs alpha + (1 - alpha) * L1 / 2, its IoU-0 value,
so IoU is computed only for the pairs that a sort-and-sweep on x_min and
exact corner comparisons let through.

Link costs: a frame pair's cost rows come from one comprehension, compiled
once per distribution width from source that spells out |p_0 - c_0| +
|p_1 - c_1| + ... left to right, the scalar sum's float order, so every
cost keeps its bits. The source is built from bin indices alone, so `exec`
runs nothing taken from the input. One expression adds at most 32 bins
(`_CHUNK_BINS`); wider sums add each further chunk to a running total,
since `compile` cannot nest a chain of thousands of terms.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from itertools import compress
from math import inf
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

from .geometry import _NUMBER_TYPES, BoundingBox, _checked_make, _corners, _ious, ordered_sum
from .matching import ClassId, _assign

DEFAULT_ALPHA = 0.7
DEFAULT_COST_CUTOFF = 0.7
DEFAULT_THRESHOLD = 0.5
_SCORE_EPS = 1e-6
_SUM_TOLERANCE = 1e-9


class _StreamDetectionFields(NamedTuple):
    class_id: ClassId
    box: BoundingBox
    class_scores: tuple[float, ...]


class StreamDetection(_StreamDetectionFields):
    """A detection inside a video frame, carrying its full per-class
    confidence distribution. The scalar score is the largest entry."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, class_id: ClassId, box: BoundingBox, class_scores: tuple[float, ...]):
        if not class_scores:
            raise ValueError("class_scores must not be empty")
        if not _NUMBER_TYPES.issuperset(map(type, class_scores)):
            raise ValueError(f"class_scores entries must be numbers: {class_scores}")
        total = ordered_sum(class_scores)
        # A NaN entry passes min and max but makes the sum NaN.
        if not (0.0 <= min(class_scores) and max(class_scores) <= 1.0 and total == total):
            raise ValueError(f"class_scores entries must be in [0, 1]: {class_scores}")
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ValueError(f"class_scores must sum to 1, got {total}")
        if not isinstance(box, BoundingBox):
            raise ValueError(f"stream detection box must be a BoundingBox, got {box!r}")
        return tuple.__new__(cls, (class_id, box, class_scores))

    @property
    def score(self) -> float:
        return max(self.class_scores)


class FrameDetections(NamedTuple):
    """All detections of one frame."""

    frame_index: int
    detections: tuple[StreamDetection, ...]


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


_CHUNK_BINS = 32  # the most bins one `+` chain of a link-cost kernel adds


@cache
def _cost_kernels(n_bins: int):
    """`_link_costs`' kernels for n_bins-bin distributions: `cells(prev,
    curr, alpha, beta)`, the rows alpha + beta * L1 over all pairs of
    distributions, and `l1(p, c)`, one pair's L1."""
    p = ", ".join(f"p{k}" for k in range(n_bins)) + ","
    c = ", ".join(f"c{k}" for k in range(n_bins)) + ","
    sums = [" + ".join(f"abs(p{k} - c{k})" for k in range(lo, min(lo + _CHUNK_BINS, n_bins)))
            for lo in range(0, n_bins, _CHUNK_BINS)]
    sums[1:] = [f"t + {chunk}" for chunk in sums[1:]]
    # `for t in [x]` is a plain assignment inside a comprehension.
    steps = "".join(f" for t in [{s}]" for s in sums)
    source = (
        f"def cells(prev, curr, alpha, beta):\n"
        f"    return [[alpha + beta * t for {c} in curr{steps}] for {p} in prev]\n"
        f"def l1(p, c):\n    {p} = p\n    {c} = c\n"
        + "".join(f"    t = {s}\n" for s in sums)
        + "    return t\n"
    )
    kernels: dict = {}
    exec(source, kernels)
    return kernels["cells"], kernels["l1"]


def _link_costs(
    prev: Sequence[StreamDetection], curr: Sequence[StreamDetection], alpha: float
) -> tuple[list[list[float]], set[tuple[int, int]]]:
    """Rows of alpha * (1 - IoU) + (1 - alpha) * L1 / 2 over all (prev, curr)
    pairs, box distance blended with class-distribution distance in [0, 1],
    and the set of pairs whose IoU is > 0. Every cell equals the scalar
    formula bitwise. One comprehension, compiled once per distribution
    width by `_cost_kernels`, starts each cell at its IoU-0 value alpha +
    beta * L1, beta = (1 - alpha) * 0.5, with L1 = |p_0 - c_0| + |p_1 - c_1|
    + ... added left to right: the scalar sum from 0.0, whose first step
    is exact. Its source is built from bin indices alone, so `exec` runs no
    input. A sum of more than _CHUNK_BINS bins adds each further chunk to a
    running total. Only boxes that pass the x_min sweep and the corner
    comparisons get an IoU (by `_ious`), and only an IoU > 0.0 overwrites
    the cell, with its L1 summed again by the same steps: a sliver whose
    intersection underflows keeps IoU 0."""
    n_bins = len(prev[0].class_scores)
    for det in (*prev, *curr):
        if len(det.class_scores) != n_bins:
            raise ValueError(
                f"class score vectors differ in length: {n_bins} vs {len(det.class_scores)}"
            )
    by_x_min = sorted(((j, *_corners(det.box)) for j, det in enumerate(curr)), key=itemgetter(1))
    x_mins = [row[1] for row in by_x_min]
    cells, l1 = _cost_kernels(n_bins)
    beta = (1.0 - alpha) * 0.5
    curr_scores = [det.class_scores for det in curr]
    cost = cells([det.class_scores for det in prev], curr_scores, alpha, beta)
    overlapping = set()
    for i, (det, row) in enumerate(zip(prev, cost)):
        x1, y1, x2, y2, area = _corners(det.box)
        near = [c for c in by_x_min[:bisect_left(x_mins, x2)]
                if c[3] > x1 and c[2] < y2 and c[4] > y1]
        for overlap, j in _ious(x1, y1, x2, y2, area, near):
            if overlap > 0.0:
                row[j] = alpha * (1.0 - overlap) + beta * l1(det.class_scores, curr_scores[j])
                overlapping.add((i, j))
    return cost, overlapping


def check_link_params(alpha: float, cost_cutoff: float) -> None:
    """Reject an alpha outside [0, 1], and a cost cutoff that is not a finite
    number >= 0: costs are >= 0, so under a negative cutoff or NaN every pair
    would be severed without a word, and JSON cannot record infinity. Costs
    lie in [0, 1], so any cutoff above 1 already severs nothing on cost."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if not 0.0 <= cost_cutoff < inf:  # NaN fails both
        raise ValueError(f"cost cutoff must be a finite number >= 0, got {cost_cutoff}")


def link_frames(
    prev: FrameDetections,
    curr: FrameDetections,
    alpha: float = DEFAULT_ALPHA,
    cost_cutoff: float = DEFAULT_COST_CUTOFF,
) -> list[tuple[int, int]]:
    """Associate two frames' detections; returns (prev index, curr index)
    pairs. Assigned pairs costing more than cost_cutoff, or whose boxes do
    not overlap, are severed."""
    check_link_params(alpha, cost_cutoff)
    if not prev.detections or not curr.detections:
        return []
    cost, overlapping = _link_costs(prev.detections, curr.detections, alpha)
    return [(i, j) for i, j in _assign(cost) if cost[i][j] <= cost_cutoff and (i, j) in overlapping]


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
    # The other bins' real mass may differ from 1 - peak by up to the sum
    # tolerance, and the scaling can push that past it; `_capped` spreads
    # by the real mass.
    if max(new) > new_score or abs(ordered_sum(new) - 1.0) > _SUM_TOLERANCE:
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
        mass = ordered_sum(scores[i] for i in free)
        new = {i: scores[i] * left / mass if mass > 0.0 else left / len(free) for i in free}
        over = {i for i in free if new[i] > new_score}
        if not over:
            break
        capped |= over
        free = [i for i in free if i not in over]
    return tuple(new_score if i in capped else new[i] for i in range(n))


class TrackedStream(NamedTuple):
    """A tracked stream: each frame's detections as they are emitted (a
    linked one with its distribution rescored to its Bayes-updated score,
    one that starts a fresh tubelet as given), the score each is filtered
    by, and the length of each tubelet in detections, in the order of the
    tubelets' first detections, so len(tubelets) is the tubelet count.
    `track_stream` returns every detection; `emit_stream` returns the same
    record with only the kept ones and the same lengths."""

    frames: tuple[FrameDetections, ...]
    scores: tuple[tuple[float, ...], ...]
    tubelets: tuple[int, ...]


def track_stream(
    frames: Sequence[FrameDetections],
    alpha: float = DEFAULT_ALPHA,
    cost_cutoff: float = DEFAULT_COST_CUTOFF,
) -> TrackedStream:
    """Link a detection stream into tubelets, once for any thresholds.

    Each frame is associated with the previous raw frame. A linked
    detection joins its partner's tubelet, takes the Bayes update of the
    partner's tracked score by its own score, and is rescored to it; the
    rest start fresh tubelets at their raw score. Besides the output, only
    the previous frame's tubelet indices and the tubelet lengths are kept.
    """
    check_link_params(alpha, cost_cutoff)
    for prev_f, curr_f in zip(frames, frames[1:]):
        if curr_f.frame_index <= prev_f.frame_index:
            raise ValueError(
                f"frame indices must be strictly increasing: "
                f"{prev_f.frame_index} then {curr_f.frame_index}"
            )

    lengths: list[int] = []
    prev_frame, prev_tubelets = None, []
    out_frames, scores = [], []
    for frame in frames:
        links: dict[int, int] = {}
        if prev_frame is not None:
            links = {c: p for p, c in link_frames(prev_frame, frame, alpha, cost_cutoff)}
        out_dets, frame_scores, frame_tubelets = [], [], []
        for di, det in enumerate(frame.detections):
            p = links.get(di)
            if p is None:
                tub, new_score = len(lengths), det.score
                lengths.append(0)
                out_dets.append(det)
            else:
                tub, new_score = prev_tubelets[p], bayes_update(scores[-1][p], det.score)
                out_dets.append(_rescored(det, new_score))
            lengths[tub] += 1
            frame_scores.append(new_score)
            frame_tubelets.append(tub)
        out_frames.append(FrameDetections(frame.frame_index, tuple(out_dets)))
        scores.append(tuple(frame_scores))
        prev_frame, prev_tubelets = frame, frame_tubelets
    return TrackedStream(tuple(out_frames), tuple(scores), tuple(lengths))


def check_threshold(value: float) -> None:
    """Reject a score threshold outside [0, 1], the range of every score."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"default threshold must be in [0, 1], got {value}")


def keep_masks(tracked: TrackedStream, thresholds: Mapping[ClassId, float],
               default_threshold: float = DEFAULT_THRESHOLD) -> list[list[bool]]:
    """Per frame, whether each tracked detection's updated score reaches
    its class threshold (default_threshold, in [0, 1], for unlisted
    classes)."""
    check_threshold(default_threshold)
    return [
        [score >= thresholds.get(det.class_id, default_threshold)
         for det, score in zip(frame.detections, frame_scores)]
        for frame, frame_scores in zip(tracked.frames, tracked.scores)
    ]


def emit_stream(
    tracked: TrackedStream,
    thresholds: Mapping[ClassId, float],
    default_threshold: float = DEFAULT_THRESHOLD,
) -> TrackedStream:
    """Keep the tracked detections that `keep_masks` keeps, with their
    scores and the same tubelet lengths; linked ones come out with their
    distribution rescored to that score."""
    masks = keep_masks(tracked, thresholds, default_threshold)
    return TrackedStream(
        tuple(FrameDetections(frame.frame_index, tuple(compress(frame.detections, keep)))
              for frame, keep in zip(tracked.frames, masks)),
        tuple(tuple(compress(scores, keep)) for scores, keep in zip(tracked.scores, masks)),
        tracked.tubelets,
    )


def run_stream(
    frames: Sequence[FrameDetections],
    thresholds: Mapping[ClassId, float],
    alpha: float = DEFAULT_ALPHA,
    cost_cutoff: float = DEFAULT_COST_CUTOFF,
    default_threshold: float = DEFAULT_THRESHOLD,
) -> TrackedStream:
    """Link, rescore and threshold a detection stream: `track_stream`
    followed by `emit_stream`. To filter one stream under several
    threshold maps, track it once and emit once per map."""
    return emit_stream(track_stream(frames, alpha, cost_cutoff), thresholds, default_threshold)

