"""Assignment of detections to ground truths.

Two protocols live here. Greedy score-ordered matching is the evaluation
convention: detections claim ground truths in descending confidence order,
exactly the way recall-precision curves are built. `iou_table` computes a
class's detection order and same-image IoUs once, and `label_at_tau`
labels it at one tau as a columnar `TauLabels` record (kind codes, GT
index and IoU per detection, in score order), the one input of the
threshold sweep, AP and the recall-precision curve; `DetectionLabel` objects
are built only at the API edge (`label_detections`). Optimal one-to-one
assignment (`hungarian`, a shortest augmenting path solver written out in
this module) minimizes the total 1-IoU distance; its list solver backs
the set-distance machinery (`match_optimal`) without NumPy, and
`hungarian`, its NumPy-checked entry, links video frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Hashable, Iterator, Sequence

from .geometry import _NUMBER_TYPES, BoundingBox, area, iou_distance

ClassId = Hashable
ImageId = Hashable

# Evaluation paths reject tau this close to 1: the localization weight
# N_TP / (1 - tau) diverges and hardly any detection stays valid.
TAU_MAX = 0.999


def check_tau(tau: float) -> None:
    if not 0.0 <= tau <= TAU_MAX:
        raise ValueError(f"tau must be in [0, {TAU_MAX}], got {tau}")


@dataclass(frozen=True, slots=True)
class Detection:
    """A scored, class-labeled box on one image."""

    image_id: ImageId
    class_id: ClassId
    box: BoundingBox
    score: float

    def __post_init__(self):
        if type(self.score) not in _NUMBER_TYPES or not 0.0 <= self.score <= 1.0:
            raise ValueError(f"detection score must be a number in [0, 1], got {self.score!r}")


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """An annotated box on one image.

    `ignore` marks crowd-style regions: they never count as false
    negatives and absorb detections that overlap them at IoU >= tau.

    Absorption deliberately uses the same overlap rule as a true-positive
    match (IoU against tau). COCO's evaluation (pycocotools `COCOeval`)
    measures crowd overlap by intersection over the detection's area
    instead, so a small box anywhere inside a large crowd region is
    ignored there; here it stays a false positive unless it covers the
    region well enough to count as a detection of it.
    """

    image_id: ImageId
    class_id: ClassId
    box: BoundingBox
    ignore: bool = False


@dataclass(frozen=True)
class MatchResult:
    """Outcome of assigning detections to ground truths.

    tp_pairs holds (detection index, ground-truth index, IoU) triples;
    indices refer to the argument lists of the call that produced the
    result. Detections absorbed by ignore regions appear in neither the
    TP nor the FP count. n_tp is len(tp_pairs); n_fp and n_fn are >= 0.
    """

    tp_pairs: tuple[tuple[int, int, float], ...]
    n_tp: int
    n_fp: int
    n_fn: int

    def __post_init__(self):
        if self.n_tp != len(self.tp_pairs) or self.n_fp < 0 or self.n_fn < 0:
            raise ValueError(
                f"inconsistent match counts: {len(self.tp_pairs)} TP pairs, "
                f"n_tp={self.n_tp}, n_fp={self.n_fp}, n_fn={self.n_fn}"
            )


@dataclass(frozen=True)
class DetectionLabel:
    """Per-detection outcome of greedy matching, in descending score order.

    kind is "tp", "fp" or "ignored"; gt_index/iou are set for TPs only.
    The per-object view of `TauLabels`, built only by `label_detections`.
    """

    det_index: int
    score: float
    kind: str
    gt_index: int | None = None
    iou: float | None = None


# Kind codes of `TauLabels.kinds`; KINDS[code] is the `DetectionLabel` kind.
TP, FP, IGNORED = 0, 1, 2
KINDS = ("tp", "fp", "ignored")


@dataclass(frozen=True)
class TauLabels:
    """Greedy labels of one class at one tau, as columns.

    Every column runs in descending score order (ties by ascending input
    index): order holds the detection's index in the class's records,
    scores its score, kinds its code (TP, FP or IGNORED), and gt_index
    and iou the claimed ground truth and its IoU for a TP (-1 and 0.0
    otherwise). n_real counts the class's non-ignored ground truths.
    order and scores are shared with the `IouTable` they came from and
    with every other tau labeled from it.
    """

    tau: float
    n_real: int
    order: list[int]
    scores: list[float]
    kinds: list[int]
    gt_index: list[int]
    iou: list[float]

    def detection_labels(self) -> list[DetectionLabel]:
        """The same labels as one `DetectionLabel` per detection."""
        return [
            DetectionLabel(di, score, "tp", gi, overlap) if kind == TP
            else DetectionLabel(di, score, KINDS[kind])
            for di, score, kind, gi, overlap
            in zip(self.order, self.scores, self.kinds, self.gt_index, self.iou)
        ]


def _single_class(gts: Sequence[GroundTruth], dets: Sequence[Detection]) -> None:
    classes = {g.class_id for g in gts} | {d.class_id for d in dets}
    if len(classes) > 1:
        raise ValueError(f"matching is per class; got mixed classes {sorted(map(str, classes))}")


@dataclass(frozen=True)
class IouTable:
    """The tau-independent part of greedy labeling for one class.

    order lists detection indices by descending score, ties broken by
    ascending input index, and scores their scores in that order. For the
    detection at each position, candidates holds (IoU, ground-truth
    index) for every non-ignored ground truth of its image, sorted by
    descending IoU and then ascending index (IoU 0 included, since tau 0
    is valid), and crowd_iou its best IoU with an ignore region of its
    image (-1 if there is none). n_gts counts all ground truths, n_real
    the non-ignored ones.
    """

    n_gts: int
    n_real: int
    order: list[int]
    scores: list[float]
    candidates: list[list[tuple[float, int]]]
    crowd_iou: list[float]


def _corners(box: BoundingBox) -> tuple[float, float, float, float, float]:
    return box.x_min, box.y_min, box.x_max, box.y_max, area(box)


def _ious(x1, y1, x2, y2, a, gts) -> list[tuple[float, int]]:
    """(IoU, GT index) of one box, given as corners and area, against
    (GT index, corners, area) rows, with `geometry.iou`'s float steps:
    min - max widths (min(p, q) is q if q < p else p), 0.0 unless both
    are > 0, then inter / (area_a + area_b - inter)."""
    out = []
    for gi, gx1, gy1, gx2, gy2, g_area in gts:
        iw = (gx2 if gx2 < x2 else x2) - (gx1 if gx1 > x1 else x1)
        ih = (gy2 if gy2 < y2 else y2) - (gy1 if gy1 > y1 else y1)
        if iw <= 0.0 or ih <= 0.0:
            out.append((0.0, gi))
        else:
            inter = iw * ih
            out.append((inter / (a + g_area - inter), gi))
    return out


def iou_table(gts: Sequence[GroundTruth], dets: Sequence[Detection]) -> IouTable:
    """Detection order and every same-image IoU of one class, computed once
    so that labeling at any number of taus reuses them.

    Each box's corners and area are read once, and every entry equals
    `iou(det.box, gt.box)` bitwise (see `_ious`).
    """
    _single_class(gts, dets)
    real_by_image: dict[ImageId, list[tuple]] = {}
    ignore_by_image: dict[ImageId, list[tuple]] = {}
    for gi, gt in enumerate(gts):
        target = ignore_by_image if gt.ignore else real_by_image
        target.setdefault(gt.image_id, []).append((gi, *_corners(gt.box)))

    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    candidates = []
    crowd_iou = []
    for di in order:
        det = dets[di]
        corners = _corners(det.box)
        # Pairs come in ascending GT index and the sort is stable, so
        # equal IoUs keep the lowest index first.
        pairs = _ious(*corners, real_by_image.get(det.image_id, ()))
        pairs.sort(key=itemgetter(0), reverse=True)
        candidates.append(pairs)
        crowd = ignore_by_image.get(det.image_id)
        crowd_iou.append(max(_ious(*corners, crowd))[0] if crowd else -1.0)
    n_real = sum(map(len, real_by_image.values()))
    return IouTable(len(gts), n_real, order, [dets[i].score for i in order], candidates, crowd_iou)


def label_at_tau(table: IouTable, tau: float) -> TauLabels:
    """Greedy labels of one class at tau from its IoU table, as columns.

    In score order, each detection takes its first unclaimed candidate if
    that IoU reaches tau; otherwise it is IGNORED when its best crowd IoU
    reaches tau, else FP. Candidates run by descending IoU, so the walk
    stops at the first one below tau. No `Detection` is read: the record
    shares the table's order and scores.
    """
    check_tau(tau)
    claimed = [False] * table.n_gts
    n = len(table.order)
    kinds, gt_index, ious = [FP] * n, [-1] * n, [0.0] * n
    for pos, (pairs, crowd) in enumerate(zip(table.candidates, table.crowd_iou)):
        for overlap, gi in pairs:
            if overlap < tau:
                break
            if not claimed[gi]:
                claimed[gi] = True
                kinds[pos], gt_index[pos], ious[pos] = TP, gi, overlap
                break
        if crowd >= tau and kinds[pos] == FP:
            kinds[pos] = IGNORED
    return TauLabels(tau, table.n_real, table.order, table.scores, kinds, gt_index, ious)


def label_detections(
    gts: Sequence[GroundTruth], dets: Sequence[Detection], tau: float
) -> list[DetectionLabel]:
    """Greedy score-ordered matching outcome for every detection.

    Detections are processed in descending score order (ties broken by
    ascending input index) and matched strictly within their own image.
    Each claims the unmatched non-ignored ground truth with the highest
    IoU, provided that IoU reaches tau (equal-IoU candidates resolve to
    the lowest ground-truth index). A detection that fails but overlaps
    an ignore region at IoU >= tau is labeled "ignored" and dropped from
    all counting; the rest are false positives. Crowd regions are thus
    judged by the one overlap rule that decides TPs, not by COCO's
    intersection over detection area (see `GroundTruth`): a 10x10 box
    inside a 50x50 crowd region has IoU 0.04 and stays "fp" at tau 0.5.

    Labels are prefix-stable: truncating the detection list at any score
    threshold leaves the surviving labels unchanged, which is what makes
    a single labeling pass serve every threshold of a sweep.
    Evaluation paths read the `TauLabels` columns instead.
    """
    return label_at_tau(iou_table(gts, dets), tau).detection_labels()


def label_classes(
    gts: Sequence[GroundTruth],
    dets: Sequence[Detection],
    class_ids: Sequence[ClassId],
    taus: Sequence[float],
) -> Iterator[tuple[ClassId, TauLabels]]:
    """Greedy labels of every (class, tau) pair, each labeled exactly once.

    Ground truths and detections are grouped by class in one pass;
    records of classes outside class_ids are skipped. Yields
    (class_id, labels) for each class in order, then each tau in order;
    the `TauLabels` record carries its tau and the class's count of
    non-ignored ground truths, and its detection and GT indices refer to
    the class's records in input order. Each class's IoU table is built
    once and serves all its taus; repeated taus are labeled again, once
    per occurrence.
    """
    class_gts: dict[ClassId, list[GroundTruth]] = {cid: [] for cid in class_ids}
    class_dets: dict[ClassId, list[Detection]] = {cid: [] for cid in class_ids}
    for records, groups in ((gts, class_gts), (dets, class_dets)):
        for record in records:
            group = groups.get(record.class_id)
            if group is not None:
                group.append(record)
    for cid in class_ids:
        table = iou_table(class_gts[cid], class_dets[cid])
        for tau in taus:
            yield cid, label_at_tau(table, tau)


def hungarian(cost) -> list[tuple[int, int]]:
    """Optimal row-to-column assignment minimizing total cost.

    Accepts any finite rectangular matrix (nested lists or an array) and
    returns min(rows, cols) pairs sorted by row index. NumPy loads on the
    first call to check the input; commands that never assign do not pay
    for importing it.

    The solver is the shortest augmenting path algorithm (Jonker &
    Volgenant 1987, in the rectangular form of D. F. Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 52(4),
    2016), written in pure Python over nested lists. It makes the same
    choices, in the same order and with the same float steps, as SciPy's
    `linear_sum_assignment`, so tied optima resolve to the same pairs.

    It is O(n^3) and about 20-40x slower than SciPy's C++ per call: on
    one core of a 2-core Xeon VM, a frame pair of a detection stream
    with 42 boxes per frame takes 0.44 ms (SciPy 0.020 ms), with 88
    boxes 2.7 ms (0.10 ms) and with 266 boxes 37 ms (0.98 ms). The
    skipped `scipy.optimize` import (0.29 s once NumPy is loaded)
    outweighs that on moderate streams: at 88 boxes per frame over 120
    frames `stream` still ran in 1.14 s instead of 1.23 s. Denser or
    longer streams lose. A NumPy-vectorized port was slower at 42 wide,
    from per-call overhead on short vectors, and barely faster at 288.
    """
    import numpy as np

    arr = np.asarray(cost, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"cost must be a 2-d matrix, got shape {arr.shape}")
    if arr.size == 0:
        return []
    if not np.isfinite(arr).all():
        raise ValueError("cost matrix contains non-finite entries")
    # Tall matrices are solved transposed, as SciPy does.
    if arr.shape[1] < arr.shape[0]:
        return sorted((r, c) for c, r in _assign_rows(arr.T.tolist()))
    return _assign_rows(arr.tolist())


def _assign_rows(cost: list[list[float]]) -> list[tuple[int, int]]:
    """Assign every row of a wide (rows <= cols) matrix to a column,
    one shortest augmenting path per row; returns (row, col) pairs."""
    n_rows, n_cols = len(cost), len(cost[0])
    u, v = [0.0] * n_rows, [0.0] * n_cols
    path, row4col, col4row = [-1] * n_cols, [-1] * n_cols, [-1] * n_rows
    for cur_row in range(n_rows):
        # Filled in reverse so that a constant matrix gives the identity.
        remaining = list(range(n_cols - 1, -1, -1))
        shortest = [math.inf] * n_cols
        seen_rows, seen_cols = [], []
        min_val, i, sink = 0.0, cur_row, -1
        while sink == -1:
            seen_rows.append(i)
            row, u_i = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                # On a tie, prefer a column that ends the path.
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest, index = shortest[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            # Swap-remove: the last remaining column takes j's place.
            last = remaining.pop()
            if index < len(remaining):
                remaining[index] = last
        u[cur_row] += min_val
        for i in seen_rows:
            if i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return list(enumerate(col4row))


def match_optimal(
    xs: Sequence[BoundingBox], ys: Sequence[BoundingBox], tau: float
) -> MatchResult:
    """One-to-one assignment of ys to xs minimizing total 1-IoU distance.

    Assigned pairs with distance above 1 - tau are severed: the x side
    becomes a false negative and the y side a false positive, matching
    the cutoff convention of truncated set-to-set distances. In the
    result, tp_pairs carry (y index, x index, IoU).

    The assignment is solved in a canonical orientation of the cost
    matrix so that swapping the arguments always yields the mirror image
    of the same pairing, even when several assignments tie on total cost.
    """
    check_tau(tau)
    n, m = len(xs), len(ys)
    if n == 0 or m == 0:
        return MatchResult((), 0, m, n)

    # The canonical matrix never has more rows than columns, so it goes to
    # the list solver as it stands: `hungarian` would not transpose it, and
    # its NumPy check of a matrix of finite distances would load NumPy.
    cost = [[iou_distance(x, y) for y in ys] for x in xs]
    transposed = [list(column) for column in zip(*cost)]
    if (n, m, cost) <= (m, n, transposed):
        canon_pairs = _assign_rows(cost)
        roles = lambda r, c: (r, c)  # noqa: E731 - canonical row is the x side
    else:
        canon_pairs = _assign_rows(transposed)
        roles = lambda r, c: (c, r)  # noqa: E731 - canonical row is the y side

    # Pairs stay in canonical row order so both argument orders accumulate
    # localization errors in the identical float sequence.
    cutoff = 1.0 - tau
    tp_pairs = []
    for r, c in canon_pairs:
        xi, yj = roles(r, c)
        if cost[xi][yj] <= cutoff:
            tp_pairs.append((yj, xi, 1.0 - cost[xi][yj]))
    n_tp = len(tp_pairs)
    return MatchResult(tuple(tp_pairs), n_tp, m - n_tp, n - n_tp)
