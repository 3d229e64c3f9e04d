"""Assignment of detections to ground truths.

Two protocols live here. Greedy score-ordered matching is the evaluation
convention: detections claim ground truths in descending confidence order,
exactly the way recall-precision curves are built. Evaluation reads boxes
as per-class columns (`GtColumns`, `DetColumns`: image ids, corner rows and
the ignore flag or score), which the loaders fill as they validate and
`to_columns` builds from `GroundTruth` / `Detection` records at the API
edge. `iou_table` computes a class's detection order and same-image IoUs
once from its columns, and `label_at_tau` labels it at one tau as a
columnar `TauLabels` record (kind codes, GT index and IoU per detection, in
score order), the one input of the threshold sweep, AP and the
recall-precision curve; `DetectionLabel` objects are built only at the API
edge (`label_detections`). Optimal one-to-one
assignment (`hungarian`, a shortest augmenting path solver written out in
this module over plain lists) minimizes a total cost: the 1-IoU distance
of the set-distance machinery (`match_optimal`), and the link cost of
video frames.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .geometry import (
    _NUMBER_TYPES, BoundingBox, CornerRow, _checked_make, _corners, _ious, iou_distance,
)

ClassId = Hashable
ImageId = Hashable

# Evaluation paths reject tau this close to 1: the localization weight
# N_TP / (1 - tau) diverges and hardly any detection stays valid.
TAU_MAX = 0.999


def check_tau(tau: float) -> None:
    if not 0.0 <= tau <= TAU_MAX:
        raise ValueError(f"tau must be in [0, {TAU_MAX}], got {tau}")


class _DetectionFields(NamedTuple):
    image_id: ImageId
    class_id: ClassId
    box: BoundingBox
    score: float


class Detection(_DetectionFields):
    """A scored, class-labeled box on one image."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, image_id: ImageId, class_id: ClassId, box: BoundingBox, score: float):
        if type(score) not in _NUMBER_TYPES or not 0.0 <= score <= 1.0:
            raise ValueError(f"detection score must be a number in [0, 1], got {score!r}")
        if not isinstance(box, BoundingBox):
            raise ValueError(f"detection box must be a BoundingBox, got {box!r}")
        return tuple.__new__(cls, (image_id, class_id, box, score))


class _GroundTruthFields(NamedTuple):
    image_id: ImageId
    class_id: ClassId
    box: BoundingBox
    ignore: bool


class GroundTruth(_GroundTruthFields):
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

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, image_id: ImageId, class_id: ClassId, box: BoundingBox, ignore: bool = False):
        if not isinstance(box, BoundingBox):
            raise ValueError(f"ground truth box must be a BoundingBox, got {box!r}")
        return tuple.__new__(cls, (image_id, class_id, box, ignore))


class GtColumns(NamedTuple):
    """One class's ground truths as columns, in input order: image ids,
    corner rows and ignore flags (see `GroundTruth`)."""

    image_ids: list[ImageId]
    boxes: list[CornerRow]
    ignore: list[bool]


class DetColumns(NamedTuple):
    """One class's detections as columns, in input order: image ids, corner
    rows and scores."""

    image_ids: list[ImageId]
    boxes: list[CornerRow]
    scores: list[float]


def to_columns(
    gts: Iterable[GroundTruth], dets: Iterable[Detection], class_ids: Iterable[ClassId]
) -> tuple[dict[ClassId, GtColumns], dict[ClassId, DetColumns]]:
    """The ground-truth and detection columns of each class in class_ids,
    the form the loaders fill, from records or tuples of their fields;
    records of other classes are skipped."""
    gt_cols = {cid: GtColumns([], [], []) for cid in class_ids}
    det_cols = {cid: DetColumns([], [], []) for cid in gt_cols}
    for out, records in ((gt_cols, gts), (det_cols, dets)):
        for image_id, class_id, box, value in records:
            cols = out.get(class_id)
            if cols is not None:
                image_ids, boxes, values = cols
                image_ids.append(image_id)
                boxes.append(_corners(box))
                values.append(value)
    return gt_cols, det_cols


class _MatchFields(NamedTuple):
    tp_pairs: tuple[tuple[int, int, float], ...]
    n_tp: int
    n_fp: int
    n_fn: int


class MatchResult(_MatchFields):
    """Outcome of assigning detections to ground truths.

    tp_pairs holds (detection index, ground-truth index, IoU) triples;
    indices refer to the argument lists of the call that produced the
    result. Detections absorbed by ignore regions appear in neither the
    TP nor the FP count. n_tp is len(tp_pairs); n_fp and n_fn are >= 0.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, tp_pairs: tuple, n_tp: int, n_fp: int, n_fn: int):
        if n_tp != len(tp_pairs) or n_fp < 0 or n_fn < 0:
            raise ValueError(
                f"inconsistent match counts: {len(tp_pairs)} TP pairs, "
                f"n_tp={n_tp}, n_fp={n_fp}, n_fn={n_fn}"
            )
        return tuple.__new__(cls, (tp_pairs, n_tp, n_fp, n_fn))


class DetectionLabel(NamedTuple):
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


class TauLabels(NamedTuple):
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


class IouTable(NamedTuple):
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


def iou_table(gts: GtColumns, dets: DetColumns) -> IouTable:
    """Detection order and every same-image IoU of one class, computed once
    from its columns so that labeling at any number of taus reuses them.

    Boxes are read as the corner rows of the columns, and every entry
    equals `iou` of the two boxes bitwise (see `geometry._ious`). No record is
    built or read.
    """
    real_by_image: dict[ImageId, list[tuple]] = {}
    ignore_by_image: dict[ImageId, list[tuple]] = {}
    for gi, (image_id, row, ignore) in enumerate(zip(*gts)):
        target = ignore_by_image if ignore else real_by_image
        target.setdefault(image_id, []).append((gi, *row))

    image_ids, boxes, scores = dets
    # A reverse sort is stable: equal scores keep ascending input index.
    order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    by_iou = itemgetter(0)
    candidates = []
    crowd_iou = []
    for di in order:
        x1, y1, x2, y2, area = boxes[di]
        image_id = image_ids[di]
        # Pairs come in ascending GT index and the sort is stable, so
        # equal IoUs keep the lowest index first.
        pairs = _ious(x1, y1, x2, y2, area, real_by_image.get(image_id, ()))
        pairs.sort(key=by_iou, reverse=True)
        candidates.append(pairs)
        crowd = ignore_by_image.get(image_id)
        crowd_iou.append(max(_ious(x1, y1, x2, y2, area, crowd))[0] if crowd else -1.0)
    n_real = sum(map(len, real_by_image.values()))
    return IouTable(len(gts.ignore), n_real, order, [scores[i] for i in order], candidates,
                    crowd_iou)


def label_at_tau(table: IouTable, tau: float) -> TauLabels:
    """Greedy labels of one class at tau from its IoU table, as columns.

    Detections are processed in descending score order (ties broken by
    ascending input index) and matched strictly within their own image.
    Each claims the unclaimed non-ignored ground truth with the highest
    IoU, provided that IoU reaches tau (equal-IoU candidates resolve to
    the lowest ground-truth index). A detection that fails but overlaps
    an ignore region at IoU >= tau is IGNORED and dropped from all
    counting; the rest are FP. Crowd regions are thus judged by the one
    overlap rule that decides TPs, not by COCO's intersection over
    detection area (see `GroundTruth`): a 10x10 box inside a 50x50 crowd
    region has IoU 0.04 and stays FP at tau 0.5.

    Labels are prefix-stable: truncating the detection list at any score
    threshold leaves the surviving labels unchanged, which is what makes
    a single labeling pass serve every threshold of a sweep.

    Each detection walks its candidates, which run by descending IoU, and
    stops at the first unclaimed one or the first below tau. No
    `Detection` is read: the record shares the table's order and scores.
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
    """Greedy score-ordered matching outcome for every detection, by the
    rule of `label_at_tau`, as one `DetectionLabel` each. The records must
    share one class. Evaluation paths read the `TauLabels` columns.
    """
    classes = {g.class_id for g in gts} | {d.class_id for d in dets}
    if len(classes) > 1:
        raise ValueError(f"matching is per class; got mixed classes {sorted(map(str, classes))}")
    (cid,) = classes or {None}
    gt_cols, det_cols = to_columns(gts, dets, (cid,))
    labels = label_at_tau(iou_table(gt_cols[cid], det_cols[cid]), tau)
    return [
        DetectionLabel(di, score, "tp", gi, overlap) if kind == TP
        else DetectionLabel(di, score, KINDS[kind])
        for di, score, kind, gi, overlap
        in zip(labels.order, labels.scores, labels.kinds, labels.gt_index, labels.iou)
    ]


def label_classes(
    gts: Mapping[ClassId, GtColumns],
    dets: Mapping[ClassId, DetColumns],
    class_ids: Sequence[ClassId],
    taus: Sequence[float],
) -> Iterator[tuple[ClassId, TauLabels]]:
    """Greedy labels of every (class, tau) pair, each labeled exactly once,
    from the columns of each class in class_ids.

    Yields (class_id, labels) for each class in order, then each tau in
    order; the `TauLabels` record carries its tau and the class's count
    of non-ignored ground truths, and its detection and GT indices refer
    to the class's columns. Each class's IoU table is built once and
    serves all its taus; repeated taus are labeled again, once per
    occurrence.
    """
    for cid in class_ids:
        table = iou_table(gts[cid], dets[cid])
        for tau in taus:
            yield cid, label_at_tau(table, tau)


def rescore(table: IouTable, scores: Sequence[float | None]) -> IouTable:
    """`iou_table` of the class's detections i whose scores[i] is not None,
    scored so, its order still indexing all of them. Candidates do not
    depend on scores: only order and scores are sorted again (ties by i)."""
    old = table.order
    kept = sorted((p for p, i in enumerate(old) if scores[i] is not None),
                  key=lambda p: (-scores[old[p]], old[p]))
    order = [old[p] for p in kept]
    return table._replace(order=order, scores=[scores[i] for i in order],
                          candidates=[table.candidates[p] for p in kept],
                          crowd_iou=[table.crowd_iou[p] for p in kept])


def hungarian(cost) -> list[tuple[int, int]]:
    """Optimal row-to-column assignment minimizing total cost.

    Accepts any finite rectangular matrix as a sequence of rows (nested
    lists, or an array) and returns min(rows, cols) pairs sorted by row
    index.

    The solver is the shortest augmenting path algorithm (Jonker &
    Volgenant 1987, in the rectangular form of D. F. Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 52(4),
    2016), written in pure Python over nested lists. It makes the same
    choices, in the same order and with the same float steps, as SciPy's
    `linear_sum_assignment`, so tied optima resolve to the same pairs.

    It is O(n^3) and about 20-40x slower than SciPy's C++ per call: on
    one core of a 2-core Xeon VM, the link costs of two frames of 42
    boxes take 0.44 ms (SciPy 0.020 ms), of 88 boxes 2.7 ms (0.10 ms)
    and of 266 boxes 37 ms (0.98 ms). Large matrices lose; in exchange
    no command imports NumPy or SciPy. `video.link_frames` builds its
    matrices itself and solves them with `_assign`, the step after these
    checks.
    """
    try:
        rows = [list(map(float, row)) for row in cost]
    except TypeError:  # a row, or the matrix, is not a sequence of numbers
        raise ValueError("cost must be a 2-d matrix of numbers") from None
    n_cols = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != n_cols:
            raise ValueError(f"cost rows differ in length: {n_cols} vs {len(row)}")
        if not all(map(math.isfinite, row)):
            raise ValueError("cost matrix contains non-finite entries")
    return _assign(rows) if n_cols else []


def _assign(rows: list[list[float]]) -> list[tuple[int, int]]:
    """`hungarian` without its checks, for a non-empty matrix of finite
    floats as a list of rows, which it does not modify."""
    # Tall matrices are solved transposed, as SciPy does.
    if len(rows[0]) < len(rows):
        return sorted((r, c) for c, r in _assign_rows([list(col) for col in zip(*rows)]))
    return _assign_rows(rows)


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
                s_j = shortest[j]
                if r < s_j:
                    path[j] = i
                    shortest[j] = s_j = r
                # On a tie, prefer a column that ends the path.
                if s_j < lowest or (s_j == lowest and row4col[j] == -1):
                    lowest, index = s_j, it
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
