"""Independent oracles shared by the test modules.

Everything here recomputes expected values by brute force (rasterization,
permutation enumeration, per-threshold re-matching, a full scan per
detection, scalar link costs, one bisect per AP grid recall) so the
tested code paths are checked against genuinely separate computations.
"""

import itertools
import random
from bisect import bisect_left

import numpy as np

from lrpeval import BoundingBox, LrpBreakdown, MatchResult
from lrpeval.geometry import iou
from lrpeval.ap import AP_VARIANTS
from lrpeval.matching import DetectionLabel


def grid_area(box: BoundingBox, step: float) -> float:
    """Count step-sized cells whose centers fall inside the box."""
    cells = 0
    y = step / 2
    while y < box.y_max + 1:
        x = step / 2
        while x < box.x_max + 1:
            if box.x_min < x < box.x_max and box.y_min < y < box.y_max:
                cells += 1
            x += step
        y += step
    return cells * step * step


def grid_iou(a: BoundingBox, b: BoundingBox, step: float) -> float:
    """Rasterized IoU: count cells inside both boxes / inside either."""
    x_lo = min(a.x_min, b.x_min)
    x_hi = max(a.x_max, b.x_max)
    y_lo = min(a.y_min, b.y_min)
    y_hi = max(a.y_max, b.y_max)
    inter = union = 0
    y = y_lo + step / 2
    while y < y_hi:
        x = x_lo + step / 2
        while x < x_hi:
            in_a = a.x_min < x < a.x_max and a.y_min < y < a.y_max
            in_b = b.x_min < x < b.x_max and b.y_min < y < b.y_max
            inter += in_a and in_b
            union += in_a or in_b
            x += step
        y += step
    return inter / union


def brute_force_assignment_cost(cost: np.ndarray) -> float:
    """Minimum total assignment cost by enumerating every injection of
    the smaller axis into the larger one."""
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    n, m = cost.shape
    if n == 0:
        return 0.0
    perms = np.array(list(itertools.permutations(range(m), n)))
    totals = cost[np.arange(n)[None, :], perms].sum(axis=1)
    return float(totals.min())


def random_box(rng: random.Random, span: float = 20.0, max_side: float = 10.0) -> BoundingBox:
    x = rng.uniform(0.0, span)
    y = rng.uniform(0.0, span)
    return BoundingBox(x, y, x + rng.uniform(0.5, max_side), y + rng.uniform(0.5, max_side))


def random_boxes(rng: random.Random, n: int, **kwargs) -> list[BoundingBox]:
    return [random_box(rng, **kwargs) for _ in range(n)]


def weighted_form_total(bd: LrpBreakdown) -> float:
    """LRP total from the component/weight form; absent components carry
    weight zero so they contribute nothing."""
    total = 0.0
    if bd.loc_component is not None:
        total += bd.w_iou * bd.loc_component
    if bd.fp_component is not None:
        total += bd.w_fp * bd.fp_component
    if bd.fn_component is not None:
        total += bd.w_fn * bd.fn_component
    return total / bd.z


def rematch(gts, dets, s, tau):
    """Greedy match of one class's detections with score >= s, labeled
    from scratch by the full-scan `label_detections` below. tp_pairs hold
    (detection index, GT index, IoU) in score order, indices referring to
    the `dets` argument."""
    kept = [i for i, d in enumerate(dets) if d.score >= s]
    labels = label_detections(gts, [dets[i] for i in kept], tau)
    tp_pairs = tuple(
        (kept[lab.det_index], lab.gt_index, lab.iou) for lab in labels if lab.kind == "tp"
    )
    n_fp = sum(lab.kind == "fp" for lab in labels)
    return MatchResult(tp_pairs, len(tp_pairs), n_fp, count_real(gts) - len(tp_pairs))


def rematch_rp_points(gts, dets, class_id, tau):
    """(recall, precision) at every distinct score threshold, each point
    produced by a full re-match of the thresholded detections."""
    class_gts = [g for g in gts if g.class_id == class_id]
    class_dets = [d for d in dets if d.class_id == class_id]
    points = []
    for t in sorted({d.score for d in class_dets}, reverse=True):
        m = rematch(class_gts, class_dets, s=t, tau=tau)
        n_eval = m.n_tp + m.n_fp
        if n_eval == 0:
            continue
        points.append((m.n_tp / (m.n_tp + m.n_fn), m.n_tp / n_eval))
    return points


def integrate_rp_points(points, variant: str) -> float:
    """AP of explicit (recall, precision) samples under max interpolation."""
    if not points:
        return 0.0
    recalls = [p[0] for p in points]
    interp = [0.0] * len(points)
    running = 0.0
    for i in range(len(points) - 1, -1, -1):
        running = max(running, points[i][1])
        interp[i] = running

    def at(r):
        for rec, ip in zip(recalls, interp):
            if rec >= r:
                return ip
        return 0.0

    if variant == "continuous":
        total = 0.0
        prev = 0.0
        for rec, ip in zip(recalls, interp):
            total += (rec - prev) * ip
            prev = rec
        return total
    steps = 10 if variant == "pascal11" else 100
    return sum(at(i / steps) for i in range(steps + 1)) / (steps + 1)


def count_real(gts):
    """Number of non-ignored ground truths."""
    return sum(1 for g in gts if not g.ignore)


def ap(curve, variant="coco101"):
    """AP of an `RPCurve` with one bisect per grid recall: the precision at
    recall r is the interpolated precision of the first point whose recall
    reaches r, 0 if there is none."""
    if variant not in AP_VARIANTS:
        raise ValueError(f"unknown AP variant {variant!r}; expected one of {AP_VARIANTS}")
    if not curve.points:
        return 0.0
    recalls = [p[0] for p in curve.points]
    if variant == "continuous":
        total = 0.0
        prev = 0.0
        for (recall, _, _), interp in zip(curve.points, curve.interpolated_precision):
            total += (recall - prev) * interp
            prev = recall
        return total

    def interp_at(r):
        idx = bisect_left(recalls, r)
        return 0.0 if idx == len(recalls) else curve.interpolated_precision[idx]

    steps = 10 if variant == "pascal11" else 100
    grid = [i / steps for i in range(steps + 1)]
    return sum(interp_at(r) for r in grid) / len(grid)


def label_detections(gts, dets, tau):
    """Greedy labels of one class at tau by a full scan per detection: in
    score order (ties by input index), the unclaimed same-image real GT
    with the highest IoU (ties to the lowest index) becomes a TP if that
    IoU reaches tau; else "ignored" if some same-image crowd region
    reaches tau, else "fp"."""
    real_by_image = {}
    ignore_by_image = {}
    for gi, gt in enumerate(gts):
        target = ignore_by_image if gt.ignore else real_by_image
        target.setdefault(gt.image_id, []).append(gi)

    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    claimed = [False] * len(gts)
    labels = []
    for di in order:
        det = dets[di]
        best_iou = -1.0
        best_gt = -1
        for gi in real_by_image.get(det.image_id, ()):
            if claimed[gi]:
                continue
            overlap = iou(det.box, gts[gi].box)
            if overlap > best_iou:
                best_iou = overlap
                best_gt = gi
        if best_gt >= 0 and best_iou >= tau:
            claimed[best_gt] = True
            labels.append(DetectionLabel(di, det.score, "tp", best_gt, best_iou))
            continue
        absorbed = any(
            iou(det.box, gts[gi].box) >= tau for gi in ignore_by_image.get(det.image_id, ())
        )
        labels.append(DetectionLabel(di, det.score, "ignored" if absorbed else "fp"))
    return labels


def _l1(a, b):
    if len(a) != len(b):
        raise ValueError(f"class score vectors differ in length: {len(a)} vs {len(b)}")
    return sum(abs(x - y) for x, y in zip(a, b))


def link_cost(prev, curr, alpha):
    """Blend of box distance and class-distribution distance, in [0, 1]."""
    return alpha * (1.0 - iou(prev.box, curr.box)) + (1.0 - alpha) * 0.5 * _l1(
        prev.class_scores, curr.class_scores
    )
