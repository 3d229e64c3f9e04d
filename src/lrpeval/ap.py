"""Recall-precision curves and average precision in its common variants.

The curve is built from cumulative TP/FP counts over the detections in
descending score order, which is equivalent to sweeping the score
threshold through every value. Precision is max-interpolated (each point
takes the highest precision at any equal-or-higher recall) and AP is the
area under the interpolated step curve, either exactly ("continuous") or
sampled on an 11-point or 101-point recall grid. The curve comes from the
same greedy labeling at tau that feeds the class's threshold sweep
(`sweep.sweep_labels`): callers label each (class, tau) once with
`matching.label_classes` and feed both consumers.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .matching import ClassId, Detection, DetectionLabel, GroundTruth, label_classes

AP_VARIANTS = ("continuous", "pascal11", "coco101")


@dataclass(frozen=True)
class RPCurve:
    """Recall-precision samples for one class, one point per counted
    detection in descending score order.

    interpolated_precision[i] is the maximum precision at index i or
    later, hence non-increasing while recall is non-decreasing.
    """

    class_id: ClassId
    tau: float
    points: tuple[tuple[float, float, float], ...]  # (recall, precision, score)
    interpolated_precision: tuple[float, ...]


def rp_curve(
    gts: Sequence[GroundTruth],
    dets: Sequence[Detection],
    class_id: ClassId,
    tau: float,
) -> RPCurve:
    """Build the recall-precision curve of one class."""
    ((_, _, labels, n_real),) = label_classes(gts, dets, (class_id,), (tau,))
    return curve_from_labels(labels, n_real, class_id, tau)


def curve_from_labels(
    labels: Sequence[DetectionLabel], n_real: int, class_id: ClassId, tau: float
) -> RPCurve:
    """Recall-precision curve from one class's greedy labels at tau.

    n_real is the class's count of non-ignored ground truths; it must be
    positive, otherwise recall is undefined. Detections absorbed by
    ignore regions contribute no point.
    """
    if n_real == 0:
        raise ValueError(f"class {class_id!r} has no ground truth; recall is undefined")
    points = []
    tp = fp = 0
    for lab in labels:
        if lab.kind == "ignored":
            continue
        if lab.kind == "tp":
            tp += 1
        else:
            fp += 1
        points.append((tp / n_real, tp / (tp + fp), lab.score))

    interp = [0.0] * len(points)
    running = 0.0
    for i in range(len(points) - 1, -1, -1):
        running = max(running, points[i][1])
        interp[i] = running
    return RPCurve(class_id, tau, tuple(points), tuple(interp))


def _interp_at(curve: RPCurve, recall: float, recalls: list[float]) -> float:
    idx = bisect_left(recalls, recall)
    if idx == len(recalls):
        return 0.0
    return curve.interpolated_precision[idx]


def ap(curve: RPCurve, variant: str = "coco101") -> float:
    """Average precision of a curve.

    continuous: exact area under the max-interpolated step curve.
    pascal11:   mean interpolated precision at recalls 0.0, 0.1, ..., 1.0.
    coco101:    mean interpolated precision at recalls 0.00, 0.01, ..., 1.00.

    A recall with no point at or above it contributes precision 0; the
    recall-0 sample therefore equals the maximum precision anywhere.
    """
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
    steps = 10 if variant == "pascal11" else 100
    grid = [i / steps for i in range(steps + 1)]
    return sum(_interp_at(curve, r, recalls) for r in grid) / len(grid)

