"""Recall-precision curves and average precision in its common variants.

The curve is built from cumulative TP/FP counts over the detections in
descending score order, which is equivalent to sweeping the score
threshold through every value. Precision is max-interpolated (each point
takes the highest precision at any equal-or-higher recall) and AP is the
area under the interpolated step curve, either exactly ("continuous") or
sampled on an 11-point or 101-point recall grid, read in one merge walk
over the curve's recalls. The curve comes from the kind and score columns
of the same `matching.TauLabels` record that feeds the class's threshold
sweep (`sweep.sweep_labels`): callers label each (class, tau) once with
`matching.label_classes` and feed both consumers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .matching import FP, TP, ClassId, Detection, GroundTruth, TauLabels, label_classes

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
    ((_, labels),) = label_classes(gts, dets, (class_id,), (tau,))
    return curve_from_labels(labels, class_id)


def curve_from_labels(labels: TauLabels, class_id: ClassId) -> RPCurve:
    """Recall-precision curve from one class's greedy labels at labels.tau.

    Reads only the record's kind and score columns and its count of
    non-ignored ground truths, which must be positive, otherwise recall
    is undefined. Detections absorbed by ignore regions contribute no
    point. Recall, precision and score columns are filled in one pass.
    """
    n_real = labels.n_real
    if n_real == 0:
        raise ValueError(f"class {class_id!r} has no ground truth; recall is undefined")
    recall, precision, scores = [], [], []
    tp = fp = 0
    for kind, score in zip(labels.kinds, labels.scores):
        if kind == TP:
            tp += 1
        elif kind == FP:
            fp += 1
        else:
            continue
        recall.append(tp / n_real)
        precision.append(tp / (tp + fp))
        scores.append(score)
    interp = list(accumulate(reversed(precision), max))
    interp.reverse()
    points = tuple(zip(recall, precision, scores))
    return RPCurve(class_id, labels.tau, points, tuple(interp))


def ap(curve: RPCurve, variant: str = "coco101") -> float:
    """Average precision of a curve.

    continuous: exact area under the max-interpolated step curve.
    pascal11:   mean interpolated precision at recalls 0.0, 0.1, ..., 1.0.
    coco101:    mean interpolated precision at recalls 0.00, 0.01, ..., 1.00.

    A recall with no point at or above it contributes precision 0; the
    recall-0 sample therefore equals the maximum precision anywhere. Grid
    recalls ascend, so one merge walk finds each one's first point at or
    above it.
    """
    if variant not in AP_VARIANTS:
        raise ValueError(f"unknown AP variant {variant!r}; expected one of {AP_VARIANTS}")
    if variant == "continuous":
        total = 0.0
        prev = 0.0
        for (recall, _, _), interp in zip(curve.points, curve.interpolated_precision):
            total += (recall - prev) * interp
            prev = recall
        return total
    steps = 10 if variant == "pascal11" else 100
    recalls = [p[0] for p in curve.points]
    interp = curve.interpolated_precision
    n, idx = len(recalls), 0
    samples = []
    for i in range(steps + 1):
        r = i / steps
        while idx < n and recalls[idx] < r:
            idx += 1
        samples.append(interp[idx] if idx < n else 0.0)
    return sum(samples) / (steps + 1)
