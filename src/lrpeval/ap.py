"""Average precision in its common variants, and recall-precision curves
for export.

AP is read straight from the `matching.TauLabels` record that also feeds
the class's threshold sweep (`sweep.sweep_labels`): callers label each
(class, tau) once with `matching.label_classes` and feed both consumers.
`RPCurve` is the export view of the same record: one (recall, precision,
score) point per counted detection in descending score order, which is
equivalent to sweeping the score threshold through every value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .matching import FP, IGNORED, TP, ClassId, Detection, GroundTruth, TauLabels, label_classes

AP_VARIANTS = ("continuous", "pascal11", "coco101")


@dataclass(frozen=True)
class RPCurve:
    """Recall-precision samples for one class, one point per counted
    detection in descending score order."""

    class_id: ClassId
    tau: float
    points: tuple[tuple[float, float, float], ...]  # (recall, precision, score)


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
    return RPCurve(class_id, labels.tau, tuple(zip(recall, precision, scores)))


def ap(labels: TauLabels, variant: str = "coco101") -> float:
    """Average precision of one class's greedy labels at labels.tau; n_real
    must be positive, otherwise recall is undefined.

    continuous: exact area under the max-interpolated step curve.
    pascal11:   mean interpolated precision at recalls 0.0, 0.1, ..., 1.0.
    coco101:    mean interpolated precision at recalls 0.00, 0.01, ..., 1.00.

    The interpolated precision at recall r is the maximum precision at any
    recall >= r, 0 if there is none. The k-th TP sits at recall k / n_real
    with precision k / (detections counted so far); an FP adds no recall
    and only lowers precision, so every such maximum is reached at a TP,
    a continuous step at an FP adds exactly 0.0, and each grid recall
    above 0 first reaches a TP. Only the TPs are read, and grid recalls
    ascend, so one merge walk finds each one's first TP.
    """
    if variant not in AP_VARIANTS:
        raise ValueError(f"unknown AP variant {variant!r}; expected one of {AP_VARIANTS}")
    n_real = labels.n_real
    if n_real == 0:
        raise ValueError(f"labels at tau={labels.tau} have no ground truth; recall is undefined")
    counted = [kind for kind in labels.kinds if kind != IGNORED]
    # TPs and FPs counted up to and including each TP, in score order.
    counted_at_tp = [n for n, kind in enumerate(counted, 1) if kind == TP]
    precision = [k / n for k, n in enumerate(counted_at_tp, 1)]
    interp = list(accumulate(reversed(precision), max))[::-1]
    if variant == "continuous":
        total = 0.0
        prev = 0.0
        for k, p in enumerate(interp, 1):
            recall = k / n_real
            total += (recall - prev) * p
            prev = recall
        return total
    steps = 10 if variant == "pascal11" else 100
    n_tp, k = len(interp), 0
    samples = []
    for i in range(steps + 1):
        r = i / steps
        while k < n_tp and (k + 1) / n_real < r:
            k += 1
        samples.append(interp[k] if k < n_tp else 0.0)
    return sum(samples) / (steps + 1)
