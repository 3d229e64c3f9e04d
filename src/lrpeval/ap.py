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

from functools import cache
from operator import itemgetter
from typing import NamedTuple, Sequence

from .geometry import ordered_sum
from .matching import FP, TP, ClassId, Detection, GroundTruth, TauLabels, label_classes, to_columns

AP_VARIANTS = ("continuous", "pascal11", "coco101")


class RPCurve(NamedTuple):
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
    ((_, labels),) = label_classes(*to_columns(gts, dets, (class_id,)), (class_id,), (tau,))
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
    above 0 first reaches a TP. Only the TPs are read.
    """
    return ap_variants(labels, (variant,))[0]


def ap_variants(labels: TauLabels, variants: Sequence[str] = AP_VARIANTS) -> list[float]:
    """`ap` of labels in each of variants, in order, from one pass over the
    labels: the interpolated precision at each TP is computed once and
    integrated by each variant's rule."""
    for variant in variants:
        if variant not in AP_VARIANTS:
            raise ValueError(f"unknown AP variant {variant!r}; expected one of {AP_VARIANTS}")
    n_real = labels.n_real
    if n_real == 0:
        raise ValueError(f"labels at tau={labels.tau} have no ground truth; recall is undefined")
    # Precision at each TP: TPs over the TPs and FPs counted so far.
    precision = []
    n_tp = n_counted = 0
    for kind in labels.kinds:
        if kind == TP:
            n_tp += 1
            n_counted += 1
            precision.append(n_tp / n_counted)
        elif kind == FP:
            n_counted += 1
    # The running maximum from the last TP back; max would take as long again.
    best = 0.0
    for k in range(n_tp - 1, -1, -1):
        p = precision[k]
        if p > best:
            best = p
        else:
            precision[k] = best
    return [_integrate(precision, n_real, variant) for variant in variants]


def _integrate(interp: list[float], n_real: int, variant: str) -> float:
    """One variant's AP from the interpolated precision at each TP."""
    if variant == "continuous":
        total = 0.0
        prev = 0.0
        for k, p in enumerate(interp, 1):
            recall = k / n_real
            total += (recall - prev) * p
            prev = recall
        return total
    steps = 10 if variant == "pascal11" else 100
    # A grid recall that no TP reaches reads 0.0: one entry per recall k / n_real.
    padded = interp + [0.0] * (n_real - len(interp))
    return ordered_sum(_grid_samples(n_real, steps)(padded)) / (steps + 1)


@cache
def _grid_samples(n_real: int, steps: int) -> itemgetter:
    """The getter of the samples at grid recalls i / steps, i = 0..steps,
    from the interpolated precision at recalls k / n_real, k = 1..n_real:
    for each grid recall, the index k of the first recall (k + 1) / n_real
    that reaches it. The map does not depend on the labels, so one merge
    walk over the ascending grid serves every class with n_real ground
    truths."""
    first, k = [], 0
    for i in range(steps + 1):
        r = i / steps
        while (k + 1) / n_real < r:
            k += 1
        first.append(k)
    return itemgetter(*first)
