"""LRP error (localization-recall-precision) and the set distance behind it.

The total error charges every matched detection its normalized
localization error (1 - IoU) / (1 - tau), every false positive and false
negative a flat 1, and divides by the number of contributors, so the
result is the average error per bounding box in [0, 1]. The same number
can be read as a weighted mix of three interpretable components
(localization, FP rate, FN rate); both forms are computed here and their
equality is enforced by tests, not by a runtime branch.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .geometry import BoundingBox, _checked_make, ordered_sum
from .matching import TAU_MAX, MatchResult, check_tau, match_optimal


class UndefinedLrp(Exception):
    """Raised when there is nothing to evaluate: both the ground-truth and
    detection sets are empty, or no class has anything to evaluate."""


class LrpBreakdown(NamedTuple):
    """Total LRP error plus its components, weights and counts.

    A component is None ("absent") rather than 0 when its denominator is
    empty: loc_component without any TP, fp_component without any
    evaluated detection, fn_component without any ground truth. Reports
    must distinguish "no FPs" (component 0.0) from "no detections"
    (component absent).
    """

    total: float
    loc_component: float | None
    fp_component: float | None
    fn_component: float | None
    n_tp: int
    n_fp: int
    n_fn: int
    z: int
    tau: float
    w_iou: float
    w_fp: float
    w_fn: float


def total_from_counts(loc_error_sum: float, n_tp: int, n_fp: int, n_fn: int, tau: float) -> float:
    """Total LRP error from raw counts and the summed TP error: the one
    total formula, shared by `breakdown_from_counts` and the threshold
    sweep so both give the same float. Needs n_tp + n_fp + n_fn > 0."""
    return (loc_error_sum / (1.0 - tau) + n_fp + n_fn) / (n_tp + n_fp + n_fn)


def breakdown_from_counts(
    loc_error_sum: float, n_tp: int, n_fp: int, n_fn: int, tau: float
) -> LrpBreakdown:
    """Assemble a breakdown from raw counts and the summed TP error.

    loc_error_sum is sum(1 - IoU) over the TP pairs, accumulated in
    match order; using one shared assembly point keeps every caller
    bitwise consistent. Raises UndefinedLrp when there is nothing to
    evaluate (z == 0).
    """
    check_tau(tau)
    z = n_tp + n_fp + n_fn
    if z == 0:
        raise UndefinedLrp("both ground-truth and detection sets are empty")
    n_det = n_tp + n_fp
    n_gt = n_tp + n_fn
    return LrpBreakdown(
        total=total_from_counts(loc_error_sum, n_tp, n_fp, n_fn, tau),
        loc_component=loc_error_sum / n_tp if n_tp else None,
        fp_component=n_fp / n_det if n_det else None,
        fn_component=n_fn / n_gt if n_gt else None,
        n_tp=n_tp,
        n_fp=n_fp,
        n_fn=n_fn,
        z=z,
        tau=tau,
        w_iou=n_tp / (1.0 - tau),
        w_fp=float(n_det),
        w_fn=float(n_gt),
    )


def _loc_error_sum(match: MatchResult, tau: float) -> float:
    total = 0.0
    for _, _, overlap in match.tp_pairs:
        if overlap < tau:
            raise ValueError(f"TP pair with IoU {overlap} below tau={tau}")
        total += 1.0 - overlap
    return total


def lrp_components(match: MatchResult, tau: float) -> LrpBreakdown:
    """Full LRP breakdown for a match result; the ground-truth count
    n_tp + n_fn and the detection count n_tp + n_fp come from the match."""
    return breakdown_from_counts(
        _loc_error_sum(match, tau), match.n_tp, match.n_fp, match.n_fn, tau
    )


def lrp_total(match: MatchResult, tau: float) -> float:
    """Total LRP error in [0, 1]; 1 exactly when nothing matched."""
    return lrp_components(match, tau).total


class _DasaFields(NamedTuple):
    p: float
    c: float


class DasaParams(_DasaFields):
    """Parameters of the generalized cutoff set distance.

    p is the norm exponent, c the cutoff distance at which an assigned
    pair is severed; the base distance between boxes is 1 - IoU. `dasa`
    matches at tau = 1 - c, so c must give a valid tau.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, p: float = 1.0, c: float = 0.5):
        if not 1.0 <= p < math.inf:  # NaN fails too; at inf, 0 ** 0 makes dasa(X, X) 1
            raise ValueError(f"norm parameter p must be finite and >= 1, got {p}")
        if not 0.0 <= 1.0 - c <= TAU_MAX:
            raise ValueError(f"cutoff c must be in [{1.0 - TAU_MAX:.3g}, 1], got {c}")
        return tuple.__new__(cls, (p, c))


def dasa(xs: Sequence[BoundingBox], ys: Sequence[BoundingBox], params: DasaParams) -> float:
    """Cutoff set distance between two box sets under optimal assignment.

    Matched pairs contribute their base distance to the p-th power,
    every unmatched element contributes c**p, and the sum is averaged
    over l = max(|xs|, |ys|) before taking the p-th root. At p = 1 and
    c = 1 - tau this is the total LRP error times (1 - tau) * z / l.
    """
    if not xs and not ys:
        raise UndefinedLrp("both box sets are empty")
    l = max(len(xs), len(ys))
    match = match_optimal(xs, ys, tau=1.0 - params.c)
    tail = ordered_sum((1.0 - overlap) ** params.p for _, _, overlap in match.tp_pairs)
    tail += (params.c ** params.p) * (match.n_fp + match.n_fn)
    return (tail / l) ** (1.0 / params.p)
