"""Score-threshold sweeps: optimal LRP per class and its mean over classes.

The score domain is discretized into a fixed grid (0.01 steps by default,
101 points) and the LRP error is evaluated at every grid threshold; the
optimal LRP is the minimum over the defined samples. Greedy matching
labels are prefix-stable, so one labeling pass at tau serves the whole
grid and thresholds sharing the same retained detection set produce
bitwise-identical breakdowns. The sweep reads the columns of one
`matching.TauLabels` record (prefix sums of its kind codes and of
1 - IoU in match order); the same record gives the class's average
precision (`ap.ap`): callers label each (class, tau) once with
`matching.label_classes` and feed both consumers.

At each grid point the sweep keeps only the counts and the total error
(`lrp.total_from_counts`, the formula `lrp.breakdown_from_counts` uses),
and builds one `LrpBreakdown`, for the optimum. `SweepResult.samples`,
one breakdown per grid point, is built from the stored counts on first
read; the optimum and `SweepResult.optimum()` need no samples.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

from .lrp import LrpBreakdown, UndefinedLrp, breakdown_from_counts, total_from_counts
from .matching import IGNORED, TP, ClassId, Detection, GroundTruth, TauLabels, label_classes

DEFAULT_GRID_STEP = 0.01
# The finest grid has 10,001 points. A finer step would allocate its grid
# first (1e-9: a billion floats) and then sweep every point per class and tau.
MIN_GRID_STEP = 0.0001


def threshold_grid(grid_step: float = DEFAULT_GRID_STEP) -> list[float]:
    """Evenly spaced score thresholds covering [0, 1], endpoints included."""
    if not MIN_GRID_STEP <= grid_step <= 1.0:
        raise ValueError(f"grid step must be in [{MIN_GRID_STEP}, 1], got {grid_step}")
    steps = round(1.0 / grid_step)
    if steps < 1 or abs(steps * grid_step - 1.0) > 1e-9:
        raise ValueError(f"grid step {grid_step} does not evenly divide [0, 1]")
    return [i / steps for i in range(steps + 1)]


@dataclass(frozen=True)
class SweepSample:
    """One grid threshold and its breakdown; None where the error is
    undefined (nothing left to evaluate at that threshold)."""

    s: float
    breakdown: LrpBreakdown | None


@dataclass(frozen=True)
class SweepResult:
    """Per-class sweep over the score grid.

    olrp is the minimum total error over defined samples and s_star the
    grid point attaining it; ties resolve to the largest s so that the
    fewest detections are retained at equal error. A class with neither
    ground truths nor detections has nothing to evaluate and is marked
    evaluable=False with olrp and s_star unset.

    counts holds (s, loc_error_sum, n_tp, n_fp, n_fn) for every grid
    threshold in grid order; `samples` is built from it on first read.
    """

    class_id: ClassId
    tau: float
    counts: tuple[tuple[float, float, int, int, int], ...]
    evaluable: bool
    s_star: float | None
    olrp: float | None
    olrp_iou: float | None
    olrp_fp: float | None
    olrp_fn: float | None

    @cached_property
    def samples(self) -> tuple[SweepSample, ...]:
        """One sample per grid threshold, built on first read from counts."""
        return tuple(
            SweepSample(s, breakdown_from_counts(loc, n_tp, n_fp, n_fn, self.tau)
                        if n_tp + n_fp + n_fn else None)
            for s, loc, n_tp, n_fp, n_fn in self.counts
        )

    def optimum(self) -> dict[str, float | None]:
        """oLRP, its three components and s*, keyed as in reports; reads
        no samples."""
        return {
            "olrp": self.olrp, "olrp_iou": self.olrp_iou, "olrp_fp": self.olrp_fp,
            "olrp_fn": self.olrp_fn, "s_star": self.s_star,
        }


def sweep_class(
    gts: Sequence[GroundTruth],
    dets: Sequence[Detection],
    class_id: ClassId,
    tau: float,
    grid_step: float = DEFAULT_GRID_STEP,
) -> SweepResult:
    """Sweep the score-threshold grid for one class and pick its optimum."""
    ((_, labels),) = label_classes(gts, dets, (class_id,), (tau,))
    return sweep_labels(labels, class_id, grid_step)


def sweep_labels(
    labels: TauLabels, class_id: ClassId, grid_step: float = DEFAULT_GRID_STEP
) -> SweepResult:
    """Sweep the grid over one class's greedy labels at labels.tau.

    Reads only the record's columns: scores, kind codes and IoUs, plus
    its tau and count of non-ignored ground truths.
    """
    grid = threshold_grid(grid_step)
    tau, n_real = labels.tau, labels.n_real

    # Prefix accumulators over the descending-score order. The running
    # loc-error sum is accumulated in match order and stored once per
    # prefix, so equal prefixes reuse the identical float.
    scores_asc = labels.scores[::-1]
    n = len(scores_asc)
    kinds = labels.kinds
    cum_tp = list(accumulate((k == TP for k in kinds), initial=0))
    cum_ign = list(accumulate((k == IGNORED for k in kinds), initial=0))
    cum_loc = list(accumulate(
        ((1.0 - overlap) if k == TP else 0.0 for k, overlap in zip(kinds, labels.iou)),
        initial=0.0,
    ))

    # Counts and total per grid point; the last minimal total wins.
    counts = []
    best, best_total = None, None
    for s in grid:
        k = n - bisect_left(scores_asc, s)
        n_tp = cum_tp[k]
        n_fp = k - cum_ign[k] - n_tp
        n_fn = n_real - n_tp
        point = (s, cum_loc[k], n_tp, n_fp, n_fn)
        counts.append(point)
        if n_tp + n_fp + n_fn:
            total = total_from_counts(cum_loc[k], n_tp, n_fp, n_fn, tau)
            if best_total is None or total <= best_total:
                best, best_total = point, total
    if best is None:
        return SweepResult(class_id, tau, tuple(counts), False, None, None, None, None, None)
    s_star, loc, n_tp, n_fp, n_fn = best
    bd = breakdown_from_counts(loc, n_tp, n_fp, n_fn, tau)
    return SweepResult(
        class_id=class_id,
        tau=tau,
        counts=tuple(counts),
        evaluable=True,
        s_star=s_star,
        olrp=bd.total,
        olrp_iou=bd.loc_component,
        olrp_fp=bd.fp_component,
        olrp_fn=bd.fn_component,
    )


@dataclass(frozen=True)
class MoLrpReport:
    """Mean optimal LRP over classes, with component means and the range
    of class-specific optimal thresholds.

    Component means run over the classes where the component is defined;
    classes with nothing to evaluate are excluded and listed.
    """

    tau: float
    per_class: dict[ClassId, SweepResult]
    molrp: float
    molrp_iou: float | None
    molrp_fp: float | None
    molrp_fn: float | None
    s_star_min: float
    s_star_max: float
    not_evaluable: tuple[ClassId, ...]


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def molrp(
    gts: Sequence[GroundTruth],
    dets: Sequence[Detection],
    class_ids: Sequence[ClassId],
    tau: float,
    grid_step: float = DEFAULT_GRID_STEP,
) -> MoLrpReport:
    """Sweep every class and average the per-class optima."""
    per_class = {
        cid: sweep_labels(labels, cid, grid_step)
        for cid, labels in label_classes(gts, dets, class_ids, (tau,))
    }
    return aggregate_molrp(per_class, tau)


def aggregate_molrp(per_class: dict[ClassId, SweepResult], tau: float) -> MoLrpReport:
    """Combine already-computed per-class sweeps into the mean report."""
    evaluable = [r for r in per_class.values() if r.evaluable]
    if not evaluable:
        raise UndefinedLrp("no class has anything to evaluate")
    return MoLrpReport(
        tau=tau,
        per_class=per_class,
        molrp=_mean([r.olrp for r in evaluable]),
        molrp_iou=_mean([r.olrp_iou for r in evaluable if r.olrp_iou is not None]),
        molrp_fp=_mean([r.olrp_fp for r in evaluable if r.olrp_fp is not None]),
        molrp_fn=_mean([r.olrp_fn for r in evaluable if r.olrp_fn is not None]),
        s_star_min=min(r.s_star for r in evaluable),
        s_star_max=max(r.s_star for r in evaluable),
        not_evaluable=tuple(cid for cid, r in per_class.items() if not r.evaluable),
    )

