"""Independent oracles shared by the test modules.

Everything here recomputes expected values by brute force (rasterization,
permutation enumeration, per-threshold re-matching, a full scan per
detection, scalar link costs, explicit tubelet chains, one bisect per AP
grid recall, an eager breakdown per sweep grid point, field-by-field
loaders) so the tested code paths are checked against genuinely separate
computations.
"""

import itertools
import json
import math
import random
import sys
from bisect import bisect_left
from itertools import accumulate
from typing import Mapping

import numpy as np

from lrpeval import BoundingBox, LrpBreakdown, MatchResult
from lrpeval.geometry import iou
from lrpeval.ap import AP_VARIANTS
from lrpeval.dataio import SchemaError
from lrpeval.matching import IGNORED, TP, Detection, DetectionLabel, GroundTruth
from lrpeval.sweep import DEFAULT_GRID_STEP, threshold_grid
from lrpeval.video import FrameDetections, StreamDetection, bayes_update, link_frames
from synth import GtRecords


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
    recall r is the maximum precision over the points whose recall reaches
    r, 0 if there is none."""
    if variant not in AP_VARIANTS:
        raise ValueError(f"unknown AP variant {variant!r}; expected one of {AP_VARIANTS}")
    if not curve.points:
        return 0.0
    recalls = [p[0] for p in curve.points]
    interpolated = list(accumulate(reversed([p[1] for p in curve.points]), max))[::-1]
    if variant == "continuous":
        total = 0.0
        prev = 0.0
        for recall, interp in zip(recalls, interpolated):
            total += (recall - prev) * interp
            prev = recall
        return total

    def interp_at(r):
        idx = bisect_left(recalls, r)
        return 0.0 if idx == len(recalls) else interpolated[idx]

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
    """Sum of absolute bin differences, added in bin order from 0.0 as the
    scalar formula reads (`sum` compensates float sums from Python 3.12 on)."""
    if len(a) != len(b):
        raise ValueError(f"class score vectors differ in length: {len(a)} vs {len(b)}")
    total = 0.0
    for x, y in zip(a, b):
        total += abs(x - y)
    return total


def same_bits(a, b) -> bool:
    """Whether a and b hold the same values bit for bit: floats compare by
    `float.hex`, so a signed zero or a last-bit drift shows; lists, tuples
    (named ones too) and dicts compare item by item, in order; anything
    else by type and ==."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, dict):
        a, b = list(a.items()), list(b.items())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same_bits, a, b))
    return a == b


def link_cost(prev, curr, alpha):
    """Blend of box distance and class-distribution distance, in [0, 1]."""
    return alpha * (1.0 - iou(prev.box, curr.box)) + (1.0 - alpha) * 0.5 * _l1(
        prev.class_scores, curr.class_scores
    )


def track_reference(frames, alpha, cost_cutoff):
    """Scores and tubelet lengths of a tracked stream, from explicit chains.

    Every tubelet is kept whole as the list of its (frame position,
    detection index) entries. A detection that `link_frames` pairs with a
    previous-frame detection is appended to that detection's chain with
    `bayes_update(partner's score, own score)`; any other starts a chain
    at its raw score. Returns (scores per frame, chain lengths in the order
    the chains start)."""
    chains, chain_of, score = [], {}, {}
    for f, frame in enumerate(frames):
        partner = {}
        if f > 0:
            partner = {c: p for p, c in link_frames(frames[f - 1], frame, alpha, cost_cutoff)}
        for j, det in enumerate(frame.detections):
            if j in partner:
                prev = (f - 1, partner[j])
                chain = chain_of[prev]
                score[f, j] = bayes_update(score[prev], det.score)
            else:
                chain = []
                chains.append(chain)
                score[f, j] = det.score
            chain.append((f, j))
            chain_of[f, j] = chain
    scores = tuple(
        tuple(score[f, j] for j in range(len(frame.detections)))
        for f, frame in enumerate(frames)
    )
    return scores, tuple(len(chain) for chain in chains)


def box_corner_check(x_min, y_min, x_max, y_max):
    """The ValueError `BoundingBox` raises for these corners, or None: each
    coordinate in turn (exactly an int or a float, and finite), then the
    degenerate-box test: positive width and height, and an area that
    neither underflows to 0 nor, added to itself, overflows to infinity."""
    box = dict(x_min=x_min, y_min=y_min, x_max=x_max, y_max=y_max)
    for name in ("x_min", "y_min", "x_max", "y_max"):
        value = box[name]
        if type(value) not in (int, float) or not math.isfinite(value):
            return ValueError(f"box coordinate {name} must be finite, got {value!r}")
    width, height = x_max - x_min, y_max - y_min
    box_area = width * height
    if not (width > 0 and height > 0 and box_area > 0 and math.isfinite(box_area + box_area)):
        return ValueError(
            "degenerate box: need x_max > x_min, y_max > y_min and an area in "
            f"(0, 8.98847e+307], got ({x_min}, {y_min}, {x_max}, {y_max})"
        )
    return None


def class_scores_check(class_scores):
    """The ValueError `StreamDetection` raises for this distribution, or
    None: emptiness, then every entry exactly an int or a float, then
    every entry in [0, 1], then the sum."""
    if not class_scores:
        return ValueError("class_scores must not be empty")
    if any(type(v) not in (int, float) for v in class_scores):
        return ValueError(f"class_scores entries must be numbers: {class_scores}")
    if any(not 0.0 <= v <= 1.0 for v in class_scores):
        return ValueError(f"class_scores entries must be in [0, 1]: {class_scores}")
    if abs(sum(class_scores) - 1.0) > 1e-9:
        return ValueError(f"class_scores must sum to 1, got {sum(class_scores)}")
    return None


def eager_breakdown(loc_error_sum, n_tp, n_fp, n_fn, tau):
    """A breakdown with the total written out, as the sweep once built
    at every grid point."""
    z = n_tp + n_fp + n_fn
    n_det = n_tp + n_fp
    n_gt = n_tp + n_fn
    return LrpBreakdown(
        total=(loc_error_sum / (1.0 - tau) + n_fp + n_fn) / z,
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


def eager_sweep(labels, grid_step=DEFAULT_GRID_STEP):
    """The sweep that builds a breakdown at every grid point and picks the
    last minimal total. Returns (samples, evaluable, optimum): samples
    holds one (s, breakdown) pair per grid point, the breakdown None where
    nothing is left to evaluate, and the optimum is keyed as
    `SweepResult.optimum()`."""
    grid = threshold_grid(grid_step)
    tau, n_real = labels.tau, labels.n_real

    scores_asc = labels.scores[::-1]
    n = len(scores_asc)
    kinds = labels.kinds
    cum_tp = list(accumulate((k == TP for k in kinds), initial=0))
    cum_ign = list(accumulate((k == IGNORED for k in kinds), initial=0))
    cum_loc = list(accumulate(
        ((1.0 - overlap) if k == TP else 0.0 for k, overlap in zip(kinds, labels.iou)),
        initial=0.0,
    ))

    samples = []
    for s in grid:
        k = n - bisect_left(scores_asc, s)
        n_tp = cum_tp[k]
        n_fp = k - cum_ign[k] - n_tp
        n_fn = n_real - n_tp
        if n_tp + n_fp + n_fn == 0:
            samples.append((s, None))
            continue
        samples.append((s, eager_breakdown(cum_loc[k], n_tp, n_fp, n_fn, tau)))

    best = None
    for s, bd in samples:
        if bd is None:
            continue
        if best is None or bd.total <= best[1].total:
            best = (s, bd)
    if best is None:
        optimum = dict.fromkeys(("olrp", "olrp_iou", "olrp_fp", "olrp_fn", "s_star"))
        return samples, False, optimum
    s_star, bd = best
    optimum = {
        "olrp": bd.total, "olrp_iou": bd.loc_component, "olrp_fp": bd.fp_component,
        "olrp_fn": bd.fn_component, "s_star": s_star,
    }
    return samples, True, optimum


# The loaders below check every record field by field through helpers that
# format the record's path first. They are the reference for
# `lrpeval.dataio`'s loaders, which test the hot fields inline and format
# a path only to raise: both must accept the same documents, build equal
# objects and raise the same SchemaError messages.


def _require(record: Mapping, key: str, where: str):
    if not isinstance(record, dict):
        raise SchemaError(f"{where}: must be a JSON object")
    if key not in record:
        raise SchemaError(f"{where}.{key}: missing required field")
    return record[key]


def _require_id(record: Mapping, key: str, where: str):
    """A required field that is used as a dictionary key: a finite number
    or a string (a bool would collide with the ids 0 and 1, and JSON cannot
    spell NaN or infinity in an output)."""
    value = _require(record, key, where)
    if _id_kind(value) is None:
        raise SchemaError(f"{where}.{key}: must be a number or a string, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise SchemaError(f"{where}.{key}: must be a finite number or a string, got {value!r}")
    return value


def _require_known(record: Mapping, key: str, where: str, known, what: str):
    """A required id field that must name one of the known ids."""
    value = _require_id(record, key, where)
    if value not in known:
        raise SchemaError(f"{where}.{key}: unknown {what} id {value!r}")
    return value


def _array(record: Mapping, key: str, where: str = "") -> list:
    """An optional array field; absent means empty."""
    value = record.get(key, [])
    if not isinstance(value, list):
        path = f"{where}.{key}" if where else key
        raise SchemaError(f"{path}: must be an array, got {value!r}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_bbox(raw, where: str) -> BoundingBox:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise SchemaError(f"{where}: bbox must be [x, y, width, height], got {raw!r}")
    for k, v in enumerate(raw):
        if not _is_number(v):
            raise SchemaError(f"{where}[{k}]: must be a number, got {v!r}")
    x, y, w, h = raw
    try:
        return BoundingBox.from_xywh(float(x), float(y), float(w), float(h))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _id_kind(value) -> str | None:
    if isinstance(value, str):
        return "string"
    if _is_number(value):
        return "number"
    return None


def load_ground_truth(path) -> GtRecords:
    """Load and validate a COCO-style annotation file, as records."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SchemaError("root: annotation document must be a JSON object")

    sizes = {}
    image_ids = set()
    for i, img in enumerate(_array(data, "images")):
        img_id = _require_id(img, "id", f"images[{i}]")
        if img_id in image_ids:
            raise SchemaError(f"images[{i}].id: duplicate image id {img_id!r}")
        image_ids.add(img_id)
        for key in ("width", "height"):
            value = img.get(key)
            if value is None:
                continue
            if not _is_number(value):
                raise SchemaError(f"images[{i}].{key}: must be a number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:
                raise SchemaError(
                    f"images[{i}].{key}: must fit a float, got an integer of "
                    f"{len(str(abs(value)))} digits"
                ) from None
            if not (finite and value > 0):
                raise SchemaError(
                    f"images[{i}].{key}: must be a finite number > 0, got {value!r}"
                )
        sizes[img_id] = (img.get("width"), img.get("height"))

    names = {}
    category_ids = set()
    id_kind = None
    for i, cat in enumerate(_array(data, "categories")):
        cat_id = _require_id(cat, "id", f"categories[{i}]")
        # Category ids are sorted, so they must all be numbers or all strings.
        kind = _id_kind(cat_id)
        if kind != (id_kind or kind):
            raise SchemaError(
                f"categories[{i}].id: category ids must be all numbers or all strings, "
                f"got {cat_id!r}"
            )
        id_kind = kind
        if cat_id in category_ids:
            raise SchemaError(f"categories[{i}].id: duplicate category id {cat_id!r}")
        category_ids.add(cat_id)
        name = cat.get("name", str(cat_id))
        if not isinstance(name, str):
            raise SchemaError(f"categories[{i}].name: must be a string, got {name!r}")
        names[cat_id] = name

    gts = []
    for i, ann in enumerate(_array(data, "annotations")):
        where = f"annotations[{i}]"
        img_id = _require_known(ann, "image_id", where, image_ids, "image")
        cat_id = _require_known(ann, "category_id", where, category_ids, "category")
        raw_bbox = _require(ann, "bbox", where)
        try:
            box = _parse_bbox(raw_bbox, f"{where}.bbox")
        except SchemaError as exc:
            ann_id = ann.get("id", "?")
            raise SchemaError(f"{exc} (annotation id {ann_id})") from None
        crowd = ann.get("iscrowd", 0)
        if not isinstance(crowd, int) or crowd not in (0, 1):
            raise SchemaError(f"{where}.iscrowd: must be 0, 1, false or true, got {crowd!r}")
        # Only a record that validates warns.
        width, height = sizes[img_id]
        if box.x_min < 0 or box.y_min < 0 or (
            width is not None and box.x_max > width
        ) or (height is not None and box.y_max > height):
            print(f"warning: annotation id {ann.get('id', '?')} extends outside image {img_id}; "
                  "kept as annotated", file=sys.stderr)
        gts.append(GroundTruth(img_id, cat_id, box, ignore=bool(crowd)))

    return GtRecords(sizes, names, tuple(gts))


def load_detections(path, dataset: GtRecords) -> list[Detection]:
    """Load a COCO-style results array and validate it against a dataset,
    as records."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise SchemaError("root: detection results must be a JSON array")
    image_ids = set(dataset.images)
    category_ids = set(dataset.names)
    dets = []
    for i, rec in enumerate(data):
        where = f"detections[{i}]"
        img_id = _require_known(rec, "image_id", where, image_ids, "image")
        cat_id = _require_known(rec, "category_id", where, category_ids, "category")
        score = _require(rec, "score", where)
        if not _is_number(score) or not 0.0 <= score <= 1.0:
            raise SchemaError(f"{where}.score: must be a real in [0, 1], got {score!r}")
        box = _parse_bbox(_require(rec, "bbox", where), f"{where}.bbox")
        dets.append(Detection(img_id, cat_id, box, float(score)))
    return dets


def load_stream(path, dataset: GtRecords) -> list[FrameDetections]:
    """Load a stream fixture: {frames: [{frame_index, detections:
    [{class_id, bbox, class_scores}]}]} with bbox as [x, y, w, h], each
    frame_index one of the dataset's images and each class_id one of its
    categories."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "frames" not in data:
        raise SchemaError("root: stream fixture must be an object with a 'frames' array")
    image_ids = set(dataset.images)
    category_ids = set(dataset.names)
    frames = []
    n_bins = None  # every class distribution has one bin per class
    for i, frame in enumerate(_array(data, "frames")):
        where = f"frames[{i}]"
        index = _require(frame, "frame_index", where)
        if not isinstance(index, int) or isinstance(index, bool):
            raise SchemaError(f"{where}.frame_index: must be an integer, got {index!r}")
        if index not in image_ids:
            raise SchemaError(f"{where}.frame_index: unknown image id {index!r}")
        dets = []
        for j, rec in enumerate(_array(frame, "detections", where)):
            dwhere = f"{where}.detections[{j}]"
            class_id = _require_known(rec, "class_id", dwhere, category_ids, "category")
            box = _parse_bbox(_require(rec, "bbox", dwhere), f"{dwhere}.bbox")
            raw_scores = _require(rec, "class_scores", dwhere)
            if not isinstance(raw_scores, list):
                raise SchemaError(f"{dwhere}.class_scores: must be an array")
            for k, v in enumerate(raw_scores):
                if not _is_number(v):
                    raise SchemaError(f"{dwhere}.class_scores[{k}]: must be a number, got {v!r}")
            if n_bins is not None and len(raw_scores) != n_bins:
                raise SchemaError(
                    f"{dwhere}.class_scores: has {len(raw_scores)} entries, "
                    f"earlier detections have {n_bins}"
                )
            n_bins = len(raw_scores)
            try:
                dets.append(StreamDetection(class_id, box, tuple(float(v) for v in raw_scores)))
            except ValueError as exc:
                raise SchemaError(f"{dwhere}.class_scores: {exc}") from exc
        frames.append(FrameDetections(index, tuple(dets)))
    return frames
