"""File ingestion and report/curve export.

Inputs follow the COCO conventions: an annotation document with images /
annotations / categories (bbox as [x, y, w, h], iscrowd mapping to the
ignore flag) and a results array of {image_id, category_id, bbox, score}.
Schema violations raise SchemaError with a path to the offending field.
Outputs are deterministic byte streams: an evaluation report (JSON or
CSV, schema lrp_report_v1), long-format curve data, per-class threshold
files, and stream fixtures for the video-linking pipeline.
"""

from __future__ import annotations

import csv
import json
import logging
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Sequence

from .ap import AP_VARIANTS, RPCurve, ap, curve_from_labels
from .geometry import BoundingBox
from .matching import ClassId, Detection, GroundTruth, label_classes
from .sweep import (
    DEFAULT_GRID_STEP,
    MoLrpReport,
    SweepResult,
    aggregate_molrp,
    sweep_labels,
)
from .video import FrameDetections, StreamDetection

logger = logging.getLogger("lrpeval")

REPORT_SCHEMA = "lrp_report_v1"
THRESHOLDS_SCHEMA = "lrp_thresholds_v1"
DEFAULT_TAU = 0.5
DEFAULT_TAU_LIST = tuple(i / 100 for i in range(50, 100, 5))


class SchemaError(ValueError):
    """An input file violates its declared schema; the message names the
    offending field."""


@dataclass(frozen=True)
class ImageInfo:
    id: object
    width: float | None = None
    height: float | None = None


@dataclass(frozen=True)
class Category:
    id: ClassId
    name: str


@dataclass(frozen=True)
class Dataset:
    """Validated ground-truth side of an evaluation."""

    images: tuple[ImageInfo, ...]
    categories: tuple[Category, ...]
    ground_truths: tuple[GroundTruth, ...]

    def category_names(self) -> dict[ClassId, str]:
        return {c.id: c.name for c in self.categories}

    def class_ids(self) -> list[ClassId]:
        return sorted(c.id for c in self.categories)


def _require(record: Mapping, key: str, where: str):
    if not isinstance(record, dict):
        raise SchemaError(f"{where}: must be a JSON object")
    if key not in record:
        raise SchemaError(f"{where}.{key}: missing required field")
    return record[key]


def _require_id(record: Mapping, key: str, where: str):
    """A required field that is used as a dictionary key: a number or a
    string (a bool would collide with the ids 0 and 1)."""
    value = _require(record, key, where)
    if _id_kind(value) is None:
        raise SchemaError(f"{where}.{key}: must be a number or a string, got {value!r}")
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


def load_ground_truth(path) -> Dataset:
    """Load and validate a COCO-style annotation file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SchemaError("root: annotation document must be a JSON object")

    images = []
    image_ids = set()
    for i, img in enumerate(_array(data, "images")):
        img_id = _require_id(img, "id", f"images[{i}]")
        if img_id in image_ids:
            raise SchemaError(f"images[{i}].id: duplicate image id {img_id!r}")
        image_ids.add(img_id)
        for key in ("width", "height"):
            if img.get(key) is not None and not _is_number(img[key]):
                raise SchemaError(f"images[{i}].{key}: must be a number, got {img[key]!r}")
        images.append(ImageInfo(img_id, img.get("width"), img.get("height")))
    image_by_id = {im.id: im for im in images}

    categories = []
    category_ids = set()
    id_kind = None
    for i, cat in enumerate(_array(data, "categories")):
        cat_id = _require(cat, "id", f"categories[{i}]")
        # Category ids are sorted, so they must all be numbers or all strings.
        kind = _id_kind(cat_id)
        if kind is None or kind != (id_kind or kind):
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
        categories.append(Category(cat_id, name))

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
        image = image_by_id[img_id]
        if box.x_min < 0 or box.y_min < 0 or (
            image.width is not None and box.x_max > image.width
        ) or (image.height is not None and box.y_max > image.height):
            logger.warning(
                "annotation id %s extends outside image %s; kept as annotated",
                ann.get("id", "?"), img_id,
            )
        crowd = ann.get("iscrowd", 0)
        if not isinstance(crowd, int) or crowd not in (0, 1):
            raise SchemaError(f"{where}.iscrowd: must be 0, 1, false or true, got {crowd!r}")
        gts.append(GroundTruth(img_id, cat_id, box, ignore=bool(crowd)))

    return Dataset(tuple(images), tuple(categories), tuple(gts))


def load_detections(path, dataset: Dataset) -> list[Detection]:
    """Load a COCO-style results array and validate it against a dataset."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise SchemaError("root: detection results must be a JSON array")
    image_ids = {im.id for im in dataset.images}
    category_ids = {c.id for c in dataset.categories}
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


def save_detections(dets: Sequence[Detection], path) -> None:
    """Write detections as a COCO-style results array."""
    records = [
        {
            "image_id": d.image_id,
            "category_id": d.class_id,
            "bbox": list(d.box.as_xywh()),
            "score": d.score,
        }
        for d in dets
    ]
    write_json(records, path)


def save_ground_truth(dataset: Dataset, path) -> None:
    """Write a dataset back out in COCO annotation form."""
    doc = {
        "images": [
            {"id": im.id, "width": im.width, "height": im.height} for im in dataset.images
        ],
        "annotations": [
            {
                "id": i + 1,
                "image_id": g.image_id,
                "category_id": g.class_id,
                "bbox": list(g.box.as_xywh()),
                "iscrowd": int(g.ignore),
            }
            for i, g in enumerate(dataset.ground_truths)
        ],
        "categories": [{"id": c.id, "name": c.name} for c in dataset.categories],
    }
    write_json(doc, path)


def load_stream(path, dataset: Dataset) -> list[FrameDetections]:
    """Load a stream fixture: {frames: [{frame_index, detections:
    [{class_id, bbox, class_scores}]}]} with bbox as [x, y, w, h], each
    class_id one of the dataset's categories."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "frames" not in data:
        raise SchemaError("root: stream fixture must be an object with a 'frames' array")
    category_ids = {c.id for c in dataset.categories}
    frames = []
    n_bins = None  # every class distribution has one bin per class
    for i, frame in enumerate(_array(data, "frames")):
        where = f"frames[{i}]"
        index = _require(frame, "frame_index", where)
        if not isinstance(index, int) or isinstance(index, bool):
            raise SchemaError(f"{where}.frame_index: must be an integer, got {index!r}")
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


def save_stream(frames: Sequence[FrameDetections], path) -> None:
    doc = {
        "frames": [
            {
                "frame_index": frame.frame_index,
                "detections": [
                    {
                        "class_id": det.class_id,
                        "bbox": list(det.box.as_xywh()),
                        "class_scores": list(det.class_scores),
                    }
                    for det in frame.detections
                ],
            }
            for frame in frames
        ]
    }
    write_json(doc, path)


@dataclass(frozen=True)
class ThresholdRow:
    class_id: ClassId
    class_name: str
    s_star: float
    olrp: float
    warning: str | None


def threshold_rows(
    report: MoLrpReport, names: Mapping[ClassId, str] | None = None
) -> list[ThresholdRow]:
    """Per-class operating thresholds from a sweep report.

    A class with ground truth but no detections has every threshold tie
    at total error 1; exporting the tie-break winner (1.0) would suppress
    any future detection of that class, so the row is forced to 0.0 with
    a warning instead.
    """
    names = names or {}
    rows = []
    for cid, result in report.per_class.items():
        if not result.evaluable:
            continue
        warning = None
        s_star = result.s_star
        first = result.samples[0].breakdown
        if first is not None and first.n_tp + first.n_fp == 0:
            s_star = 0.0
            warning = "class has ground truth but no detections; threshold forced to 0.00"
            logger.warning("class %s: %s", cid, warning)
        rows.append(ThresholdRow(cid, str(names.get(cid, cid)), s_star, result.olrp, warning))
    return rows


def save_thresholds(rows: Sequence[ThresholdRow], tau: float, path) -> None:
    doc = {
        "schema": THRESHOLDS_SCHEMA,
        "tau": tau,
        "thresholds": [round_row(asdict(r)) for r in rows],
    }
    write_json(doc, path)


def load_thresholds(path, dataset: Dataset) -> dict[ClassId, float]:
    """Load per-class thresholds, each class_id one of the dataset's
    categories."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("schema") != THRESHOLDS_SCHEMA:
        raise SchemaError(f"root: expected a {THRESHOLDS_SCHEMA} document")
    category_ids = {c.id for c in dataset.categories}
    out = {}
    for i, rec in enumerate(_array(data, "thresholds")):
        cid = _require_known(rec, "class_id", f"thresholds[{i}]", category_ids, "category")
        s_star = _require(rec, "s_star", f"thresholds[{i}]")
        if not _is_number(s_star) or not 0.0 <= s_star <= 1.0:
            raise SchemaError(f"thresholds[{i}].s_star: must be a number in [0, 1], got {s_star!r}")
        out[cid] = float(s_star)
    return out


@dataclass(frozen=True)
class ClassReportRow:
    """One class of an evaluation report: its sweep at the report's tau
    plus the counts and AP variants the sweep does not hold."""

    class_name: str
    n_gt: int
    n_det: int
    sweep: SweepResult
    ap_continuous: float | None
    ap_pascal11: float | None
    ap_coco101: float | None


@dataclass(frozen=True)
class EvalReport:
    """Per-class rows, the class-mean LRP report over their sweeps, and
    the tau-averaged mean AP."""

    tau: float
    grid_step: float
    ap_variant: str
    tau_list: tuple[float, ...]
    rows: tuple[ClassReportRow, ...]
    lrp: MoLrpReport
    mean_ap: float | None


def build_report(
    dataset: Dataset,
    detections: Sequence[Detection],
    tau: float = DEFAULT_TAU,
    tau_list: Sequence[float] = DEFAULT_TAU_LIST,
    grid_step: float = DEFAULT_GRID_STEP,
    ap_variant: str = "coco101",
) -> EvalReport:
    """Evaluate detections against a dataset: per-class sweep optima, AP
    variants at tau, and the tau-averaged mean AP over tau_list.

    Each (class, tau) in {tau} and tau_list is labeled once; the labels at
    tau feed both the sweep and the AP variants.
    """
    if ap_variant not in AP_VARIANTS:
        raise ValueError(f"unknown AP variant {ap_variant!r}")
    class_ids = dataset.class_ids()
    names = dataset.category_names()

    rows = []
    per_class_sweeps: dict[ClassId, SweepResult] = {}
    ap_by_tau: dict[ClassId, dict[float, float]] = {cid: {} for cid in class_ids}
    for cid, labels in label_classes(
        dataset.ground_truths, detections, class_ids, dict.fromkeys((tau, *tau_list))
    ):
        t, n_real = labels.tau, labels.n_real
        curve = curve_from_labels(labels, cid) if n_real else None
        if curve is not None and t in tau_list:
            ap_by_tau[cid][t] = ap(curve, ap_variant)
        if t != tau:
            continue
        per_class_sweeps[cid] = sweep = sweep_labels(labels, cid, grid_step)
        aps = {f"ap_{v}": None if curve is None else ap(curve, v) for v in AP_VARIANTS}
        rows.append(ClassReportRow(names[cid], n_real, len(labels.order), sweep, **aps))
    per_class_tau_ap = [
        sum(aps[t] for t in tau_list) / len(tau_list) for aps in ap_by_tau.values() if aps
    ]

    lrp = aggregate_molrp(per_class_sweeps, tau)
    if per_class_tau_ap:
        mean_ap = sum(per_class_tau_ap) / len(per_class_tau_ap)
    else:
        logger.warning("no class has ground truth; mean AP left unset")
        mean_ap = None
    return EvalReport(tau, grid_step, ap_variant, tuple(tau_list), tuple(rows), lrp, mean_ap)


def round_row(row: Mapping) -> dict:
    """A copy of a table row with every real at 4 decimal places; the
    class id is kept as given."""
    return {
        k: round(v, 4) if isinstance(v, float) and k != "class_id" else v
        for k, v in row.items()
    }


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready form of a report, reals at 4 decimal places."""
    lrp = report.lrp
    return {
        "schema": REPORT_SCHEMA,
        "config": {
            "tau": report.tau,
            "grid_step": report.grid_step,
            "ap_variant": report.ap_variant,
            "tau_list": list(report.tau_list),
        },
        "classes": [
            round_row({
                "class_id": r.sweep.class_id,
                "class_name": r.class_name,
                "n_gt": r.n_gt,
                "n_det": r.n_det,
                "evaluable": r.sweep.evaluable,
                **r.sweep.optimum(),
                "ap_continuous": r.ap_continuous,
                "ap_pascal11": r.ap_pascal11,
                "ap_coco101": r.ap_coco101,
            })
            for r in report.rows
        ],
        "summary": round_row({
            "molrp": lrp.molrp,
            "molrp_iou": lrp.molrp_iou,
            "molrp_fp": lrp.molrp_fp,
            "molrp_fn": lrp.molrp_fn,
            "mean_ap": report.mean_ap,
            "s_star_min": lrp.s_star_min,
            "s_star_max": lrp.s_star_max,
            "not_evaluable": [str(c) for c in lrp.not_evaluable],
        }),
    }

_REPORT_CSV_FIELDS = [
    "class_id", "class_name", "n_gt", "n_det", "evaluable",
    "olrp", "olrp_iou", "olrp_fp", "olrp_fn", "s_star",
    "ap_continuous", "ap_pascal11", "ap_coco101",
    "mean_ap", "s_star_min", "s_star_max",
]


def export_report(report: EvalReport, path, fmt: str = "json") -> None:
    """Write a report as JSON or CSV with stable field ordering; the CSV
    ends with a summary row of the class means."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown report format {fmt!r}; expected json or csv")
    doc = report_to_dict(report)
    if fmt == "json":
        write_json(doc, path)
        return
    classes, summary = doc["classes"], doc["summary"]
    summary_row = {
        "class_name": "summary",
        "n_gt": sum(r["n_gt"] for r in classes),
        "n_det": sum(r["n_det"] for r in classes),
        "olrp": summary["molrp"],
        "olrp_iou": summary["molrp_iou"],
        "olrp_fp": summary["molrp_fp"],
        "olrp_fn": summary["molrp_fn"],
        "mean_ap": summary["mean_ap"],
        "s_star_min": summary["s_star_min"],
        "s_star_max": summary["s_star_max"],
    }
    preamble = (
        f"# {REPORT_SCHEMA} tau={report.tau:.4f} grid_step={report.grid_step:.4f} "
        f"ap_variant={report.ap_variant} "
        f"tau_list={','.join(f'{t:.2f}' for t in report.tau_list)}\n"
    )
    write_csv([*classes, summary_row], path, _REPORT_CSV_FIELDS, preamble)


CURVE_CSV_FIELDS = [
    "class_id", "tau", "source", "s", "recall", "precision",
    "lrp_total", "lrp_iou", "lrp_fp", "lrp_fn", "is_optimal",
]


def export_curves(items: Iterable[SweepResult | RPCurve], path) -> None:
    """Write long-format curve records.

    Sweep results yield one record per defined grid sample (recall and
    precision recovered from the FN/FP components, the optimal threshold
    flagged on exactly one record); recall-precision curves yield one
    record per point with the detection score in the s column.
    """
    write_csv(_curve_records(items), path, CURVE_CSV_FIELDS)


def _curve_records(items: Iterable[SweepResult | RPCurve]):
    for item in items:
        if isinstance(item, SweepResult):
            for sample in item.samples:
                bd = sample.breakdown
                if bd is None:
                    continue
                yield {
                    "class_id": item.class_id, "tau": item.tau, "source": "sweep", "s": sample.s,
                    "recall": None if bd.fn_component is None else 1.0 - bd.fn_component,
                    "precision": None if bd.fp_component is None else 1.0 - bd.fp_component,
                    "lrp_total": bd.total, "lrp_iou": bd.loc_component,
                    "lrp_fp": bd.fp_component, "lrp_fn": bd.fn_component,
                    "is_optimal": item.evaluable and sample.s == item.s_star,
                }
        elif isinstance(item, RPCurve):
            for recall, precision, score in item.points:
                yield {
                    "class_id": item.class_id, "tau": item.tau, "source": "rp", "s": score,
                    "recall": recall, "precision": precision,
                }
        else:
            raise TypeError(f"cannot export {type(item).__name__} as curve data")


def _cell(value):
    """The one CSV cell rule: reals at 4 decimal places, None empty,
    bools lower-case, anything else as given."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.4f}"
    return value


def write_csv(rows: Iterable[Mapping], path, fields: Sequence[str] | None = None,
              preamble: str = "") -> None:
    """Write rows as CSV: preamble, a header of fields (default: the keys
    of rows[0]), then one line per row with missing fields left empty.
    The class_id column is written as given, every other cell by `_cell`."""
    fields = list(rows[0]) if fields is None else fields
    with _open_out(path) as fh:
        fh.write(preamble)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow(
                [row.get(k) if k == "class_id" else _cell(row.get(k)) for k in fields]
            )


def write_json(obj, path) -> None:
    """Write obj as indented JSON plus a final newline; "-" is stdout."""
    with _open_out(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


@contextmanager
def _open_out(path):
    """Writable text handle for a path, with "-" meaning stdout."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
