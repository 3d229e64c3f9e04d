"""File ingestion and report/curve export.

Inputs follow the COCO conventions: an annotation document with images /
annotations / categories (bbox as [x, y, w, h], iscrowd mapping to the
ignore flag) and a results array of {image_id, category_id, bbox, score}.
Schema violations raise SchemaError with a path to the offending field.
The loaders check each record's fields in a fixed order and raise at the
first broken rule, naming the field. The per-record loops test the hot
fields (ids, score, bbox values) inline, with the same type sets the
helpers use, and call a helper only when a test fails, to raise; the
record's path (such as detections[12]) is formatted only then. Box and
class-distribution values are checked by the constructors.
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
from math import isfinite
from typing import Iterable, Mapping, Sequence

from .ap import AP_VARIANTS, RPCurve, ap
from .geometry import _NUMBER_TYPES, BoundingBox
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


@dataclass(frozen=True, slots=True)
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


_ID_TYPES = frozenset((int, float, str))


class _Invalid(Exception):
    """A rule broken inside one record: the path of the field below the
    record and the message. The loader adds the record's own path, so a
    valid record never formats one."""

    def __init__(self, field: str, message: str):
        self.field, self.message = field, message

    def at(self, where: str) -> SchemaError:
        return SchemaError(f"{where}{self.field}: {self.message}")


def _require(record: Mapping, key: str):
    if type(record) is not dict:
        raise _Invalid("", "must be a JSON object")
    if key not in record:
        raise _Invalid(f".{key}", "missing required field")
    return record[key]


def _require_id(record: Mapping, key: str, known=None, what: str = ""):
    """A required field that is used as a dictionary key: a number or a
    string and, when known ids are given, one of them.

    The loaders' record loops test `type(value) in _ID_TYPES and value in
    known` inline and call this only when that fails, to raise."""
    value = _require(record, key)
    if type(value) not in _ID_TYPES:
        raise _Invalid(f".{key}", f"must be a number or a string, got {value!r}")
    if known is not None and value not in known:
        raise _Invalid(f".{key}", f"unknown {what} id {value!r}")
    return value


def _require_numbers(values: list, field: str) -> None:
    for k, v in enumerate(values):
        if type(v) not in _NUMBER_TYPES:
            raise _Invalid(f"{field}[{k}]", f"must be a number, got {v!r}")


def _too_large(values: list, field: str) -> _Invalid:
    """The error naming the first of values that float() overflows on."""
    for k, v in enumerate(values):
        try:
            float(v)
        except OverflowError:
            return _Invalid(
                f"{field}[{k}]", f"must fit a float, got an integer of {len(str(abs(v)))} digits"
            )


def _array(record: Mapping, key: str, where: str = "") -> list:
    """An optional array field; absent means empty."""
    value = record.get(key, [])
    if not isinstance(value, list):
        path = f"{where}.{key}" if where else key
        raise SchemaError(f"{path}: must be an array, got {value!r}")
    return value


def _parse_bbox(raw) -> BoundingBox:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise _Invalid(".bbox", f"bbox must be [x, y, width, height], got {raw!r}")
    x, y, w, h = raw
    if not (
        type(x) in _NUMBER_TYPES and type(y) in _NUMBER_TYPES
        and type(w) in _NUMBER_TYPES and type(h) in _NUMBER_TYPES
    ):
        _require_numbers(raw, ".bbox")
    try:
        return BoundingBox.from_xywh(float(x), float(y), float(w), float(h))
    except ValueError as exc:
        raise _Invalid(".bbox", str(exc)) from None
    except OverflowError:
        raise _too_large(raw, ".bbox") from None


def _id_kind(value) -> str | None:
    if type(value) is str:
        return "string"
    if type(value) in _NUMBER_TYPES:
        return "number"
    return None


def load_ground_truth(path) -> Dataset:
    """Load and validate a COCO-style annotation file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SchemaError("root: annotation document must be a JSON object")

    image_by_id = {}
    for i, img in enumerate(_array(data, "images")):
        try:
            img_id = _require_id(img, "id")
            if img_id in image_by_id:
                raise _Invalid(".id", f"duplicate image id {img_id!r}")
            width, height = img.get("width"), img.get("height")
            for key, value in (("width", width), ("height", height)):
                if value is not None and type(value) not in _NUMBER_TYPES:
                    raise _Invalid(f".{key}", f"must be a number, got {value!r}")
        except _Invalid as exc:
            raise exc.at(f"images[{i}]") from None
        image_by_id[img_id] = ImageInfo(img_id, width, height)

    categories = []
    category_ids = set()
    id_kind = None
    for i, cat in enumerate(_array(data, "categories")):
        try:
            cat_id = _require(cat, "id")
            # Category ids are sorted, so they must all be numbers or all strings.
            kind = _id_kind(cat_id)
            if kind is None or kind != (id_kind or kind):
                raise _Invalid(
                    ".id", f"category ids must be all numbers or all strings, got {cat_id!r}"
                )
            id_kind = kind
            if cat_id in category_ids:
                raise _Invalid(".id", f"duplicate category id {cat_id!r}")
            name = cat.get("name", str(cat_id))
            if not isinstance(name, str):
                raise _Invalid(".name", f"must be a string, got {name!r}")
        except _Invalid as exc:
            raise exc.at(f"categories[{i}]") from None
        category_ids.add(cat_id)
        categories.append(Category(cat_id, name))

    gts = []
    for i, ann in enumerate(_array(data, "annotations")):
        try:
            fields = ann if type(ann) is dict else {}  # a non-object fails below
            img_id, cat_id = fields.get("image_id"), fields.get("category_id")
            if type(img_id) not in _ID_TYPES or img_id not in image_by_id:
                img_id = _require_id(ann, "image_id", image_by_id, "image")
            if type(cat_id) not in _ID_TYPES or cat_id not in category_ids:
                cat_id = _require_id(ann, "category_id", category_ids, "category")
            raw_bbox = fields.get("bbox")
            if raw_bbox is None:  # missing raises here, null in the parse
                raw_bbox = _require(ann, "bbox")
            try:
                box = _parse_bbox(raw_bbox)
            except _Invalid as exc:
                exc.message += f" (annotation id {ann.get('id', '?')})"
                raise
            crowd = ann.get("iscrowd", 0)
            if not isinstance(crowd, int) or crowd not in (0, 1):
                raise _Invalid(".iscrowd", f"must be 0, 1, false or true, got {crowd!r}")
        except _Invalid as exc:
            raise exc.at(f"annotations[{i}]") from None
        image = image_by_id[img_id]
        if box.x_min < 0 or box.y_min < 0 or (
            image.width is not None and box.x_max > image.width
        ) or (image.height is not None and box.y_max > image.height):
            logger.warning(
                "annotation id %s extends outside image %s; kept as annotated",
                ann.get("id", "?"), img_id,
            )
        gts.append(GroundTruth(img_id, cat_id, box, bool(crowd)))

    return Dataset(tuple(image_by_id.values()), tuple(categories), tuple(gts))


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
        try:
            fields = rec if type(rec) is dict else {}  # a non-object fails below
            img_id, cat_id = fields.get("image_id"), fields.get("category_id")
            if type(img_id) not in _ID_TYPES or img_id not in image_ids:
                img_id = _require_id(rec, "image_id", image_ids, "image")
            if type(cat_id) not in _ID_TYPES or cat_id not in category_ids:
                cat_id = _require_id(rec, "category_id", category_ids, "category")
            score, raw_bbox = fields.get("score"), fields.get("bbox")
            if type(score) not in _NUMBER_TYPES or not 0.0 <= score <= 1.0:
                score = _require(rec, "score")
                raise _Invalid(".score", f"must be a real in [0, 1], got {score!r}")
            if raw_bbox is None:  # missing raises here, null in the parse
                raw_bbox = _require(rec, "bbox")
            box = _parse_bbox(raw_bbox)
        except _Invalid as exc:
            raise exc.at(f"detections[{i}]") from None
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
    frame_index one of the dataset's images and each class_id one of its
    categories."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "frames" not in data:
        raise SchemaError("root: stream fixture must be an object with a 'frames' array")
    image_ids = {im.id for im in dataset.images}
    category_ids = {c.id for c in dataset.categories}
    frames = []
    n_bins = None  # every class distribution has one bin per class
    for i, frame in enumerate(_array(data, "frames")):
        where = f"frames[{i}]"
        try:
            index = _require(frame, "frame_index")
            if type(index) is not int:
                raise _Invalid(".frame_index", f"must be an integer, got {index!r}")
            if index not in image_ids:
                raise _Invalid(".frame_index", f"unknown image id {index!r}")
            if frames and index <= frames[-1].frame_index:
                raise _Invalid(
                    ".frame_index",
                    "frame indices must be strictly increasing, "
                    f"got {index} after {frames[-1].frame_index}",
                )
        except _Invalid as exc:
            raise exc.at(where) from None
        dets = []
        for j, rec in enumerate(_array(frame, "detections", where)):
            try:
                class_id = rec.get("class_id") if type(rec) is dict else None
                if type(class_id) not in _ID_TYPES or class_id not in category_ids:
                    class_id = _require_id(rec, "class_id", category_ids, "category")
                box = _parse_bbox(_require(rec, "bbox"))
                raw_scores = _require(rec, "class_scores")
                if not isinstance(raw_scores, list):
                    raise _Invalid(".class_scores", "must be an array")
                _require_numbers(raw_scores, ".class_scores")
                if n_bins is not None and len(raw_scores) != n_bins:
                    raise _Invalid(
                        ".class_scores",
                        f"has {len(raw_scores)} entries, earlier detections have {n_bins}",
                    )
                try:
                    det = StreamDetection(class_id, box, tuple(map(float, raw_scores)))
                except ValueError as exc:
                    raise _Invalid(".class_scores", str(exc)) from None
                except OverflowError:
                    raise _too_large(raw_scores, ".class_scores") from None
            except _Invalid as exc:
                raise exc.at(f"{where}.detections[{j}]") from None
            n_bins = len(raw_scores)
            dets.append(det)
        frames.append(FrameDetections(index, tuple(dets)))
    return frames


def save_stream(frames: Sequence[FrameDetections], path) -> None:
    """Write a stream fixture, one frame at a time, with the bytes
    `write_json` gives the document {"frames": [{frame_index, detections:
    [{class_id, bbox, class_scores}]}]}.

    With an indent, `json` encodes in pure Python, and this is the largest
    document the program writes, so its layout is spelled out here. Box
    values and class scores are finite ints or floats by the record rules,
    and `json` writes those by repr; ids take the same rule where they are
    such numbers and `json.dumps` where not.
    """
    with _open_out(path) as fh:
        fh.write('{\n  "frames": [')
        sep = ""
        for frame in frames:
            dets = ",".join(
                f'\n        {{\n          "class_id": {_json_id(d.class_id)},'
                f'\n          "bbox": [{_numbers(d.box.as_xywh())}\n          ],'
                f'\n          "class_scores": [{_numbers(d.class_scores)}\n          ]\n        }}'
                for d in frame.detections
            )
            close = "\n      ]" if dets else "]"
            fh.write(
                f'{sep}\n    {{\n      "frame_index": {_json_id(frame.frame_index)},'
                f'\n      "detections": [{dets}{close}\n    }}'
            )
            sep = ","
        fh.write("\n  ]\n}\n" if frames else "]\n}\n")


def _numbers(values) -> str:
    """The items of a box or a distribution, indented as they nest in the document."""
    return "\n            " + ",\n            ".join(map(repr, values))


def _json_id(value) -> str:
    """An id or frame index as `json` writes it."""
    if type(value) is int or type(value) is float and isfinite(value):
        return repr(value)
    return json.dumps(value)


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
        _, _, n_tp, n_fp, _ = result.counts[0]  # s = 0 keeps every detection
        if n_tp + n_fp == 0:
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
        try:
            cid = _require_id(rec, "class_id", category_ids, "category")
            if cid in out:
                raise _Invalid(".class_id", f"duplicate class id {cid!r}")
            s_star = _require(rec, "s_star")
            if type(s_star) not in _NUMBER_TYPES or not 0.0 <= s_star <= 1.0:
                raise _Invalid(".s_star", f"must be a number in [0, 1], got {s_star!r}")
        except _Invalid as exc:
            raise exc.at(f"thresholds[{i}]") from None
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
        if t == tau:
            per_class_sweeps[cid] = sweep = sweep_labels(labels, cid, grid_step)
            aps = {f"ap_{v}": ap(labels, v) if n_real else None for v in AP_VARIANTS}
            rows.append(ClassReportRow(names[cid], n_real, len(labels.order), sweep, **aps))
        if n_real and t in tau_list:
            ap_by_tau[cid][t] = aps[f"ap_{ap_variant}"] if t == tau else ap(labels, ap_variant)
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
