"""File ingestion and report/curve export.

Inputs follow the COCO conventions: an annotation document with images /
annotations / categories (bbox as [x, y, w, h], iscrowd mapping to the
ignore flag) and a results array of {image_id, category_id, bbox, score}.
Schema violations raise SchemaError with a path to the offending field;
a file that does not parse as JSON raises one naming the file.
The loaders check each record's fields in a fixed order and raise at the
first broken rule, naming the field. The per-record loops test the hot
fields (ids, score, bbox values) inline, with the same type sets the
helpers use, and call a helper only when a test fails, to raise; the
record's path (such as detections[12]) is formatted only then. Box values
are checked by the box rule of `BoundingBox` (`geometry.corner_row`, which
builds a box only to raise), class distributions by `StreamDetection`.
Annotations and detections build no record: each valid one is appended to
its class's columns (`matching.GtColumns`, `matching.DetColumns`), the
form evaluation reads. A loaded `Dataset` keeps two id maps, images and
category names, that the later loaders test ids against.
Outputs are deterministic byte streams: an evaluation report (JSON or
CSV, schema lrp_report_v1, built by `build_report` as the document
itself and rounded on export), long-format curve data, per-class
threshold files, and stream fixtures for the video-linking pipeline.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager
from math import inf, isfinite
from typing import Iterable, Mapping, NamedTuple, Sequence

from .ap import AP_VARIANTS, RPCurve, ap_variants
from .geometry import _NUMBER_TYPES, BoundingBox, CornerRow, corner_row, ordered_sum
from .lrp import breakdown_from_counts
from .matching import ClassId, DetColumns, GtColumns, label_classes
from .sweep import DEFAULT_GRID_STEP, SweepResult, aggregate_molrp, sweep_labels
from .video import FrameDetections, StreamDetection

REPORT_SCHEMA = "lrp_report_v1"
THRESHOLDS_SCHEMA = "lrp_thresholds_v1"
DEFAULT_TAU = 0.5
DEFAULT_TAU_LIST = tuple(i / 100 for i in range(50, 100, 5))


class SchemaError(ValueError):
    """An input file violates its declared schema; the message names the
    offending field."""


def _warn(message: str) -> None:
    """Print "warning: <message>" to the standard error in force at the call,
    or nowhere without one: print would send it to stdout, which may hold a report."""
    if sys.stderr is not None:
        print(f"warning: {message}", file=sys.stderr)


class Dataset(NamedTuple):
    """Validated ground-truth side of an evaluation.

    images maps each image id to its (width, height), each a finite number
    > 0, or None where the file leaves it out or sets it null; names maps
    each category id to its name. Both keep the order of the file.
    gt_columns holds the ground truths of each category, in the order of
    names, as columns.
    """

    images: dict[object, tuple[float | None, float | None]]
    names: dict[ClassId, str]
    gt_columns: dict[ClassId, GtColumns]

    def class_ids(self) -> list[ClassId]:
        return sorted(self.names)


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
    string and, when known ids are given, one of them. A float must be
    finite, as JSON has no spelling for NaN or infinity to write it back.

    The loaders' record loops test `type(value) in _ID_TYPES and value in
    known` inline and call this only when that fails, to raise."""
    value = _require(record, key)
    if type(value) not in _ID_TYPES:
        raise _Invalid(f".{key}", f"must be a number or a string, got {value!r}")
    if type(value) is float and not isfinite(value):
        raise _Invalid(f".{key}", f"must be a finite number or a string, got {value!r}")
    if known is not None and value not in known:
        raise _Invalid(f".{key}", f"unknown {what} id {value!r}")
    return value


def _require_numbers(values: list, field: str) -> None:
    for k, v in enumerate(values):
        if type(v) not in _NUMBER_TYPES:
            raise _Invalid(f"{field}[{k}]", f"must be a number, got {v!r}")


def _int_too_large(field: str, value: int) -> _Invalid:
    return _Invalid(field, f"must fit a float, got an integer of {len(str(abs(value)))} digits")


def _too_large(values: list, field: str) -> _Invalid:
    """The error naming the first of values that float() overflows on."""
    for k, v in enumerate(values):
        try:
            float(v)
        except OverflowError:
            return _int_too_large(f"{field}[{k}]", v)


def _image_size(img: Mapping, key: str):
    """An optional image width or height: absent, null, or a finite number > 0."""
    value = img.get(key)
    if value is None:
        return None
    if type(value) not in _NUMBER_TYPES:
        raise _Invalid(f".{key}", f"must be a number, got {value!r}")
    try:
        size = float(value)
    except OverflowError:
        raise _int_too_large(f".{key}", value) from None
    if not 0.0 < size < inf:  # NaN fails both
        raise _Invalid(f".{key}", f"must be a finite number > 0, got {value!r}")
    return value


def _array(record: Mapping, key: str, where: str = "") -> list:
    """An optional array field; absent means empty."""
    value = record.get(key, [])
    if not isinstance(value, list):
        path = f"{where}.{key}" if where else key
        raise SchemaError(f"{path}: must be an array, got {value!r}")
    return value


def _parse_bbox(raw, make=corner_row) -> CornerRow | BoundingBox:
    """make(x, y, w, h) of a [x, y, width, height] field, its numbers as
    floats: a corner row by default, or `BoundingBox.from_xywh`; both
    apply the one box rule."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise _Invalid(".bbox", f"bbox must be [x, y, width, height], got {raw!r}")
    x, y, w, h = raw
    if not (
        type(x) in _NUMBER_TYPES and type(y) in _NUMBER_TYPES
        and type(w) in _NUMBER_TYPES and type(h) in _NUMBER_TYPES
    ):
        _require_numbers(raw, ".bbox")
    try:
        return make(float(x), float(y), float(w), float(h))
    except ValueError as exc:
        raise _Invalid(".bbox", str(exc)) from None
    except OverflowError:
        raise _too_large(raw, ".bbox") from None


def _read_json(path):
    """The document in a JSON file. A file that is not UTF-8, does not
    parse, or nests deeper than the parser recurses raises SchemaError
    naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: malformed JSON: {exc}") from None


def load_ground_truth(path) -> Dataset:
    """Load and validate a COCO-style annotation file."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise SchemaError("root: annotation document must be a JSON object")

    images = {}
    for i, img in enumerate(_array(data, "images")):
        try:
            img_id = _require_id(img, "id")
            if img_id in images:
                raise _Invalid(".id", f"duplicate image id {img_id!r}")
            images[img_id] = (_image_size(img, "width"), _image_size(img, "height"))
        except _Invalid as exc:
            raise exc.at(f"images[{i}]") from None

    names = {}
    strings = None  # whether the category ids are strings, once one is read
    for i, cat in enumerate(_array(data, "categories")):
        try:
            cat_id = _require_id(cat, "id")
            # Category ids are sorted, so they must all be numbers or all strings.
            is_string = type(cat_id) is str
            if strings not in (None, is_string):
                raise _Invalid(
                    ".id", f"category ids must be all numbers or all strings, got {cat_id!r}"
                )
            strings = is_string
            if cat_id in names:
                raise _Invalid(".id", f"duplicate category id {cat_id!r}")
            name = cat.get("name", str(cat_id))
            if not isinstance(name, str):
                raise _Invalid(".name", f"must be a string, got {name!r}")
        except _Invalid as exc:
            raise exc.at(f"categories[{i}]") from None
        names[cat_id] = name

    columns = {cid: GtColumns([], [], []) for cid in names}
    for i, ann in enumerate(_array(data, "annotations")):
        try:
            fields = ann if type(ann) is dict else {}  # a non-object fails below
            img_id, cat_id = fields.get("image_id"), fields.get("category_id")
            if type(img_id) not in _ID_TYPES or img_id not in images:
                img_id = _require_id(ann, "image_id", images, "image")
            if type(cat_id) not in _ID_TYPES or cat_id not in names:
                cat_id = _require_id(ann, "category_id", names, "category")
            raw_bbox = fields.get("bbox")
            if raw_bbox is None:  # missing raises here, null in the parse
                raw_bbox = _require(ann, "bbox")
            try:
                row = _parse_bbox(raw_bbox)
            except _Invalid as exc:
                exc.message += f" (annotation id {ann.get('id', '?')})"
                raise
            crowd = ann.get("iscrowd", 0)
            if not isinstance(crowd, int) or crowd not in (0, 1):
                raise _Invalid(".iscrowd", f"must be 0, 1, false or true, got {crowd!r}")
        except _Invalid as exc:
            raise exc.at(f"annotations[{i}]") from None
        x_min, y_min, x_max, y_max, _ = row
        width, height = images[img_id]
        if x_min < 0 or y_min < 0 or (
            width is not None and x_max > width
        ) or (height is not None and y_max > height):
            _warn(f"annotation id {ann.get('id', '?')} extends outside image {img_id}; "
                  "kept as annotated")
        image_ids, boxes, ignore = columns[cat_id]
        image_ids.append(img_id)
        boxes.append(row)
        ignore.append(bool(crowd))

    return Dataset(images, names, columns)


def load_detections(path, dataset: Dataset) -> dict[ClassId, DetColumns]:
    """Load a COCO-style results array and validate it against a dataset;
    the detections of each category, in the order of its names, as
    columns."""
    data = _read_json(path)
    if not isinstance(data, list):
        raise SchemaError("root: detection results must be a JSON array")
    images, names = dataset.images, dataset.names
    columns = {cid: DetColumns([], [], []) for cid in names}
    for i, rec in enumerate(data):
        try:
            fields = rec if type(rec) is dict else {}  # a non-object fails below
            img_id, cat_id = fields.get("image_id"), fields.get("category_id")
            if type(img_id) not in _ID_TYPES or img_id not in images:
                img_id = _require_id(rec, "image_id", images, "image")
            if type(cat_id) not in _ID_TYPES or cat_id not in names:
                cat_id = _require_id(rec, "category_id", names, "category")
            score, raw_bbox = fields.get("score"), fields.get("bbox")
            if type(score) not in _NUMBER_TYPES or not 0.0 <= score <= 1.0:
                score = _require(rec, "score")
                raise _Invalid(".score", f"must be a real in [0, 1], got {score!r}")
            if raw_bbox is None:  # missing raises here, null in the parse
                raw_bbox = _require(rec, "bbox")
            row = _parse_bbox(raw_bbox)
        except _Invalid as exc:
            raise exc.at(f"detections[{i}]") from None
        image_ids, boxes, scores = columns[cat_id]
        image_ids.append(img_id)
        boxes.append(row)
        scores.append(float(score))
    return columns


def load_stream(path, dataset: Dataset) -> list[FrameDetections]:
    """Load a stream fixture: {frames: [{frame_index, detections:
    [{class_id, bbox, class_scores}]}]} with bbox as [x, y, w, h], each
    frame_index one of the dataset's images and each class_id one of its
    categories."""
    data = _read_json(path)
    if not isinstance(data, dict) or "frames" not in data:
        raise SchemaError("root: stream fixture must be an object with a 'frames' array")
    names = dataset.names
    frames = []
    n_bins = None  # every class distribution has as many bins as the first
    for i, frame in enumerate(_array(data, "frames")):
        where = f"frames[{i}]"
        try:
            index = _require(frame, "frame_index")
            if type(index) is not int:
                raise _Invalid(".frame_index", f"must be an integer, got {index!r}")
            if index not in dataset.images:
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
                if type(class_id) not in _ID_TYPES or class_id not in names:
                    class_id = _require_id(rec, "class_id", names, "category")
                box = _parse_bbox(_require(rec, "bbox"), BoundingBox.from_xywh)
                raw_scores = _require(rec, "class_scores")
                if not isinstance(raw_scores, list):
                    raise _Invalid(".class_scores", "must be an array")
                if not _NUMBER_TYPES.issuperset(map(type, raw_scores)):
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


def threshold_rows(sweeps: Iterable[SweepResult], names: Mapping[ClassId, str]) -> list[dict]:
    """Per-class operating thresholds from per-class sweeps, in their
    order, as the rows of the thresholds document: class_id, class_name
    (from names), s_star, olrp, warning. Classes that are not evaluable
    get no row.

    A class with ground truth but no detections has every threshold tie
    at total error 1; exporting the tie-break winner (1.0) would suppress
    any future detection of that class, so the row is forced to 0.0 with
    a warning instead.
    """
    rows = []
    for result in sweeps:
        if not result.evaluable:
            continue
        cid = result.class_id
        warning = None
        s_star = result.s_star
        _, _, n_tp, n_fp, _ = result.counts[0]  # s = 0 keeps every detection
        if n_tp + n_fp == 0:
            s_star = 0.0
            warning = "class has ground truth but no detections; threshold forced to 0.00"
            _warn(f"class {cid}: {warning}")
        rows.append({
            "class_id": cid,
            "class_name": names[cid],
            "s_star": s_star,
            "olrp": result.olrp,
            "warning": warning,
        })
    return rows


def save_thresholds(rows: Sequence[Mapping], tau: float, path) -> None:
    doc = {
        "schema": THRESHOLDS_SCHEMA,
        "tau": tau,
        "thresholds": [round_row(r) for r in rows],
    }
    write_json(doc, path)


def load_thresholds(path, dataset: Dataset) -> dict[ClassId, float]:
    """Load per-class thresholds, each class_id one of the dataset's
    categories."""
    data = _read_json(path)
    if not isinstance(data, dict) or data.get("schema") != THRESHOLDS_SCHEMA:
        raise SchemaError(f"root: expected a {THRESHOLDS_SCHEMA} document")
    out = {}
    for i, rec in enumerate(_array(data, "thresholds")):
        try:
            cid = _require_id(rec, "class_id", dataset.names, "category")
            if cid in out:
                raise _Invalid(".class_id", f"duplicate class id {cid!r}")
            s_star = _require(rec, "s_star")
            if type(s_star) not in _NUMBER_TYPES or not 0.0 <= s_star <= 1.0:
                raise _Invalid(".s_star", f"must be a number in [0, 1], got {s_star!r}")
        except _Invalid as exc:
            raise exc.at(f"thresholds[{i}]") from None
        out[cid] = float(s_star)
    return out


def build_report(
    dataset: Dataset,
    detections: Mapping[ClassId, DetColumns],
    tau: float = DEFAULT_TAU,
    tau_list: Sequence[float] = DEFAULT_TAU_LIST,
    grid_step: float = DEFAULT_GRID_STEP,
    ap_variant: str = "coco101",
) -> dict:
    """Evaluate detections, as each category's columns (`load_detections`,
    or `matching.to_columns` of records), against a dataset and return the
    lrp_report_v1 document. Its reals stay unrounded; `export_report`
    rounds them as it writes. The keys, in order:

    - schema: "lrp_report_v1".
    - config: tau, grid_step, ap_variant (the variant averaged into
      mean_ap) and tau_list (the taus it averages over), as given.
    - classes: one row per category in class-id order: class_id,
      class_name, n_gt (non-crowd ground truths), n_det (detections),
      evaluable, the sweep optimum at tau (olrp, its components olrp_iou,
      olrp_fp and olrp_fn, and s_star), then ap_continuous, ap_pascal11
      and ap_coco101 at tau.
    - summary: molrp and its component means molrp_iou, molrp_fp and
      molrp_fn over the evaluable classes; mean_ap, the ap_variant AP
      averaged over tau_list and then over the classes with ground truth;
      s_star_min and s_star_max over the evaluable classes; not_evaluable,
      the ids, as strings, of the classes that are not evaluable: those
      with no non-ignored ground truth whose detections, if any, crowd
      regions all absorb (N_TP + N_FP + N_FN = 0 at every threshold; see
      `sweep.SweepResult`).

    A value is None, not 0.0, where there is nothing to measure: a
    component whose denominator is empty (olrp_iou without a TP, olrp_fp
    without a kept detection, olrp_fn without ground truth) and a
    component mean that no class has; every AP of a class without ground
    truth; mean_ap when no class has ground truth; and the optimum of a
    class that is not evaluable.

    Each (class, tau) in {tau} and tau_list is labeled once; the labels at
    tau feed both the sweep and the three AP variants, which one precision
    pass gives (`ap.ap_variants`).
    """
    if ap_variant not in AP_VARIANTS:
        raise ValueError(f"unknown AP variant {ap_variant!r}")
    if not tau_list:
        raise ValueError("tau_list must hold at least one tau for mean AP")
    class_ids = dataset.class_ids()

    rows = []
    per_class_sweeps: dict[ClassId, SweepResult] = {}
    ap_by_tau: dict[ClassId, dict[float, float]] = {cid: {} for cid in class_ids}
    for cid, labels in label_classes(
        dataset.gt_columns, detections, class_ids, dict.fromkeys((tau, *tau_list))
    ):
        t, n_real = labels.tau, labels.n_real
        if t == tau:
            per_class_sweeps[cid] = sweep = sweep_labels(labels, cid, grid_step)
            values = ap_variants(labels) if n_real else [None] * len(AP_VARIANTS)
            aps = {f"ap_{v}": value for v, value in zip(AP_VARIANTS, values)}
            rows.append({
                "class_id": cid,
                "class_name": dataset.names[cid],
                "n_gt": n_real,
                "n_det": len(labels.order),
                "evaluable": sweep.evaluable,
                **sweep.optimum(),
                **aps,
            })
        if n_real and t in tau_list:
            ap_by_tau[cid][t] = (aps[f"ap_{ap_variant}"] if t == tau
                                 else ap_variants(labels, (ap_variant,))[0])
    per_class_tau_ap = [
        ordered_sum(aps[t] for t in tau_list) / len(tau_list) for aps in ap_by_tau.values() if aps
    ]

    lrp = aggregate_molrp(per_class_sweeps)
    if per_class_tau_ap:
        mean_ap = ordered_sum(per_class_tau_ap) / len(per_class_tau_ap)
    else:
        _warn("no class has ground truth; mean AP left unset")
        mean_ap = None
    return {
        "schema": REPORT_SCHEMA,
        "config": {
            "tau": tau,
            "grid_step": grid_step,
            "ap_variant": ap_variant,
            "tau_list": list(tau_list),
        },
        "classes": rows,
        "summary": {
            "molrp": lrp.molrp,
            "molrp_iou": lrp.molrp_iou,
            "molrp_fp": lrp.molrp_fp,
            "molrp_fn": lrp.molrp_fn,
            "mean_ap": mean_ap,
            "s_star_min": lrp.s_star_min,
            "s_star_max": lrp.s_star_max,
            "not_evaluable": [str(c) for c in lrp.not_evaluable],
        },
    }


# Thresholds and taus are written exactly: a rounded s* can drop the
# detection it was chosen to keep, and rounded taus can collapse.
_EXACT_KEYS = frozenset({
    "class_id", "tau", "s", "s_star", "s_star_min", "s_star_max", "s_star_a", "s_star_b",
})


def round_row(row: Mapping) -> dict:
    """A copy of a table row with every real at 4 decimal places, except
    the class id, taus and score thresholds, which are kept as given."""
    return {
        k: round(v, 4) if isinstance(v, float) and k not in _EXACT_KEYS else v
        for k, v in row.items()
    }


_REPORT_CSV_FIELDS = [
    "class_id", "class_name", "n_gt", "n_det", "evaluable",
    "olrp", "olrp_iou", "olrp_fp", "olrp_fn", "s_star",
    "ap_continuous", "ap_pascal11", "ap_coco101",
    "mean_ap", "s_star_min", "s_star_max",
]


def export_report(report: Mapping, path, fmt: str = "json") -> None:
    """Write a `build_report` document as JSON or CSV with stable field
    ordering, the reals of its class rows and summary at 4 decimal places.
    The CSV opens with a config line whose numbers read back exactly, and
    ends with a summary row of the class means."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown report format {fmt!r}; expected json or csv")
    config = report["config"]
    classes = [round_row(r) for r in report["classes"]]
    summary = round_row(report["summary"])
    if fmt == "json":
        write_json({**report, "classes": classes, "summary": summary}, path)
        return
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
        f"# {REPORT_SCHEMA} tau={_exact(config['tau'], '.4f')} "
        f"grid_step={_exact(config['grid_step'], '.4f')} ap_variant={config['ap_variant']} "
        f"tau_list={','.join(_exact(t, '.2f') for t in config['tau_list'])}\n"
    )
    write_csv([*classes, summary_row], path, _REPORT_CSV_FIELDS, preamble)


def _exact(value: float, spec: str) -> str:
    """value in the given format where that reads back as value, else its repr."""
    text = format(value, spec)
    return text if float(text) == value else repr(value)


CURVE_CSV_FIELDS = [
    "class_id", "tau", "source", "s", "recall", "precision",
    "lrp_total", "lrp_iou", "lrp_fp", "lrp_fn", "is_optimal",
]


def export_curves(items: Iterable[SweepResult | RPCurve], path) -> None:
    """Write long-format curve records.

    Sweep results yield one record per defined grid point (recall and
    precision recovered from the FN/FP components, the optimal threshold
    flagged on exactly one record); recall-precision curves yield one
    record per point with the detection score in the s column.
    """
    write_csv(_curve_records(items), path, CURVE_CSV_FIELDS)


def _curve_records(items: Iterable[SweepResult | RPCurve]):
    for item in items:
        if isinstance(item, SweepResult):
            for s, loc, n_tp, n_fp, n_fn in item.counts:
                if not n_tp + n_fp + n_fn:
                    continue
                bd = breakdown_from_counts(loc, n_tp, n_fp, n_fn, item.tau)
                yield {
                    "class_id": item.class_id, "tau": item.tau, "source": "sweep", "s": s,
                    "recall": None if bd.fn_component is None else 1.0 - bd.fn_component,
                    "precision": None if bd.fp_component is None else 1.0 - bd.fp_component,
                    "lrp_total": bd.total, "lrp_iou": bd.loc_component,
                    "lrp_fp": bd.fp_component, "lrp_fn": bd.fn_component,
                    "is_optimal": item.evaluable and s == item.s_star,
                }
        elif isinstance(item, RPCurve):
            for recall, precision, score in item.points:
                yield {
                    "class_id": item.class_id, "tau": item.tau, "source": "rp", "s": score,
                    "recall": recall, "precision": precision,
                }
        else:
            raise TypeError(f"cannot export {type(item).__name__} as curve data")


def _cell(value, exact: bool = False):
    """The one CSV cell rule: reals at 4 decimal places (by `_exact` when
    exact), None empty, bools lower-case, anything else as given."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _exact(value, ".4f") if exact else f"{value:.4f}"
    return value


def write_csv(rows: Iterable[Mapping], path, fields: Sequence[str] | None = None,
              preamble: str = "") -> None:
    """Write rows as CSV: preamble, a header of fields (default: the keys
    of rows[0]), then one line per row with missing fields left empty.
    The class_id column is written as given, every other cell by `_cell`,
    exactly in the tau and threshold columns that `round_row` keeps."""
    fields = list(rows[0]) if fields is None else fields
    with _open_out(path) as fh:
        fh.write(preamble)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow(
                [row.get(k) if k == "class_id" else _cell(row.get(k), k in _EXACT_KEYS)
                 for k in fields]
            )


def write_json(obj, path) -> None:
    """Write obj as indented JSON plus a final newline; "-" is stdout. A
    non-finite float raises ValueError, as JSON cannot spell it."""
    with _open_out(path) as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")


@contextmanager
def _open_out(path):
    """Writable text handle for a path, with "-" meaning stdout."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
