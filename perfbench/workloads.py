"""Seeded input generators for the benchmark workloads and the checks on
what the program writes for them.

The generators belong to the benchmark, not to lrpeval: a change to the
program cannot change a workload. They draw only from `random.Random(seed)`
through `rng.random()`, whose stream is fixed across Python versions, and
write reals that JSON round-trips exactly, so one seed gives the same
input bytes everywhere.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

DEFAULT_SEED = 0
# Classes absent from a thresholds file fall back to the stream command's
# general threshold.
GENERAL_THRESHOLD = 0.5


@dataclass(frozen=True)
class EvalSpec:
    """Shape of a COCO-style evaluation input.

    Each image gets between gt_min and gt_max ground truths, spread over
    at most classes_per_image distinct classes. A ground truth is detected
    with probability hit_rate, and once more with probability dup_rate
    after a hit; fp_per_gt background false positives per ground truth land
    anywhere with any class. A ground truth is a crowd region with
    probability crowd_rate.
    """

    images: int
    classes: int
    gt_min: int
    gt_max: int
    classes_per_image: int
    hit_rate: float
    dup_rate: float
    fp_per_gt: float
    crowd_rate: float
    width: float = 640.0
    height: float = 480.0


@dataclass(frozen=True)
class StreamSpec:
    """Shape of a detection stream: objects_per_class tracks per class
    live at any time, each detected with probability hit_rate per frame;
    clutter_per_class fixed clutter spots per class fire with probability
    clutter_rate per frame, plus random_fp scattered false positives."""

    frames: int
    classes: int
    objects_per_class: int
    hit_rate: float
    clutter_per_class: int
    clutter_rate: float
    random_fp: int
    calibration_frames: int
    width: float = 1280.0
    height: float = 720.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "eval" or "stream"
    spec: EvalSpec | StreamSpec


WORKLOADS = {
    w.name: w
    for w in (
        Workload("eval-crowded", "eval", EvalSpec(
            images=120, classes=10, gt_min=30, gt_max=50, classes_per_image=10,
            hit_rate=0.85, dup_rate=0.25, fp_per_gt=0.55, crowd_rate=0.03,
        )),
        Workload("eval-sparse", "eval", EvalSpec(
            images=2500, classes=80, gt_min=3, gt_max=5, classes_per_image=5,
            hit_rate=0.8, dup_rate=0.05, fp_per_gt=0.2, crowd_rate=0.01,
        )),
        Workload("stream-link", "stream", StreamSpec(
            frames=120, classes=4, objects_per_class=8, hit_rate=0.9,
            clutter_per_class=2, clutter_rate=0.6, random_fp=10,
            calibration_frames=60,
        )),
    )
}


def scaled(spec, scale: float):
    """The spec with its image or frame counts multiplied by scale."""
    if isinstance(spec, EvalSpec):
        return replace(spec, images=max(2, round(spec.images * scale)))
    return replace(
        spec,
        frames=max(2, round(spec.frames * scale)),
        calibration_frames=max(2, round(spec.calibration_frames * scale)),
    )


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_json(obj, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _index(rng: random.Random, n: int) -> int:
    return min(n - 1, int(rng.random() * n))


def _xywh(x0, y0, x1, y1, width, height):
    """Clip corners to the image, round to 0.01 px and return [x, y, w, h]
    with both sides at least 1 px."""
    x0 = min(max(x0, 0.0), width - 1.0)
    y0 = min(max(y0, 0.0), height - 1.0)
    x1 = min(max(x1, x0 + 1.0), width)
    y1 = min(max(y1, y0 + 1.0), height)
    x, y = round(x0, 2), round(y0, 2)
    w = max(1.0, round(x1 - x, 2))
    h = max(1.0, round(y1 - y, 2))
    return [x, y, min(w, round(width - x, 2)), min(h, round(height - y, 2))]


def _random_box(rng, width, height, lo=16.0, hi=160.0):
    w = _uniform(rng, lo, hi)
    h = _uniform(rng, lo, hi)
    x = _uniform(rng, 0.0, width - w)
    y = _uniform(rng, 0.0, height - h)
    return x, y, x + w, y + h


def _jittered(rng, box, width, height):
    """A detection of box: each corner moves by up to q times the box
    side, with q drawn per detection, so IoUs span the whole tau range."""
    x0, y0, x1, y1 = box
    q = _uniform(rng, 0.01, 0.2)
    bw, bh = x1 - x0, y1 - y0
    return _xywh(
        x0 + bw * _uniform(rng, -q, q), y0 + bh * _uniform(rng, -q, q),
        x1 + bw * _uniform(rng, -q, q), y1 + bh * _uniform(rng, -q, q),
        width, height,
    )


def _score(value: float) -> float:
    return round(min(0.999, max(0.001, value)), 4)


def generate_eval(spec: EvalSpec, seed: int, gt_path: Path, det_path: Path) -> dict:
    """Write a COCO annotation file and a results file; return the counts
    an evaluation report must reproduce."""
    rng = random.Random(seed)
    W, H = spec.width, spec.height
    images, annotations, detections = [], [], []
    n_real = 0
    for image_id in range(1, spec.images + 1):
        images.append({"id": image_id, "width": W, "height": H})
        pool = list(range(1, spec.classes + 1))
        for i in range(len(pool) - 1, 0, -1):
            j = _index(rng, i + 1)
            pool[i], pool[j] = pool[j], pool[i]
        pool = pool[: spec.classes_per_image]
        # Ground-truth counts follow the image index and classes take
        # turns, so the amount of matching work hardly varies with the seed.
        n_gt = spec.gt_min + image_id % (spec.gt_max - spec.gt_min + 1)
        for k in range(n_gt):
            class_id = pool[k % len(pool)]
            crowd = rng.random() < spec.crowd_rate
            box = _random_box(rng, W, H, 60.0, 240.0) if crowd else _random_box(rng, W, H)
            annotations.append({
                "id": len(annotations) + 1, "image_id": image_id, "category_id": class_id,
                "bbox": _xywh(*box, W, H), "iscrowd": int(crowd),
            })
            n_real += not crowd
            quality = rng.random()
            if rng.random() < spec.hit_rate:
                detections.append({
                    "image_id": image_id, "category_id": class_id,
                    "bbox": _jittered(rng, box, W, H),
                    "score": _score(0.3 + 0.6 * quality + _uniform(rng, -0.1, 0.1)),
                })
                if rng.random() < spec.dup_rate:
                    detections.append({
                        "image_id": image_id, "category_id": class_id,
                        "bbox": _jittered(rng, box, W, H),
                        "score": _score(0.5 * quality + _uniform(rng, 0.0, 0.3)),
                    })
        n_fp = math.floor(n_gt * spec.fp_per_gt + rng.random())
        for _ in range(n_fp):
            detections.append({
                "image_id": image_id, "category_id": 1 + _index(rng, spec.classes),
                "bbox": _xywh(*_random_box(rng, W, H), W, H),
                "score": _score(0.6 * rng.random() ** 2),
            })
    categories = [{"id": c, "name": f"class{c:02d}"} for c in range(1, spec.classes + 1)]
    _write_json({"images": images, "annotations": annotations, "categories": categories}, gt_path)
    _write_json(detections, det_path)
    return {"n_gt": n_real, "n_det": len(detections)}


def _class_scores(rng, slot: int, n_slots: int, peak: float) -> list[float]:
    """A distribution over n_slots bins peaked at slot. Peaks are kept at
    or above 0.35 so no other bin, at most half the remaining mass, can
    outrank the peak."""
    weights = [_uniform(rng, 0.5, 1.5) for _ in range(n_slots - 1)]
    total = sum(weights)
    rest = iter(weights)
    return [peak if i == slot else (1.0 - peak) * next(rest) / total for i in range(n_slots)]


def _bounce(position: float, limit: float) -> float:
    """position folded into [0, limit], as if reflected at both ends."""
    folded = position % (2.0 * limit)
    return folded if folded <= limit else 2.0 * limit - folded


def _stream(spec: StreamSpec, rng: random.Random, n_frames: int):
    """Frames of stream detections plus their ground truth, as documents."""
    W, H = spec.width, spec.height
    n_slots = spec.classes + 1  # one bin per class plus background
    tracks = []  # (class slot, first frame, last frame, box, velocity, quality)
    for slot in range(spec.classes):
        for _ in range(spec.objects_per_class):
            frame = -_index(rng, 100)
            while frame < n_frames:
                life = 30 + _index(rng, 121)
                x0, y0, x1, y1 = _random_box(rng, W, H, 30.0, 120.0)
                velocity = (_uniform(rng, -3.0, 3.0), _uniform(rng, -3.0, 3.0))
                tracks.append((slot, frame, frame + life - 1, (x0, y0, x1, y1),
                               velocity, _uniform(rng, 0.45, 0.95)))
                frame += life + _index(rng, 11)
    clutter = [
        (slot, _random_box(rng, W, H, 20.0, 80.0), _uniform(rng, 0.35, 0.6))
        for slot in range(spec.classes) for _ in range(spec.clutter_per_class)
    ]

    frames, annotations, images = [], [], []
    for t in range(n_frames):
        images.append({"id": t, "width": W, "height": H})
        dets = []
        for slot, first, last, (x0, y0, x1, y1), (vx, vy), quality in tracks:
            if not first <= t <= last:
                continue
            x = _bounce(x0 + vx * (t - first), W - (x1 - x0))
            y = _bounce(y0 + vy * (t - first), H - (y1 - y0))
            box = (x, y, x + x1 - x0, y + y1 - y0)
            annotations.append({
                "id": len(annotations) + 1, "image_id": t, "category_id": slot + 1,
                "bbox": _xywh(*box, W, H), "iscrowd": 0,
            })
            if rng.random() < spec.hit_rate:
                label = slot if rng.random() >= 0.03 else _index(rng, spec.classes)
                peak = min(0.99, max(0.35, quality + _uniform(rng, -0.15, 0.15)))
                dets.append((label, _jittered(rng, box, W, H), peak))
        for slot, box, level in clutter:
            if rng.random() < spec.clutter_rate:
                peak = min(0.99, max(0.35, level + _uniform(rng, -0.1, 0.1)))
                dets.append((slot, _jittered(rng, box, W, H), peak))
        for _ in range(spec.random_fp):
            peak = _uniform(rng, 0.35, 0.55)
            dets.append((_index(rng, spec.classes), _xywh(*_random_box(rng, W, H), W, H), peak))
        frames.append({
            "frame_index": t,
            "detections": [
                {"class_id": slot + 1, "bbox": bbox,
                 "class_scores": _class_scores(rng, slot, n_slots, round(peak, 4))}
                for slot, bbox, peak in dets
            ],
        })
    categories = [{"id": c, "name": f"class{c:02d}"} for c in range(1, spec.classes + 1)]
    gt = {"images": images, "annotations": annotations, "categories": categories}
    return {"frames": frames}, gt


def generate_stream(spec: StreamSpec, seed: int, files: dict[str, Path]) -> dict:
    """Write the stream, its ground truth, and a calibration stream from
    another seed as COCO ground truth and results for `lrpeval
    thresholds`. Returns the frame and detection counts."""
    stream, gt = _stream(spec, random.Random(seed), spec.frames)
    _write_json(stream, files["stream"])
    _write_json(gt, files["stream_gt"])
    calib, calib_gt = _stream(spec, random.Random(f"calibration-{seed}"), spec.calibration_frames)
    calib_dets = [
        {"image_id": frame["frame_index"], "category_id": det["class_id"],
         "bbox": det["bbox"], "score": max(det["class_scores"])}
        for frame in calib["frames"] for det in frame["detections"]
    ]
    _write_json(calib_gt, files["calib_gt"])
    _write_json(calib_dets, files["calib_det"])
    return {
        "frames": len(stream["frames"]),
        "n_det": sum(len(f["detections"]) for f in stream["frames"]),
    }


class CheckFailed(Exception):
    """An output violates an invariant of its workload."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _mean_4dp(values, expected, what: str) -> None:
    """expected (rounded to 4 dp) equals the mean of values (each rounded
    to 4 dp) up to the two roundings."""
    _require(bool(values), f"{what}: no evaluable class")
    mean = sum(values) / len(values)
    _require(expected is not None and abs(mean - expected) <= 1e-4 + 1e-12,
             f"{what} {expected} is not the mean {mean:.6f} of the evaluable classes")


def _unit(value, what: str) -> None:
    _require(value is None or 0.0 <= value <= 1.0, f"{what} = {value} outside [0, 1]")


def check_report(path: Path, counts: dict) -> None:
    """Invariants of an lrp_report_v1 JSON for generated inputs."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    _require(doc.get("schema") == "lrp_report_v1", "report schema is not lrp_report_v1")
    rows = doc["classes"]
    _require(sum(r["n_gt"] for r in rows) == counts["n_gt"],
             f"report sums n_gt to {sum(r['n_gt'] for r in rows)}, generated {counts['n_gt']}")
    _require(sum(r["n_det"] for r in rows) == counts["n_det"],
             f"report sums n_det to {sum(r['n_det'] for r in rows)}, generated {counts['n_det']}")
    for r in rows:
        for key in ("olrp", "olrp_iou", "olrp_fp", "olrp_fn", "s_star",
                    "ap_continuous", "ap_pascal11", "ap_coco101"):
            _unit(r[key], f"class {r['class_id']} {key}")
    _mean_4dp([r["olrp"] for r in rows if r["evaluable"]], doc["summary"]["molrp"], "molrp")


def load_threshold_map(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    _require(doc.get("schema") == "lrp_thresholds_v1", "thresholds schema is not lrp_thresholds_v1")
    out = {}
    for row in doc["thresholds"]:
        _unit(row["s_star"], f"class {row['class_id']} s_star")
        out[row["class_id"]] = row["s_star"]
    _require(bool(out), "thresholds file lists no class")
    return out


def check_stream(compare_path: Path, filtered_path: Path, thresholds: dict, counts: dict) -> None:
    """Invariants of the stream comparison and the filtered stream."""
    with open(compare_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    _require(doc.get("schema") == "lrp_stream_compare_v1",
             "comparison schema is not lrp_stream_compare_v1")
    for key in ("raw", "general", "class_specific"):
        column = f"olrp_{key}"
        values = [r[column] for r in doc["classes"] if r[column] is not None]
        for v in values:
            _unit(v, column)
        _mean_4dp(values, doc["summary"][f"molrp_{key}"], f"molrp_{key}")
    with open(filtered_path, encoding="utf-8") as fh:
        frames = json.load(fh)["frames"]
    _require(len(frames) == counts["frames"],
             f"filtered stream has {len(frames)} frames, input {counts['frames']}")
    emitted = 0
    for frame in frames:
        for det in frame["detections"]:
            emitted += 1
            floor = thresholds.get(det["class_id"], GENERAL_THRESHOLD)
            _require(max(det["class_scores"]) >= floor,
                     f"frame {frame['frame_index']}: emitted score "
                     f"{max(det['class_scores'])} below class {det['class_id']} threshold {floor}")
    _require(emitted <= counts["n_det"], "filtered stream emits more detections than it got")
