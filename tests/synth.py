"""Synthetic fixtures: reference detectors and detection streams.

The three reference detectors share one scene of four ground-truth
objects and are constructed so that all have continuous AP 0.5 while
their optimal LRP errors differ (0.5, 0.5, and 0.93): a metric that only
integrates the recall-precision curve cannot tell them apart, the
per-box error can. The stream generator builds multi-frame detection
streams with controllable per-class score levels, box jitter and false
positives, for exercising the linking/thresholding pipeline at desk
scale. The COCO writers turn fixtures into the files the loaders read.
`GtRecords` is a ground-truth document as records, the form the fixture
writer takes; `report_inputs` and `records` convert between records and
the per-class columns that the loaders fill and evaluation reads.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from hypothesis import strategies as st

from lrpeval.dataio import Dataset, write_json
from lrpeval.geometry import BoundingBox
from lrpeval.matching import (
    ClassId, DetColumns, Detection, GroundTruth, GtColumns, to_columns,
)
from lrpeval.video import FrameDetections, StreamDetection

REFERENCE_CLASS = 1


def _scene(n_objects: int = 4, width: float = 100.0) -> list[BoundingBox]:
    """Disjoint ground-truth boxes laid out left to right."""
    return [
        BoundingBox(i * (width + 50.0), 0.0, i * (width + 50.0) + width, 10.0)
        for i in range(n_objects)
    ]


def box_at(i: int, side: float = 10.0) -> BoundingBox:
    """A side x side box at x = 100 * i: boxes of distinct i never overlap."""
    return BoundingBox(i * 100.0, 0.0, i * 100.0 + side, side)


def shrunk(box: BoundingBox, overlap: float) -> BoundingBox:
    """A box nested in `box` sharing its left edge, with IoU == overlap."""
    return BoundingBox(box.x_min, box.y_min, box.x_min + overlap * (box.x_max - box.x_min), box.y_max)


# Boxes over the ranges of `oracles.random_box`.
BOX = st.builds(BoundingBox.from_xywh, st.floats(0.0, 20.0), st.floats(0.0, 20.0),
                st.floats(0.5, 10.0), st.floats(0.5, 10.0))


def _far_box(index: int) -> BoundingBox:
    """A box disjoint from everything the scene produces."""
    return BoundingBox(index * 200.0, 1000.0, index * 200.0 + 100.0, 1010.0)


def _gts(boxes: Sequence[BoundingBox], image_id: int = 0) -> list[GroundTruth]:
    return [GroundTruth(image_id, REFERENCE_CLASS, b) for b in boxes]


def half_recall_detector() -> tuple[list[GroundTruth], list[Detection]]:
    """Finds half the objects, each perfectly, with no false positives."""
    boxes = _scene()
    dets = [
        Detection(0, REFERENCE_CLASS, boxes[0], 0.90),
        Detection(0, REFERENCE_CLASS, boxes[1], 0.80),
    ]
    return _gts(boxes), dets


def duplicate_heavy_detector() -> tuple[list[GroundTruth], list[Detection]]:
    """Finds every object perfectly but also emits a higher-scored
    near-miss duplicate (overlap below threshold) for each of them."""
    boxes = _scene()
    scores = [0.95, 0.90, 0.85, 0.80, 0.75, 0.70, 0.65, 0.60]
    dets = []
    for i, box in enumerate(boxes):
        dets.append(Detection(0, REFERENCE_CLASS, _far_box(i), scores[2 * i]))
        dets.append(Detection(0, REFERENCE_CLASS, box, scores[2 * i + 1]))
    return _gts(boxes), dets


def tradeoff_detector() -> tuple[list[GroundTruth], list[Detection]]:
    """Trades precision against recall along the curve and localizes its
    hits loosely; at its best threshold it keeps 2 TPs with summed
    localization error 0.79 alongside 2 FPs and 2 FNs."""
    boxes = _scene(n_objects=4)
    scores = [0.95, 0.90, 0.85, 0.80, 0.75, 0.70, 0.65, 0.60]
    overlaps = [0.61, 0.60, 0.52, 0.52]
    dets = []
    for i, box in enumerate(boxes):
        dets.append(Detection(0, REFERENCE_CLASS, _far_box(i), scores[2 * i]))
        dets.append(Detection(0, REFERENCE_CLASS, shrunk(box, overlaps[i]), scores[2 * i + 1]))
    return _gts(boxes), dets


def reference_detectors() -> dict[str, tuple[list[GroundTruth], list[Detection]]]:
    """The same-AP / different-oLRP trio, keyed by behavior."""
    return {
        "half_recall": half_recall_detector(),
        "duplicate_heavy": duplicate_heavy_detector(),
        "tradeoff": tradeoff_detector(),
    }


@dataclass(frozen=True)
class StreamClassSpec:
    """Per-class knobs of the stream generator.

    Every object of the class yields one detection per frame around
    tp_score; fp_per_frame spurious detections per frame score around
    fp_score, placed at a fixed spot when fp_persistent (so they link
    across frames) or scattered randomly when not.
    """

    class_id: ClassId
    n_objects: int
    tp_score: float
    fp_score: float = 0.0
    fp_per_frame: int = 0
    fp_persistent: bool = False


def _class_vector(slot: int, n_slots: int, score: float) -> tuple[float, ...]:
    rest = (1.0 - score) / (n_slots - 1)
    if rest > score:
        raise ValueError(
            f"score {score} too small for a peaked distribution over {n_slots} bins"
        )
    return tuple(score if i == slot else rest for i in range(n_slots))


def generate_stream(
    specs: Sequence[StreamClassSpec],
    n_frames: int,
    seed: int = 0,
    jitter: float = 0.5,
    score_noise: float = 0.0,
    box_size: float = 20.0,
) -> tuple[list[FrameDetections], list[GroundTruth]]:
    """Build a synthetic stream and its per-frame ground truth.

    Class distributions span one bin per class plus one background bin.
    Objects sit on a fixed grid; their detections jitter by up to
    `jitter` pixels per corner and their scores by up to `score_noise`.
    Returns (frames, ground truths with image id = frame index).
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    rng = random.Random(seed)
    # One bin per class plus a background bin, widened as needed so the
    # lowest generated score can still be the peak of its distribution.
    lowest = min(
        min(s.tp_score, s.fp_score if s.fp_per_frame else s.tp_score) for s in specs
    )
    lowest = max(0.01, lowest - score_noise)
    n_slots = max(len(specs) + 1, math.ceil(1.0 / lowest))

    object_boxes = []  # (class slot, spec, base box)
    for slot, spec in enumerate(specs):
        for obj in range(spec.n_objects):
            x0 = obj * (box_size + 30.0)
            y0 = slot * (box_size + 30.0)
            object_boxes.append((slot, spec, BoundingBox(x0, y0, x0 + box_size, y0 + box_size)))

    persistent_fp_boxes = {}
    for slot, spec in enumerate(specs):
        if spec.fp_persistent and spec.fp_per_frame:
            persistent_fp_boxes[slot] = [
                _spread_box(rng, box_size, lane=slot) for _ in range(spec.fp_per_frame)
            ]

    frames = []
    gts = []
    for frame_index in range(n_frames):
        dets = []
        for slot, spec, base in object_boxes:
            gts.append(GroundTruth(frame_index, spec.class_id, base))
            jittered = BoundingBox(
                base.x_min + rng.uniform(-jitter, jitter),
                base.y_min + rng.uniform(-jitter, jitter),
                base.x_max + rng.uniform(-jitter, jitter),
                base.y_max + rng.uniform(-jitter, jitter),
            )
            score = _noisy(rng, spec.tp_score, score_noise)
            dets.append(StreamDetection(spec.class_id, jittered, _class_vector(slot, n_slots, score)))
        for slot, spec in enumerate(specs):
            for fp_index in range(spec.fp_per_frame):
                if spec.fp_persistent:
                    base = persistent_fp_boxes[slot][fp_index]
                    box = BoundingBox(
                        base.x_min + rng.uniform(-jitter, jitter),
                        base.y_min + rng.uniform(-jitter, jitter),
                        base.x_max + rng.uniform(-jitter, jitter),
                        base.y_max + rng.uniform(-jitter, jitter),
                    )
                else:
                    box = _spread_box(rng, box_size, lane=slot)
                score = _noisy(rng, spec.fp_score, score_noise)
                dets.append(StreamDetection(spec.class_id, box, _class_vector(slot, n_slots, score)))
        frames.append(FrameDetections(frame_index, tuple(dets)))
    return frames, gts


def _noisy(rng: random.Random, score: float, noise: float) -> float:
    return min(0.99, max(0.01, score + rng.uniform(-noise, noise))) if noise else score


def _spread_box(rng: random.Random, box_size: float, lane: int) -> BoundingBox:
    # FP territory starts well below the object grid; one lane per class
    # keeps different classes' false positives from overlapping.
    x0 = rng.uniform(0.0, 5000.0)
    y0 = 2000.0 + lane * (box_size + 500.0) + rng.uniform(0.0, 400.0)
    return BoundingBox(x0, y0, x0 + box_size, y0 + box_size)


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


class GtRecords(NamedTuple):
    """A ground-truth document as records: the `Dataset` id maps, and each
    annotation as a `GroundTruth`, in the order of the file."""

    images: dict
    names: dict
    ground_truths: tuple[GroundTruth, ...]


def report_inputs(
    images: Mapping, names: Mapping, gts: Iterable[GroundTruth], dets: Iterable[Detection] = ()
) -> tuple[Dataset, dict[ClassId, DetColumns]]:
    """The `Dataset` and the detection columns that the loaders would give
    for these records, by the API edge conversion (`to_columns`): the first
    two arguments of `build_report`."""
    gt_cols, det_cols = to_columns(gts, dets, names)
    return Dataset(images, names, gt_cols), det_cols


def records(columns: Mapping[ClassId, GtColumns | DetColumns]) -> list:
    """The records of per-class columns, class by class in the order of the
    mapping: a `GroundTruth` per row of `GtColumns`, a `Detection` per row
    of `DetColumns`."""
    out = []
    for cid, cols in columns.items():
        make = GroundTruth if isinstance(cols, GtColumns) else Detection
        out += [make(image_id, cid, BoundingBox(*row[:4]), value)
                for image_id, row, value in zip(*cols)]
    return out


def stream_detections(frames: Iterable[FrameDetections]) -> list[Detection]:
    """The detections of stream frames as evaluation sees them: image id =
    frame index, score = the distribution's peak."""
    return [Detection(frame.frame_index, det.class_id, det.box, det.score)
            for frame in frames for det in frame.detections]


def save_ground_truth(dataset: GtRecords, path) -> None:
    """Write a ground-truth document of records in COCO annotation form."""
    doc = {
        "images": [
            {"id": i, "width": width, "height": height}
            for i, (width, height) in dataset.images.items()
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
        "categories": [{"id": c, "name": name} for c, name in dataset.names.items()],
    }
    write_json(doc, path)
