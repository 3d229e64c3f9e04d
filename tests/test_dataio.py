import csv
import io
import json
import random
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpeval import (
    BoundingBox,
    Detection,
    GroundTruth,
    SchemaError,
    build_report,
    export_curves,
    export_report,
    label_classes,
    load_detections,
    load_ground_truth,
    load_stream,
    load_thresholds,
    molrp,
    rp_curve,
    save_detections,
    save_ground_truth,
    save_stream,
    save_thresholds,
    sweep_class,
    threshold_rows,
)
from lrpeval.dataio import Category, Dataset, ImageInfo, report_to_dict
from lrpeval.video import FrameDetections, StreamDetection
import oracles
from lrpeval import dataio
from synth import reference_detectors


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def minimal_gt(tmp_path, **overrides):
    doc = {
        "images": [{"id": 1, "width": 640, "height": 480}],
        "annotations": [
            {"id": 10, "image_id": 1, "category_id": 3, "bbox": [10, 20, 30, 40], "iscrowd": 0}
        ],
        "categories": [{"id": 3, "name": "cat"}],
    }
    doc.update(overrides)
    return write_json(tmp_path / "gt.json", doc)


class TestLoadGroundTruth:
    def test_minimal_file(self, tmp_path):
        ds = load_ground_truth(minimal_gt(tmp_path))
        assert len(ds.ground_truths) == 1
        assert ds.categories == (Category(3, "cat"),)
        assert ds.images[0].id == 1

    def test_bbox_converted_to_corners(self, tmp_path):
        ds = load_ground_truth(minimal_gt(tmp_path))
        assert ds.ground_truths[0].box == BoundingBox(10, 20, 40, 60)

    def test_missing_image_id_is_named(self, tmp_path):
        path = minimal_gt(
            tmp_path,
            annotations=[{"id": 7, "image_id": 99, "category_id": 3, "bbox": [0, 0, 5, 5]}],
        )
        with pytest.raises(SchemaError, match=r"annotations\[0\].image_id.*99"):
            load_ground_truth(path)

    def test_zero_area_box_rejected_with_annotation_id(self, tmp_path):
        path = minimal_gt(
            tmp_path,
            annotations=[{"id": 17, "image_id": 1, "category_id": 3, "bbox": [5, 5, 0, 10]}],
        )
        with pytest.raises(SchemaError, match="annotation id 17"):
            load_ground_truth(path)

    def test_iscrowd_maps_to_ignore(self, tmp_path):
        path = minimal_gt(
            tmp_path,
            annotations=[
                {"id": 1, "image_id": 1, "category_id": 3, "bbox": [0, 0, 5, 5], "iscrowd": 1},
                {"id": 2, "image_id": 1, "category_id": 3, "bbox": [9, 9, 5, 5]},
            ],
        )
        ds = load_ground_truth(path)
        assert [g.ignore for g in ds.ground_truths] == [True, False]

    def test_duplicate_image_id_rejected(self, tmp_path):
        path = minimal_gt(tmp_path, images=[{"id": 1}, {"id": 1}])
        with pytest.raises(SchemaError, match=r"images\[1\].id"):
            load_ground_truth(path)

    def test_unknown_category_rejected(self, tmp_path):
        path = minimal_gt(
            tmp_path,
            annotations=[{"id": 1, "image_id": 1, "category_id": 42, "bbox": [0, 0, 5, 5]}],
        )
        with pytest.raises(SchemaError, match=r"annotations\[0\].category_id.*42"):
            load_ground_truth(path)

    def test_mixed_category_id_types_rejected(self, tmp_path):
        path = minimal_gt(tmp_path, categories=[{"id": 3, "name": "cat"}, {"id": "dog"}])
        with pytest.raises(SchemaError, match=r"categories\[1\]\.id: category ids must be all"):
            load_ground_truth(path)

    def test_bool_bbox_coordinate_rejected(self, tmp_path):
        path = minimal_gt(
            tmp_path,
            annotations=[{"id": 1, "image_id": 1, "category_id": 3, "bbox": [0, True, 5, 5]}],
        )
        with pytest.raises(SchemaError, match=r"annotations\[0\]\.bbox\[1\]: must be a number"):
            load_ground_truth(path)

    def test_out_of_image_box_warns_but_loads(self, tmp_path, caplog):
        path = minimal_gt(
            tmp_path,
            annotations=[{"id": 1, "image_id": 1, "category_id": 3, "bbox": [600, 0, 100, 50]}],
        )
        with caplog.at_level("WARNING", logger="lrpeval"):
            ds = load_ground_truth(path)
        assert len(ds.ground_truths) == 1
        assert "outside image" in caplog.text

    def test_round_trip(self, tmp_path):
        ds = load_ground_truth(minimal_gt(tmp_path))
        out = tmp_path / "roundtrip.json"
        save_ground_truth(ds, out)
        again = load_ground_truth(out)
        assert again.ground_truths == ds.ground_truths
        assert again.categories == ds.categories


class TestLoadDetections:
    def test_empty_array(self, tmp_path):
        ds = load_ground_truth(minimal_gt(tmp_path))
        path = write_json(tmp_path / "det.json", [])
        assert load_detections(path, ds) == []

    def test_score_out_of_range_names_record(self, tmp_path):
        ds = load_ground_truth(minimal_gt(tmp_path))
        path = write_json(
            tmp_path / "det.json",
            [{"image_id": 1, "category_id": 3, "bbox": [0, 0, 5, 5], "score": 1.5}],
        )
        with pytest.raises(SchemaError, match=r"detections\[0\].score"):
            load_detections(path, ds)

    def test_bool_score_rejected(self, tmp_path):
        ds = load_ground_truth(minimal_gt(tmp_path))
        path = write_json(
            tmp_path / "det.json",
            [{"image_id": 1, "category_id": 3, "bbox": [0, 0, 5, 5], "score": True}],
        )
        with pytest.raises(SchemaError, match=r"detections\[0\]\.score"):
            load_detections(path, ds)

    def test_unknown_ids_named(self, tmp_path):
        ds = load_ground_truth(minimal_gt(tmp_path))
        path = write_json(
            tmp_path / "det.json",
            [
                {"image_id": 1, "category_id": 3, "bbox": [0, 0, 5, 5], "score": 0.5},
                {"image_id": 2, "category_id": 3, "bbox": [0, 0, 5, 5], "score": 0.5},
            ],
        )
        with pytest.raises(SchemaError, match=r"detections\[1\].image_id"):
            load_detections(path, ds)

    def test_round_trip_is_bit_exact(self, tmp_path):
        # dyadic coordinates survive the corner/xywh conversions exactly
        ds = load_ground_truth(minimal_gt(tmp_path))
        rng = random.Random(5)
        dets = []
        for _ in range(50):
            x = rng.randrange(0, 2000) / 4
            y = rng.randrange(0, 2000) / 4
            w = rng.randrange(1, 400) / 4
            h = rng.randrange(1, 400) / 4
            dets.append(Detection(1, 3, BoundingBox.from_xywh(x, y, w, h), rng.random()))
        path = tmp_path / "det.json"
        save_detections(dets, path)
        again = load_detections(path, ds)
        assert again == dets


def with_categories(*ids, frames=()):
    """A dataset that declares the given category ids, an image for each
    given frame index, and nothing else."""
    return Dataset(tuple(map(ImageInfo, frames)), tuple(Category(c, str(c)) for c in ids), ())


class TestStreamIO:
    def test_round_trip(self, tmp_path):
        frames = [
            FrameDetections(
                0,
                (
                    StreamDetection("a", BoundingBox(0, 0, 10, 10), (0.75, 0.125, 0.125)),
                    StreamDetection("b", BoundingBox(20, 0, 30, 10), (0.125, 0.75, 0.125)),
                ),
            ),
            FrameDetections(1, ()),
        ]
        path = tmp_path / "stream.json"
        save_stream(frames, path)
        assert load_stream(path, with_categories("a", "b", frames=(0, 1))) == frames

    def test_bad_distribution_names_field(self, tmp_path):
        doc = {
            "frames": [
                {
                    "frame_index": 0,
                    "detections": [
                        {"class_id": "a", "bbox": [0, 0, 10, 10], "class_scores": [0.5, 0.1]}
                    ],
                }
            ]
        }
        path = write_json(tmp_path / "stream.json", doc)
        with pytest.raises(SchemaError, match=r"frames\[0\].detections\[0\].class_scores"):
            load_stream(path, with_categories("a", frames=(0,)))

    def test_missing_frames_key(self, tmp_path):
        path = write_json(tmp_path / "stream.json", {"video": []})
        with pytest.raises(SchemaError, match="frames"):
            load_stream(path, with_categories("a"))


def _distribution(weights):
    total = sum(weights)
    return tuple(w / total for w in weights)


_STREAM_CLASS_ID = st.one_of(
    st.integers(-5, 10 ** 20), st.floats(),
    st.text(alphabet=st.sampled_from('ab"\\é\u4e2d\U0001f600\n'), max_size=4),
)
_COORDINATE = st.one_of(st.integers(-1000, 1000), st.floats(-1e6, 1e6))
_SIDE = st.one_of(st.integers(1, 1000), st.floats(1e-3, 1e6))
_STREAM_DETECTION = st.builds(
    StreamDetection,
    _STREAM_CLASS_ID,
    st.builds(BoundingBox.from_xywh, _COORDINATE, _COORDINATE, _SIDE, _SIDE),
    st.one_of(
        st.sampled_from([(1,), (1, 0), (0, 1, 0), (1.0, 0.0), (0.5, 0.5)]),
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4).map(_distribution),
    ),
)
_STREAM = st.lists(
    st.builds(
        FrameDetections,
        st.integers(0, 10 ** 6),
        st.lists(_STREAM_DETECTION, max_size=3).map(tuple),
    ),
    max_size=4,
)


class TestSaveStreamProperty:
    """`save_stream` lays the document out itself; its bytes must be those
    of `json` with an indent of 2 on every stream the records admit."""

    @settings(max_examples=300, deadline=None)
    @given(_STREAM)
    def test_bytes_equal_indented_json(self, frames):
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
        out = io.StringIO()
        with redirect_stdout(out):
            save_stream(frames, "-")
        assert out.getvalue() == json.dumps(doc, indent=2) + "\n"

    def test_file_bytes_equal_indented_json(self, tmp_path):
        frames = [
            FrameDetections(3, ()),
            FrameDetections(4, (StreamDetection("\u00e9", BoundingBox(0, 0.5, 2, 3), (1.0,)),)),
        ]
        path = tmp_path / "stream.json"
        save_stream(frames, path)
        assert path.read_bytes() == (
            b'{\n  "frames": [\n    {\n      "frame_index": 3,\n      "detections": []\n    },'
            b'\n    {\n      "frame_index": 4,\n      "detections": [\n        {\n'
            b'          "class_id": "\\u00e9",\n          "bbox": [\n            0,\n'
            b'            0.5,\n            2,\n            2.5\n          ],\n'
            b'          "class_scores": [\n            1.0\n          ]\n        }\n      ]\n'
            b'    }\n  ]\n}\n'
        )
        save_stream([], path)
        assert path.read_bytes() == b'{\n  "frames": []\n}\n'


class TestSlottedRecords:
    @pytest.mark.parametrize("record", [
        BoundingBox(0, 0, 1, 1),
        Detection(0, "a", BoundingBox(0, 0, 1, 1), 0.5),
        GroundTruth(0, "a", BoundingBox(0, 0, 1, 1)),
        StreamDetection("a", BoundingBox(0, 0, 1, 1), (1.0,)),
        FrameDetections(0, ()),
        ImageInfo(0),
    ], ids=lambda record: type(record).__name__)
    def test_per_record_types_have_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")


class TestThresholds:
    def test_round_trip(self, tmp_path):
        gts, dets = reference_detectors()["half_recall"]
        report = molrp(gts, dets, [1], tau=0.5)
        rows = threshold_rows(report, {1: "obj"})
        path = tmp_path / "thr.json"
        save_thresholds(rows, 0.5, path)
        loaded = load_thresholds(path, with_categories(1))
        assert loaded == {1: 0.80}

    def test_zero_detection_class_forced_to_zero_with_warning(self, tmp_path, caplog):
        gts = [GroundTruth(0, 1, BoundingBox(0, 0, 10, 10))]
        report = molrp(gts, [], [1], tau=0.5)
        assert report.per_class[1].s_star == 1.0  # largest-s tie break
        with caplog.at_level("WARNING", logger="lrpeval"):
            rows = threshold_rows(report)
        assert rows[0].s_star == 0.0
        assert rows[0].olrp == 1.0
        assert "no detections" in rows[0].warning
        assert "no detections" in caplog.text

    def test_rejects_other_documents(self, tmp_path):
        path = write_json(tmp_path / "thr.json", {"schema": "other", "thresholds": []})
        with pytest.raises(SchemaError):
            load_thresholds(path, with_categories(1))


def trio_dataset():
    gts, dets = reference_detectors()["half_recall"]
    images = tuple(ImageInfo(i) for i in sorted({g.image_id for g in gts}))
    ds = Dataset(images, (Category(1, "obj"),), tuple(gts))
    return ds, dets


class TestBuildAndExportReport:
    def test_perfect_fixture_summary(self):
        box = BoundingBox(0, 0, 10, 10)
        ds = Dataset((ImageInfo(0),), (Category(1, "obj"),), (GroundTruth(0, 1, box),))
        report = build_report(ds, [Detection(0, 1, box, 0.9)])
        assert report.lrp.molrp == 0.0
        assert report.mean_ap == 1.0
        assert report.rows[0].ap_continuous == 1.0
        assert report.rows[0].sweep.s_star == 0.90

    def test_json_export_round_trip(self, tmp_path):
        ds, dets = trio_dataset()
        report = build_report(ds, dets)
        path = tmp_path / "report.json"
        export_report(report, path, "json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == "lrp_report_v1"
        assert loaded["config"]["tau"] == 0.5
        row = loaded["classes"][0]
        assert row["olrp"] == round(report.rows[0].sweep.olrp, 4)
        assert row["s_star"] == 0.8
        assert loaded["summary"]["molrp"] == round(report.lrp.molrp, 4)
        assert loaded["summary"]["mean_ap"] == round(report.mean_ap, 4)

    def test_csv_export_has_four_decimals_and_summary(self, tmp_path):
        ds, dets = trio_dataset()
        report = build_report(ds, dets)
        path = tmp_path / "report.csv"
        export_report(report, path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# lrp_report_v1")
        rows = list(csv.reader(lines[1:]))
        header, class_row, summary = rows[0], rows[1], rows[-1]
        assert "s_star" in header
        assert class_row[header.index("olrp")] == "0.5000"
        assert class_row[header.index("ap_continuous")] == "0.5000"
        assert class_row[header.index("s_star")] == "0.8000"
        assert summary[header.index("class_name")] == "summary"
        assert summary[header.index("olrp")] == "0.5000"

    def test_csv_reimport_matches_print_precision(self, tmp_path):
        ds, dets = trio_dataset()
        report = build_report(ds, dets)
        path = tmp_path / "report.csv"
        export_report(report, path, "csv")
        lines = path.read_text().splitlines()
        rows = list(csv.reader(lines[1:]))
        header = rows[0]
        for raw, expected in zip(rows[1:], report.rows):
            for field in ("olrp", "olrp_iou", "olrp_fp", "olrp_fn", "s_star"):
                text = raw[header.index(field)]
                value = getattr(expected.sweep, field.replace("olrp_iou", "olrp_iou"))
                if value is None:
                    assert text == ""
                else:
                    assert float(text) == pytest.approx(value, abs=5e-5)

    def test_exports_are_deterministic(self, tmp_path):
        ds, dets = trio_dataset()
        report = build_report(ds, dets)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        export_report(report, a, "json")
        export_report(report, b, "json")
        assert a.read_bytes() == b.read_bytes()

    def test_ap_computed_once_per_class_and_tau(self, monkeypatch):
        # At tau, the row's variant value also serves the tau-averaged mean.
        real_ap, calls = dataio.ap, Counter()

        def counting_ap(labels, variant):
            calls[(labels.tau, variant)] += 1
            return real_ap(labels, variant)

        monkeypatch.setattr(dataio, "ap", counting_ap)
        ds, dets = trio_dataset()
        report = build_report(ds, dets, tau=0.5, tau_list=(0.5, 0.6, 0.7), ap_variant="pascal11")
        assert calls == {
            (0.5, "continuous"): 1, (0.5, "pascal11"): 1, (0.5, "coco101"): 1,
            (0.6, "pascal11"): 1, (0.7, "pascal11"): 1,
        }
        per_tau = label_classes(ds.ground_truths, dets, (1,), (0.5, 0.6, 0.7))
        expected = [real_ap(labels, "pascal11") for _, labels in per_tau]
        assert report.mean_ap == sum(expected) / 3

    def test_every_class_has_s_star_column(self):
        gts = [GroundTruth(0, 1, BoundingBox(0, 0, 10, 10)), GroundTruth(0, 2, BoundingBox(20, 0, 30, 10))]
        ds = Dataset(
            (ImageInfo(0),), (Category(1, "a"), Category(2, "b")), tuple(gts)
        )
        report = build_report(ds, [Detection(0, 1, BoundingBox(0, 0, 10, 10), 0.9)])
        doc = report_to_dict(report)
        assert all("s_star" in row for row in doc["classes"])
        assert len(doc["classes"]) == 2


class TestExportCurves:
    def test_record_count_matches_defined_samples(self, tmp_path):
        gts, dets = reference_detectors()["tradeoff"]
        sweep = sweep_class(gts, dets, 1, tau=0.5)
        defined = sum(1 for s in sweep.samples if s.breakdown is not None)
        path = tmp_path / "curves.csv"
        export_curves([sweep], path)
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert len(rows) == defined

    def test_exactly_one_optimal_flag_per_sweep(self, tmp_path):
        gts, dets = reference_detectors()["half_recall"]
        sweep = sweep_class(gts, dets, 1, tau=0.5)
        path = tmp_path / "curves.csv"
        export_curves([sweep], path)
        rows = list(csv.DictReader(path.read_text().splitlines()))
        flags = [r for r in rows if r["is_optimal"] == "true"]
        assert len(flags) == 1

    def test_optimal_record_sits_at_half_recall_full_precision(self, tmp_path):
        gts, dets = reference_detectors()["half_recall"]
        sweep = sweep_class(gts, dets, 1, tau=0.5)
        path = tmp_path / "curves.csv"
        export_curves([sweep], path)
        rows = list(csv.DictReader(path.read_text().splitlines()))
        best = next(r for r in rows if r["is_optimal"] == "true")
        assert best["recall"] == "0.5000"
        assert best["precision"] == "1.0000"

    def test_rp_curve_records(self, tmp_path):
        gts, dets = reference_detectors()["half_recall"]
        curve = rp_curve(gts, dets, 1, tau=0.5)
        path = tmp_path / "curves.csv"
        export_curves([curve], path)
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert len(rows) == len(curve.points)
        assert rows[0]["source"] == "rp"
        assert rows[0]["lrp_total"] == ""

    def test_rejects_unknown_items(self, tmp_path):
        with pytest.raises(TypeError):
            export_curves([object()], tmp_path / "curves.csv")


_NAN, _INF = float("nan"), float("inf")
# Replacement values for any field: wrong types, numeric strings, bools,
# non-finite reals, nested lists, unknown ids, and valid uncommon forms.
_ANY_VALUE = st.sampled_from([
    None, True, False, 0, 1, 2, 7, -1, 0.0, 0.5, 1.0, 1.5, -0.0, 1e308,
    "a", "b", "1", "0.5", "", _NAN, _INF, -_INF, [], [1], [[1.0]], {}, {"id": 1},
])
_IDS = st.sampled_from([0, 1, 2, 3, 999, 1.0, "a", "b", "zzz", "1", True, False, None, [0]])
_BBOXES = st.sampled_from([
    [0.0, 0.0, 10.0, 10.0], [0, 0, 10, 10], [1.5, 2.5, 3.0, 4.0], [-5.0, -5.0, 10.0, 10.0],
    [95.0, 95.0, 10.0, 10.0], [0.0, 0.0, 0.0, 10.0], [0.0, 0.0, 10.0, -1.0],
    [5.0, 5.0, -2.0, 3.0], [1e308, 0.0, 1e308, 1.0], [0.0, 0.0, 10.0], [0.0, 0.0, 10.0, 10.0, 1.0],
    [], [_NAN, 0.0, 1.0, 1.0], [0.0, _INF, 1.0, 1.0], [True, 0.0, 1.0, 1.0],
    ["1", 0.0, 1.0, 1.0], [[1.0], 0.0, 1.0, 1.0], [None, 0.0, 1.0, 1.0], [0.0, 0, 10.0, 10],
])
_CLASS_SCORES = st.sampled_from([
    [0.25, 0.75], [0.5, 0.5], [1, 0], [1.0, 0.0], [0.1 + 0.2, 0.7], [0.2, 0.3, 0.5], [1.0],
    [0.0, 0.0, 1.0], [0.9], [],
    [0.5, 0.6], [-0.1, 1.1], [_NAN, 1.0], [1.0, _NAN], [_INF, 0.0], [0.5, "0.5"],
    [True, False], [[0.5], 0.5], [None, 1.0],
])
_FIELD_VALUES = {
    "id": _IDS, "image_id": _IDS, "category_id": _IDS, "class_id": _IDS,
    "bbox": _BBOXES,
    # Valid distributions of every length as often as invalid ones.
    "class_scores": st.one_of(
        st.sampled_from([[0.25, 0.75], [1.0, 0.0], [0.2, 0.3, 0.5], [0.0, 0.0, 1.0], [1.0]]),
        _CLASS_SCORES,
    ),
    "iscrowd": st.sampled_from([0, 1, True, False, 2, -1, "0", 0.0, 1.0, None]),
    "score": st.sampled_from([0.0, 1.0, 0, 1, 0.25, 1.5, -0.1, -0.0, _NAN, "0.5", True]),
    "width": st.sampled_from([100, 100.0, 5.0, None, "100", True, _NAN]),
    "height": st.sampled_from([100, 100.0, 5.0, None, "100", True, _NAN]),
    # The one integer, 7, names no image. Frame indices stay increasing
    # here, their order is checked in tests/test_cli.py::TestMalformedInputs.
    "frame_index": st.sampled_from([True, False, 1.5, 3.0, "3", None, [3], _NAN, 7]),
}
_FIELDS = {
    "gt": ("images", "annotations", "categories"),
    "images": ("id", "width", "height"),
    "categories": ("id", "name"),
    "annotations": ("id", "image_id", "category_id", "bbox", "iscrowd"),
    "det": ("image_id", "category_id", "bbox", "score"),
    "stream": ("frames",),
    "frames": ("frame_index", "detections"),
    "stream_dets": ("class_id", "bbox", "class_scores"),
}
# Kinds of record a mutation of each document picks from, records more
# often than the document root.
_MUTATED_KINDS = {
    "gt": ("gt", "images", "images", "categories", "annotations", "annotations", "annotations"),
    "det": ("det_root", "det", "det", "det", "det"),
    "stream": ("stream", "frames", "frames", "stream_dets", "stream_dets", "stream_dets"),
}


@st.composite
def loader_documents(draw, target):
    """A valid GT document, detection array and stream whose frames are
    some of the images, then one to three mutations of the target
    document: a field set to an odd value, a field deleted, or a record
    replaced by a non-object. Frame indices stay increasing;
    tests/test_cli.py covers their order."""
    cat_ids = draw(st.sampled_from(([1, 2, 3], ["a", "b", "c"])))[: draw(st.integers(1, 3))]
    n_images = draw(st.integers(1, 3))
    box = st.sampled_from([[0.0, 0.0, 10.0, 10.0], [5.5, 2.25, 20.0, 30.0], [0, 0, 10, 10],
                           [90.0, 90.0, 20.0, 20.0]])
    image_id, cat_id = st.integers(0, n_images - 1), st.sampled_from(cat_ids)
    gt = {
        "images": [{"id": i, "width": draw(st.sampled_from([100.0, 100, None])), "height": 100.0}
                   for i in range(n_images)],
        "annotations": [
            {"id": k + 1, "image_id": draw(image_id), "category_id": draw(cat_id),
             "bbox": draw(box), "iscrowd": draw(st.sampled_from([0, 0, 1, False]))}
            for k in range(draw(st.integers(1, 4)))
        ],
        "categories": [{"id": c, "name": f"class-{c}"} for c in cat_ids],
    }
    det = [
        {"image_id": draw(image_id), "category_id": draw(cat_id), "bbox": draw(box),
         "score": draw(st.sampled_from([0.9, 0.25, 0.0, 1.0, 1]))}
        for _ in range(draw(st.integers(1, 4)))
    ]
    dists = draw(st.sampled_from(([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]],
                                  [[0.2, 0.3, 0.5], [0.0, 0.0, 1.0]])))
    stream = {"frames": [
        {"frame_index": f, "detections": [
            {"class_id": draw(cat_id), "bbox": draw(box), "class_scores": draw(st.sampled_from(dists))}
            for _ in range(draw(st.integers(1, 3)))
        ]}
        for f in sorted(draw(st.sets(image_id, min_size=1)))
    ]}
    docs = {"gt": gt, "det": det, "stream": stream}
    # (container, key of the record in it) by kind of record
    slots = {
        "gt": [(docs, "gt")], "images": [(gt["images"], i) for i in range(len(gt["images"]))],
        "categories": [(gt["categories"], i) for i in range(len(gt["categories"]))],
        "annotations": [(gt["annotations"], i) for i in range(len(gt["annotations"]))],
        "det_root": [(docs, "det")], "det": [(det, i) for i in range(len(det))],
        "stream": [(docs, "stream")],
        "frames": [(stream["frames"], f) for f in range(len(stream["frames"]))],
        "stream_dets": [(frame["detections"], j) for frame in stream["frames"]
                        for j in range(len(frame["detections"]))],
    }
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(_MUTATED_KINDS[target]))
        container, key = draw(st.sampled_from(slots[kind]))
        record = container[key]
        action = draw(st.sampled_from(("set", "set", "set", "delete", "replace")))
        if action == "replace":
            container[key] = draw(st.sampled_from([None, 1, "x", [], [{}], True]))
        elif isinstance(record, dict):
            field = draw(st.sampled_from(_FIELDS[kind]))
            if action == "delete":
                record.pop(field, None)
            else:
                record[field] = draw(_FIELD_VALUES.get(field, _ANY_VALUE))
    return docs


def _load_all(loaders, paths):
    """What each loader of a module makes of the files: ("ok", repr of the
    result) or ("error", SchemaError message). Any other exception escapes."""
    try:
        dataset = loaders.load_ground_truth(paths["gt"])
    except SchemaError as exc:
        return [("error", str(exc))]
    outcomes = [("ok", repr(dataset))]
    for load, name in ((loaders.load_detections, "det"), (loaders.load_stream, "stream")):
        try:
            outcomes.append(("ok", repr(load(paths[name], dataset))))
        except SchemaError as exc:
            outcomes.append(("error", str(exc)))
    return outcomes


class TestLoaderProperty:
    @pytest.mark.parametrize("target", ["gt", "det", "stream"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_field_by_field_reference(self, target, data):
        docs = data.draw(loader_documents(target))
        # repr compares NaN fields (nan != nan) and keeps int and float apart.
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, doc in docs.items():
                paths[name] = Path(tmp) / f"{name}.json"
                paths[name].write_text(json.dumps(doc))
            assert _load_all(dataio, paths) == _load_all(oracles, paths)
