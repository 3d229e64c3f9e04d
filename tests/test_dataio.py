import csv
import importlib
import io
import json
import pkgutil
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrpeval
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
    save_stream,
    save_thresholds,
    sweep_class,
    threshold_rows,
)
from lrpeval.ap import AP_VARIANTS, ap, curve_from_labels
from lrpeval.dataio import Dataset, round_row
from lrpeval.lrp import DasaParams, lrp_components
from lrpeval.matching import (
    MatchResult, iou_table, label_at_tau, label_detections, match_optimal, to_columns,
)
from lrpeval.sweep import aggregate_molrp, sweep_labels
from lrpeval.video import FrameDetections, StreamDetection, track_stream
import oracles
from lrpeval import dataio
from synth import (
    GtRecords, records, reference_detectors, report_inputs, save_detections, save_ground_truth,
)
from test_matching import grid_breakdowns


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
        assert len(records(ds.gt_columns)) == 1
        assert ds.names == {3: "cat"}
        assert ds.images == {1: (640, 480)}

    def test_bbox_converted_to_corners(self, tmp_path):
        ds = load_ground_truth(minimal_gt(tmp_path))
        assert records(ds.gt_columns)[0].box == BoundingBox(10, 20, 40, 60)

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
        assert [g.ignore for g in records(ds.gt_columns)] == [True, False]

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

    def test_out_of_image_box_warns_but_loads(self, tmp_path, capsys):
        path = minimal_gt(
            tmp_path,
            annotations=[{"id": 1, "image_id": 1, "category_id": 3, "bbox": [600, 0, 100, 50]}],
        )
        ds = load_ground_truth(path)
        assert len(records(ds.gt_columns)) == 1
        assert "outside image" in capsys.readouterr().err

    def test_round_trip(self, tmp_path):
        # Ids out of sorted order: both maps keep the order of the file.
        ds = load_ground_truth(minimal_gt(
            tmp_path,
            images=[{"id": 1, "width": 640, "height": 480}, {"id": 0, "width": 32.5}],
            categories=[{"id": 3, "name": "cat"}, {"id": 1, "name": "dog"}, {"id": 2}],
        ))
        assert list(ds.names.items()) == [(3, "cat"), (1, "dog"), (2, "2")]
        out = tmp_path / "roundtrip.json"
        save_ground_truth(GtRecords(ds.images, ds.names, tuple(records(ds.gt_columns))), out)
        again = load_ground_truth(out)
        assert again.gt_columns == ds.gt_columns
        assert list(again.images.items()) == [(1, (640, 480)), (0, (32.5, None))]
        assert list(again.names.items()) == list(ds.names.items())


# Boxes with quarter-pixel x and y in [0, 500) and sides in (0, 100).
_QUARTER = st.integers(0, 1999).map(lambda k: k / 4)
_QUARTER_SIDE = st.integers(1, 399).map(lambda k: k / 4)
_QUARTER_BOX = st.builds(BoundingBox.from_xywh, _QUARTER, _QUARTER, _QUARTER_SIDE, _QUARTER_SIDE)


class TestLoadDetections:
    def test_empty_array(self, tmp_path):
        ds = load_ground_truth(minimal_gt(tmp_path))
        path = write_json(tmp_path / "det.json", [])
        assert records(load_detections(path, ds)) == []

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

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(_QUARTER_BOX, st.floats(0.0, 1.0)), min_size=1, max_size=50))
    def test_round_trip_is_bit_exact(self, boxes):
        # dyadic coordinates survive the corner/xywh conversions exactly;
        # others drift in the last bits (the filtered-stream drift in CHANGES.md)
        dets = [Detection(1, 3, box, score) for box, score in boxes]
        with tempfile.TemporaryDirectory() as tmp:
            ds = load_ground_truth(minimal_gt(Path(tmp)))
            path = Path(tmp) / "det.json"
            save_detections(dets, path)
            again = load_detections(path, ds)
        assert records(again) == dets


def with_categories(*ids, frames=()):
    """A dataset that declares the given category ids, an image for each
    given frame index, and nothing else."""
    return report_inputs(dict.fromkeys(frames, (None, None)), {c: str(c) for c in ids}, ())[0]


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


def one_record_of_each_type():
    """One record of each of the 18 record types, all named tuples."""
    box = BoundingBox(0, 0, 1, 1)
    gt, det = GroundTruth(0, "a", box), Detection(0, "a", box, 0.5)
    gt_cols, det_cols = to_columns([gt], [det], ["a"])
    table = iou_table(gt_cols["a"], det_cols["a"])
    labels = label_at_tau(table, 0.5)
    sweep = sweep_labels(labels, "a")
    stream_det = StreamDetection("a", box, (1.0,))
    frame = FrameDetections(0, (stream_det,))
    return [
        box, det, gt, stream_det, frame,
        MatchResult((), 0, 1, 1), label_detections([gt], [det], 0.5)[0], labels, table,
        lrp_components(match_optimal([box], [box], 0.5), 0.5), DasaParams(),
        sweep, aggregate_molrp({"a": sweep}),
        curve_from_labels(labels, "a"), track_stream([frame]),
        Dataset({0: (None, None)}, {"a": "a"}, gt_cols), gt_cols["a"], det_cols["a"],
    ]


RECORDS = one_record_of_each_type()


def type_name(record):
    return type(record).__name__


class TestSlottedRecords:
    """Every record type has `__slots__ = ()`."""

    @pytest.mark.parametrize("record", RECORDS, ids=type_name)
    def test_per_record_types_have_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")


class TestRecordSemantics:
    def test_one_tuple_per_record_type(self):
        assert len({type(r) for r in RECORDS}) == 18
        assert all(isinstance(r, tuple) for r in RECORDS)

    def test_every_named_tuple_type_has_a_record(self):
        # A record type missing from one_record_of_each_type() would skip
        # the slot, immutability and _replace checks; a field base is
        # covered by the record of its subclass.
        defined = {
            cls
            for info in pkgutil.iter_modules(lrpeval.__path__, "lrpeval.")
            for cls in vars(importlib.import_module(info.name)).values()
            if isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")
            and cls.__module__ == info.name
        }
        assert {type(r) for r in RECORDS} <= defined
        missing = {cls for cls in defined if not any(isinstance(r, cls) for r in RECORDS)}
        assert missing == set()

    @pytest.mark.parametrize("record", RECORDS, ids=type_name)
    def test_setting_a_field_raises_attribute_error(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    @pytest.mark.parametrize("make", [
        lambda: BoundingBox(0, 0.5, 2, 2.5),
        lambda: Detection(0, "a", BoundingBox(0, 0, 1, 1), 0.5),
        lambda: GroundTruth(0, "a", BoundingBox(0, 0, 1, 1), True),
        lambda: StreamDetection("a", BoundingBox(0, 0, 1, 1), (0.25, 0.75)),
    ], ids=["BoundingBox", "Detection", "GroundTruth", "StreamDetection"])
    def test_equal_values_hash_equal(self, make):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("record, field, bad", [
        (BoundingBox(0, 0, 1, 1), "x_max", -1),
        (Detection(0, "a", BoundingBox(0, 0, 1, 1), 0.5), "score", 2.0),
        (GroundTruth(0, "a", BoundingBox(0, 0, 1, 1)), "box", (5, 5, 1, 1)),
        (StreamDetection("a", BoundingBox(0, 0, 1, 1), (1.0,)), "class_scores", (0.5,)),
        (MatchResult((), 0, 1, 1), "n_tp", 1),
        (DasaParams(), "p", 0.5),
    ], ids=["BoundingBox", "Detection", "GroundTruth", "StreamDetection", "MatchResult",
            "DasaParams"])
    def test_replace_and_make_run_the_checks(self, record, field, bad):
        with pytest.raises(ValueError):
            record._replace(**{field: bad})
        with pytest.raises(ValueError):
            type(record)._make(bad if f == field else v for f, v in zip(record._fields, record))
        assert record._replace() == record

    def test_reprs_name_every_field(self):
        box = BoundingBox(0, 0, 1, 1)
        box_repr = "BoundingBox(x_min=0, y_min=0, x_max=1, y_max=1)"
        assert repr(box) == box_repr
        assert repr(Detection(0, "a", box, 0.5)) == (
            f"Detection(image_id=0, class_id='a', box={box_repr}, score=0.5)"
        )
        assert repr(GroundTruth(0, "a", box)) == (
            f"GroundTruth(image_id=0, class_id='a', box={box_repr}, ignore=False)"
        )


class TestThresholds:
    def test_round_trip(self, tmp_path):
        gts, dets = reference_detectors()["half_recall"]
        report = molrp(gts, dets, [1], tau=0.5)
        rows = threshold_rows(report.per_class.values(), {1: "obj"})
        assert list(rows[0]) == ["class_id", "class_name", "s_star", "olrp", "warning"]
        path = tmp_path / "thr.json"
        save_thresholds(rows, 0.5, path)
        loaded = load_thresholds(path, with_categories(1))
        assert loaded == {1: 0.80}

    def test_zero_detection_class_forced_to_zero_with_warning(self, tmp_path, capsys):
        gts = [GroundTruth(0, 1, BoundingBox(0, 0, 10, 10))]
        report = molrp(gts, [], [1], tau=0.5)
        assert report.per_class[1].s_star == 1.0  # largest-s tie break
        rows = threshold_rows(report.per_class.values(), {1: "obj"})
        assert rows[0]["s_star"] == 0.0
        assert rows[0]["olrp"] == 1.0
        assert "no detections" in rows[0]["warning"]
        assert "no detections" in capsys.readouterr().err

    def test_rejects_other_documents(self, tmp_path):
        path = write_json(tmp_path / "thr.json", {"schema": "other", "thresholds": []})
        with pytest.raises(SchemaError):
            load_thresholds(path, with_categories(1))


def trio_dataset():
    gts, dets = reference_detectors()["half_recall"]
    images = dict.fromkeys(sorted({g.image_id for g in gts}), (None, None))
    return report_inputs(images, {1: "obj"}, gts, dets)


class TestBuildAndExportReport:
    def test_perfect_fixture_summary(self):
        box = BoundingBox(0, 0, 10, 10)
        report = build_report(*report_inputs(
            {0: (None, None)}, {1: "obj"}, [GroundTruth(0, 1, box)], [Detection(0, 1, box, 0.9)]))
        assert report["summary"]["molrp"] == 0.0
        assert report["summary"]["mean_ap"] == 1.0
        assert report["classes"][0]["ap_continuous"] == 1.0
        assert report["classes"][0]["s_star"] == 0.90

    def test_empty_tau_list_rejected(self):
        # It once logged "no class has ground truth" and left mean AP unset.
        ds, dets = trio_dataset()
        with pytest.raises(ValueError, match="tau_list"):
            build_report(ds, dets, tau_list=())

    def test_unknown_ap_variant_rejected(self):
        ds, dets = trio_dataset()
        with pytest.raises(ValueError, match="unknown AP variant 'voc'"):
            build_report(ds, dets, ap_variant="voc")

    def test_unknown_format_rejected_before_writing(self, tmp_path):
        ds, dets = trio_dataset()
        path = tmp_path / "report.xml"
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            export_report(build_report(ds, dets), path, "xml")
        assert not path.exists()

    def test_json_export_round_trip(self, tmp_path):
        ds, dets = trio_dataset()
        report = build_report(ds, dets)
        path = tmp_path / "report.json"
        export_report(report, path, "json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == "lrp_report_v1"
        assert loaded["config"]["tau"] == 0.5
        row = loaded["classes"][0]
        assert row["olrp"] == round(report["classes"][0]["olrp"], 4)
        assert row["s_star"] == 0.8
        assert loaded["summary"]["molrp"] == round(report["summary"]["molrp"], 4)
        assert loaded["summary"]["mean_ap"] == round(report["summary"]["mean_ap"], 4)

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

    def test_csv_config_line_reads_back_exactly(self, tmp_path):
        # At 4 and 2 places these would read tau=0.1235, grid_step=0.0003
        # and tau_list=0.50,0.53,0.53; a number keeps that text only where
        # it parses back to the config's value.
        ds, dets = trio_dataset()
        report = build_report(ds, dets, tau=0.12345, tau_list=(0.5, 0.525, 0.53), grid_step=0.00025)
        path = tmp_path / "report.csv"
        export_report(report, path, "csv")
        first = path.read_text().splitlines()[0]
        assert first == (
            "# lrp_report_v1 tau=0.12345 grid_step=0.00025 ap_variant=coco101 "
            "tau_list=0.50,0.525,0.53"
        )
        fields = dict(pair.split("=") for pair in first.split(" ")[2:])
        config = report["config"]
        assert float(fields["tau"]) == config["tau"]
        assert float(fields["grid_step"]) == config["grid_step"]
        assert fields["ap_variant"] == config["ap_variant"]
        assert [float(t) for t in fields["tau_list"].split(",")] == config["tau_list"]

    def test_csv_reimport_matches_print_precision(self, tmp_path):
        ds, dets = trio_dataset()
        report = build_report(ds, dets)
        path = tmp_path / "report.csv"
        export_report(report, path, "csv")
        lines = path.read_text().splitlines()
        rows = list(csv.reader(lines[1:]))
        header = rows[0]
        for raw, expected in zip(rows[1:], report["classes"]):
            for field in ("olrp", "olrp_iou", "olrp_fp", "olrp_fn", "s_star"):
                text = raw[header.index(field)]
                value = expected[field]
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
        # At tau, one precision pass gives the three variants, and the row's
        # variant value also serves the tau-averaged mean.
        real_ap, calls = dataio.ap_variants, Counter()

        def counting_ap(labels, variants=AP_VARIANTS):
            for variant in variants:
                calls[(labels.tau, variant)] += 1
            calls[labels.tau, "passes"] += 1
            return real_ap(labels, variants)

        monkeypatch.setattr(dataio, "ap_variants", counting_ap)
        ds, dets = trio_dataset()
        report = build_report(ds, dets, tau=0.5, tau_list=(0.5, 0.6, 0.7), ap_variant="pascal11")
        assert calls == {
            (0.5, "continuous"): 1, (0.5, "pascal11"): 1, (0.5, "coco101"): 1,
            (0.6, "pascal11"): 1, (0.7, "pascal11"): 1,
            (0.5, "passes"): 1, (0.6, "passes"): 1, (0.7, "passes"): 1,
        }
        per_tau = label_classes(ds.gt_columns, dets, (1,), (0.5, 0.6, 0.7))
        expected = [ap(labels, "pascal11") for _, labels in per_tau]
        assert report["summary"]["mean_ap"] == sum(expected) / 3

    def test_every_class_has_s_star_column(self):
        gts = [GroundTruth(0, 1, BoundingBox(0, 0, 10, 10)), GroundTruth(0, 2, BoundingBox(20, 0, 30, 10))]
        report = build_report(*report_inputs(
            {0: (None, None)}, {1: "a", 2: "b"}, gts, [Detection(0, 1, BoundingBox(0, 0, 10, 10), 0.9)]))
        assert all("s_star" in row for row in report["classes"])
        assert len(report["classes"]) == 2

    def test_class_whose_detections_a_crowd_region_absorbs_is_not_evaluable(self):
        # Class 2's one ground truth is a crowd region, and it absorbs the
        # class's one detection: N_TP + N_FP + N_FN = 0 at every threshold,
        # though the class has a detection. Class 3 has nothing at all.
        box = BoundingBox(0, 0, 10, 10)
        gts = [GroundTruth(0, 1, box), GroundTruth(0, 2, box, ignore=True)]
        dets = [Detection(0, 1, box, 0.9), Detection(0, 2, box, 0.8)]
        report = build_report(*report_inputs(
            {0: (None, None)}, {1: "a", 2: "b", 3: "c"}, gts, dets), tau_list=(0.5,))
        unset = dict.fromkeys(("olrp", "olrp_iou", "olrp_fp", "olrp_fn", "s_star",
                               "ap_continuous", "ap_pascal11", "ap_coco101"))
        assert report["classes"][1:] == [
            {"class_id": 2, "class_name": "b", "n_gt": 0, "n_det": 1, "evaluable": False,
             **unset},
            {"class_id": 3, "class_name": "c", "n_gt": 0, "n_det": 0, "evaluable": False,
             **unset},
        ]
        assert report["classes"][0]["evaluable"] is True
        assert report["summary"]["not_evaluable"] == ["2", "3"]

    def test_export_writes_the_document_with_only_reals_rounded(self, tmp_path):
        # Key for key and in order; the config's reals are written as given.
        gts, dets = reference_detectors()["tradeoff"]
        ds, dets = report_inputs({0: (None, None)}, {1: "obj", 2: "none"}, gts, dets)
        report = build_report(ds, dets, tau=0.55555, tau_list=(0.5, 0.55555), grid_step=0.02)
        path = tmp_path / "report.json"
        export_report(report, path, "json")
        written = json.loads(path.read_text())
        assert written["config"] == {
            "tau": 0.55555, "grid_step": 0.02, "ap_variant": "coco101", "tau_list": [0.5, 0.55555],
        }
        expected = [report["summary"], *report["classes"]]
        assert [list(row) for row in [written["summary"], *written["classes"]]] == [
            list(row) for row in expected
        ]
        assert [written["summary"], *written["classes"]] == [round_row(row) for row in expected]
        assert list(written) == list(report) == ["schema", "config", "classes", "summary"]
        # Rounding changed something, so the rule above is not vacuous.
        assert any(round_row(row) != row for row in expected)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_export_refuses_a_non_finite_real(self, tmp_path, value):
        # Python's json would write NaN or Infinity, which no JSON reader accepts.
        gts, dets = reference_detectors()["tradeoff"]
        report = build_report(*report_inputs({0: (None, None)}, {1: "obj"}, gts, dets))
        report["summary"]["molrp"] = value
        with pytest.raises(ValueError, match="not JSON compliant"):
            export_report(report, tmp_path / "report.json", "json")


class TestExportCurves:
    def test_record_count_matches_defined_samples(self, tmp_path):
        gts, dets = reference_detectors()["tradeoff"]
        sweep = sweep_class(gts, dets, 1, tau=0.5)
        defined = sum(1 for _, bd in grid_breakdowns(sweep) if bd is not None)
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
_IDS = st.sampled_from([0, 1, 2, 3, 999, 1.0, "a", "b", "zzz", "1", True, False, None, [0],
                        _NAN, _INF, -_INF])
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
    "width": st.sampled_from([100, 100.0, 5.0, None, "100", True, _NAN, _INF, 0, -0.0, -5,
                              10 ** 400, 5e-324]),
    "height": st.sampled_from([100, 100.0, 5.0, None, "100", True, _NAN, -_INF, 0.0, -5.0,
                               -10 ** 400, 1e308]),
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
def loader_documents(draw, target, min_mutations=1):
    """A valid GT document, detection array and stream whose frames are
    some of the images, maybe with one category id renamed in all three,
    then min_mutations to three mutations of the target document: a field
    set to an odd value, a field deleted, or a record replaced by a
    non-object. Frame indices stay increasing; tests/test_cli.py covers
    their order."""
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
    if draw(st.booleans()):
        # One category id renamed wherever it appears: an odd id that every
        # record agrees on.
        old, new = draw(st.sampled_from(cat_ids)), draw(_IDS)
        stream_dets = [rec for frame in stream["frames"] for rec in frame["detections"]]
        for records, key in ((gt["categories"], "id"), (gt["annotations"], "category_id"),
                             (det, "category_id"), (stream_dets, "class_id")):
            for rec in records:
                if rec[key] == old:
                    rec[key] = new
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
    for _ in range(draw(st.integers(min_mutations, 3))):
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


# The oracle loaders, their records seen as the columns that `dataio`'s
# loaders fill, through the API edge conversion.
_ORACLE_COLUMNS = SimpleNamespace(
    load_ground_truth=lambda path: report_inputs(*oracles.load_ground_truth(path))[0],
    load_detections=lambda path, ds: report_inputs(
        ds.images, ds.names, (), oracles.load_detections(path, ds))[1],
    load_stream=oracles.load_stream,
)


def _load_all(loaders, paths):
    """What each loader of a module makes of the files: ("ok", repr of the
    result) or ("error", SchemaError message), and all they printed to the
    standard error. Any other exception escapes."""
    with redirect_stderr(io.StringIO()) as err:
        try:
            dataset = loaders.load_ground_truth(paths["gt"])
        except SchemaError as exc:
            return [("error", str(exc))], err.getvalue()
        # Dict equality ignores order, so the id maps are compared as item
        # lists, in the order of the file.
        outcomes = [("ok", repr(dataset), repr(list(dataset.images.items())),
                     repr(list(dataset.names.items())))]
        for load, name in ((loaders.load_detections, "det"), (loaders.load_stream, "stream")):
            try:
                outcomes.append(("ok", repr(load(paths[name], dataset))))
            except SchemaError as exc:
                outcomes.append(("error", str(exc)))
    return outcomes, err.getvalue()


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
            assert _load_all(dataio, paths) == _load_all(_ORACLE_COLUMNS, paths)


_NUMBER_OR_STRING_ID = st.one_of(st.integers(-3, 10 ** 20), st.floats(-1e6, 1e6),
                                 st.text(alphabet="abé", max_size=3))
_BOX_VALUE = st.one_of(st.integers(-50, 200), st.floats(-50.0, 200.0))
_BOX_SIDE = st.one_of(st.integers(1, 200), st.floats(0.5, 200.0))


@st.composite
def evaluation_documents(draw):
    """A valid annotation document and results array: number or string
    image ids, category ids all numbers or all strings, integer and float
    box values, crowd regions, and scores 0, 1 or a float."""
    image_ids = draw(st.lists(_NUMBER_OR_STRING_ID, min_size=1, max_size=3, unique=True))
    cat_id = st.integers(-3, 10 ** 20) if draw(st.booleans()) else st.text("xyz", max_size=2)
    cat_ids = draw(st.lists(cat_id, min_size=1, max_size=3, unique=True))
    bbox = st.lists(_BOX_VALUE, min_size=2, max_size=2).flatmap(
        lambda xy: st.lists(_BOX_SIDE, min_size=2, max_size=2).map(lambda wh: xy + wh))
    image, category = st.sampled_from(image_ids), st.sampled_from(cat_ids)
    annotations = [
        {"id": k, "image_id": draw(image), "category_id": draw(category), "bbox": draw(bbox),
         "iscrowd": draw(st.sampled_from([0, 0, 1, False, True]))}
        for k in range(draw(st.integers(0, 8)))
    ]
    results = [
        {"image_id": draw(image), "category_id": draw(category), "bbox": draw(bbox),
         "score": draw(st.one_of(st.sampled_from([0, 1]), st.floats(0.0, 1.0)))}
        for _ in range(draw(st.integers(0, 10)))
    ]
    gt = {"images": [{"id": i} for i in image_ids], "annotations": annotations,
          "categories": [{"id": c} for c in cat_ids]}
    return gt, results


class TestColumnsProperty:
    """The loaders fill per-class columns without building records; they
    must equal the edge conversion of the field-by-field reference's
    records, and so must the IoU tables built from them."""

    @settings(max_examples=200, deadline=None)
    @given(evaluation_documents())
    def test_loader_columns_equal_converted_records(self, docs):
        gt_doc, det_doc = docs
        with tempfile.TemporaryDirectory() as tmp:
            gt_path, det_path = Path(tmp) / "gt.json", Path(tmp) / "det.json"
            gt_path.write_text(json.dumps(gt_doc))
            det_path.write_text(json.dumps(det_doc))
            dataset = load_ground_truth(gt_path)
            dets = load_detections(det_path, dataset)
            reference = oracles.load_ground_truth(gt_path)
            ref_dets = oracles.load_detections(det_path, reference)
        expected_dataset, expected_dets = report_inputs(*reference, ref_dets)
        assert oracles.same_bits(dataset, expected_dataset)
        assert oracles.same_bits(dets, expected_dets)
        for cid in dataset.names:
            assert oracles.same_bits(
                iou_table(dataset.gt_columns[cid], dets[cid]),
                iou_table(expected_dataset.gt_columns[cid], expected_dets[cid]),
            )
