import csv
import json
import sys
from collections import Counter

import pytest

from lrpeval import BoundingBox, Detection, GroundTruth, sweep_class
from lrpeval.cli import DEFAULT_TAU_RANGE, main, parse_tau_list
from lrpeval.dataio import Category, Dataset, ImageInfo, save_ground_truth, save_stream
from lrpeval.synth import StreamClassSpec, generate_stream, reference_detectors


def write_fixture(tmp_path, name, gts, dets, categories=None):
    """Write (gts, dets) as a COCO annotation file + results file pair."""
    if categories is None:
        categories = sorted({g.class_id for g in gts} | {d.class_id for d in dets}, key=str)
    image_ids = sorted({g.image_id for g in gts} | {d.image_id for d in dets}, key=str)
    ds = Dataset(
        tuple(ImageInfo(i) for i in image_ids),
        tuple(Category(c, f"class-{c}") for c in categories),
        tuple(gts),
    )
    gt_path = tmp_path / f"{name}_gt.json"
    det_path = tmp_path / f"{name}_det.json"
    save_ground_truth(ds, gt_path)
    records = [
        {
            "image_id": d.image_id,
            "category_id": d.class_id,
            "bbox": list(d.box.as_xywh()),
            "score": d.score,
        }
        for d in dets
    ]
    det_path.write_text(json.dumps(records))
    return str(gt_path), str(det_path)


def box_at(i: int, side: float = 10.0) -> BoundingBox:
    return BoundingBox(i * 100.0, 0.0, i * 100.0 + side, side)


def shrunk(box: BoundingBox, overlap: float) -> BoundingBox:
    return BoundingBox(box.x_min, box.y_min, box.x_min + overlap * (box.x_max - box.x_min), box.y_max)


class TestParseTauList:
    def test_range(self):
        taus = parse_tau_list("0.5:0.05:0.95")
        assert len(taus) == 10
        assert taus[0] == 0.5 and taus[-1] == 0.95

    def test_comma_list(self):
        assert parse_tau_list("0.5,0.75") == (0.5, 0.75)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_tau_list("0.5:0.05")
        with pytest.raises(ValueError):
            parse_tau_list("0.9:0.05:0.5")


class TestEval:
    def test_perfect_fixture(self, tmp_path, capsys):
        box = box_at(0)
        gt_path, det_path = write_fixture(
            tmp_path, "perfect", [GroundTruth(0, 1, box)], [Detection(0, 1, box, 0.9)]
        )
        out = tmp_path / "report.json"
        code = main(["eval", "--gt", gt_path, "--det", det_path, "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["summary"]["molrp"] == 0.0
        assert report["summary"]["mean_ap"] == 1.0

    def test_reference_trio(self, tmp_path):
        expected = {"half_recall": 0.5, "duplicate_heavy": 0.5, "tradeoff": 0.93}
        for name, (gts, dets) in reference_detectors().items():
            gt_path, det_path = write_fixture(tmp_path, name, gts, dets)
            out = tmp_path / f"{name}.json"
            code = main(["eval", "--gt", gt_path, "--det", det_path, "--output", str(out)])
            assert code == 0
            report = json.loads(out.read_text())
            row = report["classes"][0]
            assert row["ap_continuous"] == pytest.approx(0.5, abs=1e-3), name
            assert row["olrp"] == pytest.approx(expected[name], abs=0.01), name

    def test_stdout_default(self, tmp_path, capsys):
        box = box_at(0)
        gt_path, det_path = write_fixture(
            tmp_path, "p", [GroundTruth(0, 1, box)], [Detection(0, 1, box, 0.9)]
        )
        code = main(["eval", "--gt", gt_path, "--det", det_path])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "lrp_report_v1"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"images": [}')
        code = main(["eval", "--gt", str(bad), "--det", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed JSON" in err
        assert "column" in err or "char" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["eval", "--gt", str(tmp_path / "none.json"), "--det", str(tmp_path / "none.json")])
        assert code == 2

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        gt_path, _ = write_fixture(tmp_path, "p", [GroundTruth(0, 1, box_at(0))], [])
        det = tmp_path / "det.json"
        det.write_text(json.dumps([{"image_id": 0, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 2.0}]))
        code = main(["eval", "--gt", gt_path, "--det", str(det)])
        assert code == 2
        assert "detections[0].score" in capsys.readouterr().err

    def test_non_object_detection_exits_2(self, tmp_path, capsys):
        gt_path, _ = write_fixture(tmp_path, "p", [GroundTruth(0, 1, box_at(0))], [])
        det = tmp_path / "det.json"
        det.write_text("[1, 2]")
        code = main(["eval", "--gt", gt_path, "--det", str(det)])
        assert code == 2
        assert "detections[0]: must be a JSON object" in capsys.readouterr().err

    def test_nothing_evaluable_exits_3(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({"images": [], "annotations": [], "categories": [{"id": 1, "name": "x"}]}))
        det = tmp_path / "det.json"
        det.write_text("[]")
        code = main(["eval", "--gt", str(gt), "--det", str(det)])
        assert code == 3

    def test_byte_identical_reruns(self, tmp_path):
        gts, dets = reference_detectors()["tradeoff"]
        gt_path, det_path = write_fixture(tmp_path, "t", gts, dets)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["eval", "--gt", gt_path, "--det", det_path, "--output", str(a)]) == 0
        assert main(["eval", "--gt", gt_path, "--det", det_path, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, tmp_path):
        gts, dets = reference_detectors()["half_recall"]
        gt_path, det_path = write_fixture(tmp_path, "h", gts, dets)
        out = tmp_path / "report.csv"
        code = main(["eval", "--gt", gt_path, "--det", det_path, "--format", "csv", "--output", str(out)])
        assert code == 0
        assert out.read_text().startswith("# lrp_report_v1")

    def test_help_documents_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "default: 0.5" in text
        assert "default: 0.01" in text
        assert "default: coco101" in text
        assert "0.5:0.05:0.95" in text


class TestSweepAndCurves:
    def test_sweep_csv(self, tmp_path):
        gts, dets = reference_detectors()["tradeoff"]
        gt_path, det_path = write_fixture(tmp_path, "t", gts, dets)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--gt", gt_path, "--det", det_path, "--taus", "0.5,0.75", "--output", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2  # one class at two taus
        assert {r["tau"] for r in rows} == {"0.5000", "0.7500"}

    def test_curves_blocks_per_tau(self, tmp_path):
        gts, dets = reference_detectors()["half_recall"]
        gt_path, det_path = write_fixture(tmp_path, "h", gts, dets)
        out = tmp_path / "curves.csv"
        code = main([
            "curves", "--gt", gt_path, "--det", det_path,
            "--taus", "0.5,0.75", "--output", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        taus = {r["tau"] for r in rows}
        assert taus == {"0.5000", "0.7500"}
        sweep_rows = [r for r in rows if r["source"] == "sweep"]
        rp_rows = [r for r in rows if r["source"] == "rp"]
        assert sweep_rows and rp_rows
        flagged = [r for r in sweep_rows if r["is_optimal"] == "true"]
        assert len(flagged) == 2  # one optimum per (class, tau)

    def test_curve_record_count_matches_sweeps(self, tmp_path):
        gts, dets = reference_detectors()["tradeoff"]
        gt_path, det_path = write_fixture(tmp_path, "t", gts, dets)
        out = tmp_path / "curves.csv"
        code = main(["curves", "--gt", gt_path, "--det", det_path, "--no-rp", "--output", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        sweep = sweep_class(gts, dets, 1, 0.5)
        defined = sum(1 for s in sweep.samples if s.breakdown is not None)
        assert len(rows) == defined


class TestThresholdsCommand:
    def test_perfect_fixture_threshold_sits_under_scores(self, tmp_path):
        box = box_at(0)
        gt_path, det_path = write_fixture(
            tmp_path, "p", [GroundTruth(0, 1, box)], [Detection(0, 1, box, 0.73)]
        )
        out = tmp_path / "thr.json"
        code = main(["thresholds", "--gt", gt_path, "--det", det_path, "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "lrp_thresholds_v1"
        assert doc["thresholds"][0]["s_star"] == 0.73

    def test_two_class_designed_optima(self, tmp_path):
        gts, dets = [], []
        # class 1 optimum at 0.30, class 2 at 0.80
        for i, (score, is_tp) in enumerate([(0.35, True), (0.30, True), (0.20, False), (0.10, False)]):
            gts.append(GroundTruth(0, 1, box_at(i))) if is_tp else None
            dets.append(Detection(0, 1, box_at(i) if is_tp else box_at(i + 20), score))
        for i, (score, is_tp) in enumerate([(0.85, True), (0.80, True), (0.60, False), (0.50, False)]):
            gts.append(GroundTruth(1, 2, box_at(i + 40))) if is_tp else None
            dets.append(Detection(1, 2, box_at(i + 40) if is_tp else box_at(i + 60), score))
        gt_path, det_path = write_fixture(tmp_path, "two", gts, dets)
        out = tmp_path / "thr.json"
        assert main(["thresholds", "--gt", gt_path, "--det", det_path, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        emitted = {row["class_id"]: row["s_star"] for row in doc["thresholds"]}
        oracle = {cid: sweep_class(gts, dets, cid, 0.5).s_star for cid in (1, 2)}
        assert emitted == oracle == {1: 0.30, 2: 0.80}

    def test_rows_follow_class_id_order(self, tmp_path):
        gts = [GroundTruth(0, c, box_at(c)) for c in range(1, 13)]
        dets = [Detection(0, c, box_at(c), 0.5) for c in range(1, 13)]
        gt_path, det_path = write_fixture(tmp_path, "twelve", gts, dets)
        thr, report = tmp_path / "thr.json", tmp_path / "report.json"
        assert main(["thresholds", "--gt", gt_path, "--det", det_path, "--output", str(thr)]) == 0
        assert main(["eval", "--gt", gt_path, "--det", det_path, "--output", str(report)]) == 0
        rows = [row["class_id"] for row in json.loads(thr.read_text())["thresholds"]]
        assert rows == list(range(1, 13))
        assert rows == [row["class_id"] for row in json.loads(report.read_text())["classes"]]

    def test_empty_detections_warn_and_zero(self, tmp_path, capsys):
        gt_path, det_path = write_fixture(tmp_path, "e", [GroundTruth(0, 1, box_at(0))], [])
        out = tmp_path / "thr.json"
        code = main(["thresholds", "--gt", gt_path, "--det", det_path, "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["thresholds"][0]["s_star"] == 0.0
        assert doc["thresholds"][0]["olrp"] == 1.0
        assert "no detections" in doc["thresholds"][0]["warning"]
        assert "no detections" in capsys.readouterr().err


class TestLabelOnce:
    """Every command labels each (class, tau) it reports exactly once."""

    CLASSES = (1, 2, 3)

    @pytest.mark.parametrize("argv, taus", [
        (["eval"], (0.5, *parse_tau_list(DEFAULT_TAU_RANGE))),
        (["eval", "--tau", "0.7", "--tau-list", "0.5,0.6"], (0.7, 0.5, 0.6)),
        (["curves", "--taus", "0.5,0.75"], (0.5, 0.75)),
        (["sweep", "--taus", "0.5,0.75"], (0.5, 0.75)),
        (["thresholds"], (0.5,)),
    ], ids=["eval", "eval-tau-outside-list", "curves", "sweep", "thresholds"])
    def test_each_class_and_tau_labeled_once(self, tmp_path, monkeypatch, argv, taus):
        gts, dets = [], []
        for c in self.CLASSES:
            for i in range(3):
                gts.append(GroundTruth(i, c, box_at(c)))
                dets.append(Detection(i, c, shrunk(box_at(c), 0.6 + i / 10), 0.3 + i / 10))
                dets.append(Detection(i, c, box_at(c + 10), 0.5))
        gt_path, det_path = write_fixture(tmp_path, "three", gts, dets)
        # lrpeval.ap is shadowed by the function ap, so reach modules via sys.modules
        matching = sys.modules["lrpeval.matching"]
        real, calls = matching.label_detections, Counter()

        def counting(gts, dets, tau):
            calls[((gts or dets)[0].class_id, tau)] += 1
            return real(gts, dets, tau)

        monkeypatch.setattr(matching, "label_detections", counting)
        out = str(tmp_path / "out")
        assert main([*argv, "--gt", gt_path, "--det", det_path, "--output", out]) == 0
        assert calls == {(c, t): 1 for c in self.CLASSES for t in taus}


class TestCompare:
    def test_side_by_side(self, tmp_path):
        gts, dets_a = reference_detectors()["half_recall"]
        _, dets_b = reference_detectors()["tradeoff"]
        gt_path, det_a = write_fixture(tmp_path, "a", gts, dets_a)
        _, det_b = write_fixture(tmp_path, "b", gts, dets_b)
        out = tmp_path / "cmp.json"
        code = main([
            "compare", "--gt", gt_path, "--det-a", det_a, "--det-b", det_b,
            "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        row = doc["classes"][0]
        assert row["olrp_a"] == 0.5
        assert row["olrp_b"] == 0.93
        assert row["olrp_delta"] == pytest.approx(0.43)
        assert doc["summary"]["molrp_a"] == 0.5


def stream_fixture(tmp_path):
    specs = [
        StreamClassSpec("low", n_objects=2, tp_score=0.42),
        StreamClassSpec("high", n_objects=2, tp_score=0.92, fp_score=0.6, fp_per_frame=2),
    ]
    frames, gts = generate_stream(specs, n_frames=6, seed=3, score_noise=0.01)
    stream_path = tmp_path / "stream.json"
    save_stream(frames, stream_path)
    image_ids = sorted({g.image_id for g in gts})
    ds = Dataset(
        tuple(ImageInfo(i) for i in image_ids),
        (Category("high", "high"), Category("low", "low")),
        tuple(gts),
    )
    gt_path = tmp_path / "stream_gt.json"
    save_ground_truth(ds, gt_path)
    thr_path = tmp_path / "thr.json"
    thr_path.write_text(json.dumps({
        "schema": "lrp_thresholds_v1",
        "tau": 0.5,
        "thresholds": [
            {"class_id": "low", "s_star": 0.3},
            {"class_id": "high", "s_star": 0.8},
        ],
    }))
    return str(stream_path), str(gt_path), str(thr_path)


class TestStreamCommand:
    def test_single_frame_general_threshold_is_pure_filtering(self, tmp_path):
        frames = [
            __import__("lrpeval").FrameDetections(
                0,
                (
                    __import__("lrpeval").StreamDetection("a", box_at(0), (0.8, 0.1, 0.1)),
                    __import__("lrpeval").StreamDetection("a", box_at(1), (0.4, 0.3, 0.3)),
                ),
            )
        ]
        stream_path = tmp_path / "s.json"
        save_stream(frames, stream_path)
        ds = Dataset(
            (ImageInfo(0),), (Category("a", "a"),),
            (GroundTruth(0, "a", box_at(0)), GroundTruth(0, "a", box_at(1))),
        )
        gt_path = tmp_path / "g.json"
        save_ground_truth(ds, gt_path)
        filtered = tmp_path / "filtered.json"
        out = tmp_path / "out.json"
        code = main([
            "stream", "--stream", str(stream_path), "--gt", str(gt_path),
            "--filtered-output", str(filtered), "--output", str(out),
        ])
        assert code == 0
        kept = json.loads(filtered.read_text())["frames"][0]["detections"]
        assert len(kept) == 1
        assert kept[0]["class_scores"][0] == 0.8  # untouched score

    def test_class_specific_beats_general(self, tmp_path):
        stream_path, gt_path, thr_path = stream_fixture(tmp_path)
        out = tmp_path / "out.json"
        code = main([
            "stream", "--stream", stream_path, "--gt", gt_path,
            "--thresholds-file", thr_path, "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        for row in doc["classes"]:
            assert row["olrp_class_specific"] <= row["olrp_general"], row["class_id"]
        low = next(r for r in doc["classes"] if r["class_id"] == "low")
        assert low["olrp_class_specific"] < low["olrp_general"]
        assert doc["summary"]["molrp_class_specific"] < doc["summary"]["molrp_general"]

    def test_alpha_one_ignores_distributions(self, tmp_path):
        # orthogonal class vectors at the same spot: pure-overlap cost
        # (alpha=1) links them, pure-distribution cost (alpha=0) severs
        frames = [
            __import__("lrpeval").FrameDetections(0, (
                __import__("lrpeval").StreamDetection("a", box_at(0), (1.0, 0.0)),
            )),
            __import__("lrpeval").FrameDetections(1, (
                __import__("lrpeval").StreamDetection("b", box_at(0), (0.0, 1.0)),
            )),
        ]
        stream_path = tmp_path / "s.json"
        save_stream(frames, stream_path)
        ds = Dataset(
            (ImageInfo(0), ImageInfo(1)),
            (Category("a", "a"), Category("b", "b")),
            (GroundTruth(0, "a", box_at(0)), GroundTruth(1, "b", box_at(0))),
        )
        gt_path = tmp_path / "g.json"
        save_ground_truth(ds, gt_path)
        linked, severed = tmp_path / "linked.json", tmp_path / "severed.json"
        assert main([
            "stream", "--stream", str(stream_path), "--gt", str(gt_path),
            "--threshold", "0.0", "--alpha", "1.0",
            "--filtered-output", str(linked), "--output", "-",
        ]) == 0
        assert main([
            "stream", "--stream", str(stream_path), "--gt", str(gt_path),
            "--threshold", "0.0", "--alpha", "0.0",
            "--filtered-output", str(severed), "--output", "-",
        ]) == 0
        linked_doc = json.loads(linked.read_text())
        severed_doc = json.loads(severed.read_text())
        # with alpha=1 the frames link, so the second frame is rescored
        linked_score = max(linked_doc["frames"][1]["detections"][0]["class_scores"])
        severed_score = max(severed_doc["frames"][1]["detections"][0]["class_scores"])
        assert severed_score == 1.0
        assert linked_score != severed_score
