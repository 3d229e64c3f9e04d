import csv
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import lrpeval
from lrpeval import BoundingBox, Detection, GroundTruth, cli, sweep_class
from lrpeval.cli import DEFAULT_TAU_RANGE, main, parse_tau_list
from lrpeval.dataio import Category, Dataset, ImageInfo, save_ground_truth, save_stream
from synth import StreamClassSpec, generate_stream, reference_detectors


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

    def test_range_ends_at_or_before_stop(self):
        # A step that does not divide the range stops short of stop ...
        assert parse_tau_list("0.5:0.2:0.85") == (0.5, 0.7)
        assert parse_tau_list("0.5:0.3:0.95") == (0.5, 0.8)
        # ... and float error in (stop - start) / step does not drop stop.
        assert parse_tau_list("0.1:0.1:0.3") == (0.1, 0.2, 0.3)
        assert parse_tau_list("0.5:0.05:0.95") == (
            0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
        # Start and stop round alike, so the range is never empty.
        assert parse_tau_list("0.12345678916:0.1:0.12345678916") == (0.1234567892,)

    def test_comma_list(self):
        assert parse_tau_list("0.5,0.75") == (0.5, 0.75)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_tau_list("0.5:0.05")
        with pytest.raises(ValueError):
            parse_tau_list("0.9:0.05:0.5")
        with pytest.raises(ValueError, match="bad tau range"):
            parse_tau_list("0.5:inf:0.9")


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

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_exits_2(self, tmp_path, capsys):
        gt_path, det_path = write_fixture(
            tmp_path, "p", [GroundTruth(0, 1, box_at(0))], [Detection(0, 1, box_at(0), 0.9)]
        )
        code = main(["eval", "--gt", gt_path, "--det", det_path, "--output", "/dev/full"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: [Errno 28]")

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
    """Every command labels each (class, tau) it reports exactly once and
    builds each class's IoU table exactly once."""

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
        build, label = matching.iou_table, matching.label_at_tau
        table_class, tables, calls = {}, Counter(), Counter()

        def counting_table(gts, dets):
            table = build(gts, dets)
            table_class[id(table)] = (gts or dets)[0].class_id
            tables[table_class[id(table)]] += 1
            return table

        def counting_label(table, tau):
            calls[(table_class[id(table)], tau)] += 1
            return label(table, tau)

        monkeypatch.setattr(matching, "iou_table", counting_table)
        monkeypatch.setattr(matching, "label_at_tau", counting_label)
        out = str(tmp_path / "out")
        assert main([*argv, "--gt", gt_path, "--det", det_path, "--output", out]) == 0
        assert calls == {(c, t): 1 for c in self.CLASSES for t in taus}
        assert tables == {c: 1 for c in self.CLASSES}


class TestColumnarLabels:
    def test_eval_builds_no_detection_label(self, tmp_path, monkeypatch):
        # Evaluation reads the TauLabels columns; DetectionLabel objects
        # are built only by the per-object API (label_detections).
        gts = [GroundTruth(i, c, box_at(c)) for c in (1, 2) for i in range(3)]
        dets = [Detection(i, c, shrunk(box_at(c), 0.6 + i / 10), 0.3 + i / 10)
                for c in (1, 2) for i in range(3)]
        dets.append(Detection(0, 1, box_at(9), 0.5))
        gt_path, det_path = write_fixture(tmp_path, "small", gts, dets)
        matching = sys.modules["lrpeval.matching"]
        built = []

        class CountingLabel(matching.DetectionLabel):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(matching, "DetectionLabel", CountingLabel)
        out = str(tmp_path / "out.json")
        assert main(["eval", "--gt", gt_path, "--det", det_path, "--output", out]) == 0
        assert built == []
        # The counter sees the objects the per-object API builds.
        labels = matching.label_detections(gts[:1], dets[:1], 0.5)
        assert len(built) == 1 and isinstance(labels[0], CountingLabel)


class TestOneBreakdownPerClass:
    def test_eval_builds_one_breakdown_per_evaluable_class(self, tmp_path, monkeypatch):
        # The sweep keeps counts and totals per grid point and builds an
        # LrpBreakdown for the optimum only; samples are built on demand.
        gts = [GroundTruth(i, c, box_at(c)) for c in (1, 2) for i in range(3)]
        dets = [Detection(i, c, shrunk(box_at(c), 0.6 + i / 10), 0.3 + i / 10)
                for c in (1, 2) for i in range(3)]
        dets.append(Detection(0, 3, box_at(9), 0.5))  # a class with detections only
        gt_path, det_path = write_fixture(tmp_path, "small", gts, dets, categories=[1, 2, 3, 4])
        lrp = sys.modules["lrpeval.lrp"]
        built = []

        class CountingBreakdown(lrp.LrpBreakdown):
            def __init__(self, *args, **kwargs):
                built.append(kwargs or args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(lrp, "LrpBreakdown", CountingBreakdown)
        out = tmp_path / "out.json"
        assert main(["eval", "--gt", gt_path, "--det", det_path, "--output", str(out)]) == 0
        evaluable = [row for row in json.loads(out.read_text())["classes"] if row["evaluable"]]
        assert len(evaluable) == 3
        assert len(built) == len(evaluable)
        # Reading the samples builds them, through the same constructor.
        sweep = sweep_class(gts, dets, 1, tau=0.5)
        before = len(built)
        defined = [s for s in sweep.samples if s.breakdown is not None]
        assert len(built) == before + len(defined)
        assert sweep.samples is sweep.samples


class TestImportCost:
    @classmethod
    def heavy_modules_loaded(cls, argv):
        """Which of NumPy and SciPy a fresh interpreter has loaded after
        running the command."""
        return cls.heavy_modules_after(f"from lrpeval.cli import main\nassert main({argv!r}) == 0\n")

    @staticmethod
    def heavy_modules_after(code):
        """Which of NumPy and SciPy a fresh interpreter has loaded after
        running code."""
        script = f"import sys\n{code}print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
        src = str(Path(lrpeval.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True)
        assert run.returncode == 0, run.stderr
        return run.stdout.strip()

    @pytest.mark.parametrize("command", ["eval", "sweep", "curves", "thresholds", "compare"])
    def test_eval_loads_neither_numpy_nor_scipy(self, tmp_path, command):
        gts, dets = reference_detectors()["half_recall"]
        gt_path, det_path = write_fixture(tmp_path, "small", gts, dets)
        det_args = (["--det-a", det_path, "--det-b", det_path] if command == "compare"
                    else ["--det", det_path])
        argv = [command, "--gt", gt_path, *det_args, "--output", str(tmp_path / "out")]
        assert self.heavy_modules_loaded(argv) == "[]"

    def test_set_distance_loads_neither_numpy_nor_scipy(self):
        code = (
            "from lrpeval import BoundingBox, DasaParams, dasa, lrp_components, match_optimal\n"
            "xs = [BoundingBox(0, 0, 10, 10), BoundingBox(20, 0, 30, 10)]\n"
            "ys = [BoundingBox(1, 0, 11, 10), BoundingBox(50, 0, 60, 10), BoundingBox(0, 1, 9, 9)]\n"
            "assert 0.0 < dasa(xs, ys, DasaParams()) < 1.0\n"
            "assert lrp_components(match_optimal(ys, xs, 0.5), 0.5).n_tp == 1\n"
        )
        assert self.heavy_modules_after(code) == "[]"

    def test_stream_never_loads_scipy(self, tmp_path):
        stream_path, gt_path, thr_path = stream_fixture(tmp_path)
        argv = ["stream", "--stream", stream_path, "--gt", gt_path, "--thresholds-file", thr_path,
                "--filtered-output", str(tmp_path / "filtered.json"),
                "--output", str(tmp_path / "out.json")]
        assert self.heavy_modules_loaded(argv) == "['numpy']"


class TestCollectorState:
    """`main` runs a command with the cyclic collector off and leaves it as
    it found it, since callers may run `main` inside a longer process."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_main_restores_collector_state(self, tmp_path, capsys, monkeypatch, enabled):
        box = box_at(0)
        gt_path, det_path = write_fixture(
            tmp_path, "p", [GroundTruth(0, 1, box)], [Detection(0, 1, box, 0.9)]
        )
        during = []
        load = cli.load_ground_truth
        monkeypatch.setattr(
            cli, "load_ground_truth", lambda path: during.append(gc.isenabled()) or load(path)
        )
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            out = str(tmp_path / "r.json")
            assert main(["eval", "--gt", gt_path, "--det", det_path, "--output", out]) == 0
            assert gc.isenabled() is enabled
            missing = str(tmp_path / "missing.json")
            assert main(["eval", "--gt", missing, "--det", det_path, "--output", out]) == 2
            assert gc.isenabled() is enabled
            with pytest.raises(SystemExit):
                main(["eval", "--no-such-flag"])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert during == [False, False]


class TestExports:
    def test_every_public_name_resolves(self):
        assert [name for name in lrpeval.__all__ if not hasattr(lrpeval, name)] == []
        namespace = {}
        exec("from lrpeval import *", namespace)
        assert set(lrpeval.__all__) <= set(namespace)


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



def _set(path, value):
    """A mutation that sets doc[path[0]][path[1]]... to value."""
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


# Boxes whose area underflows to 0.0, overflows to infinity, or is finite
# but overflows when added to another box's area in a union.
_TINY_BOX = [0, 0, 1e-200, 1e-200]
_HUGE_BOX = [-1e308, -1e308, 1.7e308, 1.7e308]
_LARGE_BOX = [0, 0, 1e154, 1e154]


class TestMalformedInputs:
    """Malformed inputs exit 2 with the offending field path, never with
    a traceback and never by being silently accepted."""

    def base_docs(self):
        return {
            "gt": {
                "images": [{"id": 0, "width": 100, "height": 100},
                           {"id": 1, "width": 100, "height": 100}],
                "annotations": [{"id": 1, "image_id": 0, "category_id": "a",
                                 "bbox": [0, 0, 10, 10], "iscrowd": 0}],
                "categories": [{"id": "a", "name": "a"}],
            },
            "det": [{"image_id": 0, "category_id": "a", "bbox": [0, 0, 10, 10], "score": 0.9}],
            "stream": {"frames": [{"frame_index": 0, "detections": [
                {"class_id": "a", "bbox": [0, 0, 10, 10], "class_scores": [0.9, 0.1]},
            ]}]},
            "thr": {"schema": "lrp_thresholds_v1", "tau": 0.5,
                    "thresholds": [{"class_id": "a", "s_star": 0.5}]},
        }

    @pytest.mark.parametrize("command, doc, mutate, field", [
        ("eval", "gt", _set(["images", 0, "id"], [1]), "images[0].id"),
        ("eval", "gt", _set(["images", 0, "width"], "100"), "images[0].width"),
        ("eval", "gt", _set(["images", 0, "height"], "100"), "images[0].height"),
        ("eval", "det", _set([0, "image_id"], [0]), "detections[0].image_id"),
        ("eval", "gt", _set(["annotations"], {}), "annotations"),
        ("stream", "stream", _set(["frames"], 5), "frames"),
        ("stream", "stream", _set(["frames", 0, "detections"], 5), "frames[0].detections"),
        ("stream", "stream", _set(["frames", 0, "frame_index"], 1.7), "frames[0].frame_index"),
        ("stream", "stream", _set(["frames", 0, "frame_index"], True), "frames[0].frame_index"),
        ("stream", "stream", _set(["frames", 0, "frame_index"], "3"), "frames[0].frame_index"),
        ("stream", "stream", _set(["frames", 0, "detections", 0, "class_scores"], [True, False]),
         "frames[0].detections[0].class_scores[0]"),
        ("stream", "stream", _set(["frames", 0, "detections", 0, "class_id"], ["a"]),
         "frames[0].detections[0].class_id"),
        ("stream", "thr", _set(["thresholds", 0, "s_star"], "abc"), "thresholds[0].s_star"),
        ("stream", "thr", _set(["thresholds", 0, "s_star"], True), "thresholds[0].s_star"),
        ("stream", "thr", _set(["thresholds", 0, "s_star"], 1.5), "thresholds[0].s_star"),
        ("stream", "thr", _set(["thresholds"], 5), "thresholds"),
        ("eval", "gt", _set(["annotations", 0, "iscrowd"], "0"), "annotations[0].iscrowd"),
        ("eval", "gt", _set(["categories", 0, "name"], ["x"]), "categories[0].name"),
        ("stream", "stream", lambda doc: doc["frames"].append({"frame_index": 1, "detections": [
            {"class_id": "a", "bbox": [0, 0, 10, 10], "class_scores": [0.5, 0.3, 0.2]},
        ]}), "frames[1].detections[0].class_scores"),
        ("eval", "gt", _set(["images", 0, "id"], True), "images[0].id"),
        ("eval", "gt", _set(["images", 0, "id"], None), "images[0].id"),
        ("eval", "gt", _set(["annotations", 0, "image_id"], False), "annotations[0].image_id"),
        ("eval", "det", _set([0, "image_id"], False), "detections[0].image_id"),
        ("eval", "gt", lambda doc: (_set(["categories", 0, "id"], 1)(doc),
                                    _set(["annotations", 0, "category_id"], True)(doc)),
         "annotations[0].category_id"),
        ("stream", "stream", _set(["frames", 0, "detections", 0, "class_id"], 7),
         "frames[0].detections[0].class_id"),
        ("stream", "thr", _set(["thresholds", 0, "class_id"], "b"), "thresholds[0].class_id"),
        ("stream", "stream", lambda doc: doc["frames"].append(
            {"frame_index": 0, "detections": []}), "frames[1].frame_index"),
        ("stream", "thr", lambda doc: doc["thresholds"].append(
            {"class_id": "a", "s_star": 0.9}), "thresholds[1].class_id"),
        ("eval", "det", _set([0, "bbox", 0], 10 ** 400), "detections[0].bbox[0]"),
        ("eval", "gt", _set(["annotations", 0, "bbox", 3], -10 ** 400), "annotations[0].bbox[3]"),
        ("stream", "stream", _set(["frames", 0, "detections", 0, "class_scores", 0], 10 ** 400),
         "frames[0].detections[0].class_scores[0]"),
        ("eval", "gt", _set(["annotations", 0, "bbox"], _TINY_BOX), "annotations[0].bbox"),
        ("eval", "det", _set([0, "bbox"], _TINY_BOX), "detections[0].bbox"),
        ("eval", "gt", _set(["annotations", 0, "bbox"], _HUGE_BOX), "annotations[0].bbox"),
        ("eval", "det", _set([0, "bbox"], _HUGE_BOX), "detections[0].bbox"),
        ("stream", "stream", _set(["frames", 0, "detections", 0, "bbox"], _TINY_BOX),
         "frames[0].detections[0].bbox"),
        ("stream", "stream", _set(["frames", 0, "detections", 0, "bbox"], _HUGE_BOX),
         "frames[0].detections[0].bbox"),
        ("stream", "stream", _set(["frames", 0, "frame_index"], 7), "frames[0].frame_index"),
    ], ids=[
        "unhashable-image-id", "string-width", "string-height", "unhashable-det-image-id",
        "annotations-not-array",
        "frames-not-array", "detections-not-array",
        "float-frame-index", "bool-frame-index", "string-frame-index",
        "bool-class-scores", "unhashable-stream-class-id",
        "string-s-star", "bool-s-star", "s-star-above-one", "thresholds-not-array",
        "string-iscrowd", "list-category-name", "class-scores-length-mismatch",
        "bool-image-id", "null-image-id", "bool-annotation-image-id", "bool-det-image-id",
        "bool-annotation-category-id", "unknown-stream-class-id", "unknown-thresholds-class-id",
        "repeated-frame-index", "duplicate-thresholds-class-id",
        "huge-int-det-bbox", "huge-int-annotation-bbox", "huge-int-class-scores",
        "underflow-area-annotation-bbox", "underflow-area-det-bbox",
        "overflow-area-annotation-bbox", "overflow-area-det-bbox",
        "underflow-area-stream-bbox", "overflow-area-stream-bbox", "unknown-frame-index",
    ])
    def test_exits_2_naming_the_field(self, tmp_path, capsys, command, doc, mutate, field):
        docs = self.base_docs()
        mutate(docs[doc])
        paths = {}
        for name, content in docs.items():
            paths[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(json.dumps(content))
        if command == "eval":
            argv = ["eval", "--gt", paths["gt"], "--det", paths["det"]]
        else:
            argv = ["stream", "--stream", paths["stream"], "--gt", paths["gt"],
                    "--thresholds-file", paths["thr"]]
        assert main([*argv, "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {field}:" in err

    @pytest.mark.parametrize("bbox", [_TINY_BOX, _HUGE_BOX, _LARGE_BOX],
                             ids=["underflow", "overflow", "union-overflow"])
    @pytest.mark.parametrize("command", ["eval", "stream"])
    def test_box_area_outside_float_range_on_both_sides_exits_2(
        self, tmp_path, capsys, command, bbox
    ):
        # Equal tiny boxes once divided 0 by 0 in the IoU, huge ones gave a NaN
        # oLRP, and equal large ones an IoU of 0.
        docs = self.base_docs()
        docs["gt"]["annotations"][0]["bbox"] = bbox
        docs["det"][0]["bbox"] = bbox
        docs["stream"]["frames"][0]["detections"][0]["bbox"] = bbox
        paths = {}
        for name, content in docs.items():
            paths[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(json.dumps(content))
        inputs = ["--det", paths["det"]] if command == "eval" else ["--stream", paths["stream"]]
        argv = [command, "--gt", paths["gt"], *inputs, "--output", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: annotations[0].bbox: degenerate box")

    @pytest.mark.parametrize("command, flags, value", [
        ("eval", ["--grid-step", "5e-324"], "got 5e-324"),
        ("eval", ["--grid-step", "1e-9"], "got 1e-09"),
        ("eval", ["--tau-list", "0.5:5e-324:0.9"], "'0.5:5e-324:0.9'"),
        ("eval", ["--tau-list", "0.5:1e-9:0.9"], "'0.5:1e-9:0.9'"),
        ("sweep", ["--taus", "0.5:nan:0.9"], "'0.5:nan:0.9'"),
        ("eval", ["--tau", "1.5"], "got 1.5"),
        ("eval", ["--tau-list", "0.5:0:0.9"], "'0.5:0:0.9'"),
        ("compare", ["--tau-list", "0.5,1.5"], "got 1.5"),
        ("curves", ["--taus", "0.5:0.5:1.0"], "got 1.0"),
        ("thresholds", ["--grid-step", "0.03"], "0.03"),
        ("stream", ["--alpha", "5"], "got 5.0"),
        ("stream", ["--alpha", "nan"], "got nan"),
        ("stream", ["--threshold", "nan"], "got nan"),
        ("stream", ["--threshold", "5"], "got 5.0"),
        ("stream", ["--cost-cutoff", "nan"], "got nan"),
        ("stream", ["--tau", "nan"], "got nan"),
    ], ids=["subnormal-grid-step", "tiny-grid-step", "subnormal-tau-step", "tiny-tau-step",
            "nan-tau-step", "tau-above-max", "zero-tau-step", "tau-list-value-above-max",
            "tau-range-stop-above-max", "uneven-grid-step", "alpha-above-one", "nan-alpha",
            "nan-threshold", "threshold-above-one", "nan-cost-cutoff", "nan-stream-tau"])
    def test_exits_2_naming_the_flag_value(self, tmp_path, capsys, command, flags, value):
        # The tiny steps would ask for 10**9 grid points or taus if not bounded first.
        # With a missing --gt the flag is still named: flags are checked before any read.
        paths = {}
        for name in ("gt", "det", "stream"):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(self.base_docs()[name]))
        inputs = {"stream": ["--stream", str(paths["stream"])],
                  "compare": ["--det-a", str(paths["det"]), "--det-b", str(paths["det"])]}
        for gt in (paths["gt"], tmp_path / "missing.json"):
            argv = [command, "--gt", str(gt),
                    *inputs.get(command, ["--det", str(paths["det"])]), *flags]
            assert main([*argv, "--output", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and value in err

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

    def test_links_each_frame_pair_once(self, tmp_path, monkeypatch):
        # Both threshold maps are emitted from one tracking pass.
        stream_path, gt_path, thr_path = stream_fixture(tmp_path)
        video = sys.modules["lrpeval.video"]
        link = video.link_frames
        calls = Counter()

        def counting_link(prev, curr, *args):
            calls[(prev.frame_index, curr.frame_index)] += 1
            return link(prev, curr, *args)

        monkeypatch.setattr(video, "link_frames", counting_link)
        assert main([
            "stream", "--stream", stream_path, "--gt", gt_path,
            "--thresholds-file", thr_path, "--output", str(tmp_path / "out.json"),
        ]) == 0
        frame_indices = [f["frame_index"] for f in json.loads(Path(stream_path).read_text())["frames"]]
        assert calls == {pair: 1 for pair in zip(frame_indices, frame_indices[1:])}

    def test_bad_thresholds_file_fails_before_tracking(self, tmp_path, monkeypatch, capsys):
        stream_path, gt_path, thr_path = stream_fixture(tmp_path)
        doc = json.loads(Path(thr_path).read_text())
        doc["thresholds"][1]["class_id"] = "unknown"
        Path(thr_path).write_text(json.dumps(doc))
        cli = sys.modules["lrpeval.cli"]
        track = cli.track_stream
        calls = []

        def counting_track(*args):
            calls.append(args)
            return track(*args)

        monkeypatch.setattr(cli, "track_stream", counting_track)
        assert main([
            "stream", "--stream", stream_path, "--gt", gt_path,
            "--thresholds-file", thr_path, "--output", str(tmp_path / "out.json"),
        ]) == 2
        assert "error: thresholds[1].class_id:" in capsys.readouterr().err
        assert calls == []

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


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path.name


def golden_fixture(tmp_path, class_ids):
    """Seeded multi-class inputs for every command, written with plain
    json so that the inputs do not depend on lrpeval's writers."""
    rng = random.Random(7)
    images, annotations, results_a, results_b = [], [], [], []
    for image_id in range(6):
        images.append({"id": image_id, "width": 400, "height": 400})
        for k, cid in enumerate(class_ids[:3]):
            for j in range(1 + (image_id + k) % 3):
                x, y = 20 + 120 * j + rng.uniform(0, 20), 30 + 100 * k + rng.uniform(0, 20)
                w, h = rng.uniform(30, 60), rng.uniform(30, 60)
                crowd = int(rng.random() < 0.15)
                annotations.append({
                    "id": len(annotations) + 1, "image_id": image_id, "category_id": cid,
                    "bbox": [x, y, w, h], "iscrowd": crowd,
                })
                for results, spread in ((results_a, 6.0), (results_b, 14.0)):
                    if rng.random() < 0.85:
                        dx, dy = rng.uniform(-spread, spread), rng.uniform(-spread, spread)
                        results.append({
                            "image_id": image_id, "category_id": cid,
                            "bbox": [max(0.0, x + dx), max(0.0, y + dy), w, h],
                            "score": round(rng.uniform(0.3, 1.0), 3),
                        })
            for results in (results_a, results_b):
                results.append({
                    "image_id": image_id, "category_id": cid,
                    "bbox": [rng.uniform(0, 300), rng.uniform(0, 300), 40, 40],
                    "score": round(rng.uniform(0.0, 0.7), 3),
                })
    # class_ids[3] has ground truth but no detections; class_ids[4] has neither.
    annotations.append({
        "id": len(annotations) + 1, "image_id": 0, "category_id": class_ids[3],
        "bbox": [300, 300, 50, 50], "iscrowd": 0,
    })
    categories = [{"id": cid, "name": f"class-{cid}"} for cid in class_ids]
    doc = {"images": images, "annotations": annotations, "categories": categories}

    frames, stream_annotations = [], []
    for f in range(8):
        dets = []
        for k, cid in enumerate(class_ids[:3]):
            box = [40 + 5 * f, 50 + 110 * k, 50, 50]
            stream_annotations.append({
                "id": len(stream_annotations) + 1, "image_id": f, "category_id": cid,
                "bbox": box, "iscrowd": 0,
            })
            peak = round(rng.uniform(0.35, 0.9), 2)
            scores = [round((1.0 - peak) / 2, 3)] * 3
            scores[k] = round(1.0 - 2 * scores[k - 1], 3)
            dets.append({"class_id": cid, "bbox": [box[0] + rng.uniform(-3, 3), box[1], 50, 50],
                         "class_scores": scores})
        fp_class = class_ids[f % 3]
        dets.append({"class_id": fp_class, "bbox": [300, 300 - 10 * f, 40, 40],
                     "class_scores": [0.4, 0.3, 0.3]})
        frames.append({"frame_index": f, "detections": dets})
    stream_doc = {
        "images": [{"id": f} for f in range(8)],
        "annotations": stream_annotations,
        "categories": categories,
    }
    thresholds = {
        "schema": "lrp_thresholds_v1", "tau": 0.5,
        "thresholds": [{"class_id": cid, "s_star": s} for cid, s in zip(class_ids, (0.3, 0.6, 0.45))],
    }
    return {
        "gt": write_json(tmp_path / "gt.json", doc),
        "det_a": write_json(tmp_path / "det_a.json", results_a),
        "det_b": write_json(tmp_path / "det_b.json", results_b),
        "stream": write_json(tmp_path / "stream.json", {"frames": frames}),
        "stream_gt": write_json(tmp_path / "stream_gt.json", stream_doc),
        "thr": write_json(tmp_path / "thr.json", thresholds),
    }


GOLDEN_RUNS = {
    "eval.json": ["eval", "--gt", "{gt}", "--det", "{det_a}"],
    "eval-args.json": ["eval", "--gt", "{gt}", "--det", "{det_a}", "--tau", "0.6",
                       "--tau-list", "0.5,0.6,0.6,0.8", "--ap-variant", "pascal11"],
    "eval-args.csv": ["eval", "--gt", "{gt}", "--det", "{det_a}", "--tau", "0.6",
                      "--tau-list", "0.5,0.6,0.6,0.8", "--ap-variant", "pascal11",
                      "--format", "csv"],
    "sweep.csv": ["sweep", "--gt", "{gt}", "--det", "{det_a}", "--taus", "0.5,0.75"],
    "sweep.json": ["sweep", "--gt", "{gt}", "--det", "{det_a}", "--taus", "0.5,0.75",
                   "--format", "json"],
    "curves.csv": ["curves", "--gt", "{gt}", "--det", "{det_a}", "--taus", "0.5,0.75"],
    "curves-no-rp.csv": ["curves", "--gt", "{gt}", "--det", "{det_a}", "--no-rp"],
    "thresholds.json": ["thresholds", "--gt", "{gt}", "--det", "{det_a}"],
    "compare.json": ["compare", "--gt", "{gt}", "--det-a", "{det_a}", "--det-b", "{det_b}"],
    "compare.csv": ["compare", "--gt", "{gt}", "--det-a", "{det_a}", "--det-b", "{det_b}",
                    "--tau-list", "0.5,0.75", "--format", "csv"],
    "stream.json": ["stream", "--stream", "{stream}", "--gt", "{stream_gt}",
                    "--thresholds-file", "{thr}", "--filtered-output", "filtered.json"],
}

# sha256 of every output above (plus the filtered stream) per id kind.
GOLDEN_SHA256 = {
    "int": {
        "eval.json":
            "5b0069901b6e3856e3172528f9a719516b5676452a49e3b38f437502f5800eed",
        "eval-args.json":
            "fa7ec808b1af821b1a97424bc95953a36e0b2881d695e8bc954e4f7d15dcae4f",
        "eval-args.csv":
            "bb3f6d24804f412b8c262acc89dd7b5d8fe598ef7990a081ffa06d96dd6676e8",
        "sweep.csv":
            "aa7b62639a9e4bc9b52dcf5498b41b8a7bdace140d0983c5302d395a41ff8e74",
        "sweep.json":
            "8e4716f7628d96d24c560947058b523b02e23744fff4d06869229daf611983a0",
        "curves.csv":
            "3bf87d6229978909e67da8c01c29bba8256ad4806d58c82b5d9a0b4411e98a58",
        "curves-no-rp.csv":
            "d249219f777cb519e1f9c15537639849e639cfaaab9fac3f026de45880bd05e4",
        "thresholds.json":
            "228b567e36d05bb532529e67bd8a7fe9e9401a56e7046d3c2aa5d54e96bd83c0",
        "compare.json":
            "58577438d87b02d0e0352b0cc2ce656459ad73f5dc6e7a511429ea26c6e63f45",
        "compare.csv":
            "0af15913b82ade9586bc31f402ad578f692208d0042f7fe2ef6ff9f3f9058036",
        "stream.json":
            "22d98b9392b1120ea2dbb055bfea736b149834c5834c9c5e2f6d2bb57cdf7f4a",
        "filtered.json":
            "488e4d1d95b3fb60f07b1228f50d80c388e59d2701fe2f4647a250ba88f96b38",
    },
    "float": {
        "eval.json":
            "d0aba4009cd1b43c60fb30c76bf84a3c00bcaf7780762e6e42754f2a052f7bc2",
        "eval-args.json":
            "3b5fdd5587a631efd27256ce5b09d25fa908f54dfed5b2d1401ef65aab8190f5",
        "eval-args.csv":
            "fba2bcd806b2f4265d63ad371e8e06b2e7e90ff830ed8b966de199459eee1ce9",
        "sweep.csv":
            "4f40f413c496e659d8e5460b4dff934cbbc3f7bf2f9bb5281f56d39d6f55ba8c",
        "sweep.json":
            "1f7a280a02152c2e1c8f45c3b00b8af53c3d75ddd4aea72c77fb8d56b4207f5c",
        "curves.csv":
            "461f59e3fcb3e8e04ca775ebe432a2923cb561c2d3a733e7b5a98b21452b0b3d",
        "curves-no-rp.csv":
            "42e8bc0f44bfaf02808920ee0c02c95c30ee7afce5a2801deffe4cb888b8c974",
        "thresholds.json":
            "6edf09bed42bb26bbc87dd394d0adf83ea34f2605435a7c5938943e7caf0b75d",
        "compare.json":
            "19755690f33f7f91fbcf91b3215c687ad5f75d958604b3d957efb7607f675dcc",
        "compare.csv":
            "766fa6944be6ec939090742ba345ba5f4440cf328593c8f225943bf8346131ee",
        "stream.json":
            "78b1425992bc112af861989c6ab51200ec3fbf440c54f1bed2bbb8a99de84ffe",
        "filtered.json":
            "3c9fede14cc48aa3effcce7b79d24ae50834f1ebe4f620c4ba651707a47d221d",
    },
    "str": {
        "eval.json":
            "3ed07bfab75bd7aef107f713c80695d933ed120b3342b6528e00e1c077cc3ede",
        "eval-args.json":
            "ce2c377adc4a22b4e7bd43b8173e63224e247206162336614b683b0ff31f9b29",
        "eval-args.csv":
            "b8e3e4460ea689651cec08b65bfac3ac6bf885c23741dd5a1dde60ee1e203859",
        "sweep.csv":
            "7d2babc5720f9d2c4936edbef8050d7038c9250069fe1a39d10b0408be55bf3e",
        "sweep.json":
            "d6eb4a68d2681aaec4873241536cb998d668bebd87025da8efd5533c2c8b0e7e",
        "curves.csv":
            "545aedafc6f781cce68692533e4153b541593165ccdddf0c01948ac52dbea9d8",
        "curves-no-rp.csv":
            "6b19d20685b4725f2d0a768d09d590214b86487bbc6685dd9b6bd509d66caf54",
        "thresholds.json":
            "224e77e61a4d902efe23b245a38004a889b0ed10d25540eb180677f37648d52f",
        "compare.json":
            "0797ea05d2d2550f61cd76ac55b393a74bce2eff48b9d0f5f6a75ac70a31d061",
        "compare.csv":
            "62fc3a9a711dce18817751e1bfdb1847e2e49fd5df6c4e1c7d920bf46a685122",
        "stream.json":
            "2bc0dee6f2cd888518b64e3cf4604df75a98f0df4cde061db7ccee07f3c74106",
        "filtered.json":
            "51c0103db54b7311a6447ecdd46ee55bf964ce6157ffa95693bf1a7de4048606",
    },
}


class TestGoldenBytes:
    """Every command's output bytes, pinned: numeric, float and string
    category ids, every format and the non-default evaluation options."""

    @pytest.mark.parametrize("kind, class_ids", [
        ("int", [1, 2, 3, 4, 12]),
        ("float", [1.5, 2.0, 10.25, 11.0, 30.5]),
        ("str", ["bike", "car", "person", "train", "truck"]),
    ])
    def test_outputs_match_pinned_digests(self, tmp_path, monkeypatch, kind, class_ids):
        monkeypatch.chdir(tmp_path)
        paths = golden_fixture(tmp_path, class_ids)
        digests = {}
        for name, argv in GOLDEN_RUNS.items():
            assert main([a.format(**paths) for a in argv] + ["--output", name]) == 0, name
            digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        digests["filtered.json"] = hashlib.sha256((tmp_path / "filtered.json").read_bytes()).hexdigest()
        assert digests == GOLDEN_SHA256[kind]
