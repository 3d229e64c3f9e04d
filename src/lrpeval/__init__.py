"""Object-detection evaluation with the LRP (localization-recall-precision)
error: per-class optimal thresholds, AP variants, set-distance property
machinery, and a frame-linking pipeline for detection streams."""

from .geometry import BoundingBox, area, iou, iou_distance
from .matching import (
    Detection,
    GroundTruth,
    MatchResult,
    TauLabels,
    hungarian,
    label_classes,
    label_detections,
    match_optimal,
)
from .lrp import (
    DasaParams,
    LrpBreakdown,
    UndefinedLrp,
    dasa,
    lrp_components,
    lrp_total,
)
from .sweep import MoLrpReport, SweepResult, molrp, sweep_class, sweep_labels, threshold_grid
from .ap import RPCurve, ap, curve_from_labels, rp_curve
from .video import (
    FrameDetections,
    StreamDetection,
    StreamResult,
    TrackedStream,
    Tubelet,
    bayes_update,
    emit_stream,
    link_frames,
    run_stream,
    stream_to_detections,
    track_stream,
)
from .dataio import (
    Dataset,
    EvalReport,
    SchemaError,
    build_report,
    export_curves,
    export_report,
    load_detections,
    load_ground_truth,
    load_stream,
    load_thresholds,
    save_detections,
    save_ground_truth,
    save_stream,
    save_thresholds,
    threshold_rows,
)

__all__ = [
    "BoundingBox", "area", "iou", "iou_distance",
    "Detection", "GroundTruth", "MatchResult", "TauLabels",
    "hungarian", "label_classes", "label_detections", "match_optimal",
    "DasaParams", "LrpBreakdown", "UndefinedLrp", "dasa", "lrp_components", "lrp_total",
    "MoLrpReport", "SweepResult", "molrp", "sweep_class", "sweep_labels", "threshold_grid",
    "RPCurve", "ap", "curve_from_labels", "rp_curve",
    "FrameDetections", "StreamDetection", "StreamResult", "TrackedStream", "Tubelet",
    "bayes_update", "emit_stream", "link_frames", "run_stream", "stream_to_detections",
    "track_stream",
    "Dataset", "EvalReport", "SchemaError",
    "build_report", "export_curves", "export_report",
    "load_detections", "load_ground_truth", "load_stream", "load_thresholds",
    "save_detections", "save_ground_truth", "save_stream", "save_thresholds",
    "threshold_rows",
]

__version__ = "0.1.0"
