"""Object-detection evaluation with the LRP (localization-recall-precision)
error: per-class optimal thresholds, AP variants, set-distance property
machinery, and a frame-linking pipeline for detection streams.

Every record type is an immutable named tuple. `BoundingBox`, `Detection`,
`GroundTruth`, `StreamDetection`, `MatchResult` and `DasaParams` check
their fields whenever one is built, `_make` and `_replace` included.
Evaluation reads per-class box columns (`GtColumns`, `DetColumns`), which
the loaders fill; `to_columns` builds them from records."""

from .geometry import BoundingBox, area, iou, iou_distance
from .matching import (
    DetColumns,
    Detection,
    GroundTruth,
    GtColumns,
    MatchResult,
    TauLabels,
    hungarian,
    label_classes,
    label_detections,
    match_optimal,
    to_columns,
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
from .ap import RPCurve, curve_from_labels, rp_curve
from .video import (
    FrameDetections,
    StreamDetection,
    TrackedStream,
    bayes_update,
    emit_stream,
    link_frames,
    run_stream,
    track_stream,
)
from .dataio import (
    Dataset,
    SchemaError,
    build_report,
    export_curves,
    export_report,
    load_detections,
    load_ground_truth,
    load_stream,
    load_thresholds,
    save_stream,
    save_thresholds,
    threshold_rows,
)

__all__ = [
    "BoundingBox", "area", "iou", "iou_distance",
    "Detection", "GroundTruth", "MatchResult", "TauLabels",
    "DetColumns", "GtColumns", "to_columns",
    "hungarian", "label_classes", "label_detections", "match_optimal",
    "DasaParams", "LrpBreakdown", "UndefinedLrp", "dasa", "lrp_components", "lrp_total",
    "MoLrpReport", "SweepResult", "molrp", "sweep_class", "sweep_labels", "threshold_grid",
    "RPCurve", "curve_from_labels", "rp_curve",
    "FrameDetections", "StreamDetection", "TrackedStream",
    "bayes_update", "emit_stream", "link_frames", "run_stream", "track_stream",
    "Dataset", "SchemaError",
    "build_report", "export_curves", "export_report",
    "load_detections", "load_ground_truth", "load_stream", "load_thresholds",
    "save_stream", "save_thresholds", "threshold_rows",
]

__version__ = "0.1.0"
