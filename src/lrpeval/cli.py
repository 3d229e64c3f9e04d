"""Command-line surface: evaluation, sweeps, curve export, threshold
export, side-by-side comparison, and stream filtering.

Progress and warnings go to standard error; data goes to standard output
or to files. Exit codes: 0 success; 2 input error, that is a bad flag
value or input file (`SchemaError`, naming the flag or field), a file that
cannot be read or written (`OSError`) or a malformed command line; 3 nothing
evaluable (`UndefinedLrp`). Any other exception is a program fault, not an
input error: it propagates with its traceback, and the interpreter exits 1.
Identical invocations on identical inputs write byte-identical outputs.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from functools import partial

from .dataio import (
    DEFAULT_TAU,
    SchemaError,
    build_report,
    export_curves,
    export_report,
    load_detections,
    load_ground_truth,
    load_stream,
    load_thresholds,
    round_row,
    save_stream,
    save_thresholds,
    threshold_rows,
    write_csv,
    write_json,
)
from .ap import AP_VARIANTS, curve_from_labels
from .lrp import UndefinedLrp
from .matching import check_tau, iou_table, label_at_tau, label_classes, rescore, to_columns
from .sweep import DEFAULT_GRID_STEP, aggregate_molrp, sweep_labels, threshold_grid
from .video import (
    DEFAULT_ALPHA,
    DEFAULT_COST_CUTOFF,
    DEFAULT_THRESHOLD,
    check_link_params,
    check_threshold,
    emit_stream,
    keep_masks,
    track_stream,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_NOTHING_EVALUABLE = 3
DEFAULT_TAU_RANGE = "0.5:0.05:0.95"
MAX_TAUS = 1000


def parse_tau_list(text: str) -> tuple[float, ...]:
    """Parse "start:step:stop" ranges or comma-separated tau values; every
    tau must pass `check_tau`."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"tau range must be start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if not (0.0 < step < math.inf and start <= stop):  # NaN fails both
            raise ValueError(f"bad tau range {text!r}")
        # Bounded before the range is built; a tiny step overflows round().
        spans = (stop - start) / step
        if not spans < MAX_TAUS - 0.5:
            raise ValueError(f"tau range {text!r} has more than {MAX_TAUS} values")
        values = (round(start + i * step, 10) for i in range(round(spans) + 1))
        # round(spans) takes one value past stop when step does not divide the
        # range; stop is rounded as the values are, so the first is always kept.
        taus = tuple(t for t in values if t <= round(stop, 10))
    else:
        taus = tuple(float(p) for p in text.split(","))
    for tau in taus:
        check_tau(tau)
    return taus


def check_flags(args) -> None:
    """Put every flag value through the check of the code that uses it, so
    that a bad value fails before any input file is read, as a SchemaError
    naming the flag. A tau list flag keeps the tuple it parses to."""
    checks = [("tau", check_tau), ("grid_step", threshold_grid)]
    checks += [(name, parse_tau_list) for name in ("tau_list", "taus")
               if vars(args).get(name) is not None]
    if args.command == "stream":
        checks += [
            ("alpha", partial(check_link_params, cost_cutoff=DEFAULT_COST_CUTOFF)),
            ("cost_cutoff", partial(check_link_params, DEFAULT_ALPHA)),
            ("threshold", check_threshold),
        ]
    for name, check in checks:
        try:
            parsed = check(getattr(args, name))
        except ValueError as exc:
            raise SchemaError(f"--{name.replace('_', '-')}: {exc}") from None
        if check is parse_tau_list:
            setattr(args, name, parsed)


def _add_shared_args(sub, tau_list=False):
    """The evaluation flags every command takes; --tau-list on request."""
    sub.add_argument(
        "--tau", type=float, default=DEFAULT_TAU,
        help=f"IoU validation threshold (default: {DEFAULT_TAU})",
    )
    sub.add_argument(
        "--grid-step", type=float, default=DEFAULT_GRID_STEP,
        help=f"score-threshold grid resolution (default: {DEFAULT_GRID_STEP})",
    )
    sub.add_argument(
        "--output", default="-",
        help="output path; '-' writes to standard output (default: -)",
    )
    if tau_list:
        sub.add_argument(
            "--tau-list", default=DEFAULT_TAU_RANGE,
            help=(f"taus averaged into mean AP, as start:step:stop or a comma list "
                  f"(default: {DEFAULT_TAU_RANGE})"),
        )


def _add_io_args(sub, tau_list=False):
    sub.add_argument("--gt", required=True, help="COCO-style annotation JSON")
    sub.add_argument("--det", required=True, help="COCO-style detection results JSON")
    _add_shared_args(sub, tau_list)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrpeval",
        description=(
            "Object-detection evaluation with the LRP error: per-class optimal "
            "LRP and thresholds, AP variants, curve data, and stream filtering."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="full evaluation report (oLRP, components, s*, AP, moLRP, mAP)")
    _add_io_args(p_eval, tau_list=True)
    p_eval.add_argument(
        "--ap-variant", choices=AP_VARIANTS, default="coco101",
        help="AP integration rule (default: coco101)",
    )
    p_eval.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format (default: json)")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="per-class optimal LRP at one or more taus")
    _add_io_args(p_sweep)
    p_sweep.add_argument(
        "--taus", default=None,
        help="comma list or start:step:stop of taus to sweep (default: just --tau)",
    )
    p_sweep.add_argument("--format", choices=("json", "csv"), default="csv",
                         help="table format (default: csv)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_curves = sub.add_parser("curves", help="long-format curve data (sweep samples + RP points)")
    _add_io_args(p_curves)
    p_curves.add_argument(
        "--taus", default=None,
        help="comma list or start:step:stop of taus, one curve block per tau (default: just --tau)",
    )
    p_curves.add_argument("--no-rp", action="store_true",
                          help="omit recall-precision points, keep only sweep samples")
    p_curves.set_defaults(func=cmd_curves)

    p_thr = sub.add_parser("thresholds", help="per-class optimal score thresholds (s*)")
    _add_io_args(p_thr)
    p_thr.set_defaults(func=cmd_thresholds)

    p_cmp = sub.add_parser("compare", help="two detection result files side by side")
    p_cmp.add_argument("--gt", required=True, help="COCO-style annotation JSON")
    p_cmp.add_argument("--det-a", required=True, help="first detection results JSON")
    p_cmp.add_argument("--det-b", required=True, help="second detection results JSON")
    _add_shared_args(p_cmp, tau_list=True)
    p_cmp.add_argument("--format", choices=("json", "csv"), default="json",
                       help="comparison format (default: json)")
    p_cmp.set_defaults(func=cmd_compare)

    p_stream = sub.add_parser(
        "stream", help="link/rescore/filter a detection stream and compare thresholdings"
    )
    p_stream.add_argument("--stream", required=True, help="stream fixture JSON")
    p_stream.add_argument("--gt", required=True,
                          help="COCO-style annotations with image id = frame index")
    p_stream.add_argument("--thresholds-file", default=None,
                          help="per-class thresholds JSON from the thresholds command")
    p_stream.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                          help=f"general score threshold baseline (default: {DEFAULT_THRESHOLD})")
    p_stream.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                          help=f"box-overlap weight in the linking cost (default: {DEFAULT_ALPHA})")
    p_stream.add_argument("--cost-cutoff", type=float, default=DEFAULT_COST_CUTOFF,
                          help=f"linking cost above which pairs sever (default: {DEFAULT_COST_CUTOFF})")
    _add_shared_args(p_stream)
    p_stream.add_argument("--filtered-output", default=None,
                          help="write the filtered stream fixture here")
    p_stream.set_defaults(func=cmd_stream)

    return parser


def cmd_eval(args) -> int:
    dataset = load_ground_truth(args.gt)
    dets = load_detections(args.det, dataset)
    report = build_report(
        dataset, dets,
        tau=args.tau,
        tau_list=args.tau_list,
        grid_step=args.grid_step,
        ap_variant=args.ap_variant,
    )
    export_report(report, args.output, args.format)
    return EXIT_OK


def _per_class_and_tau(args, consume=lambda sweep, labels: sweep):
    """Load the inputs, label and sweep every (class, tau) once, over the
    taus of --taus or, for a command without one or when it is not given,
    --tau alone. Return the dataset plus consume(sweep, labels) for each
    pair in tau-major order, the order of the printed tables; with one tau
    that is class order. Raises UndefinedLrp when no sweep has anything to
    evaluate."""
    dataset = load_ground_truth(args.gt)
    dets = load_detections(args.det, dataset)
    taus = vars(args).get("taus") or (args.tau,)
    # label_classes runs class-major so that each class's IoU table serves
    # all its taus; consuming the labels as they come keeps them out of memory.
    labeled = label_classes(dataset.gt_columns, dets, dataset.class_ids(), taus)
    results, evaluable = [], False
    for cid, labels in labeled:
        sweep = sweep_labels(labels, cid, args.grid_step)
        evaluable = evaluable or sweep.evaluable
        results.append(consume(sweep, labels))
    if not evaluable:
        raise UndefinedLrp("no class has anything to evaluate")
    return dataset, [r for j in range(len(taus)) for r in results[j::len(taus)]]


def cmd_sweep(args) -> int:
    dataset, results = _per_class_and_tau(args)
    rows = [
        round_row({
            "class_id": r.class_id,
            "class_name": dataset.names[r.class_id],
            "tau": r.tau,
            "evaluable": r.evaluable,
            **r.optimum(),
        })
        for r in results
    ]
    if args.format == "json":
        write_json({"schema": "lrp_sweep_v1", "rows": rows}, args.output)
    else:
        write_csv(rows, args.output)
    return EXIT_OK


def cmd_curves(args) -> int:
    def curves(sweep, labels):
        if args.no_rp or labels.n_real == 0:
            return [sweep]
        return [sweep, curve_from_labels(labels, sweep.class_id)]

    _, blocks = _per_class_and_tau(args, curves)
    export_curves([item for block in blocks for item in block], args.output)
    return EXIT_OK


def cmd_thresholds(args) -> int:
    dataset, sweeps = _per_class_and_tau(args)
    save_thresholds(threshold_rows(sweeps, dataset.names), args.tau, args.output)
    return EXIT_OK


def cmd_compare(args) -> int:
    dataset = load_ground_truth(args.gt)
    reports = {}
    for side, path in (("a", args.det_a), ("b", args.det_b)):
        dets = load_detections(path, dataset)
        reports[side] = build_report(
            dataset, dets, tau=args.tau, tau_list=args.tau_list, grid_step=args.grid_step
        )
    doc = _comparison_doc(reports["a"], reports["b"], args)
    if args.format == "json":
        write_json(doc, args.output)
    else:
        write_csv(doc["classes"], args.output)
    return EXIT_OK


def _comparison_doc(a, b, args) -> dict:
    """Side-by-side rows of two `build_report` documents; the delta is
    taken before rounding."""
    classes = []
    for ra, rb in zip(a["classes"], b["classes"]):
        delta = None
        if ra["olrp"] is not None and rb["olrp"] is not None:
            delta = rb["olrp"] - ra["olrp"]
        classes.append(round_row({
            "class_id": ra["class_id"],
            "class_name": ra["class_name"],
            "olrp_a": ra["olrp"], "olrp_b": rb["olrp"],
            "olrp_delta": delta,
            "s_star_a": ra["s_star"], "s_star_b": rb["s_star"],
            "ap_a": ra["ap_coco101"], "ap_b": rb["ap_coco101"],
        }))
    return {
        "schema": "lrp_compare_v1",
        "config": {"tau": args.tau, "grid_step": args.grid_step},
        "classes": classes,
        "summary": round_row({
            "molrp_a": a["summary"]["molrp"], "molrp_b": b["summary"]["molrp"],
            "mean_ap_a": a["summary"]["mean_ap"], "mean_ap_b": b["summary"]["mean_ap"],
        }),
    }


def cmd_stream(args) -> int:
    dataset = load_ground_truth(args.gt)
    frames = load_stream(args.stream, dataset)
    threshold_maps = {"general": {}}
    if args.thresholds_file:
        # A bad thresholds file fails before any evaluation or tracking.
        threshold_maps["class_specific"] = load_thresholds(args.thresholds_file, dataset)
    class_ids = dataset.class_ids()
    # Detection columns straight from the frames, and each class's stream positions.
    flat = [(f.frame_index, d.class_id, d.box, d.score) for f in frames for d in f.detections]
    _, dets = to_columns((), flat, class_ids)
    members = {cid: [] for cid in class_ids}
    for pos, (_, cid, _, _) in enumerate(flat):
        members[cid].append(pos)
    tables = [(cid, iou_table(dataset.gt_columns[cid], dets[cid]), members[cid])
              for cid in class_ids]

    def evaluate(scores=None):
        """moLRP of the raw stream or, given scores by raw position, of the
        detections whose score is not None, scored so: a filtered stream
        only drops detections and rewrites scores, so each class's one
        table serves every pass."""
        per_class = {}
        for cid, table, members in tables:
            if scores is not None:
                table = rescore(table, [scores[m] for m in members])
            per_class[cid] = sweep_labels(label_at_tau(table, args.tau), cid, args.grid_step)
        return aggregate_molrp(per_class)

    reports = {"raw": evaluate()}
    # Tubelets evolve on the unfiltered detections: track once, keep per threshold map.
    tracked = track_stream(frames, args.alpha, args.cost_cutoff)
    # The emitted peak, not the tracked score: below 1/n bins it is 1/n.
    emitted = [det.score for frame in tracked.frames for det in frame.detections]
    for name, thresholds in threshold_maps.items():
        keep = [k for mask in keep_masks(tracked, thresholds, args.threshold) for k in mask]
        reports[name] = evaluate([s if k else None for s, k in zip(emitted, keep)])
    if args.filtered_output:  # the class-specific stream when given, else the general one
        kept = threshold_maps.get("class_specific", threshold_maps["general"])
        save_stream(emit_stream(tracked, kept, args.threshold).frames, args.filtered_output)

    classes = [
        round_row({
            "class_id": cid,
            "class_name": dataset.names[cid],
            **{f"olrp_{name}": report.per_class[cid].olrp for name, report in reports.items()},
        })
        for cid in class_ids
    ]
    doc = {
        "schema": "lrp_stream_compare_v1",
        "config": {
            "tau": args.tau,
            "general_threshold": args.threshold,
            "alpha": args.alpha,
            "cost_cutoff": args.cost_cutoff,
            "thresholds_file": args.thresholds_file,
        },
        "classes": classes,
        "summary": round_row({
            f"molrp_{name}": reports[name].molrp if name in reports else None
            for name in ("raw", "general", "class_specific")
        }),
    }
    write_json(doc, args.output)
    return EXIT_OK


def main(argv=None) -> int:
    # The records a command builds hold no reference cycles, so the cyclic
    # collector's passes over them are pure cost; the state is restored on
    # the way out because main may run inside a longer-lived process.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        check_flags(args)
        return args.func(args)
    except UndefinedLrp as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOTHING_EVALUABLE
    except (OSError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
