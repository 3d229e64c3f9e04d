"""Per-layer spans and counters for an in-process `lrpeval` run, recorded
from outside the package by wrapping its public functions.

A span is one call of a wrapped function. Its self time is its duration
minus the time covered by the spans it caused, so the self times of one
run add up to the root span (`cli.main`). Counters are taken at the same
boundaries from the arguments and results; the time spent computing them
is charged to the `trace.counters` pseudo-span, so it stays out of every
layer's self time and inside the sum.

Every module binding of a target function is wrapped (`from .sweep import
sweep_class` in `dataio` and `cli` makes a second and third binding), so
no call path escapes. A target the package no longer has is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter
from typing import Callable

PACKAGE = "lrpeval"
COUNTER_SPAN = "trace.counters"


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _file_size(path) -> int:
    return os.path.getsize(path) if path != "-" else 0


def _count_loads(counts, fn, args, kwargs, result):
    counts["dataio.bytes_read"] += _file_size(_bound(fn, args, kwargs)["path"])


def _count_writes(counts, fn, args, kwargs, result):
    counts["dataio.bytes_written"] += _file_size(_bound(fn, args, kwargs)["path"])


def _count_labels(counts, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    gts, dets = bound["gts"], bound["dets"]
    real_per_image = Counter(g.image_id for g in gts if not g.ignore)
    counts["matching.candidate_pairs"] += sum(real_per_image[d.image_id] for d in dets)
    counts["matching.dets_labeled"] += len(dets)
    kinds = Counter(label.kind for label in result)
    counts["matching.tp"] += kinds["tp"]
    counts["matching.fp"] += kinds["fp"]
    counts["matching.ignored"] += kinds["ignored"]
    first = gts[0] if gts else dets[0] if dets else None
    counts.keys_labeled.add((None if first is None else first.class_id, bound["tau"]))


def _count_curve(counts, fn, args, kwargs, result):
    counts["ap.rp_points"] += len(result.points)


def _count_links(counts, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    n_prev, n_curr = len(bound["prev"].detections), len(bound["curr"].detections)
    counts["video.link_cost_cells"] += n_prev * n_curr
    counts["video.links"] += len(result)
    # The assignment pairs min(prev, curr) boxes; the rest were severed.
    counts["video.severed_pairs"] += min(n_prev, n_curr) - len(result)


def _count_tubelets(counts, fn, args, kwargs, result):
    counts["video.tubelets"] += len(result.tubelets)


def _count_breakdowns(counts, fn, args, kwargs, result):
    counts["lrp.breakdowns"] += 1


# (module, function, span name or None for count-only, counter)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("dataio", "load_ground_truth", "dataio.load_ground_truth", _count_loads),
    ("dataio", "load_detections", "dataio.load_detections", _count_loads),
    ("dataio", "load_stream", "dataio.load_stream", _count_loads),
    ("dataio", "load_thresholds", "dataio.load_thresholds", _count_loads),
    ("dataio", "build_report", "dataio.build_report", None),
    ("dataio", "export_report", "dataio.export_report", _count_writes),
    ("dataio", "save_stream", "dataio.save_stream", _count_writes),
    ("matching", "label_detections", "matching.label_detections", _count_labels),
    ("matching", "hungarian", "matching.hungarian", None),
    ("sweep", "sweep_class", "sweep.sweep_class", None),
    ("sweep", "molrp", "sweep.molrp", None),
    ("ap", "rp_curve", "ap.rp_curve", _count_curve),
    ("ap", "ap", "ap.ap", None),
    ("video", "run_stream", "video.run_stream", _count_tubelets),
    ("video", "link_frames", "video.link_frames", _count_links),
    # Called once per grid point: counted, not timed.
    ("lrp", "breakdown_from_counts", None, _count_breakdowns),
)
SPANS = tuple(name for _, _, name, _ in TARGETS if name is not None)
COUNTED_CALLS = ("matching.label_detections", "matching.hungarian", "sweep.sweep_class",
                 "ap.rp_curve", "video.link_frames")
COUNTERS = ("dataio.bytes_read", "dataio.bytes_written", "matching.dets_labeled",
            "matching.candidate_pairs", "matching.tp", "matching.fp", "matching.ignored",
            "lrp.breakdowns", "ap.rp_points", "video.link_cost_cells", "video.links",
            "video.severed_pairs", "video.tubelets")


class Counts(Counter):
    """Counters of one run plus the distinct (class, tau) keys labeled."""

    def __init__(self):
        super().__init__()
        self.keys_labeled = set()


class Tracer:
    """Spans and counters of the current run; `reset` starts a new run."""

    def __init__(self):
        self.absent: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts = Counts()
        self.root_s = 0.0  # summed duration of the outermost spans
        self._stack: list[list[float]] = []

    def _span(self, name: str | None, fn: Callable, counter) -> Callable:
        clock = time.perf_counter

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counter(self.counts, fn, args, kwargs, result)
            return result

        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self._stack.pop()
                self.self_s[name] += duration - children[0]
                self.calls[name] += 1
            if counter is not None:
                start = clock()
                counter(self.counts, fn, args, kwargs, result)
                spent = clock() - start
                self.self_s[COUNTER_SPAN] += spent
                duration += spent
            if self._stack:
                self._stack[-1][0] += duration
            else:
                self.root_s += duration
            return result

        return counted if name is None else traced

    def install(self) -> None:
        """Wrap every binding of every target in the imported package."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, attr, name, counter in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            fn = getattr(module, attr, None) if module is not None else None
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._span(name, fn, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Self times, call counts and counters of the current run."""
        out = {f"{name}.self_s": (self.self_s[name], "s") for name in SPANS}
        out[f"{COUNTER_SPAN}.self_s"] = (self.self_s[COUNTER_SPAN], "s")
        for name in COUNTED_CALLS:
            out[f"{name}.calls"] = (self.calls[name], "count")
        for key in COUNTERS:
            out[key] = (self.counts[key], "bytes" if key.startswith("dataio.") else "count")
        keys = len(self.counts.keys_labeled)
        out["matching.label_keys"] = (keys, "count")
        label_calls = self.calls["matching.label_detections"]
        out["matching.relabel_ratio"] = (label_calls / keys if keys else 0.0, "ratio")
        return out
