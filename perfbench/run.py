"""Benchmark of `lrpeval eval` and `lrpeval stream` on seeded synthetic inputs.

    python3 perfbench/run.py --workload eval-crowded --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src` directory. Set-up writes the workload's inputs under
`.perfbench_work/` and times `import lrpeval.cli` in fresh interpreters.
One operation is one CLI invocation in a fresh interpreter; the driver
process runs one at a time. The outputs of the first operation are
checked against the workload's invariants and, at the default seed,
against pinned digests.

--trace 0 repeats the operation for --seconds seconds and reports the
end-to-end metrics as medians over the operations. --trace 1 runs a few
untraced operations as the base of the tracing overhead, then repeats
the operation in-process under the tracer for the rest of the time and
reports per-layer self times as medians and per-layer counters, which
must repeat exactly. Every operation must write the bytes the first one
wrote. The last line of standard output is the result object; the line
before it records the sample counts and the input and output digests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"
WORK_DIR = ".perfbench_work"
# What the installed `lrpeval` console script runs.
LAUNCH = "import sys; from lrpeval.cli import main; sys.exit(main())"
SETUP_SAMPLES = 5
UNTRACED_OPS = 3
OP_TIMEOUT_S = 60.0


class Failures:
    """Operations attempted and the reasons those that failed did."""

    def __init__(self):
        self.attempted = 0
        self.reasons: list[str] = []

    def check(self, what: str, fn, *args) -> bool:
        """Count one operation: fn(*args) passes unless it raises."""
        self.attempted += 1
        try:
            fn(*args)
        except (workloads.CheckFailed, OpFailed) as exc:
            self.reasons.append(f"{what}: {exc}")
            print(f"perfbench: {what}: {exc}", file=sys.stderr)
            return False
        return True


class OpFailed(Exception):
    """A CLI invocation exited non-zero or left an output missing."""


def _median(values):
    return statistics.median(values) if values else 0.0


class Bench:
    def __init__(self, root: Path, name: str, seed: int, scale: float):
        self.root = root
        self.workload = workloads.WORKLOADS[name]
        self.spec = workloads.scaled(self.workload.spec, scale)
        self.seed = seed
        suffix = "" if scale == 1.0 else f"-x{scale}"
        self.work = root / WORK_DIR / f"{name}-{seed}{suffix}"
        self.pinned = None
        if seed == workloads.DEFAULT_SEED and scale == 1.0:
            with open(PINNED, encoding="utf-8") as fh:
                self.pinned = json.load(fh).get(name)
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.failures = Failures()
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.thresholds: dict = {}
        self.reference: dict[str, str] | None = None

    # -- set-up ----------------------------------------------------------

    def set_up(self) -> float:
        """Write and check the inputs, time the import and, for a stream,
        write the thresholds file; return the median set-up seconds."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        if self.workload.command == "eval":
            files = {"gt": "gt.json", "det": "det.json"}
            self.counts = workloads.generate_eval(
                self.spec, self.seed, self.work / files["gt"], self.work / files["det"])
            self.argv = ["eval", "--gt", files["gt"], "--det", files["det"],
                         "--output", "report.json"]
            self.output_files = ["report.json"]
        else:
            files = {"stream": "stream.json", "stream_gt": "stream_gt.json",
                     "calib_gt": "calib_gt.json", "calib_det": "calib_det.json"}
            self.counts = workloads.generate_stream(
                self.spec, self.seed, {k: self.work / v for k, v in files.items()})
            self.argv = ["stream", "--stream", files["stream"], "--gt", files["stream_gt"],
                         "--thresholds-file", "thresholds.json",
                         "--filtered-output", "filtered.json", "--output", "compare.json"]
            self.output_files = ["compare.json", "filtered.json"]
        self.inputs = {v: workloads.sha256_file(self.work / v) for v in files.values()}
        self.failures.check("inputs", self._match_pinned, "inputs", self.inputs)

        self._child(["-c", "import lrpeval.cli"])  # compiles the bytecode once
        setup = [self._child(["-c", "import lrpeval.cli"])[0] for _ in range(SETUP_SAMPLES)]

        if self.workload.command == "stream":
            self.failures.check("thresholds", self._thresholds, files)
        return _median(setup)

    def _thresholds(self, files) -> None:
        self._cli(["thresholds", "--gt", files["calib_gt"], "--det", files["calib_det"],
                   "--output", "thresholds.json"], ["thresholds.json"])
        digest = {"thresholds.json": workloads.sha256_file(self.work / "thresholds.json")}
        self.outputs.update(digest)
        self._match_pinned("outputs", digest)
        self.thresholds = workloads.load_threshold_map(self.work / "thresholds.json")

    def _check_outputs(self) -> None:
        """The first operation's outputs must meet the workload's
        invariants and, at the default seed, the pinned digests; every
        later operation must write the same bytes."""
        digests = {name: workloads.sha256_file(self.work / name) for name in self.output_files}
        if self.reference is not None:
            for name, digest in digests.items():
                if digest != self.reference[name]:
                    raise workloads.CheckFailed(f"{name} bytes differ from the first operation's")
            return
        if self.workload.command == "eval":
            workloads.check_report(self.work / "report.json", self.counts)
        else:
            workloads.check_stream(self.work / "compare.json", self.work / "filtered.json",
                                   self.thresholds, self.counts)
        self._match_pinned("outputs", digests)
        self.reference = digests
        self.outputs.update(digests)

    def _match_pinned(self, kind: str, digests: dict[str, str]) -> None:
        if self.pinned is None:
            return
        for name, digest in digests.items():
            if self.pinned[kind].get(name) != digest:
                raise workloads.CheckFailed(
                    f"{name} sha256 {digest} differs from the pinned {self.pinned[kind].get(name)}")

    # -- operations ------------------------------------------------------

    def _child(self, args: list[str]):
        """Run the interpreter with args in the work directory; return
        (wall s, cpu s, peak RSS MiB, exit code)."""
        with open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode

    def _cli(self, argv: list[str], outputs: list[str]):
        for name in outputs:
            (self.work / name).unlink(missing_ok=True)
        sample = self._child(["-c", LAUNCH, *argv])
        if sample[3] != 0:
            tail = (self.work / "stderr.txt").read_text(errors="replace")[-400:]
            raise OpFailed(f"`lrpeval {argv[0]}` exited {sample[3]}: {tail.strip()}")
        for name in outputs:
            if not (self.work / name).is_file():
                raise OpFailed(f"`lrpeval {argv[0]}` wrote no {name}")
        return sample

    def measure(self, seconds: float, min_ops: int, max_ops: float = math.inf):
        """Run operations until the next would overrun `seconds`; return
        the (wall, cpu, rss) samples of those that passed."""
        samples, walls = [], []
        start = time.perf_counter()
        while len(walls) < max_ops and (
                len(walls) < min_ops
                or time.perf_counter() - start + _median(walls) <= seconds):
            op_start = time.perf_counter()
            sample = []

            def run():
                sample.append(self._cli(self.argv, self.output_files))
                self._check_outputs()

            if self.failures.check(f"operation {len(walls) + 1}", run):
                samples.append(sample[0][:3])
            walls.append(time.perf_counter() - op_start)
        return samples

    def traced(self, seconds: float, min_ops: int):
        """Repeat the operation in-process under the tracer; return the
        layer metrics of each run and the names of absent targets."""
        src = str(self.root / "src")
        sys.path.insert(0, src)
        import lrpeval.cli  # noqa: F401 - the package and its CLI, as the console script loads them

        module_file = Path(sys.modules["lrpeval"].__file__).resolve()
        if not module_file.is_relative_to(Path(src).resolve()):
            raise OpFailed(f"lrpeval imported from {module_file}, not from the checkout")
        trace = tracer.Tracer()
        trace.install()
        if trace.absent:
            print(f"perfbench: absent trace targets: {', '.join(trace.absent)}", file=sys.stderr)
        runs, walls = [], []
        start = time.perf_counter()
        while len(walls) < min_ops or time.perf_counter() - start + _median(walls) <= seconds:
            op_start = time.perf_counter()
            trace.reset()
            if not self.failures.check(f"traced operation {len(walls) + 1}",
                                       self._traced_op, trace, runs):
                break
            walls.append(time.perf_counter() - op_start)
        return runs, trace.absent

    def _traced_op(self, trace: tracer.Tracer, runs: list) -> None:
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            code = sys.modules["lrpeval.cli"].main(self.argv)
        except Exception:
            raise OpFailed(traceback.format_exc(limit=3)) from None
        finally:
            os.chdir(cwd)
        if code != 0:
            raise OpFailed(f"in-process `lrpeval {self.argv[0]}` returned {code}")
        self._check_outputs()
        metrics = trace.layer_metrics()
        counters = {k: v for k, v in metrics.items() if v[1] != "s"}
        if runs and counters != {k: v for k, v in runs[0].items() if v[1] != "s"}:
            raise workloads.CheckFailed("trace counters differ between identical runs")
        if abs(sum(trace.self_s.values()) - trace.root_s) > 1e-6:
            raise workloads.CheckFailed("self times do not add up to the root span")
        metrics["trace.root_s"] = (trace.root_s, "s")
        runs.append(metrics)


def _end_to_end(samples, setup_s, failures):
    walls, cpus, rss = zip(*samples) if samples else ((), (), ())
    passed = failures.attempted - len(failures.reasons)
    return {
        "run_s": (_median(walls), "s"),
        "cpu_s": (_median(cpus), "s"),
        "peak_rss_mb": (_median(rss), "MiB"),
        "setup_s": (setup_s, "s"),
        "pass_ratio": (passed / failures.attempted, "ratio"),
    }


def _per_layer(runs, samples, setup_s):
    if not runs:
        return {}
    out = {}
    for key, (value, unit) in runs[0].items():
        if unit == "s":
            value = _median([r[key][0] for r in runs])
        out[key] = (value, unit)
    untraced = _median([s[0] for s in samples]) - setup_s
    out["trace.untraced_s"] = (untraced, "s")
    out["trace.overhead_ratio"] = (out["trace.root_s"][0] / untraced if untraced > 0 else 0.0,
                                   "ratio")
    out["trace.ops"] = (len(runs), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's image or frame count (smoke tests)")
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "lrpeval" / "cli.py").is_file():
        print(f"perfbench: no lrpeval source under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, args.scale)
    try:
        setup_s = bench.set_up()
        if args.trace:
            samples = bench.measure(args.seconds, UNTRACED_OPS, UNTRACED_OPS)
            runs, absent = bench.traced(args.seconds - sum(s[0] for s in samples), 1)
            metrics = _per_layer(runs, samples, setup_s)
            sample_counts = {"untraced_ops": len(samples), "traced_ops": len(runs)}
        else:
            samples = bench.measure(args.seconds, 3)
            metrics = _end_to_end(samples, setup_s, bench.failures)
            absent = []
            sample_counts = {"ops": len(samples)}
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    failures = bench.failures
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "samples": dict(sample_counts, setup=SETUP_SAMPLES), "counts": bench.counts,
        "inputs": bench.inputs, "outputs": bench.outputs,
        "absent": absent, "failures": failures.reasons,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failures.reasons and bool(metrics),
        "attempted": failures.attempted,
        "failed": len(failures.reasons),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
