"""Smoke tests of the benchmark harness at a tiny size; timings are not
checked.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_names_every_workload_and_pins_its_default_seed():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS)
    pinned = json.loads((BENCH_DIR / "pinned.json").read_text())
    assert sorted(pinned) == sorted(names)
    assert all(entry["seed"] == workloads.DEFAULT_SEED for entry in pinned.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert record["absent"] == []
    expected_outputs = {"eval": {"report.json"},
                        "stream": {"compare.json", "filtered.json", "thresholds.json"}}
    assert set(record["outputs"]) == expected_outputs[workloads.WORKLOADS[workload].command]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "eval-crowded", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_wraps_every_binding_and_reports_absent_targets(monkeypatch):
    leaf_mod = types.ModuleType("fakepkg.leafmod")
    exec("def leaf(x):\n    return x + 1\n", leaf_mod.__dict__)
    mid_mod = types.ModuleType("fakepkg.midmod")
    mid_mod.leaf = leaf_mod.leaf
    exec("def middle(x):\n    return leaf(x) * 2\n", mid_mod.__dict__)
    package = types.ModuleType("fakepkg")
    package.leafmod = leaf_mod.leaf  # a function shadowing its module, as lrpeval.ap does
    package.middle = mid_mod.middle
    for module in (package, leaf_mod, mid_mod):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setattr(tracer, "PACKAGE", "fakepkg")
    monkeypatch.setattr(tracer, "TARGETS", (
        ("midmod", "middle", "midmod.middle", None),
        ("leafmod", "leaf", "leafmod.leaf", None),
        ("leafmod", "gone", "leafmod.gone", None),
    ))

    trace = tracer.Tracer()
    trace.install()
    assert trace.absent == ["leafmod.gone"]
    assert package.middle(1) == 4 and package.leafmod(1) == 2
    assert trace.calls == {"midmod.middle": 1, "leafmod.leaf": 2}
    assert abs(sum(trace.self_s.values()) - trace.root_s) < 1e-9
