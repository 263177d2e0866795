"""Fast self-test of the benchmark harness on tiny meshes (n = 5, a few steps).

    python3 -m pytest bench/test_harness.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run as bench
import spans
from workloads import WORKLOADS, Workload, _config

HERE = os.path.dirname(os.path.abspath(__file__))


def _tiny_run(expected_steps=4):
    # 4 steps with stride 2 write snapshots 0, 2 and 4
    return Workload("tiny-run", "run", 5, expected_steps, 3,
                    lambda seed: [_config(5, 0.1, 1e-3, 4e-3, "polynomial", "", seed, 2)])


TINY_CONT_DEP = Workload(
    "tiny-cont-dep", "cont-dep", 5, 28, 0,
    lambda seed: [_config(5, 0.1, 1e-3, 2e-3, "logarithmic", "", s, 50)
                  for s in (seed, seed + 1)])
TINY_CHECK = Workload("tiny-check", "check", 5, 0, 0, lambda seed: ["[mesh]\nn = 5\n"])


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    result, details = bench.run_workload(_tiny_run(), 3, 0.0, 0, work_root=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert len(details["calls"]) == bench.MIN_CALLS
    assert result["attempted"] == bench.MIN_CALLS + bench.SETUP_SAMPLES
    assert list(result["metrics"]) == [name for name, _ in bench.END_TO_END]
    assert all(m["value"] > 0.0 for m in result["metrics"].values())
    assert os.listdir(tmp_path) == []  # the work directory is removed


def test_failed_checks_are_counted_not_dropped(tmp_path):
    result, details = bench.run_workload(_tiny_run(expected_steps=5), 3, 0.0, 0,
                                         work_root=tmp_path)
    assert not result["correct"]
    assert result["failed"] == len(details["calls"]) == bench.MIN_CALLS
    assert all("4 steps, expected 5" in c["problems"] for c in details["calls"])
    assert result["metrics"]["wall_rel"]["value"] > 0.0


def test_second_call_must_repeat_the_first_byte_for_byte(tmp_path):
    run = bench._Run(_tiny_run(), 3, str(tmp_path))
    assert run.call(60.0)["problems"] == []
    run._reference["monitors.csv"] += b"\n"
    assert run.call(60.0)["problems"] == ["outputs differ from the first call: ['monitors.csv']"]
    # later calls take other initial fields, so their outputs differ legitimately
    assert bench.call_seed(3, 2) != 3
    assert run.call(60.0)["problems"] == []
    assert run.failed == 1


def _traced(workload, tmp_path):
    result, _ = bench.run_workload(workload, 3, 0.0, 1, work_root=tmp_path)
    assert result["correct"]
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_traced_run_accounts_for_wall_time(tmp_path):
    m = _traced(_tiny_run(), tmp_path)
    names = [name for name, _, _ in spans.PER_LAYER] + [name for name, _ in bench.TRACE_EXTRA]
    assert list(m) == names
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert m["other.s"] >= 0.0
    assert layers + m["other.s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["scheme.steps"] == 4 and m["scheme.factor.calls"] >= 4
    assert m["monotone.nodes"] > 0 and m["domain.build.calls"] == 1
    assert m["cli.output.files"] == 6  # monitors, 3 snapshots, report.txt, report.csv
    again = _traced(_tiny_run(), tmp_path)
    for name in ("scheme.steps", "scheme.newton_iters", "scheme.factor.calls",
                 "scheme.picard.calls", "monotone.calls", "cli.output.bytes"):
        assert again[name] == m[name]


def test_cont_dep_and_check_workloads(tmp_path):
    m = _traced(TINY_CONT_DEP, tmp_path)
    assert m["verify.members"] == 6 and m["scheme.steps"] == TINY_CONT_DEP.steps
    assert m["spaces.dual_norm.calls"] > 0
    m = _traced(TINY_CHECK, tmp_path)
    assert m["spaces.poincare.s"] > 0.0 and m["scheme.steps"] == 0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in spec["end_to_end"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        [(name, unit) for name, unit, _ in spans.PER_LAYER] + list(bench.TRACE_EXTRA))


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "check-n49",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_work").exists()
