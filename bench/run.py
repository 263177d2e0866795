"""Benchmark of the chbs command line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all --seed <n> --seconds <s>

Each timed call runs ``chbs.cli.main([...])`` in a fresh interpreter
(bench/child.py), one at a time, from this single process.  Inputs are
config files generated from ``--seed``.  The first two calls of a run use
the seed itself and must write byte-identical files; later calls use seeds
derived from it, so a run's median spans several initial fields.  Every
call's outputs are checked (workloads.check_outputs).  A call that fails is
still timed and counted.

``--trace 0`` measures the end-to-end metrics: calls repeat until
``--seconds`` is used up (at least two), and set-up is measured in
SETUP_SAMPLES further fresh interpreters.  ``wall_rel`` is each call's wall
time over the time of calibrate.kernel around it, which cancels the drift
of a shared host's speed.  ``--trace 1`` makes one untraced and one traced
call with the same inputs and reports the per-layer metrics of
bench/spans.py.  ``--workload all`` does both for every workload and
prints one table.  The last line of standard output is a JSON object.

Seeds: use HELD_OUT_SEED only to confirm a gain that was developed on
other seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import spans
from workloads import WORKLOADS, check_outputs, output_files, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")

HELD_OUT_SEED = 7919
SETUP_SAMPLES = 5
MIN_CALLS = 2           # the byte-determinism check needs two calls
RUN_LIMIT_S = 170.0     # a run must end within 180 s
BLAS_THREADS = 1        # at most nproc; one process generates the load
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("wall_rel", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
TRACE_EXTRA = (("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
               ("trace.overhead", "ratio"))


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def _child_env():
    env = dict(os.environ)
    env.pop("CHBS_THREADS", None)  # experiments run serially
    for var in _BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(args, timeout):
    """Run child.py; its JSON result, or None if it failed or timed out."""
    cmd = [sys.executable, os.path.join(HERE, "child.py")] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=_child_env(), timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def _setup_sample(n, timeout):
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    res = _spawn(["setup", ROOT, str(n)], timeout)
    return None if res is None else res["done"] - start


def call_seed(seed, k):
    """Input seed of call k of a run: the run's seed for the first two."""
    return seed if k < 2 else seed * 1000 + k


class _Run:
    """The calls of one benchmark run and their work directory."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.calls = []
        self._reference = None

    def call(self, timeout, traced=False):
        k = len(self.calls)
        call_dir = os.path.join(self.work_dir, f"call_{k}")
        out_dir = os.path.join(call_dir, "out")
        os.makedirs(out_dir)
        argv = write_inputs(self.workload, call_seed(self.seed, k), call_dir)
        argv_path = os.path.join(call_dir, "argv.json")
        with open(argv_path, "w") as fh:
            json.dump(argv + ["--out", out_dir, "--quiet"], fh)
        spans_path = os.path.join(call_dir, "spans.csv")
        args = (["trace", ROOT, argv_path, spans_path] if traced
                else ["call", ROOT, argv_path])
        start = time.perf_counter()
        res = _spawn(args, timeout)
        elapsed = time.perf_counter() - start
        if res is None:
            call = {"wall_s": elapsed, "cal_s": None, "peak_rss_mb": None,
                    "problems": ["call did not finish or printed no result"]}
        else:
            call = dict(res, problems=[] if res["rc"] == 0 else [f"exit code {res['rc']}"])
            call["problems"] += check_outputs(self.workload, out_dir)
            if k == 0:
                self._reference = output_files(out_dir)
            elif k == 1:
                files = output_files(out_dir)
                differ = sorted(n for n in set(files) | set(self._reference)
                                if files.get(n) != self._reference.get(n))
                if differ:
                    call["problems"].append(f"outputs differ from the first call: {differ}")
            if traced:
                call["spans"] = spans.read_spans(spans_path)
        self.calls.append(call)
        return call

    @property
    def failed(self):
        return sum(1 for c in self.calls if c["problems"])


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def _require_sources():
    if not os.path.isfile(os.path.join(ROOT, "src", "chbs", "cli.py")):
        raise BenchError(f"no chbs sources under {os.path.join(ROOT, 'src')}")


def run_workload(workload, seed, seconds, trace, work_root=WORK_ROOT):
    """One benchmark run; returns the result dict printed as JSON."""
    _require_sources()
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}_", dir=work_root)
    t0 = time.perf_counter()

    def left():
        return RUN_LIMIT_S - (time.perf_counter() - t0)

    try:
        run = _Run(workload, seed, work_dir)
        if trace:
            plain = run.call(left())
            traced = run.call(left(), traced=True)
            metrics = {}
            if "spans" in traced:
                metrics = spans.layer_metrics(traced["spans"], traced["wall_s"])
            metrics["trace.wall_s"] = traced["wall_s"]
            metrics["trace.untraced_wall_s"] = plain["wall_s"]
            if plain["cal_s"] and traced["cal_s"]:
                metrics["trace.overhead"] = ((traced["wall_s"] / traced["cal_s"])
                                             / (plain["wall_s"] / plain["cal_s"]) - 1.0)
            units = dict([(m, u) for m, u, _ in spans.PER_LAYER] + list(TRACE_EXTRA))
            setups = []
        else:
            _setup_sample(workload.n, left())  # warm-up: byte-compile, file cache
            setups = [_setup_sample(workload.n, left()) for _ in range(SETUP_SAMPLES)]
            start = time.perf_counter()
            while True:
                run.call(left())
                spent = time.perf_counter() - start
                per_call = spent / len(run.calls)
                if len(run.calls) >= MIN_CALLS and (
                        spent + per_call > seconds or per_call > left()):
                    break
            metrics = {
                "wall_rel": _median(c["wall_s"] / c["cal_s"] for c in run.calls
                                    if c["cal_s"]),
                "setup_s": _median(setups),
                "peak_rss_mb": _median(c["peak_rss_mb"] for c in run.calls),
            }
            units = dict(END_TO_END)
        failed = run.failed + sum(1 for s in setups if s is None)
        attempted = len(run.calls) + len(setups)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics.get(name, float("nan")), "unit": unit}
                        for name, unit in units.items()},
        }
        details = {"calls": [{k: v for k, v in c.items() if k != "spans"}
                             for c in run.calls],
                   "setups": setups}
        return result, details
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


# --- reporting ---------------------------------------------------------------

def environment():
    """Machine and library facts recorded beside every result."""
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    def read(path):
        try:
            with open(path) as fh:
                return fh.read()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip() for line in
                  read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
                 platform.processor() or "unknown")
    caches = {}
    for k in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{k}/"
        level, size = read(base + "level").strip(), read(base + "size").strip()
        if level in ("2", "3") and size:
            caches[f"L{level}"] = size
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu": model, "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_openblas": blas(numpy),
            "scipy_openblas": blas(scipy), "blas_threads": BLAS_THREADS,
            "CHBS_THREADS": "unset", "commit": commit}


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _untraced_lines(workload, result, details):
    calls = details["calls"]
    walls = [c["wall_s"] for c in calls]
    m = result["metrics"]
    lines = [f"{workload.name}: {len(calls)} calls, {len(details['setups'])} set-ups, "
             f"walls {[round(w, 4) for w in walls]}"]
    for name, unit in END_TO_END:
        lines.append(f"  {name:<12} {_fmt(m[name]['value']):>12} {unit}")
    lines.append(f"  {'wall_s':<12} {_fmt(_median(walls)):>12} s (raw; varies with host load)")
    lines.append(f"  {'cal_s':<12} {_fmt(_median(c['cal_s'] for c in calls)):>12} s "
                 f"(calibration kernel)")
    if workload.steps:
        sps = _median(workload.steps / w for w in walls)
        lines.append(f"  {'steps_per_s':<12} {_fmt(sps):>12} steps/s")
    else:
        lines.append(f"  {'steps_per_s':<12} {'-':>12} (no time steps)")
    lines.append(f"  {'error_rate':<12} {_fmt(result['failed'] / result['attempted']):>12} "
                 f"ratio ({result['failed']} failed / {result['attempted']} attempted)")
    for c in calls:
        for problem in c["problems"]:
            lines.append(f"  FAILED CALL: {problem}")
    return lines


def _traced_lines(workload, result, details):
    lines = [f"{workload.name}: traced"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<26} {_fmt(metric['value']):>14} {metric['unit']}")
    for c in details["calls"]:
        for problem in c["problems"]:
            lines.append(f"  FAILED CALL: {problem}")
    return lines


def _stop(signum, frame):
    # unwinding lets subprocess.run kill and reap the running child and
    # the work directory be removed
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _require_sources()
        print("env: " + json.dumps(environment()))
        if args.workload != "all":
            workload = WORKLOADS[args.workload]
            result, details = run_workload(workload, args.seed, args.seconds, args.trace)
            lines = (_traced_lines if args.trace else _untraced_lines)(workload, result, details)
            print("\n".join(lines))
            print(json.dumps(result))
            return 0
        summary = {}
        for workload in WORKLOADS.values():
            plain, plain_details = run_workload(workload, args.seed, args.seconds, 0)
            traced, traced_details = run_workload(workload, args.seed, args.seconds, 1)
            print("\n".join(_untraced_lines(workload, plain, plain_details)))
            tm = traced["metrics"]
            raw = _median(c["wall_s"] for c in plain_details["calls"])
            print(f"  traced wall {_fmt(tm['trace.wall_s']['value'])} s beside untraced "
                  f"median {_fmt(raw)} s; other.s {_fmt(tm['other.share']['value'])} "
                  f"of traced wall", flush=True)
            summary[workload.name] = {"untraced": plain, "traced": traced}
        print(json.dumps(summary))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
