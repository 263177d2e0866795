"""The names the benchmark tracer wraps or measures still exist.

``bench/spans.py`` looks its private names up with ``getattr`` when it
installs its wrappers, so renaming one breaks ``bench/run.py --trace 1``.
Its ``_VALUES`` table reads the work count of a span by name, so renaming
one of those functions silently drops per-layer metrics such as
``monotone.nodes``.  The module is loaded by file path.  Installing the
tracer patches the chbs modules in place, so the traced run goes in a
subprocess; it also catches calls the tracer's wrappers cannot take, such
as a keyword argument to ``scheme.splu``.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from chbs import monotone, scheme

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"

# a chbs CLI call in one process with the bench tracer installed: argv[1]
# is the tracer's file, argv[2:] the CLI arguments.  The last line of output
# is a JSON summary of the spans and metrics
_TRACED_CLI = """
import importlib.util, json, sys, time
spec = importlib.util.spec_from_file_location("bench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
spans.install(tracer)
import chbs.cli
start = time.perf_counter()
rc = chbs.cli.main(sys.argv[2:])
wall = time.perf_counter() - start
names = [span[0] for span in tracer.spans]
print(json.dumps({"rc": rc, "splu": names.count("scheme.splu"),
                  "lu_solve": names.count("scheme.lu_solve"),
                  "metrics": list(spans.layer_metrics(tracer.spans, wall))}))
"""


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_private_names_exist():
    spans = _load_spans()
    missing = [f"{layer}.{name}" for layer, names in spans._PRIVATE.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"chbs.{layer}"), name, None))]
    missing += [f"scheme._StepSystem.{name}" for name in spans._STEP_SYSTEM_METHODS
                if not callable(getattr(scheme._StepSystem, name, None))]
    # the spans whose work counts _VALUES reads, scheme.splu among them
    for span in spans._VALUES:
        layer, _, name = span.partition(".")
        if not callable(getattr(importlib.import_module(f"chbs.{layer}"), name, None)):
            missing.append(span)
    assert not missing


def test_resolvent_takes_r_as_its_third_positional_parameter():
    # _VALUES counts monotone.nodes as the size of args[2] of each call, so
    # every caller passes r there and a warm start by keyword
    params = list(inspect.signature(monotone.resolvent).parameters.values())
    assert params[2].name == "r"
    assert params[2].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def _config(tmp_path, name, graph, seed):
    # eps^2 < 4 tau: the complex Schur factor, as in every benchmark workload
    config = tmp_path / name
    config.write_text("[mesh]\nn = 9\n\n"
                      "[scheme]\neps = 0.02\ntau = 0.001\nt_end = 0.002\n\n"
                      f"[graphs]\nbulk = {graph}\nboundary = {graph}\n\n"
                      f"[init]\npreset = random\namplitude = 0.2\nseed = {seed}\n")
    return str(config)


def _traced_cli(args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_CLI, str(SPANS)] + args,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["rc"] == 0
    assert out["splu"] >= 1 and out["lu_solve"] >= 1
    assert out["metrics"] == [name for name, _, _ in _load_spans().PER_LAYER]


def test_bench_tracer_runs_the_cli(tmp_path):
    _traced_cli(["run", "--config", _config(tmp_path, "run.cfg", "polynomial", 3),
                 "--out", str(tmp_path / "out"), "--quiet"])


def test_bench_tracer_runs_a_cont_dep(tmp_path):
    # the pair of a cont-dep steps in lockstep, a call path a run never takes
    _traced_cli(["cont-dep", "--config", _config(tmp_path, "a.cfg", "logarithmic", 3),
                 "--config", _config(tmp_path, "b.cfg", "logarithmic", 4),
                 "--out", str(tmp_path / "out"), "--quiet"])
