"""The names the benchmark tracer wraps or measures still exist.

``bench/spans.py`` looks its private names up with ``getattr`` when it
installs its wrappers, so renaming one breaks ``bench/run.py --trace 1``.
Its ``_VALUES`` table reads the work count of a span by name, so renaming
one of those functions silently drops per-layer metrics such as
``monotone.nodes``.  The module is loaded by file path; its tracer is not
installed.
"""

import importlib
import importlib.util
from pathlib import Path

from chbs import scheme

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
