"""Span tracing of the chbs modules from outside, and the per-layer metrics.

``install`` wraps the functions at each layer boundary: every public
function of the six modules, in its defining module and in every chbs
namespace that imports it by name, plus the private step internals the
metrics need (the ``_StepSystem`` assembly methods, ``_solve_step``,
``_solve_picard``, ``_saddle_solve``, the CLI's CSV writers) and the
sparse LU factorization and solves of the step solver.  The package source
is not edited; the wrappers live only in the traced process.

A span is (name, start_ns, end_ns, parent index, value).  ``value`` carries
the work count of the call where one exists: nodal values passed to
``resolvent``, Newton iterations of a ``step``, factor nonzeros of an LU,
bytes of a written file.  Spans are kept in memory and written out once.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("monotone", "domain", "spaces", "scheme", "verify", "cli")

# private functions wrapped in addition to the public ones, per module
_PRIVATE = {
    "spaces": ("_saddle_solve",),
    "scheme": ("_solve_step", "_solve_picard"),
    "cli": ("_atomic_write", "_monitors_csv", "_snapshot_csv", "_rows_csv"),
}
_STEP_SYSTEM_METHODS = ("residual", "scales", "jacobian", "picard_matrix")
# the call the benchmark makes is the root, not a layer span
_ROOT = "cli.main"

_VALUES = {
    "monotone.resolvent": lambda args, out: int(np.size(args[2])),
    "scheme.step": lambda args, out: int(out.newton_iters),
    "scheme.splu": lambda args, out: int(out.nnz),
    "cli._atomic_write": lambda args, out: len(args[1].encode()),
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, value=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if value is not None:
                rec[4] = value(args, out)
            return out

        return traced

    def write(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_ns", "end_ns", "parent", "value"])
            writer.writerows(self.spans)


class _TracedLU:
    """SuperLU factor whose ``solve`` calls are recorded as spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = tracer.wrap("scheme.lu_solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer):
    """Wrap the layer boundaries of an imported chbs package in place."""
    mods = {layer: importlib.import_module(f"chbs.{layer}") for layer in LAYERS}
    namespaces = [importlib.import_module("chbs")] + list(mods.values())
    for layer, mod in mods.items():
        names = [n for n, obj in vars(mod).items()
                 if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                 and not n.startswith("_")]
        for fname in names + list(_PRIVATE.get(layer, ())):
            span = f"{layer}.{fname}"
            if span == _ROOT:
                continue
            original = getattr(mod, fname)
            wrapped = tracer.wrap(span, original, _VALUES.get(span))
            for ns in namespaces:
                if vars(ns).get(fname) is original:
                    setattr(ns, fname, wrapped)

    scheme = mods["scheme"]
    for meth in _STEP_SYSTEM_METHODS:
        setattr(scheme._StepSystem, meth,
                tracer.wrap(f"scheme._StepSystem.{meth}",
                            getattr(scheme._StepSystem, meth)))
    factor = tracer.wrap("scheme.splu", scheme.splu, _VALUES["scheme.splu"])
    scheme.splu = lambda matrix: _TracedLU(factor(matrix), tracer)


# --- per-layer metrics -------------------------------------------------------

# (metric, unit, description); the order is the order of the report
PER_LAYER = (
    ("monotone.calls", "count", "graph-calculus calls: resolvent, yosida, yosida_prime, envelope, beta_hat, boundary variants"),
    ("monotone.nodes", "count", "nodal values passed to resolvent"),
    ("monotone.self_s", "s", "monotone self time"),
    ("monotone.ns_per_node", "ns", "monotone self time per resolvent node"),
    ("domain.build.calls", "count", "build_unit_square calls"),
    ("domain.build.s", "s", "build_unit_square time, including its two LU factorizations"),
    ("domain.self_s", "s", "domain self time"),
    ("spaces.saddle_solve.calls", "count", "mean-constrained stiffness solves"),
    ("spaces.saddle_solve.s", "s", "_saddle_solve self time"),
    ("spaces.dual_norm.calls", "count", "norm_V0_star and norm_V_star calls"),
    ("spaces.dual_norm.s", "s", "norm_V0_star and norm_V_star self time"),
    ("spaces.forms.calls", "count", "form_a, inner_H and inner_V calls"),
    ("spaces.forms.s", "s", "form_a, inner_H and inner_V self time"),
    ("spaces.poincare.s", "s", "poincare_constant self time"),
    ("spaces.self_s", "s", "spaces self time"),
    ("scheme.steps", "count", "time steps taken"),
    ("scheme.newton_iters", "count", "Newton and Picard iterations over all steps"),
    ("scheme.newton_per_step", "ratio", "iterations per step"),
    ("scheme.picard.calls", "count", "Picard fallbacks"),
    ("scheme.residual.calls", "count", "step residual evaluations, line-search trials included"),
    ("scheme.residual_per_iter", "ratio", "residual evaluations per iteration; 1 + line-search halvings"),
    ("scheme.assemble.s", "s", "self time of residual, scales, jacobian, picard_matrix, implicit_block"),
    ("scheme.newton.s", "s", "Newton and Picard control self time"),
    ("scheme.factor.calls", "count", "sparse LU factorizations in the step solver"),
    ("scheme.factor.s", "s", "step-solver splu time"),
    ("scheme.factor.per_iter", "ratio", "factorizations per iteration"),
    ("scheme.factor.fill_nnz", "count", "mean nonzeros SuperLU stores in L and U per factorization"),
    ("scheme.lu_solve.calls", "count", "triangular solves with step-solver factors"),
    ("scheme.lu_solve.s", "s", "step-solver triangular solve time"),
    ("scheme.monitor.s", "s", "monitor_record and energy self time"),
    ("scheme.step_ms.p50", "ms", "median step duration"),
    ("scheme.step_ms.p98", "ms", "98th percentile step duration"),
    ("scheme.self_s", "s", "scheme self time"),
    ("verify.members", "count", "member runs started by verify"),
    ("verify.self_s", "s", "verify self time, member runs and spaces calls excluded"),
    ("cli.output.files", "count", "files written"),
    ("cli.output.bytes", "bytes", "bytes written"),
    ("cli.output.s", "s", "CSV formatting and atomic-write self time"),
    ("cli.self_s", "s", "cli self time"),
    ("other.s", "s", "traced wall time outside every layer span"),
    ("other.share", "ratio", "other.s over traced wall time"),
)

_GROUPS = {
    "monotone.calls": ("monotone.resolvent", "monotone.yosida", "monotone.yosida_prime",
                       "monotone.envelope", "monotone.beta_hat",
                       "monotone.resolvent_boundary", "monotone.yosida_boundary",
                       "monotone.yosida_boundary_prime", "monotone.envelope_boundary"),
    "spaces.dual_norm": ("spaces.norm_V0_star", "spaces.norm_V_star"),
    "spaces.forms": ("spaces.form_a", "spaces.inner_H", "spaces.inner_V"),
    "scheme.assemble": ("scheme._StepSystem.residual", "scheme._StepSystem.scales",
                        "scheme._StepSystem.jacobian", "scheme._StepSystem.picard_matrix",
                        "scheme.implicit_block"),
    "scheme.newton": ("scheme._solve_step", "scheme._solve_picard"),
    "scheme.monitor": ("scheme.monitor_record", "scheme.energy"),
    "cli.output": ("cli._atomic_write", "cli._monitors_csv", "cli._snapshot_csv",
                   "cli._rows_csv"),
}


def read_spans(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(r[0], int(r[1]), int(r[2]), int(r[3]), int(r[4])) for r in rows]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced call from its spans.

    Self time of a span is its duration minus the durations of its direct
    children; spans nest strictly because the traced process is serial.
    """
    n = len(spans)
    child = np.zeros(n)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, total_s, calls, values = {}, {}, {}, {}
    steps_ms = []
    for k, (name, start, end, parent, value) in enumerate(spans):
        dur = (end - start) * 1e-9
        self_s[name] = self_s.get(name, 0.0) + dur - child[k] * 1e-9
        total_s[name] = total_s.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        values[name] = values.get(name, 0) + value
        if name == "scheme.step":
            steps_ms.append(dur * 1e3)

    def grp_calls(key):
        return sum(calls.get(s, 0) for s in _GROUPS.get(key, (key,)))

    def grp_self(key):
        return sum(self_s.get(s, 0.0) for s in _GROUPS.get(key, (key,)))

    layer_self = {layer: sum((v for s, v in self_s.items() if s.split(".")[0] == layer), 0.0)
                  for layer in LAYERS}
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]

    def under_verify(k):
        k = parents[k]
        while k >= 0:
            if names[k].startswith("verify."):
                return True
            k = parents[k]
        return False

    iters = values.get("scheme.step", 0)
    factors = calls.get("scheme.splu", 0)
    nodes = values.get("monotone.resolvent", 0)
    other = wall_s - sum(layer_self.values())
    m = {
        "monotone.calls": grp_calls("monotone.calls"),
        "monotone.nodes": nodes,
        "monotone.self_s": layer_self["monotone"],
        "monotone.ns_per_node": _ratio(layer_self["monotone"] * 1e9, nodes),
        "domain.build.calls": calls.get("domain.build_unit_square", 0),
        "domain.build.s": total_s.get("domain.build_unit_square", 0.0),
        "domain.self_s": layer_self["domain"],
        "spaces.saddle_solve.calls": calls.get("spaces._saddle_solve", 0),
        "spaces.saddle_solve.s": self_s.get("spaces._saddle_solve", 0.0),
        "spaces.dual_norm.calls": grp_calls("spaces.dual_norm"),
        "spaces.dual_norm.s": grp_self("spaces.dual_norm"),
        "spaces.forms.calls": grp_calls("spaces.forms"),
        "spaces.forms.s": grp_self("spaces.forms"),
        "spaces.poincare.s": self_s.get("spaces.poincare_constant", 0.0),
        "spaces.self_s": layer_self["spaces"],
        "scheme.steps": calls.get("scheme.step", 0),
        "scheme.newton_iters": iters,
        "scheme.newton_per_step": _ratio(iters, calls.get("scheme.step", 0)),
        "scheme.picard.calls": calls.get("scheme._solve_picard", 0),
        "scheme.residual.calls": calls.get("scheme._StepSystem.residual", 0),
        "scheme.residual_per_iter": _ratio(calls.get("scheme._StepSystem.residual", 0), iters),
        "scheme.assemble.s": grp_self("scheme.assemble"),
        "scheme.newton.s": grp_self("scheme.newton"),
        "scheme.factor.calls": factors,
        "scheme.factor.s": total_s.get("scheme.splu", 0.0),
        "scheme.factor.per_iter": _ratio(factors, iters),
        "scheme.factor.fill_nnz": _ratio(values.get("scheme.splu", 0), factors),
        "scheme.lu_solve.calls": calls.get("scheme.lu_solve", 0),
        "scheme.lu_solve.s": total_s.get("scheme.lu_solve", 0.0),
        "scheme.monitor.s": grp_self("scheme.monitor"),
        "scheme.step_ms.p50": float(np.percentile(steps_ms, 50)) if steps_ms else 0.0,
        "scheme.step_ms.p98": float(np.percentile(steps_ms, 98)) if steps_ms else 0.0,
        "scheme.self_s": layer_self["scheme"],
        "verify.members": sum(1 for k, s in enumerate(names)
                              if s == "scheme.run" and under_verify(k)),
        "verify.self_s": layer_self["verify"],
        "cli.output.files": calls.get("cli._atomic_write", 0),
        "cli.output.bytes": values.get("cli._atomic_write", 0),
        "cli.output.s": grp_self("cli.output"),
        "cli.self_s": layer_self["cli"],
        "other.s": other,
        "other.share": _ratio(other, wall_s),
    }
    assert list(m) == [name for name, _, _ in PER_LAYER]
    return m
