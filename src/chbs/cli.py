"""Command-line entry point.

Subcommands: ``run`` (single trajectory), ``eps-study`` (regularization
sweep), ``cont-dep`` (two-config stability experiment), ``check``
(structural checks on the mesh).  Configuration is flat sectioned
``key = value`` text; unknown sections or keys are errors.  Output files
are written atomically (temp file plus rename) into the output directory:
``monitors.csv``, ``snapshot_<step>.csv``, ``report.txt``, ``report.csv``.

Randomness comes only from numpy's counter-based Philox generator seeded
from the config, so identical config and seed give byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import functools
import io
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import verify
from .domain import build_unit_square
from .errors import ChbsError, CompatibilityError, ConfigError
from .monotone import (GraphPair, logarithmic_graph, obstacle_graph,
                       polynomial_graph)
from .scheme import MonitorRecord, SchemeConfig, run
from .spaces import FieldPair, project_zero_mean


_GRAPHS = {
    "polynomial": lambda spec: polynomial_graph(pi_slope=spec.pi_slope),
    "logarithmic": lambda spec: logarithmic_graph(c=spec.log_c),
    "obstacle": lambda spec: obstacle_graph(pi_slope=spec.pi_slope),
}


def _choice(*choices):
    def parse(raw):
        if raw not in choices:
            raise ValueError(raw)
        return raw
    return f"one of {', '.join(choices)}", parse


def _finite(raw):
    """float(raw), rejecting nan and +-inf with a ValueError."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


# value parsers: (what the value must be, raw text -> value or ValueError)
_INT = ("an integer", int)
_FLOAT = ("a finite number", _finite)
_FLOATS = ("a comma-separated list of finite numbers",
           lambda raw: tuple(_finite(v) for v in raw.split(",")))
_TEXT = ("text", str)
_GRAPH = _choice(*_GRAPHS)


# value bounds: (what the parsed value must satisfy, value -> bool)
def _at_least(low):
    return ("must be nonnegative" if low == 0 else f"must be at least {low}",
            lambda value: value >= low)


_EACH_IN_UNIT = ("entries must lie in (0,1]", lambda vals: all(0.0 < v <= 1.0 for v in vals))


def _key(section, key, default, parser, bound=None):
    """A RunSpec field read from ``key`` in ``[section]`` by ``parser`` and
    checked against ``bound``; the declaration of that config key."""
    return field(default=default,
                 metadata={"key": (section, key), "parser": parser, "bound": bound})


@dataclass
class RunSpec:
    """Validated run description.  Each field is the one declaration of its
    config key: section, key, documented default, parser and bound."""

    mesh_n: int = _key("mesh", "n", 9, _INT, _at_least(3))
    eps: float = _key("scheme", "eps", 0.1, _FLOAT)
    tau: float = _key("scheme", "tau", 1e-3, _FLOAT)
    t_end: float = _key("scheme", "t_end", 0.1, _FLOAT)
    newton_tol: float = _key("scheme", "newton_tol", 1e-10, _FLOAT)
    newton_max: int = _key("scheme", "newton_max", 50, _INT)
    eps_list: tuple = _key("scheme", "eps_list", (0.5, 0.25, 0.125, 0.0625), _FLOATS,
                           _EACH_IN_UNIT)
    bulk_kind: str = _key("graphs", "bulk", "polynomial", _GRAPH)
    boundary_kind: str = _key("graphs", "boundary", "polynomial", _GRAPH)
    rho: float = _key("graphs", "rho", 1.0, _FLOAT)
    pi_slope: float = _key("graphs", "pi_slope", -1.0, _FLOAT)
    log_c: float = _key("graphs", "log_c", 1.0, _FLOAT)
    init_preset: str = _key("init", "preset", "constant", _choice("constant", "random", "csv"))
    init_value: float = _key("init", "value", 0.0, _FLOAT)
    init_mean: float = _key("init", "mean", 0.0, _FLOAT)
    init_amplitude: float = _key("init", "amplitude", 0.05, _FLOAT, _at_least(0))
    init_path: Optional[str] = _key("init", "path", None, _TEXT)
    seed: Optional[int] = _key("init", "seed", None, _INT, _at_least(0))
    forcing_preset: str = _key("forcing", "preset", "zero", _choice("zero", "constant", "csv"))
    forcing_value: float = _key("forcing", "value", 0.0, _FLOAT)
    forcing_path: Optional[str] = _key("forcing", "path", None, _TEXT)
    stride: int = _key("output", "stride", 50, _INT, _at_least(1))
    out_dir: str = _key("output", "dir", "out", _TEXT)


# every config key: (section, key) -> its RunSpec field
_KEYS = {f.metadata["key"]: f for f in fields(RunSpec)}
_SECTIONS = {section for section, _ in _KEYS}


def parse_config(text):
    """Parse sectioned key=value text into a validated RunSpec.

    Unknown sections, unknown keys and duplicate keys are errors; parse and
    bound errors carry the line number.  The checks that tie keys together
    follow, and the graph pair and the scheme config are built once to run
    their own checks.
    """
    values = {}
    section = None
    for ln, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {ln}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw_line!r}")
        if section is None:
            raise ConfigError(f"line {ln}: key outside of any section")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if (section, key) not in _KEYS:
            raise ConfigError(f"line {ln}: unknown key '{key}' in section [{section}]")
        f = _KEYS[section, key]
        if f.name in values:
            raise ConfigError(f"line {ln}: duplicate key '{key}' in section [{section}]")
        (what, parse), bound = f.metadata["parser"], f.metadata["bound"]
        try:
            value = parse(raw)
        except ValueError:
            raise ConfigError(f"line {ln}: {key} must be {what}, got {raw!r}") from None
        if bound and not bound[1](value):
            raise ConfigError(f"line {ln}: {key} {bound[0]}, got {raw!r}")
        values[f.name] = value

    spec = RunSpec(**values)
    if spec.init_preset == "random" and spec.seed is None:
        raise ConfigError("seed is required when the random init preset is used")
    if spec.init_preset == "csv" and not spec.init_path:
        raise ConfigError("path is required when the csv init preset is used")
    if spec.forcing_preset == "csv" and not spec.forcing_path:
        raise ConfigError("path is required when the csv forcing preset is used")
    build_scheme_config(spec)
    return spec


def load_config(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {getattr(exc, 'strerror', exc)}") from exc
    return parse_config(text)


# --- building model objects from a spec ------------------------------------

def build_scheme_config(spec):
    try:
        graphs = GraphPair(bulk=_GRAPHS[spec.bulk_kind](spec),
                           boundary=_GRAPHS[spec.boundary_kind](spec),
                           rho=spec.rho)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return SchemeConfig(eps=spec.eps, tau=spec.tau, t_end=spec.t_end,
                        graphs=graphs, newton_tol=spec.newton_tol,
                        newton_max=spec.newton_max)


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_csv(path, types):
    """Rows of a CSV file, each converted by ``types``, one per column.

    Blank lines are skipped, and so is a first non-empty row whose first
    cell is not a number: a header.  An unreadable file, a short row, any
    other row that does not convert (a nan or inf value among them) and a
    row repeating the cells before the last of an earlier row are errors.
    """
    rows = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for k, row in enumerate(filter(None, csv.reader(fh))):
                if len(row) >= len(types):
                    try:
                        vals = tuple(t(v) for t, v in zip(types, row))
                    except ValueError:
                        if k == 0 and not _is_number(row[0]):
                            continue  # header row
                    else:
                        if vals[:-1] in rows:
                            raise ConfigError(f"{path}: duplicate row {row!r}")
                        rows[vals[:-1]] = vals
                        continue
                raise ConfigError(f"{path}: malformed row {row!r}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {getattr(exc, 'strerror', exc)}") from exc
    return list(rows.values())


def build_initial(spec, dom):
    if spec.init_preset == "constant":
        return FieldPair.constant(dom, spec.init_value)
    if spec.init_preset == "random":
        rng = np.random.Generator(np.random.Philox(spec.seed))
        noise = FieldPair.from_bulk(dom, 2.0 * rng.random(dom.n_bulk) - 1.0)
        return spec.init_mean * FieldPair.constant(dom, 1.0) \
            + spec.init_amplitude * project_zero_mean(noise)
    values = np.zeros(dom.n_bulk)
    seen = np.zeros(dom.n_bulk, dtype=bool)
    for node, value in _read_csv(spec.init_path, (int, _finite)):
        if not 0 <= node < dom.n_bulk:
            raise ConfigError(f"{spec.init_path}: node {node} out of range, "
                              f"mesh has {dom.n_bulk} bulk nodes")
        values[node] = value
        seen[node] = True
    if not seen.all():
        raise ConfigError(f"{spec.init_path}: missing {int((~seen).sum())} bulk nodes")
    return FieldPair.from_bulk(dom, values)


def build_forcing(spec, dom):
    """Forcing callable t -> FieldPair, or None for zero forcing.

    CSV tables hold (t, node, value) rows with piecewise-constant-in-time
    semantics; node ids 0..n_bulk-1 address bulk nodes and ids
    n_bulk..n_bulk+n_boundary-1 address boundary-chain positions.
    """
    if spec.forcing_preset == "zero":
        return None
    if spec.forcing_preset == "constant":
        value = spec.forcing_value
        return lambda t: FieldPair.constant(dom, value)
    table = {}
    for t, node, value in _read_csv(spec.forcing_path, (_finite, int, _finite)):
        if not 0 <= node < dom.n_bulk + dom.n_boundary:
            raise ConfigError(f"{spec.forcing_path}: node id {node} out of range")
        table.setdefault(t, []).append((node, value))
    times = sorted(table)
    pairs = []
    for t in times:
        values = np.zeros(dom.n_bulk + dom.n_boundary)
        for node, value in table[t]:
            values[node] = value
        pairs.append(FieldPair(values[:dom.n_bulk], values[dom.n_bulk:], dom))
    zero = FieldPair.zeros(dom)

    def forcing(t):
        # table times <= t, up to the rounding of a level's clock: it adds tau
        # once per step and so drifts by about 1e-16 * t per step from k * tau
        k = bisect.bisect_right(times, t + 1e-12 + 1e-9 * abs(t))
        return pairs[k - 1] if k else zero

    return forcing


def _data(spec, dom):
    """Initial pair and forcing callable of a spec."""
    return build_initial(spec, dom), build_forcing(spec, dom)


# --- output helpers ----------------------------------------------------------

def _atomic_write(path, text):
    """Write ``text`` to ``path`` by a rename, with the mode ``open`` would
    give.  A failure removes the temp file; an OSError raises ConfigError."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".tmp_chbs_")
        umask = os.umask(0)  # read only by setting it; the CLI runs one thread
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _rows_csv(columns, rows):
    """CSV text: the ``columns`` header, then one line per row of values.

    Cells are str, int or float; ``csv.writer`` writes a float as repr does,
    so the text round-trips.  numpy integer and float64 scalars write the
    same; a bool would write as True or False, so callers pass int(flag).
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _monitors_csv(records):
    fields = MonitorRecord.fields()
    return _rows_csv(fields, ([getattr(rec, f) for f in fields] for rec in records))


@functools.lru_cache(maxsize=1)
def _snapshot_prefixes(dom):
    """The node, x and y cells of each snapshot row, formatted once per mesh."""
    return [f"{k},{x!r},{y!r}," for k, (x, y) in enumerate(dom.coords.tolist())]


def _snapshot_csv(dom, state):
    """The text ``_rows_csv`` writes for the node, x, y, u and mu columns."""
    u = state.v.bulk + state.m0
    return "node,x,y,u,mu\r\n" + "".join(
        f"{p}{a!r},{m!r}\r\n"
        for p, a, m in zip(_snapshot_prefixes(dom), u.tolist(), state.mu.bulk.tolist()))


# --- subcommands -------------------------------------------------------------

def _setup(args):
    """Specs of the --config files (the defaults without one), the output
    directory, created before any computation, and the mesh of the first spec."""
    specs = [load_config(path) for path in args.config] or [RunSpec()]
    out_dir = args.out or specs[0].out_dir
    try:
        os.makedirs(os.path.abspath(out_dir), exist_ok=True)  # '' is the working directory
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc.strerror}") from exc
    return specs, out_dir, build_unit_square(specs[0].mesh_n)


def _report(args, out_dir, lines, columns, rows):
    """Write report.txt and report.csv, and print the report lines."""
    text = "\n".join(lines)
    _atomic_write(os.path.join(out_dir, "report.txt"), text + "\n")
    _atomic_write(os.path.join(out_dir, "report.csv"), _rows_csv(columns, rows))
    if not args.quiet:
        print(text)


def cmd_run(args):
    specs, out_dir, dom = _setup(args)
    spec = specs[0]
    traj = run(build_scheme_config(spec), *_data(spec, dom))
    _atomic_write(os.path.join(out_dir, "monitors.csv"), _monitors_csv(traj.records))
    last = len(traj.states) - 1
    for k, state in enumerate(traj.states):
        if k % spec.stride == 0 or k == last:
            _atomic_write(os.path.join(out_dir, f"snapshot_{k}.csv"),
                          _snapshot_csv(dom, state))

    mass0 = traj.records[0].total_mass
    drift = max(abs(r.total_mass - mass0) for r in traj.records)
    ok_mass = drift <= 1e-9
    ok_steps = not traj.aborted
    lines = [f"steps: {last}",
             f"final time: {traj.states[-1].t!r}",
             ("PASS" if ok_mass else "FAIL") + f": mass drift {drift!r} <= 1e-09",
             ("PASS" if ok_steps else "FAIL") + ": all steps converged"]
    if traj.aborted:
        lines.append(f"aborted: {traj.error}")
    _report(args, out_dir, lines, ["steps", "final_time", "mass_drift", "aborted"],
            [(last, traj.states[-1].t, drift, int(traj.aborted))])
    return 0 if (ok_mass and ok_steps) else 1


def cmd_eps_study(args):
    specs, out_dir, dom = _setup(args)
    spec = specs[0]
    eps_list = tuple(sorted(spec.eps_list, reverse=True))
    report = verify.vanishing_eps_study(build_scheme_config(spec), eps_list,
                                        *_data(spec, dom))
    columns = report.table.columns
    _report(args, out_dir, report.summary_lines(), columns,
            [[row[c] for c in columns] for row in report.table.rows])
    return 0 if report.passed else 1


def cmd_cont_dep(args):
    (spec1, spec2), out_dir, dom = _setup(args)
    for (section, key), f in _KEYS.items():
        if (section not in ("init", "forcing")
                and getattr(spec1, f.name) != getattr(spec2, f.name)):
            raise ConfigError(f"cont-dep configs may differ only in [init] and "
                              f"[forcing]; '{key}' in [{section}] differs")
    report = verify.continuous_dependence_experiment(
        build_scheme_config(spec1), _data(spec1, dom), _data(spec2, dom))
    _report(args, out_dir, report.summary_lines(), ["tau", "sup_ratio"],
            zip(report.taus, report.sup_ratios))
    return 0 if not report.aborted else 1


def cmd_check(args):
    _, out_dir, dom = _setup(args)
    report = verify.appendix_checks(dom)
    _report(args, out_dir, report.summary_lines(), ["item", "passed", "detail"],
            [(it.name, int(it.passed), it.detail) for it in report.items])
    return 0 if report.passed else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="chbs",
        description="Mass-conserving bulk/boundary phase-field simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command with the numbers of --config files it accepts
    for name, fn, counts in (("run", cmd_run, (1,)),
                             ("eps-study", cmd_eps_study, (1,)),
                             ("cont-dep", cmd_cont_dep, (2,)),
                             ("check", cmd_check, (0, 1))):
        p = sub.add_parser(name)
        p.add_argument("--config", action="append", default=[],
                       help="config file (repeatable for cont-dep)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(fn=fn, config_counts=counts)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if len(args.config) not in args.config_counts:
            allowed = " or ".join(map(str, args.config_counts))
            raise ConfigError(f"{args.command} takes {allowed} --config file(s), "
                              f"got {len(args.config)}")
        return args.fn(args)
    except (ConfigError, CompatibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
