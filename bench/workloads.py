"""Benchmark workloads: CLI calls, inputs made from a seed, and output checks.

Each workload is one ``chbs`` subcommand with config files generated from
the benchmark seed.  ``check_outputs`` inspects what a call wrote and
returns a list of problems; an empty list means the call produced a
correct result.  The checks are the CLI's own documented guarantees:
exact mass conservation, nonincreasing energy for zero forcing, no abort,
and every structural check passing.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable

MASS_DRIFT_TOL = 1e-9
ENERGY_INCREMENT_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    """One benchmarked CLI call.

    ``configs(seed)`` returns the config file texts passed as ``--config``
    in order.  ``steps`` is the number of accepted time steps summed over
    every member run of one call (0 for ``check``); ``snapshots`` the number
    of snapshot files a ``run`` call writes.
    """

    name: str
    command: str
    n: int
    steps: int
    snapshots: int
    configs: Callable[[int], list]


def _config(n, eps, tau, t_end, graph, graph_keys, seed, stride, amplitude=0.2):
    return (f"[mesh]\nn = {n}\n\n"
            f"[scheme]\neps = {eps!r}\ntau = {tau!r}\nt_end = {t_end!r}\n\n"
            f"[graphs]\nbulk = {graph}\nboundary = {graph}\n{graph_keys}\n"
            f"[init]\npreset = random\namplitude = {amplitude!r}\nseed = {seed}\n\n"
            f"[output]\nstride = {stride}\n")


def _cubic_n17(seed):
    # phase-separating, so every seed takes about 3 Newton iterations per
    # step; in the decaying regime of the default pi_slope the switch from 2
    # iterations to 1 depends on the seed and moves the work by +-15%
    return [_config(17, 0.02, 1e-3, 0.1, "polynomial", "pi_slope = -40.0\n", seed, 20)]


def _obstacle_n65(seed):
    # pi_slope -40 exceeds the first Laplacian eigenvalue (about pi^2), so
    # phases separate; the Yosida slope 1/eps = 50 > 40 keeps u bounded
    return [_config(65, 0.02, 1e-3, 0.025, "obstacle", "pi_slope = -40.0\n", seed, 5)]


def _contdep_log_n17(seed):
    # two configs that differ only in the init seed; log_c 20 separates
    # phases and 1/eps = 50 > 2*log_c bounds them
    return [_config(17, 0.02, 1e-3, 0.015, "logarithmic", "log_c = 20.0\n", s, 50)
            for s in (seed, seed + 1)]


def _check_n49(seed):
    # appendix_checks fixes its own sampling seed, so the seed is unused
    return ["[mesh]\nn = 49\n"]


# why each workload exists, and what it should show, is in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("cubic-n17", "run", 17, 100, 6, _cubic_n17),
    Workload("obstacle-n65", "run", 65, 25, 6, _obstacle_n65),
    Workload("contdep-log-n17", "cont-dep", 17, 210, 0, _contdep_log_n17),
    Workload("check-n49", "check", 49, 0, 0, _check_n49),
)}


def write_inputs(workload, seed, work_dir):
    """Write the config files of one call; return the CLI argument list."""
    argv = [workload.command]
    for k, text in enumerate(workload.configs(seed)):
        path = os.path.join(work_dir, f"input_{k}.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        argv += ["--config", path]
    return argv


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_run(workload, out_dir):
    problems = []
    report = _read_rows(os.path.join(out_dir, "report.csv"))[0]
    if report["aborted"] != "0":
        problems.append("run aborted")
    if int(report["steps"]) != workload.steps:
        problems.append(f"{report['steps']} steps, expected {workload.steps}")
    rows = _read_rows(os.path.join(out_dir, "monitors.csv"))
    if len(rows) != workload.steps + 1:
        problems.append(f"monitors.csv has {len(rows)} records, expected {workload.steps + 1}")
    mass = [float(r["total_mass"]) for r in rows]
    drift = max(abs(m - mass[0]) for m in mass)
    if not drift <= MASS_DRIFT_TOL:
        problems.append(f"mass drift {drift!r} > {MASS_DRIFT_TOL}")
    energy = [float(r["energy"]) for r in rows]
    rise = max((b - a for a, b in zip(energy, energy[1:])), default=0.0)
    if not rise <= ENERGY_INCREMENT_TOL:
        problems.append(f"energy increment {rise!r} > {ENERGY_INCREMENT_TOL}")
    snaps = [f for f in os.listdir(out_dir) if f.startswith("snapshot_")]
    if len(snaps) != workload.snapshots:
        problems.append(f"{len(snaps)} snapshots, expected {workload.snapshots}")
    return problems


def _check_cont_dep(workload, out_dir):
    problems = []
    with open(os.path.join(out_dir, "report.txt")) as fh:
        if "aborted: no" not in fh.read().splitlines():
            problems.append("report.txt lacks 'aborted: no'")
    ratios = [float(r["sup_ratio"]) for r in _read_rows(os.path.join(out_dir, "report.csv"))]
    if len(ratios) != 3 or not all(math.isfinite(r) and r > 0.0 for r in ratios):
        problems.append(f"sup ratios {ratios} are not three finite positive values")
    return problems


def _check_check(workload, out_dir):
    with open(os.path.join(out_dir, "report.txt")) as fh:
        lines = fh.read().splitlines()
    problems = [line for line in lines if line.startswith("FAIL:")]
    if not lines:
        problems.append("report.txt is empty")
    return problems


_CHECKS = {"run": _check_run, "cont-dep": _check_cont_dep, "check": _check_check}


def check_outputs(workload, out_dir):
    """Problems found in the outputs of one call; empty when correct."""
    try:
        return _CHECKS[workload.command](workload, out_dir)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def output_files(out_dir):
    """Bytes of every file a call wrote, keyed by file name."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files
