"""Count budget of three small fixed runs at n = 9.

Each run builds its own domain, so the one-entry cache of Schur factors
cannot hide a factorization.  Its step count is exact.  Its Newton and CG
iterations, residual evaluations, mean-constrained (saddle) solves and
Schur factorizations may not exceed the budget, the counts the run gave
when the budget was set.  A change that lowers a count lowers its budget
here, and says so in CHANGES.md.
"""

from collections import Counter

import numpy as np
import pytest

from chbs import scheme, spaces
from chbs.domain import build_unit_square
from chbs.monotone import GraphPair, logarithmic_graph, obstacle_graph, polynomial_graph
from chbs.scheme import SchemeConfig, run
from chbs.spaces import FieldPair, project_zero_mean
from chbs.verify import continuous_dependence_experiment


def random_u0(dom, seed, amplitude=0.2):
    """The CLI's random init: zero-mean uniform noise from a Philox seed."""
    rng = np.random.Generator(np.random.Philox(seed))
    noise = FieldPair.from_bulk(dom, 2.0 * rng.random(dom.n_bulk) - 1.0)
    return amplitude * project_zero_mean(noise)


def phase_separating_run(graph):
    def go():
        dom = build_unit_square(9)
        cfg = SchemeConfig(eps=0.02, tau=1e-3, t_end=0.02, graphs=GraphPair(graph, graph))
        traj = run(cfg, random_u0(dom, 3))
        records = traj.records
        assert not traj.aborted and len(records) == 21
    return go


def logarithmic_cont_dep():
    dom = build_unit_square(9)
    log = logarithmic_graph(20.0)
    cfg = SchemeConfig(eps=0.02, tau=1e-3, t_end=0.01, graphs=GraphPair(log, log))
    report = continuous_dependence_experiment(cfg, (random_u0(dom, 3), None),
                                              (random_u0(dom, 4), None))
    assert not report.aborted


# (run, steps, budget)
RUNS = {
    "cubic": (phase_separating_run(polynomial_graph(pi_slope=-40.0)), 20,
              dict(newton=40, cg=99, residual=60, saddle=1, factor=1)),
    "obstacle": (phase_separating_run(obstacle_graph(pi_slope=-40.0)), 20,
                 dict(newton=28, cg=74, residual=48, saddle=1, factor=1)),
    "logarithmic-cont-dep": (logarithmic_cont_dep, 140,
                             dict(newton=226, cg=491, residual=183, saddle=36, factor=3)),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_counts_stay_within_budget(monkeypatch, name):
    go, steps, budget = RUNS[name]
    counts = Counter()

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    solve_step = scheme._solve_step

    def counted_step(*args):
        # one entry per member of a lockstep step: its (iterate, Newton, CG)
        # or the error that ended it
        results = solve_step(*args)
        for result in results:
            if isinstance(result, tuple):
                counts.update(steps=1, newton=result[1], cg=result[2])
        return results

    monkeypatch.setattr(scheme, "_solve_step", counted_step)
    monkeypatch.setattr(scheme._StepSystem, "residual",
                        counting("residual", scheme._StepSystem.residual))
    monkeypatch.setattr(spaces, "_saddle_solve", counting("saddle", spaces._saddle_solve))
    monkeypatch.setattr(scheme, "splu", counting("factor", scheme.splu))
    go()
    assert counts["steps"] == steps
    over = {key: (counts[key], limit) for key, limit in budget.items() if counts[key] > limit}
    assert not over, f"counts above budget (count, budget): {over}; all: {dict(counts)}"
