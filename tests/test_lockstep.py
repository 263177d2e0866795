"""Runs stepped in lockstep give, member for member, the bits of runs alone.

``scheme._run_members`` steps the runs of one (domain, config) together:
one residual, CG iteration and line-search trial serves every member still
iterating.  Each member's trajectory must equal ``run`` on that member
alone in every field of every state, and in its abort flag and error text.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from chbs import scheme
from chbs.domain import build_unit_square
from chbs.errors import StepError
from chbs.monotone import GraphPair, logarithmic_graph, obstacle_graph, polynomial_graph
from chbs.scheme import SchemeConfig, run
from chbs.spaces import FieldPair, project_zero_mean

DOM = build_unit_square(9)
X, Y = DOM.coords[:, 0], DOM.coords[:, 1]
BUMP = FieldPair.from_bulk(DOM, 3.0 * np.cos(2.0 * np.pi * X) * np.cos(np.pi * Y))

GRAPHS = {"cubic": polynomial_graph(-40.0), "logarithmic": logarithmic_graph(20.0),
          "obstacle": obstacle_graph(-40.0)}
# eps^2 < 4 tau gives one complex Schur factor, eps^2 >= 4 tau two real ones
SHIFTS = {"complex-shifts": (0.02, 1e-3), "real-shifts": (0.5, 1e-2)}


def random_u0(seed, amplitude=0.3):
    rng = np.random.Generator(np.random.Philox(seed))
    noise = FieldPair.from_bulk(DOM, 2.0 * rng.random(DOM.n_bulk) - 1.0)
    return amplitude * project_zero_mean(noise)


def growing_bump(t):
    return BUMP * (1.0 + 10.0 * t)


def nan_after(t_bad):
    """A forcing that turns NaN after t_bad, so the member's step fails."""
    nan = FieldPair.from_bulk(DOM, np.full(DOM.n_bulk, np.nan))
    return lambda t: nan if t > t_bad else BUMP


def assert_same_state(a, b):
    for f in fields(b):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(y, FieldPair):
            assert np.array_equal(x.bulk, y.bulk) and np.array_equal(x.boundary, y.boundary)
        elif isinstance(y, np.ndarray):
            assert np.array_equal(x, y)
        else:
            assert x == y or (math.isnan(x) and math.isnan(y)), f.name


def assert_same_trajectory(got, want):
    assert (got.aborted, got.error, got.m0) == (want.aborted, want.error, want.m0)
    assert len(got.states) == len(want.states)
    for a, b in zip(got.states, want.states):
        assert_same_state(a, b)


def assert_lockstep_matches_alone(config, members):
    trajs = scheme._run_members(config, members)
    assert len(trajs) == len(members)
    for traj, (u0, forcing) in zip(trajs, members):
        assert_same_trajectory(traj, run(config, u0, forcing))
    return trajs


@pytest.mark.parametrize("shift", list(SHIFTS))
@pytest.mark.parametrize("graph", list(GRAPHS))
def test_members_match_runs_alone(graph, shift):
    eps, tau = SHIFTS[shift]
    g = GRAPHS[graph]
    config = SchemeConfig(eps=eps, tau=tau, t_end=10 * tau, graphs=GraphPair(g, g))
    # one forced member and one unforced, then three members
    trajs = assert_lockstep_matches_alone(config, [(random_u0(3), growing_bump),
                                                   (random_u0(4), None)])
    assert not any(t.aborted for t in trajs)
    assert_lockstep_matches_alone(config, [(random_u0(7), None), (random_u0(8), growing_bump),
                                           (random_u0(9), None)])


@pytest.mark.parametrize("graph", list(GRAPHS))
def test_member_that_aborts_leaves_its_partner_stepping(graph):
    g = GRAPHS[graph]
    config = SchemeConfig(eps=0.02, tau=1e-3, t_end=0.01, graphs=GraphPair(g, g))
    first, second = assert_lockstep_matches_alone(
        config, [(random_u0(5), None), (random_u0(6), nan_after(0.0055))])
    assert not first.aborted and len(first.states) == 11
    # the NaN load leaves R2 NaN at the step's start, so its Newton ends at once
    assert second.aborted and len(second.states) == 6
    assert second.error.startswith("step 6 (t = 0.006): Newton did not converge in 0 ")


def test_member_with_a_non_finite_start_fails_alone():
    g = GRAPHS["logarithmic"]
    config = SchemeConfig(eps=0.02, tau=1e-3, t_end=0.01, graphs=GraphPair(g, g))
    states = [scheme.initialize(config, random_u0(seed)) for seed in (3, 4)]
    bad = np.full(DOM.n_bulk, np.nan)
    good, failed = scheme._step_rows(states, config, [None, None],
                                     [None, (bad, states[1].mu.bulk)])
    assert_same_state(good, scheme.step(states[0], config, None))
    assert isinstance(failed, StepError)
    assert str(failed) == "nonlinear iterate is not finite at the start of the step"


def test_member_out_of_newton_iterations_leaves_its_partner_stepping():
    # a large step with one Newton iteration: the rough member cannot
    # converge, the constant one converges at its start
    g = GRAPHS["cubic"]
    config = SchemeConfig(eps=0.01, tau=0.5, t_end=1.0, graphs=GraphPair(g, g),
                          newton_max=1)
    rough, flat = assert_lockstep_matches_alone(
        config, [(random_u0(3, amplitude=2.0), None), (FieldPair.constant(DOM, 0.0), None)])
    assert rough.aborted and "did not converge in 1 iterations" in rough.error
    assert not flat.aborted and len(flat.states) == 3


def test_mixed_graphs_and_boundary_parameter():
    config = SchemeConfig(eps=0.05, tau=1e-3, t_end=0.01,
                          graphs=GraphPair(polynomial_graph(), logarithmic_graph(), 3.0))
    assert_lockstep_matches_alone(config, [(random_u0(3, 0.5), None),
                                           (random_u0(4, 0.5), growing_bump)])


def test_member_falling_back_to_picard_matches_its_run_alone(monkeypatch):
    # a CG that stalls for the rows whose first bulk value is positive: those
    # members fall back to Picard alone, the others go on with Newton
    newton_direction = scheme._newton_direction

    def stall_some(system, it, rtol=scheme._CG_RTOL):
        out = newton_direction(system, it, rtol)
        if it.w.ndim == 1:
            return None if it.w[0] > 0.0 else out
        dw, counts = out
        return dw, [-1 if w[0] > 0.0 else n for w, n in zip(it.w, counts)]

    monkeypatch.setattr(scheme, "_newton_direction", stall_some)
    calls = []
    solve_picard = scheme._solve_picard

    def counted(system, it, iters):
        calls.append(it.w.ndim)
        return solve_picard(system, it, iters)

    monkeypatch.setattr(scheme, "_solve_picard", counted)
    g = GRAPHS["cubic"]
    config = SchemeConfig(eps=0.1, tau=1e-3, t_end=0.005, graphs=GraphPair(g, g))
    members = [(random_u0(seed), None) for seed in (3, 4, 5, 6)]
    assert_lockstep_matches_alone(config, members)
    assert calls and set(calls) == {1}


def test_one_member_is_run():
    g = GRAPHS["logarithmic"]
    config = SchemeConfig(eps=0.02, tau=1e-3, t_end=0.005, graphs=GraphPair(g, g))
    (traj,) = scheme._run_members(config, [(random_u0(3), growing_bump)])
    assert_same_trajectory(traj, run(config, random_u0(3), growing_bump))
    assert_same_trajectory(scheme._run_members(replace(config, t_end=0.0),
                                               [(random_u0(3), None)])[0],
                           run(replace(config, t_end=0.0), random_u0(3)))


def test_products_without_the_csr_kernel_give_the_same_bits(monkeypatch):
    # where SciPy's CSR kernel is missing or does not match A @ x, every row
    # product is A @ x itself, to the same bits
    assert scheme._CSR_MATVEC is not None
    g = GRAPHS["logarithmic"]
    config = SchemeConfig(eps=0.02, tau=1e-3, t_end=0.005, graphs=GraphPair(g, g))
    members = [(random_u0(3), growing_bump), (random_u0(4), None)]
    kernel = scheme._run_members(config, members)
    monkeypatch.setattr(scheme, "_CSR_MATVEC", None)
    for got, want in zip(scheme._run_members(config, members), kernel):
        assert_same_trajectory(got, want)
    assert_same_trajectory(run(config, *members[0]), kernel[0])
