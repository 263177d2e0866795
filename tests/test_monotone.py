import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import qmc

from chbs import monotone
from chbs.monotone import (GraphPair, GraphSpec, beta_hat, envelope,
                           logarithmic_graph, minimal_section, obstacle_graph,
                           polynomial_graph, resolvent, yosida, yosida_and_slope)

POLY = polynomial_graph()
LOG = logarithmic_graph()
OBST = obstacle_graph()

#: per kind: (graph, sample window inside the effective domain,
#:            window for the envelope-derivative check away from kinks)
KINDS = {
    "polynomial": (POLY, (-10.0, 10.0), (-5.0, 5.0)),
    "logarithmic": (LOG, (-1.0 + 1e-6, 1.0 - 1e-6), (-0.95, 0.95)),
    "obstacle": (OBST, (-1.0, 1.0), (-0.9, 0.9)),
}


def sobol_points(lo, hi, m=10, seed=7):
    sampler = qmc.Sobol(d=1, scramble=True, seed=seed)
    return lo + (hi - lo) * sampler.random_base2(m=m).ravel()


# --- resolvent -----------------------------------------------------------

def test_resolvent_polynomial_exact_point():
    # j = 1 solves j + j**3 = 2 exactly
    assert resolvent(POLY, 1.0, 2.0) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("g", [POLY, LOG, OBST])
def test_resolvent_fixes_zero(g):
    assert resolvent(g, 0.3, 0.0) == 0.0


def test_resolvent_obstacle_is_projection():
    assert resolvent(OBST, 0.5, 3.0) == 1.0
    assert resolvent(OBST, 2.0, -7.0) == -1.0
    assert resolvent(OBST, 2.0, 0.25) == 0.25


@pytest.mark.parametrize("kind", ["polynomial", "logarithmic"])
@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_resolvent_residual_postcondition(kind, eps):
    g, window, _ = KINDS[kind]
    if kind == "logarithmic":
        # stay where the root is resolvable in double precision: one ulp of
        # j near saturation moves the residual by roughly eps*exp(beta)*1e-16
        window = (-1.0 - eps * 3.0, 1.0 + eps * 3.0)
    r = sobol_points(*window)
    j = resolvent(g, eps, r)
    if kind == "polynomial":
        beta = j ** 3
    else:
        beta = np.log1p(j) - np.log1p(-j)
    resid = np.abs(j + eps * beta - r)
    assert np.all(resid <= 1e-14 * np.maximum(1.0, np.abs(r)))


def test_resolvent_rejects_bad_input():
    with pytest.raises(ValueError):
        resolvent(POLY, 0.0, 1.0)
    with pytest.raises(ValueError):
        resolvent(POLY, 1.0, np.nan)


@given(st.floats(-1e6, 1e6), st.floats(1e-3, 1.0))
@settings(max_examples=200, deadline=None)
def test_resolvent_polynomial_contracts_to_zero(r, eps):
    j = resolvent(POLY, eps, r)
    assert abs(j) <= abs(r) + 1e-12
    assert j * r >= 0.0


@given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(1e-2, 1.0))
@settings(max_examples=200, deadline=None)
def test_resolvent_contraction_pairwise(r1, r2, eps):
    for g in (POLY, OBST):
        d = abs(resolvent(g, eps, r1) - resolvent(g, eps, r2))
        assert d <= abs(r1 - r2) + 1e-10 * max(1.0, abs(r1), abs(r2))


# --- resolvent accuracy at the extremes ----------------------------------

_MAGNITUDE = st.one_of(st.just(0.0), st.floats(1e-300, 1e8))
_EPS_RANGE = st.floats(1e-6, 1.0)


@given(_MAGNITUDE, _MAGNITUDE, _EPS_RANGE)
@settings(max_examples=300, deadline=None)
def test_cubic_resolvent_closed_form_battery(a, b, eps):
    r = np.array([a, -a, b, -b])
    j = resolvent(POLY, eps, r)
    assert np.all(np.abs(eps * j ** 3 + j - r) <= 1e-15 * np.abs(r))
    assert j[1] == -j[0] and j[3] == -j[2]
    # monotone up to one unit in the last place
    (ja, ra), (jb, rb) = sorted([(j[0], a), (j[2], b)], key=lambda p: p[1])
    assert jb >= ja - np.spacing(ja)
    # independent reference: Brent's method on the bracket [0, min(|r|, cbrt(|r|/eps))]
    for jk, rk in zip(j, r):
        if abs(rk) >= 1e-6:
            top = min(abs(rk), np.cbrt(abs(rk) / eps))
            root = brentq(lambda x: eps * x ** 3 + x - abs(rk), 0.0, top,
                          xtol=np.finfo(float).tiny)
            assert abs(abs(jk) - root) <= 1e-13 * root


@given(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)), st.floats(1e-300, 1.0), _EPS_RANGE)
@settings(max_examples=300, deadline=None)
def test_log_resolvent_relative_accuracy(a, b, eps):
    # Newton runs in s = artanh(j), which scales with |r|, so tiny inputs
    # keep their relative accuracy
    r = np.array([a, -a, b, -b])
    j = resolvent(LOG, eps, r)
    beta = np.log1p(j) - np.log1p(-j)
    assert np.all(np.abs(j + eps * beta - r) <= 1e-15 * np.abs(r))
    (ja, ra), (jb, rb) = sorted([(j[0], a), (j[2], b)], key=lambda p: p[1])
    assert jb >= ja - 8.0 * np.spacing(ja)


def _decimal_tanh(s):
    if s < Decimal("1e-10"):  # the series is exact to 60 digits here
        s2 = s * s
        return s * (1 - s2 / 3 + 2 * s2 * s2 / 15)
    e = (-2 * s).exp()  # 1 - e cancels at most 10 of the 60 digits
    return (1 - e) / (1 + e)


def _decimal_log_resolvent(eps, r):
    """Root of tanh(s) + 2*eps*s = |r| to 40 digits, returned as a signed tanh(s)."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, e = abs(Decimal(r)), Decimal(eps)
        s = max(a / (1 + 2 * e), (a - 1) / (2 * e))
        for _ in range(100):
            t = _decimal_tanh(s)
            step = (a - t - 2 * e * s) / ((1 - t) * (1 + t) + 2 * e)
            s += step
            if abs(step) <= s * Decimal("1e-40"):
                return _decimal_tanh(s).copy_sign(Decimal(r))
    raise AssertionError(f"decimal reference did not converge at eps={eps}, r={r}")


_DECIMAL_R = np.array([1e-300, 1e-8, 0.5, 0.999, 1.0, 1.001, 1.5, 3.0, -1e-300, -1e-8, -0.5,
                       -0.999, -1.0, -1.001, -1.5, -3.0])


def _assert_matches_decimal_reference(eps, r, j):
    for jk, rk in zip(j, r):
        ref = _decimal_log_resolvent(eps, rk)
        assert abs((Decimal(jk) - ref) / ref) <= Decimal("4e-16"), (rk, jk, ref)


@pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-2, 0.3, 1.0])
def test_log_resolvent_matches_decimal_reference(eps):
    _assert_matches_decimal_reference(eps, _DECIMAL_R, resolvent(LOG, eps, _DECIMAL_R))


def _warm_starts(j):
    """Starts for the logarithmic resolvent whose cold value is j: the root
    itself, 0, +-1, the largest double below 1, the root with its sign
    flipped, one far below the root, one far above it, and NaN."""
    return {"root": j, "zero": 0.0, "one": 1.0, "minus-one": -1.0,
            "below-one": np.nextafter(1.0, 0.0), "flipped": -j, "far-below": 1e-3 * j,
            "far-above": np.copysign(1.0 - 1e-3 * (1.0 - np.abs(j)), j), "nan": np.nan}


@pytest.mark.parametrize("start", list(_warm_starts(0.5)))
@pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-2, 0.3, 1.0])
def test_warm_log_resolvent_matches_decimal_reference(eps, start):
    r = _DECIMAL_R
    j = resolvent(LOG, eps, r, start=_warm_starts(resolvent(LOG, eps, r))[start])
    _assert_matches_decimal_reference(eps, r, j)


def test_warm_log_resolvent_resolves_a_root_far_below_a_small_start():
    # the tangent step from 1e-8 rounds by about 1e-24; were it left above
    # the root 1e-300 the iteration could not come down to it
    r = np.array([1e-300, 1e-20, 1e-12])
    for start in (1e-8, 3e-9, 1e-10):
        assert np.array_equal(resolvent(LOG, 0.02, r, start=start), resolvent(LOG, 0.02, r))


@pytest.mark.parametrize("r", [1.5, -1.5, 3.0, -3.0])
def test_log_resolvent_saturates_with_finite_slope(r):
    # s = artanh(j) is about (|r| - 1)/(2 eps) = 2.5e5 or more, where tanh is 1.0
    eps = 1e-6
    assert resolvent(LOG, eps, r) == math.copysign(1.0, r)
    j, xi, slope = yosida_and_slope(LOG, eps, r)
    assert j == math.copysign(1.0, r)
    assert math.isfinite(xi) and slope == 1.0 / eps


def test_log_resolvent_resolves_tiny_inputs():
    # beta(j) = 2j to first order, so j = r/(1 + 2 eps) for tiny r
    for r in (1e-146, 1e-300, -1e-20):
        assert resolvent(LOG, 0.02, r) == pytest.approx(r / 1.04, rel=1e-14)


# --- logarithmic graph near its endpoints ----------------------------------

#: sorted points r = +-1 + offsets, from one side of the domain or the other
_NEAR_ENDPOINT = st.tuples(st.sampled_from([-1.0, 1.0]),
                           st.lists(st.floats(-1e-2, 1e-2), min_size=2, max_size=16)
                           ).map(lambda t: np.sort(t[0] + np.array(t[1])))
_LOG_EPS = st.floats(-6.0, 0.0).map(lambda p: 10.0 ** p)


@given(_NEAR_ENDPOINT, _LOG_EPS)
@settings(max_examples=300, deadline=None)
def test_log_yosida_monotone_and_lipschitz_near_endpoints(r, eps):
    y = yosida(LOG, eps, r)
    # (r - J)/eps carries a few units of rounding in r, amplified by 1/eps
    tol = 8.0 * np.finfo(float).eps * np.max(np.abs(r)) / eps
    dy, dr = np.diff(y), np.diff(r)
    assert np.all(dy >= -tol)
    assert np.all(dy <= dr / eps + tol)


@given(_NEAR_ENDPOINT, _LOG_EPS)
@settings(max_examples=300, deadline=None)
def test_log_envelope_below_primitive_near_endpoints(r, eps):
    env = envelope(LOG, eps, r)
    bound = beta_hat(LOG, r)  # +inf outside [-1, 1]
    assert np.all(env >= 0.0)
    assert np.all(env <= bound * (1.0 + 8.0 * np.finfo(float).eps))


@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.5, 1.5)), min_size=1,
                max_size=16), _LOG_EPS)
@settings(max_examples=300, deadline=None)
def test_warm_and_cold_log_resolvents_agree(pairs, eps):
    # r within the window where the root is resolvable in double precision
    x, start = np.array(pairs).T
    r = x * (1.0 + 3.0 * eps)
    cold, warm = resolvent(LOG, eps, r), resolvent(LOG, eps, r, start=start)
    assert np.all(np.abs(warm - cold) <= 4.0 * np.spacing(np.abs(cold)))
    assert np.array_equal(resolvent(LOG, eps, -r), -cold)
    assert np.array_equal(resolvent(LOG, eps, -r, start=start), -warm)
    for j in (cold, warm):
        beta = np.log1p(j) - np.log1p(-j)
        assert np.all(np.abs(j + eps * beta - r) <= 1e-14 * np.maximum(1.0, np.abs(r)))


# --- yosida --------------------------------------------------------------

def test_yosida_trivial_values():
    assert yosida(OBST, 0.5, 3.0) == pytest.approx(4.0, abs=1e-14)
    assert yosida(POLY, 1.0, 2.0) == pytest.approx(1.0, abs=1e-13)
    assert yosida(LOG, 0.1, 0.0) == 0.0


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_yosida_monotone_and_lipschitz(kind, eps):
    g, _, _ = KINDS[kind]
    r = np.sort(sobol_points(-3.0, 3.0))
    y = yosida(g, eps, r)
    slopes = np.diff(y) / np.diff(r)
    assert np.all(slopes >= -1e-9)
    assert np.all(slopes <= 1.0 / eps + 1e-8)


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_yosida_bounded_by_minimal_section(kind, eps):
    g, window, _ = KINDS[kind]
    r = sobol_points(*window)
    assert np.all(np.abs(yosida(g, eps, r)) <= np.abs(minimal_section(g, r)) + 1e-12)


# --- boundary scaling ------------------------------------------------------

def test_yosida_signs_agree_with_boundary():
    pair = GraphPair(bulk=POLY, boundary=OBST, rho=1.0)
    r = sobol_points(-4.0, 4.0, m=8)
    yb = yosida(pair.bulk, 0.3, r)
    yg = yosida(pair.boundary, 0.3 * pair.rho, r)
    assert np.all(yb * yg >= 0.0)


# --- envelope --------------------------------------------------------------

def test_envelope_trivial_values():
    assert envelope(OBST, 0.5, 3.0) == pytest.approx(4.0, abs=1e-14)
    assert envelope(POLY, 1.0, 2.0) == pytest.approx(0.75, abs=1e-13)
    for g in (POLY, LOG, OBST):
        assert envelope(g, 0.2, 0.0) == 0.0


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_envelope_between_zero_and_primitive(kind, eps):
    from chbs.monotone import beta_hat
    g, window, _ = KINDS[kind]
    r = sobol_points(*window)
    env = envelope(g, eps, r)
    assert np.all(env >= 0.0)
    assert np.all(env <= beta_hat(g, r) + 1e-12)


@pytest.mark.parametrize("kind", list(KINDS))
def test_envelope_nonincreasing_in_eps(kind):
    g, window, _ = KINDS[kind]
    r = sobol_points(*window, m=8)
    prev = envelope(g, 0.01, r)
    for eps in (0.05, 0.2, 1.0):
        cur = envelope(g, eps, r)
        assert np.all(cur <= prev + 1e-12)
        prev = cur


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_envelope_derivative_is_yosida(kind, eps):
    g, _, window = KINDS[kind]
    r = sobol_points(*window)
    h = 1e-5
    fd = (envelope(g, eps, r + h) - envelope(g, eps, r - h)) / (2.0 * h)
    assert np.max(np.abs(fd - yosida(g, eps, r))) <= 1e-6


# --- minimal section ---------------------------------------------------------

def test_minimal_section_values():
    assert minimal_section(OBST, 0.7) == 0.0
    assert minimal_section(OBST, 1.0) == 0.0
    assert minimal_section(POLY, -2.0) == -8.0
    assert minimal_section(LOG, 0.5) == pytest.approx(math.log(3.0), abs=1e-12)


def test_minimal_section_domain_errors():
    with pytest.raises(ValueError):
        minimal_section(OBST, 1.5)
    with pytest.raises(ValueError):
        minimal_section(LOG, 1.0)


@pytest.mark.parametrize("kind", list(KINDS))
def test_minimal_section_nondecreasing(kind):
    g, window, _ = KINDS[kind]
    r = np.sort(sobol_points(*window, m=8))
    sec = minimal_section(g, r)
    assert np.all(np.diff(sec) >= -1e-12)


def test_convex_primitive_vanishes_at_origin():
    from chbs.monotone import beta_hat
    for g in (POLY, LOG, OBST):
        assert beta_hat(g, 0.0) == 0.0


def test_log_primitive_at_the_domain_endpoints():
    # (1 -+ r) log(1 -+ r) takes its limit 0 at r = +-1, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = beta_hat(LOG, np.array([-1.0, 1.0, -1.5, 1.5]))
    assert vals[0] == vals[1] == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
    assert np.all(np.isinf(vals[2:]))


@pytest.mark.parametrize("kind", list(monotone._KINDS))
def test_beta_hat_is_finite_exactly_on_the_closed_domain(kind):
    g = GraphSpec(kind, -1.0)
    for end, outward in ((g.domain_lo, -math.inf), (g.domain_hi, math.inf)):
        if math.isfinite(end):
            assert math.isfinite(beta_hat(g, end))
            assert beta_hat(g, np.nextafter(end, outward)) == math.inf
        else:
            assert beta_hat(g, end) == math.inf
    assert beta_hat(g, math.nan) == math.inf


# --- graph spec ----------------------------------------------------------------

def test_graph_spec_equality_includes_pi_slope():
    assert polynomial_graph(-1.0) != polynomial_graph(-40.0)
    assert polynomial_graph(-1.0) == GraphSpec("polynomial", -1.0)
    assert logarithmic_graph(2.0) == GraphSpec("logarithmic", -4.0)


def test_graph_spec_domain_follows_kind():
    assert obstacle_graph().domain_lo == -1.0
    assert polynomial_graph().domain_hi == math.inf
    for kind, domain in (("polynomial", (-math.inf, math.inf)),
                         ("logarithmic", (-1.0, 1.0)), ("obstacle", (-1.0, 1.0))):
        g = GraphSpec(kind, -1.0)
        assert (g.domain_lo, g.domain_hi) == domain


def test_graph_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="quartic"):
        GraphSpec("quartic", 0.0)


# --- graph pair and domination -----------------------------------------------

def test_graph_pair_rejects_uncontained_domain():
    with pytest.raises(ValueError):
        GraphPair(bulk=OBST, boundary=POLY)  # R not inside [-1, 1]
    with pytest.raises(ValueError):
        # closed boundary endpoints on an open bulk domain
        GraphPair(bulk=LOG, boundary=OBST, rho=1.0)


#: the six kind pairs whose domains nest: (bulk, boundary)
ADMISSIBLE = [(POLY, POLY), (POLY, LOG), (POLY, OBST), (LOG, LOG), (OBST, LOG), (OBST, OBST)]


def _admitted(bulk, boundary, rho):
    """The verdict of GraphPair: some c0 exists for the pair at rho."""
    return not (bulk is boundary and bulk is not OBST and rho < 1.0)


def test_graph_pair_validates_domination_constants():
    # a c0 exists iff the bulk section is bounded on the boundary domain, or
    # the kinds agree and rho >= 1: only equal unbounded kinds at rho < 1 fail
    for bulk, boundary in ADMISSIBLE:
        for rho in (0.5, 1.0, 2.0):
            if not _admitted(bulk, boundary, rho):
                with pytest.raises(ValueError, match=(
                        f"{bulk.kind} bulk and a {boundary.kind} boundary graph "
                        f"at rho = {rho}")):
                    GraphPair(bulk=bulk, boundary=boundary, rho=rho)
            else:
                GraphPair(bulk=bulk, boundary=boundary, rho=rho)
    # pairs a sampled check on [-10, 10] let through: cubic tails, logarithmic
    # blow-up near +-1
    for g, rho in ((POLY, 0.999), (LOG, 0.999), (POLY, 1e-300)):
        with pytest.raises(ValueError, match="no c0 gives"):
            GraphPair(bulk=g, boundary=g, rho=rho)
    GraphPair(bulk=POLY, boundary=POLY, rho=1e308)


def _least_c0(bulk, boundary, rho):
    """Least c0 with |beta°| <= rho*|beta_bnd°| + c0 on the boundary domain."""
    if bulk is boundary or bulk is OBST:
        return 0.0
    if boundary is OBST:
        return 1.0  # |r**3| <= 1 on [-1, 1], against a zero boundary section
    # cubic over logarithmic: f(r) = r**3 - rho*ln((1+r)/(1-r)) has f(0) = 0
    # and its one interior maximum on (0, 1) where 3r**2 (1 - r**2) = 2 rho,
    # at x = r**2 the larger root of 3x**2 - 3x + 2 rho = 0; for rho >= 3/8
    # f is nonincreasing on [0, 1)
    if rho >= 3.0 / 8.0:
        return 0.0
    r = math.sqrt(0.5 + math.sqrt(0.25 - 2.0 * rho / 3.0))
    return max(0.0, r ** 3 - rho * math.log((1.0 + r) / (1.0 - r)))


@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01, 1e-3])
@pytest.mark.parametrize("bulk, boundary, rho", [
    (bulk, boundary, rho) for bulk, boundary in ADMISSIBLE
    for rho in (0.1, 0.2, 0.3, 0.5, 1.0, 2.0) if _admitted(bulk, boundary, rho)],
    ids=lambda v: getattr(v, "kind", v))
def test_regularized_domination_within_least_c0(bulk, boundary, rho, eps):
    # the bound carries over to the Yosida graphs at eps and eps*rho, on all of R
    c0 = _least_c0(bulk, boundary, rho)
    near_one = 1.0 + np.outer([-1.0, 1.0], np.logspace(-12.0, -0.5, 400)).ravel()
    r = np.concatenate([np.linspace(-50.0, 50.0, 20001), sobol_points(-50.0, 50.0, m=12),
                        near_one, -near_one])
    yb = np.abs(yosida(bulk, eps, r))
    yg = np.abs(yosida(boundary, eps * rho, r))
    excess = yb - rho * yg - c0
    assert np.all(excess <= 1e-12 * np.maximum(1.0, yb)), float(np.max(excess))


# --- misc -------------------------------------------------------------------

def test_yosida_slope_matches_finite_differences():
    r = sobol_points(-3.0, 3.0, m=7)
    h = 1e-6
    for g, eps in ((POLY, 0.3), (LOG, 0.3), (OBST, 0.3)):
        x = r[np.abs(np.abs(r) - 1.0) > 1e-3] if g is OBST else r  # off the kinks at +-1
        fd = (yosida(g, eps, x + h) - yosida(g, eps, x - h)) / (2.0 * h)
        assert np.max(np.abs(fd - yosida_and_slope(g, eps, x)[2])) < 1e-5


@pytest.mark.parametrize("kind", list(KINDS))
def test_yosida_and_slope_matches_yosida(kind):
    g, window, _ = KINDS[kind]
    r = sobol_points(window[0] - 1.0, window[1] + 1.0, m=7)
    j, xi, slope = yosida_and_slope(g, 0.2, r)
    np.testing.assert_array_equal(j, resolvent(g, 0.2, r))
    np.testing.assert_array_equal(xi, (r - resolvent(g, 0.2, r)) / 0.2)
    assert np.all((slope >= 0.0) & (slope <= 1.0 / 0.2))
    j0, xi0, slope0 = yosida_and_slope(g, 0.2, 0.5)
    assert j0 == resolvent(g, 0.2, 0.5) and xi0 == (0.5 - resolvent(g, 0.2, 0.5)) / 0.2
    assert all(isinstance(x, float) for x in (j0, xi0, slope0))
