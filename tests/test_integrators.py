"""Stepper tests: phi evaluation, free flow, deterministic local orders via
Richardson ratios against exact linear flows, coupling/contraction, and the
stationary moments of the quadratic case."""

import warnings
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from ulmc import integrators
from ulmc.brownian import BrownianIncrement, BrownianPath, refine, sample_increment
from ulmc.integrators import (
    LAMBDA_MINUS,
    LAMBDA_PLUS,
    STEPPER_SPECS,
    STEPPERS,
    DivergenceError,
    PhaseState,
    SolverConfig,
    euler_step,
    phi0,
    phi1,
    phi2,
    quicsort_step,
    simulate,
    ubu_step,
    _ou_flow,
)
from ulmc.potentials import GradientCounter, QuadraticPotential


class _ZeroForce:
    def gradient(self, x):
        return np.zeros_like(x)


def _phi2_by_rational_taylor(gamma, h, x):
    """Oracle: (exp(-a) + a - 1)/gamma^2 in exact rational arithmetic."""
    a = Fraction(x) * Fraction(gamma) * Fraction(h)
    e = Fraction(0)
    term = Fraction(1)
    for k in range(1, 45):
        e += term
        term *= -a / k
    return float((e + a - 1) / Fraction(gamma) ** 2)


def _phis(gamma, h):
    """phi0, phi1 and phi2 of one (gamma, h) pair at the stage points, e.g. ``phi1_third``."""
    points = {"plus": LAMBDA_PLUS, "minus": LAMBDA_MINUS, "third": 1.0 / 3.0, "one": 1.0}
    return SimpleNamespace(**{
        f"{phi.__name__}_{name}": float(phi(gamma, h, x))
        for phi in (phi0, phi1, phi2)
        for name, x in points.items()
    })


def zero_increment(dt, d):
    """Increment of a path that is identically zero on the interval."""
    return BrownianIncrement(dt, np.zeros(d), np.zeros(d), np.zeros(d))


def _zero_inc_with_halves(h, d):
    inc = zero_increment(h, d)
    return replace(inc, halves=(zero_increment(h / 2, d), zero_increment(h / 2, d)))


# ---------------------------------------------------------------------------
# phi functions


def test_lambda_values():
    assert np.isclose(LAMBDA_PLUS, (3 + np.sqrt(3)) / 6)
    assert np.isclose(LAMBDA_MINUS, (3 - np.sqrt(3)) / 6)
    assert LAMBDA_PLUS + LAMBDA_MINUS == pytest.approx(1.0, abs=1e-15)


def test_phi_bounds_on_grid():
    xs = np.array([LAMBDA_PLUS, LAMBDA_MINUS, 1.0 / 3.0, 1.0])
    for gamma in (0.1, 1.0, 10.0):
        for h in np.linspace(0.01, 1.0, 34):
            p0 = phi0(gamma, h, xs)
            p1 = phi1(gamma, h, xs)
            p2 = phi2(gamma, h, xs)
            assert np.all(p0 >= 0) and np.all(p0 <= 1)
            assert np.all(p1 >= 0) and np.all(p1 <= xs * h * (1 + 1e-12))
            assert np.all(p2 >= 0) and np.all(p2 <= 0.5 * xs**2 * h**2 * (1 + 1e-12))


_STAGE_POINTS = st.sampled_from((LAMBDA_MINUS, 1.0 / 3.0, LAMBDA_PLUS, 1.0))


@given(
    a=st.floats(-12.0, 3.0).map(lambda e: 10.0**e),
    gamma=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    x=_STAGE_POINTS,
)
def test_phi_finite_and_bounded_for_any_gamma_h(a, gamma, x):
    # gamma*h = a from 1e-12 to 1e3; the bounds of test_phi_bounds_on_grid
    h = a / gamma
    p0, p1, p2 = (float(phi(gamma, h, x)) for phi in (phi0, phi1, phi2))
    assert all(np.isfinite((p0, p1, p2)))
    assert 0.0 <= p0 <= 1.0
    assert 0.0 <= p1 <= x * h * (1 + 1e-12)
    assert 0.0 <= p2 <= 0.5 * x**2 * h**2 * (1 + 1e-12)


def test_phi2_stable_for_small_arguments():
    # spans both the series branch and the direct branch
    for gamma, h in ((1e-12, 1.0), (1e-8, 0.5), (1e-5, 1.0), (0.13, 0.01), (2.0, 0.2)):
        for x in (LAMBDA_MINUS, 1.0 / 3.0, 1.0):
            got = float(phi2(gamma, h, x))
            want = _phi2_by_rational_taylor(gamma, h, x)
            assert got == pytest.approx(want, rel=1e-13)


@given(a=st.floats(0.025, 0.035), gamma=st.floats(1e-3, 1e3), x=_STAGE_POINTS)
def test_phi2_continuous_across_series_switch(a, gamma, x):
    # _exprel2 leaves its series for expm1 at gamma*h*x = 0.03
    h = a / (gamma * x)
    assert float(phi2(gamma, h, x)) == pytest.approx(_phi2_by_rational_taylor(gamma, h, x), rel=1e-13)


def test_phi_identities():
    gamma, h = 1.7, 0.3
    xs = np.array([0.25, 0.5, 1.0])
    np.testing.assert_allclose(
        phi0(gamma, h, xs) + gamma * phi1(gamma, h, xs), 1.0, rtol=1e-14
    )
    np.testing.assert_allclose(
        gamma**2 * phi2(gamma, h, xs), xs * gamma * h - gamma * phi1(gamma, h, xs),
        rtol=1e-12,
    )


@given(
    gamma=st.floats(-300.0, -3.0).map(lambda e: 10.0**e),
    h=st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
    x=_STAGE_POINTS,
)
def test_phi2_finite_for_tiny_gamma(gamma, h, x):
    # gamma**2 underflows below gamma ~ 1e-154; phi2 tends to (x*h)**2/2
    a = x * gamma * h
    want = (x * h) ** 2 / 2 * (1 - a / 3 + a**2 / 12)
    got = float(phi2(gamma, h, x))
    assert np.isfinite(got)
    assert got == pytest.approx(want, rel=1e-13 + a**3 / 30)


@pytest.mark.parametrize("gamma", [1.4e154, 1e160, 1.7e308])
def test_phi2_finite_for_huge_gamma(gamma):
    # gamma**2 overflows from gamma ~ 1.34e154; phi2 tends to x*h/gamma (the
    # unused series branch overflows on the way, silently)
    for h in (1e-3, 0.7):
        for x in (LAMBDA_MINUS, 1.0):
            got = float(phi2(gamma, h, x))
            assert got == pytest.approx(x * h / gamma, rel=1e-12)


@pytest.mark.parametrize("gamma, h", [(1.7e308, 10.0), (1e10, 1e300)])
def test_phi2_takes_its_limit_where_x_gamma_h_overflows(gamma, h):
    # exp(-x*gamma*h) is 0 there, so phi2 is x*h/gamma - 1/gamma**2, not inf
    got = float(phi2(gamma, h, LAMBDA_PLUS))
    assert got == pytest.approx(LAMBDA_PLUS * h / gamma - 1.0 / gamma / gamma, rel=1e-12)


_EXTREME_GAMMAS = [1e-300, 1e-160, 1e-10, 1.0, 1e10, 1e150, 1e154, 1.4e154, 1e200, 1e300, 1.7e308]
_EXTREME_HS = [5e-324, 1e-300, 1e-8, 0.05, 10.0, 1e300]
# (function, gamma, h) -> float.hex at x = LAMBDA_PLUS, for calls where an
# intermediate product overflows
_PHI_PINS = {
    (phi0, 1e10, 1e300): "0x0.0p+0",
    (phi1, 1e150, 0.05): "0x1.a2fe76a3f9475p-499",
    (phi1, 1e300, 1e300): "0x1.56e1fc2f8f359p-997",
    (phi2, 1e150, 0.05): "0x1.085c30b30d619p-503",
    (phi2, 1.4e154, 0.05): "0x1.35607a873aaafp-517",
    (phi2, 1e300, 0.05): "0x1.b0ad4d8080116p-1002",
}


def test_phi_functions_are_silent_at_extreme_arguments():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = {
            (phi, gamma, h): float(phi(gamma, h, LAMBDA_PLUS))
            for phi in (phi0, phi1, phi2)
            for gamma in _EXTREME_GAMMAS
            for h in _EXTREME_HS
        }
    for key, want in _PHI_PINS.items():
        assert got[key].hex() == want


def test_phi2_bits_unchanged_while_gamma_squared_is_normal():
    # the plain quotient wherever gamma**2 does not underflow
    xs = np.array([LAMBDA_MINUS, 1.0 / 3.0, LAMBDA_PLUS, 1.0])
    for gamma in (1.5e-154, 1e-100, 1e-8, 0.3, 2.0, 40.0):
        for h in (1e-3, 0.05, 0.7):
            want = integrators._exprel2(xs * gamma * h) / gamma**2
            assert np.array_equal(phi2(gamma, h, xs), want)


# ---------------------------------------------------------------------------
# free flow and determinism


def test_free_flow_quicsort_and_euler_bitwise():
    cfg = SolverConfig(gamma=1.3)
    h = 0.7
    state = PhaseState(np.array([0.4, -1.2]), np.array([1.1, 0.3]))
    inc = zero_increment(h, 2)
    co = _phis(cfg.gamma, h)
    want_x = state.x + co.phi1_one * state.v
    want_v = co.phi0_one * state.v
    for step in (quicsort_step, euler_step):
        out = step(cfg, _ZeroForce(), state, inc)
        assert np.array_equal(out.x, want_x)
        assert np.array_equal(out.v, want_v)


def test_free_flow_ubu():
    cfg = SolverConfig(gamma=1.3)
    h = 0.7
    state = PhaseState(np.array([0.4, -1.2]), np.array([1.1, 0.3]))
    out = ubu_step(cfg, _ZeroForce(), state, _zero_inc_with_halves(h, 2))
    co = _phis(cfg.gamma, h)
    np.testing.assert_allclose(out.x, state.x + co.phi1_one * state.v, rtol=1e-14)
    np.testing.assert_allclose(out.v, co.phi0_one * state.v, rtol=1e-14)


@given(
    gamma=st.floats(-6.0, np.log10(50.0)).map(lambda e: 10.0**e),
    h=st.floats(-6.0, np.log10(7.0)).map(lambda e: 10.0**e),
    u=st.floats(0.1, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_quicsort_without_force_is_the_ou_flow(gamma, h, u, seed):
    # algebraically equal; the two round differently, by a few ulps of the state
    cfg = SolverConfig(gamma=gamma, u=u)
    rng = np.random.default_rng(seed)
    state = PhaseState(rng.standard_normal((8, 4)), rng.standard_normal((8, 4)))
    inc = sample_increment(rng, h, 4, shape=(8,))
    got, want = quicsort_step(cfg, _ZeroForce(), state, inc), _ou_flow(cfg, state, inc)
    for a, b in ((got.x, want.x), (got.v, want.v)):
        scale = max(np.abs(b).max(), np.abs(state.x).max(), np.abs(state.v).max())
        assert np.abs(a - b).max() <= 4 * np.finfo(float).eps * scale


def test_steps_deterministic():
    cfg = SolverConfig(gamma=2.0)
    pot = QuadraticPotential([1.0, 3.0])
    rng = np.random.default_rng(301)
    state = PhaseState(rng.standard_normal(2), rng.standard_normal(2))
    inc = sample_increment(rng, 0.2, 2)
    a = quicsort_step(cfg, pot, state, inc)
    b = quicsort_step(cfg, pot, state, inc)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)


def test_ubu_requires_halves():
    cfg = SolverConfig(gamma=2.0)
    inc = sample_increment(np.random.default_rng(0), 0.2, 2)
    with pytest.raises(ValueError, match="halves"):
        ubu_step(cfg, QuadraticPotential(1.0, d=2), PhaseState(np.zeros(2), np.zeros(2)), inc)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gamma=0.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=1.0, u=-2.0)
    for key in ("gamma", "u"):
        for value in (0.0, -1.0, np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=f"^{key}: must be positive and finite"):
                SolverConfig(**{"gamma": 1.0, "u": 1.0, key: value})
    cfg = SolverConfig(gamma=2.0, u=1.0)
    assert cfg.sigma == pytest.approx(2.0)
    # sigma = sqrt(2*gamma*u) must be finite too
    for gamma, u in ((1.7e308, 1.0), (1e160, 1e160), (1.0, 1.7e308)):
        with pytest.raises(ValueError, match=r"^gamma: 2\*gamma\*u must be finite"):
            SolverConfig(gamma=gamma, u=u)
    assert SolverConfig(gamma=1e160, u=1.0).sigma == pytest.approx(np.sqrt(2e160))


# ---------------------------------------------------------------------------
# deterministic local orders (Richardson ratios against the exact flow of the
# unit quadratic with gamma=2, u=1)


def _local_errors(step, needs_halves=False):
    cfg = SolverConfig(gamma=2.0, u=1.0)
    pot = QuadraticPotential(1.0, d=1)
    a_mat = np.array([[0.0, 1.0], [-1.0, -2.0]])
    s0 = PhaseState(np.array([0.7]), np.array([-0.4]))
    errs = []
    for h in (0.1, 0.05, 0.025, 0.0125):
        inc = _zero_inc_with_halves(h, 1) if needs_halves else zero_increment(h, 1)
        out = step(cfg, pot, s0, inc)
        ref = expm(a_mat * h) @ np.array([s0.x[0], s0.v[0]])
        errs.append(np.linalg.norm(np.array([out.x[0], out.v[0]]) - ref))
    return np.array(errs)


def test_quicsort_local_order_four():
    errs = _local_errors(quicsort_step)
    ratios = errs[:-1] / errs[1:]
    assert np.all(ratios > 14.0) and np.all(ratios < 17.5)


def test_ubu_local_order_three():
    errs = _local_errors(ubu_step, needs_halves=True)
    ratios = errs[:-1] / errs[1:]
    assert np.all(ratios > 7.0) and np.all(ratios < 9.0)


def test_euler_local_order_two():
    errs = _local_errors(euler_step)
    ratios = errs[:-1] / errs[1:]
    assert np.all(ratios > 3.5) and np.all(ratios < 4.5)


# ---------------------------------------------------------------------------
# gradient accounting


def test_gradient_call_counts():
    cfg = SolverConfig(gamma=2.0)
    rng = np.random.default_rng(302)
    state = PhaseState(rng.standard_normal(2), rng.standard_normal(2))
    inc = sample_increment(rng, 0.1, 2)
    inc = replace(inc, halves=tuple(
        sample_increment(rng, 0.05, 2) for _ in range(2)
    ))
    for name, expected in (("quicsort", 2), ("ubu", 1), ("euler", 1)):
        pot = GradientCounter(QuadraticPotential(1.0, d=2))
        STEPPERS[name](cfg, pot, state, inc)
        assert pot.calls == expected == STEPPER_SPECS[name].gradient_evals


# ---------------------------------------------------------------------------
# simulate


def test_simulate_zero_steps():
    cfg = SolverConfig(gamma=1.0)
    init = PhaseState(np.ones(2), np.zeros(2))
    out = simulate(cfg, QuadraticPotential(1.0, d=2), init, BrownianPath(1, 2), [0.0])
    assert len(out) == 1
    np.testing.assert_array_equal(out[0].x, init.x)


def test_simulate_matches_manual_fold():
    cfg = SolverConfig(gamma=2.0)
    pot = QuadraticPotential([1.0, 2.0])
    path = BrownianPath(seed=11, d=2)
    init = PhaseState(np.array([0.5, -0.5]), np.array([0.0, 1.0]))
    traj = simulate(cfg, pot, init, path, [0.0, 0.25, 0.75], stepper="euler")
    s = euler_step(cfg, pot, init, path.increment(0, 0.25))
    s = euler_step(cfg, pot, s, path.increment(1, 0.5))
    np.testing.assert_array_equal(traj[2].x, s.x)
    np.testing.assert_array_equal(traj[2].v, s.v)


class _RecordingPath:
    def __init__(self, inner):
        self.inner = inner
        self.log = []

    def increment(self, index, dt, **kw):
        inc = self.inner.increment(index, dt, **kw)
        self.log.append(inc.w.copy())
        return inc


def test_steppers_consume_identical_increments():
    cfg = SolverConfig(gamma=2.0)
    pot = QuadraticPotential(1.0, d=3)
    init = PhaseState(np.zeros(3), np.zeros(3))
    times = np.linspace(0.0, 1.0, 6)
    logs = []
    for stepper in ("quicsort", "ubu", "euler"):
        path = _RecordingPath(BrownianPath(seed=21, d=3))
        simulate(cfg, pot, init, path, times, stepper=stepper)
        logs.append(np.stack(path.log))
    assert np.array_equal(logs[0], logs[1])
    assert np.array_equal(logs[0], logs[2])


def test_simulate_rejects_bad_partition():
    cfg = SolverConfig(gamma=1.0)
    init = PhaseState(np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError, match="increasing"):
        simulate(cfg, QuadraticPotential(1.0, d=1), init, BrownianPath(0, 1), [0.0, 0.0])


@pytest.mark.parametrize(
    "times, stepper, problem",
    [([], "quicsort", "nonempty 1-d"), ([[0.0, 1.0]], "quicsort", "nonempty 1-d"),
     ([0.0, 1.0], "bogus", "unknown method 'bogus'")],
)
def test_simulate_rejects_bad_arguments(times, stepper, problem):
    cfg = SolverConfig(gamma=1.0)
    init = PhaseState(np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError, match=problem):
        simulate(cfg, QuadraticPotential(1.0, d=1), init, BrownianPath(0, 1), times, stepper=stepper)


@pytest.mark.parametrize("times", [[0.0, np.inf], [0.0, np.nan, 1.0], [-np.inf, 0.0]])
def test_simulate_rejects_non_finite_times(times):
    cfg = SolverConfig(gamma=1.0)
    init = PhaseState(np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError, match="times must be finite"):
        simulate(cfg, QuadraticPotential(1.0, d=1), init, BrownianPath(0, 1), times)


class _NanForce:
    def gradient(self, x):
        return np.full_like(x, np.nan)


def test_simulate_reports_divergence_step():
    cfg = SolverConfig(gamma=1.0)
    init = PhaseState(np.zeros(2), np.zeros(2))
    with pytest.raises(DivergenceError) as err:
        simulate(cfg, _NanForce(), init, BrownianPath(3, 2), [0.0, 0.1, 0.2])
    assert err.value.step == 1
    assert "of quicsort" in str(err.value)


# ---------------------------------------------------------------------------
# contraction and stationarity of the quadratic case


def test_coupled_chains_contract():
    # gamma = 2*sqrt(u*M1) exactly, h below 0.1/gamma: the transformed
    # distance |dv|_L2 + |gamma dx + dv|_L2 must fall at every step past the
    # first.
    rng = np.random.default_rng(303)
    cfg = SolverConfig(gamma=2.0, u=1.0)
    pot = QuadraticPotential(1.0, d=2)
    n = 1000
    h = 0.05
    sa = PhaseState(rng.standard_normal((n, 2)), rng.standard_normal((n, 2)))
    sb = PhaseState(rng.standard_normal((n, 2)) + 1.0, rng.standard_normal((n, 2)) - 0.5)

    def tdist(a, b):
        dv = a.v - b.v
        dz = cfg.gamma * (a.x - b.x) + dv
        return np.sqrt(np.mean(np.sum(dv**2, -1))) + np.sqrt(np.mean(np.sum(dz**2, -1)))

    dist = [tdist(sa, sb)]
    for _ in range(201):
        inc = sample_increment(rng, h, 2, shape=(n,))
        sa = quicsort_step(cfg, pot, sa, inc)
        sb = quicsort_step(cfg, pot, sb, inc)
        dist.append(tdist(sa, sb))
    steps = np.diff(np.array(dist))
    assert np.all(steps[1:] < 0)


def test_stationary_moments_quadratic():
    # unit quadratic, gamma=2, u=1: stationary law is N(0, I) x N(0, I), so
    # E|v|^2 = u*d and E|grad f|^2 = E|x|^2 = d; the discretization bias at
    # h=0.05 is far below the 3% window.
    rng = np.random.default_rng(304)
    d = 5
    cfg = SolverConfig(gamma=2.0, u=1.0)
    pot = QuadraticPotential(1.0, d=d)
    h = 0.05
    st = PhaseState(rng.standard_normal((1000, d)), rng.standard_normal((1000, d)))
    for _ in range(300):
        st = quicsort_step(cfg, pot, st, sample_increment(rng, h, d, shape=(1000,)))
    v_sq, x_sq = [], []
    for i in range(3000):
        st = quicsort_step(cfg, pot, st, sample_increment(rng, h, d, shape=(1000,)))
        if i % 3 == 0:
            v_sq.append(np.mean(np.sum(st.v**2, -1)))
            x_sq.append(np.mean(np.sum(pot.gradient(st.x) ** 2, -1)))
    assert abs(np.mean(v_sq) / (cfg.u * d) - 1.0) < 0.03
    assert abs(np.mean(x_sq) / d - 1.0) < 0.03


# ---------------------------------------------------------------------------
# steppers against their inline formulas, and across batch shapes
#
# The oracles are the stepper formulas written out with every phi product
# formed where it is used, from phi0, phi1 and phi2 (see _phis); the steppers
# read the products from a cached record instead and must agree to the bit.


def _quicsort_oracle(cfg, pot, state, inc):
    co = _phis(cfg.gamma, inc.dt)
    h = inc.dt
    u = cfg.u
    sigma = cfg.sigma
    v1 = state.v + sigma * (inc.h + 6.0 * inc.k)
    c = sigma * (inc.w - 12.0 * inc.k)
    x1 = state.x + co.phi1_minus * v1 + (co.phi2_minus / h) * c
    g1 = pot.gradient(x1)
    x2 = state.x + co.phi1_plus * v1 - co.phi1_third * u * h * g1 + (co.phi2_plus / h) * c
    g2 = pot.gradient(x2)
    v2 = (
        co.phi0_one * v1
        - 0.5 * co.phi0_plus * u * h * g1
        - 0.5 * co.phi0_minus * u * h * g2
        + (co.phi1_one / h) * c
    )
    x_new = (
        state.x
        - 0.5 * co.phi1_plus * u * h * g1
        - 0.5 * co.phi1_minus * u * h * g2
        + co.phi1_one * v1
        + (co.phi2_one / h) * c
    )
    v_new = v2 - sigma * (inc.h - 6.0 * inc.k)
    return PhaseState(x_new, v_new)


def _ou_flow_oracle(cfg, state, inc):
    co = _phis(cfg.gamma, inc.dt)
    jump = inc.h + 6.0 * inc.k
    rate = (inc.w - 12.0 * inc.k) / inc.dt
    conv = co.phi0_one * jump + co.phi1_one * rate + (6.0 * inc.k - inc.h)
    tconv = co.phi1_one * jump + co.phi2_one * rate
    x_new = state.x + co.phi1_one * state.v + cfg.sigma * tconv
    v_new = co.phi0_one * state.v + cfg.sigma * conv
    return PhaseState(x_new, v_new)


def _ubu_oracle(cfg, pot, state, inc):
    left, right = inc.halves
    mid = _ou_flow_oracle(cfg, state, left)
    kicked = PhaseState(mid.x, mid.v - cfg.u * inc.dt * pot.gradient(mid.x))
    return _ou_flow_oracle(cfg, kicked, right)


def _euler_oracle(cfg, pot, state, inc):
    co = _phis(cfg.gamma, inc.dt)
    g = pot.gradient(state.x)
    jump = inc.h + 6.0 * inc.k
    rate = (inc.w - 12.0 * inc.k) / inc.dt
    conv = co.phi0_one * jump + co.phi1_one * rate + (6.0 * inc.k - inc.h)
    tconv = co.phi1_one * jump + co.phi2_one * rate
    x_new = state.x + co.phi1_one * state.v - co.phi2_one * cfg.u * g + cfg.sigma * tconv
    v_new = co.phi0_one * state.v - co.phi1_one * cfg.u * g + cfg.sigma * conv
    return PhaseState(x_new, v_new)


_ORACLES = {
    "quicsort": (quicsort_step, _quicsort_oracle),
    "ubu": (ubu_step, _ubu_oracle),
    "euler": (euler_step, _euler_oracle),
}


def _random_problem(seed, dt, d, shape):
    """A quadratic target, a state and an increment with halves, batch ``shape``."""
    rng = np.random.default_rng(seed)
    pot = QuadraticPotential(rng.uniform(0.2, 5.0, d), center=rng.standard_normal(d))
    state = PhaseState(rng.standard_normal((*shape, d)), rng.standard_normal((*shape, d)))
    inc = sample_increment(rng, dt, d, shape=shape)
    return pot, state, inc.with_halves(refine(inc, rng))


def _map_inc(inc, part):
    """``inc`` with ``part`` applied to every coefficient array, halves included."""
    halves = None if inc.halves is None else tuple(_map_inc(half, part) for half in inc.halves)
    return BrownianIncrement(inc.dt, part(inc.w), part(inc.h), part(inc.k), halves=halves)


_SOLVER = dict(
    gamma=st.floats(0.05, 20.0),
    u=st.floats(0.1, 5.0),
    dt=st.floats(1e-3, 0.5),
    seed=st.integers(0, 2**32 - 1),
    method=st.sampled_from(sorted(_ORACLES)),
)


class _GradientLog:
    """A potential that records the positions its gradient is taken at."""

    def __init__(self, pot):
        self.pot = pot
        self.points = []

    def gradient(self, x):
        self.points.append(x.copy())
        return self.pot.gradient(x)


@settings(max_examples=60)
@given(**_SOLVER, d=st.integers(4, 8))
def test_steppers_equal_inline_formulas(gamma, u, dt, seed, method, d):
    assert _stepper_matches_oracle(gamma, u, dt, seed, method, d, chains=8)


# (gamma, u, h) at which the three-factor products of _step_scalars, all
# quicsort's, round differently when regrouped as p * (u * h) or (p * h) * u
# instead of p * u * h; the random property above meets such points only by
# chance, and together these rows catch every product regrouped either way
_REGROUPING_SENSITIVE = [(0.3, 0.3, 0.45), (0.7, 4.9, 0.1), (17.0, 0.1, 0.3)]
_THREE_FACTOR = {  # field of _StepScalars: (phi value, its constant factor)
    "phi1_third_uh": ("phi1_third", 1.0),
    "half_phi0_plus_uh": ("phi0_plus", 0.5),
    "half_phi0_minus_uh": ("phi0_minus", 0.5),
    "half_phi1_plus_uh": ("phi1_plus", 0.5),
    "half_phi1_minus_uh": ("phi1_minus", 0.5),
}
_REGROUPINGS = {"p * (u * h)": lambda p, u, h: p * (u * h), "(p * h) * u": lambda p, u, h: p * h * u}


@pytest.mark.parametrize("method", sorted(_ORACLES))
@pytest.mark.parametrize("gamma, u, dt", _REGROUPING_SENSITIVE)
def test_steppers_equal_inline_formulas_where_regrouping_shows(gamma, u, dt, method):
    assert _stepper_matches_oracle(gamma, u, dt, seed=11, method=method, d=8, chains=64)


def test_regrouping_table_catches_every_regrouped_product(monkeypatch):
    for field, (phi, factor) in _THREE_FACTOR.items():
        for grouping, regroup in _REGROUPINGS.items():
            caught = []
            for gamma, u, dt in _REGROUPING_SENSITIVE:
                p = factor * getattr(_phis(gamma, dt), phi)
                mutant = integrators._step_scalars(gamma, u, dt)._replace(
                    **{field: integrators._scalar(regroup(p, u, dt))}
                )
                monkeypatch.setattr(integrators, "_step_scalars", lambda *args: mutant)
                caught.append(not _stepper_matches_oracle(gamma, u, dt, 11, "quicsort", 8, chains=64))
                monkeypatch.undo()
            assert any(caught), f"{field} regrouped as {grouping}"


def _stepper_matches_oracle(gamma, u, dt, seed, method, d, chains):
    """Whether the stepper's new state and stage positions equal its oracle's to the bit.

    The stage positions count too: a stage factor rounded differently often
    leaves no trace in the new state.
    """
    cfg = SolverConfig(gamma=gamma, u=u)
    pot, state, inc = _random_problem(seed, dt, d, (chains,))
    step, oracle = _ORACLES[method]
    got_log, want_log = _GradientLog(pot), _GradientLog(pot)
    got, want = step(cfg, got_log, state, inc), oracle(cfg, want_log, state, inc)
    return (
        np.array_equal(got.x, want.x)
        and np.array_equal(got.v, want.v)
        and len(got_log.points) == len(want_log.points)
        and all(np.array_equal(a, b) for a, b in zip(got_log.points, want_log.points))
    )


@settings(max_examples=30)
@given(**_SOLVER)
def test_steppers_rows_bitwise_equal_across_batch_shapes(gamma, u, dt, seed, method):
    cfg = SolverConfig(gamma=gamma, u=u)
    d = 3
    pot, state, inc = _random_problem(seed, dt, d, (5, 7))
    step = _ORACLES[method][0]
    grid = step(cfg, pot, state, inc)
    flat_inc = _map_inc(inc, lambda a: a.reshape(35, d))
    flat = step(cfg, pot, PhaseState(state.x.reshape(35, d), state.v.reshape(35, d)), flat_inc)
    assert np.array_equal(grid.x.reshape(35, d), flat.x)
    assert np.array_equal(grid.v.reshape(35, d), flat.v)
    for i, j in ((0, 0), (2, 5), (4, 6)):
        row_inc = _map_inc(inc, lambda a: a[i, j])
        row = step(cfg, pot, PhaseState(state.x[i, j], state.v[i, j]), row_inc)
        assert row.x.shape == (d,)
        assert np.array_equal(grid.x[i, j], row.x) and np.array_equal(grid.v[i, j], row.v)
