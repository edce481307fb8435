"""Thermal lag evaluator: exactness, convexity, and the threshold level."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from gridcap.errors import NonPositiveTau
from gridcap.thermal import (
    filter_coefficients,
    overload_threshold_equivalence,
)
from oracles import SamplePath, uniform_grid, xi_map


@pytest.mark.parametrize("dt,tau", [(0.1, 0.5), (0.01, 2.0), (0.5, 0.1)])
def test_filter_coefficients_match_quadrature(dt, tau):
    # The weights are the exact response integrals for a linear input.
    q, c1, c2 = filter_coefficients(dt, tau)
    kern = lambda s: np.exp(-(dt - s) / tau) / tau
    w_total, _ = quad(kern, 0.0, dt)
    w_ramp, _ = quad(lambda s: (s / dt) * kern(s), 0.0, dt)
    assert np.isclose(q, np.exp(-dt / tau), rtol=1e-13)
    assert np.isclose(c2, w_ramp, rtol=1e-10)
    assert np.isclose(c1, w_total - w_ramp, rtol=1e-10)


def test_filter_coefficients_at_overflowing_ratio_are_the_exact_limits():
    # dt / tau overflows to inf; q = c1 = 0 and c2 = 1 are then exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert filter_coefficients(0.005, 1e-320) == (0.0, 0.0, 1.0)


def test_filter_coefficients_at_zero_ratio_are_the_exact_limits():
    # dt = 0 leaves c2 = 1 - em / x at 0/0; q = 1 and c1 = c2 = 0 are the exact
    # limits, and the entries with x > 0 keep the bits of the plain formula
    dt = np.array([0.0, 5e-324, 1e-9, 0.1, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, c1, c2 = filter_coefficients(dt, 0.5)
        assert filter_coefficients(0.0, 0.5) == (1.0, 0.0, 0.0)
    em = -np.expm1(-dt[1:] / 0.5)
    assert (q[0], c1[0], c2[0]) == (1.0, 0.0, 0.0)
    assert np.array_equal(c2[1:], 1.0 - em / (dt[1:] / 0.5))
    assert np.array_equal(c1[1:], em - c2[1:]) and np.array_equal(q[1:], 1.0 - em)


def test_filter_coefficients_form_convex_weights():
    for dt, tau in [(1e-9, 1.0), (1e-3, 0.5), (0.2, 0.2), (50.0, 1.0)]:
        q, c1, c2 = filter_coefficients(dt, tau)
        assert q >= 0 and c1 >= 0 and c2 >= 0
        assert np.isclose(q + c1 + c2, 1.0, rtol=1e-12)


def test_filter_weights_sum_to_one_within_a_rounding():
    # The Monte Carlo kernel's grace for skipped lines assumes non-negative
    # weights whose exact sum lies within u = 2^-53 of 1.
    rng = np.random.default_rng(8)
    ratios = np.concatenate([np.logspace(-320, 4, 600), rng.uniform(0.0, 3.0, 300), 10 ** rng.uniform(-20, -12, 300)])
    for x in ratios:
        weights = [float(w) for w in filter_coefficients(float(x), 1.0)]
        assert min(weights) >= 0.0, x
        assert abs(sum(map(Fraction, weights)) - 1) <= Fraction(1, 2**53), x


def test_small_step_coefficients_stable():
    # Tiny dt/tau must not lose the weights to cancellation.
    q, c1, c2 = filter_coefficients(1e-9, 1.0)
    assert np.isclose(c1, 0.5e-9, rtol=1e-4)
    assert np.isclose(c2, 0.5e-9, rtol=1e-4)


def test_constant_current_is_a_fixed_point():
    times = uniform_grid(1.0, 20)
    cur = SamplePath(times, np.full((21, 1), 0.8))
    theta = xi_map(cur, 0.5)
    assert np.allclose(theta.values, 0.64, atol=1e-15)


def test_exact_for_piecewise_linear_squared_input():
    # Against a high-accuracy ODE solve of tau Theta' = u - Theta with the
    # same piecewise-linear u = Y^2.
    rng = np.random.default_rng(2)
    times = uniform_grid(1.0, 16)
    u = rng.uniform(0.0, 1.5, times.shape[0])
    cur = SamplePath(times, np.sqrt(u)[:, None])
    tau = 0.37
    theta = xi_map(cur, tau, theta0=0.25)
    sol = solve_ivp(
        lambda t, y: (np.interp(t, times, u) - y) / tau,
        (0.0, 1.0),
        [0.25],
        t_eval=times,
        rtol=1e-11,
        atol=1e-13,
        max_step=times[1] - times[0],
    )
    assert np.allclose(theta.values[:, 0], sol.y[0], atol=1e-8)


def test_default_initial_temperature_is_squared_start():
    times = uniform_grid(1.0, 4)
    cur = SamplePath(times, np.linspace(0.6, 1.0, 5)[:, None])
    theta = xi_map(cur, 0.5)
    assert theta.values[0, 0] == 0.36


def test_temperature_stays_in_convex_hull_of_inputs():
    rng = np.random.default_rng(11)
    times = uniform_grid(2.0, 200)
    Y = rng.normal(0.0, 1.0, (201, 3))
    cur = SamplePath(times, Y)
    u = Y**2
    theta = xi_map(cur, [0.2, 0.5, 1.5]).values
    run_max = np.maximum.accumulate(u, axis=0)
    run_min = np.minimum.accumulate(u, axis=0)
    assert np.all(theta <= run_max + 1e-12)
    assert np.all(theta >= run_min - 1e-12)


def test_threshold_level_closes_the_loop():
    # A constant current at exactly alpha, started from Theta(0) = nu^2,
    # reaches temperature 1 at the horizon.
    nu, tau, T = -0.3, 0.5, 1.0
    a = float(overload_threshold_equivalence(nu, tau, T))
    times = uniform_grid(T, 64)
    cur = SamplePath(times, np.full((65, 1), a))
    theta = xi_map(cur, tau, theta0=nu**2)
    assert np.isclose(theta.values[-1, 0], 1.0, atol=1e-12)
    assert np.all(theta.values[:-1, 0] < 1.0)


def test_threshold_level_properties():
    nu = np.array([-0.9, -0.5, 0.0, 0.5, 0.9])
    a = overload_threshold_equivalence(nu, 0.5, 1.0)
    assert a.shape == nu.shape
    assert np.all(a > 1.0)
    assert np.allclose(a, a[::-1])  # even in nu
    # monotone decreasing in |nu|
    assert a[2] == a.max()
    # tau -> 0 brings the threshold down to the current limit
    tiny = overload_threshold_equivalence(0.5, 1e-8, 1.0)
    assert np.isclose(float(tiny), 1.0, atol=1e-12)
    big = overload_threshold_equivalence(0.5, 1e4, 1.0)
    assert float(big) > 50.0


def test_threshold_level_finite_for_huge_tau():
    # 1 - exp(-T/tau) rounds to zero for tau = 1e308; alpha must stay finite
    # and the thermal module must not warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        a = overload_threshold_equivalence(np.array([-0.5, 0.0, 0.9]), 1e308, 1.0)
    assert np.all(np.isfinite(a))
    assert np.all(a > 1.0)


@pytest.mark.parametrize("tau", [0.1, 0.5, 2.0, 10.0])
def test_threshold_level_matches_direct_formula(tau):
    nu = np.array([-0.9, -0.3, 0.0, 0.5])
    q = np.exp(-1.0 / tau)
    direct = np.sqrt((1.0 - nu**2 * q) / (1.0 - q))
    assert np.allclose(overload_threshold_equivalence(nu, tau, 1.0), direct, rtol=1e-14, atol=0.0)


def test_nonpositive_tau_rejected():
    times = uniform_grid(1.0, 4)
    cur = SamplePath(times, np.zeros((5, 1)))
    with pytest.raises(NonPositiveTau):
        xi_map(cur, 0.0)
    with pytest.raises(NonPositiveTau):
        overload_threshold_equivalence(0.3, -1.0, 1.0)


def test_temperature_path_read_only():
    times = uniform_grid(1.0, 4)
    theta = xi_map(SamplePath(times, np.ones((5, 1))), 0.5)
    with pytest.raises(ValueError):
        theta.values[0, 0] = 2.0
