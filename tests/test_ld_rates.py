"""Closed-form overload decay rates against a constrained quadratic oracle."""

import numpy as np
import pytest

from conftest import make_context, random_context, single_line_context, wheel_context
from gridcap.errors import NonUniformGamma, ZeroVarianceLine
from gridcap.grid_model import GridNetwork
from gridcap.injections import SamplePath, rate_functional, uniform_grid
from gridcap.ld_rates import (
    alpha,
    current_decay_rate,
    current_path,
    full_report,
    lb_decay_rate,
    line_variances,
    m_matrix,
    m_matrix_derivative,
    optimal_current_endpoints,
    optimal_paths,
    psi,
    taylor_decay_rate,
    taylor_phi,
)
from oracles import constrained_quadratic_rate

# Single line, mu=0.5, gamma=0.5, l=1, tau=0.6, T=1.
SINGLE_IC = 0.1977470883586658
SINGLE_ALPHA = 1.0838092030176434
SINGLE_LB = 0.2695950802167597
SINGLE_TL = 0.3163953413738653
# Triangle with two stochastic nodes at mu=0.3, gamma=1, l=1, T=1.
WHEEL_IC = 1.020048560905205


def test_terminal_variance_kernel_value():
    ctx = single_line_context()
    M = m_matrix(ctx.ou, 1.0)
    assert np.isclose(M[0, 0], 1.2642411176571153, rtol=1e-14)
    assert np.isclose(M[0, 0], (1.0 - np.exp(-1.0)) / 0.5, rtol=1e-14)


def test_kernel_is_diagonal_and_increasing():
    ctx = wheel_context()
    ts = np.linspace(0.05, 1.0, 9)
    vals = [m_matrix(ctx.ou, t, 1.0) for t in ts]
    for M in vals:
        assert np.allclose(M, np.diag(np.diag(M)))
    diags = np.array([np.diag(M) for M in vals])
    assert np.all(np.diff(diags, axis=0) > 0)


def test_kernel_derivative_matches_finite_difference():
    ctx = single_line_context()
    h = 1e-6
    for t in (0.2, 0.5, 0.9):
        fd = (m_matrix(ctx.ou, t + h) - m_matrix(ctx.ou, t - h)) / (2 * h)
        an = m_matrix_derivative(ctx.ou, t)
        assert np.allclose(an, fd, rtol=1e-6)


def test_psi_single_line_against_quadratic_oracle():
    ctx = single_line_context()
    for a in (-1.0, 1.0, -1.4, 0.2):
        cost, _ = constrained_quadratic_rate(ctx, 0, a, 300)
        assert np.isclose(psi(ctx, 0, a), cost, rtol=2e-4)


def test_psi_wheel_against_quadratic_oracle():
    ctx = wheel_context()
    for line, a in [(0, -1.0), (0, 1.0), (1, -1.0), (2, 1.0), (2, -1.0)]:
        cost, _ = constrained_quadratic_rate(ctx, line, a, 300)
        assert np.isclose(psi(ctx, line, a), cost, rtol=2e-4)


def test_psi_random_instance_against_quadratic_oracle():
    rng = np.random.default_rng(17)
    ctx = random_context(rng, max_nodes=5)
    for line in ctx.stochastic_lines:
        for a in (-1.0, 1.0):
            cost, _ = constrained_quadratic_rate(ctx, line, a, 300)
            assert np.isclose(psi(ctx, line, a), cost, rtol=2e-4)


def test_current_rate_single_line_frozen():
    ctx = single_line_context()
    rate, argmin = current_decay_rate(ctx)
    assert np.isclose(rate, SINGLE_IC, rtol=1e-12)
    assert argmin == (0,)
    # the level -1 side is the cheap one for a negative starting current
    assert np.isclose(rate, psi(ctx, 0, -1.0), rtol=1e-14)
    assert psi(ctx, 0, 1.0) > rate


def test_current_rate_wheel_tie():
    ctx = wheel_context()
    rate, argmin = current_decay_rate(ctx)
    assert np.isclose(rate, WHEEL_IC, rtol=1e-12)
    assert argmin == (0, 1)


def test_alpha_and_lower_bound_frozen():
    ctx = single_line_context()
    assert np.isclose(alpha(ctx, 0), SINGLE_ALPHA, rtol=1e-12)
    lb, argmin = lb_decay_rate(ctx)
    assert np.isclose(lb, SINGLE_LB, rtol=1e-12)
    assert argmin == (0,)
    level = alpha(ctx, 0)
    assert np.isclose(lb, psi(ctx, 0, -level), rtol=1e-12)


def test_taylor_rate_frozen_and_identity():
    ctx = single_line_context()
    assert np.isclose(taylor_decay_rate(ctx, 0.6), SINGLE_TL, rtol=1e-12)
    # endpoint expression: Phi equals 2 gamma I_c* at the optimal level
    rate, (line,) = current_decay_rate(ctx)
    ends = optimal_current_endpoints(ctx, line, -1.0)
    phi = taylor_phi(ctx, ends)
    assert np.isclose(phi, 2.0 * 0.5 * rate, rtol=1e-12)
    assert np.isclose(rate + 0.6 * phi, taylor_decay_rate(ctx, 0.6), rtol=1e-12)


def test_phi_identity_on_wheel():
    ctx = wheel_context()
    rate, argmin = current_decay_rate(ctx)
    ends = optimal_current_endpoints(ctx, argmin[0], -1.0)
    assert np.isclose(taylor_phi(ctx, ends), 2.0 * 1.0 * rate, rtol=1e-12)


def test_rate_ordering_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(30):
        ctx = random_context(rng, uniform_gamma=True)
        ic, _ = current_decay_rate(ctx)
        lb, _ = lb_decay_rate(ctx)
        assert ic <= lb + 1e-12
        tl = taylor_decay_rate(ctx, 0.3)
        assert ic <= tl + 1e-12


def test_taylor_requires_uniform_gamma():
    net = GridNetwork(
        node_count=3,
        lines=((0, 1), (0, 2), (1, 2)),
        susceptance=np.ones(3),
        current_rating=np.ones(3),
        thermal_constant=np.full(3, 0.5),
    )
    ctx = make_context(net, 2, [0.3, 0.3], [0.5, 1.0], [1.0, 1.0], 0.1, 1.0)
    with pytest.raises(NonUniformGamma):
        taylor_decay_rate(ctx, 0.5)
    rep = full_report(ctx)
    assert rep.taylor_rate is None
    assert rep.taylor_note


def test_optimal_paths_boundary_and_cost():
    ctx = single_line_context()
    path, cur = optimal_paths(ctx, 0, -1.0, 2000)
    assert np.allclose(path.values[0], ctx.ou.mean)
    assert np.isclose(cur.values[-1, 0], -1.0, atol=1e-9)
    assert np.isclose(rate_functional(path, ctx.ou), SINGLE_IC, rtol=5e-4)


def test_optimal_path_cost_converges_second_order():
    ctx = wheel_context()
    target = psi(ctx, 0, -1.0)
    errs = []
    for n in (250, 1000):
        path, _ = optimal_paths(ctx, 0, -1.0, n)
        errs.append(abs(rate_functional(path, ctx.ou) - target))
    assert errs[0] / errs[1] > 8.0


def test_oracle_minimum_converges_second_order():
    # The discrete minimum approaches the closed form at O(n^-2); the
    # midpoint quadrature may sit on either side of the continuous value.
    ctx = single_line_context()
    target = psi(ctx, 0, -1.0)
    e100 = abs(constrained_quadratic_rate(ctx, 0, -1.0, 100)[0] - target)
    e400 = abs(constrained_quadratic_rate(ctx, 0, -1.0, 400)[0] - target)
    assert e100 / e400 > 8.0
    assert e400 < 1e-6


def test_current_path_is_affine_map():
    ctx = wheel_context()
    times = uniform_grid(1.0, 8)
    rng = np.random.default_rng(0)
    X = SamplePath(times, rng.normal(size=(9, 2)))
    Y = current_path(ctx, X)
    manual = X.values @ ctx.flow.stochastic_block.T + ctx.op.y
    assert np.array_equal(Y.values, manual)


def test_level_monotonicity_beyond_start():
    ctx = single_line_context()
    grid = [1.0, 1.2, 1.5, 2.0]
    vals = [psi(ctx, 0, a) for a in grid]
    assert np.all(np.diff(vals) > 0)
    vals_neg = [psi(ctx, 0, -a) for a in grid]
    assert np.all(np.diff(vals_neg) > 0)


def test_longer_horizon_cannot_increase_psi():
    for t_short in (0.3, 0.6, 0.9):
        long = single_line_context(horizon=1.0)
        short = single_line_context(horizon=t_short)
        assert psi(long, 0, -1.0) <= psi(short, 0, -1.0) + 1e-14


def test_prefix_extension_preserves_path_cost():
    # Sitting at the mean costs nothing, so the optimal short-horizon path
    # extended backwards by a constant segment is a long-horizon candidate
    # with the same cost; the long-horizon optimum can only be cheaper.
    t, T, n = 0.5, 1.0, 1000
    short = single_line_context(horizon=t)
    long = single_line_context(horizon=T)
    path, _ = optimal_paths(short, 0, -1.0, n)
    wait = int(round((T - t) / (t / n)))
    times = uniform_grid(T, n + wait)
    values = np.vstack([np.full((wait, 1), 0.5), path.values])
    extended = SamplePath(times, values)
    cost = rate_functional(extended, long.ou)
    assert np.isclose(cost, psi(short, 0, -1.0), rtol=5e-4)
    assert psi(long, 0, -1.0) <= cost + 1e-9


def test_zero_coupling_line_excluded():
    # A line past a zero-injection node never feels the noise.
    net = GridNetwork(
        node_count=3,
        lines=((0, 1), (1, 2)),
        susceptance=np.ones(2),
        current_rating=np.ones(2),
        thermal_constant=np.full(2, 0.5),
    )
    ctx = make_context(net, 1, [0.4], [0.5], [1.0], 0.1, 1.0, mu_D=[0.0])
    assert ctx.stochastic_lines == (0,)
    with pytest.raises(ZeroVarianceLine):
        psi(ctx, 1, 1.0)
    rep = full_report(ctx)
    assert rep.excluded == (1,)
    assert [row.line for row in rep.lines] == [0]
    rate, argmin = current_decay_rate(ctx)
    assert argmin == (0,)
    assert np.isfinite(rate)
    # Node 3 is a deterministic leaf on the slack, so the noise cannot reach
    # line (0, 3), which sits between two live lines in the report's order.
    net = GridNetwork(
        node_count=4,
        lines=((0, 1), (0, 3), (1, 2)),
        susceptance=np.ones(3),
        current_rating=np.ones(3),
        thermal_constant=np.full(3, 0.5),
    )
    ctx = make_context(net, 2, [0.3, 0.2], [1.0, 1.0], [1.0, 1.0], 0.1, 1.0, mu_D=[0.0])
    rep = full_report(ctx)
    assert rep.excluded == (1,)
    assert [row.line for row in rep.lines] == [0, 2]
    for row in rep.lines:
        assert row.terminals == net.lines[row.line]
        assert row.psi_plus == psi(ctx, row.line, 1.0)
        assert row.psi_minus == psi(ctx, row.line, -1.0)


def test_full_report_is_consistent():
    ctx = wheel_context()
    rep = full_report(ctx)
    assert {row.line for row in rep.lines} == {0, 1, 2}
    denom = line_variances(ctx)
    for row in rep.lines:
        assert np.isclose(row.psi_plus, psi(ctx, row.line, 1.0), rtol=1e-12)
        assert np.isclose(row.psi_minus, psi(ctx, row.line, -1.0), rtol=1e-12)
        assert np.isclose(row.alpha, alpha(ctx, row.line), rtol=1e-12)
        assert row.terminals == ctx.flow.network.lines[row.line]
        assert row.sigma2 > 0
    assert np.isclose(rep.current_rate, WHEEL_IC, rtol=1e-12)
    assert rep.current_argmin == (0, 1)
    assert rep.lb_argmin == (0, 1)
    assert np.isclose(rep.taylor_rate, (1.0 + 2 * 0.5 * 1.0) * WHEEL_IC, rtol=1e-12)
    assert rep.tau0 == 0.5
    assert rep.horizon == 1.0
