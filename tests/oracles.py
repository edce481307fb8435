"""Independent reference computations used by the test suite.

Everything here is built from first principles with generic numerical
methods (dense quadratic programming, banded eigensolvers, root finding) so
that agreement with the library is evidence, not circularity. The only
shared ingredient is the path-cost quadrature `rate_functional`, which every
discrete-vs-closed-form comparison prices paths with, so that they converge.

The per-path forms of what the package computes in batches live here too,
because no code in the package runs them and the tests compare against
them. `simulate_ou` steps one OU path at a time and `xi_map` runs the
thermal recursion along one current path; the batched Monte Carlo kernel
shares only the random streams and the step weights with them.
`build_incidence` forms the incidence matrix A that the flow assembly never
forms, so the transfer matrix can be checked as the product Dbeta A Bg.
`shoot`, `attaining_shot`, `functional_value` and `euler_residual` check
the exact-rate engine from the variational side: a shot from given initial
slopes, the shot that lands from a result's discrete optimum, the action of
a temperature path by quadrature of its own integrand, and the residual of
the stationarity system. The package integrates no ODE. `_refine` is the
shooting route to the optimum: a 2-D Newton iteration on theta(T) = 1 and
the transversality condition u(T) = 0, over DOP853 shots that carry their
forward sensitivities (`_integrate`). The shots themselves are integrated
by a plain DOP853 integration of the reduced system (`_integrate_reduced`)
with its dense output, and sampled on a uniform grid as `SampledShot`.
They raise this module's own `NegativeRadicand`, `DegenerateF` and
`BlowUp`. `SamplePath`, the path on
a uniform time grid that these oracles take and return, lives here too, as
no code in the package reads one.

The closed forms behind the rates that the package prices live here too:
the reachability matrix `m_matrix`, the optimal injection and current paths
(`optimal_paths`, `current_path` on a `uniform_grid`), and the endpoint
calculus `taylor_phi` of the first-order temperature correction. They share
`_m_diag` and `_line_variance` with `ld_rates`, so the tests can check the
action and the tau-correction that `psi` and `taylor_decay_rate` price.

The dense slice and partition references are the exception: they are the
straightforward full-grid and every-line forms of `risk_partition` and
`slice2d`, sharing the slice geometry and the clipping step, so that the
library's shortcuts can be required to give bit-identical results. So is
the full-width Monte Carlo kernel, which shares the random streams and the
step coefficients and prices every replicate at every step.

`reference_json_text` is the plain recursive JSON writer, one isinstance
chain per value; the exporters' writer must match its bytes, and
`reference_partition_csv`, which walks every cell of a partition's label
grid, must match the partition CSV that walks only the labeled ones. Likewise
`reference_laplacian` is the line-by-line Laplacian and `reach_bound` the
Monte Carlo path-box bound written as one expression; the library's
vectorized and in-place forms must match their bits.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.optimize import brentq

from gridcap.errors import EmptySlice, NoBoundaryHit, NoStochasticLines, RankDeficiency
from gridcap._streams import normal_block
from gridcap.exact1d import Exact1dProblem, Exact1dResult
from gridcap.grid_model import GridNetwork, _readonly
from gridcap.injections import OuModel, ou_step_coefficients
from gridcap.ld_rates import PsiContext, _line_variance, _m_diag
from gridcap.region import (
    RegionSummary,
    RiskPartition,
    _clip_half_plane,
    _polygon_area,
    _slice_geometry,
)
from gridcap.thermal import filter_coefficients


class NegativeRadicand(ArithmeticError):
    """The combination tau*theta' + theta went non-positive, so the square
    root in the temperature functional is undefined."""


class DegenerateF(ArithmeticError):
    """The shooting trajectory's f component collapsed toward zero, which is
    a singularity of the variational system."""


class BlowUp(ArithmeticError):
    """A shooting trajectory left the configured bounding box."""


@dataclass(frozen=True)
class SamplePath:
    """Values of an m-dimensional path on a uniform time grid.

    `times` has n+1 strictly increasing, equally spaced entries starting at
    0; `values` is (n+1, m), row k holding the state at times[k].
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = _readonly(self.times)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        values = _readonly(values)
        if times.ndim != 1 or times.shape[0] < 2:
            raise ValueError("need at least two grid points")
        if values.shape[0] != times.shape[0]:
            raise ValueError("one value row per grid point required")
        steps = np.diff(times)
        if not np.all(steps > 0):
            raise ValueError("grid must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("grid must be uniform")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def step_count(self) -> int:
        return self.times.shape[0] - 1


def uniform_grid(horizon: float, step_count: int) -> np.ndarray:
    if step_count < 1:
        raise ValueError("step_count must be at least 1")
    return np.linspace(0.0, horizon, step_count + 1)


def simulate_ou(model: OuModel, step_count: int, seed: int, replicate: int = 0) -> SamplePath:
    """Sample one path of the mean-reverting model with exact transitions.

    Deterministic given (seed, replicate): the noise block is indexed by
    (step, coordinate) inside that replicate's own stream.
    """
    times = uniform_grid(model.horizon, step_count)
    decay, std = ou_step_coefficients(model, times[1] - times[0])
    z = normal_block(seed, replicate, step_count, model.m)
    dev = np.empty((step_count + 1, model.m))
    dev[0] = 0.0
    for k in range(step_count):
        dev[k + 1] = dev[k] * decay + std * z[k]
    return SamplePath(times, model.mean + dev)


def rate_functional(path: SamplePath, model: OuModel) -> float:
    """Discretized action of a path under the model's OU drift and volatilities.

    The derivative is a forward difference on each interval and the drift
    gamma (mu - g) is evaluated at the interval's trapezoid average of the two
    endpoint states; for this affine drift that equals the trapezoid rule on
    the drift itself, which keeps the quadrature second-order accurate.
    Every rate oracle in the test suite reuses this exact discretization.
    """
    g = path.values
    dt = path.step
    diff = (g[1:] - g[:-1]) / dt
    mid = 0.5 * (g[1:] + g[:-1])
    resid = (diff - model.gamma * (model.mean - mid)) / model.vol
    return float(0.5 * np.sum(resid**2) * dt)


def xi_map(current: SamplePath, tau, theta0=None) -> SamplePath:
    """Advance the thermal lag along a normalized current path; temperatures on its grid.

    Parameters
    ----------
    current : SamplePath
        Normalized line currents, values (n+1, L).
    tau : scalar or array (L,)
        Thermal time constants.
    theta0 : scalar or array (L,), optional
        Initial temperatures; defaults to the squared initial currents,
        the stationary value for a system that sat at its start point.
    """
    u = current.values**2
    n1, L = u.shape
    q, c1, c2 = filter_coefficients(current.step, np.broadcast_to(np.asarray(tau, dtype=float), (L,)))
    theta = np.empty((n1, L))
    theta[0] = u[0] if theta0 is None else np.broadcast_to(np.asarray(theta0, dtype=float), (L,))
    for k in range(n1 - 1):
        theta[k + 1] = q * theta[k] + c1 * u[k] + c2 * u[k + 1]
    return SamplePath(current.times, theta)


def build_incidence(network: GridNetwork) -> np.ndarray:
    """Oriented edge-vertex incidence matrix A.

    Row ell has +1 at the line's tail i and -1 at its head j. For a
    connected graph the kernel of A is spanned by the all-ones vector.
    """
    A = np.zeros((network.line_count, network.node_count))
    for ell, (i, j) in enumerate(network.lines):
        A[ell, i] = 1.0
        A[ell, j] = -1.0
    return A


def constrained_quadratic_rate(ctx, line, a, n):
    """Cheapest discrete path cost for line `line` to reach level `a` at T.

    Minimizes the same quadrature `rate_functional` uses, over all paths on
    an (n+1)-point uniform grid starting at the mean, subject to the single
    linear constraint that the line's normalized current ends at `a`.
    Returns (cost, path) with path of shape (n+1, m).

    The quadratic is assembled per coordinate: with step d and midpoint
    drift, interval k contributes ((x_{k+1}-x_k)/d + g(x_k+x_{k+1})/2
    - g mu)^2 * d / (2 l^2), a quadratic form in the stacked interior
    variables; the start value is pinned at mu. A single KKT system gives
    the global minimizer (the form is positive definite).
    """
    ou = ctx.ou
    m = ou.m
    T = ou.horizon
    d = T / n
    gamma = np.asarray(ou.gamma)
    vol = np.asarray(ou.vol)
    mu = np.asarray(ou.mean)
    C_row = ctx.flow.stochastic_block[line]
    target = a - ctx.op.y[line]

    size = n * m
    H = np.zeros((size, size))
    f = np.zeros(size)
    const = 0.0
    for i in range(m):
        ap = 1.0 / d + gamma[i] / 2.0
        am = -1.0 / d + gamma[i] / 2.0
        w = d / vol[i] ** 2
        # residual r_k = ap*x_{k+1} + am*x_k - gamma*mu, k = 0..n-1
        # variable index of x_{k} (k>=1) for coordinate i: i*n + (k-1)
        base = i * n
        for k in range(n):
            c = -gamma[i] * mu[i]
            if k == 0:
                c += am * mu[i]
                idx = [base]
                coef = [ap]
            else:
                idx = [base + k - 1, base + k]
                coef = [am, ap]
            for p_, cp in zip(idx, coef):
                f[p_] += w * cp * c
                for q_, cq in zip(idx, coef):
                    H[p_, q_] += w * cp * cq
            const += 0.5 * w * c * c
    H *= 0.5
    # cost(x) = x^T H x + f^T x + const  with H including the 1/2
    A = np.zeros(size)
    for i in range(m):
        A[i * n + n - 1] = C_row[i]
    kkt = np.zeros((size + 1, size + 1))
    kkt[:size, :size] = 2.0 * H
    kkt[:size, size] = A
    kkt[size, :size] = A
    rhs = np.zeros(size + 1)
    rhs[:size] = -f
    rhs[size] = target
    sol = np.linalg.solve(kkt, rhs)
    x = sol[:size]
    cost = float(x @ H @ x + f @ x + const)
    path = np.empty((n + 1, m))
    path[0] = mu
    for i in range(m):
        path[1:, i] = x[i * n : (i + 1) * n]
    return cost, path


def quadrature_cost(ctx, path):
    """Path cost through the library quadrature (consistency cross-check)."""
    n = path.shape[0] - 1
    times = np.linspace(0.0, ctx.ou.horizon, n + 1)
    return rate_functional(SamplePath(times, path), ctx.ou)


def m_matrix(ou: OuModel, t: float, horizon=None) -> np.ndarray:
    """Reachability matrix M_t (diagonal): terminal-variance weights at time t."""
    horizon = ou.horizon if horizon is None else horizon
    if not 0.0 <= t <= horizon:
        raise ValueError("t must lie in [0, horizon]")
    return np.diag(_m_diag(ou, t, horizon))


def _m_diag_derivative(ou: OuModel, t: float, horizon: float) -> np.ndarray:
    g = ou.gamma
    return ou.vol**2 * (1.0 + np.exp(-2.0 * g * t)) * np.exp(g * (t - horizon))


def current_path(ctx: PsiContext, injections_path: SamplePath) -> SamplePath:
    """Map an injection path through the network to normalized line currents."""
    Y = injections_path.values @ ctx.flow.stochastic_block.T + ctx.op.y
    return SamplePath(injections_path.times, Y)


def optimal_paths(ctx: PsiContext, line: int, a: float, step_count: int):
    """Most likely injection path reaching current level a on a line, plus its currents.

    The injection path starts at the mean and ends where the line's current
    is exactly a; its action equals psi(ctx, line, a).
    """
    denom = _line_variance(ctx, line)
    times = uniform_grid(ctx.horizon, step_count)
    mdiags = np.stack([_m_diag(ctx.ou, t, ctx.horizon) for t in times])
    gain = (a - ctx.op.nu[line]) / denom
    X = ctx.ou.mean + gain * mdiags * ctx.flow.stochastic_block[line]
    path = SamplePath(times, X)
    return path, current_path(ctx, path)


@dataclass(frozen=True)
class CurrentEndpoints:
    """Boundary values and slopes of an optimal normalized current path."""

    start: np.ndarray
    end: np.ndarray
    start_slope: np.ndarray
    end_slope: np.ndarray


def optimal_current_endpoints(ctx: PsiContext, line: int, a: float) -> CurrentEndpoints:
    """Endpoint data of the optimal current path toward level a on a line."""
    gain = (a - ctx.op.nu[line]) / _line_variance(ctx, line)
    C, T = ctx.flow.stochastic_block, ctx.horizon
    cl = C[line]
    return CurrentEndpoints(
        start=ctx.op.nu.copy(),
        end=gain * C @ (_m_diag(ctx.ou, T, T) * cl) + ctx.op.nu,
        start_slope=gain * C @ (_m_diag_derivative(ctx.ou, 0.0, T) * cl),
        end_slope=gain * C @ (_m_diag_derivative(ctx.ou, T, T) * cl),
    )


def taylor_phi(ctx: PsiContext, endpoints: CurrentEndpoints) -> float:
    """Endpoint expression Phi whose tau-weighted value corrects the current rate.

    Phi depends on an optimal current path only through its boundary values
    and slopes: Phi = sum_i [K_i(end) - K_i(start)] with
    K_i(f, f') = 1/2 ((Cplus_i f' - b_i(Cplus_i (f - y))) / l_i)^2,
    pulling currents back to injections through the pseudoinverse of C.
    """
    C = ctx.flow.stochastic_block
    gram = C.T @ C
    try:
        cplus = np.linalg.solve(gram, C.T)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiency(template="stochastic block has no left inverse") from exc

    def k_total(f, fp):
        x = cplus @ (f - ctx.op.y)
        resid = (cplus @ fp - ctx.ou.gamma * (ctx.ou.mean - x)) / ctx.ou.vol
        return 0.5 * float(resid @ resid)

    return k_total(endpoints.end, endpoints.end_slope) - k_total(
        endpoints.start, endpoints.start_slope
    )


def certified_temperature_rate(mu, gamma, vol, tau, horizon, n):
    """Globally certified discrete temperature-overload rate, single line.

    Discretizes the current path g on n intervals, expresses the terminal
    temperature through the exact exponential-integrator filter (piecewise
    linear g^2), and minimizes the quadratic path cost subject to the
    temperature reaching 1 at T. The stationarity system (H - 2 lam W)x = h
    is solved along lam and the unique root of the constraint's secular
    equation below lam_crit = min eig(W^{-1/2} H W^{-1/2}) / 2 is a
    certified global minimum of the discretized problem.

    Returns (rate, certified flag).
    """
    a = abs(mu)
    d = horizon / n
    x_ = d / tau
    em = -np.expm1(-x_)
    q = 1.0 - em
    c2 = 1.0 - em / x_
    c1 = em - c2

    w = np.empty(n + 1)
    w[0] = q ** (n - 1) * c1
    for j in range(1, n):
        w[j] = q ** (n - 1 - j) * (c1 + q * c2)
    w[n] = c2
    # theta_T = q^n theta0 + sum_j w_j g_j^2, theta0 = g_0^2 = a^2
    rhs_total = 1.0 - a * a * q**n - w[0] * a * a

    ap = 1.0 / d + gamma / 2.0
    am = -1.0 / d + gamma / 2.0
    scale = d / vol**2
    # J = (scale/2) sum_k (ap g_{k+1} + am g_k - gamma*a)^2, g_0 = a fixed
    # variables g_1..g_n
    Hd = np.empty(n)
    He = np.empty(n - 1)
    h = np.zeros(n)
    Hd[: n - 1] = ap * ap + am * am
    Hd[n - 1] = ap * ap
    He[:] = ap * am
    h[0] = gamma * a * (ap + am) - am * ap * a
    h[1 : n - 1] = gamma * a * (ap + am)
    h[n - 1] = gamma * a * ap
    Hd *= scale
    He *= scale
    h *= scale
    wv = w[1:]

    lam_min = eigh_tridiagonal(
        Hd / wv, He / np.sqrt(wv[:-1] * wv[1:]), select="i", select_range=(0, 0), tol=np.finfo(float).tiny
    )[0][0]
    lam_crit = 0.5 * lam_min

    band = np.empty((3, n))

    def solve_g(lam):
        band[0, 0] = 0.0
        band[0, 1:] = He
        band[1] = Hd - 2.0 * lam * wv
        band[2, :-1] = He
        band[2, -1] = 0.0
        return solve_banded((1, 1), band, h)

    def secular(lam):
        g = solve_g(lam)
        return wv @ (g * g) - rhs_total

    # x^T W x is increasing in lam below lam_crit, so grow the bracket
    # toward lam_crit geometrically
    lo = 0.0
    if secular(lo) > 0.0:
        raise RuntimeError("unconstrained minimum already violates the constraint")
    hi = 0.5 * lam_crit
    for _ in range(80):
        if secular(hi) > 0.0:
            break
        lo = hi
        hi = lam_crit - 0.5 * (lam_crit - hi)
    else:
        raise RuntimeError("constraint root lies above the certification threshold")
    lam_star = brentq(secular, lo, hi, xtol=1e-14)

    g = solve_g(lam_star)
    resid = np.empty(n)
    gprev = np.concatenate(([a], g[:-1]))
    resid = ap * g + am * gprev - gamma * a
    value = 0.5 * scale * float(resid @ resid)
    return value, lam_star < lam_crit


def functional_value(theta_path: SamplePath, problem: Exact1dProblem) -> float:
    """Action of a temperature path, by quadrature of the defining integrand.

    theta must be sampled on a uniform grid with at least three points; the
    derivatives are second-order finite differences. Raises NegativeRadicand
    when tau theta' + theta fails to stay positive, since the integrand takes
    its square root.
    """
    if theta_path.step_count < 2:
        raise ValueError("need at least three grid points")
    theta = theta_path.values[:, 0]
    dt = theta_path.step

    def ddt(v):
        out = np.empty_like(v)
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
        return out

    f = problem.tau * ddt(theta) + theta
    if np.min(f) <= 0.0:
        raise NegativeRadicand(
            f"tau*theta' + theta reaches {np.min(f):.3g}; the current magnitude is undefined"
        )
    g = np.sqrt(f)
    resid = (ddt(g) + problem.gamma * (g - problem.level)) / problem.vol
    return float(0.5 * np.trapezoid(resid**2, dx=dt))


def euler_residual(problem: Exact1dProblem, y, y_prime) -> np.ndarray:
    """Residual of the stationarity system at states y = [theta, f, f', f''].

    Accepts single states (shape (4,)) or stacked rows (n, 4); y_prime holds
    the time derivatives [theta', f', f'', f''']. Component 1 checks the
    definition f = tau theta' + theta, components 2 and 3 the chain
    consistency of the derivatives, and component 4 the quartic stationarity
    condition of the action, in the cubic form

        4 gamma^2 f^3 + 2 tau f^2 f''' - 2 f^2 f'' + f (f')^2 - 4 tau f f' f''
          + 2 tau (f')^3 - 2 gamma^2 mu f^{3/2} (2 f + tau f') = 0

    whose final term vanishes only for mu = 0; dropping it would make the
    constant path f = mu^2 spuriously non-stationary.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    yp = np.atleast_2d(np.asarray(y_prime, dtype=float))
    if y.shape != yp.shape or y.shape[-1] != 4:
        raise ValueError("y and y_prime must both have four components")
    f = y[:, 1]
    if np.min(np.abs(f)) < 1e-12:
        raise DegenerateF("f vanished; the stationarity condition divides by f")
    tau, gam, mu = problem.tau, problem.gamma, problem.level
    d1, d2 = y[:, 2], y[:, 3]
    d3 = yp[:, 3]
    r = np.empty_like(y)
    r[:, 0] = y[:, 1] - tau * yp[:, 0] - y[:, 0]
    r[:, 1] = yp[:, 1] - y[:, 2]
    r[:, 2] = yp[:, 2] - y[:, 3]
    r[:, 3] = (
        4.0 * gam**2 * f**3
        + 2.0 * tau * f**2 * d3
        - 2.0 * f**2 * d2
        + f * d1**2
        - 4.0 * tau * f * d1 * d2
        + 2.0 * tau * d1**3
        - 2.0 * gam**2 * mu * f**1.5 * (2.0 * f + tau * d1)
    )
    return r[0] if r.shape[0] == 1 and np.asarray(y_prime).ndim == 1 else r


#: Trajectories whose state magnitude passes this bound are treated as divergent.
BLOWUP_BOUND = 1e6

#: g below this level counts as a collapse of f = g^2 toward the singularity.
G_FLOOR = 1e-9

#: Newton iterations the refinement may take before it gives up.
NEWTON_STEPS = 8

#: A Newton iterate lands on the boundary once |theta(T) - 1| is this small.
THETA_TOL = 1e-11

#: The refinement also needs the terminal control |u(T)| this small.
CONTROL_TOL = 1e-9

#: Relative and absolute tolerances of every integration of the stationarity system.
ODE_RTOL = 1e-10
ODE_ATOL = 1e-12

_REFUSAL = (
    f"no certified shot inside the |state| < {BLOWUP_BOUND:g} search box reaches the overload level at the horizon"
)


def _integrate(problem: Exact1dProblem, p0: float, e_end: float):
    """Advance (theta, g, p, action) and their sensitivities to the horizon; the solver's result.

    A status other than 0 marks an invalid shot: the collapse event (first
    in `t_events`) or the escape event fired, or the step size failed.

    The rows d(theta, g, p)/dE(T) (4-6) and d(theta, g, p)/dp0 (7-9) are
    integrated in the same call. They carry an infinite absolute tolerance,
    so only the shot itself steers the step size.
    """
    from scipy.integrate import solve_ivp

    tau, gam, a, T = problem.tau, problem.gamma, problem.level, problem.horizon
    l2 = problem.vol**2
    gam2 = gam * gam

    def rhs(t, u):
        th, g, p, _, th_e, g_e, p_e, th_p, g_p, p_p = u.tolist()
        weight = 2.0 * math.exp((t - T) / tau)
        stiffness = gam2 + e_end * weight
        return [
            (g * g - th) / tau, p, gam2 * (g - a) + e_end * weight * g, 0.5 * (p + gam * (g - a)) ** 2 / l2,
            (2.0 * g * g_e - th_e) / tau, p_e, stiffness * g_e + weight * g,
            (2.0 * g * g_p - th_p) / tau, p_p, stiffness * g_p,
        ]

    def collapse(t, u):
        return u[1] - G_FLOOR

    collapse.terminal = True

    def escape(t, u):
        return BLOWUP_BOUND - max(abs(u[1]), abs(u[2]))

    escape.terminal = True

    # d/dp0 starts from (0, 0, 1), d/dE(T) from 0
    y0 = [a * a, a, p0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    # No event bounds the sensitivity rows. Where they overflow (d/dp0 grows
    # like e^{gamma T}), the error norm turns NaN and every step is rejected
    # until the solver stops with status -1 or an event fires; either way the
    # status marks the shot as failed, without a RuntimeWarning.
    with np.errstate(over="ignore", invalid="ignore"):
        return solve_ivp(
            rhs,
            (0.0, T),
            y0,
            method="DOP853",
            rtol=ODE_RTOL,
            atol=[ODE_ATOL] * 4 + [np.inf] * 6,
            events=(collapse, escape),
        )


def _refine(problem: Exact1dProblem, p0: float, e_end: float):
    """2-D Newton on (p0, E(T)) for theta(T) = 1 and the transversality u(T) = 0.

    u = p + gamma (g - |mu|) is the optimal control, which vanishes at a free
    endpoint. Returns (p0, E(T), solver result) once |theta(T) - 1| <=
    THETA_TOL and |u(T)| <= CONTROL_TOL, from the first integration that
    lands. Returns None when an iterate stops being integrable, the Jacobian
    is singular, NEWTON_STEPS run out, or a step no longer lowers the
    residual max(|theta(T) - 1| / THETA_TOL, |u(T)| / CONTROL_TOL): the
    iterates then jitter at the integration's own error, and further steps
    cannot meet the tolerances.
    """
    gam, a = problem.gamma, problem.level
    last = math.inf
    for _ in range(NEWTON_STEPS):
        sol = _integrate(problem, p0, e_end)
        if sol.status != 0:
            return None
        th, g, p, _, th_e, g_e, p_e, th_p, g_p, p_p = sol.y[:, -1]
        resid = np.array([th - 1.0, p + gam * (g - a)])
        size = max(abs(resid[0]) / THETA_TOL, abs(resid[1]) / CONTROL_TOL)
        if size <= 1.0:
            return p0, e_end, sol
        if not size < last:
            return None
        last = size
        jac = np.array([[th_p, th_e], [p_p + gam * g_p, p_e + gam * g_e]])
        try:
            step = np.linalg.solve(jac, resid)
        except np.linalg.LinAlgError:
            return None
        p0, e_end = p0 - step[0], e_end - step[1]
    return None


def _initial_from_shot(problem: Exact1dProblem, x1: float, x2: float):
    """Map (f'(0), f''(0)) to the reduced parameters (p0, E at horizon)."""
    a = problem.level
    p0 = x1 / (2.0 * a)
    e0 = (x2 - 2.0 * p0**2) / (4.0 * a**2)
    return p0, e0 * np.exp(problem.horizon / problem.tau)


#: Intervals on which a shot is sampled.
SHOT_SAMPLES = 400


@dataclass(frozen=True)
class SampledShot:
    """A shot of the stationarity system sampled on SHOT_SAMPLES intervals.

    `states` rows are y = [theta, f, f', f''] on `theta.times`, `state_derivs`
    their time derivatives; `value` is the accumulated action up to the horizon.
    """

    theta: SamplePath
    theta_end: float
    value: float
    states: np.ndarray
    state_derivs: np.ndarray


def _integrate_reduced(problem: Exact1dProblem, p0: float, e_end: float):
    """DOP853 solution of (theta, g, p, action) from (mu^2, |mu|, p0, 0) to the horizon, with dense output.

    theta' = (g^2 - theta)/tau, g' = p, p' = gamma^2 (g - |mu|) + 2 E(T) e^{(t-T)/tau} g,
    and the action accumulates (p + gamma (g - |mu|))^2 / (2 l^2). The
    collapse event (first in `t_events`) stops it where g falls to G_FLOOR,
    the escape event where |g| or |p| reaches BLOWUP_BOUND.
    """
    tau, gam, a, T = problem.tau, problem.gamma, problem.level, problem.horizon
    l2 = problem.vol**2

    def rhs(t, u):
        th, g, p, _ = u
        e = e_end * math.exp((t - T) / tau)
        return [(g * g - th) / tau, p, gam**2 * (g - a) + 2.0 * e * g, 0.5 * (p + gam * (g - a)) ** 2 / l2]

    def collapse(t, u):
        return u[1] - G_FLOOR

    def escape(t, u):
        return BLOWUP_BOUND - max(abs(u[1]), abs(u[2]))

    collapse.terminal = escape.terminal = True
    return solve_ivp(rhs, (0.0, T), [a * a, a, p0, 0.0], method="DOP853", rtol=ODE_RTOL, atol=ODE_ATOL,
                     events=(collapse, escape), dense_output=True)


def _sampled_shot(problem: Exact1dProblem, p0: float, e_end: float) -> SampledShot:
    """Integrate from (p0, E(T)) and sample the dense solution on SHOT_SAMPLES intervals.

    Raises DegenerateF when the squared-current variable collapses to zero
    along the way and BlowUp when the trajectory escapes the bounding box.
    """
    sol = _integrate_reduced(problem, p0, e_end)
    if sol.status != 0:
        if sol.t_events[0].size:  # the collapse event fired
            raise DegenerateF("f collapsed to zero along the shot")
        raise BlowUp(f"trajectory left the |state| < {BLOWUP_BOUND:g} box")
    tau, gam, a, T = problem.tau, problem.gamma, problem.level, problem.horizon
    t = np.linspace(0.0, T, SHOT_SAMPLES + 1)
    th, g, p, cost = sol.sol(t)
    e = e_end * np.exp((t - T) / tau)
    gpp = gam**2 * (g - a) + 2.0 * e * g
    gppp = gam**2 * p + 2.0 * (e / tau) * g + 2.0 * e * p
    f = g**2
    fp = 2.0 * g * p
    fpp = 2.0 * p**2 + 2.0 * g * gpp
    fppp = 6.0 * p * gpp + 2.0 * g * gppp
    return SampledShot(
        theta=SamplePath(t, th[:, None]),
        theta_end=float(th[-1]),
        value=float(cost[-1]),
        states=np.column_stack([th, f, fp, fpp]),
        state_derivs=np.column_stack([(f - th) / tau, fp, fpp, fppp]),
    )


def shoot(problem: Exact1dProblem, x1: float, x2: float) -> SampledShot:
    """Integrate the stationarity system from initial slopes (f'(0), f''(0)).

    Raises DegenerateF when the squared-current variable collapses to zero
    along the way and BlowUp when the trajectory escapes the bounding box.
    """
    return _sampled_shot(problem, *_initial_from_shot(problem, x1, x2))


def attaining_shot(result: Exact1dResult) -> SampledShot:
    """The shot that lands from a result's discrete optimum, integrated and sampled here.

    `_refine` runs its Newton iteration from `result.start`, the extrapolated
    (p0, E(T)), and the landed (p0, E(T)) are integrated again with dense
    output. Neither integration shares code with the package, which
    integrates nothing. Raises NoBoundaryHit where the iteration does not land.
    """
    found = _refine(result.problem, *result.start)
    if found is None:
        raise NoBoundaryHit(_REFUSAL)
    return _sampled_shot(result.problem, found[0], found[1])


def ou_terminal_moments(model: OuModel):
    """Exact mean and variance of each coordinate at the horizon."""
    gamma = np.asarray(model.gamma)
    vol = np.asarray(model.vol)
    mean = np.asarray(model.mean)
    var = model.noise_scale * vol**2 * (-np.expm1(-2.0 * gamma * model.horizon)) / (2.0 * gamma)
    return mean, var


def dense_slice_vertices(region, flow, free, fixed, bbox):
    """Slice polygon clipped by both half-planes of every line's slab, in order.

    Returns the (k, 2) vertices `slice2d` must return, or raises the same
    EmptySlice: a line with no gradient across the slice either pins its
    |nu| outside the bound or is passed over.
    """
    base, du, dv = _slice_geometry(flow, free, fixed)
    umin, umax, vmin, vmax = map(float, bbox)
    poly = [(umin, vmin), (umax, vmin), (umax, vmax), (umin, vmax)]
    for ell in range(flow.line_count):
        r = region.bounds[ell]
        if abs(du[ell]) < 1e-15 and abs(dv[ell]) < 1e-15:
            if abs(base[ell]) >= r:
                raise EmptySlice(
                    ell, f"{{line}} pins |nu| = {abs(base[ell]):.6g} >= bound {r:.6g} across the slice"
                )
            continue
        poly = _clip_half_plane(poly, (du[ell], dv[ell]), r - base[ell])
        poly = _clip_half_plane(poly, (-du[ell], -dv[ell]), r + base[ell])
        if len(poly) < 3:
            raise EmptySlice(ell, "slice became empty while clipping {line}")
    verts = np.asarray(poly, dtype=float)
    if _polygon_area(verts) <= 0.0:
        raise EmptySlice(None, "slice polygon is degenerate")
    return verts


def dense_risk_partition(ctx, free, fixed, bbox, resolution):
    """Risk partition from a (live lines x every cell) rate tensor.

    Evaluates |nu| on the full meshgrid, one line at a time, prices every
    cell for every live line, and scans the whole grid once per label.
    """
    flow = ctx.flow
    base, du, dv = _slice_geometry(flow, free, fixed)
    umin, umax, vmin, vmax = map(float, bbox)
    cell_u = (umax - umin) / resolution
    cell_v = (vmax - vmin) / resolution
    uc = umin + cell_u * (np.arange(resolution) + 0.5)
    vc = vmin + cell_v * (np.arange(resolution) + 0.5)
    U, V = np.meshgrid(uc, vc)

    live = list(ctx.stochastic_lines)
    if not live:
        raise NoStochasticLines("no line couples to the stochastic injections")
    denom = ctx.line_variances
    inside = np.ones_like(U, dtype=bool)
    rates = np.empty((len(live), resolution, resolution))
    for ell in range(flow.line_count):
        nu = np.abs(base[ell] + du[ell] * U + dv[ell] * V)
        inside &= nu < 1.0
        if ell in live:
            with np.errstate(over="ignore"):
                rates[live.index(ell)] = (1.0 - nu) ** 2 / denom[ell]
    if not inside.any():
        raise EmptySlice(None, "no grid cell lies inside the deterministic slice")

    best = np.min(rates, axis=0)
    tie = rates <= best * (1.0 + 1e-9)
    keys = np.packbits(tie, axis=0, bitorder="little")[::-1, inside]
    keys = np.ascontiguousarray(keys.T).view(np.dtype((np.void, keys.shape[0]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    members = tie.reshape(len(live), -1)[:, np.flatnonzero(inside)[first]]
    labels = [tuple(live[i] for i in np.flatnonzero(col)) for col in members.T]
    label_grid = np.full(U.shape, -1, dtype=np.int32)
    label_grid[inside] = inverse

    cell_area = cell_u * cell_v
    summaries = []
    for idx, label in enumerate(labels):
        sel = label_grid == idx
        count = int(np.count_nonzero(sel))
        summaries.append(
            RegionSummary(
                label=label,
                cells=count,
                area=count * cell_area,
                centroid=(float(U[sel].mean()), float(V[sel].mean())),
            )
        )
    summaries.sort(key=lambda s: (-s.cells, s.label))
    return RiskPartition(
        free=(int(free[0]), int(free[1])),
        bbox=(umin, umax, vmin, vmax),
        resolution=resolution,
        u_centers=uc,
        v_centers=vc,
        labels=tuple(labels),
        label_grid=label_grid,
        summaries=tuple(summaries),
    )


def full_width_peaks(ctx, config):
    """Peak squared current and peak temperature of every replicate.

    The Monte Carlo kernel without its box filter: all replicates are drawn
    and stepped as one block, and every line is priced at every step.
    Needs at least two replicates and two lines, so that every matmul runs
    on gemm, as in the library.
    """
    ou = ctx.ou
    n, R = config.step_count, config.replicates
    C = ctx.flow.stochastic_block
    if R < 2 or C.shape[0] < 2:
        raise ValueError("the full-width kernel needs two replicates and two lines")
    dt = ou.horizon / n
    decay, std = ou_step_coefficients(ou, dt)
    q, c1, c2 = filter_coefficients(dt, ctx.tau)
    noise = np.stack([normal_block(config.seed, r, n, ou.m) for r in range(R)], axis=2)
    mu, decay, std, y, q, c1, c2 = (
        np.repeat(np.asarray(c)[:, None], R, axis=1) for c in (ou.mean, decay, std, ctx.op.y, q, c1, c2)
    )
    x = mu
    u = (C @ x + y) ** 2
    theta = u.copy()
    cur = u.max(axis=0)
    tmp = cur.copy()
    for z in noise:
        x = mu + (x - mu) * decay + std * z
        u_next = (C @ x + y) ** 2
        theta = q * theta + c1 * u + c2 * u_next
        u = u_next
        cur = np.maximum(cur, u.max(axis=0))
        tmp = np.maximum(tmp, theta.max(axis=0))
    return cur, tmp


def full_width_indicators(ctx, config, threshold):
    """Current and temperature hits from `full_width_peaks`; a temperature hit needs a current hit."""
    cur, tmp = full_width_peaks(ctx, config)
    th2 = threshold * threshold
    current = cur >= th2
    return current, current & (tmp >= th2)


def reach_bound(x, mu, C, y, threshold, th2):
    """The squared, graced path-box bound that `montecarlo._may_reach` compares with th2."""
    lo = np.minimum(x.min(axis=0), mu)
    hi = np.maximum(x.max(axis=0), mu)
    abs_c = np.abs(C)
    reach = abs_c @ np.maximum(-lo, hi) + np.abs(y) + threshold
    eps = np.finfo(float).eps
    slack = (2 * (C.shape[1] + 4) * eps) * reach
    bound = np.abs(C @ (0.5 * (lo + hi)) + y) + abs_c @ (0.5 * (hi - lo)) + slack
    bound *= bound
    bound *= (1 + 4 * eps) ** (x.shape[0] + 2) if th2 >= 2.0**-900 else np.inf
    return bound


def reference_laplacian(network):
    """Susceptance-weighted Laplacian built one line at a time, in line order."""
    n = network.node_count
    B = np.zeros((n, n))
    for (i, j), beta in zip(network.lines, network.susceptance):
        B[i, j] -= beta
        B[j, i] -= beta
        B[i, i] += beta
        B[j, j] += beta
    return B


def _reference_f17(x) -> str:
    x = float(x)
    # JSON has no literal for inf or nan; CSV refuses them too
    if not math.isfinite(x):
        raise ValueError(f"cannot export the non-finite value {x!r}")
    return format(x, ".17g")


def reference_json_text(obj, indent=0) -> str:
    """Indented JSON text: %.17g floats, flat arrays on one line, nested ones one item per line."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(k)}: {reference_json_text(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(reference_json_text(v) for v in obj) + "]"
        items = [f"{pad}  {reference_json_text(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _reference_f17(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_partition_csv(part) -> str:
    """A risk partition's CSV, one row per labeled cell, written cell by cell over the whole grid."""
    rows = []
    grid = part.label_grid
    for i in range(grid.shape[0]):
        for j in range(grid.shape[1]):
            idx = grid[i, j]
            if idx < 0:
                continue
            label = "+".join(str(ell) for ell in part.labels[idx])
            rows.append(f"{i},{j},{_reference_f17(part.u_centers[j])},{_reference_f17(part.v_centers[i])},{label}")
    return "\n".join(["i,j,u,v,label", *rows]) + "\n"
