"""Exact temperature overload decay rate for a single stochastic line.

With one mean-reverting injection feeding one line (|C| = 1 so the current
mirrors the injection), the cheapest action that drives the temperature to
its limit at the horizon minimizes

    I(theta) = 1/2 integral ((tau theta'' + theta') / (2 sqrt(tau theta' + theta))
               + gamma sqrt(tau theta' + theta) - gamma mu)^2 / l^2 dt

over theta(0) = mu^2, theta(T) = 1. Writing f = tau theta' + theta (the
squared current) and g = sqrt(f), the integrand is (g' + gamma (g - mu))^2 / l^2
and the stationarity system collapses losslessly: the combination

    E(t) = (g'' - gamma^2 (g - mu)) / (2 g)

obeys tau E' = E, so E(t) = E(T) e^{(t-T)/tau} and the whole boundary value
problem reduces to integrating

    theta' = (g^2 - theta)/tau,   g' = p,   p' = gamma^2 (g - mu) + 2 E(t) g

from (mu^2, mu, p0) and choosing (p0, E(T)) so that theta(T) = 1 at minimal
action. The public shooting parameters are the missing initial data of the
equivalent 4-D system in y = [theta, f, f', f'']: x1 = f'(0), x2 = f''(0),
related bijectively to (p0, E(0)) through f = g^2.

The two conditions on (p0, E(T)) are solved by Newton's method. The forward
sensitivities d(theta, g, p)/dE(T) and d(theta, g, p)/dp0 obey the
linearized system

    s_theta' = (2 g s_g - s_theta)/tau,   s_g' = s_p,
    s_p' = (gamma^2 + 2 E(t)) s_g  [+ 2 e^{(t-T)/tau} g for d/dE(T)]

from s = 0 (d/dE(T)) or s = (0, 0, 1) (d/dp0), and are integrated in the
same DOP853 call as the shot. The first condition is theta(T) = 1. The
second is the transversality condition of the free endpoint: g(T) is not
prescribed and theta(T) does not depend on it pointwise, so the optimal
control u = g' + gamma (g - mu) = p + gamma (g - mu) vanishes at the horizon,
u(T) = 0. A 2-D Newton iteration on both conditions starts from the
optimum of the discretized problem: there theta(T) = 1 is a single quadratic
constraint on a positive definite quadratic action, and the global minimizer
is the root of a 1-D secular equation at which the Lagrangian Hessian is
still positive definite, certified by its Cholesky factorization (More &
Sorensen 1983; Polik & Terlaky, SIAM Review 2007). This is the only path:
where the start is not certified or the iteration does not converge,
`exact_decay_rate` raises NoBoundaryHit rather than search elsewhere.

The cubic form of the stationarity condition, used by `euler_residual`, is

    4 gamma^2 f^3 + 2 tau f^2 f''' - 2 f^2 f'' + f (f')^2 - 4 tau f f' f''
      + 2 tau (f')^3 - 2 gamma^2 mu f^{3/2} (2 f + tau f') = 0

whose final term vanishes only for mu = 0; dropping it would make the
constant path f = mu^2 spuriously non-stationary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, DegenerateF, NegativeRadicand, NoBoundaryHit
from .thermal import TemperaturePath

__all__ = [
    "Exact1dProblem",
    "ShotResult",
    "Exact1dResult",
    "functional_value",
    "euler_residual",
    "shoot",
    "exact_decay_rate",
]

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

#: Intervals of the discretized problem whose certified optimum starts the refinement.
DISCRETE_STEPS = 400

#: Safeguarded Newton steps allowed on the secular equation of the discretized problem.
SECULAR_STEPS = 60


@dataclass(frozen=True)
class Exact1dProblem:
    """Single-line setting: injection mean mu, rate gamma, volatility, lag tau.

    The decay rate is invariant under mu -> -mu (flip the noise), so
    computations use |mu| throughout; mu = 0 is rejected because the start
    then sits on the f = 0 singularity of the variational system.
    """

    mu: float
    gamma: float
    vol: float
    tau: float
    horizon: float

    def __post_init__(self):
        if not 0.0 < abs(self.mu) < 1.0:
            raise ValueError("mu must satisfy 0 < |mu| < 1")
        for name in ("gamma", "vol", "tau", "horizon"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("gamma", "vol"):  # the solver divides by vol^2 and scales by gamma^2
            value = float(getattr(self, name))
            if not 0.0 < value * value < math.inf:
                raise ValueError(f"{name} = {value!r} is out of range: its square is 0 or not finite")

    @property
    def level(self) -> float:
        """|mu|: the common initial value of g and of the current magnitude."""
        return abs(self.mu)


def functional_value(theta_path: TemperaturePath, problem: Exact1dProblem) -> float:
    """Action of a temperature path, by quadrature of the defining integrand.

    theta must be sampled on a uniform grid with at least three points; the
    derivatives are second-order finite differences. Raises NegativeRadicand
    when tau theta' + theta fails to stay positive, since the integrand takes
    its square root.
    """
    times = np.asarray(theta_path.times, dtype=float)
    theta = np.asarray(theta_path.values, dtype=float).reshape(times.shape[0], -1)[:, 0]
    if times.shape[0] < 3:
        raise ValueError("need at least three grid points")
    steps = np.diff(times)
    dt = float(steps[0])
    if not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise ValueError("grid must be uniform")

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
    condition of the action.
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


def _initial_from_shot(problem: Exact1dProblem, x1: float, x2: float):
    """Map (f'(0), f''(0)) to the reduced parameters (p0, E at horizon)."""
    a = problem.level
    p0 = x1 / (2.0 * a)
    e0 = (x2 - 2.0 * p0**2) / (4.0 * a**2)
    return p0, e0 * np.exp(problem.horizon / problem.tau)


def _shot_from_reduced(problem: Exact1dProblem, p0: float, e_end: float):
    a = problem.level
    e0 = e_end * np.exp(-problem.horizon / problem.tau)
    return 2.0 * a * p0, 2.0 * p0**2 + 4.0 * a**2 * e0


def _integrate(
    problem: Exact1dProblem,
    p0: float,
    e_end: float,
    rtol: float,
    atol: float,
    sensitivities: bool = False,
    dense_output: bool = False,
):
    """Advance (theta, g, p, action) to the horizon; None marks an invalid shot.

    With `sensitivities` the rows d(theta, g, p)/dE(T) (4-6) and
    d(theta, g, p)/dp0 (7-9) are integrated in the same call. They carry an
    infinite absolute tolerance, so only the shot itself steers the step size.
    """
    from scipy.integrate import solve_ivp

    tau, gam, a, T = problem.tau, problem.gamma, problem.level, problem.horizon
    l2 = problem.vol**2
    gam2 = gam * gam

    def rhs(t, u):
        u = u.tolist()
        th, g, p = u[0], u[1], u[2]
        weight = 2.0 * math.exp((t - T) / tau)
        du = [(g * g - th) / tau, p, gam2 * (g - a) + e_end * weight * g, 0.5 * (p + gam * (g - a)) ** 2 / l2]
        if sensitivities:
            stiffness = gam2 + e_end * weight
            th_e, g_e, p_e, th_p, g_p, p_p = u[4:]
            du += [(2.0 * g * g_e - th_e) / tau, p_e, stiffness * g_e + weight * g]
            du += [(2.0 * g * g_p - th_p) / tau, p_p, stiffness * g_p]
        return du

    def collapse(t, u):
        return u[1] - G_FLOOR

    collapse.terminal = True

    def escape(t, u):
        return BLOWUP_BOUND - max(abs(u[1]), abs(u[2]))

    escape.terminal = True

    # d/dp0 starts from (0, 0, 1), d/dE(T) from 0
    y0 = [a * a, a, p0, 0.0] + ([0.0, 0.0, 0.0, 0.0, 0.0, 1.0] if sensitivities else [])
    # No event bounds the sensitivity rows. Where they overflow (d/dp0 grows
    # like e^{gamma T}), the error norm turns NaN and every step is rejected
    # until the solver stops with status -1 or an event fires; either way the
    # shot is reported as failed below, without a RuntimeWarning.
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(
            rhs,
            (0.0, T),
            y0,
            method="DOP853",
            rtol=rtol,
            atol=[atol] * 4 + [np.inf] * (len(y0) - 4),
            events=(collapse, escape),
            dense_output=dense_output,
        )
    if sol.status != 0:
        reason = "collapse" if sol.t_events[0].size else "escape"
        return None, reason
    return sol, None


@dataclass(frozen=True)
class ShotResult:
    """One integration of the stationarity system from given initial slopes.

    `states` rows are y = [theta, f, f', f''] on `times`, `state_derivs` their
    time derivatives; `value` is the accumulated action up to the horizon.
    """

    theta: TemperaturePath
    theta_end: float
    value: float
    times: np.ndarray
    states: np.ndarray
    state_derivs: np.ndarray


def _shot_result(problem: Exact1dProblem, sol, e_end: float, samples: int) -> ShotResult:
    """Sample a dense solution of the reduced system as a ShotResult."""
    tau, gam, a, T = problem.tau, problem.gamma, problem.level, problem.horizon
    t = np.linspace(0.0, T, samples + 1)
    th, g, p, cost = sol.sol(t)[:4]
    e = e_end * np.exp((t - T) / tau)
    gpp = gam**2 * (g - a) + 2.0 * e * g
    gppp = gam**2 * p + 2.0 * (e / tau) * g + 2.0 * e * p
    f = g**2
    fp = 2.0 * g * p
    fpp = 2.0 * p**2 + 2.0 * g * gpp
    fppp = 6.0 * p * gpp + 2.0 * g * gppp
    return ShotResult(
        theta=TemperaturePath(t, th[:, None]),
        theta_end=float(th[-1]),
        value=float(cost[-1]),
        times=t,
        states=np.column_stack([th, f, fp, fpp]),
        state_derivs=np.column_stack([(f - th) / tau, fp, fpp, fppp]),
    )


def shoot(
    problem: Exact1dProblem,
    x1: float,
    x2: float,
    samples: int = 400,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> ShotResult:
    """Integrate the stationarity system from initial slopes (f'(0), f''(0)).

    Raises DegenerateF when the squared-current variable collapses to zero
    along the way and BlowUp when the trajectory escapes the bounding box.
    """
    p0, e_end = _initial_from_shot(problem, x1, x2)
    sol, reason = _integrate(problem, p0, e_end, rtol, atol, dense_output=True)
    if sol is None:
        if reason == "collapse":
            raise DegenerateF("f collapsed to zero along the shot")
        raise BlowUp(f"trajectory left the |state| < {BLOWUP_BOUND:g} box")
    return _shot_result(problem, sol, e_end, samples)


def _refine(problem: Exact1dProblem, p0: float, e_end: float):
    """2-D Newton on (p0, E(T)) for theta(T) = 1 and the transversality u(T) = 0.

    u = p + gamma (g - |mu|) is the optimal control, which vanishes at a free
    endpoint. Returns the converged (p0, E(T)), or None when an iterate stops
    being integrable, the Jacobian is singular or the iteration does not
    settle within NEWTON_STEPS.
    """
    gam, a = problem.gamma, problem.level
    for _ in range(NEWTON_STEPS):
        sol, _ = _integrate(problem, p0, e_end, rtol=1e-10, atol=1e-12, sensitivities=True)
        if sol is None:
            return None
        th, g, p, _, th_e, g_e, p_e, th_p, g_p, p_p = sol.y[:, -1]
        resid = np.array([th - 1.0, p + gam * (g - a)])
        if abs(resid[0]) <= THETA_TOL and abs(resid[1]) <= CONTROL_TOL:
            return p0, e_end
        jac = np.array([[th_p, th_e], [p_p + gam * g_p, p_e + gam * g_e]])
        try:
            step = np.linalg.solve(jac, resid)
        except np.linalg.LinAlgError:
            return None
        p0, e_end = p0 - step[0], e_end - step[1]
    return None


def _discrete_start(problem: Exact1dProblem):
    """(p0, E(T)) read off the certified optimum of the discretized problem, or None.

    The current path is sampled as g_k = g(k d), d = T/n, n = DISCRETE_STEPS,
    with g_0 = |mu|. Taking g^2 linear on each step, the exact filter of
    theta' = (g^2 - theta)/tau gives theta(T) = q^n mu^2 + sum_k w_k g_k^2,
    q = e^{-d/tau}, and the midpoint rule gives the action as a positive
    multiple of 1/2 g^T H g - h^T g + const with H = B^T B tridiagonal and
    positive definite. Stationary points on theta(T) = 1 solve
    (H - 2 lam W) g = h, W = diag(w_1..w_n). While H - 2 lam W is positive
    definite, g^T W g grows with lam, and a root of the secular equation
    g^T W g = 1 - q^n mu^2 - w_0 mu^2 there is the global minimizer (S-lemma).
    Each solve factors H - 2 lam W by Cholesky, so a successful solve at the
    root is the certificate; a failed factorization marks lam at or past the
    threshold lam_crit where definiteness ends and lowers the upper end of
    the bracket (0, hi), which starts at +inf. Newton runs on the secular
    equation in the form (g^T W g)^{-1/2}, which is concave in lam below
    lam_crit: its steps approach the root monotonically from above, and a
    step that leaves the bracket bisects it instead.

    p0 = g'(0) and g''(T) come from second-order one-sided differences and
    E(T) = (g''(T) - gamma^2 (g(T) - |mu|)) / (2 g(T)). E is read at the
    horizon rather than at the start because E(0) e^{T/tau} would multiply
    the discretization error by e^{T/tau}. Returns None when no certified
    root is reached within SECULAR_STEPS, or when d/tau is so small that the
    one-step weight c1 rounds to zero or below.
    """
    from scipy.linalg import solveh_banded

    tau, gam, a, T = problem.tau, problem.gamma, problem.level, problem.horizon
    n = DISCRETE_STEPS
    d = T / n
    decay = -math.expm1(-d / tau)
    q = 1.0 - decay
    # one step: theta_{k+1} = q theta_k + c0 g_k^2 + c1 g_{k+1}^2
    c1 = 1.0 - decay * tau / d
    c0 = decay - c1
    if not c1 > 0.0:  # d/tau lies below rounding, so theta(T) no longer resolves g
        return None
    with np.errstate(under="ignore"):  # steps long before T leave nothing of theta(T) for large T/tau
        lag = q ** np.arange(n - 1.0, -1.0, -1.0)  # q^{n-1-k}: how much of step k survives to T
        w = c1 * lag
        w[:-1] += c0 * lag[1:]
    target = 1.0 - a * a * lag[0] * (q + c0)  # what g_1..g_n must add to theta(T) = 1

    # action residuals r_k = ap g_{k+1} + am g_k - gamma |mu| = (B g + c)_k
    ap, am = 1.0 / d + 0.5 * gam, -1.0 / d + 0.5 * gam
    c = np.full(n, -gam * a)
    c[0] += am * a
    diag = np.full(n, ap * ap + am * am)
    diag[-1] = ap * ap
    h = -ap * c  # h = -B^T c
    h[:-1] -= am * c[1:]
    band = np.empty((2, n))  # upper banded storage: superdiagonal, then diagonal
    band[0, 0] = 0.0
    band[0, 1:] = ap * am

    lo, hi, lam = 0.0, math.inf, 0.0
    for _ in range(SECULAR_STEPS):
        band[1] = diag - 2.0 * lam * w
        try:
            g = solveh_banded(band, h, check_finite=False)
        except np.linalg.LinAlgError:  # H - 2 lam W is not positive definite: lam >= lam_crit
            hi = lam
            lam = 0.5 * (lo + hi)
            continue
        wg = w * g
        norm2 = float(g @ wg)
        if abs(norm2 - target) <= 1e-10 * target:  # far tighter than the basin of _refine needs
            break
        if norm2 < target:
            lo = lam
        else:
            hi = lam
        # (H - 2 lam W) dg/dlam = 2 W g, so d(g^T W g)/dlam = 4 (W g)^T (H - 2 lam W)^{-1} W g
        slope = 4.0 * float(wg @ solveh_banded(band, wg, check_finite=False))
        lam += 2.0 * norm2 * (1.0 - math.sqrt(norm2 / target)) / slope
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi)
    else:
        return None
    p0 = (-3.0 * a + 4.0 * g[0] - g[1]) / (2.0 * d)
    gpp_end = (2.0 * g[-1] - 5.0 * g[-2] + 4.0 * g[-3] - g[-4]) / (d * d)
    return p0, (gpp_end - gam * gam * (g[-1] - a)) / (2.0 * g[-1])


@dataclass(frozen=True)
class Exact1dResult:
    """Minimal action over boundary-hitting shots, with the attaining shot."""

    value: float
    x1: float
    x2: float
    shot: ShotResult


def exact_decay_rate(problem: Exact1dProblem, samples: int = 400) -> Exact1dResult:
    """Temperature overload decay rate by shooting with Newton sensitivities.

    The start is the certified global optimum of the problem discretized on
    DISCRETE_STEPS intervals: the root of its secular equation at which
    H - 2 lam W still factors by Cholesky, with p0 = g'(0) and E(T) read off
    the discrete path. From there a 2-D Newton iteration on (p0, E(T)) solves
    theta(T) = 1 together with the free-endpoint transversality condition
    u(T) = p(T) + gamma (g(T) - |mu|) = 0, which the minimal action
    satisfies; it typically settles in two or three integrations. A final
    dense solve samples the optimal shot on `samples` intervals.

    Raises NoBoundaryHit when the discrete start is not certified, or when
    the iteration leaves the |state| < BLOWUP_BOUND search box, collapses
    onto f = 0 or does not settle: no other minimizer is searched for.
    """
    start = _discrete_start(problem)
    found = None if start is None else _refine(problem, *start)
    sol = None if found is None else _integrate(problem, *found, rtol=1e-10, atol=1e-12, dense_output=True)[0]
    if sol is None:
        raise NoBoundaryHit(
            f"no certified shot inside the |state| < {BLOWUP_BOUND:g} search box reaches the overload "
            "level at the horizon"
        )
    p0, e_end = found
    x1, x2 = _shot_from_reduced(problem, p0, e_end)
    shot = _shot_result(problem, sol, e_end, samples)
    return Exact1dResult(value=shot.value, x1=float(x1), x2=float(x2), shot=shot)
