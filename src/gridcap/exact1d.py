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
problem reduces to the system

    theta' = (g^2 - theta)/tau,   g' = p,   p' = gamma^2 (g - mu) + 2 E(t) g

from (mu^2, mu, p0), with (p0, E(T)) chosen so that theta(T) = 1 at minimal
action. The free endpoint adds the transversality condition: g(T) is not
prescribed and theta(T) does not depend on it pointwise, so the optimal
control u = g' + gamma (g - mu) = p + gamma (g - mu) vanishes at the horizon,
u(T) = 0. The public shooting parameters are the missing initial data of
the equivalent 4-D system in y = [theta, f, f', f'']: x1 = f'(0),
x2 = f''(0), related bijectively to (p0, E(0)) through f = g^2.

One discrete engine prices and certifies the optimum. On a mesh that puts
half its steps in the last min(T, 40 tau), theta(T) = 1 is a single
quadratic constraint on a positive definite quadratic action, and the
global minimizer is the root of a 1-D secular equation at which the
Lagrangian Hessian is still positive definite, certified by its LDL^T
factorization in LAPACK ?ptsv, whose pivots are all positive exactly when
the Hessian is positive definite (More & Sorensen 1983; Polik & Terlaky,
SIAM Review 2007). It is solved at DISCRETE_STEPS and twice as many steps,
and the rate, p0, E(T) and theta(T) of the two levels are
Richardson-extrapolated. Where either level is not certified, or the two
levels' rates differ by more than EXTRAPOLATION_RTOL relative (the meshes do
not yet resolve the optimum, so the extrapolation cannot be trusted), the
problem is refused with NoBoundaryHit. `certified_rate` returns the
extrapolated rate, and `exact_decay_rate` returns the same rate with the
initial slopes (x1, x2) read off the extrapolated (p0, E(T)) and the
extrapolated theta(T); no ODE is integrated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoBoundaryHit
from .injections import _check_square
from .thermal import filter_coefficients

__all__ = [
    "Exact1dProblem",
    "ShotResult",
    "Exact1dResult",
    "certified_rate",
    "exact_decay_rate",
]

#: Steps of the coarser of the two discretized problems whose certified optima are extrapolated.
DISCRETE_STEPS = 400

#: The two levels' rates may differ by this much, relatively, for their extrapolation to be trusted.
EXTRAPOLATION_RTOL = 1e-3

#: Half of the discrete steps cover the last min(T, BOUNDARY_LAYER tau) before the horizon.
BOUNDARY_LAYER = 40.0

#: Safeguarded Newton steps allowed on the secular equation of the discretized problem.
SECULAR_STEPS = 60

#: g^T W g may miss its target by this much, relatively, where lam itself is resolved to rounding.
ROUNDED_ROOT_TOL = 1e-8


@dataclass(frozen=True)
class Exact1dProblem:
    """Single-line setting: injection mean mu, rate gamma, volatility, lag tau.

    The decay rate is invariant under mu -> -mu (flip the noise), so
    computations use |mu| throughout. mu = 0 is rejected: the certified
    engine already refuses means of about 1e-4 and below (the bound
    moves with the lag), whose discretized optima it does not certify, and
    at mu = 0 (p0, E(0)) no longer maps to the initial slopes (x1, x2)
    through f = g^2.
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
            _check_square(name, getattr(self, name))

    @property
    def level(self) -> float:
        """|mu|: the common initial value of g and of the current magnitude."""
        return abs(self.mu)


def _shot_from_reduced(problem: Exact1dProblem, p0: float, e_end: float):
    a = problem.level
    e0 = e_end * np.exp(-problem.horizon / problem.tau)
    return 2.0 * a * p0, 2.0 * p0**2 + 4.0 * a**2 * e0


@dataclass(frozen=True)
class ShotResult:
    """The optimum's terminal temperature theta(T) and its action, the certified rate."""

    theta_end: float
    value: float


def _discrete_level(problem: Exact1dProblem, n: int):
    """(rate, p0, E(T), theta(T)) of the certified optimum of the problem discretized on n steps, or None.

    The current path is sampled as g_k = g(t_k) on a two-zone mesh with g_0 =
    |mu|: half of the n steps are spread evenly over the last
    min(T, BOUNDARY_LAYER tau) and half over the rest, so the layer of width
    ~tau before the horizon stays resolved at any T/tau; where
    BOUNDARY_LAYER tau >= T the mesh is uniform. Taking g^2 linear on each step, the exact filter of
    theta' = (g^2 - theta)/tau gives theta(T) = e^{-T/tau} mu^2 +
    sum_k w_k g_k^2, and the midpoint rule gives the action as
    1/(2 l^2) sum_k d_k r_k^2 with r_k = (g_{k+1} - g_k)/d_k +
    gamma ((g_k + g_{k+1})/2 - |mu|), a positive definite quadratic
    1/2 g^T H g - h^T g + const with H tridiagonal. Stationary points on
    theta(T) = 1 solve (H - 2 lam W) g = h, W = diag(w_1..w_n). While
    H - 2 lam W is positive definite, g^T W g grows with lam, and a root of
    the secular equation g^T W g = 1 - e^{-T/tau} mu^2 - w_0 mu^2 there is the
    global minimizer (S-lemma). Each step factors H - 2 lam W = L D L^T once
    with LAPACK ?ptsv, which solves for g, and reuses the factors for the
    slope. The pivots D are all positive exactly when H - 2 lam W is
    positive definite, so a successful solve at the root is the certificate;
    a non-positive pivot marks lam at or past the threshold lam_crit where
    definiteness ends and lowers the upper end of the bracket (0, hi), which
    starts at +inf. Newton runs on the secular equation in the form
    (g^T W g)^{-1/2}, which is concave in lam below lam_crit: its steps
    approach the root monotonically from above, and a step that leaves the
    bracket bisects it instead (More & Sorensen 1983; Polik & Terlaky, SIAM
    Review 2007). So does a slope that is not positive and finite, as where
    g and W g underflow for |mu| of about 1e-165 and below.

    p0 = g'(0) and g''(T) come from second-order one-sided differences in the
    first and last zone, and E(T) = (g''(T) - gamma^2 (g(T) - |mu|)) / (2 g(T)).
    E is read at the horizon rather than at the start because E(0) e^{T/tau}
    would multiply the discretization error by e^{T/tau}. All three carry an
    O(d^2) error. theta(T) is the constraint's value at the root,
    1 - target + g^T W g, so it is 1 to within the secular tolerance.
    Returns None when no certified root is reached within
    SECULAR_STEPS, or when a step's d/tau is so small that its weight c1
    rounds to zero or below.
    """
    from scipy.linalg.lapack import dptsv, dpttrs

    tau, gam, a, T = problem.tau, problem.gamma, problem.level, problem.horizon
    layer, half = min(T, BOUNDARY_LAYER * tau), n // 2
    d = np.repeat([(T - layer) / half, layer / (n - half)], [half, n - half]) if layer < T else np.full(n, T / n)
    # step k: theta_{k+1} = q_k theta_k + c0_k g_k^2 + c1_k g_{k+1}^2
    q, c0, c1 = filter_coefficients(d, tau)
    if not np.min(c1) > 0.0:  # d/tau lies below rounding, so theta(T) no longer resolves g
        return None
    remain = np.append(np.cumsum(d[:0:-1])[::-1], 0.0)  # T - t_{k+1}
    # steps long before T leave nothing of theta(T) for large T/tau; where
    # remain/tau overflows, the limit lag = 0 is exact
    with np.errstate(over="ignore", under="ignore"):
        lag = np.exp(-remain / tau)  # how much of step k survives to T
    w = c1 * lag
    w[:-1] += c0[1:] * lag[1:]
    target = 1.0 - a * a * lag[0] * (q[0] + c0[0])  # what g_1..g_n must add to theta(T) = 1

    # action residuals r_k = ap_k g_{k+1} + am_k g_k - gamma |mu| = (B g + c)_k, weighted by d_k
    ap, am = 1.0 / d + 0.5 * gam, -1.0 / d + 0.5 * gam
    c = np.full(n, -gam * a)
    c[0] += am[0] * a
    diag = d * ap * ap
    diag[:-1] += d[1:] * am[1:] * am[1:]
    h = -d * ap * c  # h = -B^T D c
    h[:-1] -= d[1:] * am[1:] * c[1:]
    off = d[1:] * ap[1:] * am[1:]  # superdiagonal of H and of H - 2 lam W

    lo, hi, lam = 0.0, math.inf, 0.0
    for _ in range(SECULAR_STEPS):
        # factors H - 2 lam W = L D L^T and solves for g; the factors are kept for the slope
        pivots, lower, g, info = dptsv(diag - 2.0 * lam * w, off, h, overwrite_d=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dptsv")
        if info > 0:  # a pivot is not positive, so neither is H - 2 lam W: lam >= lam_crit
            hi = lam
            lam = 0.5 * (lo + hi)
            continue
        wg = w * g
        norm2 = float(g @ wg)
        if abs(norm2 - target) <= 1e-10 * target:  # theta(T) = 1 to far below the rate's discretization error
            break
        if norm2 < target:
            lo = lam
        else:
            hi = lam
        # (H - 2 lam W) dg/dlam = 2 W g, so d(g^T W g)/dlam = 4 (W g)^T (H - 2 lam W)^{-1} W g
        slope = 4.0 * float(wg @ dpttrs(pivots, lower, wg)[0])
        if 0.0 < slope < math.inf:  # else lam stays on an end of the bracket, which is then bisected
            lam += 2.0 * norm2 * (1.0 - math.sqrt(norm2 / target)) / slope
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi)
        if not lo < lam < hi:  # no float lies between: lam is resolved to rounding, and so is the root
            if abs(norm2 - target) <= ROUNDED_ROOT_TOL * target:
                break
            return None
    else:
        return None
    r = ap * g + am * np.append(a, g[:-1]) - gam * a
    rate = 0.5 * float(d @ (r * r)) / problem.vol**2
    p0 = (-3.0 * a + 4.0 * g[0] - g[1]) / (2.0 * d[0])
    gpp_end = (2.0 * g[-1] - 5.0 * g[-2] + 4.0 * g[-3] - g[-4]) / (d[-1] * d[-1])
    return rate, p0, (gpp_end - gam * gam * (g[-1] - a)) / (2.0 * g[-1]), (1.0 - target) + norm2


def _discrete_optimum(problem: Exact1dProblem):
    """(rate, p0, E(T), theta(T)) extrapolated from levels DISCRETE_STEPS and twice that.

    Each is (4 X_2n - X_n)/3, which cancels the O(d^2) error of both
    levels. Raises NoBoundaryHit unless both levels certify and their rates
    R_n, R_2n satisfy |R_2n - R_n| <= EXTRAPOLATION_RTOL R_2n: a wider gap
    means the coarse level is not yet in the O(d^2) regime the
    extrapolation assumes.
    """
    levels = []
    for n in (DISCRETE_STEPS, 2 * DISCRETE_STEPS):
        level = _discrete_level(problem, n)
        if level is None:
            raise NoBoundaryHit(f"no certified optimum of the problem discretized on {n} steps")
        levels.append(level)
    coarse, fine = levels
    if not abs(fine[0] - coarse[0]) <= EXTRAPOLATION_RTOL * fine[0]:
        raise NoBoundaryHit(
            f"the certified optima on {DISCRETE_STEPS} and {2 * DISCRETE_STEPS} steps differ by "
            f"{abs(fine[0] - coarse[0]) / fine[0]:.2g} relative, more than the {EXTRAPOLATION_RTOL:g} "
            "within which their extrapolation is trusted"
        )
    return tuple((4.0 * x_fine - x_coarse) / 3.0 for x_coarse, x_fine in zip(coarse, fine))


def certified_rate(problem: Exact1dProblem) -> float:
    """Temperature overload decay rate from the certified discrete optimum alone.

    The rate of the discretized problem at DISCRETE_STEPS and at twice as
    many steps, Richardson-extrapolated as (4 R_2n - R_n)/3; no ODE is
    integrated. Raises NoBoundaryHit when either level is not certified or
    the two levels differ by more than EXTRAPOLATION_RTOL relative.
    """
    return float(_discrete_optimum(problem)[0])


@dataclass(frozen=True)
class Exact1dResult:
    """Certified minimal action with the initial slopes and terminal temperature of its minimizer.

    `value` is `certified_rate(problem)`. (x1, x2) = (f'(0), f''(0)) and
    `start` = (p0, E(T)) are the extrapolated discrete optimum's, and
    `shot` holds its extrapolated theta(T), which is 1 to within the secular
    tolerance, with `value` as its action. `problem` and `start` are kept
    so that the optimum can be integrated from (p0, E(T)), which x1 and x2
    cannot give back where e^{-T/tau} underflows.
    """

    value: float
    x1: float
    x2: float
    problem: Exact1dProblem
    start: tuple = field(repr=False)
    shot: ShotResult


def exact_decay_rate(problem: Exact1dProblem) -> Exact1dResult:
    """Temperature overload decay rate from the certified discrete optimum, with its initial slopes.

    The rate is `certified_rate(problem)`, bit for bit. p0 = g'(0), E(T)
    and theta(T), read off the discrete paths at DISCRETE_STEPS and twice as
    many steps and extrapolated as (4 X_2n - X_n)/3, give x1 = f'(0) and
    x2 = f''(0) in closed form, and the shot's theta(T). No ODE is
    integrated.

    Raises NoBoundaryHit when either discrete level is not certified or the
    two levels differ by more than EXTRAPOLATION_RTOL relative: no other
    minimizer is searched for.
    """
    rate, p0, e_end, theta_end = _discrete_optimum(problem)
    x1, x2 = _shot_from_reduced(problem, p0, e_end)
    return Exact1dResult(value=float(rate), x1=float(x1), x2=float(x2), problem=problem, start=(p0, e_end),
                         shot=ShotResult(theta_end=float(theta_end), value=float(rate)))
