"""Line temperatures driven by squared normalized currents.

Each line's normalized temperature follows the first-order lag

    tau * Theta'(t) + Theta(t) = Y(t)^2

so Theta is an exponentially weighted average of the squared current's past.
Overload means Theta reaching 1, the normalized thermal limit.
`filter_coefficients` gives the one-step weights that advance the ODE
exactly for inputs whose square is linear between grid points, so constant
currents are reproduced without error. The Monte Carlo kernel steps every
line's temperature with them, and the exact solver's discretized problem
writes theta(T) through them.
"""
from __future__ import annotations

import numpy as np

from .errors import NonPositiveTau

__all__ = [
    "filter_coefficients",
    "overload_threshold_equivalence",
]


def filter_coefficients(dt: float, tau):
    """Exact one-step update weights (q, c1, c2) for the thermal lag.

    With u = Y^2 piecewise linear, Theta_{k+1} = q Theta_k + c1 u_k + c2 u_{k+1};
    the three weights are non-negative and sum to 1, so temperatures stay
    inside the convex hull of the inputs.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise NonPositiveTau("thermal constants must be strictly positive")
    # dt/tau overflowing to inf gives the exact limits q = c1 = 0 and c2 = 1
    with np.errstate(over="ignore"):
        x = dt / tau
    em = -np.expm1(-x)  # 1 - e^{-x}, accurate for small x
    q = 1.0 - em
    # at x = 0 (dt = 0) em / x is 0/0; its limit 1 gives the exact c2 = c1 = 0
    c2 = 1.0 - np.divide(em, x, out=np.ones_like(em), where=x > 0)
    c1 = em - c2
    return q, c1, c2


def _horizon_decay(horizon: float, tau):
    """q = e^{-horizon/tau}, the share of Theta(0) left at the horizon, and 1 - q.

    A huge horizon or a tiny tau overflows horizon/tau to inf; the limits
    q = 0 and 1 - q = 1 are then exact, so that overflow is not reported.
    """
    with np.errstate(over="ignore"):
        x = horizon / np.asarray(tau, dtype=float)
    # -expm1 keeps 1 - q accurate, and nonzero, when x is tiny
    return np.exp(-x), -np.expm1(-x)


def overload_threshold_equivalence(nu, tau, horizon: float):
    """Current level alpha whose sustained exceedance a thermal overload needs.

    Starting from Theta(0) = nu^2, a constant current of magnitude alpha
    reaches Theta(horizon) = 1 exactly; any path keeping sup |Y| below alpha
    keeps the temperature below 1 on [0, horizon]. alpha > 1 always, tends to
    1 as tau -> 0 (instant response) and grows without bound as tau -> inf.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise NonPositiveTau("thermal constants must be strictly positive")
    nu = np.asarray(nu, dtype=float)
    q, one_minus_q = _horizon_decay(horizon, tau)
    return np.sqrt((1.0 - nu**2 * q) / one_minus_q)
