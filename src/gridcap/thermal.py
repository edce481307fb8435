"""Line temperatures driven by squared normalized currents.

Each line's normalized temperature follows the first-order lag

    tau * Theta'(t) + Theta(t) = Y(t)^2

so Theta is an exponentially weighted average of the squared current's past.
Overload means Theta reaching 1, the normalized thermal limit. The discrete
evaluator below advances the ODE exactly for inputs whose square is linear
between grid points, so constant currents are reproduced without error.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveTau
from .grid_model import _readonly
from .injections import SamplePath

__all__ = [
    "TemperaturePath",
    "filter_coefficients",
    "xi_map",
    "peak_temperature",
    "overload_threshold_equivalence",
]


@dataclass(frozen=True)
class TemperaturePath:
    """Per-line normalized temperatures on a uniform grid; values (n+1, L)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = _readonly(self.times)
        values = _readonly(self.values)
        if values.shape[0] != times.shape[0]:
            raise ValueError("one value row per grid point required")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def filter_coefficients(dt: float, tau):
    """Exact one-step update weights (q, c1, c2) for the thermal lag.

    With u = Y^2 piecewise linear, Theta_{k+1} = q Theta_k + c1 u_k + c2 u_{k+1};
    the three weights are non-negative and sum to 1, so temperatures stay
    inside the convex hull of the inputs.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise NonPositiveTau("thermal constants must be strictly positive")
    x = dt / tau
    em = -np.expm1(-x)  # 1 - e^{-x}, accurate for small x
    q = 1.0 - em
    c2 = 1.0 - em / x
    c1 = em - c2
    return q, c1, c2


def xi_map(current: SamplePath, tau, theta0=None) -> TemperaturePath:
    """Advance the thermal lag along a normalized current path.

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
    return TemperaturePath(current.times, theta)


def peak_temperature(current: SamplePath, tau, theta0=None) -> np.ndarray:
    """Maximum temperature per line over the grid."""
    return xi_map(current, tau, theta0).values.max(axis=0)


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
    q = np.exp(-horizon / tau)
    return np.sqrt((1.0 - nu**2 * q) / (1.0 - q))
