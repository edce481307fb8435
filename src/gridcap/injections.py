"""Stochastic power injections and the paths they trace.

Injections are an m-dimensional Ornstein-Uhlenbeck process started at its
mean:

    dX_i(t) = gamma_i (mu_i - X_i(t)) dt + sqrt(eps) l_i dW_i(t),    X(0) = mu

with mean-reversion rates gamma_i > 0 and constant volatilities l_i > 0.
`OuModel` holds those parameters, and `ou_step_coefficients` gives the exact
one-step transition that the batched Monte Carlo kernel in `montecarlo`
advances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid_model import _readonly

__all__ = [
    "OuModel",
    "ou_step_coefficients",
]


def _check_square(name: str, values) -> None:
    """ValueError naming the first of `values` whose square, which rates divide by or scale with, is 0 or not finite."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    with np.errstate(over="ignore"):
        square = values * values
    bad = ~((0.0 < square) & (square < np.inf))
    if bad.any():
        value = float(values[np.argmax(bad)])
        raise ValueError(f"{name} = {value!r} is out of range: its square is 0 or not finite")


def _vector(x, name: str) -> np.ndarray:
    out = np.atleast_1d(np.asarray(x, dtype=float))
    if out.ndim != 1:
        raise ValueError(f"{name} must be a scalar or 1-D array")
    return _readonly(out)


@dataclass(frozen=True)
class OuModel:
    """Mean-reverting injection model with exact transition sampling.

    Parameters
    ----------
    gamma : array, shape (m,)
        Mean-reversion rates, strictly positive.
    vol : array, shape (m,)
        Constant volatilities l_i, strictly positive.
    mean : array, shape (m,)
        Long-term means; also the initial condition X(0).
    noise_scale : float
        Noise strength eps >= 0. Zero gives the deterministic flow, which
        for this drift is the constant path at the mean.
    horizon : float
        Time horizon T > 0.
    """

    gamma: np.ndarray
    vol: np.ndarray
    mean: np.ndarray
    noise_scale: float
    horizon: float

    def __post_init__(self):
        for name in ("gamma", "vol", "mean"):
            object.__setattr__(self, name, _vector(getattr(self, name), name))
        if not (self.gamma.shape == self.vol.shape == self.mean.shape):
            raise ValueError("gamma, vol, mean must share one length")
        if not np.all(self.gamma > 0):
            raise ValueError("gamma entries must be strictly positive")
        if not np.all(self.vol > 0):
            raise ValueError("vol entries must be strictly positive")
        _check_square("vol", self.vol)
        if not self.noise_scale >= 0:
            raise ValueError("noise_scale must be non-negative")
        if not self.horizon > 0:
            raise ValueError("horizon must be strictly positive")

    @property
    def m(self) -> int:
        return self.mean.shape[0]


def ou_step_coefficients(model: OuModel, dt: float):
    """Per-coordinate decay factor and noise standard deviation for one step.

    The transition over dt is exact:
        X' = mu + (X - mu) e^{-gamma dt} + N(0, eps l^2 (1-e^{-2 gamma dt})/(2 gamma))
    """
    # gamma dt and 2 gamma may overflow to inf for a huge gamma; e^-inf = 0,
    # -expm1(-inf) = 1 and x / inf = 0 are then the exact limits: decay 0, variance 0
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-model.gamma * dt)
        rise = -np.expm1(-2.0 * model.gamma * dt)  # -expm1 keeps the variance accurate when gamma*dt is tiny
        twice_gamma = 2.0 * model.gamma
        var = model.noise_scale * model.vol**2 * rise / twice_gamma
    std = np.sqrt(var)
    # eps l^2 may overflow (inf, or inf / inf where 2 gamma does too) where the
    # deviation itself is finite; take the root of each factor there
    far = ~np.isfinite(std)
    if far.any():
        std[far] = math.sqrt(model.noise_scale) * model.vol[far] * np.sqrt(rise[far] / twice_gamma[far])
    return decay, std
