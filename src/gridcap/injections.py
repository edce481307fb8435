"""Stochastic power injections and the paths they trace.

Injections are an m-dimensional Ornstein-Uhlenbeck process started at its
mean:

    dX_i(t) = gamma_i (mu_i - X_i(t)) dt + sqrt(eps) l_i dW_i(t),    X(0) = mu

with mean-reversion rates gamma_i > 0 and constant volatilities l_i > 0.
`OuModel` holds those parameters, and `ou_step_coefficients` gives the exact
one-step transition that the batched Monte Carlo kernel in `montecarlo`
advances. `SamplePath` holds a path on a uniform time grid, such as the
attaining shot of `exact1d`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid_model import _readonly

__all__ = [
    "OuModel",
    "SamplePath",
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

    def drift(self, x: np.ndarray) -> np.ndarray:
        return self.gamma * (self.mean - x)


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


def ou_step_coefficients(model: OuModel, dt: float):
    """Per-coordinate decay factor and noise standard deviation for one step.

    The transition over dt is exact:
        X' = mu + (X - mu) e^{-gamma dt} + N(0, eps l^2 (1-e^{-2 gamma dt})/(2 gamma))
    """
    # gamma dt and 2 gamma may overflow to inf for a huge gamma; e^-inf = 0,
    # -expm1(-inf) = 1 and x / inf = 0 are then the exact limits: decay 0, variance 0
    with np.errstate(over="ignore"):
        decay = np.exp(-model.gamma * dt)
        rise = -np.expm1(-2.0 * model.gamma * dt)  # -expm1 keeps the variance accurate when gamma*dt is tiny
        twice_gamma = 2.0 * model.gamma
    var = model.noise_scale * model.vol**2 * rise / twice_gamma
    return decay, np.sqrt(var)
