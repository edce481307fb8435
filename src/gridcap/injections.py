"""Stochastic power injections and the pathwise action functional.

Injections are an m-dimensional Ornstein-Uhlenbeck process started at its
mean:

    dX_i(t) = gamma_i (mu_i - X_i(t)) dt + sqrt(eps) l_i dW_i(t),    X(0) = mu

with mean-reversion rates gamma_i > 0 and constant volatilities l_i > 0.
`OuModel` holds those parameters and admits exact one-step transition
sampling. The action functional

    I(g) = 1/2 sum_i integral ((g_i' - gamma_i (mu_i - g_i)) / l_i)^2 dt

scores how unlikely a path is: the probability that the noisy system tracks
g decays like exp(-I(g)/eps) as eps -> 0. Its discretization here is the
single quadrature shared by every oracle in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._streams import normal_block
from .grid_model import _readonly

__all__ = [
    "OuModel",
    "SamplePath",
    "uniform_grid",
    "ou_step_coefficients",
    "simulate_ou",
    "rate_functional",
]


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


def uniform_grid(horizon: float, step_count: int) -> np.ndarray:
    if step_count < 1:
        raise ValueError("step_count must be at least 1")
    return np.linspace(0.0, horizon, step_count + 1)


def ou_step_coefficients(model: OuModel, dt: float):
    """Per-coordinate decay factor and noise standard deviation for one step.

    The transition over dt is exact:
        X' = mu + (X - mu) e^{-gamma dt} + N(0, eps l^2 (1-e^{-2 gamma dt})/(2 gamma))
    """
    decay = np.exp(-model.gamma * dt)
    # -expm1 keeps the variance accurate when gamma*dt is tiny
    var = model.noise_scale * model.vol**2 * (-np.expm1(-2.0 * model.gamma * dt)) / (2.0 * model.gamma)
    return decay, np.sqrt(var)


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
