"""Stochastic power injections and the pathwise action functional.

Injections are modeled as an m-dimensional diffusion started at its mean:

    dX(t) = b(X(t)) dt + sqrt(eps) L(X(t)) dW(t),    X(0) = mu

The mean-reverting special case (`OuModel`) has b(x) = D(mu - x) with
D = diag(gamma) and constant volatilities, and admits exact one-step
transition sampling. The action functional

    I(g) = 1/2 sum_i integral ((g_i' - b_i(g_i)) / l_i(g_i))^2 dt

scores how unlikely a path is: the probability that the noisy system tracks
g decays like exp(-I(g)/eps) as eps -> 0. Its discretization here is the
single quadrature shared by every oracle in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._streams import normal_block
from .errors import NonPositiveVolatility
from .grid_model import _readonly

__all__ = [
    "OuModel",
    "DiffusionModel",
    "SamplePath",
    "uniform_grid",
    "simulate_ou",
    "simulate_diffusion",
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
class DiffusionModel:
    """General per-coordinate diffusion with callable drift and volatility.

    `drift` and `vol` are tuples of vectorized callables, one per coordinate;
    each must accept an ndarray of states and return the same shape. The
    drift must vanish at the mean so that the mean is a rest point.
    """

    drift: tuple
    vol: tuple
    mean: np.ndarray
    noise_scale: float
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "mean", _vector(self.mean, "mean"))
        object.__setattr__(self, "drift", tuple(self.drift))
        object.__setattr__(self, "vol", tuple(self.vol))
        if len(self.drift) != self.m or len(self.vol) != self.m:
            raise ValueError("need one drift and one vol callable per coordinate")
        if not self.noise_scale >= 0:
            raise ValueError("noise_scale must be non-negative")
        if not self.horizon > 0:
            raise ValueError("horizon must be strictly positive")
        for i in range(self.m):
            b0 = float(self.drift[i](np.asarray(self.mean[i])))
            if abs(b0) > 1e-12:
                raise ValueError(f"drift {i} does not vanish at the mean: b(mu)={b0:g}")

    @property
    def m(self) -> int:
        return self.mean.shape[0]


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


def simulate_diffusion(model: DiffusionModel, step_count: int, seed: int, replicate: int = 0) -> SamplePath:
    """Sample one path of a general diffusion with the Euler scheme."""
    times = uniform_grid(model.horizon, step_count)
    dt = times[1] - times[0]
    sqdt = np.sqrt(model.noise_scale * dt)
    z = normal_block(seed, replicate, step_count, model.m)
    x = np.empty((step_count + 1, model.m))
    x[0] = model.mean
    for k in range(step_count):
        cur = x[k]
        nxt = np.empty(model.m)
        for i in range(model.m):
            li = float(model.vol[i](cur[i]))
            if li <= 0:
                raise NonPositiveVolatility(f"vol {i} is {li:g} at state {cur[i]:g}")
            nxt[i] = cur[i] + float(model.drift[i](cur[i])) * dt + sqdt * li * z[k, i]
        x[k + 1] = nxt
    return SamplePath(times, x)


def rate_functional(path: SamplePath, model) -> float:
    """Discretized action of a path under the model's drift and volatility.

    The derivative is a forward difference on each interval and the drift and
    volatility are evaluated at the interval's trapezoid average of the two
    endpoint states, which keeps the quadrature second-order accurate. For
    affine drifts the average equals the trapezoid rule on the drift itself.
    Every rate oracle in the test suite reuses this exact discretization.
    """
    g = path.values
    dt = path.step
    diff = (g[1:] - g[:-1]) / dt
    mid = 0.5 * (g[1:] + g[:-1])
    if isinstance(model, OuModel):
        resid = (diff - model.gamma * (model.mean - mid)) / model.vol
    else:
        resid = np.empty_like(diff)
        for i in range(model.m):
            li = np.asarray(model.vol[i](mid[:, i]), dtype=float)
            if np.any(li <= 0):
                raise NonPositiveVolatility(f"vol {i} non-positive along the path")
            resid[:, i] = (diff[:, i] - model.drift[i](mid[:, i])) / li
    return float(0.5 * np.sum(resid**2) * dt)
