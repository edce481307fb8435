"""Injection models: exact transitions, simulation, and the action functional."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from gridcap.injections import (
    OuModel,
    ou_step_coefficients,
)
from oracles import SamplePath, rate_functional, simulate_ou, uniform_grid


def _model(m=1, gamma=0.5, vol=1.0, mu=0.5, eps=0.1, T=1.0):
    return OuModel(
        gamma=np.full(m, gamma),
        vol=np.full(m, vol),
        mean=np.full(m, mu),
        noise_scale=eps,
        horizon=T,
    )


def test_step_coefficients_match_transition_law():
    model = OuModel(
        gamma=np.array([0.5, 2.0]),
        vol=np.array([1.0, 0.3]),
        mean=np.zeros(2),
        noise_scale=0.1,
        horizon=1.0,
    )
    decay, std = ou_step_coefficients(model, 0.25)
    assert np.allclose(decay, np.exp(-model.gamma * 0.25), rtol=1e-14)
    var = 0.1 * model.vol**2 * (1.0 - np.exp(-2.0 * model.gamma * 0.25)) / (2.0 * model.gamma)
    assert np.allclose(std**2, var, rtol=1e-12)


@pytest.mark.parametrize("dt", [0.1, 10.0])
def test_step_coefficients_take_the_exact_limit_of_an_overflowing_gamma(dt):
    # 2 gamma overflows, and so does gamma dt at dt = 10: the first coordinate reverts at once
    model = OuModel(gamma=np.array([1.797e308, 0.5]), vol=np.ones(2), mean=np.zeros(2), noise_scale=0.1, horizon=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decay, std = ou_step_coefficients(model, dt)
    assert decay[0] == 0.0 and std[0] == 0.0
    # the other coordinate keeps its bits
    alone = ou_step_coefficients(replace(model, gamma=model.gamma[1:], vol=model.vol[1:], mean=model.mean[1:]), dt)
    assert (decay[1], std[1]) == (alone[0][0], alone[1][0])


def test_step_deviation_survives_an_overflowing_variance():
    # eps vol^2 overflows on the first coordinate (and on the third, whose 2 gamma
    # overflows too), while its deviation is finite; the second keeps its bits
    model = OuModel(gamma=np.array([1.0, 0.5, 1.797e308]), vol=np.array([1e100, 1.0, 1e100]), mean=np.zeros(3),
                    noise_scale=1e200, horizon=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, std = ou_step_coefficients(model, 0.1)
    rise = -np.expm1(-0.2)
    assert np.isclose(std[0], 1e200 * np.sqrt(rise / 2.0), rtol=1e-14)
    assert std[2] == 0.0
    alone = ou_step_coefficients(replace(model, gamma=model.gamma[1:2], vol=model.vol[1:2], mean=model.mean[1:2]), 0.1)
    assert std[1] == alone[1][0]


def test_transition_residuals_are_standard_normal():
    # Inverting the exact transition must recover i.i.d. standard normals;
    # a Kolmogorov-Smirnov test would reject any scheme with O(dt) bias.
    model = OuModel(
        gamma=np.array([0.5, 2.0]),
        vol=np.array([1.0, 0.3]),
        mean=np.array([0.5, -0.2]),
        noise_scale=0.1,
        horizon=2.0,
    )
    path = simulate_ou(model, 4000, seed=42)
    decay, std = ou_step_coefficients(model, path.step)
    x = path.values
    z = (x[1:] - model.mean - (x[:-1] - model.mean) * decay) / std
    for i in range(2):
        p = stats.kstest(z[:, i], "norm").pvalue
        assert p > 1e-3, f"coordinate {i} residuals not N(0,1): p={p:.2e}"


def test_terminal_distribution_exact():
    model = _model(gamma=0.7, vol=1.3, mu=0.4, eps=0.2, T=1.5)
    n = 3000
    xT = np.array([simulate_ou(model, 40, seed=9, replicate=r).values[-1, 0] for r in range(n)])
    var = 0.2 * 1.3**2 * (1.0 - np.exp(-2 * 0.7 * 1.5)) / (2 * 0.7)
    sd = np.sqrt(var)
    assert abs(xT.mean() - 0.4) < 4 * sd / np.sqrt(n)
    assert 0.9 < xT.var() / var < 1.1
    p = stats.kstest((xT - 0.4) / sd, "norm").pvalue
    assert p > 1e-3


def test_step_count_does_not_change_terminal_law():
    # Exact transitions make the terminal distribution independent of the
    # grid; an Euler scheme at two steps would fail this two-sample test.
    model = _model(gamma=1.0, vol=1.0, mu=0.0, eps=0.3, T=1.0)
    n = 3000
    coarse = np.array(
        [simulate_ou(model, 2, seed=5, replicate=r).values[-1, 0] for r in range(n)]
    )
    fine = np.array(
        [simulate_ou(model, 256, seed=6, replicate=r).values[-1, 0] for r in range(n)]
    )
    p = stats.ks_2samp(coarse, fine).pvalue
    assert p > 1e-3


def test_simulation_is_deterministic_in_seed_and_replicate():
    model = _model(m=2)
    a = simulate_ou(model, 64, seed=123, replicate=7)
    b = simulate_ou(model, 64, seed=123, replicate=7)
    c = simulate_ou(model, 64, seed=123, replicate=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_zero_noise_gives_constant_mean_path():
    model = _model(eps=0.0)
    path = simulate_ou(model, 32, seed=0)
    assert np.all(path.values == 0.5)


def test_paths_start_at_the_mean():
    model = _model(m=3, mu=0.25)
    path = simulate_ou(model, 16, seed=1)
    assert np.array_equal(path.values[0], model.mean)


def test_rate_functional_zero_on_mean_path():
    model = _model()
    times = uniform_grid(1.0, 50)
    path = SamplePath(times, np.full((51, 1), 0.5))
    assert rate_functional(path, model) == 0.0


def test_rate_functional_linear_path_closed_form():
    # X(t) = mu + v t gives action v^2 ((1 + gamma T)^3 - 1) / (6 gamma l^2).
    gamma, vol, mu, v, T = 0.5, 1.0, 0.5, 0.7, 1.0
    model = _model(gamma=gamma, vol=vol, mu=mu, T=T)
    times = uniform_grid(T, 2000)
    path = SamplePath(times, mu + v * times[:, None])
    exact = v**2 * ((1 + gamma * T) ** 3 - 1) / (6 * gamma * vol**2)
    assert np.isclose(rate_functional(path, model), exact, rtol=1e-7)


def test_model_validation():
    with pytest.raises(ValueError):
        _model(gamma=0.0)
    with pytest.raises(ValueError):
        _model(vol=-1.0)
    for vol in (1e300, 1e-200):  # vol^2 overflows or underflows
        with pytest.raises(ValueError, match="its square is 0 or not finite"):
            _model(vol=vol)
    with pytest.raises(ValueError):
        _model(eps=-0.1)
    with pytest.raises(ValueError):
        _model(T=0.0)
    with pytest.raises(ValueError):
        OuModel(
            gamma=np.ones(2), vol=np.ones(1), mean=np.ones(2), noise_scale=0.1, horizon=1.0
        )


def test_uniform_grid_and_path_validation():
    g = uniform_grid(2.0, 4)
    assert np.allclose(g, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        uniform_grid(1.0, 0)
    with pytest.raises(ValueError):
        SamplePath(np.array([0.0, 0.1, 0.5]), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        SamplePath(np.array([0.0, 0.5]), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        SamplePath(np.array([0.0]), np.zeros((1, 1)))


def test_sample_path_values_read_only():
    path = simulate_ou(_model(), 8, seed=0)
    with pytest.raises(ValueError):
        path.values[0, 0] = 1.0
