"""Single-line temperature overload rate via the variational boundary problem."""

import contextlib
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
import scipy.integrate

from gridcap import exact1d
from gridcap.errors import NoBoundaryHit
from gridcap.exact1d import (
    Exact1dProblem,
    Exact1dResult,
    certified_rate,
    exact_decay_rate,
)
import oracles
from oracles import (
    BlowUp,
    DegenerateF,
    NegativeRadicand,
    SamplePath,
    attaining_shot,
    certified_temperature_rate,
    euler_residual,
    functional_value,
    shoot,
    uniform_grid,
)
from test_cli import _subprocess_env

# mu=0.5, gamma=0.5, l=1, T=1; rates certified against an independent
# globally-convergent quadratic solver (see test_matches_certified_oracle).
REFERENCE_RATES = {
    0.1: 0.22862878711256923,
    0.2: 0.26844915962617055,
    0.3: 0.31709878291612664,
    0.4: 0.3726869652713358,
    0.5: 0.4336068379085093,
    0.6: 0.4987666751455335,
}
SHOT_05 = (1.0784993796300875, 2.09854274652479)


def _problem(tau, mu=0.5, gamma=0.5, vol=1.0, horizon=1.0):
    return Exact1dProblem(mu=mu, gamma=gamma, vol=vol, tau=tau, horizon=horizon)


@pytest.mark.parametrize("tau", sorted(REFERENCE_RATES))
def test_reference_rates(tau):
    res = exact_decay_rate(_problem(tau))
    assert np.isclose(res.value, REFERENCE_RATES[tau], rtol=1e-6)


@pytest.mark.parametrize("tau", [0.2, 0.5])
def test_matches_certified_oracle(tau):
    # Independent route: discretize the path, minimize the quadratic action
    # under the terminal temperature constraint, certify global optimality
    # through the secular equation. Agreement to discretization error.
    value, certified = certified_temperature_rate(0.5, 0.5, 1.0, tau, 1.0, 1600)
    assert certified
    assert np.isclose(value, REFERENCE_RATES[tau], rtol=5e-6)


def test_stationarity_residual_vanishes_along_optimum():
    res = exact_decay_rate(_problem(0.3))
    shot = attaining_shot(res)
    r = euler_residual(_problem(0.3), shot.states, shot.state_derivs)
    assert np.max(np.abs(r)) < 1e-7


def test_rest_path_is_stationary_with_zero_cost():
    # Sitting at theta = mu^2 costs nothing, so it satisfies the free
    # stationarity system exactly; only the terminal condition theta(T) = 1
    # rules it out as the overload optimizer.
    p = _problem(0.5)
    y = np.array([0.25, 0.25, 0.0, 0.0])
    yp = np.zeros(4)
    assert np.allclose(euler_residual(p, y, yp), 0.0, atol=1e-14)


def test_shoot_reproduces_stored_optimum():
    p = _problem(0.5)
    res = shoot(p, *SHOT_05)
    assert np.isclose(res.theta_end, 1.0, atol=1e-6)
    assert np.isclose(res.value, REFERENCE_RATES[0.5], rtol=1e-6)


def test_result_exposes_attaining_shot():
    res = exact_decay_rate(_problem(0.5))
    assert isinstance(res, Exact1dResult)
    assert np.isclose(res.x1, SHOT_05[0], atol=1e-4)
    assert np.isclose(res.x2, SHOT_05[1], atol=1e-3)
    th = attaining_shot(res).theta.values[:, 0]
    assert np.isclose(th[0], 0.25, atol=1e-12)
    assert np.isclose(th[-1], 1.0, atol=1e-8)
    assert np.all(np.diff(th) > -1e-12)


def test_quadrature_of_optimal_path_recovers_value():
    res = exact_decay_rate(_problem(0.4))
    val = functional_value(attaining_shot(res).theta, _problem(0.4))
    assert np.isclose(val, res.value, rtol=1e-4)


def test_rates_increase_with_lag():
    vals = [REFERENCE_RATES[t] for t in sorted(REFERENCE_RATES)]
    assert np.all(np.diff(vals) > 0)


def test_sign_of_mean_is_irrelevant():
    a = exact_decay_rate(_problem(0.3, mu=0.5))
    b = exact_decay_rate(_problem(0.3, mu=-0.5))
    assert np.isclose(a.value, b.value, rtol=1e-12)


def test_small_lag_approaches_current_rate():
    current_rate = 0.1977470883586658
    res = exact_decay_rate(_problem(0.01))
    assert abs(res.value - current_rate) / current_rate < 0.02
    first_order = (1.0 + 2 * 0.01 * 0.5) * current_rate
    assert abs(res.value - first_order) / first_order < 0.01


def test_problem_validation():
    for bad in (0.0, 1.0, 1.2, -1.0):
        with pytest.raises(ValueError):
            _problem(0.5, mu=bad)
    for field in ("gamma", "vol", "tau", "horizon"):
        with pytest.raises(ValueError):
            Exact1dProblem(**{"mu": 0.5, "gamma": 0.5, "vol": 1.0, "tau": 0.5, "horizon": 1.0, field: 0.0})


def test_runaway_shot_raises():
    with pytest.raises(BlowUp):
        shoot(_problem(0.5), 5.0, 200.0)


def test_collapsing_shot_raises():
    # g' = x1 / (2 |mu|) = -5 drives g = sqrt(f) from 0.5 to 0 near t = 0.1
    with pytest.raises(DegenerateF):
        shoot(_problem(0.5), -5.0, 0.0)


def test_degenerate_f_rejected_in_residual():
    p = _problem(0.5)
    with pytest.raises(DegenerateF):
        euler_residual(p, np.array([0.25, 0.0, 0.0, 0.0]), np.zeros(4))


def test_negative_radicand_in_quadrature():
    # Falling temperature faster than the lag can follow makes the
    # reconstructed squared current negative.
    p = _problem(0.5)
    times = uniform_grid(1.0, 20)
    theta = 0.25 * (1.0 - 5.0 * times)
    with pytest.raises(NegativeRadicand):
        functional_value(SamplePath(times, theta[:, None]), p)


def test_residual_shape_contract():
    p = _problem(0.5)
    y = np.array([0.25, 0.25, 0.0, 0.0])
    single = euler_residual(p, y, np.zeros(4))
    assert single.shape == (4,)
    stacked = euler_residual(p, np.tile(y, (3, 1)), np.zeros((3, 4)))
    assert stacked.shape == (3, 4)
    with pytest.raises(ValueError):
        euler_residual(p, np.zeros(3), np.zeros(3))


def _counted(problem):
    """exact_decay_rate(problem), the solve_ivp calls of its rate, the oracle's shot integrations, and the shot.

    The shot is `attaining_shot` of the result, and its integrations are the
    calls its Newton refinement makes to `oracles._integrate`.
    """
    original_solve, original_integrate = scipy.integrate.solve_ivp, oracles._integrate
    solves, integrations = [0], [0]

    def counting_solve(*args, **kwargs):
        solves[0] += 1
        return original_solve(*args, **kwargs)

    def counting_integrate(*args, **kwargs):
        integrations[0] += 1
        return original_integrate(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.integrate, "solve_ivp", counting_solve)
        mp.setattr(oracles, "_integrate", counting_integrate)
        res = exact_decay_rate(problem)
        rate_calls = solves[0]
        shot = attaining_shot(res)
        return res, rate_calls, integrations[0], shot


@pytest.fixture(scope="module")
def counted_rows():
    """Each benchmark row's result, the solve_ivp calls of its rate, the oracle's shot integrations, and the shot."""
    return {tau: _counted(_problem(tau)) for tau in sorted(REFERENCE_RATES)}


@pytest.mark.parametrize("tau", sorted(REFERENCE_RATES))
def test_optimum_satisfies_transversality(counted_rows, tau):
    # The terminal value is free, so the optimal control
    # u = g' + gamma (g - |mu|) vanishes at the horizon.
    _, _, _, shot = counted_rows[tau]
    states = shot.states
    f, fp = states[-1, 1], states[-1, 2]
    g = np.sqrt(f)
    p = fp / (2.0 * g)
    assert abs(p + 0.5 * (g - 0.5)) < 1e-6


@pytest.mark.parametrize("tau", sorted(REFERENCE_RATES))
def test_row_solve_budget(counted_rows, tau):
    # Every solve is looked up on scipy.integrate at call time, so the
    # patched counter would see any; the rate is the certified discrete
    # optimum's, bit for bit, and integrates nothing.
    res, rate_calls, _, _ = counted_rows[tau]
    assert res.value == certified_rate(_problem(tau))
    assert np.isclose(res.value, REFERENCE_RATES[tau], rtol=1e-9)
    assert rate_calls == 0


def test_refinement_failure_raises(monkeypatch):
    # The oracle searches nowhere else: a shot whose refinement does not settle is reported.
    monkeypatch.setattr(oracles, "_refine", lambda *args: None)
    res = exact_decay_rate(_problem(0.3))
    with pytest.raises(NoBoundaryHit, match="search box"):
        attaining_shot(res)


@pytest.mark.parametrize("tau", sorted(REFERENCE_RATES))
def test_row_warm_start_budget(counted_rows, tau):
    # Started at the certified discrete optimum, the oracle's refinement
    # needs a few Newton solves, the last of which lands, and no scan.
    _, _, shot_calls, _ = counted_rows[tau]
    assert shot_calls <= 8


# (mu, gamma, vol, tau, horizon) whose optimum once lay outside the scan:
# past the |f''(0)| <= 50 box (x2 = 308), or past the largest scanned slope.
FORMER_MISSES = [(0.2, 0.5, 0.5, 4.0, 0.5), (0.8, 2.0, 1.0, 4.0, 2.0)]


def _random_problems(count=24, seed=7):
    """Seeded (mu, gamma, vol, tau, horizon); a third with tau/T in [2, 5], where misses clustered."""
    rng = np.random.default_rng(seed)
    problems = []
    for k in range(count):
        mu = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.9)
        gamma, vol, horizon = rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        lag_ratio = rng.uniform(2.0, 5.0) if k % 3 == 0 else 10.0 ** rng.uniform(-1.0, np.log10(2.0))
        problems.append((mu, gamma, vol, lag_ratio * horizon, horizon))
    return problems


RANDOM_PROBLEMS = _random_problems()


@pytest.mark.parametrize(
    "args",
    RANDOM_PROBLEMS + FORMER_MISSES,
    ids=[f"random{k}" for k in range(len(RANDOM_PROBLEMS))] + ["former_miss_box", "former_miss_scan"],
)
def test_matches_certified_oracle_sweep(args):
    value, certified = certified_temperature_rate(*args, n=800)
    assert certified
    res = exact_decay_rate(Exact1dProblem(*args))
    assert np.isclose(res.value, value, rtol=1e-5)


@pytest.mark.parametrize("tau", [0.02, 0.01])
def test_small_lags_match_certified_oracle(tau):
    # T/tau = 50 and 100: the oracle certifies only when its eigensolver's
    # absolute tolerance does not scale with the matrix norm, ~e^{T/tau} n^2.
    value, certified = certified_temperature_rate(0.5, 0.5, 1.0, tau, 1.0, 1600)
    assert certified
    res = exact_decay_rate(_problem(tau))
    assert np.isclose(res.value, value, rtol=1e-5)


# T/tau -> rate at mu 0.5, gamma 0.5, vol 1, T 1: values once found by a scan
# over initial slopes in 16-62 s each, after the discrete start's whitened
# eigenvalue bound failed to converge or overflowed.
LARGE_LAG_RATIOS = {600: 0.1982005042, 1000: 0.1980189177, 5000: 0.1978014015}


@pytest.fixture(scope="module")
def counted_large_lags():
    """Each large-lag-ratio result, the solve_ivp calls of its rate, the oracle's shot integrations, and the shot."""
    return {ratio: _counted(_problem(1.0 / ratio)) for ratio in sorted(LARGE_LAG_RATIOS)}


@pytest.mark.parametrize("ratio", sorted(LARGE_LAG_RATIOS))
def test_large_lag_ratio_starts_certified(counted_large_lags, ratio):
    res, rate_calls, shot_calls, _ = counted_large_lags[ratio]
    assert np.isclose(res.value, LARGE_LAG_RATIOS[ratio], rtol=1e-8)
    assert rate_calls == 0
    assert shot_calls <= 8


# (mu, gamma, vol, tau, horizon). Draws 82, 104, 106 and 127 of
# default_rng(11), drawn in order as mu ~ U(.05, .95), gamma = 10^U(-1.3, .7),
# vol = 10^U(-.7, .7), T = 10^U(-1, 1), tau = T 10^U(-2.3, 2): a scan over
# initial slopes returned 3-9 times the certified rate on each. At tau = 1e308
# the one-step filter weight 1 - (1 - e^{-d/tau}) tau/d rounds below zero. At
# gamma T = 13000 the two discrete levels' rates differ by 26 %, so their
# extrapolation is refused (the d/dp0 sensitivity also overflows along the
# first shot).
CERTIFIED_OR_REFUSED = {
    "draw82": (0.3852289862805758, 3.5781993962842273, 0.7119847195296184, 0.05003434084824712, 3.985455561533374),
    "draw104": (0.6530955954544738, 4.471276445163399, 1.0377930723525155, 0.08386650712660974, 4.172698567668809),
    "draw106": (0.8119341768094288, 1.3265201846889585, 1.4719752778658444, 0.10463564630489619, 8.735623412071709),
    "draw127": (0.932091986973802, 4.5170066958289254, 1.3248860015841628, 16.467152526601712, 3.2940676601004104),
    "lag_beyond_rounding": (0.5, 0.5, 1.0, 1e308, 1.0),
    "sensitivity_overflow": (0.7704599936516205, 141.79158793113598, 2699.5271719058974, 0.2001630826045529,
                             91.79489154037428),
}


def _extrapolated_oracle(args):
    """The oracle's (800, 1600)-step Richardson extrapolation; a single n = 1600 level is 2-3e-5 off at gamma T ~ 15."""
    coarse, _ = certified_temperature_rate(*args, n=800)
    fine, certified = certified_temperature_rate(*args, n=1600)
    assert certified
    return (4.0 * fine - coarse) / 3.0


@pytest.mark.parametrize("args", CERTIFIED_OR_REFUSED.values(), ids=CERTIFIED_OR_REFUSED.keys())
def test_rate_is_certified_or_refused(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = exact_decay_rate(Exact1dProblem(*args))
        except NoBoundaryHit:
            return
    assert np.isclose(res.value, _extrapolated_oracle(args), rtol=1e-5)


def test_wide_level_gap_is_refused():
    # The 400- and 800-step rates are 2.025e-5 and 2.751e-5, 26 % apart, and
    # their extrapolation 2.993e-5 lies 7 % above the 3,200-step level.
    problem = Exact1dProblem(*CERTIFIED_OR_REFUSED["sensitivity_overflow"])
    with pytest.raises(NoBoundaryHit, match="differ by 0.26 relative"):
        certified_rate(problem)
    with pytest.raises(NoBoundaryHit, match="differ by 0.26 relative"):
        exact_decay_rate(problem)


def test_table_rows_load_no_ode_solver():
    # A fresh interpreter prices the six rows without importing
    # scipy.integrate; with it imported and its solve_ivp counted, they
    # still make no call.
    code = (
        "import sys\n"
        "from gridcap.exact1d import Exact1dProblem, exact_decay_rate\n"
        f"taus = {sorted(REFERENCE_RATES)!r}\n"
        "rows = [Exact1dProblem(0.5, 0.5, 1.0, tau, 1.0) for tau in taus]\n"
        "first = [exact_decay_rate(p).value for p in rows]\n"
        "loaded = 'scipy.integrate' in sys.modules\n"
        "import scipy.integrate\n"
        "original, calls = scipy.integrate.solve_ivp, []\n"
        "scipy.integrate.solve_ivp = lambda *a, **k: calls.append(1) or original(*a, **k)\n"
        "again = [exact_decay_rate(p).value for p in rows]\n"
        "print(loaded, len(calls), first == again)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["False", "0", "True"]


def test_certified_rate_at_extreme_lag_ratio():
    # T/tau = 1e5: the two-zone mesh keeps half its steps in the last 40 tau,
    # where explicit integration of theta' = (g^2 - theta)/tau would need ~19 s.
    problem = _problem(1e-5)
    certified_rate(_problem(0.5))  # scipy.linalg is loaded before the clock starts
    start = time.perf_counter()
    value = certified_rate(problem)
    assert time.perf_counter() - start < 0.1
    assert np.isclose(value, 0.1977498035, rtol=1e-7, atol=0.0)


@pytest.mark.parametrize("tau", sorted(REFERENCE_RATES))
def test_certified_rate_matches_shot_on_reference_rows(counted_rows, tau):
    _, _, _, shot = counted_rows[tau]
    assert np.isclose(certified_rate(_problem(tau)), shot.value, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("ratio", sorted(LARGE_LAG_RATIOS))
def test_certified_rate_matches_shot_at_large_lag_ratios(counted_large_lags, ratio):
    _, _, _, shot = counted_large_lags[ratio]
    assert np.isclose(certified_rate(_problem(1.0 / ratio)), shot.value, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("mu", [1e-165, 1e-200, 5e-324])
def test_underflowing_secular_slope_is_refused(mu):
    # g and W g scale with |mu|, so the Newton slope underflows to 0; the
    # step bisects the bracket instead of dividing by it, and no root is certified.
    with pytest.raises(NoBoundaryHit, match="no certified optimum"):
        exact_decay_rate(_problem(0.5, mu=mu))


def test_certified_rate_refuses_an_uncertified_level():
    # At tau = 1e308 the one-step weight c1 rounds below zero on every level.
    with pytest.raises(NoBoundaryHit):
        certified_rate(_problem(1e308))


# tau -> (value, x1, x2, shot.theta_end, shot.value) of exact_decay_rate on
# each table row, bit for bit: a faster secular solve must not move them,
# and `gridcap exact1d` prints the first four. shot.theta_end is the
# extrapolated discrete theta(T), and shot.value is the rate itself.
TABLE_ROW_BITS = {
    0.1: (0.22862878713875448, 0.5815108849471636, 0.6761024140970677, 1.0000000000074685, 0.22862878713875448),
    0.2: (0.2684491596369167, 0.7049337656154453, 0.9758630245927663, 1.000000000003441, 0.2684491596369167),
    0.3: (0.3170987829654316, 0.8343372151594272, 1.3177188390762193, 1.0000000000533324, 0.3170987829654316),
    0.4: (0.3726869653049885, 0.9595905961254703, 1.6918053708529335, 1.000000000008187, 0.3726869653049885),
    0.5: (0.43360683793641625, 1.0784994010589373, 2.098542809529905, 0.9999999999968017, 0.43360683793641625),
    0.6: (0.49876667521204315, 1.1912222763876084, 2.5361266688644974, 1.0000000000001676, 0.49876667521204315),
}


@pytest.mark.parametrize("tau", sorted(TABLE_ROW_BITS))
def test_table_row_bits(tau):
    res = exact_decay_rate(_problem(tau))
    assert (res.value, res.x1, res.x2, res.shot.theta_end, res.shot.value) == TABLE_ROW_BITS[tau]


def test_oracle_owns_its_shot_integrator():
    # The shooting route lives in the oracle alone: the package defines none
    # of its names, and no source file of the package names an ODE solver.
    moved = {"_integrate", "_refine", "BLOWUP_BOUND", "G_FLOOR", "NEWTON_STEPS", "THETA_TOL", "CONTROL_TOL",
             "ODE_RTOL", "ODE_ATOL", "_REFUSAL"}
    assert not {name for name in moved if hasattr(exact1d, name)}
    assert moved <= set(vars(oracles))
    sources = sorted(pathlib.Path(exact1d.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for source in sources:
        text = source.read_text()
        assert "scipy.integrate" not in text and "solve_ivp" not in text, source.name


@pytest.mark.parametrize("tau", sorted(REFERENCE_RATES))
def test_attaining_shot_matches_library_shot(counted_rows, tau):
    # The oracle lands by shooting and the package prices the discretized
    # problem, so the two agree within the integration and extrapolation
    # errors, not bit for bit.
    res, _, _, shot = counted_rows[tau]
    assert np.isclose(shot.theta_end, res.shot.theta_end, rtol=1e-9, atol=0.0)
    assert np.isclose(shot.value, res.shot.value, rtol=1e-9, atol=0.0)


def test_reused_ptsv_factors_match_two_banded_solves():
    # ?ptsv is ?pttrf then ?pttrs, so one dptsv and a dpttrs on its factors
    # give the bits of two solveh_banded calls, and refuse the same matrices.
    from scipy.linalg import solveh_banded
    from scipy.linalg.lapack import dptsv, dpttrs

    rng = np.random.default_rng(3)
    refused = 0
    for n in [4, 40, 400, 800] * 5:
        # diagonally dominant, so positive definite, unless shifted down
        off = rng.uniform(-0.5, 0.5, n - 1)
        h, wg = rng.standard_normal(n), rng.standard_normal(n)
        for shift in (0.0, rng.uniform(0.5, 2.5)):
            diag = rng.uniform(1.0, 3.0, n) - shift
            band = np.vstack([np.append(0.0, off), diag])
            pivots, lower, g, info = dptsv(diag, off, h)
            try:
                expected = solveh_banded(band, h, check_finite=False)
            except np.linalg.LinAlgError:
                assert shift > 0.0 and info > 0
                refused += 1
                continue
            assert info == 0
            assert np.array_equal(g, expected)
            assert np.array_equal(dpttrs(pivots, lower, wg)[0], solveh_banded(band, wg, check_finite=False))
    assert 10 <= refused < 20


@pytest.mark.xfail(
    strict=True,
    raises=NoBoundaryHit,
    reason="at T/tau = 1e6 the secular root is lost to rounding on 800 steps and more: lam is pinned between "
           "adjacent floats while g^T W g misses its target by more than ROUNDED_ROOT_TOL (CHANGES.md FOUND "
           "on _discrete_level; ROADMAP item 10)",
)
def test_lag_ratio_of_a_million_is_answered():
    # The rate falls toward the current rate 0.19774709 as T/tau grows.
    value = certified_rate(_problem(1e-6))
    assert 0.19774708 < value < certified_rate(_problem(1e-5))


@pytest.mark.parametrize("tau", sorted(REFERENCE_RATES))
def test_row_makes_two_solves(counted_rows, tau):
    # Started from the extrapolated discrete optimum, the oracle's Newton
    # lands after one step, on its second integration.
    _, _, shot_calls, _ = counted_rows[tau]
    assert shot_calls == 2


@pytest.mark.parametrize("name", ["draw82", "draw104", "draw106"])
def test_stalled_refinement_ends_early(monkeypatch, name):
    # The oracle's Newton reaches these optima within three steps, after
    # which the residual jitters at the integration's own error. The first
    # step that no longer lowers it ends the iteration, answered or refused,
    # instead of running out NEWTON_STEPS.
    calls = [0]
    original = oracles._integrate

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(oracles, "_integrate", counting)
    res = exact_decay_rate(Exact1dProblem(*CERTIFIED_OR_REFUSED[name]))
    assert calls[0] == 0
    with contextlib.suppress(NoBoundaryHit):
        attaining_shot(res)
    assert calls[0] <= 5


def test_large_gamma_horizon_draw_is_answered():
    # Draw 127 (gamma T = 14.9): the start from a single 400-step level missed
    # theta(T) = 1 by 0.42 and collapsed; the extrapolated start converges.
    args = CERTIFIED_OR_REFUSED["draw127"]
    assert np.isclose(exact_decay_rate(Exact1dProblem(*args)).value, _extrapolated_oracle(args), rtol=1e-7, atol=0.0)
