"""Acceptance gate: the eight headline guarantees, one pass/fail line per clause.

Each criterion runs at its stated tolerance and runtime budget. Two clauses
are currently red on purpose: two rows of the single-line benchmark table
(the certified variational optimum disagrees with the tabulated value at
tau = 0.2 and tau = 0.6) and the Monte Carlo decay-slope band (the fit at
reachable noise scales still carries prefactor variation). Their assertion
messages document the measured values; they must not be loosened.
"""

import dataclasses
import json
import time

import numpy as np
import pytest
from importlib import resources

from conftest import random_context, random_network, single_line_context
from oracles import (
    SamplePath,
    build_incidence,
    constrained_quadratic_rate,
    optimal_paths,
    rate_functional,
    uniform_grid,
)
from gridcap import (
    AnalysisDefaults,
    Exact1dProblem,
    InfeasibleStart,
    McConfig,
    PsiContext,
    ZeroVarianceLine,
    apply_imax_rule,
    build_laplacian,
    build_model,
    build_region,
    contains,
    current_decay_rate,
    decay_slope,
    exact_decay_rate,
    lb_decay_rate,
    noise_margins,
    overload_indicators,
    parse_matpower,
    psi,
    risk_partition,
    slice2d,
    taylor_decay_rate,
)
from gridcap.cli import main
from gridcap.grid_model import build_flow_matrices, operating_point

# single-line benchmark: mu=0.5, gamma=0.5, l=1, T=1, thermal lag tau per row
BENCH_TAUS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
BENCH_IC = 0.1977
BENCH_LB = (0.1978, 0.1998, 0.2088, 0.2247, 0.2455, 0.2696)
BENCH_TL = (0.2175, 0.2373, 0.2571, 0.2768, 0.2966, 0.3164)
BENCH_EXACT = (0.2308, 0.2763, 0.3190, 0.3731, 0.4337, 0.4669)


@pytest.fixture(scope="module")
def benchmark_exact():
    """Variational temperature rates for the benchmark rows, with row timings."""
    out = {}
    for tau in BENCH_TAUS:
        start = time.perf_counter()
        res = exact_decay_rate(Exact1dProblem(mu=0.5, gamma=0.5, vol=1.0, tau=tau, horizon=1.0))
        out[tau] = (res.value, time.perf_counter() - start)
    return out


# -- criterion 1: single-line benchmark table ---------------------------------


def test_criterion_1_current_rate_closed_form():
    ctx = single_line_context(tau=0.5)
    current_decay_rate(ctx)  # warm up
    start = time.perf_counter()
    value, argmin = current_decay_rate(ctx)
    elapsed = time.perf_counter() - start
    assert value == pytest.approx(BENCH_IC, abs=5e-4)
    assert argmin == (0,)
    assert elapsed < 1e-3


@pytest.mark.parametrize("tau,lb_ref,tl_ref", list(zip(BENCH_TAUS, BENCH_LB, BENCH_TL)))
def test_criterion_1_bound_columns_closed_form(tau, lb_ref, tl_ref):
    ctx = single_line_context(tau=tau)
    lb_decay_rate(ctx)
    taylor_decay_rate(ctx, tau)  # warm up
    start = time.perf_counter()
    lb, _ = lb_decay_rate(ctx)
    tl = taylor_decay_rate(ctx, tau)
    elapsed = time.perf_counter() - start
    assert lb == pytest.approx(lb_ref, abs=5e-4)
    assert tl == pytest.approx(tl_ref, abs=5e-4)
    assert elapsed < 1e-3


@pytest.mark.parametrize("tau,ref", list(zip(BENCH_TAUS, BENCH_EXACT)))
def test_criterion_1_exact_column(benchmark_exact, tau, ref):
    value, elapsed = benchmark_exact[tau]
    assert elapsed < 30.0
    rel = abs(value - ref) / ref
    assert rel <= 0.01, (
        f"tau={tau}: computed optimum {value:.6f} differs from the benchmark entry "
        f"{ref} by {100 * rel:.2f}%, beyond the 1% tolerance; the computed value is "
        "certified by three independent routes (nested shooting, discretized "
        "quadratic programming, stationarity residuals; see test_exact1d.py), so "
        "the benchmark entry itself looks inconsistent at this lag"
    )


# -- criterion 2: rate orderings ----------------------------------------------


def test_criterion_2_orderings_on_random_draws():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for _ in range(1000):
        ctx = random_context(rng, uniform_gamma=True, uniform_tau=True)
        ic, _ = current_decay_rate(ctx)
        lb, _ = lb_decay_rate(ctx)
        tl = taylor_decay_rate(ctx, float(ctx.tau[0]))
        assert ic <= lb + 1e-12
        assert ic <= tl + 1e-12
    assert time.perf_counter() - start < 10.0


def test_criterion_2_bounds_below_exact_on_benchmark(benchmark_exact):
    for tau, lb_ref, tl_ref in zip(BENCH_TAUS, BENCH_LB, BENCH_TL):
        exact, _ = benchmark_exact[tau]
        ctx = single_line_context(tau=tau)
        lb, _ = lb_decay_rate(ctx)
        tl = taylor_decay_rate(ctx, tau)
        assert lb <= exact + 1e-9
        assert tl <= exact + 1e-9
        assert lb == pytest.approx(lb_ref, abs=5e-4)
        assert tl == pytest.approx(tl_ref, abs=5e-4)


# -- criterion 3: brute-force oracle equivalence ------------------------------


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(23)
    start = time.perf_counter()
    collected = 0
    while collected < 100:
        ctx = random_context(rng, max_nodes=5)
        if ctx.flow.line_count > 5 or not ctx.stochastic_lines:
            continue
        line = int(rng.choice(ctx.stochastic_lines))
        a = float(rng.choice([-1.0, 1.0]))
        try:
            exact = psi(ctx, line, a)
        except ZeroVarianceLine:
            continue
        oracle, _ = constrained_quadratic_rate(ctx, line, a, 200)
        assert abs(exact - oracle) <= 1e-4 * oracle
        collected += 1
    assert time.perf_counter() - start < 60.0


# -- criterion 4: structural identities and path lemmas -----------------------


def test_criterion_4_rank_identities():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    for _ in range(50):
        net = random_network(rng)
        m = int(rng.integers(1, net.node_count))
        flow = build_flow_matrices(net, m)
        laplacian = build_laplacian(net)
        incidence = build_incidence(net)
        assert np.linalg.matrix_rank(laplacian) == net.node_count - 1
        assert np.linalg.matrix_rank(flow.stochastic_block) == m
        # kernel of the incidence map is exactly the constant vector
        assert np.linalg.matrix_rank(incidence) == net.node_count - 1
        assert np.allclose(incidence @ np.ones(net.node_count), 0.0, atol=1e-12)
    assert time.perf_counter() - start < 10.0


def test_criterion_4_time_shift_on_discrete_paths():
    rng = np.random.default_rng(41)
    start = time.perf_counter()
    done = 0
    while done < 3:
        ctx = random_context(rng, max_nodes=5)
        if not ctx.stochastic_lines:
            continue
        line = int(rng.choice(ctx.stochastic_lines))
        short = psi(ctx, line, 1.0)
        if short < 1e-8:
            continue
        n = 1000
        path, _ = optimal_paths(ctx, line, 1.0, n)
        # spend a leading stretch at the mean, then run the short optimum
        shift = ctx.horizon / 2
        extra = n // 2
        times = np.concatenate([
            np.linspace(0.0, shift, extra, endpoint=False),
            shift + path.times,
        ])
        values = np.vstack([
            np.broadcast_to(ctx.ou.mean, (extra, ctx.ou.m)),
            path.values,
        ])
        long_path = SamplePath(times=times, values=values)
        cost = rate_functional(long_path, ctx.ou)
        assert cost == pytest.approx(short, rel=2e-3)
        ou_long = dataclasses.replace(ctx.ou, horizon=ctx.horizon + shift)
        ctx_long = PsiContext(flow=ctx.flow, op=ctx.op, ou=ou_long)
        assert psi(ctx_long, line, 1.0) <= cost + 1e-10
        done += 1
    assert time.perf_counter() - start < 10.0


def test_criterion_4_level_monotonicity_on_discrete_paths():
    rng = np.random.default_rng(43)
    start = time.perf_counter()
    done = 0
    while done < 3:
        ctx = random_context(rng, max_nodes=5)
        if ctx.flow.line_count > 5 or not ctx.stochastic_lines:
            continue
        line = int(rng.choice(ctx.stochastic_lines))
        nu = float(ctx.op.nu[line])
        for sign in (1.0, -1.0):
            levels = nu + sign * np.linspace(0.1, 1.0, 4)
            costs = [constrained_quadratic_rate(ctx, line, a, 200)[0] for a in levels]
            assert np.all(np.diff(costs) > -1e-12)
        done += 1
    assert time.perf_counter() - start < 10.0


# -- criterion 5: region geometry ---------------------------------------------


def test_criterion_5_inclusion_chain_and_threshold():
    rng = np.random.default_rng(5)
    p = 1e-4
    log_term = np.log(1.0 / p)
    start = time.perf_counter()
    threshold_checked = 0
    for _ in range(500):
        ctx = random_context(rng, uniform_gamma=True, uniform_tau=True)
        live = list(ctx.stochastic_lines)
        if not live:
            continue
        sig2 = ctx.line_variances[live]
        # keep the largest per-line margin strictly below 1
        eps = float(rng.uniform(0.2, 0.8)) / (log_term * sig2.max())
        tau0 = float(ctx.tau[0])
        cur = build_region(ctx, "current", eps, p)
        lb = build_region(ctx, "temperature_lb", eps, p)
        tl = build_region(ctx, "temperature_taylor", eps, p, tau0=tau0)
        beta = noise_margins(ctx, eps, p)
        assert np.all(cur.bounds[live] <= lb.bounds[live] + 1e-12)
        assert np.all(cur.bounds[live] <= tl.bounds[live] + 1e-12)
        assert np.all(lb.bounds[live] < 1.0) and np.all(tl.bounds[live] < 1.0)
        assert np.all(lb.bounds[live] > 1.0 - beta[live] - 1e-12)

        mu2 = ctx.ou.mean + rng.normal(0.0, 0.4, ctx.ou.m)
        member = contains(cur, ctx.flow, mu2, ctx.op.mu_D)
        try:
            op2 = operating_point(ctx.flow, mu2, ctx.op.mu_D)
        except InfeasibleStart:
            assert not member
            continue
        ou2 = dataclasses.replace(ctx.ou, mean=np.asarray(mu2, dtype=float))
        rate, _ = current_decay_rate(PsiContext(flow=ctx.flow, op=op2, ou=ou2))
        margin = rate - eps * log_term
        if abs(margin) <= 1e-9:
            continue
        assert member == (margin > 0)
        threshold_checked += 1
    assert threshold_checked > 300
    assert time.perf_counter() - start < 30.0


def test_criterion_5_slice_polygons_convex():
    rng = np.random.default_rng(55)
    convex_checked = 0
    attempts = 0
    while convex_checked < 20 and attempts < 200:
        attempts += 1
        ctx = random_context(rng, uniform_gamma=True, uniform_tau=True)
        nonslack = ctx.ou.m + ctx.op.mu_D.size
        if nonslack < 2 or not ctx.stochastic_lines:
            continue
        live = list(ctx.stochastic_lines)
        sig2 = ctx.line_variances[live]
        p = 1e-4
        eps = float(rng.uniform(0.2, 0.8)) / (np.log(1.0 / p) * sig2.max())
        free = tuple(int(k) for k in rng.choice(np.arange(1, nonslack + 1), 2, replace=False))
        fixed = np.concatenate([ctx.ou.mean, ctx.op.mu_D])
        for kind in ("deterministic", "current"):
            region = build_region(ctx, kind, eps, p)
            try:
                sl = slice2d(region, ctx.flow, free, fixed, (-2.0, 2.0, -2.0, 2.0))
            except Exception:
                continue
            v = sl.vertices
            rolled = np.roll(v, -1, axis=0)
            e1 = rolled - v
            e2 = np.roll(rolled, -1, axis=0) - rolled
            cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
            assert np.all(cross >= -1e-9)
            convex_checked += 1
    assert convex_checked >= 20


# -- criterion 6: 14-bus at-risk-line maps ------------------------------------


@pytest.fixture(scope="module")
def bus14_partition():
    text = resources.files("gridcap").joinpath("data", "case14.m").read_text()
    case = parse_matpower(text)
    defaults = AnalysisDefaults(epsilon=0.25, p=1e-4, horizon=1.0, tau0=0.5)

    def build(stochastic):
        doc = apply_imax_rule(
            case, 1.5, stochastic, (6, 9), gamma=1.0, vol=10.0, tau=0.5,
            defaults=defaults, zero_flow_rating=1.0,
        )
        bm = build_model(doc)
        free = (bm.node_ids.index(6), bm.node_ids.index(9))
        fixed = np.concatenate([bm.ou.mean, bm.op.mu_D])
        det = build_region(bm.ctx, "deterministic", 0.25, 1e-4)
        sl = slice2d(det, bm.flow, free, fixed, (-10.0, 10.0, -10.0, 10.0))
        umin, vmin = sl.vertices.min(axis=0)
        umax, vmax = sl.vertices.max(axis=0)
        pad_u, pad_v = 0.05 * (umax - umin), 0.05 * (vmax - vmin)
        bbox = (umin - pad_u, umax + pad_u, vmin - pad_v, vmax + pad_v)
        start = time.perf_counter()
        part = risk_partition(bm.ctx, free, fixed, bbox, resolution=400)
        elapsed = time.perf_counter() - start
        label_sets = [
            frozenset(frozenset(bm.line_terminals[i]) for i in s.label)
            for s in part.summaries
        ]
        central = frozenset(frozenset(bm.line_terminals[i]) for i in part.central_label)
        return label_sets, central, elapsed

    return {stoch: build(stoch) for stoch in ((2, 3), (2, 13))}


def test_criterion_6_partition_labels_stochastic_2_3(bus14_partition):
    label_sets, central, elapsed = bus14_partition[(2, 3)]
    assert elapsed < 120.0
    assert central == frozenset([frozenset((3, 4))])
    for pair in ((9, 10), (5, 6), (7, 9), (10, 11)):
        assert any(frozenset(pair) in labels for labels in label_sets), pair


def test_criterion_6_partition_labels_stochastic_2_13(bus14_partition):
    label_sets, central, elapsed = bus14_partition[(2, 13)]
    assert elapsed < 120.0
    assert central == frozenset([frozenset((12, 13))])
    assert any(frozenset((4, 7)) in labels for labels in label_sets)


# -- criterion 7: Monte Carlo consistency -------------------------------------


def test_criterion_7_decay_slope_matches_closed_form():
    ctx = single_line_context(tau=0.5)
    config = McConfig(replicates=100_000, step_count=200, seed=11)
    epsilons = (0.5, 0.4, 0.3, 0.25)
    start = time.perf_counter()
    fit = decay_slope(ctx, config, epsilons)
    assert time.perf_counter() - start < 300.0
    low, high = 0.8 * 0.19775, 1.2 * 0.19775
    assert low <= fit.rate <= high, (
        f"fitted decay slope {fit.rate:.4f} over noise scales {epsilons} lies outside "
        f"[{low:.4f}, {high:.4f}], the 20% band around the closed-form rate 0.19775; "
        "the gap is a finite-noise effect: at these reachable scales the local slope "
        "of log p-hat still carries prefactor variation, and separate calibration "
        "runs show it falling toward the closed form (about 0.228 over scales near "
        "0.10-0.14) as the noise shrinks"
    )


def test_criterion_7_pathwise_coupling_every_seed():
    ctx = single_line_context(tau=0.5)
    for seed in (0, 1, 2, 3, 4):
        ind = overload_indicators(ctx, McConfig(replicates=20_000, step_count=200, seed=seed))
        assert ind.current[ind.temperature].all()
        assert ind.temperature.sum() <= ind.current.sum()


# -- criterion 8: determinism -------------------------------------------------


def test_criterion_8_bit_identical_reruns_and_chunking():
    ctx = single_line_context(tau=0.5)
    base = McConfig(replicates=4000, step_count=100, seed=21)
    first = overload_indicators(ctx, base)
    second = overload_indicators(ctx, base)
    assert np.array_equal(first.current, second.current)
    assert np.array_equal(first.temperature, second.temperature)
    rechunked = overload_indicators(ctx, dataclasses.replace(base, chunk=37))
    assert np.array_equal(first.current, rechunked.current)
    assert np.array_equal(first.temperature, rechunked.temperature)

    fit_cfg = McConfig(replicates=3000, step_count=80, seed=29)
    fit_a = decay_slope(ctx, fit_cfg, (0.5, 0.4))
    fit_b = decay_slope(ctx, dataclasses.replace(fit_cfg, chunk=64), (0.5, 0.4))
    assert fit_a == fit_b


def test_criterion_8_thread_flag_leaves_output_unchanged(capsys):
    args = ("mc", "builtin:wheel3", "--eps", "0.5", "--n", "1500", "--steps", "60", "--seed", "9")
    assert main(["--threads", "1", *args]) == 0
    narrow = capsys.readouterr().out
    assert main(["--threads", "8", *args]) == 0
    wide = capsys.readouterr().out
    assert narrow == wide


def test_thread_flag_leaves_output_unchanged_at_a_size_that_forks(capsys, monkeypatch, tmp_path):
    doc = tmp_path / "case14.json"
    convert = ("convert", "builtin:case14", "--K", "1.5", "--stochastic", "2,3", "--controllable", "6,9",
               "--gamma", "1", "--vol", "10", "--tau", "0.5", "--zero-flow-rating", "1", "--epsilon", "0.0004",
               "--p", "0.0001", "--horizon", "1", "--tau0", "0.5", "--output", str(doc))
    assert main(list(convert)) == 0
    # 20,000 x 200 steps is four noise blocks: the default run splits it over two processes on any machine
    monkeypatch.setattr("gridcap.montecarlo._usable_cpus", lambda: 2)
    args = ("mc", str(doc), "--n", "20000", "--steps", "200", "--seed", "5")
    assert main(["--threads", "1", *args]) == 0
    narrow = capsys.readouterr().out
    assert main(list(args)) == 0
    wide = capsys.readouterr().out
    assert json.loads(wide)["estimates"][0]["hits"] > 0
    assert narrow == wide
