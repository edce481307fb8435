"""Coupled overload simulation: determinism, coupling, intervals, slope fits."""

import os
import time
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from conftest import make_context, random_context, single_line_context, wheel_context
from gridcap._streams import fill_normal_blocks
from gridcap.errors import InsufficientHits
from gridcap.grid_model import GridNetwork
from gridcap.io_formats import AnalysisDefaults, apply_imax_rule, build_model, parse_matpower
from gridcap.montecarlo import (
    NOISE_BLOCK_BYTES,
    McConfig,
    Z_95,
    _coefficients,
    _may_reach,
    _ou_paths,
    _peaks,
    _usable_cpus,
    _worker_count,
    decay_slope,
    overload_indicators,
    overload_probability,
    wilson_interval,
)
from oracles import SamplePath, full_width_indicators, full_width_peaks, reach_bound, simulate_ou, xi_map


def test_wilson_interval_textbook_case():
    lo, hi = wilson_interval(5, 10)
    assert np.isclose(lo, 0.23659, atol=1e-4)
    assert np.isclose(hi, 0.76341, atol=1e-4)


def test_wilson_interval_edges_and_containment():
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 1000))
        h = int(rng.integers(0, n + 1))
        lo, hi = wilson_interval(h, n)
        assert 0.0 <= lo <= h / n <= hi <= 1.0
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(6, 5)


def test_z_constant_is_two_sided_95():
    from scipy import stats

    assert np.isclose(Z_95, stats.norm.ppf(0.975), atol=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(0, 10, 1)
    with pytest.raises(ValueError):
        McConfig(10, 0, 1)
    with pytest.raises(ValueError):
        McConfig(10, 10, -1)
    with pytest.raises(ValueError):
        McConfig(10, 10, 1, chunk=0)


def test_indicators_deterministic_and_chunk_invariant():
    ctx = single_line_context(epsilon=0.3)
    base = overload_indicators(ctx, McConfig(500, 64, 7, chunk=256))
    again = overload_indicators(ctx, McConfig(500, 64, 7, chunk=256))
    odd_chunks = overload_indicators(ctx, McConfig(500, 64, 7, chunk=13))
    assert np.array_equal(base.current, again.current)
    assert np.array_equal(base.temperature, again.temperature)
    # replicate streams are keyed individually, so chunking cannot matter
    assert np.array_equal(base.current, odd_chunks.current)
    assert np.array_equal(base.temperature, odd_chunks.temperature)


def test_different_seed_changes_draws():
    ctx = single_line_context(epsilon=0.3)
    a = overload_indicators(ctx, McConfig(500, 64, 7))
    b = overload_indicators(ctx, McConfig(500, 64, 8))
    assert not np.array_equal(a.current, b.current)


def test_temperature_overload_implies_current_overload():
    # The temperature is a convex average of past squared currents, so on
    # every single path the thermal event needs a current excursion first.
    for ctx in (single_line_context(epsilon=0.4), wheel_context(epsilon=0.6)):
        ind = overload_indicators(ctx, McConfig(2000, 100, 3))
        assert ind.temperature.sum() > 0
        assert np.all(ind.current[ind.temperature])


def test_threshold_monotone_pathwise():
    ctx = single_line_context(epsilon=0.4)
    low = overload_indicators(ctx, McConfig(1000, 100, 5), threshold=0.9)
    high = overload_indicators(ctx, McConfig(1000, 100, 5), threshold=1.1)
    assert np.all(low.current[high.current])
    assert np.all(low.temperature[high.temperature])
    assert high.current.sum() < low.current.sum()


def test_zero_noise_never_overloads():
    ctx = single_line_context(epsilon=0.0)
    est = overload_probability(ctx, McConfig(200, 50, 0))
    assert est.hits == 0
    assert est.p_hat == 0.0
    assert est.ci_low == 0.0


def test_estimate_bookkeeping():
    ctx = single_line_context(epsilon=0.3)
    est = overload_probability(ctx, McConfig(4000, 100, 2), mode="temperature")
    assert est.mode == "temperature"
    assert est.replicates == 4000
    assert est.p_hat == est.hits / 4000
    assert est.ci_low <= est.p_hat <= est.ci_high
    with pytest.raises(ValueError):
        overload_probability(ctx, McConfig(10, 10, 0), mode="peak")
    with pytest.raises(ValueError):
        overload_probability(ctx, McConfig(10, 10, 0), threshold=0.0)


def test_temperature_no_more_likely_than_current():
    ctx = single_line_context(epsilon=0.35)
    cfg = McConfig(4000, 150, 19)
    cur = overload_probability(ctx, cfg, mode="current")
    tmp = overload_probability(ctx, cfg, mode="temperature")
    assert tmp.p_hat <= cur.p_hat


def test_halving_the_step_changes_little():
    # Near-exact path sampling: refining the grid moves the estimate by far
    # less than the statistical interval width.
    ctx = single_line_context(epsilon=0.3)
    coarse = overload_probability(ctx, McConfig(5000, 200, 17))
    fine = overload_probability(ctx, McConfig(5000, 400, 17))
    width = coarse.ci_high - coarse.ci_low
    assert abs(coarse.p_hat - fine.p_hat) < width


def test_estimated_level_in_calibrated_band():
    # eps log(1/p_hat) at eps=0.3 for the single-line current event; the
    # band was frozen from three independent seeds of this exact setup.
    ctx = single_line_context(epsilon=0.3)
    est = overload_probability(ctx, McConfig(100000, 200, 11))
    level = -0.3 * np.log(est.p_hat)
    assert 0.34 < level < 0.37


def test_decay_slope_fit():
    ctx = single_line_context()
    fit = decay_slope(ctx, McConfig(30000, 200, 11), (0.25, 0.30, 0.35, 0.40))
    assert fit.mode == "current"
    assert fit.epsilons == (0.25, 0.30, 0.35, 0.40)
    assert len(fit.estimates) == 4
    assert fit.rate == -fit.slope
    assert 0.25 < fit.rate < 0.30
    assert fit.residual < 0.02
    # deterministic: same seed reproduces the numbers bit for bit
    again = decay_slope(ctx, McConfig(30000, 200, 11), (0.25, 0.30, 0.35, 0.40))
    assert again.slope == fit.slope
    assert [e.hits for e in again.estimates] == [e.hits for e in fit.estimates]


def test_decay_slope_temperature_above_current():
    ctx = single_line_context()
    cfg = McConfig(30000, 200, 11)
    eps = (0.25, 0.30, 0.35, 0.40)
    cur = decay_slope(ctx, cfg, eps)
    tmp = decay_slope(ctx, cfg, eps, mode="temperature")
    assert tmp.rate > cur.rate
    assert 0.55 < tmp.rate < 0.70


def test_decay_slope_validation_and_insufficient_hits():
    ctx = single_line_context()
    cfg = McConfig(1000, 50, 0)
    with pytest.raises(ValueError):
        decay_slope(ctx, cfg, (0.3,))
    with pytest.raises(ValueError):
        decay_slope(ctx, cfg, (0.3, -0.1))
    with pytest.raises(InsufficientHits):
        decay_slope(ctx, cfg, (0.01, 0.3))


def test_indicator_arrays_read_only():
    ctx = single_line_context(epsilon=0.3)
    ind = overload_indicators(ctx, McConfig(50, 20, 0))
    with pytest.raises(ValueError):
        ind.current[0] = True


def _oracle_peaks(ctx, replicates, steps, seed):
    """Peak squared current and peak temperature per replicate, one path at a time."""
    C, y = ctx.flow.stochastic_block, ctx.op.y
    cur, tmp = [], []
    for r in range(replicates):
        path = simulate_ou(ctx.ou, steps, seed, r)
        current = SamplePath(path.times, path.values @ C.T + y)
        cur.append(np.max(current.values**2))
        tmp.append(np.max(xi_map(current, ctx.tau).values))
    return np.array(cur), np.array(tmp)


def _wheel_distinct_tau():
    """wheel3 with a distinct thermal constant on every line."""
    net = GridNetwork(
        node_count=3,
        lines=((0, 1), (0, 2), (1, 2)),
        susceptance=np.ones(3),
        current_rating=np.ones(3),
        thermal_constant=np.array([0.2, 0.5, 1.1]),
    )
    return make_context(net, 2, [0.3, 0.3], [1.0, 1.0], [1.0, 1.0], 0.6, 1.0)


def _splitting_levels(peaks):
    """Squared thresholds halfway between neighbouring sorted peaks at a few quantiles."""
    ordered = np.sort(peaks)
    levels = []
    for q in (0.2, 0.5, 0.8, 0.95):
        k = int(q * (ordered.size - 1))
        assert ordered[k + 1] - ordered[k] > 2e-9
        levels.append(0.5 * (ordered[k] + ordered[k + 1]))
    return levels


def test_kernel_matches_per_path_oracle():
    ctx = _wheel_distinct_tau()
    replicates, steps, seed = 64, 50, 4
    cur, tmp = _oracle_peaks(ctx, replicates, steps, seed)
    for level in _splitting_levels(cur):
        ind = overload_indicators(ctx, McConfig(replicates, steps, seed, chunk=24), threshold=np.sqrt(level))
        assert np.array_equal(ind.current, cur >= level)
    for level in _splitting_levels(tmp):
        ind = overload_indicators(ctx, McConfig(replicates, steps, seed, chunk=24), threshold=np.sqrt(level))
        assert np.array_equal(ind.temperature, tmp >= level)


def test_noise_block_cap_leaves_indicators_unchanged(monkeypatch):
    ctx = wheel_context(epsilon=0.6)
    config = McConfig(300, 40, 2)
    base = overload_indicators(ctx, config)
    # blocks of 3 replicates: 3 * 40 steps * 2 nodes * 8 bytes
    monkeypatch.setattr("gridcap.montecarlo.NOISE_BLOCK_BYTES", 3 * 40 * 2 * 8)
    capped = overload_indicators(ctx, config)
    assert base.current.sum() > 0
    assert np.array_equal(base.current, capped.current)
    assert np.array_equal(base.temperature, capped.temperature)


def _cancelling_feeder():
    """Network whose stochastic and fixed injections of ~1e8 cancel to a small net flow.

    Bus 1 is stochastic with mean 1e8 and bus 3, fed only through bus 1, is
    fixed at -1e8 + 0.3; bus 2 is stochastic with mean 0.2. On the meshed
    lines |y| ~ |C mean| ~ 1e8 while the currents stay below one.
    """
    net = GridNetwork(
        node_count=4,
        lines=((0, 1), (0, 2), (1, 2), (1, 3)),
        susceptance=np.array([1.0, 2.0, 1.5, 3.0]),
        current_rating=np.array([0.7, 1.0, 1.5, 1e9]),
        thermal_constant=np.array([0.3, 0.5, 0.8, 0.4]),
    )
    ctx = make_context(net, 2, [1e8, 0.2], [1.0, 2.0], [1.0, 0.5], 0.05, 1.0, mu_D=[-1e8 + 0.3])
    assert np.all(np.abs(ctx.op.y[:3]) > 1e7) and np.max(np.abs(ctx.op.nu)) < 1.0
    return ctx


def _cancelling_spur():
    """Bus 1 stochastic with mean 1e8 feeds bus 2, fixed at -1e8 + 0.3, over a spur.

    With one stochastic bus the box bound is tight, so on line (0, 1), where
    |y| ~ |C mean| ~ 1.4e8 and the current is about 0.43, only the slack
    covers the rounding of the cancelling sum.
    """
    net = GridNetwork(
        node_count=3,
        lines=((0, 1), (1, 2)),
        susceptance=np.array([1.0, 2.0]),
        current_rating=np.array([0.7, 1e9]),
        thermal_constant=np.array([0.3, 0.5]),
    )
    return make_context(net, 1, [1e8], [1.0], [1.0], 0.05, 1.0, mu_D=[-1e8 + 0.3])


def _peak_levels(peaks):
    """Thresholds whose squares sit on replicates' own peaks, so those paths graze the limit."""
    return [float(np.sqrt(np.quantile(peaks, qu, method="lower"))) for qu in (0.5, 0.9)]


def _stored_paths(ctx, replicates, steps, seed):
    mu, decay, std, *_ = _coefficients(ctx, steps)
    z = fill_normal_blocks(seed, 0, np.empty((replicates, steps, ctx.ou.m)))
    x = np.ascontiguousarray(z.transpose(1, 2, 0))
    _ou_paths(x, mu, decay, std)
    return x


@pytest.mark.parametrize("make", [_wheel_distinct_tau, single_line_context])
def test_kernel_peaks_independent_of_width(make):
    # One-wide matmuls take NumPy's gemv path, which rounds differently
    # from gemm: a column must get the same peaks alone or in any block.
    ctx = make()
    mu, _, _, C, y, q, c1, c2 = _coefficients(ctx, 50)
    x = _stored_paths(ctx, 64, 50, 4)
    cur, tmp = _peaks(x, mu, C, y, q, c1, c2)
    for width in (1, 2, 3):
        for start in range(0, 64 - width + 1, width):
            sub = np.ascontiguousarray(x[:, :, start : start + width])
            got_cur, got_tmp = _peaks(sub, mu, C, y, q, c1, c2)
            assert np.array_equal(got_cur, cur[start : start + width])
            assert np.array_equal(got_tmp, tmp[start : start + width])


@pytest.mark.parametrize("make", [_wheel_distinct_tau, single_line_context])
def test_indicators_equal_at_chunk_1_and_2048(make):
    ctx = make()
    mu, _, _, C, y, q, c1, c2 = _coefficients(ctx, 50)
    cur, tmp = _peaks(_stored_paths(ctx, 200, 50, 9), mu, C, y, q, c1, c2)
    for threshold in _peak_levels(cur) + _peak_levels(tmp):
        wide = overload_indicators(ctx, McConfig(200, 50, 9, chunk=2048), threshold)
        narrow = overload_indicators(ctx, McConfig(200, 50, 9, chunk=1), threshold)
        assert wide.current.any()
        assert np.array_equal(wide.current, narrow.current)
        assert np.array_equal(wide.temperature, narrow.temperature)


def _assert_matches_full_width(ctx, replicates, steps, seed):
    cfg = McConfig(replicates, steps, seed)
    cur, tmp = full_width_peaks(ctx, cfg)
    for threshold in _peak_levels(cur) + _peak_levels(tmp):
        want = full_width_indicators(ctx, cfg, threshold)
        for chunk in (1, 7, 2048):
            got = overload_indicators(ctx, McConfig(replicates, steps, seed, chunk=chunk), threshold)
            assert np.array_equal(got.current, want[0]), (threshold, chunk)
            assert np.array_equal(got.temperature, want[1]), (threshold, chunk)


def test_matches_full_width_oracle_on_random_networks():
    rng = np.random.default_rng(20260)
    for k in range(20):
        _assert_matches_full_width(random_context(rng), 64, 40, 100 + k)


@pytest.mark.parametrize(
    "make",
    [_cancelling_feeder, _cancelling_spur, lambda: wheel_context(tau=1e6, epsilon=0.6)],
    ids=["cancelling_feeder", "cancelling_spur", "huge_tau"],
)
def test_matches_full_width_oracle_at_extremes(make):
    _assert_matches_full_width(make(), 128, 60, 5)


def test_benchmark_configuration_hit_counts():
    # converted IEEE 14-bus case at eps 4e-4, 20,000 x 200 steps, seed 7
    case = parse_matpower(resources.files("gridcap").joinpath("data", "case14.m").read_text())
    defaults = AnalysisDefaults(epsilon=4e-4, p=1e-4, horizon=1.0, tau0=0.5)
    doc = apply_imax_rule(
        case, 1.5, (2, 3), (6, 9), gamma=1.0, vol=10.0, tau=0.5, defaults=defaults, zero_flow_rating=1.0
    )
    ind = overload_indicators(build_model(doc).ctx, McConfig(20_000, 200, 7))
    assert (int(ind.current.sum()), int(ind.temperature.sum())) == (1856, 40)


def _priced(x, mu, C, y, q, c1, c2, lines):
    """`_peaks` on the rows `lines` of every line-indexed coefficient."""
    return _peaks(x, mu, *(c[lines] for c in (C, y, q, c1, c2)))


def _assert_line_subsets_keep_bits(ctx, replicates=24, steps=40, seed=3):
    # A line priced alone (twice over) gives its own peaks; if every row keeps
    # its bits, a subset's peaks are the maximum of its lines' at any width,
    # and all lines together give the full C's peaks.
    mu, _, _, C, y, q, c1, c2 = _coefficients(ctx, steps)
    x = _stored_paths(ctx, replicates, steps, seed)
    L = C.shape[0]
    alone = [_priced(x, mu, C, y, q, c1, c2, [k, k]) for k in range(L)]
    for got, want in zip(_peaks(x, mu, C, y, q, c1, c2), zip(*alone)):
        assert np.array_equal(got, np.max(want, axis=0))
    for lines in ([0, 0], [L - 1, L - 1], [0, L - 1], list(range(L))):
        want = [np.max([alone[k][j] for k in lines], axis=0) for j in (0, 1)]
        for width in (1, 2, 3, replicates):
            for start in range(0, replicates - width + 1, width):
                sub = np.ascontiguousarray(x[:, :, start : start + width])
                got_cur, got_tmp = _priced(sub, mu, C, y, q, c1, c2, lines)
                assert np.array_equal(got_cur, want[0][start : start + width]), (lines, width, start)
                assert np.array_equal(got_tmp, want[1][start : start + width]), (lines, width, start)


@pytest.mark.parametrize("make", [_wheel_distinct_tau, single_line_context])
def test_pricing_a_line_subset_keeps_its_bits(make):
    _assert_line_subsets_keep_bits(make())


def test_pricing_a_line_subset_keeps_its_bits_on_random_networks():
    rng = np.random.default_rng(1717)
    for k in range(8):
        _assert_line_subsets_keep_bits(random_context(rng), seed=k)


def _case14_context(epsilon):
    """The benchmark's converted IEEE 14-bus case at noise scale epsilon."""
    case = parse_matpower(resources.files("gridcap").joinpath("data", "case14.m").read_text())
    defaults = AnalysisDefaults(epsilon=epsilon, p=1e-4, horizon=1.0, tau0=0.5)
    doc = apply_imax_rule(
        case, 1.5, (2, 3), (6, 9), gamma=1.0, vol=10.0, tau=0.5, defaults=defaults, zero_flow_rating=1.0
    )
    return build_model(doc).ctx


def _grazing_levels(peaks, count):
    """Thresholds whose squares equal one of the `count` highest peaks exactly."""
    levels = []
    for peak in np.sort(peaks)[-count:]:
        root = float(np.sqrt(peak))
        for t in (root, float(np.nextafter(root, 0.0)), float(np.nextafter(root, np.inf))):
            if t * t == peak:
                levels.append(t)
                break
    return levels


@pytest.mark.parametrize("epsilon", [4e-3, 4e-2])
def test_line_pruned_kernel_matches_full_width_oracle_on_case14(epsilon):
    ctx = _case14_context(epsilon)
    replicates, steps, seed = 200, 80, 3
    config = McConfig(replicates, steps, seed)
    _assert_matches_full_width(ctx, replicates, steps, seed)
    # at the levels on the replicates' own peaks, from one line to several
    # reach, but never all of them
    mu, _, _, C, y, *_ = _coefficients(ctx, steps)
    x = _stored_paths(ctx, replicates, steps, seed)
    cur, tmp = full_width_peaks(ctx, config)
    reached = [int(_may_reach(x, mu, C, y, t, t * t).any(axis=1).sum()) for t in _peak_levels(cur) + _peak_levels(tmp)]
    assert min(reached) == 1 and 2 < max(reached) < C.shape[0], reached
    # at the highest peaks one line reaches, and a replicate hits only if its
    # current keeps the bits it has among all lines
    levels = _grazing_levels(cur, 40)
    assert len(levels) >= 30
    for threshold in levels:
        want = full_width_indicators(ctx, config, threshold)
        got = overload_indicators(ctx, config, threshold)
        assert np.array_equal(got.current, want[0]), threshold
        assert np.array_equal(got.temperature, want[1]), threshold


def test_temperature_rounding_above_a_lines_current_still_counts():
    # Line (0, 2) carries a constant deterministic current; with a long
    # thermal lag its computed temperature creeps thousands of ulps above its
    # squared current. At a threshold between the two, the line's current
    # cannot reach the limit, yet its temperature decides the temperature hits
    # of replicates that line (0, 1) overloads in current only.
    net = GridNetwork(
        node_count=3,
        lines=((0, 1), (0, 2)),
        susceptance=np.ones(2),
        current_rating=np.ones(2),
        thermal_constant=np.array([10.0, 1e3]),
    )
    ctx = make_context(net, 1, [0.0], [1.0], [1.0], 0.5, 1.0, mu_D=[0.65])
    replicates, steps, seed = 64, 2000, 1
    mu, _, _, C, y, q, c1, c2 = _coefficients(ctx, steps)
    x = _stored_paths(ctx, replicates, steps, seed)
    _, tmp_a = _priced(x, mu, C, y, q, c1, c2, [0, 0])
    cur_b, tmp_b = (float(v[0]) for v in _priced(x, mu, C, y, q, c1, c2, [1, 1]))
    threshold = float(np.sqrt(tmp_b))
    while threshold * threshold > tmp_b:
        threshold = float(np.nextafter(threshold, 0.0))
    th2 = threshold * threshold
    assert th2 > cur_b * (1 + 1000 * 2.0**-53)
    want = full_width_indicators(ctx, McConfig(replicates, steps, seed), threshold)
    assert np.any(want[1] & (tmp_a < th2))
    for chunk in (7, 2048):
        got = overload_indicators(ctx, McConfig(replicates, steps, seed, chunk=chunk), threshold)
        assert np.array_equal(got.current, want[0])
        assert np.array_equal(got.temperature, want[1])


def _assert_reach_keeps_bits(ctx, replicates, steps, seed):
    # th2 set to bound entries themselves: a bound one ulp off its oracle
    # flips that entry of the mask
    mu, _, _, C, y, *_ = _coefficients(ctx, steps)
    x = _stored_paths(ctx, replicates, steps, seed)
    for width in (1, 2, 7, replicates):
        sub = np.ascontiguousarray(x[:, :, :width])
        for threshold in (0.05, 1.0, 3.0):
            bound = reach_bound(sub, mu, C, y, threshold, 1.0)
            levels = np.unique(np.quantile(bound, np.linspace(0.0, 1.0, 9), method="nearest"))
            for th2 in [*levels, threshold * threshold]:
                want = ~(reach_bound(sub, mu, C, y, threshold, th2) < th2)
                got = _may_reach(sub, mu, C, y, threshold, th2)
                assert got.tobytes() == want.tobytes(), (width, threshold, th2)
        for threshold, th2 in ((1e-300, 0.0), (1e200, np.inf)):
            with np.errstate(over="ignore", invalid="ignore"):  # as in `overload_indicators`
                got = _may_reach(sub, mu, C, y, threshold, th2)
                want = ~(reach_bound(sub, mu, C, y, threshold, th2) < th2)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "make",
    [_wheel_distinct_tau, single_line_context, _cancelling_feeder, _cancelling_spur, lambda: _case14_context(4e-3)],
    ids=["wheel_distinct_tau", "single_line", "cancelling_feeder", "cancelling_spur", "case14"],
)
def test_reach_mask_matches_expression_oracle(make):
    _assert_reach_keeps_bits(make(), 48, 30, 5)


def test_reach_mask_matches_expression_oracle_on_random_networks():
    rng = np.random.default_rng(4242)
    for k in range(6):
        _assert_reach_keeps_bits(random_context(rng), 24, 20, k)


def test_reach_mask_memory_budget():
    # converted case14 in one 2,048-replicate block of 200 steps: the bound
    # needs two (L, R) float arrays, where the expression form held four or
    # more at once
    ctx = _case14_context(4e-4)
    replicates, steps = 2048, 200
    mu, _, _, C, y, *_ = _coefficients(ctx, steps)
    x = _stored_paths(ctx, replicates, steps, 7)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        reach = _may_reach(x, mu, C, y, 1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert reach.tobytes() == (~(reach_bound(x, mu, C, y, 1.0, 1.0) < 1.0)).tobytes()
    assert peak < 3 * C.shape[0] * replicates * 8


def test_decay_slope_refuses_one_distinct_noise_scale():
    # a line through repeated abscissae is no fit: polyfit warned and returned a meaningless slope
    with pytest.raises(ValueError, match="two distinct noise scales"):
        decay_slope(wheel_context(), McConfig(200, 20, 0), (0.5, 0.5))


def test_config_refuses_a_worker_cap_below_one():
    with pytest.raises(ValueError, match="workers"):
        McConfig(10, 10, 0, workers=0)
    assert McConfig(10, 10, 0, workers=1).workers == 1


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks(monkeypatch):
    """Record the pid of every child forked from here on."""
    forks, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _split_setup(monkeypatch, cpus=3):
    """A small wheel run that forks: blocks of 3 replicates, `cpus` usable CPUs."""
    ctx = wheel_context(epsilon=0.6)
    config = McConfig(300, 40, 2)
    base = overload_indicators(ctx, config)
    assert base.current.sum() > 0
    monkeypatch.setattr("gridcap.montecarlo.NOISE_BLOCK_BYTES", 3 * 40 * 2 * 8)
    monkeypatch.setattr("gridcap.montecarlo._usable_cpus", lambda: cpus)
    return ctx, config, base


@pytest.mark.parametrize("chunk", [13, 2048])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_split_over_processes_keeps_bits(monkeypatch, workers, chunk):
    ctx, config, base = _split_setup(monkeypatch)
    forks = _count_forks(monkeypatch)
    ind = overload_indicators(ctx, McConfig(300, 40, 2, chunk=chunk, workers=workers))
    assert len(forks) == workers - 1
    _assert_no_children()
    assert np.array_equal(base.current, ind.current)
    assert np.array_equal(base.temperature, ind.temperature)


@pytest.mark.parametrize(
    "send",
    [lambda fd, current, temperature: os._exit(1), lambda fd, current, temperature: os.write(fd, b"\0")],
    ids=["exit-1", "short-payload"],
)
def test_failed_child_range_is_recomputed(monkeypatch, send):
    ctx, config, base = _split_setup(monkeypatch)
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr("gridcap.montecarlo._send", send)
    ind = overload_indicators(ctx, config)
    assert len(forks) == 2
    _assert_no_children()
    assert np.array_equal(base.current, ind.current)
    assert np.array_equal(base.temperature, ind.temperature)


def test_range_without_a_child_is_computed_here(monkeypatch):
    ctx, config, base = _split_setup(monkeypatch)

    def no_fork():
        raise BlockingIOError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    ind = overload_indicators(ctx, config)
    _assert_no_children()
    assert np.array_equal(base.current, ind.current)
    assert np.array_equal(base.temperature, ind.temperature)


def test_children_are_killed_and_reaped_when_the_caller_raises(monkeypatch):
    ctx, config, _ = _split_setup(monkeypatch)
    forks = _count_forks(monkeypatch)
    parent = os.getpid()

    def range_or_interrupt(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # a child still busy when the caller raises

    monkeypatch.setattr("gridcap.montecarlo._indicator_range", range_or_interrupt)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        overload_indicators(ctx, config)
    assert time.monotonic() - started < 30
    assert len(forks) == 2
    _assert_no_children()


def test_worker_count():
    # converted case14, 20,000 x 200 x 2 nodes: four noise blocks' worth
    assert _worker_count(20_000, 200, 2, None, 2) == 2
    assert _worker_count(20_000, 200, 2, None, 64) == 4
    assert _worker_count(20_000, 200, 2, 1, 2) == 1
    assert _worker_count(20_000, 200, 2, 3, 64) == 3
    assert _worker_count(20_000, 200, 2, 10**6, 2) == 2  # never more than the usable CPUs
    # criterion 8's run holds under one noise block, so it never forks
    assert _worker_count(1_500, 60, 3, 8, 2) == 1
    one_block = NOISE_BLOCK_BYTES // (200 * 2 * 8)
    assert _worker_count(one_block, 200, 2, None, 64) == 1
    assert _worker_count(one_block + 1, 200, 2, None, 64) == 2
    assert _worker_count(3, 10**7, 2, None, 64) == 3  # never more than the replicates
    assert _worker_count(1, 1, 1, None, 1) == 1
    assert 1 <= _usable_cpus() <= os.cpu_count()
