"""Capacity regions: slab bounds, 2-D slices, and the risk partition."""

import tracemalloc
import warnings
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from conftest import make_context, random_context, single_line_context, wheel_context
from gridcap.errors import BoundCollapse, EmptySlice, NonUniformGamma, ZeroVarianceLine
from gridcap.grid_model import GridNetwork
from gridcap.io_formats import (
    AnalysisDefaults,
    apply_imax_rule,
    build_model,
    export_partition,
    parse_matpower,
)
from gridcap.ld_rates import (
    ARGMIN_RTOL,
    current_decay_rate,
    full_report,
    lb_decay_rate,
    psi,
)
from oracles import dense_risk_partition, dense_slice_vertices, optimal_paths
from gridcap.region import (
    REGION_KINDS,
    _binding_pairs,
    _inside_rows,
    _slice_geometry,
    build_region,
    contains,
    noise_margins,
    risk_partition,
    slice2d,
)

# Triangle network, mu=(0.3, 0.3), gamma=1, l=1, tau=0.5, T=1, eps=0.1, p=1e-4.
WHEEL_CURRENT = [0.33484102, 0.33484102, 0.57931653]
WHEEL_LB = [0.39862959, 0.39862959, 0.62584092]
WHEEL_TAYLOR = [0.52966158, 0.52966158, 0.70253186]
DET_HEX = np.array(
    [[1.0, -2.0], [2.0, -1.0], [1.0, 1.0], [-1.0, 2.0], [-2.0, 1.0], [-1.0, -1.0]]
)
BOX = (-2.0, 2.0, -2.0, 2.0)


def _point_in_polygon(verts, x, y):
    inside = False
    n = len(verts)
    for k in range(n):
        x1, y1 = verts[k]
        x2, y2 = verts[(k + 1) % n]
        if (y1 > y) != (y2 > y):
            xcross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xcross:
                inside = not inside
    return inside


def test_margins_value():
    w = wheel_context()
    beta = noise_margins(w, 0.1, 1e-4)
    assert np.allclose(beta, [0.66515898, 0.66515898, 0.42068347], rtol=1e-6)
    # definition: sqrt(eps log(1/p)) times the terminal current deviation
    var = np.array([5.0 / 9.0, 5.0 / 9.0, 2.0 / 9.0]) * (1.0 - np.exp(-2.0))
    assert np.allclose(beta, np.sqrt(0.1 * np.log(1e4) * var), rtol=1e-12)


def test_wheel_bounds_frozen():
    w = wheel_context()
    assert np.allclose(build_region(w, "deterministic", 0.1, 1e-4).bounds, 1.0)
    assert np.allclose(build_region(w, "current", 0.1, 1e-4).bounds, WHEEL_CURRENT, rtol=1e-6)
    assert np.allclose(build_region(w, "temperature_lb", 0.1, 1e-4).bounds, WHEEL_LB, rtol=1e-6)
    assert np.allclose(
        build_region(w, "temperature_taylor", 0.1, 1e-4).bounds, WHEEL_TAYLOR, rtol=1e-6
    )


def test_bounds_nest_between_current_and_deterministic():
    w = wheel_context()
    cur = build_region(w, "current", 0.1, 1e-4).bounds
    lb = build_region(w, "temperature_lb", 0.1, 1e-4).bounds
    tay = build_region(w, "temperature_taylor", 0.1, 1e-4).bounds
    assert np.all(cur < lb) and np.all(lb < 1.0)
    assert np.all(cur < tay) and np.all(tay < 1.0)


def test_membership_equivalent_to_rate_threshold():
    # A point lies in the current region iff its overload decay rate clears
    # eps log(1/p); same for the lower-bound region with its rate. This ties
    # the geometric slabs back to the probabilistic guarantee they encode.
    w = wheel_context()
    threshold = 0.1 * np.log(1e4)
    cur = build_region(w, "current", 0.1, 1e-4)
    lb = build_region(w, "temperature_lb", 0.1, 1e-4)
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(200):
        mu = rng.uniform(-1.5, 1.5, 2)
        nu = w.flow.stochastic_block @ mu
        if np.max(np.abs(nu)) >= 1.0 - 1e-6:
            assert not contains(cur, w.flow, mu)
            assert not contains(lb, w.flow, mu)
            continue
        ctx = make_context(w.flow.network, 2, mu, [1.0, 1.0], [1.0, 1.0], 0.1, 1.0)
        ic, _ = current_decay_rate(ctx)
        il, _ = lb_decay_rate(ctx)
        for region, rate in ((cur, ic), (lb, il)):
            if abs(rate - threshold) < 1e-9 * threshold:
                continue
            assert contains(region, w.flow, mu) == (rate > threshold)
            checked += 1
    assert checked > 200


def test_single_line_bound_frozen():
    ctx = single_line_context(epsilon=0.02)
    r = build_region(ctx, "current", 0.02, 1e-4)
    assert np.isclose(r.bounds[0], 0.5174217, rtol=1e-6)


def test_bound_collapse_raised():
    # tau=0.6, gamma=0.5: the margin alone exceeds the rating at eps=0.1.
    ctx = single_line_context()
    with pytest.raises(BoundCollapse):
        build_region(ctx, "current", 0.1, 1e-4)
    # stronger noise drives the lower-bound radicand negative
    with pytest.raises(BoundCollapse):
        build_region(ctx, "temperature_lb", 0.7, 1e-4)


@pytest.mark.parametrize("kind, epsilon", [("current", 0.3), ("temperature_lb", 3.0), ("temperature_taylor", 0.3)])
def test_bound_collapse_names_the_first_collapsing_line(kind, epsilon):
    # Line 0 has room to spare, line 1 never feels the noise, line 2 collapses.
    net = GridNetwork(
        node_count=4,
        lines=((0, 1), (0, 3), (1, 2)),
        susceptance=np.ones(3),
        current_rating=np.array([50.0, 1.0, 0.5]),
        thermal_constant=np.full(3, 0.5),
    )
    ctx = make_context(net, 2, [0.1, 0.1], [1.0, 1.0], [1.0, 1.0], 0.1, 1.0, mu_D=[0.0])
    assert ctx.stochastic_lines == (0, 2)
    with pytest.raises(BoundCollapse) as info:
        build_region(ctx, kind, epsilon, 1e-4, tau0=0.5)
    assert info.value.line == 2


@pytest.mark.parametrize("epsilon, vol", [(1.797e308, 1.0), (1e307, 10.0)])
def test_margins_of_an_overflowing_noise_scale_stay_finite(epsilon, vol):
    # eps log(1/p) var overflows (at 1.797e308 already eps log(1/p) does), while beta is near 1e154
    w = wheel_context(vol=vol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta = noise_margins(w, epsilon, 1e-4)
    var = vol**2 * np.array([5.0 / 9.0, 5.0 / 9.0, 2.0 / 9.0]) * (1.0 - np.exp(-2.0))
    assert np.allclose(beta, np.sqrt(epsilon) * np.sqrt(np.log(1e4) * var), rtol=1e-14)


@pytest.mark.parametrize("tau", [0.5, 1e-3, 1e300])
def test_lower_bound_kind_with_an_overflowing_margin_square(tau):
    # beta**2 overflows. q (1 - q) is positive at tau 0.5, so the radicand is -inf. At tau 1e-3 it is 0
    # (q = 0): the radicand reads 1 and the bound 1 - beta collapses. At tau 1e300, q = 1 and
    # 1 - q = -expm1(-1e-300) = 1e-300, so q (1 - q) is 1e-300, not 0, and inf times it is inf again.
    ctx = wheel_context(tau=tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BoundCollapse) as info:
            build_region(ctx, "temperature_lb", 1.797e308, 1e-4)
    assert info.value.line == 0


def test_build_region_validation():
    w = wheel_context()
    with pytest.raises(ValueError):
        build_region(w, "nope", 0.1, 1e-4)
    with pytest.raises(ValueError):
        build_region(w, "current", 0.0, 1e-4)
    with pytest.raises(ValueError):
        build_region(w, "current", 0.1, 1.0)
    mixed = make_context(
        w.flow.network, 2, [0.3, 0.3], [0.5, 1.0], [1.0, 1.0], 0.1, 1.0
    )
    with pytest.raises(NonUniformGamma):
        build_region(mixed, "temperature_taylor", 0.1, 1e-4)


def test_deterministic_slice_is_the_exact_hexagon():
    w = wheel_context()
    det = build_region(w, "deterministic", 0.1, 1e-4)
    sl = slice2d(det, w.flow, (1, 2), np.zeros(2), BOX)
    assert sl.kind == "deterministic"
    assert np.isclose(sl.area, 9.0, atol=1e-9)
    assert len(sl.vertices) == 6
    got = sorted(map(tuple, np.round(sl.vertices, 9)))
    want = sorted(map(tuple, DET_HEX))
    assert np.allclose(got, want, atol=1e-9)


def test_slice_vertices_sit_on_active_constraints():
    w = wheel_context()
    cur = build_region(w, "current", 0.1, 1e-4)
    sl = slice2d(cur, w.flow, (1, 2), np.zeros(2), BOX)
    assert np.isclose(sl.area, 1.3209243508719153, rtol=1e-9)
    C = w.flow.stochastic_block
    for u, v in sl.vertices:
        nu = C @ [u, v]
        assert np.all(np.abs(nu) <= cur.bounds + 1e-9)
        active = np.sum(np.abs(np.abs(nu) - cur.bounds) < 1e-9)
        assert active >= 2


def test_slice_polygon_agrees_with_membership():
    w = wheel_context()
    cur = build_region(w, "current", 0.1, 1e-4)
    sl = slice2d(cur, w.flow, (1, 2), np.zeros(2), BOX)
    rng = np.random.default_rng(3)
    C = w.flow.stochastic_block
    for _ in range(300):
        u, v = rng.uniform(-2.0, 2.0, 2)
        margin = np.min(cur.bounds - np.abs(C @ [u, v]))
        if abs(margin) < 1e-7:
            continue
        assert _point_in_polygon(sl.vertices, u, v) == contains(cur, w.flow, [u, v])


def test_slice_counterclockwise_orientation():
    w = wheel_context()
    det = build_region(w, "deterministic", 0.1, 1e-4)
    sl = slice2d(det, w.flow, (1, 2), np.zeros(2), BOX)
    assert sl.area > 0  # shoelace sign encodes orientation


def test_empty_slice_from_far_box():
    w = wheel_context()
    det = build_region(w, "deterministic", 0.1, 1e-4)
    with pytest.raises(EmptySlice):
        slice2d(det, w.flow, (1, 2), np.zeros(2), (5.0, 6.0, 5.0, 6.0))


def test_empty_slice_from_pinned_line():
    # A fixed injection can push a line outside its bound for every (u, v).
    net = GridNetwork(
        node_count=4,
        lines=((0, 1), (0, 2), (0, 3), (1, 2)),
        susceptance=np.ones(4),
        current_rating=np.ones(4),
        thermal_constant=np.full(4, 0.5),
    )
    ctx = make_context(net, 2, [0.1, 0.1], [1.0, 1.0], [1.0, 1.0], 0.1, 1.0, mu_D=[0.0])
    det = build_region(ctx, "deterministic", 0.1, 1e-4)
    with pytest.raises(EmptySlice):
        slice2d(det, ctx.flow, (1, 2), np.array([0.0, 0.0, 1.5]), BOX)


def test_slice_argument_validation():
    w = wheel_context()
    det = build_region(w, "deterministic", 0.1, 1e-4)
    with pytest.raises(ValueError):
        slice2d(det, w.flow, (0, 1), np.zeros(2), BOX)
    with pytest.raises(ValueError):
        slice2d(det, w.flow, (1, 1), np.zeros(2), BOX)
    with pytest.raises(ValueError):
        slice2d(det, w.flow, (1, 2), np.zeros(3), BOX)
    with pytest.raises(ValueError):
        slice2d(det, w.flow, (1, 2), np.zeros(2), (2.0, -2.0, -2.0, 2.0))


def test_region_bounds_read_only():
    w = wheel_context()
    r = build_region(w, "current", 0.1, 1e-4)
    with pytest.raises(ValueError):
        r.bounds[0] = 2.0


def test_partition_covers_the_slice_with_tie_diagonal():
    w = wheel_context()
    part = risk_partition(w, (1, 2), np.zeros(2), BOX, resolution=60)
    assert part.label_grid.shape == (60, 60)
    assert set(part.labels) == {(0,), (1,), (2,), (0, 1)}
    # the two symmetric singleton areas match exactly and dominate
    by_label = {s.label: s for s in part.summaries}
    assert by_label[(0,)].cells == by_label[(1,)].cells
    assert part.central_label in ((0,), (1,))
    assert by_label[(0, 1)].cells > 0  # exact ties on the u = v diagonal
    # summaries sorted by area and jointly exhaustive
    cells = [s.cells for s in part.summaries]
    assert cells == sorted(cells, reverse=True)
    assert sum(cells) == int(np.count_nonzero(part.label_grid >= 0))
    total_area = sum(s.area for s in part.summaries)
    assert abs(total_area - 9.0) < 0.05


def test_partition_labels_match_pointwise_rates():
    w = wheel_context()
    part = risk_partition(w, (1, 2), np.zeros(2), BOX, resolution=40)
    C = w.flow.stochastic_block
    denom = np.array([5.0 / 9.0, 5.0 / 9.0, 2.0 / 9.0]) * (1.0 - np.exp(-2.0))
    rng = np.random.default_rng(9)
    for _ in range(60):
        i = int(rng.integers(0, 40))
        j = int(rng.integers(0, 40))
        u, v = part.u_centers[j], part.v_centers[i]
        nu = C @ [u, v]
        idx = part.label_grid[i, j]
        if np.max(np.abs(nu)) >= 1.0:
            assert idx == -1
            continue
        rates = (1.0 - np.abs(nu)) ** 2 / denom
        best = rates.min()
        expect = tuple(np.nonzero(rates <= best * (1.0 + 1e-9))[0])
        assert part.labels[idx] == expect


def test_partition_outside_cells_unlabeled():
    w = wheel_context()
    part = risk_partition(w, (1, 2), np.zeros(2), BOX, resolution=40)
    # corners of the box lie outside the hexagon
    assert part.label_grid[0, 0] == -1
    assert part.label_grid[-1, -1] == -1


def test_all_region_kinds_enumerated():
    assert REGION_KINDS == (
        "deterministic",
        "current",
        "temperature_lb",
        "temperature_taylor",
    )


def test_partition_labels_beyond_63_stochastic_lines():
    # A 60-node ring with 30 chords: 90 lines, all reached by the three
    # stochastic nodes. Lines 66 and 85, past the width of a 64-bit mask,
    # get a low rating, so they are the ones most at risk.
    edges = {(i, i + 1) for i in range(59)} | {(0, 59)} | {(i, i + 7) for i in range(30)}
    lines = tuple(sorted(edges))
    rating = np.full(90, 10.0)
    rating[[66, 85]] = 0.5
    net = GridNetwork(60, lines, np.ones(90), rating, np.full(90, 0.5))
    ctx = make_context(net, 3, np.zeros(3), np.ones(3), np.ones(3), 0.1, 1.0, np.zeros(56))
    assert len(ctx.stochastic_lines) == 90
    free, fixed = (1, 30), np.zeros(59)
    det = build_region(ctx, "deterministic", 0.1, 1e-4)
    verts = slice2d(det, ctx.flow, free, fixed, (-50.0, 50.0, -50.0, 50.0)).vertices
    (umin, vmin), (umax, vmax) = verts.min(axis=0), verts.max(axis=0)
    pad_u, pad_v = 0.05 * (umax - umin), 0.05 * (vmax - vmin)
    bbox = (umin - pad_u, umax + pad_u, vmin - pad_v, vmax + pad_v)
    part = risk_partition(ctx, free, fixed, bbox, resolution=48)
    assert {(66,), (85,)} <= set(part.labels)

    # pointwise oracle for every cell
    live = list(ctx.stochastic_lines)
    denom = ctx.line_variances[live]
    cbar = ctx.flow.columns(range(60))
    for i, v in enumerate(part.v_centers):
        for j, u in enumerate(part.u_centers):
            s = np.zeros(60)
            s[1:] = fixed
            s[free[0]], s[free[1]] = u, v
            nu = cbar @ s
            idx = part.label_grid[i, j]
            if np.max(np.abs(nu)) >= 1.0:
                assert idx == -1
                continue
            rates = (1.0 - np.abs(nu[live])) ** 2 / denom
            expect = tuple(live[k] for k in np.flatnonzero(rates <= rates.min() * (1.0 + 1e-9)))
            assert part.labels[idx] == expect


def test_partition_resolution_must_be_positive():
    with pytest.raises(ValueError):
        risk_partition(wheel_context(), (1, 2), np.zeros(2), BOX, resolution=0)


def _outcome(fn, *args, **kwargs):
    """A function's result, or the message of the EmptySlice it raised."""
    try:
        return fn(*args, **kwargs)
    except EmptySlice as exc:
        return f"EmptySlice: {exc}"


def _assert_partition_matches_dense(ctx, free, fixed, bbox, resolution):
    want = _outcome(dense_risk_partition, ctx, free, fixed, bbox, resolution)
    got = _outcome(risk_partition, ctx, free, fixed, bbox, resolution=resolution)
    if isinstance(want, str):
        assert got == want
        return False
    assert got.labels == want.labels
    assert got.summaries == want.summaries
    assert got.label_grid.dtype == want.label_grid.dtype
    assert np.array_equal(got.label_grid, want.label_grid)
    assert np.array_equal(got.u_centers, want.u_centers)
    assert np.array_equal(got.v_centers, want.v_centers)
    return True


def _assert_slice_matches_dense(region, flow, free, fixed, bbox):
    want = _outcome(dense_slice_vertices, region, flow, free, fixed, bbox)
    got = _outcome(slice2d, region, flow, free, fixed, bbox)
    if isinstance(want, str):
        assert got == want
        return False
    assert got.vertices.shape == want.shape
    assert np.array_equal(got.vertices, want)
    return True


def _ring_with_chords():
    """60-node ring with 30 chords; lines 66 and 85 are rated low."""
    edges = {(i, i + 1) for i in range(59)} | {(0, 59)} | {(i, i + 7) for i in range(30)}
    rating = np.full(90, 10.0)
    rating[[66, 85]] = 0.5
    net = GridNetwork(60, tuple(sorted(edges)), np.ones(90), rating, np.full(90, 0.5))
    return make_context(net, 3, np.zeros(3), np.ones(3), np.ones(3), 0.1, 1.0, np.zeros(56))


def _random_slices(rng, count, **context_args):
    """Random networks, each with a random free pair and a random square box."""
    for _ in range(count):
        ctx = random_context(rng, max_nodes=9, **context_args)
        n = ctx.flow.node_count
        free = tuple(int(x) for x in rng.choice(np.arange(1, n), 2, replace=False))
        fixed = np.concatenate([ctx.ou.mean, ctx.op.mu_D])
        cu, cv = rng.uniform(-2.0, 2.0, 2)
        half = rng.uniform(0.1, 5.0)
        yield ctx, free, fixed, (cu - half, cu + half, cv - half, cv + half)


def _case14_map():
    """Converted IEEE 14-bus case sliced over buses 6 and 9, padded 5 % around the slice."""
    case = parse_matpower(resources.files("gridcap").joinpath("data", "case14.m").read_text())
    defaults = AnalysisDefaults(epsilon=4e-4, p=1e-4, horizon=1.0, tau0=0.5)
    doc = apply_imax_rule(
        case, 1.5, (2, 3), (6, 9), gamma=1.0, vol=10.0, tau=0.5, defaults=defaults, zero_flow_rating=1.0
    )
    bm = build_model(doc)
    free = (bm.node_ids.index(6), bm.node_ids.index(9))
    fixed = np.concatenate([bm.ou.mean, bm.op.mu_D])
    det = build_region(bm.ctx, "deterministic", 4e-4, 1e-4)
    verts = slice2d(det, bm.flow, free, fixed, (-10.0, 10.0, -10.0, 10.0)).vertices
    (umin, vmin), (umax, vmax) = verts.min(axis=0), verts.max(axis=0)
    pad_u, pad_v = 0.05 * (umax - umin), 0.05 * (vmax - vmin)
    return bm, free, fixed, (umin - pad_u, umax + pad_u, vmin - pad_v, vmax + pad_v)


def test_contains_requires_every_injection():
    # The converted case14's operating point lies strictly inside its
    # deterministic region, but not with its 11 fixed injections set to zero,
    # which is how a missing mu_D used to be read. A missing or short mu_D
    # and a long mu are refused as operating_point refuses them.
    bm = _case14_map()[0]
    det = build_region(bm.ctx, "deterministic", 4e-4, 1e-4)
    mu, mu_D = bm.op.mu, bm.op.mu_D
    assert contains(det, bm.flow, mu, mu_D)
    assert not contains(det, bm.flow, mu, np.zeros_like(mu_D))
    for args, message in [((mu,), "mu_D must have length 11"), ((mu, mu_D[:-1]), "mu_D must have length 11"),
                          ((np.append(mu, 0.0), mu_D), "mu must have length 2")]:
        with pytest.raises(ValueError, match=message):
            contains(det, bm.flow, *args)
    # membership reads the operating point's currents, up to rounding
    nu = bm.flow.currents(np.concatenate([[0.0], mu, mu_D]))
    assert np.max(np.abs(nu - bm.op.nu)) <= 1e-12


@pytest.mark.parametrize("resolution", [1, 2, 7, 60, 61])
def test_partition_matches_dense_oracle_on_wheel(resolution):
    # even resolutions put cell centers on the u = v tie diagonal
    assert _assert_partition_matches_dense(wheel_context(), (1, 2), np.zeros(2), BOX, resolution)


@pytest.mark.parametrize("resolution", [1, 48, 150])
def test_partition_matches_dense_oracle_on_ring(resolution):
    ctx = _ring_with_chords()
    assert _assert_partition_matches_dense(ctx, (1, 30), np.zeros(59), (-8.0, 8.0, -8.0, 8.0), resolution)


def test_partition_matches_dense_oracle_on_random_networks():
    filled = empty = 0
    for k, (ctx, free, fixed, bbox) in enumerate(_random_slices(np.random.default_rng(41), 40)):
        resolution = (1, 3, 17, 64)[k % 4]
        if _assert_partition_matches_dense(ctx, free, fixed, bbox, resolution):
            filled += 1
        else:
            empty += 1
    assert filled >= 20 and empty >= 5
    # a box far outside the slice holds no cell
    w = wheel_context()
    assert not _assert_partition_matches_dense(w, (1, 2), np.zeros(2), (10.0, 11.0, 10.0, 11.0), 20)


def test_case14_partition_matches_dense_oracle_bytes():
    bm, free, fixed, bbox = _case14_map()
    want = dense_risk_partition(bm.ctx, free, fixed, bbox, 800)
    got = risk_partition(bm.ctx, free, fixed, bbox, resolution=800)
    assert np.array_equal(got.label_grid, want.label_grid)
    assert (got.labels, got.summaries) == (want.labels, want.summaries)
    for fmt in ("json", "csv"):
        expect = export_partition(want, fmt, line_terminals=bm.line_terminals)
        assert export_partition(got, fmt, line_terminals=bm.line_terminals) == expect


def _binding_pair_cases(ctx, free, fixed, bbox, resolution):
    """Check `_binding_pairs` against rates priced on every cell of the grid.

    Returns how many live lines are constant along rows (du = 0), and how
    many (live line, row) pairs change the sign of nu next to an end of the
    row's inside range.
    """
    base, du, dv = _slice_geometry(ctx.flow, free, fixed)
    umin, umax, vmin, vmax = bbox
    uc = umin + (umax - umin) / resolution * (np.arange(resolution) + 0.5)
    vc = vmin + (vmax - vmin) / resolution * (np.arange(resolution) + 0.5)
    a = base[:, None] + du[:, None] * uc
    b = dv[:, None] * vc
    lo, hi = _inside_rows(a, b)
    rows = np.flatnonzero(hi > lo)
    live = np.asarray(ctx.stochastic_lines)
    if not rows.size:
        return 0, 0
    denom = ctx.line_variances
    keep = _binding_pairs(a, b, rows, lo, hi, live, denom)

    U, V = np.meshgrid(uc, vc)
    nu = base[:, None, None] + du[:, None, None] * U + dv[:, None, None] * V
    inside = np.all(np.abs(nu) < 1.0, axis=0)
    rates = (1.0 - np.abs(nu[live])) ** 2 / denom[live, None, None]
    threshold = np.min(rates, axis=0, where=inside, initial=np.inf) * (1.0 + ARGMIN_RTOL)
    crossings = 0
    assert keep.shape == (live.size, rows.size)
    for q, i in enumerate(rows):
        cells = inside[i]
        rate, cut = rates[:, i, cells], threshold[i, cells]
        # a dropped pair is above the threshold on every inside cell of its row
        assert np.all(rate[~keep[:, q]] > cut)
        # a line that holds or ties some cell's least rate is kept
        assert keep[(rate <= cut).any(axis=1), q].all()
        sign = np.sign(nu[live][:, i, cells])
        if sign.shape[1] > 1:
            crossings += int(np.sum((sign[:, 0] != sign[:, 1]) | (sign[:, -1] != sign[:, -2])))
    return int(np.sum(du[live] == 0.0)), crossings


def test_binding_pairs_keep_every_line_that_can_bind():
    flat = crossings = 0
    cases = [*_random_slices(np.random.default_rng(45), 40), (wheel_context(), (1, 2), np.zeros(2), BOX)]
    for k, (ctx, free, fixed, bbox) in enumerate(cases):
        counts = _binding_pair_cases(ctx, free, fixed, bbox, (2, 7, 17, 60)[k % 4])
        flat += counts[0]
        crossings += counts[1]
    assert flat > 0 and crossings > 0
    # one cell where the two symmetric lines' rates differ by ~5e-10
    # relative: the larger exceeds every row maximum, yet ties
    near_tie = (wheel_context(), (1, 2), np.zeros(2), (0.2, 0.4, 0.2 + 5e-10, 0.4 + 5e-10))
    _binding_pair_cases(*near_tie, 1)
    assert risk_partition(*near_tie, resolution=1).labels == ((0, 1),)


def test_binding_pairs_hold_within_blocks(monkeypatch):
    monkeypatch.setattr("gridcap.region.BISECT_BLOCK", 5)
    for ctx, free, fixed, bbox in _random_slices(np.random.default_rng(46), 10):
        _binding_pair_cases(ctx, free, fixed, bbox, 23)


def test_case14_partition_memory_budget():
    # the dense (lines x cells) rate tensor alone is 19 x 800^2 doubles, 97 MB
    bm, free, fixed, bbox = _case14_map()
    tracemalloc.start()
    try:
        risk_partition(bm.ctx, free, fixed, bbox, resolution=800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6


def test_case14_partition_pricing_memory():
    # rates are priced on kept (line, row) pairs only; pricing every live
    # line on every inside cell peaked at 14.3 MB
    bm, free, fixed, bbox = _case14_map()
    tracemalloc.start()
    try:
        risk_partition(bm.ctx, free, fixed, bbox, resolution=800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("block", [1, 100, 7 * 48])
def test_partition_blocked_bisection_matches_dense_oracle(monkeypatch, block):
    # one line per block, several lines per block with a short last block
    monkeypatch.setattr("gridcap.region.BISECT_BLOCK", block)
    ring = _ring_with_chords()
    assert _assert_partition_matches_dense(ring, (1, 30), np.zeros(59), (-8.0, 8.0, -8.0, 8.0), 48)
    assert _assert_partition_matches_dense(wheel_context(), (1, 2), np.zeros(2), BOX, 7)
    filled = sum(
        _assert_partition_matches_dense(ctx, free, fixed, bbox, 17)
        for ctx, free, fixed, bbox in _random_slices(np.random.default_rng(44), 10, uniform_gamma=True)
    )
    assert filled >= 3


def test_many_line_partition_memory_budget():
    # 1,500 lines at 400^2: a and b take 9.6 MB together, and bisecting
    # every line at once peaked at 35 MB
    edges = {(i, i + 1) for i in range(999)} | {(0, 999)} | {(i, i + 7) for i in range(500)}
    net = GridNetwork(1000, tuple(sorted(edges)), np.ones(1500), np.full(1500, 10.0), np.full(1500, 0.5))
    ctx = make_context(net, 3, np.zeros(3), np.ones(3), np.ones(3), 0.1, 1.0, np.zeros(996))
    tracemalloc.start()
    try:
        part = risk_partition(ctx, (1, 500), np.zeros(999), (-150.0, 150.0, -150.0, 150.0), resolution=400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.summaries[0].cells > 0
    assert peak < 20e6


def test_partition_rejects_inverted_bbox():
    for bbox in ((2.0, -2.0, -2.0, 2.0), (-2.0, 2.0, 2.0, -2.0), (2.0, -2.0, 2.0, -2.0)):
        with pytest.raises(ValueError, match="umin < umax and vmin < vmax"):
            risk_partition(wheel_context(), (1, 2), np.zeros(2), bbox, resolution=40)


def test_slice_matches_dense_clip_oracle():
    w = wheel_context()
    bm, free, fixed, bbox = _case14_map()
    cases = [
        (w, (1, 2), np.zeros(2), BOX),
        (w, (1, 2), np.zeros(2), (5.0, 6.0, 5.0, 6.0)),
        (_ring_with_chords(), (1, 30), np.zeros(59), (-8.0, 8.0, -8.0, 8.0)),
        (bm.ctx, free, fixed, bbox),
        (bm.ctx, free, fixed, (-10.0, 10.0, -10.0, 10.0)),
        *_random_slices(np.random.default_rng(43), 30, uniform_gamma=True),
    ]
    built = 0
    for ctx, free, fixed, bbox in cases:
        for kind in REGION_KINDS:
            try:
                region = build_region(ctx, kind, ctx.ou.noise_scale, 1e-4, tau0=0.5)
            except BoundCollapse:
                continue
            built += _assert_slice_matches_dense(region, ctx.flow, free, fixed, bbox)
    assert built >= 40


@pytest.mark.parametrize("kind", REGION_KINDS)
@pytest.mark.parametrize("epsilon, p", [(0.0, 1e-4), (0.1, 5.0), (0.1, 0.0)])
def test_every_kind_validates_epsilon_and_p(kind, epsilon, p):
    with pytest.raises(ValueError):
        build_region(wheel_context(), kind, epsilon, p)


def _contexts_with_excluded_lines():
    """(ctx, free, fixed, bbox): the converted case14 map, then 300 random networks.

    Each random slice is a small box around the operating point, so its
    cells lie inside the deterministic slice.
    """
    bm, free, fixed, bbox = _case14_map()
    yield bm.ctx, free, fixed, bbox
    rng = np.random.default_rng(1)
    for _ in range(300):
        ctx = random_context(rng)
        fixed = np.concatenate([ctx.ou.mean, ctx.op.mu_D])
        u, v = fixed[:2]
        yield ctx, (1, 2), fixed, (u - 1e-3, u + 1e-3, v - 1e-3, v + 1e-3)


def test_excluded_lines_are_excluded_everywhere():
    # A line whose C row is zero to ZERO_ROW_RTOL (case14's line 13 has a row
    # max of 2.8e-17) is left out of the report; psi, the margins, every
    # region kind and the partition must treat it the same way.
    seen = 0
    for ctx, free, fixed, bbox in _contexts_with_excluded_lines():
        excluded = full_report(ctx).excluded
        if not excluded:
            continue
        seen += len(excluded)
        beta = noise_margins(ctx, 1e-6, 0.5)
        # the first-order kind needs a uniform gamma; gamma does not move C, so the exclusions hold
        uniform = replace(ctx, ou=replace(ctx.ou, gamma=np.full_like(ctx.ou.gamma, ctx.ou.gamma[0])))
        regions = [build_region(uniform, kind, 1e-6, 0.5, tau0=0.5) for kind in REGION_KINDS]
        labelled = set().union(*risk_partition(ctx, free, fixed, bbox, resolution=8).labels)
        for ell in excluded:
            with pytest.raises(ZeroVarianceLine):
                psi(ctx, ell, 1.0)
            with pytest.raises(ZeroVarianceLine):
                optimal_paths(ctx, ell, 1.0, 4)
            assert beta[ell] == 0.0
            assert [region.bounds[ell] for region in regions] == [1.0] * len(REGION_KINDS)
            assert ell not in labelled
    assert seen == 295  # case14's line 13 and 294 lines of the random networks
