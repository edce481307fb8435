"""Network assembly: Laplacian, incidence, transfer chain, rank structure."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_network, ring_with_chords, wheel_context
from gridcap import grid_model
from gridcap.errors import GraphError, InfeasibleStart, RankDeficiency, SingularReducedLaplacian
from gridcap.grid_model import (
    INVERSE_BLOCK,
    GridNetwork,
    build_flow_matrices,
    build_laplacian,
    operating_point,
)
from gridcap.io_formats import (
    SCHEMA_VERSION,
    AnalysisDefaults,
    LineSpec,
    NetworkDocument,
    NodeSpec,
    build_model,
    resolve_auto_ratings,
)
from gridcap.ld_rates import PsiContext, full_report
from gridcap.region import REGION_KINDS, build_region, contains, risk_partition, slice2d
from oracles import build_incidence, reference_laplacian


def _net(lines, n, beta=None, rating=None, tau=None):
    L = len(lines)
    return GridNetwork(
        node_count=n,
        lines=tuple(lines),
        susceptance=np.ones(L) if beta is None else np.asarray(beta, float),
        current_rating=np.ones(L) if rating is None else np.asarray(rating, float),
        thermal_constant=np.ones(L) if tau is None else np.asarray(tau, float),
    )


def _ring_with_chords(n, seed, beta=(1.0, 5.0), chords=None):
    """Ring 0-1-...-(n-1)-0 plus `chords` (default n // 2) random chords, susceptances U(beta), ratings U(0.5, 2)."""
    rng = np.random.default_rng(seed)
    lines = {(k, k + 1) for k in range(n - 1)} | {(0, n - 1)}
    while len(lines) < n + (n // 2 if chords is None else chords):
        i, j = sorted(int(v) for v in rng.choice(n, 2, replace=False))
        lines.add((i, j))
    L = len(lines)
    return _net(sorted(lines), n, beta=rng.uniform(*beta, L), rating=rng.uniform(0.5, 2.0, L))


def test_single_line_transfer_is_minus_one():
    flow = build_flow_matrices(_net([(0, 1)], 2), 1)
    assert np.allclose(flow.stochastic_block, [[-1.0]], atol=1e-15)
    assert flow.columns(range(2, 2)).shape == (1, 0)


def test_wheel_transfer_matrix_exact():
    flow = build_flow_matrices(_net([(0, 1), (0, 2), (1, 2)], 3), 2)
    expected = np.array(
        [
            [-2.0 / 3.0, -1.0 / 3.0],
            [-1.0 / 3.0, -2.0 / 3.0],
            [1.0 / 3.0, -1.0 / 3.0],
        ]
    )
    assert np.allclose(flow.stochastic_block, expected, atol=1e-12)


def test_transfer_matches_direct_angle_solution():
    # Independent derivation: solve the grounded system for each unit
    # injection and read line flows off the angle differences.
    rng = np.random.default_rng(7)
    for _ in range(10):
        net = random_network(rng)
        n = net.node_count
        flow = build_flow_matrices(net, n - 1)
        B = build_laplacian(net)
        Bg = np.zeros((n, n))
        Bg[1:, 1:] = np.linalg.inv(B[1:, 1:])
        # the assembly is beta_ell (Bg[i] - Bg[j]) / rating_ell for each line (i, j), bit for bit
        tails, heads = np.array(net.lines).T
        rows = net.susceptance[:, None] * (Bg[tails] - Bg[heads])
        cbar = flow.columns(range(n))
        assert cbar.tobytes() == (rows / net.current_rating[:, None]).tobytes()
        # and the dense chain Dbeta A Bg up to rounding
        chain = np.diag(net.susceptance) @ build_incidence(net) @ Bg
        assert np.max(np.abs(flow.transfer - chain)) <= 1e-13 * np.max(np.abs(chain))
        for col, node in enumerate(range(1, n)):
            s = np.zeros(n)
            s[node] = 1.0
            theta = np.zeros(n)
            theta[1:] = np.linalg.solve(B[1:, 1:], s[1:])
            for ell, (i, j) in enumerate(net.lines):
                f = net.susceptance[ell] * (theta[i] - theta[j])
                assert np.isclose(flow.transfer[ell, node], f, atol=1e-10)
                assert np.isclose(cbar[ell, node], f / net.current_rating[ell], atol=1e-10)


def test_flow_conservation_at_every_node():
    # Unnormalized line flows balance the injections at each non-slack node.
    rng = np.random.default_rng(13)
    for _ in range(10):
        net = random_network(rng)
        n = net.node_count
        flow = build_flow_matrices(net, n - 1)
        s = rng.normal(size=n)
        s[0] = 0.0
        f = flow.transfer @ s
        A = build_incidence(net)
        balance = A.T @ f
        assert np.allclose(balance[1:], s[1:], atol=1e-9)


def test_laplacian_structure():
    net = _net([(0, 1), (0, 2), (1, 2)], 3, beta=[2.0, 3.0, 5.0])
    B = build_laplacian(net)
    assert np.allclose(B, B.T)
    assert np.allclose(B.sum(axis=1), 0.0, atol=1e-12)
    assert B[0, 1] == -2.0 and B[0, 2] == -3.0 and B[1, 2] == -5.0
    assert B[0, 0] == 5.0 and B[1, 1] == 7.0 and B[2, 2] == 8.0


def test_laplacian_matches_line_loop_oracle():
    rng = np.random.default_rng(5)
    nets = [random_network(rng, max_nodes=12, max_extra=20) for _ in range(40)]
    for net in nets + [_ring_with_chords(1000, 11)]:
        assert build_laplacian(net).tobytes() == reference_laplacian(net).tobytes()


def test_incidence_kernel_is_constant_vector():
    rng = np.random.default_rng(3)
    for _ in range(10):
        net = random_network(rng)
        A = build_incidence(net)
        assert np.allclose(A @ np.ones(net.node_count), 0.0)
        assert np.linalg.matrix_rank(A) == net.node_count - 1


@given(st.integers(0, 10**6))
def test_rank_chain_random_networks(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng)
    N = net.node_count - 1
    m = int(rng.integers(1, N + 1))
    flow = build_flow_matrices(net, m)
    assert np.linalg.matrix_rank(build_laplacian(net), tol=1e-9) == N
    assert np.linalg.matrix_rank(flow.columns(range(N + 1)), tol=1e-9) == N
    assert np.linalg.matrix_rank(flow.stochastic_block, tol=1e-9) == m
    eigs = np.linalg.eigvalsh(build_laplacian(net))
    assert eigs.min() > -1e-9


def test_flow_matrices_decomposition_budget(monkeypatch):
    # rank(B), rank(Cbar) and rank(C) are theorems for a connected network,
    # and the singularity test reads one solve, so nothing is decomposed:
    # neither an SVD nor eigvalsh runs, also where C's rows differ in scale
    # by 1e12 (wheel3 with one rating of 1e-12).
    calls = []

    def recording(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"np.linalg.{name} called")
        return call

    for name in ("svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(name))
    rng = np.random.default_rng(21)
    nets = [random_network(rng) for _ in range(10)] + [_ring_with_chords(1000, 11)]
    for net in nets:
        build_flow_matrices(net, int(rng.integers(1, min(net.node_count, 101))))
    wheel = _net([(0, 1), (0, 2), (1, 2)], 3, rating=[1.0, 1.0, 1e-12])
    C = build_flow_matrices(wheel, 2).stochastic_block
    assert calls == []
    assert np.allclose(C[:2], [[-2 / 3, -1 / 3], [-1 / 3, -2 / 3]])
    assert np.allclose(C[2] * 1e-12, [1 / 3, -1 / 3])


def test_overflowing_rating_names_its_line_without_warnings():
    # a subnormal rating overflows its row of Cbar
    net = _net([(0, 1), (0, 2), (1, 2)], 3, rating=[1.0, 1e-320, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RankDeficiency, match="line 1 has non-finite normalized currents"):
            build_flow_matrices(net, 2)


@pytest.mark.parametrize("ratio, singular", [(1e10, True), (1e6, False)])
def test_ill_conditioned_reduced_laplacian(ratio, singular):
    # On the path 0-1-2 the 1-norm condition number of Bhat is about the
    # susceptance ratio; the cutoff is 1/RANK_RTOL = 1e9.
    net = _net([(0, 1), (1, 2)], 3, beta=[ratio, 1.0])
    if singular:
        with pytest.raises(SingularReducedLaplacian):
            build_flow_matrices(net, 2)
    else:
        flow = build_flow_matrices(net, 2)
        assert np.allclose(flow.stochastic_block, [[-1.0, -1.0], [0.0, -1.0]], atol=1e-6)
    # the same series pair ahead of a ring too large to invert in one block:
    # 0 -ratio- 1 -1- 2, and nodes 2..n-1 on a unit ring with chords
    ring = _ring_with_chords(3 * INVERSE_BLOCK, 17, beta=(1.0, 1.0))
    lines = [(0, 1), (1, 2)] + [(i + 2, j + 2) for i, j in ring.lines]
    big = _net(lines, ring.node_count + 2, beta=[ratio] + [1.0] * (len(lines) - 1))
    if singular:
        with pytest.raises(SingularReducedLaplacian):
            build_flow_matrices(big, 2)
    else:
        flow = build_flow_matrices(big, 2)
        assert np.allclose(flow.stochastic_block[:2], [[-1.0, -1.0], [0.0, -1.0]], atol=1e-6)


def test_degenerate_blocked_inverse_refused_without_warnings():
    # alternating susceptances 1e200 and 1 overflow the block products; the
    # non-finite inverse fails the kappa test quietly
    net = _ring_with_chords(300, 5)
    beta = np.where(np.arange(net.line_count) % 2, 1e200, 1.0)
    net = _net(net.lines, net.node_count, beta=beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularReducedLaplacian):
            build_flow_matrices(net, 1)


def _coupled_network(n, shape):
    """An n-node network whose Bhat couples its halves as `shape` says.

    "ring" is `_ring_with_chords(n, n)`. "star" joins every node to the slack
    alone, so Bhat is diagonal and no coupling block has a nonzero.
    "few-chords" is a ring with n // 50 chords: a few columns of each block.
    "near-complete" keeps each pair with probability 0.9: nearly all columns.
    """
    if shape == "ring":
        return _ring_with_chords(n, n)
    if shape == "few-chords":
        return _ring_with_chords(n, n, chords=n // 50)
    rng = np.random.default_rng(n)
    if shape == "star":
        lines = [(0, k) for k in range(1, n)]
    else:
        lines = [(i, j) for i in range(n) for j in range(i + 1, n) if j == i + 1 or rng.random() < 0.9]
    L = len(lines)
    return _net(lines, n, beta=rng.uniform(1.0, 5.0, L), rating=rng.uniform(0.5, 2.0, L))


@pytest.mark.parametrize(
    "n, shape",
    [pytest.param(n, "ring", id=str(n)) for n in (INVERSE_BLOCK + 1, INVERSE_BLOCK + 2, 129, 130, 300, 1000)]
    + [pytest.param(300, "star", id="star-300"), pytest.param(400, "few-chords", id="few-chords-400"),
       pytest.param(150, "near-complete", id="near-complete-150")],
)
def test_blocked_inverse_matches_dense_inverse_and_angle_solve(n, shape):
    net = _coupled_network(n, shape)
    flow = build_flow_matrices(net, n // 10)
    B = reference_laplacian(net)
    Bhat = B[1:, 1:]
    # the top-level coupling block touches the share of columns its shape names
    share = Bhat[: (n - 1) // 2, (n - 1) // 2 :].any(axis=0).mean()
    assert {"ring": True, "star": share == 0, "few-chords": 0 < share <= 0.25,
            "near-complete": share > 0.9}[shape]
    Bg = np.zeros((n, n))
    Bg[1:, 1:] = np.linalg.inv(Bhat)
    tails, heads = np.array(net.lines).T
    rows = net.susceptance[:, None] * (Bg[tails] - Bg[heads]) / net.current_rating[:, None]
    cbar = flow.columns(range(n))
    if n - 1 <= INVERSE_BLOCK:  # one block: the bits of np.linalg.inv
        assert cbar.tobytes() == rows.tobytes()
    scale = np.max(np.abs(rows))
    assert np.max(np.abs(cbar - rows)) <= 1e-12 * scale
    assert build_flow_matrices(net, n // 10).columns(range(n)).tobytes() == cbar.tobytes()
    # line flows of the angles solved directly for random injections
    rng = np.random.default_rng(n)
    S = rng.normal(size=(n - 1, 4))
    theta = np.zeros((n, 4))
    theta[1:] = np.linalg.solve(Bhat, S)
    f = net.susceptance[:, None] * (theta[tails] - theta[heads]) / net.current_rating[:, None]
    assert np.max(np.abs(cbar[:, 1:] @ S - f)) <= 1e-10 * np.max(np.abs(f))


def test_inverse_blocks_stay_within_block_size(monkeypatch):
    original = np.linalg.inv
    shapes = []

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", recording)
    for n in (INVERSE_BLOCK + 1, INVERSE_BLOCK + 2, 300):
        shapes.clear()
        build_flow_matrices(_ring_with_chords(n, n), 1)
        # the blocks handed to LAPACK split Bhat's n - 1 rows between them
        assert all(rows == cols <= INVERSE_BLOCK for rows, cols in shapes)
        assert sum(rows for rows, _ in shapes) == n - 1


def test_operating_point_wheel_values():
    ctx = wheel_context()
    assert np.allclose(ctx.op.nu, [-0.3, -0.3, 0.0], atol=1e-12)
    assert np.allclose(ctx.op.y, 0.0)


def test_operating_point_deterministic_split():
    flow = build_flow_matrices(_net([(0, 1), (0, 2), (1, 2)], 3), 1)
    op = operating_point(flow, [0.3], [0.6])
    C = np.array([[-2.0 / 3.0], [-1.0 / 3.0], [1.0 / 3.0]])
    CD = np.array([[-1.0 / 3.0], [-2.0 / 3.0], [-1.0 / 3.0]])
    assert np.allclose(op.y, CD @ [0.6], atol=1e-12)
    assert np.allclose(op.nu, C @ [0.3] + CD @ [0.6], atol=1e-12)


def test_infeasible_start_raises():
    flow = build_flow_matrices(_net([(0, 1), (0, 2), (1, 2)], 3), 2)
    with pytest.raises(InfeasibleStart):
        operating_point(flow, [1.6, 0.0])


def test_operating_point_shape_checks():
    flow = build_flow_matrices(_net([(0, 1)], 2), 1)
    with pytest.raises(ValueError):
        operating_point(flow, [0.1, 0.2])
    with pytest.raises(ValueError):
        operating_point(flow, [0.1], [0.5])


@pytest.mark.parametrize(
    "lines, n",
    [
        ([(0, 1), (0, 1)], 2),
        ([(1, 0)], 2),
        ([(0, 2), (0, 1)], 3),
        ([(0, 0)], 2),
        ([(0, 1), (0, 4)], 4),
    ],
)
def test_bad_line_lists_rejected(lines, n):
    with pytest.raises(ValueError):
        _net(lines, n)


def test_disconnected_graph_rejected():
    with pytest.raises(GraphError):
        _net([(0, 1), (2, 3)], 4)


def test_too_few_nodes_rejected():
    with pytest.raises(ValueError):
        _net([], 1)


@pytest.mark.parametrize("field", ["beta", "rating", "tau"])
def test_nonpositive_parameters_rejected(field):
    kw = {field: [0.0]}
    with pytest.raises(ValueError):
        _net([(0, 1)], 2, **kw)


def test_parameter_length_mismatch_rejected():
    with pytest.raises(ValueError):
        _net([(0, 1)], 2, beta=[1.0, 2.0])


@pytest.mark.parametrize("m", [0, 3])
def test_stochastic_count_out_of_range(m):
    net = _net([(0, 1), (0, 2), (1, 2)], 3)
    with pytest.raises(ValueError):
        build_flow_matrices(net, m)


def test_arrays_are_read_only():
    net = _net([(0, 1)], 2)
    flow = build_flow_matrices(net, 1)
    op = operating_point(flow, [0.2])
    for arr in (net.susceptance, flow.transfer, flow.stochastic_block, op.nu):
        with pytest.raises(ValueError):
            arr[0] = 0.0 if arr.ndim == 1 else arr[0]


def test_stored_blocks_are_read_only():
    # C is columns 1..m of Cbar; it, every array of the factorization (one
    # leaf, or splits above INVERSE_BLOCK), the line ends and Ct are
    # read-only, while each served block of columns is a new array
    for net in (_net([(0, 1), (0, 2), (1, 2), (2, 3)], 4), _ring_with_chords(INVERSE_BLOCK + 40, 3)):
        flow = build_flow_matrices(net, 2)
        assert flow.stochastic_block.tobytes() == flow.columns([1, 2]).tobytes()
        factors = list(_held_arrays(flow.factor))
        assert factors
        for arr in [flow.transfer, flow.stochastic_block] + [a for a in factors if a.ndim == 2]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        for arr in [flow.tails, flow.heads] + factors:
            assert not arr.flags.writeable
        served = flow.columns([3, 0])
        assert served.flags.writeable and not any(np.shares_memory(served, a) for a in factors)


def test_assembly_memory_budget():
    # 1,000-bus ring with 500 chords and 100 stochastic nodes. B and the
    # grounded inverse are 8 MB each, C 1.2 MB and a whole Cbar would be
    # 12 MB; copying any stored matrix on top of the assembly's temporaries
    # breaks the budget.
    n = 1000
    net = _ring_with_chords(n, 11)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        flow = build_flow_matrices(net, n // 10)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert flow.stochastic_block.shape == (1500, n // 10)
    assert peak < 50e6


def _model_inverse(flow):
    """Bhat^-1 as the model solves it: each aligned block of unit columns, side by side."""
    N = flow.node_count - 1
    blocks = []
    for first in range(0, N, grid_model.SOLVE_BLOCK):
        width = min(grid_model.SOLVE_BLOCK, N - first)
        units = np.zeros((N, width))
        units[first + np.arange(width), np.arange(width)] = 1.0
        blocks.append(grid_model._spd_solve(flow.factor, units, np.zeros((N, width))))
    return np.hstack(blocks)


def _row_loop_cbar(flow):
    """Cbar as the assembly formed it while it stored it whole.

    One in-place subtraction of two rows of Bhat^-1 per line, then the whole
    matrix times beta and over the rating, from the model's own inverse.
    """
    net = flow.network
    inverse = _model_inverse(flow)
    cbar = np.zeros((net.line_count, net.node_count))
    for row, (i, j) in zip(cbar[:, 1:], net.lines):
        np.subtract(inverse[i - 1] if i else 0.0, inverse[j - 1], out=row)
    cbar *= net.susceptance[:, None]
    cbar /= net.current_rating[:, None]
    return cbar


def _flow_cases(seed):
    """Random networks and rings with chords, each with a random stochastic count m."""
    rng = np.random.default_rng(seed)
    nets = [random_network(rng, max_nodes=12, max_extra=20) for _ in range(20)]
    nets += [_ring_with_chords(n, n) for n in (INVERSE_BLOCK + 2, 300)]
    return [(net, int(rng.integers(1, net.node_count))) for net in nets]


def test_columns_are_the_row_loop_formula_bit_for_bit():
    rng = np.random.default_rng(32)
    for net, m in _flow_cases(31):
        flow = build_flow_matrices(net, m)
        cbar = _row_loop_cbar(flow)
        n = net.node_count
        assert flow.columns(range(n)).tobytes() == cbar.tobytes()
        assert flow.stochastic_block.tobytes() == cbar[:, 1 : m + 1].tobytes()
        assert flow.transfer.tobytes() == (cbar * net.current_rating[:, None]).tobytes()
        # any nodes in any order, the slack and repeats included
        nodes = rng.integers(0, n, size=n + 3)
        assert flow.columns(nodes).tobytes() == np.ascontiguousarray(cbar[:, nodes]).tobytes()


def test_columns_match_the_incidence_chain():
    # Cbar = Dbeta A Bg / rating with the oracle's incidence matrix and a plain inverse
    rng = np.random.default_rng(33)
    for net, m in _flow_cases(34):
        flow = build_flow_matrices(net, m)
        n = net.node_count
        Bg = np.zeros((n, n))
        Bg[1:, 1:] = np.linalg.inv(reference_laplacian(net)[1:, 1:])
        chain = np.diag(net.susceptance) @ build_incidence(net) @ Bg / net.current_rating[:, None]
        nodes = rng.permutation(n)[: max(2, n // 3)]
        assert np.max(np.abs(flow.columns(nodes) - chain[:, nodes])) <= 1e-12 * np.max(np.abs(chain))


def test_currents_match_the_dense_product():
    rng = np.random.default_rng(35)
    for net, m in _flow_cases(36):
        flow = build_flow_matrices(net, m)
        cbar = _row_loop_cbar(flow)
        for _ in range(3):
            s = rng.normal(size=net.node_count)
            got = flow.currents(s)
            # relative to the sum of the product's absolute terms, which no cancellation shrinks
            assert np.max(np.abs(got - cbar @ s)) <= 1e-12 * np.max(np.abs(cbar) @ np.abs(s))
            s[0] = 1e300  # the slack entry is not read
            assert flow.currents(s).tobytes() == got.tobytes()


def test_columns_and_currents_check_their_arguments():
    flow = build_flow_matrices(_net([(0, 1), (0, 2), (1, 2)], 3), 1)
    for nodes in ([3], [-1], [[1, 2]]):
        with pytest.raises(ValueError, match="node indices in 0..2"):
            flow.columns(nodes)
    with pytest.raises(ValueError, match="length 3"):
        flow.currents([0.0, 1.0])


def test_refused_line_is_the_first_the_dense_formula_overflows():
    # Ratings from 1e-320 to 1e-300 overflow some rows of the dense Cbar and
    # not others; the refusal names the first non-finite row, and a network
    # whose rows all stay finite is not refused for them.
    rng = np.random.default_rng(37)
    refused = kept = 0
    for _ in range(120):
        net = random_network(rng, max_nodes=10, max_extra=10)
        rating = net.current_rating.copy()
        tiny = rng.random(rating.size) < 0.15
        rating[tiny] = 10.0 ** rng.uniform(-320, -300, tiny.sum())
        m = net.node_count - 1
        # the factorization does not read the ratings: with unit ratings the
        # served columns are (Bg[i] - Bg[j]) beta, the dense formula's first two steps
        unit = _net(net.lines, net.node_count, beta=net.susceptance)
        scaled = build_flow_matrices(unit, m).columns(range(net.node_count))
        net = _net(net.lines, net.node_count, beta=net.susceptance, rating=rating)
        with np.errstate(over="ignore"):
            rows = scaled / rating[:, None]
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                build_flow_matrices(net, m)
                line = None
            except RankDeficiency as exc:  # only a non-finite row is refused
                line = exc.line
        assert line == (int(bad[0]) if bad.size else None)
        refused += bad.size > 0
        kept += bad.size == 0 and tiny.any()
    assert refused >= 20 and kept >= 5
    # above INVERSE_BLOCK a priced row is solved block by block, as `columns` solves it
    rng = np.random.default_rng(38)
    outcomes = set()
    for n in (INVERSE_BLOCK + 2, 150, 200, 300) * 2:
        net = _ring_with_chords(n, int(rng.integers(1 << 30)))
        unit = _net(net.lines, n, beta=net.susceptance)
        scaled = build_flow_matrices(unit, n - 1).columns(range(n))
        rating = net.current_rating.copy()
        tiny = rng.choice(rating.size, 2, replace=False)
        rating[tiny] = 10.0 ** rng.uniform(-320, -300, 2)
        with np.errstate(over="ignore"):
            bad = np.flatnonzero(~np.isfinite(scaled / rating[:, None]).all(axis=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                build_flow_matrices(_net(net.lines, n, beta=net.susceptance, rating=rating), n // 10)
                line = None
            except RankDeficiency as exc:
                line = exc.line
        assert line == (int(bad[0]) if bad.size else None)
        outcomes.add(line is None)
    assert outcomes == {True, False}


def _large_random_networks(seed, count):
    """`count` random networks (a random spanning tree plus extra lines) above INVERSE_BLOCK non-slack nodes."""
    rng = np.random.default_rng(seed)
    nets = []
    while len(nets) < count:
        net = random_network(rng, max_nodes=3 * INVERSE_BLOCK, max_extra=2 * INVERSE_BLOCK)
        if net.node_count > INVERSE_BLOCK + 1:
            nets.append(net)
    return nets


@pytest.mark.parametrize(
    "net",
    [pytest.param(_ring_with_chords(n, n + 1), id=f"ring-{n}") for n in (INVERSE_BLOCK + 2, 130, 300, 1000)]
    + [pytest.param(net, id=f"random-{k}") for k, net in enumerate(_large_random_networks(39, 3))],
)
def test_served_columns_do_not_depend_on_their_grouping(net):
    # every column comes from the aligned block of unit solves that holds it,
    # so all nodes at once, any subset with repeats and one node at a time
    # give the same bytes, and C and Ct are the same columns
    n = net.node_count
    m = max(1, n // 10)
    flow = build_flow_matrices(net, m)
    full = flow.columns(range(n))
    assert flow.columns(range(1, m + 1)).tobytes() == flow.stochastic_block.tobytes()
    assert full[:, 1 : m + 1].tobytes() == flow.stochastic_block.tobytes()
    assert flow.transfer.tobytes() == (full * net.current_rating[:, None]).tobytes()
    rng = np.random.default_rng(n)
    for size in (1, 2, 7, 70, 2 * n):
        nodes = rng.integers(0, n, size=size)
        assert flow.columns(nodes).tobytes() == np.ascontiguousarray(full[:, nodes]).tobytes()
    for node in range(n) if n <= 300 else rng.choice(n, 40, replace=False):
        assert flow.columns([node]).tobytes() == full[:, node].tobytes()
    # and they agree with the dense inverse to rounding
    Bg = np.zeros((n, n))
    Bg[1:, 1:] = np.linalg.inv(reference_laplacian(net)[1:, 1:])
    tails, heads = np.array(net.lines).T
    dense = net.susceptance[:, None] * (Bg[tails] - Bg[heads]) / net.current_rating[:, None]
    assert np.max(np.abs(full - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_kappa_from_one_solve_and_the_diagonal(monkeypatch):
    # kappa_1 is ||Bhat||_1 from B's diagonal and slack row times the largest
    # entry of Bhat^-1 1; it lies within 1e-9 of the dense norms' product, as
    # a cutoff 1/RANK_RTOL just above or just below that product shows
    rng = np.random.default_rng(40)
    nets = [random_network(rng, max_nodes=12, max_extra=20) for _ in range(30)]
    nets += _large_random_networks(41, 3) + [_ring_with_chords(300, 3, beta=(0.01, 100.0))]
    for net in nets:
        Bhat = reference_laplacian(net)[1:, 1:]
        kappa = np.linalg.norm(Bhat, 1) * np.linalg.norm(np.linalg.inv(Bhat), 1)
        monkeypatch.setattr(grid_model, "RANK_RTOL", 1.0 / (kappa * (1.0 + 1e-9)))
        grid_model._factor_grounded(net)
        monkeypatch.setattr(grid_model, "RANK_RTOL", 1.0 / (kappa * (1.0 - 1e-9)))
        with pytest.raises(SingularReducedLaplacian):
            grid_model._factor_grounded(net)


def _held_arrays(obj, seen=None):
    """Every array a gridcap object holds in its fields or cached attributes, recursively."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _held_arrays(item, seen)
    elif type(obj).__module__.startswith("gridcap"):
        for value in vars(obj).values():
            yield from _held_arrays(value, seen)


def test_no_held_array_spans_lines_by_nodes():
    # After a report, every region kind, slices and a partition have filled
    # the model's cached attributes, the only array with a row per line is
    # C: none is L x (N+1), or wider than m.
    bm = build_model(_complete_document(40, 4))
    full_report(bm.ctx)
    fixed = np.concatenate([bm.ou.mean, bm.op.mu_D])
    for kind in REGION_KINDS:
        region = build_region(bm.ctx, kind, 0.01, 1e-4)
        slice2d(region, bm.flow, (1, 20), fixed, (-5.0, 5.0, -5.0, 5.0))
        contains(region, bm.flow, bm.op.mu, bm.op.mu_D)
    risk_partition(bm.ctx, (1, 20), fixed, (-5.0, 5.0, -5.0, 5.0), resolution=16)
    shapes = {a.shape for a in _held_arrays(bm)}
    L, n = bm.flow.line_count, bm.flow.node_count
    assert [shape for shape in shapes if len(shape) == 2 and shape[0] == L] == [(L, bm.flow.m)]
    assert (n - 1, n - 1) in shapes  # at most INVERSE_BLOCK non-slack nodes: the factor is Bhat^-1 itself


def test_built_model_holds_less_than_half_a_dense_inverse():
    # On the 1,000-bus ring with chords, Bhat^-1 alone would be 8 MB. The
    # model keeps no N x N array; its factors take ~2.3 MB, 0.29 of that,
    # bounded here at 0.4 so that the bound fails only if the factorization
    # itself grows. All it holds, C (1.2 MB) included, stays under half.
    bm = build_model(ring_with_chords(seed=0, n=1000))
    N = bm.flow.node_count - 1
    held = list(_held_arrays(bm))
    assert max(a.size for a in held) < N * N // 4
    assert sum(a.nbytes for a in _held_arrays(bm.flow.factor)) <= 0.4 * 8 * N * N
    assert sum(a.nbytes for a in held) <= 0.5 * 8 * N * N


def _complete_document(n, m, rating=1.0):
    """Every pair of n buses joined (L = n(n-1)/2 lines), each rated `rating`.

    Bus 1 is the slack, buses 2..m+1 are stochastic and the rest deterministic.
    """
    rng = np.random.default_rng(n)
    nodes = [NodeSpec(id=1, role="slack")]
    for bus in range(2, n + 1):
        value = float(rng.uniform(-1.0, 1.0))
        if bus <= m + 1:
            nodes.append(NodeSpec(id=bus, role="stochastic", gamma=1.0, vol=0.1, mean=value))
        else:
            nodes.append(NodeSpec(id=bus, role="deterministic", injection=value))
    lines = tuple(
        LineSpec(from_id=a, to_id=b, susceptance=float(rng.uniform(1.0, 5.0)), rating=rating, tau=0.5)
        for a in range(1, n + 1) for b in range(a + 1, n + 1)
    )
    defaults = AnalysisDefaults(epsilon=0.01, p=1e-4, horizon=1.0, tau0=0.5)
    return NetworkDocument(version=SCHEMA_VERSION, nodes=tuple(nodes), lines=lines, defaults=defaults)


def test_pipeline_forms_no_array_spanning_lines_by_nodes():
    # On a complete 160-bus graph an L x (N+1) array is 16 MB, while the
    # grounded inverse is 0.2 MB and C 0.4 MB: each step's traced peak stays
    # under half of that one array.
    doc = _complete_document(160, 4)
    L, n = len(doc.lines), len(doc.nodes)
    budget = 0.5 * 8 * L * n
    auto = _complete_document(160, 4, rating="auto")
    bm = build_model(doc)
    fixed = np.concatenate([bm.ou.mean, bm.op.mu_D])
    region = build_region(bm.ctx, "current", 0.01, 1e-4)
    steps = dict(
        resolve_auto_ratings=lambda: resolve_auto_ratings(auto, 1.5, zero_flow_rating=1.0),
        build_model=lambda: build_model(doc),
        full_report=lambda: full_report(PsiContext(bm.flow, bm.op, bm.ou)),
        build_region=lambda: build_region(bm.ctx, "current", 0.01, 1e-4),
        slice2d=lambda: slice2d(region, bm.flow, (1, 2), fixed, (-1.0, 1.0, -1.0, 1.0)),
        contains=lambda: contains(region, bm.flow, bm.op.mu, bm.op.mu_D),
    )
    for name, step in steps.items():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < budget, name
