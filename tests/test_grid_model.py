"""Network assembly: Laplacian, incidence, transfer chain, rank structure."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_network, wheel_context
from gridcap.errors import GraphError, InfeasibleStart
from gridcap.grid_model import (
    GridNetwork,
    build_flow_matrices,
    build_incidence,
    build_laplacian,
    operating_point,
)


def _net(lines, n, beta=None, rating=None, tau=None):
    L = len(lines)
    return GridNetwork(
        node_count=n,
        lines=tuple(lines),
        susceptance=np.ones(L) if beta is None else np.asarray(beta, float),
        current_rating=np.ones(L) if rating is None else np.asarray(rating, float),
        thermal_constant=np.ones(L) if tau is None else np.asarray(tau, float),
    )


def test_single_line_transfer_is_minus_one():
    flow = build_flow_matrices(_net([(0, 1)], 2), 1)
    assert np.allclose(flow.stochastic_block, [[-1.0]], atol=1e-15)
    assert flow.deterministic_block.shape == (1, 0)


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
        # the assembly is the chain Dbeta A Bg itself, bit for bit
        Bg = np.zeros((n, n))
        Bg[1:, 1:] = np.linalg.inv(B[1:, 1:])
        chain = np.diag(net.susceptance) @ build_incidence(net) @ Bg
        assert flow.transfer.tobytes() == chain.tobytes()
        for col, node in enumerate(range(1, n)):
            s = np.zeros(n)
            s[node] = 1.0
            theta = np.zeros(n)
            theta[1:] = np.linalg.solve(B[1:, 1:], s[1:])
            for ell, (i, j) in enumerate(net.lines):
                f = net.susceptance[ell] * (theta[i] - theta[j])
                assert np.isclose(flow.transfer[ell, node], f, atol=1e-10)
                assert np.isclose(
                    flow.normalized[ell, node], f / net.current_rating[ell], atol=1e-10
                )


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
    assert np.linalg.matrix_rank(flow.laplacian, tol=1e-9) == N
    assert np.linalg.matrix_rank(flow.normalized, tol=1e-9) == N
    assert np.linalg.matrix_rank(flow.stochastic_block, tol=1e-9) == m
    eigs = np.linalg.eigvalsh(flow.laplacian)
    assert eigs.min() > -1e-9


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
