"""Shared fixtures and random-instance helpers for the test suite."""

import pathlib
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from gridcap.grid_model import GridNetwork, build_flow_matrices, operating_point
from gridcap.injections import OuModel
from gridcap.io_formats import (
    SCHEMA_VERSION,
    AnalysisDefaults,
    LineSpec,
    NetworkDocument,
    NodeSpec,
    resolve_auto_ratings,
)
from gridcap.ld_rates import PsiContext

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def make_context(network, m, mu, gamma, vol, epsilon, horizon, mu_D=()):
    """Assemble a rate-query context from raw parts."""
    flow = build_flow_matrices(network, m)
    op = operating_point(flow, mu, mu_D)
    ou = OuModel(
        gamma=np.asarray(gamma, dtype=float),
        vol=np.asarray(vol, dtype=float),
        mean=np.asarray(mu, dtype=float),
        noise_scale=float(epsilon),
        horizon=float(horizon),
    )
    return PsiContext(flow=flow, op=op, ou=ou)


def single_line_context(mu=0.5, gamma=0.5, vol=1.0, tau=0.6, epsilon=0.1, horizon=1.0):
    """One stochastic node feeding the slack over a single unit-rated line."""
    net = GridNetwork(
        node_count=2,
        lines=((0, 1),),
        susceptance=np.array([1.0]),
        current_rating=np.array([1.0]),
        thermal_constant=np.array([float(tau)]),
    )
    return make_context(net, 1, [mu], [gamma], [vol], epsilon, horizon)


def wheel_context(mu=(0.3, 0.3), gamma=1.0, vol=1.0, tau=0.5, epsilon=0.1, horizon=1.0):
    """Triangle network with two stochastic nodes and unit parameters."""
    net = GridNetwork(
        node_count=3,
        lines=((0, 1), (0, 2), (1, 2)),
        susceptance=np.ones(3),
        current_rating=np.ones(3),
        thermal_constant=np.full(3, float(tau)),
    )
    mu = np.asarray(mu, dtype=float)
    return make_context(net, 2, mu, np.full(2, gamma), np.full(2, vol), epsilon, horizon)


@pytest.fixture
def single_line():
    return single_line_context()


@pytest.fixture
def wheel():
    return wheel_context()


def random_network(rng, max_nodes=7, max_extra=4):
    """Random connected network: a spanning tree plus a few extra lines."""
    n = int(rng.integers(3, max_nodes + 1))
    edges = set()
    for k in range(1, n):
        edges.add((int(rng.integers(0, k)), k))
    rest = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    rng.shuffle(rest)
    for e in rest[: int(rng.integers(0, max_extra + 1))]:
        edges.add(e)
    lines = tuple(sorted(edges))
    L = len(lines)
    return GridNetwork(
        node_count=n,
        lines=lines,
        susceptance=rng.uniform(0.5, 2.0, L),
        current_rating=rng.uniform(0.5, 2.0, L),
        thermal_constant=rng.uniform(0.1, 1.0, L),
    )


def random_context(rng, max_nodes=7, uniform_gamma=False, uniform_tau=False):
    """Random strictly feasible operating point on a random network.

    Means are rescaled towards zero until the normalized currents stay
    inside the unit box; scaling works because nu is linear in (mu, mu_D).
    """
    net = random_network(rng, max_nodes=max_nodes)
    if uniform_tau:
        net = GridNetwork(
            net.node_count,
            net.lines,
            net.susceptance,
            net.current_rating,
            np.full(net.line_count, float(rng.uniform(0.1, 1.0))),
        )
    N = net.node_count - 1
    m = int(rng.integers(1, min(3, N) + 1))
    flow = build_flow_matrices(net, m)
    mu = rng.uniform(-1.0, 1.0, m)
    mu_D = rng.uniform(-1.0, 1.0, N - m)
    nu = flow.stochastic_block @ mu
    if N > m:
        nu = nu + flow.columns(range(m + 1, N + 1)) @ mu_D
    peak = np.max(np.abs(nu))
    if peak >= 0.9:
        scale = 0.9 * float(rng.uniform(0.3, 1.0)) / peak
        mu = mu * scale
        mu_D = mu_D * scale
    op = operating_point(flow, mu, mu_D)
    if uniform_gamma:
        gamma = np.full(m, float(rng.uniform(0.3, 2.0)))
    else:
        gamma = rng.uniform(0.3, 2.0, m)
    ou = OuModel(
        gamma=gamma,
        vol=rng.uniform(0.5, 1.5, m),
        mean=mu,
        noise_scale=float(rng.uniform(0.05, 0.5)),
        horizon=float(rng.uniform(0.5, 2.0)),
    )
    return PsiContext(flow=flow, op=op, ou=ou)


def ring_with_chords(seed: int, n: int, chords: int = None) -> NetworkDocument:
    """Ring 1-2-...-n-1 plus `chords` (default n/2) random chords; bus 1 is the slack, n/10 buses are stochastic.

    Ratings are 1.5 times the base flow, so every line starts at 2/3 of its rating.
    """
    rng = np.random.default_rng(seed)
    pairs = [(k, k + 1) for k in range(1, n)] + [(1, n)]
    seen = set(pairs)
    while len(pairs) < n + (n // 2 if chords is None else chords):
        a, b = sorted(int(v) for v in rng.integers(1, n + 1, size=2))
        if a != b and (a, b) not in seen:
            seen.add((a, b))
            pairs.append((a, b))
    stochastic = set(rng.choice(np.arange(2, n + 1), size=n // 10, replace=False).tolist())
    injection = rng.uniform(-1.0, 1.0, size=n + 1)
    nodes = [NodeSpec(id=1, role="slack")]
    for bus in range(2, n + 1):
        if bus in stochastic:
            nodes.append(NodeSpec(id=bus, role="stochastic", gamma=1.0, vol=0.1, mean=float(injection[bus])))
        else:
            nodes.append(NodeSpec(id=bus, role="deterministic", injection=float(injection[bus])))
    lines = tuple(
        LineSpec(from_id=a, to_id=b, susceptance=float(s), rating="auto", tau=0.5)
        for (a, b), s in zip(pairs, rng.uniform(1.0, 5.0, size=len(pairs)))
    )
    defaults = AnalysisDefaults(epsilon=0.01, p=1e-4, horizon=1.0, tau0=0.5)
    doc = NetworkDocument(version=SCHEMA_VERSION, nodes=tuple(nodes), lines=lines, defaults=defaults)
    return resolve_auto_ratings(doc, 1.5, zero_flow_rating=1.0)
