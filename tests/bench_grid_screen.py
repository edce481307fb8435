"""Layer micro-benchmarks on seeded ring-with-chords grids.

Times the three layers a grid screen spends most of its time in: the
transfer assembly (at 1,000 and 3,000 buses, and on a densely coupled
1,000-bus grid), and the JSON report export and the document parser (at
1,000 buses). `build_model` is timed at 1,000 and 2,000 buses, and reports
in `extra_info` the bytes its model keeps and its peak, both as traced by
tracemalloc. The file name does not start with ``test_``, so the default
test run does not collect it. Run it with::

    pytest tests/bench_grid_screen.py --benchmark-only
"""
import tracemalloc

import numpy as np
import pytest

from gridcap.grid_model import build_flow_matrices
from gridcap.io_formats import (
    SCHEMA_VERSION,
    AnalysisDefaults,
    LineSpec,
    NetworkDocument,
    NodeSpec,
    build_model,
    export_report,
    parse_native,
    resolve_auto_ratings,
    serialize_native,
)
from gridcap.ld_rates import full_report

BUSES = 1000


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


@pytest.fixture(scope="module")
def grid():
    doc = ring_with_chords(seed=0, n=BUSES)
    bm = build_model(doc)
    return doc, bm, full_report(bm.ctx)


@pytest.mark.parametrize(
    "buses, chords",
    [(BUSES, None), (3 * BUSES, None), (BUSES, 5 * BUSES)],
    ids=["1000", "3000", "dense-1000"],
)
def test_build_flow_matrices(benchmark, buses, chords):
    # the 1,000- and 3,000-bus rings couple the halves of each inverse level
    # through about half of their columns; the 5,000 extra chords of
    # "dense-1000" touch nearly all of them, so the gathered products there
    # run on whole blocks
    network = build_model(ring_with_chords(seed=0, n=buses, chords=chords)).network
    m = buses // 10
    flow = benchmark(build_flow_matrices, network, m)
    assert flow.transfer.shape == (network.line_count, buses)


@pytest.mark.parametrize("buses", [BUSES, 2 * BUSES], ids=["1000", "2000"])
def test_build_model(benchmark, buses):
    doc = ring_with_chords(seed=0, n=buses)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bm = build_model(doc)
        kept, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    benchmark.extra_info.update(kept_mb=kept / 1e6, peak_mb=peak / 1e6)
    print(f"\nbuild_model at {buses} buses keeps {kept / 1e6:.2f} MB, traced peak {peak / 1e6:.1f} MB")
    del bm
    assert benchmark(build_model, doc).flow.node_count == buses


def test_export_report(benchmark, grid):
    _, bm, report = grid
    text = benchmark(export_report, report, "json", line_terminals=bm.line_terminals)
    assert text.startswith("{")


def test_parse_native(benchmark, grid):
    doc, _, _ = grid
    text = serialize_native(doc)
    assert benchmark(parse_native, text) == doc
