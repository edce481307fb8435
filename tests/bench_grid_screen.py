"""Layer micro-benchmarks on seeded ring-with-chords grids.

Times the three layers a grid screen spends most of its time in: the
transfer assembly (at 1,000 and 3,000 buses, and on a densely coupled
1,000-bus grid), and the rate report, its JSON export, the four region
exports and the document parser (at 1,000 buses). `test_screen_op` times one whole screen
at 1,000 buses, as the benchmark's `grid_screen` workload runs it: parse,
`build_model`, `full_report`, then each region kind built, sliced and
exported. `build_model` is timed at 1,000, 2,000 and 4,000 buses, and
reports in `extra_info` the bytes its model keeps and its peak, both as
traced by tracemalloc, and the bytes of the held factorization of the
grounded Laplacian. The flow map's two served reads are timed at 1,000
buses: `columns` of one node outside C (one aligned block of unit solves)
and `currents` (one solve). The file name does not start with ``test_``,
so the default test run does not collect it. Run it with::

    pytest tests/bench_grid_screen.py --benchmark-only
"""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import ring_with_chords
from gridcap.grid_model import build_flow_matrices
from gridcap.io_formats import (
    build_model,
    export_region,
    export_report,
    export_slice,
    parse_native,
    serialize_native,
)
from gridcap.ld_rates import full_report
from gridcap.region import REGION_KINDS, build_region, slice2d

BUSES = 1000


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


def factor_bytes(factor) -> int:
    """Bytes of the arrays in a factorization made by `grid_model._spd_factor`."""
    if isinstance(factor, tuple):
        return sum(factor_bytes(part) for part in factor)
    return factor.nbytes if isinstance(factor, np.ndarray) else 0


@pytest.mark.parametrize("buses", [BUSES, 2 * BUSES, 4 * BUSES], ids=["1000", "2000", "4000"])
def test_build_model(benchmark, buses):
    doc = ring_with_chords(seed=0, n=buses)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bm = build_model(doc)
        kept, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    factor = factor_bytes(bm.flow.factor)
    benchmark.extra_info.update(kept_mb=kept / 1e6, peak_mb=peak / 1e6, factor_mb=factor / 1e6)
    print(f"\nbuild_model at {buses} buses keeps {kept / 1e6:.2f} MB ({factor / 1e6:.2f} MB of factors), "
          f"traced peak {peak / 1e6:.1f} MB")
    del bm
    assert benchmark(build_model, doc).flow.node_count == buses


def test_columns(benchmark, grid):
    _, bm, _ = grid
    # the last node is deterministic, so its column is solved, not copied from C
    assert benchmark(bm.flow.columns, [BUSES - 1]).shape == (bm.flow.line_count, 1)


def test_currents(benchmark, grid):
    _, bm, _ = grid
    s = np.concatenate([[0.0], bm.ou.mean, bm.op.mu_D])
    assert benchmark(bm.flow.currents, s).shape == (bm.flow.line_count,)


def test_full_report(benchmark, grid):
    _, bm, _ = grid
    assert len(benchmark(full_report, bm.ctx).line) == len(bm.ctx.stochastic_lines)


def test_export_report(benchmark, grid):
    _, bm, report = grid
    text = benchmark(export_report, report, "json", line_terminals=bm.line_terminals)
    assert text.startswith("{")


def test_parse_native(benchmark, grid):
    doc, _, _ = grid
    text = serialize_native(doc)
    assert benchmark(parse_native, text) == doc


def screen_op(text, free, bbox):
    """One grid screen: the document text to every exported text."""
    doc = parse_native(text)
    bm = build_model(doc)
    settings = doc.defaults
    report = full_report(bm.ctx, tau0=settings.tau0)
    exported = [export_report(report, "json", line_terminals=bm.line_terminals)]
    fixed = np.concatenate([bm.ou.mean, bm.op.mu_D])
    for kind in REGION_KINDS:
        region = build_region(bm.ctx, kind, settings.epsilon, settings.p, tau0=settings.tau0)
        exported.append(export_region(region))
        exported.append(export_slice(slice2d(region, bm.flow, free, fixed, bbox)))
    return exported


@pytest.fixture(scope="module")
def screen():
    """Text, slice axes and window of a 1,000-bus screen.

    Ratings are raised to at least their median, as in the benchmark's
    synthetic grid: the plain rule leaves lightly loaded lines so little
    room that every noisy region kind collapses.
    """
    doc = ring_with_chords(seed=0, n=BUSES)
    floor = float(np.median([line.rating for line in doc.lines]))
    doc = replace(doc, lines=tuple(replace(line, rating=max(line.rating, floor)) for line in doc.lines))
    mean = build_model(doc).ou.mean
    # the first two stochastic nodes are internal indices 1 and 2
    bbox = (mean[0] - 3.0, mean[0] + 3.0, mean[1] - 3.0, mean[1] + 3.0)
    return serialize_native(doc), (1, 2), bbox


def test_export_regions(benchmark, screen):
    text, _, _ = screen
    doc = parse_native(text)
    ctx = build_model(doc).ctx
    settings = doc.defaults
    regions = [build_region(ctx, kind, settings.epsilon, settings.p, tau0=settings.tau0) for kind in REGION_KINDS]
    texts = benchmark(lambda: [export_region(region) for region in regions])
    assert [t.startswith("{") for t in texts] == [True] * 4


def test_screen_op(benchmark, screen):
    exported = benchmark(screen_op, *screen)
    assert len(exported) == 1 + 2 * len(REGION_KINDS)
