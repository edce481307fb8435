"""Risk-partition micro-benchmarks at 800 x 800 cells.

Times `risk_partition` on the converted IEEE 14-bus case sliced over buses
6 and 9 (the map `case14_study` draws), and on a seeded 1,000-bus,
1,500-line ring with chords sliced over its first two stochastic nodes in
a box of +-3 around their means, as `grid_screen` slices it, and the CSV
export of the case14 map (one row per labeled cell). The file name
does not start with ``test_``, so the default test run does not collect
it. Run it with::

    pytest tests/bench_region.py --benchmark-only
"""
import numpy as np
import pytest

from bench_grid_screen import BUSES
from conftest import ring_with_chords
from gridcap.io_formats import build_model, export_partition
from gridcap.region import risk_partition
from test_region import _case14_map

RESOLUTION = 800


def _grid_map():
    bm = build_model(ring_with_chords(seed=0, n=BUSES))
    u, v = bm.ou.mean[0], bm.ou.mean[1]
    fixed = np.concatenate([bm.ou.mean, bm.op.mu_D])
    return bm, (1, 2), fixed, (u - 3.0, u + 3.0, v - 3.0, v + 3.0)


@pytest.mark.parametrize("case", ["case14", "grid-1000"])
def test_risk_partition(benchmark, case):
    bm, free, fixed, bbox = _case14_map() if case == "case14" else _grid_map()
    part = benchmark(risk_partition, bm.ctx, free, fixed, bbox, resolution=RESOLUTION)
    assert part.summaries[0].cells > 0


def test_export_partition_csv(benchmark):
    bm, free, fixed, bbox = _case14_map()
    part = risk_partition(bm.ctx, free, fixed, bbox, resolution=RESOLUTION)
    text = benchmark(export_partition, part, "csv", line_terminals=bm.line_terminals)
    assert text.count("\n") - 1 == int(np.count_nonzero(part.label_grid >= 0))
