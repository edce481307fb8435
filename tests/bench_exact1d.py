"""Micro-benchmarks of the exact single-line temperature rate.

Times `certified_rate` on one row of the paper's table (mu 0.5, gamma 0.5,
vol 1, tau 0.3, T 1), which solves the discretized problem on 400 and 800
steps, `_discrete_level` alone at 800 steps, and `gridcap exact1d` on that
row, run in process through `cli.main` with its JSON written to a file. The
file name does not start with ``test_``, so the default test run does not
collect it. Run it with::

    pytest tests/bench_exact1d.py --benchmark-only
"""
import json

import pytest

from gridcap import cli, exact1d
from gridcap.exact1d import Exact1dProblem, certified_rate, exact_decay_rate

ROW = Exact1dProblem(mu=0.5, gamma=0.5, vol=1.0, tau=0.3, horizon=1.0)


@pytest.fixture(scope="module", autouse=True)
def warm():
    """Loads scipy.linalg, all that the exact rate imports, before any clock starts."""
    exact_decay_rate(ROW)


def test_certified_rate_table_row(benchmark):
    assert benchmark(certified_rate, ROW) == pytest.approx(0.3170987830, rel=1e-9)


def test_discrete_level_800_steps(benchmark):
    level = benchmark(exact1d._discrete_level, ROW, 2 * exact1d.DISCRETE_STEPS)
    assert level is not None


def test_cli_exact1d_table_row(benchmark, tmp_path):
    path = tmp_path / "exact1d.json"
    argv = ["exact1d", "--mu", "0.5", "--gamma", "0.5", "--vol", "1", "--tau", "0.3", "--T", "1", "--output", str(path)]
    assert benchmark(cli.main, argv) == 0
    assert json.loads(path.read_text())["theta_end"] == pytest.approx(1.0, abs=1e-9)
