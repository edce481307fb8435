"""Micro-benchmarks of the exact single-line temperature rate.

Times `certified_rate` on one row of the paper's table (mu 0.5, gamma 0.5,
vol 1, tau 0.3, T 1), which solves the discretized problem on 400 and 800
steps, `_discrete_level` alone at 800 steps, and the attaining shot of a
fresh `exact_decay_rate` result, whose Newton iteration integrates the
stationarity system twice on that row. The file name does not start with
``test_``, so the default test run does not collect it. Run it with::

    pytest tests/bench_exact1d.py --benchmark-only
"""
import pytest

from gridcap import exact1d
from gridcap.exact1d import Exact1dProblem, certified_rate, exact_decay_rate

ROW = Exact1dProblem(mu=0.5, gamma=0.5, vol=1.0, tau=0.3, horizon=1.0)


@pytest.fixture(scope="module", autouse=True)
def warm():
    """Loads scipy.linalg and scipy.integrate before any clock starts."""
    exact_decay_rate(ROW).shot


def test_certified_rate_table_row(benchmark):
    assert benchmark(certified_rate, ROW) == pytest.approx(0.3170987830, rel=1e-9)


def test_discrete_level_800_steps(benchmark):
    level = benchmark(exact1d._discrete_level, ROW, 2 * exact1d.DISCRETE_STEPS)
    assert level is not None


def test_attaining_shot_table_row(benchmark):
    shot = benchmark(lambda: exact_decay_rate(ROW).shot)
    assert shot.theta_end == pytest.approx(1.0, abs=1e-10)
