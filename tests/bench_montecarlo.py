"""Monte Carlo micro-benchmarks on the converted IEEE 14-bus case.

Times `overload_indicators` at 20,000 replicates x 200 steps, where few
replicates and lines reach the limit (epsilon 4e-4) and where nearly every
replicate does (epsilon 4e-2), and the Philox fill of the same block of
noise on its own. Each estimate is timed in the calling process alone
(workers=1) and split over the usable CPUs (the default, which forks one
child per further CPU up to four), so the pair shows the speed-up of the
split on the machine at hand. The file name does not start with ``test_``, so the
default test run does not collect it. Run it with::

    pytest tests/bench_montecarlo.py --benchmark-only
"""
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from gridcap._streams import fill_normal_blocks
from gridcap.io_formats import AnalysisDefaults, apply_imax_rule, build_model, parse_matpower
from gridcap.ld_rates import PsiContext
from gridcap.montecarlo import McConfig, overload_indicators

CONFIG = McConfig(replicates=20_000, step_count=200, seed=7)


@pytest.fixture(scope="module")
def case14():
    case = parse_matpower(resources.files("gridcap").joinpath("data", "case14.m").read_text())
    defaults = AnalysisDefaults(epsilon=4e-4, p=1e-4, horizon=1.0, tau0=0.5)
    doc = apply_imax_rule(
        case, 1.5, (2, 3), (6, 9), gamma=1.0, vol=10.0, tau=0.5, defaults=defaults, zero_flow_rating=1.0
    )
    return build_model(doc).ctx


@pytest.mark.parametrize("workers", [1, None], ids=["workers=1", "workers=default"])
@pytest.mark.parametrize("epsilon", [4e-4, 4e-2])
def test_overload_indicators(benchmark, case14, epsilon, workers):
    ctx = PsiContext(case14.flow, case14.op, replace(case14.ou, noise_scale=epsilon))
    ind = benchmark(overload_indicators, ctx, replace(CONFIG, workers=workers))
    assert ind.current[ind.temperature].all()


def test_fill_normal_blocks(benchmark):
    out = np.empty((CONFIG.replicates, CONFIG.step_count, 2))
    benchmark(fill_normal_blocks, CONFIG.seed, 0, out)
    assert np.isfinite(out).all()
