"""Package surface: every name a module exports exists on it."""

import ast
import importlib
import pathlib

import pytest

import gridcap

MODULES = ("_streams", "exact1d", "grid_model", "injections", "io_formats", "ld_rates", "montecarlo", "region", "thermal")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a stale __all__ entry breaks `from gridcap.<module> import *`
    module = importlib.import_module(f"gridcap.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_only_listed_names():
    # each name `gridcap` re-exports is public in its home module: listed in its __all__
    tree = ast.parse(pathlib.Path(gridcap.__file__).read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"gridcap.{node.module}")
            if hasattr(module, "__all__"):
                unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in module.__all__]
    assert unlisted == []


PUBLIC_NAMES = [
    "AnalysisDefaults", "BoundCollapse", "BuiltModel", "CapacityRegion", "DcFlowMatrices", "DecayFit",
    "DecayRateReport", "EmptySlice", "Exact1dProblem", "Exact1dResult", "GraphError", "GridCapError",
    "GridNetwork", "InfeasibleStart", "InsufficientHits", "MatpowerCaseSubset", "McConfig",
    "McEstimate", "McIndicators", "NetworkDocument", "NoBoundaryHit", "NoStochasticLines", "NonPositiveTau",
    "NonUniformGamma", "NonUniformTau", "OperatingPoint", "OuModel", "ParseError", "PsiContext", "REGION_KINDS",
    "RankDeficiency", "RiskPartition", "RoleError", "SchemaError", "ShotResult",
    "SingularReducedLaplacian", "Slice2D", "ZeroBaseFlow", "ZeroVarianceLine", "apply_imax_rule",
    "build_flow_matrices", "build_laplacian", "build_model", "build_region", "certified_rate", "contains",
    "current_decay_rate", "decay_slope", "exact_decay_rate", "export_exact1d", "export_mc",
    "export_partition", "export_region", "export_report", "export_slice", "filter_coefficients", "full_report",
    "lb_decay_rate", "net_injections", "noise_margins", "operating_point",
    "ou_step_coefficients", "overload_indicators", "overload_probability",
    "overload_threshold_equivalence", "parse_matpower", "parse_native", "psi", "resolve_auto_ratings",
    "risk_partition", "serialize_native", "slice2d", "taylor_decay_rate", "wilson_interval",
]


def test_public_surface_is_pinned():
    # adding or dropping a public name is a visible edit to PUBLIC_NAMES
    tree = ast.parse(pathlib.Path(gridcap.__file__).read_text())
    names = [a.name for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1 for a in node.names]
    assert sorted(names) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 74
