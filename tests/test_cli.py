"""End-to-end command-line behavior, run in process."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings
from importlib import resources

import numpy as np
import pytest

import gridcap
from gridcap import cli
from gridcap.cli import main
from gridcap.errors import BoundCollapse, EmptySlice, GridCapError, NoBoundaryHit
from gridcap.exact1d import Exact1dProblem, certified_rate, exact_decay_rate
from gridcap.io_formats import build_model, parse_native, serialize_native
from gridcap.ld_rates import psi
from gridcap.region import REGION_KINDS, build_region, slice2d
from conftest import ring_with_chords
from oracles import certified_temperature_rate
from test_io_formats import TINY_CASE


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _subprocess_env():
    """The environment with this gridcap's source tree first on PYTHONPATH."""
    src = str(pathlib.Path(gridcap.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_import_loads_no_scipy():
    # SciPy is imported only by the exact-rate solver, when it runs.
    code = "import sys, gridcap, gridcap.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_assembly_loads_no_scipy():
    # The grounded Laplacian is inverted with NumPy alone: converted case14,
    # and a 400-bus ring above INVERSE_BLOCK.
    code = (
        "import sys, numpy as np\n"
        "from importlib import resources\n"
        "from gridcap.grid_model import GridNetwork, build_flow_matrices\n"
        "from gridcap.io_formats import AnalysisDefaults, apply_imax_rule, build_model, parse_matpower\n"
        "case = parse_matpower(resources.files('gridcap').joinpath('data', 'case14.m').read_text())\n"
        "defaults = AnalysisDefaults(epsilon=4e-4, p=1e-4, horizon=1.0, tau0=0.5)\n"
        "build_model(apply_imax_rule(case, 1.5, (2, 3), (6, 9), gamma=1.0, vol=10.0, tau=0.5,\n"
        "                            defaults=defaults, zero_flow_rating=1.0))\n"
        "n = 400\n"
        "lines = sorted([(k, k + 1) for k in range(n - 1)] + [(0, n - 1)])\n"
        "build_flow_matrices(GridNetwork(n, lines, np.ones(n), np.ones(n), np.ones(n)), 1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_rates_single_line_report(capsys):
    code, out, _ = run(capsys, "rates", "builtin:single-line", "--tau", "0.6")
    assert code == 0
    rep = json.loads(out)
    assert np.isclose(rep["current_rate"], 0.1977470883586658, rtol=1e-9)
    assert np.isclose(rep["lb_rate"], 0.2695950802167597, rtol=1e-9)
    assert np.isclose(rep["taylor_rate"], 0.3163953413738653, rtol=1e-9)
    assert rep["current_argmin"] == [0]
    assert rep["lines"][0]["from"] == 1 and rep["lines"][0]["to"] == 2


def test_rates_zero_lag_collapses_to_current(capsys):
    code, out, _ = run(capsys, "rates", "builtin:single-line", "--tau", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["taylor_rate"] == rep["current_rate"]


def test_rates_csv_table(capsys):
    code, out, _ = run(capsys, "rates", "builtin:wheel3", "--format", "csv")
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0].startswith("line,from,to,")
    assert len(rows) == 4


def test_rates_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "rates", "builtin:wheel3", "--output", str(target))
    assert code == 0
    assert out == ""
    assert "current_rate" in target.read_text()


def test_threads_flag_changes_nothing(capsys):
    _, plain, _ = run(capsys, "rates", "builtin:wheel3")
    _, threaded, _ = run(capsys, "--threads", "8", "rates", "builtin:wheel3")
    assert plain == threaded


@pytest.mark.parametrize("value", ["-3", "0"])
def test_threads_below_one_exits_usage(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", value, "rates", "builtin:wheel3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "positive integer" in err


def test_region_bounds(capsys):
    code, out, _ = run(capsys, "region", "builtin:wheel3", "--kind", "current")
    assert code == 0
    reg = json.loads(out)
    assert reg["kind"] == "current"
    assert np.allclose(reg["bounds"], [0.33484102, 0.33484102, 0.57931653], rtol=1e-6)


def test_region_slice_with_negative_bbox(capsys):
    code, out, _ = run(
        capsys,
        "region",
        "builtin:wheel3",
        "--kind",
        "deterministic",
        "--slice",
        "2,3",
        "--bbox=-2,2,-2,2",
    )
    assert code == 0
    sl = json.loads(out)
    assert np.isclose(sl["area"], 9.0, atol=1e-9)
    assert sl["vertices"][0] == sl["vertices"][-1]


def test_region_partition(capsys):
    code, out, _ = run(
        capsys,
        "region",
        "builtin:wheel3",
        "--kind",
        "deterministic",
        "--slice",
        "2,3",
        "--bbox=-2,2,-2,2",
        "--partition",
        "--resolution",
        "30",
    )
    assert code == 0
    part = json.loads(out)
    assert part["resolution"] == 30
    assert part["central"] in ([0], [1])
    assert part["regions"][0]["cells"] > 0


def test_region_partition_rejects_zero_resolution(capsys):
    code, out, err = run(
        capsys,
        "region",
        "builtin:wheel3",
        "--kind",
        "deterministic",
        "--slice",
        "2,3",
        "--bbox=-2,2,-2,2",
        "--partition",
        "--resolution",
        "0",
    )
    assert code == 2
    assert out == ""
    assert "resolution" in err


def test_region_slice_requires_bbox(capsys):
    code, _, err = run(capsys, "region", "builtin:wheel3", "--kind", "current", "--slice", "2,3")
    assert code == 2
    assert "bbox" in err


def test_region_partition_requires_slice(capsys):
    code, _, err = run(
        capsys, "region", "builtin:wheel3", "--kind", "current", "--partition"
    )
    assert code == 2
    assert "slice" in err


def test_region_collapse_exits_empty(capsys):
    # tau=0.6 single line at its stored defaults: the margin exceeds the rating
    code, _, err = run(capsys, "region", "builtin:single-line", "--kind", "current")
    assert code == 3
    assert "collapsed" in err


def test_region_partition_ignores_a_collapsing_kind(capsys):
    # The partition labels the deterministic slice, so a --kind whose region
    # would collapse at this noise scale is never built.
    argv = ["region", "builtin:wheel3", "--epsilon", "50", "--slice", "2,3", "--bbox=-1,1,-1,1", "--partition",
            "--resolution", "20"]
    code, out, _ = run(capsys, *argv, "--kind", "current")
    assert code == 0
    assert (code, out) == run(capsys, *argv, "--kind", "deterministic")[:2]
    assert run(capsys, "region", "builtin:wheel3", "--epsilon", "50", "--kind", "current")[0] == 3


def test_region_empty_slice_exits_empty(capsys):
    code, _, err = run(
        capsys,
        "region",
        "builtin:wheel3",
        "--kind",
        "deterministic",
        "--slice",
        "2,3",
        "--bbox",
        "5,6,5,6",
    )
    assert code == 3
    assert "empty" in err.lower()


def test_region_partition_outside_slice_exits_empty(capsys):
    # No cell center of the box lies inside the deterministic region.
    code, out, err = run(
        capsys,
        "region", "builtin:wheel3", "--kind", "deterministic", "--slice", "2,3",
        "--bbox=10,11,10,11", "--partition",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_region_partition_huge_box_prices_without_warnings(capsys):
    # Far outside the region the squared margin overflows; those cells are never read.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(
            capsys,
            "region", "builtin:wheel3", "--kind", "deterministic", "--slice", "2,3",
            "--bbox=-1e200,1e200,-1e200,1e200", "--partition",
        )
    assert code == 3
    assert err.startswith("error:")


def _run_maybe_strict(capsys, strict, argv):
    """(exit code, stdout, stderr): in process, or with strict in a child under -W error."""
    if not strict:
        return run(capsys, *argv)
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "gridcap", *argv], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("box", [
    ["--bbox=-1e308,1e308,-1,1"],
    ["--bbox=-1e308,1e308,-1e308,1e308", "--partition", "--resolution", "4"],
])
def test_region_box_of_infinite_width_exits_usage(capsys, strict, box):
    # umax - umin overflows to inf: clipping and cell centers would take inf and NaN distances
    argv = ["region", "builtin:wheel3", "--kind", "current", "--slice", "2,3", *box]
    code, out, err = _run_maybe_strict(capsys, strict, argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: bbox widths umax - umin and vmax - vmin must be finite"]


def test_region_wide_finite_box_keeps_its_slice(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "region", "builtin:wheel3", "--kind", "current", "--slice", "2,3",
                             "--bbox=-1e10,1e10,-1,1")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert len(doc["vertices"]) == 7 and abs(doc["area"] - 1.32) < 0.01  # six vertices, closed


def test_region_partition_inverted_box_exits_usage(capsys):
    code, out, err = run(
        capsys,
        "region", "builtin:wheel3", "--kind", "deterministic", "--slice", "2,3",
        "--bbox=2,-2,-2,2", "--partition", "--resolution", "40",
    )
    assert code == 2
    assert out == ""
    assert "bbox must satisfy umin < umax and vmin < vmax" in err


def test_exact1d_reference_point(capsys):
    code, out, _ = run(
        capsys,
        "exact1d",
        "--mu", "0.5", "--gamma", "0.5", "--vol", "1", "--tau", "0.5", "--T", "1",
    )
    assert code == 0
    res = json.loads(out)
    assert np.isclose(res["rate"], 0.4336068379085093, rtol=1e-6)
    assert np.isclose(res["theta_end"], 1.0, atol=1e-6)
    assert np.isclose(res["x1"], 1.0784993796300875, atol=1e-4)


@pytest.mark.parametrize("tau", ["0.1", "0.2", "0.3", "0.4", "0.5", "0.6"])
def test_exact1d_prints_the_library_shot(capsys, tau):
    # every printed field is the library result's, bit for bit
    code, out, err = run(capsys, "exact1d", "--mu", "0.5", "--gamma", "0.5", "--vol", "1", "--tau", tau, "--T", "1")
    assert (code, err) == (0, "")
    res = exact_decay_rate(Exact1dProblem(mu=0.5, gamma=0.5, vol=1.0, tau=float(tau), horizon=1.0))
    assert json.loads(out) == {"rate": res.value, "x1": res.x1, "x2": res.x2, "theta_end": res.shot.theta_end}


def test_exact1d_invalid_mean(capsys):
    code, _, err = run(capsys, "exact1d", "--mu", "0", "--gamma", "1", "--vol", "1", "--tau", "0.5", "--T", "1")
    assert code == 2
    assert "mu" in err


def test_exact1d_reachable_beyond_former_box(capsys):
    # The optimum has f''(0) of about 9.7e4, far outside the |x2| <= 50 box
    # that once bounded the search by default.
    code, out, _ = run(
        capsys,
        "exact1d",
        "--mu", "0.1", "--gamma", "0.1", "--vol", "1", "--tau", "10", "--T", "0.1",
    )
    assert code == 0
    value, certified = certified_temperature_rate(0.1, 0.1, 1.0, 10.0, 0.1, 1600)
    assert certified
    assert np.isclose(json.loads(out)["rate"], value, rtol=1e-5)


def test_exact1d_unreachable_level(capsys):
    # Reaching theta(T) = 1 within T = 1e-3 at tau = 1e4 takes a current of
    # order 3e3. The 400-step level reaches no certified secular root (the
    # 800-step level does), so the rate is refused.
    code, _, err = run(
        capsys,
        "exact1d",
        "--mu", "0.1", "--gamma", "0.1", "--vol", "1", "--tau", "1e4", "--T", "1e-3",
    )
    assert code == 4
    assert "no certified optimum of the problem discretized on 400 steps" in err


def test_exact1d_large_lag_ratio_exits_without_warnings(capsys):
    # At T/tau = 700 the weights of the discretized problem span e^700 and
    # underflow; the certified start must neither warn nor overflow.
    argv = ["exact1d", "--mu", "0.5", "--gamma", "0.5", "--vol", "1", "--tau", "0.0014285714", "--T", "1"]
    code, out, err = _run_maybe_strict(capsys, True, argv)
    assert code == 0
    assert err == ""
    assert np.isclose(json.loads(out)["rate"], 0.198135618, rtol=1e-8)


@pytest.mark.parametrize("option, value", [("--vol", "1e200"), ("--vol", "1e-170"), ("--gamma", "1e160")])
def test_exact1d_out_of_range_square_exits_invalid(option, value):
    # vol^2 or gamma^2 overflows or underflows; refused before the solver runs
    params = {"--mu": "0.5", "--gamma": "1", "--vol": "1", "--tau": "0.5", "--T": "1", option: value}
    argv = [token for pair in params.items() for token in pair]
    proc = subprocess.run([sys.executable, "-m", "gridcap", "exact1d", *argv],
                          env=_subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"error: {option[2:]} = ")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_mc_single_noise_scale(capsys):
    code, out, _ = run(
        capsys, "mc", "builtin:wheel3", "--eps", "0.5", "--n", "2000", "--steps", "50", "--seed", "1"
    )
    assert code == 0
    res = json.loads(out)
    assert res["mode"] == "current"
    assert res["fit"] is None
    (est,) = res["estimates"]
    assert est["epsilon"] == 0.5
    assert est["hits"] > 0
    assert est["ci"][0] <= est["p_hat"] <= est["ci"][1]


def test_mc_reruns_bit_identical(capsys):
    args = ("mc", "builtin:wheel3", "--eps", "0.5", "--n", "1000", "--steps", "50", "--seed", "3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_mc_fit_over_noise_scales(capsys):
    code, out, _ = run(
        capsys,
        "mc", "builtin:wheel3",
        "--eps", "0.5,0.7", "--n", "2000", "--steps", "50", "--seed", "2",
    )
    assert code == 0
    res = json.loads(out)
    assert len(res["estimates"]) == 2
    assert res["fit"] is not None
    assert res["fit"]["rate"] == -res["fit"]["slope"]
    assert res["fit"]["rate"] > 0


def test_mc_fit_reports_the_single_scale_estimates(capsys):
    args = ("mc", "builtin:wheel3", "--n", "1500", "--steps", "40", "--seed", "5")
    _, pair, _ = run(capsys, *args, "--eps", "0.5,0.7")
    singles = []
    for eps in ("0.5", "0.7"):
        _, out, _ = run(capsys, *args, "--eps", eps)
        singles += json.loads(out)["estimates"]
    assert json.loads(pair)["estimates"] == singles


def test_mc_fit_refuses_one_distinct_noise_scale(capsys):
    code, out, err = run(capsys, "mc", "builtin:wheel3", "--eps", "0.5,0.5", "--n", "2000", "--steps", "50")
    assert code == 2
    assert out == ""
    assert err == "error: need at least two distinct noise scales to fit a slope\n"


def test_mc_csv_format(capsys):
    code, out, _ = run(
        capsys,
        "mc", "builtin:wheel3", "--eps", "0.5", "--n", "500", "--steps", "40", "--format", "csv",
    )
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "epsilon,p_hat,ci_low,ci_high,hits,replicates"
    assert len(rows) == 2


def test_mc_no_hits_exits_empty(capsys):
    code, _, err = run(
        capsys,
        "mc", "builtin:wheel3", "--eps", "0.01,0.02", "--n", "200", "--steps", "40",
    )
    assert code == 3
    assert "no overloads" in err


def test_mc_temperature_mode(capsys):
    code, out, _ = run(
        capsys,
        "mc", "builtin:wheel3", "--kind", "temperature",
        "--eps", "0.8", "--n", "2000", "--steps", "50",
    )
    assert code == 0
    assert json.loads(out)["mode"] == "temperature"


def test_convert_bundled_case(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "convert", "builtin:case14",
        "--K", "1.5",
        "--stochastic", "2,3",
        "--controllable", "6,9",
        "--gamma", "1", "--vol", "10", "--tau", "0.5",
        "--epsilon", "0.25", "--p", "0.0001", "--horizon", "1", "--tau0", "0.5",
        "--zero-flow-rating", "1",
    )
    assert code == 0
    assert "warning:" in err
    doc = parse_native(out)
    assert doc.stochastic_ids == (2, 3)
    assert doc.controllable_ids == (6, 9)
    assert len(doc.lines) == 20
    # the converted document is a valid input for the other subcommands
    path = tmp_path / "case14.json"
    path.write_text(out)
    code2, out2, _ = run(capsys, "rates", str(path))
    assert code2 == 0
    assert json.loads(out2)["current_rate"] > 0


def _case14_document(capsys):
    code, out, _ = run(
        capsys,
        "convert", "builtin:case14",
        "--K", "1.5", "--stochastic", "2,3", "--controllable", "6,9",
        "--gamma", "1", "--vol", "10", "--tau", "0.5", "--zero-flow-rating", "1",
        "--epsilon", "0.0004", "--p", "0.0001", "--horizon", "1", "--tau0", "0.5",
    )
    assert code == 0
    return out


@pytest.mark.parametrize("document", [
    pytest.param(_case14_document, id="case14"),
    pytest.param(lambda capsys: serialize_native(ring_with_chords(seed=0, n=120)), id="ring-120"),
    pytest.param(lambda capsys: serialize_native(ring_with_chords(seed=0, n=129)), id="ring-129"),
])
def test_rates_independent_of_blas_threads(capsys, tmp_path, document):
    # A network of at most 64 non-slack buses (case14 has 13) is one LAPACK
    # inverse, and the rings' 119 and 128 are split once into such leaves,
    # whose products are small enough that OpenBLAS's thread count does not
    # reach the bytes. A 1,000-bus grid's flow map still differs in its last
    # bits between 1 and 2 threads (README, Determinism).
    path = tmp_path / "network.json"
    path.write_text(document(capsys))
    reports = [
        subprocess.run([sys.executable, "-m", "gridcap", "rates", str(path)], capture_output=True, text=True,
                       check=True, env=dict(_subprocess_env(), OPENBLAS_NUM_THREADS=threads)).stdout
        for threads in ("1", "2")
    ]
    assert reports[0] == reports[1]
    assert reports[0] == run(capsys, "rates", str(path))[1]


def test_convert_zero_flow_requires_flag(capsys):
    code, _, err = run(
        capsys,
        "convert", "builtin:case14", "--K", "1.5", "--stochastic", "2,3",
    )
    assert code == 2
    assert "zero base flow" in err


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--epsilon", "-1", "$.defaults.epsilon: must be non-negative"),
        ("--p", "0", "$.defaults.p: must lie strictly between 0 and 1"),
        ("--p", "5", "$.defaults.p: must lie strictly between 0 and 1"),
        ("--horizon", "0", "$.defaults.horizon: must be positive"),
        ("--horizon", "-1", "$.defaults.horizon: must be positive"),
        ("--tau0", "-0.5", "$.defaults.tau0: must be non-negative"),
        ("--zero-flow-rating", "0", "zero_flow_rating must be positive"),
        ("--zero-flow-rating", "-3", "zero_flow_rating must be positive"),
        ("--vol", "1e300", "vol = 1e+300 is out of range: its square is 0 or not finite"),
        ("--vol", "1e-200", "vol = 1e-200 is out of range: its square is 0 or not finite"),
    ],
)
def test_convert_refuses_what_its_parser_would_refuse(capsys, tmp_path, option, value, message):
    output = tmp_path / "case14.json"
    code, out, err = run(
        capsys,
        "convert", "builtin:case14", "--K", "1.5", "--stochastic", "2,3", "--zero-flow-rating", "1",
        f"{option}={value}", "--output", str(output),
    )
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {message}\n")
    assert not output.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_input_exits_invalid(capsys, tmp_path, literal):
    text = resources.files("gridcap").joinpath("data", "wheel3.json").read_text()
    doc = tmp_path / "wheel3.json"
    doc.write_text(text.replace('"mean": 0.3}', f'"mean": {literal}}}', 1))
    code, out, err = run(capsys, "rates", str(doc))
    assert code == 2
    assert out == ""
    assert "$.nodes[1].mean" in err


def test_rates_infinite_horizon_exits_invalid(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rates", "builtin:wheel3", "--horizon", "inf"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "finite" in err


def test_mc_infinite_threshold_exits_invalid(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mc", "builtin:wheel3", "--threshold", "inf", "--n", "100", "--steps", "10"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "finite" in err


def test_mc_huge_noise_scale_prices_without_warnings(capsys):
    # Squared currents overflow to inf, which counts as a hit.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "mc", "builtin:wheel3", "--kind", "temperature", "--eps", "1e308", "--n", "50", "--steps", "10"
        )
    assert code == 0
    assert err == ""
    assert json.loads(out)["estimates"][0]["p_hat"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("rates", "builtin:wheel3", "--horizon", "1e308"),
        ("rates", "builtin:wheel3", "--tau", "1e-320"),
    ],
)
def test_rates_extreme_horizon_or_lag_prices_limits_without_warnings(capsys, argv):
    # horizon / tau overflows to inf: q = e^{-T/tau} is 0 and alpha is 1 exactly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    rep = json.loads(out)
    assert [line["alpha"] for line in rep["lines"]] == [1, 1, 1]
    assert rep["lb_rate"] == rep["current_rate"]


def test_region_huge_horizon_thermal_bound_meets_current_bound(capsys):
    # q = 0 makes the temperature lower-bound slab the current slab
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "region", "builtin:wheel3", "--kind", "temperature_lb", "--horizon", "1e308")
    assert code == 0
    assert err == ""
    _, current, _ = run(capsys, "region", "builtin:wheel3", "--kind", "current", "--horizon", "1e308")
    assert json.loads(out)["bounds"] == json.loads(current)["bounds"]


def test_region_tiny_horizon_thermal_bound_keeps_one_minus_q(capsys):
    # T/tau = 2e-17: 1 - e^{-T/tau} rounds to 0, -expm1(-T/tau) keeps 2e-17, and with
    # beta^2 ~ 1e30 the radicand's beta^2 q (1 - q) ~ 2e13 is far above 1
    argv = ["region", "builtin:wheel3", "--kind", "temperature_lb", "--horizon", "1e-17", "--epsilon", "1e46"]
    code, out, err = _run_maybe_strict(capsys, True, argv)
    assert (code, out) == (3, "")
    assert err.splitlines() == ["error: capacity bound collapsed on line 1–2"]


def test_rates_csv_quotes_ids_that_hold_separators(capsys, tmp_path):
    doc = json.loads(resources.files("gridcap").joinpath("data", "wheel3.json").read_text())
    ids = {1: "a,b", 2: 'q"x', 3: "line\nbreak"}
    for node in doc["nodes"]:
        node["id"] = ids[node["id"]]
    for line in doc["lines"]:
        line["from"], line["to"] = ids[line["from"]], ids[line["to"]]
    path = tmp_path / "wheel.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "rates", str(path), "--format", "csv")
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert [len(row) for row in rows] == [8] * 4
    assert [row[1:3] for row in rows[1:]] == [["a,b", 'q"x'], ["a,b", "line\nbreak"], ['q"x', "line\nbreak"]]


def test_exact1d_overflowing_lag_exits_refusal_without_warnings(capsys):
    # T / tau overflows to inf in the discrete levels' lags; lag = 0 is the exact limit
    argv = ["exact1d", "--mu", "0.5", "--gamma", "0.5", "--vol", "1", "--tau", "0.5", "--T", "1e308"]
    code, out, err = _run_maybe_strict(capsys, True, argv)
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_partition_beyond_memory_exits_2(capsys, tmp_path):
    # a 40,000^2 label grid alone needs 6 GB; the child's address space is capped at 1 GiB
    resource = pytest.importorskip("resource")
    code, out, _ = run(
        capsys,
        "convert", "builtin:case14",
        "--K", "1.5", "--stochastic", "2,3", "--controllable", "6,9",
        "--gamma", "1", "--vol", "10", "--tau", "0.5", "--zero-flow-rating", "1",
        "--epsilon", "0.0004", "--p", "0.0001", "--horizon", "1", "--tau0", "0.5",
    )
    assert code == 0
    path = tmp_path / "case14.json"
    path.write_text(out)

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = ["region", str(path), "--kind", "deterministic", "--slice", "6,9", "--bbox=-5,5,-5,5",
            "--partition", "--resolution", "40000"]
    proc = subprocess.run([sys.executable, "-m", "gridcap", *argv], env=dict(_subprocess_env(), OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=120, preexec_fn=cap_address_space)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: the request does not fit in memory; lower --resolution"]


@pytest.mark.parametrize("mu", ["1e-165", "1e-200", "5e-324"])
def test_exact1d_tiny_mean_exits_refusal(capsys, mu):
    # the secular Newton slope underflows to 0 at these means
    code, out, err = run(capsys, "exact1d", "--mu", mu, "--gamma", "0.5", "--vol", "1", "--tau", "0.5", "--T", "1")
    assert code == 4
    assert out == ""
    assert _single_error_line(err) and "no certified optimum" in err


def test_exact1d_wide_level_gap_exits_refusal(capsys):
    # gamma T = 1.3e4: the 400- and 800-step optima differ by 26 %, so the rate is refused, not extrapolated
    argv = ["exact1d", "--mu", "0.7704599936516205", "--gamma", "141.79158793113598", "--vol", "2699.5271719058974",
            "--tau", "0.2001630826045529", "--T", "91.79489154037428"]
    code, out, err = _run_maybe_strict(capsys, True, argv)
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: the certified optima on 400 ")
    assert "Traceback" not in err


# (mu, gamma, vol, tau, T) whose rate certifies where the shooting route of
# tests/oracles.py does not land: the reference case at gamma 2, and draws
# 82, 104 and 106 of the exact-rate sweep in tests/test_exact1d.py
FORMER_SHOT_REFUSALS = {
    "gamma2": (0.5, 2.0, 1.0, 1.0, 8.0),
    "draw82": (0.3852289862805758, 3.5781993962842273, 0.7119847195296184, 0.05003434084824712, 3.985455561533374),
    "draw104": (0.6530955954544738, 4.471276445163399, 1.0377930723525155, 0.08386650712660974, 4.172698567668809),
    "draw106": (0.8119341768094288, 1.3265201846889585, 1.4719752778658444, 0.10463564630489619, 8.735623412071709),
}


def _exact1d_argv(args):
    return ["exact1d", *(token for name, value in zip(("--mu", "--gamma", "--vol", "--tau", "--T"), args)
                         for token in (name, repr(value)))]


@pytest.mark.parametrize("args", FORMER_SHOT_REFUSALS.values(), ids=FORMER_SHOT_REFUSALS.keys())
def test_exact1d_prints_every_certified_rate(capsys, args):
    code, out, err = _run_maybe_strict(capsys, True, _exact1d_argv(args))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["rate"] == certified_rate(Exact1dProblem(*args))
    assert np.isclose(doc["theta_end"], 1.0, rtol=0.0, atol=1e-6)


def _exact1d_sweep(count=40, seed=36):
    """Seeded (mu, gamma, vol, tau, T) with log-uniform means down to 1e-6 and gamma T up to ~3e3."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        mu, gamma, vol = 10.0 ** rng.uniform(-6.0, -0.02), 10.0 ** rng.uniform(-1.3, 2.0), 10.0 ** rng.uniform(-0.7, 0.7)
        horizon = 10.0 ** rng.uniform(-1.0, 1.5)
        draws.append((mu, gamma, vol, horizon * 10.0 ** rng.uniform(-3.0, 2.0), horizon))
    return draws


def test_exact1d_exits_refusal_exactly_where_the_rate_is_refused(capsys):
    codes = []
    for args in _exact1d_sweep():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *_exact1d_argv(args))
        codes.append(code)
        try:
            rate = certified_rate(Exact1dProblem(*args))
        except NoBoundaryHit as exc:
            assert (code, out, err) == (4, "", f"error: {exc}\n"), args
        else:
            assert (code, err) == (0, ""), args
            assert json.loads(out)["rate"] == rate, args
    assert set(codes) == {0, 4}


def test_exact1d_loads_no_ode_solver():
    code = (
        "import sys\n"
        "from gridcap.cli import main\n"
        "code = main(['exact1d', '--mu', '0.5', '--gamma', '0.5', '--vol', '1', '--tau', '0.3', '--T', '1'])\n"
        "print()\n"
        "print(code, 'scipy.integrate' in sys.modules, 'scipy.linalg' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True,
                         check=True).stdout
    assert out.splitlines()[-1].split() == ["0", "False", "True"]


@pytest.mark.parametrize("eps", [",", " , "])
def test_mc_empty_noise_scale_list_exits_usage(capsys, eps):
    with pytest.raises(SystemExit) as exc:
        main(["mc", "builtin:wheel3", "--eps", eps, "--n", "100", "--steps", "10"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "at least one noise scale" in err


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_non_finite_result_exits_invalid(capsys):
    # A huge thermal constant drives alpha to inf; the exporter refuses it.
    code, out, err = run(capsys, "rates", "builtin:wheel3", "--tau", "1e308", "--format", "csv")
    assert code == 2
    assert out == ""
    assert "non-finite" in err


def test_huge_tau_exits_without_warnings(capsys):
    # The overflow in pricing the threshold level is detected, not warned about.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "rates", "builtin:wheel3", "--tau", "1e308")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "non-finite" in err


def test_ill_conditioned_laplacian_exits_numeric(capsys, tmp_path):
    # Susceptances 1e10 and 1 in series give Bhat a condition number of
    # about 1e10, past the 1e9 cutoff.
    doc = {
        "format": "gridcap-network",
        "version": 1,
        "nodes": [
            {"id": "s", "role": "slack"},
            {"id": "b", "role": "stochastic", "gamma": 1, "vol": 1, "mean": 0.1},
            {"id": "c", "role": "stochastic", "gamma": 1, "vol": 1, "mean": 0.1},
        ],
        "lines": [
            {"from": "s", "to": "b", "susceptance": 1e10, "rating": 1, "tau": 0.5},
            {"from": "b", "to": "c", "susceptance": 1, "rating": 1, "tau": 0.5},
        ],
        "defaults": {"epsilon": 0.1, "p": 0.0001, "horizon": 1, "tau0": 0.5},
    }
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "rates", str(path))
    assert code == 4
    assert out == ""
    assert err.startswith("error:") and "singular" in err
    assert "Traceback" not in err


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "rates", "builtin:nope")
    assert code == 2
    assert "unknown builtin" in err


@pytest.mark.parametrize("argv", [["rates"], ["region", "--kind", "current"], ["mc"]])
def test_matpower_builtin_asks_for_convert(capsys, argv):
    code, out, err = run(capsys, argv[0], "builtin:case14", *argv[1:])
    assert code == 2
    assert out == ""
    assert _single_error_line(err)
    assert "builtin:case14 is a MATPOWER case" in err and "gridcap convert builtin:case14" in err


@pytest.mark.parametrize("name", ["single-line", "wheel3"])
def test_convert_refuses_native_builtins(capsys, name):
    code, out, err = run(capsys, "convert", f"builtin:{name}", "--K", "1.5", "--stochastic", "2")
    assert code == 2
    assert out == ""
    assert _single_error_line(err)
    assert f"builtin:{name} is a native network document, not a MATPOWER case" in err


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("vol", ["1e300", "1e-200"])
def test_vol_whose_square_is_unusable_exits_usage(capsys, tmp_path, strict, vol):
    # vol^2 overflows to inf or underflows to 0: mc reported 0 hits where the probability is about 1.
    # convert refuses such a vol itself, so the document is edited after a conversion at vol 1
    code, out, _ = run(capsys, "convert", "builtin:case14", "--K", "1.5", "--stochastic", "2,3",
                       "--controllable", "6,9", "--vol", "1", "--zero-flow-rating", "0.1", "--epsilon", "1e-3",
                       "--horizon", "1", "--p", "0.1")
    assert code == 0
    doc = json.loads(out)
    for node in doc["nodes"]:
        if node["role"] == "stochastic":
            node["vol"] = float(vol)
    path = tmp_path / "case14.json"
    path.write_text(json.dumps(doc))
    for argv in (["mc", str(path), "--n", "200"], ["rates", str(path)]):
        code, out, err = _run_maybe_strict(capsys, strict, argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: vol = {float(vol)!r} is out of range: its square is 0 or not finite"]


@pytest.mark.parametrize("vol", ["1e300", "1e-200"])
def test_convert_refuses_unusable_vol_without_warnings(capsys, vol):
    # the refusal of `test_convert_refuses_what_its_parser_would_refuse`, under -W error
    argv = ["convert", "builtin:case14", "--K", "1.5", "--stochastic", "2,3", "--controllable", "6,9",
            "--vol", vol, "--zero-flow-rating", "0.1"]
    code, out, err = _run_maybe_strict(capsys, True, argv)
    assert (code, out) == (2, "")
    # the case file's ignored fields are reported first
    assert [line for line in err.splitlines() if not line.startswith("warning: ignored field")] == [
        f"error: vol = {float(vol)!r} is out of range: its square is 0 or not finite"
    ]


def test_first_order_rate_overflow_is_a_note(capsys, tmp_path):
    # (1 + 2 tau0 gamma) times the current rate overflows at gamma 1e300: the
    # exporter refused the inf with exit 2, naming neither the rate nor the setting
    code, out, _ = run(capsys, "convert", "builtin:case14", "--K", "1.5", "--stochastic", "2,3",
                       "--controllable", "6,9", "--gamma", "1e300", "--zero-flow-rating", "0.1",
                       "--epsilon", "0.01", "--p", "0.0001", "--horizon", "1", "--tau0", "0.5")
    assert code == 0
    path = tmp_path / "case14.json"
    path.write_text(out)
    code, out, err = run(capsys, "rates", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["taylor_rate"] is None
    assert report["taylor_note"] == ("first-order rate overflows: (1 + 2 tau0 gamma) = 1e+300 times "
                                     "the current rate 6.63521e+298")
    assert report["tau0"] == 0.5
    assert (report["current_rate"], report["lb_rate"]) == (6.635205572563586e+298, 8.438232895095107e+298)


def _edited_wheel3(tmp_path, edit):
    """Path of a copy of builtin wheel3 whose parsed document `edit` has changed in place."""
    doc = json.loads(resources.files("gridcap").joinpath("data", "wheel3.json").read_text())
    edit(doc)
    path = tmp_path / "wheel3-edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _set_line(index, **fields):
    return lambda doc: doc["lines"][index].update(fields)


def test_subnormal_rating_exits_numeric_without_warnings(capsys, tmp_path):
    # the rating 1e-320 overflows its line's normalized currents to inf
    path = _edited_wheel3(tmp_path, _set_line(0, rating=1e-320))
    code, out, err = _run_maybe_strict(capsys, True, ["rates", path])
    assert code == 4
    assert out == ""
    assert _single_error_line(err)
    assert "line 1–2 has non-finite normalized currents" in err


MC_QUICK = ["--n", "100", "--steps", "10"]
EVERY_COMMAND = [["rates"], *(["region", "--kind", kind] for kind in REGION_KINDS), ["mc", *MC_QUICK]]
COMMAND_IDS = ["rates", *REGION_KINDS, "mc"]


def _assert_refused(code, out, err, expected_code, message):
    assert (code, out) == (expected_code, "")
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command", EVERY_COMMAND, ids=COMMAND_IDS)
def test_tiny_rating_on_a_loaded_line_exits_infeasible_start(capsys, tmp_path, command):
    # line 1-2 carries flow 0.3; at rating 1e-12 the start already overloads it
    path = _edited_wheel3(tmp_path, _set_line(0, rating=1e-12))
    code, out, err = _run_maybe_strict(capsys, True, [command[0], path, *command[1:]])
    _assert_refused(code, out, err, 2, "initial normalized current reaches 3e+11 >= 1")


def test_tiny_rating_on_an_unloaded_line_is_answered(capsys, tmp_path):
    # line 2-3 carries no base flow, so rating 1e-12 leaves the start feasible:
    # C's rows then differ in scale by 1e12, and that line binds every answer
    path = _edited_wheel3(tmp_path, _set_line(2, rating=1e-12))
    code, out, err = _run_maybe_strict(capsys, True, ["rates", path])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["current_argmin"] == [2]
    assert np.isclose(report["current_rate"], 5.2043e-24, rtol=1e-4)
    code, out, err = _run_maybe_strict(capsys, True, ["region", path, "--kind", "current"])
    _assert_refused(code, out, err, 3, "capacity bound collapsed on line 2–3")
    code, out, err = _run_maybe_strict(capsys, True, ["mc", path, *MC_QUICK])
    assert (code, err) == (0, "")
    assert json.loads(out)["estimates"][0]["p_hat"] == 1


@pytest.mark.parametrize("command", EVERY_COMMAND, ids=COMMAND_IDS)
def test_overflowing_susceptance_exits_singular_without_warnings(capsys, tmp_path, command):
    # 2 Bhat_jj overflows in ||Bhat||_1; the inf fails the kappa_1 test
    path = _edited_wheel3(tmp_path, _set_line(2, susceptance=1.797e308))
    code, out, err = _run_maybe_strict(capsys, True, [command[0], path, *command[1:]])
    _assert_refused(code, out, err, 4,
                    "grounded Laplacian is singular; graph disconnected or susceptances degenerate")


def _subnormal_horizon(doc):
    doc["defaults"]["horizon"] = 5e-324


def _huge_ratings(doc):
    for line in doc["lines"]:
        line["rating"] = 1e200


@pytest.mark.parametrize("edit", [_subnormal_horizon, _huge_ratings])
def test_underflowing_line_variance_exits_usage_without_warnings(capsys, tmp_path, edit):
    # every stochastic line's variance underflows to 0, so its rate divides by 0
    code, out, err = _run_maybe_strict(capsys, True, ["rates", _edited_wheel3(tmp_path, edit)])
    _assert_refused(code, out, err, 2, "overload level too far out: its decay rate is non-finite")


def _tiny_horizon(doc):
    doc["defaults"]["horizon"] = 1e-310


@pytest.mark.parametrize("edit", [_subnormal_horizon, _tiny_horizon])
def test_partition_with_underflowing_line_variance_exits_usage_without_warnings(capsys, tmp_path, edit):
    # every line's largest rate 1 / sigma^2 is inf: the partition refuses as `rates` does instead of labelling ties
    argv = ["region", _edited_wheel3(tmp_path, edit), "--kind", "current", "--slice", "2,3", "--bbox=-2,2,-2,2",
            "--partition"]
    code, out, err = _run_maybe_strict(capsys, True, argv)
    _assert_refused(code, out, err, 2, "overload level too far out: its decay rate is non-finite")
    code, out, err = _run_maybe_strict(capsys, True, ["rates", argv[1]])
    _assert_refused(code, out, err, 2, "overload level too far out: its decay rate is non-finite")


@pytest.mark.parametrize("kind", ["current", "temperature"])
def test_mc_subnormal_horizon_has_no_hits_without_warnings(capsys, tmp_path, kind):
    # dt = 0: the thermal weights take their exact limits (1, 0, 0)
    path = _edited_wheel3(tmp_path, _subnormal_horizon)
    code, out, err = _run_maybe_strict(capsys, True, ["mc", path, "--kind", kind, *MC_QUICK])
    assert (code, err) == (0, "")
    assert json.loads(out)["estimates"][0]["hits"] == 0


def _huge_gamma(doc):
    doc["nodes"][1]["gamma"] = 1.797e308


@pytest.mark.parametrize("kind", ["current", "temperature"])
def test_mc_huge_gamma_takes_the_exact_limit_without_warnings(capsys, tmp_path, kind):
    # 2 gamma overflows: node 2 reverts at once, with step decay 0 and variance 0
    path = _edited_wheel3(tmp_path, _huge_gamma)
    code, out, err = _run_maybe_strict(capsys, True, ["mc", path, "--kind", kind, *MC_QUICK])
    assert (code, err) == (0, "")
    assert json.loads(out)["estimates"][0]["replicates"] == 100


def _overflowing_noise_variance(doc):
    for node in doc["nodes"][1:]:
        node["vol"] = 1e100
    doc["defaults"]["epsilon"] = 1e200


@pytest.mark.parametrize("kind", ["current", "temperature"])
def test_mc_overflowing_noise_variance_hits_every_replicate_without_warnings(capsys, tmp_path, kind):
    # eps vol^2 overflows, but the step deviation sqrt(eps) vol sqrt(rise / 2 gamma) ~ 3e199 is finite
    path = _edited_wheel3(tmp_path, _overflowing_noise_variance)
    code, out, err = _run_maybe_strict(capsys, True, ["mc", path, "--kind", kind, *MC_QUICK])
    assert (code, err) == (0, "")
    estimate = json.loads(out)["estimates"][0]
    assert estimate["hits"] == estimate["replicates"] == 100


def _huge_epsilon(doc):
    doc["defaults"]["epsilon"] = 1.797e308


@pytest.mark.parametrize("kind", REGION_KINDS)
def test_region_huge_epsilon_is_answered_without_warnings(capsys, tmp_path, kind):
    # eps log(1/p) overflows; the noisy kinds collapse on the first line, the deterministic one keeps r = 1
    path = _edited_wheel3(tmp_path, _huge_epsilon)
    code, out, err = _run_maybe_strict(capsys, True, ["region", path, "--kind", kind])
    if kind == "deterministic":
        assert (code, err) == (0, "")
        assert json.loads(out)["bounds"] == [1, 1, 1]
    else:
        _assert_refused(code, out, err, 3, "capacity bound collapsed on line 1–2")


CASE14_ARGS = ["--K", "1.5", "--controllable", "6,9", "--gamma", "1", "--vol", "10", "--tau", "0.5",
               "--epsilon", "0.0004", "--p", "0.0001", "--horizon", "1", "--tau0", "0.5"]


def _reversed_case14(capsys, tmp_path, rating=None):
    """Converted case14 (stochastic buses 2 and 3) with its lines listed in reverse.

    So a line's position in the document is not its internal index. `rating`
    maps a line's (from, to) to a rating that replaces its own.
    """
    code, out, _ = run(capsys, "convert", "builtin:case14", "--stochastic", "2,3", "--zero-flow-rating", "1",
                       *CASE14_ARGS)
    assert code == 0
    doc = json.loads(out)
    doc["lines"].reverse()
    for line in doc["lines"]:
        line["rating"] = (rating or {}).get((line["from"], line["to"]), line["rating"])
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(doc))
    return path


def test_zero_base_flow_names_the_branch_by_its_buses(capsys):
    # stochastic buses 10 and 4 reorder the nodes, so the zero-flow branch
    # 7-8 (the case's 14th) has another internal index
    code, out, err = run(capsys, "convert", "builtin:case14", "--stochastic", "10,4", *CASE14_ARGS)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: zero base flow on line 7–8"


def test_bound_collapse_names_the_line_by_its_buses(capsys, tmp_path):
    path = _reversed_case14(capsys, tmp_path)
    bm = build_model(parse_native(path.read_text()))
    with pytest.raises(BoundCollapse) as info:
        build_region(bm.ctx, "current", 1e-3, 1e-4)
    ell = info.value.line
    a, b = bm.line_terminals[ell]
    assert (bm.document.lines[ell].from_id, bm.document.lines[ell].to_id) != (a, b)
    code, out, err = run(capsys, "region", str(path), "--kind", "current", "--epsilon", "1e-3")
    assert (code, out) == (3, "")
    assert err == f"error: capacity bound collapsed on line {a}–{b}\n"


def test_empty_slice_names_the_line_by_its_buses(capsys, tmp_path):
    # the box 0.5..0.6 in buses 2 and 3 lies outside the deterministic region
    path = _reversed_case14(capsys, tmp_path)
    bm = build_model(parse_native(path.read_text()))
    fixed = np.concatenate([bm.ou.mean, bm.op.mu_D])
    region = build_region(bm.ctx, "deterministic", 4e-4, 1e-4)
    with pytest.raises(EmptySlice) as info:
        slice2d(region, bm.flow, (1, 2), fixed, (0.5, 0.6, 0.5, 0.6))
    ell = info.value.line
    a, b = bm.line_terminals[ell]
    assert (bm.document.lines[ell].from_id, bm.document.lines[ell].to_id) != (a, b)
    args = ["region", str(path), "--kind", "deterministic", "--slice", "2,3", "--bbox=0.5,0.6,0.5,0.6"]
    code, out, err = run(capsys, *args)
    assert (code, out) == (3, "")
    assert err == f"error: slice became empty while clipping line {a}–{b}\n"
    # a partition with no cell inside names no line
    code, out, err = run(capsys, *args, "--partition", "--resolution", "20")
    assert (code, out) == (3, "")
    assert err == "error: no grid cell lies inside the deterministic slice\n"


def test_non_finite_row_names_the_line_by_its_buses(capsys, tmp_path):
    # line 4-5 is at position 13 of the reversed list and is internal line 6
    path = _reversed_case14(capsys, tmp_path, rating={(4, 5): 1e-320})
    code, out, err = run(capsys, "rates", str(path))
    assert (code, out) == (4, "")
    assert _single_error_line(err)
    assert err.startswith("error: line 4–5 has non-finite normalized currents")


def test_zero_variance_line_names_the_line_by_its_buses(capsys, tmp_path, monkeypatch):
    # No command prices an excluded line, so the report is replaced by psi on
    # one: case14's line 7-8 does not feel the stochastic buses 2 and 3.
    path = _reversed_case14(capsys, tmp_path)

    def psi_on_excluded_line(ctx, tau0=None):
        return psi(ctx, min(set(range(ctx.flow.line_count)) - set(ctx.stochastic_lines)), 1.0)

    monkeypatch.setattr(cli, "full_report", psi_on_excluded_line)
    code, out, err = run(capsys, "rates", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 7–8 has zero terminal current variance\n"


def test_missing_file(capsys):
    code, _, err = run(capsys, "rates", "/no/such/file.json")
    assert code == 2


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _single_error_line(err):
    return err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_directory_input_exits_invalid(capsys, tmp_path):
    code, out, err = run(capsys, "rates", str(tmp_path))
    assert code == 2
    assert out == ""
    assert _single_error_line(err)


def test_unwritable_output_exits_invalid(capsys, tmp_path):
    code, out, err = run(capsys, "rates", "builtin:wheel3", "--output", str(tmp_path))
    assert code == 2
    assert out == ""
    assert _single_error_line(err)


@pytest.mark.parametrize("seed, expected", [(2**64, 2), (2**64 - 1, 0)])
def test_mc_seed_range(capsys, seed, expected):
    code, out, err = run(capsys, "mc", "builtin:wheel3", "--seed", str(seed), "--n", "10", "--steps", "5")
    assert code == expected
    if expected == 0:
        assert json.loads(out)["seed"] == seed
    else:
        assert out == ""
        assert _single_error_line(err) and "seed" in err


EXIT_CODES = {
    2: {"InvalidInput", "SchemaError", "RoleError", "GraphError", "ParseError", "ZeroBaseFlow", "InfeasibleStart",
        "NonPositiveTau", "NonUniformGamma", "NonUniformTau", "ZeroVarianceLine"},
    3: {"EmptyResult", "EmptySlice", "NoStochasticLines", "InsufficientHits", "BoundCollapse"},
    4: {"NumericalFailure", "NoBoundaryHit", "SingularReducedLaplacian", "RankDeficiency"},
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_carries_its_exit_code():
    # A new error class must be placed in this table, under the code the CLI returns for it.
    expected = {name: code for code, names in EXIT_CODES.items() for name in names}
    found = {cls.__name__: getattr(cls, "exit_code", None) for cls in _subclasses(GridCapError)}
    assert found == expected


def test_region_validates_p_for_every_kind(capsys):
    code, out, err = run(capsys, "region", "builtin:wheel3", "--kind", "deterministic", "--p", "5", "--epsilon", "0")
    assert code == 2
    assert out == ""
    assert _single_error_line(err)


@pytest.mark.parametrize("option, value", [("--epsilon", "0"), ("--p", "5")])
def test_region_partition_validates_epsilon_and_p(capsys, option, value):
    # the partition builds no --kind region, yet its epsilon and p are checked as the region's are
    argv = ["region", "builtin:wheel3", "--kind", "current", "--epsilon", "0.1", "--p", "1e-4", option, value,
            "--slice", "2,3", "--bbox=-1,1,-1,1", "--partition", "--resolution", "4"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert _single_error_line(err)


def test_deeply_nested_json_exits_invalid(capsys, tmp_path):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "rates", str(doc))
    assert code == 2
    assert out == ""
    assert _single_error_line(err)


def _wheel3_without_defaults(tmp_path):
    return _edited_wheel3(tmp_path, lambda doc: doc.pop("defaults"))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rates", "{doc}", "--horizon", "1"], "epsilon not given and absent from document defaults"),
        (["rates", "{doc}", "--epsilon", "0.1"], "horizon not given and absent from document defaults"),
        (["region", "{doc}", "--kind", "current", "--p", "1e-4", "--horizon", "1"],
         "--epsilon not given and absent from document defaults"),
        (["region", "{doc}", "--kind", "current", "--epsilon", "0.1", "--horizon", "1"],
         "--p not given and absent from document defaults"),
        (["region", "{doc}", "--kind", "current", "--epsilon", "0.1", "--p", "1e-4"],
         "horizon not given and absent from document defaults"),
        (["mc", "{doc}", "--horizon", "1", "--n", "10", "--steps", "5"], "--eps not given and absent from document defaults"),
    ],
)
def test_missing_parameter_without_document_defaults_exits_usage(capsys, tmp_path, argv, message):
    doc = _wheel3_without_defaults(tmp_path)
    code, out, err = run(capsys, *(doc if a == "{doc}" else a for a in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "axes, message",
    [
        ("2", "--slice takes exactly two node ids, e.g. --slice 6,9"),
        ("2,9", "unknown node id 9"),
        ("1,2", "node 1 is the slack and cannot be a slice axis"),
    ],
)
@pytest.mark.parametrize("partition", [(), ("--partition",)])
def test_bad_slice_axes_exit_usage(capsys, axes, message, partition):
    argv = ["region", "builtin:wheel3", "--kind", "current", "--slice", axes, "--bbox=-1,1,-1,1", *partition]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _wheel3_with_ids(tmp_path, ids):
    """wheel3 with its nodes 1, 2, 3 renamed to `ids`, in lines too."""
    rename = dict(zip((1, 2, 3), ids))

    def edit(doc):
        for node in doc["nodes"]:
            node["id"] = rename[node["id"]]
        for line in doc["lines"]:
            line["from"], line["to"] = rename[line["from"]], rename[line["to"]]

    return _edited_wheel3(tmp_path, edit)


@pytest.mark.parametrize("partition", [(), ("--partition", "--resolution", "8")])
def test_slice_names_numeric_looking_string_ids(capsys, tmp_path, partition):
    argv = ["--kind", "current", "--slice", "2,3", "--bbox=-2,2,-2,2", *partition]
    code, out, err = run(capsys, "region", _wheel3_with_ids(tmp_path, ("1", "2", "3")), *argv)
    assert (code, err) == (0, "")
    # the same slice as builtin:wheel3's, with its line ends named by the string ids
    expected = json.loads(run(capsys, "region", "builtin:wheel3", *argv)[1])
    for region in expected.get("regions", ()):
        region["terminals"] = [[str(a), str(b)] for a, b in region["terminals"]]
    assert json.loads(out) == expected


def test_slice_token_naming_a_string_and_an_integer_id_exits_usage(capsys, tmp_path):
    doc = _wheel3_with_ids(tmp_path, (1, 2, "2"))
    code, out, err = run(capsys, "region", doc, "--kind", "current", "--slice", "2,3", "--bbox=-2,2,-2,2")
    assert (code, out, err) == (2, "", "error: --slice 2 is ambiguous: the document has node ids '2' and 2\n")


def test_rates_negative_tau_exits_usage(capsys):
    code, out, err = run(capsys, "rates", "builtin:wheel3", "--tau", "-1")
    assert (code, out, err) == (2, "", "error: --tau must be non-negative\n")


@pytest.mark.parametrize(
    "bus, message",
    [
        ("1e400", "line 7, column 1: '1e400' is not a finite number"),
        ("nan", "line 7, column 1: 'nan' is not a finite number"),
        ("3.5", "line 7, column 1: '3.5' is not an integer"),
    ],
)
def test_convert_refuses_bad_bus_ids(capsys, tmp_path, bus, message):
    # int() of these ids raised OverflowError, raised ValueError with no
    # location, or truncated to an existing bus; each must exit 2 at its token
    path = tmp_path / "case3.m"
    path.write_text(TINY_CASE.replace("  2 1 30", f"  {bus} 1 30", 1))
    code, out, err = run(capsys, "convert", str(path), "--K", "1.5", "--stochastic", "2")
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {message}\n") and "Traceback" not in err


@pytest.mark.parametrize(
    "branch, message",
    [
        ("3 2", "line 17: branch 3-2 parallels branch 2-3 on line 16"),
        ("3 3", "line 17: branch 3-3 joins bus 3 to itself"),
    ],
    ids=["parallel", "self_loop"],
)
def test_convert_refuses_parallel_branch_and_self_loop(capsys, tmp_path, branch, message):
    # Refused by the case parser at the branch's case-file line with bus ids,
    # not by the network check in internal node indices
    last = "  2 3 0.01 0.07 0 0 0 0 0 0 1 -360 360;\n"
    path = tmp_path / "case3.m"
    path.write_text(TINY_CASE.replace(last, f"{last}  {branch} 0.01 0.08 0 0 0 0 0 0 1 -360 360;\n", 1))
    code, out, err = run(capsys, "convert", str(path), "--K", "1.5", "--stochastic", "2")
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {message}\n") and "Traceback" not in err
