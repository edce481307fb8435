"""End-to-end command-line behavior, run in process."""

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
from gridcap.cli import main
from gridcap.errors import GridCapError
from gridcap.io_formats import parse_native
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
    # 800-step level does), so the rate is refused and no shot is integrated.
    code, _, err = run(
        capsys,
        "exact1d",
        "--mu", "0.1", "--gamma", "0.1", "--vol", "1", "--tau", "1e4", "--T", "1e-3",
    )
    assert code == 4
    assert "no certified optimum of the problem discretized on 400 steps" in err


def test_exact1d_large_lag_ratio_exits_without_warnings():
    # At T/tau = 700 the weights of the discretized problem span e^700 and
    # underflow; the certified start must neither warn nor overflow.
    argv = ["--mu", "0.5", "--gamma", "0.5", "--vol", "1", "--tau", "0.0014285714", "--T", "1"]
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "gridcap", "exact1d", *argv],
                          env=_subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert np.isclose(json.loads(proc.stdout)["rate"], 0.198135618, rtol=1e-8)


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


def test_case14_rates_independent_of_blas_threads(capsys, tmp_path):
    # The 13 non-slack buses are inverted in one LAPACK block, and the report's
    # products are small, so OpenBLAS's thread count does not reach the bytes.
    # A 1,000-bus grid's flow map differs in its last bits between 1 and 2
    # threads (README, Determinism).
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


def test_exact1d_overflowing_lag_exits_refusal_without_warnings():
    # T / tau overflows to inf in the discrete levels' lags; lag = 0 is the exact limit
    argv = ["exact1d", "--mu", "0.5", "--gamma", "0.5", "--vol", "1", "--tau", "0.5", "--T", "1e308"]
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "gridcap", *argv], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


@pytest.mark.parametrize("mu", ["1e-165", "1e-200", "5e-324"])
def test_exact1d_tiny_mean_exits_refusal(capsys, mu):
    # the secular Newton slope underflows to 0 at these means
    code, out, err = run(capsys, "exact1d", "--mu", mu, "--gamma", "0.5", "--vol", "1", "--tau", "0.5", "--T", "1")
    assert code == 4
    assert out == ""
    assert _single_error_line(err) and "no certified optimum" in err


def test_exact1d_wide_level_gap_exits_refusal():
    # gamma T = 1.3e4: the 400- and 800-step optima differ by 26 %, so the rate is refused, not extrapolated
    argv = ["exact1d", "--mu", "0.7704599936516205", "--gamma", "141.79158793113598", "--vol", "2699.5271719058974",
            "--tau", "0.2001630826045529", "--T", "91.79489154037428"]
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "gridcap", *argv], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: the certified optima on 400 ")
    assert "Traceback" not in proc.stderr


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
    doc = json.loads(resources.files("gridcap").joinpath("data", "wheel3.json").read_text())
    del doc["defaults"]
    path = tmp_path / "wheel3-bare.json"
    path.write_text(json.dumps(doc))
    return str(path)


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
    doc = json.loads(resources.files("gridcap").joinpath("data", "wheel3.json").read_text())
    rename = dict(zip((1, 2, 3), ids))
    for node in doc["nodes"]:
        node["id"] = rename[node["id"]]
    for line in doc["lines"]:
        line["from"], line["to"] = rename[line["from"]], rename[line["to"]]
    path = tmp_path / "wheel3-renamed.json"
    path.write_text(json.dumps(doc))
    return str(path)


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
