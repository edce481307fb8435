"""End-to-end command-line behavior, run in process."""

import json
from importlib import resources

import numpy as np
import pytest

from gridcap.cli import main
from gridcap.io_formats import parse_native


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


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


def test_exact1d_unreachable_level(capsys):
    code, _, err = run(
        capsys,
        "exact1d",
        "--mu", "0.1", "--gamma", "0.1", "--vol", "1", "--tau", "10", "--T", "0.1",
    )
    assert code == 4
    assert "search box" in err


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


def test_convert_zero_flow_requires_flag(capsys):
    code, _, err = run(
        capsys,
        "convert", "builtin:case14", "--K", "1.5", "--stochastic", "2,3",
    )
    assert code == 2
    assert "zero base flow" in err


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


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_non_finite_result_exits_invalid(capsys):
    # A huge thermal constant drives alpha to inf; the exporter refuses it.
    code, out, err = run(capsys, "rates", "builtin:wheel3", "--tau", "1e308", "--format", "csv")
    assert code == 2
    assert out == ""
    assert "non-finite" in err


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
