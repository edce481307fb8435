"""Serialization: native documents, grid case files, reports, and exports."""

import json

import numpy as np
import pytest
from importlib import resources

from conftest import wheel_context
from gridcap.errors import (
    GraphError,
    ParseError,
    RoleError,
    SchemaError,
    ZeroBaseFlow,
)
from gridcap.io_formats import (
    SCHEMA_FORMAT,
    SCHEMA_VERSION,
    AnalysisDefaults,
    apply_imax_rule,
    build_model,
    export_partition,
    export_region,
    export_report,
    export_slice,
    net_injections,
    parse_matpower,
    parse_native,
    region_from_json,
    resolve_auto_ratings,
    serialize_native,
)
from gridcap.ld_rates import full_report
from gridcap.region import build_region, risk_partition, slice2d

BOX = (-2.0, 2.0, -2.0, 2.0)

TINY_CASE = """
function mpc = case3
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0   0 0 0 1 1.0 0 135 1 1.1 0.9;
  2 1 30  0 0 0 1 1.0 0 135 1 1.1 0.9;
  3 1 50  0 0 0 1 1.0 0 135 1 1.1 0.9;
];
mpc.gen = [
  1 80 0 0 0 1.0 100 1 200 0;
];
mpc.branch = [
  1 2 0.01 0.05 0 0 0 0 0 0 1 -360 360;
  1 3 0.01 0.06 0 0 0 0 0 0 1 -360 360;
  2 3 0.01 0.07 0 0 0 0 0 0 1 -360 360;
];
"""

DEFAULTS = AnalysisDefaults(epsilon=0.25, p=1e-4, horizon=1.0, tau0=0.5)


def _data(name):
    return resources.files("gridcap").joinpath("data", name).read_text()


# ---------------------------------------------------------------------------
# native format


def test_builtin_documents_parse():
    for name in ("wheel3.json", "single_line.json"):
        doc = parse_native(_data(name))
        assert doc.version == SCHEMA_VERSION
        assert len(doc.stochastic_ids) >= 1


def test_serialize_parse_round_trip_identity():
    doc = parse_native(_data("wheel3.json"))
    text = serialize_native(doc)
    doc2 = parse_native(text)
    assert doc2 == doc
    assert serialize_native(doc2) == text  # canonical form is a fixed point


def test_round_trip_preserves_float_bits():
    src = _data("wheel3.json").replace('"mean": 0.3', '"mean": 0.1000000000000000056')
    doc = parse_native(src)
    text = serialize_native(doc)
    assert parse_native(text).nodes[1].mean == doc.nodes[1].mean


def test_node_ordering_and_index():
    text = _data("wheel3.json").replace(
        '{"id": 3, "role": "stochastic", "gamma": 1, "vol": 1, "mean": 0.3}',
        '{"id": 3, "role": "deterministic", "injection": 0.2}',
    )
    doc = parse_native(text)
    assert doc.node_ids == (1, 2, 3)
    assert doc.slack_id == 1
    assert doc.stochastic_ids == (2,)
    assert doc.deterministic_ids == (3,)
    assert doc.index_of == {1: 0, 2: 1, 3: 2}
    built = build_model(doc)
    assert built.flow.m == 1
    assert np.allclose(built.op.mu_D, [0.2])


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda t: t.replace('"gridcap-network"', '"other"'), "$.format"),
        (lambda t: t.replace('"version": 1', '"version": 2'), "$.version"),
        (lambda t: t.replace('"role": "slack"', '"role": "boss"'), "$.nodes[0].role"),
        (
            lambda t: t.replace('"mean": 0.3}', '"mean": 0.3, "zzz": 1}', 1),
            "$.nodes[1].zzz",
        ),
        (
            lambda t: t.replace('{"id": 2', '{"id": 1', 1),
            "$.nodes[1].id",
        ),
        (
            lambda t: t.replace('"to": 3, "susceptance": 1, "rating": 1, "tau": 0.5}\n  ]', '"to": 9, "susceptance": 1, "rating": 1, "tau": 0.5}\n  ]'),
            "$.lines[2].to",
        ),
    ],
)
def test_schema_errors_carry_paths(mangle, fragment):
    with pytest.raises(SchemaError) as err:
        parse_native(mangle(_data("wheel3.json")))
    assert fragment in str(err.value)


def test_duplicate_line_rejected():
    text = _data("wheel3.json").replace(
        '{"from": 2, "to": 3, "susceptance": 1, "rating": 1, "tau": 0.5}',
        '{"from": 1, "to": 2, "susceptance": 1, "rating": 1, "tau": 0.5}',
    )
    with pytest.raises(SchemaError) as err:
        parse_native(text)
    assert "duplicate line" in str(err.value)


def test_exactly_one_slack_required():
    text = _data("wheel3.json").replace(
        '"role": "slack"', '"role": "stochastic", "gamma": 1, "vol": 1, "mean": 0'
    )
    with pytest.raises(RoleError):
        parse_native(text)


def test_disconnected_document_names_unreachable_ids():
    text = _data("wheel3.json").replace(
        '{"id": 3, "role": "stochastic", "gamma": 1, "vol": 1, "mean": 0.3}',
        '{"id": 3, "role": "stochastic", "gamma": 1, "vol": 1, "mean": 0.3},\n'
        '    {"id": "a", "role": "deterministic", "injection": 0.1},\n'
        '    {"id": 7, "role": "deterministic", "injection": -0.1}',
    ).replace(
        '{"from": 2, "to": 3, "susceptance": 1, "rating": 1, "tau": 0.5}',
        '{"from": 2, "to": 3, "susceptance": 1, "rating": 1, "tau": 0.5},\n'
        '    {"from": "a", "to": 7, "susceptance": 1, "rating": 1, "tau": 0.5}',
    )
    with pytest.raises(GraphError) as err:
        parse_native(text)
    assert "unreachable nodes ['a', 7]" in str(err.value)


def test_invalid_json_is_a_schema_error():
    with pytest.raises(SchemaError):
        parse_native("{not json")


def test_build_model_respects_overrides():
    doc = parse_native(_data("single_line.json"))
    built = build_model(doc, epsilon=0.37, horizon=2.5)
    assert built.ou.noise_scale == 0.37
    assert built.ou.horizon == 2.5
    default = build_model(doc)
    assert default.ou.noise_scale == doc.defaults.epsilon
    assert default.ou.horizon == doc.defaults.horizon


# ---------------------------------------------------------------------------
# grid case files


def test_bundled_case_parses():
    case = parse_matpower(_data("case14.m"))
    assert case.base_mva == 100.0
    assert len(case.buses) == 14
    assert len(case.gens) == 5
    assert len(case.branches) == 20
    assert any("gencost" in w for w in case.warnings)


def test_net_injections_per_unit():
    case = parse_matpower(_data("case14.m"))
    inj = net_injections(case)
    assert np.isclose(inj[1], 2.324)
    assert np.isclose(inj[2], 0.183)
    assert np.isclose(inj[3], -0.942)
    assert inj[8] == 0.0


def test_parser_survives_formatting_noise():
    noisy = TINY_CASE.replace(
        "mpc.baseMVA = 100;", "  mpc.baseMVA = 100 ; % base power\n\n"
    ).replace(
        "1 2 0.01 0.05 0 0 0 0 0 0 1 -360 360;",
        "\t1   2 0.01\t0.05 0 0 0 0 0 0 1 -360 360; % first line",
    )
    a = parse_matpower(TINY_CASE)
    b = parse_matpower(noisy)
    assert a.buses == b.buses
    assert a.gens == b.gens
    assert a.branches == b.branches


@pytest.mark.parametrize(
    "mangle, phrase",
    [
        (lambda t: t.replace("mpc.baseMVA = 100;\n", ""), "baseMVA"),
        (lambda t: t.replace("1 2 0.01 0.05", "1 2 0.01 0.0"), "reactance"),
        (lambda t: t.replace("2 1 30", "1 1 30"), "duplicate"),
        (lambda t: t.replace("2 3 0.01 0.07", "2 9 0.01 0.07"), "bus 9"),
        (lambda t: t.replace("1 80 0 0 0 1.0 100 1 200 0;", "7 80 0 0 0 1.0 100 1 200 0;"), "bus 7"),
    ],
)
def test_malformed_cases_raise_parse_errors(mangle, phrase):
    with pytest.raises(ParseError) as err:
        parse_matpower(mangle(TINY_CASE))
    assert phrase in str(err.value)


def test_parse_error_reports_location():
    bad = TINY_CASE.replace("1 2 0.01 0.05", "1 2 0.01 0.0")
    with pytest.raises(ParseError) as err:
        parse_matpower(bad)
    assert "line" in str(err.value)


# ---------------------------------------------------------------------------
# rating rule


def test_rating_rule_scales_base_flows():
    case = parse_matpower(TINY_CASE)
    doc = apply_imax_rule(case, 2.0, [2], [], 0.8, 1.0, 0.4, DEFAULTS)
    built = build_model(doc)
    assert np.allclose(np.abs(built.op.nu), 0.5, atol=1e-12)
    assert doc.stochastic_ids == (2,)
    text = serialize_native(doc)
    assert parse_native(text) == doc


def test_rating_rule_headroom_shrinks_with_k():
    case = parse_matpower(TINY_CASE)
    for K in (1.2, 1.5, 3.0):
        doc = apply_imax_rule(case, K, [2], [], 0.8, 1.0, 0.4, DEFAULTS)
        built = build_model(doc)
        assert np.allclose(np.abs(built.op.nu), 1.0 / K, atol=1e-12)


def test_zero_base_flow_needs_explicit_rating():
    # the synchronous-condenser leg of the bundled case carries no base flow
    case = parse_matpower(_data("case14.m"))
    with pytest.raises(ZeroBaseFlow):
        apply_imax_rule(case, 1.5, [2, 3], [6, 9], 1.0, 10.0, 0.5, DEFAULTS)
    doc = apply_imax_rule(
        case, 1.5, [2, 3], [6, 9], 1.0, 10.0, 0.5, DEFAULTS, zero_flow_rating=1.0
    )
    built = build_model(doc)
    nz = np.abs(built.op.nu) > 1e-9
    assert nz.sum() == 19
    assert np.allclose(np.abs(built.op.nu[nz]), 2.0 / 3.0, atol=1e-12)
    assert built.flow.m == 2
    assert doc.controllable_ids == (6, 9)


def test_rating_rule_role_checks():
    case = parse_matpower(TINY_CASE)
    with pytest.raises(RoleError):
        apply_imax_rule(case, 1.5, [9], [], 0.8, 1.0, 0.4, DEFAULTS)
    with pytest.raises(RoleError):
        apply_imax_rule(case, 1.5, [1], [], 0.8, 1.0, 0.4, DEFAULTS)
    no_slack = TINY_CASE.replace("1 3 0", "1 1 0")
    with pytest.raises(RoleError):
        apply_imax_rule(parse_matpower(no_slack), 1.5, [2], [], 0.8, 1.0, 0.4, DEFAULTS)


def test_resolve_auto_ratings_requires_headroom():
    case = parse_matpower(TINY_CASE)
    doc = apply_imax_rule(case, 2.0, [2], [], 0.8, 1.0, 0.4, DEFAULTS)
    with pytest.raises(ValueError):
        resolve_auto_ratings(doc, 1.0)


def test_build_model_refuses_unresolved_auto():
    text = _data("single_line.json").replace('"rating": 1', '"rating": "auto"')
    doc = parse_native(text)
    assert doc.has_auto_ratings()
    with pytest.raises(SchemaError):
        build_model(doc)


# ---------------------------------------------------------------------------
# report and geometry exports


def test_report_exports():
    ctx = wheel_context()
    rep = full_report(ctx)
    out = json.loads(export_report(rep))
    assert len(out["lines"]) == 3
    assert out["current_argmin"] == [0, 1]
    assert np.isclose(out["current_rate"], rep.current_rate, rtol=1e-15)
    csv = export_report(rep, "csv", line_terminals={0: (1, 2), 1: (1, 3), 2: (2, 3)})
    lines = csv.strip().split("\n")
    assert lines[0] == "line,from,to,psi_plus,psi_minus,alpha,psi_alpha,sigma2"
    assert len(lines) == 4
    assert lines[1].startswith("0,1,2,")
    with pytest.raises(ValueError):
        export_report(rep, "xml")


def test_region_export_round_trip_bit_exact():
    ctx = wheel_context()
    region = build_region(ctx, "temperature_lb", 0.1, 1e-4)
    text = export_region(region)
    back = region_from_json(text)
    assert export_region(back) == text
    assert np.array_equal(back.bounds, region.bounds)
    assert back.kind == region.kind
    assert back.tau0 == region.tau0
    csv = export_region(region, "csv").strip().split("\n")
    assert csv[0] == "line,bound"
    assert len(csv) == 4


def test_slice_export_closes_the_ring():
    ctx = wheel_context()
    det = build_region(ctx, "deterministic", 0.1, 1e-4)
    sl = slice2d(det, ctx.flow, (1, 2), np.zeros(2), BOX)
    out = json.loads(export_slice(sl))
    assert out["vertices"][0] == out["vertices"][-1]
    assert len(out["vertices"]) == len(sl.vertices) + 1
    assert np.isclose(out["area"], 9.0)
    rows = export_slice(sl, "csv").strip().split("\n")
    assert rows[0] == "u,v"
    assert len(rows) == len(sl.vertices) + 2
    assert rows[1] == rows[-1]


def test_partition_exports():
    ctx = wheel_context()
    part = risk_partition(ctx, (1, 2), np.zeros(2), BOX, resolution=20)
    out = json.loads(export_partition(part))
    assert out["central"] == list(part.central_label)
    assert out["resolution"] == 20
    assert [tuple(r["lines"]) for r in out["regions"]] == [s.label for s in part.summaries]
    ext = {0: (1, 2), 1: (1, 3), 2: (2, 3)}
    named = json.loads(export_partition(part, line_terminals=ext))
    assert named["regions"][0]["terminals"] == [list(ext[ell]) for ell in part.summaries[0].label]
    rows = export_partition(part, "csv").strip().split("\n")
    assert rows[0] == "i,j,u,v,label"
    assert len(rows) - 1 == int(np.count_nonzero(part.label_grid >= 0))
    assert any("+" in r.rsplit(",", 1)[1] for r in rows[1:])  # tie labels joined


def test_schema_constants():
    assert SCHEMA_FORMAT == "gridcap-network"
    assert SCHEMA_VERSION == 1
