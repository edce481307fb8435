"""Serialization: native documents, grid case files, reports, and exports."""

import copy
import csv
import dataclasses
import io
import json
import math
from collections import OrderedDict
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from importlib import resources

from conftest import random_network, wheel_context
from oracles import reference_json_text, reference_partition_csv
from gridcap import io_formats
from gridcap.errors import (
    EmptySlice,
    GraphError,
    NonUniformGamma,
    NonUniformTau,
    NoStochasticLines,
    ParseError,
    RoleError,
    SchemaError,
    ZeroBaseFlow,
)
from gridcap.exact1d import Exact1dProblem, exact_decay_rate
from gridcap.io_formats import (
    SCHEMA_FORMAT,
    SCHEMA_VERSION,
    AnalysisDefaults,
    LineSpec,
    NetworkDocument,
    NodeSpec,
    _json_text,
    apply_imax_rule,
    build_model,
    export_exact1d,
    export_mc,
    export_partition,
    export_region,
    export_report,
    export_slice,
    net_injections,
    parse_matpower,
    parse_native,
    resolve_auto_ratings,
    serialize_native,
)
from gridcap.ld_rates import DecayRateReport, full_report
from gridcap.montecarlo import McConfig, decay_slope
from gridcap.region import build_region, risk_partition, slice2d
from test_region import _case14_map

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


# One valid document with a node of each role; each case edits one field.
PARSE_BASE = {
    "format": "gridcap-network",
    "version": 1,
    "nodes": [
        {"id": 1, "role": "slack"},
        {"id": 2, "role": "stochastic", "gamma": 1, "vol": 1, "mean": 0.3},
        {"id": "d", "role": "deterministic", "injection": -0.2, "controllable": True},
    ],
    "lines": [
        {"from": 1, "to": 2, "susceptance": 1, "rating": 1, "tau": 0.5},
        {"from": 1, "to": "d", "susceptance": 1, "rating": "auto", "tau": 0.5},
        {"from": 2, "to": "d", "susceptance": 1, "rating": 1, "tau": 0.5},
    ],
    "defaults": {"epsilon": 0.1, "p": 0.0001, "horizon": 1, "tau0": 0.5},
}
DROP = object()
INF = float("inf")
NAN = float("nan")


def _edited(path, value):
    """PARSE_BASE as JSON text with the entry at `path` set to `value` (DROP deletes it)."""
    if not path:
        return json.dumps(value)
    doc = copy.deepcopy(PARSE_BASE)
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return json.dumps(doc)


def test_parse_base_is_valid():
    assert parse_native(json.dumps(PARSE_BASE)).stochastic_ids == (2,)


# The messages are pinned byte for byte: a reader matches on them.
PARSE_ERRORS = [
    ((), [], SchemaError, "$: expected an object"),
    (("zzz",), 1, SchemaError, "$.zzz: unknown key"),
    (("format",), "other", SchemaError, "$.format: expected 'gridcap-network'"),
    (("format",), DROP, SchemaError, "$.format: expected 'gridcap-network'"),
    (("version",), 2, SchemaError, "$.version: expected 1"),
    (("version",), "1", SchemaError, "$.version: expected 1"),
    (("nodes",), [], SchemaError, "$.nodes: expected a non-empty array"),
    (("nodes",), {}, SchemaError, "$.nodes: expected a non-empty array"),
    (("lines",), DROP, SchemaError, "$.lines: expected a non-empty array"),
    (("lines",), [], SchemaError, "$.lines: expected a non-empty array"),
    (("nodes", 1), 5, SchemaError, "$.nodes[1]: expected an object"),
    (("nodes", 1, "id"), DROP, SchemaError, "$.nodes[1]: missing id"),
    (("nodes", 1, "id"), 2.5, SchemaError, "$.nodes[1].id: id must be a string or integer"),
    (("nodes", 1, "id"), True, SchemaError, "$.nodes[1].id: id must be a string or integer"),
    (("nodes", 1, "id"), None, SchemaError, "$.nodes[1].id: id must be a string or integer"),
    (("nodes", 1, "id"), 1, SchemaError, "$.nodes[1].id: duplicate id 1"),
    (("nodes", 2, "id"), 2, SchemaError, "$.nodes[2].id: duplicate id 2"),
    (("nodes", 1, "role"), "boss", SchemaError, "$.nodes[1].role: role must be one of ('slack', 'stochastic', 'deterministic')"),
    (("nodes", 1, "role"), DROP, SchemaError, "$.nodes[1].role: role must be one of ('slack', 'stochastic', 'deterministic')"),
    (("nodes", 0, "gamma"), 1, SchemaError, "$.nodes[0].gamma: unknown key"),
    (("nodes", 1, "zzz"), 1, SchemaError, "$.nodes[1].zzz: unknown key"),
    (("nodes", 2, "zzz"), 1, SchemaError, "$.nodes[2].zzz: unknown key"),
    (("nodes", 1, "gamma"), DROP, SchemaError, "$.nodes[1]: missing gamma"),
    (("nodes", 1, "vol"), DROP, SchemaError, "$.nodes[1]: missing vol"),
    (("nodes", 1, "mean"), DROP, SchemaError, "$.nodes[1]: missing mean"),
    (("nodes", 1, "gamma"), "1", SchemaError, "$.nodes[1].gamma: expected a number"),
    (("nodes", 1, "gamma"), True, SchemaError, "$.nodes[1].gamma: expected a number"),
    (("nodes", 1, "gamma"), None, SchemaError, "$.nodes[1].gamma: expected a number"),
    (("nodes", 1, "gamma"), INF, SchemaError, "$.nodes[1].gamma: expected a finite number, got inf"),
    (("nodes", 1, "gamma"), NAN, SchemaError, "$.nodes[1].gamma: expected a finite number, got nan"),
    (("nodes", 1, "gamma"), 10**400, SchemaError, "$.nodes[1].gamma: expected a finite number, got inf"),
    (("nodes", 1, "gamma"), 0, SchemaError, "$.nodes[1].gamma: must be positive"),
    (("nodes", 1, "gamma"), -1.5, SchemaError, "$.nodes[1].gamma: must be positive"),
    (("nodes", 1, "vol"), [1], SchemaError, "$.nodes[1].vol: expected a number"),
    (("nodes", 1, "vol"), -INF, SchemaError, "$.nodes[1].vol: expected a finite number, got -inf"),
    (("nodes", 1, "vol"), 0.0, SchemaError, "$.nodes[1].vol: must be positive"),
    (("nodes", 1, "mean"), "x", SchemaError, "$.nodes[1].mean: expected a number"),
    (("nodes", 1, "mean"), NAN, SchemaError, "$.nodes[1].mean: expected a finite number, got nan"),
    (("nodes", 2, "injection"), DROP, SchemaError, "$.nodes[2]: missing injection"),
    (("nodes", 2, "injection"), "x", SchemaError, "$.nodes[2].injection: expected a number"),
    (("nodes", 2, "injection"), INF, SchemaError, "$.nodes[2].injection: expected a finite number, got inf"),
    (("nodes", 2, "controllable"), 1, SchemaError, "$.nodes[2].controllable: must be a boolean"),
    (("nodes", 2, "controllable"), "yes", SchemaError, "$.nodes[2].controllable: must be a boolean"),
    (("nodes", 0, "role"), "stochastic", SchemaError, "$.nodes[0]: missing gamma"),
    (("nodes", 1, "role"), "slack", SchemaError, "$.nodes[1].gamma: unknown key"),
    (("lines", 0), "x", SchemaError, "$.lines[0]: expected an object"),
    (("lines", 0, "zzz"), 1, SchemaError, "$.lines[0].zzz: unknown key"),
    (("lines", 0, "from"), DROP, SchemaError, "$.lines[0]: missing from"),
    (("lines", 0, "to"), DROP, SchemaError, "$.lines[0]: missing to"),
    (("lines", 0, "susceptance"), DROP, SchemaError, "$.lines[0]: missing susceptance"),
    (("lines", 0, "rating"), DROP, SchemaError, "$.lines[0]: missing rating"),
    (("lines", 0, "tau"), DROP, SchemaError, "$.lines[0]: missing tau"),
    (("lines", 0, "from"), 9, SchemaError, "$.lines[0].from: unknown node id 9"),
    (("lines", 1, "to"), "q", SchemaError, "$.lines[1].to: unknown node id 'q'"),
    (("lines", 0, "to"), 1, SchemaError, "$.lines[0]: self-loop"),
    (("lines", 2, "to"), 1, SchemaError, "$.lines[2]: duplicate line"),
    (("lines", 2, "from"), "d", SchemaError, "$.lines[2]: self-loop"),
    (("lines", 0, "susceptance"), "x", SchemaError, "$.lines[0].susceptance: expected a number"),
    (("lines", 0, "susceptance"), 0, SchemaError, "$.lines[0].susceptance: must be positive"),
    (("lines", 0, "susceptance"), -1, SchemaError, "$.lines[0].susceptance: must be positive"),
    (("lines", 0, "susceptance"), NAN, SchemaError, "$.lines[0].susceptance: expected a finite number, got nan"),
    (("lines", 0, "rating"), "x", SchemaError, "$.lines[0].rating: expected a number"),
    (("lines", 0, "rating"), 0, SchemaError, '$.lines[0].rating: must be positive or "auto"'),
    (("lines", 0, "rating"), INF, SchemaError, "$.lines[0].rating: expected a finite number, got inf"),
    (("lines", 0, "tau"), 0, SchemaError, "$.lines[0].tau: must be positive"),
    (("lines", 0, "tau"), False, SchemaError, "$.lines[0].tau: expected a number"),
    (("lines", 0, "tau"), 10**400, SchemaError, "$.lines[0].tau: expected a finite number, got inf"),
    (("defaults",), [], SchemaError, "$.defaults: expected an object"),
    (("defaults", "zzz"), 1, SchemaError, "$.defaults.zzz: unknown key"),
    (("defaults", "epsilon"), -1, SchemaError, "$.defaults.epsilon: must be non-negative"),
    (("defaults", "epsilon"), "x", SchemaError, "$.defaults.epsilon: expected a number"),
    (("defaults", "epsilon"), INF, SchemaError, "$.defaults.epsilon: expected a finite number, got inf"),
    (("defaults", "p"), 0, SchemaError, "$.defaults.p: must lie strictly between 0 and 1"),
    (("defaults", "p"), 1, SchemaError, "$.defaults.p: must lie strictly between 0 and 1"),
    (("defaults", "p"), None, SchemaError, "$.defaults.p: expected a number"),
    (("defaults", "horizon"), 0, SchemaError, "$.defaults.horizon: must be positive"),
    (("defaults", "horizon"), NAN, SchemaError, "$.defaults.horizon: expected a finite number, got nan"),
    (("defaults", "tau0"), -0.5, SchemaError, "$.defaults.tau0: must be non-negative"),
    (("defaults", "tau0"), True, SchemaError, "$.defaults.tau0: expected a number"),
    (("lines",), [{"from": 1, "to": 2, "susceptance": 1, "rating": 1, "tau": 0.5}], GraphError, "network is disconnected; unreachable nodes ['d']"),
    (("nodes", 1), {"id": 2, "role": "slack"}, RoleError, "expected exactly one slack node, found 2"),
    (("nodes", 1), {"id": 2, "role": "deterministic", "injection": 0.1}, RoleError, "at least one stochastic node is required"),
    (("lines", 0, "from"), [2], SchemaError, "$.lines[0].from: id must be a string or integer"),
    (("lines", 0, "from"), {"id": 2}, SchemaError, "$.lines[0].from: id must be a string or integer"),
    (("lines", 0, "from"), True, SchemaError, "$.lines[0].from: id must be a string or integer"),
    (("lines", 0, "from"), 1.0, SchemaError, "$.lines[0].from: id must be a string or integer"),
    (("lines", 1, "to"), None, SchemaError, "$.lines[1].to: id must be a string or integer"),
]


@pytest.mark.parametrize("path, value, error, message", PARSE_ERRORS)
def test_parse_error_messages(path, value, error, message):
    with pytest.raises(error) as err:
        parse_native(_edited(path, value))
    assert type(err.value) is error
    assert str(err.value) == message


# Valid documents as JSON values: int literals (some above 2**53) beside floats,
# int and str ids, optional controllable flags and defaults, rows in any order.
_IDS = st.one_of(st.integers(-2**64, 2**64), st.text(max_size=4))
_POSITIVE = st.one_of(st.floats(min_value=5e-324, allow_infinity=False), st.integers(1, 2**80))
_REAL = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-2**80, 2**80))
_NON_NEGATIVE = st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.integers(0, 2**80))
_DEFAULTS = st.fixed_dictionaries({}, optional={
    "epsilon": _NON_NEGATIVE,
    "p": st.floats(min_value=5e-324, max_value=1.0, exclude_max=True),
    "horizon": _POSITIVE,
    "tau0": _NON_NEGATIVE,
})


@st.composite
def _valid_documents(draw):
    n = draw(st.integers(2, 7))
    ids = draw(st.lists(_IDS, min_size=n, max_size=n, unique=True))
    roles = draw(st.lists(st.sampled_from(["stochastic", "deterministic"]), min_size=n, max_size=n))
    roles[draw(st.integers(1, n - 1))] = "stochastic"
    roles[0] = "slack"
    nodes = []
    for nid, role in zip(ids, roles):
        entry = {"id": nid, "role": role}
        if role == "stochastic":
            entry.update(gamma=draw(_POSITIVE), vol=draw(_POSITIVE), mean=draw(_REAL))
        elif role == "deterministic":
            entry["injection"] = draw(_REAL)
            flag = draw(st.sampled_from([None, True, False]))
            if flag is not None:
                entry["controllable"] = flag
        nodes.append(entry)
    # a spanning tree, then chords
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    pairs |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda ij: ij[0] < ij[1]), max_size=n)))
    lines = []
    for i, j in sorted(pairs):
        if draw(st.booleans()):
            i, j = j, i
        rating = draw(st.one_of(_POSITIVE, st.just("auto")))
        lines.append({"from": ids[i], "to": ids[j], "susceptance": draw(_POSITIVE), "rating": rating,
                      "tau": draw(_POSITIVE)})
    doc = {
        "format": "gridcap-network",
        "version": 1,
        "nodes": draw(st.permutations(nodes)),
        "lines": draw(st.permutations(lines)),
    }
    defaults = draw(st.one_of(st.none(), _DEFAULTS))
    if defaults is not None:
        doc["defaults"] = defaults
    return doc


def _numeric_paths(raw):
    """Path of every numeric field in a document's JSON value."""
    paths = []
    for k, entry in enumerate(raw["nodes"]):
        paths += [("nodes", k, field) for field in ("gamma", "vol", "mean", "injection") if field in entry]
    for k in range(len(raw["lines"])):
        paths += [("lines", k, field) for field in ("susceptance", "rating", "tau")]
    return paths + [("defaults", name) for name in raw.get("defaults", {})]


def _field(doc, path):
    """The parsed value at a JSON path of `_numeric_paths`."""
    if path[0] == "defaults":
        return getattr(doc.defaults, path[1])
    return getattr((doc.nodes if path[0] == "nodes" else doc.lines)[path[1]], path[2])


@settings(derandomize=True, max_examples=150)
@given(_valid_documents())
def test_parser_reads_valid_documents_and_round_trips_them(raw):
    doc = parse_native(json.dumps(raw))
    assert parse_native(serialize_native(doc)) == doc
    assert [n.id for n in doc.nodes] == [entry["id"] for entry in raw["nodes"]]
    assert [n.controllable for n in doc.nodes] == [entry.get("controllable", False) for entry in raw["nodes"]]
    assert [(ln.from_id, ln.to_id) for ln in doc.lines] == [(entry["from"], entry["to"]) for entry in raw["lines"]]
    for path in _numeric_paths(raw):
        value = raw[path[0]][path[1]] if len(path) == 2 else raw[path[0]][path[1]][path[2]]
        expected = value if value == "auto" else float(value)
        assert _field(doc, path) == expected and type(_field(doc, path)) is type(expected)


# One-field mutations: the literal written, and the message it draws ("$.<path>: " in front);
# None where the value is read, as float(value).
MUTATIONS = [
    ("true", "expected a number"),
    ("false", "expected a number"),
    ('"1.5"', "expected a number"),
    ("NaN", "expected a finite number, got nan"),
    ("Infinity", "expected a finite number, got inf"),
    ("-Infinity", "expected a finite number, got -inf"),
    ("1e999", "expected a finite number, got inf"),
    ("-1e999", "expected a finite number, got -inf"),
    (str(2**63), None),
]


def _mutation_message(path, message):
    if message is None and path[-1] == "p":
        message = "must lie strictly between 0 and 1"
    if message is None:
        return None
    where = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)
    return f"${where}: {message}"


@settings(derandomize=True, max_examples=40)
@given(_valid_documents())
def test_parser_refuses_one_field_mutations_with_their_messages(raw):
    for path in _numeric_paths(raw):
        target = raw[path[0]] if len(path) == 2 else raw[path[0]][path[1]]
        value = target[path[-1]]
        target[path[-1]] = "@MUTATED@"
        template = json.dumps(raw)
        target[path[-1]] = value
        for literal, message in MUTATIONS:
            text = template.replace('"@MUTATED@"', literal)
            expected = _mutation_message(path, message)
            if expected is None:
                read = _field(parse_native(text), path)
                assert read == float(json.loads(literal)) and type(read) is float
                continue
            with pytest.raises(SchemaError) as err:
                parse_native(text)
            assert type(err.value) is SchemaError
            assert str(err.value) == expected


SETTINGS = tuple(f.name for f in dataclasses.fields(AnalysisDefaults))
# Every $.defaults.<setting> row but the null one: AnalysisDefaults reads None as an absent setting.
DEFAULTS_ERRORS = [
    (path[1], value, message)
    for path, value, _, message in PARSE_ERRORS
    if path[:1] == ("defaults",) and path[1:2] and path[1] in SETTINGS and value is not None
]


def test_defaults_errors_cover_every_setting():
    assert {name for name, _, _ in DEFAULTS_ERRORS} == set(SETTINGS)


@pytest.mark.parametrize("name, value, message", DEFAULTS_ERRORS)
def test_defaults_type_refuses_what_the_parser_refuses(name, value, message):
    with pytest.raises(SchemaError) as err:
        AnalysisDefaults(**{name: value})
    assert type(err.value) is SchemaError
    assert str(err.value) == message


_setting_values = st.one_of(st.floats(), st.floats(0.0, 1.0), st.integers(-2, 2))


@given(st.fixed_dictionaries({}, optional={name: _setting_values for name in SETTINGS}))
def test_defaults_type_and_parser_accept_the_same_settings(values):
    # NaN and infinities reach the parser as the NaN and Infinity literals Python's json writes
    text = _edited(("defaults",), values)
    try:
        defaults = AnalysisDefaults(**values)
    except SchemaError:
        with pytest.raises(SchemaError):
            parse_native(text)
        return
    assert parse_native(text).defaults == defaults
    doc = replace(parse_native(json.dumps(PARSE_BASE)), defaults=defaults)
    assert parse_native(serialize_native(doc)) == doc


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


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("mpc.baseMVA = 100;", "mpc.baseMVA = abc;", "line 4: cannot parse mpc.baseMVA value 'abc'"),
        ("mpc.baseMVA = 100;", "mpc.baseMVA = 0;", "line 4, column 15: baseMVA must be positive"),
        ("mpc.baseMVA = 100;", "mpc.baseMVA = -5;", "line 4, column 15: baseMVA must be positive"),
        ("mpc.baseMVA = 100;", "mpc.baseMVA = Inf;", "line 4: mpc.baseMVA value 'Inf' is not a finite number"),
        ("  2 3 0.01 0.07 0 0 0 0 0 0 1 -360 360;\n];\n", "  2 3 0.01 0.07 0 0 0 0 0 0 1 -360 360;\n",
         "line 16: unterminated matrix mpc.branch"),
        ("mpc.bus = [", "mpc.buses = [", "line 1: missing mpc.bus"),
        ("  2 1 30  0 0 0 1 1.0 0 135 1 1.1 0.9;", "  2 1;", "line 7: mpc.bus row needs at least 3 columns"),
        ("  2 1 30  0 0 0 1 1.0 0 135 1 1.1 0.9;", "  2 1 30  0 0 0 1 1.0 0 1x5 1 1.1 0.9;",
         "line 7, column 10: cannot parse '1x5'"),
        ("  2 1 30", "  inf 1 30", "line 7, column 1: 'inf' is not a finite number"),
        ("  2 1 30", "  nan 1 30", "line 7, column 1: 'nan' is not a finite number"),
        ("  2 1 30", "  3.5 1 30", "line 7, column 1: '3.5' is not an integer"),
        ("  1 3 0 ", "  1 3.9 0 ", "line 6, column 2: '3.9' is not an integer"),
        ("  2 1 30", "  2 1 nan", "line 7, column 3: 'nan' is not a finite number"),
        ("  1 80 0", "  1.5 80 0", "line 11, column 1: '1.5' is not an integer"),
        ("  1 80 0", "  1 -inf 0", "line 11, column 2: '-inf' is not a finite number"),
        ("  1 2 0.01 0.05", "  1 2.5 0.01 0.05", "line 14, column 2: '2.5' is not an integer"),
        ("  1 3 0.01 0.06", "  1 3 0.01 inf", "line 15, column 4: 'inf' is not a finite number"),
    ],
)
def test_matpower_parse_errors_name_line_and_column(old, new, message):
    assert TINY_CASE.count(old) == 1
    with pytest.raises(ParseError) as err:
        parse_matpower(TINY_CASE.replace(old, new))
    assert str(err.value) == message


def test_matpower_unread_columns_may_be_infinite():
    # only the columns the reader uses must be finite; a MATPOWER limit left at Inf is ignored
    case = parse_matpower(TINY_CASE.replace("1 80 0 0 0 1.0 100 1 200 0;", "1 80 0 0 0 1.0 100 1 Inf 0;"))
    assert case == parse_matpower(TINY_CASE)


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
    no_slack = TINY_CASE.replace("1 3 0", "1 1 0", 1)  # the bus row only: the branch 1-3 would become a self-loop
    with pytest.raises(RoleError):
        apply_imax_rule(parse_matpower(no_slack), 1.5, [2], [], 0.8, 1.0, 0.4, DEFAULTS)


def test_resolve_auto_ratings_requires_headroom():
    case = parse_matpower(TINY_CASE)
    doc = apply_imax_rule(case, 2.0, [2], [], 0.8, 1.0, 0.4, DEFAULTS)
    with pytest.raises(ValueError):
        resolve_auto_ratings(doc, 1.0)


@pytest.mark.parametrize("rating", [0.0, -3.0, math.nan])
def test_resolve_auto_ratings_refuses_non_positive_zero_flow_rating(rating):
    doc = replace(parse_native(json.dumps(PARSE_BASE)), defaults=DEFAULTS)
    with pytest.raises(ValueError, match="^zero_flow_rating must be positive$"):
        resolve_auto_ratings(doc, 1.5, zero_flow_rating=rating)


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
    out = json.loads(export_report(rep, line_terminals=ctx.flow.network.lines))
    assert len(out["lines"]) == 3
    assert out["current_argmin"] == [0, 1]
    assert np.isclose(out["current_rate"], rep.current_rate, rtol=1e-15)
    csv = export_report(rep, "csv", line_terminals={0: (1, 2), 1: (1, 3), 2: (2, 3)})
    lines = csv.strip().split("\n")
    assert lines[0] == "line,from,to,psi_plus,psi_minus,alpha,psi_alpha,sigma2"
    assert len(lines) == 4
    assert lines[1].startswith("0,1,2,")
    with pytest.raises(ValueError):
        export_report(rep, "xml", line_terminals=ctx.flow.network.lines)


REPORT_COLUMNS = ("psi_plus", "psi_minus", "alpha", "psi_alpha", "sigma2")


def _report_rows(report):
    """(line, psi_plus, psi_minus, alpha, psi_alpha, sigma2) per line, as Python numbers."""
    return [(ell, *(float(getattr(report, field)[k]) for field in REPORT_COLUMNS)) for k, ell in enumerate(report.line)]


def _report_object(report, line_terminals):
    """The object export_report's JSON writes, for `_json_text` to render."""
    return {
        "lines": [
            {
                "line": ell,
                "from": line_terminals[ell][0],
                "to": line_terminals[ell][1],
                "psi_plus": psi_plus,
                "psi_minus": psi_minus,
                "alpha": alpha,
                "psi_alpha": psi_alpha,
                "sigma2": sigma2,
            }
            for ell, psi_plus, psi_minus, alpha, psi_alpha, sigma2 in _report_rows(report)
        ],
        "excluded": list(report.excluded),
        "current_rate": report.current_rate,
        "current_argmin": list(report.current_argmin),
        "lb_rate": report.lb_rate,
        "lb_argmin": list(report.lb_argmin),
        "taylor_rate": report.taylor_rate,
        "taylor_note": report.taylor_note,
        "horizon": report.horizon,
        "tau0": report.tau0,
    }


def _csv_quoted(value):
    """str(value) as an RFC 4180 field: quoted, inner quotes doubled, when it holds , " CR or LF."""
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _report_csv(report, line_terminals):
    rows = ["line,from,to,psi_plus,psi_minus,alpha,psi_alpha,sigma2"]
    for ell, *values in _report_rows(report):
        ends = map(_csv_quoted, line_terminals[ell])
        rows.append(",".join([str(ell), *ends, *(format(x, ".17g") for x in values)]))
    return "\n".join(rows) + "\n"


# ids that quote, escape, leave ASCII, spell a non-finite float, or hold a CSV separator
REPORT_IDS = [0, 7, -3, 2**70, "a", "bus 12", 'q"uote', "back\\slash", "tab\tnew\nline", "café", "☃\U0001f600",
              "inf", "-Infinity", "nan", "banana", "a,b", "cr\rid", '"', ",", ""]


def _random_report(rng, line_count):
    """A DecayRateReport over `line_count` lines, each live or excluded, with random floats of any scale."""
    specials = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 1e-310, 0.1, 1.0 / 3.0]

    def value():
        if rng.random() < 0.2:
            return specials[rng.integers(len(specials))]
        return float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))

    live = [ell for ell in range(line_count) if rng.random() < 0.7]
    columns = {field: np.array([value() for _ in live], dtype=float) for field in REPORT_COLUMNS}
    taylor = rng.random() < 0.5
    return DecayRateReport(
        line=tuple(live),
        **columns,
        excluded=tuple(ell for ell in range(line_count) if ell not in live),
        current_rate=value(),
        current_argmin=tuple(live[:1]),
        lb_rate=value(),
        lb_argmin=tuple(live[-1:]),
        taylor_rate=value() if taylor else None,
        taylor_note=None if taylor else "first-order rate needs a uniform tau; tau0 not given",
        horizon=value(),
        tau0=value() if taylor else None,
    )


def test_report_export_matches_the_generic_writer():
    rng = np.random.default_rng(11)
    for draw in range(200):
        line_count = int(rng.integers(0, 9))
        terminals = tuple(
            tuple(REPORT_IDS[k] for k in rng.choice(len(REPORT_IDS), size=2, replace=False)) for _ in range(line_count)
        )
        report = _random_report(rng, line_count)
        assert export_report(report, line_terminals=terminals) == _json_text(_report_object(report, terminals)) + "\n"
        assert export_report(report, "csv", line_terminals=terminals) == _report_csv(report, terminals)


def test_report_csv_reads_back_every_id_through_csv_reader():
    # each id, as "from" and as "to", comes back as str(id) in a row of 8 fields
    n = len(REPORT_IDS)
    terminals = tuple((REPORT_IDS[k], REPORT_IDS[(k + 1) % n]) for k in range(n))
    values = np.random.default_rng(14).standard_normal((len(REPORT_COLUMNS), n))
    report = replace(_random_report(np.random.default_rng(14), 0), line=tuple(range(n)), **dict(zip(REPORT_COLUMNS, values)))
    rows = list(csv.reader(io.StringIO(export_report(report, "csv", line_terminals=terminals), newline="")))
    assert rows[0] == "line,from,to,psi_plus,psi_minus,alpha,psi_alpha,sigma2".split(",")
    assert [len(row) for row in rows[1:]] == [8] * n
    assert [tuple(row[1:3]) for row in rows[1:]] == [(str(a), str(b)) for a, b in terminals]
    assert np.array_equal(np.array([row[3:] for row in rows[1:]], dtype=float).T, values)


def test_report_export_refuses_the_first_non_finite_value_as_the_generic_writer_does():
    rng = np.random.default_rng(12)
    for draw in range(200):
        line_count = int(rng.integers(1, 6))
        terminals = tuple((f"n{ell}", "inf") for ell in range(line_count))
        report = _random_report(rng, line_count)
        # one to three non-finite values, in the rows or in the tail
        for _ in range(int(rng.integers(1, 4))):
            bad = [math.inf, -math.inf, math.nan][rng.integers(3)]
            where = int(rng.integers(len(report.line) + 1))
            if where < len(report.line):
                field = REPORT_COLUMNS[rng.integers(5)]
                column = getattr(report, field).copy()
                column[where] = bad
                report = replace(report, **{field: column})
            else:
                report = replace(report, **{("current_rate", "lb_rate", "horizon")[rng.integers(3)]: bad})
        with pytest.raises(ValueError) as expected:
            _json_text(_report_object(report, terminals))
        with pytest.raises(ValueError) as err:
            export_report(report, line_terminals=terminals)
        assert str(err.value) == str(expected.value)
        assert str(err.value).startswith("cannot export the non-finite value")


def test_region_export_round_trip_bit_exact():
    ctx = wheel_context()
    region = build_region(ctx, "temperature_lb", 0.1, 1e-4)
    back = json.loads(export_region(region))
    assert np.array_equal(back["bounds"], region.bounds)
    assert back["kind"] == region.kind
    assert back["tau0"] == region.tau0
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
    out = json.loads(export_partition(part, line_terminals=ctx.flow.network.lines))
    assert out["central"] == list(part.central_label)
    assert out["resolution"] == 20
    assert [tuple(r["lines"]) for r in out["regions"]] == [s.label for s in part.summaries]
    ext = {0: (1, 2), 1: (1, 3), 2: (2, 3)}
    named = json.loads(export_partition(part, line_terminals=ext))
    assert named["regions"][0]["terminals"] == [list(ext[ell]) for ell in part.summaries[0].label]
    rows = export_partition(part, "csv", line_terminals=ctx.flow.network.lines).strip().split("\n")
    assert rows[0] == "i,j,u,v,label"
    assert len(rows) - 1 == int(np.count_nonzero(part.label_grid >= 0))
    assert any("+" in r.rsplit(",", 1)[1] for r in rows[1:])  # tie labels joined


@pytest.mark.parametrize("case", ["wheel3-20", "case14-200"])
def test_partition_csv_matches_the_cell_by_cell_writer(case):
    # the case14 map is the one the benchmark draws, at 200^2; both maps hold tie labels
    if case == "wheel3-20":
        ctx = wheel_context()
        part = risk_partition(ctx, (1, 2), np.zeros(2), BOX, resolution=20)
        terminals = ctx.flow.network.lines
    else:
        bm, free, fixed, bbox = _case14_map()
        part = risk_partition(bm.ctx, free, fixed, bbox, resolution=200)
        terminals = bm.line_terminals
    assert any(len(label) > 1 for label in part.labels)
    assert export_partition(part, "csv", line_terminals=terminals) == reference_partition_csv(part)


def test_schema_constants():
    assert SCHEMA_FORMAT == "gridcap-network"
    assert SCHEMA_VERSION == 1


# ---------------------------------------------------------------------------
# the JSON writer against its reference


class _Pair(NamedTuple):
    first: object
    second: object


WRITER_VALUES = [
    0.1,
    -0.0,
    5e-324,
    1.7976931348623157e308,
    np.float64(0.1),
    np.float32(0.1),
    np.int64(-7),
    np.int8(3),
    2**70,
    True,
    False,
    None,
    "",
    'quote " slash \\ newline \n tab \t',
    "café ☃ \U0001f600",
    [],
    {},
    (),
    [[]],
    [{}],
    [1, 2.5, True, None, "x", np.float64(2.0), np.int32(4)],
    [np.float64(1.5), np.float64(-2.25)],
    (0.5, 1.5),
    [[0.5, 1.5], [2.5], [], [[1.0, [2.0]]]],
    {"a": {"b": {"c": [1.0, {"d": []}]}}, "e": {}},
    {1: "int key", 2.5: "float key", None: "null key", True: "bool key"},
    OrderedDict([("z", 1), ("a", [0.1, 0.2])]),
    _Pair(1.0, [2.0, 3.0]),
    [_Pair(1.0, 2.0), 3.0],
    [0.1 * k for k in range(200)],
]


@pytest.mark.parametrize("obj", WRITER_VALUES, ids=range(len(WRITER_VALUES)))
def test_json_writer_matches_reference(obj):
    assert _json_text(obj) == reference_json_text(obj)
    assert _json_text(obj, indent=4) == reference_json_text(obj, indent=4)


@pytest.mark.parametrize(
    "obj, error",
    [
        (math.inf, ValueError),
        (np.float64(-np.inf), ValueError),
        ([1.0, math.nan, math.inf], ValueError),
        ([[1.0, -math.inf], math.nan], ValueError),
        ({"a": [0.5, math.nan]}, ValueError),
        ([np.float32(np.nan)], ValueError),
        (object(), TypeError),
        ([np.bool_(True)], TypeError),
        ([object(), math.nan], TypeError),
        ({"a": {1, 2}}, TypeError),
    ],
)
def test_json_writer_refusals_match_reference(obj, error):
    with pytest.raises(error) as new:
        _json_text(obj)
    with pytest.raises(error) as ref:
        reference_json_text(obj)
    assert str(new.value) == str(ref.value)


def _assert_writers_agree(monkeypatch, export):
    """`export()` gives the same bytes with the library's writer and with the reference."""
    text = export()
    with monkeypatch.context() as patch:
        patch.setattr(io_formats, "_json_text", reference_json_text)
        assert export() == text


def _assert_model_exports_agree(monkeypatch, bm, free, bbox, epsilon, p, mc_epsilons=()):
    """Every JSON export of one built model, compared with the reference writer."""
    ctx = bm.ctx
    fixed = np.concatenate([bm.ou.mean, bm.op.mu_D])
    exports = [
        lambda: serialize_native(bm.document),
        lambda: export_report(full_report(ctx), line_terminals=bm.line_terminals),
        lambda: export_report(full_report(ctx), line_terminals=ctx.flow.network.lines),
    ]
    for kind in ("deterministic", "current", "temperature_lb", "temperature_taylor"):
        try:
            region = build_region(ctx, kind, epsilon, p)
        except (NonUniformGamma, NonUniformTau):
            continue
        exports.append(lambda region=region: export_region(region))
        try:
            sl = slice2d(region, bm.flow, free, fixed, bbox)
        except EmptySlice:
            continue
        exports.append(lambda sl=sl: export_slice(sl))
    try:
        part = risk_partition(ctx, free, fixed, bbox, resolution=16)
    except (EmptySlice, NoStochasticLines):
        part = None
    if part is not None:
        exports.append(lambda: export_partition(part, line_terminals=bm.line_terminals))
        exports.append(lambda: export_partition(part, line_terminals=ctx.flow.network.lines))
    if mc_epsilons:
        config = McConfig(replicates=400, step_count=20, seed=3)
        fit = decay_slope(ctx, config, mc_epsilons)
        exports.append(lambda: export_mc(mc_epsilons, fit.estimates, 3, fit=fit))
        exports.append(lambda: export_mc(mc_epsilons[:1], fit.estimates[:1], 3))
    for export in exports:
        _assert_writers_agree(monkeypatch, export)
    return len(exports)


def test_exports_match_reference_writer_wheel3(monkeypatch):
    bm = build_model(parse_native(_data("wheel3.json")))
    count = _assert_model_exports_agree(monkeypatch, bm, (1, 2), (-1.0, 1.0, -1.0, 1.0), 0.1, 1e-4, (0.5, 0.8))
    assert count == 15


def test_exports_match_reference_writer_case14(monkeypatch):
    case = parse_matpower(_data("case14.m"))
    doc = apply_imax_rule(
        case, 1.5, [2, 3], [6, 9], gamma=1.0, vol=10.0, tau=0.5,
        defaults=AnalysisDefaults(epsilon=0.0004, p=0.0001, horizon=1.0, tau0=0.5), zero_flow_rating=1.0,
    )
    bm = build_model(doc)
    free = (bm.node_ids.index(6), bm.node_ids.index(9))
    # the window around the deterministic slice, padded by 5 %
    det = build_region(bm.ctx, "deterministic", 0.0004, 1e-4)
    fixed = np.concatenate([bm.ou.mean, bm.op.mu_D])
    ring = slice2d(det, bm.flow, free, fixed, (-10.0, 10.0, -10.0, 10.0)).vertices
    (umin, vmin), (umax, vmax) = ring.min(axis=0), ring.max(axis=0)
    pad_u, pad_v = 0.05 * (umax - umin), 0.05 * (vmax - vmin)
    bbox = (umin - pad_u, umax + pad_u, vmin - pad_v, vmax + pad_v)
    count = _assert_model_exports_agree(monkeypatch, bm, free, bbox, 1e-6, 1e-4, (0.02, 0.04))
    assert count == 15


def test_exact1d_export_matches_reference_writer(monkeypatch):
    result = exact_decay_rate(Exact1dProblem(mu=0.5, gamma=0.5, vol=1.0, tau=0.3, horizon=1.0))
    _assert_writers_agree(monkeypatch, lambda: export_exact1d(result))


def _random_document(rng, uniform):
    """A document on `random_network`'s graph: int, str and non-ASCII node ids, small injections.

    With `uniform`, every node shares one gamma and every line one tau, so the small-lag kind prices.
    """
    net = random_network(rng)
    n = net.node_count
    m = int(rng.integers(1, n))
    ids = [k if k % 3 == 0 else (f"bus-{k}" if k % 3 == 1 else f"né\"{k}") for k in range(n)]
    gamma = rng.uniform(0.3, 2.0, size=n)
    tau = net.thermal_constant
    if uniform:
        gamma[:] = gamma[0]
        tau = np.full(net.line_count, tau[0])
    nodes = [NodeSpec(id=ids[0], role="slack")]
    for k in range(1, n):
        if k <= m:
            nodes.append(NodeSpec(id=ids[k], role="stochastic", gamma=float(gamma[k]),
                                  vol=float(rng.uniform(0.5, 1.5)), mean=float(rng.uniform(-0.05, 0.05))))
        else:
            nodes.append(NodeSpec(id=ids[k], role="deterministic", injection=float(rng.uniform(-0.05, 0.05)),
                                  controllable=bool(rng.integers(0, 2))))
    lines = tuple(
        LineSpec(from_id=ids[i], to_id=ids[j], susceptance=float(b), rating=float(r), tau=float(t))
        for (i, j), b, r, t in zip(net.lines, net.susceptance, net.current_rating, tau)
    )
    defaults = AnalysisDefaults(epsilon=float(rng.uniform(1e-3, 1e-2)), p=1e-4, horizon=1.0, tau0=0.5)
    return NetworkDocument(version=SCHEMA_VERSION, nodes=tuple(nodes), lines=lines, defaults=defaults)


def test_exports_match_reference_writer_random_documents(monkeypatch):
    rng = np.random.default_rng(2024)
    counts = []
    for draw in range(60):
        doc = _random_document(rng, uniform=draw % 2 == 0)
        assert parse_native(serialize_native(doc)) == doc
        bm = build_model(doc)
        u, v = np.concatenate([bm.ou.mean, bm.op.mu_D])[:2]  # injections at the free nodes 1 and 2
        bbox = (u - 1.0, u + 1.0, v - 1.0, v + 1.0)
        counts.append(_assert_model_exports_agree(monkeypatch, bm, (1, 2), bbox, doc.defaults.epsilon, 1e-4))
    # every draw exports its report, regions, slices and partition; uniform draws add the small-lag kind
    assert counts == [13, 11] * 30
