"""Network input parsing, rating rules, and report/geometry exports.

Native format
-------------
A versioned JSON document::

    {
      "format": "gridcap-network",
      "version": 1,
      "nodes": [
        {"id": 1, "role": "slack"},
        {"id": 2, "role": "stochastic", "gamma": 1.0, "vol": 1.0, "mean": 0.3},
        {"id": 3, "role": "deterministic", "injection": -0.2, "controllable": true}
      ],
      "lines": [
        {"from": 1, "to": 2, "susceptance": 1.0, "rating": 1.0, "tau": 0.5},
        {"from": 2, "to": 3, "susceptance": 1.0, "rating": "auto", "tau": 0.5}
      ],
      "defaults": {"epsilon": 0.1, "p": 0.0001, "horizon": 1.0, "tau0": 0.5}
    }

The `defaults` rules (epsilon >= 0, 0 < p < 1, horizon > 0, tau0 >= 0) live on
`AnalysisDefaults`, which refuses a breaking value with the parser's message;
so `gridcap convert` exits 2 on such a setting rather than write it.

Node ids, in a node's `id` and a line's `from` and `to` alike, are strings or
integers, never booleans. Exactly one node is the slack; every other
node is either stochastic (mean-reverting injection with its own gamma, vol,
mean) or deterministic (fixed injection), and deterministic nodes may be
flagged controllable for slice axes. A rating of "auto" is resolved by
`resolve_auto_ratings`, which sets it to K times the absolute base flow.

Internally nodes are permuted so the slack is index 0, the stochastic nodes
occupy 1..m in document order, and the deterministic nodes follow, also in
document order. All exported artifacts talk about nodes through their
original ids.

A read-only MATPOWER case subset (bus/gen/branch matrices, baseMVA) covers
the standard test cases; susceptance is 1/x and nodal injections are
(sum Pg - Pd) / baseMVA per bus.

All exported floats are printed with %.17g, which round-trips binary64
exactly.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .errors import GraphError, ParseError, RoleError, SchemaError, ZeroBaseFlow
from .grid_model import GridNetwork, _network_currents, _unreachable, build_flow_matrices, operating_point
from .injections import OuModel, _check_square
from .ld_rates import PsiContext

__all__ = [
    "SCHEMA_FORMAT",
    "SCHEMA_VERSION",
    "NodeSpec",
    "LineSpec",
    "AnalysisDefaults",
    "NetworkDocument",
    "MatpowerCaseSubset",
    "BuiltModel",
    "parse_native",
    "serialize_native",
    "parse_matpower",
    "net_injections",
    "apply_imax_rule",
    "resolve_auto_ratings",
    "line_terminals",
    "build_model",
    "export_report",
    "export_region",
    "export_slice",
    "export_partition",
    "export_mc",
    "export_exact1d",
]

SCHEMA_FORMAT = "gridcap-network"
SCHEMA_VERSION = 1

ROLES = ("slack", "stochastic", "deterministic")


@dataclass(frozen=True)
class NodeSpec:
    id: object
    role: str
    gamma: float = None
    vol: float = None
    mean: float = None
    injection: float = None
    controllable: bool = False


@dataclass(frozen=True)
class LineSpec:
    from_id: object
    to_id: object
    susceptance: float
    rating: object
    tau: float


_DEFAULT_RULES = {
    "epsilon": (lambda v: v >= 0, "must be non-negative"),
    "p": (lambda v: 0 < v < 1, "must lie strictly between 0 and 1"),
    "horizon": (lambda v: v > 0, "must be positive"),
    "tau0": (lambda v: v >= 0, "must be non-negative"),
}


@dataclass(frozen=True)
class AnalysisDefaults:
    """Analysis settings, None where absent; a set value breaking its `_DEFAULT_RULES` rule is refused."""

    epsilon: float = None
    p: float = None
    horizon: float = None
    tau0: float = None

    def __post_init__(self):
        for name, (holds, requirement) in _DEFAULT_RULES.items():
            value = getattr(self, name)
            if value is not None and not holds(_number(value, "defaults", name)):
                raise _schema_error(requirement, "defaults", name)

    def setting(self, name: str, override=None, flag: str = None):
        """`override` if given, else the default `name`; ValueError naming `flag` (else `name`) if neither is set."""
        value = getattr(self, name) if override is None else override
        if value is None:
            raise ValueError(f"{flag or name} not given and absent from document defaults")
        return value


@dataclass(frozen=True)
class NetworkDocument:
    """Validated network description plus analysis defaults.

    `node_ids` lists ids in internal order (slack, stochastic, deterministic);
    positions in that tuple are the grid-model node indices.
    """

    version: int
    nodes: tuple
    lines: tuple
    defaults: AnalysisDefaults

    @property
    def slack_id(self):
        return next(n.id for n in self.nodes if n.role == "slack")

    @property
    def stochastic_ids(self) -> tuple:
        return tuple(n.id for n in self.nodes if n.role == "stochastic")

    @property
    def deterministic_ids(self) -> tuple:
        return tuple(n.id for n in self.nodes if n.role == "deterministic")

    @property
    def controllable_ids(self) -> tuple:
        return tuple(n.id for n in self.nodes if n.controllable)

    @property
    def node_ids(self) -> tuple:
        return (self.slack_id,) + self.stochastic_ids + self.deterministic_ids

    @property
    def index_of(self) -> dict:
        return {nid: k for k, nid in enumerate(self.node_ids)}

    def has_auto_ratings(self) -> bool:
        return any(line.rating == "auto" for line in self.lines)


# ---------------------------------------------------------------------------
# native format


_DOCUMENT_KEYS = frozenset({"format", "version", "nodes", "lines", "defaults"})
_NODE_KEYS = {
    "slack": frozenset({"id", "role"}),
    "stochastic": frozenset({"id", "role", "gamma", "vol", "mean"}),
    "deterministic": frozenset({"id", "role", "injection", "controllable"}),
}
_LINE_FIELDS = ("from", "to", "susceptance", "rating", "tau")
_LINE_KEYS = frozenset(_LINE_FIELDS)
_DEFAULTS_KEYS = frozenset(_DEFAULT_RULES)
_ID_TYPES = (str, int)
_INF = math.inf


def _schema_error(message, *where) -> SchemaError:
    """SchemaError at the JSON path `where` names: ("nodes", 3, "gamma") is $.nodes[3].gamma.

    The path is built here, once a check has failed, so valid documents never pay for it.
    """
    path = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in where)
    return SchemaError(f"${path}: {message}")


def _number(value, *where) -> float:
    """`value` as a finite float; `where` locates it for `_schema_error`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _schema_error("expected a number", *where)
    # Python's json accepts NaN, Infinity and out-of-range literals like 1e999
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise _schema_error(f"expected a finite number, got {number!r}", *where)
    return number


def _check_keys(obj, allowed, *where):
    if not allowed.issuperset(obj):
        unknown = next(key for key in obj if key not in allowed)
        raise _schema_error("unknown key", *where, unknown)


def parse_native(text: str) -> NetworkDocument:
    """Parse and validate a native JSON network document.

    Raises SchemaError naming the offending path, RoleError for slack-count
    violations, and GraphError if the line graph is disconnected.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"$: not valid JSON ({exc})") from None
    except RecursionError:
        raise SchemaError("$: JSON nested too deeply to decode") from None
    if not isinstance(raw, dict):
        raise _schema_error("expected an object")
    _check_keys(raw, _DOCUMENT_KEYS)
    if not raw.get("format") == SCHEMA_FORMAT:
        raise _schema_error(f"expected {SCHEMA_FORMAT!r}", "format")
    if not raw.get("version") == SCHEMA_VERSION:
        raise _schema_error(f"expected {SCHEMA_VERSION}", "version")
    for table in ("nodes", "lines"):
        if not (isinstance(raw.get(table), list) and raw[table]):
            raise _schema_error("expected a non-empty array", table)

    # One walk over the rows. A field that is a finite float (positive where
    # the rule asks for it) is taken as it is; any other value goes to the
    # helper that names its fault, so messages and their order do not depend
    # on which test let the value through. json.loads makes only plain dict,
    # list, str, int, float and bool objects, so type() tells them apart.
    nodes = []
    position = {}  # node id -> position in the document
    for k, entry in enumerate(raw["nodes"]):
        if type(entry) is not dict:
            raise _schema_error("expected an object", "nodes", k)
        if "id" not in entry:
            raise _schema_error("missing id", "nodes", k)
        nid = entry["id"]
        if type(nid) not in _ID_TYPES:
            raise _schema_error("id must be a string or integer", "nodes", k, "id")
        if nid in position:
            raise _schema_error(f"duplicate id {nid!r}", "nodes", k, "id")
        position[nid] = k
        role = entry.get("role")
        if role not in ROLES:
            raise _schema_error(f"role must be one of {ROLES}", "nodes", k, "role")
        allowed = _NODE_KEYS[role]
        _check_keys(entry, allowed, "nodes", k)
        if role == "slack":
            nodes.append(NodeSpec(nid, role))
        elif role == "stochastic":
            if len(entry) != len(allowed):  # no unknown key, so one is missing
                missing = next(field for field in ("gamma", "vol", "mean") if field not in entry)
                raise _schema_error(f"missing {missing}", "nodes", k)
            gamma, vol, mean = entry["gamma"], entry["vol"], entry["mean"]
            if not (type(gamma) is float and 0.0 < gamma < _INF):
                gamma = _number(gamma, "nodes", k, "gamma")
            if not (type(vol) is float and 0.0 < vol < _INF):
                vol = _number(vol, "nodes", k, "vol")
            if not (type(mean) is float and -_INF < mean < _INF):
                mean = _number(mean, "nodes", k, "mean")
            if not gamma > 0:
                raise _schema_error("must be positive", "nodes", k, "gamma")
            if not vol > 0:
                raise _schema_error("must be positive", "nodes", k, "vol")
            nodes.append(NodeSpec(nid, role, gamma, vol, mean))
        else:
            if "injection" not in entry:
                raise _schema_error("missing injection", "nodes", k)
            injection = entry["injection"]
            if not (type(injection) is float and -_INF < injection < _INF):
                injection = _number(injection, "nodes", k, "injection")
            controllable = entry.get("controllable", False)
            if type(controllable) is not bool:
                raise _schema_error("must be a boolean", "nodes", k, "controllable")
            nodes.append(NodeSpec(nid, role, None, None, None, injection, controllable))

    slack_count = sum(1 for n in nodes if n.role == "slack")
    if slack_count != 1:
        raise RoleError(f"expected exactly one slack node, found {slack_count}")
    if not any(n.role == "stochastic" for n in nodes):
        raise RoleError("at least one stochastic node is required")

    lines = []
    pairs = set()  # (i, j), i < j, of document node positions
    for k, entry in enumerate(raw["lines"]):
        if type(entry) is not dict:
            raise _schema_error("expected an object", "lines", k)
        if entry.keys() != _LINE_KEYS:
            _check_keys(entry, _LINE_KEYS, "lines", k)
            missing = next(field for field in _LINE_FIELDS if field not in entry)
            raise _schema_error(f"missing {missing}", "lines", k)
        f, t = entry["from"], entry["to"]
        if type(f) not in _ID_TYPES:
            raise _schema_error("id must be a string or integer", "lines", k, "from")
        if type(t) not in _ID_TYPES:
            raise _schema_error("id must be a string or integer", "lines", k, "to")
        i, j = position.get(f), position.get(t)
        if i is None:
            raise _schema_error(f"unknown node id {f!r}", "lines", k, "from")
        if j is None:
            raise _schema_error(f"unknown node id {t!r}", "lines", k, "to")
        if i == j:
            raise _schema_error("self-loop", "lines", k)
        pair = (i, j) if i < j else (j, i)
        if pair in pairs:
            raise _schema_error("duplicate line", "lines", k)
        pairs.add(pair)
        susceptance, rating, tau = entry["susceptance"], entry["rating"], entry["tau"]
        if not (type(susceptance) is float and 0.0 < susceptance < _INF):
            susceptance = _number(susceptance, "lines", k, "susceptance")
            if not susceptance > 0:
                raise _schema_error("must be positive", "lines", k, "susceptance")
        if not (type(rating) is float and 0.0 < rating < _INF) and rating != "auto":
            rating = _number(rating, "lines", k, "rating")
            if not rating > 0:
                raise _schema_error('must be positive or "auto"', "lines", k, "rating")
        if not (type(tau) is float and 0.0 < tau < _INF):
            tau = _number(tau, "lines", k, "tau")
            if not tau > 0:
                raise _schema_error("must be positive", "lines", k, "tau")
        lines.append(LineSpec(f, t, susceptance, rating, tau))

    defaults_raw = raw.get("defaults", {})
    if not isinstance(defaults_raw, dict):
        raise _schema_error("expected an object", "defaults")
    _check_keys(defaults_raw, _DEFAULTS_KEYS, "defaults")
    # a null is refused here, where AnalysisDefaults would read it as absent
    defaults = AnalysisDefaults(**{name: _number(value, "defaults", name) for name, value in defaults_raw.items()})

    unreachable = _unreachable(len(nodes), pairs)
    if unreachable:
        missing = sorted((nodes[k].id for k in unreachable), key=repr)
        raise GraphError(f"network is disconnected; unreachable nodes {missing}")

    return NetworkDocument(
        version=SCHEMA_VERSION,
        nodes=tuple(nodes),
        lines=tuple(lines),
        defaults=defaults,
    )


def _f17(x) -> str:
    x = float(x)
    # JSON has no literal for inf or nan; CSV refuses them too
    if not math.isfinite(x):
        raise ValueError(f"cannot export the non-finite value {x!r}")
    return format(x, ".17g")


# json.dumps of a str is this encoder's output
_json_string = json.encoder.encode_basestring_ascii


def _json_key(key) -> str:
    return _json_string(key) if type(key) is str else json.dumps(key)


def _json_text(obj, indent=0) -> str:
    """Indented JSON text: %.17g floats, flat arrays on one line, nested ones one item per line.

    Plain floats, ints and strings are told apart by type() before the
    isinstance chain, which subclasses and NumPy scalars take.
    """
    kind = type(obj)
    if kind is float:
        return _f17(obj)
    if kind is int:
        return str(obj)
    if kind is str:
        return _json_string(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        lead = "\n" + " " * (indent + 2)
        items = [f"{_json_key(k)}: {_json_text(v, indent + 2)}" for k, v in obj.items()]
        return "{" + lead + ("," + lead).join(items) + "\n" + " " * indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds == {float}:
            text = ", ".join([format(v, ".17g") for v in obj])
            if "n" not in text:  # only "inf" and "nan" have an n; _f17 refuses them below
                return "[" + text + "]"
        if not any(issubclass(k, (dict, list, tuple)) for k in kinds):
            return "[" + ", ".join([_json_text(v) for v in obj]) + "]"
        lead = "\n" + " " * (indent + 2)
        items = [_json_text(v, indent + 2) for v in obj]
        return "[" + lead + ("," + lead).join(items) + "\n" + " " * indent + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _f17(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def serialize_native(doc: NetworkDocument) -> str:
    """Canonical text form of a document; parse of the output is identity."""
    nodes = []
    for n in doc.nodes:
        entry = {"id": n.id, "role": n.role}
        if n.role == "stochastic":
            entry.update(gamma=n.gamma, vol=n.vol, mean=n.mean)
        elif n.role == "deterministic":
            entry["injection"] = n.injection
            if n.controllable:
                entry["controllable"] = True
        nodes.append(entry)
    lines = [
        {
            "from": line.from_id,
            "to": line.to_id,
            "susceptance": line.susceptance,
            "rating": line.rating,
            "tau": line.tau,
        }
        for line in doc.lines
    ]
    out = {"format": SCHEMA_FORMAT, "version": doc.version, "nodes": nodes, "lines": lines}
    defaults = {
        name: getattr(doc.defaults, name) for name in _DEFAULT_RULES if getattr(doc.defaults, name) is not None
    }
    if defaults:
        out["defaults"] = defaults
    return _json_text(out) + "\n"


# ---------------------------------------------------------------------------
# MATPOWER subset


@dataclass(frozen=True)
class MatpowerCaseSubset:
    """Bus/gen/branch tables of a MATLAB case file, per-unit base included.

    `buses` rows are (id, type, Pd); `gens` rows are (bus, Pg); `branches`
    rows are (from, to, x). `warnings` lists ignored fields.
    """

    base_mva: float
    buses: tuple
    gens: tuple
    branches: tuple
    warnings: tuple


_MP_FIELDS = ("baseMVA", "bus", "gen", "branch")


def _strip_comment(line: str) -> str:
    cut = line.find("%")
    return line if cut < 0 else line[:cut]


def parse_matpower(text: str) -> MatpowerCaseSubset:
    """Extract the bus, gen, and branch matrices from MATLAB case text.

    Only the columns this package needs are read: bus id, bus type, and Pd;
    generator bus and Pg; branch endpoints and reactance. Other mpc fields
    are skipped and reported in the warnings list. Raises ParseError with a
    line reference for malformed numbers, non-finite values in the columns
    read, non-integer bus ids and types, zero reactances, references to
    undefined buses, branches from a bus to itself, and parallel branches
    (a second branch between the same two buses, in either direction). A
    matrix entry's column is its position in the row; a non-positive
    baseMVA is placed at the character column of its value.
    """
    lines = text.splitlines()
    matrices = {}
    scalars = {}
    warnings = []
    field = None
    for ln, raw in enumerate(lines, start=1):
        body = _strip_comment(raw)
        if field is None:
            m = re.match(r"\s*mpc\.(\w+)\s*=\s*(.*)$", body)
            if not m:
                continue
            name, rest = m.group(1), m.group(2).strip()
            if rest.startswith("["):
                field = name
                rows = []
                row_lines = []
                rest = rest[1:]
                if name not in _MP_FIELDS:
                    warnings.append(f"ignored field {name}")
            else:
                value = rest.rstrip(";").strip()
                if name in _MP_FIELDS:
                    try:
                        number = float(value)
                    except ValueError:
                        raise ParseError(f"line {ln}: cannot parse mpc.{name} value {value!r}") from None
                    if not math.isfinite(number):
                        raise ParseError(f"line {ln}: mpc.{name} value {value!r} is not a finite number")
                    scalars[name] = (number, f"line {ln}, column {m.start(2) + 1}")
                else:
                    warnings.append(f"ignored field {name}")
                continue
        else:
            rest = body.strip()
        if field is not None:
            closed = False
            end = rest.find("]")
            if end >= 0:
                rest = rest[:end]
                closed = True
            for chunk in rest.split(";"):
                tokens = chunk.split()
                if tokens:
                    rows.append(tokens)
                    row_lines.append(ln)
            if closed:
                if field in _MP_FIELDS:
                    matrices[field] = (rows, row_lines)
                field = None
    if field is not None:
        raise ParseError(f"line {len(lines)}: unterminated matrix mpc.{field}")

    def numeric(fname, min_cols, int_cols):
        """Rows of mpc.fname; the first min_cols columns, which hold all that is read,
        must be finite, and the int_cols among them integers."""
        if fname not in matrices:
            raise ParseError(f"line 1: missing mpc.{fname}")
        out = []
        for tokens, ln in zip(*matrices[fname]):
            if len(tokens) < min_cols:
                raise ParseError(f"line {ln}: mpc.{fname} row needs at least {min_cols} columns")
            values = []
            for col, tok in enumerate(tokens, start=1):
                try:
                    value = float(tok)
                except ValueError:
                    raise ParseError(f"line {ln}, column {col}: cannot parse {tok!r}") from None
                if col <= min_cols and not math.isfinite(value):
                    raise ParseError(f"line {ln}, column {col}: {tok!r} is not a finite number")
                if col in int_cols:
                    if value != int(value):
                        raise ParseError(f"line {ln}, column {col}: {tok!r} is not an integer")
                    value = int(value)
                values.append(value)
            out.append((values, ln))
        return out

    if "baseMVA" not in scalars:
        raise ParseError("line 1: missing mpc.baseMVA")
    base_mva, where = scalars["baseMVA"]
    if not base_mva > 0:
        raise ParseError(f"{where}: baseMVA must be positive")

    buses = []
    bus_ids = set()
    for values, ln in numeric("bus", 3, (1, 2)):
        bid = values[0]
        if bid in bus_ids:
            raise ParseError(f"line {ln}: duplicate bus {bid}")
        bus_ids.add(bid)
        buses.append(tuple(values[:3]))
    gens = []
    for values, ln in numeric("gen", 2, (1,)):
        bid = values[0]
        if bid not in bus_ids:
            raise ParseError(f"line {ln}: generator references undefined bus {bid}")
        gens.append((bid, values[1]))
    branches = []
    first = {}  # unordered bus pair -> (from, to, case-file line) of its branch
    for values, ln in numeric("branch", 4, (1, 2)):
        f, t = values[:2]
        for bid in (f, t):
            if bid not in bus_ids:
                raise ParseError(f"line {ln}: branch references undefined bus {bid}")
        if f == t:
            raise ParseError(f"line {ln}: branch {f}-{t} joins bus {f} to itself")
        pair = (min(f, t), max(f, t))
        if pair in first:
            f0, t0, ln0 = first[pair]
            raise ParseError(f"line {ln}: branch {f}-{t} parallels branch {f0}-{t0} on line {ln0}")
        first[pair] = (f, t, ln)
        x = values[3]
        if x == 0.0:
            raise ParseError(f"line {ln}, column 4: zero reactance on branch {f}-{t}")
        branches.append((f, t, x))
    return MatpowerCaseSubset(
        base_mva=base_mva,
        buses=tuple(buses),
        gens=tuple(gens),
        branches=tuple(branches),
        warnings=tuple(warnings),
    )


def net_injections(case: MatpowerCaseSubset) -> dict:
    """Per-unit net injection (generation minus demand) keyed by bus id."""
    inj = {bid: -pd / case.base_mva for bid, _, pd in case.buses}
    for bid, pg in case.gens:
        inj[bid] += pg / case.base_mva
    return inj


def apply_imax_rule(
    case: MatpowerCaseSubset,
    K: float,
    stochastic_ids,
    controllable_ids,
    gamma: float,
    vol: float,
    tau: float,
    defaults: AnalysisDefaults = None,
    zero_flow_rating: float = None,
) -> NetworkDocument:
    """Turn a case into a document, rating each line at K times its base flow.

    The slack is the case's type-3 bus. The chosen stochastic buses get
    mean-reverting injections whose long-term mean is the bus's base
    injection; every other non-slack bus keeps its base injection as a
    deterministic node, flagged controllable when listed. Lines whose base
    flow is exactly zero have no defined rating: they raise ZeroBaseFlow
    unless `zero_flow_rating` supplies one.
    """
    slack_buses = [bid for bid, btype, _ in case.buses if btype == 3]
    if len(slack_buses) != 1:
        raise RoleError(f"expected exactly one type-3 bus, found {len(slack_buses)}")
    slack = slack_buses[0]
    bus_ids = [bid for bid, _, _ in case.buses]
    stochastic_ids = list(stochastic_ids)
    controllable_ids = list(controllable_ids)
    for bid in stochastic_ids + controllable_ids:
        if bid not in set(bus_ids):
            raise RoleError(f"unknown bus id {bid}")
        if bid == slack:
            raise RoleError(f"bus {bid} is the slack and cannot be reassigned")
    if set(stochastic_ids) & set(controllable_ids):
        raise RoleError("stochastic and controllable bus sets must be disjoint")
    if not stochastic_ids:
        raise RoleError("at least one stochastic bus is required")
    if not (gamma > 0 and vol > 0 and tau > 0):
        raise ValueError("gamma, vol, and tau must be positive")
    _check_square("vol", vol)  # the rule `OuModel` applies to the document's nodes

    inj = net_injections(case)
    nodes = []
    for bid in bus_ids:
        if bid == slack:
            nodes.append(NodeSpec(id=bid, role="slack"))
        elif bid in stochastic_ids:
            nodes.append(NodeSpec(id=bid, role="stochastic", gamma=float(gamma), vol=float(vol), mean=inj[bid]))
        else:
            nodes.append(
                NodeSpec(id=bid, role="deterministic", injection=inj[bid], controllable=bid in controllable_ids)
            )
    lines = [
        LineSpec(from_id=f, to_id=t, susceptance=1.0 / x, rating="auto", tau=float(tau))
        for f, t, x in case.branches
    ]
    doc = NetworkDocument(
        version=SCHEMA_VERSION,
        nodes=tuple(nodes),
        lines=tuple(lines),
        defaults=defaults if defaults is not None else AnalysisDefaults(),
    )
    return resolve_auto_ratings(doc, K, zero_flow_rating=zero_flow_rating)


def _internal_lines(doc: NetworkDocument) -> list:
    """((i, j), position) per document line, i < j its internal node indices, in internal line order."""
    index = doc.index_of
    n = len(index)
    pairs = []
    for line in doc.lines:
        i, j = index[line.from_id], index[line.to_id]
        pairs.append((i, j) if i < j else (j, i))
    # i n + j orders as (i, j) does, and ints compare faster than tuples; ties keep document order
    order = sorted(range(len(pairs)), key=[i * n + j for i, j in pairs].__getitem__)
    return [(pairs[pos], pos) for pos in order]


def line_terminals(doc: NetworkDocument) -> tuple:
    """Each line's end node ids in internal line order: `BuiltModel.line_terminals`, without building."""
    node_ids = doc.node_ids
    return tuple((node_ids[i], node_ids[j]) for (i, j), _ in _internal_lines(doc))


def _document_network(doc: NetworkDocument, ratings):
    """GridNetwork in internal node order plus the line permutation."""
    keyed = _internal_lines(doc)
    order = [pos for _, pos in keyed]
    network = GridNetwork(
        node_count=len(doc.nodes),
        lines=tuple(pair for pair, _ in keyed),
        susceptance=tuple(doc.lines[pos].susceptance for _, pos in keyed),
        current_rating=tuple(ratings[pos] for _, pos in keyed),
        thermal_constant=tuple(doc.lines[pos].tau for _, pos in keyed),
    )
    return network, order


def _base_injection_vector(doc: NetworkDocument) -> np.ndarray:
    """Stochastic means and fixed injections in internal node order; 0 at the slack."""
    values = {n.id: (n.mean if n.role == "stochastic" else n.injection) for n in doc.nodes if n.role != "slack"}
    return np.array([0.0] + [values[nid] for nid in doc.node_ids[1:]])


def resolve_auto_ratings(doc: NetworkDocument, K: float, zero_flow_rating: float = None) -> NetworkDocument:
    """Replace "auto" ratings by K times the absolute deterministic base flow.

    The base flows take one solve with the factored grounded Laplacian
    (`grid_model._network_currents`); C is not assembled, so only the
    SingularReducedLaplacian refusal of `build_flow_matrices` applies here.
    """
    if not K > 1:
        raise ValueError("K must be strictly greater than 1")
    if zero_flow_rating is not None and not zero_flow_rating > 0:
        raise ValueError("zero_flow_rating must be positive")
    if not doc.has_auto_ratings():
        return doc
    # with every rating 1.0 the normalized currents are the base flows
    network, order = _document_network(doc, [1.0] * len(doc.lines))
    base_flow = _network_currents(network, _base_injection_vector(doc))
    scale = np.max(np.abs(base_flow)) if base_flow.size else 0.0
    flow_of_pos = {pos: base_flow[k] for k, pos in enumerate(order)}
    lines = []
    for pos, line in enumerate(doc.lines):
        if line.rating != "auto":
            lines.append(line)
            continue
        f = flow_of_pos[pos]
        if abs(f) <= 1e-12 * max(scale, 1.0):
            if zero_flow_rating is None:
                raise ZeroBaseFlow(pos)
            lines.append(replace(line, rating=float(zero_flow_rating)))
        else:
            lines.append(replace(line, rating=float(K * abs(f))))
    return replace(doc, lines=tuple(lines))


@dataclass(frozen=True)
class BuiltModel:
    """Ready-to-analyze model assembled from a document.

    `line_terminals` gives each internal line's endpoints as original node
    ids, in internal line order, as `line_terminals(document)` does. Nothing
    is stored twice: `network`, `flow`, `op` and `ou` are read from `ctx`, and
    `node_ids` from `document`.
    """

    document: NetworkDocument
    ctx: PsiContext
    line_terminals: tuple

    network = property(attrgetter("ctx.flow.network"))
    flow = property(attrgetter("ctx.flow"))
    op = property(attrgetter("ctx.op"))
    ou = property(attrgetter("ctx.ou"))
    node_ids = property(attrgetter("document.node_ids"))


def build_model(doc: NetworkDocument, epsilon: float = None, horizon: float = None) -> BuiltModel:
    """Assemble network, flow matrices, operating point, and OU model.

    `epsilon` and `horizon` override the document defaults; one of the two
    sources must provide each.
    """
    if doc.has_auto_ratings():
        raise SchemaError('document has unresolved "auto" ratings; apply a rating rule first')
    epsilon = doc.defaults.setting("epsilon", epsilon)
    horizon = doc.defaults.setting("horizon", horizon)
    network, _ = _document_network(doc, [line.rating for line in doc.lines])
    m = len(doc.stochastic_ids)
    flow = build_flow_matrices(network, m)
    stoch = [n for n in doc.nodes if n.role == "stochastic"]
    det = [n for n in doc.nodes if n.role == "deterministic"]
    op = operating_point(flow, [n.mean for n in stoch], [n.injection for n in det])
    ou = OuModel(
        gamma=tuple(n.gamma for n in stoch),
        vol=tuple(n.vol for n in stoch),
        mean=tuple(n.mean for n in stoch),
        noise_scale=float(epsilon),
        horizon=float(horizon),
    )
    node_ids = doc.node_ids
    terminals = tuple((node_ids[i], node_ids[j]) for i, j in network.lines)
    return BuiltModel(document=doc, ctx=PsiContext(flow, op, ou), line_terminals=terminals)


# ---------------------------------------------------------------------------
# exports


def _wants_json(fmt: str) -> bool:
    """True for "json", False for "csv"; every export shares this format check."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    return fmt == "json"


def _csv_doc(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


# one entry of export_report's "lines", laid out as _json_text lays it out:
# %.17g is format(x, ".17g"), and the two ids come in rendered
_REPORT_ROW = (
    '    {\n      "line": %d,\n      "from": %s,\n      "to": %s,\n      "psi_plus": %.17g,\n'
    '      "psi_minus": %.17g,\n      "alpha": %.17g,\n      "psi_alpha": %.17g,\n      "sigma2": %.17g\n    }'
)
_REPORT_CSV_ROW = "%d,%s,%s,%.17g,%.17g,%.17g,%.17g,%.17g"


def _csv_field(value) -> str:
    """str(value), quoted as RFC 4180 asks when it holds a comma, a double quote, CR or LF."""
    text = str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def export_report(report, fmt: str = "json", *, line_terminals) -> str:
    """Render a decay-rate report as JSON or CSV, naming line ell by `line_terminals[ell]`.

    One row per entry of `report.line`, read from the report's columns. CSV
    quotes an id that holds a comma, a double quote, CR or LF.
    """
    ends = [line_terminals[ell] for ell in report.line]
    as_json = _wants_json(fmt)
    # row k holds line report.line[k]'s values, in the order they are written
    values = np.stack([report.psi_plus, report.psi_minus, report.alpha, report.psi_alpha, report.sigma2], axis=1)
    finite = np.isfinite(values)
    if not finite.all():
        # %.17g writes inf and nan where _f17 refuses them; refuse the first in
        # row-major order, the one a writer that formats row by row meets first
        _f17(values[~finite][0])
    render = _json_text if as_json else _csv_field
    name = {nid: render(nid) for nid in dict.fromkeys(nid for pair in ends for nid in pair)}
    rows = [(ell, name[a], name[b], *row) for ell, (a, b), row in zip(report.line, ends, values.tolist())]
    if as_json:
        tail = {
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
        lines = "[\n" + ",\n".join([_REPORT_ROW % row for row in rows]) + "\n  ]" if rows else "[]"
        return '{\n  "lines": ' + lines + "," + _json_text(tail)[1:] + "\n"
    return _csv_doc("line,from,to,psi_plus,psi_minus,alpha,psi_alpha,sigma2", [_REPORT_CSV_ROW % row for row in rows])


def export_region(region, fmt: str = "json") -> str:
    """Render a capacity region's per-line bounds."""
    if _wants_json(fmt):
        out = {
            "kind": region.kind,
            "bounds": [float(b) for b in region.bounds],
            "epsilon": region.epsilon,
            "p": region.p,
            "horizon": region.horizon,
            "tau": None if region.tau is None else [float(t) for t in region.tau],
            "tau0": region.tau0,
        }
        return _json_text(out) + "\n"
    return _csv_doc("line,bound", (f"{k},{_f17(b)}" for k, b in enumerate(region.bounds)))


def export_slice(sl, fmt: str = "json") -> str:
    """Render a slice polygon as JSON or as u,v vertex rows."""
    ring = np.vstack([sl.vertices, sl.vertices[:1]])
    if _wants_json(fmt):
        out = {
            "kind": sl.kind,
            "free": list(sl.free),
            "bbox": list(sl.bbox),
            "area": sl.area,
            "vertices": [[float(x), float(y)] for x, y in ring],
        }
        return _json_text(out) + "\n"
    return _csv_doc("u,v", (f"{_f17(x)},{_f17(y)}" for x, y in ring))


def export_partition(part, fmt: str = "json", *, line_terminals) -> str:
    """Render a risk partition: labeled sub-region summaries or a grid dump.

    JSON carries per-label summaries (cells, area, centroid, line ends from
    `line_terminals`) plus the central label; CSV dumps one row per labeled
    grid cell for plotting.
    """
    if _wants_json(fmt):
        regions = []
        for s in part.summaries:
            regions.append(
                {
                    "lines": list(s.label),
                    "terminals": [list(line_terminals[ell]) for ell in s.label],
                    "cells": s.cells,
                    "area": s.area,
                    "centroid": list(s.centroid),
                }
            )
        out = {
            "free": list(part.free),
            "bbox": list(part.bbox),
            "resolution": part.resolution,
            "central": list(part.central_label),
            "regions": regions,
        }
        return _json_text(out) + "\n"
    # only the labeled cells, in row-major order; each center and label is formatted once
    grid = part.label_grid
    rows, cols = np.nonzero(grid >= 0)
    u = [_f17(x) for x in part.u_centers]
    v = [_f17(x) for x in part.v_centers]
    labels = ["+".join(str(ell) for ell in label) for label in part.labels]
    return _csv_doc(
        "i,j,u,v,label",
        [
            f"{i},{j},{u[j]},{v[i]},{labels[k]}"
            for i, j, k in zip(rows.tolist(), cols.tolist(), grid[rows, cols].tolist())
        ],
    )


def export_mc(epsilons, estimates, seed: int, fmt: str = "json", fit=None) -> str:
    """Render Monte Carlo estimates, one per noise scale, and an optional decay fit.

    `estimates[k]` is the `McEstimate` at noise scale `epsilons[k]`; mode and
    threshold are those of the estimates, and `seed` the base seed they used.
    """
    pairs = list(zip(epsilons, estimates))
    if _wants_json(fmt):
        out = {
            "mode": estimates[0].mode,
            "threshold": estimates[0].threshold,
            "seed": seed,
            "estimates": [
                {
                    "epsilon": eps,
                    "p_hat": est.p_hat,
                    "hits": est.hits,
                    "replicates": est.replicates,
                    "ci": [est.ci_low, est.ci_high],
                }
                for eps, est in pairs
            ],
            "fit": None
            if fit is None
            else {"slope": fit.slope, "rate": fit.rate, "intercept": fit.intercept, "residual": fit.residual},
        }
        return _json_text(out) + "\n"
    return _csv_doc(
        "epsilon,p_hat,ci_low,ci_high,hits,replicates",
        (
            f"{_f17(eps)},{_f17(est.p_hat)},{_f17(est.ci_low)},{_f17(est.ci_high)},{est.hits},{est.replicates}"
            for eps, est in pairs
        ),
    )


def export_exact1d(result) -> str:
    """Render an exact single-line temperature rate, its initial slopes and its terminal temperature as JSON."""
    out = {"rate": result.value, "x1": result.x1, "x2": result.x2, "theta_end": result.shot.theta_end}
    return _json_text(out) + "\n"
