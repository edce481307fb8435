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

Node ids are strings or integers. Exactly one node is the slack; every other
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

import numpy as np

from .errors import GraphError, ParseError, RoleError, SchemaError, ZeroBaseFlow
from .grid_model import GridNetwork, build_flow_matrices, operating_point
from .injections import OuModel
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
    "build_model",
    "export_report",
    "export_region",
    "region_from_json",
    "export_slice",
    "export_partition",
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


@dataclass(frozen=True)
class AnalysisDefaults:
    epsilon: float = None
    p: float = None
    horizon: float = None
    tau0: float = None


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


def _expect(cond, path, message):
    if not cond:
        raise SchemaError(f"{path}: {message}")


def _number(value, path, allow_int=True):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number")
    # Python's json accepts NaN, Infinity and out-of-range literals like 1e999
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{path}: expected a finite number, got {number!r}")
    return number


def _check_keys(obj, path, allowed):
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}: unknown key")


def parse_native(text: str) -> NetworkDocument:
    """Parse and validate a native JSON network document.

    Raises SchemaError naming the offending path, RoleError for slack-count
    violations, and GraphError if the line graph is disconnected.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"$: not valid JSON ({exc})") from None
    _expect(isinstance(raw, dict), "$", "expected an object")
    _check_keys(raw, "$", {"format", "version", "nodes", "lines", "defaults"})
    _expect(raw.get("format") == SCHEMA_FORMAT, "$.format", f"expected {SCHEMA_FORMAT!r}")
    _expect(raw.get("version") == SCHEMA_VERSION, "$.version", f"expected {SCHEMA_VERSION}")
    _expect(isinstance(raw.get("nodes"), list) and raw["nodes"], "$.nodes", "expected a non-empty array")
    _expect(isinstance(raw.get("lines"), list) and raw["lines"], "$.lines", "expected a non-empty array")

    nodes = []
    seen_ids = set()
    for k, entry in enumerate(raw["nodes"]):
        path = f"$.nodes[{k}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        _expect("id" in entry, path, "missing id")
        nid = entry["id"]
        _expect(isinstance(nid, (str, int)) and not isinstance(nid, bool), f"{path}.id", "id must be a string or integer")
        _expect(nid not in seen_ids, f"{path}.id", f"duplicate id {nid!r}")
        seen_ids.add(nid)
        role = entry.get("role")
        _expect(role in ROLES, f"{path}.role", f"role must be one of {ROLES}")
        if role == "slack":
            _check_keys(entry, path, {"id", "role"})
            nodes.append(NodeSpec(id=nid, role=role))
        elif role == "stochastic":
            _check_keys(entry, path, {"id", "role", "gamma", "vol", "mean"})
            for field in ("gamma", "vol", "mean"):
                _expect(field in entry, path, f"missing {field}")
            gamma = _number(entry["gamma"], f"{path}.gamma")
            vol = _number(entry["vol"], f"{path}.vol")
            mean = _number(entry["mean"], f"{path}.mean")
            _expect(gamma > 0, f"{path}.gamma", "must be positive")
            _expect(vol > 0, f"{path}.vol", "must be positive")
            nodes.append(NodeSpec(id=nid, role=role, gamma=gamma, vol=vol, mean=mean))
        else:
            _check_keys(entry, path, {"id", "role", "injection", "controllable"})
            _expect("injection" in entry, path, "missing injection")
            injection = _number(entry["injection"], f"{path}.injection")
            controllable = entry.get("controllable", False)
            _expect(isinstance(controllable, bool), f"{path}.controllable", "must be a boolean")
            nodes.append(NodeSpec(id=nid, role=role, injection=injection, controllable=controllable))

    slack_count = sum(1 for n in nodes if n.role == "slack")
    if slack_count != 1:
        raise RoleError(f"expected exactly one slack node, found {slack_count}")
    if not any(n.role == "stochastic" for n in nodes):
        raise RoleError("at least one stochastic node is required")

    lines = []
    seen_pairs = set()
    for k, entry in enumerate(raw["lines"]):
        path = f"$.lines[{k}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        _check_keys(entry, path, {"from", "to", "susceptance", "rating", "tau"})
        for field in ("from", "to", "susceptance", "rating", "tau"):
            _expect(field in entry, path, f"missing {field}")
        f, t = entry["from"], entry["to"]
        _expect(f in seen_ids, f"{path}.from", f"unknown node id {f!r}")
        _expect(t in seen_ids, f"{path}.to", f"unknown node id {t!r}")
        _expect(f != t, path, "self-loop")
        pair = frozenset((f, t))
        _expect(pair not in seen_pairs, path, "duplicate line")
        seen_pairs.add(pair)
        susceptance = _number(entry["susceptance"], f"{path}.susceptance")
        _expect(susceptance > 0, f"{path}.susceptance", "must be positive")
        rating = entry["rating"]
        if rating != "auto":
            rating = _number(rating, f"{path}.rating")
            _expect(rating > 0, f"{path}.rating", "must be positive or \"auto\"")
        tau = _number(entry["tau"], f"{path}.tau")
        _expect(tau > 0, f"{path}.tau", "must be positive")
        lines.append(LineSpec(from_id=f, to_id=t, susceptance=susceptance, rating=rating, tau=tau))

    defaults_raw = raw.get("defaults", {})
    _expect(isinstance(defaults_raw, dict), "$.defaults", "expected an object")
    _check_keys(defaults_raw, "$.defaults", {"epsilon", "p", "horizon", "tau0"})
    defaults = {}
    for field, check, requirement in (
        ("epsilon", lambda v: v >= 0, "must be non-negative"),
        ("p", lambda v: 0 < v < 1, "must lie strictly between 0 and 1"),
        ("horizon", lambda v: v > 0, "must be positive"),
        ("tau0", lambda v: v >= 0, "must be non-negative"),
    ):
        if field in defaults_raw:
            value = _number(defaults_raw[field], f"$.defaults.{field}")
            _expect(check(value), f"$.defaults.{field}", requirement)
            defaults[field] = value

    adjacency = {n.id: set() for n in nodes}
    for line in lines:
        adjacency[line.from_id].add(line.to_id)
        adjacency[line.to_id].add(line.from_id)
    reached = {nodes[0].id}
    frontier = [nodes[0].id]
    while frontier:
        nid = frontier.pop()
        for other in adjacency[nid]:
            if other not in reached:
                reached.add(other)
                frontier.append(other)
    if len(reached) != len(nodes):
        missing = sorted(set(adjacency) - reached, key=repr)
        raise GraphError(f"network is disconnected; unreachable nodes {missing}")

    return NetworkDocument(
        version=SCHEMA_VERSION,
        nodes=tuple(nodes),
        lines=tuple(lines),
        defaults=AnalysisDefaults(**defaults),
    )


def _f17(x) -> str:
    x = float(x)
    # JSON has no literal for inf or nan; CSV refuses them too
    if not math.isfinite(x):
        raise ValueError(f"cannot export the non-finite value {x!r}")
    return format(x, ".17g")


def _json_text(obj, indent=0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(k)}: {_json_text(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(_json_text(v) for v in obj) + "]"
        items = [f"{pad}  {_json_text(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
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
        field: getattr(doc.defaults, field)
        for field in ("epsilon", "p", "horizon", "tau0")
        if getattr(doc.defaults, field) is not None
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
    line reference for malformed numbers, zero reactances, and references to
    undefined buses.
    """
    lines = text.splitlines()
    matrices = {}
    scalars = {}
    warnings = []
    field = None
    rows = None
    row_lines = None
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
                        scalars[name] = float(value)
                    except ValueError:
                        raise ParseError(f"line {ln}: cannot parse mpc.{name} value {value!r}") from None
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
                rows = None
                row_lines = None
    if field is not None:
        raise ParseError(f"line {len(lines)}: unterminated matrix mpc.{field}")

    def numeric(fname, min_cols):
        if fname not in matrices:
            raise ParseError(f"line 1: missing mpc.{fname}")
        out = []
        for tokens, ln in zip(*matrices[fname]):
            if len(tokens) < min_cols:
                raise ParseError(f"line {ln}: mpc.{fname} row needs at least {min_cols} columns")
            values = []
            for col, tok in enumerate(tokens, start=1):
                try:
                    values.append(float(tok))
                except ValueError:
                    raise ParseError(f"line {ln}, column {col}: cannot parse {tok!r}") from None
            out.append((values, ln))
        return out

    if "baseMVA" not in scalars:
        raise ParseError("line 1: missing mpc.baseMVA")
    base_mva = scalars["baseMVA"]
    if not base_mva > 0:
        raise ParseError("line 1: baseMVA must be positive")

    buses = []
    bus_ids = set()
    for values, ln in numeric("bus", 3):
        bid = int(values[0])
        if bid in bus_ids:
            raise ParseError(f"line {ln}: duplicate bus {bid}")
        bus_ids.add(bid)
        buses.append((bid, int(values[1]), values[2]))
    gens = []
    for values, ln in numeric("gen", 2):
        bid = int(values[0])
        if bid not in bus_ids:
            raise ParseError(f"line {ln}: generator references undefined bus {bid}")
        gens.append((bid, values[1]))
    branches = []
    for values, ln in numeric("branch", 4):
        f, t = int(values[0]), int(values[1])
        for bid in (f, t):
            if bid not in bus_ids:
                raise ParseError(f"line {ln}: branch references undefined bus {bid}")
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


def _document_network(doc: NetworkDocument, ratings):
    """GridNetwork in internal node order plus the line permutation."""
    index = doc.index_of
    keyed = []
    for pos, line in enumerate(doc.lines):
        i, j = index[line.from_id], index[line.to_id]
        if i > j:
            i, j = j, i
        keyed.append(((i, j), pos))
    keyed.sort()
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
    """Replace "auto" ratings by K times the absolute deterministic base flow."""
    if not K > 1:
        raise ValueError("K must be strictly greater than 1")
    if not doc.has_auto_ratings():
        return doc
    placeholder = [1.0 if line.rating == "auto" else line.rating for line in doc.lines]
    network, order = _document_network(doc, placeholder)
    flow = build_flow_matrices(network, len(doc.stochastic_ids))
    base_flow = flow.transfer @ _base_injection_vector(doc)
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
    ids, in internal line order.
    """

    document: NetworkDocument
    network: GridNetwork
    flow: object
    op: object
    ou: OuModel
    ctx: PsiContext
    node_ids: tuple
    line_terminals: tuple


def build_model(doc: NetworkDocument, epsilon: float = None, horizon: float = None) -> BuiltModel:
    """Assemble network, flow matrices, operating point, and OU model.

    `epsilon` and `horizon` override the document defaults; one of the two
    sources must provide each.
    """
    if doc.has_auto_ratings():
        raise SchemaError('document has unresolved "auto" ratings; apply a rating rule first')
    if epsilon is None:
        epsilon = doc.defaults.epsilon
    if horizon is None:
        horizon = doc.defaults.horizon
    if epsilon is None:
        raise ValueError("epsilon not given and absent from document defaults")
    if horizon is None:
        raise ValueError("horizon not given and absent from document defaults")
    ratings = [line.rating for line in doc.lines]
    network, _ = _document_network(doc, ratings)
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
    ctx = PsiContext(flow, op, ou)
    node_ids = doc.node_ids
    terminals = tuple((node_ids[i], node_ids[j]) for i, j in network.lines)
    return BuiltModel(
        document=doc,
        network=network,
        flow=flow,
        op=op,
        ou=ou,
        ctx=ctx,
        node_ids=node_ids,
        line_terminals=terminals,
    )


# ---------------------------------------------------------------------------
# exports


def _terminals_or_default(report_terminals, line_terminals, line):
    if line_terminals is not None:
        return tuple(line_terminals[line])
    return tuple(report_terminals)


def export_report(report, fmt: str = "json", line_terminals=None) -> str:
    """Render a decay-rate report as JSON or a per-line CSV table."""
    if fmt == "json":
        lines = [
            {
                "line": lr.line,
                "from": _terminals_or_default(lr.terminals, line_terminals, lr.line)[0],
                "to": _terminals_or_default(lr.terminals, line_terminals, lr.line)[1],
                "psi_plus": lr.psi_plus,
                "psi_minus": lr.psi_minus,
                "alpha": lr.alpha,
                "psi_alpha": lr.psi_alpha,
                "sigma2": lr.sigma2,
            }
            for lr in report.lines
        ]
        out = {
            "lines": lines,
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
        return _json_text(out) + "\n"
    if fmt == "csv":
        rows = ["line,from,to,psi_plus,psi_minus,alpha,psi_alpha,sigma2"]
        for lr in report.lines:
            a, b = _terminals_or_default(lr.terminals, line_terminals, lr.line)
            rows.append(
                f"{lr.line},{a},{b},{_f17(lr.psi_plus)},{_f17(lr.psi_minus)},"
                f"{_f17(lr.alpha)},{_f17(lr.psi_alpha)},{_f17(lr.sigma2)}"
            )
        return "\n".join(rows) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def export_region(region, fmt: str = "json") -> str:
    """Render a capacity region's per-line bounds."""
    if fmt == "json":
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
    if fmt == "csv":
        rows = ["line,bound"] + [f"{k},{_f17(b)}" for k, b in enumerate(region.bounds)]
        return "\n".join(rows) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def region_from_json(text: str):
    """Rebuild a capacity region from its JSON export (exact round trip)."""
    from .region import REGION_KINDS, CapacityRegion

    raw = json.loads(text)
    if not isinstance(raw, dict) or raw.get("kind") not in REGION_KINDS:
        raise SchemaError("$.kind: not a capacity region export")
    return CapacityRegion(
        kind=raw["kind"],
        bounds=np.asarray(raw["bounds"], dtype=float),
        epsilon=raw["epsilon"],
        p=raw["p"],
        horizon=raw["horizon"],
        tau=None if raw.get("tau") is None else np.asarray(raw["tau"], dtype=float),
        tau0=raw.get("tau0"),
    )


def export_slice(sl, fmt: str = "json") -> str:
    """Render a slice polygon as JSON or as u,v vertex rows."""
    if fmt == "json":
        ring = np.vstack([sl.vertices, sl.vertices[:1]])
        out = {
            "kind": sl.kind,
            "free": list(sl.free),
            "bbox": list(sl.bbox),
            "area": sl.area,
            "vertices": [[float(x), float(y)] for x, y in ring],
        }
        return _json_text(out) + "\n"
    if fmt == "csv":
        ring = np.vstack([sl.vertices, sl.vertices[:1]])
        rows = ["u,v"] + [f"{_f17(x)},{_f17(y)}" for x, y in ring]
        return "\n".join(rows) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def export_partition(part, fmt: str = "json", line_terminals=None) -> str:
    """Render a risk partition: labeled sub-region summaries or a grid dump.

    JSON carries per-label summaries (cells, area, centroid) plus the
    central label; CSV dumps one row per labeled grid cell for plotting.
    """
    if fmt == "json":
        regions = []
        for s in part.summaries:
            terminals = [list(line_terminals[ell]) if line_terminals is not None else list(t) for ell, t in zip(s.label, s.terminals)]
            regions.append(
                {
                    "lines": list(s.label),
                    "terminals": terminals,
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
    if fmt == "csv":
        rows = ["i,j,u,v,label"]
        grid = part.label_grid
        for i in range(grid.shape[0]):
            for j in range(grid.shape[1]):
                idx = grid[i, j]
                if idx < 0:
                    continue
                label = "+".join(str(ell) for ell in part.labels[idx])
                rows.append(f"{i},{j},{_f17(part.u_centers[j])},{_f17(part.v_centers[i])},{label}")
        return "\n".join(rows) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
