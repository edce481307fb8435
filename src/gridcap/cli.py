"""Command-line interface.

Subcommands::

    gridcap rates INPUT            per-line decay-rate report
    gridcap region INPUT --kind K  capacity region bounds, slices, partitions
    gridcap exact1d --mu ...       exact single-line temperature decay rate
    gridcap mc INPUT               Monte Carlo overload probabilities
    gridcap convert INPUT          MATPOWER case -> native network document

INPUT is a file path or ``builtin:NAME`` for a bundled network
(``builtin:single-line``, ``builtin:wheel3``, ``builtin:case14``).

Exit codes: 0 success; 2 invalid input or parameters; 3 structurally empty
result (empty slice, no stochastic lines, no hits, collapsed bound);
4 numerical failure. Machine-readable output goes to standard out (or
--output), diagnostics to standard error.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from importlib import resources

from .errors import (
    BlowUp,
    BoundCollapse,
    DegenerateF,
    EmptySlice,
    GraphError,
    InfeasibleStart,
    InsufficientHits,
    NegativeRadicand,
    NoBoundaryHit,
    NonPositiveTau,
    NonPositiveVolatility,
    NonUniformGamma,
    NonUniformTau,
    NoStochasticLines,
    ParseError,
    RankDeficiency,
    RoleError,
    SchemaError,
    SingularReducedLaplacian,
    ZeroBaseFlow,
    ZeroVarianceLine,
)
from .exact1d import Exact1dProblem, exact_decay_rate
from .io_formats import (
    AnalysisDefaults,
    _base_injection_vector,
    _f17,
    _json_text,
    apply_imax_rule,
    build_model,
    export_partition,
    export_region,
    export_report,
    export_slice,
    parse_matpower,
    parse_native,
    serialize_native,
)
from .ld_rates import full_report
from .montecarlo import McConfig, decay_slope, overload_probability
from .region import REGION_KINDS, build_region, risk_partition, slice2d

INPUT_ERRORS = (
    SchemaError,
    RoleError,
    GraphError,
    ParseError,
    ZeroBaseFlow,
    InfeasibleStart,
    NonPositiveVolatility,
    NonPositiveTau,
    NonUniformGamma,
    NonUniformTau,
    ZeroVarianceLine,
    ValueError,
    FileNotFoundError,
)
EMPTY_ERRORS = (EmptySlice, NoStochasticLines, InsufficientHits, BoundCollapse)
NUMERIC_ERRORS = (
    BlowUp,
    NoBoundaryHit,
    SingularReducedLaplacian,
    RankDeficiency,
    NegativeRadicand,
    DegenerateF,
)

BUILTINS = {
    "single-line": "single_line.json",
    "wheel3": "wheel3.json",
    "case14": "case14.m",
}


def _read_input(spec: str) -> str:
    if spec.startswith("builtin:"):
        name = spec[len("builtin:") :]
        if name not in BUILTINS:
            raise ValueError(f"unknown builtin {name!r}; available: {', '.join(sorted(BUILTINS))}")
        return resources.files("gridcap").joinpath("data", BUILTINS[name]).read_text()
    with open(spec) as handle:
        return handle.read()


def _emit(text: str, output):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as handle:
            handle.write(text)


def _parse_node_id(token: str):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        return token


def _id_list(text: str):
    return [_parse_node_id(tok) for tok in text.split(",") if tok.strip()]


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _float_list(text: str):
    return [_finite_float(tok) for tok in text.split(",") if tok.strip()]


def _free_indices(doc, text: str):
    ids = _id_list(text)
    if len(ids) != 2:
        raise ValueError("--slice takes exactly two node ids, e.g. --slice 6,9")
    index = doc.index_of
    for nid in ids:
        if nid not in index:
            raise ValueError(f"unknown node id {nid!r}")
        if index[nid] == 0:
            raise ValueError(f"node {nid!r} is the slack and cannot be a slice axis")
    return index[ids[0]], index[ids[1]]


def cmd_rates(args) -> int:
    doc = parse_native(_read_input(args.input))
    tau0 = args.tau0 if args.tau0 is not None else doc.defaults.tau0
    if args.tau is not None:
        if args.tau < 0:
            raise ValueError("--tau must be non-negative")
        if args.tau > 0:
            doc = replace(doc, lines=tuple(replace(line, tau=args.tau) for line in doc.lines))
        tau0 = args.tau
    bm = build_model(doc, epsilon=args.epsilon, horizon=args.horizon)
    report = full_report(bm.ctx, tau0=tau0)
    _emit(export_report(report, args.format, line_terminals=bm.line_terminals), args.output)
    return 0


def cmd_region(args) -> int:
    doc = parse_native(_read_input(args.input))
    epsilon = args.epsilon if args.epsilon is not None else doc.defaults.epsilon
    p = args.p if args.p is not None else doc.defaults.p
    if epsilon is None:
        raise ValueError("--epsilon not given and absent from document defaults")
    if p is None:
        raise ValueError("--p not given and absent from document defaults")
    tau0 = args.tau0 if args.tau0 is not None else doc.defaults.tau0
    bm = build_model(doc, epsilon=epsilon, horizon=args.horizon)
    region = build_region(bm.ctx, args.kind, epsilon, p, tau0=tau0)
    if args.partition:
        if args.slice is None or args.bbox is None:
            raise ValueError("--partition requires --slice and --bbox")
        free = _free_indices(doc, args.slice)
        part = risk_partition(bm.ctx, free, _base_injection_vector(doc)[1:], args.bbox, resolution=args.resolution)
        _emit(export_partition(part, args.format, line_terminals=bm.line_terminals), args.output)
        return 0
    if args.slice is not None:
        if args.bbox is None:
            raise ValueError("--slice requires --bbox")
        free = _free_indices(doc, args.slice)
        sl = slice2d(region, bm.flow, free, _base_injection_vector(doc)[1:], args.bbox)
        _emit(export_slice(sl, args.format), args.output)
        return 0
    _emit(export_region(region, args.format), args.output)
    return 0


def cmd_exact1d(args) -> int:
    problem = Exact1dProblem(mu=args.mu, gamma=args.gamma, vol=args.vol, tau=args.tau, horizon=args.horizon)
    result = exact_decay_rate(problem)
    out = {
        "rate": result.value,
        "x1": result.x1,
        "x2": result.x2,
        "theta_end": result.shot.theta_end,
    }
    _emit(_json_text(out) + "\n", args.output)
    return 0


def cmd_mc(args) -> int:
    doc = parse_native(_read_input(args.input))
    if args.eps is not None:
        eps_list = args.eps
    elif doc.defaults.epsilon is not None:
        eps_list = [doc.defaults.epsilon]
    else:
        raise ValueError("--eps not given and absent from document defaults")
    config = McConfig(replicates=args.n, step_count=args.steps, seed=args.seed)
    fit = None
    if len(eps_list) >= 2:
        # the fit runs one estimate per scale; report those rather than rerun them
        bm = build_model(doc, epsilon=eps_list[0], horizon=args.horizon)
        fit = decay_slope(bm.ctx, config, eps_list, mode=args.kind, threshold=args.threshold)
        found = fit.estimates
    else:
        ctxs = (build_model(doc, epsilon=eps, horizon=args.horizon).ctx for eps in eps_list)
        found = [overload_probability(ctx, config, mode=args.kind, threshold=args.threshold) for ctx in ctxs]
    estimates = list(zip(eps_list, found))
    if args.format == "csv":
        rows = ["epsilon,p_hat,ci_low,ci_high,hits,replicates"]
        for eps, est in estimates:
            rows.append(
                f"{_f17(eps)},{_f17(est.p_hat)},{_f17(est.ci_low)},{_f17(est.ci_high)},{est.hits},{est.replicates}"
            )
        _emit("\n".join(rows) + "\n", args.output)
        return 0
    out = {
        "mode": args.kind,
        "threshold": args.threshold,
        "seed": args.seed,
        "estimates": [
            {
                "epsilon": eps,
                "p_hat": est.p_hat,
                "hits": est.hits,
                "replicates": est.replicates,
                "ci": [est.ci_low, est.ci_high],
            }
            for eps, est in estimates
        ],
        "fit": None
        if fit is None
        else {"slope": fit.slope, "rate": fit.rate, "intercept": fit.intercept, "residual": fit.residual},
    }
    _emit(_json_text(out) + "\n", args.output)
    return 0


def cmd_convert(args) -> int:
    case = parse_matpower(_read_input(args.input))
    for warning in case.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    defaults = AnalysisDefaults(epsilon=args.epsilon, p=args.p, horizon=args.horizon, tau0=args.tau0)
    doc = apply_imax_rule(
        case,
        args.K,
        _id_list(args.stochastic),
        _id_list(args.controllable) if args.controllable else [],
        gamma=args.gamma,
        vol=args.vol,
        tau=args.tau,
        defaults=defaults,
        zero_flow_rating=args.zero_flow_rating,
    )
    _emit(serialize_native(doc), args.output)
    return 0


def _bbox(text: str):
    values = _float_list(text)
    if len(values) != 4:
        raise argparse.ArgumentTypeError("expected umin,umax,vmin,vmax")
    return tuple(values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcap",
        description="Overload decay rates and capacity regions for DC grids with stochastic injections.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="reserved concurrency cap; results are identical for any value",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rates = sub.add_parser("rates", help="per-line decay-rate report")
    p_rates.add_argument("input", help="network document path or builtin:NAME")
    p_rates.add_argument("--epsilon", type=_finite_float, default=None, help="noise scale override")
    p_rates.add_argument("--horizon", type=_finite_float, default=None, help="time horizon override")
    p_rates.add_argument("--tau", type=_finite_float, default=None, help="set every line's thermal constant and tau0; 0 sets only tau0")
    p_rates.add_argument("--tau0", type=_finite_float, default=None, help="first-order rate expansion point")
    p_rates.add_argument("--format", choices=("json", "csv"), default="json")
    p_rates.add_argument("--output", default=None)
    p_rates.set_defaults(func=cmd_rates)

    p_region = sub.add_parser("region", help="capacity region bounds, slices, and partitions")
    p_region.add_argument("input")
    p_region.add_argument("--kind", choices=REGION_KINDS, required=True)
    p_region.add_argument("--epsilon", type=_finite_float, default=None)
    p_region.add_argument("--p", type=_finite_float, default=None, help="target overload probability")
    p_region.add_argument("--horizon", type=_finite_float, default=None)
    p_region.add_argument("--tau0", type=_finite_float, default=None)
    p_region.add_argument("--slice", default=None, metavar="U,V", help="two free node ids")
    p_region.add_argument(
        "--bbox",
        type=_bbox,
        default=None,
        metavar="UMIN,UMAX,VMIN,VMAX",
        help="slice window; write --bbox=-2,2,-2,2 when the first value is negative",
    )
    p_region.add_argument("--partition", action="store_true", help="emit the at-risk-line partition")
    p_region.add_argument("--resolution", type=int, default=400)
    p_region.add_argument("--format", choices=("json", "csv"), default="json")
    p_region.add_argument("--output", default=None)
    p_region.set_defaults(func=cmd_region)

    p_exact = sub.add_parser("exact1d", help="exact single-line temperature decay rate")
    p_exact.add_argument("--mu", type=_finite_float, required=True, help="injection mean, 0 < |mu| < 1")
    p_exact.add_argument("--gamma", type=_finite_float, required=True)
    p_exact.add_argument("--vol", type=_finite_float, required=True)
    p_exact.add_argument("--tau", type=_finite_float, required=True)
    p_exact.add_argument("--T", dest="horizon", type=_finite_float, required=True)
    p_exact.add_argument("--output", default=None)
    p_exact.set_defaults(func=cmd_exact1d)

    p_mc = sub.add_parser("mc", help="Monte Carlo overload probabilities")
    p_mc.add_argument("input")
    p_mc.add_argument("--kind", choices=("current", "temperature"), default="current")
    p_mc.add_argument("--eps", type=_float_list, default=None, help="comma-separated noise scales")
    p_mc.add_argument("--n", type=int, default=10000, help="replicates per noise scale")
    p_mc.add_argument("--steps", type=int, default=200, help="time steps per path")
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--threshold", type=_finite_float, default=1.0)
    p_mc.add_argument("--horizon", type=_finite_float, default=None)
    p_mc.add_argument("--format", choices=("json", "csv"), default="json")
    p_mc.add_argument("--output", default=None)
    p_mc.set_defaults(func=cmd_mc)

    p_conv = sub.add_parser("convert", help="MATPOWER case subset to native document")
    p_conv.add_argument("input")
    p_conv.add_argument("--K", type=_finite_float, required=True, help="rating multiple of the base flow, K > 1")
    p_conv.add_argument("--stochastic", required=True, help="comma-separated bus ids")
    p_conv.add_argument("--controllable", default="", help="comma-separated bus ids")
    p_conv.add_argument("--gamma", type=_finite_float, default=1.0)
    p_conv.add_argument("--vol", type=_finite_float, default=1.0)
    p_conv.add_argument("--tau", type=_finite_float, default=0.5)
    p_conv.add_argument("--epsilon", type=_finite_float, default=None)
    p_conv.add_argument("--p", type=_finite_float, default=None)
    p_conv.add_argument("--horizon", type=_finite_float, default=None)
    p_conv.add_argument("--tau0", type=_finite_float, default=None)
    p_conv.add_argument("--zero-flow-rating", type=_finite_float, default=None, help="rating for lines with zero base flow")
    p_conv.add_argument("--output", default=None)
    p_conv.set_defaults(func=cmd_convert)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EMPTY_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
