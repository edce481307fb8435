"""Command-line interface.

Subcommands::

    gridcap rates INPUT            per-line decay-rate report
    gridcap region INPUT --kind K  capacity region bounds, slices, partitions
    gridcap exact1d --mu ...       exact single-line temperature decay rate
    gridcap mc INPUT               Monte Carlo overload probabilities
    gridcap convert INPUT          MATPOWER case -> native network document

INPUT is a file path or ``builtin:NAME`` for a bundled network:
``builtin:single-line`` and ``builtin:wheel3`` are native network documents
for ``rates``, ``region`` and ``mc``; ``builtin:case14`` is a MATPOWER case
for ``convert``.

Exit codes are defined in ``errors.py``: 0 success; 2 invalid input or
parameters, an unreadable input file, an unwritable --output path or a
request that does not fit in memory;
3 structurally empty result (empty slice, no stochastic lines, no hits,
collapsed bound); 4 numerical failure. Output is rendered by ``io_formats``
and goes to standard out (or --output), diagnostics to standard error. An
error about one line names it by its end buses, as ``line 3–4``.
"""
from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from importlib import resources

import numpy as np

from .errors import GridCapError, LineError
from .exact1d import Exact1dProblem, exact_decay_rate
from .io_formats import (
    AnalysisDefaults,
    apply_imax_rule,
    build_model,
    export_exact1d,
    export_mc,
    export_partition,
    export_region,
    export_report,
    export_slice,
    line_terminals,
    parse_matpower,
    parse_native,
    serialize_native,
)
from .ld_rates import full_report
from .montecarlo import McConfig, decay_slope, overload_probability
from .region import REGION_KINDS, _check_noise, build_region, risk_partition, slice2d

BUILTINS = {
    "single-line": "single_line.json",
    "wheel3": "wheel3.json",
    "case14": "case14.m",
}


def _read_input(spec: str, matpower: bool = False) -> str:
    """The text of a file or bundled network; `matpower` says which kind the command reads."""
    if spec.startswith("builtin:"):
        name = spec[len("builtin:") :]
        if name not in BUILTINS:
            raise ValueError(f"unknown builtin {name!r}; available: {', '.join(sorted(BUILTINS))}")
        if BUILTINS[name].endswith(".m") != matpower:
            if matpower:
                raise ValueError(f"{spec} is a native network document, not a MATPOWER case; "
                                 "pass it to rates, region or mc directly")
            raise ValueError(f"{spec} is a MATPOWER case; make a native document from it with "
                             f"'gridcap convert {spec}' first")
        return resources.files("gridcap").joinpath("data", BUILTINS[name]).read_text()
    with open(spec) as handle:
        return handle.read()


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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _float_list(text: str):
    return [_finite_float(tok) for tok in text.split(",") if tok.strip()]


def _noise_scales(text: str):
    values = _float_list(text)
    if not values:
        raise argparse.ArgumentTypeError("expected at least one noise scale")
    return values


def _free_indices(doc, text: str):
    """Node indices of the two --slice ids; each token names the document's string id, else its integer."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if len(tokens) != 2:
        raise ValueError("--slice takes exactly two node ids, e.g. --slice 6,9")
    index = doc.index_of
    free = []
    for token in tokens:
        number = _parse_node_id(token)
        named = [nid for nid in dict.fromkeys((token, number)) if nid in index]
        if len(named) == 2:
            raise ValueError(f"--slice {token} is ambiguous: the document has node ids {token!r} and {number!r}")
        if not named:
            raise ValueError(f"unknown node id {number!r}")
        if index[named[0]] == 0:
            raise ValueError(f"node {named[0]!r} is the slack and cannot be a slice axis")
        free.append(index[named[0]])
    return tuple(free)


@contextmanager
def _lines_named(terminals):
    """Name the line of a LineError raised inside as "line a–b", with (a, b) = terminals(line)."""
    try:
        yield
    except GridCapError as exc:  # LineError is a mixin, not an exception class
        if isinstance(exc, LineError) and exc.line is not None:
            exc.name = "line {}–{}".format(*terminals(exc.line))
        raise


def _document_lines(doc):
    """`_lines_named` for the lines of a native document, which errors index in internal order."""
    return _lines_named(lambda ell: line_terminals(doc)[ell])


def cmd_rates(args) -> str:
    doc = parse_native(_read_input(args.input))
    tau0 = args.tau0 if args.tau0 is not None else doc.defaults.tau0
    if args.tau is not None:
        if args.tau < 0:
            raise ValueError("--tau must be non-negative")
        if args.tau > 0:
            doc = replace(doc, lines=tuple(replace(line, tau=args.tau) for line in doc.lines))
        tau0 = args.tau
    with _document_lines(doc):
        bm = build_model(doc, epsilon=args.epsilon, horizon=args.horizon)
        return export_report(full_report(bm.ctx, tau0=tau0), args.format, line_terminals=bm.line_terminals)


def cmd_region(args) -> str:
    doc = parse_native(_read_input(args.input))
    epsilon = doc.defaults.setting("epsilon", args.epsilon, "--epsilon")
    p = doc.defaults.setting("p", args.p, "--p")
    if args.partition and (args.slice is None or args.bbox is None):
        raise ValueError("--partition requires --slice and --bbox")
    if args.slice is not None and args.bbox is None:
        raise ValueError("--slice requires --bbox")
    tau0 = args.tau0 if args.tau0 is not None else doc.defaults.tau0
    with _document_lines(doc):
        bm = build_model(doc, epsilon=epsilon, horizon=args.horizon)
        _check_noise(epsilon, p)  # also on the --partition path, which builds no region
        if args.slice is None:
            return export_region(build_region(bm.ctx, args.kind, epsilon, p, tau0=tau0), args.format)
        free = _free_indices(doc, args.slice)
        fixed = np.concatenate([bm.ou.mean, bm.op.mu_D])
        if args.partition:  # labels the deterministic slice, so the --kind region is never built
            part = risk_partition(bm.ctx, free, fixed, args.bbox, resolution=args.resolution)
            return export_partition(part, args.format, line_terminals=bm.line_terminals)
        sl = slice2d(build_region(bm.ctx, args.kind, epsilon, p, tau0=tau0), bm.flow, free, fixed, args.bbox)
        return export_slice(sl, args.format)


def cmd_exact1d(args) -> str:
    problem = Exact1dProblem(mu=args.mu, gamma=args.gamma, vol=args.vol, tau=args.tau, horizon=args.horizon)
    return export_exact1d(exact_decay_rate(problem))


def cmd_mc(args) -> str:
    doc = parse_native(_read_input(args.input))
    eps_list = args.eps or [doc.defaults.setting("epsilon", flag="--eps")]  # --eps is never an empty list
    config = McConfig(replicates=args.n, step_count=args.steps, seed=args.seed, workers=args.threads)
    with _document_lines(doc):
        ctx = build_model(doc, epsilon=eps_list[0], horizon=args.horizon).ctx
    if len(eps_list) >= 2:
        # the fit runs one estimate per scale; report those rather than rerun them
        fit = decay_slope(ctx, config, eps_list, mode=args.kind, threshold=args.threshold)
        found = fit.estimates
    else:
        fit = None
        found = [overload_probability(ctx, config, mode=args.kind, threshold=args.threshold)]
    return export_mc(eps_list, found, args.seed, args.format, fit=fit)


def cmd_convert(args) -> str:
    case = parse_matpower(_read_input(args.input, matpower=True))
    for warning in case.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    defaults = AnalysisDefaults(epsilon=args.epsilon, p=args.p, horizon=args.horizon, tau0=args.tau0)
    # ZeroBaseFlow indexes the document's lines, which follow the case's branches
    with _lines_named(lambda pos: case.branches[pos][:2]):
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
    return serialize_native(doc)


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
        type=_positive_int,
        default=None,
        help="cap on the processes a Monte Carlo estimate is split over (default: the usable CPUs); "
        "results are identical for any value",
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
    p_mc.add_argument("--eps", type=_noise_scales, default=None, help="comma-separated noise scales")
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
        text = args.func(args)
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w") as handle:
                handle.write(text)
    except GridCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        hint = "; lower --resolution" if getattr(args, "partition", False) else ""
        print(f"error: the request does not fit in memory{hint}", file=sys.stderr)
        return 2
    return 0
