"""The benchmark's three workloads.

Each workload drives the package through its public functions, in the order
the CLI calls them, as one caller in one process (a closed loop: the next op
starts when the previous one returns). Constructing a workload builds its
inputs from the seed; that is the timed set-up. `prepare` then runs the
one-time set-up checks, `run_op` is the measured op, `check` validates an
op's outputs, `inner` re-times wrapped calls in traced ops, and
`cli_parity` compares the composed pipeline's exported bytes with
`gridcap.cli.main` run in-process on the same arguments.

Workloads and why they were chosen:

grid_screen
    Synthetic 1000-bus ring-with-chords grid (see synthgrid.py). Network
    size dominates: grid_model, ld_rates and io_formats do nearly all the
    work and montecarlo and exact1d do none, so Monte Carlo and exact-rate
    changes should show no change here. A risk partition is deliberately
    left out: its rate tensor needs about 1,500 lines x 640k cells of
    float64, far beyond this machine's memory, and the partition's int64
    bitmask mislabels cells once more than 63 lines are stochastic.
case14_study
    The bundled IEEE 14-bus case, converted as in acceptance criterion 6.
    The grid is tiny, so assembly is negligible; region runs its cell-grid
    partition path and montecarlo with its Philox streams dominates. At
    epsilon 4e-4 temperature overloads stay rare, which leaves room for an
    importance sampler to show a gain. Two op types alternate: a map
    (risk_partition at resolution 800) and an estimate (20,000 replicates
    x 200 steps).
exact_lags
    The paper's six-row exact column: only exact1d and SciPy's ODE solver
    run. This is where a faster exact-rate engine must show its gain. Each
    row is one op, so a round of the loop computes the table once.
"""
from __future__ import annotations

import ast
import contextlib
import json
import os
import statistics
import time
from importlib import resources

import numpy as np

from gridcap import (
    REGION_KINDS,
    AnalysisDefaults,
    Exact1dProblem,
    McConfig,
    apply_imax_rule,
    build_flow_matrices,
    build_model,
    build_region,
    exact_decay_rate,
    export_partition,
    export_region,
    export_report,
    export_slice,
    full_report,
    noise_margins,
    overload_indicators,
    parse_matpower,
    parse_native,
    risk_partition,
    serialize_native,
    slice2d,
    wilson_interval,
)
from gridcap._streams import normal_block
from gridcap.cli import main as cli_main

from synthgrid import RATING_FLOOR_RULE, synthetic_grid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _median_tail(values):
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n >= 11:
        # the k-th smallest leaves n - k samples beyond it
        k = n - 10
        tail = (round(100.0 * k / n, 1), ordered[k - 1])
    return statistics.median(ordered), tail, n


def timing_info(name, values, unit="s"):
    median, tail, n = _median_tail(values)
    return {"name": name, "value": median, "unit": unit, "tail": tail, "samples": n}


def _run_cli(tracer, span, argv, out_path):
    """Run the CLI in-process; return its output bytes, or raise on a non-zero exit."""
    with tracer.span(span):
        code = cli_main(argv + ["--output", out_path])
    if code != 0:
        raise RuntimeError(f"gridcap {' '.join(argv)} exited {code}")
    with open(out_path, "rb") as handle:
        return handle.read()


class GridScreen:
    name = "grid_screen"
    op_kinds = ("screen",)

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer
        self.grid = synthetic_grid(seed)
        self.text = serialize_native(self.grid.document)
        self.stochastic_lines_times = []

    def facts(self):
        return {
            "buses": self.grid.buses,
            "lines": self.grid.lines,
            "stochastic": self.grid.stochastic,
            "max_abs_nu": self.max_abs_nu,
            "rating_floor": self.grid.rating_floor,
            "rating_rule": RATING_FLOOR_RULE,
        }

    def prepare(self):
        """Check once that every region kind and its slice builds; build the transfer reference."""
        import scipy.sparse
        import scipy.sparse.linalg

        doc = self.grid.document
        bm = build_model(doc)
        self.max_abs_nu = float(np.max(np.abs(bm.op.nu)))
        # the first two stochastic nodes are internal indices 1 and 2
        self.free = (1, 2)
        u, v = bm.ou.mean[0], bm.ou.mean[1]
        self.bbox = (float(u) - 3.0, float(u) + 3.0, float(v) - 3.0, float(v) + 3.0)
        self.eps, self.p, self.tau0 = doc.defaults.epsilon, doc.defaults.p, doc.defaults.tau0
        fixed = np.concatenate([bm.ou.mean, bm.op.mu_D])
        for kind in REGION_KINDS:
            slice2d(build_region(bm.ctx, kind, self.eps, self.p, tau0=self.tau0), bm.flow, self.free, fixed, self.bbox)

        # Independent reference for transfer @ s: a sparse grounded-Laplacian
        # solve in the document's own node ids, slack (id 1) grounded.
        rng = np.random.default_rng([self.seed, 7])
        ids = [n.id for n in doc.nodes]
        pos = {nid: k for k, nid in enumerate(ids)}
        s_doc = rng.uniform(-1.0, 1.0, size=len(ids))
        rows, cols, vals = [], [], []
        beta = {}
        for line in doc.lines:
            a, b = pos[line.from_id], pos[line.to_id]
            beta[frozenset((line.from_id, line.to_id))] = line.susceptance
            rows += [a, b, a, b]
            cols += [a, b, b, a]
            vals += [line.susceptance, line.susceptance, -line.susceptance, -line.susceptance]
        lap = scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(len(ids), len(ids)))
        slack = pos[doc.slack_id]
        keep = [k for k in range(len(ids)) if k != slack]
        theta = np.zeros(len(ids))
        theta[keep] = scipy.sparse.linalg.spsolve(lap[keep][:, keep], s_doc[keep])
        self.s_internal = np.array([s_doc[pos[nid]] for nid in bm.node_ids])
        self.flow_reference = np.array(
            [beta[frozenset((a, b))] * (theta[pos[a]] - theta[pos[b]]) for a, b in bm.line_terminals]
        )
        return []

    def run_op(self, kind):
        span = self.tracer.span
        with span("io_formats.parse_native"):
            doc = parse_native(self.text)
        with span("io_formats.build_model"):
            bm = build_model(doc)
        with span("ld_rates.full_report"):
            report = full_report(bm.ctx, tau0=self.tau0)
        with span("io_formats.export_report"):
            exported = [export_report(report, "json", line_terminals=bm.line_terminals)]
        fixed = np.concatenate([bm.ou.mean, bm.op.mu_D])
        regions = {}
        for region_kind in REGION_KINDS:
            with span("region.build_region"):
                region = build_region(bm.ctx, region_kind, self.eps, self.p, tau0=self.tau0)
            with span("region.slice2d"):
                sl = slice2d(region, bm.flow, self.free, fixed, self.bbox)
            with span("io_formats.export_region"):
                exported.append(export_region(region))
            with span("io_formats.export_slice"):
                exported.append(export_slice(sl))
            regions[region_kind] = region
        return bm, report, regions, exported

    def check(self, kind, result):
        bm, _, regions, exported = result
        problems = []
        flows = bm.flow.transfer @ self.s_internal
        scale = np.max(np.abs(self.flow_reference))
        if not np.allclose(flows, self.flow_reference, rtol=1e-9, atol=1e-9 * scale):
            err = np.max(np.abs(flows - self.flow_reference)) / scale
            problems.append(f"transfer @ s differs from the sparse Laplacian solve by {err:.3g} (relative)")
        live = list(bm.ctx.stochastic_lines)
        beta = noise_margins(bm.ctx, self.eps, self.p)
        det = regions["deterministic"].bounds[live]
        cur = regions["current"].bounds[live]
        lb = regions["temperature_lb"].bounds[live]
        tl = regions["temperature_taylor"].bounds[live]
        chain = (
            np.all(det == 1.0)
            and np.all(cur <= lb + 1e-12)
            and np.all(cur <= tl + 1e-12)
            and np.all(lb < 1.0)
            and np.all(tl < 1.0)
            and np.all(lb > 1.0 - beta[live] - 1e-12)
        )
        if not chain:
            problems.append("region bounds break the inclusion chain of acceptance criterion 5")
        if len(json.loads(exported[0])["lines"]) != len(live):
            problems.append("exported report does not list every stochastic line")
        self.bytes_out = sum(len(text.encode()) for text in exported)
        self.last_report = exported[0]
        self.counts = {
            "grid_model.nodes": bm.flow.node_count,
            "grid_model.lines": bm.flow.line_count,
            "grid_model.stochastic_nodes": bm.flow.m,
        }
        return problems

    def inner(self, kind, result):
        bm = result[0]
        self.tracer.add_inner(
            "grid_model.build_flow_matrices", "io_formats.build_model", lambda: build_flow_matrices(bm.network, bm.flow.m)
        )
        for _ in range(10):
            start = time.perf_counter()
            bm.ctx.stochastic_lines
            self.stochastic_lines_times.append(time.perf_counter() - start)

    def cli_parity(self, workdir):
        path = os.path.join(workdir, "grid.json")
        with open(path, "w") as handle:
            handle.write(self.text)
        cli_bytes = _run_cli(self.tracer, "cli.rates", ["rates", path], os.path.join(workdir, "rates.json"))
        if cli_bytes != self.last_report.encode():
            return ["gridcap rates output differs from export_report of the composed pipeline"]
        return []

    def summary(self, times):
        return [timing_info("screen_s", times["screen"])]

    def layer_metrics(self):
        t = self.tracer
        return {
            "io_formats.parse_native_s": t.median_per_op("io_formats.parse_native"),
            "io_formats.build_model_self_s": t.median_per_op("io_formats.build_model", self_only=True),
            "io_formats.export_s": t.median_per_op(
                "io_formats.export_report", "io_formats.export_region", "io_formats.export_slice"
            ),
            "io_formats.bytes_out": self.bytes_out,
            "grid_model.build_flow_matrices_s": t.median_per_op("grid_model.build_flow_matrices"),
            **self.counts,
            "ld_rates.full_report_s": t.median_per_op("ld_rates.full_report"),
            "ld_rates.stochastic_lines_s": statistics.median(self.stochastic_lines_times),
            "region.build_region_s": t.median_per_op("region.build_region"),
            "region.slice2d_s": t.median_per_op("region.slice2d"),
            "cli.rates_s": t.median_per_op("cli.rates"),
        }

    def sanity(self, layers):
        lines = layers["grid_model.lines"]
        per_line = layers["ld_rates.stochastic_lines_s"]
        return [
            f"grid_model.build_flow_matrices_s = {layers['grid_model.build_flow_matrices_s']:.3f} s at "
            f"{layers['grid_model.nodes']} buses; ROADMAP baseline ~1.5 s at 1,000 buses",
            f"ld_rates.full_report_s = {layers['ld_rates.full_report_s']:.3f} s; lines x stochastic_lines_s = "
            f"{lines} x {per_line * 1e3:.3f} ms = {lines * per_line:.3f} s (full_report repeats that call once "
            "per line, the ROADMAP's quadratic term)",
        ]


CASE14_STOCHASTIC = (2, 3)
CASE14_CONTROLLABLE = (6, 9)
CASE14_EPSILON = 4e-4
CASE14_RESOLUTION = 800
CASE14_CENTRAL = frozenset([frozenset((3, 4))])
CASE14_REQUIRED = ((9, 10), (5, 6), (7, 9), (10, 11))
CASE14_DEFAULTS = AnalysisDefaults(epsilon=CASE14_EPSILON, p=1e-4, horizon=1.0, tau0=0.5)
CASE14_CONVERT_ARGS = [
    "--K", "1.5", "--stochastic", "2,3", "--controllable", "6,9", "--gamma", "1", "--vol", "10",
    "--tau", "0.5", "--zero-flow-rating", "1", "--epsilon", "0.0004", "--p", "0.0001",
    "--horizon", "1", "--tau0", "0.5",
]


class Case14Study:
    name = "case14_study"
    op_kinds = ("map", "estimate")

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer
        text = resources.files("gridcap").joinpath("data", "case14.m").read_text()
        with tracer.span("io_formats.convert"):
            case = parse_matpower(text)
            self.doc = apply_imax_rule(
                case, 1.5, CASE14_STOCHASTIC, CASE14_CONTROLLABLE, gamma=1.0, vol=10.0, tau=0.5,
                defaults=CASE14_DEFAULTS, zero_flow_rating=1.0,
            )
        with tracer.span("io_formats.build_model"):
            self.bm = build_model(self.doc)
        bm = self.bm
        self.free = (bm.node_ids.index(6), bm.node_ids.index(9))
        self.fixed = np.concatenate([bm.ou.mean, bm.op.mu_D])
        det = build_region(bm.ctx, "deterministic", CASE14_EPSILON, 1e-4)
        sl = slice2d(det, bm.flow, self.free, self.fixed, (-10.0, 10.0, -10.0, 10.0))
        (umin, vmin), (umax, vmax) = sl.vertices.min(axis=0), sl.vertices.max(axis=0)
        pad_u, pad_v = 0.05 * (umax - umin), 0.05 * (vmax - vmin)
        self.bbox = tuple(float(x) for x in (umin - pad_u, umax + pad_u, vmin - pad_v, vmax + pad_v))
        self.config = McConfig(replicates=20_000, step_count=200, seed=seed)
        self.hits = None

    def facts(self):
        return {
            "buses": self.bm.flow.node_count,
            "lines": self.bm.flow.line_count,
            "stochastic": self.bm.flow.m,
            "bbox": list(self.bbox),
            "resolution": CASE14_RESOLUTION,
            "mc": {"replicates": self.config.replicates, "steps": self.config.step_count, "seed": self.seed,
                   "epsilon": CASE14_EPSILON},
        }

    def prepare(self):
        """Warm the partition path once and check it."""
        return self.check("map", self.run_op("map"))

    def run_op(self, kind):
        span = self.tracer.span
        bm = self.bm
        if kind == "map":
            with span("region.risk_partition"):
                part = risk_partition(bm.ctx, self.free, self.fixed, self.bbox, resolution=CASE14_RESOLUTION)
            with span("io_formats.export_partition"):
                text = export_partition(part, "json", line_terminals=bm.line_terminals)
            return part, text
        with span("montecarlo.overload_indicators"):
            ind = overload_indicators(bm.ctx, self.config)
        n = self.config.replicates
        estimates = {}
        for mode, hits_arr in (("current", ind.current), ("temperature", ind.temperature)):
            hits = int(np.count_nonzero(hits_arr))
            with span("montecarlo.wilson_interval"):
                estimates[mode] = (hits, *wilson_interval(hits, n))
        return ind, estimates

    def check(self, kind, result):
        terminals = self.bm.line_terminals
        if kind == "map":
            part, _ = result
            labels = [frozenset(frozenset(terminals[i]) for i in s.label) for s in part.summaries]
            central = frozenset(frozenset(terminals[i]) for i in part.central_label)
            self.partition_labels = len(part.labels)
            self.last_map = result[1]
            problems = []
            if central != CASE14_CENTRAL:
                problems.append(f"central label {sorted(map(sorted, central))} is not line (3,4)")
            for pair in CASE14_REQUIRED:
                if not any(frozenset(pair) in label for label in labels):
                    problems.append(f"required label {pair} missing from the map")
            return problems
        ind, estimates = result
        problems = []
        if not ind.current[ind.temperature].all():
            problems.append("a temperature hit is not a current hit")
        hits = (estimates["current"][0], estimates["temperature"][0])
        if self.hits is None:
            self.hits = hits
            self.estimates = estimates
        elif hits != self.hits:
            problems.append(f"hit counts {hits} differ from the first estimate's {self.hits}")
        return problems

    def inner(self, kind, result):
        if kind != "estimate":
            return
        cfg, m = self.config, self.bm.ou.m

        def draws():
            for r in range(cfg.replicates):
                normal_block(cfg.seed, r, cfg.step_count, m)

        self.tracer.add_inner("streams.normal_block", "montecarlo.overload_indicators", draws)

    def cli_parity(self, workdir):
        problems = []
        doc_path = os.path.join(workdir, "case14.json")
        converted = _run_cli(self.tracer, "cli.convert", ["convert", "builtin:case14", *CASE14_CONVERT_ARGS], doc_path)
        if converted != serialize_native(self.doc).encode():
            problems.append("gridcap convert output differs from serialize_native of the converted case")
        bbox = ",".join(repr(x) for x in self.bbox)
        argv = ["region", doc_path, "--kind", "deterministic", "--slice", "6,9", f"--bbox={bbox}",
                "--partition", "--resolution", str(CASE14_RESOLUTION)]
        cli_map = _run_cli(self.tracer, "cli.region_partition", argv, os.path.join(workdir, "map.json"))
        if cli_map != self.last_map.encode():
            problems.append("gridcap region --partition output differs from export_partition")
        cfg = self.config
        argv = ["mc", doc_path, "--kind", "current", "--eps", repr(CASE14_EPSILON), "--n", str(cfg.replicates),
                "--steps", str(cfg.step_count), "--seed", str(cfg.seed)]
        out = json.loads(_run_cli(self.tracer, "cli.mc", argv, os.path.join(workdir, "mc.json")))
        hits, low, high = self.estimates["current"]
        estimate = out["estimates"][0]
        if (estimate["hits"], estimate["ci"]) != (hits, [low, high]):
            problems.append(f"gridcap mc reports {estimate['hits']} hits, the benchmark {hits}")
        return problems

    def summary(self, times):
        n = self.config.replicates
        steps = n * self.config.step_count
        partition = timing_info("partition_s", times["map"])
        estimate = timing_info("estimate_s", times["estimate"])
        info = [partition, estimate, {"name": "mc_replicate_steps_per_s", "value": steps / estimate["value"],
                                      "unit": "1/s", "samples": estimate["samples"]}]
        for mode in ("current", "temperature"):
            hits, low, high = self.estimates[mode]
            p_hat = hits / n
            # with no hits the relative error, and so the time to 10 %, is undefined
            share = (high - low) / 2.0 / p_hat / 0.10 if hits else float("nan")
            info.append({"name": f"mc_{mode}_s_to_10pct", "value": estimate["value"] * share**2, "unit": "s",
                         "samples": estimate["samples"], "note": f"{hits} hits in {n}"})
        return info

    def layer_metrics(self):
        t = self.tracer
        risk = t.median_per_op("region.risk_partition")
        cfg = self.config
        n = cfg.replicates
        current, temperature = self.hits
        return {
            "io_formats.convert_s": t.median_per_op("io_formats.convert"),
            "io_formats.export_partition_s": t.median_per_op("io_formats.export_partition"),
            "grid_model.nodes": self.bm.flow.node_count,
            "grid_model.lines": self.bm.flow.line_count,
            "grid_model.stochastic_nodes": self.bm.flow.m,
            "region.risk_partition_s": risk,
            "region.partition_cells_per_s": CASE14_RESOLUTION**2 / risk,
            "region.partition_labels": self.partition_labels,
            "montecarlo.overload_indicators_s": t.median_per_op("montecarlo.overload_indicators"),
            "montecarlo.step_self_s": t.median_per_op("montecarlo.overload_indicators", self_only=True),
            "montecarlo.replicates": n,
            "montecarlo.replicate_steps": n * cfg.step_count,
            "montecarlo.current_hits": current,
            "montecarlo.temperature_hits": temperature,
            "montecarlo.current_hit_ratio": current / n,
            "montecarlo.temperature_hit_ratio": temperature / n,
            "streams.normal_block_s": t.median_per_op("streams.normal_block"),
            "streams.draws": n * cfg.step_count * self.bm.ou.m,
            "cli.region_partition_s": t.median_per_op("cli.region_partition"),
            "cli.mc_s": t.median_per_op("cli.mc"),
        }

    def sanity(self, layers):
        return [
            f"region.risk_partition_s = {layers['region.risk_partition_s']:.3f} s at {CASE14_RESOLUTION}^2 cells; "
            "ROADMAP baseline 78 ms at 400^2 (4x fewer cells)",
            f"montecarlo.overload_indicators_s = {layers['montecarlo.overload_indicators_s']:.3f} s for "
            f"{self.config.replicates} replicates = "
            f"{layers['montecarlo.overload_indicators_s'] / self.config.replicates * 1e6:.1f} us per "
            "200-step replicate; ROADMAP baseline ~40 us",
        ]


EXACT_TAUS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
EXACT_TOLERANCE = 1e-4


def reference_rates():
    """The certified rates `REFERENCE_RATES` from tests/test_exact1d.py, read without importing it."""
    path = os.path.join(ROOT, "tests", "test_exact1d.py")
    with open(path) as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "REFERENCE_RATES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"REFERENCE_RATES not found in {path}")


@contextlib.contextmanager
def _count_solve_ivp(counter):
    """Count scipy.integrate.solve_ivp calls, whether exact1d bound the name at import or looks it up late."""
    import scipy.integrate

    from gridcap import exact1d

    original = scipy.integrate.solve_ivp

    def counting(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    targets = [scipy.integrate] + ([exact1d] if getattr(exact1d, "solve_ivp", None) is original else [])
    for target in targets:
        target.solve_ivp = counting
    try:
        yield
    finally:
        for target in targets:
            target.solve_ivp = original


class ExactLags:
    """One op is one row of the table; a round of the loop computes the whole table."""

    name = "exact_lags"
    op_kinds = tuple(f"tau_{tau}" for tau in EXACT_TAUS)

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer
        self.problems = {
            f"tau_{tau}": Exact1dProblem(mu=0.5, gamma=0.5, vol=1.0, tau=tau, horizon=1.0) for tau in EXACT_TAUS
        }
        self.ode_solves = {kind: [] for kind in self.op_kinds}
        self.last = {}

    def facts(self):
        return {"taus": list(EXACT_TAUS), "mu": 0.5, "gamma": 0.5, "vol": 1.0, "horizon": 1.0,
                "cli_row": self.cli_row}

    @property
    def cli_row(self):
        return self.op_kinds[self.seed % len(self.op_kinds)]

    def prepare(self):
        self.reference = reference_rates()
        return [f"no certified rate for tau {tau}" for tau in EXACT_TAUS if tau not in self.reference]

    def run_op(self, kind):
        counter = [0]
        counting = _count_solve_ivp(counter) if self.tracer.enabled else contextlib.nullcontext()
        with counting, self.tracer.span(f"exact1d.exact_decay_rate.{kind}"):
            result = exact_decay_rate(self.problems[kind])
        if self.tracer.enabled:
            self.ode_solves[kind].append(counter[0])
        return result

    def check(self, kind, result):
        self.last[kind] = result
        ref = self.reference[self.problems[kind].tau]
        if not abs(result.value - ref) <= EXACT_TOLERANCE * abs(ref):
            return [f"{kind}: rate {result.value!r} is not within {EXACT_TOLERANCE} relative of {ref!r}"]
        return []

    def inner(self, kind, result):
        pass

    def cli_parity(self, workdir):
        problem = self.problems[self.cli_row]
        argv = ["exact1d", "--mu", repr(problem.mu), "--gamma", repr(problem.gamma), "--vol", repr(problem.vol),
                "--tau", repr(problem.tau), "--T", repr(problem.horizon)]
        out = json.loads(_run_cli(self.tracer, "cli.exact1d", argv, os.path.join(workdir, "exact1d.json")))
        res = self.last[self.cli_row]
        ours = {"rate": res.value, "x1": res.x1, "x2": res.x2, "theta_end": res.shot.theta_end}
        if out != ours:
            return [f"gridcap exact1d reports {out}, the composed pipeline {ours}"]
        return []

    def summary(self, times):
        table = sum(statistics.median(times[kind]) for kind in self.op_kinds)
        rows = [timing_info(f"exact_row_s.{kind}", times[kind]) for kind in self.op_kinds]
        return [{"name": "exact_table_s", "value": table, "unit": "s", "samples": min(len(v) for v in times.values()),
                 "note": "sum of the per-row medians"}] + rows

    def layer_metrics(self):
        t = self.tracer
        out = {f"exact1d.exact_decay_rate_s.{kind}": t.median_per_op(f"exact1d.exact_decay_rate.{kind}")
               for kind in self.op_kinds}
        out["exact1d.ode_solves"] = sum(statistics.median(counts) for counts in self.ode_solves.values())
        out["cli.exact1d_s"] = t.median_per_op("cli.exact1d")
        return out

    def sanity(self, layers):
        rows = [layers[f"exact1d.exact_decay_rate_s.{kind}"] for kind in self.op_kinds]
        return [
            f"exact1d: {statistics.mean(rows):.3f} s per row on average ({min(rows):.3f}-{max(rows):.3f} s), "
            f"{layers['exact1d.ode_solves'] / len(rows):.0f} solve_ivp calls per row; "
            "ROADMAP baseline 0.80 s and 325 calls per row"
        ]


WORKLOADS = {cls.name: cls for cls in (GridScreen, Case14Study, ExactLags)}
