"""Capacity regions: operating points whose overload probability stays small.

For mean-reverting injections every region used here is an intersection of
per-line slabs on the normalized current nu_ell(mubar), which is affine in
the injections. A region is stored intensionally as one bound r_ell per line
with membership  |nu_ell| < r_ell for all lines  (bounds are 1 for lines the
noise cannot reach, which leaves exactly the deterministic constraint). The
kinds differ only in how far the noise pushes the bound below 1:

    deterministic       r = 1
    current             r = 1 - beta,               beta^2 = eps log(1/p) C M_T C^T
    temperature_lb      r = sqrt(1 - beta^2 q(1-q)) - beta (1-q),  q = e^{-T/tau}
    temperature_taylor  r = 1 - beta / sqrt(1 + 2 tau0 gamma)

Two-dimensional slices of a region are convex polygons obtained by clipping
a bounding box against the slab constraints; `risk_partition` further labels
each point of the deterministic slice by the line most likely to overload
first.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundCollapse, EmptySlice, NonUniformGamma, NonUniformTau, NoStochasticLines
from .grid_model import _readonly
from .ld_rates import PsiContext, _uniform, line_variances

__all__ = [
    "REGION_KINDS",
    "CapacityRegion",
    "Slice2D",
    "RiskPartition",
    "RegionSummary",
    "noise_margins",
    "build_region",
    "contains",
    "slice2d",
    "risk_partition",
]

REGION_KINDS = ("deterministic", "current", "temperature_lb", "temperature_taylor")


@dataclass(frozen=True)
class CapacityRegion:
    """Per-line current bounds r_ell plus the parameters that produced them."""

    kind: str
    bounds: np.ndarray
    epsilon: float
    p: float
    horizon: float
    tau: object
    tau0: object

    def __post_init__(self):
        object.__setattr__(self, "bounds", _readonly(self.bounds))


def noise_margins(ctx: PsiContext, epsilon: float, p: float) -> np.ndarray:
    """Per-line margin beta the noise claims: the amount r drops below 1.

    beta_ell^2 = eps log(1/p) C_ell M_T C_ell^T. Lines outside the noise span
    get beta = 0.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be strictly positive")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    return np.sqrt(epsilon * np.log(1.0 / p) * line_variances(ctx))


def build_region(ctx: PsiContext, kind: str, epsilon: float, p: float, tau0=None) -> CapacityRegion:
    """Slab bounds for one region kind at given noise scale and target probability.

    The lower-bound kind reads per-line thermal constants from the network;
    the first-order kind needs uniform gamma and a single tau0 (defaulting to
    the network's constant when that is uniform). Raises BoundCollapse when
    a bound drops to zero or below: the noise is too strong for any
    admissible operating point on that line.
    """
    if kind not in REGION_KINDS:
        raise ValueError(f"unknown region kind {kind!r}")
    L = ctx.flow.line_count
    live = list(ctx.stochastic_lines)
    bounds = np.ones(L)
    tau_used = None
    tau0_used = None
    if kind != "deterministic":
        beta = noise_margins(ctx, epsilon, p)
        if kind == "current":
            bounds[live] = 1.0 - beta[live]
        elif kind == "temperature_lb":
            tau_used = ctx.tau.copy()
            q = np.exp(-ctx.horizon / ctx.tau)
            radicand = 1.0 - beta**2 * q * (1.0 - q)
            for ell in live:
                if radicand[ell] < 0.0:
                    raise BoundCollapse(ell)
                bounds[ell] = np.sqrt(radicand[ell]) - beta[ell] * (1.0 - q[ell])
        else:  # temperature_taylor
            gamma = _uniform(ctx.ou.gamma, "mean-reversion rate", NonUniformGamma)
            if tau0 is None:
                tau0 = _uniform(ctx.tau, "thermal constant", NonUniformTau)
            if tau0 < 0:
                raise ValueError("tau0 must be non-negative")
            tau0_used = float(tau0)
            bounds[live] = 1.0 - beta[live] / np.sqrt(1.0 + 2.0 * tau0 * gamma)
        for ell in live:
            if bounds[ell] <= 0.0:
                raise BoundCollapse(ell)
    return CapacityRegion(
        kind=kind,
        bounds=bounds,
        epsilon=float(epsilon),
        p=float(p),
        horizon=ctx.horizon,
        tau=tau_used,
        tau0=tau0_used,
    )


def contains(region: CapacityRegion, flow, mu, mu_D=()) -> bool:
    """Strict membership: every normalized current stays inside its slab."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    mu_D = np.atleast_1d(np.asarray(mu_D, dtype=float)) if np.size(mu_D) else np.zeros(0)
    nu = flow.stochastic_block @ mu
    if mu_D.size:
        nu = nu + flow.deterministic_block @ mu_D
    return bool(np.all(np.abs(nu) < region.bounds))


@dataclass(frozen=True)
class Slice2D:
    """Convex polygon cut from a region by fixing all but two injections.

    `vertices` is (k, 2) in counterclockwise order without repeating the
    closing vertex; exports append it. Coordinates are the two free
    injections in the order given by `free`.
    """

    free: tuple
    fixed: np.ndarray
    bbox: tuple
    vertices: np.ndarray
    kind: str

    @property
    def area(self) -> float:
        return _polygon_area(self.vertices)


def _clip_half_plane(poly, normal, offset):
    """Keep the part of a convex polygon with normal . x <= offset."""
    if len(poly) == 0:
        return poly
    out = []
    n = len(poly)
    dist = [normal[0] * p[0] + normal[1] * p[1] - offset for p in poly]
    for i in range(n):
        j = (i + 1) % n
        pi, pj = poly[i], poly[j]
        di, dj = dist[i], dist[j]
        if di <= 0:
            out.append(pi)
        if (di < 0 < dj) or (dj < 0 < di):
            t = di / (di - dj)
            out.append((pi[0] + t * (pj[0] - pi[0]), pi[1] + t * (pj[1] - pi[1])))
    return out


def _slice_geometry(flow, free, fixed):
    """Affine description nu(u, v) = base + du u + dv v for every line."""
    u, v = free
    n = flow.node_count
    if not (1 <= u < n and 1 <= v < n) or u == v:
        raise ValueError("free indices must be two distinct non-reference nodes")
    fixed = np.asarray(fixed, dtype=float)
    if fixed.shape != (n - 1,):
        raise ValueError(f"fixed injections must have length {n - 1}")
    s = np.zeros(n)
    s[1:] = fixed
    s[u] = 0.0
    s[v] = 0.0
    cols = flow.normalized
    return cols @ s, cols[:, u], cols[:, v]


def slice2d(region: CapacityRegion, flow, free, fixed, bbox) -> Slice2D:
    """Polygon of a region's 2-D slice over two free injections.

    `fixed` holds the injections of every non-reference node (entries at the
    free positions are ignored); `bbox` is (umin, umax, vmin, vmax). Raises
    EmptySlice when no point of the box satisfies every constraint.
    """
    base, du, dv = _slice_geometry(flow, free, fixed)
    umin, umax, vmin, vmax = map(float, bbox)
    if not (umin < umax and vmin < vmax):
        raise ValueError("bbox must satisfy umin < umax and vmin < vmax")
    poly = [(umin, vmin), (umax, vmin), (umax, vmax), (umin, vmax)]
    for ell in range(flow.line_count):
        r = region.bounds[ell]
        if abs(du[ell]) < 1e-15 and abs(dv[ell]) < 1e-15:
            if abs(base[ell]) >= r:
                raise EmptySlice(
                    f"line {ell} pins |nu| = {abs(base[ell]):.6g} >= bound {r:.6g} across the slice"
                )
            continue
        poly = _clip_half_plane(poly, (du[ell], dv[ell]), r - base[ell])
        poly = _clip_half_plane(poly, (-du[ell], -dv[ell]), r + base[ell])
        if len(poly) < 3:
            raise EmptySlice(f"slice became empty while clipping line {ell}")
    verts = np.asarray(poly, dtype=float)
    if _polygon_area(verts) <= 0.0:
        raise EmptySlice("slice polygon is degenerate")
    return Slice2D(
        free=(int(free[0]), int(free[1])),
        fixed=np.asarray(fixed, dtype=float),
        bbox=(umin, umax, vmin, vmax),
        vertices=verts,
        kind=region.kind,
    )


def _polygon_area(v: np.ndarray) -> float:
    if v.shape[0] < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


@dataclass(frozen=True)
class RegionSummary:
    """One labeled sub-region of a risk partition."""

    label: tuple
    terminals: tuple
    cells: int
    area: float
    centroid: tuple


@dataclass(frozen=True)
class RiskPartition:
    """Grid labeling of the deterministic slice by most-at-risk line.

    `label_grid[i, j]` indexes `labels` for the cell centered at
    (u_centers[j], v_centers[i]); -1 marks cells outside the deterministic
    slice. Each label is the tuple of argmin lines (singletons except on tie
    curves). `summaries` aggregates per label, largest area first.
    """

    free: tuple
    bbox: tuple
    resolution: int
    u_centers: np.ndarray
    v_centers: np.ndarray
    labels: tuple
    label_grid: np.ndarray
    summaries: tuple

    @property
    def central_label(self) -> tuple:
        """Label covering the largest area."""
        return self.summaries[0].label


def risk_partition(ctx: PsiContext, free, fixed, bbox, resolution: int = 400) -> RiskPartition:
    """Label each point of the deterministic slice by its most-at-risk line.

    The most-at-risk line minimizes the per-line overload rate
    (1 - |nu_ell|)^2 / (C_ell M_T C_ell^T) at that operating point; ties
    within 1e-9 relative produce multi-line labels.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    flow = ctx.flow
    base, du, dv = _slice_geometry(flow, free, fixed)
    umin, umax, vmin, vmax = map(float, bbox)
    cell_u = (umax - umin) / resolution
    cell_v = (vmax - vmin) / resolution
    uc = umin + cell_u * (np.arange(resolution) + 0.5)
    vc = vmin + cell_v * (np.arange(resolution) + 0.5)
    U, V = np.meshgrid(uc, vc)

    live = list(ctx.stochastic_lines)
    if not live:
        raise NoStochasticLines("no line couples to the stochastic injections")
    denom = line_variances(ctx)
    inside = np.ones_like(U, dtype=bool)
    rates = np.empty((len(live), resolution, resolution))
    for ell in range(flow.line_count):
        nu = np.abs(base[ell] + du[ell] * U + dv[ell] * V)
        inside &= nu < 1.0
        if ell in live:
            rates[live.index(ell)] = (1.0 - nu) ** 2 / denom[ell]

    best = np.min(rates, axis=0)
    tie = rates <= best * (1.0 + 1e-9)
    # Key each inside cell by its argmin set packed into bytes, most
    # significant byte first, so keys sort like the integer bitmask
    # sum_i 2^i over tied lines i, for any number of lines.
    keys = np.packbits(tie, axis=0, bitorder="little")[::-1, inside]
    keys = np.ascontiguousarray(keys.T).view(np.dtype((np.void, keys.shape[0]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    members = tie.reshape(len(live), -1)[:, np.flatnonzero(inside)[first]]
    labels = [tuple(live[i] for i in np.flatnonzero(col)) for col in members.T]
    label_grid = np.full(U.shape, -1, dtype=np.int32)
    label_grid[inside] = inverse

    cell_area = cell_u * cell_v
    net = flow.network
    summaries = []
    for idx, label in enumerate(labels):
        sel = label_grid == idx
        count = int(np.count_nonzero(sel))
        summaries.append(
            RegionSummary(
                label=label,
                terminals=tuple(net.lines[ell] for ell in label),
                cells=count,
                area=count * cell_area,
                centroid=(float(U[sel].mean()), float(V[sel].mean())),
            )
        )
    summaries.sort(key=lambda s: (-s.cells, s.label))
    return RiskPartition(
        free=(int(free[0]), int(free[1])),
        bbox=(umin, umax, vmin, vmax),
        resolution=resolution,
        u_centers=uc,
        v_centers=vc,
        labels=tuple(labels),
        label_grid=label_grid,
        summaries=tuple(summaries),
    )
