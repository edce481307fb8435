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

from .errors import BoundCollapse, EmptySlice
from .grid_model import _readonly
from .ld_rates import ARGMIN_RTOL, PsiContext, _live_lines
from .thermal import _horizon_decay

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

# (line, row) pairs bisected together by `_inside_rows`: 512 KiB per temporary.
BISECT_BLOCK = 2**16


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


def _check_noise(epsilon: float, p: float):
    """Refuse a noise scale or target probability that prices no region."""
    if not epsilon > 0:
        raise ValueError("epsilon must be strictly positive")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")


def noise_margins(ctx: PsiContext, epsilon: float, p: float) -> np.ndarray:
    """Per-line margin beta the noise claims: the amount r drops below 1.

    beta_ell^2 = eps log(1/p) C_ell M_T C_ell^T. Lines the noise does not
    reach (off `ctx.stochastic_lines`) have variance 0 and get beta = 0.
    """
    _check_noise(epsilon, p)
    return np.sqrt(epsilon * np.log(1.0 / p) * ctx.line_variances)


def _refuse_collapse(live: np.ndarray, collapsed: np.ndarray):
    """BoundCollapse on the first line of `live` whose entry in `collapsed` is set."""
    hit = np.flatnonzero(collapsed)
    if hit.size:
        raise BoundCollapse(int(live[hit[0]]))


def build_region(ctx: PsiContext, kind: str, epsilon: float, p: float, tau0=None) -> CapacityRegion:
    """Slab bounds for one region kind at given noise scale and target probability.

    The lower-bound kind reads per-line thermal constants from the network;
    the first-order kind takes its factor and tau0 from `ctx.first_order`.
    epsilon and p are checked as in `noise_margins` for every kind. Raises
    BoundCollapse when a bound drops to zero or below: the noise is too
    strong for any admissible operating point on that line.
    """
    if kind not in REGION_KINDS:
        raise ValueError(f"unknown region kind {kind!r}")
    live = np.array(ctx.stochastic_lines, dtype=np.intp)
    beta = noise_margins(ctx, epsilon, p)[live]
    bounds = np.ones(ctx.flow.line_count)
    if kind == "current":
        bounds[live] = 1.0 - beta
    elif kind == "temperature_lb":
        q = _horizon_decay(ctx.horizon, ctx.tau[live])[0]
        radicand = 1.0 - beta**2 * q * (1.0 - q)
        _refuse_collapse(live, radicand < 0.0)
        bounds[live] = np.sqrt(radicand) - beta * (1.0 - q)
    elif kind == "temperature_taylor":
        factor, tau0 = ctx.first_order(tau0)
        bounds[live] = 1.0 - beta / np.sqrt(factor)
    _refuse_collapse(live, bounds[live] <= 0.0)
    return CapacityRegion(
        kind=kind,
        bounds=bounds,
        epsilon=float(epsilon),
        p=float(p),
        horizon=ctx.horizon,
        tau=ctx.tau if kind == "temperature_lb" else None,
        tau0=float(tau0) if kind == "temperature_taylor" else None,
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


def _box(bbox):
    """(umin, umax, vmin, vmax) as floats; ValueError unless both ranges increase."""
    umin, umax, vmin, vmax = map(float, bbox)
    if not (umin < umax and vmin < vmax):
        raise ValueError("bbox must satisfy umin < umax and vmin < vmax")
    return umin, umax, vmin, vmax


def slice2d(region: CapacityRegion, flow, free, fixed, bbox) -> Slice2D:
    """Polygon of a region's 2-D slice over two free injections.

    `fixed` holds the injections of every non-reference node (entries at the
    free positions are ignored); `bbox` is (umin, umax, vmin, vmax). Raises
    EmptySlice when no point of the box satisfies every constraint.
    """
    base, du, dv = _slice_geometry(flow, free, fixed)
    umin, umax, vmin, vmax = _box(bbox)
    poly = [(umin, vmin), (umax, vmin), (umax, vmax), (umin, vmax)]
    # A slab that holds all four box corners with room to spare holds every
    # vertex clipped from the box, so both of its half-plane clips would
    # return the polygon unchanged: only the other lines are visited, in
    # order. The slack covers rounding in the vertices and the distances.
    bounds = region.bounds
    us = np.array([umin, umax, umax, umin])
    vs = np.array([vmin, vmin, vmax, vmax])
    corners = np.abs(base[:, None] + du[:, None] * us + dv[:, None] * vs).max(axis=1)
    reach = np.abs(base) + np.abs(du) * max(abs(umin), abs(umax)) + np.abs(dv) * max(abs(vmin), abs(vmax)) + bounds
    clear = corners + 1e-12 * reach < bounds
    flat = (np.abs(du) < 1e-15) & (np.abs(dv) < 1e-15)
    for ell in np.flatnonzero(flat | ~clear):
        r = bounds[ell]
        if flat[ell]:
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


def _inside_rows(a, b):
    """Column range [lo, hi) of the cells inside every slab, one per grid row.

    Cell (i, j) is inside when |a[ell, j] + b[ell, i]| < 1 for every line
    ell. Each row a[ell] is monotone in j, being a rounded affine map of
    sorted centers, and rounding keeps its sum with b[ell, i] monotone too.
    After flipping the sign of decreasing rows, the cells with sum > -1
    form a suffix, and so do the cells with sum >= 1 or NaN (a NaN needs an
    infinite term, and then sits at the end of the row or fills it). So
    bisection on the same rounded sums finds both ends exactly: the result
    is the full-grid test's, in O(lines x resolution x log resolution).
    Lines are bisected in blocks of about BISECT_BLOCK (line, row) pairs,
    so the temporaries stay small on networks with many lines.
    """
    lo = np.zeros(b.shape[1], dtype=np.intp)
    hi = np.full(b.shape[1], a.shape[1], dtype=np.intp)
    step = max(1, BISECT_BLOCK // b.shape[1])
    for start in range(0, a.shape[0], step):
        ab, bb = a[start : start + step], b[start : start + step]
        sign = np.where(ab[:, -1] < ab[:, 0], -1.0, 1.0)[:, None]
        np.maximum(lo, _first_true(ab, bb, sign, lambda x: x > -1.0).max(axis=0), out=lo)
        np.minimum(hi, _first_true(ab, bb, sign, lambda x: ~(x < 1.0)).min(axis=0), out=hi)
    return lo, np.maximum(hi, lo)


def _first_true(a, b, sign, pred):
    """Per (line, row): the smallest j in [0, n] with pred(sign (a[line, j] + b[line, row]))."""
    n = a.shape[1]
    lo = np.zeros(b.shape, dtype=np.intp)
    hi = np.full(b.shape, n, dtype=np.intp)
    for _ in range(n.bit_length()):
        mid = (lo + hi) // 2
        hit = pred(sign * (np.take_along_axis(a, np.minimum(mid, n - 1), axis=1) + b))
        open_ = lo < hi
        hi = np.where(open_ & hit, mid, hi)
        lo = np.where(open_ & ~hit, mid + 1, lo)
    return lo


def risk_partition(ctx: PsiContext, free, fixed, bbox, resolution: int = 400) -> RiskPartition:
    """Label each point of the deterministic slice by its most-at-risk line.

    The most-at-risk line minimizes the per-line overload rate
    (1 - |nu_ell|)^2 / (C_ell M_T C_ell^T) at that operating point; ties
    within ARGMIN_RTOL relative produce multi-line labels. `bbox` is
    (umin, umax, vmin, vmax) with both ranges increasing, as for `slice2d`.
    Raises EmptySlice when no cell center lies inside the deterministic
    slice.

    Rates are priced at inside cells only, one line at a time: working
    memory is O(lines x resolution + inside cells x (1 + live lines / 64))
    words besides the resolution^2 `label_grid`, and no (lines x cells)
    array is held.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    base, du, dv = _slice_geometry(ctx.flow, free, fixed)
    umin, umax, vmin, vmax = _box(bbox)
    cell_u = (umax - umin) / resolution
    cell_v = (vmax - vmin) / resolution
    uc = umin + cell_u * (np.arange(resolution) + 0.5)
    vc = vmin + cell_v * (np.arange(resolution) + 0.5)

    live = _live_lines(ctx).tolist()
    denom = ctx.line_variances
    # nu_ell at cell (i, j) is a[ell, j] + b[ell, i], rounded exactly as
    # (base + du u) + dv v is on the full grid
    a = base[:, None] + du[:, None] * uc
    b = dv[:, None] * vc
    lo, hi = _inside_rows(a, b)
    counts = hi - lo
    if not counts.any():
        raise EmptySlice("no grid cell lies inside the deterministic slice")
    # inside cells in row-major order
    ii = np.repeat(np.arange(resolution), counts)
    jj = np.arange(ii.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)

    # Rates are priced twice, once for the minimum and once for the ties,
    # in two reused buffers: fresh arrays this size cost more in page
    # faults than the arithmetic. Indices are in range, and mode="clip"
    # spares the copy that mode="raise" makes when writing to `out`.
    nu = np.empty(ii.size)
    shift = np.empty(ii.size)

    def rate(ell):
        np.take(a[ell], jj, out=nu, mode="clip")
        np.add(nu, np.take(b[ell], ii, out=shift, mode="clip"), out=nu)
        np.abs(nu, out=nu)
        np.subtract(1.0, nu, out=nu)
        np.square(nu, out=nu)
        return np.divide(nu, denom[ell], out=nu)

    best = rate(live[0]).copy()
    for ell in live[1:]:
        np.minimum(best, rate(ell), out=best)
    threshold = best * (1.0 + ARGMIN_RTOL)
    # Key each inside cell by its argmin set packed into bytes, most
    # significant byte first, so keys sort like the integer bitmask
    # sum_k 2^k over tied live lines k, for any number of lines.
    width = (len(live) + 7) // 8
    keys = np.zeros((width, ii.size), dtype=np.uint8)
    tie = np.empty(ii.size, dtype=bool)
    for k, ell in enumerate(live):
        bits = np.less_equal(rate(ell), threshold, out=tie).view(np.uint8)
        keys[-1 - k // 8] |= np.left_shift(bits, k % 8, out=bits)
    _, first, inverse = np.unique(
        np.ascontiguousarray(keys.T).view(np.dtype((np.void, width))).ravel(),
        return_index=True,
        return_inverse=True,
    )
    members = np.unpackbits(keys[::-1, first], axis=0, count=len(live), bitorder="little")
    labels = [tuple(live[k] for k in np.flatnonzero(col)) for col in members.T]
    label_grid = np.full((resolution, resolution), -1, dtype=np.int32)
    label_grid[ii, jj] = inverse

    # a stable sort keeps each label's cells in row-major order, so its
    # centroid sums the same values in the same order as a full-grid mask
    groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
    cell_area = cell_u * cell_v
    summaries = []
    for label, cells in zip(labels, groups):
        count = len(cells)
        summaries.append(
            RegionSummary(
                label=label,
                cells=count,
                area=count * cell_area,
                centroid=(float(uc[jj[cells]].mean()), float(vc[ii[cells]].mean())),
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
