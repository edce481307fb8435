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

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundCollapse, EmptySlice
from .grid_model import _checked_injections, _readonly
from .ld_rates import ARGMIN_RTOL, PsiContext, _level_cost, _live_lines
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
    var = ctx.line_variances
    with np.errstate(over="ignore", invalid="ignore"):
        beta = np.sqrt(epsilon * np.log(1.0 / p) * var)
    # where beta^2 overflows (or reads inf * 0 off the noise's reach), beta may
    # still be finite: take the root of each factor there
    far = ~np.isfinite(beta)
    if far.any():
        beta[far] = math.sqrt(epsilon) * np.sqrt(np.log(1.0 / p) * var[far])
    return beta


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
        # 1 - q as -expm1(-T/tau): rounding 1 - e^{-T/tau} loses it, to 0 at T/tau below ~1e-16
        q, one_minus_q = _horizon_decay(ctx.horizon, ctx.tau[live])
        with np.errstate(over="ignore", invalid="ignore"):
            radicand = 1.0 - beta**2 * q * one_minus_q
        # where beta**2 overflows, the radicand is -inf (collapsed) if q (1 - q) > 0;
        # if q (1 - q) = 0 it reads inf * 0 = nan, where a finite beta**2 gives 1
        radicand[np.isnan(radicand)] = 1.0
        _refuse_collapse(live, radicand < 0.0)
        bounds[live] = np.sqrt(radicand) - beta * one_minus_q
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
    """Strict membership: every normalized current stays inside its slab.

    `mu` and `mu_D` must have lengths m and N - m, as for `operating_point`.
    """
    mu, mu_D = _checked_injections(flow, mu, mu_D)
    nu = flow.currents(np.concatenate([[0.0], mu, mu_D]))
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
    cols = flow.columns([u, v])
    return flow.currents(s), cols[:, 0], cols[:, 1]


def _box(bbox):
    """(umin, umax, vmin, vmax) as floats; ValueError unless both ranges increase by a finite width."""
    umin, umax, vmin, vmax = map(float, bbox)
    if not (umin < umax and vmin < vmax):
        raise ValueError("bbox must satisfy umin < umax and vmin < vmax")
    # clipping and cell centers take differences across the box
    if not (math.isfinite(umax - umin) and math.isfinite(vmax - vmin)):
        raise ValueError("bbox widths umax - umin and vmax - vmin must be finite")
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
                    ell, f"{{line}} pins |nu| = {abs(base[ell]):.6g} >= bound {r:.6g} across the slice"
                )
            continue
        poly = _clip_half_plane(poly, (du[ell], dv[ell]), r - base[ell])
        poly = _clip_half_plane(poly, (-du[ell], -dv[ell]), r + base[ell])
        if len(poly) < 3:
            raise EmptySlice(ell, "slice became empty while clipping {line}")
    verts = np.asarray(poly, dtype=float)
    if _polygon_area(verts) <= 0.0:
        raise EmptySlice(None, "slice polygon is degenerate")
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


def _ranges(start, stop):
    """The integers of every [start[k], stop[k]), concatenated in order."""
    size = stop - start
    ends = np.cumsum(size)
    return np.arange(ends[-1] if size.size else 0) + np.repeat(start - (ends - size), size)


def _inside_rows(a, b):
    """Column range [lo, hi) of the cells inside every slab, one per grid row.

    Cell (i, j) is inside when |a[ell, j] + b[ell, i]| < 1 for every line
    ell. Each row a[ell] is monotone in j, being a rounded affine map of
    sorted centers, and rounding keeps its sum with b[ell, i] monotone too.
    After flipping the sign of decreasing rows, the cells with sum > -1
    form a suffix, and so do the cells with sum >= 1 or NaN (a NaN needs an
    infinite term, and then sits at the end of the row or fills it). So,
    for each edge of a slab, a (line, row) pair is settled by its two end
    sums when both fall on one side of it: inside, and the edge bounds
    nothing on that row; beyond, and it rules the whole row out. Rows some
    pair rules out are settled empty first; on the others only the pairs
    whose end sums straddle an edge are bisected, on the same rounded sums,
    so every non-empty range is the full-grid test's, in O(lines x
    resolution) plus O(log resolution) per straddling pair. Lines are
    visited in blocks of about BISECT_BLOCK (line, row) pairs, so the
    temporaries stay small on networks with many lines.
    """
    n, rows = a.shape[1], b.shape[1]
    step = max(1, BISECT_BLOCK // rows)
    blocks = [slice(start, start + step) for start in range(0, a.shape[0], step)]

    def end_sums(blk):
        ab, bb = a[blk], b[blk]
        sign = np.where(ab[:, -1] < ab[:, 0], -1.0, 1.0)[:, None]
        first = ab[:, :1] + bb
        last = ab[:, -1:] + bb
        return ab, bb, sign, np.multiply(first, sign, out=first), np.multiply(last, sign, out=last)

    dead = np.zeros(rows, dtype=bool)
    for blk in blocks:
        *_, first, last = end_sums(blk)
        out = ((first >= 1.0) & (last >= 1.0)) | ((first <= -1.0) & (last <= -1.0))
        dead |= out.any(axis=0)
    lo = np.zeros(rows, dtype=np.intp)
    hi = np.full(rows, n, dtype=np.intp)
    for blk in blocks:
        ab, bb, sign, first, last = end_sums(blk)
        line, row = np.nonzero(~((first > -1.0) & (last > -1.0)) & ~dead)
        np.maximum.at(lo, row, _first_true(ab, bb, line, row, sign, lambda x: x > -1.0))
        line, row = np.nonzero(~((first < 1.0) & (last < 1.0)) & ~dead)
        np.minimum.at(hi, row, _first_true(ab, bb, line, row, sign, lambda x: ~(x < 1.0)))
    hi[dead] = 0
    return lo, np.maximum(hi, lo)


def _first_true(a, b, line, row, sign, pred):
    """Per (line, row) pair: the smallest j in [0, n] with pred(sign[line] (a[line, j] + b[line, row]))."""
    n = a.shape[1]
    lo = np.zeros(line.size, dtype=np.intp)
    hi = np.full(line.size, n, dtype=np.intp)
    sign, shift = sign[line, 0], b[line, row]
    for _ in range(n.bit_length()):
        mid = (lo + hi) // 2
        hit = pred(sign * (a[line, np.minimum(mid, n - 1)] + shift))
        open_ = lo < hi
        hi = np.where(open_ & hit, mid, hi)
        lo = np.where(open_ & ~hit, mid + 1, lo)
    return lo


def _rate(nu, denom, out=None):
    """Overload rate (1 - |nu|)^2 / denom, rounded the same way wherever it is priced."""
    out = np.abs(nu, out=out)
    np.subtract(1.0, out, out=out)
    np.square(out, out=out)
    return np.divide(out, denom, out=out)


def _binding_pairs(a, b, rows, lo, hi, live, denom):
    """(live line, row) pairs whose rate can hold or tie a cell's least rate.

    Returns a (len(live), len(rows)) mask over the given rows, each of
    which has inside cells [lo[row], hi[row]).
    Along a row the computed nu is monotone in j, so |nu| falls and then
    rises, and each line's computed rate rises and then falls: its least
    value over [lo, hi) is at one of the two end cells, and its greatest is
    at an end too unless nu changes sign in between, where it is at most
    1 / denom, the rate at nu = 0. No cell's least rate exceeds U, the
    smallest of these row maxima over live lines, so no cell's tie
    threshold exceeds U (1 + ARGMIN_RTOL). A line whose row minimum does
    is above the threshold on every cell of the row: it neither holds a
    minimum there nor ties with one, and is dropped. Lines are visited in
    blocks of about BISECT_BLOCK pairs, once for U and once for the mask.
    """
    step = max(1, BISECT_BLOCK // rows.size)
    blocks = [live[start : start + step] for start in range(0, live.size, step)]

    def end_rates(lines):
        """Rates at both end cells of each row, and whether nu keeps one strict sign between them."""
        shift = b[np.ix_(lines, rows)]
        nu_lo = a[np.ix_(lines, lo[rows])]
        nu_lo += shift
        nu_hi = a[np.ix_(lines, hi[rows] - 1)]
        nu_hi += shift
        one_sign = ((nu_lo > 0.0) & (nu_hi > 0.0)) | ((nu_lo < 0.0) & (nu_hi < 0.0))
        d = denom[lines, None]
        return _rate(nu_lo, d, out=nu_lo), _rate(nu_hi, d, out=nu_hi), one_sign, d

    least_max = np.full(rows.size, np.inf)
    for lines in blocks:
        r_lo, r_hi, one_sign, d = end_rates(lines)
        greatest = np.maximum(r_lo, r_hi, out=r_lo)
        # (1 - 0)^2 / d rounds as 1 / d
        np.copyto(greatest, 1.0 / d, where=~one_sign)
        np.minimum(least_max, greatest.min(axis=0), out=least_max)
    cut = least_max * (1.0 + ARGMIN_RTOL)
    keep = []
    for lines in blocks:
        r_lo, r_hi, *_ = end_rates(lines)
        keep.append(np.minimum(r_lo, r_hi, out=r_lo) <= cut)
    return np.concatenate(keep)


def _tie_runs(a, b, rows, lo, hi, live, denom, keep):
    """Runs of inside cells along rows with one argmin set, and that set.

    Inside cells, those of `rows`, are numbered in row-major order. Each
    live line is priced only on its kept rows, taken as bands of
    consecutive rows whose cells are contiguous in that order: once for
    each cell's least rate, and again, recomputed rather than stored, for
    the lines within ARGMIN_RTOL of it. A run starts at each row's first
    cell and wherever some line joins or leaves the tie set. Returns the
    row, first column and length of every run, and its tie set packed into
    bytes, most significant byte first, so keys sort like the integer
    bitmask sum_k 2^k over tied live lines k, for any number of lines.
    """
    counts = hi[rows] - lo[rows]
    stops = np.cumsum(counts)
    starts = stops - counts
    cells = int(stops[-1])
    jj = _ranges(lo[rows], hi[rows])
    line, edge = np.nonzero(np.diff(keep, axis=1, prepend=False, append=False))
    # band (k, q, r): live line k on rows[q:r]
    bands = list(zip(line[0::2].tolist(), edge[0::2].tolist(), edge[1::2].tolist()))
    nu = np.empty(max(stops[r - 1] - starts[q] for _, q, r in bands))

    def price(k, q, r):
        start, stop = starts[q], stops[r - 1]
        out = nu[: stop - start]
        ell = live[k]
        # indices are in range, and mode="clip" spares the copy that
        # mode="raise" makes when writing to `out`
        np.take(a[ell], jj[start:stop], out=out, mode="clip")
        np.add(out, np.repeat(b[ell, rows[q:r]], counts[q:r]), out=out)
        return start, stop, _rate(out, denom[ell], out=out)

    threshold = np.full(cells, np.inf)
    for band in bands:
        start, stop, rate = price(*band)
        np.minimum(threshold[start:stop], rate, out=threshold[start:stop])
    np.multiply(threshold, 1.0 + ARGMIN_RTOL, out=threshold)

    # fresh[c]: cell c starts a row, or its tie set differs from cell c - 1's;
    # each line's tie segments start and stop at fresh cells
    fresh = np.zeros(cells + 1, dtype=bool)
    fresh[starts] = True
    segments = []
    for band in bands:
        start, stop, rate = price(*band)
        tie = np.less_equal(rate, threshold[start:stop])
        flips = start + np.flatnonzero(np.diff(tie, prepend=False, append=False))
        fresh[flips] = True
        segments.append((band[0], flips[0::2], flips[1::2]))

    run_start = np.flatnonzero(fresh[:cells])
    keys = np.zeros((run_start.size, (live.size + 7) // 8), dtype=np.uint8)
    for k, seg_start, seg_stop in segments:
        runs = _ranges(np.searchsorted(run_start, seg_start), np.searchsorted(run_start, seg_stop))
        keys[runs, -1 - k // 8] |= np.uint8(1 << (k % 8))
    run_row = rows[np.searchsorted(stops, run_start, side="right")]
    return run_row, jj[run_start], np.diff(run_start, append=cells), keys


def risk_partition(ctx: PsiContext, free, fixed, bbox, resolution: int = 400) -> RiskPartition:
    """Label each point of the deterministic slice by its most-at-risk line.

    The most-at-risk line minimizes the per-line overload rate
    (1 - |nu_ell|)^2 / (C_ell M_T C_ell^T) at that operating point; ties
    within ARGMIN_RTOL relative produce multi-line labels. `bbox` is
    (umin, umax, vmin, vmax) with both ranges increasing, as for `slice2d`.
    Raises EmptySlice when no cell center lies inside the deterministic
    slice, and ValueError, as the rate report does, when a live line's
    largest rate, 1 / sigma^2 at nu = 0, is not finite.

    `_inside_rows` finds each row's inside cells, settling from two end
    sums the rows some slab rules out. Rates are priced at inside cells
    only, and only for the (live line, row) pairs that `_binding_pairs`
    keeps: on case14 at 800^2, 2,185 of the 13,794 pairs on rows with
    inside cells. Labels are found once per run of cells with one argmin
    set along a row, and each label's cells are expanded from its runs in
    row-major order, so centroids sum the same values as a full-grid mask.
    Per-(line, row) work is blocked over lines (BISECT_BLOCK), and rates
    are recomputed for the tie pass rather than stored: working memory is
    O(lines x resolution + inside cells + runs x live lines / 8) words
    besides the resolution^2 `label_grid`, and no (lines x cells) array is
    held.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    base, du, dv = _slice_geometry(ctx.flow, free, fixed)
    umin, umax, vmin, vmax = _box(bbox)
    cell_u = (umax - umin) / resolution
    cell_v = (vmax - vmin) / resolution
    uc = umin + cell_u * (np.arange(resolution) + 0.5)
    vc = vmin + cell_v * (np.arange(resolution) + 0.5)

    live = _live_lines(ctx)
    denom = ctx.line_variances
    _level_cost(1.0, 0.0, denom[live])  # each line's largest rate, at nu = 0, must be finite
    # nu_ell at cell (i, j) is a[ell, j] + b[ell, i], rounded exactly as
    # (base + du u) + dv v is on the full grid
    a = base[:, None] + du[:, None] * uc
    b = dv[:, None] * vc
    lo, hi = _inside_rows(a, b)
    counts = hi - lo
    if not counts.any():
        raise EmptySlice(None, "no grid cell lies inside the deterministic slice")
    rows = np.flatnonzero(counts)
    keep = _binding_pairs(a, b, rows, lo, hi, live, denom)
    run_row, run_col, run_len, keys = _tie_runs(a, b, rows, lo, hi, live, denom, keep)
    width = keys.shape[1]
    unique, run_label = np.unique(keys.view(np.dtype((np.void, width))).ravel(), return_inverse=True)
    members = np.unpackbits(
        unique.view(np.uint8).reshape(-1, width)[:, ::-1], axis=1, count=live.size, bitorder="little"
    )
    labels = [tuple(live[np.flatnonzero(row)].tolist()) for row in members]
    # in row-major order the grid alternates gaps of outside cells and runs
    first = run_row * resolution + run_col
    spans = np.empty(2 * first.size + 1, dtype=np.intp)
    spans[0::2] = np.diff(first, prepend=0, append=resolution**2) - np.append(0, run_len)
    spans[1::2] = run_len
    values = np.full(spans.size, -1, dtype=np.int32)
    values[1::2] = run_label
    label_grid = np.repeat(values, spans).reshape(resolution, resolution)

    # each label's runs in row-major order, expanded to its cells
    order = np.argsort(run_label, kind="stable")
    cell_area = cell_u * cell_v
    summaries = []
    for label, runs in zip(labels, np.split(order, np.cumsum(np.bincount(run_label))[:-1])):
        lengths = run_len[runs]
        count = int(lengths.sum())
        cols = _ranges(run_col[runs], run_col[runs] + lengths)
        summaries.append(
            RegionSummary(
                label=label,
                cells=count,
                area=count * cell_area,
                centroid=(float(uc[cols].mean()), float(np.repeat(vc[run_row[runs]], lengths).mean())),
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
