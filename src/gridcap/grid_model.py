"""DC power-flow model of a transmission network.

The network is a connected oriented graph on nodes 0..N, where node 0 is the
slack bus. Under the DC approximation the line currents are an affine
function of the nodal power injections. This module builds that linear map
as a chain of matrices:

    B      graph Laplacian weighted by susceptances, (N+1) x (N+1)
    A      oriented edge-vertex incidence matrix, L x (N+1)
    Dbeta  diagonal matrix of susceptances, L x L
    Bg     grounded inverse, block-diag(0, Bhat^-1) with Bhat = B without
           the slack row and column
    Ct     current transfer matrix Dbeta A Bg, so I = Ct S
    Cbar   rows of Ct divided by the line ratings, so Y = Cbar S is the
           normalized current

A has two nonzeros per row, so entry (ell, c) of Ct, for line ell from i to
j, is

    Ct[ell, c] = beta_ell (Bg[i, c] - Bg[j, c]),

one subtraction of two entries of Bg (row 0 of Bg is zero) scaled by the
susceptance. With the stochastic injections occupying nodes 1..m, Cbar splits
column-wise into [0 | C | C_D]: the slack column is identically zero, C acts
on the stochastic injections and C_D on the deterministic ones.

What the analysis reads is C and a few products Cbar s, so `DcFlowMatrices`
stores only C (L x m), a factorization of Bhat and the line end arrays, all
read-only; neither Bg nor Cbar is stored. Column c of Bg holds the angles of
a unit injection at node c, so `columns(nodes)` serves columns of Cbar from
solves for unit vectors, followed by the same three elementwise steps that
form C (subtract, times beta, over the rating); `currents(s)` returns Cbar s
from one solve for the angles theta = Bhat^-1 s[1:]; `transfer` forms Ct
whole for callers that want it. A, Dbeta and Ct are never formed by the
assembly, and B is freed once Bhat is factored.

The factorization. Bhat is symmetric positive definite, so `_spd_factor`
splits it at n // 2 into halves [[A, B], [B^T, D]] and eliminates A through
the Schur complement S = D - B^T A^-1 B, again symmetric positive definite,
with no pivoting (Demmel, Higham & Schreiber, 1995); A and S are factored
the same way. A Laplacian's coupling block B is mostly zero, so each level
keeps only what B's nonzero columns c need (skipping the zero coupling is
the idea behind nested dissection; George, SIAM J. Numer. Anal. 10(2),
1973): Y = A^-1 B[:, c] (found by a solve with the factored A) and the
factored S, of which only S[c, c] differs from D. B is not kept, since
B[:, c]^T A^-1 = Y^T. At every level a block of at most INVERSE_BLOCK
rows is a leaf, held as its `np.linalg.inv`. `_spd_solve` runs matrix
products only: the update of the rows c of the lower half by Y^T times the
upper half, a solve with S, a solve with A and the back-substitution
through Y x[c]. A network with at most INVERSE_BLOCK non-slack nodes is one
leaf, so its columns and currents keep the bits of a plain
`np.linalg.inv(Bhat)`. On a 1,000-bus ring with 500 chords the factors take
~2.3 MB where Bhat^-1 takes 8 MB, and they take about two thirds of the
time of the inverse to form.

Determinism. BLAS may round a column of a matrix product differently
depending on the other columns multiplied with it, so a column solved alone
need not have the bits of the same column solved in a block. `columns`
therefore solves only whole blocks of SOLVE_BLOCK unit vectors aligned to
the node index (nodes 1..SOLVE_BLOCK, the next SOLVE_BLOCK, and so on): one
routine, `_block_columns`, forms Cbar's columns from such a block for C,
the non-finite-row check and `columns` alike, and a stochastic node's
column is copied from C. A served column so has the same bits whichever
nodes are requested with it. `currents` is one solve, equal to Cbar s up to
rounding.

Why not SciPy. Its sparse LU would skip more zeros and its Cholesky factor
would halve the flops, but importing `scipy.sparse.linalg` takes ~0.15-0.2 s
and `scipy.linalg` ~0.2 s: more than a whole 1,000-bus screen, and paid at
start-up by every command that assembles a network.

Each invariant is decided once. `_unreachable` decides connectivity, also for
`io_formats.parse_native`. Bhat is refused when kappa_1 = ||Bhat||_1
||Bhat^-1||_1, within a factor N of sigma_max/sigma_min, is not finite or
reaches 1/RANK_RTOL. Neither norm needs a pass over N^2 entries. Bhat is a
nonsingular M-matrix (a grounded Laplacian of a connected graph with
positive susceptances), so Bhat^-1 is symmetric and entrywise nonnegative
and ||Bhat^-1||_1 = max(Bhat^-1 1), one solve. Column j of Bhat has absolute
sum 2 Bhat_jj - beta_0j, where beta_0j is the susceptance of the line from
the slack to j, or 0, so ||Bhat||_1 is read off B's diagonal and slack row.
A non-finite row of Cbar is refused, although Cbar is not stored: every
entry of row ell is at most fl(fl(4 ||Bhat^-1||_1 beta_ell) / r_ell) in
magnitude. Exactly, |Bg[i, c] - Bg[j, c]| <= 2 ||Bhat^-1||_1; the solved
entries and norm differ from the exact ones by at most about kappa_1 times
the unit roundoff relative, far below the doubled factor, and each rounding
step after that is monotone. So only a line whose bound is not finite has
its whole row priced, from the same block solves as `columns`.
rank(B) = rank(Cbar) = N are theorems for a connected graph with positive
susceptances (the range of Bg meets the kernel of A only at 0), so the m
columns of Cbar that form C are independent and rank(C) = m. None is
re-checked; `test_rank_chain_random_networks` checks them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    GraphError,
    InfeasibleStart,
    RankDeficiency,
    SingularReducedLaplacian,
)

__all__ = [
    "GridNetwork",
    "DcFlowMatrices",
    "OperatingPoint",
    "build_laplacian",
    "build_flow_matrices",
    "operating_point",
]

#: 1/RANK_RTOL bounds the 1-norm condition number kappa_1 of the grounded
#: Laplacian: a larger one is refused as singular.
RANK_RTOL = 1e-9

#: Leaf size of `_spd_factor` at every level: a block of at most this many
#: rows is held as its `np.linalg.inv`, which costs less to form and to
#: apply than one more split. Bhat of a network with at most this many
#: non-slack nodes is factored as its plain inverse.
INVERSE_BLOCK = 64

#: Width of the node-aligned blocks of unit vectors that `DcFlowMatrices`
#: solves for its columns; C takes m / SOLVE_BLOCK solves, rounded up. It
#: sets how columns are grouped into solves, not the factor.
SOLVE_BLOCK = 64


def _readonly(a, dtype=float) -> np.ndarray:
    """Read-only copy of `a` as an array of `dtype`."""
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _unreachable(node_count: int, lines) -> list:
    """Nodes no line path joins to node 0, in increasing order."""
    adjacency = [[] for _ in range(node_count)]
    for i, j in lines:
        adjacency[i].append(j)
        adjacency[j].append(i)
    reached = [False] * node_count
    reached[0] = True
    todo = [0]
    while todo:
        for v in adjacency[todo.pop()]:
            if not reached[v]:
                reached[v] = True
                todo.append(v)
    return [k for k, seen in enumerate(reached) if not seen]


@dataclass(frozen=True)
class GridNetwork:
    """Connected oriented graph with per-line electrical parameters.

    Parameters
    ----------
    node_count : int
        Number of nodes N+1 including the slack node 0.
    lines : tuple of (int, int)
        Line endpoints (i, j) with i < j, strictly sorted lexicographically.
        Line ell is oriented from i to j.
    susceptance : array, shape (L,)
        Per-unit susceptances, strictly positive.
    current_rating : array, shape (L,)
        Maximum permissible currents, strictly positive.
    thermal_constant : array, shape (L,)
        Thermal time constants, strictly positive.
    """

    node_count: int
    lines: tuple
    susceptance: np.ndarray
    current_rating: np.ndarray
    thermal_constant: np.ndarray

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError("need at least two nodes (slack plus one)")
        lines = tuple((int(i), int(j)) for i, j in self.lines)
        object.__setattr__(self, "lines", lines)
        for name in ("susceptance", "current_rating", "thermal_constant"):
            arr = _readonly(getattr(self, name))
            if arr.shape != (len(lines),):
                raise ValueError(f"{name} must have one entry per line")
            if not np.all(arr > 0):
                raise ValueError(f"{name} entries must be strictly positive")
            object.__setattr__(self, name, arr)
        for i, j in lines:
            if not (0 <= i < j < self.node_count):
                raise ValueError(f"line ({i},{j}) must satisfy 0 <= i < j < node_count")
        for a, b in zip(lines, lines[1:]):
            if a >= b:
                raise ValueError(f"line {b} after line {a}: lines must be distinct and sorted")
        if _unreachable(self.node_count, lines):
            raise GraphError("network graph is disconnected")

    @property
    def line_count(self) -> int:
        return len(self.lines)


def build_laplacian(network: GridNetwork) -> np.ndarray:
    """Susceptance-weighted graph Laplacian B.

    B is symmetric with zero row sums; the off-diagonal entry (i, j) is
    -beta_ij for each line and the diagonal carries the incident sums,
    each added in line order.
    """
    n = network.node_count
    B = np.zeros((n, n))
    ends = np.array(network.lines)  # (L, 2): tail i, head j of each line
    tails, heads = ends.T
    beta = network.susceptance
    B[tails, heads] = B[heads, tails] = -beta
    # line ell adds beta_ell to B[i, i] and then to B[j, j]; bincount sums in
    # index order, so each diagonal entry rounds as the line-by-line sum does
    np.fill_diagonal(B, np.bincount(ends.ravel(), weights=np.repeat(beta, 2), minlength=n))
    return B


class _Split(NamedTuple):
    """One level of `_spd_factor`: M split into halves at row k = n // 2.

    A = M[:k, :k], B = M[:k, k:] and D = M[k:, k:]. Y is A^-1 B[:, cols]
    over B's nonzero columns `cols`; top and bottom factor A and the Schur
    complement S = D - B^T A^-1 B, which differs from D only in
    S[cols, cols]. B itself is not kept: B[:, cols]^T A^-1 = Y^T, as A is
    symmetric.
    """

    k: int
    cols: np.ndarray
    Y: np.ndarray
    top: object
    bottom: object


def _spd_factor(M: np.ndarray):
    """Factor the symmetric positive definite M by recursive 2 x 2 blocks.

    A block of at most INVERSE_BLOCK rows is returned as its
    `np.linalg.inv`, read only. A larger M is split into halves at n // 2
    (`_Split`), whose A and S are factored the same way; Y = A^-1 B is
    found by `_spd_solve` on the factored A, with the zero columns of B left
    out, so only S[cols, cols] is updated, by the product of B's nonzero
    rows with Y's. Raises LinAlgError if LAPACK finds a leaf singular.
    """
    n = len(M)
    if n <= INVERSE_BLOCK:
        inverse = np.linalg.inv(M)
        inverse.setflags(write=False)
        return inverse
    k = n // 2
    B = M[:k, k:]
    rows, cols = np.flatnonzero(B.any(axis=1)), np.flatnonzero(B.any(axis=0))
    coupling = B[np.ix_(rows, cols)]
    top = _spd_factor(M[:k, :k])
    Y = np.zeros((k, cols.size))
    Y[rows] = coupling
    _spd_solve(top, Y, Y)
    S = M[k:, k:].copy()
    S[np.ix_(cols, cols)] -= coupling.T @ Y[rows]
    bottom = _spd_factor(S)
    cols.setflags(write=False)
    Y.setflags(write=False)
    return _Split(k, cols, Y, top, bottom)


def _spd_solve(F, R: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into `out` the X with M X = R, for M factored as F by `_spd_factor`, and return it.

    R and out are vectors or matrices with M's rows; out may be R itself.
    A leaf is one product with its inverse. A split takes
    B^T A^-1 R_top = Y^T R_top off the rows cols of R_bottom, solves
    S x_bottom with that, solves A z = R_top and back-substitutes
    x_top = z - Y x_bottom[cols]: matrix products only.
    """
    if isinstance(F, np.ndarray):
        np.matmul(F, R, out=out)
        return out
    rhs = R[F.k :].copy()
    rhs[F.cols] -= F.Y.T @ R[: F.k]
    top, bottom = out[: F.k], out[F.k :]
    _spd_solve(F.top, R[: F.k], top)
    _spd_solve(F.bottom, rhs, bottom)
    top -= F.Y @ bottom[F.cols]
    return out


def _normalized(angles, tails, heads, beta, rating):
    """Cbar's columns for the angle columns, as one (L, width) array.

    A column is (angles[i] - angles[j]) beta_ell / r_ell for each line (i, j):
    the three elementwise steps that form every column of Cbar and every
    Cbar s, so a column's bits do not depend on the other columns formed
    with it.
    """
    values = np.subtract(angles[tails], angles[heads])
    values *= beta[:, None]
    values /= rating[:, None]
    return values


def _block_columns(factor, size: int, block: int, picked, lines) -> np.ndarray:
    """Cbar's columns `picked` of block `block` of nodes, over `lines` = (tails, heads, beta, rating).

    The block holds nodes block * SOLVE_BLOCK + 1 onwards, SOLVE_BLOCK of
    them or up to node `size` = N, always solved together for their angles
    (columns of Bg, the slack's row 0 zero); `_normalized` forms the picked
    ones. Every column of Cbar is formed here.
    """
    first = block * SOLVE_BLOCK
    width = min(SOLVE_BLOCK, size - first)
    units = np.zeros((size, width))
    units[first + np.arange(width), np.arange(width)] = 1.0
    angles = np.zeros((size + 1, width))
    _spd_solve(factor, units, angles[1:])
    return _normalized(angles[:, picked], *lines)


def _factor_grounded(network: GridNetwork):
    """(factor of Bhat, ||Bhat^-1||_1), or SingularReducedLaplacian when kappa_1 fails (module docstring)."""
    B = build_laplacian(network)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm or factor fails the kappa test
        # column j of Bhat sums to 2 Bhat_jj - beta_0j in absolute value, and B[0, j] = -beta_0j
        bhat_norm = float(np.max(2.0 * np.diagonal(B)[1:] + B[0, 1:]))
        try:
            factor = _spd_factor(B[1:, 1:])
            del B
            # Bhat^-1 is entrywise nonnegative, so its 1-norm is its largest row sum
            ones = np.ones(network.node_count - 1)
            inverse_norm = float(np.max(_spd_solve(factor, ones, ones)))
        except np.linalg.LinAlgError:
            factor, inverse_norm = None, np.inf
    # Python floats: a huge product becomes inf without a RuntimeWarning
    if not 0.0 < bhat_norm * inverse_norm < 1.0 / RANK_RTOL:  # NaN fails this test too
        raise SingularReducedLaplacian(
            "grounded Laplacian is singular; graph disconnected or susceptances degenerate"
        )
    return factor, inverse_norm


def _line_arrays(network: GridNetwork):
    """(tails, heads, beta, rating): each line's end nodes i < j, read-only, its susceptance and its rating."""
    tails, heads = (_readonly(ends, np.intp) for ends in np.array(network.lines).T)
    return tails, heads, network.susceptance, network.current_rating


def _currents(factor, lines, s) -> np.ndarray:
    """Cbar s from one solve for the angles theta = Bhat^-1 s[1:] (theta_0 = 0)."""
    theta = np.zeros(s.size)
    _spd_solve(factor, s[1:], theta[1:])
    return _normalized(theta[:, None], *lines)[:, 0]


def _network_currents(network: GridNetwork, s) -> np.ndarray:
    """Cbar s for nodal injections s of `network`, without assembling C.

    Factors Bhat and refuses it as `build_flow_matrices` does
    (SingularReducedLaplacian), then solves once, with the bits
    `DcFlowMatrices.currents` gives; C is not formed.
    """
    factor, _ = _factor_grounded(network)
    return _currents(factor, _line_arrays(network), np.asarray(s, dtype=float))


@dataclass(frozen=True)
class DcFlowMatrices:
    """The assembled injection-to-current linear map, stored as C and a factorization of Bhat.

    Stored, read-only: C, the factors of Bhat (`_spd_factor`) and the line
    end arrays. Served on demand, in new arrays: any columns of Cbar
    (`columns`), the normalized currents Cbar s of an injection vector
    (`currents`) and Ct (`transfer`). Neither Bhat^-1 nor any L x (N+1)
    array is kept, and a column is solved in its aligned block of
    SOLVE_BLOCK nodes whatever else is requested (module docstring).

    Attributes
    ----------
    network : GridNetwork
        Source network, kept for downstream access to ratings and thermal
        constants.
    m : int
        Number of stochastic nodes; by convention they are nodes 1..m.
    stochastic_block : array, shape (L, m)
        Columns 1..m of Cbar (the matrix C).
    factor : ndarray or _Split
        Bhat factored by `_spd_factor`, with leaves of at most INVERSE_BLOCK
        rows: Bhat^-1 itself when N <= INVERSE_BLOCK.
    tails, heads : arrays of int, shape (L,)
        The end nodes i < j of each line.
    """

    network: GridNetwork
    m: int
    stochastic_block: np.ndarray = field(repr=False)
    factor: object = field(repr=False)
    tails: np.ndarray = field(repr=False)
    heads: np.ndarray = field(repr=False)

    def columns(self, nodes) -> np.ndarray:
        """Cbar[:, nodes] in a new (L, len(nodes)) array, with the same bits however the nodes are grouped.

        Stochastic nodes are copied from C. Any other node's column is
        solved with the whole aligned block that holds it, the block C's
        columns come from, once per block requested.
        """
        nodes = np.asarray(nodes, dtype=np.intp)
        if nodes.ndim != 1 or np.any((nodes < 0) | (nodes >= self.node_count)):
            raise ValueError(f"nodes must be a list of node indices in 0..{self.node_count - 1}")
        out = np.empty((self.line_count, nodes.size))
        out[:, nodes == 0] = 0.0
        stochastic = (nodes >= 1) & (nodes <= self.m)
        out[:, stochastic] = self.stochastic_block[:, nodes[stochastic] - 1]
        rest = np.flatnonzero(nodes > self.m)
        blocks = (nodes[rest] - 1) // SOLVE_BLOCK
        for block in np.unique(blocks):
            pick = rest[blocks == block]
            out[:, pick] = _block_columns(self.factor, self.node_count - 1, block,
                                          nodes[pick] - 1 - block * SOLVE_BLOCK, self._lines)
        return out

    def currents(self, s) -> np.ndarray:
        """Cbar s for nodal injections s (length N+1; the slack entry s[0] is not read).

        The angles theta = Bhat^-1 s[1:] (theta_0 = 0) from one solve, then
        (theta_i - theta_j) beta_ell / r_ell for each line: equal to Cbar s up
        to rounding.
        """
        s = np.asarray(s, dtype=float)
        if s.shape != (self.node_count,):
            raise ValueError(f"injections must have length {self.node_count}")
        return _currents(self.factor, self._lines, s)

    @property
    def _lines(self):
        return self.tails, self.heads, self.network.susceptance, self.network.current_rating

    @property
    def transfer(self) -> np.ndarray:
        """Ct = Cbar diag(rating), built afresh and read-only on each access."""
        Ct = self.columns(np.arange(self.node_count))
        Ct *= self.network.current_rating[:, None]
        Ct.setflags(write=False)
        return Ct

    @property
    def node_count(self) -> int:
        return self.network.node_count

    @property
    def line_count(self) -> int:
        return self.network.line_count


def build_flow_matrices(network: GridNetwork, m: int) -> DcFlowMatrices:
    """Assemble the current transfer chain and check the invariants it rests on.

    Parameters
    ----------
    network : GridNetwork
    m : int
        Count of stochastic nodes. The stochastic nodes must already occupy
        indices 1..m; reordering is the caller's responsibility (the io
        module performs it when reading documents).

    Raises
    ------
    SingularReducedLaplacian
        If LAPACK finds a leaf of `_spd_factor` singular, or kappa_1 is not
        finite or reaches 1/RANK_RTOL (module docstring); susceptance ratios
        near 1e10 do this.
    RankDeficiency
        If a row of Cbar is not finite (a subnormal rating overflows it),
        naming the first such line in its `line`. rank(B), rank(Cbar) and
        rank(C) are theorems here and are not re-checked.
    """
    n = network.node_count
    if not (1 <= m <= n - 1):
        raise ValueError(f"m must lie in 1..{n - 1}")
    factor, inverse_norm = _factor_grounded(network)
    lines = tails, heads, beta, rating = _line_arrays(network)
    blocks = range(-(-(n - 1) // SOLVE_BLOCK))

    # |Cbar[ell, c]| <= fl(fl(4 ||Bhat^-1||_1 beta_ell) / r_ell) (module
    # docstring); beta_ell ||Bhat^-1||_1 <= kappa_1 < 1e9, so only a rating
    # below ~1e-299 leaves the bound non-finite, and only such a row is
    # priced, block by block as `columns` solves it
    with np.errstate(over="ignore"):
        priced = np.flatnonzero(~np.isfinite(4.0 * inverse_norm * beta / rating))
        finite = np.ones(priced.size, dtype=bool)
        for block in blocks if priced.size else ():
            rows = _block_columns(factor, n - 1, block, slice(None), [v[priced] for v in lines])
            finite &= np.isfinite(rows).all(axis=1)
    if not finite.all():
        ell = int(priced[np.argmin(finite)])
        raise RankDeficiency(
            ell, f"{{line}} has non-finite normalized currents "
            f"(current rating {rating[ell]:.6g} is too small)"
        )

    C = np.empty((network.line_count, m))
    for block in blocks[: -(-m // SOLVE_BLOCK)]:
        first = block * SOLVE_BLOCK
        C[:, first : first + SOLVE_BLOCK] = _block_columns(factor, n - 1, block, slice(m - first), lines)
    C.setflags(write=False)
    return DcFlowMatrices(network=network, m=m, stochastic_block=C, factor=factor, tails=tails, heads=heads)


@dataclass(frozen=True)
class OperatingPoint:
    """Initial injections and the normalized currents they induce.

    nu = C mu + C_D mu_D is the normalized current vector at time zero and
    y = C_D mu_D its deterministic part. Decay-rate computations require the
    strict feasibility condition max |nu_ell| < 1.
    """

    mu: np.ndarray
    mu_D: np.ndarray
    y: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        for name in ("mu", "mu_D", "y", "nu"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


def _checked_injections(flow: DcFlowMatrices, mu, mu_D=()):
    """(mu, mu_D) as float vectors; ValueError unless their lengths are m and N - m."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    mu_D = np.atleast_1d(np.asarray(mu_D, dtype=float)) if len(np.atleast_1d(mu_D)) else np.zeros(0)
    n_det = flow.node_count - 1 - flow.m
    if mu.shape != (flow.m,):
        raise ValueError(f"mu must have length {flow.m}")
    if mu_D.shape != (n_det,):
        raise ValueError(f"mu_D must have length {n_det}")
    return mu, mu_D


def operating_point(flow: DcFlowMatrices, mu, mu_D=()) -> OperatingPoint:
    """Build the operating point for given stochastic and deterministic injections.

    y = C_D mu_D is computed as `flow.currents` of the deterministic
    injections alone.

    Raises
    ------
    InfeasibleStart
        If max |nu_ell| >= 1, i.e. the start is not strictly inside the
        deterministic stability region.
    """
    mu, mu_D = _checked_injections(flow, mu, mu_D)
    with np.errstate(over="ignore"):  # an injection near the float limit gives an inf current, refused below
        if mu_D.size:
            s = np.zeros(flow.node_count)
            s[flow.m + 1 :] = mu_D
            y = flow.currents(s)
        else:
            y = np.zeros(flow.line_count)
        nu = flow.stochastic_block @ mu + y
    if np.max(np.abs(nu)) >= 1.0:
        raise InfeasibleStart(
            f"initial normalized current reaches {np.max(np.abs(nu)):.6g} >= 1"
        )
    return OperatingPoint(mu=mu, mu_D=mu_D, y=y, nu=nu)
