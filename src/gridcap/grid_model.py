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
stores only C (L x m), Bg ((N+1) x (N+1), the inverse written into its lower
block as `_spd_inverse` forms it) and the line end arrays, all read-only.
Cbar itself is never stored: `columns(nodes)` gathers any of its columns
from the two terminal rows of Bg, by the same three elementwise steps that
form C (subtract, times beta, over the rating), so a served column has the
bits of the same column in C; `currents(s)` returns Cbar s from the angles
theta = Bhat^-1 s[1:]; `transfer` forms Ct whole for callers that want it.
A, Dbeta and Ct are never formed by the assembly, and B is freed once Bhat
is inverted and kappa_1 taken.

Bhat is symmetric positive definite, so `_spd_inverse` inverts it by
recursive 2 x 2 blocks through the Schur complement, which needs no pivoting
for such a matrix (Demmel, Higham & Schreiber, 1995). The work is about
4/3 N^3 flops, all in matrix products, against about 8/3 N^3 for LAPACK's
gesv solve against the identity. Blocks of at most INVERSE_BLOCK rows go to
`np.linalg.inv`, so a network with at most that many non-slack nodes gets
the same bits as a plain `np.linalg.inv(Bhat)`. Above that, each level
multiplies only the rows and columns where Bhat couples its two halves
(skipping the zero coupling is the idea behind nested dissection; George,
SIAM J. Numer. Anal. 10(2), 1973). SciPy's Cholesky inverse would halve the
flops again, and its sparse LU would skip more zeros, but importing
`scipy.linalg` takes ~0.2 s and `scipy.sparse.linalg` ~0.15 s, which every
command that assembles a network would pay at start-up.

Each invariant is decided once. `_unreachable` decides connectivity, also for
`io_formats.parse_native`. Bhat is refused when kappa_1 = ||Bhat||_1
||Bhat^-1||_1, within a factor N of sigma_max/sigma_min, is not finite or
reaches 1/RANK_RTOL. A non-finite row of Cbar is refused, although Cbar is
not stored: every entry of row ell is at most fl(fl(2 ||Bhat^-1||_1 beta_ell)
/ r_ell) in magnitude, since each rounding step is monotone, so only a line
whose bound is not finite has its whole row priced. rank(C) = m is
certified from eigvalsh(C^T C) where its rounding leaves no doubt, and
otherwise checked by SVD at cutoff RANK_RTOL (`_gram_certifies_rank`).
rank(B) = rank(Cbar) = N are theorems for a connected graph with positive
susceptances (the range of Bg meets the kernel of A only at 0);
`test_rank_chain_random_networks` checks them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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

#: Relative singular-value cutoff of the rank(C) check; 1/RANK_RTOL also
#: bounds the condition number kappa_1 of the grounded Laplacian.
RANK_RTOL = 1e-9

#: Largest block `_spd_inverse` hands to `np.linalg.inv` whole.
INVERSE_BLOCK = 128

#: Safety factor over the rounding of eigvalsh(C^T C) that its smallest
#: eigenvalue must clear to certify rank(C) = m without an SVD.
GRAM_MARGIN = 1e3

#: Bytes of the largest temporary `DcFlowMatrices.columns` gathers at once.
COLUMN_BLOCK_BYTES = 1 << 21


def _readonly(a, dtype=float) -> np.ndarray:
    """Read-only copy of `a` as an array of `dtype`."""
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _unreachable(node_count: int, lines) -> list:
    """Nodes no line path joins to node 0, in increasing order (breadth-first)."""
    adjacency = [[] for _ in range(node_count)]
    for i, j in lines:
        adjacency[i].append(j)
        adjacency[j].append(i)
    reached, frontier = {0}, {0}
    while frontier:
        frontier = {v for u in frontier for v in adjacency[u]} - reached
        reached |= frontier
    return sorted(set(range(node_count)) - reached)


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


def _spd_inverse(M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of the symmetric positive definite M by recursive 2 x 2 blocks.

    With M = [[A, B], [B^T, D]] split at k = n // 2, S = D - B^T A^-1 B is
    the Schur complement, again symmetric positive definite, and with
    X = A^-1 B S^-1

        M^-1 = [[A^-1 + X (A^-1 B)^T, -X], [-X^T, S^-1]].

    A and S are inverted the same way down to INVERSE_BLOCK rows, and every
    block is written into `out` (allocated when not given).

    A Laplacian's coupling block B is mostly zero. With c its nonzero
    columns and r its nonzero rows, the products run on those alone:
    A^-1 B = A^-1[:, r] B[r, c] in columns c and zero elsewhere, so only
    S[c, c] is updated, X = (A^-1 B)[:, c] S^-1[c] and A^-1 gains
    X[:, c] (A^-1 B)[:, c]^T. The terms left out are exact zeros; the sums
    keep their other terms but may round in another order.
    """
    n = len(M)
    if out is None:
        out = np.empty((n, n))
    if n <= INVERSE_BLOCK:
        out[...] = np.linalg.inv(M)
        return out
    k = n // 2
    B = M[:k, k:]
    Ai = _spd_inverse(M[:k, :k], out[:k, :k])
    rows = np.flatnonzero(B.any(axis=1))
    cols = np.flatnonzero(B.any(axis=0))
    Brc = B[np.ix_(rows, cols)]
    AiB = Ai[:, rows] @ Brc
    S = M[k:, k:].copy()
    S[np.ix_(cols, cols)] -= Brc.T @ AiB[rows]
    Si = _spd_inverse(S, out[k:, k:])
    del S
    X = out[:k, k:]
    np.matmul(AiB, Si[cols], out=X)
    Ai += X[:, cols] @ AiB.T
    del AiB
    np.negative(X, out=X)
    out[k:, :k] = X.T
    return out


def _gram_certifies_rank(C: np.ndarray) -> bool:
    """Whether eigvalsh(C^T C) proves that the SVD test finds rank(C) = m.

    With u = 2^-53, each entry of the computed G = fl(C^T C) is a dot
    product of length L, wrong by at most L u (|C|^T |C|) in any summation
    order, and || |C|^T |C| ||_2 <= ||C||_F^2 = tr(G). eigvalsh is backward
    stable, exact for G plus a perturbation of norm p(m) u ||G||_2 with p(m)
    a modest multiple of m, which GRAM_MARGIN absorbs. By Weyl's inequality
    every computed eigenvalue is then within (L + m) u tr(G) of the true
    sigma_i^2, to first order. The certificate
    lambda_min > GRAM_MARGIN (L + m) eps tr(G) (eps = 2u) so leaves
    sigma_min^2 > (2 GRAM_MARGIN - 1) (L + m) u tr(G) >= 4e-13 sigma_max^2,
    and sigma_min / sigma_max > 6e-7 even at L = m = 1: orders of magnitude
    above RANK_RTOL and the SVD's own rounding, so the SVD test would find
    full rank. Gradual underflow adds to each product and sum an absolute
    error of at most eps tiny / 2 (tiny = 2^-1022, the least normal number),
    at most L m eps tiny in norm over G; the certificate asks
    floor >= L m tiny, so that error stays below eps floor, which the margin
    absorbs. Anything else, a non-finite G, a smaller floor (C scaled far
    down) or a NaN included, returns False and the caller runs the SVD test
    itself, which is scale-invariant: RankDeficiency is raised on exactly
    the inputs it would be without this shortcut.
    """
    L, m = C.shape
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite G or floor certifies nothing
        G = C.T @ C
        floor = GRAM_MARGIN * (L + m) * np.finfo(float).eps * np.trace(G)
    if not (np.isfinite(G).all() and floor >= L * m * np.finfo(float).tiny):
        return False
    return bool(np.linalg.eigvalsh(G)[0] > floor)


def _gather_columns(network: GridNetwork, Bg, tails, heads, nodes: np.ndarray) -> np.ndarray:
    """Cbar[:, nodes] in a new array, at most COLUMN_BLOCK_BYTES of columns gathered at a time.

    Each block is Bg[i, c] - Bg[j, c], times beta_ell, over the rating, the
    three elementwise steps that form C, so a column's bits do not depend on
    the block that gathers it.
    """
    beta, rating = network.susceptance, network.current_rating
    out = np.empty((len(tails), nodes.size))
    width = max(1, COLUMN_BLOCK_BYTES // (8 * len(tails)))
    # a run of consecutive nodes is read through slices, which gather faster
    run = nodes.size > 0 and np.array_equal(nodes, np.arange(nodes[0], nodes[0] + nodes.size))
    for start in range(0, len(nodes), width):
        block = out[:, start : start + width]
        if run:
            cols = slice(nodes[0] + start, nodes[0] + start + block.shape[1])
            np.subtract(Bg[tails, cols], Bg[heads, cols], out=block)
        else:
            cols = nodes[start : start + width]
            np.subtract(Bg[np.ix_(tails, cols)], Bg[np.ix_(heads, cols)], out=block)
        block *= beta[:, None]
        block /= rating[:, None]
    return out


@dataclass(frozen=True)
class DcFlowMatrices:
    """The assembled injection-to-current linear map, stored as C and Bg.

    Stored, read-only: C, the grounded inverse Bg and the line end arrays.
    Served on demand, in new arrays: any columns of Cbar (`columns`), the
    normalized currents Cbar s of an injection vector (`currents`) and Ct
    (`transfer`). No L x (N+1) array is kept (module docstring).

    Attributes
    ----------
    network : GridNetwork
        Source network, kept for downstream access to ratings and thermal
        constants.
    m : int
        Number of stochastic nodes; by convention they are nodes 1..m.
    stochastic_block : array, shape (L, m)
        Columns 1..m of Cbar (the matrix C).
    grounded_inverse : array, shape (N+1, N+1)
        Bg = block-diag(0, Bhat^-1), as `_spd_inverse` forms it.
    tails, heads : arrays of int, shape (L,)
        The end nodes i < j of each line.
    """

    network: GridNetwork
    m: int
    stochastic_block: np.ndarray = field(repr=False)
    grounded_inverse: np.ndarray = field(repr=False)
    tails: np.ndarray = field(repr=False)
    heads: np.ndarray = field(repr=False)

    def columns(self, nodes) -> np.ndarray:
        """Cbar[:, nodes] in a new (L, len(nodes)) array, bit for bit as C's columns are formed."""
        nodes = np.asarray(nodes, dtype=np.intp)
        if nodes.ndim != 1 or np.any((nodes < 0) | (nodes >= self.node_count)):
            raise ValueError(f"nodes must be a list of node indices in 0..{self.node_count - 1}")
        return _gather_columns(self.network, self.grounded_inverse, self.tails, self.heads, nodes)

    def currents(self, s) -> np.ndarray:
        """Cbar s for nodal injections s (length N+1; the slack entry s[0] is not read).

        The angles theta = Bhat^-1 s[1:] (theta_0 = 0), then
        (theta_i - theta_j) beta_ell / r_ell for each line: equal to Cbar s up
        to rounding.
        """
        s = np.asarray(s, dtype=float)
        if s.shape != (self.node_count,):
            raise ValueError(f"injections must have length {self.node_count}")
        theta = np.zeros(self.node_count)
        np.matmul(self.grounded_inverse[1:, 1:], s[1:], out=theta[1:])
        flow = theta[self.tails] - theta[self.heads]
        flow *= self.network.susceptance
        flow /= self.network.current_rating
        return flow

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
        If LAPACK finds a block of `_spd_inverse` singular, or kappa_1 is not
        finite or reaches 1/RANK_RTOL (module docstring); susceptance ratios
        near 1e10 do this.
    RankDeficiency
        If a row of Cbar is not finite (a subnormal rating overflows it),
        naming the first such line in its `line`, or if rank(C) != m at
        relative singular-value cutoff RANK_RTOL. rank(B) and rank(Cbar) are
        theorems here and are not re-checked.
    """
    n = network.node_count
    if not (1 <= m <= n - 1):
        raise ValueError(f"m must lie in 1..{n - 1}")
    B = build_laplacian(network)

    Bhat = B[1:, 1:]
    Bg = np.zeros((n, n))
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite blocks fail the kappa test
            _spd_inverse(Bhat, Bg[1:, 1:])
        # Python floats: a huge product becomes inf without a RuntimeWarning
        inverse_norm = float(np.linalg.norm(Bg[1:, 1:], 1))
        kappa = float(np.linalg.norm(Bhat, 1)) * inverse_norm
    except np.linalg.LinAlgError:
        kappa = np.inf
    del B, Bhat
    if not kappa < 1.0 / RANK_RTOL:  # NaN fails this test too
        raise SingularReducedLaplacian(
            "grounded Laplacian is singular; graph disconnected or susceptances degenerate"
        )
    Bg.setflags(write=False)
    tails, heads = (_readonly(ends, np.intp) for ends in np.array(network.lines).T)
    beta, rating = network.susceptance, network.current_rating

    # |Cbar[ell, c]| <= fl(fl(2 ||Bhat^-1||_1 beta_ell) / r_ell) (module
    # docstring); beta_ell ||Bhat^-1||_1 <= kappa_1 < 1e9, so only a rating
    # below ~1e-299 leaves the bound non-finite, and only such a row is priced
    with np.errstate(over="ignore"):
        bound = 2.0 * inverse_norm * beta / rating
        for ell in np.flatnonzero(~np.isfinite(bound)):
            row = np.subtract(Bg[tails[ell]], Bg[heads[ell]]) * beta[ell] / rating[ell]
            if not np.isfinite(row).all():
                raise RankDeficiency(
                    int(ell), f"{{line}} has non-finite normalized currents "
                    f"(current rating {rating[ell]:.6g} is too small)"
                )

    C = _gather_columns(network, Bg, tails, heads, np.arange(1, m + 1))
    C.setflags(write=False)
    if not _gram_certifies_rank(C):
        s = np.linalg.svd(C, compute_uv=False)
        if np.sum(s > RANK_RTOL * s[0]) != m:
            raise RankDeficiency()

    return DcFlowMatrices(network=network, m=m, stochastic_block=C, grounded_inverse=Bg, tails=tails, heads=heads)


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
