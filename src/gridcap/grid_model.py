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

With the stochastic injections occupying nodes 1..m, Cbar splits column-wise
into [0 | C | C_D]: the slack column is identically zero, C acts on the
stochastic injections and C_D on the deterministic ones. `DcFlowMatrices`
stores B, Ct, Cbar, C and C_D; A, Dbeta and Bg are not kept.
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
    "build_incidence",
    "build_flow_matrices",
    "operating_point",
]

#: Relative singular-value cutoff used by every rank check.
RANK_RTOL = 1e-9


def _readonly(a, dtype=float) -> np.ndarray:
    """Read-only copy of `a` as an array of `dtype`."""
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


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
        seen = set()
        for i, j in lines:
            if not (0 <= i < j < self.node_count):
                raise ValueError(f"line ({i},{j}) must satisfy 0 <= i < j < node_count")
            if (i, j) in seen:
                raise ValueError(f"duplicate line ({i},{j})")
            seen.add((i, j))
        if list(lines) != sorted(lines):
            raise ValueError("lines must be sorted lexicographically")
        if not self._connected():
            raise GraphError("network graph is disconnected")

    def _connected(self) -> bool:
        adj = [[] for _ in range(self.node_count)]
        for i, j in self.lines:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.node_count

    @property
    def line_count(self) -> int:
        return len(self.lines)


def build_laplacian(network: GridNetwork) -> np.ndarray:
    """Susceptance-weighted graph Laplacian B.

    B is symmetric with zero row sums; the off-diagonal entry (i, j) is
    -beta_ij for each line and the diagonal carries the incident sums.
    """
    n = network.node_count
    B = np.zeros((n, n))
    for (i, j), beta in zip(network.lines, network.susceptance):
        B[i, j] -= beta
        B[j, i] -= beta
        B[i, i] += beta
        B[j, j] += beta
    return B


def build_incidence(network: GridNetwork) -> np.ndarray:
    """Oriented edge-vertex incidence matrix A.

    Row ell has +1 at the line's tail i and -1 at its head j. For a
    connected graph the kernel of A is spanned by the all-ones vector.
    """
    A = np.zeros((network.line_count, network.node_count))
    for ell, (i, j) in enumerate(network.lines):
        A[ell, i] = 1.0
        A[ell, j] = -1.0
    return A


def _rank(matrix: np.ndarray) -> int:
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


@dataclass(frozen=True)
class DcFlowMatrices:
    """The assembled injection-to-current linear map and its blocks.

    Attributes
    ----------
    network : GridNetwork
        Source network, kept for downstream access to ratings and thermal
        constants.
    m : int
        Number of stochastic nodes; by convention they are nodes 1..m.
    laplacian, transfer, normalized : arrays
        B, Ct and Cbar as described in the module docstring.
    stochastic_block : array, shape (L, m)
        Columns 1..m of Cbar (the matrix C).
    deterministic_block : array, shape (L, N-m)
        Columns m+1..N of Cbar (the matrix C_D).
    """

    network: GridNetwork
    m: int
    laplacian: np.ndarray = field(repr=False)
    transfer: np.ndarray = field(repr=False)
    normalized: np.ndarray = field(repr=False)
    stochastic_block: np.ndarray = field(repr=False)
    deterministic_block: np.ndarray = field(repr=False)

    @property
    def node_count(self) -> int:
        return self.network.node_count

    @property
    def line_count(self) -> int:
        return self.network.line_count


def build_flow_matrices(network: GridNetwork, m: int) -> DcFlowMatrices:
    """Assemble the current transfer chain and verify its rank structure.

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
        If the grounded Laplacian Bhat is numerically singular.
    RankDeficiency
        If rank(B) != N, rank(Cbar) != N or rank(C) != m.
    """
    n = network.node_count
    if not (1 <= m <= n - 1):
        raise ValueError(f"m must lie in 1..{n - 1}")
    B = build_laplacian(network)

    Bhat = B[1:, 1:]
    svals = np.linalg.svd(Bhat, compute_uv=False)
    if svals.size == 0 or svals[-1] <= RANK_RTOL * svals[0]:
        raise SingularReducedLaplacian(
            "grounded Laplacian is singular; graph disconnected or susceptances degenerate"
        )
    Bg = np.zeros((n, n))
    Bg[1:, 1:] = np.linalg.inv(Bhat)

    # row-scaling A by beta equals Dbeta A bit for bit, without the L x L diagonal
    Ct = (network.susceptance[:, None] * build_incidence(network)) @ Bg
    Cbar = Ct / network.current_rating[:, None]

    if _rank(B) != n - 1:
        raise RankDeficiency(f"Laplacian rank {_rank(B)} != {n - 1}")
    if _rank(Cbar) != n - 1:
        raise RankDeficiency("normalized transfer matrix is rank deficient")
    C = Cbar[:, 1 : m + 1]
    if _rank(C) != m:
        raise RankDeficiency("stochastic block C does not have full column rank")

    return DcFlowMatrices(
        network=network,
        m=m,
        laplacian=_readonly(B),
        transfer=_readonly(Ct),
        normalized=_readonly(Cbar),
        stochastic_block=_readonly(C),
        deterministic_block=_readonly(Cbar[:, m + 1 :]),
    )


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


def operating_point(flow: DcFlowMatrices, mu, mu_D=()) -> OperatingPoint:
    """Build the operating point for given stochastic and deterministic injections.

    Raises
    ------
    InfeasibleStart
        If max |nu_ell| >= 1, i.e. the start is not strictly inside the
        deterministic stability region.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    mu_D = np.atleast_1d(np.asarray(mu_D, dtype=float)) if len(np.atleast_1d(mu_D)) else np.zeros(0)
    n_det = flow.deterministic_block.shape[1]
    if mu.shape != (flow.m,):
        raise ValueError(f"mu must have length {flow.m}")
    if mu_D.shape != (n_det,):
        raise ValueError(f"mu_D must have length {n_det}")
    y = flow.deterministic_block @ mu_D if n_det else np.zeros(flow.line_count)
    nu = flow.stochastic_block @ mu + y
    if np.max(np.abs(nu)) >= 1.0:
        raise InfeasibleStart(
            f"initial normalized current reaches {np.max(np.abs(nu)):.6g} >= 1"
        )
    return OperatingPoint(mu=mu, mu_D=mu_D, y=y, nu=nu)
