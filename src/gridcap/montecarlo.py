"""Monte Carlo estimation of overload probabilities.

Replicates are simulated with exact mean-reverting transitions, one
counter-based random stream per replicate keyed by (seed, replicate). The
estimate is therefore bit-identical for any chunk size and any number of
worker threads: chunking only groups replicates for vectorized stepping.

The kernel is lines-major: a block of R replicates is stepped as states
x (m, R), squared currents and temperatures (L, R), and noise (steps, m, R),
so each step reads one contiguous noise slice and the per-replicate peak is
a maximum across rows. A block holds at most `McConfig.chunk` replicates
and at most NOISE_BLOCK_BYTES of noise; neither cap changes any result.

Current and temperature overload indicators come from the same paths, which
makes the temperature event a subset of the current event replicate by
replicate: each temperature sample is a convex combination of the initial
and subsequent squared currents, so it can only reach the squared threshold
if some current sample already did.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientHits
from .injections import ou_step_coefficients
from .ld_rates import PsiContext
from .thermal import filter_coefficients
from ._streams import fill_normal_blocks

__all__ = [
    "Z_95",
    "McConfig",
    "McEstimate",
    "McIndicators",
    "DecayFit",
    "wilson_interval",
    "overload_indicators",
    "overload_probability",
    "decay_slope",
]

Z_95 = 1.959963984540054

# Upper bound on the bytes of noise drawn for one block of replicates.
NOISE_BLOCK_BYTES = 16 * 2**20


@dataclass(frozen=True)
class McConfig:
    """Replicate count, time grid, base seed, and vectorization chunk.

    `chunk` caps the replicates stepped together in one block; blocks are
    further capped so their noise stays within NOISE_BLOCK_BYTES. Results do
    not depend on either cap.
    """

    replicates: int
    step_count: int
    seed: int
    chunk: int = 2048

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.step_count < 1:
            raise ValueError("step_count must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.chunk < 1:
            raise ValueError("chunk must be at least 1")


@dataclass(frozen=True)
class McIndicators:
    """Per-replicate overload indicators from one coupled simulation."""

    current: np.ndarray
    temperature: np.ndarray
    threshold: float

    def __post_init__(self):
        for name in ("current", "temperature"):
            arr = np.asarray(getattr(self, name), dtype=bool).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class McEstimate:
    """Hit-frequency estimate with a 95% Wilson confidence interval."""

    mode: str
    threshold: float
    replicates: int
    hits: int
    p_hat: float
    ci_low: float
    ci_high: float


def wilson_interval(hits: int, n: int, z: float = Z_95):
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= hits <= n:
        raise ValueError("hits must lie in [0, n]")
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def overload_indicators(ctx: PsiContext, config: McConfig, threshold: float = 1.0) -> McIndicators:
    """Simulate all replicates and record both overload events per replicate.

    A current overload is sup_t max_ell |Y_ell| >= threshold on the sample
    grid; a temperature overload is sup_t max_ell Theta_ell >= threshold^2,
    with each line's temperature started at its initial squared current.
    """
    if not threshold > 0:
        raise ValueError("threshold must be strictly positive")
    ou = ctx.ou
    n = config.step_count
    dt = ou.horizon / n
    decay, std = ou_step_coefficients(ou, dt)
    q, c1, c2 = filter_coefficients(dt, ctx.tau)
    C = ctx.flow.stochastic_block
    columns = [np.asarray(c)[:, None] for c in (ou.mean, decay, std, ctx.op.y, q, c1, c2)]
    th2 = threshold * threshold
    rows = max(1, min(config.chunk, NOISE_BLOCK_BYTES // (8 * n * ou.m)))

    cur_hits = np.zeros(config.replicates, dtype=bool)
    tmp_hits = np.zeros(config.replicates, dtype=bool)
    for start in range(0, config.replicates, rows):
        stop = min(start + rows, config.replicates)
        z = fill_normal_blocks(config.seed, start, np.empty((stop - start, n, ou.m)))
        noise = np.ascontiguousarray(z.transpose(1, 2, 0))
        del z
        cur, tmp = _block_peaks(noise, C, *columns)
        cur_hits[start:stop] = cur >= th2
        tmp_hits[start:stop] = tmp >= th2
    return McIndicators(current=cur_hits, temperature=tmp_hits, threshold=float(threshold))


def _block_peaks(noise, C, mu, decay, std, y, q, c1, c2):
    """Peak squared current and peak temperature per replicate of one block.

    `noise` is (steps, m, R); the other coefficients are columns, widened
    here to the R replicates because full-width operands step faster than
    broadcast ones. The (L, R) updates run in place but keep the operation
    order of theta' = q theta + c1 u + c2 u', so no result depends on the
    block size.
    """
    R = noise.shape[2]
    mu, decay, std, y, q, c1, c2 = (np.repeat(c, R, axis=1) for c in (mu, decay, std, y, q, c1, c2))
    x = mu
    u = (C @ x + y) ** 2
    theta = u.copy()
    cur = u.max(axis=0)
    tmp = cur.copy()
    u_next = np.empty_like(u)
    buf = np.empty_like(u)
    for z in noise:
        x = mu + (x - mu) * decay + std * z
        np.matmul(C, x, out=u_next)
        u_next += y
        u_next *= u_next
        theta *= q
        np.multiply(c1, u, out=buf)
        theta += buf
        np.multiply(c2, u_next, out=buf)
        theta += buf
        u, u_next = u_next, u
        np.maximum(cur, u.max(axis=0), out=cur)
        np.maximum(tmp, theta.max(axis=0), out=tmp)
    return cur, tmp


def _estimate(mode: str, hits_arr: np.ndarray, threshold: float) -> McEstimate:
    n = hits_arr.size
    hits = int(np.count_nonzero(hits_arr))
    lo, hi = wilson_interval(hits, n)
    return McEstimate(
        mode=mode,
        threshold=threshold,
        replicates=n,
        hits=hits,
        p_hat=hits / n,
        ci_low=lo,
        ci_high=hi,
    )


def overload_probability(
    ctx: PsiContext, config: McConfig, mode: str = "current", threshold: float = 1.0
) -> McEstimate:
    """Estimated probability of an overload before the horizon."""
    if mode not in ("current", "temperature"):
        raise ValueError(f"unknown mode {mode!r}")
    ind = overload_indicators(ctx, config, threshold)
    hits_arr = ind.current if mode == "current" else ind.temperature
    return _estimate(mode, hits_arr, ind.threshold)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log p-hat against inverse noise scale."""

    mode: str
    epsilons: tuple
    estimates: tuple
    slope: float
    intercept: float
    residual: float

    @property
    def rate(self) -> float:
        """Estimated decay rate: minus the fitted slope."""
        return -self.slope


def decay_slope(
    ctx: PsiContext,
    config: McConfig,
    epsilons,
    mode: str = "current",
    threshold: float = 1.0,
) -> DecayFit:
    """Fit the small-noise decay rate from estimates at several noise scales.

    Runs one estimate per epsilon (replacing the model's noise scale, same
    seed) and regresses log p-hat on 1/epsilon. Raises InsufficientHits if
    any estimate records zero hits.
    """
    eps = [float(e) for e in epsilons]
    if len(eps) < 2:
        raise ValueError("need at least two noise scales to fit a slope")
    if any(e <= 0 for e in eps):
        raise ValueError("noise scales must be strictly positive")
    estimates = []
    for e in eps:
        ctx_e = PsiContext(ctx.flow, ctx.op, replace(ctx.ou, noise_scale=e))
        est = overload_probability(ctx_e, config, mode, threshold)
        if est.hits == 0:
            raise InsufficientHits(
                f"no overloads in {est.replicates} replicates at noise scale {e}"
            )
        estimates.append(est)
    x = np.array([1.0 / e for e in eps])
    logp = np.log([est.p_hat for est in estimates])
    slope, intercept = np.polyfit(x, logp, 1)
    residual = float(np.sqrt(np.mean((logp - (slope * x + intercept)) ** 2)))
    return DecayFit(
        mode=mode,
        epsilons=tuple(eps),
        estimates=tuple(estimates),
        slope=float(slope),
        intercept=float(intercept),
        residual=residual,
    )
